"""Benchmark entry point.  From the root of a checkout:

    python3 perfbench/run.py --workload recommend --seed 1 --seconds 20 --trace 0

`--workload` is train, recommend or evaluate (see workloads.py), or all,
which runs each in its own process and prints every metric with its unit.
Inputs are generated from `--seed` by gen.py in a separate process and
written to a temporary directory inside the checkout, so the measured
process holds only what the program itself loads.  The last line of
standard output is the result as JSON; the lines before it record the run
(versions, thread pinning, source size), the measured input properties and
figures that only this workload has (`detail`, such as recommend's latency
at each beam width), which are not metrics of BENCHMARK.json.  Every
workload reports every metric: end to end, or per layer with `--trace 1`.

Exits with status 2 when the checkout has no `src/libsuggest`.
"""

from __future__ import annotations

import os

# BLAS and OpenMP read these once, when numpy is first imported
THREAD_PINNING = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINNING)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train", "recommend", "evaluate")
GEN_TIMEOUT_S = 600


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "thread_pinning": THREAD_PINNING,
        "src_lines": src_lines,
    }


def _env() -> dict:
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return {**os.environ, "PYTHONPATH": path}


def run_one(args) -> int:
    from perfbench import gen, workloads

    scale = gen.SCALES[args.scale]
    print(json.dumps({"run_record": run_record(args)}), flush=True)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as inputs_dir:
        subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "gen.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--scale", args.scale, "--out", inputs_dir],
            env=_env(), check=True, timeout=GEN_TIMEOUT_S,
        )
        result = workloads.run(args.workload, inputs_dir, scale, args.seconds, bool(args.trace))
    print(json.dumps({"inputs": result.properties}))
    print(json.dumps({"detail": result.detail}))
    if result.spans is not None:
        print(json.dumps({"spans": result.spans}))
    print(json.dumps(result.line()))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory does not carry over."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", args.scale],
            env=_env(), check=True, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
        result = lines[-1]
        for metric, entry in result["metrics"].items():
            print(f"{name:<10} {metric:<40} {entry['value']:>14.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
        for line in lines:
            for key, value in line.get("detail", {}).items():
                print(f"{name:<10} {key:<40} {value} (detail)")
        print(f"{name:<10} attempted {result['attempted']} failed {result['failed']}")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="libsuggest benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("paper", "tiny"), default="paper",
                   help="input and model size; tiny is for the benchmark's own tests")
    args = p.parse_args(argv)
    # unwind on SIGTERM as on an exception: the input generator is killed
    # and waited for, and the temporary input directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "libsuggest" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/libsuggest to benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
