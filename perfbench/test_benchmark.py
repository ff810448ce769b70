"""Tests of the benchmark itself, on tiny inputs."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from libsuggest import decode, model, trainer
from libsuggest.decode import RecommendResult

from perfbench import gen, workloads
from perfbench.tracing import Span, self_times

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = tuple(w["name"] for w in SPEC["workloads"])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    dirs = {}
    for name in NAMES:
        path = tmp_path_factory.mktemp(name)
        gen.write_inputs(name, 3, gen.TINY, str(path))
        dirs[name] = str(path)
    return dirs


@pytest.fixture(scope="module")
def results(inputs):
    return {
        (name, trace): workloads.run(name, inputs[name], gen.TINY, 0.5, trace)
        for name in NAMES
        for trace in (False, True)
    }


def test_every_workload_runs_clean(results):
    for (name, trace), result in results.items():
        assert result.attempted >= 1, (name, trace)
        assert result.failed == 0, (name, trace)
        line = result.line()
        assert line["correct"] is True
        assert all(math.isfinite(m["value"]) for m in line["metrics"].values()), (name, trace)


def test_every_workload_reports_every_metric_of_the_spec(results):
    for key, trace in (("end_to_end", False), ("per_layer", True)):
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        for name in NAMES:
            metrics = results[name, trace].line()["metrics"]
            assert {metric: entry["unit"] for metric, entry in metrics.items()} == declared, (name, key)
    for name in NAMES:
        assert results[name, False].detail and results[name, True].detail, name


def test_traced_outputs_equal_untraced(results):
    # a difference would show as a failed operation
    assert all(results[name, True].failed == 0 for name in NAMES)
    assert results["train", True].detail["tensor.tape_records_per_example"] > 0


def test_generator_is_deterministic():
    for name in NAMES:
        a, b = gen.make_inputs(name, 5, gen.TINY), gen.make_inputs(name, 5, gen.TINY)
        other = gen.make_inputs(name, 6, gen.TINY)
        if name == "train":
            assert a["records"] == b["records"] != other["records"]
            assert all((a["embeddings"].vectors[w] == v).all() for w, v in b["embeddings"].vectors.items())
        else:
            assert trainer.checkpoint_bytes(a["checkpoint"]) == trainer.checkpoint_bytes(b["checkpoint"])
            rest = {k: v for k, v in a.items() if k != "checkpoint"}
            assert rest == {k: v for k, v in b.items() if k != "checkpoint"}
            assert rest != {k: v for k, v in other.items() if k != "checkpoint"}


def test_generator_covers_lengths_on_both_sides_of_max_src():
    records = gen.make_inputs("train", 1, gen.TINY)["records"]
    processed = gen.processed(records, gen.tables())
    lengths = {len(r.description.split()) for r in processed}
    assert min(lengths) <= gen.TINY.config.max_src < max(lengths)
    assert {len(r.libraries) for r in records} == set(range(1, gen.TINY.tgt_max + 1))


def test_self_time_arithmetic():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.child", 2.0, 3.0, 1),
        Span("b", 5.0, 6.0, 0),
        Span("overlaps", 3.5, 4.5, 0),
    ]
    # root's children cover [1, 4.5] and [5, 6]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.0, 1.0])


def test_tracer_restores_every_rebinding():
    before = (decode.decoder_step, model.decoder_step, decode.recommend, model.matmul)
    with workloads.make_tracer() as tracer:
        assert decode.decoder_step is model.decoder_step is not before[0]
        assert model.matmul is not before[3]
    assert (decode.decoder_step, model.decoder_step, decode.recommend, model.matmul) == before
    assert tracer.spans == []


def test_failed_checks_count_as_failed_operations(inputs, monkeypatch):
    def repeated(text, ckpt, k, beam_width=3):
        lib = ckpt.lib_vocab.regular_tokens()[0]
        return RecommendResult(items=((lib, 0.5), (lib, 0.25)), requested_k=k, truncated=True)

    monkeypatch.setattr(decode, "recommend", repeated)
    result = workloads.run("recommend", inputs["recommend"], gen.TINY, 0.0, False)
    assert result.attempted >= 1
    assert result.failed == result.attempted
    assert result.line()["correct"] is False


def test_raising_operation_counts_as_failed(inputs, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("deliberate")

    monkeypatch.setattr(trainer, "train", broken)
    result = workloads.run("train", inputs["train"], gen.TINY, 0.0, False)
    assert result.failed == result.attempted >= 1


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_one_workload_result_line_holds_every_declared_metric(trace, key):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evaluate", "--seed", "4",
         "--seconds", "0.3", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == declared


def test_command_line_prints_every_metric_and_a_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "2",
         "--seconds", "0.3", "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    for metric in SPEC["end_to_end"]:
        assert any(line.split()[1:2] == [metric["name"]] for line in lines[:-1]), metric["name"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert not list(ROOT.glob(".perfbench-*"))


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
