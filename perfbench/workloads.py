"""The benchmark's workloads: set-up, timed loop, output checks, metrics.

    train      trainer.train on a fixed shard with the paper's dimensions; the
               only workload that runs the tape, backward, clipping and Adam.
    recommend  closed loop, one client, no think time: decode.recommend with
               beam widths 1, 3 and 10 in turn; a user waits on each answer.
    evaluate   metrics.evaluate over chunks of a test set (width 3, ks 1, 5,
               10, 20): the decode path again, for throughput.

An untraced run reports the end-to-end metrics.  A traced run repeats the
same operations under a `Tracer` and reports per-layer metrics.  Every
workload reports the same metrics; figures that only one workload has
(latency per beam width, backward and Adam time, ...) go into `detail`.
Outputs are checked after the timed loop; an operation whose check fails,
or which raises, counts as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np

import libsuggest
from libsuggest import cli, corpus, decode, embeddings, metrics, model, tensor, trainer
from libsuggest.corpus import EOS_ID, RESERVED_TOKENS
from libsuggest.tensor import Tensor

from . import gen
from .tracing import Tracer, self_times

SETUP_REPEATS = 11

# Every workload reports every metric.  An "item" is the unit of work a
# workload measures: a training example (train), a query (recommend) or a
# test case (evaluate).  A "call" is one public call the workload makes:
# trainer.train, decode.recommend or metrics.evaluate.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "call_p50_ms": "ms",
}

PER_LAYER_UNITS = {
    "tensor.op_calls_per_item": "count",
    "model.decoder_step.calls_per_item": "count",
    "model.encode.ms_per_call": "ms",
    "model.attention.ms_per_call": "ms",
    "model.decoder_step.ms_per_call": "ms",
    "model.ms_per_item": "ms",
    "outside_model.ms_per_item": "ms",
    "trace.peak_alloc_mb": "MB",
    "trace.overhead_share": "share",
}

SPANNED = (
    "corpus.process_description",
    "corpus.build_vocabularies",
    "corpus.sort_libraries",
    "corpus.encode_example",
    "embeddings.vocab_matrix",
    "model.init_params",
    "model.encode",
    "model.initial_decoder_state",
    "model.decoder_step",
    "model.attention",
    "model.example_loss",
    "model.sequence_loss",
    "tensor.backward",
    "trainer.train",
    "trainer.clip_gradients",
    "trainer.adam_step",
    "trainer.load_checkpoint",
    "decode.recommend",
    "decode.greedy_decode",
    "decode.beam_search",
    "metrics.evaluate",
)

# tensor ops are counted where `model` calls them, not timed
TENSOR_OPS = tuple(
    f"tensor.{name}"
    for name in tensor.__all__
    if name not in ("Tensor", "Tape", "backward", "finite_difference_check")
)


def _count_tape(args, result, counts) -> None:
    counts["tape_records"] += len(args[0])


def _count_clip(args, result, counts) -> None:
    counts["clipped"] += result is not args[0]


def make_tracer() -> Tracer:
    return Tracer(
        libsuggest,
        (corpus, embeddings, tensor, model, trainer, decode, metrics, cli),
        SPANNED,
        counted={name: (model,) for name in TENSOR_OPS},
        hooks={"tensor.backward": _count_tape, "trainer.clip_gradients": _count_clip},
    )


@dataclass
class Op:
    index: int
    seconds: float
    output: object  # what the workload keeps of the result, or a Raised


@dataclass
class Raised:
    trace: str


def timed_ops(workload, seconds: float, setups: list[float]) -> list[Op]:
    """Run operations back to back until `seconds` have passed and the
    last cycle of `workload.cycle` operations is whole.  Only the call
    itself is timed.

    Set-up also runs again at even intervals through the run until
    `setups` holds SETUP_REPEATS times, so their median samples the same
    stretch of machine time as the operations.
    """
    ops: list[Op] = []
    start = time.perf_counter()
    while not ops or len(ops) % workload.cycle or time.perf_counter() < start + seconds:
        ops.append(_timed_op(workload, len(ops)))
        while (
            len(setups) < SETUP_REPEATS
            and time.perf_counter() >= start + seconds * len(setups) / SETUP_REPEATS
        ):
            setups.append(_timed(workload.setup))
    return ops


def _timed(f) -> float:
    start = time.perf_counter()
    f()
    return time.perf_counter() - start


def _timed_op(workload, i: int) -> Op:
    start = time.perf_counter()
    try:
        result = workload.op(i)
    except Exception:
        return Op(i, time.perf_counter() - start, Raised(traceback.format_exc()))
    elapsed = time.perf_counter() - start
    return Op(i, elapsed, workload.keep(result))


def op_problems(workload, op: Op) -> list[str]:
    if isinstance(op.output, Raised):
        return [op.output.trace]
    return workload.check(op.index, op.output)


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _per_call_ms(summary: dict, name: str) -> float:
    row = summary[name]
    return _ms(row["total_s"] / row["calls"])


def _op_calls(tracer: Tracer) -> int:
    return sum(tracer.counts[name] for name in TENSOR_OPS)


def _source_lengths(token_lists, max_src: int) -> dict:
    lengths = [len(t) for t in token_lists]
    return {
        "mean_src_len": statistics.fmean(lengths),
        "share_truncated": sum(n > max_src for n in lengths) / len(lengths),
    }


class TrainWorkload:
    name = "train"
    cycle = 1

    def __init__(self, inputs_dir: str, scale: gen.Scale):
        self.scale = scale
        self.cfg = scale.config
        self.records = corpus.load_dataset(os.path.join(inputs_dir, "dataset.jsonl"))
        self.table = embeddings.load_embeddings(os.path.join(inputs_dir, "embeddings.txt"))
        self.data: corpus.PreparedDataset | None = None
        self.first: tuple | None = None

    def setup(self) -> None:
        """Preprocess and encode the whole corpus; keep the training shard."""
        tables = gen.tables()
        processed = gen.processed(self.records, tables)
        word_vocab, lib_vocab, lib_freq = corpus.build_vocabularies(processed, gen.MIN_LIB_USAGE)
        examples = []
        for rec in processed:
            ordered = replace(rec, libraries=tuple(corpus.sort_libraries(rec.libraries, lib_freq)))
            src, tgt = corpus.encode_example(
                ordered, word_vocab, lib_vocab, self.cfg.max_src, self.cfg.max_tgt
            )
            examples.append(corpus.EncodedExample(rec.name, src, tgt))
        self.data = corpus.PreparedDataset(
            examples[: self.scale.shard], word_vocab, lib_vocab, lib_freq, tables
        )

    @property
    def examples_per_call(self) -> int:
        return len(self.data.examples) * self.cfg.max_epochs

    @property
    def steps_per_call(self) -> int:
        return math.ceil(len(self.data.examples) / self.cfg.batch_size) * self.cfg.max_epochs

    def op(self, i: int):
        log = io.StringIO()
        with contextlib.redirect_stdout(log):
            ckpt = trainer.train(self.data, self.cfg, self.table)
        return ckpt, log.getvalue()

    def keep(self, result) -> tuple:
        """Each epoch's mean loss, as train prints it, and the checkpoint's hash."""
        ckpt, log = result
        losses = tuple(float(line.split()[-1]) for line in log.splitlines() if line.startswith("epoch "))
        return losses, hashlib.sha256(trainer.checkpoint_bytes(ckpt)).hexdigest()

    def items(self, kept) -> int:
        return self.examples_per_call

    def check(self, i: int, kept: tuple) -> list[str]:
        losses = kept[0]
        if len(losses) != self.cfg.max_epochs or not all(map(math.isfinite, losses)):
            return [f"train call {i}: epoch losses {losses!r} are not {self.cfg.max_epochs} finite values"]
        # every call trains the same data with the same seed
        self.first = self.first or kept
        if kept != self.first:
            return [f"train call {i}: checkpoint differs from the first call's"]
        return []

    def properties(self) -> dict:
        shard = gen.processed(self.records[: self.scale.shard], gen.tables())
        tokens = [rec.description.split() for rec in shard]
        return {
            "V": len(self.data.lib_vocab),
            "word_vocab": len(self.data.word_vocab),
            "shard": len(self.data.examples),
            **_source_lengths(tokens, self.cfg.max_src),
            "mean_tgt_len": statistics.fmean(ex.target.length for ex in self.data.examples),
            "examples_per_call": self.examples_per_call,
            "steps_per_call": self.steps_per_call,
        }

    def detail(self, ops: list[Op]) -> dict:
        return {"epoch_losses_nat": ops[0].output[0]}

    def layer_detail(self, setup: Tracer, traced: Tracer, ops: list[Op]) -> dict:
        run, prep = traced.summary(), setup.summary()
        examples = self.examples_per_call * len(ops)
        steps = self.steps_per_call * len(ops)
        return {
            "tensor.backward.ms_per_step": _ms(run["tensor.backward"]["total_s"] / steps),
            "tensor.tape_records_per_example": traced.counts["tape_records"] / examples,
            "model.sequence_loss.ms_per_example": _ms(run["model.sequence_loss"]["total_s"] / examples),
            "trainer.adam_step.ms_per_step": _ms(run["trainer.adam_step"]["total_s"] / steps),
            "trainer.clip_gradients.ms_per_step": _ms(run["trainer.clip_gradients"]["total_s"] / steps),
            "trainer.clip_gradients.clipped_share": traced.counts["clipped"] / steps,
            "trainer.train.self_ms_per_step": _ms(run["trainer.train"]["self_s"] / steps),
            "corpus.process_description.us_per_call": _per_call_ms(prep, "corpus.process_description") * 1000.0,
            "corpus.encode_example.us_per_call": _per_call_ms(prep, "corpus.encode_example") * 1000.0,
            "embeddings.vocab_matrix.ms": _per_call_ms(run, "embeddings.vocab_matrix"),
        }


class _CheckpointWorkload:
    """Shared set-up of the two decode workloads: load the checkpoint."""

    cycle = 1

    def __init__(self, inputs_dir: str, scale: gen.Scale):
        self.scale = scale
        self.path = os.path.join(inputs_dir, "model.ckpt")
        with open(os.path.join(inputs_dir, "inputs.json"), encoding="utf-8") as fh:
            self.inputs = json.load(fh)
        self.ckpt: trainer.ModelCheckpoint | None = None

    def setup(self) -> None:
        self.ckpt = trainer.load_checkpoint(self.path)

    def keep(self, result):
        return result

    def tokens(self, text: str) -> list[str]:
        t = self.ckpt.tables
        return corpus.process_description("", text, t.stopwords, t.domain_vocab, t.lemma_table)

    def replay(self, tokens: list[str], ids: list[int], finish: bool) -> list[float]:
        """Teacher-forced probability of each id in turn, and of EOS after
        them when `finish`, computed with the model's public functions."""
        ckpt, p = self.ckpt, self.ckpt.params
        word_ids = [ckpt.word_vocab.id(tok) for tok in tokens][: ckpt.config.max_src]
        n = len(word_ids)
        enc = model.encode(Tensor(ckpt.word_embed[np.array(word_ids)]), n, p.enc_fwd, p.enc_bwd)
        s, cell, ctx = model.initial_decoder_state(enc, n, p)
        probs, prev = [], model.BOS
        for step, target in enumerate(list(ids) + ([EOS_ID] if finish else [])):
            s, cell, ctx, _, y = model.decoder_step(prev, ctx, s, cell, enc, n, set(ids[:step]), p)
            probs.append(float(y.data[target]))
            prev = target
        return probs

    def _ids(self, names) -> list[int]:
        return [self.ckpt.lib_vocab.id(name) for name in names]

    def _setup_detail(self, setup: Tracer) -> dict:
        return {"trainer.load_checkpoint.ms": _per_call_ms(setup.summary(), "trainer.load_checkpoint")}


def _log_score(probs: list[float]) -> float:
    return sum(math.log(p) if p > 0.0 else -math.inf for p in probs)


class RecommendWorkload(_CheckpointWorkload):
    name = "recommend"
    k = gen.RECOMMEND_K
    # one query at each width, so every run has the same width mix
    cycle = len(gen.WIDTHS)

    def __init__(self, inputs_dir: str, scale: gen.Scale):
        super().__init__(inputs_dir, scale)
        self.queries = self.inputs["queries"]
        self.greedy_steps: list[int] = []
        self.beam_prefix_below_greedy = 0

    def query(self, i: int) -> dict:
        return self.queries[i % len(self.queries)]

    def op(self, i: int):
        q = self.query(i)
        return decode.recommend(q["text"], self.ckpt, k=self.k, beam_width=q["width"])

    def check(self, i: int, result) -> list[str]:
        q, k, max_steps = self.query(i), self.k, self.k + 5
        names = [name for name, _ in result.items]
        problems = []
        if len(names) > k:
            problems.append(f"query {i}: {len(names)} items for k={k}")
        if len(set(names)) != len(names):
            problems.append(f"query {i}: repeated library in {names}")
        if any(name in RESERVED_TOKENS or name not in self.ckpt.lib_vocab for name in names):
            problems.append(f"query {i}: reserved or unknown token in {names}")
        if problems:
            return problems

        tokens = self.tokens(q["text"])
        probs = [p for _, p in result.items]
        if self.replay(tokens, self._ids(names), finish=False) != probs:
            problems.append(f"query {i}: reported probabilities differ from the model's")
        greedy = decode.greedy_decode(tokens, self.ckpt, max_steps)
        completed = len(greedy) < max_steps
        self.greedy_steps.append(len(greedy) + 1 if completed else max_steps)
        if q["width"] == 1:
            if names != greedy[:k]:
                problems.append(f"query {i}: width 1 gives {names}, greedy_decode {greedy[:k]}")
            return problems
        if _log_score(probs) < _log_score(self.replay(tokens, self._ids(greedy[:k]), False)):
            # beam search promises nothing for paths cut off at max_steps
            self.beam_prefix_below_greedy += 1
        if completed:
            # greedy's finished path seeds the beam's pool, so the beam's
            # answer scores at least as well
            beam = decode.beam_search(tokens, self.ckpt, q["width"], max_steps)
            beam_score = _log_score(self.replay(tokens, self._ids(beam), len(beam) < max_steps))
            greedy_score = _log_score(self.replay(tokens, self._ids(greedy), True))
            if beam_score < greedy_score - 1e-12:
                problems.append(f"query {i}: beam score {beam_score} below greedy {greedy_score}")
        return problems

    def properties(self) -> dict:
        tokens = [self.tokens(q["text"]) for q in self.queries]
        known = self.ckpt.word_vocab
        return {
            "V": len(self.ckpt.lib_vocab),
            **_source_lengths(tokens, self.ckpt.config.max_src),
            "share_with_unknown_words": statistics.fmean(
                any(tok not in known for tok in t) for t in tokens
            ),
            "decode_steps_per_query": statistics.fmean(self.greedy_steps) if self.greedy_steps else None,
            "beam_k_prefix_below_greedy": self.beam_prefix_below_greedy,
        }

    def _widths(self, ops: list[Op]) -> list[int]:
        return [self.query(op.index)["width"] for op in ops]

    def items(self, kept) -> int:
        return 1

    def detail(self, ops: list[Op]) -> dict:
        return {
            f"w{w}_p50_ms": statistics.median(
                _ms(op.seconds) for op, width in zip(ops, self._widths(ops)) if width == w
            )
            for w in gen.WIDTHS
        }

    def layer_detail(self, setup: Tracer, traced: Tracer, ops: list[Op]) -> dict:
        own = [
            t for s, t in zip(traced.spans, self_times(traced.spans)) if s.name == "decode.recommend"
        ]
        steps = traced.summary()["model.decoder_step"]["calls"]
        items = sum(len(op.output.items) for op in ops)
        out = {"decode.items_per_decoder_step": items / steps, **self._setup_detail(setup)}
        for w in gen.WIDTHS:
            out[f"decode.recommend.self_ms.w{w}"] = statistics.median(
                _ms(t) for t, width in zip(own, self._widths(ops)) if width == w
            )
        return out


class EvaluateWorkload(_CheckpointWorkload):
    name = "evaluate"

    def __init__(self, inputs_dir: str, scale: gen.Scale):
        super().__init__(inputs_dir, scale)
        self.chunks = self.inputs["chunks"]

    def chunk(self, i: int) -> list[tuple[list[str], list[str]]]:
        return [(words, truth) for words, truth in self.chunks[i % len(self.chunks)]]

    def op(self, i: int):
        return metrics.evaluate(
            self.ckpt, self.chunk(i), ks=gen.EVAL_KS, beam_width=gen.EVAL_WIDTH
        )

    def check(self, i: int, report) -> list[str]:
        chunk = self.chunk(i)
        problems = []
        if report.cases + report.skipped != len(chunk):
            problems.append(f"chunk {i}: {report.cases} cases + {report.skipped} skipped != {len(chunk)}")
        unknown = sum(not any(lib in self.ckpt.lib_freq for lib in truth) for _, truth in chunk)
        if report.skipped != unknown:
            problems.append(f"chunk {i}: skipped {report.skipped}, expected {unknown}")
        for name, by_k in report.values.items():
            if set(by_k) != set(gen.EVAL_KS) or not all(0.0 <= v <= 1.0 for v in by_k.values()):
                problems.append(f"chunk {i}: {name} values {by_k} outside [0, 1]")
        return problems

    def properties(self) -> dict:
        cases = [case for chunk in self.chunks for case in chunk]
        return {
            "V": len(self.ckpt.lib_vocab),
            **_source_lengths([words for words, _ in cases], self.ckpt.config.max_src),
            "mean_truth_size": statistics.fmean(len(truth) for _, truth in cases),
            "decode_steps_per_case": max(gen.EVAL_KS) + 5,
            "cases_per_call": len(self.chunks[0]),
        }

    def items(self, report) -> int:
        return report.cases

    def detail(self, ops: list[Op]) -> dict:
        return {"ms_per_case": _ms(sum(op.seconds for op in ops) / sum(op.output.cases for op in ops))}

    def layer_detail(self, setup: Tracer, traced: Tracer, ops: list[Op]) -> dict:
        run = traced.summary()
        cases = sum(op.output.cases for op in ops)
        return {
            "metrics.beam_search.ms_per_case": _ms(run["decode.beam_search"]["total_s"] / cases),
            "metrics.evaluate.self_ms": _ms(run["metrics.evaluate"]["self_s"] / run["metrics.evaluate"]["calls"]),
            **self._setup_detail(setup),
        }


WORKLOADS = {w.name: w for w in (TrainWorkload, RecommendWorkload, EvaluateWorkload)}


def _report_problems(problems: list[str]) -> None:
    for text in problems[:5]:
        print(text.rstrip(), file=sys.stderr)


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, float]
    properties: dict
    detail: dict  # workload-specific figures, printed but not a metric of BENCHMARK.json
    spans: dict | None = None

    def line(self) -> dict:
        units = {**END_TO_END_UNITS, **PER_LAYER_UNITS}
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in self.metrics.items()
            },
        }


def run(name: str, inputs_dir: str, scale: gen.Scale, seconds: float, trace: bool) -> Result:
    """One run of workload `name` on inputs written by gen.write_inputs."""
    workload = WORKLOADS[name](inputs_dir, scale)
    return (_run_traced if trace else _run_plain)(workload, seconds)


def end_to_end(workload, ops: list[Op]) -> dict:
    """Throughput and median call latency of operations that passed.  A
    train run makes only a few calls, too few for a higher percentile."""
    return {
        "items_per_s": sum(workload.items(op.output) for op in ops) / sum(op.seconds for op in ops),
        "call_p50_ms": statistics.median(_ms(op.seconds) for op in ops),
    }


def _model_seconds(tracer: Tracer) -> float:
    """Time inside model functions, not counting a model call made from
    within another one twice."""
    spans = tracer.spans
    total = 0.0
    for s in spans:
        if s.name.startswith("model.") and (
            s.parent is None or not spans[s.parent].name.startswith("model.")
        ):
            total += s.end - s.start
    return total


def per_layer(workload, traced: Tracer, ops: list[Op]) -> dict:
    """Layer figures every workload has, per item or per call."""
    run = traced.summary()
    items = sum(workload.items(op.output) for op in ops)
    model_s = _model_seconds(traced)
    return {
        "tensor.op_calls_per_item": _op_calls(traced) / items,
        "model.decoder_step.calls_per_item": run["model.decoder_step"]["calls"] / items,
        "model.encode.ms_per_call": _per_call_ms(run, "model.encode"),
        "model.attention.ms_per_call": _per_call_ms(run, "model.attention"),
        "model.decoder_step.ms_per_call": _per_call_ms(run, "model.decoder_step"),
        "model.ms_per_item": _ms(model_s / items),
        "outside_model.ms_per_item": _ms((sum(op.seconds for op in ops) - model_s) / items),
    }


def _run_plain(workload, seconds: float) -> Result:
    setup_s = [_timed(workload.setup)]
    ops = timed_ops(workload, seconds, setup_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = [op_problems(workload, op) for op in ops]
    _report_problems([p for ps in problems for p in ps])
    failed = sum(bool(ps) for ps in problems)
    values, detail = {"setup_s": statistics.median(setup_s), "peak_rss_mb": peak_rss_mb}, {}
    passed = [op for op, ps in zip(ops, problems) if not ps]
    if passed:
        values.update(end_to_end(workload, passed))
        detail = workload.detail(passed)
    return Result(len(ops), failed, values, workload.properties(), detail)


def _run_traced(workload, seconds: float) -> Result:
    """Each operation twice in a row, untraced and then traced, so that
    both sample the same stretch of machine time; then one operation under
    tracemalloc.  Same-seed runs are deterministic, so the traced outputs
    must equal the untraced ones exactly."""
    with make_tracer() as setup:
        for _ in range(SETUP_REPEATS):
            workload.setup()
    plain, replay, traced = [], [], make_tracer()
    start = time.perf_counter()
    while not plain or len(plain) % workload.cycle or time.perf_counter() < start + seconds:
        plain.append(_timed_op(workload, len(plain)))
        with traced:
            replay.append(_timed_op(workload, len(replay)))
    tracemalloc.start()
    try:
        workload.op(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    problems = []
    for a, b in zip(plain, replay):
        found = op_problems(workload, a)
        if not found and (isinstance(b.output, Raised) or a.output != b.output):
            found = [f"operation {a.index}: traced output differs from untraced"]
        problems.append(found)
    _report_problems([p for ps in problems for p in ps])
    failed = sum(bool(ps) for ps in problems)
    values = {
        "trace.peak_alloc_mb": peak / 2**20,
        "trace.overhead_share": sum(op.seconds for op in replay) / sum(op.seconds for op in plain) - 1.0,
    }
    detail = {}
    if failed == 0:
        # spans cannot be split by operation, so a failure leaves them out
        values.update(per_layer(workload, traced, replay))
        detail = workload.layer_detail(setup, traced, replay)
    return Result(len(plain), failed, values, workload.properties(), detail, traced.summary())
