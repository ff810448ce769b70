"""Evaluation metrics: recall rate@k, precision@k, and popularity-stratified
recall@k, plus the end-to-end evaluation report over a test set."""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from .decode import beam_search
from .trainer import ModelCheckpoint

__all__ = [
    "EvalCase",
    "EvalReport",
    "recall_rate_at_k",
    "precision_at_k",
    "psr_at_k",
    "evaluate",
]

METRIC_NAMES = ("recall_rate@k", "precision@k", "psr@k")

# cases decoded together by one beam search, as rows of each decoder step
DECODE_GROUP = 8


@dataclass(frozen=True)
class EvalCase:
    """One evaluated project: the ranked recommendations and the truth set."""

    recommended: tuple[str, ...]
    ground_truth: frozenset[str]

    def __post_init__(self):
        if len(set(self.recommended)) != len(self.recommended):
            raise ValueError("recommended list contains duplicates")
        if not self.ground_truth:
            raise ValueError("ground truth must be non-empty")


def recall_rate_at_k(cases: Sequence[EvalCase], k: int) -> float:
    """Fraction of cases whose top-k list hits at least one truth library."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not cases:
        raise ValueError("no cases to evaluate")
    hits = sum(1 for c in cases if any(lib in c.ground_truth for lib in c.recommended[:k]))
    return hits / len(cases)


def precision_at_k(cases: Sequence[EvalCase], k: int) -> float:
    """Mean over cases of |top-k hits| / k.

    Lists shorter than k still divide by k: a model that emits fewer than
    k results pays for the empty slots.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not cases:
        raise ValueError("no cases to evaluate")
    total = sum(
        sum(1 for lib in c.recommended[:k] if lib in c.ground_truth) / k for c in cases
    )
    return total / len(cases)


def psr_at_k(
    cases: Sequence[EvalCase], k: int, freq: Mapping[str, int], beta: float
) -> float:
    """Popularity-stratified recall: hits weighted by frequency^(-beta).

    Per case, each ground-truth library i carries weight s_i = f_i^(-beta);
    the case score is the hit weight over the total truth weight, and the
    reported value is the macro (per-case) mean.  beta = 0 degrades to
    plain per-case recall.  beta must be finite and >= 0, and a case whose
    truth weights all underflow to 0 is an error.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and >= 0, not {beta!r}")
    if not cases:
        raise ValueError("no cases to evaluate")
    total = 0.0
    for index, c in enumerate(cases):
        weights = {}
        # in a fixed order: set order follows the hash seed, and so would
        # the last bits of the weight sum
        for lib in sorted(c.ground_truth):
            f = freq.get(lib)
            if not f or f < 1:
                raise ValueError(f"ground-truth library {lib!r} has no positive frequency")
            weights[lib] = float(f) ** (-beta)
        hit = sum(weights[lib] for lib in c.recommended[:k] if lib in c.ground_truth)
        if not any(weights.values()):
            raise ValueError(f"case {index}: every truth weight underflows to 0 at beta = {beta!r}")
        total += hit / sum(weights.values())
    return total / len(cases)


@dataclass
class EvalReport:
    """Metric values per k plus how the numbers were produced."""

    ks: tuple[int, ...]
    values: dict[str, dict[int, float]]
    cases: int
    skipped: int
    beam_width: int
    beta: float
    header_lines: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        self.header_lines = (
            f"# cases evaluated: {self.cases} (skipped {self.skipped} with no known ground truth)",
            f"# decoder: beam search, width {self.beam_width}",
            f"# precision@k and psr@k are macro-averaged per project; beta = {self.beta!r}",
        )

    def format_text(self) -> str:
        """Aligned table: one row per metric, one column per k."""
        lines = list(self.header_lines)
        width = max(len(name) for name in METRIC_NAMES) + 2
        header = "metric".ljust(width) + "".join(f"k={k}".rjust(9) for k in self.ks)
        lines.append(header)
        for name in METRIC_NAMES:
            row = name.ljust(width)
            row += "".join(f"{self.values[name][k]:9.4f}" for k in self.ks)
            lines.append(row)
        return "\n".join(lines) + "\n"

    def format_machine(self) -> str:
        """Flat `metric<TAB>k<TAB>value` lines, full float precision."""
        lines = []
        for name in METRIC_NAMES:
            for k in self.ks:
                lines.append(f"{name}\t{k}\t{self.values[name][k]!r}")
        return "\n".join(lines) + "\n"


def evaluate(
    ckpt: ModelCheckpoint,
    test_set: Sequence[tuple[Sequence[str], Sequence[str]]],
    ks: Sequence[int] = (1, 5, 10, 20),
    beta: float = 0.2,
    beam_width: int = 3,
) -> EvalReport:
    """Decode every test description and tabulate all three metrics.

    `test_set` holds (description tokens, ground-truth libraries) pairs.
    Ground truth is restricted to libraries with a known training-corpus
    frequency (PSR needs one); cases left with no known truth are skipped
    and counted.  Decoding uses beam search to max(ks) + 5 steps, over
    consecutive groups of `DECODE_GROUP` evaluable cases: one
    `beam_search` call per group, whose decoder steps run the hypotheses
    and greedy seeds of all its cases as rows.  Each case's answer is the
    one it gets decoded alone, so the report does not depend on the
    grouping.  `ks` and `beta` are checked before any decoding.
    """
    if not test_set:
        raise ValueError("empty test set")
    ks = tuple(ks)
    if not ks or min(ks) < 1:
        raise ValueError("ks must be a non-empty list of positive ints")
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and >= 0, not {beta!r}")

    max_steps = max(ks) + 5
    pending: list[tuple[int, list[str], frozenset[str]]] = []
    skipped = 0
    for index, (tokens, truth) in enumerate(test_set):
        known = frozenset(lib for lib in truth if ckpt.lib_freq.get(lib, 0) >= 1)
        if not known:
            skipped += 1
            continue
        if not tokens:
            raise ValueError(f"case {index}: cannot decode from an empty token list")
        pending.append((index, list(tokens), known))
    if not pending:
        raise ValueError("no evaluable cases (every case lacked known ground truth)")

    cases: list[EvalCase] = []
    for start in range(0, len(pending), DECODE_GROUP):
        group = pending[start : start + DECODE_GROUP]
        recommended = beam_search([tokens for _, tokens, _ in group], ckpt, beam_width, max_steps)
        cases += [EvalCase(tuple(libs), known) for libs, (_, _, known) in zip(recommended, group)]

    values: dict[str, dict[int, float]] = {name: {} for name in METRIC_NAMES}
    for k in ks:
        values["recall_rate@k"][k] = recall_rate_at_k(cases, k)
        values["precision@k"][k] = precision_at_k(cases, k)
        values["psr@k"][k] = psr_at_k(cases, k, ckpt.lib_freq, beta)
    return EvalReport(
        ks=ks, values=values, cases=len(cases), skipped=skipped, beam_width=beam_width, beta=beta
    )
