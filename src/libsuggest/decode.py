"""Inference-time generation: greedy decoding and beam search.

Both honor the repeat mask, so no sequence ever contains a duplicate
library, and neither PAD nor UNK is ever emitted (selection only considers
library ids and EOS).  Decoding is read-only over the checkpoint and never
applies dropout.

Both start from `_start`: the token lists padded with PAD to the longest,
then one `encode`, one `attention_keys` and one `initial_decoder_state`
call over them.  Then they run training's `model.decoder_step` with no
tape, with a [B x V] boolean repeat mask, one row per row of the step.
Greedy decoding steps its one query as a batch of one.  Beam search takes
one query or a list of them and decodes the group as one batch from end
to end.  Each step is one `decoder_step` whose rows are every query's live
hypotheses, then its greedy rollout (the seed of its pool) until that
completes, and one `_select` over the beam rows of every query: np.log
scores for all of them, and one np.partition over each query's own block
of them, find each query's width-th best; only the open candidates within
a relative margin of 1e-9 of it are scored again as `score + math.log(p)`
and sorted by (-score, sequence).  The margin covers the last-bit
difference between np.log and math.log, so ties and near-ties resolve as
a sort of every candidate would.

With no tape each row of a batch has the bits of a batch of one holding
that row, whatever the other rows and the padding of its source: the
products run in fixed 4-row blocks, whose bits depend on the BLAS kernel
for M=4 (`tensor._product`), the encoder's recurrence runs one row at a
time (`tensor._row_product`), and attention reads only each row's valid
positions and sums over them in order.  So each row of the encoder, of
the start and of a step is bit-identical to the one-sequence call, and
the answers of a group and their reported probabilities equal those of a
decode of each query alone, one hypothesis at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .corpus import EOS_ID, PAD_ID, UNK_ID, process_description
from .model import BOS, attention_keys, decoder_step, encode, initial_decoder_state
from .tensor import Tensor
from .trainer import ModelCheckpoint

__all__ = ["NoSignalError", "RecommendResult", "greedy_decode", "beam_search", "recommend"]


class NoSignalError(ValueError):
    """The description preprocesses to zero tokens; nothing to decode from."""


@dataclass(frozen=True)
class RecommendResult:
    """Ranked recommendations with the probability each library had at the
    step it was emitted.  `truncated` is set when the decode finished
    (EOS) before reaching the requested k."""

    items: tuple[tuple[str, float], ...]
    requested_k: int
    truncated: bool


def _start(sources, ckpt: ModelCheckpoint):
    """The start of a decode of the token lists `sources`, as one batch:
    (encoder output, lengths, attention keys, (s, cell, context))."""
    ids = [[ckpt.word_vocab.id(tok) for tok in tokens][: ckpt.config.max_src] for tokens in sources]
    if not all(ids):
        raise ValueError("cannot decode from an empty token list")
    lengths = np.array([len(row) for row in ids])
    padded = np.full((len(ids), lengths.max()), PAD_ID)
    for row, source in zip(padded, ids):
        row[: len(source)] = source
    params = ckpt.params
    enc_out = encode(ckpt.word_embed[padded], lengths, params.enc_fwd, params.enc_bwd)
    return enc_out, lengths, attention_keys(enc_out, params.attn), initial_decoder_state(enc_out, lengths, params)


def _best_candidate(y: np.ndarray, masked: np.ndarray) -> int:
    """Argmax over EOS plus the library ids the mask row `masked` leaves
    open (ties: lowest id)."""
    probs = np.where(masked, -1.0, y)
    probs[PAD_ID] = probs[UNK_ID] = -1.0
    return int(np.argmax(probs))


def greedy_decode(tokens, ckpt: ModelCheckpoint, max_steps: int) -> list[str]:
    """Emit the argmax library at every step until EOS or max_steps.

    Emission order is the ranking: the first library is the most
    confident head of the sequence.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    enc_out, lengths, keys, (s, cell, context) = _start([tokens], ckpt)
    masked = np.zeros((1, ckpt.params.lib_vocab_size), dtype=bool)
    emitted: list[int] = []
    prev = np.array([BOS])
    for _ in range(max_steps):
        s, cell, context, _, y = decoder_step(prev, context, s, cell, enc_out, lengths, masked, ckpt.params, keys=keys)
        choice = _best_candidate(y.data[0], masked[0])
        if choice == EOS_ID:
            break
        emitted.append(choice)
        masked[0, choice] = True
        prev = np.array([choice])
    return [ckpt.lib_vocab.token(i) for i in emitted]


# Approximate scores within this share of the width-th best are scored
# again exactly; np.log is off from math.log by an ulp, far less than this
_SELECT_MARGIN = 1e-9


def _starts(counts: list[int]) -> list[int]:
    """The first row of each of consecutive blocks of `counts` rows."""
    return list(itertools.accumulate(counts[:-1], initial=0))


def _select(y: np.ndarray, masked: np.ndarray, rows: list[int], live: list, counts: list[int], width: int) -> list[list]:
    """The `width` best extensions of each query's live hypotheses, best
    first, as ((score, sequence, probabilities), row) pairs.

    Rows `rows` of a step's [B x V] probabilities `y` and boolean repeat
    mask `masked` hold the hypotheses `live`, query by query in blocks of
    `counts` rows.  The rule is the one of a plain sort of each query's
    candidates by (-score, sequence), where score is the row's score plus
    `math.log(p)`.  Scores computed with np.log, and one np.partition over
    each query's block of them, only pick which candidates to score
    exactly: every open one within the margin of the query's width-th best
    approximate score (-inf for a block of at most `width` scores), which
    keeps every candidate that the exact width-th best admits, ties
    included.
    """
    approx, closed = y[rows], masked[rows]
    closed[:, PAD_ID] = closed[:, UNK_ID] = True
    with np.errstate(divide="ignore"):
        np.log(approx, out=approx)
    approx += np.array([h[0] for h in live])[:, None]
    approx[closed] = -np.inf
    kth = np.full(len(counts), -np.inf)
    for q, (first, n) in enumerate(zip(_starts(counts), counts)):
        block = approx[first : first + n].ravel()
        if block.size > width:
            kth[q] = np.partition(block, -width)[-width]
    threshold = np.repeat(kth - _SELECT_MARGIN * np.abs(kth), counts)
    hits = (approx >= threshold[:, None]) & ~closed
    query = [q for q, n in enumerate(counts) for _ in range(n)]
    chosen = [[] for _ in counts]
    for index in np.flatnonzero(hits).tolist():
        k, j = divmod(index, y.shape[1])
        score, seq, probs = live[k]
        p = float(y[rows[k], j])
        chosen[query[k]].append(((score + (math.log(p) if p > 0.0 else -math.inf), seq + (j,), probs + (p,)), rows[k]))
    for found in chosen:
        found.sort(key=lambda c: (-c[0][0], c[0][1]))
        del found[width:]
    return chosen


class _Search:
    """One query's beam search and the greedy rollout that seeds its pool,
    advanced a step at a time from their rows of a shared decoder step.

    Every hypothesis is a (score, sequence, probabilities) record: the live
    ones, one per row of the step; the seed while it runs (None once it
    completes); and the completed ones in the pool.  A score is the sum of
    the log-probabilities of the emissions.  EOS candidates compete inside
    the beam and retire the hypothesis into the pool, which is never
    discarded; the answer is the best completed hypothesis, falling back to
    the best live one when nothing completed within max_steps.  The greedy
    rollout's completion counts as pooled from the start, so the returned
    score never falls below greedy's regardless of width.
    """

    def __init__(self):
        self.live: list[tuple[float, tuple[int, ...], tuple[float, ...]]] = [(0.0, (), ())]
        self.seed: tuple[float, tuple[int, ...], tuple[float, ...]] | None = (0.0, (), ())
        self.pool: list[tuple[float, tuple[int, ...], tuple[float, ...]]] = []
        # (pool size, best live score) after each step the beam went on from
        self.steps: list[tuple[int, float]] = []
        self.beam_live = True

    def step_beam(self, chosen: list) -> list[tuple[int, int]]:
        """Extend the live hypotheses by their `_select` choices; returns
        (row, emitted id) for each hypothesis that stays live."""
        kept, live = [], []
        for (score, seq, probs), r in chosen:
            if seq[-1] == EOS_ID:
                self.pool.append((score, seq[:-1], probs))
            else:
                kept.append((r, seq[-1]))
                live.append((score, seq, probs))
        if not kept:
            self.beam_live = False
            return []
        self.live = live
        best_live = max(h[0] for h in live)
        self.steps.append((len(self.pool), best_live))
        # emissions only lower a score, so no live path can beat the pool best
        if self.pool and max(h[0] for h in self.pool) >= best_live:
            self.beam_live = False
        return kept

    def step_seed(self, y: np.ndarray, masked: np.ndarray) -> int | None:
        """Follow greedy's argmax on the seed's row of probabilities and of
        the mask; returns the emitted id, or None once the rollout
        completes."""
        score, seq, probs = self.seed
        choice = _best_candidate(y, masked)
        p = float(y[choice])
        score += math.log(p) if p > 0.0 else -math.inf
        if choice != EOS_ID:
            self.seed = (score, seq + (choice,), probs + (p,))
            return choice
        self.seed = None
        # pooled from the start, the completion stops the beam at the first
        # step whose best live score it reaches, with the pool of that step
        for size, best_live in self.steps:
            if score >= best_live:
                del self.pool[size:]
                self.beam_live = False
                break
        self.pool.append((score, seq, probs + (p,)))
        return None

    def answer(self) -> tuple[list[int], list[float]]:
        _, seq, probs = min(self.pool or self.live, key=lambda h: (-h[0], h[1]))
        return list(seq), list(probs)


def _beam(sources, ckpt: ModelCheckpoint, beam_width: int, max_steps: int):
    """Beam search core: (library ids, per-step probabilities) for each
    token list of `sources`.

    The group runs as one batch (see the module docstring): one `_start`,
    then per step one `decoder_step` whose rows are each query's live
    hypotheses, then its greedy seed while that runs, and one `_select`
    over every query's hypotheses.  `_select` ranks by `math.log` scores,
    ties to the lexicographically smaller sequence: each answer is that of
    a per-hypothesis search of its query alone.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    params = ckpt.params
    enc_out, lengths, keys, state = _start(sources, ckpt)
    enc_all, keys_all = enc_out.data, keys.data
    searches = [_Search() for _ in sources]

    # row r of the step belongs to query owner[r]; each query's rows are
    # its live hypotheses while its beam runs, then its greedy seed while
    # that runs; each starts with one hypothesis row and one seed row
    owner = np.repeat(np.arange(len(searches)), 2)
    prev = np.full(len(owner), BOS)
    s, cell, context = (np.repeat(t.data, 2, axis=0) for t in state)
    masked = np.zeros((len(owner), params.lib_vocab_size), dtype=bool)
    gathered = None
    for _ in range(max_steps):
        if not np.array_equal(owner, gathered):
            # copies, made again only when the rows change hands
            gathered, row_lengths = owner, lengths[owner]
            span = row_lengths.max()
            enc_rows, key_rows = Tensor(enc_all[owner, :span]), Tensor(keys_all[owner, :span])
        s_t, cell_t, context_t, _, y = decoder_step(
            prev, Tensor(context), Tensor(s), Tensor(cell), enc_rows, row_lengths, masked, params, keys=key_rows
        )
        sizes = [(len(q.live) if q.beam_live else 0, int(q.seed is not None)) for q in searches]
        starts = _starts([n_beam + n_seed for n_beam, n_seed in sizes])
        beam_rows = [r for (n_beam, _), start in zip(sizes, starts) for r in range(start, start + n_beam)]
        counts = [n_beam for n_beam, _ in sizes if n_beam]
        live = [h for q in searches if q.beam_live for h in q.live]
        chosen = iter(_select(y.data, masked, beam_rows, live, counts, beam_width) if counts else ())
        kept: list[tuple[int, int, int]] = []  # (row, emitted id, query) of the next step
        for i, (q, (n_beam, n_seed), start) in enumerate(zip(searches, sizes, starts)):
            beam = q.step_beam(next(chosen)) if n_beam else []
            lib = q.step_seed(y.data[start + n_beam], masked[start + n_beam]) if n_seed else None
            if q.beam_live:  # the seed's completion may have stopped it
                kept += [(r, j, i) for r, j in beam]
            if lib is not None:
                kept.append((start + n_beam, lib, i))
        if not kept:
            break
        rows, ids, owners = (np.array(column) for column in zip(*kept))
        s, cell, context = (t.data[rows] for t in (s_t, cell_t, context_t))
        masked = masked[rows]
        masked[np.arange(len(rows)), ids] = True
        prev, owner = ids, owners

    return [q.answer() for q in searches]


def beam_search(sources, ckpt: ModelCheckpoint, beam_width: int, max_steps: int) -> list[str] | list[list[str]]:
    """Best no-repeat library sequence by total log-probability, for one
    token list, or a list of such sequences for a list of token lists,
    decoded together (see `_beam`).

    With beam_width 1 this reduces exactly to greedy_decode; with a width
    covering every hypothesis it is exhaustive search.
    """
    single = not sources or isinstance(sources[0], str)
    found = _beam([sources] if single else sources, ckpt, beam_width, max_steps)
    names = [[ckpt.lib_vocab.token(i) for i in seq] for seq, _ in found]
    return names[0] if single else names


def recommend(
    description_text: str, ckpt: ModelCheckpoint, k: int, beam_width: int = 3
) -> RecommendResult:
    """Preprocess a raw description with the checkpoint's tables and beam
    search a ranked top-k list with per-emission probabilities."""
    if k < 1:
        raise ValueError("k must be >= 1")
    tables = ckpt.tables
    tokens = process_description(
        "", description_text, tables.stopwords, tables.domain_vocab, tables.lemma_table
    )
    if not tokens:
        raise NoSignalError("description reduces to zero tokens after preprocessing")
    [(seq, probs)] = _beam([tokens], ckpt, beam_width, max_steps=k + 5)
    items = tuple(
        (ckpt.lib_vocab.token(i), p) for i, p in list(zip(seq, probs))[:k]
    )
    return RecommendResult(items=items, requested_k=k, truncated=len(items) < k)
