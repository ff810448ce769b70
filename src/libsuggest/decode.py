"""Inference-time generation: greedy decoding and beam search.

Both honor the repeat mask, so no sequence ever contains a duplicate
library, and neither PAD nor UNK is ever emitted (selection only considers
library ids and EOS).  Decoding is read-only over the checkpoint and never
applies dropout.

Both run training's `model.decoder_step` with no tape, with the encoder
side of attention computed once per query.  Greedy decoding steps one
sequence.  Beam search takes one query or a list of them and runs them
together.  The group starts as one batch: each source is encoded alone,
and the encoder outputs, zero-padded to the longest source, go through one
`attention_keys` and one `initial_decoder_state` call.  Each step is then
one call whose rows are every query's live hypotheses, then its greedy
rollout (the seed of its pool) until that completes.  Each query selects
from its own rows of the [rows x V] probabilities: np.partition on np.log
scores finds the width-th best, and only the candidates within a relative
margin of 1e-9 of it are scored again as `score + math.log(p)` and sorted
by (-score, sequence).  The margin covers the last-bit difference between
np.log and math.log, so ties and near-ties resolve as a sort of every
candidate would.  With no tape each row of the start and of a step is
bit-identical to the one-sequence call, whatever the other rows and the
padding, so the answers and their reported probabilities equal those of a
decode of one query, one hypothesis at a time.
"""

from __future__ import annotations

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


def _embed_source(tokens, ckpt: ModelCheckpoint) -> tuple[Tensor, int]:
    if not tokens:
        raise ValueError("cannot decode from an empty token list")
    ids = [ckpt.word_vocab.id(tok) for tok in tokens][: ckpt.config.max_src]
    return Tensor(ckpt.word_embed[np.array(ids)]), len(ids)


def _start_state(tokens, ckpt: ModelCheckpoint):
    x, valid_len = _embed_source(tokens, ckpt)
    enc_out = encode(x, valid_len, ckpt.params.enc_fwd, ckpt.params.enc_bwd)
    s_t, cell_t, context_t = initial_decoder_state(enc_out, valid_len, ckpt.params)
    return enc_out, valid_len, s_t, cell_t, context_t


def _best_candidate(y: np.ndarray, emitted: set[int]) -> int:
    """Argmax over EOS plus not-yet-emitted library ids (ties: lowest id)."""
    probs = y.copy()
    probs[PAD_ID] = -1.0
    probs[UNK_ID] = -1.0
    for i in emitted:
        probs[i] = -1.0
    return int(np.argmax(probs))


def _greedy_rollout(state, ckpt: ModelCheckpoint, max_steps: int):
    """Follow the argmax at every step; returns (ids, per-step probs,
    completed, eos_prob) where `completed` means EOS was chosen in time."""
    enc_out, valid_len, s_t, cell_t, context_t = state
    keys = attention_keys(enc_out, valid_len, ckpt.params.attn)
    emitted: list[int] = []
    probs: list[float] = []
    mask: set[int] = set()
    prev = BOS
    for _ in range(max_steps):
        s_t, cell_t, context_t, _, y_t = decoder_step(
            prev, context_t, s_t, cell_t, enc_out, valid_len, mask, ckpt.params, keys=keys
        )
        choice = _best_candidate(y_t.data, mask)
        if choice == EOS_ID:
            return emitted, probs, True, float(y_t.data[EOS_ID])
        emitted.append(choice)
        probs.append(float(y_t.data[choice]))
        mask.add(choice)
        prev = choice
    return emitted, probs, False, 0.0


def greedy_decode(tokens, ckpt: ModelCheckpoint, max_steps: int) -> list[str]:
    """Emit the argmax library at every step until EOS or max_steps.

    Emission order is the ranking: the first library is the most
    confident head of the sequence.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    emitted, _, _, _ = _greedy_rollout(_start_state(tokens, ckpt), ckpt, max_steps)
    return [ckpt.lib_vocab.token(i) for i in emitted]


# Approximate scores within this share of the width-th best are scored
# again exactly; np.log is off from math.log by an ulp, far less than this
_SELECT_MARGIN = 1e-9


def _select(y: np.ndarray, candidate: np.ndarray, live: list, width: int):
    """The `width` best extensions of the `live` hypotheses, best first, as
    ((score, sequence, probabilities), row) pairs.

    The rule is the one of a plain sort of every candidate by (-score,
    sequence), where score is the row's score plus `math.log(p)`.  The
    [B x V] matrix of those scores computed with np.log only picks which
    candidates to score exactly: every one within the margin of the
    width-th best approximate score, which keeps every candidate that the
    exact width-th best score admits, ties included.
    """
    rows, ids = np.nonzero(candidate)
    if len(rows) > width:
        with np.errstate(divide="ignore"):
            approx = np.log(y) + np.array([h[0] for h in live])[:, None]
        approx[~candidate] = -np.inf
        flat = approx.ravel()
        kth = np.partition(flat, flat.size - width)[flat.size - width]
        if kth > -np.inf:
            rows, ids = np.nonzero(approx >= kth - _SELECT_MARGIN * abs(kth))
    chosen = []
    for r, j in zip(rows.tolist(), ids.tolist()):
        score, seq, probs = live[r]
        p = float(y[r, j])
        chosen.append(((score + (math.log(p) if p > 0.0 else -math.inf), seq + (j,), probs + (p,)), r))
    chosen.sort(key=lambda c: (-c[0][0], c[0][1]))
    return chosen[:width]


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

    def step_beam(self, y: np.ndarray, masked: np.ndarray, width: int) -> list[tuple[int, int]]:
        """Extend the live hypotheses from their rows of the step; returns
        (row, emitted id) for each hypothesis that stays live."""
        candidate = ~masked
        candidate[:, [PAD_ID, UNK_ID]] = False
        kept, live = [], []
        for (score, seq, probs), r in _select(y, candidate, self.live, width):
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

    def step_seed(self, y: np.ndarray) -> int | None:
        """Follow greedy's argmax on the seed's row; returns the emitted id,
        or None once the rollout completes."""
        score, seq, probs = self.seed
        choice = _best_candidate(y, set(seq))
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

    The group starts as one batch: each source is encoded alone, and one
    `attention_keys` and one `initial_decoder_state` call run over the
    encoder outputs zero-padded to [Q x T x 2H].  Each step runs one
    `decoder_step` whose rows are each query's live hypotheses, then its
    greedy seed while that runs.  With no tape a row is bit-identical to
    the one-sequence call (`tensor._product`, and attention's sums over
    positions in order), whatever the other rows and the zero padding of
    its source, and `_select` ranks by `math.log` scores, ties to the
    lexicographically smaller sequence: each answer is that of a
    per-hypothesis search of its query alone.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    params = ckpt.params
    embedded = [_embed_source(tokens, ckpt) for tokens in sources]
    lengths = np.array([n for _, n in embedded])
    enc_all = np.zeros((len(embedded), lengths.max(), 2 * params.enc_fwd.hidden_size))
    for i, (x, n) in enumerate(embedded):
        enc_all[i, :n] = encode(x, n, params.enc_fwd, params.enc_bwd).data
    enc_out = Tensor(enc_all)
    keys_all = attention_keys(enc_out, lengths, params.attn).data
    searches = [_Search() for _ in sources]

    # row r of the step belongs to query owner[r]; each starts with one
    # hypothesis row and one seed row, both at BOS
    owner = np.repeat(np.arange(len(searches)), 2)
    prev = np.full(len(owner), BOS)
    s, cell, context = (np.repeat(t.data, 2, axis=0) for t in initial_decoder_state(enc_out, lengths, params))
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
        kept: list[tuple[int, int, int]] = []  # (row, emitted id, query) of the next step
        row = 0
        for i, q in enumerate(searches):
            n_beam, n_seed = (len(q.live) if q.beam_live else 0), int(q.seed is not None)
            beam = q.step_beam(y.data[row : row + n_beam], masked[row : row + n_beam], beam_width) if n_beam else []
            lib = q.step_seed(y.data[row + n_beam]) if n_seed else None
            if q.beam_live:  # the seed's completion may have stopped it
                kept += [(row + r, j, i) for r, j in beam]
            if lib is not None:
                kept.append((row + n_beam, lib, i))
            row += n_beam + n_seed
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
