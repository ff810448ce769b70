"""Inference-time generation: greedy decoding and beam search.

Both honor the repeat mask, so no sequence ever contains a duplicate
library, and neither PAD nor UNK is ever emitted (selection only considers
library ids and EOS).  Decoding is read-only over the checkpoint and never
applies dropout.

Both run training's `model.decoder_step` with no tape, with the encoder
side of attention computed once per query.  Greedy decoding, and the
greedy rollout that seeds every beam, step one sequence.  Beam search
steps its live hypotheses as the [B] rows of one call and selects from
the [B x V] probabilities: np.partition on np.log scores finds the
width-th best, and only the candidates within a relative margin of 1e-9
of it are scored again as `score + math.log(p)` and sorted by (-score,
sequence).  The margin covers the last-bit difference between np.log and
math.log, so ties and near-ties resolve as a sort of every candidate
would.  With no tape each row of the step is bit-identical to the
one-sequence step, so the answers and their reported probabilities equal
those of a decode one hypothesis at a time.
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


def _select(y: np.ndarray, candidate: np.ndarray, scores: list[float], seqs: list, width: int):
    """The `width` best extensions of the live hypotheses, best first, as
    (score, sequence, probability, row) tuples.

    The rule is the one of a plain sort of every candidate by (-score,
    sequence), where score is `scores[row] + math.log(p)`.  The [B x V]
    matrix of those scores computed with np.log only picks which
    candidates to score exactly: every one within the margin of the
    width-th best approximate score, which keeps every candidate that the
    exact width-th best score admits, ties included.
    """
    rows, ids = np.nonzero(candidate)
    if len(rows) > width:
        with np.errstate(divide="ignore"):
            approx = np.log(y) + np.array(scores)[:, None]
        approx[~candidate] = -np.inf
        flat = approx.ravel()
        kth = np.partition(flat, flat.size - width)[flat.size - width]
        if kth > -np.inf:
            rows, ids = np.nonzero(approx >= kth - _SELECT_MARGIN * abs(kth))
    chosen = []
    for r, j in zip(rows.tolist(), ids.tolist()):
        p = float(y[r, j])
        score = scores[r] + (math.log(p) if p > 0.0 else -math.inf)
        chosen.append((score, seqs[r] + (j,), p, r))
    chosen.sort(key=lambda c: (-c[0], c[1]))
    return chosen[:width]


def _beam(tokens, ckpt: ModelCheckpoint, beam_width: int, max_steps: int):
    """Beam search core; returns (library ids, per-step probabilities).

    Hypotheses are scored by the sum of log-probabilities of their
    emissions.  EOS candidates compete inside the beam and retire the
    hypothesis into a completed pool that is never discarded; the answer
    is the best completed hypothesis, falling back to the best live one
    when nothing completed within max_steps.  The pool is pre-seeded with
    the greedy rollout's completion, so the returned score never falls
    below greedy's regardless of width.

    Each step runs the live hypotheses as the [B] rows of one
    `decoder_step`, with no tape each bit-identical to a one-sequence step
    (`tensor._product`), and `_select` ranks by `math.log` scores, ties to
    the lexicographically smaller sequence: the answer and its
    probabilities are those of a per-hypothesis search.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    state = _start_state(tokens, ckpt)
    enc_out, valid_len, s_t, cell_t, context_t = state
    params = ckpt.params
    keys = attention_keys(enc_out, valid_len, params.attn)

    pool: list[tuple[float, tuple[int, ...], tuple[float, ...]]] = []
    seed_ids, seed_probs, seed_done, seed_eos = _greedy_rollout(state, ckpt, max_steps)
    if seed_done:
        steps = seed_probs + [seed_eos]
        score = sum(math.log(p) if p > 0.0 else -math.inf for p in steps)
        pool.append((score, tuple(seed_ids), tuple(steps)))

    # the live hypotheses, one per row of the states and of `masked`
    seqs: list[tuple[int, ...]] = [()]
    probs: list[tuple[float, ...]] = [()]
    scores = [0.0]
    s, cell, context = (Tensor(t.data[None]) for t in (s_t, cell_t, context_t))
    masked = np.zeros((1, params.lib_vocab_size), dtype=bool)
    # read-only views repeating the encoder output and keys over the live rows
    enc_rows, key_rows = (np.broadcast_to(t.data, (beam_width, *t.shape)) for t in (enc_out, keys))
    for _ in range(max_steps):
        rows = len(seqs)
        s, cell, context, _, y = decoder_step(
            np.array([seq[-1] if seq else BOS for seq in seqs]), context, s, cell, Tensor(enc_rows[:rows]),
            np.full(rows, valid_len), masked, params, keys=Tensor(key_rows[:rows]),
        )
        candidate = ~masked
        candidate[:, [PAD_ID, UNK_ID]] = False
        keep, seqs_next, probs_next, scores_next = [], [], [], []
        for cand_score, seq, p, r in _select(y.data, candidate, scores, seqs, beam_width):
            if seq[-1] == EOS_ID:
                pool.append((cand_score, seq[:-1], probs[r] + (p,)))
            else:
                keep.append(r)
                seqs_next.append(seq)
                probs_next.append(probs[r] + (p,))
                scores_next.append(cand_score)
        if not keep:
            break
        seqs, probs, scores = seqs_next, probs_next, scores_next
        s, cell, context = (Tensor(t.data[keep]) for t in (s, cell, context))
        masked = masked[keep]
        masked[np.arange(len(keep)), [seq[-1] for seq in seqs]] = True
        # emissions only lower a score, so no live path can beat the pool best
        if pool and max(p[0] for p in pool) >= max(scores):
            break

    if pool:
        pool.sort(key=lambda p: (-p[0], p[1]))
        _, seq, best_probs = pool[0]
        return list(seq), list(best_probs)
    best = min(range(len(seqs)), key=lambda r: (-scores[r], seqs[r]))
    return list(seqs[best]), list(probs[best])


def beam_search(tokens, ckpt: ModelCheckpoint, beam_width: int, max_steps: int) -> list[str]:
    """Best no-repeat library sequence by total log-probability.

    With beam_width 1 this reduces exactly to greedy_decode; with a width
    covering every hypothesis it is exhaustive search.
    """
    seq, _ = _beam(tokens, ckpt, beam_width, max_steps)
    return [ckpt.lib_vocab.token(i) for i in seq]


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
    seq, probs = _beam(tokens, ckpt, beam_width, max_steps=k + 5)
    items = tuple(
        (ckpt.lib_vocab.token(i), p) for i, p in list(zip(seq, probs))[:k]
    )
    return RecommendResult(items=items, requested_k=k, truncated=len(items) < k)
