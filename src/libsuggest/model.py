"""The recommender network: bi-LSTM encoder over embedded description
tokens, additive attention, an LSTM decoder whose softmax is masked
against repeats, and the popularity-weighted sequence loss."""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence, Set
from dataclasses import dataclass

import numpy as np

from .corpus import EOS_ID, N_RESERVED, PAD_ID, UNK_ID, Vocabulary
from .tensor import (
    Tensor,
    _lstm_gates,
    _softmax,
    add,
    bilstm,
    concat_rows,
    dropout,
    log,
    lstm_cell,
    masked_softmax,
    matmul,
    relu,
    scale,
    take,
    tanh,
)

BOS = -1  # pseudo-id fed to the first decoder step

__all__ = [
    "BOS",
    "LstmParams",
    "AttentionParams",
    "OutputParams",
    "ModelParams",
    "lstm_step",
    "encode",
    "attention",
    "initial_decoder_state",
    "decoder_step",
    "attention_keys",
    "decoder_step_batch",
    "library_weights",
    "sequence_loss",
    "example_loss",
    "named_parameters",
    "init_params",
]


@dataclass
class LstmParams:
    """One LSTM cell with its four gates fused, in column blocks
    [input | forget | output | candidate] of width H.

    Weight matrices are stored input-major, so a step computes
    z = x @ w + h @ u + b and reads gate i from z[:H], f from z[H:2H], and
    so on.
    """

    w: Tensor  # [input x 4H]
    u: Tensor  # [H x 4H]
    b: Tensor  # [4H]

    @property
    def input_size(self) -> int:
        return self.w.shape[0]

    @property
    def hidden_size(self) -> int:
        return self.u.shape[0]


@dataclass
class AttentionParams:
    """Additive attention weights: score = v_a . tanh(s @ w_a + h @ u_a)."""

    w_a: Tensor  # decoder state -> attention space
    u_a: Tensor  # encoder state -> attention space
    v_a: Tensor


@dataclass
class OutputParams:
    """Readout weights: logits = relu(s @ w_d + c @ v_d) @ w_o."""

    w_d: Tensor
    v_d: Tensor
    w_o: Tensor


@dataclass
class ModelParams:
    """All learned tensors plus the fixed per-library loss weights."""

    enc_fwd: LstmParams
    enc_bwd: LstmParams
    dec: LstmParams
    attn: AttentionParams
    out: OutputParams
    init_w: Tensor  # final encoder states -> initial decoder state
    init_b: Tensor
    emb: Tensor  # trainable library embeddings, one row per library id
    bos: Tensor  # dedicated embedding for the first decoder input
    class_weights: np.ndarray  # fixed, never trained

    @property
    def lib_vocab_size(self) -> int:
        return self.emb.shape[0]


def lstm_step(x: Tensor, h_prev: Tensor, c_prev: Tensor, p: LstmParams) -> tuple[Tensor, Tensor]:
    """Standard forget-gate LSTM cell (no peepholes)."""
    return lstm_cell(x, h_prev, c_prev, p.w, p.u, p.b)


def encode(x: Tensor, valid_len: int, fwd: LstmParams, bwd: LstmParams) -> Tensor:
    """Bi-directional encoding of an embedded [T x dim] input.

    Row t of the result concatenates the left-to-right state at t with the
    right-to-left state at t.  Only the first `valid_len` rows enter the
    recurrences; the remaining PAD rows come back as zeros and are meant
    to be skipped via `valid_len` downstream.
    """
    if valid_len < 1:
        raise ValueError("cannot encode an all-PAD sequence")
    return bilstm(x, valid_len, (fwd.w, fwd.u, fwd.b), (bwd.w, bwd.u, bwd.b))


def attention(
    s_t: Tensor, enc_out: Tensor, valid_len: int, p: AttentionParams
) -> tuple[Tensor, Tensor]:
    """Score encoder states against the decoder state and average them.

    Returns the attention weights over all T positions (exact zeros past
    `valid_len`) and the context vector over the valid positions.
    """
    total = enc_out.shape[0]
    if not 1 <= valid_len <= total:
        raise ValueError(f"valid_len {valid_len} out of range for {total} positions")
    valid = take(enc_out, slice(0, valid_len)) if valid_len < total else enc_out
    scores = matmul(tanh(add(matmul(valid, p.u_a), matmul(s_t, p.w_a))), p.v_a)
    alpha = masked_softmax(scores, np.zeros(valid_len))
    context = matmul(alpha, valid)
    if valid_len < total:
        alpha = concat_rows(alpha, Tensor(np.zeros(total - valid_len)))
    return alpha, context


def initial_decoder_state(
    enc_out: Tensor, valid_len: int, params: ModelParams
) -> tuple[Tensor, Tensor, Tensor]:
    """Decoder start: learned tanh map of the final forward and backward
    encoder states; zero cell state and zero initial context."""
    enc_hidden = enc_out.shape[1] // 2
    final_fwd = take(enc_out, (valid_len - 1, slice(0, enc_hidden)))
    final_bwd = take(enc_out, (0, slice(enc_hidden, 2 * enc_hidden)))
    s0 = tanh(add(matmul(concat_rows(final_fwd, final_bwd), params.init_w), params.init_b))
    cell0 = Tensor(np.zeros(params.init_b.shape[0]))
    context0 = Tensor(np.zeros(2 * enc_hidden))
    return s0, cell0, context0


def decoder_step(
    prev_id: int,
    context_prev: Tensor,
    s_prev: Tensor,
    cell_prev: Tensor,
    enc_out: Tensor,
    valid_len: int,
    mask_ids: Set[int],
    params: ModelParams,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor, Tensor, Tensor, Tensor]:
    """One decode step; returns (s_t, cell_t, context_t, logits_t, y_t).

    The previous emission's embedding (or the BOS vector) is concatenated
    with the previous context to feed the decoder LSTM; attention then
    reads the encoder output with the fresh state, and the masked softmax
    zeroes every id in `mask_ids`.  Callers put only previously emitted
    libraries in the mask, never EOS or PAD.
    """
    vocab_n = params.lib_vocab_size
    if prev_id != BOS and not 0 <= prev_id < vocab_n:
        raise ValueError(f"previous id {prev_id} out of vocabulary range")
    if len(mask_ids) >= vocab_n:
        raise ValueError("repeat mask covers the whole library vocabulary")

    prev_emb = params.bos if prev_id == BOS else take(params.emb, prev_id)
    x = concat_rows(prev_emb, context_prev)
    s_t, cell_t = lstm_step(x, s_prev, cell_prev, params.dec)
    _, context_t = attention(s_t, enc_out, valid_len, params.attn)

    s_used = dropout(s_t, dropout_p, rng, training=dropout_p > 0.0)
    hidden = relu(add(matmul(s_used, params.out.w_d), matmul(context_t, params.out.v_d)))
    logits = matmul(hidden, params.out.w_o)

    mask = np.zeros(vocab_n)
    for i in mask_ids:
        if not 0 <= i < vocab_n:
            raise ValueError(f"masked id {i} out of vocabulary range")
        mask[i] = -np.inf
    y_t = masked_softmax(logits, mask)
    return s_t, cell_t, context_t, logits, y_t


def attention_keys(enc_out: Tensor, valid_len: int, p: AttentionParams) -> np.ndarray:
    """The encoder side of the attention scores, `enc_out[:valid_len] @ u_a`.

    It does not depend on the decoder state, so `decoder_step_batch` takes
    it precomputed: once per source instead of once per step.
    """
    total = enc_out.shape[0]
    if not 1 <= valid_len <= total:
        raise ValueError(f"valid_len {valid_len} out of range for {total} positions")
    return enc_out.data[:valid_len] @ p.u_a.data


def _rows_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    # one stacked product of B [1 x K] slices, each the same BLAS call as
    # the vector-matrix `x[b] @ w`; a [B x K] @ [K x N] GEMM sums in
    # another order and differs from it in the last bits
    return (x[:, None, :] @ w)[:, 0]


def _lstm_rows(x: np.ndarray, h: np.ndarray, c: np.ndarray, p: LstmParams):
    h, c, _ = _lstm_gates(_rows_matmul(x, p.w.data) + _rows_matmul(h, p.u.data) + p.b.data, c)
    return h, c


def decoder_step_batch(
    prev_ids: Sequence[int],
    context_prev: np.ndarray,
    s_prev: np.ndarray,
    cell_prev: np.ndarray,
    enc_out: Tensor,
    valid_len: int,
    keys: np.ndarray,
    masked: np.ndarray,
    params: ModelParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`decoder_step` for B hypotheses at once, on plain arrays and without
    a tape; returns (s_t, cell_t, context_t, y_t), each with B rows.

    Row b of the inputs is one hypothesis: its previous id (or BOS), its
    context, state and cell, and row b of the [B x V] boolean `masked`,
    which is True at the ids `decoder_step` would get in `mask_ids`.
    `keys` is `attention_keys(enc_out, valid_len, params.attn)`.  Row b of
    every result is bit-identical to what `decoder_step` returns for row b:
    vector-matrix products run as stacked products, everything else is
    elementwise, and both softmaxes run row by row.  No dropout, since only
    inference uses it.
    """
    vocab_n = params.lib_vocab_size
    prev = np.asarray(prev_ids)
    if masked.shape != (len(prev), vocab_n):
        raise ValueError(f"mask shape {masked.shape} != ({len(prev)}, {vocab_n})")
    if ((prev != BOS) & ((prev < 0) | (prev >= vocab_n))).any():
        raise ValueError("previous id out of vocabulary range")
    if masked.all(axis=1).any():
        raise ValueError("repeat mask covers the whole library vocabulary")
    valid = enc_out.data[:valid_len]

    prev_emb = params.emb.data[np.where(prev == BOS, 0, prev)]
    prev_emb[prev == BOS] = params.bos.data
    x = np.concatenate([prev_emb, context_prev], axis=1)
    s_t, cell_t = _lstm_rows(x, s_prev, cell_prev, params.dec)

    query = _rows_matmul(s_t, params.attn.w_a.data)
    scores = np.tanh(keys + query[:, None, :]) @ params.attn.v_a.data
    every = np.ones(valid_len, dtype=bool)
    alpha = np.stack([_softmax(row_scores, every) for row_scores in scores])
    context_t = _rows_matmul(alpha, valid)

    out = params.out
    hidden = np.maximum(_rows_matmul(s_t, out.w_d.data) + _rows_matmul(context_t, out.v_d.data), 0.0)
    logits = _rows_matmul(hidden, out.w_o.data)
    y_t = np.stack([_softmax(row_logits, ~row_mask) for row_logits, row_mask in zip(logits, masked)])
    return s_t, cell_t, context_t, y_t


def library_weights(freq: Mapping[str, int], lib_vocab: Vocabulary) -> np.ndarray:
    """Per-library loss weights 1 - f_j / sum(f), aligned to vocabulary id
    order (index 0 is the first non-reserved id)."""
    libs = lib_vocab.regular_tokens()
    if len(libs) < 2:
        raise ValueError("need at least two libraries for nonzero weights")
    counts = np.array([freq[lib] for lib in libs], dtype=np.float64)
    if (counts < 1).any():
        raise ValueError("every vocabulary library needs frequency >= 1")
    return 1.0 - counts / counts.sum()


def _loss_weight(target_id: int, class_weights: np.ndarray) -> float:
    if target_id == EOS_ID:
        return 1.0
    if target_id in (PAD_ID, UNK_ID):
        raise ValueError("PAD/UNK cannot be loss targets")
    return float(class_weights[target_id - N_RESERVED])


def sequence_loss(
    step_probs: Sequence[Tensor], targets: Sequence[int], class_weights: np.ndarray
) -> Tensor:
    """Weighted negative log-likelihood summed over target positions.

    Every non-PAD target position (EOS included, at weight 1) contributes
    -w * log y_t[target].  A zero target probability signals a masking bug
    (the target itself was masked) and raises.
    """
    if len(step_probs) != len(targets):
        raise ValueError("one probability vector per target position required")
    if not targets:
        raise ValueError("no target positions")
    total: Tensor | None = None
    for y_t, target in zip(step_probs, targets):
        if float(y_t.data[target]) <= 0.0:
            raise ValueError(f"target {target} has zero probability (masked target?)")
        term = scale(log(take(y_t, target)), -_loss_weight(target, class_weights))
        total = term if total is None else add(total, term)
    return total


def example_loss(
    x: Tensor,
    valid_len: int,
    targets: Sequence[int],
    params: ModelParams,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Teacher-forced loss for one example (sum over its target positions).

    The repeat mask grows with the ground-truth prefix, mirroring what
    inference does with its own emissions; dropout (when active) hits the
    encoder output rows and the decoder state before the readout.
    """
    enc_out = encode(x, valid_len, params.enc_fwd, params.enc_bwd)
    enc_out = dropout(enc_out, dropout_p, rng, training=dropout_p > 0.0)
    s_t, cell_t, context_t = initial_decoder_state(enc_out, valid_len, params)

    probs = []
    mask: set[int] = set()
    prev = BOS
    for target in targets:
        s_t, cell_t, context_t, _, y_t = decoder_step(
            prev, context_t, s_t, cell_t, enc_out, valid_len, mask, params, dropout_p, rng
        )
        probs.append(y_t)
        if target != EOS_ID:
            mask.add(target)
        prev = target
    return sequence_loss(probs, targets, params.class_weights)


def named_parameters(params: ModelParams) -> dict[str, Tensor]:
    """Trainable tensors in a fixed, deterministic order."""
    out: dict[str, Tensor] = {}
    for prefix, cell in (("enc_fwd", params.enc_fwd), ("enc_bwd", params.enc_bwd), ("dec", params.dec)):
        out[f"{prefix}.w"] = cell.w
        out[f"{prefix}.u"] = cell.u
        out[f"{prefix}.b"] = cell.b
    out["attn.w_a"] = params.attn.w_a
    out["attn.u_a"] = params.attn.u_a
    out["attn.v_a"] = params.attn.v_a
    out["out.w_d"] = params.out.w_d
    out["out.v_d"] = params.out.v_d
    out["out.w_o"] = params.out.w_o
    out["init_w"] = params.init_w
    out["init_b"] = params.init_b
    out["emb"] = params.emb
    out["bos"] = params.bos
    return out


def _uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    r = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-r, r, size=shape))


def _init_lstm(rng: np.random.Generator, input_size: int, hidden: int) -> LstmParams:
    # drawn gate by gate, (w, u, b) each, in the order of a cell stored as
    # twelve per-gate tensors, then laid side by side
    blocks = [
        (
            _uniform(rng, (input_size, hidden), input_size),
            _uniform(rng, (hidden, hidden), hidden),
            _uniform(rng, (hidden,), hidden),
        )
        for _gate in "ifog"
    ]
    return LstmParams(*(Tensor(np.concatenate([b[j].data for b in blocks], axis=-1)) for j in range(3)))


def init_params(
    embed_dim: int,
    enc_hidden: int,
    dec_hidden: int,
    lib_embed: int,
    lib_vocab_size: int,
    class_weights: np.ndarray,
    rng: np.random.Generator,
) -> ModelParams:
    """Fresh parameters, uniform(-r, r) with r = 1/sqrt(fan-in).

    The attention space and the readout hidden layer both use the decoder
    hidden size.  Embedding rows use the embedding width as fan-in so
    their scale does not shrink with vocabulary size.
    """
    if class_weights.shape != (lib_vocab_size - N_RESERVED,):
        raise ValueError("class weights must cover every non-reserved library id")
    attn_dim = dec_hidden
    out_hidden = dec_hidden
    return ModelParams(
        enc_fwd=_init_lstm(rng, embed_dim, enc_hidden),
        enc_bwd=_init_lstm(rng, embed_dim, enc_hidden),
        dec=_init_lstm(rng, lib_embed + 2 * enc_hidden, dec_hidden),
        attn=AttentionParams(
            w_a=_uniform(rng, (dec_hidden, attn_dim), dec_hidden),
            u_a=_uniform(rng, (2 * enc_hidden, attn_dim), 2 * enc_hidden),
            v_a=_uniform(rng, (attn_dim,), attn_dim),
        ),
        out=OutputParams(
            w_d=_uniform(rng, (dec_hidden, out_hidden), dec_hidden),
            v_d=_uniform(rng, (2 * enc_hidden, out_hidden), 2 * enc_hidden),
            w_o=_uniform(rng, (out_hidden, lib_vocab_size), out_hidden),
        ),
        init_w=_uniform(rng, (2 * enc_hidden, dec_hidden), 2 * enc_hidden),
        init_b=_uniform(rng, (dec_hidden,), dec_hidden),
        emb=_uniform(rng, (lib_vocab_size, lib_embed), lib_embed),
        bos=_uniform(rng, (lib_embed,), lib_embed),
        class_weights=np.asarray(class_weights, dtype=np.float64),
    )
