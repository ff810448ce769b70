"""The recommender network: bi-LSTM encoder over embedded description
tokens, additive attention, an LSTM decoder whose softmax is masked
against repeats, and the popularity-weighted sequence loss.

Every function here runs a batch of B sequences: embedded sources
[B x T x dim] with B lengths, [B x .] states, [B] previous ids and a
[B x V] boolean repeat mask.  `encode`, `initial_decoder_state` and
`decoder_step` also take one sequence, told by an int length: an embedded
source [T x dim], vector states, an int previous id and a set of masked
ids.  They lift it to a batch of one, which is not a tape op, and return
its row 0 (`_batch_of_one`).  Nothing in the package calls that form: the
lift serves callers outside it, such as the benchmark's replay of an
answer and the tests.

`decoder_step` is the one decoder step.  Training runs a mini-batch
through `batch_loss`: one encoder op, then one `decoder_step` per target
position over the rows whose targets are still running, which lie at the
front because `batch_loss` sorts its rows by target length, longest first
(`example_loss` is the batch of one).  Attention is one tape op,
`tensor.additive_attention`, which reads only each row's valid source
positions; `attention` projects the decoder state and calls it.
Decoding runs `encode` and `decoder_step` with no tape, where each row of
a batch, such as the sources of a decode group or the hypotheses of
several queries over their padded sources, is bit-identical to the batch
of one holding that row (`decode` states why).

The parameter layout is defined once.  The fields of `ModelParams` give
the order of the trainable tensors and `parameter_shapes` their shapes;
`named_parameters` and `params_from_named` walk those fields, and
`init_params` draws over that table.  A checkpoint stores the tensors in
the same order (`trainer.checkpoint_bytes`).

An input is checked once, by the op that reads it.  The tensor ops
reject shapes that do not fit: `tensor.additive_attention` checks the
decoder states, keys and lengths against the encoder output at every
step, and `tensor.masked_softmax` checks the repeat mask and rejects a
row where every id is masked.  This module checks what it indexes
itself, the lengths of `initial_decoder_state` and the previous ids of
`decoder_step`; `tensor.bilstm` checks the lengths of `encode` and names
an all-PAD source.
"""

from __future__ import annotations

import functools
import inspect
import typing
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, fields

import numpy as np

from .corpus import EOS_ID, N_RESERVED, PAD_ID, UNK_ID, Vocabulary
from .tensor import (
    Tensor,
    _active_tape,
    add,
    additive_attention,
    bilstm,
    concat_rows,
    dropout,
    log,
    lstm_cell,
    masked_softmax,
    matmul,
    relu,
    scale,
    sum_all,
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
    "encode",
    "attention",
    "initial_decoder_state",
    "decoder_step",
    "attention_keys",
    "library_weights",
    "sequence_loss",
    "batch_loss",
    "example_loss",
    "named_parameters",
    "params_from_named",
    "parameter_shapes",
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
    """All learned tensors plus the fixed per-library loss weights.

    The field order, and that of each group's fields, is the order of the
    tensors everywhere: `named_parameters`, `parameter_shapes`, the draws
    of `init_params` and a checkpoint.
    """

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


_FIELDS = typing.get_type_hints(ModelParams)  # field name -> Tensor, a group of tensors or np.ndarray


def _batch_of_one(batch_fn):
    """`batch_fn` that also runs one sequence, told by an int `valid_len`,
    as a batch of one: tensors and arrays gain a leading axis, ints (the
    length, a previous id) become one-element arrays and a set of masked
    ids a [1 x V] boolean row; each result comes back as its row 0.  The
    lift is not a tape op, so under a tape it raises."""
    signature = inspect.signature(batch_fn)
    at = list(signature.parameters).index("valid_len")

    def lift(value, vocab_n):
        if isinstance(value, Tensor):
            return Tensor(value.data[None])
        if isinstance(value, np.ndarray):
            return value[None]
        if isinstance(value, (int, np.integer)):
            return np.array([value])
        if isinstance(value, (set, frozenset)):
            row = np.zeros((1, vocab_n), dtype=bool)
            for i in value:
                if not 0 <= i < vocab_n:
                    raise ValueError(f"masked id {i} out of vocabulary range")
                row[0, i] = True
            return row
        return value

    @functools.wraps(batch_fn)
    def call(*args, **kwargs):
        if not isinstance(args[at] if len(args) > at else kwargs.get("valid_len"), (int, np.integer)):
            return batch_fn(*args, **kwargs)
        if _active_tape() is not None:
            raise ValueError(f"{batch_fn.__name__} takes a batch under a tape, not one sequence")
        named = signature.bind(*args, **kwargs).arguments
        vocab_n = named["params"].lib_vocab_size if "params" in named else 0
        out = batch_fn(**{name: lift(value, vocab_n) for name, value in named.items()})
        return Tensor(out.data[0]) if isinstance(out, Tensor) else tuple(Tensor(t.data[0]) for t in out)

    return call


@_batch_of_one
def encode(x: Tensor | np.ndarray, valid_len, fwd: LstmParams, bwd: LstmParams) -> Tensor:
    """Bi-directional encoding of an embedded [B x T x dim] batch with one
    length per row.  The input, a Tensor or a plain array, is a constant:
    its gradient is not computed.

    Position t of the result concatenates the left-to-right state at t
    with the right-to-left state at t; the right-to-left pass starts at
    each row's own last token.  Only a row's first `valid_len` positions
    enter the recurrences; the remaining PAD positions come back as zeros,
    get zero gradient and are meant to be skipped via `valid_len`
    downstream.
    """
    return bilstm(x, valid_len, (fwd.w, fwd.u, fwd.b), (bwd.w, bwd.u, bwd.b))


def attention(
    s_t: Tensor, enc_out: Tensor, valid_len, p: AttentionParams, keys: Tensor | None = None
) -> tuple[Tensor, Tensor]:
    """Score encoder states against the decoder states and average them.

    s_t is [B x H], enc_out [B x T x 2H] with one length per row.  Returns
    the attention weights over all T positions (exact zeros past each
    row's length: its scores there are -inf) and the context vectors over
    the valid positions, from one `tensor.additive_attention` op, which
    reads only those positions.  `keys` is `attention_keys(enc_out, p)`:
    a caller that passes it computes it once for every step of a batch
    instead of once per step.  `additive_attention` rejects states, keys
    or lengths that do not fit `enc_out`, and a length outside 1..T.
    """
    if keys is None:
        keys = attention_keys(enc_out, p)
    return additive_attention(keys, matmul(s_t, p.w_a), p.v_a, enc_out, valid_len)


@_batch_of_one
def initial_decoder_state(
    enc_out: Tensor, valid_len, params: ModelParams
) -> tuple[Tensor, Tensor, Tensor]:
    """Decoder start, one row per sequence: learned tanh map of the final
    forward and backward encoder states; zero cell state and zero initial
    context."""
    lengths = np.asarray(valid_len)
    total = enc_out.shape[1] if enc_out.ndim == 3 else 0
    if lengths.shape != enc_out.shape[:1] or not ((lengths >= 1) & (lengths <= total)).all():
        raise ValueError(f"valid_len {valid_len} out of range for {total} positions")
    enc_hidden, rows = enc_out.shape[-1] // 2, len(lengths)
    final_fwd = take(enc_out, (np.arange(rows), lengths - 1, slice(0, enc_hidden)))
    final_bwd = take(enc_out, (slice(0, rows), 0, slice(enc_hidden, 2 * enc_hidden)))
    s0 = tanh(add(matmul(concat_rows(final_fwd, final_bwd), params.init_w), params.init_b))
    cell0 = Tensor(np.zeros((rows,) + params.init_b.shape))
    context0 = Tensor(np.zeros((rows, 2 * enc_hidden)))
    return s0, cell0, context0


def _previous_embedding(prev_id, lead: tuple[int, ...], params: ModelParams) -> Tensor:
    vocab_n = params.lib_vocab_size
    prev = np.asarray(prev_id)
    if prev.shape != lead:
        raise ValueError(f"previous ids of shape {prev.shape} do not fit states of {lead} rows")
    if (prev == BOS).all():
        return add(Tensor(np.zeros(lead + params.bos.shape)), params.bos)
    # BOS starts every row of a batch or none of them
    if ((prev < 0) | (prev >= vocab_n)).any():
        raise ValueError(f"previous ids {prev} out of vocabulary range")
    return take(params.emb, prev)


@_batch_of_one
def decoder_step(
    prev_id,
    context_prev: Tensor,
    s_prev: Tensor,
    cell_prev: Tensor,
    enc_out: Tensor,
    valid_len,
    mask_ids,
    params: ModelParams,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
    keys: Tensor | None = None,
) -> tuple[Tensor, Tensor, Tensor, Tensor, Tensor]:
    """One decode step; returns (s_t, cell_t, context_t, logits_t, y_t).

    The previous emission's embedding (or the BOS vector) is concatenated
    with the previous context to feed the decoder LSTM; attention then
    reads the encoder output with the fresh state, and the masked softmax
    zeroes every id in the repeat mask.  Callers put only previously
    emitted libraries in the mask, never EOS or PAD.

    The B rows take [B] previous ids (BOS for every row or for none),
    [B x .] states, enc_out [B x T x 2H], [B] lengths and a [B x V]
    boolean mask that is True at the masked ids; the caller updates that
    mask in place between steps.  `keys` is passed on to `attention`.
    With no tape, row b of each result equals the batch of one holding
    row b's inputs bit for bit, and so the one-sequence step.

    Each input is checked by the op that reads it: the previous ids here,
    the states by `concat_rows` and `lstm_cell`, the encoder output, keys
    and lengths by `tensor.additive_attention`, and the mask, its shape,
    its dtype and a row where every id is masked, by
    `tensor.masked_softmax`.
    """
    prev_emb = _previous_embedding(prev_id, s_prev.shape[:-1], params)
    x = concat_rows(prev_emb, context_prev)
    s_t, cell_t = lstm_cell(x, s_prev, cell_prev, params.dec.w, params.dec.u, params.dec.b)
    _, context_t = attention(s_t, enc_out, valid_len, params.attn, keys)

    s_used = dropout(s_t, dropout_p, rng)
    hidden = relu(add(matmul(s_used, params.out.w_d), matmul(context_t, params.out.v_d)))
    logits = matmul(hidden, params.out.w_o)
    y_t = masked_softmax(logits, mask_ids)
    return s_t, cell_t, context_t, logits, y_t


def attention_keys(enc_out: Tensor, p: AttentionParams) -> Tensor:
    """The encoder side of the attention scores, `enc_out @ u_a` over all
    T positions, for a batch or for one sequence.

    It depends neither on the decoder state nor on the lengths, so
    `attention` and `decoder_step` take it precomputed: once per source
    instead of once per step.  `tensor.additive_attention` reads only the
    valid positions and checks the lengths at every step.
    """
    return matmul(enc_out, p.u_a)


def library_weights(freq: Mapping[str, int], lib_vocab: Vocabulary) -> np.ndarray:
    """Per-library loss weights 1 - f_j / sum(f), aligned to vocabulary id
    order (index 0 is the first non-reserved id).  A vocabulary library
    with no count in `freq`, or a count below 1, is a ValueError naming it."""
    libs = lib_vocab.regular_tokens()
    if len(libs) < 2:
        raise ValueError("need at least two libraries for nonzero weights")
    for lib in libs:
        if freq.get(lib, 0) < 1:
            raise ValueError(f"vocabulary library {lib!r} needs a frequency >= 1")
    counts = np.array([freq[lib] for lib in libs], dtype=np.float64)
    return 1.0 - counts / counts.sum()


def sequence_loss(step_probs: Sequence[Tensor], targets: Sequence, class_weights: np.ndarray) -> Tensor:
    """Weighted negative log-likelihood summed over target positions.

    Step t holds a [n_t x V] probability matrix with one target id per
    row.  Every target (EOS included, at weight 1) contributes
    -w * log y_t[target].  A zero target probability signals a masking
    bug (the target itself was masked) and raises.
    """
    if len(step_probs) != len(targets):
        raise ValueError("one probability vector per target position required")
    if not targets:
        raise ValueError("no target positions")
    total: Tensor | None = None
    for y_t, target in zip(step_probs, targets):
        target = np.asarray(target)
        if y_t.ndim != 2 or target.shape != y_t.shape[:1]:
            raise ValueError(f"targets of shape {target.shape} do not fit probabilities {y_t.shape}")
        if ((target == PAD_ID) | (target == UNK_ID)).any():
            raise ValueError("PAD/UNK cannot be loss targets")
        picked = take(y_t, (np.arange(target.size), target))
        if (picked.data <= 0.0).any():
            raise ValueError(f"target {target} has zero probability (masked target?)")
        weights = np.where(target == EOS_ID, 1.0, class_weights[np.maximum(target - N_RESERVED, 0)])
        term = sum_all(scale(log(picked), -weights))
        total = term if total is None else add(total, term)
    return total


def batch_loss(
    x: np.ndarray,
    valid_len: Sequence[int],
    targets: Sequence[Sequence[int]],
    params: ModelParams,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Teacher-forced loss summed over a batch of B examples in any order.

    x is the embedded sources [B x T x dim] with B lengths, a constant
    array: the source gets no gradient.  The rows are first sorted by
    target length, longest first, by a stable sort (ties keep their given
    order), so that the sequences still running at step t are the first
    n_t rows: step t runs one `decoder_step` over those rows only, and the
    states, encoder outputs and attention keys shrink to the first rows
    whenever a target ends; the encoder outputs and keys are cut from the
    whole batch's arrays each time, so that the gradients of all the cuts
    add in place into one buffer.  Each row's repeat mask grows with its
    ground-truth prefix, mirroring what inference does with its own
    emissions.  Dropout (when active) draws once over the sorted
    [B x T x 2H] encoder output, then once per step over the [n_t x H]
    decoder state before the readout.
    """
    lengths = np.asarray(valid_len)
    if x.ndim != 3 or lengths.shape != (len(targets),) or x.shape[0] != len(targets):
        raise ValueError(f"{len(targets)} target lists do not fit input {x.shape} with lengths {lengths.shape}")
    if not targets or min(map(len, targets)) < 1:
        raise ValueError("targets must be non-empty")
    order = np.argsort([-len(t) for t in targets], kind="stable")
    x, lengths, targets = x[order], lengths[order], [targets[i] for i in order]
    sizes = [len(t) for t in targets]
    enc_out = encode(x, lengths, params.enc_fwd, params.enc_bwd)
    enc_out = dropout(enc_out, dropout_p, rng)
    s_t, cell_t, context_t = initial_decoder_state(enc_out, lengths, params)
    keys_all = attention_keys(enc_out, params.attn)
    enc, keys = enc_out, keys_all

    ids = np.full((len(targets), sizes[0]), EOS_ID)
    for row, target in zip(ids, targets):
        row[: len(target)] = target
    masked = np.zeros((len(targets), params.lib_vocab_size), dtype=bool)
    prev = np.full(len(targets), BOS)
    probs, step_targets = [], []
    n = len(targets)
    for t in range(sizes[0]):
        if sizes[n - 1] <= t:
            n = sum(size > t for size in sizes)
            rows = slice(0, n)
            s_t, cell_t, context_t = take(s_t, rows), take(cell_t, rows), take(context_t, rows)
            window = (rows, slice(0, int(lengths[:n].max())))
            enc, keys = take(enc_out, window), take(keys_all, window)
        step = ids[:n, t]
        s_t, cell_t, context_t, _, y_t = decoder_step(
            prev[:n], context_t, s_t, cell_t, enc, lengths[:n], masked[:n], params, dropout_p, rng, keys
        )
        probs.append(y_t)
        step_targets.append(step)
        libs = step != EOS_ID
        masked[np.flatnonzero(libs), step[libs]] = True
        prev = step
    return sequence_loss(probs, step_targets, params.class_weights)


def example_loss(
    x: Tensor,
    valid_len: int,
    targets: Sequence[int],
    params: ModelParams,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Teacher-forced loss for one example [T x dim], as a batch of one.

    The source is a constant here: its gradient is not computed.
    """
    return batch_loss(x.data[None], [valid_len], [targets], params, dropout_p, rng)


def named_parameters(params: ModelParams) -> dict[str, Tensor]:
    """The trainable tensors by name, in the order of the fields of
    `ModelParams` (a group's tensors as `group.field`): the order of
    `parameter_shapes`, of the draws of `init_params` and of a checkpoint."""
    out: dict[str, Tensor] = {}
    for name, kind in _FIELDS.items():
        value = getattr(params, name)
        if kind is Tensor:
            out[name] = value
        elif kind is not np.ndarray:  # class_weights is fixed, not trained
            out.update({f"{name}.{f.name}": getattr(value, f.name) for f in fields(kind)})
    return out


def params_from_named(named: Mapping[str, Tensor], class_weights: np.ndarray) -> ModelParams:
    """`ModelParams` holding the tensors of `named_parameters` names, and
    the fixed loss weights."""
    groups = {
        name: named[name] if kind is Tensor else kind(*(named[f"{name}.{f.name}"] for f in fields(kind)))
        for name, kind in _FIELDS.items()
        if kind is not np.ndarray
    }
    return ModelParams(**groups, class_weights=np.asarray(class_weights, dtype=np.float64))


def parameter_shapes(
    embed_dim: int, enc_hidden: int, dec_hidden: int, lib_embed: int, lib_vocab_size: int
) -> dict[str, tuple[int, ...]]:
    """The shape of every trainable tensor, by `named_parameters` name and
    in its order.  The attention space and the readout hidden layer both
    use the decoder hidden size."""
    enc2, dec = 2 * enc_hidden, dec_hidden
    shapes: dict[str, tuple[int, ...]] = {}
    for cell, n_in, hidden in (
        ("enc_fwd", embed_dim, enc_hidden),
        ("enc_bwd", embed_dim, enc_hidden),
        ("dec", lib_embed + enc2, dec),
    ):
        shapes[f"{cell}.w"] = (n_in, 4 * hidden)
        shapes[f"{cell}.u"] = (hidden, 4 * hidden)
        shapes[f"{cell}.b"] = (4 * hidden,)
    return shapes | {
        "attn.w_a": (dec, dec),
        "attn.u_a": (enc2, dec),
        "attn.v_a": (dec,),
        "out.w_d": (dec, dec),
        "out.v_d": (enc2, dec),
        "out.w_o": (dec, lib_vocab_size),
        "init_w": (enc2, dec),
        "init_b": (dec,),
        "emb": (lib_vocab_size, lib_embed),
        "bos": (lib_embed,),
    }


def _uniform(rng: np.random.Generator, name: str, shape: tuple[int, ...]) -> np.ndarray:
    # fan-in: the rows of a matrix, the width of an emb row (so that its
    # scale does not shrink with the vocabulary), the length of a vector
    r = 1.0 / np.sqrt(shape[-1] if name == "emb" else shape[0])
    return rng.uniform(-r, r, size=shape)


def init_params(
    embed_dim: int,
    enc_hidden: int,
    dec_hidden: int,
    lib_embed: int,
    lib_vocab_size: int,
    class_weights: np.ndarray,
    rng: np.random.Generator,
) -> ModelParams:
    """Fresh parameters, uniform(-r, r) with r = 1/sqrt(fan-in), drawn in
    the order of `parameter_shapes`.

    An LSTM cell is drawn gate by gate, (w, u, b) each, in the order of a
    cell stored as twelve per-gate tensors, then laid side by side.
    """
    if class_weights.shape != (lib_vocab_size - N_RESERVED,):
        raise ValueError("class weights must cover every non-reserved library id")
    shapes = parameter_shapes(embed_dim, enc_hidden, dec_hidden, lib_embed, lib_vocab_size)
    arrays: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        group, _, part = name.partition(".")
        if _FIELDS[group] is not LstmParams:
            arrays[name] = _uniform(rng, name, shape)
        elif part == "w":  # the cell's u and b are drawn with its w
            names = [f"{group}.{k}" for k in "wub"]
            gates = [[_uniform(rng, n, shapes[n][:-1] + (shapes[n][-1] // 4,)) for n in names] for _gate in "ifog"]
            arrays.update({n: np.concatenate(blocks, axis=-1) for n, blocks in zip(names, zip(*gates))})
    return params_from_named({name: Tensor(a) for name, a in arrays.items()}, class_weights)
