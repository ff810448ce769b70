"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything runs in double precision at desk scale: the point is gradients
that survive a finite-difference audit.  Ops record their backward rule on
the thread's active tape (see `Tape`); with no active tape they are plain
numpy computations.

At these sizes the cost is the number of Python-level ops, so the ops take
a batch and the LSTM and attention are fused.  `matmul`, `add` and `take`
treat leading axes as rows; `concat_rows`, `masked_softmax` and
`lstm_cell` take [B x .] matrices, one row per sequence, and `bilstm` and
`additive_attention` take [B x T x .] sequences with one length per row.
One sequence is a batch of one.  A cell stores its four gates
[i | f | o | g] side by side as `w[in x 4H]`, `u[H x 4H]` and `b[4H]`.
`lstm_cell` is one decoder step as one op.  `bilstm` is a whole
bidirectional encoder pass as one op over packed rows: sorted by length,
longest first, with only the valid positions laid out time-major, so that
each recurrence step runs on the prefix of rows still running and no
padding is computed.  Each direction projects its input in one product
`x @ w + b`, and its backward is hand-written backpropagation through
time over the same prefixes (`dW = X^T dG`, `dU = H_prev^T dG`,
`db = sum dG`, each one product over the valid positions).  Its input,
the frozen word embeddings, is a constant and gets no gradient.  The gate
sigmoid is `0.5 * tanh(0.5 * x) + 0.5`, one transcendental.

With no tape, `matmul`, `lstm_cell` and the input projection of `bilstm`
multiply in fixed 4-row blocks (`_product`), and the recurrence of
`bilstm` multiplies each row alone (`_row_product`, one gemv per row, as
a one-source encode has one row per step anyway), so that a row's bits
depend only on the row and on the BLAS kernels, and a softmax sums whole
rows: a row of a batch, such as a beam hypothesis or a source of a decode
group, gets the bits of the batch of one.  `additive_attention` is one op over the valid (row,
position) pairs only: it gathers, adds to and scores them with numpy's
own einsum loops, and sums over positions in order (a `sequential`
softmax and einsum), so a row keeps its bits also when zeros pad its
span; its backward rule uses BLAS, as no row has to match a batch of one
under a tape.

Gradients accumulate in place once the tape owns the array it holds for a
tensor, so repeated uses of a weight add into one buffer; `take` scatters
its gradient the same way.  A weight gradient `a^T g` into a leaf, a
tensor that no record on the tape produced (a parameter), is deferred:
`matmul` and `lstm_cell` leave their rows of `a` and `g` on the tape, and
`backward` adds each leaf's rows as one product at the end of the sweep,
in place of one full-size product per decoder step.
"""

from __future__ import annotations

import operator
import threading
from collections.abc import Callable

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "matmul",
    "add",
    "scale",
    "tanh",
    "relu",
    "log",
    "concat_rows",
    "take",
    "sum_all",
    "masked_softmax",
    "additive_attention",
    "dropout",
    "lstm_cell",
    "bilstm",
]

_LOCAL = threading.local()
_FLOAT64 = np.dtype(np.float64)
_LONGDOUBLE = np.dtype(np.longdouble)


def _active_tape():
    return getattr(_LOCAL, "tape", None)


class Tensor:
    """Dense n-dimensional float64 array; ops treat it as immutable.

    Input of any other dtype becomes float64, except `np.longdouble` data,
    which is kept so that the finite-difference probes can run the forward
    pass in extended precision.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        data = np.asarray(data)
        if data.dtype is not _FLOAT64 and data.dtype != _LONGDOUBLE:
            data = np.asarray(data, dtype=np.float64)
        self.data = data

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class Tape:
    """Ordered record of executed differentiable operations.

    Ops append themselves in execution order, which is a topological order
    of the computation graph, so a single reverse sweep sees every output
    gradient fully accumulated before visiting the op that produced it.
    A leaf, a tensor that no record produced, has no rule that reads its
    gradient, so the products into it can wait for the end of the sweep
    (`_outer`).  One tape serves one forward/backward pass on one thread;
    distinct tapes may run on distinct threads concurrently.
    """

    def __init__(self):
        # (outputs, rule): rule(tape, *output gradients), None where an
        # output got no gradient
        self._records: list[tuple[tuple[Tensor, ...], Callable]] = []
        self._grads: dict[int, np.ndarray] = {}
        self._owned: set[int] = set()  # gradients no other name refers to
        self._produced: set[int] = set()  # outputs of the records, set by backward
        # per leaf: (leaf, rows of a, rows of g) for one a^T g at the end
        self._deferred: dict[int, tuple[Tensor, list[np.ndarray], list[np.ndarray]]] = {}

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise RuntimeError("a tape is already active on this thread")
        _LOCAL.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _LOCAL.tape = None
        return False

    def gradient(self, t: Tensor) -> np.ndarray | None:
        """Gradient accumulated for `t` by the last backward(), else None."""
        return self._grads.get(id(t))

    def __len__(self) -> int:
        return len(self._records)

    def _acc(self, t: Tensor, g: np.ndarray) -> None:
        """Add `g` to t's gradient, in place once the tape owns that array."""
        key = id(t)
        old = self._grads.get(key)
        if old is None:
            self._grads[key] = g
        elif key in self._owned:
            old += g
        else:
            self._grads[key] = old + g
            self._owned.add(key)

    def _scatter(self, t: Tensor, index, g: np.ndarray) -> None:
        """Add `g` into t's gradient at `index`, in place once the tape owns
        it; an index holding an array may repeat positions, which add up."""
        key = id(t)
        buf = self._grads.get(key)
        if key not in self._owned:
            buf = np.zeros_like(t.data) if buf is None else buf.copy()
            self._grads[key] = buf
            self._owned.add(key)
        parts = index if isinstance(index, tuple) else (index,)
        if any(isinstance(part, np.ndarray) for part in parts):
            np.add.at(buf, index, g)
        else:
            buf[index] += g

    def _outer(self, t: Tensor, a: np.ndarray, g: np.ndarray) -> None:
        """Add `a^T g`, over the rows of `a` and `g` (their leading axes), to
        t's gradient: at once when a record produced t, as its producer's
        rule reads that gradient later in the sweep; for a leaf, keep the
        rows, and `backward` adds them all as one product."""
        a, g = a.reshape(-1, a.shape[-1]), g.reshape(-1, g.shape[-1])
        if id(t) in self._produced:
            self._acc(t, a.T @ g)
            return
        _, a_rows, g_rows = self._deferred.setdefault(id(t), (t, [], []))
        a_rows.append(a)
        g_rows.append(g)


def _record(outs: tuple[Tensor, ...], rule: Callable) -> None:
    tape = _active_tape()
    if tape is not None:
        tape._records.append((outs, rule))


def backward(tape: Tape, loss: Tensor) -> None:
    """Run the reverse sweep, accumulating d(loss)/d(tensor) on the tape.

    Gradients add up across repeated uses of the same tensor.  Read them
    back with `tape.gradient(t)` for tensors no op on the tape produced
    (parameters and inputs); the gradient of an op's output is dropped
    once its rule has used it, so the sweep holds no more of them than
    it needs.  The products into a leaf wait until the reverse sweep ends
    and then go in as one `concat(a)^T @ concat(g)` per leaf, in sweep
    order, so a repeated sweep gives the same bytes.
    """
    if loss.ndim != 0:
        raise ValueError("loss must be a scalar tensor")
    tape._produced = {id(o) for outs, _ in tape._records for o in outs}
    if id(loss) not in tape._produced:
        raise ValueError("loss was not produced on this tape")
    tape._grads = {id(loss): np.ones((), dtype=np.float64)}
    tape._owned = set()
    tape._deferred = {}
    grads = tape._grads
    for outs, rule in reversed(tape._records):
        gs = [grads.pop(id(o), None) for o in outs]
        if any(g is not None for g in gs):
            rule(tape, *gs)
    deferred, tape._deferred = tape._deferred, {}
    for t, a_rows, g_rows in deferred.values():
        tape._acc(t, np.concatenate(a_rows).T @ np.concatenate(g_rows))


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`a @ b` for a matrix `b`.  With no tape the rows of `a` run in fixed
    blocks of 4, zero-padded: one BLAS call per block, whose kernel for
    M=4 gives each row the same bits whatever the row count or the other
    rows.  Under a tape a plain GEMM, which sums in another order yet
    costs less, for training."""
    if _active_tape() is not None:
        return a @ b
    k = a.shape[-1]
    rows = a.reshape(-1, k)
    blocks = np.zeros((-(-len(rows) // 4) * 4, k), dtype=a.dtype)
    blocks[: len(rows)] = rows
    out = (blocks.reshape(-1, 4, k) @ b).reshape(-1, b.shape[-1])[: len(rows)]
    return out.reshape(a.shape[:-1] + b.shape[-1:])


def _row_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`a @ b` for a matrix `a` of a few rows and a matrix `b`.  With no
    tape each row is its own vector-matrix product (one BLAS gemv), so a
    row's bits depend only on the row, and one row costs what a plain
    product of one row costs.  Under a tape a plain GEMM."""
    if _active_tape() is not None:
        return a @ b
    return (a[:, None, :] @ b)[:, 0]


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Contract the last axis of `a` with the first axis of a matrix `b`:
    the leading axes of `a` are rows, [.. x K] @ [K x N] is [.. x N]."""
    ad, bd = a.data, b.data
    if ad.ndim < 1 or bd.ndim != 2 or ad.shape[-1] != bd.shape[0]:
        raise ValueError(f"matmul shape mismatch: {ad.shape} @ {bd.shape}")
    out = Tensor(_product(ad, bd))

    def rule(tape, g):
        tape._acc(a, g @ bd.T)
        tape._outer(b, ad, g)

    _record((out,), rule)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum.  A `b` without the second-to-last axis of `a` is
    broadcast along it: a bias over the rows of a matrix, or one [B x N]
    row per [T x N] block of a [B x T x N] array."""
    ad, bd = a.data, b.data
    broadcast = ad.shape != bd.shape
    if broadcast and not (ad.ndim >= 2 and bd.shape == ad.shape[:-2] + ad.shape[-1:]):
        raise ValueError(f"add shape mismatch: {ad.shape} + {bd.shape}")
    out = Tensor(ad + (bd[..., None, :] if broadcast else bd))

    def rule(tape, g):
        tape._acc(a, g)
        tape._acc(b, g.sum(axis=-2) if broadcast else g)

    _record((out,), rule)
    return out


def scale(x: Tensor, factor) -> Tensor:
    """Multiply by a plain (non-differentiated) scalar, or elementwise by a
    constant array of x's shape."""
    if isinstance(factor, np.ndarray):
        if factor.shape != x.shape:
            raise ValueError(f"scale factor shape {factor.shape} != tensor shape {x.shape}")
    else:
        factor = float(factor)
    out = Tensor(x.data * factor)
    _record((out,), lambda tape, g: tape._acc(x, g * factor))
    return out


def _unary(x: Tensor, value: np.ndarray, local: Callable[[], np.ndarray]) -> Tensor:
    # the local gradient is computed in the sweep, from arrays the tape
    # keeps anyway, so that no third array per op waits for it
    out = Tensor(value)
    _record((out,), lambda tape, g: tape._acc(x, g * local()))
    return out


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    return _unary(x, y, lambda: 1.0 - y * y)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # one transcendental, which saturates without overflow; augmented
    # assignment, not out=, since tanh of a 0-d array is a numpy scalar
    y = np.tanh(0.5 * x)
    y *= 0.5
    y += 0.5
    return y


def relu(x: Tensor) -> Tensor:
    return _unary(x, np.maximum(x.data, 0.0), lambda: (x.data > 0).astype(np.float64))


def log(x: Tensor) -> Tensor:
    return _unary(x, np.log(x.data), lambda: 1.0 / x.data)


def concat_rows(*parts: Tensor) -> Tensor:
    """Concatenate [B x .] matrices along their columns."""
    if not parts or any(p.ndim != 2 or p.shape[0] != parts[0].shape[0] for p in parts):
        raise ValueError("concat_rows takes one or more matrices with a shared row count")
    out = Tensor(np.concatenate([p.data for p in parts], axis=-1))
    widths = [p.shape[-1] for p in parts]

    def rule(tape, g):
        offset = 0
        for p, w in zip(parts, widths):
            tape._acc(p, g[..., offset : offset + w])
            offset += w

    _record((out,), rule)
    return out


def take(x: Tensor, index) -> Tensor:
    """`x[index]` where the index holds, per leading axis, an int, a
    step-free `slice` or a 1-D integer array, alone or in a tuple (a row, a
    row range, a component, or one row per batch row).  Arrays follow
    numpy's advanced indexing and may repeat a position.

    Backward adds the gradient into x's accumulated one in place.
    """
    parts = index if isinstance(index, tuple) else (index,)
    if len(parts) > x.ndim:
        raise ValueError(f"index {index!r} has more axes than shape {x.shape}")
    for part, n in zip(parts, x.shape):
        if isinstance(part, slice):
            if part.indices(n) != (part.start, part.stop, 1) or part.start >= part.stop:
                raise ValueError(f"range {part!r} out of bounds for {x.shape}")
        elif isinstance(part, np.ndarray):
            if part.ndim != 1 or part.dtype.kind not in "iu" or not ((part >= 0) & (part < n)).all():
                raise ValueError(f"index array {part!r} out of bounds for {x.shape}")
        elif not 0 <= operator.index(part) < n:
            raise ValueError(f"index {part} out of bounds for {x.shape}")
    out = Tensor(x.data[index])  # a view for a basic index: ops never write into data
    _record((out,), lambda tape, g: tape._scatter(x, index, g))
    return out


def sum_all(x: Tensor) -> Tensor:
    """Sum of all components, as a scalar tensor."""
    out = Tensor(x.data.sum())
    _record((out,), lambda tape, g: tape._acc(x, np.full_like(x.data, float(g))))
    return out


def _softmax_rows(logits: np.ndarray, valid: np.ndarray, sequential: bool) -> np.ndarray:
    """Softmax over the `valid` positions of each matrix row, exact zeros
    (exp(-inf)) elsewhere.  The sums run over whole rows, zeros included,
    so a row gets the bits of the same row alone; a `sequential` sum adds
    one position after another (np.cumsum), so that masked positions
    appended to a row leave its bits unchanged too."""
    y = np.where(valid, logits, -np.inf)
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= np.cumsum(y, axis=-1)[..., -1:] if sequential else y.sum(axis=-1, keepdims=True)
    return y


def masked_softmax(logits: Tensor, mask) -> Tensor:
    """Softmax over each row of a [B x N] matrix, skipping the masked
    positions.

    The mask is a boolean matrix of the shape of `logits`, True where
    masked.  Masked positions are skipped in the exp-sum instead of added,
    so the output is exactly zero there and never NaN.  The mask is a
    constant: backward only flows into `logits`.  The exponentials add as
    a pairwise sum, a tenth of the cost of an in-order one over a 1000-id
    row.
    """
    ld, md = logits.data, np.asarray(mask)
    if ld.ndim != 2 or md.shape != ld.shape or md.dtype != bool:
        raise ValueError("masked_softmax expects a matrix and an equal-shape boolean mask")
    if md.all(axis=-1).any():
        raise ValueError("all positions masked: the mask covers the whole row")
    y = _softmax_rows(ld, ~md, sequential=False)
    out = Tensor(y)
    # y is zero at masked positions, so their logit grads stay zero
    _record((out,), lambda tape, g: tape._acc(logits, y * (g - (g * y).sum(axis=-1, keepdims=True))))
    return out


def additive_attention(keys: Tensor, query: Tensor, v: Tensor, enc: Tensor, valid_len) -> tuple[Tensor, Tensor]:
    """Additive attention as one op: returns (alpha [B x S], context
    [B x H]) for keys [B x S x A], one query row [B x A] per row, v [A],
    values enc [B x S x H] and one length per row in `valid_len`.

    alpha[b] is the softmax of `v . tanh(keys[b, s] + query[b])` over the
    positions s below row b's length, exact zeros past it, and context[b]
    is `sum_s alpha[b, s] enc[b, s]`.  Only the valid (row, position)
    pairs are gathered, added to and scored, so padding costs nothing and
    what keys holds past a row's length is never read.  numpy's own einsum
    loops and an in-order softmax sum (`_softmax_rows`) give a row the
    bits of its batch of one, also with zeros appended to its span.  The
    backward rule runs over the same pairs, with BLAS products: under a
    tape no row has to match a batch of one.
    """
    kd, qd, vd, ed = keys.data, query.data, v.data, enc.data
    lengths = np.asarray(valid_len)
    if (
        kd.ndim != 3
        or qd.shape != kd.shape[:1] + kd.shape[2:]
        or vd.shape != kd.shape[2:]
        or ed.ndim != 3
        or ed.shape[:2] != kd.shape[:2]
        or lengths.shape != kd.shape[:1]
    ):
        raise ValueError(
            f"attention shapes: keys {kd.shape}, query {qd.shape}, v {vd.shape}, values {ed.shape}, "
            f"lengths {lengths.shape}"
        )
    if not ((lengths >= 1) & (lengths <= kd.shape[1])).all():
        raise ValueError(f"valid_len {valid_len} out of range for {kd.shape[1]} positions")
    valid = np.arange(kd.shape[1]) < lengths[:, None]
    rows, positions = np.nonzero(valid)  # row-major: each row's positions in order
    pre = kd[rows, positions].astype(np.result_type(kd, qd), copy=False)
    pre += qd[rows]
    np.tanh(pre, out=pre)
    scores = np.full(valid.shape, -np.inf, dtype=pre.dtype)
    scores[valid] = np.einsum("pa,a->p", pre, vd)
    alpha = _softmax_rows(scores, valid, sequential=True)
    alpha_out, context_out = Tensor(alpha), Tensor(np.einsum("bs,bsh->bh", alpha, ed))

    def rule(tape, g_alpha, g_context):
        d_alpha = 0.0 if g_alpha is None else g_alpha
        if g_context is not None:
            d_alpha = d_alpha + (ed @ g_context[..., None])[..., 0]
            tape._acc(enc, alpha[..., None] * g_context[:, None, :])
        d_scores = (alpha * (d_alpha - (d_alpha * alpha).sum(axis=-1, keepdims=True)))[valid]
        tape._acc(v, pre.T @ d_scores)
        d_pre = d_scores[:, None] * vd
        d_pre *= 1.0 - pre * pre
        d_keys = np.zeros(kd.shape, dtype=d_pre.dtype)
        d_keys[valid] = d_pre
        tape._acc(keys, d_keys)
        tape._acc(query, np.add.reduceat(d_pre, np.cumsum(lengths) - lengths, axis=0))

    _record((alpha_out, context_out), rule)
    return alpha_out, context_out


def dropout(x: Tensor, p: float, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero units with probability p and scale the kept
    ones by 1/(1-p).  Identity (and no rng draw) at p = 0, as at inference."""
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    if p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout at p > 0 needs an rng")
    # the tape keeps the boolean draw, an eighth of a float64 mask
    kept = rng.random(x.shape) >= p
    out = Tensor(x.data * (kept / (1.0 - p)))
    _record((out,), lambda tape, g: tape._acc(x, g * (kept / (1.0 - p))))
    return out


def _lstm_gates(z: np.ndarray, c_prev: np.ndarray):
    """The cell update from fused pre-activations `z[B x 4H]`, gate
    columns [i | f | o | g]; returns (h, c, what the backward needs).
    Elementwise only, so each row gets the bits of the batch of one."""
    hidden = z.shape[-1] // 4
    ifo = _sigmoid(z[..., : 3 * hidden])
    g = np.tanh(z[..., 3 * hidden :])
    c = ifo[..., hidden : 2 * hidden] * c_prev + ifo[..., :hidden] * g
    tanh_c = np.tanh(c)
    return ifo[..., 2 * hidden :] * tanh_c, c, (ifo, g, c_prev, tanh_c)


def _lstm_gates_backward(dh: np.ndarray, dc: np.ndarray, saved):
    """Gradients of one cell update over [B x H] rows: (dz, dc_prev)."""
    ifo, g, c_prev, tanh_c = saved
    hidden = g.shape[-1]
    i, f, o = ifo[..., :hidden], ifo[..., hidden : 2 * hidden], ifo[..., 2 * hidden :]
    dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
    dz = np.empty(g.shape[:-1] + (4 * hidden,))
    dz[..., :hidden] = dc * g
    dz[..., hidden : 2 * hidden] = dc * c_prev
    dz[..., 2 * hidden : 3 * hidden] = dh * tanh_c
    dz[..., : 3 * hidden] *= ifo * (1.0 - ifo)
    dz[..., 3 * hidden :] = dc * i * (1.0 - g * g)
    return dz, dc * f


def _check_cell(w: Tensor, u: Tensor, b: Tensor, input_size: int) -> int:
    hidden = u.shape[0] if u.ndim == 2 else -1
    if w.shape != (input_size, 4 * hidden) or u.shape != (hidden, 4 * hidden) or b.shape != (4 * hidden,):
        raise ValueError(
            f"LSTM weights {w.shape}, {u.shape}, {b.shape} do not fit input size {input_size}"
        )
    return hidden


def lstm_cell(x: Tensor, h: Tensor, c: Tensor, w: Tensor, u: Tensor, b: Tensor) -> tuple[Tensor, Tensor]:
    """One forget-gate LSTM step (no peepholes) as one op: returns (h, c).

    `z = x @ w + h @ u + b` holds the pre-activations of the gates
    [i | f | o | g]; c' = f*c + i*g and h' = o*tanh(c').  x, h and c are
    [B x .] matrices with one row per sequence.
    """
    hidden = _check_cell(w, u, b, x.shape[-1] if x.ndim == 2 else -1)
    if h.shape != (x.shape[0], hidden) or c.shape != h.shape:
        raise ValueError(f"LSTM state shapes {h.shape}, {c.shape} do not fit hidden size {hidden}")
    xd, hd = x.data, h.data
    h_new, c_new, saved = _lstm_gates(_product(xd, w.data) + _product(hd, u.data) + b.data, c.data)
    h_out, c_out = Tensor(h_new), Tensor(c_new)

    def rule(tape, dh, dc):
        dz, dc_prev = _lstm_gates_backward(
            np.zeros(h.shape) if dh is None else dh, np.zeros(h.shape) if dc is None else dc, saved
        )
        tape._acc(x, dz @ w.data.T)
        tape._acc(h, dz @ u.data.T)
        tape._acc(c, dc_prev)
        tape._outer(w, xd, dz)
        tape._outer(u, hd, dz)
        tape._acc(b, dz.sum(axis=0))

    _record((h_out, c_out), rule)
    return h_out, c_out


Cell = tuple[Tensor, Tensor, Tensor]  # fused (w, u, b)


def bilstm(x: Tensor | np.ndarray, valid_len, fwd: Cell, bwd: Cell) -> Tensor:
    """Bidirectional LSTM as one op over a batch x [B x T x in] with one
    length per row in `valid_len`.  x is a constant, a Tensor as much as a
    plain array: backward computes the weight gradients only.

    Position t of the [B x T x 2H] result is the left-to-right state at t
    next to the right-to-left state at t.  Both directions start from zero
    state and cell; the right-to-left one starts at each row's own last
    token.  Positions from a row's length on get exactly zero output, and
    what x holds there is never read.

    The rows run packed: sorted by length, longest first (a stable sort),
    with the valid positions laid out time-major, so that the rows still
    running at position t are the first n_t of that order.  Each
    direction projects every valid position in one product `x @ w + b`,
    then steps over row prefixes: the left-to-right pass drops rows as
    they end, the right-to-left one takes rows on at their last token.
    The backward rule walks the same prefixes in reverse, and `dW`, `dU`
    and `db` are each one product or sum over the valid positions.  The
    result is scattered back to the caller's row order.  With no tape
    each row of the result has the bits of its batch of one (`_product`
    and `_row_product`), so a decode group encodes as one batch.
    """
    lengths = np.asarray(valid_len)
    x_data = (x if isinstance(x, Tensor) else Tensor(x)).data
    if x_data.ndim != 3 or lengths.shape != x_data.shape[:1]:
        raise ValueError(f"valid_len {valid_len} does not fit input of shape {x_data.shape}")
    if not ((lengths >= 1) & (lengths <= x_data.shape[-2])).all():
        empty = "; a length below 1 is an all-PAD source" if (lengths < 1).any() else ""
        raise ValueError(f"valid_len {valid_len} out of range for input of shape {x_data.shape}{empty}")
    hidden = _check_cell(*fwd, x_data.shape[-1])
    if _check_cell(*bwd, x_data.shape[-1]) != hidden:
        raise ValueError("encoder directions must share a hidden size")
    order = np.argsort(-lengths, kind="stable")
    span = int(lengths[order[0]])
    # packed position p is row order[ranks[p]] at position times[p]; the
    # rows running at a position are a prefix of the order
    times, ranks = np.nonzero(lengths[order] > np.arange(span)[:, None])
    rows = order[ranks]
    x_packed = x_data[rows, times]
    edges = np.searchsorted(times, np.arange(span + 1)).tolist()
    blocks = [(hi - lo, slice(lo, hi)) for lo, hi in zip(edges, edges[1:])]  # (rows, packed range) per position
    dtype = np.result_type(x_data, *(p.data for p in (*fwd, *bwd)))
    out_data = np.zeros(x_data.shape[:-1] + (2 * hidden,), dtype=dtype)
    directions = ((fwd, range(span), slice(0, hidden)), (bwd, range(span - 1, -1, -1), slice(hidden, 2 * hidden)))
    runs = []
    for (w, u, b), steps, cols in directions:
        gates_in = _product(x_packed, w.data) + b.data
        h, c = np.zeros((2, len(lengths), hidden), dtype=dtype)
        previous, states = np.empty((2, len(x_packed), hidden), dtype=dtype)
        saved = [None] * span
        for t in steps:
            n, block = blocks[t]
            previous[block] = h[:n]
            # c is overwritten in place below, so the saved c_prev is a copy
            states[block], c_new, saved[t] = _lstm_gates(gates_in[block] + _row_product(h[:n], u.data), c[:n].copy())
            h[:n], c[:n] = states[block], c_new
        out_data[rows, times, cols] = states
        runs.append((previous, saved))
    out = Tensor(out_data)

    def rule(tape, g):
        for ((w, u, b), steps, cols), (previous, saved) in zip(directions, runs):
            g_packed = g[rows, times, cols]
            dgates = np.empty((len(x_packed), 4 * hidden))
            dh, dc = np.zeros((2, len(lengths), hidden))
            for t in reversed(steps):
                n, block = blocks[t]
                dgates[block], dc[:n] = _lstm_gates_backward(g_packed[block] + dh[:n], dc[:n], saved[t])
                dh[:n] = dgates[block] @ u.data.T
            tape._acc(w, x_packed.T @ dgates)
            tape._acc(u, previous.T @ dgates)
            tape._acc(b, dgates.sum(axis=0))

    _record((out,), rule)
    return out
