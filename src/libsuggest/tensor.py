"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything runs in double precision at desk scale: the point is gradients
that survive a finite-difference audit.  Ops record their backward rule on
the thread's active tape (see `Tape`); with no active tape they are plain
numpy computations.

At these sizes the cost is the number of Python-level ops, so the ops take
a batch and the LSTM is fused.  `matmul`, `add` and `take` treat leading
axes as rows; `concat_rows`, `masked_softmax` and `lstm_cell` take [B x .]
matrices, one row per sequence, and `bilstm` takes [B x T x .] sequences.
One sequence is a batch of one.  A cell stores its four gates
[i | f | o | g] side by side as `w[in x 4H]`, `u[H x 4H]` and `b[4H]`.
`lstm_cell` is one decoder step as one op.  `bilstm` is a whole
bidirectional encoder pass as one op: each direction projects its input in
one product `x @ w + b`, then runs the recurrence over [B x 4H] rows, and
its backward is hand-written backpropagation through time
(`dW = X^T dG`, `dU = H_prev^T dG`, `db = sum dG`).  Its input, the
frozen word embeddings, is a constant and gets no gradient.

With no tape, `matmul` and `lstm_cell` multiply as stacked rows
(`_product`) and a softmax sums whole rows, so a row of a batch, such as
a beam hypothesis, gets the bits of the batch of one.  `einsum` (numpy's
own loops) and a `sequential` softmax (an in-order sum) keep them also
when zeros pad the axis summed over, with or without a tape: attention
sums over source positions with them.

Gradients accumulate in place once the tape owns the array it holds for a
tensor, so repeated uses of a weight add into one buffer; `take` scatters
its gradient the same way.

The one exception to float64 is `finite_difference_check`, whose probes
evaluate the forward pass in `np.longdouble` (a 64-bit mantissa on x86-64
Linux) so that the central differences resolve gradients far below what
float64 rounding of the loss allows.  Where `np.longdouble` is no wider
than float64, the probes run at float64 resolution.
"""

from __future__ import annotations

import operator
import threading
from collections.abc import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "matmul",
    "einsum",
    "add",
    "scale",
    "tanh",
    "relu",
    "log",
    "concat_rows",
    "take",
    "sum_all",
    "masked_softmax",
    "dropout",
    "lstm_cell",
    "bilstm",
    "finite_difference_check",
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
    One tape serves one forward/backward pass on one thread; distinct
    tapes may run on distinct threads concurrently.
    """

    def __init__(self):
        # (outputs, rule): rule(tape, *output gradients), None where an
        # output got no gradient
        self._records: list[tuple[tuple[Tensor, ...], Callable]] = []
        self._grads: dict[int, np.ndarray] = {}
        self._owned: set[int] = set()  # gradients no other name refers to

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
    it needs.
    """
    if loss.ndim != 0:
        raise ValueError("loss must be a scalar tensor")
    tape._grads = {id(loss): np.ones((), dtype=np.float64)}
    tape._owned = set()
    grads = tape._grads
    for outs, rule in reversed(tape._records):
        gs = [grads.pop(id(o), None) for o in outs]
        if any(g is not None for g in gs):
            rule(tape, *gs)
    # the record that produced the loss claims its seed gradient; a loss
    # from elsewhere leaves it, and then no rule ran
    if id(loss) in grads:
        raise ValueError("loss was not produced on this tape")


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`a @ b` as stacked [1 x K] rows, each the BLAS call of the one-row
    `a[i] @ b` whatever the row count; but a matrix `b` under a tape gets a
    GEMM, which sums in another order yet costs 2-5x less, for training."""
    if b.ndim == 2 and _active_tape() is not None:
        return a @ b
    return (a[..., None, :] @ b)[..., 0, :]


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Contract the last axis of `a` with the first axis of a matrix `b`:
    the leading axes of `a` are rows, [.. x K] @ [K x N] is [.. x N]."""
    ad, bd = a.data, b.data
    if ad.ndim < 1 or bd.ndim != 2 or ad.shape[-1] != bd.shape[0]:
        raise ValueError(f"matmul shape mismatch: {ad.shape} @ {bd.shape}")
    out = Tensor(_product(ad, bd))

    def rule(tape, g):
        tape._acc(a, g @ bd.T)
        tape._acc(b, ad.reshape(-1, bd.shape[0]).T @ g.reshape(-1, bd.shape[1]))

    _record((out,), rule)
    return out


def einsum(subscripts: str, a: Tensor, b: Tensor) -> Tensor:
    """`np.einsum` of two operands with explicit subscripts, such as
    "bs,bsh->bh", in which no index repeats within an operand and every
    index of an operand also appears in the other one or in the output.

    Without `optimize` numpy runs its own loops, not BLAS: an output
    entry depends only on its own terms, whatever the sizes of the other
    axes, and the terms along a summed axis other than the innermost are
    added in index order, so zeros appended to that axis leave the bits
    unchanged.  Attention sums over source positions this way.
    """
    inputs, _, out_sub = subscripts.partition("->")
    a_sub, _, b_sub = inputs.partition(",")
    subs = (a_sub, b_sub, out_sub)
    if (
        not all(sub.isalpha() and len(set(sub)) == len(sub) for sub in subs)
        or (len(a_sub), len(b_sub)) != (a.ndim, b.ndim)
        or not set(a_sub) <= set(b_sub + out_sub)
        or not set(b_sub) <= set(a_sub + out_sub)
    ):
        raise ValueError(f"einsum subscripts {subscripts!r} do not fit operands {a.shape} and {b.shape}")
    out = Tensor(np.einsum(subscripts, a.data, b.data))

    def rule(tape, g):
        tape._acc(a, np.einsum(f"{out_sub},{b_sub}->{a_sub}", g, b.data))
        tape._acc(b, np.einsum(f"{out_sub},{a_sub}->{b_sub}", g, a.data))

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
    # exp of a nonpositive argument only, so no overflow on either branch
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


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


def masked_softmax(logits: Tensor, mask, sequential: bool = False) -> Tensor:
    """Softmax over each row of a [B x N] matrix, skipping the masked
    positions.

    The mask is a boolean matrix of the shape of `logits`, True where
    masked.  Masked positions are skipped in the exp-sum instead of added,
    so the output is exactly zero there and never NaN.  The mask is a
    constant: backward only flows into `logits`.  `sequential` sums the
    exponentials in position order, which attention needs over zero-padded
    spans; the default pairwise sum costs a tenth as much over a 1000-id
    row.
    """
    ld, md = logits.data, np.asarray(mask)
    if ld.ndim != 2 or md.shape != ld.shape or md.dtype != bool:
        raise ValueError("masked_softmax expects a matrix and an equal-shape boolean mask")
    if md.all(axis=-1).any():
        raise ValueError("all positions masked")
    y = _softmax_rows(ld, ~md, sequential)
    out = Tensor(y)
    # y is zero at masked positions, so their logit grads stay zero
    _record((out,), lambda tape, g: tape._acc(logits, y * (g - (g * y).sum(axis=-1, keepdims=True))))
    return out


def dropout(x: Tensor, p: float, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero units with probability p and scale the kept
    ones by 1/(1-p).  Identity (and no rng draw) at p = 0, as at inference."""
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    if p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout at p > 0 needs an rng")
    keep = (rng.random(x.shape) >= p) / (1.0 - p)
    out = Tensor(x.data * keep)
    _record((out,), lambda tape, g: tape._acc(x, g * keep))
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
        tape._acc(w, xd.T @ dz)
        tape._acc(u, hd.T @ dz)
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
    what x holds there reaches neither the output nor a gradient.  The
    recurrence runs over the batch's longest row, as [B x 4H] products.
    """
    lengths = np.asarray(valid_len)
    x_data = (x if isinstance(x, Tensor) else Tensor(x)).data
    if x_data.ndim != 3 or lengths.shape != x_data.shape[:1]:
        raise ValueError(f"valid_len {valid_len} does not fit input of shape {x_data.shape}")
    if not ((lengths >= 1) & (lengths <= x_data.shape[-2])).all():
        raise ValueError(f"valid_len {valid_len} out of range for input of shape {x_data.shape}")
    hidden = _check_cell(*fwd, x_data.shape[-1])
    if _check_cell(*bwd, x_data.shape[-1]) != hidden:
        raise ValueError("encoder directions must share a hidden size")
    rows, span, n_in = len(lengths), int(lengths.max()), x_data.shape[-1]
    # a position past a row's length keeps that row's state at zero, and
    # its input is read as zeros, so that what x holds there (NaN, say)
    # reaches no weight gradient
    inside = np.arange(span) < lengths[:, None]
    ragged = ~inside.all(axis=0)
    x_flat = np.where(inside[..., None], x_data[:, :span], 0.0).reshape(-1, n_in)
    out_data = np.zeros(
        (rows, x_data.shape[-2], 2 * hidden), dtype=np.result_type(x_data, *(p.data for p in (*fwd, *bwd)))
    )
    directions = ((fwd, range(span), slice(0, hidden)), (bwd, range(span - 1, -1, -1), slice(hidden, 2 * hidden)))
    runs = []
    for (w, u, b), steps, cols in directions:
        gates_in = (x_flat @ w.data + b.data).reshape(rows, span, 4 * hidden)
        h = np.zeros((rows, hidden), dtype=gates_in.dtype)
        c = h
        previous = np.empty((rows, span, hidden), dtype=gates_in.dtype)
        saved = [None] * span
        for t in steps:
            previous[:, t] = h
            h, c, saved[t] = _lstm_gates(gates_in[:, t] + h @ u.data, c)
            if ragged[t]:
                h, c = np.where(inside[:, t, None], h, 0.0), np.where(inside[:, t, None], c, 0.0)
            out_data[:, t, cols] = h
        runs.append((previous, saved))
    out = Tensor(out_data)

    def rule(tape, g):
        for ((w, u, b), steps, cols), (previous, saved) in zip(directions, runs):
            dgates = np.empty((rows, span, 4 * hidden))
            dh, dc = np.zeros((rows, hidden)), np.zeros((rows, hidden))
            for t in reversed(steps):
                dh = g[:, t, cols] + dh
                if ragged[t]:
                    dh, dc = np.where(inside[:, t, None], dh, 0.0), np.where(inside[:, t, None], dc, 0.0)
                dgates[:, t], dc = _lstm_gates_backward(dh, dc, saved[t])
                dh = dgates[:, t] @ u.data.T
            dg_flat = dgates.reshape(-1, 4 * hidden)
            tape._acc(w, x_flat.T @ dg_flat)
            tape._acc(u, previous.reshape(-1, hidden).T @ dg_flat)
            tape._acc(b, dg_flat.sum(axis=0))

    _record((out,), rule)
    return out


def finite_difference_check(
    f: Callable[[], Tensor],
    params: Mapping[str, Tensor] | Sequence[Tensor],
    epsilon: float = 1e-4,
    max_coords_per_tensor: int = 32,
    rng: np.random.Generator | None = None,
) -> float:
    """Audit tape gradients of `f` against central finite differences.

    `f` must read exactly the given parameter tensors, be deterministic,
    and return a scalar tensor.  Large tensors are probed on a random
    subsample of coordinates (at least min(size, max_coords_per_tensor)).
    Returns the worst relative error, denominated by
    max(|analytic|, |numeric|, 1e-8).

    The analytic gradients come from the float64 tape.  The probes run `f`
    with the parameters converted to `np.longdouble`, so the rounding noise
    of each difference is ulp(|loss|)/(2*epsilon) in extended precision:
    about 1e-15 for |loss| ~ 4 and epsilon 1e-4 with a 64-bit mantissa,
    against about 3e-12 in float64, which the 1e-8 floor turns into a
    relative error of 3e-4 for a perfect gradient.  Where `np.longdouble`
    is no wider than float64, that float64 limit applies again.  Every
    parameter gets its original array object back, also when `f` raises.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    tensors = list(params.values()) if isinstance(params, Mapping) else list(params)
    if f().item() != f().item():
        raise ValueError("f is not deterministic (two evaluations differ)")

    with Tape() as tape:
        loss = f()
    backward(tape, loss)

    if rng is None:
        rng = np.random.default_rng(0)
    originals = [t.data for t in tensors]
    worst = 0.0
    try:
        for t in tensors:
            t.data = t.data.astype(np.longdouble)
        for t in tensors:
            analytic = tape.gradient(t)
            aflat = (
                np.zeros(t.size) if analytic is None else np.asarray(analytic).reshape(-1)
            )
            n = t.size
            if n <= max_coords_per_tensor:
                indices = range(n)
            else:
                indices = np.sort(rng.choice(n, size=max_coords_per_tensor, replace=False))
            for i in indices:
                i = int(i)
                original = t.data.flat[i]
                t.data.flat[i] = original + epsilon
                f_plus = f().data
                t.data.flat[i] = original - epsilon
                f_minus = f().data
                t.data.flat[i] = original
                numeric = float((f_plus - f_minus) / (2.0 * epsilon))
                a = float(aflat[i])
                err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
                if err > worst:
                    worst = err
    finally:
        for t, data in zip(tensors, originals):
            t.data = data
    return worst
