"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything runs in double precision at desk scale: the point is gradients
that survive a finite-difference audit.  Ops record their backward rule on
the thread's active tape (see `Tape`); with no active tape they are plain
numpy computations.

At these sizes the cost is the number of Python-level ops, so the LSTM is
fused.  A cell stores its four gates [i | f | o | g] side by side as
`w[in x 4H]`, `u[H x 4H]` and `b[4H]`.  `lstm_cell` is one decoder step as
one op.  `bilstm` is a whole bidirectional encoder pass as one op: each
direction projects its input in one product `x @ w + b`, then runs the
recurrence, and its backward is hand-written backpropagation through time
(`dW = X^T dG`, `dU = H_prev^T dG`, `db = sum dG`, plus `dx`).

Two kinds of gradient skip the per-use allocation of a weight-sized
array.  A vector-matrix product into a *leaf* matrix (one no op on the
tape produced, such as a parameter) defers its `(x, g)` rows;
`backward` adds `stack(xs)^T @ stack(gs)` once at the end of the sweep.
`take` scatters its gradient into the accumulated one in place.

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
    "add",
    "mul",
    "scale",
    "tanh",
    "sigmoid",
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
        self._produced: set[int] = set()
        self._grads: dict[int, np.ndarray] = {}
        self._owned: set[int] = set()  # gradients no other name refers to
        self._deferred: dict[int, tuple[Tensor, list, list]] = {}

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
        key = id(t)
        old = self._grads.get(key)
        if old is None:
            self._grads[key] = g
        else:
            self._grads[key] = old + g
            self._owned.add(key)

    def _acc_outer(self, t: Tensor, x: np.ndarray, g: np.ndarray) -> None:
        """Add outer(x, g) to the gradient of matrix `t`; for a leaf, defer
        it to one product over all its rows at the end of the sweep."""
        key = id(t)
        if key in self._produced:
            self._acc(t, np.outer(x, g))
            return
        entry = self._deferred.get(key)
        if entry is None:
            entry = self._deferred[key] = (t, [], [])
        entry[1].append(x)
        entry[2].append(g)

    def _scatter(self, t: Tensor, index, g: np.ndarray) -> None:
        """Add `g` into t's gradient at `index`, in place once the tape owns it."""
        key = id(t)
        buf = self._grads.get(key)
        if key not in self._owned:
            buf = np.zeros_like(t.data) if buf is None else buf.copy()
            self._grads[key] = buf
            self._owned.add(key)
        buf[index] += g


def _record(outs: tuple[Tensor, ...], rule: Callable) -> None:
    tape = _active_tape()
    if tape is not None:
        tape._produced.update(id(o) for o in outs)
        tape._records.append((outs, rule))


def backward(tape: Tape, loss: Tensor) -> None:
    """Run the reverse sweep, accumulating d(loss)/d(tensor) on the tape.

    Gradients add up across repeated uses of the same tensor.  Read them
    back with `tape.gradient(t)`.
    """
    if loss.ndim != 0:
        raise ValueError("loss must be a scalar tensor")
    if id(loss) not in tape._produced:
        raise ValueError("loss was not produced on this tape")
    tape._grads = {id(loss): np.ones((), dtype=np.float64)}
    tape._owned = set()
    tape._deferred = {}
    grads = tape._grads
    for outs, rule in reversed(tape._records):
        gs = [grads.get(id(o)) for o in outs]
        if any(g is not None for g in gs):
            rule(tape, *gs)
    for t, xs, gs in tape._deferred.values():
        tape._acc(t, np.stack(xs).T @ np.stack(gs))
    tape._deferred = {}


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product for 1-D/2-D operands (vector cases follow numpy)."""
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise ValueError("matmul expects 1-D or 2-D operands")
    if ad.shape[-1] != bd.shape[0]:
        raise ValueError(f"matmul shape mismatch: {ad.shape} @ {bd.shape}")
    out = Tensor(ad @ bd)

    def rule(tape, g):
        if ad.ndim == 2 and bd.ndim == 2:
            tape._acc(a, g @ bd.T)
            tape._acc(b, ad.T @ g)
        elif ad.ndim == 2:
            tape._acc(a, np.outer(g, bd))
            tape._acc(b, ad.T @ g)
        elif bd.ndim == 2:
            tape._acc(a, bd @ g)
            tape._acc_outer(b, ad, g)
        else:
            tape._acc(a, g * bd)
            tape._acc(b, g * ad)

    _record((out,), rule)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also broadcasts a vector `b` over the rows of `a`."""
    ad, bd = a.data, b.data
    broadcast = ad.shape != bd.shape
    if broadcast and not (
        ad.ndim == 2 and bd.ndim == 1 and ad.shape[1] == bd.shape[0]
    ):
        raise ValueError(f"add shape mismatch: {ad.shape} + {bd.shape}")
    out = Tensor(ad + bd)

    def rule(tape, g):
        tape._acc(a, g)
        tape._acc(b, g.sum(axis=0) if broadcast else g)

    _record((out,), rule)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        raise ValueError(f"mul shape mismatch: {ad.shape} * {bd.shape}")
    out = Tensor(ad * bd)

    def rule(tape, g):
        tape._acc(a, g * bd)
        tape._acc(b, g * ad)

    _record((out,), rule)
    return out


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply by a plain (non-differentiated) scalar."""
    factor = float(factor)
    out = Tensor(x.data * factor)
    _record((out,), lambda tape, g: tape._acc(x, g * factor))
    return out


def _unary(x: Tensor, value: np.ndarray, local: Callable[[], np.ndarray]) -> Tensor:
    # the local gradient is only worth computing when a tape records the op
    out = Tensor(value)
    if _active_tape() is not None:
        local_grad = local()
        _record((out,), lambda tape, g: tape._acc(x, g * local_grad))
    return out


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    return _unary(x, y, lambda: 1.0 - y * y)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of a nonpositive argument only, so no overflow on either branch
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid(x.data)
    return _unary(x, y, lambda: y * (1.0 - y))


def relu(x: Tensor) -> Tensor:
    return _unary(x, np.maximum(x.data, 0.0), lambda: (x.data > 0).astype(np.float64))


def log(x: Tensor) -> Tensor:
    return _unary(x, np.log(x.data), lambda: 1.0 / x.data)


def concat_rows(*parts: Tensor) -> Tensor:
    """Concatenate along the last axis (vectors end to end, matrices by column)."""
    if not parts:
        raise ValueError("concat_rows needs at least one operand")
    ndim = parts[0].ndim
    if ndim not in (1, 2) or any(p.ndim != ndim for p in parts):
        raise ValueError("concat_rows operands must all be 1-D or all 2-D")
    if ndim == 2 and len({p.shape[0] for p in parts}) != 1:
        raise ValueError("concat_rows matrices must share their row count")
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
    """`x[index]` for a basic index: an int or a step-free `slice` per
    leading axis, alone or in a tuple (a row, a row range, a component).

    Backward adds the gradient into x's accumulated one in place.
    """
    parts = index if isinstance(index, tuple) else (index,)
    if len(parts) > x.ndim:
        raise ValueError(f"index {index!r} has more axes than shape {x.shape}")
    for part, n in zip(parts, x.shape):
        if isinstance(part, slice):
            if part.indices(n) != (part.start, part.stop, 1) or part.start >= part.stop:
                raise ValueError(f"range {part!r} out of bounds for {x.shape}")
        elif not 0 <= operator.index(part) < n:
            raise ValueError(f"index {part} out of bounds for {x.shape}")
    out = Tensor(x.data[index].copy())
    _record((out,), lambda tape, g: tape._scatter(x, index, g))
    return out


def sum_all(x: Tensor) -> Tensor:
    """Sum of all components, as a scalar tensor."""
    out = Tensor(x.data.sum())
    _record((out,), lambda tape, g: tape._acc(x, np.full_like(x.data, float(g))))
    return out


def _softmax(logits: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Softmax over the `valid` positions of a vector, exact zeros elsewhere."""
    shifted = np.exp(logits[valid] - logits[valid].max())
    y = np.zeros_like(logits)
    y[valid] = shifted / shifted.sum()
    return y


def masked_softmax(logits: Tensor, mask) -> Tensor:
    """Softmax of `logits + mask` where mask entries are 0 or -inf.

    Masked positions are skipped in the exp-sum instead of added, so the
    output is exactly zero there and never NaN.  The mask is a constant:
    backward only flows into `logits`.
    """
    md = mask.data if isinstance(mask, Tensor) else np.asarray(mask, dtype=np.float64)
    ld = logits.data
    if ld.ndim != 1 or md.shape != ld.shape:
        raise ValueError("masked_softmax expects a vector and an equal-shape mask")
    valid = md == 0.0
    if not np.all(valid | np.isneginf(md)):
        raise ValueError("mask entries must be 0 or -inf")
    if not valid.any():
        raise ValueError("all positions masked")
    y = _softmax(ld, valid)
    out = Tensor(y)
    # y is zero at masked positions, so their logit grads stay zero
    _record((out,), lambda tape, g: tape._acc(logits, y * (g - float(g @ y))))
    return out


def dropout(x: Tensor, p: float, rng: np.random.Generator | None = None, training: bool = False) -> Tensor:
    """Inverted dropout: zero units with probability p and scale the kept
    ones by 1/(1-p).  Identity (and no rng draw) outside training."""
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    keep = (rng.random(x.shape) >= p) / (1.0 - p)
    out = Tensor(x.data * keep)
    _record((out,), lambda tape, g: tape._acc(x, g * keep))
    return out


def _lstm_gates(z: np.ndarray, c_prev: np.ndarray):
    """The cell update from fused pre-activations `z[..., 4H]`, gate
    columns [i | f | o | g]; returns (h, c, what the backward needs).
    Elementwise only, so each row of a [B x 4H] batch gets the bits a
    single vector would."""
    hidden = z.shape[-1] // 4
    ifo = _sigmoid(z[..., : 3 * hidden])
    g = np.tanh(z[..., 3 * hidden :])
    c = ifo[..., hidden : 2 * hidden] * c_prev + ifo[..., :hidden] * g
    tanh_c = np.tanh(c)
    return ifo[..., 2 * hidden :] * tanh_c, c, (ifo, g, c_prev, tanh_c)


def _lstm_gates_backward(dh: np.ndarray, dc: np.ndarray, saved):
    """Gradients of one cell update for vectors: (dz, dc_prev)."""
    ifo, g, c_prev, tanh_c = saved
    hidden = g.shape[0]
    i, f, o = ifo[:hidden], ifo[hidden : 2 * hidden], ifo[2 * hidden :]
    dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
    dz = np.empty(4 * hidden)
    dz[:hidden] = dc * g
    dz[hidden : 2 * hidden] = dc * c_prev
    dz[2 * hidden : 3 * hidden] = dh * tanh_c
    dz[: 3 * hidden] *= ifo * (1.0 - ifo)
    dz[3 * hidden :] = dc * i * (1.0 - g * g)
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
    [i | f | o | g]; c' = f*c + i*g and h' = o*tanh(c').
    """
    hidden = _check_cell(w, u, b, x.shape[0] if x.ndim == 1 else -1)
    if h.shape != (hidden,) or c.shape != (hidden,):
        raise ValueError(f"LSTM state shapes {h.shape}, {c.shape} do not fit hidden size {hidden}")
    xd, hd = x.data, h.data
    h_new, c_new, saved = _lstm_gates(xd @ w.data + hd @ u.data + b.data, c.data)
    h_out, c_out = Tensor(h_new), Tensor(c_new)

    def rule(tape, dh, dc):
        dz, dc_prev = _lstm_gates_backward(
            np.zeros(hidden) if dh is None else dh, np.zeros(hidden) if dc is None else dc, saved
        )
        tape._acc(x, w.data @ dz)
        tape._acc(h, u.data @ dz)
        tape._acc(c, dc_prev)
        tape._acc_outer(w, xd, dz)
        tape._acc_outer(u, hd, dz)
        tape._acc(b, dz)

    _record((h_out, c_out), rule)
    return h_out, c_out


Cell = tuple[Tensor, Tensor, Tensor]  # fused (w, u, b)


def bilstm(x: Tensor, valid_len: int, fwd: Cell, bwd: Cell) -> Tensor:
    """Bidirectional LSTM over the first `valid_len` rows of x [T x in], as
    one op.  Row t of the [T x 2H] result is the left-to-right state at t
    next to the right-to-left state at t; rows from `valid_len` on are
    zeros.  Both directions start from zero state and cell.
    """
    if x.ndim != 2 or not 1 <= valid_len <= x.shape[0]:
        raise ValueError(f"valid_len {valid_len} out of range for input of shape {x.shape}")
    hidden = _check_cell(*fwd, x.shape[1])
    if _check_cell(*bwd, x.shape[1]) != hidden:
        raise ValueError("encoder directions must share a hidden size")
    xd = x.data[:valid_len]
    runs = []
    for (w, u, b), steps in ((fwd, range(valid_len)), (bwd, range(valid_len - 1, -1, -1))):
        gates_in = xd @ w.data + b.data
        h = np.zeros(hidden, dtype=gates_in.dtype)
        c = h
        states = np.empty((valid_len, hidden), dtype=gates_in.dtype)
        previous = np.empty_like(states)
        saved = [None] * valid_len
        for t in steps:
            previous[t] = h
            h, c, saved[t] = _lstm_gates(gates_in[t] + h @ u.data, c)
            states[t] = h
        runs.append((states, previous, saved))
    out_data = np.zeros((x.shape[0], 2 * hidden), dtype=np.result_type(runs[0][0], runs[1][0]))
    out_data[:valid_len, :hidden] = runs[0][0]
    out_data[:valid_len, hidden:] = runs[1][0]
    out = Tensor(out_data)

    def rule(tape, g):
        dx = np.zeros_like(x.data)
        for (w, u, b), (_, previous, saved), steps, cols in (
            (fwd, runs[0], range(valid_len - 1, -1, -1), slice(0, hidden)),
            (bwd, runs[1], range(valid_len), slice(hidden, 2 * hidden)),
        ):
            dh_out = g[:valid_len, cols]
            dgates = np.empty((valid_len, 4 * hidden))
            dh, dc = np.zeros(hidden), np.zeros(hidden)
            for t in steps:
                dgates[t], dc = _lstm_gates_backward(dh_out[t] + dh, dc, saved[t])
                dh = u.data @ dgates[t]
            tape._acc(w, xd.T @ dgates)
            tape._acc(u, previous.T @ dgates)
            tape._acc(b, dgates.sum(axis=0))
            dx[:valid_len] += dgates @ w.data.T
        tape._acc(x, dx)

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
