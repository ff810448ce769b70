"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything runs in double precision at desk scale: the point is gradients
that survive a finite-difference audit, not throughput.  Ops record their
backward rule on the thread's active tape (see `Tape`); with no active
tape they are plain numpy computations.

The one exception is `finite_difference_check`, whose probes evaluate the
forward pass in `np.longdouble` (a 64-bit mantissa on x86-64 Linux) so that
the central differences resolve gradients far below what float64 rounding
of the loss allows.  Where `np.longdouble` is no wider than float64, the
probes run at float64 resolution.
"""

from __future__ import annotations

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
    "stack_rows",
    "rows",
    "row",
    "slice1d",
    "pick",
    "sum_all",
    "masked_softmax",
    "dropout",
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
        self._records: list[Callable[[], None]] = []
        self._produced: set[int] = set()
        self._grads: dict[int, np.ndarray] = {}

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
    for pull in reversed(tape._records):
        pull()


def _acc(grads: dict[int, np.ndarray], t: Tensor, g: np.ndarray) -> None:
    key = id(t)
    if key in grads:
        grads[key] = grads[key] + g
    else:
        grads[key] = g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product for 1-D/2-D operands (vector cases follow numpy)."""
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise ValueError("matmul expects 1-D or 2-D operands")
    if ad.shape[-1] != bd.shape[0]:
        raise ValueError(f"matmul shape mismatch: {ad.shape} @ {bd.shape}")
    out = Tensor(ad @ bd)
    tape = _active_tape()
    if tape is not None:

        def pull():
            g = tape._grads.get(id(out))
            if g is None:
                return
            if ad.ndim == 2 and bd.ndim == 2:
                _acc(tape._grads, a, g @ bd.T)
                _acc(tape._grads, b, ad.T @ g)
            elif ad.ndim == 2 and bd.ndim == 1:
                _acc(tape._grads, a, np.outer(g, bd))
                _acc(tape._grads, b, ad.T @ g)
            elif ad.ndim == 1 and bd.ndim == 2:
                _acc(tape._grads, a, bd @ g)
                _acc(tape._grads, b, np.outer(ad, g))
            else:
                _acc(tape._grads, a, g * bd)
                _acc(tape._grads, b, g * ad)

        tape._produced.add(id(out))
        tape._records.append(pull)
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
    tape = _active_tape()
    if tape is not None:

        def pull():
            g = tape._grads.get(id(out))
            if g is None:
                return
            _acc(tape._grads, a, g)
            _acc(tape._grads, b, g.sum(axis=0) if broadcast else g)

        tape._produced.add(id(out))
        tape._records.append(pull)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        raise ValueError(f"mul shape mismatch: {ad.shape} * {bd.shape}")
    out = Tensor(ad * bd)
    tape = _active_tape()
    if tape is not None:

        def pull():
            g = tape._grads.get(id(out))
            if g is None:
                return
            _acc(tape._grads, a, g * bd)
            _acc(tape._grads, b, g * ad)

        tape._produced.add(id(out))
        tape._records.append(pull)
    return out


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply by a plain (non-differentiated) scalar."""
    factor = float(factor)
    out = Tensor(x.data * factor)
    tape = _active_tape()
    if tape is not None:

        def pull():
            g = tape._grads.get(id(out))
            if g is not None:
                _acc(tape._grads, x, g * factor)

        tape._produced.add(id(out))
        tape._records.append(pull)
    return out


def _unary(x: Tensor, value: np.ndarray, local: Callable[[], np.ndarray]) -> Tensor:
    # the local gradient is only worth computing when a tape records the op
    out = Tensor(value)
    tape = _active_tape()
    if tape is not None:
        local_grad = local()

        def pull():
            g = tape._grads.get(id(out))
            if g is not None:
                _acc(tape._grads, x, g * local_grad)

        tape._produced.add(id(out))
        tape._records.append(pull)
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
    tape = _active_tape()
    if tape is not None:
        widths = [p.shape[-1] for p in parts]

        def pull():
            g = tape._grads.get(id(out))
            if g is None:
                return
            offset = 0
            for p, w in zip(parts, widths):
                _acc(tape._grads, p, g[..., offset : offset + w])
                offset += w

        tape._produced.add(id(out))
        tape._records.append(pull)
    return out


def stack_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack equal-length vectors into a matrix, one vector per row."""
    if not parts:
        raise ValueError("stack_rows needs at least one row")
    if any(p.ndim != 1 for p in parts) or len({p.shape[0] for p in parts}) != 1:
        raise ValueError("stack_rows expects equal-length vectors")
    out = Tensor(np.stack([p.data for p in parts]))
    tape = _active_tape()
    if tape is not None:

        def pull():
            g = tape._grads.get(id(out))
            if g is None:
                return
            for i, p in enumerate(parts):
                _acc(tape._grads, p, g[i])

        tape._produced.add(id(out))
        tape._records.append(pull)
    return out


def rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Row range x[start:stop] of a matrix."""
    if x.ndim != 2:
        raise ValueError("rows expects a matrix")
    if not 0 <= start < stop <= x.shape[0]:
        raise ValueError(f"row range [{start}:{stop}] out of bounds for {x.shape}")
    out = Tensor(x.data[start:stop].copy())
    tape = _active_tape()
    if tape is not None:

        def pull():
            g = tape._grads.get(id(out))
            if g is None:
                return
            buf = np.zeros_like(x.data)
            buf[start:stop] = g
            _acc(tape._grads, x, buf)

        tape._produced.add(id(out))
        tape._records.append(pull)
    return out


def row(x: Tensor, i: int) -> Tensor:
    """Single row of a matrix, as a vector."""
    if x.ndim != 2:
        raise ValueError("row expects a matrix")
    if not 0 <= i < x.shape[0]:
        raise ValueError(f"row {i} out of bounds for {x.shape}")
    out = Tensor(x.data[i].copy())
    tape = _active_tape()
    if tape is not None:

        def pull():
            g = tape._grads.get(id(out))
            if g is None:
                return
            buf = np.zeros_like(x.data)
            buf[i] = g
            _acc(tape._grads, x, buf)

        tape._produced.add(id(out))
        tape._records.append(pull)
    return out


def slice1d(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice x[start:stop] of a vector."""
    if x.ndim != 1:
        raise ValueError("slice1d expects a vector")
    if not 0 <= start < stop <= x.shape[0]:
        raise ValueError(f"slice [{start}:{stop}] out of bounds for {x.shape}")
    out = Tensor(x.data[start:stop].copy())
    tape = _active_tape()
    if tape is not None:

        def pull():
            g = tape._grads.get(id(out))
            if g is None:
                return
            buf = np.zeros_like(x.data)
            buf[start:stop] = g
            _acc(tape._grads, x, buf)

        tape._produced.add(id(out))
        tape._records.append(pull)
    return out


def pick(x: Tensor, i: int) -> Tensor:
    """Scalar component x[i] of a vector."""
    if x.ndim != 1:
        raise ValueError("pick expects a vector")
    if not 0 <= i < x.shape[0]:
        raise ValueError(f"index {i} out of bounds for {x.shape}")
    out = Tensor(x.data[i])
    tape = _active_tape()
    if tape is not None:

        def pull():
            g = tape._grads.get(id(out))
            if g is None:
                return
            buf = np.zeros_like(x.data)
            buf[i] = g
            _acc(tape._grads, x, buf)

        tape._produced.add(id(out))
        tape._records.append(pull)
    return out


def sum_all(x: Tensor) -> Tensor:
    """Sum of all components, as a scalar tensor."""
    out = Tensor(x.data.sum())
    tape = _active_tape()
    if tape is not None:

        def pull():
            g = tape._grads.get(id(out))
            if g is not None:
                _acc(tape._grads, x, np.full_like(x.data, float(g)))

        tape._produced.add(id(out))
        tape._records.append(pull)
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
    tape = _active_tape()
    if tape is not None:

        def pull():
            g = tape._grads.get(id(out))
            if g is None:
                return
            # y is zero at masked positions, so their logit grads stay zero
            _acc(tape._grads, logits, y * (g - float(g @ y)))

        tape._produced.add(id(out))
        tape._records.append(pull)
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
    tape = _active_tape()
    if tape is not None:

        def pull():
            g = tape._grads.get(id(out))
            if g is not None:
                _acc(tape._grads, x, g * keep)

        tape._produced.add(id(out))
        tape._records.append(pull)
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
