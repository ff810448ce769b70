"""Finite-difference audit of tape gradients, the oracle of the gradient
tests, and `einsum` and `sequential_softmax`, the differentiable ops
those tests build their losses and reference chains with.

The probes evaluate the forward pass in `np.longdouble` (a 64-bit mantissa
on x86-64 Linux), which `Tensor` keeps, so that the central differences
resolve gradients far below what float64 rounding of the loss allows.
Where `np.longdouble` is no wider than float64, the probes run at float64
resolution.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

import numpy as np

from libsuggest.tensor import Tape, Tensor, _record, _softmax_rows, backward


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


def einsum(subscripts: str, a: Tensor, b: Tensor) -> Tensor:
    """`np.einsum` of two operands with explicit subscripts, such as
    "bs,bsh->bh", in which no index repeats within an operand and every
    index of an operand also appears in the other one or in the output.

    Without `optimize` numpy runs its own loops, not BLAS: an output
    entry depends only on its own terms, whatever the sizes of the other
    axes, and the terms along a summed axis other than the innermost are
    added in index order, so zeros appended to that axis leave the bits
    unchanged, as in the contractions of `tensor.additive_attention`.
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


def sequential_softmax(logits: Tensor, mask: np.ndarray) -> Tensor:
    """`tensor.masked_softmax` with the exponentials of a row added one
    position after another, as `tensor.additive_attention` adds them, so
    that masked positions appended to a row leave its bits unchanged."""
    if logits.ndim != 2 or mask.shape != logits.shape or mask.dtype != bool:
        raise ValueError("sequential_softmax expects a matrix and an equal-shape boolean mask")
    y = _softmax_rows(logits.data, ~mask, sequential=True)
    out = Tensor(y)
    _record((out,), lambda tape, g: tape._acc(logits, y * (g - (g * y).sum(axis=-1, keepdims=True))))
    return out
