"""Half-step difference calculus on the staggered lattices.

`diff` moves a lattice by half a cell along one axis: the value at an output
point p is (u at p + h/2 minus u at p - h/2) / h.  Output points are exactly
those where both reads exist, so the array shrinks by one entry along the
differenced axis; callers pick whatever index sub-ranges they need.  Which
physical points the output occupies follows from the operand's stagger.
"""

from __future__ import annotations

import numpy as np

from .grid import FieldState, GridSpec


def diff(u: np.ndarray, axis: int, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    if u.shape[axis] < 2:
        raise ValueError(f"extent {u.shape[axis]} along axis {axis} too small to difference")
    hi = (slice(None),) * axis + (slice(1, None),)
    lo = (slice(None),) * axis + (slice(None, -1),)
    out = np.subtract(u[hi], u[lo], out=out)
    out /= grid.spacing(axis)
    return out


def time_diff(u_next: FieldState, u_prev: FieldState, span: float) -> FieldState:
    """Componentwise (u_next - u_prev) / span, labeled at the midpoint level."""
    _check_same_shapes(u_next, u_prev)
    s = 1.0 / span
    arrays = []
    for (_, a), (_, b) in zip(u_next.components(), u_prev.components()):
        d = a * s
        d -= b * s
        arrays.append(d)
    return FieldState(*arrays, time_level=0.5 * (u_next.time_level + u_prev.time_level))


def _check_same_shapes(a: FieldState, b: FieldState) -> None:
    for (name, x), (_, y) in zip(a.components(), b.components()):
        if x.shape != y.shape:
            raise ValueError(f"component {name!r} shapes differ: {x.shape} vs {y.shape}")

