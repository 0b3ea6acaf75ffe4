"""Half-step difference calculus on the staggered lattices.

`diff` moves a lattice by half a cell along one axis: the value at an output
point p is (u at p + h/2 minus u at p - h/2) / h.  Output points are exactly
those where both reads exist, so the array shrinks by one entry along the
differenced axis; callers pick whatever index sub-ranges they need.  Which
physical points the output occupies follows from the operand's stagger.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec


def diff(u: np.ndarray, axis: int, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    if u.shape[axis] < 2:
        raise ValueError(f"extent {u.shape[axis]} along axis {axis} too small to difference")
    hi = (slice(None),) * axis + (slice(1, None),)
    lo = (slice(None),) * axis + (slice(None, -1),)
    out = np.subtract(u[hi], u[lo], out=out)
    out /= grid.spacing(axis)
    return out
