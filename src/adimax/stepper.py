"""Two-stage alternating-direction-implicit update for the 3D Maxwell system.

Components are indexed c = 0, 1, 2 for x, y, z, with cyclic neighbours
(a, b) = (c+1, c+2) mod 3, so that (curl H)_c = d_a H_b - d_b H_a.  Each full
step of size dt is split into two half-updates.  In each one every E_c is
implicit along one axis imp through one H component, its partner H_p, and
the implicit axes rotate between the stages:

    stage   imp   p   sigma   pairs (E_c along imp with H_p)
      1      a    b    +1     ex along y with hz, ey along z with hx, ez along x with hy
      2      b    a    -1     ex along z with hy, ey along x with hz, ez along y with hx

Every H component is the partner of exactly one E component per stage.  With
ce = dt/(2 eps), ch = dt/(2 mu) and q = ce ch = dt^2/(4 eps mu), one
half-update computes, for each c,

    H_p'  = H_p - sigma ch d_c E_imp                                (old E)
    (1 - q d_imp d_imp) E_c* = E_c + sigma ce (d_imp H_p' - d_p H_imp)
    H_p*  = H_p' + sigma ch d_imp E_c*

The first line is the explicit part of the partner's update; reading it in
the E right-hand side eliminates the partner without a mixed derivative.  The
non-partner H_imp is read at the old level.  Per pencil along imp the E
system is the constant-coefficient tridiagonal

    (1 + 2*lam) u_p - lam * (u_{p-1} + u_{p+1}) = rhs_p,   lam = q / h_imp^2

closed with homogeneous Dirichlet ends: the pencil endpoints are always
tangential-E wall entries, which the PEC condition pins to zero.  The matrix
is strictly diagonally dominant for every lam >= 0, so a single
forward-elimination / back-substitution pass (Thomas algorithm) needs no
pivoting.

From _SPLIT_MIN cells on, with two usable cores, a half-update runs as two
slabs per component, cut at the middle plane of E_c's own axis c: the calling
thread runs the first halves and one worker thread the second (numpy releases
the GIL in its loops).  A slab is self-contained: only E_imp is read one plane
past the cut (for d_c), every other difference runs along imp or p, and the
pencils lie along imp, so every output entry comes from the same operations
in the same order, bit-identical to the unsplit update.  Only the calling
thread calls `_solve_lines` and runs the guard, after joining the worker; the
worker sweeps through the `_sweep` alias, so outside-in tracers see one call
stack.  Split against unsplit step time, interleaved on 2 cores, two runs:
48^3 +26/+32%, 64^3 -1/+13%, 72^3 -6/-10%, 80^3 -4/-18%, 100^3 -25/-31%.

Any derivation slip is caught mechanically: the residual functions evaluate
the original coupled equations on the stage output, and the test suite holds
them to 1e-12.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache

import numpy as np

from .grid import FieldState, GridSpec, Medium, check_extents


class NonFiniteFieldError(ValueError):
    """A field lattice contains NaN or infinity."""


@lru_cache(maxsize=64)
def _thomas_coeffs(lam: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Elimination coefficients (cp, 1/den) of the length-m system, read-only."""
    cp, inv_den = np.empty(m), np.empty(m)
    prev = 0.0
    for p in range(m):
        inv_den[p] = 1.0 / (1.0 + 2.0 * lam + lam * prev)
        cp[p] = prev = -lam * inv_den[p]
    cp.flags.writeable = inv_den.flags.writeable = False
    return cp, inv_den


def _solve_lines(lam: float, rhs: np.ndarray, axis: int) -> np.ndarray:
    """Thomas algorithm for the constant-coefficient Dirichlet system, batched.

    Solves independently along `axis` for every pencil of `rhs` and returns
    the solution; `rhs` itself may be overwritten.  The sweeps run in place,
    plane by plane with one plane-sized temporary, on `rhs` for axis 0 and on
    a contiguous copy with the solve axis leading otherwise.
    """
    if lam == 0.0:
        return rhs
    work = np.ascontiguousarray(np.moveaxis(rhs, axis, 0)) if axis else rhs
    cp, inv_den = _thomas_coeffs(lam, work.shape[0])
    tmp = np.empty_like(work[0])
    work[0] *= inv_den[0]
    for p in range(1, work.shape[0]):
        np.multiply(work[p - 1], lam, out=tmp)
        work[p] += tmp
        work[p] *= inv_den[p]
    for p in range(work.shape[0] - 2, -1, -1):
        np.multiply(work[p + 1], cp[p], out=tmp)
        work[p] -= tmp
    return np.moveaxis(work, 0, axis)


# stage -> (implicit axis offset from c, partner offset from c, sigma)
_STAGES = {1: (1, 2, 1.0), 2: (2, 1, -1.0)}
# grid cells from which a half-update runs as two slabs on two threads
_SPLIT_MIN = 80 ** 3


def _diff(arr: np.ndarray, axis: int, scale: float, trim: int | None = None,
          out: np.ndarray | None = None) -> np.ndarray:
    """scale * (upper - lower neighbour) along `axis`, cut to 1:-1 along `trim`."""
    hi = [slice(None)] * 3
    if trim is not None:
        hi[trim] = slice(1, -1)
    lo = list(hi)
    hi[axis], lo[axis] = slice(1, None), slice(None, -1)
    out = np.subtract(arr[tuple(hi)], arr[tuple(lo)], out=out)
    out *= scale
    return out


def _update(jobs, state, grid, med, stage, e_new, h_new, solve) -> None:
    """Write E_c and H_p on planes lo:hi along c per job (c, lo, hi); None outputs are made."""
    d_imp, d_p, sigma = _STAGES[stage]
    h, ce, ch = (grid.dx, grid.dy, grid.dz), grid.dt / (2.0 * med.eps), grid.dt / (2.0 * med.mu)
    e_old, h_old = state.e_triple(), state.h_triple()
    for c, lo, hi in jobs:
        imp, p = (c + d_imp) % 3, (c + d_p) % 3
        # the slab's planes along c; E_imp is read one plane past the cut
        head = (slice(None),) * c
        slab, slab_e = head + (slice(lo, hi),), head + (slice(lo, hi + 1),)
        # explicit part of the partner, from the old E
        hp = _diff(e_old[imp][slab_e], c, -sigma * ch / h[c],
                   out=None if h_new[p] is None else h_new[p][slab])
        hp += h_old[p][slab]
        # implicit E_c along imp, on its interior (walls stay exact zeros)
        interior = tuple(slice(None) if d == c else slice(1, -1) for d in range(3))
        rhs = _diff(hp, imp, sigma * ce / h[imp], trim=p)
        tmp = _diff(h_old[imp][slab], p, sigma * ce / h[p], trim=imp)
        rhs -= tmp
        ec_old = e_old[c][slab]
        rhs += ec_old[interior]
        ec = np.zeros(ec_old.shape) if e_new[c] is None else e_new[c][slab]
        ec[interior] = solve(ce * ch / h[imp] ** 2, rhs, imp)
        # implicit part of the partner, from the new E_c (temporaries are rebound, never
        # freed early: early frees let glibc trim the heap and fault it in again each step)
        tmp = _diff(ec, imp, sigma * ch / h[imp])
        hp += tmp
        if e_new[c] is None:
            e_new[c], h_new[p] = ec, hp


_sweep = _solve_lines  # the worker's name for the sweep, which tracing leaves unwrapped


@lru_cache(maxsize=1)
def _worker():
    """The one worker thread, started on first use (and anew in a forked child)."""
    from concurrent.futures import ThreadPoolExecutor  # imported only at paper scale
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="adimax-slab")


os.register_at_fork(after_in_child=_worker.cache_clear)


def _half_update(state: FieldState, grid: GridSpec, med: Medium, stage: int) -> FieldState:
    """One half-update per the stage table in the module docstring.

    The output is a fresh state: E wall entries are exact zeros by
    construction, so the PEC condition holds bitwise at every level.
    """
    check_extents(state, grid)
    args = (state, grid, med, stage)
    cores = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if math.prod(grid.cells) < _SPLIT_MIN or len(cores) < 2:
        e_new, h_new = [None] * 3, [None] * 3
        _update([(c, 0, n) for c, n in enumerate(grid.cells)], *args, e_new, h_new, _solve_lines)
    else:
        e_new = [np.zeros(e.shape) for e in state.e_triple()]
        h_new = [np.empty(x.shape) for x in state.h_triple()]
        later = _worker().submit(_update, [(c, n // 2, n) for c, n in enumerate(grid.cells)],
                                 *args, e_new, h_new, _sweep)
        try:
            _update([(c, 0, n // 2) for c, n in enumerate(grid.cells)], *args, e_new, h_new,
                    _solve_lines)
        finally:
            later.exception()  # waits for the worker's half, also when this half raised
        later.result()
    out = FieldState(*e_new, *h_new, time_level=state.time_level + 0.5)
    # Checking the output attributes a NaN or infinity to the stage that made
    # it, and still catches one in the input: every input entry feeds some
    # output entry.  Each H_p is copied into its own output, and each E, wall
    # entries included, is differenced over its whole lattice in the explicit
    # part of one partner update (d_c E_imp), so non-finite input leaves
    # non-finite output.
    if not out.all_finite():
        raise NonFiniteFieldError(f"non-finite values in the stage {stage} output")
    return out


def stage1(state: FieldState, grid: GridSpec, med: Medium) -> FieldState:
    """Advance from a whole level to the intermediate level."""
    return _half_update(state, grid, med, 1)


def stage2(state: FieldState, grid: GridSpec, med: Medium) -> FieldState:
    """Advance from the intermediate level to the next whole level."""
    return _half_update(state, grid, med, 2)


def step(state: FieldState, grid: GridSpec, med: Medium) -> FieldState:
    """One full time step: stage2(stage1(state))."""
    return stage2(stage1(state, grid, med), grid, med)


def _residual(before: FieldState, after: FieldState, grid: GridSpec, med: Medium,
              stage: int) -> float:
    """Max scaled residual of the six coupled half-update equations.

    In stage one the leading curl term of every equation reads the new level
    and the trailing term the old level; stage two mirrors that.  The
    equations are evaluated in increment form (multiplied through by dt) and
    scaled by max(1, largest field magnitude), which keeps the measure
    well-conditioned for dt anywhere between 1e-4 and 1.  E equations are
    checked on their interior index sets, H equations at every lattice point.
    """
    nx, ny, nz = grid.cells
    dx, dy, dz = grid.dx, grid.dy, grid.dz
    ce = grid.dt / (2.0 * med.eps)
    ch = grid.dt / (2.0 * med.mu)
    lead, trail = (after, before) if stage == 1 else (before, after)
    worst = 0.0

    r = (after.ex - before.ex)[:, 1:ny, 1:nz] - ce * (
        (np.diff(lead.hz, axis=1) / dy)[:, :, 1:nz] - (np.diff(trail.hy, axis=2) / dz)[:, 1:ny, :])
    worst = max(worst, float(np.max(np.abs(r))) if r.size else 0.0)
    r = (after.ey - before.ey)[1:nx, :, 1:nz] - ce * (
        (np.diff(lead.hx, axis=2) / dz)[1:nx, :, :] - (np.diff(trail.hz, axis=0) / dx)[:, :, 1:nz])
    worst = max(worst, float(np.max(np.abs(r))) if r.size else 0.0)
    r = (after.ez - before.ez)[1:nx, 1:ny, :] - ce * (
        (np.diff(lead.hy, axis=0) / dx)[:, 1:ny, :] - (np.diff(trail.hx, axis=1) / dy)[1:nx, :, :])
    worst = max(worst, float(np.max(np.abs(r))) if r.size else 0.0)

    r = (after.hx - before.hx) - ch * (np.diff(lead.ey, axis=2) / dz - np.diff(trail.ez, axis=1) / dy)
    worst = max(worst, float(np.max(np.abs(r))))
    r = (after.hy - before.hy) - ch * (np.diff(lead.ez, axis=0) / dx - np.diff(trail.ex, axis=2) / dz)
    worst = max(worst, float(np.max(np.abs(r))))
    r = (after.hz - before.hz) - ch * (np.diff(lead.ex, axis=1) / dy - np.diff(trail.ey, axis=0) / dx)
    worst = max(worst, float(np.max(np.abs(r))))

    scale = max(1.0, before.max_abs(), after.max_abs())
    return worst / scale


def stage1_residual(before: FieldState, after: FieldState, grid: GridSpec, med: Medium) -> float:
    return _residual(before, after, grid, med, stage=1)


def stage2_residual(before: FieldState, after: FieldState, grid: GridSpec, med: Medium) -> float:
    return _residual(before, after, grid, med, stage=2)


def step_residual(state_n: FieldState, state_half: FieldState, state_next: FieldState,
                  grid: GridSpec, med: Medium) -> float:
    """Max residual over both half-updates of one full step."""
    return max(stage1_residual(state_n, state_half, grid, med),
               stage2_residual(state_half, state_next, grid, med))
