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

An unsplit half-update sweeps the E solves whose axes have equal length (all
three on a cube; h = 1/n gives them one lam and m) in one call: each
right-hand side is copied into its column block of an (m, pencils) buffer with
the solve axis leading, in place of the copy `_solve_lines` makes for axes 1
and 2; pencils are solved alone, so the output is bit-identical.  Each
right-hand side goes right after its copy and the buffer before the partners'
implicit parts (a 40^3 stage's tracemalloc scratch: 8.76 component lattices,
8.83/9.07 per component for stage 1/2).  Packed against per component, medians
of five single-thread processes (ten at 20^3), step time and peak RSS: 20^3
-17%/-1.3% (of 2.01 ms, 31.0 MiB), 40^3 -8/-2.4 (of 9.4 ms, 41.5 MiB), 48^3
-13/-3.4, 56^3 -3/-4.2, 64^3 -9/-5.2, 72^3 -8/-5.8, 80^3 -1/-6.4, 100^3
-0/-7.3, so no size runs faster per component (the split path's way).

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
from .operators import diff


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


def _update(jobs, state, grid, med, stage, e_new, h_new, solve, pack=False) -> None:
    """Write E_c and H_p on planes lo:hi along c per job (c, lo, hi); None outputs are made."""
    d_imp, d_p, sigma = _STAGES[stage]
    h, ce, ch = (grid.dx, grid.dy, grid.dz), grid.dt / (2.0 * med.eps), grid.dt / (2.0 * med.mu)
    e_old, h_old, n = state.e_triple(), state.h_triple(), grid.cells
    groups: dict = {}  # with `pack`, jobs whose E solve axes are equally long share a buffer
    for c, lo, hi in jobs:
        groups.setdefault(n[(c + d_imp) % 3] if pack else c, []).append((c, lo, hi))
    for group in groups.values():
        width = sum((hi - lo) * (n[(c + d_p) % 3] - 1) for c, lo, hi in group)
        buf = np.empty((n[(group[0][0] + d_imp) % 3] - 1, width)) if len(group) > 1 else None
        members, cut = [], 0
        for c, lo, hi in group:
            imp, p = (c + d_imp) % 3, (c + d_p) % 3
            # the slab's planes along c; E_imp is read one plane past the cut
            head = (slice(None),) * c
            slab, slab_e = head + (slice(lo, hi),), head + (slice(lo, hi + 1),)
            # explicit part of the partner, from the old E
            hp = _diff(e_old[imp][slab_e], c, -sigma * ch / h[c],
                       out=None if h_new[p] is None else h_new[p][slab])
            hp += h_old[p][slab]
            h_new[p] = hp if h_new[p] is None else h_new[p]
            # implicit E_c along imp, on its interior (walls stay exact zeros)
            inner = tuple(slice(None) if d == c else slice(1, -1) for d in range(3))
            rhs = _diff(hp, imp, sigma * ce / h[imp], trim=p)
            tmp = _diff(h_old[imp][slab], p, sigma * ce / h[p], trim=imp)
            rhs -= tmp
            rhs += e_old[c][slab][inner]
            shape = np.moveaxis(rhs, imp, 0).shape  # its block: the solve axis leading
            cols = slice(cut, cut + rhs.size // shape[0])
            if buf is not None:  # held to the end of the pass, rhs and tmp raise the peak
                np.moveaxis(buf[:, cols].reshape(shape), 0, imp)[...] = rhs
                del rhs, tmp
            members.append((c, imp, p, slab, inner, cols, shape))
            cut = cols.stop
        lam = ce * ch / h[imp] ** 2  # the group's: its imp axes have equal length
        sol = solve(lam, rhs, imp) if buf is None else solve(lam, buf, 0)
        for c, imp, p, slab, inner, cols, shape in members:
            e_new[c] = np.zeros(e_old[c].shape) if e_new[c] is None else e_new[c]
            e_new[c][slab][inner] = (sol if buf is None else
                                     np.moveaxis(sol[:, cols].reshape(shape), 0, imp))
        del sol, buf
        # implicit part of the partner, from the new E_c; each rhs went after its copy and
        # the buffer before this loop, since holding either raised the stage's peak
        for c, imp, p, slab, *_ in members:
            tmp = _diff(e_new[c][slab], imp, sigma * ch / h[imp])
            h_new[p][slab] += tmp


_sweep = _solve_lines  # the worker's name for the sweep, which tracing leaves unwrapped


@lru_cache(maxsize=1)
def _worker():
    """The one worker thread, started on first use (and anew in a forked child)."""
    from concurrent.futures import ThreadPoolExecutor  # imported only at paper scale
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="adimax-slab")


os.register_at_fork(after_in_child=_worker.cache_clear)


def two_threads(cells: int, min_cells: int) -> bool:
    """Whether work on `cells` grid cells runs on two threads: from min_cells on, on two cores."""
    cores = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    return cells >= min_cells and len(cores) >= 2


def on_two_threads(here, there) -> tuple:
    """(here(), there()) with there() on the worker thread, which is joined before this
    returns or raises; `there` calls no name a tracer wraps (see `_sweep`)."""
    later = _worker().submit(there)
    try:
        first = here()
    finally:
        later.exception()  # waits for the worker's half, also when this half raised
    return first, later.result()


def _half_update(state: FieldState, grid: GridSpec, med: Medium, stage: int,
                 out: FieldState | None = None) -> FieldState:
    """One half-update per the stage table in the module docstring.

    The output is a fresh state unless `out` is given: then E interiors and all
    of H are written into out's arrays, whose tangential-E wall entries must
    be zeros, as at every level.  E wall entries are exact zeros by
    construction, so the PEC condition holds bitwise at every level.
    """
    check_extents(state, grid)
    e_new, h_new = [None] * 3, [None] * 3
    if out is not None:
        check_extents(out, grid)
        pairs = ((a, b) for _, a in out.components() for _, b in state.components())
        if any(np.may_share_memory(a, b) for a, b in pairs):
            raise ValueError("out may share memory with the input state")
        e_new, h_new = list(out.e_triple()), list(out.h_triple())
    args = (state, grid, med, stage)
    if not two_threads(math.prod(grid.cells), _SPLIT_MIN):
        _update([(c, 0, n) for c, n in enumerate(grid.cells)], *args, e_new, h_new, _solve_lines,
                pack=True)
    else:
        if out is None:
            e_new = [np.zeros(e.shape) for e in state.e_triple()]
            h_new = [np.empty(x.shape) for x in state.h_triple()]
        first = [(c, 0, n // 2) for c, n in enumerate(grid.cells)]
        second = [(c, n // 2, n) for c, n in enumerate(grid.cells)]
        on_two_threads(lambda: _update(first, *args, e_new, h_new, _solve_lines),
                       lambda: _update(second, *args, e_new, h_new, _sweep))
    new = FieldState(*e_new, *h_new, time_level=state.time_level + 0.5)
    # Checking the output attributes a NaN or infinity to the stage that made
    # it, and still catches one in the input: every input entry feeds some
    # output entry.  Each H_p is copied into its own output, and each E, wall
    # entries included, is differenced over its whole lattice in the explicit
    # part of one partner update (d_c E_imp), so non-finite input leaves
    # non-finite output.
    if not new.all_finite():
        raise NonFiniteFieldError(f"non-finite values in the stage {stage} output")
    return new


def stage1(state: FieldState, grid: GridSpec, med: Medium) -> FieldState:
    """Advance from a whole level to the intermediate level."""
    return _half_update(state, grid, med, 1)


def stage2(state: FieldState, grid: GridSpec, med: Medium,
           out: FieldState | None = None) -> FieldState:
    """Advance from the intermediate level to the next whole level, in out's arrays if
    given (a whole level that shares no memory with `state`; see _half_update)."""
    return _half_update(state, grid, med, 2, out)


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
    Each residual is formed in place, with at most two component lattices
    alive, from the operations of the whole-array formula in their order.
    """
    ce, ch = grid.dt / (2.0 * med.eps), grid.dt / (2.0 * med.mu)
    lead, trail = (after, before) if stage == 1 else (before, after)
    cut = lambda u, axis: u[(slice(None),) * axis + (slice(1, -1),)]  # 1:-1 along axis
    equations = []  # (new, old, coefficient, (lead lattice, axis), (trail lattice, axis))
    for c in range(3):  # E_c on its interior: ce (d_a H_b - d_b H_a); H_c: ch (d_b E_a - d_a E_b)
        a, b = (c + 1) % 3, (c + 2) % 3
        inner = tuple(slice(None) if d == c else slice(1, -1) for d in range(3))
        equations += [(after.e_triple()[c][inner], before.e_triple()[c][inner], ce,
                       (cut(lead.h_triple()[b], b), a), (cut(trail.h_triple()[a], a), b)),
                      (after.h_triple()[c], before.h_triple()[c], ch,
                       (lead.e_triple()[a], b), (trail.e_triple()[b], a))]
    worst = 0.0
    for new, old, coef, (u, p), (v, q) in equations:
        curl = diff(u, p, grid)
        curl -= diff(v, q, grid)
        curl *= coef
        r = np.subtract(new, old)
        r -= curl
        del curl
        worst = max(worst, float(np.max(np.abs(r, out=r))))
        del r  # so that the next curl and its difference are the only lattices alive
    return worst / max(1.0, before.max_abs(), after.max_abs())


def step_residual(state_n: FieldState, state_half: FieldState, state_next: FieldState,
                  grid: GridSpec, med: Medium) -> float:
    """Max residual over both half-updates of one full step."""
    return max(_residual(state_n, state_half, grid, med, stage=1),
               _residual(state_half, state_next, grid, med, stage=2))
