"""Two-stage alternating-direction-implicit update for the 3D Maxwell system.

Components are indexed c = 0, 1, 2 for x, y, z, with cyclic neighbours
(a, b) = (c+1, c+2) mod 3, so that (curl H)_c = d_a H_b - d_b H_a.  With
ce = dt/(2 eps), ch = dt/(2 mu) and q = ce ch = dt^2/(4 eps mu), dt/2 times the
curl system splits into two parts A1 + A2, and a full step is

    u^{n+1} = (I - A2)^-1 (I + A1) (I - A1)^-1 (I + A2) u^n.

Stage s solves (I - A_s) x = r.  A_s pairs every E_c with one H component, its
partner H_p, through differences along one axis imp, and the implicit axes
rotate between the stages:

    stage   imp   p   sigma   pairs (E_c along imp with H_p)
      1      a    b    +1     ex along y with hz, ey along z with hx, ez along x with hy
      2      b    a    -1     ex along z with hy, ey along x with hz, ez along y with hx

A_s maps (E_c, H_p) to (sigma ce d_imp H_p, sigma ch d_imp E_c), and every H
component is the partner of exactly one E component per stage.  Eliminating
the partner leaves, for each c,

    (1 - q d_imp d_imp) E_c = r_E + sigma ce d_imp r_H          (E_c's interior)
    H_p = r_H + sigma ch d_imp E_c

Per pencil along imp the E system is the constant-coefficient tridiagonal

    (1 + 2*lam) u_p - lam * (u_{p-1} + u_{p+1}) = rhs_p,   lam = q / h_imp^2

closed with homogeneous Dirichlet ends: the pencil endpoints are always
tangential-E wall entries, which the PEC condition pins to zero.  The matrix
is strictly diagonally dominant for every lam >= 0, so a single
forward-elimination / back-substitution pass (Thomas algorithm) needs no
pivoting.

The trajectory carries the right-hand side, as fundamental ADI does (E. L. Tan,
IEEE T-AP 56(1), 2008).  Since (I + A_s) x = 2x - r, stage one's r = (I + A2)
u^n leaves r <- 2w - r = (I + A1) w for stage two, and stage two leaves
r <- 2u^{n+1} - r, the next step's stage one right-hand side.  So a stage
forms two differences per component, d_imp r_H and d_imp E_c, and no explicit
part.  In full-lattice passes per component, besides the sweep: stage one 9,
stage two 10, where forming (I + A_other) u afresh took 13.  `stage1(u)`,
`stage2(u)` and `step` keep that classic form: they build (I + A_other) u in
their output's arrays (`_rhs`) and solve over it.  2x - r rounds apart from
forming (I + A_s) x anew, by terms of size C |field| at Courant number C, so a
trajectory agrees with repeated `step` to rounding, not bit for bit.

Below _SPLIT_MIN cells a carried stage sweeps the E solves whose axes have
equal length (all three on a cube; h = 1/n gives them one lam and m) in one
call: each right-hand side is formed in its column block of an (m, pencils)
buffer with the solve axis leading, in place of the copy `_solve_lines` makes
for axes 1 and 2; pencils are solved alone, so the output is bit-identical.
The buffer goes before the partners' H updates, since holding it raised the
peak.  A classic stage solves per component: it holds its whole output during
the solves, and a packed buffer on top would raise its peak by about three
component lattices at 40^3.

From _SPLIT_MIN cells on, with two usable cores, a half-update runs as two
slabs per component, cut at the middle plane of E_c's own axis c: the calling
thread runs the first halves and one worker thread the second (numpy releases
the GIL in its loops).  A slab is self-contained: every difference runs along
imp or p and the pencils lie along imp, so a slab reads nothing past its cut,
and every output entry comes from the same operations in the same order,
bit-identical to the unsplit update.  Only the calling thread calls
`_solve_lines`; the worker sweeps through the `_sweep` alias, so outside-in
tracers see one call stack.  From the same size `carry` forms the E components
of its right-hand side here and the H ones on the worker (see `halves`).
_SPLIT_MIN rests on split against unsplit step times of the classic form,
interleaved on 2 cores, two runs: 48^3 +26/+32%, 64^3 -1/+13%, 72^3 -6/-10%,
80^3 -4/-18%, 100^3 -25/-31%.

The scheme is unconditionally stable, so a NaN or infinity comes only from bad
input or from an operation that overflows.  IEEE 754 sets the overflow, invalid
or divide-by-zero flag whenever an operation on finite operands makes one, and
numpy reads those flags after every loop; so every stage job and every formed
right-hand side runs under `_flagged`, which turns a raised flag into a
NonFiniteFieldError naming the stage, at no extra pass.  A value that is
already non-finite raises no flag (NaN + x, inf + x), so each state is checked
once where it enters: the classic stages check their input, and a trajectory
checks its initial level.  numpy's error state is per thread, so each job
enters it on the thread that runs it.

Any derivation slip is caught mechanically: the residual functions evaluate
the original coupled equations on the stage output, and the test suite holds
them to 1e-12.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .grid import FieldState, GridSpec, Medium, check_extents, zero_state
from .operators import diff


class NonFiniteFieldError(ValueError):
    """A field lattice contains NaN or infinity."""


@contextmanager
def _flagged(what: str):
    """Raise NonFiniteFieldError naming `what` where a numpy operation on this thread
    overflows or makes a NaN (the overflow, invalid and divide-by-zero flags)."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise NonFiniteFieldError(f"non-finite values made in {what}: {exc}") from exc


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


def _pairs(stage: int, grid: GridSpec, med: Medium) -> dict:
    """c -> (imp, p, sigma ce / h_imp, sigma ch / h_imp, lam) for each E_c of the stage."""
    d_imp, d_p, sigma = _STAGES[stage]
    ce, ch = grid.dt / (2.0 * med.eps), grid.dt / (2.0 * med.mu)
    pairs = {}
    for c in range(3):
        imp, h = (c + d_imp) % 3, grid.spacing((c + d_imp) % 3)
        pairs[c] = (imp, (c + d_p) % 3, sigma * ce / h, sigma * ch / h, ce * ch / h ** 2)
    return pairs


# E_c's interior: every plane along c, 1:-1 along the other two axes
_INNER = tuple(tuple(slice(None) if d == c else slice(1, -1) for d in range(3)) for c in range(3))
# the axis order that puts an array's leading axis back at position imp (np.moveaxis(a, 0, imp))
_LEAD = ((0, 1, 2), (1, 0, 2), (1, 2, 0))


def _rhs(u: FieldState, grid: GridSpec, med: Medium, stage: int, out: FieldState,
         part: str = "EH") -> FieldState:
    """(I + A_stage) u, A_stage being the stage's implicit part, in out's arrays (E walls
    zero): E_c + sigma ce d_imp H_p on E_c's interior and H_p + sigma ch d_imp E_c, of the
    fields `part` names.  The E and H parts read only u, so they may run on two threads."""
    e_u, h_u, e, h = u.e_triple(), u.h_triple(), out.e_triple(), out.h_triple()
    for c, (imp, p, se, sh, _) in _pairs(stage, grid, med).items():
        if "E" in part:
            _diff(h_u[p], imp, se, trim=p, out=e[c][_INNER[c]])
            e[c][_INNER[c]] += e_u[c][_INNER[c]]
        if "H" in part:
            np.add(_diff(e_u[c], imp, sh, out=h[p]), h_u[p], out=h[p])
    return FieldState(*e, *h, time_level=u.time_level)


def _block(buf: np.ndarray, cols: slice, shape: tuple, imp: int) -> np.ndarray:
    """Columns `cols` of a 2D buffer as `shape` (the solve axis leading), in natural axis order."""
    return buf[:, cols].reshape(shape).transpose(_LEAD[imp])


def _update(jobs, r, grid, med, stage, e_out, h_out, solve, pack=False) -> None:
    """Solve (I - A_stage) x = r on planes lo:hi along c per job (c, lo, hi): x's E interiors
    go into the arrays e_out, its H into h_out if given, and r <- 2x - r unless e_out is r's E."""
    r_e, r_h, n = r.e_triple(), r.h_triple(), grid.cells
    carry, pairs = e_out[0] is not r_e[0], _pairs(stage, grid, med)
    groups: dict = {}  # with `pack`, jobs whose E solve axes are equally long share a buffer
    for c, lo, hi in jobs:
        groups.setdefault(n[pairs[c][0]] if pack else c, []).append((c, lo, hi))
    for group in groups.values():
        imp, lam = pairs[group[0][0]][0], pairs[group[0][0]][4]  # the group's: equal lengths
        width = sum((hi - lo) * (n[pairs[c][1]] - 1) for c, lo, hi in group)
        buf = np.empty((n[imp] - 1, width)) if len(group) > 1 else None
        members, cut = [], 0
        for c, lo, hi in group:
            imp, p, se = pairs[c][:3]
            slab = (slice(None),) * c + (slice(lo, hi),)
            dims = [hi - lo if d == c else n[d] - 1 for d in range(3)]
            shape = (dims[imp], *(m for d, m in enumerate(dims) if d != imp))
            block = (slice(cut, cut + math.prod(shape[1:])), shape, imp)
            members.append((c, slab, block))
            cut = block[0].stop
            # r_E + sigma ce d_imp r_H on E_c's interior, formed in the block if there is one
            rhs = _diff(r_h[p][slab], imp, se, trim=p,
                        out=None if buf is None else _block(buf, *block))
            rhs += r_e[c][slab][_INNER[c]]
        sol = solve(lam, rhs, imp) if buf is None else solve(lam, buf, 0)
        for c, slab, block in members:
            x = sol if buf is None else _block(sol, *block)
            e_out[c][slab][_INNER[c]] = x
            if carry:  # r_E <- 2x - r_E, 2x formed exactly in the solve's scratch
                x *= 2.0
                np.subtract(x, r_e[c][slab][_INNER[c]], out=r_e[c][slab][_INNER[c]])
        del sol, buf, rhs, x
        # x_H = r_H + t with t = sigma ch d_imp x_E, and r <- 2x - r makes r_H + 2t, formed
        # as x_H + t where x_H is stored; the buffer went before this loop, since holding
        # it raised the stage's peak
        for c, slab, _ in members:
            imp, p, _, sh, _ = pairs[c]
            t = _diff(e_out[c][slab], imp, sh if h_out is not None else 2.0 * sh)
            if h_out is not None:
                np.add(r_h[p][slab], t, out=h_out[p][slab])
            if carry:
                np.add(r_h[p][slab] if h_out is None else h_out[p][slab], t, out=r_h[p][slab])
            del t


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


def halves(cells: int, min_cells: int, here, there, sizes=()) -> tuple:
    """(here(*scratch), there(*scratch)): there() on the worker as in on_two_threads from
    min_cells cells on (see two_threads), else both here in turn.  Each is given one flat
    scratch array per entry of `sizes`, of that many entries, all made here before either
    starts (one set, shared, when both run here), since the worker's glibc arena keeps what
    it allocates."""
    threaded = two_threads(cells, min_cells)
    mine = [np.empty(n) for n in sizes]
    theirs = [np.empty(n) for n in sizes] if threaded else mine
    first, second = lambda: here(*mine), lambda: there(*theirs)
    return on_two_threads(first, second) if threaded else (first(), second())


def _half_update(r: FieldState, grid: GridSpec, med: Medium, stage: int, e_out, h_out) -> None:
    """One half-update per the stage table in the module docstring, on the right-hand side
    r (see `_update`), which moves on half a level.

    E wall entries of x are never written: e_out's must be zeros, as at every level, so the
    PEC condition holds bitwise.  A NaN or infinity that the update makes, on either
    thread, raises NonFiniteFieldError naming the stage (see `_flagged`); r is not read
    again to look for one.
    """
    def job(jobs, solve, pack=False):  # numpy's error state is per thread: enter it in the job
        with _flagged(f"stage {stage}"):
            _update(jobs, r, grid, med, stage, e_out, h_out, solve, pack)

    if not two_threads(math.prod(grid.cells), _SPLIT_MIN):
        # a replaced r is solved per component (see the module docstring)
        job([(c, 0, n) for c, n in enumerate(grid.cells)], _solve_lines,
            pack=e_out[0] is not r.ex)
    else:
        first = [(c, 0, n // 2) for c, n in enumerate(grid.cells)]
        second = [(c, n // 2, n) for c, n in enumerate(grid.cells)]
        on_two_threads(lambda: job(first, _solve_lines), lambda: job(second, _sweep))
    r.time_level += 0.5


def _stage(state: FieldState, grid: GridSpec, med: Medium, stage: int, out: FieldState | None,
           carried: bool) -> FieldState:
    """Stage `stage` from a whole level (classic) or from a carried right-hand side."""
    check_extents(state, grid)
    if not carried:  # (I + A_other) state in out's arrays, solved for x over them
        if out is not None:
            check_extents(out, grid)
            pairs = ((a, b) for _, a in out.components() for _, b in state.components())
            if any(np.may_share_memory(a, b) for a, b in pairs):
                raise ValueError("out may share memory with the input state")
        if not state.all_finite():  # what is already non-finite raises no flag
            raise NonFiniteFieldError(f"non-finite values in the stage {stage} input")
        with _flagged(f"the stage {stage} right-hand side"):
            r = _rhs(state, grid, med, 3 - stage, zero_state(grid) if out is None else out)
        _half_update(r, grid, med, stage, r.e_triple(), r.h_triple())
        return r
    out = zero_state(grid) if out is None else out
    _half_update(state, grid, med, stage, out.e_triple(), out.h_triple() if stage == 2 else None)
    if stage == 1:
        return state
    return FieldState(*out.e_triple(), *out.h_triple(), time_level=state.time_level)


def carry(state: FieldState, grid: GridSpec, med: Medium) -> FieldState:
    """(I + A2) state: stage one's right-hand side from a whole level, which
    stage1(..., carried=True) and stage2(..., carried=True) move on in place.  `state` is
    not checked for NaN or infinity; the caller does that once per trajectory.

    From _SPLIT_MIN cells on, with two usable cores, the H components are formed on the
    worker while this thread forms the E ones, each part under `_flagged` on its own
    thread; the whole state is allocated here first, since the worker's glibc arena keeps
    what the worker allocates.  Each entry comes from the same operations either way."""
    check_extents(state, grid)
    r = zero_state(grid)

    def part(fields):
        with _flagged("the stage 1 right-hand side"):
            _rhs(state, grid, med, 2, r, fields)

    halves(math.prod(grid.cells), _SPLIT_MIN, lambda: part("E"), lambda: part("H"))
    r.time_level = state.time_level
    return r


def stage1(state: FieldState, grid: GridSpec, med: Medium, out: FieldState | None = None,
           carried: bool = False) -> FieldState:
    """Advance from a whole level to the intermediate level, in out's arrays if given (a
    whole state whose E walls are zeros and that shares no memory with `state`).

    With `carried`, `state` is instead the right-hand side (I + A2) u of the level u (see
    `carry`): it becomes the next stage's, (I + A1) w, in place and is returned, and the
    E interiors of w go into out's E arrays, used as scratch."""
    return _stage(state, grid, med, 1, out, carried)


def stage2(state: FieldState, grid: GridSpec, med: Medium, out: FieldState | None = None,
           carried: bool = False) -> FieldState:
    """Advance from the intermediate level to the next whole level, in out's arrays if
    given (as for stage1).  With `carried`, `state` is instead (I + A1) w, as stage1 left
    it: it becomes (I + A2) of the new level in place."""
    return _stage(state, grid, med, 2, out, carried)


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
