"""Discrete norms, conserved energy functionals, and divergence diagnostics.

Two families of quadratic functionals are exactly constant along trajectories
of the two-stage update, for any time step:

* the L2-type energy  ``energy_l2``:
      |E|_E^2 + |H|_H^2 + q * (|curl_neg H|_E^2 + |curl_pos E|_H^2),
      q = dt^2 / (4 eps mu)
* the directional H1-type energy ``energy_h1`` (one per axis), which adds the
  squared axis-difference of every component plus wall-plane terms on the two
  planes nearest the walls perpendicular to that axis.

Their time-difference variants (the same forms applied to (next - prev)/dt
across two consecutive whole levels) are conserved as well.

All of them, and their core forms (without the dt^2 terms), are partial
sums of one pass over a state, `state_sums`, in two independent halves: the E
half takes every lattice sum of E and of the curl pieces (d_y ez, d_z ex,
d_x ey), the H half those of H and of (d_z hy, d_x hz, d_y hx), trimmed to the
E sets.  Each half forms one piece at a time and takes its sums for every axis
of the pass, by the piece's role (see `energy_h1`), before the next piece reuses
the array.  The parts, and the wall-plane sums, are then added in a fixed
order, so the sums are bit for bit the same on one thread or two.  A report
tick takes its functionals as two such records, `energy_report`: the sums of
a level and of its time difference (`energy_suite`: along x alone).  Which
sum fills which CSV column is for `harness` alone to say.

From _THREAD_MIN cells on, with two usable cores, the H half runs on the
stepper's worker and calls no name a tracer wraps; below it both halves run
here on one piece and one buffer.  The caller allocates all scratch, since the
worker's glibc arena keeps what the worker allocates (a worker half that made
its own raised 64^3 tick peak RSS by 4.6 %).  Pass time threaded against one
thread in %, medians of 31 interleaved calls (15 in 100^3's first run), two runs:

    axes   20^3    28^3    32^3    36^3    40^3    48^3    64^3    100^3
    xyz    +46/+50 +16/+14  -9/+8  -27/-10 -29/-31 -42/-40 -34/-40 -41/-44
    x      +93/+52 +38/+42  -4/+6  -15/+8  -28/-28 -38/-39 -35/-35 -44/-44
    ""     +73/+71 +28/+22 -17/-20  -9/+6  -18/-11 -32/-23 -32/-32 -48/-45

40^3 to 47^3 stay on one thread: they see one grading per grid of a convergence
study, where threading saves ~2 ms and costs ~0.5 MiB for starting the worker.

The index ranges of each squared sum are not arbitrary: they are exactly the
sets on which the corresponding half-update equation holds, which is what
makes every summation-by-parts cancellation close without remainder.  Getting
a single range wrong breaks exact conservation, so the invariance tests are
the authoritative check on the tables below.  Weights follow the field
identity (eps for E-derived quantities, mu for H-derived ones); index ranges
follow the lattice the quantity lives on.

Sums square into contiguous scratch and use numpy's pairwise summation, which
keeps drift ratios reproducible at the 1e-13 level across run-to-run and
thread-count variation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# rotate_state is unused here; perfbench traces this name to count rotation copies
from .grid import FieldState, GridSpec, Medium, check_extents, rotate_state  # noqa: F401
from .operators import diff, time_diff
from .stepper import on_two_threads, two_threads

_AXES = {"x": 0, "y": 1, "z": 2}
_THREAD_MIN = 48 ** 3  # grid cells from which state_sums runs its H half on the worker


def _ssq(a: np.ndarray, buf: np.ndarray | None = None) -> float:
    """Sum of squares; `buf`, a flat scratch array, takes the squares if given."""
    if a.size == 0:
        return 0.0
    out = None if buf is None else buf[:a.size].reshape(a.shape)
    return float(np.add.reduce(np.square(a, out=out), axis=None))  # np.sum, less overhead


def _dssq(u: np.ndarray, a: int, grid: GridSpec, buf: np.ndarray, *roles) -> float:
    """_ssq of diff(u, a) on `_ix(a, *roles)`, formed in `buf`; 1/h^2 scales the sum only."""
    idx = _ix(a, *roles)
    start, stop, _ = idx[a].indices(u.shape[a] - 1)
    hi, lo = list(idx), list(idx)
    hi[a], lo[a] = slice(start + 1, stop + 1), slice(start, stop)
    upper, lower = u[tuple(hi)], u[tuple(lo)]
    out = np.subtract(upper, lower, out=buf[:upper.size].reshape(upper.shape))
    return _ssq(out, buf) / grid.spacing(a)**2


def _ix(a: int, *roles) -> tuple:
    """Index tuple that applies roles[r] along array axis (a + r) % 3."""
    idx = [slice(None)] * 3
    for r, s in enumerate(roles):
        idx[(a + r) % 3] = s
    return tuple(idx)


def _roles(seq, a: int) -> tuple:
    """The entries of a per-axis triple in role order for axis a."""
    return tuple(seq[(a + r) % 3] for r in range(3))


def electric_norm_sq(u, weight: float, grid: GridSpec, buf: np.ndarray | None = None) -> float:
    """Squared norm over E-located triples with the interior index ranges.

    The x-slot sums all half-offset x indices but only interior y, z nodes
    (and cyclically for the other slots); `weight` is eps for electric fields,
    mu for magnetic quantities measured on E locations.
    """
    nx, ny, nz = grid.cells
    ux, uy, uz = _expect(u, ((nx, ny + 1, nz + 1), (nx + 1, ny, nz + 1), (nx + 1, ny + 1, nz)))
    s = (_ssq(ux[:, 1:ny, 1:nz], buf) + _ssq(uy[1:nx, :, 1:nz], buf)
         + _ssq(uz[1:nx, 1:ny, :], buf))
    return weight * grid.dv * s


def magnetic_norm_sq(v, weight: float, grid: GridSpec, buf: np.ndarray | None = None) -> float:
    """Squared norm over H-located triples; every lattice entry participates."""
    nx, ny, nz = grid.cells
    vx, vy, vz = _expect(v, ((nx + 1, ny, nz), (nx, ny + 1, nz), (nx, ny, nz + 1)))
    return weight * grid.dv * (_ssq(vx, buf) + _ssq(vy, buf) + _ssq(vz, buf))


def _expect(triple, shapes):
    """`triple` itself once every lattice has its expected shape."""
    for arr, shape in zip(triple, shapes):
        if arr.shape != shape:
            raise ValueError(f"lattice shape {arr.shape} does not match expected {shape}")
    return triple


def face_norm_sq(state: FieldState, axis: str, med: Medium, grid: GridSpec) -> tuple[float, float]:
    """Wall-plane norms on the two planes nearest the walls perpendicular to `axis`.

    Returns (tangential-E part, wall-normal-H part), both squared.  For the x
    axis the planes are i' in {1, nx-1}; the E part sums ey and ez there, the
    H part sums hx, each scaled by the transverse area element over the axis
    spacing.  The other axes read this through the role map.
    """
    a = _AXES[axis]
    check_extents(state, grid)
    n0, n1, n2 = _roles(grid.cells, a)
    h0, h1, h2 = _roles((grid.dx, grid.dy, grid.dz), a)
    _, e1, e2 = _roles(state.e_triple(), a)
    m0 = state.h_triple()[a]
    cb = h1 * h2 / h0
    total = 0.0
    for ip in (1, n0 - 1):
        total += (_ssq(e1[_ix(a, ip, slice(None), slice(1, n2))])
                  + _ssq(e2[_ix(a, ip, slice(1, n1))]))
    return med.eps * cb * total, med.mu * cb * (_ssq(m0[_ix(a, 1)]) + _ssq(m0[_ix(a, n0 - 1)]))


@dataclass(frozen=True)
class StateSums:
    """The quadratic sums of one field state, squared and weighted; `h1` maps each
    axis of the pass to its (core, full) directional H1-type energy."""

    e_sq: float
    h_sq: float
    curl_pos_e: float
    curl_neg_h: float
    l2_core: float
    l2: float
    h1: dict


def state_sums(state: FieldState, med: Medium, grid: GridSpec, axes: str = "xyz") -> StateSums:
    """Every quadratic functional of `state` in one pass: the L2-type energy and
    its parts, and the directional H1-type energies along `axes`."""
    check_extents(state, grid)
    idx = [_AXES[axis] for axis in axes]
    size = max(m.size for m in state.h_triple())  # every piece and square fits in it
    threaded = two_threads(math.prod(grid.cells), _THREAD_MIN)
    e_scratch = (np.empty(size), np.empty(size))  # (piece, buffer), the worker's made here too
    h_scratch = (np.empty(size), np.empty(size)) if threaded else e_scratch
    e_half = lambda: _e_half(state, med, grid, idx, *e_scratch)
    h_half = lambda: _h_half(state, med, grid, idx, *h_scratch)
    (e_sq, curl_pos_e, e_h1), (h_sq, curl_neg_h, h_h1) = (
        on_two_threads(e_half, h_half) if threaded else (e_half(), h_half()))
    q, by_axis = grid.dt ** 2 / (4.0 * med.eps * med.mu), {}
    for axis, a in zip(axes, idx):
        (vol_e, pert_e, (fe1, fe2)), (vol_h, pert_h, (fh1, fh2)) = e_h1[a], h_h1[a]
        vol, pert, fpert = vol_e + vol_h, pert_h + pert_e, fh1 + fe1 + fh2 + fe2  # i' = 1, nx-1
        faces = sum(face_norm_sq(state, axis, med, grid))  # planes, not lattices: on this thread
        h0, h1, h2 = _roles((grid.dx, grid.dy, grid.dz), a)
        by_axis[axis] = (grid.dv * vol + faces,
                         grid.dv * (vol + q * pert) + faces + q * (h1 * h2 / h0) * fpert)
    l2_core = e_sq + h_sq
    return StateSums(e_sq, h_sq, curl_pos_e, curl_neg_h, l2_core,
                     l2_core + q * (curl_neg_h + curl_pos_e), by_axis)


def _by_piece(pieces, roles, axes, grid: GridSpec, piece: np.ndarray, buf: np.ndarray):
    """Each piece k = diff(*pieces[k]), formed in `piece` in turn: its sum of squares and, per
    axis a, its d_a sum and plain sums over the index roles roles(n0, n1, n2)[(k - a) % 3]."""
    sq, by_role = [], {a: [()] * 3 for a in axes}
    for k, (u, axis) in enumerate(pieces):
        shape = tuple(m - (d == axis) for d, m in enumerate(u.shape))
        p = diff(u, axis, grid, out=piece[:math.prod(shape)].reshape(shape))
        for a in axes:
            r = (k - a) % 3
            diffed, *plain = roles(*_roles(grid.cells, a))[r]
            by_role[a][r] = (_dssq(p, a, grid, buf, *diffed),
                             *(_ssq(p[_ix(a, *s)], buf) for s in plain))
        sq.append(_ssq(p, piece))  # the piece's last read, so it is squared in place
    return sq, by_role


def _e_half(state: FieldState, med: Medium, grid: GridSpec, axes, piece, buf) -> tuple:
    """e_sq, curl_pos_e and, per axis, the E parts (vol, pert, fpert) of the H1 sums."""
    e, eps, every = state.e_triple(), med.eps, slice(None)
    # roles of (d_y e2, d_z e0, d_x e1): d_x sums; H planes i' = 1, nx-1; d_x e1's vol term
    roles = lambda n0, n1, n2: (
        ((slice(1, n0 - 1),), (1,), (n0 - 1,)), ((every, slice(1, n1)),),
        ((every, every, slice(1, n2)), (slice(1, n0 - 1), every, slice(1, n2))))
    sq, by_role = _by_piece([(e[2], 1), (e[0], 2), (e[1], 0)], roles, axes, grid, piece, buf)
    parts = {}
    for a in axes:
        (t0, f1, f2), (t1,), (t2, v) = by_role[a]
        n0, n1, n2 = _roles(grid.cells, a)
        e0, _, e2 = _roles(e, a)
        # x-differenced energies on the sets where their update equations hold:
        # integer x in [1, nx-1], half x in [3/2, nx-3/2] (d_x ey), then ez
        vol = eps * (_dssq(e0, a, grid, buf, every, slice(1, n1), slice(1, n2)) + v
                     + _dssq(e2, a, grid, buf, slice(1, n0 - 1), slice(1, n1)))
        parts[a] = (vol, eps * (t0 + t1 + t2), (eps * f1, eps * f2))
    return electric_norm_sq(e, eps, grid, buf), eps * grid.dv * sum(sq), parts


def _h_half(state: FieldState, med: Medium, grid: GridSpec, axes, piece, buf) -> tuple:
    """h_sq, curl_neg_h and, per axis, the H parts (vol, pert, fpert) of the H1 sums."""
    m, mu, every = state.h_triple(), med.mu, slice(None)
    # roles of (d_z m1, d_x m2, d_y m0), trimmed to the E sets (the only ones read): d_x
    # sums; the planes i' - 1 next to the E planes
    roles = lambda n0, n1, n2: (((),), ((), (0,), (n0 - 2,)), ((), (0,), (n0 - 2,)))
    sq, by_role = _by_piece([(m[1][:, 1:-1], 2), (m[2][:, :, 1:-1], 0), (m[0][1:-1], 1)], roles,
                            axes, grid, piece, buf)
    parts = {}
    for a in axes:
        (t0,), (t1, g1, g2), (t2, k1, k2) = by_role[a]
        n0, n1, _ = _roles(grid.cells, a)
        m0, m1, _ = _roles(m, a)
        # wall-adjacent x entries dropped: the wall-plane terms hold those pencils
        vol = mu * (_dssq(m0, a, grid, buf, slice(1, n0 - 1))
                    + _dssq(m1, a, grid, buf, every, slice(1, n1)) + sq[(a + 1) % 3])
        parts[a] = (vol, mu * (t0 + t1 + t2), (mu * (g1 + k1), mu * (g2 + k2)))
    return magnetic_norm_sq(m, mu, grid, buf), mu * grid.dv * sum(sq), parts


def energy_l2(state: FieldState, med: Medium, grid: GridSpec) -> float:
    """L2-type conserved energy."""
    return state_sums(state, med, grid, axes="").l2


def energy_h1(state: FieldState, axis: str, med: Medium, grid: GridSpec) -> float:
    """Directional H1-type conserved energy for one axis.

    All three axes share one index table, read through the role map: for axis
    a, role r is array axis (a + r) % 3 and the components (x, y, z) are read
    as (a, a+1, a+2).  This is exact because the scheme and the norms are
    invariant under that cyclic relabeling.
    """
    return state_sums(state, med, grid, axes=axis).h1[axis][1]


def _check_consecutive(prev: FieldState, curr: FieldState) -> None:
    if abs(curr.time_level - prev.time_level - 1.0) > 1e-9:
        raise ValueError(
            f"expected consecutive whole levels, got {prev.time_level} -> {curr.time_level}"
        )


# ---------------------------------------------------------------------------
# Divergence diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivergenceReport:
    """Discrete divergence of E (interior nodes) and of H (cell centers).

    Both fields are weighted by eps, H as well: each max norm is eps max|div|
    and each L2 norm sqrt(eps dv sum div^2).
    """

    div_e_linf: float
    div_e_l2: float
    div_h_linf: float
    div_h_l2: float


def divergence(state: FieldState, med: Medium, grid: GridSpec) -> DivergenceReport:
    """Divergence report of `state`: E at interior nodes, H at cell centers."""
    check_extents(state, grid)
    nx, ny, nz = grid.cells
    div_e = diff(state.ex[:, 1:ny, 1:nz], 0, grid)
    div_e += diff(state.ey[1:nx, :, 1:nz], 1, grid)
    div_e += diff(state.ez[1:nx, 1:ny, :], 2, grid)
    div_h = diff(state.hx, 0, grid)
    div_h += diff(state.hy, 1, grid)
    div_h += diff(state.hz, 2, grid)
    return DivergenceReport(
        div_e_linf=med.eps * (float(np.max(np.abs(div_e))) if div_e.size else 0.0),
        div_e_l2=float(np.sqrt(med.eps * grid.dv * _ssq(div_e))),
        div_h_linf=med.eps * float(np.max(np.abs(div_h))),
        div_h_l2=float(np.sqrt(med.eps * grid.dv * _ssq(div_h))),
    )


# ---------------------------------------------------------------------------
# Per-level energy reporting
# ---------------------------------------------------------------------------

def energy_report(curr: FieldState, prev: FieldState | None, med: Medium, grid: GridSpec,
                  axes: str = "xyz") -> tuple[StateSums, StateSums | None]:
    """The sums of `curr` and, when `prev` is given, of (curr - prev)/dt (else None);
    one pass per state."""
    now = state_sums(curr, med, grid, axes)
    if prev is None:
        return now, None
    _check_consecutive(prev, curr)
    return now, state_sums(time_diff(curr, prev, grid.dt), med, grid, axes)


def energy_suite(curr: FieldState, prev: FieldState | None, med: Medium,
                 grid: GridSpec) -> tuple[StateSums, StateSums | None]:
    """`energy_report` along the x axis alone: the sums an energy audit reads."""
    return energy_report(curr, prev, med, grid, axes="x")
