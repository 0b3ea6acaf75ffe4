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

All of them, their core forms (without the dt^2 terms) and the component
norms |E|_E^2, |H|_H^2 are partial sums of one pass over a state, `state_sums`,
the one way to any lattice norm.  It runs in two independent halves: the E half
takes every lattice sum of E and of the curl pieces (d_y ez, d_z ex, d_x ey),
and per axis the tangential-E wall planes; the H half those of H and of
(d_z hy, d_x hz, d_y hx), trimmed to the E sets, and the normal-H wall planes.
Each half forms one piece at a time and takes its sums for every axis of the
pass, by the piece's role (see `energy_h1`), before the next piece reuses the
array.  The parts are then added in a fixed order, so the sums are bit for bit
the same on one thread or two.  A report tick takes its functionals as pairs
of such records from one routine, `_tick_sums`: the sums of a field u and of
its time difference, where u is a level (`energy_report`; `energy_suite` along x
alone) or its error against a reference solution (`manufactured.metrics`).  The
difference is formed in arrays the routine owns, the previous level's or the
error's, so that a tick makes no whole-state temporary for it.  Which sum fills
which CSV column is for `harness` alone to say.

Every whole-lattice pass of a report tick runs as an E part and an H part
(`_on_halves`): the sums' two halves, the error and the time difference (E
components, H components), and the divergence (each field's lattice, formed and
reduced).  From _THREAD_MIN cells on, with two usable cores, the H part runs on
the stepper's worker and calls no name a tracer wraps; below it both parts run
here in turn, on one set of scratch.  The calling thread allocates all scratch
before the parts start, and each pass's scratch is released before the next
pass (the sums) starts, since the worker's glibc arena keeps what the worker
allocates (a worker half that made its own raised 64^3 tick peak RSS by 4.6 %).
Each entry comes from the same operations in the same order either way, so
every output is bit-identical on one thread or two.  Sum pass time threaded
against one thread in %, medians of 31 interleaved calls (15 in 100^3's first
run), two runs:

    axes   20^3    28^3    32^3    36^3    40^3    48^3    64^3    100^3
    xyz    +46/+50 +16/+14  -9/+8  -27/-10 -29/-31 -42/-40 -34/-40 -41/-44
    x      +93/+52 +38/+42  -4/+6  -15/+8  -28/-28 -38/-39 -35/-35 -44/-44
    ""     +73/+71 +28/+22 -17/-20  -9/+6  -18/-11 -32/-23 -32/-32 -48/-45

40^3 to 47^3 stay on one thread: they see one grading per grid of a convergence
study, where threading saves ~2 ms and starting the worker costs ~2.7 MiB
resident (tick-dense's two seed-1 64^3 ops in a fresh process: 75.27 MiB against
72.60 with _THREAD_MIN = 10**9, medians of eight processes a side, 2-vCPU VM).

The index ranges of each squared sum are not arbitrary: they are exactly the
sets on which the corresponding half-update equation holds, which is what
makes every summation-by-parts cancellation close without remainder.  Getting
a single range wrong breaks exact conservation, so the invariance tests are
the authoritative check on the tables below.  Weights follow the field
identity (eps for E-derived quantities, mu for H-derived ones); index ranges
follow the lattice the quantity lives on.

Each sum of squares is one `np.einsum` over its operand, which reads it once
and makes no array of squares.  einsum's default (optimize=False) calls no
BLAS, so a sum is the same bits on any thread and at any thread count, and
drift ratios are reproducible at the 1e-13 level from run to run.  Against
squaring into scratch and reducing pairwise, the sums moved at rounding level
and `state_sums` took 2-45 % less time (medians of four alternating
fresh-process pairs, 64^3 and 100^3, axes "xyz", "x" and "").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# rotate_state is unused here; perfbench traces this name to count rotation copies
from .grid import (COMPONENTS, FieldState, GridSpec, Medium, check_extents, max_abs,  # noqa: F401
                   rotate_state)
from .operators import diff
from .stepper import halves

_AXES = {"x": 0, "y": 1, "z": 2}
_THREAD_MIN = 48 ** 3  # grid cells from which state_sums runs its H half on the worker


# einsum subscripts of the sum of squares of an array with 1, 2 or 3 axes
_SQUARES = {1: "i,i->", 2: "ij,ij->", 3: "ijk,ijk->"}


def _ssq(a: np.ndarray) -> float:
    """Sum of squares, read once (no array of squares)."""
    return float(np.einsum(_SQUARES[a.ndim], a, a)) if a.size else 0.0


def _dssq(u: np.ndarray, a: int, grid: GridSpec, buf: np.ndarray, *roles) -> float:
    """_ssq of diff(u, a) on `_ix(a, *roles)`, formed in `buf`; 1/h^2 scales the sum only."""
    idx = _ix(a, *roles)
    start, stop, _ = idx[a].indices(u.shape[a] - 1)
    hi, lo = list(idx), list(idx)
    hi[a], lo[a] = slice(start + 1, stop + 1), slice(start, stop)
    upper, lower = u[tuple(hi)], u[tuple(lo)]
    out = np.subtract(upper, lower, out=_shaped(buf, upper.shape))
    return _ssq(out) / grid.spacing(a)**2


def _ix(a: int, *roles) -> tuple:
    """Index tuple that applies roles[r] along array axis (a + r) % 3."""
    idx = [slice(None)] * 3
    for r, s in enumerate(roles):
        idx[(a + r) % 3] = s
    return tuple(idx)


def _roles(seq, a: int) -> tuple:
    """The entries of a per-axis triple in role order for axis a."""
    return tuple(seq[(a + r) % 3] for r in range(3))


def _cb(grid: GridSpec, a: int) -> float:
    """h1 h2 / h0 for axis a: the transverse area element of a wall plane over the axis spacing."""
    h0, h1, h2 = _roles((grid.dx, grid.dy, grid.dz), a)
    return h1 * h2 / h0


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


def _on_halves(grid: GridSpec, e_part, h_part, size: int = 0, lattices: int = 0) -> tuple:
    """`stepper.halves` of a tick pass's E and H parts, h_part on the worker from
    _THREAD_MIN cells on."""
    return halves(math.prod(grid.cells), _THREAD_MIN, e_part, h_part, size, lattices)


def _shaped(buf: np.ndarray, shape: tuple) -> np.ndarray:
    """The leading entries of a flat buffer, as an array of `shape`."""
    return buf[:math.prod(shape)].reshape(shape)


def state_sums(state: FieldState, med: Medium, grid: GridSpec, axes: str = "xyz") -> StateSums:
    """Every quadratic functional of `state` in one pass: the L2-type energy and
    its parts, and the directional H1-type energies along `axes`."""
    check_extents(state, grid)
    idx = [_AXES[axis] for axis in axes]
    size = max(m.size for m in state.h_triple())  # every piece and square fits in it
    (e_sq, curl_pos_e, e_h1), (h_sq, curl_neg_h, h_h1) = _on_halves(  # (piece, buffer) each
        grid, lambda *scratch: _e_half(state, med, grid, idx, *scratch),
        lambda *scratch: _h_half(state, med, grid, idx, *scratch), size, 2)
    q, by_axis = grid.dt ** 2 / (4.0 * med.eps * med.mu), {}
    for axis, a in zip(axes, idx):
        (vol_e, pert_e, (fe1, fe2), face_e), (vol_h, pert_h, (fh1, fh2), face_h) = e_h1[a], h_h1[a]
        vol, pert, fpert = vol_e + vol_h, pert_h + pert_e, fh1 + fe1 + fh2 + fe2  # i' = 1, nx-1
        faces = face_e + face_h
        by_axis[axis] = (grid.dv * vol + faces,
                         grid.dv * (vol + q * pert) + faces + q * _cb(grid, a) * fpert)
    l2_core = e_sq + h_sq
    return StateSums(e_sq, h_sq, curl_pos_e, curl_neg_h, l2_core,
                     l2_core + q * (curl_neg_h + curl_pos_e), by_axis)


def _by_piece(pieces, roles, axes, grid: GridSpec, piece: np.ndarray, buf: np.ndarray):
    """Each piece k = diff(*pieces[k]), formed in `piece` in turn: its sum of squares and, per
    axis a, its d_a sum and plain sums over the index roles roles(n0, n1, n2)[(k - a) % 3]."""
    sq, by_role = [], {a: [()] * 3 for a in axes}
    for k, (u, axis) in enumerate(pieces):
        shape = tuple(m - (d == axis) for d, m in enumerate(u.shape))
        p = diff(u, axis, grid, out=_shaped(piece, shape))
        for a in axes:
            r = (k - a) % 3
            diffed, *plain = roles(*_roles(grid.cells, a))[r]
            by_role[a][r] = (_dssq(p, a, grid, buf, *diffed),
                             *(_ssq(p[_ix(a, *s)]) for s in plain))
        sq.append(_ssq(p))
    return sq, by_role


def _e_half(state: FieldState, med: Medium, grid: GridSpec, axes, piece, buf) -> tuple:
    """e_sq, curl_pos_e and, per axis, the E parts (vol, pert, fpert, faces) of the H1 sums."""
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
        e0, e1, e2 = _roles(e, a)
        # x-differenced energies on the sets where their update equations hold:
        # integer x in [1, nx-1], half x in [3/2, nx-3/2] (d_x ey), then ez
        vol = eps * (_dssq(e0, a, grid, buf, every, slice(1, n1), slice(1, n2)) + v
                     + _dssq(e2, a, grid, buf, slice(1, n0 - 1), slice(1, n1)))
        # the wall planes i' = 1, nx-1: tangential ey on interior z, ez on interior y
        planes = [_ssq(e1[_ix(a, ip, every, slice(1, n2))])
                  + _ssq(e2[_ix(a, ip, slice(1, n1))]) for ip in (1, n0 - 1)]
        parts[a] = (vol, eps * (t0 + t1 + t2), (eps * f1, eps * f2),
                    eps * _cb(grid, a) * (planes[0] + planes[1]))
    nx, ny, nz = grid.cells  # each E lattice on its interior nodes, every half-offset index
    e_sq = (_ssq(e[0][:, 1:ny, 1:nz]) + _ssq(e[1][1:nx, :, 1:nz])
            + _ssq(e[2][1:nx, 1:ny, :]))
    return eps * grid.dv * e_sq, eps * grid.dv * sum(sq), parts


def _h_half(state: FieldState, med: Medium, grid: GridSpec, axes, piece, buf) -> tuple:
    """h_sq, curl_neg_h and, per axis, the H parts (vol, pert, fpert, faces) of the H1 sums."""
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
        parts[a] = (vol, mu * (t0 + t1 + t2), (mu * (g1 + k1), mu * (g2 + k2)),
                    mu * _cb(grid, a) * (_ssq(m0[_ix(a, 1)]) + _ssq(m0[_ix(a, n0 - 1)])))
    h_sq = _ssq(m[0]) + _ssq(m[1]) + _ssq(m[2])  # every H lattice entry
    return mu * grid.dv * h_sq, mu * grid.dv * sum(sq), parts


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
    """Divergence report of `state`: E at interior nodes, H at cell centers, each field's
    lattice formed and reduced by one part of `_on_halves` in scratch made here."""
    check_extents(state, grid)
    nx, ny, nz = grid.cells
    e_pieces = ((state.ex[:, 1:ny, 1:nz], 0), (state.ey[1:nx, :, 1:nz], 1),
                (state.ez[1:nx, 1:ny, :], 2))
    h_pieces = ((state.hx, 0), (state.hy, 1), (state.hz, 2))
    # each differenced piece and each divergence has at most nx ny nz entries
    (e_linf, e_sq), (h_linf, h_sq) = _on_halves(
        grid, lambda *scratch: _div(e_pieces, grid, *scratch),
        lambda *scratch: _div(h_pieces, grid, *scratch), math.prod(grid.cells), 2)
    return DivergenceReport(
        div_e_linf=med.eps * e_linf,
        div_e_l2=float(np.sqrt(med.eps * grid.dv * e_sq)),
        div_h_linf=med.eps * h_linf,
        div_h_l2=float(np.sqrt(med.eps * grid.dv * h_sq)),
    )


def _div(pieces, grid: GridSpec, total: np.ndarray, term: np.ndarray) -> tuple[float, float]:
    """(max |div|, sum div^2) of the sum of diff(*piece) over `pieces`, formed in `total`
    with each later term in `term`."""
    div = None
    for u, axis in pieces:
        shape = tuple(m - (d == axis) for d, m in enumerate(u.shape))
        d = diff(u, axis, grid, out=_shaped(term if div is not None else total, shape))
        div = d if div is None else np.add(div, d, out=div)
    return (max_abs(div) if div.size else 0.0), _ssq(div)


# ---------------------------------------------------------------------------
# Per-level energy reporting
# ---------------------------------------------------------------------------

def _tick_sums(curr: FieldState, prev: FieldState | None, med: Medium, grid: GridSpec,
               axes: str, reference=None) -> tuple[StateSums, StateSums | None]:
    """The sums of u and, when `prev` is given, of (u - u_prev)/dt (else None); one pass
    per state.  u is `curr` or, given `reference`, its error: reference minus numeric,
    where `reference(t, grid, med, lazy=True)` returns one sampler per component of the
    solution graded against (see `manufactured._flow`).

    The difference is a s - b s per component, s = 1/dt, with a s formed in scratch or in
    a's own arrays: the same bits as forming it in fresh arrays.  Without a reference it
    goes into prev's arrays, so `prev` is consumed (the E walls of two PEC levels stay
    exact zeros, as a stage's `out` needs); with one, into the error's arrays, prev's
    error sampled into one lattice of scratch per part, and `prev` is left as it was."""
    check_extents(curr, grid)

    def on_parts(job, *scratch):  # job(names, *scratch) for the E names and for the H names
        return _on_halves(grid, lambda *s: job(COMPONENTS[:3], *s),
                          lambda *s: job(COMPONENTS[3:], *s), *scratch)

    u = curr
    if reference is not None:  # the error in a whole state made here
        u = FieldState(*(np.empty(a.shape) for _, a in curr.components()),
                       time_level=curr.time_level)
        sample = reference(curr.time_level * grid.dt, grid, med, lazy=True)

        def error(names):
            for name in names:
                e = sample[name](getattr(u, name))
                np.subtract(e, getattr(curr, name), out=e)

        on_parts(error)
        del sample  # each sampler holds a plane: none is alive during the sums
    now = state_sums(u, med, grid, axes)
    if prev is None:
        return now, None
    if abs(curr.time_level - prev.time_level - 1.0) > 1e-9:
        raise ValueError(
            f"expected consecutive whole levels, got {prev.time_level} -> {curr.time_level}")
    check_extents(prev, grid)
    s, own, before = 1.0 / grid.dt, prev, None
    if reference is not None:  # into the error's arrays, prev's error sampled into scratch
        own, before = u, reference(prev.time_level * grid.dt, grid, med, lazy=True)

    def difference(names, scratch):
        for name in names:
            a, b = getattr(u, name), getattr(prev, name)
            w = _shaped(scratch, a.shape)
            if before is not None:  # b: prev's error, in the scratch; a s in a's arrays
                b, w = np.subtract(before[name](w), b, out=w), a
            np.subtract(np.multiply(a, s, out=w), np.multiply(b, s, out=b),
                        out=getattr(own, name))

    on_parts(difference, max(a.size for _, a in curr.components()), 1)
    del before
    return now, state_sums(FieldState(*(getattr(own, n) for n in COMPONENTS),
                                      time_level=0.5 * (prev.time_level + curr.time_level)),
                           med, grid, axes)


def energy_report(curr: FieldState, prev: FieldState | None, med: Medium, grid: GridSpec,
                  axes: str = "xyz") -> tuple[StateSums, StateSums | None]:
    """The sums of `curr` and, when `prev` is given, of (curr - prev)/dt (else None).
    `prev` is consumed: its arrays hold the difference afterwards (see `_tick_sums`), so a
    caller that reads prev again passes a copy."""
    return _tick_sums(curr, prev, med, grid, axes)


def energy_suite(curr: FieldState, prev: FieldState | None, med: Medium,
                 grid: GridSpec) -> tuple[StateSums, StateSums | None]:
    """`energy_report` along the x axis alone: the sums an energy audit reads (prev is
    consumed likewise)."""
    return _tick_sums(curr, prev, med, grid, "x")
