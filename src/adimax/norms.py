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
norms |E|_E^2, |H|_H^2 are partial sums of one pass over a field, `state_sums`
for a state, the one way to any lattice norm.  It runs in two independent
halves: the E half takes every lattice sum of E and of the curl pieces (d_y ez,
d_z ex, d_x ey), and per axis the tangential-E wall planes; the H half those of
H and of (d_z hy, d_x hz, d_y hx), trimmed to the E sets, and the normal-H wall
planes.  Every one of these sums reads one component lattice, so each half
takes its components in turn (`_e_sums`, `_h_sums`): a component's own sums,
and its piece, formed in scratch, with the piece's sums, for every axis of the
pass by the component's or piece's role (`_E_OWN`, `_E_PIECES`, `_H_OWN`,
`_H_PIECES`; see `energy_h1`).  The halves add nothing: `_field_sums` is the
one place where terms are added, each in a fixed order, so the sums are bit for
bit the same on one thread or two.  A report tick takes its functionals as
pairs of such records from one routine, `_tick_sums`: the sums of a field u and
of its time difference, where u is a level (`energy_report`; `energy_suite`
along x alone) or its error against a reference solution
(`manufactured.metrics`).  It forms u and the difference a component at a time,
in the lattice it reads them from, in scratch or in the previous level's
arrays, so that a tick makes no whole-state temporary: no error state and no
time-difference state.  Which sum fills which CSV column is for `harness` alone
to say.

Every whole-lattice pass of a report tick runs as an E part and an H part
through `stepper.halves`, the one hand-off to the worker: the tick
functionals' one pass (E components, H components) and the divergence (each
field's lattice, formed and reduced).  From `stepper._THREAD_MIN` cells on,
with two usable cores, the H part runs on the worker; below it both parts run
here in turn, on one set of scratch.  A part's scratch is a piece lattice and
a buffer and, when u is an error, an error lattice: two or three lattices a
thread, about a third or a half of a state a thread, made as `halves` says.
Each entry comes from the same operations in the same order either way, so
every output is bit-identical on one thread or two.  Pass time on two threads
against one in %, medians of 31 interleaved calls (15 at 100^3), two runs
(at 64^3 one thread takes 38-41 ms for energy_report, 30-31 for metrics):

    pass           20^3    28^3    32^3  36^3    40^3    48^3    64^3    100^3
    energy_report  +61/+70 +34/+25 +0/+1 -14/-26 -25/-25 -35/-37 -34/-38 -33/-42
    energy_suite   +71/+64 +27/+23 -2/+5  -7/-22 -21/-22 -30/-33 -32/-36 -34/-38
    metrics        +54/+50 +14/+9  -3/-4 -11/-20 -24/-25 -28/-34 -33/-37 -41/-35
    divergence    +110/+75 +32/+21 +5/+4  +3/-5   -6/-14 -18/-23 -20/-23 -26/-34

40^3 to 47^3 stay on one thread: they see one grading per grid of a convergence
study, where threading saves ~2 ms and starting the worker costs ~2.7 MiB
resident (tick-dense's two seed-1 64^3 ops in a fresh process: 75.27 MiB against
72.60 with the tick passes in turn, medians of eight processes a side, 2-vCPU VM).

The index ranges of each squared sum are not arbitrary: they are exactly the
sets on which the corresponding half-update equation holds, which is what
makes every summation-by-parts cancellation close without remainder.  Getting
a single range wrong breaks exact conservation, so the invariance tests are
the authoritative check on the role tables below.  Weights follow the field
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


def _shaped(buf: np.ndarray, shape: tuple) -> np.ndarray:
    """The leading entries of a flat buffer, as an array of `shape`."""
    return buf[:math.prod(shape)].reshape(shape)


def _diff_in(u: np.ndarray, axis: int, grid: GridSpec, buf: np.ndarray) -> np.ndarray:
    """diff(u, axis), formed in the leading entries of the flat buffer `buf`."""
    shape = tuple(m - (d == axis) for d, m in enumerate(u.shape))
    return diff(u, axis, grid, out=_shaped(buf, shape))


def state_sums(state: FieldState, med: Medium, grid: GridSpec, axes: str = "xyz") -> StateSums:
    """Every quadratic functional of `state` in one pass: the L2-type energy and
    its parts, and the directional H1-type energies along `axes`."""
    return _tick_sums(state, None, med, grid, axes)[0]


def _role_sums(u: np.ndarray, k: int, roles, axes, grid: GridSpec, buf: np.ndarray) -> dict:
    """Per axis a, the sums of u, a half's component or piece k, by its role for a:
    roles(n0, n1, n2)[(k - a) % 3] is the index set of u's d_a sum (None: no d_a sum),
    then those of its plain sums."""
    by_axis = {}
    for a in axes:
        diffed, *plain = roles(*_roles(grid.cells, a))[(k - a) % 3]
        d_a = () if diffed is None else (_dssq(u, a, grid, buf, *diffed),)
        by_axis[a] = (*d_a, *(_ssq(u[_ix(a, *s)]) for s in plain))
    return by_axis


_ALL = slice(None)
# roles of the E pieces (d_y e2, d_z e0, d_x e1): d_x sums; H planes i' = 1, nx-1; d_x
# e1's vol term
_E_PIECES = lambda n0, n1, n2: (  # noqa: E731
    ((slice(1, n0 - 1),), (1,), (n0 - 1,)), ((_ALL, slice(1, n1)),),
    ((_ALL, _ALL, slice(1, n2)), (slice(1, n0 - 1), _ALL, slice(1, n2))))
# roles of (e0, e1, e2): x-differenced energies on the sets where their update equations
# hold, integer x in [1, nx-1] (e0), then ez (e2); the wall planes i' = 1, nx-1,
# tangential ey on interior z (e1) and ez on interior y (e2)
_E_OWN = lambda n0, n1, n2: (  # noqa: E731
    ((_ALL, slice(1, n1), slice(1, n2)),),
    (None, (1, _ALL, slice(1, n2)), (n0 - 1, _ALL, slice(1, n2))),
    ((slice(1, n0 - 1), slice(1, n1)), (1, slice(1, n1)), (n0 - 1, slice(1, n1))))
# roles of the H pieces (d_z m1, d_x m2, d_y m0), trimmed to the E sets (the only ones
# read): d_x sums; the planes i' - 1 next to the E planes
_H_PIECES = lambda n0, n1, n2: (((),), ((), (0,), (n0 - 2,)), ((), (0,), (n0 - 2,)))  # noqa: E731
# roles of (m0, m1, m2), wall-adjacent x entries dropped (the wall-plane terms hold those
# pencils): the d_x sums of m0 and m1, and m0's wall planes
_H_OWN = lambda n0, n1, n2: (  # noqa: E731
    ((slice(1, n0 - 1),), (1,), (n0 - 1,)), ((_ALL, slice(1, n1)),), (None,))


def _e_sums(c: int, u: np.ndarray, grid: GridSpec, axes, piece, buf) -> tuple:
    """The sums of E component c (ex, ey, ez) on its lattice u: its interior sum of squares,
    the sum of squares of its piece, (c + 1) % 3, formed in `piece`, and per axis the
    piece's sums and u's own by their roles."""
    n = _roles(grid.cells, c)  # each E lattice on its interior nodes, every half-offset index
    p = _diff_in(u, (c + 2) % 3, grid, piece)
    return (_ssq(u[_ix(c, _ALL, slice(1, n[1]), slice(1, n[2]))]), _ssq(p),
            _role_sums(p, (c + 1) % 3, _E_PIECES, axes, grid, buf),
            _role_sums(u, c, _E_OWN, axes, grid, buf))


def _h_sums(c: int, u: np.ndarray, grid: GridSpec, axes, piece, buf) -> tuple:
    """The sums of H component c (hx, hy, hz) on its lattice u: its sum of squares, the sum
    of squares of its piece, (c + 2) % 3, formed in `piece`, and per axis the piece's sums
    and u's own by their roles."""
    p = _diff_in(u[_ix(c, slice(1, -1))], (c + 1) % 3, grid, piece)
    return (_ssq(u), _ssq(p), _role_sums(p, (c + 2) % 3, _H_PIECES, axes, grid, buf),
            _role_sums(u, c, _H_OWN, axes, grid, buf))


def _field_sums(e, h, med: Medium, grid: GridSpec, axes: str) -> StateSums:
    """The StateSums of one field from the sums of its E components, e = (ex, ey, ez) from
    `_e_sums`, and of its H components, h = (hx, hy, hz) from `_h_sums`: the one place
    where terms are added, each in a fixed order."""
    (ex, ey, ez), (hx, hy, hz), eps, mu = e, h, med.eps, med.mu
    q, by_axis = grid.dt ** 2 / (4.0 * eps * mu), {}
    for axis in axes:
        a = _AXES[axis]
        cb = _cb(grid, a)
        # by role, the pieces of e2, e0 and e1 are pieces a, a + 1 and a + 2; of m1, m2, m0 too
        ((t1,), (v0,)), ((t2, v1), (q1, qn)), ((t0, f1, f2), (v2, r1, rn)) = (
            (c[2][a], c[3][a]) for c in _roles(e, a))
        m0, m1, m2 = _roles(h, a)
        ((s2, k1, k2), (w0, p1, pn)), ((s0,), (w1,)), ((s1, g1, g2), ()) = (
            (m[2][a], m[3][a]) for m in (m0, m1, m2))
        vol = eps * (v0 + v1 + v2) + mu * (w0 + w1 + m2[1])
        pert = mu * (s0 + s1 + s2) + eps * (t0 + t1 + t2)
        fpert = mu * (g1 + k1) + eps * f1 + mu * (g2 + k2) + eps * f2  # i' = 1, nx-1
        faces = eps * cb * ((q1 + r1) + (qn + rn)) + mu * cb * (p1 + pn)
        by_axis[axis] = (grid.dv * vol + faces,
                         grid.dv * (vol + q * pert) + faces + q * cb * fpert)
    e_sq, h_sq = eps * grid.dv * (ex[0] + ey[0] + ez[0]), mu * grid.dv * (hx[0] + hy[0] + hz[0])
    curl_pos_e = eps * grid.dv * (ez[1] + ex[1] + ey[1])  # the pieces d_y ez, d_z ex, d_x ey
    curl_neg_h = mu * grid.dv * (hy[1] + hz[1] + hx[1])  # the pieces d_z hy, d_x hz, d_y hx
    l2_core = e_sq + h_sq
    return StateSums(e_sq, h_sq, curl_pos_e, curl_neg_h, l2_core,
                     l2_core + q * (curl_neg_h + curl_pos_e), by_axis)


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
    lattice formed and reduced by one part of `halves` in scratch made here."""
    check_extents(state, grid)
    nx, ny, nz = grid.cells
    e_pieces = ((state.ex[:, 1:ny, 1:nz], 0), (state.ey[1:nx, :, 1:nz], 1),
                (state.ez[1:nx, 1:ny, :], 2))
    h_pieces = ((state.hx, 0), (state.hy, 1), (state.hz, 2))
    # each differenced piece and each divergence has at most nx ny nz entries
    cells = math.prod(grid.cells)
    (e_linf, e_sq), (h_linf, h_sq) = halves(
        cells, lambda *scratch: _div(e_pieces, grid, *scratch),
        lambda *scratch: _div(h_pieces, grid, *scratch), (cells,) * 2)
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
        d = _diff_in(u, axis, grid, term if div is not None else total)
        div = d if div is None else np.add(div, d, out=div)
    return (max_abs(div) if div.size else 0.0), _ssq(div)


# ---------------------------------------------------------------------------
# Per-level energy reporting
# ---------------------------------------------------------------------------

def _tick_sums(curr: FieldState, prev: FieldState | None, med: Medium, grid: GridSpec,
               axes: str, reference=None) -> tuple[StateSums, StateSums | None]:
    """The sums of u and, when `prev` is given, of (u - u_prev)/dt (else None), in one pass
    over the components.  u is `curr` or, given `reference`, its error: reference minus
    numeric, where `reference(t, grid, med, lazy=True)` returns one sampler per component of
    the solution graded against (see `manufactured._flow`).

    Each part takes its components in turn, and for each the terms of u and then those of
    its difference, a s - b s with s = 1/dt, formed with a s in scratch or in a's own
    lattice: the same bits as forming it in fresh arrays.  Without a reference u is curr's
    lattice and the difference goes into prev's, so `prev` is consumed (the E walls of two
    PEC levels stay exact zeros, as a stage's `out` needs).  With one, u is sampled into
    an error lattice of scratch, prev's error into the piece scratch, and the difference
    goes into the error lattice; `prev` is left as it was.  Each part holds a piece and a
    buffer of scratch and, with a reference, an error lattice: no whole state."""
    check_extents(curr, grid)
    if prev is not None:
        if abs(curr.time_level - prev.time_level - 1.0) > 1e-9:
            raise ValueError(f"expected consecutive whole levels, got {prev.time_level} -> "
                             f"{curr.time_level}")
        check_extents(prev, grid)
    idx, s = [_AXES[axis] for axis in axes], 1.0 / grid.dt
    if reference is not None:  # one sampler per component: u's reference, then prev's
        sampled = [reference(level.time_level * grid.dt, grid, med, lazy=True)
                   for level in (curr, prev) if level is not None]

    def lattices(name, piece, error):  # u's lattice of `name`, then its time difference's
        a = getattr(curr, name)
        if error is not None:
            e = _shaped(error, a.shape)
            a = np.subtract(sampled[0][name](e), a, out=e)
        yield a
        if prev is not None:
            b = own = getattr(prev, name)
            w = _shaped(piece, a.shape)
            if error is not None:  # b: prev's error, in the piece scratch; a s in a's lattice
                b, w, own = np.subtract(sampled[1][name](w), b, out=w), a, a
            yield np.subtract(np.multiply(a, s, out=w), np.multiply(b, s, out=b), out=own)

    def part(sums, names):  # per field, the sums of each component, taken in turn
        return lambda piece, buf, error=None: zip(*(
            [sums(c, v, grid, idx, piece, buf) for v in lattices(name, piece, error)]
            for c, name in enumerate(names)))

    # a piece, prev's error and a s fit in a component lattice; each difference that _dssq
    # forms, at most n_a - 1 entries along its axis a and n_b across, in the buffer
    cells = math.prod(grid.cells)
    lattice = max(a.size for _, a in curr.components())
    sizes = (lattice, cells - cells // max(grid.cells)) + (lattice,) * (reference is not None)
    e_fields, h_fields = halves(cells, part(_e_sums, COMPONENTS[:3]),
                                part(_h_sums, COMPONENTS[3:]), sizes)
    u, *difference = (_field_sums(e, h, med, grid, axes) for e, h in zip(e_fields, h_fields))
    return u, (difference[0] if difference else None)


def energy_report(curr: FieldState, prev: FieldState | None, med: Medium,
                  grid: GridSpec) -> tuple[StateSums, StateSums | None]:
    """The sums of `curr` and, when `prev` is given, of (curr - prev)/dt (else None).
    `prev` is consumed: its arrays hold the difference afterwards (see `_tick_sums`), so a
    caller that reads prev again passes a copy."""
    return _tick_sums(curr, prev, med, grid, "xyz")


def energy_suite(curr: FieldState, prev: FieldState | None, med: Medium,
                 grid: GridSpec) -> tuple[StateSums, StateSums | None]:
    """`energy_report` along the x axis alone: the sums an energy audit reads (prev is
    consumed likewise)."""
    return _tick_sums(curr, prev, med, grid, "x")
