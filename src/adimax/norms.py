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
sums of one pass over a state, `state_sums`.  It forms the six
curl pieces once, split_curl_pos(E) = (d_y ez, d_z ex, d_x ey) and
split_curl_neg(H) = (d_z hy, d_x hz, d_y hx), for the L2 perturbation sums,
the dt^2 partners of the three H1 sums (each piece differenced along the axis)
and the wall-plane partners.  The H1 index table is written once, for x, in
roles: for axis a, role r is array axis (a + r) % 3 and the components
(x, y, z) are read as (a, a+1, a+2), exact because the scheme and the norms
are invariant under that cyclic relabeling.

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

from dataclasses import dataclass, fields

import numpy as np

# rotate_state is unused here; perfbench traces this name to count rotation copies
from .grid import FieldState, GridSpec, Medium, check_extents, rotate_state  # noqa: F401
from .operators import diff, split_curl_neg, split_curl_pos, time_diff

_AXES = {"x": 0, "y": 1, "z": 2}


def format_value(x) -> str:
    """CSV cell: 17 significant digits, '.' decimal separator; empty for None."""
    if x is None:
        return ""
    return f"{float(x):.17g}"


def _ssq(a: np.ndarray, buf: np.ndarray | None = None) -> float:
    """Sum of squares; `buf`, a flat scratch array, takes the squares if given."""
    if a.size == 0:
        return 0.0
    out = None if buf is None else buf[:a.size].reshape(a.shape)
    return float(np.add.reduce(np.square(a, out=out), axis=None))  # np.sum, less overhead


def _dssq(u: np.ndarray, axis: int, h: float, idx: tuple, buf: np.ndarray) -> float:
    """_ssq of diff(u, axis) restricted to the index tuple `idx`, formed in `buf`
    (the 1/h^2 is applied to the sum, not to every entry)."""
    start, stop, _ = idx[axis].indices(u.shape[axis] - 1)
    hi, lo = list(idx), list(idx)
    hi[axis], lo[axis] = slice(start + 1, stop + 1), slice(start, stop)
    upper, lower = u[tuple(hi)], u[tuple(lo)]
    return _ssq(np.subtract(upper, lower, out=buf[:upper.size].reshape(upper.shape)), buf) / h**2


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
    nx, ny, nz = grid.cells
    eps, mu, dv = med.eps, med.mu, grid.dv
    buf = np.empty((nx + 1) * (ny + 1) * (nz + 1))
    hx, hy, hz = state.h_triple()
    pos = split_curl_pos(state.e_triple(), grid)
    # curl_neg H is only ever read on the E sets: drop the H planes that miss them
    neg = split_curl_neg((hx[1:nx], hy[:, 1:ny], hz[:, :, 1:nz]), grid)
    neg_sq = [_ssq(c, buf) for c in neg]
    h1 = {axis: _h1(state, pos, neg, neg_sq, _AXES[axis], med, grid, buf) for axis in axes}
    e_sq = electric_norm_sq(state.e_triple(), eps, grid, buf)
    h_sq = magnetic_norm_sq(state.h_triple(), mu, grid, buf)
    curl_neg_h = mu * dv * sum(neg_sq)
    # the last read of the cyclic pieces, so they are squared in place
    curl_pos_e = eps * dv * sum(_ssq(p, p.reshape(-1)) for p in pos)
    q = grid.dt ** 2 / (4.0 * eps * mu)
    l2_core = e_sq + h_sq
    return StateSums(e_sq, h_sq, curl_pos_e, curl_neg_h, l2_core,
                     l2_core + q * (curl_neg_h + curl_pos_e), h1)


def _h1(state: FieldState, pos, neg, neg_sq, a: int, med: Medium, grid: GridSpec,
        buf: np.ndarray) -> tuple[float, float]:
    """(core, full) H1-type energy along axis a from the curl pieces; neg_sq[k] = ssq(neg[k]).

    Written for a = 0 (x) with roles: `_ix(a, s0, s1, s2)` puts s_r on array
    axis (a + r) % 3, and e0, e1, e2 are (ex, ey, ez) for a = 0.
    """
    n0, n1, n2 = _roles(grid.cells, a)
    h0, h1, h2 = _roles((grid.dx, grid.dy, grid.dz), a)
    e0, _, e2 = _roles(state.e_triple(), a)
    m0, m1, _ = _roles(state.h_triple(), a)
    p0, p1, p2 = _roles(pos, a)      # (d_y e2, d_z e0, d_x e1) in roles
    c0, c1, c2 = _roles(neg, a)      # (d_z m1, d_x m2, d_y m0), trimmed on roles 1, 2, 0
    eps, mu = med.eps, med.mu
    q = grid.dt ** 2 / (4.0 * eps * mu)
    every, inner = slice(None), slice(1, n0 - 1)
    ix = lambda *roles: _ix(a, *roles)
    d0 = lambda u, *roles: _dssq(u, a, h0, ix(*roles), buf)

    # x-differenced component energies.  Each sum runs over the set where the
    # x-differenced update equation for that component holds: E components on
    # their interior sets, H components with wall-adjacent x entries dropped
    # (those pencils are accounted for by the wall-plane terms below).
    vol = eps * (d0(e0, every, slice(1, n1), slice(1, n2))      # integer x in [1, nx-1]
                 + _ssq(p2[ix(inner, every, slice(1, n2))], buf)  # half x in [3/2, nx-3/2]
                 + d0(e2, inner, slice(1, n1)))
    vol += mu * (d0(m0, inner)
                 + d0(m1, every, slice(1, n1))
                 + _roles(neg_sq, a)[1])                    # d_x m2 is the piece c1

    faces = sum(face_norm_sq(state, "xyz"[a], med, grid))

    # dt^2 partners: x-differenced anticyclic curl of H on the E sets and
    # cyclic curl of E on the H sets, paired term by term with the sums above.
    pert = mu * (d0(c0) + d0(c1) + d0(c2))
    pert += eps * (d0(p0, inner)
                   + d0(p1, every, slice(1, n1))
                   + d0(p2, every, every, slice(1, n2)))

    # wall-plane partners: anticyclic-curl slots (d_x hz, d_y hx) on the E
    # planes, cyclic-curl slot d_y ez on the H planes
    cb = h1 * h2 / h0
    fpert = 0.0
    for ip in (1, n0 - 1):
        fpert += mu * (_ssq(c1[ix(ip - 1)], buf) + _ssq(c2[ix(ip - 1)], buf))
        fpert += eps * _ssq(p0[ix(ip)], buf)
    return grid.dv * vol + faces, grid.dv * (vol + q * pert) + faces + q * cb * fpert


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


def _dt_state(prev: FieldState, curr: FieldState, grid: GridSpec) -> FieldState:
    _check_consecutive(prev, curr)
    return time_diff(curr, prev, grid.dt)


# ---------------------------------------------------------------------------
# Divergence diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivergenceReport:
    """Discrete divergence magnitudes of eps*E (interior nodes) and mu*H (cell centers)."""

    time_level: float
    div_e_linf: float
    div_e_l2: float
    div_h_linf: float
    div_h_l2: float

    CSV_HEADER = "time_level,DivE_Linf,DivE_L2,DivH_Linf,DivH_L2"

    def csv_row(self) -> str:
        return ",".join(format_value(getattr(self, f.name)) for f in fields(self))


def divergence(state: FieldState, med: Medium, grid: GridSpec):
    """Divergence report plus the raw node lattices (E at interior nodes, H at centers).

    The quadratic form carries an eps weight for both fields, and the max norm
    scales the raw divergence by eps as well.
    """
    check_extents(state, grid)
    nx, ny, nz = grid.cells
    div_e = diff(state.ex[:, 1:ny, 1:nz], 0, grid)
    div_e += diff(state.ey[1:nx, :, 1:nz], 1, grid)
    div_e += diff(state.ez[1:nx, 1:ny, :], 2, grid)
    div_h = diff(state.hx, 0, grid)
    div_h += diff(state.hy, 1, grid)
    div_h += diff(state.hz, 2, grid)
    report = DivergenceReport(
        time_level=state.time_level,
        div_e_linf=med.eps * (float(np.max(np.abs(div_e))) if div_e.size else 0.0),
        div_e_l2=float(np.sqrt(med.eps * grid.dv * _ssq(div_e))),
        div_h_linf=med.eps * float(np.max(np.abs(div_h))),
        div_h_l2=float(np.sqrt(med.eps * grid.dv * _ssq(div_h))),
    )
    return report, div_e, div_h


# ---------------------------------------------------------------------------
# Per-level energy reporting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyReport:
    """Conserved functionals and their building blocks at one time level.

    The dt-variants need the previous whole level; they are None on the first
    report of a run.  Values are squared energies; take square roots only at
    the presentation layer.
    """

    time_level: float
    h1_x: float
    h1_y: float
    h1_z: float
    l2: float
    e_sq: float
    h_sq: float
    curl_pos_e: float
    curl_neg_h: float
    h1t_x: float | None = None
    h1t_y: float | None = None
    h1t_z: float | None = None
    l2t: float | None = None

    CSV_HEADER = ("time_level,Q_h1x,Q_h1y,Q_h1z,Q_l2,E_sq,H_sq,CurlPosE_sq,CurlNegH_sq,"
                  "Q_h1tx,Q_h1ty,Q_h1tz,Q_l2t")

    def csv_row(self) -> str:
        return ",".join(format_value(getattr(self, f.name)) for f in fields(self))


def energy_report(curr: FieldState, prev: FieldState | None, med: Medium,
                  grid: GridSpec) -> EnergyReport:
    """One pass over `curr` and, when `prev` is given, one over (curr - prev)/dt."""
    s = state_sums(curr, med, grid)
    dt_part = ()
    if prev is not None:
        d = state_sums(_dt_state(prev, curr, grid), med, grid)
        dt_part = (*(d.h1[a][1] for a in "xyz"), d.l2)
    return EnergyReport(curr.time_level, *(s.h1[a][1] for a in "xyz"), s.l2, s.e_sq, s.h_sq,
                        s.curl_pos_e, s.curl_neg_h, *dt_part)


def energy_suite(curr: FieldState, prev: FieldState | None, med: Medium, grid: GridSpec) -> dict:
    """The squared experiment norms: H1-type (x axis) and L2-type, full and core,
    plus the dt-variants when a previous level is supplied; one pass per state."""
    s = state_sums(curr, med, grid, axes="x")
    d = None if prev is None else state_sums(_dt_state(prev, curr, grid), med, grid, axes="x")
    out = {}
    for t, sums in (("", s), ("t", d)):
        keys = (f"norm1{t}_sq", f"norm2{t}_sq", f"norm1{t}_core_sq", f"norm2{t}_core_sq")
        out.update(dict.fromkeys(keys) if sums is None else
                   zip(keys, (sums.h1["x"][1], sums.l2, sums.h1["x"][0], sums.l2_core)))
    return out
