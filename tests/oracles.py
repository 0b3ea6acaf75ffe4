"""Independent naive reference implementations used to cross-check the package.

Everything here is written with explicit triple loops and longhand difference
quotients (or dense linear algebra for the implicit solves), deliberately
avoiding the package's vectorized kernels, slicing tables, and axis-rotation
tricks.  Only meant for tiny grids.  The exceptions are the whole-array
formulas (`residual_formula`, `state_sums_formula`), which repeat a kernel's
operations in its order on whole arrays so that the two agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from adimax import COMPONENTS, FieldState, GridSpec
from adimax.norms import StateSums


def dense_tridiag_solve(lam: float, rhs: np.ndarray) -> np.ndarray:
    """Dense Gaussian elimination for the (1+2lam, -lam) Dirichlet system."""
    m = len(rhs)
    a = np.zeros((m, m))
    for p in range(m):
        a[p, p] = 1.0 + 2.0 * lam
        if p > 0:
            a[p, p - 1] = -lam
        if p + 1 < m:
            a[p, p + 1] = -lam
    return np.linalg.solve(a, rhs)


def mode_component(comp: str, t, x, y, z):
    """One component of the (1,1,1) cavity mode (eps = mu = 1) at any coordinates
    (broadcasting), written out from its closed form: E varies as cos(omega t),
    H as sin(omega t), and each axis contributes cos(pi(1-u)) or sin(pi(1-u))."""
    amplitude = {"ex": math.sqrt(3) / 4, "ey": math.sqrt(3) / 2, "ez": -3 * math.sqrt(3) / 4,
                 "hx": -5 / 4, "hy": 1.0, "hz": 1 / 4}[comp]
    cos_axes = {"ex": "x", "ey": "y", "ez": "z", "hx": "yz", "hy": "xz", "hz": "xy"}[comp]
    omega = math.sqrt(3) * math.pi
    out = amplitude * (math.cos(omega * t) if comp.startswith("e") else math.sin(omega * t))
    for axis, u in zip("xyz", (x, y, z)):
        phase = math.pi * (1.0 - np.asarray(u, dtype=float))
        out = out * (np.cos(phase) if axis in cos_axes else np.sin(phase))
    return out


def norm_e_loop(u, weight, grid):
    ux, uy, uz = u
    nx, ny, nz = grid.cells
    s = 0.0
    for i in range(nx):
        for j in range(1, ny):
            for k in range(1, nz):
                s += ux[i, j, k] ** 2
    for i in range(1, nx):
        for j in range(ny):
            for k in range(1, nz):
                s += uy[i, j, k] ** 2
    for i in range(1, nx):
        for j in range(1, ny):
            for k in range(nz):
                s += uz[i, j, k] ** 2
    return weight * grid.dv * s


def norm_h_loop(v, weight, grid):
    vx, vy, vz = v
    s = float(sum((arr ** 2).sum() for arr in (vx, vy, vz)))
    return weight * grid.dv * s


def lincomb(a: float, s: FieldState, b: float, t: FieldState,
            time_level: float | None = None) -> FieldState:
    """Componentwise a*s + b*t, labeled at `time_level` (default: s's level)."""
    arrays = [a * getattr(s, c) + b * getattr(t, c) for c in COMPONENTS]
    return FieldState(*arrays, time_level=s.time_level if time_level is None else time_level)


def time_diff(u_next: FieldState, u_prev: FieldState, span: float) -> FieldState:
    """Componentwise (u_next - u_prev) / span in fresh arrays, labeled at the midpoint
    level: the time difference the tick functionals form in the previous level's arrays."""
    s = 1.0 / span
    arrays = []
    for (name, a), (_, b) in zip(u_next.components(), u_prev.components()):
        if a.shape != b.shape:
            raise ValueError(f"component {name!r} shapes differ: {a.shape} vs {b.shape}")
        d = a * s
        d -= b * s
        arrays.append(d)
    return FieldState(*arrays, time_level=0.5 * (u_next.time_level + u_prev.time_level))


def split_curl_pos(u, grid):
    """Cyclic half of the discrete curl, (d_y u_z, d_z u_x, d_x u_y), by np.diff.

    Applied to an E-located triple the result lands on H locations and vice
    versa.  The full curl is split_curl_pos(u) - split_curl_neg(u).
    """
    ux, uy, uz = u
    return (np.diff(uz, axis=1) / grid.dy, np.diff(ux, axis=2) / grid.dz,
            np.diff(uy, axis=0) / grid.dx)


def split_curl_neg(u, grid):
    """Anticyclic half of the discrete curl, (d_z u_y, d_x u_z, d_y u_x), by np.diff."""
    ux, uy, uz = u
    return (np.diff(uy, axis=2) / grid.dz, np.diff(uz, axis=0) / grid.dx,
            np.diff(ux, axis=1) / grid.dy)


def rotate_grid(grid: GridSpec) -> GridSpec:
    """Grid under the cyclic axis map (x, y, z) -> (y, z, x)."""
    return replace(grid, nx=grid.ny, ny=grid.nz, nz=grid.nx)


def rotate_loop(state: FieldState) -> FieldState:
    """Cyclic axis relabeling via explicit index loops: out[a, b, c] = src[c, a, b]."""

    def rot(src):
        ni, nj, nk = src.shape
        out = np.zeros((nj, nk, ni))
        for a in range(nj):
            for b in range(nk):
                for c in range(ni):
                    out[a, b, c] = src[c, a, b]
        return out

    return FieldState(ex=rot(state.ey), ey=rot(state.ez), ez=rot(state.ex),
                      hx=rot(state.hy), hy=rot(state.hz), hz=rot(state.hx),
                      time_level=state.time_level)


def energy_l2_loop(state, med, grid, core=False):
    nx, ny, nz = grid.cells
    dx, dy, dz = grid.dx, grid.dy, grid.dz
    ex, ey, ez, hx, hy, hz = (getattr(state, c) for c in ("ex", "ey", "ez", "hx", "hy", "hz"))
    total = norm_e_loop((ex, ey, ez), med.eps, grid) + norm_h_loop((hx, hy, hz), med.mu, grid)
    if core:
        return total
    q = grid.dt ** 2 / (4.0 * med.eps * med.mu)
    s = 0.0
    # anticyclic curl of H on the E ranges (mu weight)
    for i in range(nx):
        for j in range(1, ny):
            for k in range(1, nz):
                s += med.mu * ((hy[i, j, k] - hy[i, j, k - 1]) / dz) ** 2
    for i in range(1, nx):
        for j in range(ny):
            for k in range(1, nz):
                s += med.mu * ((hz[i, j, k] - hz[i - 1, j, k]) / dx) ** 2
    for i in range(1, nx):
        for j in range(1, ny):
            for k in range(nz):
                s += med.mu * ((hx[i, j, k] - hx[i, j - 1, k]) / dy) ** 2
    # cyclic curl of E on the H ranges (eps weight)
    for i in range(nx + 1):
        for j in range(ny):
            for k in range(nz):
                s += med.eps * ((ez[i, j + 1, k] - ez[i, j, k]) / dy) ** 2
    for i in range(nx):
        for j in range(ny + 1):
            for k in range(nz):
                s += med.eps * ((ex[i, j, k + 1] - ex[i, j, k]) / dz) ** 2
    for i in range(nx):
        for j in range(ny):
            for k in range(nz + 1):
                s += med.eps * ((ey[i + 1, j, k] - ey[i, j, k]) / dx) ** 2
    return total + q * grid.dv * s


def energy_h1_loop(state, axis, med, grid, core=False):
    s, g = state, grid
    for _ in range({"x": 0, "y": 1, "z": 2}[axis]):
        s, g = rotate_loop(s), rotate_grid(g)
    return _h1x_loop(s, med, g, core)


def _h1x_loop(state, med, grid, core):
    nx, ny, nz = grid.cells
    dx, dy, dz = grid.dx, grid.dy, grid.dz
    eps, mu = med.eps, med.mu
    q = grid.dt ** 2 / (4.0 * eps * mu)
    ex, ey, ez, hx, hy, hz = (getattr(state, c) for c in ("ex", "ey", "ez", "hx", "hy", "hz"))
    vol = 0.0
    pert = 0.0
    # x-difference of ex at whole-x points, interior y/z nodes
    for i in range(1, nx):
        for j in range(1, ny):
            for k in range(1, nz):
                vol += eps * ((ex[i, j, k] - ex[i - 1, j, k]) / dx) ** 2
                pert += mu * (((hy[i, j, k] - hy[i, j, k - 1])
                               - (hy[i - 1, j, k] - hy[i - 1, j, k - 1])) / (dx * dz)) ** 2
    # x-difference of ey at inner half-x points
    for i in range(1, nx - 1):
        for j in range(ny):
            for k in range(1, nz):
                vol += eps * ((ey[i + 1, j, k] - ey[i, j, k]) / dx) ** 2
                pert += mu * ((hz[i + 1, j, k] - 2 * hz[i, j, k] + hz[i - 1, j, k]) / dx ** 2) ** 2
    # x-difference of ez at inner half-x points
    for i in range(1, nx - 1):
        for j in range(1, ny):
            for k in range(nz):
                vol += eps * ((ez[i + 1, j, k] - ez[i, j, k]) / dx) ** 2
                pert += mu * (((hx[i + 1, j, k] - hx[i + 1, j - 1, k])
                               - (hx[i, j, k] - hx[i, j - 1, k])) / (dx * dy)) ** 2
    # x-difference of hx at inner half-x points
    for i in range(1, nx - 1):
        for j in range(ny):
            for k in range(nz):
                vol += mu * ((hx[i + 1, j, k] - hx[i, j, k]) / dx) ** 2
                pert += eps * (((ez[i + 1, j + 1, k] - ez[i + 1, j, k])
                                - (ez[i, j + 1, k] - ez[i, j, k])) / (dx * dy)) ** 2
    # x-difference of hy at whole-x points, interior y nodes
    for i in range(1, nx):
        for j in range(1, ny):
            for k in range(nz):
                vol += mu * ((hy[i, j, k] - hy[i - 1, j, k]) / dx) ** 2
                pert += eps * (((ex[i, j, k + 1] - ex[i, j, k])
                                - (ex[i - 1, j, k + 1] - ex[i - 1, j, k])) / (dx * dz)) ** 2
    # x-difference of hz at whole-x points, interior z nodes
    for i in range(1, nx):
        for j in range(ny):
            for k in range(1, nz):
                vol += mu * ((hz[i, j, k] - hz[i - 1, j, k]) / dx) ** 2
                pert += eps * ((ey[i + 1, j, k] - 2 * ey[i, j, k] + ey[i - 1, j, k]) / dx ** 2) ** 2
    # wall planes
    cb = dy * dz / dx
    face = 0.0
    fpert = 0.0
    for ip in (1, nx - 1):
        for j in range(ny):
            for k in range(1, nz):
                face += eps * ey[ip, j, k] ** 2
                fpert += mu * ((hz[ip, j, k] - hz[ip - 1, j, k]) / dx) ** 2
        for j in range(1, ny):
            for k in range(nz):
                face += eps * ez[ip, j, k] ** 2
                fpert += mu * ((hx[ip, j, k] - hx[ip, j - 1, k]) / dy) ** 2
        for j in range(ny):
            for k in range(nz):
                face += mu * hx[ip, j, k] ** 2
                fpert += eps * ((ez[ip, j + 1, k] - ez[ip, j, k]) / dy) ** 2
    if core:
        return grid.dv * vol + cb * face
    return grid.dv * (vol + q * pert) + cb * (face + q * fpert)


def divergence_loop(state, med, grid):
    nx, ny, nz = grid.cells
    dx, dy, dz = grid.dx, grid.dy, grid.dz
    ex, ey, ez, hx, hy, hz = (getattr(state, c) for c in ("ex", "ey", "ez", "hx", "hy", "hz"))
    linf_e = l2_e = 0.0
    for i in range(1, nx):
        for j in range(1, ny):
            for k in range(1, nz):
                d = ((ex[i, j, k] - ex[i - 1, j, k]) / dx
                     + (ey[i, j, k] - ey[i, j - 1, k]) / dy
                     + (ez[i, j, k] - ez[i, j, k - 1]) / dz)
                linf_e = max(linf_e, med.eps * abs(d))
                l2_e += med.eps * d * d * grid.dv
    linf_h = l2_h = 0.0
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                d = ((hx[i + 1, j, k] - hx[i, j, k]) / dx
                     + (hy[i, j + 1, k] - hy[i, j, k]) / dy
                     + (hz[i, j, k + 1] - hz[i, j, k]) / dz)
                linf_h = max(linf_h, med.eps * abs(d))
                l2_h += med.eps * d * d * grid.dv
    return linf_e, math.sqrt(l2_e), linf_h, math.sqrt(l2_h)


def adi_step_loop(state, grid, med):
    """One full two-stage step via per-pencil dense solves and index loops."""
    nx, ny, nz = grid.cells
    dx, dy, dz = grid.dx, grid.dy, grid.dz
    dt = grid.dt
    eps, mu = med.eps, med.mu
    ce, ch = dt / (2 * eps), dt / (2 * mu)
    q = dt * dt / (4 * eps * mu)
    lx, ly, lz = (q / d ** 2 for d in (dx, dy, dz))
    ex, ey, ez, hx, hy, hz = (getattr(state, c).copy() for c in ("ex", "ey", "ez", "hx", "hy", "hz"))

    # --- stage one ---
    exn = np.zeros_like(ex)
    for i in range(nx):
        for k in range(1, nz):
            rhs = np.array([
                ex[i, j, k]
                + ce * ((hz[i, j, k] - hz[i, j - 1, k]) / dy - (hy[i, j, k] - hy[i, j, k - 1]) / dz)
                - q * ((ey[i + 1, j, k] - ey[i, j, k]) - (ey[i + 1, j - 1, k] - ey[i, j - 1, k])) / (dx * dy)
                for j in range(1, ny)])
            exn[i, 1:ny, k] = dense_tridiag_solve(ly, rhs)
    eyn = np.zeros_like(ey)
    for i in range(1, nx):
        for j in range(ny):
            rhs = np.array([
                ey[i, j, k]
                + ce * ((hx[i, j, k] - hx[i, j, k - 1]) / dz - (hz[i, j, k] - hz[i - 1, j, k]) / dx)
                - q * ((ez[i, j + 1, k] - ez[i, j, k]) - (ez[i, j + 1, k - 1] - ez[i, j, k - 1])) / (dy * dz)
                for k in range(1, nz)])
            eyn[i, j, 1:nz] = dense_tridiag_solve(lz, rhs)
    ezn = np.zeros_like(ez)
    for j in range(1, ny):
        for k in range(nz):
            rhs = np.array([
                ez[i, j, k]
                + ce * ((hy[i, j, k] - hy[i - 1, j, k]) / dx - (hx[i, j, k] - hx[i, j - 1, k]) / dy)
                - q * ((ex[i, j, k + 1] - ex[i, j, k]) - (ex[i - 1, j, k + 1] - ex[i - 1, j, k])) / (dz * dx)
                for i in range(1, nx)])
            ezn[1:nx, j, k] = dense_tridiag_solve(lx, rhs)
    hxn = np.zeros_like(hx)
    for i in range(nx + 1):
        for j in range(ny):
            for k in range(nz):
                hxn[i, j, k] = hx[i, j, k] + ch * ((eyn[i, j, k + 1] - eyn[i, j, k]) / dz
                                                   - (ez[i, j + 1, k] - ez[i, j, k]) / dy)
    hyn = np.zeros_like(hy)
    for i in range(nx):
        for j in range(ny + 1):
            for k in range(nz):
                hyn[i, j, k] = hy[i, j, k] + ch * ((ezn[i + 1, j, k] - ezn[i, j, k]) / dx
                                                   - (ex[i, j, k + 1] - ex[i, j, k]) / dz)
    hzn = np.zeros_like(hz)
    for i in range(nx):
        for j in range(ny):
            for k in range(nz + 1):
                hzn[i, j, k] = hz[i, j, k] + ch * ((exn[i, j + 1, k] - exn[i, j, k]) / dy
                                                   - (ey[i + 1, j, k] - ey[i, j, k]) / dx)

    # --- stage two ---
    exn2 = np.zeros_like(ex)
    for i in range(nx):
        for j in range(1, ny):
            rhs = np.array([
                exn[i, j, k]
                + ce * ((hzn[i, j, k] - hzn[i, j - 1, k]) / dy - (hyn[i, j, k] - hyn[i, j, k - 1]) / dz)
                - q * ((ezn[i + 1, j, k] - ezn[i, j, k]) - (ezn[i + 1, j, k - 1] - ezn[i, j, k - 1])) / (dx * dz)
                for k in range(1, nz)])
            exn2[i, j, 1:nz] = dense_tridiag_solve(lz, rhs)
    eyn2 = np.zeros_like(ey)
    for j in range(ny):
        for k in range(1, nz):
            rhs = np.array([
                eyn[i, j, k]
                + ce * ((hxn[i, j, k] - hxn[i, j, k - 1]) / dz - (hzn[i, j, k] - hzn[i - 1, j, k]) / dx)
                - q * ((exn[i, j + 1, k] - exn[i, j, k]) - (exn[i - 1, j + 1, k] - exn[i - 1, j, k])) / (dy * dx)
                for i in range(1, nx)])
            eyn2[1:nx, j, k] = dense_tridiag_solve(lx, rhs)
    ezn2 = np.zeros_like(ez)
    for i in range(1, nx):
        for k in range(nz):
            rhs = np.array([
                ezn[i, j, k]
                + ce * ((hyn[i, j, k] - hyn[i - 1, j, k]) / dx - (hxn[i, j, k] - hxn[i, j - 1, k]) / dy)
                - q * ((eyn[i, j, k + 1] - eyn[i, j, k]) - (eyn[i, j - 1, k + 1] - eyn[i, j - 1, k])) / (dz * dy)
                for j in range(1, ny)])
            ezn2[i, 1:ny, k] = dense_tridiag_solve(ly, rhs)
    hxn2 = np.zeros_like(hx)
    for i in range(nx + 1):
        for j in range(ny):
            for k in range(nz):
                hxn2[i, j, k] = hxn[i, j, k] + ch * ((eyn[i, j, k + 1] - eyn[i, j, k]) / dz
                                                     - (ezn2[i, j + 1, k] - ezn2[i, j, k]) / dy)
    hyn2 = np.zeros_like(hy)
    for i in range(nx):
        for j in range(ny + 1):
            for k in range(nz):
                hyn2[i, j, k] = hyn[i, j, k] + ch * ((ezn[i + 1, j, k] - ezn[i, j, k]) / dx
                                                     - (exn2[i, j, k + 1] - exn2[i, j, k]) / dz)
    hzn2 = np.zeros_like(hz)
    for i in range(nx):
        for j in range(ny):
            for k in range(nz + 1):
                hzn2[i, j, k] = hzn[i, j, k] + ch * ((exn[i, j + 1, k] - exn[i, j, k]) / dy
                                                     - (eyn2[i + 1, j, k] - eyn2[i, j, k]) / dx)
    return FieldState(exn2, eyn2, ezn2, hxn2, hyn2, hzn2, time_level=state.time_level + 1.0)


def residual_formula(before, after, grid, med, stage):
    """The stage residual as six whole-array expressions, one per coupled equation:
    what stepper._residual computes in place, with the same operations in the same
    order, so the two agree bit for bit."""
    nx, ny, nz = grid.cells
    dx, dy, dz = grid.dx, grid.dy, grid.dz
    ce = grid.dt / (2.0 * med.eps)
    ch = grid.dt / (2.0 * med.mu)
    lead, trail = (after, before) if stage == 1 else (before, after)
    worst = 0.0

    r = (after.ex - before.ex)[:, 1:ny, 1:nz] - ce * (
        (np.diff(lead.hz, axis=1) / dy)[:, :, 1:nz] - (np.diff(trail.hy, axis=2) / dz)[:, 1:ny, :])
    worst = max(worst, float(np.max(np.abs(r))))
    r = (after.ey - before.ey)[1:nx, :, 1:nz] - ce * (
        (np.diff(lead.hx, axis=2) / dz)[1:nx, :, :] - (np.diff(trail.hz, axis=0) / dx)[:, :, 1:nz])
    worst = max(worst, float(np.max(np.abs(r))))
    r = (after.ez - before.ez)[1:nx, 1:ny, :] - ce * (
        (np.diff(lead.hy, axis=0) / dx)[:, 1:ny, :] - (np.diff(trail.hx, axis=1) / dy)[1:nx, :, :])
    worst = max(worst, float(np.max(np.abs(r))))

    r = (after.hx - before.hx) - ch * (np.diff(lead.ey, axis=2) / dz - np.diff(trail.ez, axis=1) / dy)
    worst = max(worst, float(np.max(np.abs(r))))
    r = (after.hy - before.hy) - ch * (np.diff(lead.ez, axis=0) / dx - np.diff(trail.ex, axis=2) / dz)
    worst = max(worst, float(np.max(np.abs(r))))
    r = (after.hz - before.hz) - ch * (np.diff(lead.ex, axis=1) / dy - np.diff(trail.ey, axis=0) / dx)
    worst = max(worst, float(np.max(np.abs(r))))

    return worst / max(1.0, before.max_abs(), after.max_abs())


def _ssq(a):
    """Sum of squares, by the einsum the package takes it with."""
    sub = "ijk"[:a.ndim]
    return float(np.einsum(f"{sub},{sub}->", a, a)) if a.size else 0.0


def _ix(a, *roles):
    """Index tuple that applies roles[r] along array axis (a + r) % 3."""
    idx = [slice(None)] * 3
    for r, s in enumerate(roles):
        idx[(a + r) % 3] = s
    return tuple(idx)


def _rolled(seq, a):
    return tuple(seq[(a + r) % 3] for r in range(3))


def _dssq(u, a, grid, *roles):
    """Sum of squares of the axis-a difference quotient of u on the roles' index set."""
    idx = _ix(a, *roles)
    start, stop, _ = idx[a].indices(u.shape[a] - 1)
    hi, lo = list(idx), list(idx)
    hi[a], lo[a] = slice(start + 1, stop + 1), slice(start, stop)
    return _ssq(np.subtract(u[tuple(hi)], u[tuple(lo)])) / grid.spacing(a) ** 2


def _pieces_sums(pieces, roles, axes, grid):
    """Per whole-array piece diff(u, axis): its sum of squares and per axis a its role sums."""
    sq, by_role = [], {a: [()] * 3 for a in axes}
    for k, (u, axis) in enumerate(pieces):
        hi = (slice(None),) * axis + (slice(1, None),)
        lo = (slice(None),) * axis + (slice(None, -1),)
        p = np.subtract(u[hi], u[lo])
        p /= grid.spacing(axis)
        for a in axes:
            diffed, *plain = roles(*_rolled(grid.cells, a))[(k - a) % 3]
            by_role[a][(k - a) % 3] = (_dssq(p, a, grid, *diffed),
                                       *(_ssq(p[_ix(a, *s)]) for s in plain))
        sq.append(_ssq(p))
    return sq, by_role


def state_sums_formula(state, med, grid, axes="xyz"):
    """`norms.state_sums` from whole lattices: every piece of the curls formed whole, and
    the sums added in the package's fixed order, so that the two agree bit for bit."""
    idx, every = ["xyz".index(axis) for axis in axes], slice(None)
    e, m, eps, mu = state.e_triple(), state.h_triple(), med.eps, med.mu
    nx, ny, nz = grid.cells
    e_roles = lambda n0, n1, n2: (  # noqa: E731
        ((slice(1, n0 - 1),), (1,), (n0 - 1,)), ((every, slice(1, n1)),),
        ((every, every, slice(1, n2)), (slice(1, n0 - 1), every, slice(1, n2))))
    e_sqs, e_by = _pieces_sums([(e[2], 1), (e[0], 2), (e[1], 0)], e_roles, idx, grid)
    h_roles = lambda n0, n1, n2: (((),), ((), (0,), (n0 - 2,)), ((), (0,), (n0 - 2,)))  # noqa: E731
    h_sqs, h_by = _pieces_sums([(m[1][:, 1:-1], 2), (m[2][:, :, 1:-1], 0), (m[0][1:-1], 1)],
                               h_roles, idx, grid)
    q, by_axis = grid.dt ** 2 / (4.0 * eps * mu), {}
    for axis, a in zip(axes, idx):
        n0, n1, n2 = _rolled(grid.cells, a)
        e0, e1, e2 = _rolled(e, a)
        m0, m1, _ = _rolled(m, a)
        (t0, f1, f2), (t1,), (t2, v) = e_by[a]
        planes = [_ssq(e1[_ix(a, ip, every, slice(1, n2))]) + _ssq(e2[_ix(a, ip, slice(1, n1))])
                  for ip in (1, n0 - 1)]
        vol_e = eps * (_dssq(e0, a, grid, every, slice(1, n1), slice(1, n2)) + v
                       + _dssq(e2, a, grid, slice(1, n0 - 1), slice(1, n1)))
        cb = grid.spacing((a + 1) % 3) * grid.spacing((a + 2) % 3) / grid.spacing(a)
        pert_e, fe1, fe2 = eps * (t0 + t1 + t2), eps * f1, eps * f2
        face_e = eps * cb * (planes[0] + planes[1])
        (s0,), (s1, g1, g2), (s2, k1, k2) = h_by[a]
        vol_h = mu * (_dssq(m0, a, grid, slice(1, n0 - 1)) + _dssq(m1, a, grid, every, slice(1, n1))
                      + h_sqs[(a + 1) % 3])
        pert_h, fh1, fh2 = mu * (s0 + s1 + s2), mu * (g1 + k1), mu * (g2 + k2)
        face_h = mu * cb * (_ssq(m0[_ix(a, 1)]) + _ssq(m0[_ix(a, n0 - 1)]))
        vol, pert, fpert = vol_e + vol_h, pert_h + pert_e, fh1 + fe1 + fh2 + fe2
        faces = face_e + face_h
        by_axis[axis] = (grid.dv * vol + faces, grid.dv * (vol + q * pert) + faces + q * cb * fpert)
    e_sq = eps * grid.dv * (_ssq(e[0][:, 1:ny, 1:nz]) + _ssq(e[1][1:nx, :, 1:nz])
                            + _ssq(e[2][1:nx, 1:ny, :]))
    h_sq = mu * grid.dv * (_ssq(m[0]) + _ssq(m[1]) + _ssq(m[2]))
    curl_pos_e, curl_neg_h = eps * grid.dv * sum(e_sqs), mu * grid.dv * sum(h_sqs)
    l2_core = e_sq + h_sq
    return StateSums(e_sq, h_sq, curl_pos_e, curl_neg_h, l2_core,
                     l2_core + q * (curl_neg_h + curl_pos_e), by_axis)
