"""Closed-form cavity eigenmode for initialization and error measurement.

With eps = mu = 1 the fields

    e_x =  (sqrt(3)/4) cos(w t) cos(pi(1-x)) sin(pi(1-y)) sin(pi(1-z))
    e_y =  (sqrt(3)/2) cos(w t) sin(pi(1-x)) cos(pi(1-y)) sin(pi(1-z))
    e_z = -(3 sqrt(3)/4) cos(w t) sin(pi(1-x)) sin(pi(1-y)) cos(pi(1-z))
    h_x = -(5/4) sin(w t) sin(pi(1-x)) cos(pi(1-y)) cos(pi(1-z))
    h_y =        sin(w t) cos(pi(1-x)) sin(pi(1-y)) cos(pi(1-z))
    h_z =  (1/4) sin(w t) cos(pi(1-x)) cos(pi(1-y)) sin(pi(1-z))

with w = sqrt(3) pi solve the curl equations exactly, are divergence free,
satisfy the conducting-wall conditions (tangential e and normal h vanish on
the boundary), and carry the closed-form energies

    int |e|^2 = (21/64) cos^2(w t),   int |h|^2 = (21/64) sin^2(w t).

In a medium (eps, mu) the h amplitudes carry a factor sqrt(eps/mu) and
w = sqrt(3) pi / sqrt(eps mu); `energy_constants` scales the constants below
(by eps for the field and gradient forms, by 1/mu for their time derivatives).

On a uniform staggered grid the sampled mode has two special discrete
properties used heavily by the tests: the discrete divergence of the sampled
field vanishes identically when the mesh sizes are equal (the three
difference quotients share the common factor 2 sin(pi h / 2) / h, so the
coefficient cancellation 1/4 + 1/2 - 3/4 = 0 survives discretization), and
squared-component lattice sums hit their integrals exactly (uniform trig sums
are alias free), so the discrete L2-type energy equals the constants below to
round-off rather than to O(h^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import COMPONENTS, FieldState, GridSpec, HALF_OFFSET, Medium, check_extents, extent
# energy_h1 and energy_l2 are unused here; perfbench traces these names to count functionals
from .norms import energy_h1, energy_l2, state_sums, _check_consecutive  # noqa: F401

OMEGA = math.sqrt(3.0) * math.pi

# Analytic energy constants of the mode, kept as exact expressions.
ENERGY_TOTAL_SQ = 21.0 / 64.0                          # |e|^2 + |h|^2
ENERGY_TIME_SQ = 63.0 * math.pi**2 / 64.0              # |de/dt|^2 + |dh/dt|^2
ENERGY_GRAD_SQ = 21.0 * math.pi**2 / 64.0              # |de/dx|^2 + |dh/dx|^2
ENERGY_GRAD_TIME_SQ = 63.0 * math.pi**4 / 64.0         # |d2e/dxdt|^2 + |d2h/dxdt|^2

_SQ3 = math.sqrt(3.0)
_UNIT = Medium()


def energy_constants(med: Medium) -> dict:
    """The analytic energy constants of the mode in the medium `med`, by short name."""
    return {"total": ENERGY_TOTAL_SQ * med.eps, "grad": ENERGY_GRAD_SQ * med.eps,
            "time": ENERGY_TIME_SQ / med.mu, "grad_time": ENERGY_GRAD_TIME_SQ / med.mu}


_AMPLITUDE = {
    "ex": _SQ3 / 4.0,
    "ey": _SQ3 / 2.0,
    "ez": -3.0 * _SQ3 / 4.0,
    "hx": -5.0 / 4.0,
    "hy": 1.0,
    "hz": 0.25,
}


def _profile(comp: str, amplitude, x, y, z):
    """`amplitude` times the spatial profile of one component (broadcasting):
    cos(pi(1-u)) along the component's half-offset axes, sin(pi(1-u)) along the others."""
    out = amplitude
    for coord, is_cos in zip((x, y, z), HALF_OFFSET[comp]):
        phase = math.pi * (1.0 - np.asarray(coord, dtype=float))
        out = out * (np.cos(phase) if is_cos else np.sin(phase))
    return out


def _exact_amplitude(comp: str, t, med: Medium):
    w = OMEGA / math.sqrt(med.eps * med.mu)
    if comp.startswith("e"):
        return _AMPLITUDE[comp] * np.cos(w * t)
    return _AMPLITUDE[comp] * math.sqrt(med.eps / med.mu) * np.sin(w * t)


def _sample(amplitudes: dict, t: float, grid: GridSpec) -> FieldState:
    """The six sampled profiles on their staggered lattices, scaled per component."""
    arrays = []
    for comp in COMPONENTS:
        off = HALF_OFFSET[comp]
        ni, nj, nk = extent(comp, grid)
        xs = ((np.arange(ni) + 0.5 * off[0]) * grid.dx)[:, None, None]
        ys = ((np.arange(nj) + 0.5 * off[1]) * grid.dy)[None, :, None]
        zs = ((np.arange(nk) + 0.5 * off[2]) * grid.dz)[None, None, :]
        arrays.append(_profile(comp, amplitudes[comp], xs, ys, zs))
    return FieldState(*arrays, time_level=t / grid.dt)


def sample_exact(t: float, grid: GridSpec, med: Medium = _UNIT) -> FieldState:
    """Sample the mode in the medium `med` on every staggered lattice at time t.

    Wall entries of tangential e evaluate to sin(pi * 0) and the like, so they
    are zero only to round-off (about 1e-16); run initialization squares that
    away with enforce_pec.
    """
    return _sample({c: _exact_amplitude(c, t, med) for c in COMPONENTS}, t, grid)


def sample_semidiscrete(t: float, grid: GridSpec, med: Medium = _UNIT) -> FieldState:
    """Sample the grid's time-exact solution that starts from the sampled mode.

    The Yee difference of a sampled cos/sin(pi(1-u)) profile along axis a is
    the continuous derivative with pi replaced by s_a = 2 sin(pi h_a/2)/h_a.
    So under the semi-discrete equations eps dE/dt = curl_h H,
    mu dH/dt = -curl_h E the field keeps the mode's six sampled profiles, and
    only the amplitude vectors move.  With H = sqrt(eps/mu) B and time read in
    units of sqrt(eps mu), dA/dt = s x B for E and dB/dt = s x A for H.  From
    (A, B) = (a, 0) at t = 0, with a split into a_par along s and a_perp
    across it, and w = |s| / sqrt(eps mu),

        A(t) = a_par + a_perp cos(w t),   B(t) = (s x a) sin(w t) / |s|.

    On a cube a . s = 0, and this is the sampled mode with sqrt(3) pi replaced
    by sqrt(3) s.  The fully discrete solution differs from it only by the
    error of the time stepping: the O(h^2) spatial error drops out.
    """
    s = np.array([2.0 * math.sin(0.5 * math.pi * h) / h for h in (grid.dx, grid.dy, grid.dz)])
    a = np.array([_AMPLITUDE[c] for c in ("ex", "ey", "ez")])
    norm = math.sqrt(s @ s)
    w = norm / math.sqrt(med.eps * med.mu)
    a_par = (a @ s) / (s @ s) * s
    e_amp = a_par + (a - a_par) * math.cos(w * t)
    h_amp = np.cross(s, a) * (math.sin(w * t) / norm * math.sqrt(med.eps / med.mu))
    return _sample(dict(zip(COMPONENTS, (*e_amp, *h_amp))), t, grid)


def error_state(numeric: FieldState, t: float, grid: GridSpec, reference=None,
                med: Medium = _UNIT) -> FieldState:
    """Reference-minus-numeric field state at time t, formed in the reference's arrays.

    `reference(t, grid, med)` returns a fresh sample of the solution graded
    against; None means sample_exact, looked up at call time so that a wrapper
    installed on this module's attribute sees the call.
    """
    check_extents(numeric, grid)
    err = (reference or sample_exact)(t, grid, med)
    for comp, arr in numeric.components():
        np.subtract(getattr(err, comp), arr, out=getattr(err, comp))
    err.time_level = numeric.time_level
    return err


@dataclass(frozen=True)
class ErrorMetrics:
    """Relative solution errors at one level.

    eh* are errors of the numeric solution against a reference (the sampled
    mode unless metrics is given another), scaled by the matching analytic
    energy constant.  The t-variants need two consecutive levels and are None
    on the first.
    """

    time_level: float
    eh0: float
    eh1: float
    eh2: float
    err_e: float
    err_h: float
    eht1: float | None = None
    eht2: float | None = None


def metrics(curr: FieldState, prev: FieldState | None, grid: GridSpec, med: Medium,
            reference=None) -> ErrorMetrics:
    """Error metrics of `curr` (and of the time difference when `prev` is given)
    against `reference`, which error_state takes as it does."""
    k = energy_constants(med)
    err = error_state(curr, curr.time_level * grid.dt, grid, reference, med)
    now = state_sums(err, med, grid, axes="x")
    kwargs = {}
    if prev is not None:
        _check_consecutive(prev, curr)
        back = error_state(prev, prev.time_level * grid.dt, grid, reference, med)
        # (err - back) / dt, bit for bit time_diff's, formed in err's arrays so that
        # no third error-sized state is alive
        s = 1.0 / grid.dt
        for (_, e), (_, b) in zip(err.components(), back.components()):
            e *= s
            e -= np.multiply(b, s, out=b)
        del back
        err.time_level = 0.5 * (prev.time_level + curr.time_level)
        d = state_sums(err, med, grid, axes="x")
        kwargs = {
            "eht1": math.sqrt(d.h1["x"][1]) / math.sqrt(k["grad_time"]),
            "eht2": math.sqrt(d.l2) / math.sqrt(k["time"]),
        }
    return ErrorMetrics(
        time_level=curr.time_level,
        eh0=math.sqrt(now.l2_core / k["total"]),
        eh1=math.sqrt(now.h1["x"][1]) / math.sqrt(k["grad"]),
        eh2=math.sqrt(now.l2) / math.sqrt(k["total"]),
        err_e=math.sqrt(now.e_sq),
        err_h=math.sqrt(now.h_sq),
        **kwargs,
    )


def observed_rate(errors, resolutions) -> float:
    """log(e1/e2) / log(h1/h2) for an (error, resolution) pair of runs."""
    e1, e2 = errors
    h1, h2 = resolutions
    if min(e1, e2) <= 0:
        raise ValueError("errors must be positive")
    if min(h1, h2) <= 0 or h1 == h2:
        raise ValueError("resolutions must be positive and distinct")
    return math.log(e1 / e2) / math.log(h1 / h2)
