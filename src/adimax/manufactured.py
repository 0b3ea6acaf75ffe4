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
from functools import partial

import numpy as np

from .grid import COMPONENTS, FieldState, GridSpec, HALF_OFFSET, Medium, extent
# energy_h1 and energy_l2 are unused here; perfbench traces these names to count functionals
from .norms import StateSums, energy_h1, energy_l2, _tick_sums  # noqa: F401

OMEGA = math.sqrt(3.0) * math.pi

# Analytic energy constants of the mode, kept as exact expressions.
ENERGY_TOTAL_SQ = 21.0 / 64.0                          # |e|^2 + |h|^2
ENERGY_TIME_SQ = 63.0 * math.pi**2 / 64.0              # |de/dt|^2 + |dh/dt|^2
ENERGY_GRAD_SQ = 21.0 * math.pi**2 / 64.0              # |de/dx|^2 + |dh/dx|^2
ENERGY_GRAD_TIME_SQ = 63.0 * math.pi**4 / 64.0         # |d2e/dxdt|^2 + |d2h/dxdt|^2

_SQ3 = math.sqrt(3.0)
_UNIT = Medium()
# the mode's (e_x, e_y, e_z) amplitudes and the (h_x, h_y, h_z) ones at unit sqrt(eps/mu)
_E_AMP = np.array([_SQ3 / 4.0, _SQ3 / 2.0, -3.0 * _SQ3 / 4.0])
_H_AMP = np.array([-5.0 / 4.0, 1.0, 0.25])


def energy_constants(med: Medium) -> dict:
    """The analytic energy constants of the mode in the medium `med`, by short name."""
    return {"total": ENERGY_TOTAL_SQ * med.eps, "grad": ENERGY_GRAD_SQ * med.eps,
            "time": ENERGY_TIME_SQ / med.mu, "grad_time": ENERGY_GRAD_TIME_SQ / med.mu}


def _factors(comp: str, amplitude, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Two arrays whose broadcast product is `amplitude` times the profile of `comp` on its
    staggered lattice, cos(pi(1-u)) along the component's half-offset axes and sin(pi(1-u))
    along the others: (amplitude times the x and y factors, the z factor)."""
    off, factors = HALF_OFFSET[comp], []
    for axis, (n, h) in enumerate(zip(extent(comp, grid), (grid.dx, grid.dy, grid.dz))):
        phase = math.pi * (1.0 - (np.arange(n) + 0.5 * off[axis]) * h)
        shape = [1, 1, 1]
        shape[axis] = n
        factors.append((np.cos(phase) if off[axis] else np.sin(phase)).reshape(shape))
    return amplitude * factors[0] * factors[1], factors[2]


def _flow(a_par, a_perp, b, freq, t: float, grid: GridSpec, med: Medium, lazy: bool = False):
    """The six sampled profiles on their staggered lattices at time t, scaled by the
    (x, y, z) amplitudes a_par + a_perp cos(w t) for e and b sqrt(eps/mu) sin(w t) for h
    (a_par may be the scalar 0), with w = freq / sqrt(eps mu); with `lazy`, a dict from
    component name to a function `sample(out)` that forms that component's lattice in the
    array `out` by the last broadcast product alone, which allocates nothing, on whichever
    thread calls it."""
    w = freq / math.sqrt(med.eps * med.mu)
    amplitudes = dict(zip(COMPONENTS, (*(a_par + a_perp * np.cos(w * t)),
                                       *(b * math.sqrt(med.eps / med.mu) * np.sin(w * t)))))
    samplers = {comp: partial(np.multiply, *_factors(comp, amplitudes[comp], grid))
                for comp in COMPONENTS}
    return samplers if lazy else FieldState(*(f() for f in samplers.values()),
                                            time_level=t / grid.dt)


def sample_exact(t: float, grid: GridSpec, med: Medium = _UNIT, lazy: bool = False):
    """Sample the mode in the medium `med` on every staggered lattice at time t
    (with `lazy`, one sampler per component; see _flow).

    Wall entries of tangential e evaluate to sin(pi * 0) and the like, so they
    are zero only to round-off (about 1e-16); run initialization squares that
    away with enforce_pec.
    """
    return _flow(0.0, _E_AMP, _H_AMP, OMEGA, t, grid, med, lazy)


def sample_semidiscrete(t: float, grid: GridSpec, med: Medium = _UNIT, lazy: bool = False):
    """Sample the grid's time-exact solution that starts from the sampled mode (with
    `lazy`, one sampler per component; see _flow).

    The Yee difference of a sampled cos/sin(pi(1-u)) profile along axis a is
    the continuous derivative with pi replaced by s_a = 2 sin(pi h_a/2)/h_a.
    So under the semi-discrete equations eps dE/dt = curl_h H,
    mu dH/dt = -curl_h E the field keeps the mode's six sampled profiles, and
    only the amplitude vectors move.  With H = sqrt(eps/mu) B and time read in
    units of sqrt(eps mu), dA/dt = s x B for E and dB/dt = s x A for H.  From
    (A, B) = (a, 0) at t = 0, with a split into a_par along s and a_perp
    across it, and w = |s| / sqrt(eps mu),

        A(t) = a_par + a_perp cos(w t),   B(t) = (s x a) sin(w t) / |s|,

    which is _flow's.  The continuous mode is the case s = pi (1, 1, 1), where
    a . s = 0 and (s x a) / |s| = (-5/4, 1, 1/4).  The fully discrete solution
    differs from this flow only by the error of the time stepping: the O(h^2)
    spatial error drops out.
    """
    s = np.array([2.0 * math.sin(0.5 * math.pi * h) / h for h in (grid.dx, grid.dy, grid.dz)])
    norm = math.sqrt(s @ s)
    a_par = (_E_AMP @ s) / (s @ s) * s
    return _flow(a_par, _E_AMP - a_par, np.cross(s, _E_AMP) / norm, norm, t, grid, med, lazy)


def metrics(curr: FieldState, prev: FieldState | None, grid: GridSpec, med: Medium,
            reference=None) -> tuple[StateSums, StateSums | None]:
    """The sums, along x, of the error of `curr` (reference minus numeric) and, when `prev`
    is given, of the error's time difference (else None); one pass per state.  `prev` is
    left as it was.

    `reference(t, grid, med, lazy=True)` returns one sampler per component of the solution
    graded against (see _flow); None means sample_exact, looked up at call time so that a
    wrapper installed on this module's attribute sees the call.  The sums come from the
    routine behind `norms.energy_report` (`norms._tick_sums`), given the reference.
    """
    return _tick_sums(curr, prev, med, grid, "x", reference or sample_exact)


def observed_rate(errors, resolutions) -> float:
    """log(e1/e2) / log(h1/h2) for an (error, resolution) pair of runs."""
    e1, e2 = errors
    h1, h2 = resolutions
    if min(e1, e2) <= 0:
        raise ValueError("errors must be positive")
    if min(h1, h2) <= 0 or h1 == h2:
        raise ValueError("resolutions must be positive and distinct")
    return math.log(e1 / e2) / math.log(h1 / h2)
