import math
import tracemalloc

import numpy as np
import pytest

from adimax import (ENERGY_GRAD_SQ, ENERGY_GRAD_TIME_SQ, ENERGY_TIME_SQ, ENERGY_TOTAL_SQ,
                    OMEGA, Medium, energy_report, energy_suite, enforce_pec, make_grid, metrics,
                    observed_rate, sample_exact, sample_semidiscrete, step, zero_state)
from adimax import norms
from adimax.manufactured import energy_constants
from adimax.norms import state_sums

from conftest import max_component_diff
from oracles import lincomb, mode_component


def test_analytic_constants():
    assert ENERGY_TOTAL_SQ == 21 / 64
    assert ENERGY_TIME_SQ == pytest.approx(63 * math.pi**2 / 64, rel=1e-15)
    assert ENERGY_GRAD_SQ == pytest.approx(21 * math.pi**2 / 64, rel=1e-15)
    assert ENERGY_GRAD_TIME_SQ == pytest.approx(63 * math.pi**4 / 64, rel=1e-15)
    assert OMEGA == pytest.approx(math.sqrt(3) * math.pi, rel=1e-15)


def test_magnetic_components_vanish_at_t0():
    g = make_grid(6, 6, 6, 0.1)
    s = sample_exact(0.0, g)
    assert np.all(s.hx == 0.0) and np.all(s.hy == 0.0) and np.all(s.hz == 0.0)


def test_point_value_example():
    # ex(0, (0, 1/2, 1/2)) = (sqrt(3)/4) cos(pi) sin(pi/2) sin(pi/2) = -sqrt(3)/4
    val = mode_component("ex", 0.0, 0.0, 0.5, 0.5)
    assert val == pytest.approx(-math.sqrt(3) / 4, rel=1e-15)


def test_wall_values_below_roundoff():
    g = make_grid(8, 8, 8, 0.1)
    s = sample_exact(0.37, g)
    # tangential E on the walls
    assert np.max(np.abs(s.ex[:, 0, :])) <= 1e-15
    assert np.max(np.abs(s.ex[:, -1, :])) <= 1e-15
    assert np.max(np.abs(s.ey[:, :, 0])) <= 1e-15
    assert np.max(np.abs(s.ez[0, :, :])) <= 1e-15
    # normal H on the walls
    assert np.max(np.abs(s.hx[0, :, :])) <= 1e-15
    assert np.max(np.abs(s.hx[-1, :, :])) <= 1e-15
    assert np.max(np.abs(s.hy[:, 0, :])) <= 1e-15
    assert np.max(np.abs(s.hz[:, :, -1])) <= 1e-15


def test_time_level_label():
    g = make_grid(4, 4, 4, 0.25)
    assert sample_exact(0.5, g).time_level == pytest.approx(2.0)


def test_semidiscrete_starts_at_sampled_mode():
    g = make_grid(12, 20, 9, 0.1)
    s = sample_semidiscrete(0.0, g)
    assert max_component_diff(s, sample_exact(0.0, g)) <= 1e-15
    assert s.time_level == 0.0


def test_semidiscrete_on_cube_is_mode_with_discrete_frequency():
    # on a cube a . s = 0: the sampled mode with w -> w_h = sqrt(3) s, s = 2 sin(pi h/2)/h
    g = make_grid(16, 16, 16, 0.1)
    omega_h = math.sqrt(3.0) * 2.0 * math.sin(0.5 * math.pi * g.dx) / g.dx
    for t in (0.3, 1.7):
        retimed = sample_exact(t * omega_h / OMEGA, g)
        assert max_component_diff(sample_semidiscrete(t, g), retimed) <= 1e-14


def _yee_curls(s, g):
    """(curl_h H at interior E points, curl_h E at all H points)."""
    def d(u, axis):
        return np.diff(u, axis=axis) / g.spacing(axis)
    curl_h = (d(s.hz, 1)[:, :, 1:-1] - d(s.hy, 2)[:, 1:-1, :],
              d(s.hx, 2)[1:-1, :, :] - d(s.hz, 0)[:, :, 1:-1],
              d(s.hy, 0)[:, 1:-1, :] - d(s.hx, 1)[1:-1, :, :])
    curl_e = (d(s.ez, 1) - d(s.ey, 2), d(s.ex, 2) - d(s.ez, 0), d(s.ey, 0) - d(s.ex, 1))
    return curl_h, curl_e


def _semidiscrete_defect(sample, g, t=0.37, delta=1e-4, med=Medium()):
    """Max defect of eps dE/dt = curl_h H, mu dH/dt = -curl_h E, d/dt by a centered difference."""
    s, hi, lo = sample(t, g, med), sample(t + delta, g, med), sample(t - delta, g, med)
    curl_h, curl_e = _yee_curls(s, g)
    interior = ((slice(None), slice(1, -1), slice(1, -1)),
                (slice(1, -1), slice(None), slice(1, -1)),
                (slice(1, -1), slice(1, -1), slice(None)))
    worst = 0.0
    for c, name in enumerate(("ex", "ey", "ez")):
        rate = (getattr(hi, name) - getattr(lo, name))[interior[c]] / (2 * delta)
        worst = max(worst, float(np.max(np.abs(med.eps * rate - curl_h[c]))))
    for c, name in enumerate(("hx", "hy", "hz")):
        rate = (getattr(hi, name) - getattr(lo, name)) / (2 * delta)
        worst = max(worst, float(np.max(np.abs(med.mu * rate + curl_e[c]))))
    return worst


def test_semidiscrete_solves_semidiscrete_equations():
    # Tolerance 1e-6: the centered difference's truncation |s|^3 delta^2 / 6 times
    # the O(1) amplitudes is about 3e-7 at delta = 1e-4, its rounding about 1e-12.
    # The continuous mode misses these equations by the O(h^2) symbol error, ~2e-2.
    g = make_grid(12, 20, 9, 0.1)
    assert _semidiscrete_defect(sample_semidiscrete, g) <= 1e-6
    assert _semidiscrete_defect(sample_exact, g) >= 1e-3


def test_semidiscrete_solves_semidiscrete_equations_in_a_medium():
    # eps mu = 1.5 slows the mode by sqrt(1.5) and H carries sqrt(eps/mu) = sqrt(6).
    # Tolerance as in the unit-medium test; the truncation here is about 5.6e-7.
    g = make_grid(12, 20, 9, 0.1)
    med = Medium(3.0, 0.5)
    assert _semidiscrete_defect(sample_semidiscrete, g, med=med) <= 1e-6
    # the unit-medium solution misses them by far
    unit = lambda t, grid, _: sample_semidiscrete(t, grid)
    assert _semidiscrete_defect(unit, g, med=med) >= 1e-1


def test_mode_energies_scale_with_the_medium():
    # the alias-free lattice sums hit the scaled constants to round-off
    g = make_grid(12, 12, 12, 0.05)
    med = Medium(3.0, 0.5)
    total = energy_constants(med)["total"]
    assert total == 3.0 * ENERGY_TOTAL_SQ
    w = OMEGA / math.sqrt(1.5)
    for t in (0.0, 0.3):
        sums = state_sums(sample_exact(t, g, med), med, g, axes="")
        assert abs(sums.e_sq - total * math.cos(w * t) ** 2) <= 1e-13 * total
        assert abs(sums.h_sq - total * math.sin(w * t) ** 2) <= 1e-13 * total
    assert energy_constants(Medium()) == {"total": ENERGY_TOTAL_SQ, "grad": ENERGY_GRAD_SQ,
                                          "time": ENERGY_TIME_SQ,
                                          "grad_time": ENERGY_GRAD_TIME_SQ}


def _recorded_passes(monkeypatch) -> list:
    """Copies of the states `metrics` hands to state_sums, in call order."""
    passes = []
    monkeypatch.setattr(norms, "state_sums",
                        lambda state, *a, **k: passes.append(state.copy()) or state_sums(state, *a, **k))
    return passes


def test_error_state_trivial_cases(medium, monkeypatch):
    # the error state that metrics grades is reference minus numeric: zero for the
    # reference itself, and the reference's own bits for the zero state
    g = make_grid(5, 5, 5, 0.125)
    exact = sample_exact(0.375, g, medium)  # level 3, whose time 3 * dt is 0.375 exactly
    passes = _recorded_passes(monkeypatch)
    metrics(exact, None, g, medium)
    assert passes[-1].max_abs() == 0.0
    zero = zero_state(g)
    zero.time_level = exact.time_level
    metrics(zero, None, g, medium)
    assert max_component_diff(passes[-1], exact) == 0.0


def test_error_small_after_one_step(medium):
    g = make_grid(8, 8, 8, 0.05)
    s = enforce_pec(sample_exact(0.0, g, medium))
    s1 = step(s, g, medium)
    err = lincomb(1.0, sample_exact(g.dt, g, medium), -1.0, s1)
    assert 0 < err.max_abs() < 0.05


def test_metrics_zero_for_exact_samples(medium):
    g = make_grid(8, 8, 8, 0.05)
    k, exact = energy_constants(medium), sample_exact(0.0, g, medium)
    e, d = metrics(exact, None, g, medium)
    assert math.sqrt(e.l2_core / k["total"]) <= 1e-13
    assert math.sqrt(e.h1["x"][1] / k["grad"]) <= 1e-13
    assert math.sqrt(e.l2 / k["total"]) <= 1e-13
    assert d is None
    # full-norm ratios carry the dt^2 perturbation and O(h^2) quadrature terms
    now, _ = energy_report(exact, None, medium, g)
    assert math.sqrt(now.l2 / k["total"]) == pytest.approx(1.0, abs=5e-3)
    assert math.sqrt(now.h1["x"][1] / k["grad"]) == pytest.approx(1.0, abs=2e-2)
    # without the perturbation the lattice sums are alias free: exact to round-off
    core = state_sums(exact, medium, g).l2_core
    assert math.sqrt(core / k["total"]) == pytest.approx(1.0, abs=1e-12)


def test_metrics_with_consecutive_levels(medium, monkeypatch):
    g = make_grid(8, 8, 8, 0.05)
    k = energy_constants(medium)
    s0 = enforce_pec(sample_exact(0.0, g, medium))
    s1 = step(s0, g, medium)
    kept = s0.copy()
    e, de = metrics(s1, s0, g, medium)
    # unlike energy_report's, metrics' difference goes into the error's arrays: prev is
    # left as it was, byte for byte, so run can call metrics before energy_report
    assert s0.time_level == kept.time_level
    assert all(a.tobytes() == getattr(kept, name).tobytes() for name, a in s0.components())
    for value_sq, const in ((e.l2_core, k["total"]), (e.h1["x"][1], k["grad"]),
                            (e.l2, k["total"]), (de.h1["x"][1], k["grad_time"]),
                            (de.l2, k["time"])):
        assert 0 < math.sqrt(value_sq / const) < 0.1
    _, d = energy_report(s1, s0, medium, g)
    assert math.sqrt(d.h1["x"][1] / k["grad_time"]) == pytest.approx(1.0, abs=0.05)
    assert math.sqrt(d.l2 / k["time"]) == pytest.approx(1.0, abs=0.05)
    # the error's time difference, formed in place, has the bits of the linear
    # combination (levels 1 -> 2: the error of level 0 is zero), against either reference
    s2 = step(s1, g, medium)
    passes = _recorded_passes(monkeypatch)
    for reference in (sample_exact, sample_semidiscrete):
        metrics(s2, s1, g, medium, None if reference is sample_exact else reference)
        errors = [lincomb(1.0, reference(t, g, medium), -1.0, s)
                  for t, s in ((2 * g.dt, s2), (g.dt, s1))]
        ref = lincomb(1.0 / g.dt, errors[0], -1.0 / g.dt, errors[1])
        assert passes[-1].time_level == 1.5
        assert all(np.array_equal(getattr(passes[-1], c), x) for c, x in ref.components())


@pytest.mark.parametrize("functional, bound", [
    (lambda curr, prev, g, med: metrics(curr, prev, g, med), 2.0),
    (lambda curr, prev, g, med: energy_report(curr, prev, med, g), 2.5),
    (lambda curr, prev, g, med: energy_suite(curr, prev, med, g), 2.5),
], ids=["metrics", "energy_report", "energy_suite"])
def test_tick_scratch_stays_under_bound(functional, bound):
    """Scratch peak of a tick functional on two levels, in field states: a tick
    holds its two levels plus this much.

    In numpy 2.4, ufuncs over non-contiguous views allocate iteration buffers that
    tracemalloc counts, so the peak overstates the live lattices by up to about one."""
    g = make_grid(12, 20, 9, 0.7)
    med = Medium(2.5, 0.4)
    prev = enforce_pec(sample_exact(0.0, g, med))
    curr = step(prev, g, med)
    state_bytes = sum(a.nbytes for _, a in curr.components())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        functional(curr, prev, g, med)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / state_bytes < bound


def test_observed_rate_examples():
    # printed 4-digit errors from a published table reproduce its rate to ~2e-3
    assert observed_rate((1.749e-2, 1.127e-2), (0.05, 0.04)) == pytest.approx(1.971, abs=2e-3)
    assert observed_rate((4e-2, 1e-2), (0.2, 0.1)) == pytest.approx(2.0, rel=1e-12)
    assert observed_rate((3e-3, 3e-3), (0.2, 0.1)) == 0.0


def test_observed_rate_rejects_bad_input():
    with pytest.raises(ValueError):
        observed_rate((0.0, 1e-3), (0.2, 0.1))
    with pytest.raises(ValueError):
        observed_rate((1e-3, 1e-4), (0.1, 0.1))
