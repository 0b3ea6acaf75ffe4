"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict line.
Tolerances are fixed here and are not calibration knobs.
"""

import math

import numpy as np
import pytest

from adimax import (Medium, RunConfig, divergence, energy_h1, energy_l2, enforce_pec,
                    make_grid, sample_exact, stability, stage1, stage1_residual, stage2,
                    stage2_residual, step, time_diff)
from adimax import stepper
from adimax.harness import converge_space, converge_time, run
from adimax.norms import electric_norm_sq

from conftest import max_component_diff, random_state
from oracles import (adi_step_loop, dense_tridiag_solve, divergence_loop, energy_h1_loop,
                     energy_l2_loop, face_norm_loop, norm_e_loop, norm_h_loop)
from adimax.norms import face_norm_sq, magnetic_norm_sq

MEDIUM = Medium(1.0, 1.0)


def _verdict(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_energy_identities():
    """16^3, dt=0.05, sampled-mode start, 100 steps: every conserved functional
    (directional x/y/z and L2, plus their time-difference forms) drifts <= 1e-11."""
    g = make_grid(16, 16, 16, 0.05)
    s = enforce_pec(sample_exact(0.0, g))
    refs = {w: energy_h1(s, w, MEDIUM, g) for w in "xyz"}
    refs["l2"] = energy_l2(s, MEDIUM, g)
    refs_t = None
    worst = {k: 0.0 for k in ("x", "y", "z", "l2", "tx", "ty", "tz", "tl2")}
    prev = None
    for _ in range(100):
        prev, s = s, step(s, g, MEDIUM)
        for w in "xyz":
            worst[w] = max(worst[w], abs(energy_h1(s, w, MEDIUM, g) - refs[w]) / refs[w])
        worst["l2"] = max(worst["l2"], abs(energy_l2(s, MEDIUM, g) - refs["l2"]) / refs["l2"])
        d = time_diff(s, prev, g.dt)
        qt = {w: energy_h1(d, w, MEDIUM, g) for w in "xyz"}
        qt["l2"] = energy_l2(d, MEDIUM, g)
        if refs_t is None:
            refs_t = qt
        else:
            for w in "xyz":
                worst["t" + w] = max(worst["t" + w], abs(qt[w] - refs_t[w]) / refs_t[w])
            worst["tl2"] = max(worst["tl2"], abs(qt["l2"] - refs_t["l2"]) / refs_t["l2"])
    peak = max(worst.values())
    ok = _verdict(1, "energy identities", peak <= 1e-11, f"max drift {peak:.3e} (tol 1e-11)")
    assert ok


def test_criterion_2_unconditional_stability(tmp_path):
    """20^3 at dt=0.25 (Courant ~8.7) to T=100: L2 energy drift <= 1e-10 and the
    fields stay within 10x their initial maximum."""
    cfg = RunConfig(nx=20, ny=20, nz=20, dt=0.25, T=100.0, kind="stability",
                    cadence=40, out=str(tmp_path / "stab")).validate()
    result = stability(cfg)
    courant = cfg.to_grid().courant(cfg.eps, cfg.mu)
    assert courant >= 5.0
    ok = _verdict(2, "unconditional stability", result.passed,
                  f"Courant {courant:.2f}, drift {result.max_drift:.3e} (tol 1e-10), "
                  f"max |field| {result.max_field:.3f} vs initial {result.initial_max:.3f}")
    assert ok


@pytest.fixture(scope="module")
def temporal_rows(tmp_path_factory):
    cfg = RunConfig(nx=32, ny=32, nz=32, T=1.0, kind="converge-time",
                    dt_list=(0.05, 0.04, 0.025),
                    out=str(tmp_path_factory.mktemp("ct"))).validate()
    return converge_time(cfg).rows


def test_criterion_3_temporal_convergence(temporal_rows):
    """32^3, T=1, dt in {0.05, 0.04, 0.025}: consecutive observed rates of the
    H1-type and L2-type relative temporal errors must lie in [1.6, 2.2].

    The temporal error is measured against the same grid's time-exact solution
    (sample_semidiscrete), so it is the error of the time stepping alone.  The
    error against the continuous mode is not the criterion: the scheme's bound
    is O(dt^2 + h^2), and at 32^3 its fixed h^2 part (about 2.2e-3) is a third
    of the dt=0.025 error, which pulls those rates down to 1.73 and 1.52 with
    no fault in the stepper.  The regression test below pins both sets.
    """
    rates = []
    for row in temporal_rows[1:]:
        rates.extend([row["rate1_semi"], row["rate2_semi"]])
    ok = all(1.6 <= r <= 2.2 for r in rates)
    detail = ", ".join(f"{r:.3f}" for r in rates)
    _verdict(3, "temporal convergence order 2", ok, f"rates [{detail}] (window [1.6, 2.2])")
    assert ok


def test_temporal_errors_and_rates_regression(temporal_rows):
    """Companion regression for the temporal study: the measured errors and
    rates themselves are deterministic and pinned here (computed with this
    solver and cross-checked against the loop oracles), independent of the
    window verdict above.  The first set is graded against the continuous
    mode, the second against the grid's time-exact solution."""
    errs = [row["ERR1"] for row in temporal_rows]
    assert errs[0] == pytest.approx(1.9387e-2, rel=2e-3)
    assert errs[1] == pytest.approx(1.3172e-2, rel=2e-3)
    assert errs[2] == pytest.approx(6.4535e-3, rel=2e-3)
    assert temporal_rows[1]["rate1"] == pytest.approx(1.732, abs=5e-3)
    assert temporal_rows[2]["rate1"] == pytest.approx(1.518, abs=5e-3)
    errs_semi = [row["ERR1_semi"] for row in temporal_rows]
    assert errs_semi[0] == pytest.approx(1.7251e-2, rel=2e-3)
    assert errs_semi[1] == pytest.approx(1.1034e-2, rel=2e-3)
    assert errs_semi[2] == pytest.approx(4.3076e-3, rel=2e-3)
    assert temporal_rows[1]["rate1_semi"] == pytest.approx(2.0026, abs=5e-3)
    assert temporal_rows[2]["rate1_semi"] == pytest.approx(2.0013, abs=5e-3)


def test_criterion_4_spatial_convergence(tmp_path):
    """Grids 10^3/20^3/40^3 at dt=0.0025, T=1: observed spatial rates of both
    error norms (including the gradient-based one) in [1.7, 2.2]."""
    cfg = RunConfig(nx=10, ny=10, nz=10, dt=0.0025, T=1.0, kind="converge-space",
                    grid_list=(10, 20, 40), out=str(tmp_path / "cs")).validate()
    rows = converge_space(cfg).rows
    rates = []
    for row in rows[1:]:
        rates.extend([row["rate1"], row["rate2"]])
    ok = all(1.7 <= r <= 2.2 for r in rates)
    detail = ", ".join(f"{r:.3f}" for r in rates)
    ok = _verdict(4, "spatial convergence order 2", ok, f"rates [{detail}] (window [1.7, 2.2])")
    assert ok


def test_criterion_5_divergence_preservation(tmp_path):
    """20^3 equal mesh, dt=0.05, T=4: electric divergence norms <= 1e-10 at all
    report times of `run`, and <= 1e-13 for the sampled initial field."""
    cfg = RunConfig(nx=20, ny=20, nz=20, dt=0.05, T=4.0, kind="run",
                    cadence=10, out=str(tmp_path / "div")).validate()
    rows = run(cfg).rows
    init_ok = rows[0]["DivE_Linf"] <= 1e-13 and rows[0]["DivE_L2"] <= 1e-13
    worst_linf = max(r["DivE_Linf"] for r in rows)
    worst_l2 = max(r["DivE_L2"] for r in rows)
    ok = init_ok and worst_linf <= 1e-10 and worst_l2 <= 1e-10
    ok = _verdict(5, "divergence preservation", ok,
                  f"initial Linf {rows[0]['DivE_Linf']:.3e} (tol 1e-13), "
                  f"worst Linf {worst_linf:.3e}, worst L2 {worst_l2:.3e} (tol 1e-10)")
    assert ok


def test_criterion_6_analytic_energy_constants():
    """At t=0, the discrete electric energy matches 21/64 within 1e-2 on 32^3,
    and the deviation shrinks at second order from 16^3 to 32^3 unless both
    deviations already sit at the round-off floor.

    On uniform grids the squared trig sums of the mode are alias free, so the
    deviation is round-off (~1e-16) at every resolution; an observed order is
    then unmeasurable and the floor guard applies.
    """
    devs = {}
    for n in (16, 32):
        g = make_grid(n, n, n, 0.05)
        e_sq = electric_norm_sq(sample_exact(0.0, g).e_triple(), MEDIUM.eps, g)
        devs[n] = abs(e_sq - 21 / 64) / (21 / 64)
    bound_ok = devs[32] <= 1e-2
    floor = 100 * np.finfo(float).eps
    at_floor = devs[16] <= floor and devs[32] <= floor
    if at_floor:
        order_ok = True
        order_note = f"both deviations at round-off floor ({devs[16]:.2e}, {devs[32]:.2e})"
    else:
        order = math.log2(max(devs[16], 1e-300) / max(devs[32], 1e-300))
        order_ok = order >= 1.5
        order_note = f"observed order {order:.2f}"
    ok = _verdict(6, "analytic energy constants", bound_ok and order_ok,
                  f"deviation at 32^3 {devs[32]:.3e} (tol 1e-2); {order_note}")
    assert ok


def test_criterion_7_oracle_equivalence(rng):
    """On 3^3 and 4^3 grids every norm, functional, divergence, and one full
    step agree with naive scalar-loop references to 1e-12; the line solver
    agrees with dense elimination to 1e-12."""
    worst = 0.0
    for n in (3, 4):
        g = make_grid(n, n, n, 0.45)
        s = random_state(g, rng)
        worst = max(worst, _rel(electric_norm_sq(s.e_triple(), 1.0, g),
                                norm_e_loop(s.e_triple(), 1.0, g)))
        worst = max(worst, _rel(magnetic_norm_sq(s.h_triple(), 1.0, g),
                                norm_h_loop(s.h_triple(), 1.0, g)))
        for axis in "xyz":
            worst = max(worst, _rel(energy_h1(s, axis, MEDIUM, g),
                                    energy_h1_loop(s, axis, MEDIUM, g)))
            got = face_norm_sq(s, axis, MEDIUM, g)
            want = face_norm_loop(s, axis, MEDIUM, g)
            worst = max(worst, _rel(got[0], want[0]), _rel(got[1], want[1]))
        worst = max(worst, _rel(energy_l2(s, MEDIUM, g), energy_l2_loop(s, MEDIUM, g)))
        rep = divergence(s, MEDIUM, g)
        linf_e, l2_e, linf_h, l2_h = divergence_loop(s, MEDIUM, g)
        for got_v, want_v in ((rep.div_e_linf, linf_e), (rep.div_e_l2, l2_e),
                              (rep.div_h_linf, linf_h), (rep.div_h_l2, l2_h)):
            worst = max(worst, _rel(got_v, want_v))
        got_step = step(s, g, MEDIUM)
        want_step = adi_step_loop(s, g, MEDIUM)
        worst = max(worst, max_component_diff(got_step, want_step)
                    / max(1.0, want_step.max_abs()))
    for lam in (0.0, 0.7, 12.0):
        rhs = rng.standard_normal(16)
        got = stepper._solve_lines(lam, rhs.copy(), 0)
        want = dense_tridiag_solve(lam, rhs)
        worst = max(worst, float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want)))))
    ok = _verdict(7, "oracle equivalence", worst <= 1e-12, f"worst mismatch {worst:.3e} (tol 1e-12)")
    assert ok


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


def test_criterion_8_stage_residuals(rng):
    """Random conducting-wall data on 8^3, dt in {1e-4, 0.05, 1.0}: both stages
    satisfy the coupled update equations to 1e-12."""
    worst = 0.0
    for dt in (1e-4, 0.05, 1.0):
        g = make_grid(8, 8, 8, dt)
        s = random_state(g, rng)
        half = stage1(s, g, MEDIUM)
        full = stage2(half, g, MEDIUM)
        worst = max(worst, stage1_residual(s, half, g, MEDIUM),
                    stage2_residual(half, full, g, MEDIUM))
    ok = _verdict(8, "stage residuals", worst <= 1e-12, f"worst residual {worst:.3e} (tol 1e-12)")
    assert ok


def test_criterion_9_summation_by_parts(rng):
    """Random-sequence telescoping identity, every length 1..8 and spacing in
    {0.1, 1, 3}, to 1e-13 relative.  With the divided difference on both sides
    the boundary pair carries 1/h; the identity is checked in that
    dimensionally consistent form."""
    worst = 0.0
    for _ in range(20):
        for m_len in range(1, 9):
            for h in (0.1, 1.0, 3.0):
                u = rng.standard_normal(m_len)
                v = rng.standard_normal(m_len + 1)
                lhs = sum(u[m] * (v[m + 1] - v[m]) / h for m in range(m_len))
                rhs = (u[-1] * v[-1] - u[0] * v[0]) / h
                rhs -= sum(v[m] * (u[m] - u[m - 1]) / h for m in range(1, m_len))
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    ok = _verdict(9, "summation by parts", worst <= 1e-13, f"worst defect {worst:.3e} (tol 1e-13)")
    assert ok
