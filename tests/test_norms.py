import math

import pytest

from adimax import (DivergenceReport, EnergyReport, Medium, divergence, energy_h1, energy_l2,
                    energy_report, energy_suite, face_norm_sq, make_grid, metrics, sample_exact,
                    step, time_diff, zero_state)
from adimax.manufactured import ENERGY_TOTAL_SQ, OMEGA
from adimax.norms import electric_norm_sq, format_value, magnetic_norm_sq, state_sums

from conftest import grid3, grid4, random_state
from oracles import (divergence_loop, energy_h1_loop, energy_l2_loop, face_norm_loop, lincomb,
                     norm_e_loop, norm_h_loop)


def test_electric_norm_counting_example(medium):
    g = grid4()
    s = zero_state(g)
    s.ex[:] = 1.0
    # 4 * 3 * 3 contributing x-slots, each weighing dv = 1/64
    assert electric_norm_sq(s.e_triple(), medium.eps, g) == pytest.approx(36 / 64, rel=1e-14)


def test_magnetic_norm_counting_example(medium):
    g = grid4()
    s = zero_state(g)
    s.hx[:] = 1.0
    assert magnetic_norm_sq(s.h_triple(), medium.mu, g) == pytest.approx(80 / 64, rel=1e-14)


def test_face_norm_counting_example(medium):
    g = grid4()
    s = zero_state(g)
    s.ey[:] = 1.0
    e_part, h_part = face_norm_sq(s, "x", medium, g)
    assert e_part == pytest.approx(6.0, rel=1e-14)
    assert h_part == 0.0


def test_zero_state_norms_vanish(medium):
    g = grid3()
    s = zero_state(g)
    assert energy_l2(s, medium, g) == 0.0
    for axis in "xyz":
        assert energy_h1(s, axis, medium, g) == 0.0
    assert face_norm_sq(s, "y", medium, g) == (0.0, 0.0)


def test_norms_are_quadratic(rng, medium):
    g = grid4(0.3)
    s = random_state(g, rng)
    c = 3.0
    cs = lincomb(c, s, 0.0, s)
    for func in (lambda u: energy_l2(u, medium, g),
                 lambda u: energy_h1(u, "x", medium, g),
                 lambda u: energy_h1(u, "z", medium, g),
                 lambda u: sum(face_norm_sq(u, "y", medium, g))):
        assert func(cs) == pytest.approx(c * c * func(s), rel=1e-13)


@pytest.mark.parametrize("cells", [(3, 3, 3), (4, 4, 4), (3, 4, 5)])
def test_norms_match_loop_oracles(cells, rng, medium):
    g = make_grid(*cells, 0.35)
    s = random_state(g, rng)
    assert electric_norm_sq(s.e_triple(), medium.eps, g) == pytest.approx(
        norm_e_loop(s.e_triple(), medium.eps, g), rel=1e-13)
    assert magnetic_norm_sq(s.h_triple(), medium.mu, g) == pytest.approx(
        norm_h_loop(s.h_triple(), medium.mu, g), rel=1e-13)
    for axis in "xyz":
        assert face_norm_sq(s, axis, medium, g) == pytest.approx(
            face_norm_loop(s, axis, medium, g), rel=1e-13)
        assert energy_h1(s, axis, medium, g) == pytest.approx(
            energy_h1_loop(s, axis, medium, g), rel=1e-13)
        assert state_sums(s, medium, g, axes=axis).h1[axis][0] == pytest.approx(
            energy_h1_loop(s, axis, medium, g, core=True), rel=1e-13)
    assert energy_l2(s, medium, g) == pytest.approx(energy_l2_loop(s, medium, g), rel=1e-13)
    assert state_sums(s, medium, g).l2_core == pytest.approx(
        energy_l2_loop(s, medium, g, core=True), rel=1e-13)
    rep, _, _ = divergence(s, medium, g)
    linf_e, l2_e, linf_h, l2_h = divergence_loop(s, medium, g)
    assert rep.div_e_linf == pytest.approx(linf_e, rel=1e-13)
    assert rep.div_e_l2 == pytest.approx(l2_e, rel=1e-13)
    assert rep.div_h_linf == pytest.approx(linf_h, rel=1e-13)
    assert rep.div_h_l2 == pytest.approx(l2_h, rel=1e-13)


def test_nonunit_medium_weights(rng):
    g = grid3()
    med = Medium(eps=3.0, mu=0.5)
    s = random_state(g, rng)
    assert electric_norm_sq(s.e_triple(), med.eps, g) == pytest.approx(
        norm_e_loop(s.e_triple(), med.eps, g), rel=1e-13)
    assert energy_h1(s, "y", med, g) == pytest.approx(
        energy_h1_loop(s, "y", med, g), rel=1e-13)
    assert energy_l2(s, med, g) == pytest.approx(energy_l2_loop(s, med, g), rel=1e-13)


def test_sampled_mode_energy_tracks_analytic_law(medium):
    # uniform trig sums are alias free, so the discrete component energies hit
    # the analytic values essentially to round-off, at every resolution
    for n in (8, 16):
        g = make_grid(n, n, n, 0.05)
        for t in (0.0, 0.3):
            s = sample_exact(t, g)
            e_sq = electric_norm_sq(s.e_triple(), medium.eps, g)
            h_sq = magnetic_norm_sq(s.h_triple(), medium.mu, g)
            assert abs(e_sq - ENERGY_TOTAL_SQ * math.cos(OMEGA * t) ** 2) <= 1e-13
            assert abs(h_sq - ENERGY_TOTAL_SQ * math.sin(OMEGA * t) ** 2) <= 1e-13
    # and in particular matches the quoted value 21/64 within the loose bound
    g = make_grid(16, 16, 16, 0.05)
    e_sq = electric_norm_sq(sample_exact(0.0, g).e_triple(), medium.eps, g)
    assert abs(e_sq - 21 / 64) / (21 / 64) <= 1e-2


def test_magnetic_energy_at_quarter_period(medium):
    g = make_grid(12, 12, 12, 0.05)
    t = 1.0 / (2.0 * math.sqrt(3.0))  # sin(omega t) = 1
    h_sq = magnetic_norm_sq(sample_exact(t, g).h_triple(), medium.mu, g)
    assert abs(h_sq - 21 / 64) / (21 / 64) <= 1e-2


def test_functionals_invariant_on_tiny_grid(rng, medium):
    g = grid3(0.9)
    s = random_state(g, rng)
    nxt = step(s, g, medium)
    for axis in "xyz":
        q0 = energy_h1(s, axis, medium, g)
        q1 = energy_h1(nxt, axis, medium, g)
        assert abs(q1 - q0) <= 1e-12 * q0
    q0 = energy_l2(s, medium, g)
    assert abs(energy_l2(nxt, medium, g) - q0) <= 1e-12 * q0


def test_dt_functionals_invariant(rng, medium):
    g = grid3(0.9)
    s0 = random_state(g, rng)
    s1 = step(s0, g, medium)
    s2 = step(s1, g, medium)
    s3 = step(s2, g, medium)
    d01, d12, d23 = (time_diff(b, a, g.dt) for a, b in ((s0, s1), (s1, s2), (s2, s3)))
    for axis in "xyz":
        a, b, c = (energy_h1(d, axis, medium, g) for d in (d01, d12, d23))
        assert abs(b - a) <= 1e-12 * a
        assert abs(c - b) <= 1e-12 * b
    a, b = energy_l2(d01, medium, g), energy_l2(d12, medium, g)
    assert abs(b - a) <= 1e-12 * a


def test_dt_functionals_zero_for_identical_levels(rng, medium):
    g = grid3()
    s = random_state(g, rng)
    s2 = s.copy()
    s2.time_level = 1.0
    rep = energy_report(s2, s, medium, g)
    assert rep.l2t == 0.0
    assert rep.h1t_x == 0.0


def test_dt_functionals_reject_non_consecutive_levels(rng, medium):
    g = grid3()
    s = random_state(g, rng)
    s2 = s.copy()
    s2.time_level = 0.5
    rep = energy_report(s2, None, medium, g)
    for functional in (lambda: energy_report(s2, s, medium, g),
                       lambda: energy_suite(s2, s, medium, g),
                       lambda: metrics(s2, s, g, medium, report=rep)):
        with pytest.raises(ValueError, match="consecutive"):
            functional()


def test_divergence_of_sampled_mode_cancels(medium):
    g = make_grid(10, 10, 10, 0.05)
    for t in (0.0, 0.41):
        rep, div_e, div_h = divergence(sample_exact(t, g), medium, g)
        assert rep.div_e_linf <= 1e-13
        assert rep.div_h_linf <= 1e-13
        assert div_e.shape == (9, 9, 9)
        assert div_h.shape == (10, 10, 10)
    # unequal mesh sizes break the cancellation
    g2 = make_grid(10, 12, 14, 0.05)
    rep2, _, _ = divergence(sample_exact(0.0, g2), medium, g2)
    assert rep2.div_e_linf > 1e-3


def test_divergence_zero_state(medium):
    g = grid3()
    rep, _, _ = divergence(zero_state(g), medium, g)
    assert rep == DivergenceReport(0.0, 0.0, 0.0, 0.0, 0.0)


def test_energy_report_and_csv(rng, medium):
    g = grid3(0.4)
    s0 = random_state(g, rng)
    s1 = step(s0, g, medium)
    rep0 = energy_report(s0, None, medium, g)
    assert rep0.h1t_x is None and rep0.l2t is None
    rep1 = energy_report(s1, s0, medium, g)
    assert rep1.l2t is not None and rep1.l2t > 0
    header_cols = EnergyReport.CSV_HEADER.split(",")
    row_cols = rep1.csv_row().split(",")
    assert len(header_cols) == len(row_cols)
    # 17-significant-digit cells round-trip exactly
    assert float(row_cols[1]) == rep1.h1_x
    empty_cells = rep0.csv_row().split(",")
    assert empty_cells[-1] == ""


def test_format_value():
    assert format_value(None) == ""
    x = 1 / 3
    assert float(format_value(x)) == x


def test_energy_suite_keys(rng, medium):
    g = grid3(0.4)
    s0 = random_state(g, rng)
    s1 = step(s0, g, medium)
    suite = energy_suite(s1, s0, medium, g)
    assert suite["norm1_sq"] == pytest.approx(energy_h1(s1, "x", medium, g), rel=1e-15)
    assert suite["norm2_sq"] == pytest.approx(energy_l2(s1, medium, g), rel=1e-15)
    assert suite["norm1_core_sq"] <= suite["norm1_sq"]
    assert suite["norm2t_sq"] is not None
    no_prev = energy_suite(s0, None, medium, g)
    assert no_prev["norm1t_sq"] is None


def test_face_norm_requires_three_cells():
    # make_grid rejects fewer than 3 cells, so the two wall planes of
    # face_norm_sq never collide
    with pytest.raises(ValueError):
        make_grid(2, 4, 4, 0.1)
