import math

import numpy as np
import pytest

from adimax import (diff, make_grid, split_curl_neg, split_curl_pos, time_diff, sample_exact,
                    zero_state)

from conftest import grid4, random_state
from oracles import lincomb, mode_component


def test_diff_of_constant_is_zero():
    g = make_grid(5, 5, 5, 0.1)
    u = np.full((5, 6, 6), 3.25)
    assert np.all(diff(u, 0, g) == 0.0)


def test_diff_exact_on_affine_samples():
    g = make_grid(8, 8, 8, 0.1)
    x = (np.arange(8) + 0.5) * g.dx
    u = np.broadcast_to(x[:, None, None], (8, 9, 9)).copy()
    d = diff(u, 0, g)
    assert np.max(np.abs(d - 1.0)) <= 1e-13


def test_diff_trig_identity_and_direct_quotient():
    # d_x of cos(pi(1-x)) sampled at half points equals
    # (2 sin(pi h/2) / h) * sin(pi(1-x)) at the whole points
    g = make_grid(9, 3, 3, 0.1)
    xh = (np.arange(9) + 0.5) * g.dx
    u = np.cos(math.pi * (1 - xh))[:, None, None] * np.ones((9, 4, 4))
    d = diff(u, 0, g)
    xi = np.arange(1, 9) * g.dx
    expected = (2 * math.sin(math.pi * g.dx / 2) / g.dx) * np.sin(math.pi * (1 - xi))
    assert np.max(np.abs(d - expected[:, None, None])) <= 1e-12
    # and against the raw difference quotient, point by point
    for i in range(1, 9):
        q = (u[i, 0, 0] - u[i - 1, 0, 0]) / g.dx
        assert d[i - 1, 0, 0] == q


def test_diff_linearity(rng):
    g = make_grid(6, 6, 6, 0.1)
    u = rng.standard_normal((6, 7, 7))
    v = rng.standard_normal((6, 7, 7))
    lhs = diff(2.5 * u - 1.25 * v, 1, g)
    rhs = 2.5 * diff(u, 1, g) - 1.25 * diff(v, 1, g)
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-14 * scale


def test_diff_axes_commute(rng):
    g = make_grid(6, 6, 6, 0.1)
    u = rng.standard_normal((7, 7, 7))
    a = diff(diff(u, 0, g), 1, g)
    b = diff(diff(u, 1, g), 0, g)
    assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(a))


def test_diff_rejects_tiny_extent():
    g = make_grid(3, 3, 3, 0.1)
    with pytest.raises(ValueError):
        diff(np.ones((1, 4, 4)), 0, g)


def test_time_diff(rng):
    g = grid4()
    a = random_state(g, rng, time_level=0.0)
    b = random_state(g, rng, time_level=1.0)
    zero = time_diff(a, a, g.dt)
    assert zero.max_abs() == 0.0
    twice = lincomb(2.0, a, 0.0, a, time_level=1.0)
    assert np.allclose(time_diff(twice, a, 1.0).ex, a.ex, rtol=0, atol=1e-15)
    assert time_diff(b, a, g.dt).time_level == pytest.approx(0.5)
    # same bits as the two-term linear combination
    d, ref = time_diff(b, a, g.dt), lincomb(1.0 / g.dt, b, -1.0 / g.dt, a)
    assert all(np.array_equal(x, getattr(ref, c)) for c, x in d.components())


def test_time_diff_derivative_accuracy():
    # (sample(dt) - sample(0)) / dt approximates the analytic time derivative
    # at dt/2 to second order, checked by halving dt
    from adimax.manufactured import OMEGA
    g1 = make_grid(6, 6, 6, 0.02)
    g2 = make_grid(6, 6, 6, 0.01)
    errs = []
    for g in (g1, g2):
        d = time_diff(sample_exact(g.dt, g), sample_exact(0.0, g), g.dt)
        x = (np.arange(6) + 0.5) * g.dx
        y = np.arange(7) * g.dy
        z = np.arange(7) * g.dz
        amp = mode_component("ex", 0.0, x[:, None, None], y[None, :, None], z[None, None, :])
        exact_dt = -OMEGA * math.sin(OMEGA * g.dt / 2) * amp  # analytic d(ex)/dt at dt/2
        errs.append(np.max(np.abs(d.ex - exact_dt)))
    # halving dt should shrink the defect by at least a factor ~4
    assert errs[1] <= errs[0] / 3.0


def test_split_curl_zero_and_flat_cases():
    g = grid4()
    zeros = tuple(np.zeros(s.shape) for s in zero_state(g).e_triple())
    for part in split_curl_pos(zeros, g):
        assert np.all(part == 0.0)
    # E-located triple with ez = z has no y dependence: d_y ez == 0
    s = zero_state(g)
    zh = (np.arange(4) + 0.5) * g.dz
    s.ez[:] = zh[None, None, :]
    assert np.all(split_curl_pos(s.e_triple(), g)[0] == 0.0)
    # H-located triple with hx = x: d_y hx == 0
    s = zero_state(g)
    xi = np.arange(5) * g.dx
    s.hx[:] = xi[:, None, None]
    assert np.all(split_curl_neg(s.h_triple(), g)[2] == 0.0)


def test_split_curl_matches_pointwise_quotients():
    g = grid4(0.5)
    s = sample_exact(0.0, g)
    dy_ez, dz_ex, dx_ey = split_curl_pos(s.e_triple(), g)
    for i in range(5):
        for j in range(4):
            for k in range(4):
                assert dy_ez[i, j, k] == (s.ez[i, j + 1, k] - s.ez[i, j, k]) / g.dy
    sh = sample_exact(0.5, g)
    dz_hy, dx_hz, dy_hx = split_curl_neg(sh.h_triple(), g)
    for i in range(4):
        for j in range(5):
            for k in range(3):
                assert dz_hy[i, j, k] == (sh.hy[i, j, k + 1] - sh.hy[i, j, k]) / g.dz
    for i in range(3):
        for j in range(4):
            for k in range(5):
                assert dx_hz[i, j, k] == (sh.hz[i + 1, j, k] - sh.hz[i, j, k]) / g.dx


def test_summation_by_parts_identity(rng):
    # sum_m U_{m+1/2} dV_{m+1/2} = (U_{M-1/2} V_M - U_{1/2} V_0)/h - sum_m V_m dU_m,
    # with d the divided half-shift difference.  (The divided form forces the
    # 1/h on the boundary pair; dropping it breaks the identity for h != 1.)
    for m_len in range(1, 9):
        for h in (0.1, 1.0, 3.0):
            u = rng.standard_normal(m_len)        # U_{m+1/2}, m = 0..M-1
            v = rng.standard_normal(m_len + 1)    # V_m, m = 0..M
            lhs = sum(u[m] * (v[m + 1] - v[m]) / h for m in range(m_len))
            rhs = (u[-1] * v[-1] - u[0] * v[0]) / h
            rhs -= sum(v[m] * (u[m] - u[m - 1]) / h for m in range(1, m_len))
            scale = max(1.0, abs(lhs))
            assert abs(lhs - rhs) <= 1e-13 * scale
