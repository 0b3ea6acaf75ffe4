import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from adimax import (DivergenceReport, Medium, divergence, energy_h1, energy_l2,
                    energy_report, energy_suite, enforce_pec, make_grid, metrics,
                    norms, sample_exact, sample_semidiscrete, step, stepper, zero_state)
from adimax.harness import _OutDir, format_value
from adimax.manufactured import OMEGA, energy_constants
from adimax.norms import state_sums

from conftest import force_split, grid3, grid4, random_state
from oracles import (divergence_loop, energy_h1_loop, energy_l2_loop, lincomb,
                     norm_e_loop, norm_h_loop, state_sums_formula, time_diff)


def test_electric_norm_counting_example(medium):
    g = grid4()
    s = zero_state(g)
    s.ex[:] = 1.0
    # 4 * 3 * 3 contributing x-slots, each weighing eps dv = eps/64
    assert state_sums(s, medium, g).e_sq == pytest.approx(36 / 64 * medium.eps, rel=1e-14)


def test_magnetic_norm_counting_example(medium):
    g = grid4()
    s = zero_state(g)
    s.hx[:] = 1.0
    assert state_sums(s, medium, g).h_sq == pytest.approx(80 / 64 * medium.mu, rel=1e-14)


def test_face_norm_counting_example(medium):
    g = grid4()
    s = zero_state(g)
    s.ey[:] = 1.0
    # every volume term of this state is zero, so the core x energy is the wall planes':
    # ey on i' = 1, 3 and interior z, 4 * 3 entries each, eps dy dz / dx = eps / 4 apiece
    # (hx is zero, so the wall-normal H planes add nothing)
    assert state_sums(s, medium, g, axes="x").h1["x"][0] == pytest.approx(6.0 * medium.eps,
                                                                          rel=1e-14)


def test_zero_state_norms_vanish(medium):
    g = grid3()
    s = zero_state(g)
    assert energy_l2(s, medium, g) == 0.0
    for axis in "xyz":
        assert energy_h1(s, axis, medium, g) == 0.0


def test_norms_are_quadratic(rng, medium):
    g = grid4(0.3)
    s = random_state(g, rng)
    c = 3.0
    cs = lincomb(c, s, 0.0, s)
    for func in (lambda u: energy_l2(u, medium, g),
                 lambda u: energy_h1(u, "x", medium, g),
                 lambda u: energy_h1(u, "z", medium, g),
                 lambda u: state_sums(u, medium, g, axes="y").h1["y"][0]):
        assert func(cs) == pytest.approx(c * c * func(s), rel=1e-13)


@pytest.mark.parametrize("cells", [(3, 3, 3), (4, 4, 4), (3, 4, 5)])
def test_norms_match_loop_oracles(cells, rng, medium):
    g = make_grid(*cells, 0.35)
    s = random_state(g, rng)
    sums = state_sums(s, medium, g)
    assert sums.e_sq == pytest.approx(norm_e_loop(s.e_triple(), medium.eps, g), rel=1e-13)
    assert sums.h_sq == pytest.approx(norm_h_loop(s.h_triple(), medium.mu, g), rel=1e-13)
    for axis in "xyz":
        assert energy_h1(s, axis, medium, g) == pytest.approx(
            energy_h1_loop(s, axis, medium, g), rel=1e-13)
        assert sums.h1[axis][0] == pytest.approx(
            energy_h1_loop(s, axis, medium, g, core=True), rel=1e-13)
    assert energy_l2(s, medium, g) == pytest.approx(energy_l2_loop(s, medium, g), rel=1e-13)
    assert sums.l2_core == pytest.approx(
        energy_l2_loop(s, medium, g, core=True), rel=1e-13)
    rep = divergence(s, medium, g)
    linf_e, l2_e, linf_h, l2_h = divergence_loop(s, medium, g)
    assert rep.div_e_linf == pytest.approx(linf_e, rel=1e-13)
    assert rep.div_e_l2 == pytest.approx(l2_e, rel=1e-13)
    assert rep.div_h_linf == pytest.approx(linf_h, rel=1e-13)
    assert rep.div_h_l2 == pytest.approx(l2_h, rel=1e-13)


def test_nonunit_medium_weights(rng):
    g = grid3()
    med = Medium(eps=3.0, mu=0.5)
    s = random_state(g, rng)
    assert state_sums(s, med, g).e_sq == pytest.approx(
        norm_e_loop(s.e_triple(), med.eps, g), rel=1e-13)
    assert energy_h1(s, "y", med, g) == pytest.approx(
        energy_h1_loop(s, "y", med, g), rel=1e-13)
    assert energy_l2(s, med, g) == pytest.approx(energy_l2_loop(s, med, g), rel=1e-13)


def test_sampled_mode_energy_tracks_analytic_law(medium):
    # uniform trig sums are alias free, so the discrete component energies hit
    # the analytic values essentially to round-off, at every resolution
    total, w = energy_constants(medium)["total"], OMEGA / math.sqrt(medium.eps * medium.mu)
    for n in (8, 16):
        g = make_grid(n, n, n, 0.05)
        for t in (0.0, 0.3):
            sums = state_sums(sample_exact(t, g, medium), medium, g, axes="")
            assert abs(sums.e_sq - total * math.cos(w * t) ** 2) <= 1e-13
            assert abs(sums.h_sq - total * math.sin(w * t) ** 2) <= 1e-13
    # and in particular matches the quoted value 21/64 eps within the loose bound
    g = make_grid(16, 16, 16, 0.05)
    e_sq = state_sums(sample_exact(0.0, g, medium), medium, g, axes="").e_sq
    assert abs(e_sq - total) / total <= 1e-2


def test_magnetic_energy_at_quarter_period(medium):
    g = make_grid(12, 12, 12, 0.05)
    total = energy_constants(medium)["total"]
    t = math.sqrt(medium.eps * medium.mu) / (2.0 * math.sqrt(3.0))  # sin(omega t) = 1
    h_sq = state_sums(sample_exact(t, g, medium), medium, g, axes="").h_sq
    assert abs(h_sq - total) / total <= 1e-2


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
    _, d = energy_report(s2, s, medium, g)
    assert d.l2 == 0.0
    assert d.h1["x"][1] == 0.0


def test_dt_functionals_reject_non_consecutive_levels(rng, medium):
    g = grid3()
    s = random_state(g, rng)
    s2 = s.copy()
    s2.time_level = 0.5
    for functional in (lambda: energy_report(s2, s, medium, g),
                       lambda: energy_suite(s2, s, medium, g),
                       lambda: metrics(s2, s, g, medium)):
        with pytest.raises(ValueError, match="consecutive"):
            functional()


def test_divergence_of_sampled_mode_cancels(medium):
    g = make_grid(10, 10, 10, 0.05)
    for t in (0.0, 0.41):
        rep = divergence(sample_exact(t, g), medium, g)
        assert rep.div_e_linf <= 1e-13
        assert rep.div_h_linf <= 1e-13
    # unequal mesh sizes break the cancellation
    g2 = make_grid(10, 12, 14, 0.05)
    rep2 = divergence(sample_exact(0.0, g2), medium, g2)
    assert rep2.div_e_linf > 1e-3


def test_divergence_zero_state(medium):
    g = grid3()
    rep = divergence(zero_state(g), medium, g)
    assert rep == DivergenceReport(0.0, 0.0, 0.0, 0.0)


def test_energy_report_and_csv(tmp_path, rng, medium):
    g = grid3(0.4)
    s0 = random_state(g, rng)
    s1 = step(s0, g, medium)
    now0, d0 = energy_report(s0, None, medium, g)
    assert d0 is None and now0 == state_sums(s0, medium, g)
    now1, d1 = energy_report(s1, s0.copy(), medium, g)  # the copy is consumed
    assert d1 == state_sums(time_diff(s1, s0, g.dt), medium, g) and d1.l2 > 0
    _OutDir(tmp_path).write_csv("energy.csv", [
        {"Q_h1x": now.h1["x"][1], "Q_l2t": None if d is None else d.l2}
        for now, d in ((now0, d0), (now1, d1))])
    header, row0, row1 = (line.split(",") for line in
                          (tmp_path / "energy.csv").read_text().splitlines())
    assert header == ["Q_h1x", "Q_l2t"] and len(row0) == len(row1) == 2
    # 17-significant-digit cells round-trip exactly
    assert float(row1[0]) == now1.h1["x"][1]
    assert row0[-1] == ""


def test_format_value():
    assert format_value(None) == ""
    x = 1 / 3
    assert float(format_value(x)) == x


def test_energy_suite_keys(rng, medium):
    g = grid3(0.4)
    s0 = random_state(g, rng)
    s1 = step(s0, g, medium)
    now, d = energy_suite(s1, s0.copy(), medium, g)  # the copy is consumed
    assert list(now.h1) == list(d.h1) == ["x"]  # the audit's norms: along x alone
    assert now.h1["x"][1] == pytest.approx(energy_h1(s1, "x", medium, g), rel=1e-15)
    assert now.l2 == pytest.approx(energy_l2(s1, medium, g), rel=1e-15)
    assert now.h1["x"][0] <= now.h1["x"][1]
    assert (now, d) == (state_sums(s1, medium, g, "x"),
                        state_sums(time_diff(s1, s0, g.dt), medium, g, "x"))
    assert energy_suite(s0, None, medium, g)[1] is None


@pytest.mark.parametrize("threaded", [False, True], ids=["single", "threaded"])
def test_tick_sums_are_the_sums_of_whole_states(threaded, medium, rng, monkeypatch):
    # the tick functionals take their sums one component at a time, the error and each
    # time difference formed a lattice at a time in scratch or in prev's arrays; they are
    # the sums of the whole states formed explicitly, taken from whole lattices, bit for
    # bit, on one thread and on two
    g = make_grid(12, 20, 9, 0.7)
    prev = random_state(g, rng, time_level=2.0)
    curr = step(prev, g, medium)
    if threaded:
        force_split(monkeypatch)
    else:
        monkeypatch.setattr(stepper, "_THREAD_MIN", 10 ** 9)
    whole = lambda u, axes="x": state_sums_formula(u, medium, g, axes)  # noqa: E731
    for reference in (sample_exact, sample_semidiscrete):
        errors = [lincomb(1.0, reference(s.time_level * g.dt, g, medium), -1.0, s)
                  for s in (curr, prev)]
        want = (whole(errors[0]), whole(time_diff(*errors, g.dt)))
        assert metrics(curr, prev, g, medium, reference) == want
        assert metrics(curr, None, g, medium, reference) == (want[0], None)
    for axes, functional in (("xyz", energy_report), ("x", energy_suite)):
        want = (whole(curr, axes), whole(time_diff(curr, prev, g.dt), axes))
        assert functional(curr, prev.copy(), medium, g) == want  # the copy is consumed
    assert all(state_sums(curr, medium, g, axes) == whole(curr, axes) for axes in ("", "zy"))


def test_tick_sums_add_the_wall_terms_in_their_order():
    # large tangential E on the planes i' = 1 weights the wall-plane terms of the E half,
    # so summing them in another order moves the last bits of the H1 energies along x
    g = make_grid(12, 20, 9, 5.0)
    med = Medium(eps=2.5, mu=0.4)
    s = random_state(g, np.random.default_rng(15))
    s.ey[1] *= 1e4
    s.ez[1] *= 1e4
    s = enforce_pec(s)
    for axes in ("x", "xyz"):
        assert state_sums(s, med, g, axes) == state_sums_formula(s, med, g, axes)


def test_face_norm_requires_three_cells():
    # make_grid rejects fewer than 3 cells, so the two wall planes of an
    # axis (i' = 1, n - 1) never collide
    with pytest.raises(ValueError):
        make_grid(2, 4, 4, 0.1)


# --- state_sums on two threads ----------------------------------------------

_SUM_GRIDS = [
    pytest.param((12, 20, 9), 0.7, Medium(eps=2.5, mu=0.4), id="12x20x9"),
    pytest.param((3, 4, 5), 1.7, Medium(), id="3x4x5"),
    pytest.param((20, 20, 20), 0.4, Medium(), id="20^3"),
]


def _worker_halves(monkeypatch) -> list[int]:
    """Record the thread id of every H half of `state_sums`."""
    h_half, threads = norms._h_half, []

    def recording(*args):
        threads.append(threading.get_ident())
        return h_half(*args)

    monkeypatch.setattr(norms, "_h_half", recording)
    return threads


@pytest.mark.parametrize("axes", ["", "x", "xyz"], ids=["none", "x", "xyz"])
@pytest.mark.parametrize("cells, dt, med", _SUM_GRIDS)
def test_threaded_sums_are_the_single_thread_sums(cells, dt, med, axes, rng, monkeypatch):
    g = make_grid(*cells, dt)
    s = random_state(g, rng)
    halves = _worker_halves(monkeypatch)
    force_split(monkeypatch)
    monkeypatch.setattr(stepper, "_THREAD_MIN", 10 ** 9)
    alone = state_sums(s, med, g, axes)
    assert halves == [threading.get_ident()]
    monkeypatch.setattr(stepper, "_THREAD_MIN", 0)
    assert state_sums(s, med, g, axes) == alone  # every field, each float with ==
    assert len(halves) == 2 and halves[1] != threading.get_ident()


def test_threaded_tick_functionals_are_the_single_thread_ones(monkeypatch):
    g = make_grid(12, 20, 9, 0.7)
    med = Medium(eps=2.5, mu=0.4)
    prev = enforce_pec(sample_exact(0.0, g, med))
    curr = step(prev, g, med)

    def tick():
        # energy_report and energy_suite consume their prev: each gets a copy, kept to compare
        report_prev, suite_prev = prev.copy(), prev.copy()
        sums = (energy_report(curr, report_prev, med, g), energy_suite(curr, suite_prev, med, g),
                metrics(curr, prev, g, med), divergence(curr, med, g))
        states = (report_prev, suite_prev, stepper.carry(curr, g, med), step(curr, g, med))
        return sums, [a.tobytes() for state in states for _, a in state.components()]

    force_split(monkeypatch)
    worker, splits = stepper._worker(), []

    class Counting:  # counts every hand-off to the worker
        def submit(self, *job):
            splits.append(job)
            return worker.submit(*job)

    monkeypatch.setattr(stepper, "_worker", Counting)
    monkeypatch.setattr(stepper, "_THREAD_MIN", 10 ** 9)
    monkeypatch.setattr(stepper, "_SPLIT_MIN", 10 ** 9)
    alone = tick()
    assert splits == []
    monkeypatch.setattr(stepper, "_THREAD_MIN", 0)
    monkeypatch.setattr(stepper, "_SPLIT_MIN", 0)
    assert tick() == alone  # each float with ==, each lattice byte for byte
    # one pass each over the components (the sums of the level or the error and of its time
    # difference) for energy_report, energy_suite and metrics; divergence; carry; and per
    # stage of the classic step, its right-hand side (through carry) and its half-update
    assert len(splits) == 1 + 1 + 1 + 1 + 1 + 2 * 2


@pytest.mark.parametrize("threaded", [False, True], ids=["single", "threaded"])
def test_time_difference_in_prev_is_the_fresh_one(threaded, rng, monkeypatch):
    # energy_report forms (curr - prev)/dt in prev's arrays with the operations of
    # oracles.time_diff, so its sums are those of the fresh difference, bit for bit; the
    # difference of two PEC levels keeps exact (positive) zeros on the tangential-E walls,
    # which the stage writing the next level into those arrays needs
    g = make_grid(12, 20, 9, 0.7)
    med = Medium(eps=2.5, mu=0.4)
    prev = random_state(g, rng)
    curr = step(prev, g, med)
    fresh = time_diff(curr, prev, g.dt)
    if threaded:
        force_split(monkeypatch)
    consumed = prev.copy()
    now, d = energy_report(curr, consumed, med, g)
    assert now == state_sums(curr, med, g) and d == state_sums(fresh, med, g)
    assert all(a.tobytes() == getattr(fresh, name).tobytes()
               for name, a in consumed.components())
    for comp, walls in (("ex", (1, 2)), ("ey", (0, 2)), ("ez", (0, 1))):
        for axis in walls:
            wall = np.moveaxis(getattr(consumed, comp), axis, 0)[[0, -1]]
            assert wall.tobytes() == np.zeros_like(wall).tobytes(), (comp, axis)


@pytest.mark.parametrize("threaded, bound", [(False, 0.38), (True, 0.75)],
                         ids=["single", "threaded"])
def test_state_sums_scratch_stays_under_bound(threaded, bound, monkeypatch):
    """Scratch peak of one pass on 40^3, in field states: a piece, the size of a component
    lattice, and a buffer per half, shared by the halves on one thread.

    In numpy 2.4, ufuncs over non-contiguous views allocate iteration buffers that
    tracemalloc counts, so the peak overstates the live lattices by up to about one."""
    g = make_grid(40, 40, 40, 0.125)
    med = Medium()
    s = step(enforce_pec(sample_exact(0.0, g, med)), g, med)
    force_split(monkeypatch)
    monkeypatch.setattr(stepper, "_THREAD_MIN", 0 if threaded else 10 ** 9)
    state_sums(s, med, g)  # the worker is started outside the measurement
    state_bytes = sum(a.nbytes for _, a in s.components())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        state_sums(s, med, g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / state_bytes < bound


@pytest.mark.parametrize("failing", ["_e_half", "_h_half"], ids=["caller", "worker"])
def test_threaded_sums_join_the_worker_before_raising(failing, rng, monkeypatch):
    g = make_grid(12, 20, 9, 0.7)
    med = Medium(eps=2.5, mu=0.4)
    s = random_state(g, rng)
    want = state_sums(s, med, g)
    force_split(monkeypatch)
    other = "_h_half" if failing == "_e_half" else "_e_half"
    half, finished = getattr(norms, other), []

    def slow(*args):
        time.sleep(0.05)
        out = half(*args)
        finished.append(other)
        return out

    def boom(*args):
        raise ArithmeticError("half failed")

    with monkeypatch.context() as patch:
        patch.setattr(norms, other, slow)
        patch.setattr(norms, failing, boom)
        with pytest.raises(ArithmeticError, match="half failed"):
            state_sums(s, med, g)
        assert finished == [other]
    assert state_sums(s, med, g) == want  # the worker is idle again


def test_threaded_sums_from_more_callers_than_cores(rng, monkeypatch):
    g = make_grid(12, 20, 9, 0.7)
    med = Medium(eps=2.5, mu=0.4)
    states = [random_state(g, rng) for _ in range(4)]
    want = [state_sums(s, med, g) for s in states]
    halves = _worker_halves(monkeypatch)
    force_split(monkeypatch)
    got = [None] * len(states)

    def caller(i):
        got[i] = [state_sums(states[i], med, g) for _ in range(5)]

    callers = [threading.Thread(target=caller, args=(i,)) for i in range(len(states))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert len(halves) == 5 * len(states)
    assert got == [[w] * 5 for w in want]


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork with a live thread
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_computes_threaded_sums(rng, monkeypatch):
    g = make_grid(12, 20, 9, 0.7)
    med = Medium(eps=2.5, mu=0.4)
    s = random_state(g, rng)
    want = state_sums(s, med, g)
    halves = _worker_halves(monkeypatch)
    force_split(monkeypatch)
    assert state_sums(s, med, g) == want  # the parent's worker is running now
    assert halves and threading.get_ident() not in halves

    def child():
        halves.clear()
        assert state_sums(s, med, g) == want
        assert halves and threading.get_ident() not in halves

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=60)
    if proc.is_alive():
        proc.kill()
        proc.join()
        pytest.fail("the forked child did not finish its sums within 60 s")
    assert proc.exitcode == 0


def test_split_step_and_threaded_tick_share_one_worker(rng, monkeypatch):
    g = make_grid(12, 20, 9, 0.7)
    med = Medium(eps=2.5, mu=0.4)
    workers = force_split(monkeypatch)
    halves = _worker_halves(monkeypatch)
    s = step(random_state(g, rng), g, med)
    energy_report(step(s, g, med), s, med, g)
    assert set(workers) == set(halves) and threading.get_ident() not in workers
    assert sum(t.name.startswith("adimax-slab") for t in threading.enumerate()) == 1
