import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from adimax import (FieldState, Medium, NonFiniteFieldError, enforce_pec, make_grid,
                    sample_exact, stage1, stage2, step, step_residual, zero_state)
from adimax import norms, stepper
from adimax.norms import energy_l2, energy_report
from adimax.operators import diff

from conftest import force_split, grid3, grid4, max_component_diff, random_state
from oracles import adi_step_loop, dense_tridiag_solve, lincomb, residual_formula


def test_tridiagonal_identity_when_lambda_zero():
    rhs = np.array([1.0, -2.0, 3.5])
    out = stepper._solve_lines(0.0, rhs.copy(), 0)
    assert np.array_equal(out, rhs)


def test_tridiagonal_zero_rhs():
    out = stepper._solve_lines(4.2, np.zeros(9), 0)
    assert np.all(out == 0.0)


def test_tridiagonal_matches_dense_oracle(rng):
    for lam in (1e-6, 0.3, 2.0, 50.0):
        rhs = rng.standard_normal(16)
        got = stepper._solve_lines(lam, rhs.copy(), 0)
        want = dense_tridiag_solve(lam, rhs)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_tridiagonal_residual_tiny(rng):
    lam = 7.5
    rhs = rng.standard_normal(33)
    u = stepper._solve_lines(lam, rhs.copy(), 0)
    padded = np.concatenate([[0.0], u, [0.0]])
    res = (1 + 2 * lam) * padded[1:-1] - lam * (padded[2:] + padded[:-2]) - rhs
    assert np.max(np.abs(res)) <= 1e-13 * max(1.0, np.max(np.abs(rhs)))


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("lam", [0.0, 0.3, 7.5])
def test_batched_solve_matches_per_pencil(lam, axis, rng):
    # pencil lengths 2, 3 and 5 along axes 0, 1 and 2
    rhs = rng.standard_normal((2, 3, 5))
    got = stepper._solve_lines(lam, rhs.copy(), axis)
    want = np.apply_along_axis(lambda v: stepper._solve_lines(lam, v.copy(), 0), axis, rhs)
    assert got.shape == rhs.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    if lam == 0.0:
        assert np.array_equal(got, rhs)
    # a second call reads the cached elimination coefficients
    again = stepper._solve_lines(lam, rhs.copy(), axis)
    assert np.array_equal(again, got)


def test_zero_state_is_fixed_point(medium):
    g = grid4(0.3)
    s = zero_state(g)
    out = step(s, g, medium)
    assert out.max_abs() == 0.0
    assert out.time_level == 1.0


@pytest.mark.parametrize("dt", [1e-4, 0.05, 1.0])
def test_stage_residuals_on_sampled_mode(dt, medium):
    g = make_grid(8, 8, 8, dt)
    s0 = enforce_pec(sample_exact(0.0, g, medium))
    half = stage1(s0, g, medium)
    full = stage2(half, g, medium)
    assert step_residual(s0, half, full, g, medium) <= 1e-12


@pytest.mark.parametrize("dt", [1e-4, 0.05, 1.0])
def test_stage_residuals_on_random_pec_data(dt, rng, medium):
    g = make_grid(8, 8, 8, dt)
    s0 = random_state(g, rng)
    half = stage1(s0, g, medium)
    full = stage2(half, g, medium)
    assert step_residual(s0, half, full, g, medium) <= 1e-12


def test_stage_residuals_anisotropic_grid_nonunit_medium(rng):
    med = Medium(eps=2.5, mu=0.4)
    g = make_grid(12, 20, 9, 0.7)
    for s0 in (random_state(g, rng), enforce_pec(sample_exact(0.0, g))):
        half = stage1(s0, g, med)
        full = stage2(half, g, med)
        assert step_residual(s0, half, full, g, med) <= 1e-12


def test_residual_detects_perturbation(rng, medium):
    g = make_grid(8, 8, 8, 0.05)
    s0 = random_state(g, rng)
    half = stage1(s0, g, medium)
    half.ex[3, 4, 2] += 1e-6
    assert stepper._residual(s0, half, g, medium, stage=1) >= 1e-7


def test_residual_zero_states(medium):
    g = grid4()
    z = zero_state(g)
    assert stepper._residual(z, z, g, medium, stage=1) == 0.0


def test_stage_rejects_non_finite(medium):
    g = grid3()
    for value in (np.inf, np.nan):  # a NaN raises no floating-point flag on its way through
        s = zero_state(g)
        s.hy[1, 1, 1] = value
        # the input is rejected before any arithmetic, so numpy warns of no inf - inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteFieldError, match="stage 1 input"):
                stage1(s, g, medium)


@pytest.mark.parametrize("form, stage", [("carry", 1), ("stage1", 1), ("stage2", 2)])
def test_right_hand_side_overflow_names_its_stage(form, stage):
    # ch / h = 2.8 on 8^3 at dt 0.7, so the H part of (I + A) s overflows; the input is finite
    g = make_grid(8, 8, 8, 0.7)
    s = zero_state(g)
    s.ex[3, 3, 3] = np.finfo(float).max
    forms = {"carry": stepper.carry, "stage1": stage1, "stage2": stage2}
    with pytest.raises(NonFiniteFieldError, match=f"stage {stage} right-hand side: overflow"):
        forms[form](s, g, Medium())


def test_step_linearity(rng, medium):
    g = grid4(0.7)
    s1 = random_state(g, rng)
    s2 = random_state(g, rng)
    combo = lincomb(0.8, s1, -1.7, s2)
    direct = step(combo, g, medium)
    split = lincomb(0.8, step(s1, g, medium), -1.7, step(s2, g, medium), time_level=1.0)
    scale = max(1.0, direct.max_abs())
    assert max_component_diff(direct, split) <= 1e-13 * scale


def _assert_walls_zero(out):
    assert np.all(out.ex[:, 0, :] == 0.0) and np.all(out.ex[:, -1, :] == 0.0)
    assert np.all(out.ex[:, :, 0] == 0.0) and np.all(out.ex[:, :, -1] == 0.0)
    assert np.all(out.ey[0, :, :] == 0.0) and np.all(out.ey[-1, :, :] == 0.0)
    assert np.all(out.ey[:, :, 0] == 0.0) and np.all(out.ey[:, :, -1] == 0.0)
    assert np.all(out.ez[0, :, :] == 0.0) and np.all(out.ez[-1, :, :] == 0.0)
    assert np.all(out.ez[:, 0, :] == 0.0) and np.all(out.ez[:, -1, :] == 0.0)


def test_wall_entries_bitwise_zero_after_each_stage(rng, medium):
    g = make_grid(5, 4, 3, 0.6)
    half = stage1(random_state(g, rng), g, medium)
    _assert_walls_zero(half)
    assert half.time_level == pytest.approx(0.5)
    full = stage2(half, g, medium)
    _assert_walls_zero(full)


def test_wall_normal_h_is_frozen(rng, medium):
    g = grid4(0.4)
    s = random_state(g, rng)
    out = step(s, g, medium)
    assert np.array_equal(out.hx[0, :, :], s.hx[0, :, :])
    assert np.array_equal(out.hx[-1, :, :], s.hx[-1, :, :])
    assert np.array_equal(out.hy[:, 0, :], s.hy[:, 0, :])
    assert np.array_equal(out.hz[:, :, -1], s.hz[:, :, -1])


@pytest.mark.parametrize("cells, dt, med", [
    pytest.param((3, 3, 3), 0.45, Medium(), id="cells0"),
    pytest.param((4, 4, 4), 0.45, Medium(), id="cells1"),
    pytest.param((3, 4, 5), 0.45, Medium(), id="cells2"),
    pytest.param((3, 4, 5), 0.45, Medium(eps=2.0, mu=0.5), id="cells2-eps2-mu0.5"),
    pytest.param((3, 4, 5), 1.7, Medium(), id="cells2-dt1.7"),
])
def test_step_matches_dense_loop_oracle(cells, dt, med, rng):
    g = make_grid(*cells, dt)
    s = random_state(g, rng)
    got = step(s, g, med)
    want = adi_step_loop(s, g, med)
    scale = max(1.0, want.max_abs())
    assert max_component_diff(got, want) <= 1e-12 * scale


# --- two slabs on two threads ---------------------------------------------

def _assert_same_bytes(got, want):
    assert got.time_level == want.time_level
    for (name, a), (_, b) in zip(got.components(), want.components()):
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("cells, dt, med", [
    pytest.param((12, 20, 9), 0.7, Medium(eps=2.5, mu=0.4), id="12x20x9"),
    pytest.param((3, 3, 3), 0.45, Medium(), id="3x3x3"),
    pytest.param((3, 4, 5), 1.7, Medium(), id="3x4x5"),
    pytest.param((20, 20, 20), 0.4, Medium(), id="20^3"),
    pytest.param((6, 6, 4), 0.7, Medium(), id="6x6x4"),
])
def test_split_half_updates_are_bytewise_the_unsplit_ones(cells, dt, med, rng, monkeypatch):
    g = make_grid(*cells, dt)
    s = random_state(g, rng)
    whole = [update(s, g, med) for update in (stage1, stage2, step)]
    workers = force_split(monkeypatch)
    for update, want in zip((stage1, stage2, step), whole):
        _assert_same_bytes(update(s, g, med), want)
    assert workers and threading.get_ident() not in workers


@pytest.mark.parametrize("cells, med", [
    pytest.param((3, 4, 5), Medium(eps=2.0, mu=0.5), id="3x4x5-eps2-mu0.5"),
    pytest.param((5, 4, 6), Medium(), id="5x4x6"),
])
def test_split_step_matches_dense_loop_oracle(cells, med, rng, monkeypatch):
    g = make_grid(*cells, 0.45)
    s = random_state(g, rng)
    want = adi_step_loop(s, g, med)
    workers = force_split(monkeypatch)
    got = step(s, g, med)
    assert workers
    assert max_component_diff(got, want) <= 1e-12 * max(1.0, want.max_abs())


def test_split_solves_and_guards_run_on_the_calling_thread(rng, monkeypatch):
    g = make_grid(12, 20, 9, 0.7)
    med = Medium(eps=2.5, mu=0.4)
    workers = force_split(monkeypatch)
    solve, finite, calls = stepper._solve_lines, FieldState.all_finite, []

    def solve_here(lam, rhs, axis):
        calls.append(("solve", threading.get_ident()))
        return solve(lam, rhs, axis)

    def finite_here(state):
        calls.append(("guard", threading.get_ident()))
        return finite(state)

    monkeypatch.setattr(stepper, "_solve_lines", solve_here)
    monkeypatch.setattr(FieldState, "all_finite", finite_here)
    s = random_state(g, rng)
    for _ in range(3):
        s = step(s, g, med)
    assert [kind for kind, _ in calls].count("solve") == 6 * 3
    assert [kind for kind, _ in calls].count("guard") == 2 * 3
    assert {ident for _, ident in calls} == {threading.get_ident()}
    assert len(workers) == 6 * 3 and threading.get_ident() not in workers


def test_halves_give_each_thread_its_own_scratch(monkeypatch):
    # on two threads the calling thread's scratch and the worker's share no memory, so one
    # part cannot write over the other's; on one thread the parts run in turn on one set
    force_split(monkeypatch)
    part = lambda *scratch: (threading.get_ident(), scratch)  # noqa: E731
    (here, mine), (there, theirs) = stepper.halves(8, 0, part, part, (16, 16))
    assert here == threading.get_ident() != there
    assert [a.size for a in (*mine, *theirs)] == [16] * 4
    assert not any(np.shares_memory(a, b) for a in mine for b in theirs)
    assert not np.shares_memory(*mine)
    (here, mine), (there, theirs) = stepper.halves(8, 10 ** 9, part, part, (16, 16))
    assert here == there == threading.get_ident()
    assert all(a is b for a, b in zip(mine, theirs, strict=True))


@pytest.mark.parametrize("threaded", [False, True], ids=["in-turn", "threaded"])
def test_halves_run_every_part_with_small_ufunc_buffers(threaded, rng, monkeypatch):
    # numpy's ufunc buffer size is per thread: every part halves runs, here or on the
    # worker, sees _BUFSIZE entries, so a strided difference buffers 8 KiB an operand and
    # not numpy's default 64 KiB; each thread has its own size back afterwards, also after
    # a tick and a carry, whose parts all run at _BUFSIZE
    force_split(monkeypatch)
    min_cells = 0 if threaded else 10 ** 9
    monkeypatch.setattr(stepper, "_SPLIT_MIN", min_cells)
    monkeypatch.setattr(norms, "_THREAD_MIN", min_cells)
    u = rng.standard_normal((41, 41, 41))
    outs = [np.empty((40, 39, 39)) for _ in range(2)]
    seen = []

    def part(out):
        def strided():
            np.subtract(u[1:, 1:-1, 1:-1], u[:-1, 1:-1, 1:-1], out=out)  # strided operands
            return threading.get_ident(), np.getbufsize()
        return strided

    def recording(real):
        def call(*args):
            seen.append(np.getbufsize())
            return real(*args)
        return call

    for module, name in ((stepper, "_rhs"), (norms, "_e_half"), (norms, "_h_half")):
        monkeypatch.setattr(module, name, recording(getattr(module, name)))
    mine = np.setbufsize(4096)  # a size that is neither numpy's default nor _BUFSIZE
    try:
        worker = stepper._worker().submit(np.getbufsize).result()
        stepper.halves(8, min_cells, part(outs[0]), part(outs[1]))  # warm, outside the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            (here, in_here), (there, in_there) = stepper.halves(8, min_cells, part(outs[0]),
                                                                part(outs[1]))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        g = make_grid(12, 20, 9, 0.7)
        prev = random_state(g, rng)
        energy_report(step(prev, g, Medium()), prev, Medium(), g)
        assert np.getbufsize() == 4096
        stepper.carry(prev, g, Medium())
        assert np.getbufsize() == 4096
        assert stepper._worker().submit(np.getbufsize).result() == worker
    finally:
        np.setbufsize(mine)
    assert in_here == in_there == stepper._BUFSIZE
    assert here == threading.get_ident() and (there != here) == threaded
    # two parts' two strided operands at 8 KiB each, not 64 KiB each, at once if threaded
    assert peak < 64 * 1024
    # the parts of the step's two right-hand sides, of the tick's pass and of the carry
    assert seen == [stepper._BUFSIZE] * (2 * 2 + 2 + 2)


def test_error_state_is_restored_on_both_threads(rng, monkeypatch):
    # each stage job raises on numpy's floating-point flags on the thread that runs it,
    # and leaves both threads' error state as it found it, also when it raised
    g = make_grid(12, 20, 9, 0.7)
    force_split(monkeypatch)
    states = lambda: (np.geterr(), stepper._worker().submit(np.geterr).result())
    before, inside = states(), []
    solve, sweep = stepper._solve_lines, stepper._sweep

    def recording(real, poison):
        def solving(lam, rhs, axis):
            inside.append(np.geterr())
            out = real(lam, rhs, axis)
            if poison:
                out = out.copy()
                out[(1,) * out.ndim] = np.finfo(float).max
            return out
        return solving

    monkeypatch.setattr(stepper, "_solve_lines", recording(solve, False))
    monkeypatch.setattr(stepper, "_sweep", recording(sweep, False))
    step(random_state(g, rng), g, Medium())
    assert states() == before
    monkeypatch.setattr(stepper, "_sweep", recording(sweep, True))
    with pytest.raises(NonFiniteFieldError, match="stage 1"):
        step(random_state(g, rng), g, Medium())
    assert states() == before
    assert len(inside) == 6 + 6 + 3 + 1
    assert all(e["over"] == e["invalid"] == e["divide"] == "raise" for e in inside)


def test_split_joins_the_worker_before_raising(rng, monkeypatch):
    g = make_grid(12, 20, 9, 0.7)
    force_split(monkeypatch)
    sweep, finished = stepper._sweep, []

    def slow(lam, rhs, axis):
        time.sleep(0.05)
        out = sweep(lam, rhs, axis)
        finished.append(axis)
        return out

    def boom(lam, rhs, axis):
        raise ArithmeticError("solve failed")

    monkeypatch.setattr(stepper, "_sweep", slow)
    monkeypatch.setattr(stepper, "_solve_lines", boom)
    with pytest.raises(ArithmeticError, match="solve failed"):
        stage1(random_state(g, rng), g, Medium())
    assert len(finished) == 3


def test_split_from_more_callers_than_cores(rng, monkeypatch):
    g = make_grid(12, 20, 9, 0.7)
    med = Medium(eps=2.5, mu=0.4)
    states = [random_state(g, rng) for _ in range(4)]
    want = [step(step(s, g, med), g, med) for s in states]
    workers = force_split(monkeypatch)
    got = [None] * len(states)

    def caller(i):
        got[i] = step(step(states[i], g, med), g, med)

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
    assert len(workers) == 6 * 2 * len(states)
    for state, expected in zip(got, want):
        _assert_same_bytes(state, expected)


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork with a live thread
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_steps_with_the_split(rng, monkeypatch):
    g = make_grid(12, 20, 9, 0.7)
    med = Medium(eps=2.5, mu=0.4)
    s = random_state(g, rng)
    want = step(s, g, med)
    workers = force_split(monkeypatch)
    _assert_same_bytes(step(s, g, med), want)  # the parent's worker is running now
    assert workers

    def child():
        workers.clear()
        _assert_same_bytes(step(s, g, med), want)
        assert workers and threading.get_ident() not in workers

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=60)
    if proc.is_alive():
        proc.kill()
        proc.join()
        pytest.fail("the forked child did not finish stepping within 60 s")
    assert proc.exitcode == 0


# --- packed E solves --------------------------------------------------------

@pytest.mark.parametrize("cells, solves", [
    pytest.param((8, 8, 8), 1, id="8^3"),
    pytest.param((6, 6, 4), 2, id="6x6x4"),
    pytest.param((12, 20, 9), 3, id="12x20x9"),
])
def test_unsplit_stage_sweeps_once_per_solve_length(cells, solves, rng, monkeypatch):
    # the carried stages of a trajectory share a sweep among solves whose axes have equal
    # lengths: all three on a cube, two of three on 6x6x4 and none on 12x20x9 (the split
    # path solves per component); classic stages solve per component, as they hold their
    # whole output during the solves
    g = make_grid(*cells, 0.7)
    solve, axes = stepper._solve_lines, []

    def counting(lam, rhs, axis):
        axes.append(axis)
        return solve(lam, rhs, axis)

    monkeypatch.setattr(stepper, "_solve_lines", counting)
    s = random_state(g, rng)
    rhs, out = stepper.carry(s, g, Medium()), zero_state(g)
    stage1(rhs, g, Medium(), out=out, carried=True)
    assert len(axes) == solves
    stage2(rhs, g, Medium(), out=out, carried=True)
    assert len(axes) == 2 * solves
    step(s, g, Medium())
    assert len(axes) == 2 * solves + 6


@pytest.mark.parametrize("stage, bound", [(1, 8.83), (2, 9.07)], ids=["1", "2"])
def test_stage_scratch_stays_under_bound(stage, bound):
    """Peak of one classic half-update on 40^3 (its output and its scratch), in component
    lattices: the per-component update of the scheme before the carried right-hand side,
    measured on the same grid, bounds it.

    In numpy 2.4, ufuncs over non-contiguous views allocate iteration buffers that
    tracemalloc counts, so the peak overstates the live lattices by up to about one."""
    g = make_grid(40, 40, 40, 0.125)
    med = Medium()
    s = enforce_pec(sample_exact(0.0, g, med))
    if stage == 2:
        s = stage1(s, g, med)
    update = (stage1, stage2)[stage - 1]
    update(s, g, med)  # the Thomas coefficients are cached outside the measurement
    component_bytes = sum(a.nbytes for _, a in s.components()) / 6
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        update(s, g, med)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / component_bytes < bound


@pytest.mark.parametrize("stage", [1, 2])
def test_carried_stage_scratch_stays_under_bound(stage):
    """Scratch peak of one carried half-update on 40^3, beyond the right-hand side and
    the storage it writes, in component lattices: the packed buffer (2.75) and numpy's
    iteration buffers for its strided blocks (about 0.12 each)."""
    g = make_grid(40, 40, 40, 0.125)
    med = Medium()
    s = enforce_pec(sample_exact(0.0, g, med))
    rhs, out = stepper.carry(s, g, med), zero_state(g)
    update = lambda: (stage1, stage2)[stage - 1](rhs, g, med, out=out, carried=True)
    update()  # the Thomas coefficients are cached outside the measurement
    component_bytes = sum(a.nbytes for _, a in s.components()) / 6
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        update()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / component_bytes < 3.3


@pytest.mark.parametrize("split", [False, True], ids=["packed", "split"])
@pytest.mark.parametrize("cells", [(8, 8, 8), (6, 6, 4)], ids=["8^3", "6x6x4"])
def test_stage_outputs_are_contiguous_with_zero_walls(cells, split, rng, monkeypatch):
    # snapshots and state_sums read whole lattices: no packed block may reach a state
    if split:
        force_split(monkeypatch)
    g = make_grid(*cells, 0.6)
    half = stage1(random_state(g, rng), g, Medium())
    rhs = stepper.carry(random_state(g, rng), g, Medium())
    stage1(rhs, g, Medium(), out=zero_state(g), carried=True)
    recycled = stage2(rhs, g, Medium(), out=step(random_state(g, rng), g, Medium()), carried=True)
    for out in (half, stage2(half, g, Medium()), recycled):
        _assert_walls_zero(out)
        for name, a in out.components():
            assert a.flags.c_contiguous and a.flags.owndata and a.dtype == np.float64, name


@pytest.mark.parametrize("split", [False, True], ids=["packed", "split"])
@pytest.mark.parametrize("cells, med", [
    pytest.param((8, 8, 8), Medium(), id="8^3"),
    pytest.param((12, 20, 9), Medium(eps=2.5, mu=0.4), id="12x20x9"),
])
def test_stage2_into_recycled_storage_is_bytewise_a_fresh_stage2(cells, med, split, rng,
                                                                 monkeypatch):
    # a trajectory writes each new level into the arrays of a level it is done with: the
    # carried stage2 writes there the bytes it writes into fresh arrays, and moves its
    # right-hand side on alike
    if split:
        force_split(monkeypatch)
    g = make_grid(*cells, 0.7)
    recycled = step(random_state(g, rng), g, med)
    arrays = [a for _, a in recycled.components()]
    rhs = stepper.carry(random_state(g, rng), g, med)
    stage1(rhs, g, med, out=zero_state(g), carried=True)
    fresh = rhs.copy()
    want = stage2(fresh, g, med, out=zero_state(g), carried=True)
    got = stage2(rhs, g, med, out=recycled, carried=True)
    _assert_same_bytes(got, want)
    _assert_same_bytes(rhs, fresh)
    assert all(a is b for (_, a), b in zip(got.components(), arrays))


def test_classic_stage_given_out_raises(rng, medium):
    # out is the carried stages' storage; a classic stage returns new arrays and rejects
    # any out, sharing memory with its input or not, rather than ignore it
    g = grid4()
    s = random_state(g, rng)
    half = stage1(s, g, medium)
    for stage, state in ((stage1, s), (stage2, half)):
        kept = state.copy()
        for out in (zero_state(g), step(random_state(g, rng), g, medium), state):
            with pytest.raises(ValueError, match="carried stages"):
                stage(state, g, medium, out=out)
        _assert_same_bytes(state, kept)


@pytest.mark.parametrize("cells, dt, med", [
    pytest.param((8, 8, 8), 0.05, Medium(), id="8^3"),
    pytest.param((12, 20, 9), 0.7, Medium(eps=2.5, mu=0.4), id="12x20x9"),
    pytest.param((3, 4, 5), 1.7, Medium(eps=2.0, mu=0.5), id="3x4x5"),
])
def test_residuals_are_bitwise_the_whole_array_formula(cells, dt, med, rng):
    g = make_grid(*cells, dt)
    s0 = random_state(g, rng)
    half = stage1(s0, g, med)
    # a true step (residuals at round-off) and three unrelated states (residuals of order one)
    for before, mid, after in ((s0, half, stage2(half, g, med)),
                               tuple(random_state(g, rng) for _ in range(3))):
        first = residual_formula(before, mid, g, med, 1)
        second = residual_formula(mid, after, g, med, 2)
        assert stepper._residual(before, mid, g, med, stage=1) == first
        assert stepper._residual(mid, after, g, med, stage=2) == second
        assert step_residual(before, mid, after, g, med) == max(first, second)


def test_step_residual_scratch_stays_under_bound():
    """Scratch peak of step_residual on 24^3, in component lattices: the residuals are
    formed in place (the whole-array formula's peak is 5.2).

    In numpy 2.4, ufuncs over non-contiguous views allocate iteration buffers that
    tracemalloc counts, so the peak overstates the live lattices by up to about one."""
    g = make_grid(24, 24, 24, 0.3)
    med = Medium()
    s0 = enforce_pec(sample_exact(0.0, g, med))
    half = stage1(s0, g, med)
    full = stage2(half, g, med)
    component_bytes = sum(a.nbytes for _, a in s0.components()) / 6
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step_residual(s0, half, full, g, med)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / component_bytes <= 3.5


def test_half_level_energy_balance(rng, medium):
    """After stage one, the half-level directional energy equals the whole-level
    one up to the two explicit wall-plane correction sums."""
    g = make_grid(5, 6, 7, 0.4)
    nx, ny, nz = g.cells
    dx = g.dx
    for s0 in (random_state(g, rng), enforce_pec(sample_exact(0.0, g))):
        half = stage1(s0, g, medium)

        def vol_terms(state, half_level):
            d0 = lambda a: diff(a, 0, g)
            d1 = lambda a: diff(a, 1, g)
            d2 = lambda a: diff(a, 2, g)
            eps, mu = medium.eps, medium.mu
            q = g.dt ** 2 / (4 * eps * mu)
            e = eps * (np.sum(d0(state.ex)[:, 1:ny, 1:nz] ** 2)
                       + np.sum(d0(state.ey)[1:nx - 1, :, 1:nz] ** 2)
                       + np.sum(d0(state.ez)[1:nx - 1, 1:ny, :] ** 2))
            h = mu * (np.sum(d0(state.hx)[1:nx - 1, :, :] ** 2)
                      + np.sum(d0(state.hy)[:, 1:ny, :] ** 2)
                      + np.sum(d0(state.hz)[:, :, 1:nz] ** 2))
            if half_level:
                p = mu * (np.sum(d0(d1(state.hz))[:, :, 1:nz] ** 2)
                          + np.sum(d0(d2(state.hx))[1:nx - 1, :, :] ** 2)
                          + np.sum(d0(d0(state.hy))[:, 1:ny, :] ** 2))
                p += eps * (np.sum(d0(d2(state.ey))[1:nx - 1, :, :] ** 2)
                            + np.sum(d0(d0(state.ez))[:, 1:ny, :] ** 2)
                            + np.sum(d0(d1(state.ex))[:, :, 1:nz] ** 2))
            else:
                p = mu * (np.sum(d0(d2(state.hy))[:, 1:ny, :] ** 2)
                          + np.sum(d0(d0(state.hz))[:, :, 1:nz] ** 2)
                          + np.sum(d0(d1(state.hx))[1:nx - 1, :, :] ** 2))
                p += eps * (np.sum(d0(d1(state.ez))[1:nx - 1, :, :] ** 2)
                            + np.sum(d0(d2(state.ex))[:, 1:ny, :] ** 2)
                            + np.sum(d0(d0(state.ey))[:, :, 1:nz] ** 2))
            return g.dv * (e + h + q * p)

        lhs = vol_terms(half, half_level=True)
        dxhy_half = diff(half.hy, 0, g)
        plane_half = sum(
            float(np.sum(half.ez[ip, 1:ny, :] * dxhy_half[ip - 1, 1:ny, :]))
            for ip in (1, nx - 1))
        dxhz_zero = diff(s0.hz, 0, g)
        plane_zero = sum(
            float(np.sum(s0.ey[ip, :, 1:nz] * dxhz_zero[ip - 1, :, 1:nz]))
            for ip in (1, nx - 1))
        rhs = (vol_terms(s0, half_level=False)
               - g.dt * (g.dy * g.dz / dx) * plane_half
               + g.dt * (g.dy * g.dz / dx) * plane_zero)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_nonunit_medium_residual_and_conservation(rng):
    from adimax import Medium
    med = Medium(eps=2.5, mu=0.4)
    g = make_grid(6, 6, 6, 0.3)
    s = random_state(g, rng)
    half = stage1(s, g, med)
    full = stage2(half, g, med)
    assert step_residual(s, half, full, g, med) <= 1e-12
    q0 = energy_l2(s, med, g)
    assert abs(energy_l2(full, med, g) - q0) <= 1e-12 * q0
    from adimax.norms import energy_h1
    for axis in "xyz":
        p0 = energy_h1(s, axis, med, g)
        assert abs(energy_h1(full, axis, med, g) - p0) <= 1e-12 * p0


def test_medium_validation():
    from adimax import Medium
    with pytest.raises(ValueError):
        Medium(eps=0.0)
    with pytest.raises(ValueError):
        Medium(mu=-2.0)


def test_identity_functionals_invariant_along_desk_run(medium):
    # 100 steps at Courant sqrt(3) on 20^3
    from adimax.norms import energy_h1
    g = make_grid(20, 20, 20, 0.05)
    s = enforce_pec(sample_exact(0.0, g))
    q0 = energy_l2(s, medium, g)
    p0 = energy_h1(s, "x", medium, g)
    cur = s
    for _ in range(100):
        cur = step(cur, g, medium)
    assert abs(energy_l2(cur, medium, g) - q0) / q0 <= 1e-11
    assert abs(energy_h1(cur, "x", medium, g) - p0) / p0 <= 1e-11
    assert cur.time_level == pytest.approx(100.0)
