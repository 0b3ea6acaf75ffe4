import csv
import math
import weakref

import numpy as np
import pytest

import adimax.harness as harness
from adimax import grid as grid_module
from adimax import manufactured, norms, stepper
from adimax import (divergence, energy_h1, energy_l2, enforce_pec, make_grid, metrics,
                    sample_exact, sample_semidiscrete, step, zero_state)
from adimax import (ConfigError, Medium, RunConfig, converge_space, converge_time, emit_config,
                    energy_audit, observed_rate, parse_config, run, stability)
from adimax.cli import main as cli_main

from conftest import force_split, random_state
from oracles import split_curl_neg, split_curl_pos, time_diff


def desk_cfg(tmp_path, **kw):
    """A small config of kw's kind (run if none); base keys the kind does not read are left out."""
    kind = kw.get("kind", "run")
    base = dict(nx=8, ny=8, nz=8, dt=0.1, T=1.0, cadence=2, out=str(tmp_path / "out"))
    base = {key: v for key, v in base.items() if kind in harness.KEYS[key].metadata["kinds"]}
    base.update(kw)
    return RunConfig(**base).validate()


# the list key each convergence kind needs, one entry long
_LISTS = {"converge-time": dict(dt_list=(0.1,)), "converge-space": dict(grid_list=(8,))}


# --- config parsing -------------------------------------------------------

def test_parse_minimal_file_fills_defaults(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("nx = 8\nny = 8\nnz = 8\ndt = 0.1\nT = 1.0\n")
    cfg = parse_config(path)
    assert cfg.nx == 8 and cfg.dt == 0.1 and cfg.eps == 1.0 and cfg.kind == "run"


def test_parse_rejects_zero_dt(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("dt = 0.0\n")
    with pytest.raises(ConfigError, match="dt"):
        parse_config(path)


def test_parse_rejects_unknown_key_with_line(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("nx = 8\nwhatever = 3\n")
    with pytest.raises(ConfigError, match="whatever.*line 2"):
        parse_config(path)


def test_parse_rejects_type_mismatch_with_key(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("dt = fast\n")
    with pytest.raises(ConfigError, match="`dt`.*line 1"):
        parse_config(path)


def test_parse_rejects_non_divisible_dt():
    with pytest.raises(ConfigError, match="divide"):
        RunConfig(dt=0.3, T=1.0).validate()


@pytest.mark.parametrize("key, flag, value", [
    ("T", "--T", "inf"), ("dt", "--dt", "nan"), ("eps", "--eps", "inf"), ("mu", "--mu", "nan"),
    ("dt_list", "--dt-list", "0.1,inf"),
])
def test_cli_rejects_non_finite_values_by_key(tmp_path, capsys, key, flag, value):
    kind = "converge-time" if key == "dt_list" else "run"
    rc = cli_main([kind, flag, value, "--grid", "4,4,4", "--out", str(tmp_path / "cli")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} ") and "finite" in err
    assert not (tmp_path / "cli").exists()


def test_non_divisible_dt_list_names_its_key():
    with pytest.raises(ConfigError, match="key `dt_list`"):
        RunConfig(kind="converge-time", T=1.0, dt_list=(0.1, 0.3)).validate()


# a non-default value of every key but kind
_VALUES = dict(nx=10, ny=12, nz=14, dt=0.025, T=0.5, eps=2.0, mu=0.5, cadence=5, out="somewhere",
               snapshots=True, init="zero", dt_list=(0.025, 0.0125), grid_list=(5, 6))
# config text setting each key that some kind does not read off its default
_OFF_KIND_TEXT = {"dt": "0.1", "cadence": "7", "snapshots": "true", "init": "zero",
                  "dt_list": "0.1", "grid_list": "4"}
# every (kind, `key = value` line) that sets a key the kind does not read
_OFF_KIND = [(kind, f"{key} = {_OFF_KIND_TEXT[key]}") for key, f in harness.KEYS.items()
             for kind in harness.KINDS if kind not in f.metadata["kinds"]]


@pytest.mark.parametrize("kind", harness.KINDS)
def test_config_round_trip(tmp_path, kind):
    reads = [key for key, f in harness.KEYS.items() if kind in f.metadata["kinds"]]
    cfg = RunConfig(**{key: _VALUES[key] for key in reads if key != "kind"}, kind=kind).validate()
    echo = emit_config(cfg)
    assert [line.split(" = ")[0] for line in echo.splitlines()] == reads
    path = tmp_path / "echo"
    path.write_text(echo)
    assert parse_config(path) == cfg


def test_off_kind_pairs():
    assert {line.split(" =")[0] for _, line in _OFF_KIND} == set(_OFF_KIND_TEXT)
    assert len(_OFF_KIND) == 18


@pytest.mark.parametrize("kind, line", _OFF_KIND)
def test_keys_a_kind_ignores_are_rejected(tmp_path, capsys, kind, line):
    key, value = line.split(" = ")
    path = tmp_path / "cfg"
    needed = {"converge-time": "dt_list = 0.1\n", "converge-space": "grid_list = 4\n"}
    path.write_text(f"kind = {kind}\n{needed.get(kind, '')}{line}\n")
    with pytest.raises(ConfigError, match=rf"^{key} "):
        parse_config(path)
    rc = cli_main([kind, "--config", str(path), "--grid", "4,4,4", "--out", str(tmp_path / "cli")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} ")
    assert not (tmp_path / "cli").exists()
    # the flag exists only on the subcommands that read the key
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as info:
        cli_main([kind, flag] if key == "snapshots" else [kind, flag, value])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--dt", "fast", "bad value for key `dt` (flag): 'fast'"),
    ("--cadence", "2.5", "bad value for key `cadence` (flag): '2.5'"),
    ("--init", "bogus", "init must be one of"),
    ("--grid", "4,4", "bad value for key `grid` (flag): '4,4'"),
])
def test_cli_bad_flag_values_are_config_errors(tmp_path, capsys, flag, value, message):
    # flags are parsed by the same per-key parsers as config files, not by argparse
    rc = cli_main(["run", flag, value, "--out", str(tmp_path / "cli")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not (tmp_path / "cli").exists()


def test_flags_override_file(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("nx = 8\nny = 8\nnz = 8\ndt = 0.1\nT = 1.0\n")
    cfg = parse_config(path, overrides={"dt": "0.05", "nx": 16})
    assert cfg.dt == 0.05 and cfg.nx == 16 and cfg.ny == 8


def test_comments_and_blank_lines(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("# a comment\n\nnx = 8  # trailing\nny = 8\nnz = 8\ndt = 0.1\nT = 1\n")
    assert parse_config(path).nx == 8


# --- run -------------------------------------------------------------------

def test_run_writes_expected_files(tmp_path):
    cfg = desk_cfg(tmp_path)
    result = run(cfg)
    out = tmp_path / "out"
    assert (out / "run.csv").exists()
    assert (out / "config.echo").exists()
    manifest = (out / "MANIFEST").read_text().splitlines()
    assert manifest == ["config.echo", "run.csv", "MANIFEST"]
    echoed = parse_config(out / "config.echo")
    assert echoed == cfg
    # rows at levels 0, 2, 4, 6, 8, 10
    assert len(result.rows) == 6
    assert cfg.to_grid().courant(cfg.eps, cfg.mu) == pytest.approx(cfg.to_grid().courant(),
                                                                   rel=1e-12)


def test_run_is_deterministic(tmp_path):
    cfg_a = desk_cfg(tmp_path / "a")
    cfg_b = desk_cfg(tmp_path / "b")
    run(cfg_a)
    run(cfg_b)
    a = (tmp_path / "a" / "out" / "run.csv").read_bytes()
    b = (tmp_path / "b" / "out" / "run.csv").read_bytes()
    assert a == b


def test_run_energy_drift_small(tmp_path):
    result = run(desk_cfg(tmp_path, dt=0.05, T=1.0, cadence=5))
    first = result.rows[0]
    for row in result.rows[1:]:
        for col in ("Q_l2", "Q_h1x", "Q_h1y", "Q_h1z"):
            assert abs(row[col] - first[col]) / first[col] <= 1e-11


def test_run_zero_init_gives_zero_reports(tmp_path):
    result = run(desk_cfg(tmp_path, init="zero"))
    for row in result.rows:
        assert row["Q_l2"] == 0.0 and row["Q_h1x"] == 0.0
        assert row["DivE_Linf"] == 0.0 and row["DivH_L2"] == 0.0


def test_run_divergence_small_throughout(tmp_path):
    result = run(desk_cfg(tmp_path, dt=0.1, T=1.0, cadence=5))
    assert result.rows[0]["DivE_Linf"] <= 1e-13
    for row in result.rows:
        assert row["DivE_Linf"] <= 1e-10
        assert row["DivE_L2"] <= 1e-10


def test_divergence_audit_zero_init(tmp_path):
    result = run(desk_cfg(tmp_path, init="zero"))
    for row in result.rows:
        for col in ("DivE_Linf", "DivE_L2", "DivH_Linf", "DivH_L2"):
            assert row[col] == 0.0


def test_run_snapshots_round_trip(tmp_path):
    from adimax import read_component_blob
    cfg = desk_cfg(tmp_path, snapshots=True, T=0.2)
    run(cfg)
    out = tmp_path / "out"
    manifest = (out / "MANIFEST").read_text().splitlines()
    blobs = [n for n in manifest if n.startswith("snapshot_")]
    assert len(blobs) == 6
    comp, data, dims, level = read_component_blob(out / "snapshot_ex.bin")
    assert comp == "ex" and dims == (8, 8, 8) and level == pytest.approx(2.0)
    assert np.isfinite(data).all()


def test_reused_out_holds_only_the_last_runs_files(tmp_path):
    out = tmp_path / "out"
    run(desk_cfg(tmp_path, snapshots=True, T=0.2))
    (out / "notes.txt").write_text("not written by a run")
    result = run(desk_cfg(tmp_path, T=0.2))
    assert not list(out.glob("snapshot_*"))
    assert sorted(p.name for p in out.iterdir()) == sorted([*result.files, "MANIFEST", "notes.txt"])
    assert (out / "notes.txt").read_text() == "not written by a run"


@pytest.mark.parametrize("kind", list(harness.DRIVERS))
def test_aborted_driver_writes_the_manifest_of_what_it_wrote(tmp_path, monkeypatch, kind):
    # a driver that raises still lists what it wrote (config.echo) in a MANIFEST, so its
    # directory holds exactly the files its MANIFEST lists, and a later run into it cleans it
    cfg = desk_cfg(tmp_path, kind=kind, **_LISTS.get(kind, {}))
    out = tmp_path / "out"
    out.mkdir()
    (out / "MANIFEST").write_text("stale.csv\n")  # an earlier run's, naming a file now gone
    real = harness.sample_exact

    def poisoned(t, grid):
        s = zero_state(grid)
        s.ex[2, 2, 2] = np.nan
        return s

    monkeypatch.setattr(harness, "sample_exact", poisoned)
    with pytest.raises(RuntimeError, match=r"step 1\b"):
        harness.DRIVERS[kind](cfg)
    manifest = (out / "MANIFEST").read_text().splitlines()
    assert manifest == ["config.echo", "MANIFEST"]
    assert sorted(p.name for p in out.iterdir()) == sorted(manifest)
    monkeypatch.setattr(harness, "sample_exact", real)
    result = harness.DRIVERS[kind](cfg)
    assert sorted(p.name for p in out.iterdir()) == sorted([*result.files, "MANIFEST"])


def test_reused_out_removes_nothing_outside_it(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    for name in ("victim", "inner"):
        (tmp_path / name).write_text("keep")
    (out / "sub").mkdir()
    (out / "sub" / "victim").write_text("keep")
    (out / "MANIFEST").write_text("../victim\n%s\nsub/victim\nsub\n.\n..\nmissing\n"
                                  % (tmp_path / "inner"))
    run(desk_cfg(tmp_path, T=0.2))
    for kept in (tmp_path / "victim", tmp_path / "inner", out / "sub" / "victim"):
        assert kept.read_text() == "keep"


@pytest.mark.parametrize("kind", list(harness.DRIVERS))
def test_driver_aborts_with_step_index_on_nonfinite(tmp_path, monkeypatch, kind):
    cfg = desk_cfg(tmp_path, kind=kind, **_LISTS.get(kind, {}))

    def poisoned(t, grid):
        s = zero_state(grid)
        s.ex[2, 2, 2] = np.nan
        return s

    monkeypatch.setattr(harness, "sample_exact", poisoned)
    with pytest.raises(RuntimeError, match=r"step 1\b"):
        harness.DRIVERS[kind](cfg)


@pytest.mark.parametrize("kind, held", [
    ("run", 2), ("energy-audit", 2), ("converge-time", 2), ("converge-space", 2),
    ("stability", 2),
])
def test_levels_alive_during_a_step(tmp_path, monkeypatch, kind, held):
    # a step holds its input, the storage it writes (from step 2 on that of the level before
    # its input) and the carried right-hand side, and stores no half level: `held` whole
    # levels and one carried state, whatever the driver reads
    cfg = desk_cfg(tmp_path, kind=kind, **_LISTS.get(kind, {}))
    steps = round(cfg.T / (cfg.dt_list or (cfg.dt,))[0])
    levels, carried, alive, recycled = [], [], [], []  # levels and carried: weakrefs to ex
    real_carry, real_stage1, real_stage2 = harness.carry, harness.stage1, harness.stage2

    def count(refs):  # distinct arrays still alive
        return len({id(a) for a in (ref() for ref in refs) if a is not None})

    def carry(level, grid, med):
        if not levels:
            levels.append(weakref.ref(level.ex))
        rhs = real_carry(level, grid, med)
        carried.append(weakref.ref(rhs.ex))
        return rhs

    def stage1(rhs, grid, med, **kwargs):
        alive.append((count(levels), count(carried)))
        assert real_stage1(rhs, grid, med, **kwargs) is rhs
        return rhs

    def stage2(rhs, grid, med, **kwargs):
        out = real_stage2(rhs, grid, med, **kwargs)
        if len(levels) >= 2:  # level n in the arrays of level n-2
            recycled.append(out.ex is levels[-2]())
        levels.append(weakref.ref(out.ex))
        alive.append((count(levels), count(carried)))
        return out

    monkeypatch.setattr(harness, "carry", carry)
    monkeypatch.setattr(harness, "stage1", stage1)
    monkeypatch.setattr(harness, "stage2", stage2)
    harness.DRIVERS[kind](cfg)
    assert len(alive) == 2 * steps and max(w for w, _ in alive) == held
    assert [c for _, c in alive] == [1, 1] * steps  # one carried state at a time
    assert len(recycled) == steps - 1 and all(recycled)
    # rebuilt after each step but the last that the driver lends: the run's ticks (cadence
    # 2), whose metrics makes a whole error state; none for the others, the audit included
    rebuilt = {"run": steps // 2 - 1}.get(kind, 0)
    assert len(carried) == 1 + rebuilt


@pytest.mark.parametrize("kind", ["run", "converge-time", "converge-space"])
def test_no_carried_state_alive_where_prev_is_read(tmp_path, monkeypatch, kind):
    # where run reads the previous level (a tick it lends) or a convergence study does
    # (after its trajectory has ended), the trajectory holds it and the level (two whole
    # states) but not the carried right-hand side (a third); traced memory says so
    import tracemalloc
    keys = dict(cadence=3) if kind == "run" else {}
    keys |= dict(grid_list=(24,)) if kind == "converge-space" else dict(nx=24, ny=24, nz=24)
    cfg = desk_cfg(tmp_path, kind=kind, T=0.4, dt_list=(0.1,) if kind == "converge-time" else None,
                   **keys)
    reader = "energy_report" if kind == "run" else "metrics"
    real, seen = getattr(harness, reader), []

    def measuring(curr, prev, *args, **kwargs):
        if prev is not None:
            seen.append(tracemalloc.get_traced_memory()[0] - base)
        return real(curr, prev, *args, **kwargs)

    monkeypatch.setattr(harness, reader, measuring)
    state = sum(a.nbytes for _, a in zero_state(make_grid(24, 24, 24, 0.1)).components())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        harness.DRIVERS[kind](cfg)
    finally:
        tracemalloc.stop()
    assert seen and max(seen) < 2.5 * state


def test_audit_tick_allocates_no_whole_state_temporary(tmp_path, monkeypatch):
    # the audit lends no step, so it reads prev with the carried right-hand side alive
    # (three whole states); its tick must add less than one more: the time difference is
    # formed in prev's arrays, and each pass's scratch is a few lattices.  Traced peaks on
    # 24^3, in whole states: 0.52 on one thread and 0.85 on two (4 H lattices of sums
    # scratch, plus numpy's iteration buffers); 1.52 and 1.86 with a fresh time difference
    import tracemalloc
    cfg = desk_cfg(tmp_path, kind="energy-audit", nx=24, ny=24, nz=24, T=0.4, cadence=3)
    state = sum(a.nbytes for _, a in zero_state(cfg.to_grid()).components())
    real = harness.energy_suite
    for threaded in (False, True):
        if threaded:
            force_split(monkeypatch)
        held, peaks = [], []

        def measuring(curr, prev, *args, **kwargs):
            at_call = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sums = real(curr, prev, *args, **kwargs)
            if prev is not None:
                held.append(at_call - base)
                peaks.append(tracemalloc.get_traced_memory()[1] - at_call)
            return sums

        monkeypatch.setattr(harness, "energy_suite", measuring)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            energy_audit(cfg)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 3  # step 1 and the ticks at steps 3 and 4
        assert max(held) < 3.5 * state and max(peaks) < state, threaded


def test_run_reports_nonfinite_at_the_step_that_made_it(tmp_path, monkeypatch):
    cfg = desk_cfg(tmp_path)
    solve = stepper._solve_lines
    calls = []

    def poisoned(lam, rhs, axis):
        out = solve(lam, rhs, axis)
        calls.append(axis)
        # on the 8^3 cube each stage packs its three E solves into one sweep
        if len(calls) == 2 * cfg.steps:  # last solve: stage two of the last step
            out = out.copy()
            out[(0,) * out.ndim] = np.finfo(float).max  # the stage's 2x overflows
        return out

    monkeypatch.setattr(stepper, "_solve_lines", poisoned)
    with pytest.raises(RuntimeError, match=rf"step {cfg.steps}\b"):
        run(cfg)
    assert len(calls) == 2 * cfg.steps


def test_run_reports_nonfinite_made_in_the_workers_half(tmp_path, monkeypatch):
    cfg = desk_cfg(tmp_path)
    force_split(monkeypatch)
    sweep = stepper._sweep
    calls = []

    def poisoned(lam, rhs, axis):
        out = sweep(lam, rhs, axis)
        calls.append(axis)
        if len(calls) == 6 + 3 + 2:  # the worker's second stage-two sweep of step 2
            out = out.copy()
            out[(-1,) * out.ndim] = np.finfo(float).max  # the stage's 2x overflows
        return out

    monkeypatch.setattr(stepper, "_sweep", poisoned)
    with pytest.raises(RuntimeError, match=r"step 2\b") as info:
        run(cfg)
    assert isinstance(info.value.__cause__, stepper.NonFiniteFieldError)
    assert "stage 2" in str(info.value.__cause__)
    assert len(calls) == 3 * 4 - 1  # the worker stopped at the overflow, before its last sweep
    # the worker is idle again: the next step runs, bitwise as unsplit
    grid, med = cfg.to_grid(), cfg.to_medium()
    state = enforce_pec(sample_exact(0.0, grid))
    got = step(state, grid, med)
    monkeypatch.setattr(stepper, "_SPLIT_MIN", 10 ** 9)
    want = step(state, grid, med)
    assert all(a.tobytes() == b.tobytes()
               for (_, a), (_, b) in zip(got.components(), want.components()))


@pytest.mark.parametrize("where", ["unsplit", "calling-thread", "worker-thread"])
def test_run_reports_an_overflow_in_carried_stage_one_at_its_step(tmp_path, monkeypatch, where):
    cfg = desk_cfg(tmp_path)
    if where != "unsplit":
        force_split(monkeypatch)
    name = "_sweep" if where == "worker-thread" else "_solve_lines"
    solve, calls = getattr(stepper, name), []
    # stage one of step 2: the 8^3 cube packs a stage's solves into one sweep, and a
    # forced split sweeps per component on each thread
    poisoned_call = 3 if where == "unsplit" else 6 + 1

    def poisoned(lam, rhs, axis):
        out = solve(lam, rhs, axis)
        calls.append(axis)
        if len(calls) == poisoned_call:
            out = out.copy()
            out[(1,) * out.ndim] = np.finfo(float).max  # the stage's 2x overflows
        return out

    monkeypatch.setattr(stepper, name, poisoned)
    with pytest.raises(RuntimeError, match=r"step 2\b") as info:
        run(cfg)
    assert isinstance(info.value.__cause__, stepper.NonFiniteFieldError)
    assert "stage 1" in str(info.value.__cause__)
    assert "overflow" in str(info.value.__cause__)
    assert len(calls) == poisoned_call


def test_trajectory_reports_an_overflow_in_the_first_carry_as_step_1(tmp_path, monkeypatch):
    def huge(t, grid):  # finite, but ch / h = 2.8 times it is not
        s = zero_state(grid)
        s.ex[3, 3, 3] = np.finfo(float).max
        return s

    monkeypatch.setattr(harness, "sample_exact", huge)
    # converge-time reads no level before the last, so nothing else sums the huge one
    with pytest.raises(RuntimeError, match=r"step 1\b") as info:
        converge_time(desk_cfg(tmp_path, kind="converge-time", dt_list=(0.7,), T=1.4))
    assert "stage 1 right-hand side" in str(info.value.__cause__)


@pytest.mark.parametrize("kind", list(harness.DRIVERS))
def test_trajectory_checks_finiteness_once(tmp_path, monkeypatch, kind):
    # the stepper raises where it makes a NaN or infinity, so a whole-state pass is
    # left only for the initial level, where none is made
    cfg = desk_cfg(tmp_path, kind=kind, **_LISTS.get(kind, {}))
    real, calls = grid_module.FieldState.all_finite, []

    def counting(state):
        calls.append(state.time_level)
        return real(state)

    monkeypatch.setattr(grid_module.FieldState, "all_finite", counting)
    harness.DRIVERS[kind](cfg)
    assert calls == [0.0]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_write_csv_rejects_a_non_finite_cell(tmp_path, value):
    out = harness._OutDir(tmp_path / "out")
    rows = [{"time_level": 0.0, "Q_l2": 1.0, "ERR1_n": None},
            {"time_level": 3.0, "Q_l2": 2.0, "ERR1_n": value}]
    with pytest.raises(RuntimeError, match=r"^run\.csv: non-finite ERR1_n .* time_level = 3$"):
        out.write_csv("run.csv", rows)
    assert not (tmp_path / "out" / "run.csv").exists() and out.names == []


# --- the trajectory's carried right-hand side ---------------------------------

def _random_trajectory(monkeypatch, cells, dt, med, steps, lends=(), seed=5):
    """Copies of the levels `harness._trajectory` steps from a seeded random PEC state."""
    grid = make_grid(*cells, dt)
    start = random_state(grid, np.random.default_rng(seed))
    monkeypatch.setattr(harness, "sample_exact", lambda t, g: start.copy())
    cfg = RunConfig(nx=cells[0], ny=cells[1], nz=cells[2], dt=dt, T=steps * dt, eps=med.eps,
                    mu=med.mu)
    return [level.copy() for _, _, level in harness._trajectory(cfg, grid, lends)]


def _max_diff(a, b) -> float:
    pairs = zip(a.components(), b.components())
    return max(float(np.max(np.abs(x - y))) for (_, x), (_, y) in pairs)


_MEDIA = pytest.mark.parametrize("med", [Medium(1.0, 1.0), Medium(2.5, 0.4), Medium(3.0, 0.5)],
                                 ids=["vacuum", "eps2.5-mu0.4", "eps3-mu0.5"])
# c in the bound c (1 + C) n 2^-52 max|field| on the trajectory's rounding (see CHANGES.md)
_ROUNDING = 4.0


@_MEDIA
@pytest.mark.parametrize("courant, steps", [(1.0, 1), (1.0, 100), (150.0, 1), (150.0, 20)])
def test_trajectory_is_repeated_classic_steps_to_rounding(monkeypatch, med, courant, steps):
    # the carried form (I + A) x = 2x - r rounds apart from forming (I + A) x anew; the
    # right-hand sides hold terms of size C |field|, so the gap grows with C and n
    cells = (9, 12, 7)
    dt = courant / make_grid(*cells, 1.0).courant(med.eps, med.mu)
    levels = _random_trajectory(monkeypatch, cells, dt, med, steps)
    classic = [levels[0]]
    for _ in range(steps):
        classic.append(step(classic[-1], make_grid(*cells, dt), med))
    scale = max(level.max_abs() for level in classic)
    for n, (got, want) in enumerate(zip(levels, classic)):
        assert got.time_level == want.time_level == n
        assert _max_diff(got, want) <= _ROUNDING * (1 + courant) * max(n, 1) * 2.0 ** -52 * scale


@_MEDIA
def test_carried_and_rebuilt_right_hand_sides_agree_to_rounding(monkeypatch, med):
    # dropped after every step (as a cadence-1 run does) against never dropped
    cells, dt, steps = (12, 20, 9), 0.7, 30
    courant = make_grid(*cells, dt).courant(med.eps, med.mu)
    carried = _random_trajectory(monkeypatch, cells, dt, med, steps)
    rebuilt = _random_trajectory(monkeypatch, cells, dt, med, steps, lends=range(steps + 1))
    scale = max(level.max_abs() for level in carried)
    assert any(_max_diff(a, b) > 0.0 for a, b in zip(carried, rebuilt))
    for n, (a, b) in enumerate(zip(carried, rebuilt)):
        assert _max_diff(a, b) <= _ROUNDING * (1 + courant) * max(n, 1) * 2.0 ** -52 * scale


@pytest.mark.parametrize("cells, lends", [((12, 20, 9), ()), ((8, 8, 8), (1, 2, 3))],
                         ids=["12x20x9-carried", "8^3-rebuilt"])
def test_split_trajectory_is_bytewise_the_unsplit_one(monkeypatch, cells, lends):
    med = Medium(3.0, 0.5)
    unsplit = _random_trajectory(monkeypatch, cells, 0.7, med, 5, lends)
    workers = force_split(monkeypatch)
    split = _random_trajectory(monkeypatch, cells, 0.7, med, 5, lends)
    assert workers
    for a, b in zip(split, unsplit):
        pairs = zip(a.components(), b.components())
        assert all(x.tobytes() == y.tobytes() for (_, x), (_, y) in pairs)


# --- energy audit ----------------------------------------------------------

def test_energy_audit_drift_columns(tmp_path):
    cfg = desk_cfg(tmp_path, kind="energy-audit", dt=0.05, T=1.0, cadence=4)
    result = energy_audit(cfg)
    assert result.rows[0]["EH1_n0"] == 0.0
    for row in result.rows[1:]:
        for key in ("EH1_n0", "EH2_n0", "EHt1_n0", "EHt2_n0", "EH1s_n0", "EH2s_n0"):
            assert abs(row[key]) <= 1e-11
    header = (tmp_path / "out" / "energy_audit.csv").read_text().splitlines()[0]
    assert header.split(",")[:4] == ["time_level", "EH1_n0", "EH1_n", "EH1_nsq"]


def test_energy_audit_ratios_near_one(tmp_path):
    # at 32^3 the starred (core) ratios sit within 1e-2 of 1
    cfg = desk_cfg(tmp_path, kind="energy-audit", nx=32, ny=32, nz=32, dt=0.05, T=0.5,
                   cadence=10)
    result = energy_audit(cfg)
    last = result.rows[-1]
    for key in ("EH1s_n", "EH2s_n", "EH1_n", "EH2_n", "EHt1s_n", "EHt2s_n", "EHt1_n", "EHt2_n"):
        assert last[key] == pytest.approx(1.0, abs=1e-2)


# --- report ticks: one pass per field state ----------------------------------

def _count_passes(monkeypatch):
    """Count state_sums passes per step interval (entry n: the tick after step n)
    and fail on any rotation copy."""
    counts = [0]
    real_sums, real_stage1 = norms.state_sums, harness.stage1

    def counting(*args, **kwargs):
        counts[-1] += 1
        return real_sums(*args, **kwargs)

    def marking(*args, **kwargs):
        counts.append(0)
        return real_stage1(*args, **kwargs)

    def no_copy(*args, **kwargs):
        raise AssertionError("rotate_state called")

    monkeypatch.setattr(norms, "state_sums", counting)
    monkeypatch.setattr(harness, "stage1", marking)
    monkeypatch.setattr(norms, "rotate_state", no_copy)
    monkeypatch.setattr(grid_module, "rotate_state", no_copy)
    return counts


def _trajectory(cfg, grid=None):
    """Levels 0 ... round(T / dt) on `grid` (the config's if None), bit for bit as the
    driver of cfg.kind steps them: `run` drops the carried right-hand side after each tick,
    where metrics makes a whole error state, and the rebuilt one rounds apart from the
    carried one; the audit's ticks make no whole-state temporary, so it lends no step."""
    grid, med = grid or cfg.to_grid(), cfg.to_medium()
    steps = round(cfg.T / grid.dt)
    lends = harness._ticks(steps, cfg.cadence) if cfg.kind == "run" else ()
    states = [level.copy() for _, _, level in harness._trajectory(cfg, grid, lends)]
    return grid, med, states


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _assert_close(got: str, want, label):
    if want is None:
        assert got == "", label
    else:
        assert abs(float(got) - want) <= 1e-14 * abs(want), (label, float(got), want)


@pytest.mark.parametrize("cadence", [1, 3])
def test_run_tick_reads_each_state_once(tmp_path, monkeypatch, cadence):
    cfg = desk_cfg(tmp_path, nx=12, ny=20, nz=9, dt=0.7, T=4.9, eps=2.5, mu=0.4,
                   cadence=cadence)
    counts = _count_passes(monkeypatch)
    run(cfg)
    monkeypatch.undo()
    ticks = sorted(harness._ticks(cfg.steps, cfg.cadence))
    assert counts[0] <= 2  # curr and its error; no previous level yet
    assert all(counts[n] <= 4 for n in ticks)  # curr, delta, error, delta error
    assert all(counts[n] == 0 for n in range(cfg.steps + 1) if n not in ticks)

    grid, med, states = _trajectory(cfg)
    k = manufactured.energy_constants(med)
    rows = _rows(tmp_path / "out" / "run.csv")
    header = rows[0]
    assert [float(r[0]) for r in rows[1:]] == ticks
    dv, ny, nz, nx = grid.dv, grid.ny, grid.nz, grid.nx
    for row, n in zip(rows[1:], ticks):
        curr, prev = states[n], (states[n - 1] if n else None)
        dz_hy, dx_hz, dy_hx = split_curl_neg(curr.h_triple(), grid)
        ex, ey, ez = curr.e_triple()
        want = [n, *(energy_h1(curr, a, med, grid) for a in "xyz"), energy_l2(curr, med, grid),
                med.eps * dv * (float(np.sum(ex[:, 1:ny, 1:nz] ** 2))
                                + float(np.sum(ey[1:nx, :, 1:nz] ** 2))
                                + float(np.sum(ez[1:nx, 1:ny, :] ** 2))),
                med.mu * dv * sum(float(np.sum(h ** 2)) for h in curr.h_triple()),
                med.eps * dv * sum(float(np.sum(p ** 2))
                                   for p in split_curl_pos(curr.e_triple(), grid)),
                med.mu * dv * (float(np.sum(dz_hy[:, 1:ny, :] ** 2))
                               + float(np.sum(dx_hz[:, :, 1:nz] ** 2))
                               + float(np.sum(dy_hx[1:nx] ** 2)))]
        if prev is None:
            want += [None] * 4
        else:
            d = time_diff(curr, prev, grid.dt)
            want += [*(energy_h1(d, a, med, grid) for a in "xyz"), energy_l2(d, med, grid)]
        div = divergence(curr, med, grid)
        want += [div.div_e_linf, div.div_e_l2, div.div_h_linf, div.div_h_l2]
        e, de = metrics(curr, prev, grid, med)
        et1, et2 = (None, None) if de is None else (de.h1["x"][1], de.l2)
        # a squared norm's ratio to its mode constant; q: the functionals of the columns above
        q = dict(zip(header, want))
        ratio = lambda v, c: None if v is None else math.sqrt(v / k[c])
        want += [ratio(e.l2_core, "total"), ratio(e.h1["x"][1], "grad"), ratio(e.l2, "total"),
                 math.sqrt(e.e_sq), math.sqrt(e.h_sq), ratio(q["Q_h1x"], "grad"),
                 ratio(q["Q_l2"], "total"), ratio(et1, "grad_time"), ratio(et2, "time"),
                 ratio(q["Q_h1tx"], "grad_time"), ratio(q["Q_l2t"], "time")]
        assert len(want) == len(header)
        for label, got, value in zip(header, row, want):
            _assert_close(got, value, (n, label))


def test_audit_tick_reads_each_state_once(tmp_path, monkeypatch):
    cfg = desk_cfg(tmp_path, kind="energy-audit", nx=12, ny=20, nz=9, dt=0.7, T=4.9,
                   eps=2.5, mu=0.4, cadence=3)
    counts = _count_passes(monkeypatch)
    energy_audit(cfg)
    monkeypatch.undo()
    ticks = sorted(harness._ticks(cfg.steps, cfg.cadence))
    assert all(c <= 2 for c in counts)

    grid, med, states = _trajectory(cfg)
    k = manufactured.energy_constants(med)
    consts = {"1": k["grad"], "2": k["total"], "1t": k["grad_time"], "2t": k["time"]}

    def norms_at(n, core):
        sums = [norms.state_sums(s, med, grid, axes="x") for s in
                (states[n], time_diff(states[n], states[n - 1], grid.dt))]
        vals = [(s.h1["x"][0], s.l2_core) if core else (s.h1["x"][1], s.l2) for s in sums]
        return {"1": vals[0][0], "2": vals[0][1],
                "1t": vals[1][0] if n else None, "2t": vals[1][1] if n else None}

    refs = {core: {**norms_at(0, core), **{s: norms_at(1, core)[s] for s in ("1t", "2t")}}
            for core in (False, True)}

    def drift(v, r):
        return None if v is None else (math.sqrt(v) - math.sqrt(r)) / math.sqrt(r)

    def ratio(v, c, root=True):
        return None if v is None else (math.sqrt(v / c) if root else v / c)

    rows = _rows(tmp_path / "out" / "energy_audit.csv")
    for row, n in zip(rows[1:], ticks):
        full, core = norms_at(n, False), norms_at(n, True)
        want = [n]
        for stem in ("1", "1t", "2", "2t"):
            want += [drift(full[stem], refs[False][stem]), ratio(full[stem], consts[stem]),
                     ratio(full[stem], consts[stem], root=False)]
        for stem in ("1", "1t", "2", "2t"):
            want += [drift(core[stem], refs[True][stem]), ratio(core[stem], consts[stem])]
        assert len(want) == len(rows[0])
        for label, got, value in zip(rows[0], row, want):
            if value == 0.0:  # a drift against itself
                assert float(got) == 0.0, (n, label)
            else:
                _assert_close(got, value, (n, label))


# --- every column of a tick, exactly from its source --------------------------

_TICK_GRID = dict(nx=6, ny=7, nz=8, dt=0.1, T=0.5, eps=2.5, mu=0.4)


def _last_row(path) -> dict:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))[-1]


def _assert_cells(row: dict, want: dict):
    """Every cell of `row` is its value in `want`, bit for bit through the 17-digit text."""
    assert list(row) == list(want)
    for label, value in want.items():
        assert float(row[label]) == value, (label, row[label], value)


def test_run_csv_columns_are_their_sources(tmp_path):
    cfg = desk_cfg(tmp_path, **_TICK_GRID, cadence=1)
    run(cfg)
    grid, med, states = _trajectory(cfg)
    prev, curr = states[-2:]
    s = norms.state_sums(curr, med, grid)
    d = norms.state_sums(time_diff(curr, prev, grid.dt), med, grid)
    div = divergence(curr, med, grid)
    e, de = metrics(curr, prev, grid, med)
    k = manufactured.energy_constants(med)
    _assert_cells(_last_row(tmp_path / "out" / "run.csv"), {
        "time_level": cfg.steps, "Q_h1x": s.h1["x"][1], "Q_h1y": s.h1["y"][1],
        "Q_h1z": s.h1["z"][1], "Q_l2": s.l2, "E_sq": s.e_sq, "H_sq": s.h_sq,
        "CurlPosE_sq": s.curl_pos_e, "CurlNegH_sq": s.curl_neg_h, "Q_h1tx": d.h1["x"][1],
        "Q_h1ty": d.h1["y"][1], "Q_h1tz": d.h1["z"][1], "Q_l2t": d.l2,
        "DivE_Linf": div.div_e_linf, "DivE_L2": div.div_e_l2, "DivH_Linf": div.div_h_linf,
        "DivH_L2": div.div_h_l2, "ERR0_n": math.sqrt(e.l2_core / k["total"]),
        "ERR1_n": math.sqrt(e.h1["x"][1] / k["grad"]), "ERR2_n": math.sqrt(e.l2 / k["total"]),
        "ErrE": math.sqrt(e.e_sq), "ErrH": math.sqrt(e.h_sq),
        "EH1_n": math.sqrt(s.h1["x"][1] / k["grad"]), "EH2_n": math.sqrt(s.l2 / k["total"]),
        "ERRt1_n": math.sqrt(de.h1["x"][1] / k["grad_time"]),
        "ERRt2_n": math.sqrt(de.l2 / k["time"]),
        "EHt1_n": math.sqrt(d.h1["x"][1] / k["grad_time"]), "EHt2_n": math.sqrt(d.l2 / k["time"])})


@pytest.mark.parametrize("cadence", [1, 3], ids=["step-1-ticks", "step-1-between-ticks"])
def test_audit_csv_columns_are_their_sources(tmp_path, cadence):
    cfg = desk_cfg(tmp_path, kind="energy-audit", **_TICK_GRID, cadence=cadence)
    energy_audit(cfg)
    grid, med, states = _trajectory(cfg)
    sums = lambda n: norms.state_sums(states[n], med, grid, axes="x")
    dsums = lambda n: norms.state_sums(time_diff(states[n], states[n - 1], grid.dt), med, grid,
                                       axes="x")
    # the last level and its time difference; the references level 0 and the (0, 1) pair
    s, d, s0, d01 = sums(-1), dsums(-1), sums(0), dsums(1)
    k = manufactured.energy_constants(med)
    drift = lambda v, r: (math.sqrt(v) - math.sqrt(r)) / math.sqrt(r)
    want = {"time_level": cfg.steps}
    for label, (core, full), (ref_core, ref_full), const in (
            ("EH1", s.h1["x"], s0.h1["x"], k["grad"]),
            ("EHt1", d.h1["x"], d01.h1["x"], k["grad_time"]),
            ("EH2", (s.l2_core, s.l2), (s0.l2_core, s0.l2), k["total"]),
            ("EHt2", (d.l2_core, d.l2), (d01.l2_core, d01.l2), k["time"])):
        want |= {f"{label}_n0": drift(full, ref_full), f"{label}_n": math.sqrt(full / const),
                 f"{label}_nsq": full / const,
                 f"{label}s_n0": drift(core, ref_core), f"{label}s_n": math.sqrt(core / const)}
    columns = ["time_level", *(f"{label}{suffix}" for label in ("EH1", "EHt1", "EH2", "EHt2")
                               for suffix in ("_n0", "_n", "_nsq")),
               *(f"{label}s{suffix}" for label in ("EH1", "EHt1", "EH2", "EHt2")
                 for suffix in ("_n0", "_n"))]
    _assert_cells(_last_row(tmp_path / "out" / "energy_audit.csv"), {c: want[c] for c in columns})


_CONVERGENCE = pytest.mark.parametrize(
    "kind, lists", [("converge-time", dict(dt_list=(0.1, 0.05))),
                    ("converge-space", dict(grid_list=(4, 6)))],
    ids=["converge-time", "converge-space"])


@_CONVERGENCE
def test_convergence_csv_columns_are_their_sources(tmp_path, kind, lists):
    keys = {key: v for key, v in _TICK_GRID.items() if kind in harness.KEYS[key].metadata["kinds"]}
    cfg = desk_cfg(tmp_path, kind=kind, **keys, **lists)
    harness.DRIVERS[kind](cfg)
    med = cfg.to_medium()
    k = manufactured.energy_constants(med)
    if kind == "converge-time":
        points = [(dt, cfg.to_grid(dt=dt)) for dt in cfg.dt_list]
    else:
        points = [(1.0 / n, cfg.to_grid(n=n)) for n in cfg.grid_list]
    errors = []
    for _, grid in points:
        prev, curr = _trajectory(cfg, grid)[2][-2:]
        e, de = metrics(curr, prev, grid, med)
        errs = {"ERR1": math.sqrt(e.h1["x"][1] / k["grad"]), "ERR2": math.sqrt(e.l2 / k["total"]),
                "ERRt1": math.sqrt(de.h1["x"][1] / k["grad_time"]),
                "ERRt2": math.sqrt(de.l2 / k["time"]), "ErrE": math.sqrt(e.e_sq),
                "ErrH": math.sqrt(e.h_sq)}
        if kind == "converge-time":
            semi, _ = metrics(curr, None, grid, med, reference=sample_semidiscrete)
            errs |= {"ERR1_semi": math.sqrt(semi.h1["x"][1] / k["grad"]),
                     "ERR2_semi": math.sqrt(semi.l2 / k["total"])}
        errors.append(errs)
    (h0, _), (h1, _) = points
    rate_labels = ["rate1", "rate2", "ratet1", "ratet2", "rateE", "rateH"]
    if kind == "converge-time":
        rate_labels += ["rate1_semi", "rate2_semi"]
    want = {"resolution": h1}
    for (label, value), rate in zip(errors[1].items(), rate_labels, strict=True):
        want |= {label: value, rate: observed_rate((errors[0][label], value), (h0, h1))}
    name = kind.replace("-", "_") + ".csv"
    _assert_cells(_last_row(tmp_path / "out" / name), want)


def test_run_div_cells_are_divergence_at_every_tick(tmp_path):
    cfg = desk_cfg(tmp_path, **_TICK_GRID, cadence=2)
    result = run(cfg)
    grid, med, states = _trajectory(cfg)
    want = []
    for n in sorted(harness._ticks(cfg.steps, cfg.cadence)):
        div = divergence(states[n], med, grid)
        want.append({"time_level": n, "DivE_Linf": div.div_e_linf, "DivE_L2": div.div_e_l2,
                     "DivH_Linf": div.div_h_linf, "DivH_L2": div.div_h_l2})
    with open(tmp_path / "out" / "run.csv", newline="") as fh:
        written = list(csv.DictReader(fh))
    assert len(result.rows) == len(written) == len(want)
    for row, line, values in zip(result.rows, written, want):
        assert {label: row[label] for label in values} == values
        _assert_cells({label: line[label] for label in values}, values)


@_CONVERGENCE
def test_convergence_grades_each_state_once(tmp_path, monkeypatch, kind, lists):
    # per resolution, one pass over the error at T and one over its time difference;
    # converge-time adds one over the error at T against sample_semidiscrete
    counts = _count_passes(monkeypatch)
    harness.DRIVERS[kind](desk_cfg(tmp_path, kind=kind, T=0.2, **lists))
    per_resolution = 3 if kind == "converge-time" else 2
    assert sum(counts) == per_resolution * len(*lists.values())


# --- convergence -----------------------------------------------------------

def test_converge_time_rates_reproducible_from_csv(tmp_path):
    cfg = RunConfig(nx=8, ny=8, nz=8, T=1.0, kind="converge-time",
                    dt_list=(0.1, 0.05), out=str(tmp_path)).validate()
    result = converge_time(cfg)
    assert len(result.rows) == 2
    assert all(v is None for label, v in result.rows[0].items() if label.startswith("rate"))
    lines = (tmp_path / "converge_time.csv").read_text().splitlines()
    header = lines[0].split(",")
    first = dict(zip(header, lines[1].split(",")))
    second = dict(zip(header, lines[2].split(",")))
    for err, rate in (("ERR1", "rate1"), ("ERR1_semi", "rate1_semi"), ("ERR2_semi", "rate2_semi")):
        assert first[rate] == ""
        recomputed = observed_rate((float(first[err]), float(second[err])),
                                   (float(first["resolution"]), float(second["resolution"])))
        assert float(second[rate]) == pytest.approx(recomputed, rel=1e-12)


def test_converge_time_single_dt(tmp_path):
    cfg = RunConfig(nx=8, ny=8, nz=8, T=0.5, kind="converge-time",
                    dt_list=(0.1,), out=str(tmp_path)).validate()
    result = converge_time(cfg)
    assert len(result.rows) == 1
    assert all(v is None for label, v in result.rows[0].items() if label.startswith("rate"))


def test_converge_space_identical_grids_rate_zero(tmp_path):
    cfg = RunConfig(nx=6, ny=6, nz=6, dt=0.1, T=0.2, kind="converge-space",
                    grid_list=(6, 6), out=str(tmp_path)).validate()
    result = converge_space(cfg)
    assert result.rows[1]["rate2"] == 0.0


def test_converge_space_second_order_small(tmp_path):
    cfg = RunConfig(nx=6, ny=6, nz=6, dt=0.01, T=0.2, kind="converge-space",
                    grid_list=(6, 12), out=str(tmp_path)).validate()
    result = converge_space(cfg)
    assert result.rows[1]["rate2"] == pytest.approx(2.0, abs=0.35)


def test_nonunit_medium_errors_and_ratios(tmp_path):
    # the mode is scaled to the medium, so the error columns stay small and the
    # energy ratios stay near 1 (tolerances of test_metrics_zero_for_exact_samples)
    cfg = RunConfig(nx=12, ny=12, nz=12, T=1.0, eps=2.0, mu=0.5, kind="converge-time",
                    dt_list=(0.05, 0.04, 0.025), out=str(tmp_path / "ct")).validate()
    rows = converge_time(cfg).rows
    for row in rows[1:]:
        for key in ("rate1_semi", "rate2_semi"):
            assert 1.6 <= row[key] <= 2.2  # the window of criterion 3
    assert max(row["ERR1"] for row in rows) < 0.1
    result = run(desk_cfg(tmp_path, dt=0.05, eps=2.0, mu=0.5, cadence=5))
    run_csv = _rows(tmp_path / "out" / "run.csv")
    cols = [run_csv[0].index(c) for c in ("EH1_n", "EH2_n")]
    for row in run_csv[1:]:
        assert float(row[cols[0]]) == pytest.approx(1.0, abs=2e-2)
        assert float(row[cols[1]]) == pytest.approx(1.0, abs=5e-3)
    k, last = manufactured.energy_constants(result.config.to_medium()), result.rows[-1]
    assert [float(run_csv[-1][c]) for c in cols] == [math.sqrt(last["Q_h1x"] / k["grad"]),
                                                      math.sqrt(last["Q_l2"] / k["total"])]


# --- stability -------------------------------------------------------------

def test_stability_large_courant_short_run(tmp_path):
    cfg = desk_cfg(tmp_path, kind="stability", dt=0.5, T=10.0, cadence=5)
    result = stability(cfg)
    assert cfg.to_grid().courant(cfg.eps, cfg.mu) > 5.0
    assert result.passed
    assert result.max_field <= 10 * result.initial_max
    # its rows are its CSV's, like every driver's
    with open(tmp_path / "out" / "stability.csv", newline="") as fh:
        written = list(csv.DictReader(fh))
    assert [row["time_level"] for row in result.rows] == [0, 5, 10, 15, 20]
    for row, line in zip(result.rows, written, strict=True):
        _assert_cells(line, row)


def test_stability_tiny_dt(tmp_path):
    cfg = desk_cfg(tmp_path, kind="stability", dt=1e-4, T=1e-3, cadence=1)
    assert stability(cfg).passed


@pytest.mark.parametrize("factor, passed", [(9.0, True), (11.0, False)])
def test_stability_fails_on_growth_alone(tmp_path, monkeypatch, factor, passed):
    # the energy stays put while one non-tick level grows to `factor` times the initial
    # maximum: the verdict is the growth bound's alone
    cfg = desk_cfg(tmp_path, kind="stability", dt=0.5, T=5.0, cadence=4)
    monkeypatch.setattr(harness, "energy_l2", lambda state, med, grid: 1.0)
    start = enforce_pec(sample_exact(0.0, cfg.to_grid())).max_abs()
    real_stage2, steps = harness.stage2, []

    def growing(*args, **kwargs):
        level = real_stage2(*args, **kwargs)
        steps.append(level.time_level)
        if len(steps) == 5:
            scale = factor * start / level.max_abs()
            for _, a in level.components():
                a *= scale
        return level

    monkeypatch.setattr(harness, "stage2", growing)
    result = stability(cfg)
    assert 5 not in harness._ticks(cfg.steps, cfg.cadence)
    assert result.max_drift == 0.0 and result.initial_max == start
    assert result.max_field == pytest.approx(factor * start, rel=1e-12)
    assert result.passed is passed


def test_stability_drift_is_read_at_every_step(tmp_path, monkeypatch):
    # one energy spike on a step that is no tick fails the run, and sets its drift maximum
    cfg = desk_cfg(tmp_path, kind="stability", dt=0.5, T=5.0, cadence=4)
    calls = []

    def spiking(state, med, grid):
        calls.append(state.time_level)
        return 1.0 + (1e-6 if len(calls) == 6 else 0.0)  # level 5

    monkeypatch.setattr(harness, "energy_l2", spiking)
    result = stability(cfg)
    assert 5 not in harness._ticks(cfg.steps, cfg.cadence) and calls[5] == 5.0
    assert result.max_drift == pytest.approx(1e-6, rel=1e-9)
    assert not result.passed
    assert all(row["drift"] == 0.0 for row in result.rows)


# --- CLI -------------------------------------------------------------------

def test_cli_run(tmp_path, capsys):
    rc = cli_main(["run", "--grid", "6,6,6", "--dt", "0.1", "--T", "0.5",
                   "--out", str(tmp_path / "cli")])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "Courant" in captured
    assert (tmp_path / "cli" / "run.csv").exists()


def test_cli_stability_verdict(tmp_path, capsys):
    rc = cli_main(["stability", "--grid", "6,6,6", "--dt", "0.5", "--T", "5",
                   "--out", str(tmp_path / "cli")])
    assert rc == 0
    assert "stability PASS" in capsys.readouterr().out


def test_cli_config_error(capsys):
    rc = cli_main(["run", "--grid", "2,2,2", "--dt", "0.1", "--T", "0.5"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["a-file", "a-file/sub"])
def test_cli_unusable_out_is_a_config_error(tmp_path, capsys, where):
    (tmp_path / "a-file").write_text("")
    rc = cli_main(["run", "--grid", "4,4,4", "--dt", "0.1", "--T", "0.2",
                   "--out", str(tmp_path / where)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error: out '{tmp_path / where}' ")
    assert (tmp_path / "a-file").read_text() == ""


@pytest.mark.parametrize("form", ["flag", "flag-blank", "config-file"])
def test_cli_empty_out_is_a_config_error(tmp_path, monkeypatch, capsys, form):
    # an empty out would write into, and clean up, the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "keep.txt").write_text("keep")
    (tmp_path / "MANIFEST").write_text("keep.txt\nMANIFEST\n")
    (tmp_path / "cfg").write_text("nx = 4\nny = 4\nnz = 4\ndt = 0.1\nT = 0.1\nout =\n")
    before = {p.name: p.read_text() for p in tmp_path.iterdir()}
    argv = {"flag": ["--out", ""], "flag-blank": ["--out", " "], "config-file": ["--config", "cfg"]}
    rc = cli_main(["run", "--grid", "4,4,4", "--dt", "0.1", "--T", "0.1", *argv[form]])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: out must name a directory")
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == before


def test_cli_converge_time(tmp_path, capsys):
    rc = cli_main(["converge-time", "--grid", "6,6,6", "--T", "0.5",
                   "--dt-list", "0.1,0.05", "--out", str(tmp_path / "cli")])
    assert rc == 0
    assert (tmp_path / "cli" / "converge_time.csv").exists()


def test_cli_aborts_on_a_non_finite_csv_cell(tmp_path, capsys):
    # at eps 1e-200 the fields stay finite but the ratios to the mode constants overflow
    rc = cli_main(["run", "--grid", "6,6,6", "--dt", "0.1", "--T", "0.3", "--eps", "1e-200",
                   "--out", str(tmp_path / "cli")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("aborted: run.csv: non-finite ERR1_n (inf) "
                                              "in the row time_level = 3")
    assert not (tmp_path / "cli" / "run.csv").exists()
    assert (tmp_path / "cli" / "MANIFEST").read_text().splitlines() == ["config.echo", "MANIFEST"]


def test_cli_config_file(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("nx = 6\nny = 6\nnz = 6\ndt = 0.1\nT = 0.5\n")
    rc = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "cli")])
    assert rc == 0
    echoed = parse_config(tmp_path / "cli" / "config.echo")
    assert echoed.nx == 6 and echoed.T == 0.5


def test_cli_paper_scale_defaults_are_overridable(tmp_path, capsys):
    # the flag only swaps defaults; explicit flags keep a desk-size run
    rc = cli_main(["run", "--paper-scale", "--grid", "6,6,6", "--dt", "0.1",
                   "--T", "0.2", "--cadence", "1", "--out", str(tmp_path / "cli")])
    assert rc == 0
    assert (tmp_path / "cli" / "run.csv").exists()


def test_paper_scale_default_tables():
    from adimax.cli import DESK_DEFAULTS, FULL_SCALE_DEFAULTS
    assert set(DESK_DEFAULTS) == set(FULL_SCALE_DEFAULTS) == set(harness.KINDS)
    assert FULL_SCALE_DEFAULTS["run"]["nx"] == 100
    assert FULL_SCALE_DEFAULTS["converge-time"]["dt_list"] == (0.05, 0.04, 0.025, 0.02)
    for table in (DESK_DEFAULTS, FULL_SCALE_DEFAULTS):  # only keys the kind reads
        for kind, defaults in table.items():
            assert all(kind in harness.KEYS[key].metadata["kinds"] for key in defaults), kind
            RunConfig(kind=kind, **defaults).validate()


# --- output tables ---------------------------------------------------------

# perfbench, the test oracles and users read these columns by name
_CSV_HEADERS = {
    "run": ("run.csv", "time_level,Q_h1x,Q_h1y,Q_h1z,Q_l2,E_sq,H_sq,CurlPosE_sq,CurlNegH_sq,"
            "Q_h1tx,Q_h1ty,Q_h1tz,Q_l2t,DivE_Linf,DivE_L2,DivH_Linf,DivH_L2,ERR0_n,ERR1_n,"
            "ERR2_n,ErrE,ErrH,EH1_n,EH2_n,ERRt1_n,ERRt2_n,EHt1_n,EHt2_n"),
    "energy-audit": ("energy_audit.csv", "time_level,EH1_n0,EH1_n,EH1_nsq,EHt1_n0,EHt1_n,"
                     "EHt1_nsq,EH2_n0,EH2_n,EH2_nsq,EHt2_n0,EHt2_n,EHt2_nsq,EH1s_n0,EH1s_n,"
                     "EHt1s_n0,EHt1s_n,EH2s_n0,EH2s_n,EHt2s_n0,EHt2s_n"),
    "converge-time": ("converge_time.csv", "resolution,ERR1,rate1,ERR2,rate2,ERRt1,ratet1,"
                      "ERRt2,ratet2,ErrE,rateE,ErrH,rateH,ERR1_semi,rate1_semi,ERR2_semi,"
                      "rate2_semi"),
    "converge-space": ("converge_space.csv", "resolution,ERR1,rate1,ERR2,rate2,ERRt1,ratet1,"
                       "ERRt2,ratet2,ErrE,rateE,ErrH,rateH"),
    "stability": ("stability.csv", "time_level,Q_l2,drift,max_field"),
}


@pytest.mark.parametrize("kind", harness.KINDS)
def test_csv_headers(tmp_path, kind):
    name, header = _CSV_HEADERS[kind]
    harness.DRIVERS[kind](desk_cfg(tmp_path, kind=kind, T=0.2, **_LISTS.get(kind, {})))
    assert (tmp_path / "out" / name).read_text().splitlines()[0] == header
