import csv
import math
import weakref

import numpy as np
import pytest

import adimax.harness as harness
from adimax import grid as grid_module
from adimax import manufactured, norms, stepper
from adimax import (divergence, electric_norm_sq, energy_h1, energy_h1_dt, energy_l2, energy_l2_dt,
                    enforce_pec, magnetic_norm_sq, metrics, sample_exact, split_curl_neg,
                    split_curl_pos, step)
from adimax import (ConfigError, RunConfig, converge_space, converge_time, divergence_audit,
                    emit_config, energy_audit, observed_rate, parse_config, run, stability)
from adimax.cli import main as cli_main

from conftest import force_split


def desk_cfg(tmp_path, **kw):
    base = dict(nx=8, ny=8, nz=8, dt=0.1, T=1.0, cadence=2, out=str(tmp_path / "out"))
    base.update(kw)
    return RunConfig(**base).validate()


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


def test_config_round_trip(tmp_path):
    cfg = RunConfig(nx=10, ny=12, nz=14, dt=0.025, T=0.5, eps=2.0, mu=0.5,
                    kind="run", cadence=5, out="somewhere",
                    dt_list=(0.025, 0.0125), init="zero", snapshots=True).validate()
    path = tmp_path / "echo"
    path.write_text(emit_config(cfg))
    again = parse_config(path)
    assert again == cfg


@pytest.mark.parametrize("kind, line", [
    ("converge-time", "init = zero"), ("converge-space", "init = zero"),
    *((kind, "snapshots = true") for kind in harness.KINDS if kind != "run"),
])
def test_keys_a_kind_ignores_are_rejected(tmp_path, capsys, kind, line):
    key = line.split(" =")[0]
    path = tmp_path / "cfg"
    path.write_text(f"kind = {kind}\ndt_list = 0.1\ngrid_list = 4\n{line}\n")
    with pytest.raises(ConfigError, match=rf"^{key} "):
        parse_config(path)
    rc = cli_main([kind, "--config", str(path), "--grid", "4,4,4", "--dt", "0.1", "--T", "0.2",
                   "--out", str(tmp_path / "cli")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} ")
    assert not (tmp_path / "cli").exists()
    if key == "snapshots":  # the flag exists only on the run subcommand
        with pytest.raises(SystemExit) as info:
            cli_main([kind, "--snapshots"])
        assert info.value.code == 2


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
    assert len(result.energy) == 6
    assert result.courant == pytest.approx(cfg.to_grid().courant(), rel=1e-12)


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
    q0 = result.energy[0].l2
    for rep in result.energy[1:]:
        assert abs(rep.l2 - q0) / q0 <= 1e-11
        for axis_val, ref in (("h1_x", result.energy[0].h1_x),
                              ("h1_y", result.energy[0].h1_y),
                              ("h1_z", result.energy[0].h1_z)):
            assert abs(getattr(rep, axis_val) - ref) / ref <= 1e-11


def test_run_zero_init_gives_zero_reports(tmp_path):
    result = run(desk_cfg(tmp_path, init="zero"))
    for rep in result.energy:
        assert rep.l2 == 0.0 and rep.h1_x == 0.0
    for rep in result.diverg:
        assert rep.div_e_linf == 0.0 and rep.div_h_l2 == 0.0


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


@pytest.mark.parametrize("kind", list(harness.DRIVERS))
def test_driver_aborts_with_step_index_on_nonfinite(tmp_path, monkeypatch, kind):
    cfg = desk_cfg(tmp_path, kind=kind, dt_list=(0.1,), grid_list=(8,))

    def poisoned(t, grid):
        from adimax import zero_state
        s = zero_state(grid)
        s.ex[2, 2, 2] = np.nan
        return s

    monkeypatch.setattr(harness, "sample_exact", poisoned)
    with pytest.raises(RuntimeError, match=r"step 1\b"):
        harness.DRIVERS[kind](cfg)


@pytest.mark.parametrize("kind, held", [
    ("run", 2), ("energy-audit", 2), ("converge-time", 2), ("converge-space", 2),
    ("divergence-audit", 1), ("stability", 1),
])
def test_levels_alive_during_a_step(tmp_path, monkeypatch, kind, held):
    # a step holds its input level and, where the driver reads it, the level before
    cfg = desk_cfg(tmp_path, kind=kind, dt_list=(0.1,), grid_list=(8,))
    levels, alive = [], []
    real_stage1, real_stage2 = harness.stage1, harness.stage2

    def stage1(state, grid, med):
        if not levels:
            levels.append(weakref.ref(state))
        alive.append(sum(ref() is not None for ref in levels))
        return real_stage1(state, grid, med)

    def stage2(state, grid, med):
        out = real_stage2(state, grid, med)
        levels.append(weakref.ref(out))
        return out

    monkeypatch.setattr(harness, "stage1", stage1)
    monkeypatch.setattr(harness, "stage2", stage2)
    harness.DRIVERS[kind](cfg)
    assert len(alive) == cfg.steps and max(alive) == held


def test_run_reports_nonfinite_at_the_step_that_made_it(tmp_path, monkeypatch):
    cfg = desk_cfg(tmp_path)
    solve = stepper._solve_lines
    calls = []

    def poisoned(lam, rhs, axis):
        out = solve(lam, rhs, axis)
        calls.append(axis)
        if len(calls) == 6 * cfg.steps:  # last solve: stage two of the last step
            out = out.copy()
            out[(0,) * out.ndim] = np.inf
        return out

    monkeypatch.setattr(stepper, "_solve_lines", poisoned)
    with pytest.raises(RuntimeError, match=rf"step {cfg.steps}\b"):
        run(cfg)
    assert len(calls) == 6 * cfg.steps


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
            out[(-1,) * out.ndim] = np.nan
        return out

    monkeypatch.setattr(stepper, "_sweep", poisoned)
    with pytest.raises(RuntimeError, match=r"step 2\b") as info:
        run(cfg)
    assert isinstance(info.value.__cause__, stepper.NonFiniteFieldError)
    assert "stage 2" in str(info.value.__cause__)
    assert len(calls) == 3 * 4
    # the worker is idle again: the next step runs, bitwise as unsplit
    grid, med = cfg.to_grid(), cfg.to_medium()
    state = enforce_pec(sample_exact(0.0, grid))
    got = step(state, grid, med)
    monkeypatch.setattr(stepper, "_SPLIT_MIN", 10 ** 9)
    want = step(state, grid, med)
    assert all(a.tobytes() == b.tobytes()
               for (_, a), (_, b) in zip(got.components(), want.components()))


# --- energy audit ----------------------------------------------------------

def test_energy_audit_drift_columns(tmp_path):
    cfg = desk_cfg(tmp_path, kind="energy-audit", dt=0.05, T=1.0, cadence=4)
    result = energy_audit(cfg)
    assert result.rows[0].values["norm1_drift"] == 0.0
    for row in result.rows[1:]:
        for key in ("norm1_drift", "norm2_drift", "norm1t_drift", "norm2t_drift",
                    "norm1_core_drift", "norm2_core_drift"):
            assert abs(row.values[key]) <= 1e-11
    header = (tmp_path / "out" / "energy_audit.csv").read_text().splitlines()[0]
    assert header.split(",")[:4] == ["time_level", "EH1_n0", "EH1_n", "EH1_nsq"]


def test_energy_audit_ratios_near_one(tmp_path):
    # at 32^3 the starred (core) ratios sit within 1e-2 of 1
    cfg = desk_cfg(tmp_path, kind="energy-audit", nx=32, ny=32, nz=32, dt=0.05, T=0.5,
                   cadence=10)
    result = energy_audit(cfg)
    last = result.rows[-1].values
    for key in ("norm1_core_ratio", "norm2_core_ratio", "norm1_ratio", "norm2_ratio",
                "norm1t_core_ratio", "norm2t_core_ratio", "norm1t_ratio", "norm2t_ratio"):
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
    monkeypatch.setattr(manufactured, "state_sums", counting)
    monkeypatch.setattr(harness, "stage1", marking)
    monkeypatch.setattr(norms, "rotate_state", no_copy)
    monkeypatch.setattr(grid_module, "rotate_state", no_copy)
    return counts


def _trajectory(cfg):
    grid, med = cfg.to_grid(), cfg.to_medium()
    states = [enforce_pec(sample_exact(0.0, grid))]
    for _ in range(cfg.steps):
        states.append(step(states[-1], grid, med))
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
    rows = _rows(tmp_path / "out" / "run.csv")
    header = rows[0]
    assert [float(r[0]) for r in rows[1:]] == ticks
    dv, ny, nz, nx = grid.dv, grid.ny, grid.nz, grid.nx
    for row, n in zip(rows[1:], ticks):
        curr, prev = states[n], (states[n - 1] if n else None)
        dz_hy, dx_hz, dy_hx = split_curl_neg(curr.h_triple(), grid)
        want = [n, *(energy_h1(curr, a, med, grid) for a in "xyz"), energy_l2(curr, med, grid),
                electric_norm_sq(curr.e_triple(), med.eps, grid),
                magnetic_norm_sq(curr.h_triple(), med.mu, grid),
                med.eps * dv * sum(float(np.sum(p ** 2))
                                   for p in split_curl_pos(curr.e_triple(), grid)),
                med.mu * dv * (float(np.sum(dz_hy[:, 1:ny, :] ** 2))
                               + float(np.sum(dx_hz[:, :, 1:nz] ** 2))
                               + float(np.sum(dy_hx[1:nx] ** 2)))]
        if prev is None:
            want += [None] * 4
        else:
            want += [*(energy_h1_dt(prev, curr, a, med, grid) for a in "xyz"),
                     energy_l2_dt(prev, curr, med, grid)]
        want += [float(x) for x in divergence(curr, med, grid)[0].csv_row().split(",")[1:]]
        m = metrics(curr, prev, grid, med)
        want += [getattr(m, f) for f in ("eh0", "eh1", "eh2", "err_e", "err_h", "ratio1",
                                          "ratio2", "eht1", "eht2", "ratiot1", "ratiot2")]
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
        curr, prev = states[n], states[n - 1]
        return {"1": energy_h1(curr, "x", med, grid, core=core),
                "2": energy_l2(curr, med, grid, core=core),
                "1t": energy_h1_dt(prev, curr, "x", med, grid, core=core) if n else None,
                "2t": energy_l2_dt(prev, curr, med, grid, core=core) if n else None}

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


# --- convergence -----------------------------------------------------------

def test_converge_time_rates_reproducible_from_csv(tmp_path):
    cfg = RunConfig(nx=8, ny=8, nz=8, dt=0.1, T=1.0, kind="converge-time",
                    dt_list=(0.1, 0.05), out=str(tmp_path)).validate()
    result = converge_time(cfg)
    assert len(result.rows) == 2
    assert result.rows[0].rates == {}
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
    cfg = RunConfig(nx=8, ny=8, nz=8, dt=0.1, T=0.5, kind="converge-time",
                    dt_list=(0.1,), out=str(tmp_path)).validate()
    result = converge_time(cfg)
    assert len(result.rows) == 1 and result.rows[0].rates == {}


def test_converge_space_identical_grids_rate_zero(tmp_path):
    cfg = RunConfig(nx=6, ny=6, nz=6, dt=0.1, T=0.2, kind="converge-space",
                    grid_list=(6, 6), out=str(tmp_path)).validate()
    result = converge_space(cfg)
    assert result.rows[1].rates["eh2"] == 0.0


def test_converge_space_second_order_small(tmp_path):
    cfg = RunConfig(nx=6, ny=6, nz=6, dt=0.01, T=0.2, kind="converge-space",
                    grid_list=(6, 12), out=str(tmp_path)).validate()
    result = converge_space(cfg)
    assert result.rows[1].rates["eh2"] == pytest.approx(2.0, abs=0.35)


def test_nonunit_medium_errors_and_ratios(tmp_path):
    # the mode is scaled to the medium, so the error columns stay small and the
    # energy ratios stay near 1 (tolerances of test_metrics_zero_for_exact_samples)
    cfg = RunConfig(nx=12, ny=12, nz=12, T=1.0, eps=2.0, mu=0.5, kind="converge-time",
                    dt_list=(0.05, 0.04, 0.025), out=str(tmp_path / "ct")).validate()
    rows = converge_time(cfg).rows
    for row in rows[1:]:
        for key in ("eh1_semi", "eh2_semi"):
            assert 1.6 <= row.rates[key] <= 2.2  # the window of criterion 3
    assert max(row.eh1 for row in rows) < 0.1
    result = run(desk_cfg(tmp_path, dt=0.05, eps=2.0, mu=0.5, cadence=5))
    for m in result.errors:
        assert m.ratio1 == pytest.approx(1.0, abs=2e-2)
        assert m.ratio2 == pytest.approx(1.0, abs=5e-3)
    run_csv = _rows(tmp_path / "out" / "run.csv")
    cols = [run_csv[0].index(c) for c in ("EH1_n", "EH2_n")]
    assert [float(run_csv[-1][c]) for c in cols] == [result.errors[-1].ratio1,
                                                      result.errors[-1].ratio2]


# --- divergence audit ------------------------------------------------------

def test_divergence_audit_small_throughout(tmp_path):
    cfg = desk_cfg(tmp_path, kind="divergence-audit", dt=0.1, T=1.0, cadence=5)
    result = divergence_audit(cfg)
    assert result.reports[0].div_e_linf <= 1e-13
    for rep in result.reports:
        assert rep.div_e_linf <= 1e-10
        assert rep.div_e_l2 <= 1e-10


def test_divergence_audit_zero_init(tmp_path):
    result = divergence_audit(desk_cfg(tmp_path, kind="divergence-audit", init="zero"))
    for rep in result.reports:
        assert rep.div_e_linf == 0.0 and rep.div_e_l2 == 0.0


# --- stability -------------------------------------------------------------

def test_stability_large_courant_short_run(tmp_path):
    cfg = desk_cfg(tmp_path, kind="stability", dt=0.5, T=10.0, cadence=5)
    result = stability(cfg)
    assert result.courant > 5.0
    assert result.passed
    assert result.max_field <= 10 * result.initial_max


def test_stability_tiny_dt(tmp_path):
    cfg = desk_cfg(tmp_path, kind="stability", dt=1e-4, T=1e-3, cadence=1)
    assert stability(cfg).passed


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


def test_cli_converge_time(tmp_path, capsys):
    rc = cli_main(["converge-time", "--grid", "6,6,6", "--T", "0.5",
                   "--dt-list", "0.1,0.05", "--out", str(tmp_path / "cli")])
    assert rc == 0
    assert (tmp_path / "cli" / "converge_time.csv").exists()


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
