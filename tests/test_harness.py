import numpy as np
import pytest

import adimax.harness as harness
from adimax import stepper
from adimax import (ConfigError, RunConfig, converge_space, converge_time, divergence_audit,
                    emit_config, energy_audit, observed_rate, parse_config, run, stability)
from adimax.cli import main as cli_main


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


def test_config_round_trip(tmp_path):
    cfg = RunConfig(nx=10, ny=12, nz=14, dt=0.025, T=0.5, eps=2.0, mu=0.5,
                    kind="converge-time", cadence=5, out="somewhere",
                    dt_list=(0.025, 0.0125), init="zero", snapshots=True).validate()
    path = tmp_path / "echo"
    path.write_text(emit_config(cfg))
    again = parse_config(path)
    assert again == cfg


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


def test_run_aborts_with_step_index_on_nonfinite(tmp_path, monkeypatch):
    cfg = desk_cfg(tmp_path)

    def poisoned(t, grid):
        from adimax import zero_state
        s = zero_state(grid)
        s.ex[2, 2, 2] = np.nan
        return s

    monkeypatch.setattr(harness, "sample_exact", poisoned)
    with pytest.raises(RuntimeError, match="step 1"):
        run(cfg)


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
    assert first["rate1"] == ""
    recomputed = observed_rate((float(first["ERR1"]), float(second["ERR1"])),
                               (float(first["resolution"]), float(second["resolution"])))
    assert float(second["rate1"]) == pytest.approx(recomputed, rel=1e-12)


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
