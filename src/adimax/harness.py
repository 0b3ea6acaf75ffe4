"""Experiment drivers: simulation runs, energy audits, convergence studies,
divergence audits, and stability stress runs, with CSV emission.

Every driver steps one trajectory, `_trajectory(cfg, grid)`: from the initial
state that `cfg.init` names it yields `(n, prev, level)` for n = 0 ... round(T/dt),
where `level` is time level n and `prev` is level n-1 (None at n = 0).  Each
driver does only its own work on those levels: report ticks for `run`, the
audits and `stability`, the last pair per resolution for the convergence
studies.  A non-finite field ends the trajectory with a RuntimeError naming
the step that made it.

Every driver takes a RunConfig, runs deterministically, and (when an output
directory is set) writes one CSV per experiment kind plus `config.echo` (the
fully resolved configuration, reparseable) and `MANIFEST` (the files written).
Floats are emitted with 17 significant digits so CSVs round-trip exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .grid import GridSpec, Medium, enforce_pec, make_grid, write_snapshot, zero_state
from .manufactured import (ErrorMetrics, energy_constants, metrics, observed_rate, sample_exact,
                           sample_semidiscrete)
from .norms import (DivergenceReport, EnergyReport, divergence, energy_l2, energy_report,
                    energy_suite, format_value)
from .stepper import NonFiniteFieldError, stage1, stage2

KINDS = ("run", "energy-audit", "converge-time", "converge-space", "divergence-audit",
         "stability")
INITS = ("exact", "zero")


class ConfigError(ValueError):
    """Invalid configuration; message names the offending key (and line, if any)."""


@dataclass
class RunConfig:
    nx: int = 20
    ny: int = 20
    nz: int = 20
    dt: float = 0.05
    T: float = 1.0
    eps: float = 1.0
    mu: float = 1.0
    kind: str = "run"
    cadence: int = 1
    out: str | None = None
    snapshots: bool = False
    init: str = "exact"
    dt_list: tuple[float, ...] | None = None
    grid_list: tuple[int, ...] | None = None

    @property
    def steps(self) -> int:
        return round(self.T / self.dt)

    def to_grid(self, n: int | None = None, dt: float | None = None) -> GridSpec:
        if n is not None:
            return make_grid(n, n, n, self.dt if dt is None else dt)
        return make_grid(self.nx, self.ny, self.nz, self.dt if dt is None else dt)

    def to_medium(self) -> Medium:
        return Medium(self.eps, self.mu)

    def validate(self) -> "RunConfig":
        for key in ("nx", "ny", "nz"):
            if getattr(self, key) < 3:
                raise ConfigError(f"{key} must be >= 3, got {getattr(self, key)}")
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.init not in INITS:
            raise ConfigError(f"init must be one of {INITS}, got {self.init!r}")
        for key in ("T", "dt", "eps", "mu"):
            if not (math.isfinite(getattr(self, key)) and getattr(self, key) > 0):
                raise ConfigError(f"{key} must be positive and finite, got {getattr(self, key)}")
        if self.cadence < 1:
            raise ConfigError(f"cadence must be >= 1, got {self.cadence}")
        if self.init == "zero" and self.kind in ("converge-time", "converge-space"):
            raise ConfigError(f"init = zero does not apply to {self.kind}, "
                              "whose errors are graded against the sampled mode")
        if self.snapshots and self.kind != "run":
            raise ConfigError(f"snapshots = true applies only to run, not to {self.kind}")
        key = "dt_list" if (self.kind == "converge-time" and self.dt_list) else "dt"
        for dt in self.dt_list if key == "dt_list" else (self.dt,):
            if not (math.isfinite(dt) and dt > 0):
                raise ConfigError(f"{key} entries must be positive and finite, got {dt}")
            n = round(self.T / dt)
            if n < 1 or abs(n * dt - self.T) > 1e-9 * self.T:
                raise ConfigError(f"dt={dt} does not divide T={self.T} (key `{key}`)")
        if self.kind == "converge-time" and not self.dt_list:
            raise ConfigError("converge-time needs dt_list")
        if self.kind == "converge-space":
            if not self.grid_list:
                raise ConfigError("converge-space needs grid_list")
            if min(self.grid_list) < 3:
                raise ConfigError(f"grid_list entries must be >= 3, got {self.grid_list}")
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, text: str, where: str):
    text = text.strip()
    try:
        if key in ("nx", "ny", "nz", "cadence"):
            return int(text)
        if key in ("dt", "T", "eps", "mu"):
            return float(text)
        if key in ("snapshots",):
            if text.lower() in ("true", "1", "yes", "on"):
                return True
            if text.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(text)
        if key == "dt_list":
            return tuple(float(p) for p in text.split(",") if p.strip()) or None
        if key == "grid_list":
            return tuple(int(p) for p in text.split(",") if p.strip()) or None
        if key in ("kind", "init", "out"):
            return text
    except ValueError as exc:
        raise ConfigError(f"bad value for key `{key}` {where}: {text!r}") from exc
    raise ConfigError(f"unknown key `{key}` {where}")


def parse_config(path=None, overrides: dict | None = None,
                 defaults: dict | None = None) -> RunConfig:
    """Resolve a config from defaults, then a `key = value` file, then flag overrides."""
    cfg = RunConfig(**(defaults or {}))
    if path is not None:
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"expected `key = value` at line {lineno}: {raw!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown key `{key}` at line {lineno}")
            setattr(cfg, key, _parse_value(key, text, f"at line {lineno}"))
    for key, value in (overrides or {}).items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown key `{key}` (flag)")
        if isinstance(value, str):
            value = _parse_value(key, value, "(flag)")
        setattr(cfg, key, value)
    return cfg.validate()


def emit_config(cfg: RunConfig) -> str:
    """Render a config as reparseable `key = value` lines."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = ",".join(format_value(v) if isinstance(v, float) else str(v) for v in value)
        elif isinstance(value, float):
            value = format_value(value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


class _OutDir:
    """Collects output files and writes the MANIFEST listing them."""

    def __init__(self, path: str | Path | None):
        self.path = Path(path) if path is not None else None
        self.names: list[str] = []
        if self.path is not None:
            self.path.mkdir(parents=True, exist_ok=True)

    def write_text(self, name: str, text: str) -> None:
        if self.path is None:
            return
        (self.path / name).write_text(text)
        self.names.append(name)

    def write_rows(self, name: str, header: str, rows) -> None:
        self.write_text(name, "\n".join([header, *rows]) + "\n")

    def add(self, names) -> None:
        self.names.extend(names)

    def finish(self) -> list[str]:
        if self.path is not None:
            (self.path / "MANIFEST").write_text("\n".join([*self.names, "MANIFEST"]) + "\n")
        return self.names


def _start(cfg: RunConfig):
    """Validate `cfg`, write config.echo, and build the output directory, grid and medium."""
    cfg.validate()
    out = _OutDir(cfg.out)
    out.write_text("config.echo", emit_config(cfg))
    return out, cfg.to_grid(), cfg.to_medium()


def _trajectory(cfg: RunConfig, grid: GridSpec):
    """Yield (n, level n-1, level n) for n = 0 ... round(T / grid.dt), starting
    from the initial state of `cfg.init`; at n = 0 the previous level is None.
    Step n+1 runs while the caller still holds what it kept of yield n."""
    med = cfg.to_medium()
    if cfg.init == "zero":
        level = zero_state(grid)
    else:
        level = enforce_pec(sample_exact(0.0, grid))  # at t = 0 the mode is the same in any medium
    yield 0, None, level
    for n in range(1, round(cfg.T / grid.dt) + 1):
        prev = level
        try:
            level = stage2(stage1(prev, grid, med), grid, med)
        except NonFiniteFieldError as exc:
            raise RuntimeError(f"non-finite field detected at step {n}") from exc
        yield n, prev, level


def _ticks(n_steps: int, cadence: int):
    ticks = set(range(0, n_steps + 1, cadence))
    ticks.add(n_steps)
    return ticks


@dataclass
class RunResult:
    config: RunConfig
    courant: float
    energy: list[EnergyReport]
    diverg: list[DivergenceReport]
    errors: list[ErrorMetrics]
    files: list[str] = field(default_factory=list)


_RUN_HEADER = (EnergyReport.CSV_HEADER
               + "," + DivergenceReport.CSV_HEADER.split(",", 1)[1]
               + "," + ErrorMetrics.CSV_HEADER.split(",", 1)[1])


def run(cfg: RunConfig) -> RunResult:
    """Step from the sampled (or zero) initial state to T, reporting per cadence tick."""
    out, grid, med = _start(cfg)
    ticks = _ticks(cfg.steps, cfg.cadence)
    energy, diverg, errors, rows = [], [], [], []
    for n, prev, state in _trajectory(cfg, grid):
        if n not in ticks:
            continue
        erpt = energy_report(state, prev, med, grid)
        drpt = divergence(state, med, grid)[0]  # its lattices would live through the next step
        empt = metrics(state, prev, grid, med, report=erpt)
        energy.append(erpt)
        diverg.append(drpt)
        errors.append(empt)
        rows.append(erpt.csv_row()
                    + "," + drpt.csv_row().split(",", 1)[1]
                    + "," + empt.csv_row().split(",", 1)[1])
    out.write_rows("run.csv", _RUN_HEADER, rows)
    if cfg.snapshots and out.path is not None:
        out.add(write_snapshot(state, grid, out.path))
    files = out.finish()
    return RunResult(cfg, grid.courant(med.eps, med.mu), energy, diverg, errors, files)


# functional stem -> column label; the core (starred) columns add "s" to the label
_AUDIT_STEMS = {"norm1": "EH1", "norm1t": "EHt1", "norm2": "EH2", "norm2t": "EHt2"}
# (column, value key) after time_level: full-norm drift, ratio and squared ratio
# per stem, then core-norm drift and ratio per stem
_AUDIT_COLUMNS = (
    [(f"{label}{suffix}", f"{stem}_{kind}") for stem, label in _AUDIT_STEMS.items()
     for suffix, kind in (("_n0", "drift"), ("_n", "ratio"), ("_nsq", "ratio_sq"))]
    + [(f"{label}s{suffix}", f"{stem}_core_{kind}") for stem, label in _AUDIT_STEMS.items()
       for suffix, kind in (("_n0", "drift"), ("_n", "ratio"))])
_AUDIT_HEADER = ",".join(["time_level", *(column for column, _ in _AUDIT_COLUMNS)])


def _drift(value_sq, ref_sq):
    if value_sq is None or ref_sq is None:
        return None
    return (math.sqrt(value_sq) - math.sqrt(ref_sq)) / math.sqrt(ref_sq)


@dataclass
class AuditRow:
    time_level: float
    values: dict


@dataclass
class AuditResult:
    config: RunConfig
    rows: list[AuditRow]
    files: list[str] = field(default_factory=list)


def energy_audit(cfg: RunConfig) -> AuditResult:
    """Track the experiment energy norms: drifts against the initial level and
    ratios against the analytic mode constants, full and core (starred) forms."""
    out, grid, med = _start(cfg)
    ref = ref_t = None
    ticks = _ticks(cfg.steps, cfg.cadence)
    rows, lines = [], []

    k = energy_constants(med)
    consts = {"norm1": k["grad"], "norm2": k["total"], "norm1t": k["grad_time"],
              "norm2t": k["time"]}

    for n, prev, state in _trajectory(cfg, grid):
        if n not in ticks:
            if ref_t is None:
                # the drift reference for the time-difference norms is the (0, 1) pair
                ref_t = energy_suite(state, prev, med, grid)
            continue
        suite = energy_suite(state, prev, med, grid)
        ref = ref or suite  # the initial level is the drift reference
        if ref_t is None and suite["norm1t_sq"] is not None:
            ref_t = suite
        vals = {}
        for stem in _AUDIT_STEMS:
            full = suite[f"{stem}_sq"]
            core = suite[f"{stem}_core_sq"]
            refs = (ref if stem in ("norm1", "norm2") else ref_t) or {}
            vals[f"{stem}_drift"] = _drift(full, refs.get(f"{stem}_sq"))
            vals[f"{stem}_ratio"] = None if full is None else math.sqrt(full / consts[stem])
            vals[f"{stem}_ratio_sq"] = None if full is None else full / consts[stem]
            vals[f"{stem}_core_drift"] = _drift(core, refs.get(f"{stem}_core_sq"))
            vals[f"{stem}_core_ratio"] = None if core is None else math.sqrt(core / consts[stem])
        rows.append(AuditRow(state.time_level, vals))
        lines.append(",".join(format_value(v) for v in
                              [state.time_level, *(vals[key] for _, key in _AUDIT_COLUMNS)]))
    out.write_rows("energy_audit.csv", _AUDIT_HEADER, lines)
    return AuditResult(cfg, rows, out.finish())


@dataclass
class ConvergenceRow:
    resolution: float
    eh1: float
    eh2: float
    eht1: float
    eht2: float
    err_e: float
    err_h: float
    rates: dict
    eh1_semi: float | None = None
    eh2_semi: float | None = None


@dataclass
class ConvergenceResult:
    config: RunConfig
    rows: list[ConvergenceRow]
    files: list[str] = field(default_factory=list)


# (ConvergenceRow field, error column, rate column); the fields are named as in ErrorMetrics
_CONV_COLUMNS = (("eh1", "ERR1", "rate1"), ("eh2", "ERR2", "rate2"), ("eht1", "ERRt1", "ratet1"),
                 ("eht2", "ERRt2", "ratet2"), ("err_e", "ErrE", "rateE"), ("err_h", "ErrH", "rateH"))
# graded against the same grid's time-exact solution (sample_semidiscrete)
_SEMI_COLUMNS = (("eh1_semi", "ERR1_semi", "rate1_semi"), ("eh2_semi", "ERR2_semi", "rate2_semi"))


def _converge(cfg: RunConfig, name: str, points, semi: bool = False) -> ConvergenceResult:
    """Error at T for each (resolution, grid) of `points(cfg)`, with rates against the
    previous row.  With `semi` the rows also carry the errors against sample_semidiscrete."""
    out, _, med = _start(cfg)
    rows: list[ConvergenceRow] = []
    for res, grid in points(cfg):
        for _, prev, state in _trajectory(cfg, grid):
            pass  # only the last pair of levels is graded
        m = metrics(state, prev, grid, med)
        values = {key: getattr(m, key) for key, _, _ in _CONV_COLUMNS}
        if semi:
            m = metrics(state, prev, grid, med, reference=sample_semidiscrete)
            values.update(eh1_semi=m.eh1, eh2_semi=m.eh2)
        rates = {}
        if rows:
            last = rows[-1]
            for key, value in values.items():
                if res == last.resolution:
                    rates[key] = 0.0
                else:
                    rates[key] = observed_rate((getattr(last, key), value), (last.resolution, res))
        rows.append(ConvergenceRow(resolution=res, rates=rates, **values))
    columns = _CONV_COLUMNS + _SEMI_COLUMNS if semi else _CONV_COLUMNS
    header = ",".join(["resolution", *(col for _, err, rate in columns for col in (err, rate))])
    lines = []
    for row in rows:
        cells = [format_value(row.resolution)]
        for key, _, _ in columns:
            cells.append(format_value(getattr(row, key)))
            cells.append(format_value(row.rates.get(key)))
        lines.append(",".join(cells))
    out.write_rows(name, header, lines)
    return ConvergenceResult(cfg, rows, out.finish())


def converge_time(cfg: RunConfig) -> ConvergenceResult:
    """Error at T for each dt in dt_list on the fixed grid, with observed rates,
    against the continuous mode and against the grid's time-exact solution."""
    return _converge(cfg, "converge_time.csv",
                     lambda c: [(dt, c.to_grid(dt=dt)) for dt in c.dt_list], semi=True)


def converge_space(cfg: RunConfig) -> ConvergenceResult:
    """Error at T for each cube grid in grid_list at the fixed small dt."""
    return _converge(cfg, "converge_space.csv",
                     lambda c: [(1.0 / n, c.to_grid(n=n)) for n in c.grid_list])


@dataclass
class DivergenceResult:
    config: RunConfig
    reports: list[DivergenceReport]
    files: list[str] = field(default_factory=list)


def divergence_audit(cfg: RunConfig) -> DivergenceResult:
    out, grid, med = _start(cfg)
    ticks = _ticks(cfg.steps, cfg.cadence)
    reports = []
    for n, prev, state in _trajectory(cfg, grid):
        del prev  # unused; without it only one level lives through the next step
        if n in ticks:
            reports.append(divergence(state, med, grid)[0])
    out.write_rows("divergence_audit.csv", DivergenceReport.CSV_HEADER,
                   [r.csv_row() for r in reports])
    return DivergenceResult(cfg, reports, out.finish())


@dataclass
class StabilityResult:
    config: RunConfig
    courant: float
    passed: bool
    max_drift: float
    max_field: float
    initial_max: float
    files: list[str] = field(default_factory=list)


def stability(cfg: RunConfig, drift_tol: float = 1e-10, growth_factor: float = 10.0) -> StabilityResult:
    """Long run at an arbitrary Courant number; passes when the L2-type energy
    drift stays within `drift_tol` and no field grows past `growth_factor`
    times the initial maximum."""
    out, grid, med = _start(cfg)
    ticks = _ticks(cfg.steps, cfg.cadence)
    max_drift = max_field = 0.0
    lines = []
    for n, prev, state in _trajectory(cfg, grid):
        del prev  # unused; without it only one level lives through the next step
        q, m = energy_l2(state, med, grid), state.max_abs()
        if n == 0:
            q0, m0 = q, m
        drift = abs(q - q0) / max(q0, 1e-300)
        max_drift = max(max_drift, drift)
        max_field = max(max_field, m)
        if n in ticks:
            lines.append(f"{n},{format_value(q)},{format_value(drift)},{format_value(m)}")
    passed = bool(max_drift <= drift_tol and max_field <= growth_factor * max(m0, 1e-300))
    out.write_rows("stability.csv", "time_level,Q_l2,drift,max_field", lines)
    return StabilityResult(cfg, grid.courant(med.eps, med.mu), passed, max_drift, max_field,
                           m0, out.finish())


DRIVERS = {
    "run": run,
    "energy-audit": energy_audit,
    "converge-time": converge_time,
    "converge-space": converge_space,
    "divergence-audit": divergence_audit,
    "stability": stability,
}
