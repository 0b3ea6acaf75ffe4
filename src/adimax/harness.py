"""Experiment drivers: simulation runs, energy audits, convergence studies and
stability stress runs, with CSV emission.

Every driver steps one trajectory, `_trajectory(cfg, grid, lends)`: from the
initial state that `cfg.init` names it yields `(n, prev, level)` for n = 0 ...
round(T/dt), where `level` is time level n and `prev` is level n-1 (None at
n = 0); level n+1 is written into the arrays of `prev`.  Each driver does only
its own work on those levels: report ticks for `run`, the audit and
`stability`, the last pair per resolution for the convergence studies.  A
driver names in `lends` the steps where the trajectory must hold no carried
right-hand side, since its own work there makes a whole-state temporary:
`run` alone lends, its ticks, where `metrics` forms a whole error state.  The
convergence studies grade their last pair after the trajectory has ended, when
its carried state is gone with it; the audit's ticks form the time difference
in prev's arrays and make no whole-state temporary, and `stability` reads no
`prev`.  A non-finite field ends the trajectory with a RuntimeError naming the
step that made it: the stepper raises where an operation makes a NaN or
infinity, and the initial level, where none is made, is checked once, as step
1.  A non-finite CSV cell (a functional that overflows on finite fields) is a
RuntimeError naming the file, the column and the row, and nothing of that CSV
is written.  A driver that raises still writes the MANIFEST of the files it
wrote (`_driver`).

Every driver takes a RunConfig, runs deterministically, and (when an output
directory is set) writes one CSV per experiment kind plus `config.echo` (the
resolved values of the keys its kind reads, reparseable) and `MANIFEST` (the
files written).  Every CSV goes through `_OutDir.write_csv` as rows that map
column labels to values, each value read beside its label from the records the
tick functionals return, and every cell through `format_value`: 17 significant
digits, so CSVs round-trip exactly.

The RunConfig fields are the one schema of the config keys: each carries the
parser of its text value, the kinds that read it and the help of its flag
(`_key`).  Config files and flags are parsed with the same per-key parser,
the CLI offers a key's flag only on the subcommands that read it, and a key
the kind does not read must hold its default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import wraps
from pathlib import Path

from .grid import GridSpec, Medium, enforce_pec, make_grid, write_snapshot, zero_state
from .manufactured import (energy_constants, metrics, observed_rate, sample_exact,
                           sample_semidiscrete)
from .norms import StateSums, divergence, energy_l2, energy_report, energy_suite
from .stepper import NonFiniteFieldError, carry, stage1, stage2

KINDS = ("run", "energy-audit", "converge-time", "converge-space", "stability")
INITS = ("exact", "zero")
_TICKED = ("run", "energy-audit", "stability")  # kinds with report ticks

DRIFT_TOL = 1e-10  # stability: largest L2-type energy drift
GROWTH_FACTOR = 10.0  # stability: largest field over the initial maximum


class ConfigError(ValueError):
    """Invalid configuration; message names the offending key (and line, if any)."""


def _bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes", "on"):
        return True
    if text.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(text)


def _list(parse):
    """Parser of comma-separated `parse` values; None when there are none."""
    return lambda text: tuple(parse(p) for p in text.split(",") if p.strip()) or None


def _key(default, parse, kinds=KINDS, help=None, **flag):
    """A config key: a RunConfig field whose metadata holds the parser of its
    text value, the kinds that read it and, with `help`, its `--key` flag."""
    return field(default=default, metadata=dict(parse=parse, kinds=kinds, help=help, flag=flag))


@dataclass
class RunConfig:
    nx: int = _key(20, int)
    ny: int = _key(20, int)
    nz: int = _key(20, int)
    dt: float = _key(0.05, float, tuple(k for k in KINDS if k != "converge-time"), "time step")
    T: float = _key(1.0, float, help="final time")
    eps: float = _key(1.0, float, help="permittivity")
    mu: float = _key(1.0, float, help="permeability")
    kind: str = _key("run", str)
    cadence: int = _key(1, int, _TICKED, "report every N steps")
    out: str | None = _key(None, str, help="output directory", metavar="DIR")
    snapshots: bool = _key(False, _bool, ("run",), "dump final field snapshots",
                           action="store_const", const="true")
    # an energy audit of the zero state would measure drift against zero energy
    init: str = _key("exact", str, ("run", "stability"),
                     f"initial fields: {' or '.join(INITS)}")
    dt_list: tuple[float, ...] | None = _key(None, _list(float), ("converge-time",),
                                             "time steps to compare", metavar="DT,DT,...")
    grid_list: tuple[int, ...] | None = _key(None, _list(int), ("converge-space",),
                                             "cube grids to compare", metavar="N,N,...")

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
        for f in fields(self):  # a key the kind does not read holds its default
            kinds, value = f.metadata["kinds"], getattr(self, f.name)
            if self.kind not in kinds and value != f.default:
                raise ConfigError(f"{f.name} does not apply to {self.kind}, got {value!r}; "
                                  f"it applies to {', '.join(kinds)}")
        if self.init not in INITS:
            raise ConfigError(f"init must be one of {INITS}, got {self.init!r}")
        for key in ("T", "dt", "eps", "mu"):
            if not (math.isfinite(getattr(self, key)) and getattr(self, key) > 0):
                raise ConfigError(f"{key} must be positive and finite, got {getattr(self, key)}")
        if self.cadence < 1:
            raise ConfigError(f"cadence must be >= 1, got {self.cadence}")
        if self.out is not None and not self.out.strip():  # "" would be the working directory
            raise ConfigError(f"out must name a directory, got {self.out!r}")
        if self.kind == "converge-time" and not self.dt_list:
            raise ConfigError("converge-time needs dt_list")
        key, dts = ("dt_list", self.dt_list) if self.kind == "converge-time" else ("dt", (self.dt,))
        for dt in dts:
            if not (math.isfinite(dt) and dt > 0):
                raise ConfigError(f"{key} entries must be positive and finite, got {dt}")
            n = round(self.T / dt)
            if n < 1 or abs(n * dt - self.T) > 1e-9 * self.T:
                raise ConfigError(f"dt={dt} does not divide T={self.T} (key `{key}`)")
        if self.kind == "converge-space":
            if not self.grid_list:
                raise ConfigError("converge-space needs grid_list")
            if min(self.grid_list) < 3:
                raise ConfigError(f"grid_list entries must be >= 3, got {self.grid_list}")
        return self


# the config keys by name; each field's metadata is its schema (see _key)
KEYS = {f.name: f for f in fields(RunConfig)}


def _parse_value(key: str, value, where: str):
    """`value` for `key`: text goes through the key's parser, anything else passes."""
    if key not in KEYS:
        raise ConfigError(f"unknown key `{key}` {where}")
    if not isinstance(value, str):
        return value
    try:
        return KEYS[key].metadata["parse"](value.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for key `{key}` {where}: {value.strip()!r}") from exc


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
            setattr(cfg, key.strip(), _parse_value(key.strip(), text, f"at line {lineno}"))
    for key, value in (overrides or {}).items():
        setattr(cfg, key, _parse_value(key, value, "(flag)"))
    return cfg.validate()


def format_value(x) -> str:
    """CSV cell: 17 significant digits, '.' decimal separator; empty for None."""
    if x is None:
        return ""
    return f"{float(x):.17g}"


def emit_config(cfg: RunConfig) -> str:
    """Render the keys the config's kind reads as reparseable `key = value` lines."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None or cfg.kind not in f.metadata["kinds"]:
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
    """Collects output files and writes the MANIFEST listing them.  A directory reused
    from an earlier run first loses the files its MANIFEST names, so that it ends up
    holding only this run's; only bare file names are removed, and nothing outside it."""

    def __init__(self, path: str | Path | None):
        self.path = Path(path) if path is not None else None
        self.names: list[str] = []
        if self.path is not None:
            try:
                self.path.mkdir(parents=True, exist_ok=True)
                old = self.path / "MANIFEST"
                stale = old.read_text(errors="replace").splitlines() if old.is_file() else []
                for name in stale:  # bare file names only ("..", "a/b" are not): none outside
                    if Path(name).name == name and (self.path / name).is_file():
                        (self.path / name).unlink()
            except OSError as exc:  # a file there or on the way, or no permission
                raise ConfigError(f"out {str(self.path)!r} is not a usable directory: "
                                  f"{exc.strerror}") from exc

    def write_text(self, name: str, text: str) -> None:
        if self.path is None:
            return
        (self.path / name).write_text(text)
        self.names.append(name)

    def write_csv(self, name: str, rows: list[dict]) -> None:
        """A CSV of `rows`, each a dict from column label to value: a header of the
        first row's labels, then one line of values per row.  A NaN or infinite value
        is a RuntimeError, raised before anything is written."""
        for row in rows:
            for label, value in row.items():
                if value is not None and not math.isfinite(value):
                    first, at = next(iter(row.items()))
                    raise RuntimeError(f"{name}: non-finite {label} ({value}) in the row "
                                       f"{first} = {format_value(at)}")
        lines = (",".join(map(format_value, row.values())) for row in rows)
        self.write_text(name, "\n".join([",".join(rows[0]), *lines]) + "\n")

    def add(self, names) -> None:
        self.names.extend(names)

    def finish(self) -> list[str]:
        if self.path is not None:
            (self.path / "MANIFEST").write_text("\n".join([*self.names, "MANIFEST"]) + "\n")
        return self.names


def _driver(body):
    """The driver `body(cfg, out, grid, med)` as a function of its config: `cfg` is
    validated, config.echo written and the output directory, grid and medium built first.
    If the body raises, the MANIFEST of what was written goes out before the error does,
    so an aborted run's directory too holds exactly the files its MANIFEST lists."""
    @wraps(body)
    def driver(cfg: RunConfig):
        cfg.validate()
        out = _OutDir(cfg.out)
        out.write_text("config.echo", emit_config(cfg))
        try:
            return body(cfg, out, cfg.to_grid(), cfg.to_medium())
        except BaseException:
            out.finish()
            raise
    return driver


def _trajectory(cfg: RunConfig, grid: GridSpec, lends=()):
    """Yield (n, level n-1, level n) for n = 0 ... round(T / grid.dt), starting
    from the initial state of `cfg.init`; at n = 0 the previous level is None.

    Each new level is written into the arrays of the level yielded as previous
    one step earlier, which the caller is done with: a yielded level stays valid
    until the caller asks for the level after next, and the caller may overwrite
    the previous level (`energy_report` forms the time difference there) so
    long as its tangential-E walls stay zeros.  The steps carry stage one's
    right-hand side (`carry`) from one to the next, a third whole state.  It is
    dropped before each yield of a step in `lends`, the steps where the caller
    makes a whole-state temporary, so that no fourth state is alive while it
    does, and rebuilt from the level after; a rebuilt one rounds apart from a
    carried one, so the levels depend on `lends` at rounding level.  It is freed
    with the generator once the last level is yielded, so work done after the
    loop needs no lend."""
    med = cfg.to_medium()
    if cfg.init == "zero":
        level = zero_state(grid)
    else:
        level = enforce_pec(sample_exact(0.0, grid))  # at t = 0 the mode is the same in any medium
    prev = rhs = None
    yield 0, prev, level
    for n in range(1, round(cfg.T / grid.dt) + 1):
        try:
            # the stepper raises where it makes a NaN or infinity, not where one passes
            # through, so the initial level is checked once, here
            if n == 1 and not level.all_finite():
                raise NonFiniteFieldError("non-finite values in the initial level")
            rhs = carry(level, grid, med) if rhs is None else rhs
            # after carry: allocating `out` first raised a 64^3 run's minor faults ninefold
            out = zero_state(grid) if prev is None else prev
            stage1(rhs, grid, med, out=out, carried=True)
            prev, level = level, stage2(rhs, grid, med, out=out, carried=True)
        except NonFiniteFieldError as exc:
            raise RuntimeError(f"non-finite field detected at step {n}: {exc}") from exc
        if n in lends:
            rhs = None
        yield n, prev, level


def _ticks(n_steps: int, cadence: int):
    ticks = set(range(0, n_steps + 1, cadence))
    ticks.add(n_steps)
    return ticks


@dataclass
class Result:
    """What a driver did: its config, the rows of its CSV (each a dict from column
    label to value) and the files it wrote."""
    config: RunConfig
    rows: list[dict]
    files: list[str] = field(default_factory=list)


def _ratio(value_sq, const):
    """sqrt(value_sq / const): a squared norm against its mode constant; None stays None."""
    return None if value_sq is None else math.sqrt(value_sq / const)


@_driver
def run(cfg: RunConfig, out: _OutDir, grid: GridSpec, med: Medium) -> Result:
    """Step from the sampled (or zero) initial state to T, reporting per cadence tick."""
    ticks = _ticks(cfg.steps, cfg.cadence)
    k = energy_constants(med)
    rows = []
    for n, prev, state in _trajectory(cfg, grid, lends=ticks):
        if n not in ticks:
            continue
        e, de = metrics(state, prev, grid, med)  # de: the sums of the error's time difference
        # d: the sums of (state - prev)/dt, formed in prev's arrays, so after metrics
        s, d = energy_report(state, prev, med, grid)
        div = divergence(state, med, grid)
        h1t = {a: None if d is None else d.h1[a][1] for a in "xyz"}
        l2t = None if d is None else d.l2
        rows.append({
            "time_level": state.time_level, "Q_h1x": s.h1["x"][1], "Q_h1y": s.h1["y"][1],
            "Q_h1z": s.h1["z"][1], "Q_l2": s.l2, "E_sq": s.e_sq, "H_sq": s.h_sq,
            "CurlPosE_sq": s.curl_pos_e, "CurlNegH_sq": s.curl_neg_h, "Q_h1tx": h1t["x"],
            "Q_h1ty": h1t["y"], "Q_h1tz": h1t["z"], "Q_l2t": l2t, "DivE_Linf": div.div_e_linf,
            "DivE_L2": div.div_e_l2, "DivH_Linf": div.div_h_linf, "DivH_L2": div.div_h_l2,
            "ERR0_n": _ratio(e.l2_core, k["total"]), "ERR1_n": _ratio(e.h1["x"][1], k["grad"]),
            "ERR2_n": _ratio(e.l2, k["total"]), "ErrE": math.sqrt(e.e_sq),
            "ErrH": math.sqrt(e.h_sq), "EH1_n": _ratio(s.h1["x"][1], k["grad"]),
            "EH2_n": _ratio(s.l2, k["total"]),
            "ERRt1_n": _ratio(None if de is None else de.h1["x"][1], k["grad_time"]),
            "ERRt2_n": _ratio(None if de is None else de.l2, k["time"]),
            "EHt1_n": _ratio(h1t["x"], k["grad_time"]), "EHt2_n": _ratio(l2t, k["time"])})
    out.write_csv("run.csv", rows)
    if cfg.snapshots and out.path is not None:
        out.add(write_snapshot(state, grid, out.path))
    return Result(cfg, rows, out.finish())


def _drift(value_sq, ref_sq):
    if value_sq is None or ref_sq is None:
        return None
    return (math.sqrt(value_sq) - math.sqrt(ref_sq)) / math.sqrt(ref_sq)


def _core_full(sums: StateSums | None, form: str) -> tuple:
    """(core, full) of the H1-type energy along x ("h1") or of the L2-type one; Nones
    without sums."""
    if sums is None:
        return None, None
    return sums.h1["x"] if form == "h1" else (sums.l2_core, sums.l2)


@_driver
def energy_audit(cfg: RunConfig, out: _OutDir, grid: GridSpec, med: Medium) -> Result:
    """Track the experiment energy norms: drifts against level 0 (the time-difference
    norms: against the (0, 1) pair) and ratios against the analytic mode constants,
    full and core (starred) forms."""
    ticks = _ticks(cfg.steps, cfg.cadence)
    k = energy_constants(med)
    rows = []
    for n, prev, state in _trajectory(cfg, grid):
        if n > 1 and n not in ticks:
            continue
        s, d = energy_suite(state, prev, med, grid)  # d: the sums of (state - prev)/dt
        if n <= 1:  # the drift references, on a tick or not: level 0, then the (0, 1) pair
            level0, pair01 = (s, None) if n == 0 else (level0, d)
        if n not in ticks:
            continue
        # per norm: (label, its (core, full), the reference's (core, full), mode constant)
        audited = [(label, _core_full(now, form), _core_full(ref, form), k[const])
                   for label, now, ref, form, const in (
                       ("EH1", s, level0, "h1", "grad"), ("EHt1", d, pair01, "h1", "grad_time"),
                       ("EH2", s, level0, "l2", "total"), ("EHt2", d, pair01, "l2", "time"))]
        row = {"time_level": state.time_level}
        for label, (_, full), (_, ref), const in audited:
            row |= {f"{label}_n0": _drift(full, ref), f"{label}_n": _ratio(full, const),
                    f"{label}_nsq": None if full is None else full / const}
        for label, (core, _), (ref, _), const in audited:  # the core norms: starred, "s"
            row |= {f"{label}s_n0": _drift(core, ref), f"{label}s_n": _ratio(core, const)}
        rows.append(row)
    out.write_csv("energy_audit.csv", rows)
    return Result(cfg, rows, out.finish())


def _converge(cfg: RunConfig, out: _OutDir, med: Medium, name: str, points,
              semi: bool = False) -> Result:
    """Errors at T for each (resolution, grid) of `points(cfg)`, each followed by its rate
    against the previous row.  With `semi` the rows also carry the errors at T against
    sample_semidiscrete."""
    k = energy_constants(med)
    rows: list[dict] = []
    for res, grid in points(cfg):
        for _, prev, state in _trajectory(cfg, grid):
            pass  # only the last pair of levels is graded, once the carried state is freed
        e, de = metrics(state, prev, grid, med)  # T >= dt, so prev is a level
        errors = {"ERR1": _ratio(e.h1["x"][1], k["grad"]), "ERR2": _ratio(e.l2, k["total"]),
                  "ERRt1": _ratio(de.h1["x"][1], k["grad_time"]), "ERRt2": _ratio(de.l2, k["time"]),
                  "ErrE": math.sqrt(e.e_sq), "ErrH": math.sqrt(e.h_sq)}
        if semi:
            e, _ = metrics(state, None, grid, med, reference=sample_semidiscrete)
            errors |= {"ERR1_semi": _ratio(e.h1["x"][1], k["grad"]),
                       "ERR2_semi": _ratio(e.l2, k["total"])}
        row = {"resolution": res}
        for label, value in errors.items():
            rate = None
            if rows:
                last = rows[-1]
                rate = 0.0 if res == last["resolution"] else observed_rate(
                    (last[label], value), (last["resolution"], res))
            row |= {label: value, "rate" + label[3:]: rate}  # ERR1 -> rate1, ErrE -> rateE
        rows.append(row)
    out.write_csv(name, rows)
    return Result(cfg, rows, out.finish())


@_driver
def converge_time(cfg: RunConfig, out: _OutDir, grid: GridSpec, med: Medium) -> Result:
    """Error at T for each dt in dt_list on the fixed grid, with observed rates,
    against the continuous mode and against the grid's time-exact solution."""
    return _converge(cfg, out, med, "converge_time.csv",
                     lambda c: [(dt, c.to_grid(dt=dt)) for dt in c.dt_list], semi=True)


@_driver
def converge_space(cfg: RunConfig, out: _OutDir, grid: GridSpec, med: Medium) -> Result:
    """Error at T for each cube grid in grid_list at the fixed small dt."""
    return _converge(cfg, out, med, "converge_space.csv",
                     lambda c: [(1.0 / n, c.to_grid(n=n)) for n in c.grid_list])


@dataclass(kw_only=True)
class StabilityResult(Result):
    """A Result with the verdict of `stability` and the maxima it was judged on."""
    passed: bool
    max_drift: float
    max_field: float
    initial_max: float


@_driver
def stability(cfg: RunConfig, out: _OutDir, grid: GridSpec, med: Medium) -> StabilityResult:
    """Long run at an arbitrary Courant number; passes when the L2-type energy
    drift stays within DRIFT_TOL and no field grows past GROWTH_FACTOR times
    the initial maximum."""
    ticks = _ticks(cfg.steps, cfg.cadence)
    max_drift = max_field = 0.0
    rows = []
    for n, _, state in _trajectory(cfg, grid):
        q, m = energy_l2(state, med, grid), state.max_abs()
        if n == 0:
            q0, m0 = q, m
        drift = abs(q - q0) / max(q0, 1e-300)
        max_drift = max(max_drift, drift)
        max_field = max(max_field, m)
        if n in ticks:
            rows.append({"time_level": n, "Q_l2": q, "drift": drift, "max_field": m})
    passed = bool(max_drift <= DRIFT_TOL and max_field <= GROWTH_FACTOR * max(m0, 1e-300))
    out.write_csv("stability.csv", rows)
    return StabilityResult(cfg, rows, out.finish(), passed=passed, max_drift=max_drift,
                           max_field=max_field, initial_max=m0)


DRIVERS = {
    "run": run,
    "energy-audit": energy_audit,
    "converge-time": converge_time,
    "converge-space": converge_space,
    "stability": stability,
}
