"""Outside-in tracing for the benchmark: wrap module attributes the drivers
call, keep spans in memory, and reduce them to per-layer metrics.

A span is (name, start, end, parent, size): perf_counter seconds, the index
of the enclosing span (-1 for a driver call), and a byte count where one
applies (state bytes for a stage, bytes written for a snapshot).  Wrappers
are installed only for traced iterations and restored afterwards, so
untraced iterations run the program exactly as shipped.

Which end-to-end metric each per-layer metric should move, and on which
workload, is in MOVES below.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from pathlib import Path

MIB = 2.0 ** 20

# (owner, attribute, span name); owner is a module path, or "module:Class"
TARGETS = (
    ("adimax.harness", "stage1", "harness.stage1"),
    ("adimax.harness", "stage2", "harness.stage2"),
    ("adimax.stepper", "_solve_lines", "stepper._solve_lines"),
    ("adimax.grid:FieldState", "all_finite", "FieldState.all_finite"),
    ("adimax.harness", "energy_report", "harness.energy_report"),
    ("adimax.harness", "divergence", "harness.divergence"),
    ("adimax.harness", "metrics", "harness.metrics"),
    ("adimax.harness", "energy_suite", "harness.energy_suite"),
    ("adimax.harness", "energy_l2", "harness.energy_l2"),
    ("adimax.harness", "sample_exact", "harness.sample_exact"),
    ("adimax.harness", "enforce_pec", "harness.enforce_pec"),
    ("adimax.harness", "write_snapshot", "harness.write_snapshot"),
    ("adimax.norms", "energy_h1", "norms.energy_h1"),
    ("adimax.norms", "energy_l2", "norms.energy_l2"),
    ("adimax.manufactured", "energy_h1", "manufactured.energy_h1"),
    ("adimax.manufactured", "energy_l2", "manufactured.energy_l2"),
    ("adimax.manufactured", "sample_exact", "manufactured.sample_exact"),
    ("adimax.norms", "rotate_state", "norms.rotate_state"),
)

STAGES = ("harness.stage1", "harness.stage2")
# report-tick diagnostics the drivers call between steps
DIAGNOSTICS = ("harness.energy_report", "harness.divergence", "harness.metrics",
               "harness.energy_suite", "harness.energy_l2")
FUNCTIONALS = ("norms.energy_h1", "norms.energy_l2", "manufactured.energy_h1",
               "manufactured.energy_l2", "harness.energy_l2")
SOLVE = "stepper._solve_lines"
GUARD = "FieldState.all_finite"

# per-layer metric -> (end-to-end metric, workloads) a change to it should move
MOVES = {
    "stepper.step_ms.p50": ("wall_s", ("paper-step", "desk-small")),
    "stepper.step_ms.p90": ("wall_s", ("paper-step", "desk-small")),
    "stepper.thomas_axis0_ms": ("wall_s", ("paper-step",)),
    "stepper.thomas_axis1_ms": ("wall_s", ("paper-step",)),
    "stepper.thomas_axis2_ms": ("wall_s", ("paper-step",)),
    "stepper.guard_ms": ("wall_s", ("paper-step",)),
    "stepper.self_ms": ("wall_s", ("paper-step", "desk-small")),
    "stepper.thomas_calls_per_step": ("wall_s", ("paper-step",)),
    "stepper.alloc_peak_mb": ("peak_rss_mb", ("paper-step",)),
    "stepper.achieved_gbps": ("wall_s", ("paper-step",)),
    "harness.tick_ms.p50": ("wall_s", ("tick-dense",)),
    "harness.tick_ms.p90": ("wall_s", ("tick-dense",)),
    "harness.tick_to_step_ratio": ("wall_s", ("tick-dense",)),
    "norms.energy_report_ms": ("wall_s", ("tick-dense",)),
    "manufactured.metrics_ms": ("wall_s", ("tick-dense",)),
    "norms.divergence_ms": ("wall_s", ("tick-dense",)),
    "norms.energy_suite_ms": ("wall_s", ("tick-dense",)),
    "norms.functional_evals_per_tick": ("wall_s", ("tick-dense",)),
    "grid.rotate_copies_per_tick": ("wall_s", ("tick-dense",)),
    "manufactured.sample_exact_per_tick": ("wall_s", ("tick-dense",)),
    "norms.energy_l2_ms": ("wall_s", ("desk-small",)),
    "grid.init_ms": ("wall_s", ("paper-step",)),
    "grid.snapshot_ms": ("wall_s", ("paper-step",)),
    "grid.snapshot_mb": ("wall_s", ("paper-step",)),
    "harness.other_ms": ("wall_s", ("paper-step", "tick-dense", "desk-small")),
    "trace.overhead_pct": (None, ()),  # a property of the benchmark, not the program
}

# a metric is reported absent when a span it is built from could not be wrapped
DEPENDS = {
    "stepper.step_ms.p50": STAGES,
    "stepper.step_ms.p90": STAGES,
    "stepper.thomas_axis0_ms": STAGES + (SOLVE,),
    "stepper.thomas_axis1_ms": STAGES + (SOLVE,),
    "stepper.thomas_axis2_ms": STAGES + (SOLVE,),
    "stepper.guard_ms": STAGES + (GUARD,),
    "stepper.self_ms": STAGES + (SOLVE, GUARD),
    "stepper.thomas_calls_per_step": STAGES + (SOLVE,),
    "stepper.alloc_peak_mb": STAGES,
    "stepper.achieved_gbps": STAGES,
    "harness.tick_to_step_ratio": STAGES,
    "norms.energy_report_ms": ("harness.energy_report",),
    "manufactured.metrics_ms": ("harness.metrics",),
    "norms.divergence_ms": ("harness.divergence",),
    "norms.energy_suite_ms": ("harness.energy_suite",),
    "norms.energy_l2_ms": ("harness.energy_l2",),
    "norms.functional_evals_per_tick": FUNCTIONALS,
    "grid.rotate_copies_per_tick": ("norms.rotate_state",),
    "manufactured.sample_exact_per_tick": ("manufactured.sample_exact",),
    "grid.init_ms": ("harness.sample_exact", "harness.enforce_pec"),
    "grid.snapshot_ms": ("harness.write_snapshot",),
    "grid.snapshot_mb": ("harness.write_snapshot",),
}


def _owner(path: str):
    module, _, cls = path.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def _state_bytes(state) -> int:
    return sum(a.nbytes for _, a in state.components())


class Tracer:
    """Collects spans from the wrapped attributes while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def open(self, name: str, size: int = 0) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, size])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        open_, close = self.open, self.close
        if name == SOLVE:
            names = {axis: f"{name}[axis={axis}]" for axis in range(3)}

            def traced(*args, **kwargs):
                axis = kwargs["axis"] if "axis" in kwargs else args[2]
                index = open_(names.get(axis, f"{name}[axis={axis}]"))
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(index)
        elif name in STAGES or name == "harness.write_snapshot":
            def traced(state, *args, **kwargs):
                index = open_(name, _state_bytes(state))
                try:
                    return fn(state, *args, **kwargs)
                finally:
                    close(index)
        else:
            def traced(*args, **kwargs):
                index = open_(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(index)
        return traced

    def install(self) -> None:
        for path, attr, name in TARGETS:
            owner = _owner(path)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.add(name)
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "size"],
                                    "missing": sorted(self.missing), "spans": self.spans}))


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def layer_metrics(spans: list[list], missing: set[str]) -> dict[str, float]:
    """Per-layer metrics (all but alloc_peak_mb and overhead_pct) from spans."""
    dur = [s[2] - s[1] for s in spans]
    top = list(range(len(spans)))   # ancestor that is a direct child of a driver call
    kids: dict[int, list[int]] = {}
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            kids.setdefault(parent, []).append(i)
            if spans[parent][3] >= 0:
                top[i] = top[parent]
    ops = [i for i, s in enumerate(spans) if s[3] < 0]

    steps, step_bytes, ticks, tick_of, inits, other = [], [], [], {}, [], []
    for op in ops:
        children = kids.get(op, [])
        other.append(dur[op] - sum(dur[k] for k in children))
        stage1, tick = None, None
        for pos, k in enumerate(children):
            name = spans[k][0]
            if name in STAGES:
                tick = None
                if name == STAGES[0]:
                    stage1 = k
                elif stage1 is not None:
                    steps.append(spans[k][2] - spans[stage1][1])
                    step_bytes.append(spans[stage1][4])
                    stage1 = None
            elif name in DIAGNOSTICS:
                if tick is None:
                    tick = len(ticks)
                    ticks.append([spans[k][1], spans[k][2]])
                ticks[tick][1] = spans[k][2]
                tick_of[k] = tick
            elif name == "harness.sample_exact":
                nxt = children[pos + 1] if pos + 1 < len(children) else None
                pec = dur[nxt] if nxt is not None and spans[nxt][0] == "harness.enforce_pec" else 0.0
                inits.append(dur[k] + pec)

    def in_stage(name):
        return [dur[i] for i, s in enumerate(spans)
                if s[0].startswith(name) and spans[top[i]][0] in STAGES]

    def per_tick(names):
        count = sum(1 for i, s in enumerate(spans) if s[0] in names and top[i] in tick_of)
        return count / len(ticks) if ticks else 0.0

    def calls(name):
        return [dur[i] for i, s in enumerate(spans) if s[0] == name]

    n_steps = len(steps)
    per_step = (lambda total: total / n_steps) if n_steps else (lambda total: 0.0)
    thomas = [sum(in_stage(f"{SOLVE}[axis={a}]")) for a in range(3)]
    guard = sum(in_stage(GUARD))
    stage_total = sum(dur[i] for i, s in enumerate(spans) if s[0] in STAGES)
    step_p50 = _median(steps)
    tick_times = [b - a for a, b in ticks]
    snapshots = [s[4] for s in spans if s[0] == "harness.write_snapshot"]
    metrics = {
        "stepper.step_ms.p50": 1e3 * step_p50,
        "stepper.step_ms.p90": 1e3 * _p90(steps),
        "stepper.thomas_axis0_ms": 1e3 * per_step(thomas[0]),
        "stepper.thomas_axis1_ms": 1e3 * per_step(thomas[1]),
        "stepper.thomas_axis2_ms": 1e3 * per_step(thomas[2]),
        "stepper.guard_ms": 1e3 * per_step(guard),
        "stepper.self_ms": 1e3 * per_step(stage_total - sum(thomas) - guard),
        "stepper.thomas_calls_per_step": per_step(len(in_stage(SOLVE))),
        # minimal traffic: each stage reads and writes every lattice once
        "stepper.achieved_gbps": 4 * sum(step_bytes) / sum(steps) / 1e9 if steps else 0.0,
        "harness.tick_ms.p50": 1e3 * _median(tick_times),
        "harness.tick_ms.p90": 1e3 * _p90(tick_times),
        "harness.tick_to_step_ratio": _median(tick_times) / step_p50 if step_p50 else 0.0,
        "norms.energy_report_ms": 1e3 * _median(calls("harness.energy_report")),
        "manufactured.metrics_ms": 1e3 * _median(calls("harness.metrics")),
        "norms.divergence_ms": 1e3 * _median(calls("harness.divergence")),
        "norms.energy_suite_ms": 1e3 * _median(calls("harness.energy_suite")),
        "norms.energy_l2_ms": 1e3 * _median(calls("harness.energy_l2")),
        "norms.functional_evals_per_tick": per_tick(FUNCTIONALS),
        "grid.rotate_copies_per_tick": per_tick(("norms.rotate_state",)),
        "manufactured.sample_exact_per_tick": per_tick(("manufactured.sample_exact",)),
        "grid.init_ms": 1e3 * _median(inits),
        "grid.snapshot_ms": 1e3 * _median(calls("harness.write_snapshot")),
        # state bytes plus the six 48-byte blob headers
        "grid.snapshot_mb": (_median(snapshots) + 6 * 48) / MIB if snapshots else 0.0,
        "harness.other_ms": 1e3 * statistics.fmean(other) if other else 0.0,
    }
    return {k: v for k, v in metrics.items() if not missing.intersection(DEPENDS.get(k, ()))}


def alloc_peak_mb(n: int, dt: float) -> float:
    """Peak bytes numpy allocates within one step on an n^3 grid, in MiB."""
    import tracemalloc

    from adimax import Medium, enforce_pec, harness, make_grid, sample_exact

    grid = make_grid(n, n, n, dt)
    med = Medium()
    state = enforce_pec(sample_exact(0.0, grid))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        harness.stage2(harness.stage1(state, grid, med), grid, med)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / MIB
