"""tools/bench_pairs.py's tally, on synthetic runs whose statistics are known by hand."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(workload, pair, side, **values):
    """One run as `main` records it: a summary line with one value per metric."""
    metrics = {name: {"value": value} for name, value in values.items()}
    return {"workload": workload, "pair": pair, "side": side, "summary": {"metrics": metrics}}


def test_tally_pairs_the_complete_pairs_and_reads_their_statistics():
    # pair i's (parent, change) values; pair 1 ties on both metrics, and the change won
    # pairs 0, 3 and 4 (lower wall_s, higher ops_s) and lost pair 2
    wall = [(1.0, 0.5), (2.0, 2.0), (3.0, 3.5), (4.0, 2.5), (5.0, 4.0)]
    ops = [(2.0, 3.0), (2.0, 2.0), (2.0, 1.0), (2.0, 3.0), (2.0, 3.0)]
    runs = []
    for i, ((pw, cw), (po, co)) in enumerate(zip(wall, ops)):
        sides = [_run("w", i, "parent", wall_s=pw, ops_s=po),
                 _run("w", i, "change", wall_s=cw, ops_s=co)]
        runs += sides if i % 2 == 0 else sides[::-1]  # the order main runs them in
    # pair 5's change run failed and pair 6 has no change run: neither pair counts
    runs += [_run("w", 5, "parent", wall_s=100.0, ops_s=100.0),
             {"workload": "w", "pair": 5, "side": "change", "returncode": 1, "stderr": ""},
             _run("w", 6, "parent", wall_s=100.0, ops_s=100.0)]
    # one complete pair gives no quartiles: the workload is listed with no metric
    runs += [_run("one", 0, "parent", wall_s=1.0, ops_s=1.0),
             _run("one", 0, "change", wall_s=1.0, ops_s=1.0)]

    out = bench_pairs.tally(runs, {"wall_s": "lower", "ops_s": "higher"})

    assert list(out) == ["w", "one"] and out["one"] == {}
    assert out["w"]["wall_s"] == {
        "parent": {"median": 3.0, "quartiles": [1.5, 3.0, 4.5]},
        "change": {"median": 2.5, "quartiles": [1.25, 2.5, 3.75]},
        "pairs": 5, "change_won": 3, "ties": 1, "median_gain": 0.5, "parent_iqr": 3.0}
    assert out["w"]["ops_s"] == {
        "parent": {"median": 2.0, "quartiles": [2.0, 2.0, 2.0]},
        "change": {"median": 3.0, "quartiles": [1.5, 3.0, 3.0]},
        "pairs": 5, "change_won": 3, "ties": 1, "median_gain": 1.0, "parent_iqr": 0.0}


@pytest.mark.parametrize("better, won, gain", [("lower", 0, -1.0), ("higher", 2, 1.0)])
def test_tally_reads_a_gain_by_the_metric_direction(better, won, gain):
    runs = [_run("w", i, side, m=value)
            for i, (p, c) in enumerate([(1.0, 2.0), (2.0, 3.0)])
            for side, value in (("parent", p), ("change", c))]
    stats = bench_pairs.tally(runs, {"m": better})["w"]["m"]
    assert (stats["change_won"], stats["ties"], stats["median_gain"]) == (won, 0, gain)
