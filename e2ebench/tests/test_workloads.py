"""Tiny-size runs of every workload through the same runner the command uses."""

import json
import os

import numpy as np
import pytest

from e2ebench.runner import END_TO_END_UNITS, execute
from e2ebench.workloads import PER_LAYER, TINY, WORKLOADS, _PickChecker

DETERMINISTIC = (
    "framework.selectors.calls",
    "memstore.store.bytes",
    "memstore.ingest.compactions",
    "gnn.embedding.rows",
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_smoke_run(name):
    result, info = execute(name, seed=3, seconds=0.2, trace=False, sizes=TINY)
    assert result["correct"], info["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END_UNITS)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == END_TO_END_UNITS[metric]
        assert entry["value"] > 0
    assert info["beyond_tail"] >= 10
    if name == "online":
        assert info["tail_step_compacted"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_runs_repeat_their_counts(name, tmp_path):
    runs = [
        execute(name, seed=5, seconds=0.2, trace=True, sizes=TINY, trace_dir=str(tmp_path))
        for _ in range(2)
    ]
    for result, info in runs:
        assert result["correct"], info["errors"]
        assert [m for m, _ in PER_LAYER] == list(result["metrics"])
        trace = json.loads(open(info["trace_path"]).read())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])
    first, second = (r["metrics"] for r, _ in runs)
    for metric in DETERMINISTIC:
        assert first[metric] == second[metric]
    busy = {
        "sample": "framework.selectors.calls",
        "online": "memstore.ingest.compactions",
        "train": "gnn.embedding.rows",
    }[name]
    assert first[busy]["value"] > 0


class TinyGraph:
    """0 -> {1, 2}, 1 -> {2}, 2 has no out-edges."""

    num_nodes = 3
    indptr = np.array([0, 2, 3, 3])
    indices = np.array([1, 2, 2])


@pytest.mark.parametrize(
    "hop1, ok",
    [
        ([[1, 2]], True),
        ([[2, 2]], True),
        ([[0, 1]], False),  # 0 is not a neighbor of itself
    ],
)
def test_pick_checker(hop1, ok):
    checker = _PickChecker(TinyGraph())
    layers = [np.array([0]), np.array(hop1)]
    assert checker(layers, (2,)) is ok


def test_degree_zero_parent_may_only_pick_itself():
    checker = _PickChecker(TinyGraph())
    assert checker([np.array([2]), np.array([[2, 2]])], (2,))
    assert not checker([np.array([2]), np.array([[2, 1]])], (2,))


def test_benchmark_json_matches_the_printed_metrics():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
