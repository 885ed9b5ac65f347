"""Locality layout: contiguity and partition crossings, before/after.

Not a numbered paper figure, but the ROADMAP locality item (the
paper's Figure 2 blames the sampling wall on scattered DRAM access):
renumber the CSR with the BFS-within-partition locality order, serve
the same batched multi-hop workload from the hash baseline and the
relabeled store, and compare ``AccessSummary`` contiguity accounting
(``gather_runs`` / ``mean_run_length``) plus remote crossings.
"""

import numpy as np

from repro.framework.replay import replay_reference
from repro.framework.requests import SampleRequest
from repro.framework.sampler import MultiHopSampler
from repro.graph.datasets import instantiate_dataset
from repro.graph.partition import HashPartitioner
from repro.memstore.locality import build_locality_layout
from repro.memstore.store import PartitionedStore

BATCHES = 4
BATCH_SIZE = 128
FANOUTS = (10, 10)
PARTITIONS = 4


def hop_crossings(results, requests, partitioner, relabeling=None):
    """Parent->pick pairs whose owners differ: the sampled edge cut."""
    crossings = 0
    for result, request in zip(results, requests):
        for hop, fanout in enumerate(request.fanouts):
            parents = np.repeat(result.layers[hop].reshape(-1), fanout)
            picks = result.layers[hop + 1].reshape(-1)
            if relabeling is not None:
                parents = relabeling.to_internal(parents)
                picks = relabeling.to_internal(picks)
            crossings += int(np.count_nonzero(
                partitioner.partition_of(parents)
                != partitioner.partition_of(picks)
            ))
    return crossings


def run_workload(graph, partitioner, requests, relabeling=None):
    store = PartitionedStore(graph, partitioner, track_locality=True)
    sampler = MultiHopSampler(
        store,
        seed=0,
        worker_partition=0,
        batched=True,
        relabeling=relabeling,
    )
    results = [sampler.sample(request) for request in requests]
    return store, results


def test_layout_locality_win(benchmark, report):
    base = instantiate_dataset("ll", max_nodes=8000, seed=0)
    rng = np.random.default_rng(0)
    requests = [
        SampleRequest(
            roots=rng.integers(0, base.num_nodes, size=BATCH_SIZE),
            fanouts=FANOUTS,
            with_attributes=True,
        )
        for _ in range(BATCHES)
    ]
    layout = build_locality_layout(base, PARTITIONS)
    hash_partitioner = HashPartitioner(PARTITIONS)

    baseline_store, baseline_results = run_workload(
        base, hash_partitioner, requests
    )
    layout_store, layout_results = benchmark.pedantic(
        run_workload,
        args=(layout.graph, layout.partitioner, requests),
        kwargs={"relabeling": layout.relabeling},
        rounds=1,
        iterations=1,
    )

    # Identical work, different physical layout.
    assert (
        layout_store.summary.gather_nodes
        == baseline_store.summary.gather_nodes
    )
    base_crossings = hop_crossings(baseline_results, requests, hash_partitioner)
    lay_crossings = hop_crossings(
        layout_results, requests, layout.partitioner,
        relabeling=layout.relabeling,
    )
    crossing_reduction = 1 - lay_crossings / base_crossings
    run_length_gain = (
        layout_store.summary.mean_run_length
        / baseline_store.summary.mean_run_length
    )
    assert crossing_reduction > 0, "LDG blocks must cut partition crossings"
    assert run_length_gain > 1.0, "BFS renumbering must lengthen runs"

    # Layers come back in original ID space: hop-1 picks are true
    # neighbors of their roots in the ORIGINAL graph.
    picks = layout_results[0].layers[1].reshape(BATCH_SIZE, FANOUTS[0])
    for root, row in zip(requests[0].roots, picks):
        assert set(row.tolist()) <= set(base.neighbors(int(root)).tolist())

    # The replay harness re-walks the recorded layers through the
    # relabeled store and must charge the same accounting.
    fresh = PartitionedStore(layout.graph, layout.partitioner)
    replayed = replay_reference(
        layout_results[0],
        requests[0],
        fresh,
        worker_partition=0,
        relabeling=layout.relabeling,
    )
    for a, b in zip(layout_results[0].layers, replayed.layers):
        assert np.array_equal(a, b)

    report(
        "Locality layout (ll, 8000 nodes, 4 partitions, fanouts 10x10)",
        "\n".join(
            [
                f"baseline: crossings={base_crossings} "
                f"runs={baseline_store.summary.gather_runs} "
                f"run_len={baseline_store.summary.mean_run_length:.2f}",
                f"layout:   crossings={lay_crossings} "
                f"runs={layout_store.summary.gather_runs} "
                f"run_len={layout_store.summary.mean_run_length:.2f}",
                f"crossings {100 * crossing_reduction:.1f}% fewer, "
                f"runs {run_length_gain:.2f}x longer",
            ]
        ),
    )
