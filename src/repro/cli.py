"""Command-line interface: regenerate any of the paper's experiments.

Usage::

    python -m repro footprint          # Figure 2(a)
    python -m repro scaling            # Figure 2(b)
    python -m repro access-mix         # Figure 2(c)
    python -m repro e2e                # Figure 3
    python -m repro poc                # Figure 14
    python -m repro validate           # Figure 15
    python -m repro cost               # Figure 16
    python -m repro dse                # Figures 17-21
    python -m repro sampler            # Tech-2 cycle/resource numbers
    python -m repro bench-sampler      # batched vs reference sampler speedup
    python -m repro layout-bench       # locality layout vs hash baseline
    python -m repro mutate-bench       # sampling throughput vs mutation rate
    python -m repro train-bench        # pipelined sample→train engine
    python -m repro serve              # online SLO-aware serving gateway
    python -m repro faults             # fault-tolerant remote-memory path
    python -m repro lint               # AST-based invariant linter
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.lintcli import add_lint_arguments
from repro.units import MS_PER_S, format_bytes


def _cmd_footprint(_args) -> None:
    from repro.graph.datasets import DATASET_ORDER, get_dataset
    from repro.memstore.layout import FootprintModel

    model = FootprintModel()
    print("dataset  footprint     min_servers")
    for name in DATASET_ORDER:
        row = model.report(get_dataset(name))
        print(f"{name:<8} {format_bytes(row.total_bytes):<12} {row.min_servers}")


def _cmd_scaling(_args) -> None:
    from repro.framework.cluster import ClusterModel
    from repro.framework.cpu_model import CpuSamplingModel, WorkloadShape
    from repro.graph.datasets import DATASET_ORDER, get_dataset

    shapes = [WorkloadShape.from_spec(get_dataset(n)) for n in DATASET_ORDER]
    cluster = ClusterModel(CpuSamplingModel())
    print("servers  speedup  efficiency")
    for point in cluster.average_scaling_curve(shapes, (1, 5, 15)):
        print(f"{point.num_servers:>7}  {point.speedup_vs_one:>7.2f}"
              f"  {point.efficiency:>10.2f}")


def _cmd_access_mix(args) -> None:
    from repro.framework.tracing import characterize_access_mix
    from repro.graph.datasets import DATASET_ORDER, instantiate_dataset

    print("dataset  structure%(count)  structure%(bytes)")
    for name in DATASET_ORDER:
        graph = instantiate_dataset(name, max_nodes=args.max_nodes, seed=0)
        mix = characterize_access_mix(graph, name, batch_size=32, num_batches=2)
        print(f"{name:<8} {100 * mix.structure_count_fraction:>16.1f}"
              f" {100 * mix.structure_bytes_fraction:>18.1f}")


def _cmd_e2e(_args) -> None:
    from repro.gnn.e2e import EndToEndModel

    model = EndToEndModel()
    for phase, training in (("training", True), ("inference", False)):
        breakdown = model.breakdown(training)
        print(f"{phase:<10} sampling {100 * breakdown.sampling_fraction:5.1f}%"
              f"  total {MS_PER_S * breakdown.total_s:6.2f} ms/batch")
    print(f"storage ratio: {model.storage_ratio():.1e}")


def _cmd_poc(args) -> None:
    from repro.perfmodel.poc import geomean_equivalence, poc_vcpu_equivalence

    rows = poc_vcpu_equivalence(max_nodes=args.max_nodes, batch_size=96)
    print("dataset  FPGA(roots/s)  vCPU-equivalence")
    for row in rows:
        print(f"{row.dataset:<8} {row.fpga_roots_per_s:>12.0f}"
              f"  {row.vcpu_equivalence:>15.0f}")
    print(f"geomean: {geomean_equivalence(rows):.0f} (paper: 894)")


def _cmd_validate(args) -> None:
    from repro.graph.datasets import instantiate_dataset
    from repro.perfmodel.poc import POC_SWEEP, validate_model

    graph = instantiate_dataset("ls", max_nodes=args.max_nodes, seed=0)
    rows = validate_model(graph, POC_SWEEP, batch_size=48)
    print("config           measured     modeled      err%")
    for row in rows:
        print(f"{row.point.label:<16} {row.measured_roots_per_s:>10.0f}"
              f"  {row.modeled_roots_per_s:>10.0f}  {100 * row.error:>6.1f}")
    mean_error = sum(r.error for r in rows) / len(rows)
    print(f"mean error: {100 * mean_error:.1f}%")


def _cmd_cost(_args) -> None:
    from repro.cost.regression import validate_cost_model

    print("instance    listed   predicted  error%")
    for row in validate_cost_model():
        print(f"{row.product_id:<11} {row.listed:>7.3f}  {row.predicted:>9.3f}"
              f"  {100 * row.error:>6.2f}")


def _cmd_dse(args) -> None:
    from repro.faas.dse import FaasDse
    from repro.faas.report import (
        arch_geomeans,
        format_perf_per_dollar_table,
        format_perf_table,
    )

    dse = FaasDse(gpus_per_12gbps=args.gpus_per_12gbps)
    results = dse.evaluate_all()
    cpu_results = dse.cpu_baseline_all()
    print(format_perf_table(results))
    print()
    print(format_perf_per_dollar_table(results, cpu_results))
    print("\ngeomean normalized perf/$:")
    for arch, value in sorted(arch_geomeans(results, cpu_results).items()):
        print(f"  {arch:<15} {value:6.2f}x")


def _cmd_system(args) -> None:
    import numpy as np

    from repro.axe.system import MultiCardSystem, SystemConfig
    from repro.graph.datasets import instantiate_dataset

    graph = instantiate_dataset("ls", max_nodes=args.max_nodes, seed=0)
    roots = np.arange(96)
    print("cards  roots/s     remote%")
    for cards in (1, 2, 4):
        stats = MultiCardSystem(
            graph, SystemConfig(num_cards=cards, output_link=None)
        ).run_batch(roots)
        print(f"{cards:>5}  {stats.roots_per_second:>10.0f}"
              f"  {100 * stats.remote_fraction:>6.1f}")


def _cmd_service(_args) -> None:
    import math

    from repro.framework.service import ServiceConfig, run_service

    quiet = run_service(ServiceConfig(num_workers=1, batches_per_worker=6))
    loaded = run_service(ServiceConfig(num_workers=32, batches_per_worker=3))

    def _ms(value: float) -> str:
        # Percentiles are NaN when a run completed zero batches.
        return "n/a" if math.isnan(value) else f"{MS_PER_S * value:.2f}"

    print("load    p50(ms)  p99(ms)")
    print(f"quiet   {_ms(quiet.p50):>7}  {_ms(quiet.p99):>7}")
    print(f"loaded  {_ms(loaded.p50):>7}  {_ms(loaded.p99):>7}")
    deadline = quiet.p99 * 1.2
    if math.isnan(deadline):
        print("deadline misses at 1.2x quiet p99: n/a (no quiet batches)")
    else:
        miss_rate = loaded.deadline_miss_rate(deadline)
        misses = (
            "n/a (no loaded batches)"
            if math.isnan(miss_rate)
            else f"{100 * miss_rate:.0f}%"
        )
        print(f"deadline misses at 1.2x quiet p99: {misses}")


def _cmd_serve(args) -> None:
    from repro.api import GnnSession
    from repro.graph.datasets import instantiate_dataset
    from repro.serving import default_tenants

    graph = instantiate_dataset("ls", max_nodes=args.max_nodes, seed=0)
    session = GnnSession(graph, num_partitions=4, seed=args.seed)
    tenants = default_tenants(args.duration_s)
    if args.overload != 1.0:
        tenants = [spec.overloaded(args.overload) for spec in tenants]
    report = session.serve(
        tenants=tenants,
        duration_s=args.duration_s,
        functional=not args.no_functional,
        fail_hardware_at_s=args.fail_hardware_at,
    )
    print(f"online serving: {len(tenants)} tenants, "
          f"{args.overload:.1f}x offered/provisioned load")
    print(report.format())


def _cmd_cluster(args) -> None:
    import json

    from repro.cluster import (
        ClusterConfig,
        ClusterSim,
        CostModelPolicy,
        ReactivePolicy,
        SCALING_POLICIES,
        StaticPolicy,
        flash_crowd_day,
        format_comparison,
        get_policy,
    )

    trace = flash_crowd_day(
        duration_s=args.duration_s, users=args.users, seed=args.seed
    )
    names = sorted(SCALING_POLICIES) if args.compare else [args.policy]
    kills = tuple(args.kill_at or ())
    reports = []
    for name in names:
        policy = get_policy(name)
        if args.replicas:
            # One knob, per-policy meaning: fixed fleet size for
            # static, fleet-size cap for the adaptive policies.
            if name == "static":
                policy = StaticPolicy(replicas=args.replicas)
            elif name == "least-loaded":
                policy = ReactivePolicy(max_replicas=args.replicas)
            else:
                policy = CostModelPolicy(max_replicas=args.replicas)
        config = ClusterConfig(
            policy=name, router=args.router, kill_at_s=kills
        )
        reports.append(ClusterSim(trace, config, policy=policy).run())
    if args.json:
        if len(reports) == 1:
            payload = reports[0].to_json()
        else:
            payload = {"reports": [r.to_json() for r in reports]}
        print(json.dumps(payload, indent=2))
        return
    print(
        f"cluster: {args.users:,} users, {args.duration_s:.0f}s compressed "
        f"day (diurnal + flash crowds), router={args.router}"
        + (f", kills at {list(kills)}" if kills else "")
    )
    if len(reports) == 1:
        print(reports[0].format())
    else:
        print(format_comparison(reports))


def _cmd_faults(args) -> None:
    from repro.graph.datasets import instantiate_dataset
    from repro.graph.partition import HashPartitioner
    from repro.framework.sampler import MultiHopSampler
    from repro.framework.requests import SampleRequest
    from repro.memstore import (
        FaultInjector,
        PartitionedStore,
        ReliableReadPath,
        ReplicaPlacement,
        RetryPolicy,
    )
    import numpy as np

    graph = instantiate_dataset("ls", max_nodes=args.max_nodes, seed=0)
    placement = ReplicaPlacement(
        num_partitions=args.partitions, replication_factor=args.replicas
    )
    injector = FaultInjector(seed=args.seed, loss_rate=args.loss_rate)
    policy = RetryPolicy(hedge=not args.no_hedge)
    path = ReliableReadPath(
        placement, policy=policy, injector=injector, seed=args.seed
    )
    store = PartitionedStore(
        graph, HashPartitioner(args.partitions), reliability=path
    )
    sampler = MultiHopSampler(
        store, seed=args.seed, worker_partition=0, degraded_ok=True
    )
    if args.kill_partition is not None:
        injector.kill_replica(args.kill_partition, replica=0)
        print(f"killed: partition {args.kill_partition} replica 0")
    roots = np.arange(args.batch_size, dtype=np.int64)
    request = SampleRequest(roots=roots, fanouts=(10, 5))
    sampler.sample(request)
    stats = sampler.fault_stats
    print(f"replicas: {args.replicas}x across {placement.num_domains} domains"
          f"  loss rate: {args.loss_rate:.1%}"
          f"  hedging: {'on' if policy.hedge else 'off'}")
    print(f"reads {stats.reads}  attempts {stats.attempts}"
          f"  retries {stats.retries}  timeouts {stats.timeouts}")
    print(f"hedges {stats.hedges} (won {stats.hedge_wins})"
          f"  failovers {stats.failovers}"
          f"  failed reads {stats.failed_reads}"
          f"  degraded fallbacks {sampler.degraded_fallbacks}")


def _cmd_bench_sampler(args) -> None:
    import json

    import numpy as np

    from repro.bench import bench_timer
    from repro.errors import ConfigurationError
    from repro.framework.cache import HotNodeCache
    from repro.framework.replay import replay_reference
    from repro.framework.requests import SampleRequest
    from repro.framework.sampler import MultiHopSampler
    from repro.graph.datasets import instantiate_dataset
    from repro.graph.partition import HashPartitioner
    from repro.memstore.store import PartitionedStore
    from repro.parallel.engine import ParallelSampler

    fanouts = tuple(int(f) for f in args.fanouts.split(","))
    if args.workers and args.cache_nodes:
        raise ConfigurationError(
            "--workers and --cache-nodes are mutually exclusive "
            "(the parallel engine runs cache-free)"
        )
    graph = instantiate_dataset("ll", max_nodes=args.max_nodes, seed=args.seed)
    partitioner = HashPartitioner(args.partitions)
    rng = np.random.default_rng(args.seed)
    roots = rng.integers(0, graph.num_nodes, size=args.batch_size)
    request = SampleRequest(roots=roots, fanouts=fanouts, with_attributes=True)

    def run(batched: bool):
        best = float("inf")
        store = sampler = None
        for _ in range(args.repeats):
            store = PartitionedStore(graph, partitioner)
            cache = HotNodeCache(args.cache_nodes) if args.cache_nodes else None
            sampler = MultiHopSampler(
                store,
                seed=args.seed,
                cache=cache,
                worker_partition=0,
                batched=batched,
            )
            with bench_timer() as timer:
                result = sampler.sample(request)
            best = min(best, timer.elapsed_s)
        return best, result, store, sampler

    def run_parallel(workers: int):
        best = float("inf")
        store = result = None
        for _ in range(args.repeats):
            store = PartitionedStore(graph, partitioner)
            with ParallelSampler(
                store, workers=workers, seed=args.seed, worker_partition=0
            ) as engine:
                # Warm the pool outside the timed region (process
                # startup is a one-time cost, not per-batch).
                engine.collect(engine.submit(request))
                store.reset_trace()
                with bench_timer() as timer:
                    result = engine.sample(request)
            best = min(best, timer.elapsed_s)
        return best, result, store

    reference_s, _ref_result, _store, _ = run(batched=False)
    batched_s, result, store, _ = run(batched=True)
    replay_store = PartitionedStore(graph, partitioner)
    replay_cache = HotNodeCache(args.cache_nodes) if args.cache_nodes else None
    replay_reference(
        result, request, replay_store, worker_partition=0, cache=replay_cache
    )
    match = store.summary == replay_store.summary

    parallel_s = parallel_match = None
    if args.workers:
        parallel_s, parallel_result, parallel_store = run_parallel(args.workers)
        parallel_replay = PartitionedStore(graph, partitioner)
        replay_reference(
            parallel_result, request, parallel_replay, worker_partition=0
        )
        parallel_match = parallel_store.summary == parallel_replay.summary

    report = {
        "dataset": "ll",
        "num_nodes": int(graph.num_nodes),
        "batch_size": args.batch_size,
        "fanouts": list(fanouts),
        "partitions": args.partitions,
        "cache_nodes": args.cache_nodes,
        "repeats": args.repeats,
        "seed": args.seed,
        "reference_s": reference_s,
        "batched_s": batched_s,
        "speedup": reference_s / batched_s,
        "accounting_match": bool(match),
        "workers": args.workers,
        "parallel_s": parallel_s,
        "parallel_speedup": (
            None if parallel_s is None else batched_s / parallel_s
        ),
        "parallel_match": parallel_match,
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"ll instance: {graph.num_nodes} nodes, batch {args.batch_size}, "
              f"fanouts {'x'.join(str(f) for f in fanouts)}, "
              f"{args.partitions} partitions (best of {args.repeats})")
        print(f"reference: {reference_s * MS_PER_S:8.2f} ms/batch")
        print(f"batched:   {batched_s * MS_PER_S:8.2f} ms/batch")
        print(f"speedup:   {reference_s / batched_s:8.2f}x")
        print(f"accounting match (replayed reference): {'yes' if match else 'NO'}")
        if parallel_s is not None:
            print(f"parallel:  {parallel_s * MS_PER_S:8.2f} ms/batch "
                  f"({args.workers} workers, "
                  f"{batched_s / parallel_s:.2f}x vs batched)")
            print(f"parallel accounting match (replayed reference): "
                  f"{'yes' if parallel_match else 'NO'}")
    failed = not match or parallel_match is False
    if failed:
        if args.cache_nodes and not args.json:
            print(
                "note: cache-counter parity assumes a non-thrashing cache; "
                f"--cache-nodes {args.cache_nodes} may be evicting within a "
                "hop (see docs/ARCHITECTURE.md section 5d). Retry with a "
                "larger capacity or --cache-nodes 0."
            )
        raise SystemExit(1)


def _cmd_train_bench(args) -> None:
    """Pipelined sample→train engine: throughput, parity, cache win.

    For every worker count the same training schedule runs twice —
    without and with the multi-hop neighborhood cache — timing each
    epoch. Hard failures (exit 1): losses/weights not bit-identical
    across worker counts, store accounting divergence, nonzero
    neighborhood counters at cache-off, or (on >= 4 cores) missing the
    wall-clock speedup floor at 4 workers.
    """
    import json
    import os

    import numpy as np

    from repro.bench import bench_timer
    from repro.gnn.pipeline import PipelinedTrainer
    from repro.graph.generators import power_law_graph
    from repro.graph.partition import HashPartitioner
    from repro.memstore.store import PartitionedStore

    max_nodes = args.max_nodes
    epochs = args.epochs
    batch_size = args.batch_size
    if args.smoke:
        max_nodes = min(max_nodes, 400)
        epochs = min(epochs, 2)
        batch_size = min(batch_size, 32)
    fanouts = tuple(int(f) for f in args.fanouts.split(","))
    if args.workers is None:
        worker_counts = [0, 1, 2, 4]
    else:
        worker_counts = sorted({0, args.workers})
    cores = len(os.sched_getaffinity(0))

    graph = power_law_graph(
        max_nodes, args.avg_degree, attr_len=0, seed=args.seed
    )
    label_rng = np.random.default_rng(args.seed)
    labels = (
        label_rng.random((graph.num_nodes, args.num_labels)) < 0.3
    ).astype(np.float32)
    roots = np.arange(graph.num_nodes, dtype=np.int64)

    def run(workers: int, cached: bool):
        """One training schedule: warm-up epoch untimed, then timed epochs.

        The warm-up epoch absorbs pool startup and arena allocation
        (and, with the cache, is the miss epoch that fills it); it runs
        identically at every worker count, so the loss/weight parity
        bar covers it too.
        """
        store = PartitionedStore(graph, HashPartitioner(args.partitions))
        with PipelinedTrainer(
            store,
            labels,
            fanouts,
            embedding_dim=args.embedding_dim,
            hidden_dim=args.hidden_dim,
            seed=args.seed,
            workers=workers,
            pipeline_depth=args.pipeline_depth,
            batch_size=batch_size,
            cached_epochs=(epochs + 1) if cached else 0,
        ) as trainer:
            losses = [trainer.train_epoch(roots)]
            epoch_s = []
            for _ in range(epochs):
                with bench_timer() as timer:
                    losses.append(trainer.train_epoch(roots))
                epoch_s.append(timer.elapsed_s)
            digest = trainer.weights_digest()
            cache_hits = trainer.cache.root_hits if cached else 0
            cache_misses = trainer.cache.root_misses if cached else 0
        mean_epoch_s = float(np.mean(epoch_s))
        return {
            "workers": workers,
            "cached": cached,
            "losses": losses,
            "epoch_s": epoch_s,
            "mean_epoch_s": mean_epoch_s,
            "samples_per_s": float(roots.size / mean_epoch_s),
            "weights_digest": digest,
            "cache_hits": cache_hits,
            "cache_misses": cache_misses,
            "summary": store.summary,
        }

    rows = []
    for cached in (False, True):
        for workers in worker_counts:
            rows.append(run(workers, cached))

    failures = []
    for cached in (False, True):
        variant = [r for r in rows if r["cached"] is cached]
        reference = variant[0]
        for row in variant[1:]:
            if (
                row["losses"] != reference["losses"]
                or row["weights_digest"] != reference["weights_digest"]
            ):
                failures.append(
                    f"parity: workers={row['workers']} cached={cached} "
                    "diverges from workers=0 (losses/weights not "
                    "bit-identical)"
                )
            if row["summary"] != reference["summary"]:
                failures.append(
                    f"accounting: workers={row['workers']} cached={cached} "
                    "store summary diverges from workers=0"
                )
    for row in rows:
        if not row["cached"] and (
            row["summary"].neighborhood_hits
            or row["summary"].neighborhood_misses
        ):
            failures.append(
                f"accounting: workers={row['workers']} cache-off run has "
                "nonzero neighborhood counters"
            )

    def mean_epoch(workers: int, cached: bool):
        for row in rows:
            if row["workers"] == workers and row["cached"] is cached:
                return row["mean_epoch_s"]
        return None

    speedup_4w = None
    base_s = mean_epoch(0, False)
    top_s = mean_epoch(4, False)
    if top_s is not None:
        speedup_4w = base_s / top_s
        if cores >= args.min_cores and speedup_4w < args.speedup_floor:
            failures.append(
                f"speedup: {speedup_4w:.2f}x at 4 workers is below the "
                f"{args.speedup_floor:.1f}x floor on {cores} cores"
            )
    cached_speedups = {
        w: mean_epoch(w, False) / mean_epoch(w, True) for w in worker_counts
    }

    report = {
        "num_nodes": int(graph.num_nodes),
        "batch_size": batch_size,
        "fanouts": list(fanouts),
        "partitions": args.partitions,
        "epochs": epochs,
        "pipeline_depth": args.pipeline_depth,
        "embedding_dim": args.embedding_dim,
        "hidden_dim": args.hidden_dim,
        "seed": args.seed,
        "cores": cores,
        "rows": [
            {k: v for k, v in row.items() if k != "summary"} for row in rows
        ],
        "speedup_4w": speedup_4w,
        "speedup_floor": args.speedup_floor,
        "cached_speedups": {str(w): s for w, s in cached_speedups.items()},
        "parity": not failures,
        "failures": failures,
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(
            f"train-bench: {graph.num_nodes} nodes, batch {batch_size}, "
            f"fanouts {'x'.join(str(f) for f in fanouts)}, "
            f"{epochs} timed epochs (+1 warm-up), depth "
            f"{args.pipeline_depth}, {cores} cores"
        )
        for row in rows:
            label = "cached" if row["cached"] else "fresh "
            print(
                f"  workers={row['workers']} {label}: "
                f"{row['mean_epoch_s'] * MS_PER_S:8.1f} ms/epoch "
                f"{row['samples_per_s']:10.0f} samples/s "
                f"loss {row['losses'][-1]:.4f}"
            )
        if speedup_4w is not None:
            gate = "gated" if cores >= args.min_cores else "ungated (<4 cores)"
            print(f"speedup at 4 workers: {speedup_4w:.2f}x ({gate})")
        for w in worker_counts:
            print(f"cached-epoch speedup at workers={w}: "
                  f"{cached_speedups[w]:.2f}x")
        print(f"parity (losses/weights/accounting): "
              f"{'yes' if not failures else 'NO'}")
        for failure in failures:
            print(f"FAIL: {failure}")
    if failures:
        raise SystemExit(1)


def _cmd_mutate_bench(args) -> None:
    import json

    import numpy as np

    from repro.bench import bench_timer
    from repro.framework.cache import HotNodeCache
    from repro.framework.replay import replay_reference
    from repro.framework.requests import SampleRequest
    from repro.framework.sampler import MultiHopSampler
    from repro.graph.datasets import instantiate_dataset
    from repro.graph.dynamic import DynamicGraph
    from repro.graph.partition import HashPartitioner
    from repro.memstore.ingest import DynamicPartitionedStore, growth_trace
    from repro.memstore.store import PartitionedStore

    if args.smoke:
        args.max_nodes = min(args.max_nodes, 2000)
        args.batch_size = min(args.batch_size, 64)
        args.batches = min(args.batches, 3)
        args.rates = "0,16,64"
    rates = [int(r) for r in args.rates.split(",")]
    if len(rates) < 3:
        raise SystemExit("--rates needs at least 3 mutation rates to sweep")
    fanouts = tuple(int(f) for f in args.fanouts.split(","))
    base = instantiate_dataset("ll", max_nodes=args.max_nodes, seed=args.seed)
    partitioner = HashPartitioner(args.partitions)
    rng = np.random.default_rng(args.seed)
    requests = [
        SampleRequest(
            roots=rng.integers(0, base.num_nodes, size=args.batch_size),
            fanouts=fanouts,
            with_attributes=True,
        )
        for _ in range(args.batches)
    ]

    def run_rate(rate: int):
        """Interleave `rate` mutations before every sample batch."""
        store = DynamicPartitionedStore(
            DynamicGraph(base, compact_threshold=args.compact_threshold),
            partitioner,
        )
        cache = HotNodeCache(args.cache_nodes) if args.cache_nodes else None
        if cache is not None:
            store.register_cache(cache)
        sampler = MultiHopSampler(
            store, seed=args.seed, cache=cache, worker_partition=0, batched=True
        )
        trace = growth_trace(
            base.num_nodes, rate * args.batches, seed=args.seed + 1
        )
        sampling_s = 0.0
        mutation_s = 0.0
        max_epochs_seen = 0
        results = []
        for i, request in enumerate(requests):
            if rate:
                batch = trace[i * rate : (i + 1) * rate]
                with bench_timer() as timer:
                    store.apply(batch)
                mutation_s += timer.elapsed_s
            with bench_timer() as timer:
                results.append(sampler.sample(request))
            sampling_s += timer.elapsed_s
            max_epochs_seen = max(max_epochs_seen, len(store.last_sample_epochs))
        return {
            "rate": rate,
            "sampling_s": sampling_s,
            "mutation_s": mutation_s,
            # End to end: a batch costs its mutations plus its sample.
            "batches_per_s": args.batches / (sampling_s + mutation_s),
            "max_epochs_per_sample": max_epochs_seen,
            "delta_hits": store.ingest_stats.delta_hits,
            "delta_edges_read": store.ingest_stats.delta_edges_read,
            "cache_invalidations": store.ingest_stats.cache_invalidations,
            "compactions": store.ingest_stats.compactions,
            "edges_added": store.ingest_stats.edges_added,
            "nodes_added": store.ingest_stats.nodes_added,
        }, results, store

    sweep = []
    rate0 = None
    for rate in sorted(set(rates)):
        row, results, store = run_rate(rate)
        sweep.append(row)
        if rate == 0:
            rate0 = (results, store)

    # Consistency invariant: no multi-hop sample observed two epochs.
    consistent = all(row["max_epochs_per_sample"] <= 1 for row in sweep)

    # Rate-0 parity: byte-identical to the static-store path, and the
    # replay harness charges the reference walk identically.
    static_match = replay_match = None
    if rate0 is not None:
        dyn_results, dyn_store = rate0
        static_store = PartitionedStore(base, partitioner)
        static_cache = HotNodeCache(args.cache_nodes) if args.cache_nodes else None
        static_sampler = MultiHopSampler(
            static_store, seed=args.seed, cache=static_cache,
            worker_partition=0, batched=True,
        )
        static_match = True
        for request, dyn_result in zip(requests, dyn_results):
            static_result = static_sampler.sample(request)
            static_match = static_match and all(
                np.array_equal(a, b)
                for a, b in zip(dyn_result.layers, static_result.layers)
            ) and all(
                np.array_equal(a, b)
                for a, b in zip(dyn_result.attributes, static_result.attributes)
            )
        static_match = static_match and dyn_store.summary == static_store.summary
        # Replay-harness parity holds per request from a cold cache (the
        # batched path and the walk fill a warm cache in different
        # orders), so check one request on a fresh store/cache pair —
        # same contract bench-sampler verifies on the static store.
        one_store = DynamicPartitionedStore(DynamicGraph(base), partitioner)
        one_cache = HotNodeCache(args.cache_nodes) if args.cache_nodes else None
        if one_cache is not None:
            one_store.register_cache(one_cache)
        one_result = MultiHopSampler(
            one_store, seed=args.seed, cache=one_cache,
            worker_partition=0, batched=True,
        ).sample(requests[0])
        replay_store = DynamicPartitionedStore(DynamicGraph(base), partitioner)
        replay_cache = HotNodeCache(args.cache_nodes) if args.cache_nodes else None
        replay_reference(
            one_result, requests[0], replay_store,
            worker_partition=0, cache=replay_cache,
        )
        replay_match = one_store.summary == replay_store.summary

    # Torn-read probe: fire a mutation mid-sample (from inside the
    # selector) and check the pinned view holds one epoch and the
    # just-added node stays invisible to the in-flight sample.
    probe_store = DynamicPartitionedStore(DynamicGraph(base), partitioner)
    probe_trace = growth_trace(
        base.num_nodes, 32, new_node_probability=1.0, seed=args.seed + 2
    )
    fired = [False]

    def torn_selector(neighbors, fanout, sel_rng):
        if not fired[0]:
            fired[0] = True
            probe_store.apply(probe_trace)
        return neighbors[sel_rng.integers(0, neighbors.size, size=fanout)]

    probe_sampler = MultiHopSampler(
        probe_store, seed=args.seed, worker_partition=0,
        selector=torn_selector, batched=True,
    )
    probe_result = probe_sampler.sample(requests[0])
    new_ids = set(range(base.num_nodes, probe_store.graph.num_nodes))
    torn_ok = (
        fired[0]
        and len(probe_store.last_sample_epochs) == 1
        and not any(
            bool(new_ids & set(layer.reshape(-1).tolist()))
            for layer in probe_result.layers
        )
    )

    report = {
        "dataset": "ll",
        "num_nodes": int(base.num_nodes),
        "batch_size": args.batch_size,
        "batches": args.batches,
        "fanouts": list(fanouts),
        "partitions": args.partitions,
        "cache_nodes": args.cache_nodes,
        "compact_threshold": args.compact_threshold,
        "seed": args.seed,
        "sweep": sweep,
        "consistent_epochs": bool(consistent),
        "rate0_static_match": static_match,
        "rate0_replay_match": replay_match,
        "torn_read_ok": bool(torn_ok),
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"ll instance: {base.num_nodes} nodes, batch {args.batch_size} "
              f"x {args.batches}, fanouts {'x'.join(str(f) for f in fanouts)}, "
              f"{args.partitions} partitions")
        print(f"{'mut/batch':>10} {'sample ms':>10} {'mutate ms':>10} "
              f"{'batches/s':>10} {'delta hits':>10} {'compactions':>11}")
        for row in sweep:
            print(f"{row['rate']:>10} "
                  f"{row['sampling_s'] * MS_PER_S:>10.2f} "
                  f"{row['mutation_s'] * MS_PER_S:>10.2f} "
                  f"{row['batches_per_s']:>10.1f} "
                  f"{row['delta_hits']:>10} "
                  f"{row['compactions']:>11}")
        print(f"consistency (one epoch per sample): "
              f"{'yes' if consistent else 'NO'}")
        if static_match is not None:
            print(f"rate-0 parity vs static store: "
                  f"{'yes' if static_match else 'NO'}")
            print(f"rate-0 replay-harness parity:  "
                  f"{'yes' if replay_match else 'NO'}")
        print(f"torn-read probe (mutation mid-sample): "
              f"{'ok' if torn_ok else 'FAILED'}")
    if not consistent or static_match is False or replay_match is False or not torn_ok:
        raise SystemExit(1)


def _cmd_layout_bench(args) -> None:
    import json

    import numpy as np

    from repro.bench import bench_timer
    from repro.framework.replay import replay_reference
    from repro.framework.requests import SampleRequest
    from repro.framework.sampler import MultiHopSampler
    from repro.graph.datasets import instantiate_dataset
    from repro.graph.partition import HashPartitioner
    from repro.memstore.locality import build_locality_layout
    from repro.memstore.store import PartitionedStore

    if args.smoke:
        args.max_nodes = min(args.max_nodes, 2000)
        args.batch_size = min(args.batch_size, 64)
        args.batches = min(args.batches, 2)
        args.repeats = min(args.repeats, 2)
    fanouts = tuple(int(f) for f in args.fanouts.split(","))
    graph = instantiate_dataset("ll", max_nodes=args.max_nodes, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    requests = [
        SampleRequest(
            roots=rng.integers(0, graph.num_nodes, size=args.batch_size),
            fanouts=fanouts,
            with_attributes=True,
        )
        for _ in range(args.batches)
    ]
    layout = build_locality_layout(graph, args.partitions, method=args.method)
    base_partitioner = HashPartitioner(args.partitions)

    def hop_crossings(results, partitioner, relabeling):
        """Parent->pick pairs whose owners differ: the remote fetches hop
        expansion issues when each parent expands on its owner. Unlike
        one worker's remote share, this is the sampled edge cut —
        independent of which partition the worker happens to sit in."""
        crossings = total = 0
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
                total += picks.size
        return crossings, total

    def run(store_graph, partitioner, relabeling):
        best = float("inf")
        store = results = None
        for _ in range(args.repeats):
            store = PartitionedStore(
                store_graph, partitioner, track_locality=True
            )
            sampler = MultiHopSampler(
                store,
                seed=args.seed,
                worker_partition=0,
                batched=True,
                relabeling=relabeling,
            )
            with bench_timer() as timer:
                results = [sampler.sample(r) for r in requests]
            best = min(best, timer.elapsed_s)
        return best, results, store

    baseline_s, baseline_results, baseline_store = run(
        graph, base_partitioner, None
    )
    layout_s, layout_results, layout_store = run(
        layout.graph, layout.partitioner, layout.relabeling
    )
    base_crossings, base_picks = hop_crossings(
        baseline_results, base_partitioner, None
    )
    lay_crossings, lay_picks = hop_crossings(
        layout_results, layout.partitioner, layout.relabeling
    )

    # Replay parity: the per-node walk must charge the layout path's
    # sampled layers identically. Untracked stores on both sides — the
    # batched gather pattern the locality counters measure is exactly
    # what the per-node walk does not do.
    live_store = PartitionedStore(layout.graph, layout.partitioner)
    live_result = MultiHopSampler(
        live_store,
        seed=args.seed,
        worker_partition=0,
        batched=True,
        relabeling=layout.relabeling,
    ).sample(requests[0])
    replay_store = PartitionedStore(layout.graph, layout.partitioner)
    replay_reference(
        live_result,
        requests[0],
        replay_store,
        worker_partition=0,
        relabeling=layout.relabeling,
    )
    replay_match = live_store.summary == replay_store.summary

    def summarize(summary, wall_s, crossings, picks):
        return {
            "wall_s": wall_s,
            "crossings": crossings,
            "crossing_fraction": crossings / picks if picks else 0.0,
            "remote_count": summary.remote_count,
            "remote_count_fraction": summary.remote_count_fraction,
            "gather_nodes": summary.gather_nodes,
            "gather_runs": summary.gather_runs,
            "gather_span_bytes": summary.gather_span_bytes,
            "mean_run_length": summary.mean_run_length,
        }

    base = summarize(
        baseline_store.summary, baseline_s, base_crossings, base_picks
    )
    lay = summarize(layout_store.summary, layout_s, lay_crossings, lay_picks)
    crossing_reduction = (
        0.0
        if base["crossings"] == 0
        else 1.0 - lay["crossings"] / base["crossings"]
    )
    run_length_gain = (
        0.0
        if base["mean_run_length"] == 0
        else lay["mean_run_length"] / base["mean_run_length"]
    )
    locality_win = crossing_reduction > 0 and run_length_gain > 1.0
    report = {
        "dataset": "ll",
        "num_nodes": int(graph.num_nodes),
        "batch_size": args.batch_size,
        "batches": args.batches,
        "fanouts": list(fanouts),
        "partitions": args.partitions,
        "method": args.method,
        "repeats": args.repeats,
        "seed": args.seed,
        "baseline": base,
        "layout": lay,
        "crossing_reduction": crossing_reduction,
        "run_length_gain": run_length_gain,
        "locality_win": bool(locality_win),
        "replay_match": bool(replay_match),
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"ll instance: {graph.num_nodes} nodes, batch {args.batch_size} "
              f"x {args.batches}, fanouts {'x'.join(str(f) for f in fanouts)}, "
              f"{args.partitions} partitions, method={args.method} "
              f"(best of {args.repeats})")
        print(f"{'':>10} {'wall ms':>9} {'cross%':>7} {'remote%':>8} "
              f"{'runs':>8} {'run len':>8} {'span':>12}")
        for name, row in (("baseline", base), ("layout", lay)):
            print(f"{name:>10} {row['wall_s'] * MS_PER_S:>9.2f} "
                  f"{100 * row['crossing_fraction']:>7.1f} "
                  f"{100 * row['remote_count_fraction']:>8.1f} "
                  f"{row['gather_runs']:>8} "
                  f"{row['mean_run_length']:>8.2f} "
                  f"{format_bytes(row['gather_span_bytes']):>12}")
        print(f"partition crossings: {100 * crossing_reduction:.1f}% fewer; "
              f"contiguous runs: {run_length_gain:.2f}x longer")
        print(f"locality win: {'yes' if locality_win else 'NO'}")
        print(f"replay parity (layout path): "
              f"{'yes' if replay_match else 'NO'}")
    if not replay_match or not locality_win:
        raise SystemExit(1)


def _cmd_lint(args) -> None:
    from repro.analysis.lintcli import run_lint

    code = run_lint(args)
    if code:
        raise SystemExit(code)


def _cmd_sampler(_args) -> None:
    from repro.axe.resources import sampler_savings
    from repro.axe.sampling import sampling_speedup

    savings = sampler_savings()
    print(f"cycle advantage (N=100, K=10): "
          f"{sampling_speedup(100, 10):.2f}x (N+K -> N)")
    print(f"LUT saving: {100 * savings['lut_saving']:.1f}% (paper: 91.9%)")
    print(f"register saving: {100 * savings['reg_saving']:.1f}% (paper: 23%)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="LSD-GNN FaaS reproduction experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("footprint", help="Figure 2(a)").set_defaults(fn=_cmd_footprint)
    sub.add_parser("scaling", help="Figure 2(b)").set_defaults(fn=_cmd_scaling)
    mix = sub.add_parser("access-mix", help="Figure 2(c)")
    mix.add_argument("--max-nodes", type=int, default=4000)
    mix.set_defaults(fn=_cmd_access_mix)
    sub.add_parser("e2e", help="Figure 3").set_defaults(fn=_cmd_e2e)
    poc = sub.add_parser("poc", help="Figure 14")
    poc.add_argument("--max-nodes", type=int, default=8000)
    poc.set_defaults(fn=_cmd_poc)
    val = sub.add_parser("validate", help="Figure 15")
    val.add_argument("--max-nodes", type=int, default=8000)
    val.set_defaults(fn=_cmd_validate)
    sub.add_parser("cost", help="Figure 16").set_defaults(fn=_cmd_cost)
    dse = sub.add_parser("dse", help="Figures 17-21")
    dse.add_argument("--gpus-per-12gbps", type=float, default=1.0)
    dse.set_defaults(fn=_cmd_dse)
    sub.add_parser("sampler", help="Tech-2 numbers").set_defaults(fn=_cmd_sampler)
    bench = sub.add_parser(
        "bench-sampler",
        help="batched vs reference sampler speedup + accounting parity",
    )
    bench.add_argument("--max-nodes", type=int, default=20000)
    bench.add_argument("--batch-size", type=int, default=512)
    bench.add_argument("--fanouts", type=str, default="10,10")
    bench.add_argument("--partitions", type=int, default=4)
    bench.add_argument("--cache-nodes", type=int, default=0,
                       help="optional hot-node cache capacity")
    bench.add_argument("--repeats", type=int, default=3,
                       help="take the best of this many runs per path")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--workers", type=int, default=0,
                       help="also bench the sharded parallel engine at "
                            "this worker count (0 = skip)")
    bench.add_argument("--json", action="store_true",
                       help="emit the report as JSON (see "
                            "benchmarks/bench_record.py)")
    bench.set_defaults(fn=_cmd_bench_sampler)
    system = sub.add_parser("system", help="multi-card scaling")
    system.add_argument("--max-nodes", type=int, default=6000)
    system.set_defaults(fn=_cmd_system)
    sub.add_parser("service", help="Challenge-1 latency").set_defaults(fn=_cmd_service)
    serve = sub.add_parser("serve", help="online SLO-aware serving gateway")
    serve.add_argument("--duration-s", type=float, default=0.5,
                       help="arrival window in virtual seconds")
    serve.add_argument("--max-nodes", type=int, default=2000)
    serve.add_argument("--overload", type=float, default=1.0,
                       help="offered load as a multiple of provisioned")
    serve.add_argument("--fail-hardware-at", type=float, default=None,
                       help="kill the AxE backend this far into the run")
    serve.add_argument("--no-functional", action="store_true",
                       help="timing-only backends (skip real sampling)")
    serve.add_argument("--seed", type=int, default=0)
    serve.set_defaults(fn=_cmd_serve)
    cluster = sub.add_parser(
        "cluster", help="multi-replica cluster with cost-driven autoscaling"
    )
    cluster.add_argument("--policy", type=str, default="cost",
                         choices=["static", "least-loaded", "cost"],
                         help="scaling policy")
    cluster.add_argument("--router", type=str, default="least-loaded",
                         choices=["consistent-hash", "least-loaded"],
                         help="request routing policy")
    cluster.add_argument("--replicas", type=int, default=0,
                         help="fleet size (static) or fleet-size cap "
                              "(adaptive policies); 0 = policy default")
    cluster.add_argument("--duration-s", type=float, default=10.0,
                         help="compressed-day window in virtual seconds")
    cluster.add_argument("--users", type=int, default=1_000_000,
                         help="user population behind the trace")
    cluster.add_argument("--kill-at", type=float, action="append",
                         default=None, metavar="T",
                         help="kill the most-loaded replica at this "
                              "virtual time (repeatable)")
    cluster.add_argument("--compare", action="store_true",
                         help="run all scaling policies over the same "
                              "trace and print the comparison table")
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--json", action="store_true",
                         help="emit the report(s) as JSON (see "
                              "benchmarks/bench_record.py)")
    cluster.set_defaults(fn=_cmd_cluster)
    layoutp = sub.add_parser(
        "layout-bench",
        help="locality layout vs hash baseline: crossings + replay parity",
    )
    layoutp.add_argument("--max-nodes", type=int, default=20000)
    layoutp.add_argument("--batch-size", type=int, default=256)
    layoutp.add_argument("--batches", type=int, default=4,
                         help="sample batches per configuration")
    layoutp.add_argument("--fanouts", type=str, default="10,10")
    layoutp.add_argument("--partitions", type=int, default=4)
    layoutp.add_argument("--method", type=str, default="ldg",
                         choices=["ldg", "hash", "range"],
                         help="partition assignment the layout blocks follow")
    layoutp.add_argument("--repeats", type=int, default=3,
                         help="take the best of this many runs per path")
    layoutp.add_argument("--seed", type=int, default=0)
    layoutp.add_argument("--smoke", action="store_true",
                         help="small fast configuration for CI")
    layoutp.add_argument("--json", action="store_true",
                         help="emit the report as JSON (see "
                              "benchmarks/bench_record.py)")
    layoutp.set_defaults(fn=_cmd_layout_bench)
    mutate = sub.add_parser(
        "mutate-bench",
        help="sampling throughput vs online mutation rate + consistency",
    )
    mutate.add_argument("--max-nodes", type=int, default=20000)
    mutate.add_argument("--batch-size", type=int, default=256)
    mutate.add_argument("--batches", type=int, default=8,
                        help="sample batches per rate (mutations interleave)")
    mutate.add_argument("--fanouts", type=str, default="10,10")
    mutate.add_argument("--partitions", type=int, default=4)
    mutate.add_argument("--cache-nodes", type=int, default=0,
                        help="optional hot-node cache capacity")
    mutate.add_argument("--rates", type=str, default="0,64,256,1024",
                        help="comma list of mutations applied before each "
                             "sample batch (>= 3 values)")
    mutate.add_argument("--compact-threshold", type=int, default=4096,
                        help="delta edges that trigger compaction")
    mutate.add_argument("--seed", type=int, default=0)
    mutate.add_argument("--smoke", action="store_true",
                        help="small fast configuration for CI")
    mutate.add_argument("--json", action="store_true",
                        help="emit the report as JSON (see "
                             "benchmarks/bench_record.py)")
    mutate.set_defaults(fn=_cmd_mutate_bench)
    trainb = sub.add_parser(
        "train-bench",
        help="pipelined sample→train engine: throughput + parity + cache",
    )
    trainb.add_argument("--max-nodes", type=int, default=3000)
    trainb.add_argument("--avg-degree", type=float, default=8.0)
    trainb.add_argument("--batch-size", type=int, default=64)
    trainb.add_argument("--fanouts", type=str, default="4,3")
    trainb.add_argument("--partitions", type=int, default=4)
    trainb.add_argument("--epochs", type=int, default=3,
                        help="timed epochs per run (one warm-up on top)")
    trainb.add_argument("--workers", type=int, default=None,
                        help="bench [0, N] instead of the default 0/1/2/4 "
                             "sweep (0 is always kept as the parity "
                             "reference)")
    trainb.add_argument("--pipeline-depth", type=int, default=2)
    trainb.add_argument("--embedding-dim", type=int, default=16)
    trainb.add_argument("--hidden-dim", type=int, default=16)
    trainb.add_argument("--num-labels", type=int, default=4)
    trainb.add_argument("--speedup-floor", type=float, default=2.0,
                        help="required epoch wall-clock speedup at 4 "
                             "workers (enforced on >= --min-cores cores)")
    trainb.add_argument("--min-cores", type=int, default=4)
    trainb.add_argument("--seed", type=int, default=0)
    trainb.add_argument("--smoke", action="store_true",
                        help="small fast configuration for CI")
    trainb.add_argument("--json", action="store_true",
                        help="emit the report as JSON (see "
                             "benchmarks/bench_record.py)")
    trainb.set_defaults(fn=_cmd_train_bench)
    faults = sub.add_parser(
        "faults", help="fault-tolerant remote-memory path demo"
    )
    faults.add_argument("--max-nodes", type=int, default=2000)
    faults.add_argument("--partitions", type=int, default=4)
    faults.add_argument("--replicas", type=int, default=2,
                        help="replication factor per partition")
    faults.add_argument("--loss-rate", type=float, default=0.0,
                        help="per-request loss probability")
    faults.add_argument("--kill-partition", type=int, default=None,
                        help="kill this partition's primary replica up front")
    faults.add_argument("--no-hedge", action="store_true",
                        help="disable hedged second reads")
    faults.add_argument("--batch-size", type=int, default=48)
    faults.add_argument("--seed", type=int, default=0)
    faults.set_defaults(fn=_cmd_faults)
    lint = sub.add_parser(
        "lint", help="AST-based invariant linter (repro.analysis)"
    )
    add_lint_arguments(lint)
    lint.set_defaults(fn=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
