"""The benchmark's three closed-loop workloads: ``sample``, ``online``, ``train``.

Each workload drives the program only through its public entry points.
One caller sends its next batch only after the previous one returned.
Inputs (roots, mutation trace, labels, root order) come from the
workload seed and are generated in ``__init__``, before set-up timing
starts; the program receives only the generated arrays.

A run is: ``SETUP_REPEATS`` timed set-ups (the last one is kept), one
untimed warm-up round, then measured rounds until ``--seconds`` of
batch time and enough samples for the tail percentile, then whole-run
output checks. In a traced run every second measured round is traced,
so the untraced rounds in between give the tracing overhead under the
same host conditions.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from e2ebench.harness import Ledger, median, min_samples_for
from e2ebench.tracer import Tracer, self_time

from repro.framework import selectors
from repro.framework.cache import HotNodeCache
from repro.framework.replay import replay_reference
from repro.framework.requests import SampleRequest
from repro.framework.sampler import MultiHopSampler
from repro.gnn.pipeline import PipelinedTrainer
from repro.graph.datasets import instantiate_dataset
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import power_law_graph
from repro.graph.partition import HashPartitioner
from repro.memstore.ingest import NODE, DynamicPartitionedStore, growth_trace
from repro.memstore.store import PartitionedStore
from repro.parallel.engine import ParallelSampler

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Tail percentile of batch times, and the fewest batches a run measures
#: so that at least 10 lie beyond it.
TAIL_PCT = 95.0
MIN_BATCHES = min_samples_for(TAIL_PCT)

#: Per-layer metrics, in output order, with their units.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("framework.sampler.self_ms", "ms"),
    ("framework.selectors.calls", "count"),
    ("framework.selectors.ms", "ms"),
    ("framework.cache.hit_ratio", "ratio"),
    ("framework.cache.ms", "ms"),
    ("memstore.store.neighbors_ms", "ms"),
    ("memstore.store.attributes_ms", "ms"),
    ("memstore.store.calls", "count"),
    ("memstore.store.bytes", "bytes"),
    ("memstore.store.dedup_ratio", "ratio"),
    ("memstore.store.remote_frac", "ratio"),
    ("memstore.ingest.apply_ms", "ms"),
    ("memstore.ingest.compactions", "count"),
    ("memstore.ingest.invalidations", "count"),
    ("memstore.ingest.delta_hits", "count"),
    ("graph.dynamic.compact_ms", "ms"),
    ("graph.build_s", "s"),
    ("parallel.engine.pool_start_s", "s"),
    ("parallel.engine.submit_ms", "ms"),
    ("parallel.engine.wait_ms", "ms"),
    ("parallel.engine.result_bytes", "bytes"),
    ("gnn.embedding.lookup_ms", "ms"),
    ("gnn.embedding.scatter_ms", "ms"),
    ("gnn.embedding.step_ms", "ms"),
    ("gnn.embedding.rows", "count"),
    ("gnn.models.fwd_bwd_ms", "ms"),
    ("gnn.layers.step_ms", "ms"),
    ("gnn.pipeline.compute_share", "ratio"),
    ("trace.overhead_pct", "%"),
)

#: Per-batch count tallies of the store layer. Counts are read from the
#: first traced round only, so two traced runs with one seed agree.
STORE_CALLS = "memstore.store.calls"
STORE_OCCURRENCES = "memstore.store.occurrences"
STORE_UNIQUE = "memstore.store.unique"
STORE_BYTES = "memstore.store.bytes"
STORE_REMOTE = "memstore.store.remote_count"
STORE_ACCESSES = "memstore.store.access_count"


@dataclass(frozen=True)
class Sizes:
    """Shape of one workload; ``TINY`` exists for the smoke tests."""

    nodes: int
    batch_roots: int
    batches_per_round: int
    # online only
    cache_nodes: int = 0
    mutations_per_step: int = 0
    compact_every: int = 0
    # train only
    avg_degree: float = 0.0
    labels: int = 0


FULL = {
    # 75 MB ll instance: big enough that a set-up (about 0.9 s) is not
    # dominated by start-up jitter; 8 batches of 512 roots per round.
    "sample": Sizes(nodes=100_000, batch_roots=512, batches_per_round=8),
    # 24 steps per round on a fresh dynamic store, compaction every 12th
    # step: 2 of 24 steps (8.3%) compact, so p95 lies among them.
    "online": Sizes(
        nodes=100_000,
        batch_roots=256,
        batches_per_round=24,
        cache_nodes=20_000,
        mutations_per_step=256,
        compact_every=12,
    ),
    # One epoch of 16 micro-batches of 256 roots per round.
    "train": Sizes(
        nodes=20_000,
        batch_roots=256,
        batches_per_round=16,
        avg_degree=8.0,
        labels=4,
    ),
}

TINY = {
    "sample": Sizes(nodes=2_000, batch_roots=64, batches_per_round=4),
    "online": Sizes(
        nodes=2_000,
        batch_roots=32,
        batches_per_round=12,
        cache_nodes=400,
        mutations_per_step=16,
        compact_every=4,
    ),
    "train": Sizes(
        nodes=1_000,
        batch_roots=64,
        batches_per_round=4,
        avg_degree=8.0,
        labels=4,
    ),
}


@dataclass
class Round:
    """One measured round: roots served and per-batch seconds."""

    roots: int
    batch_s: List[float]
    #: ``online`` only: which steps compacted the dynamic graph.
    compacted: Optional[List[bool]] = None

    @property
    def rate(self) -> float:
        return self.roots / sum(self.batch_s)


class Workload:
    """Skeleton shared by the three workloads."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, ledger: Ledger) -> None:
        self.seed = seed
        self.sizes = sizes
        self.ledger = ledger
        self.build_s: List[float] = []
        self.pool_start_s: List[float] = []
        #: Batch ids of the first traced round; set by the runner.
        self.first_traced: List[int] = []
        self.recording_first = False
        self._batch = 0

    # Subclasses implement these.
    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` built (processes, shared memory)."""

    def run_round(self, index: int, tracer: Optional[Tracer]) -> Round:
        raise NotImplementedError

    def final_checks(self) -> None:
        raise NotImplementedError

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        raise NotImplementedError

    # Shared helpers.
    def next_batch(self, tracer: Optional[Tracer]) -> Optional[int]:
        """Allocate a batch id; open its root span when traced."""
        batch = self._batch
        self._batch += 1
        if tracer is None:
            return None
        if self.recording_first:
            self.first_traced.append(batch)
        return tracer.start_batch(batch)

    def total_first(self, tracer: Tracer, name: str) -> int:
        """Tallied count ``name`` summed over the first traced round."""
        return sum(tracer.tally_of(b, name)[0] for b in self.first_traced)

    def count_first(self, tracer: Tracer, name: str) -> float:
        """Per-batch mean of tallied count ``name`` over the first traced round."""
        if not self.first_traced:
            return 0.0
        return self.total_first(tracer, name) / len(self.first_traced)

    def ratio_first(self, tracer: Tracer, num: str, den: str) -> float:
        bottom = self.total_first(tracer, den)
        return self.total_first(tracer, num) / bottom if bottom else 0.0


def _median_of(values: Sequence[float]) -> float:
    return median(list(values)) if values else 0.0


def _batch_ms_median(tracer: Tracer, name: str) -> float:
    """Median over traced batches of the per-batch total of span ``name``.

    Batches that made no such call count as zero.
    """
    per_batch = tracer.per_batch_ms(name)
    batches = {s.batch for s in tracer.by_name("batch")}
    return _median_of([per_batch.get(b, 0.0) for b in batches])


def _tally_ms_median(tracer: Tracer, name: str) -> float:
    batches = {s.batch for s in tracer.by_name("batch")}
    return _median_of([tracer.tally_of(b, name)[1] * 1e3 for b in batches])


# ---------------------------------------------------------------- store
def _trace_store(tracer: Tracer, store: PartitionedStore) -> None:
    """Spans around the batched store reads, with dedup counts."""

    def counted(result, args, kwargs):
        nodes = np.asarray(args[0])
        counts = kwargs.get("counts")
        occurrences = int(nodes.size if counts is None else np.sum(counts))
        tracer.tally(STORE_CALLS, 0.0)
        tracer.tally(STORE_OCCURRENCES, 0.0, occurrences)
        tracer.tally(STORE_UNIQUE, 0.0, int(nodes.size))

    tracer.wrap(store, "get_neighbors_batch", "memstore.store.get_neighbors_batch", after=counted)
    tracer.wrap(store, "get_attributes_batch", "memstore.store.get_attributes_batch", after=counted)


def _summary_counts(store: PartitionedStore) -> Tuple[int, int, int]:
    s = store.summary
    return s.total_bytes, s.remote_count, s.total_count


def _tally_summary(tracer: Tracer, before: Tuple[int, int, int], after: Tuple[int, int, int]) -> None:
    tracer.tally(STORE_BYTES, 0.0, after[0] - before[0])
    tracer.tally(STORE_REMOTE, 0.0, after[1] - before[1])
    tracer.tally(STORE_ACCESSES, 0.0, after[2] - before[2])


def _trace_selectors(tracer: Tracer) -> None:
    """Tally every call through the bucket-selector registry."""
    for key in list(selectors.BUCKET_SELECTORS):
        tracer.wrap(selectors.BUCKET_SELECTORS, key, "framework.selectors", tallied=True)


def _store_metrics(workload: Workload, tracer: Tracer) -> Dict[str, float]:
    return {
        "memstore.store.neighbors_ms": _batch_ms_median(tracer, "memstore.store.get_neighbors_batch"),
        "memstore.store.attributes_ms": _batch_ms_median(tracer, "memstore.store.get_attributes_batch"),
        "memstore.store.calls": workload.count_first(tracer, STORE_CALLS),
        "memstore.store.bytes": workload.count_first(tracer, STORE_BYTES),
        "memstore.store.dedup_ratio": workload.ratio_first(tracer, STORE_OCCURRENCES, STORE_UNIQUE),
        "memstore.store.remote_frac": workload.ratio_first(tracer, STORE_REMOTE, STORE_ACCESSES),
    }


def _sampler_self_ms(tracer: Tracer) -> float:
    """``MultiHopSampler.sample`` time minus its store spans and cache tallies."""
    children = tracer.children_of()
    values = []
    for span in tracer.by_name("framework.sampler.sample"):
        own = self_time(span, children.get(span.sid, []))
        values.append(own * 1e3 - tracer.tally_of(span.batch, "framework.cache")[1] * 1e3)
    return _median_of(values)


class _PickChecker:
    """Checks that every pick is a neighbor of its parent.

    Membership is tested against the sorted ``parent * n + neighbor``
    keys of the graph's edges. A parent of degree zero may only pick
    itself (the sampler's self-loop fallback).
    """

    def __init__(self, graph) -> None:
        self.n = graph.num_nodes
        self.degrees = np.diff(graph.indptr)
        parents = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        self.keys = np.sort(parents * self.n + graph.indices)

    def __call__(self, layers: Sequence[np.ndarray], fanouts: Sequence[int]) -> bool:
        for hop, fanout in enumerate(fanouts):
            parents = np.repeat(layers[hop].reshape(-1), fanout)
            # Sorted queries walk the key array in order: cheaper lookups.
            keys = np.sort(parents * self.n + layers[hop + 1].reshape(-1))
            pos = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
            missing = keys[self.keys[pos] != keys]
            parents, picks = missing // self.n, missing % self.n
            if not np.all((self.degrees[parents] == 0) & (picks == parents)):
                return False
        return True


# --------------------------------------------------------------- sample
class SampleWorkload(Workload):
    """Static ``ll`` graph, batched in-process sampler, uniform roots, no cache."""

    name = "sample"
    fanouts = (10, 10)
    pool_batches = 64

    def __init__(self, seed: int, sizes: Sizes, ledger: Ledger) -> None:
        super().__init__(seed, sizes, ledger)
        rng = np.random.default_rng([seed, 1])
        self.pool = rng.integers(
            0, sizes.nodes, size=(self.pool_batches, sizes.batch_roots), dtype=np.int64
        )
        self.graph = None
        self.checker: Optional[_PickChecker] = None

    def setup(self) -> None:
        t0 = time.perf_counter()
        self.graph = instantiate_dataset("ll", max_nodes=self.sizes.nodes, seed=self.seed)
        self.build_s.append(time.perf_counter() - t0)
        self.store = PartitionedStore(self.graph, HashPartitioner(4))
        self.sampler = MultiHopSampler(
            self.store, seed=self.seed, worker_partition=0, batched=True
        )

    def teardown(self) -> None:
        self.graph = self.store = self.sampler = None

    def _check(self, request: SampleRequest, result) -> bool:
        if self.checker is None:
            self.checker = _PickChecker(self.graph)
        if not self.checker(result.layers, request.fanouts):
            return False
        return all(
            np.array_equal(rows, np.take(self.graph.node_attr, layer, axis=0))
            for rows, layer in zip(result.attributes, result.layers)
        )

    def run_round(self, index: int, tracer: Optional[Tracer]) -> Round:
        sizes = self.sizes
        if tracer is not None:
            _trace_store(tracer, self.store)
            _trace_selectors(tracer)
            tracer.wrap(self.sampler, "sample", "framework.sampler.sample")
        batch_s = []
        try:
            for j in range(sizes.batches_per_round):
                roots = self.pool[(index * sizes.batches_per_round + j) % self.pool_batches]
                request = SampleRequest(roots=roots, fanouts=self.fanouts)
                root_sid = self.next_batch(tracer)
                if tracer is not None:
                    before = _summary_counts(self.store)
                t0 = time.perf_counter()
                result = self.ledger.run("sample batch", lambda: self.sampler.sample(request))
                batch_s.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.end(root_sid)
                    _tally_summary(tracer, before, _summary_counts(self.store))
                if result is not None and not self._check(request, result):
                    self.ledger.fail("sample batch")
        finally:
            if tracer is not None:
                tracer.unwrap_all()
        return Round(sizes.batch_roots * sizes.batches_per_round, batch_s)

    def final_checks(self) -> None:
        """One extra untimed batch's accounting equals the reference walk's."""

        def replay() -> bool:
            request = SampleRequest(roots=self.pool[0], fanouts=self.fanouts)
            store = PartitionedStore(self.graph, HashPartitioner(4))
            sampler = MultiHopSampler(store, seed=self.seed, worker_partition=0, batched=True)
            result = sampler.sample(request)
            reference = PartitionedStore(self.graph, HashPartitioner(4))
            replay_reference(result, request, reference, worker_partition=0)
            return reference.summary == store.summary

        self.ledger.check("replay accounting", bool(self.ledger.run("replay", replay)))

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        out = {
            "framework.sampler.self_ms": _sampler_self_ms(tracer),
            "framework.selectors.calls": self.count_first(tracer, "framework.selectors"),
            "framework.selectors.ms": _tally_ms_median(tracer, "framework.selectors"),
            "graph.build_s": _median_of(self.build_s),
        }
        out.update(_store_metrics(self, tracer))
        return out


# --------------------------------------------------------------- online
class OnlineWorkload(Workload):
    """Dynamic ``ll`` store: a mutation slice, then a cached Zipf read, per step.

    Every round replays the same trace on a fresh dynamic store, so the
    number of compactions and cache invalidations per round is fixed.
    """

    name = "online"
    fanouts = (10, 10)
    zipf_a = 1.3

    def __init__(self, seed: int, sizes: Sizes, ledger: Ledger) -> None:
        super().__init__(seed, sizes, ledger)
        steps, per = sizes.batches_per_round, sizes.mutations_per_step
        trace = growth_trace(sizes.nodes, steps * per, seed=seed)
        self.slices = [trace[i * per : (i + 1) * per] for i in range(steps)]
        self.added_nodes = sum(m.kind == NODE for m in trace)
        self.added_edges = sum(m.kind != NODE or m.attach_to is not None for m in trace)
        rng = np.random.default_rng([seed, 2])
        popularity = rng.permutation(sizes.nodes)
        ranks = (rng.zipf(self.zipf_a, size=(steps, sizes.batch_roots)) - 1) % sizes.nodes
        self.roots = popularity[ranks]
        self.graph = None
        self.fresh = False

    def setup(self) -> None:
        t0 = time.perf_counter()
        self.graph = instantiate_dataset("ll", max_nodes=self.sizes.nodes, seed=self.seed)
        self.build_s.append(time.perf_counter() - t0)
        self._new_stack()

    def _new_stack(self) -> None:
        # Every mutation of a growth trace adds one edge, so a threshold
        # of compact_every slices compacts on every compact_every-th step.
        threshold = self.sizes.compact_every * self.sizes.mutations_per_step
        self.dynamic = DynamicGraph(self.graph, compact_threshold=threshold)
        self.store = DynamicPartitionedStore(self.dynamic, HashPartitioner(4))
        self.cache = HotNodeCache(self.sizes.cache_nodes)
        self.store.register_cache(self.cache)
        self.sampler = MultiHopSampler(
            self.store, seed=self.seed, cache=self.cache, worker_partition=0, batched=True
        )
        self.fresh = True

    def teardown(self) -> None:
        self.graph = self.dynamic = self.store = self.cache = self.sampler = None

    def _counters(self) -> Tuple[int, ...]:
        stats = self.store.ingest_stats
        return (
            stats.cache_invalidations,
            stats.delta_hits,
            stats.compactions,
            self.cache.hits,
            self.cache.hits + self.cache.misses,
        ) + _summary_counts(self.store)

    def _trace(self, tracer: Tracer) -> None:
        _trace_store(tracer, self.store)
        _trace_selectors(tracer)
        tracer.wrap(self.store, "apply", "memstore.ingest.apply")
        tracer.wrap(self.dynamic, "compact", "graph.dynamic.compact")
        tracer.wrap(self.sampler, "sample", "framework.sampler.sample")
        for attr in ("get_neighbors", "put_neighbors", "get_attributes", "put_attributes"):
            tracer.wrap(self.cache, attr, "framework.cache", tallied=True)

    def run_round(self, index: int, tracer: Optional[Tracer]) -> Round:
        if not self.fresh:
            self._new_stack()
        self.fresh = False
        if tracer is not None:
            self._trace(tracer)
        batch_s: List[float] = []
        compacted: List[bool] = []
        try:
            for step, mutations in enumerate(self.slices):
                request = SampleRequest(roots=self.roots[step], fanouts=self.fanouts)
                root_sid = self.next_batch(tracer)
                if tracer is not None:
                    before = self._counters()
                compactions = self.dynamic.compactions

                def serve():
                    self.store.apply(mutations)
                    return self.sampler.sample(request)

                t0 = time.perf_counter()
                result = self.ledger.run("online step", serve)
                batch_s.append(time.perf_counter() - t0)
                compacted.append(self.dynamic.compactions != compactions)
                if tracer is not None:
                    tracer.end(root_sid)
                    self._tally(tracer, before, self._counters())
                if result is not None and len(self.store.last_sample_epochs) != 1:
                    self.ledger.fail("online step")
        finally:
            if tracer is not None:
                tracer.unwrap_all()
        self.ledger.check(
            "online final counts",
            self.dynamic.num_edges == self.graph.num_edges + self.added_edges
            and self.dynamic.num_nodes == self.graph.num_nodes + self.added_nodes,
        )
        return Round(self.sizes.batch_roots * len(self.slices), batch_s, compacted)

    @staticmethod
    def _tally(tracer: Tracer, before: Tuple[int, ...], after: Tuple[int, ...]) -> None:
        names = (
            "memstore.ingest.invalidations",
            "memstore.ingest.delta_hits",
            "memstore.ingest.compactions",
            "framework.cache.hits",
            "framework.cache.probes",
        )
        for i, name in enumerate(names):
            tracer.tally(name, 0.0, after[i] - before[i])
        _tally_summary(tracer, before[len(names) :], after[len(names) :])

    def final_checks(self) -> None:
        """Per-step and per-round checks run inside :meth:`run_round`."""

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        out = {
            "framework.sampler.self_ms": _sampler_self_ms(tracer),
            "framework.selectors.calls": self.count_first(tracer, "framework.selectors"),
            "framework.selectors.ms": _tally_ms_median(tracer, "framework.selectors"),
            "framework.cache.hit_ratio": self.ratio_first(
                tracer, "framework.cache.hits", "framework.cache.probes"
            ),
            "framework.cache.ms": _tally_ms_median(tracer, "framework.cache"),
            "memstore.ingest.apply_ms": _median_of(
                [s.duration * 1e3 for s in tracer.by_name("memstore.ingest.apply")]
            ),
            "memstore.ingest.compactions": self.total_first(
                tracer, "memstore.ingest.compactions"
            ),
            "memstore.ingest.invalidations": self.count_first(
                tracer, "memstore.ingest.invalidations"
            ),
            "memstore.ingest.delta_hits": self.count_first(tracer, "memstore.ingest.delta_hits"),
            "graph.dynamic.compact_ms": _median_of(
                [s.duration * 1e3 for s in tracer.by_name("graph.dynamic.compact")]
            ),
            "graph.build_s": _median_of(self.build_s),
        }
        out.update(_store_metrics(self, tracer))
        return out


# ---------------------------------------------------------------- train
def _shm_segments() -> set:
    """POSIX shared-memory segment names currently on the host."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class TrainWorkload(Workload):
    """Pipelined trainer, one shard worker, neighborhood cache off.

    The worker samples micro-batch k+1 while the coordinator trains
    micro-batch k. A micro-batch completes when the encoder's optimizer
    step returns; batch times are the intervals between completions as
    the coordinator sees them.
    """

    name = "train"
    fanouts = (10, 5)
    dims = 16
    depth = 2
    workers = 1
    #: Epochs replayed untimed at ``workers=0`` for the parity check.
    reference_epochs = 3

    def __init__(self, seed: int, sizes: Sizes, ledger: Ledger) -> None:
        super().__init__(seed, sizes, ledger)
        rng = np.random.default_rng([seed, 3])
        self.labels = (rng.random((sizes.nodes, sizes.labels)) < 0.3).astype(np.float32)
        self.roots = rng.permutation(sizes.nodes)[: sizes.batch_roots * sizes.batches_per_round]
        self.losses: List[float] = []
        self.digest = ""
        self.trainer: Optional[PipelinedTrainer] = None
        self.engine: Optional[ParallelSampler] = None
        self.shm_before = _shm_segments()

    def _trainer(self, store: PartitionedStore, engine: Optional[ParallelSampler]) -> PipelinedTrainer:
        return PipelinedTrainer(
            store,
            self.labels,
            self.fanouts,
            embedding_dim=self.dims,
            hidden_dim=self.dims,
            seed=self.seed,
            # Used only without an engine: the workers=0 reference run.
            workers=0,
            pipeline_depth=self.depth,
            batch_size=self.sizes.batch_roots,
            engine=engine,
        )

    def setup(self) -> None:
        t0 = time.perf_counter()
        self.graph = power_law_graph(
            self.sizes.nodes, self.sizes.avg_degree, attr_len=0, seed=self.seed
        )
        self.build_s.append(time.perf_counter() - t0)
        self.store = PartitionedStore(self.graph, HashPartitioner(4))
        self.engine = ParallelSampler(
            self.store, workers=self.workers, seed=self.seed, slots=self.depth
        )
        t1 = time.perf_counter()
        self.engine.reserve(self.sizes.batch_roots, self.fanouts)
        self.pool_start_s.append(time.perf_counter() - t1)
        self.trainer = self._trainer(self.store, self.engine)

    def teardown(self) -> None:
        if self.trainer is not None:
            self.trainer.close()
            self.trainer = None
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def _trace(self, tracer: Tracer) -> None:
        trainer = self.trainer

        def result_bytes(result, args, kwargs):
            tracer.tally(
                "parallel.engine.result_bytes", 0.0, sum(l.nbytes for l in result.layers[1:])
            )

        def rows(result, args, kwargs):
            tracer.tally("gnn.embedding.rows", 0.0, int(np.unique(args[0]).size))

        tracer.wrap(self.engine, "submit", "parallel.engine.submit")
        tracer.wrap(self.engine, "collect", "parallel.engine.collect", after=result_bytes)
        tracer.wrap(trainer.embeddings, "lookup", "gnn.embedding.lookup", after=rows)
        tracer.wrap(trainer.embeddings, "accumulate_grad", "gnn.embedding.scatter")
        tracer.wrap(trainer.embeddings, "step", "gnn.embedding.step")
        tracer.wrap(trainer.encoder, "forward_backward", "gnn.models.forward_backward")
        tracer.wrap(trainer.head, "step", "gnn.layers.step")

    def run_round(self, index: int, tracer: Optional[Tracer]) -> Round:
        encoder = self.trainer.encoder
        stamps: List[float] = []
        state = {"sid": None, "summary": None}

        def complete(*_args) -> None:
            stamps.append(time.perf_counter())
            if tracer is None:
                return
            tracer.end(state["sid"])
            now = _summary_counts(self.store)
            _tally_summary(tracer, state["summary"], now)
            state["summary"] = now
            if len(stamps) < self.sizes.batches_per_round:
                state["sid"] = self.next_batch(tracer)

        if tracer is None:
            step = encoder.step

            def timed_step(lr: float) -> None:
                step(lr)
                complete()

            encoder.step = timed_step
        else:
            self._trace(tracer)
            tracer.wrap(encoder, "step", "gnn.layers.step", after=complete)
            state["summary"] = _summary_counts(self.store)
            state["sid"] = self.next_batch(tracer)
        try:
            t0 = time.perf_counter()
            loss = self.ledger.run(
                "train epoch",
                lambda: self.trainer.train_epoch(self.roots),
                ops=self.sizes.batches_per_round,
            )
        finally:
            if tracer is None:
                del encoder.step
            else:
                tracer.unwrap_all()
        if loss is not None:
            self.losses.append(loss)
        if index == self.reference_epochs - 1:
            self.digest = self.trainer.weights_digest()
        times = [t0] + stamps
        batch_s = [b - a for a, b in zip(times, times[1:])]
        return Round(self.sizes.batch_roots * len(batch_s), batch_s)

    def final_checks(self) -> None:
        """Loss trajectory and weights match ``workers=0``; no shm leak."""

        def reference() -> bool:
            store = PartitionedStore(self.graph, HashPartitioner(4))
            with self._trainer(store, None) as ref:
                losses = [ref.train_epoch(self.roots) for _ in range(self.reference_epochs)]
                digest = ref.weights_digest()
            return losses == self.losses[: self.reference_epochs] and digest == self.digest

        self.ledger.check("workers=0 parity", bool(self.ledger.run("reference run", reference)))
        self.teardown()
        self.ledger.check("shared memory released", not (_shm_segments() - self.shm_before))

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        children = tracer.children_of()
        compute_names = {
            "gnn.embedding.lookup",
            "gnn.embedding.scatter",
            "gnn.embedding.step",
            "gnn.models.forward_backward",
            "gnn.layers.step",
        }
        shares = []
        for span in tracer.by_name("batch"):
            busy = sum(c.duration for c in children.get(span.sid, []) if c.name in compute_names)
            shares.append(busy / span.duration)
        return {
            "graph.build_s": _median_of(self.build_s),
            "parallel.engine.pool_start_s": _median_of(self.pool_start_s),
            "parallel.engine.submit_ms": _median_of(
                [s.duration * 1e3 for s in tracer.by_name("parallel.engine.submit")]
            ),
            "parallel.engine.wait_ms": _batch_ms_median(tracer, "parallel.engine.collect"),
            "parallel.engine.result_bytes": self.count_first(tracer, "parallel.engine.result_bytes"),
            "memstore.store.bytes": self.count_first(tracer, STORE_BYTES),
            "memstore.store.remote_frac": self.ratio_first(tracer, STORE_REMOTE, STORE_ACCESSES),
            "gnn.embedding.lookup_ms": _batch_ms_median(tracer, "gnn.embedding.lookup"),
            "gnn.embedding.scatter_ms": _batch_ms_median(tracer, "gnn.embedding.scatter"),
            "gnn.embedding.step_ms": _batch_ms_median(tracer, "gnn.embedding.step"),
            "gnn.embedding.rows": self.count_first(tracer, "gnn.embedding.rows"),
            "gnn.models.fwd_bwd_ms": _batch_ms_median(tracer, "gnn.models.forward_backward"),
            "gnn.layers.step_ms": _batch_ms_median(tracer, "gnn.layers.step"),
            "gnn.pipeline.compute_share": _median_of(shares),
        }


WORKLOADS = {w.name: w for w in (SampleWorkload, OnlineWorkload, TrainWorkload)}
