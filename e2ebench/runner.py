"""One benchmark run: set-ups, warm-up, measured rounds, checks, metrics."""

from __future__ import annotations

import os
import time
from typing import Dict, List, Mapping, Optional, Tuple

from e2ebench.harness import (
    Ledger,
    median,
    peak_rss_mb,
    percentile,
    samples_beyond,
)
from e2ebench.tracer import Tracer
from e2ebench.workloads import (
    FULL,
    MIN_BATCHES,
    PER_LAYER,
    SETUP_REPEATS,
    TAIL_PCT,
    WORKLOADS,
    Round,
    Sizes,
)

#: The measured rounds stop after this much wall time even when the tail
#: percentile has too few samples, so a run always ends within 180 s.
WALL_CAP_S = 120.0

END_TO_END_UNITS = {
    "roots_per_s": "roots/s",
    "batch_p50_ms": "ms",
    "batch_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def measure_rounds(workload, seconds: float, tracer: Optional[Tracer]) -> Tuple[List[Round], List[Round]]:
    """Measured rounds until ``seconds`` of batch time; (plain, traced)."""
    plain: List[Round] = []
    traced: List[Round] = []
    timed = 0.0
    start = time.perf_counter()
    index = 1  # round 0 was the warm-up
    while True:
        use_tracer = tracer is not None and index % 2 == 0
        workload.recording_first = use_tracer and not traced
        rnd = workload.run_round(index, tracer if use_tracer else None)
        workload.recording_first = False
        (traced if use_tracer else plain).append(rnd)
        timed += sum(rnd.batch_s)
        index += 1
        if tracer is None:
            enough = sum(len(r.batch_s) for r in plain) >= MIN_BATCHES
        else:
            enough = bool(traced)
        if (timed >= seconds and enough) or time.perf_counter() - start > WALL_CAP_S:
            return plain, traced


def execute(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Mapping[str, Sizes] = FULL,
    trace_dir: Optional[str] = None,
) -> Tuple[dict, Dict[str, object]]:
    """Run workload ``name``; returns (result line, informational fields)."""
    ledger = Ledger()
    workload = WORKLOADS[name](seed, sizes[name], ledger)
    tracer = Tracer() if trace else None
    setup_s: List[float] = []
    try:
        for i in range(SETUP_REPEATS):
            if i:
                workload.teardown()
            t0 = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - t0)
        workload.run_round(0, None)
        plain, traced = measure_rounds(workload, seconds, tracer)
        workload.final_checks()
    finally:
        workload.teardown()

    rates = [r.rate for r in plain]
    batch_ms = [s * 1e3 for r in plain for s in r.batch_s]
    info: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "rounds": len(plain),
        "batches": len(batch_ms),
        "tail_pct": TAIL_PCT,
        "beyond_tail": samples_beyond(len(batch_ms), TAIL_PCT),
        "setup_s_all": setup_s,
        "errors": ledger.errors,
    }
    tail_ms = percentile(batch_ms, TAIL_PCT)
    if plain[0].compacted is not None:
        flags = [c for r in plain for c in r.compacted]
        slowest = sorted(zip(batch_ms, flags), reverse=True)
        info["compaction_share"] = sum(flags) / len(flags)
        info["tail_step_compacted"] = slowest[info["beyond_tail"]][1]
    if tracer is None:
        values = {
            "roots_per_s": median(rates),
            "batch_p50_ms": median(batch_ms),
            "batch_tail_ms": tail_ms,
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": median(setup_s),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        traced_rate = median([r.rate for r in traced])
        layers = workload.layer_metrics(tracer)
        layers["trace.overhead_pct"] = (median(rates) - traced_rate) / median(rates) * 100.0
        info["untraced_roots_per_s"] = median(rates)
        info["traced_roots_per_s"] = traced_rate
        metrics = {
            metric: {"value": float(layers.get(metric, 0.0)), "unit": unit}
            for metric, unit in PER_LAYER
        }
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
            path = os.path.join(trace_dir, f"trace-{name}-seed{seed}.json")
            tracer.write_chrome_trace(path, {"workload": name, "seed": seed})
            info["trace_path"] = path
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    return result, info
