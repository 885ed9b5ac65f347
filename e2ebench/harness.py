"""Statistics, the attempted/failed ledger and the host fingerprint.

Everything here is independent of the program under test, so the unit
tests in ``e2ebench/tests`` can check it without building a graph.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

#: Thread-pool variables pinned to one thread before numpy is imported.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: A tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10

T = TypeVar("T")


def pin_thread_pools() -> Dict[str, str]:
    """Set every BLAS/OpenMP pool to one thread, unless already set.

    Must run before numpy is first imported: the pools size themselves
    when the shared library loads. Returns the effective settings.
    """
    for name in THREAD_ENV:
        os.environ.setdefault(name, "1")
    return {name: os.environ[name] for name in THREAD_ENV}


def samples_beyond(n: int, pct: float) -> int:
    """Samples strictly above the ``pct`` percentile of ``n`` samples.

    The percentile is the nearest-rank value: the ``ceil(pct/100 * n)``-th
    smallest sample. Everything ranked after it lies beyond.
    """
    if n <= 0:
        return 0
    rank = max(1, math.ceil(pct / 100.0 * n - 1e-9))
    return n - rank


def min_samples_for(pct: float) -> int:
    """Fewest samples for which ``pct`` leaves ``MIN_BEYOND`` beyond it."""
    n = MIN_BEYOND
    while samples_beyond(n, pct) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (a value that was actually measured)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Median; the mean of the two middle values for an even count."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


@dataclass
class Ledger:
    """Attempted and failed operations, plus the reason for each failure.

    Every timed batch is one operation, and so is every whole-run output
    check. A batch that raises or fails its output check counts once.
    """

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def run(self, what: str, op: Callable[[], T], ops: int = 1) -> Optional[T]:
        """Run ``op`` as ``ops`` operations; a raised error fails them all."""
        self.attempted += ops
        try:
            return op()
        except Exception:  # the benchmark reports every failure and goes on
            self.failed += ops
            self.errors.append(f"{what}: {traceback.format_exc(limit=4)}")
            return None

    def check(self, what: str, ok: bool) -> bool:
        """Record one output check as an operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{what}: output check failed")
        return ok

    def fail(self, what: str) -> None:
        """Mark an operation already counted by :meth:`run` as failed."""
        self.failed += 1
        self.errors.append(f"{what}: output check failed")

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its joined children, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def stop_child_processes(timeout: float = 10.0) -> None:
    """Join every multiprocessing child, then stop the resource tracker.

    Creating POSIX shared memory starts multiprocessing's resource
    tracker, a helper process that otherwise ends only after this
    interpreter has exited and so outlives the run. Stopping it here
    waits for it to end, so the benchmark leaves no process behind.
    """
    for proc in multiprocessing.active_children():
        proc.join(timeout)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout)
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def git_rev(root: str) -> str:
    """The checkout's git revision, or ``"unknown"`` outside a git tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            # Do not search above the checkout for a repository.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_fingerprint(root: str, threads: Dict[str, str]) -> Dict[str, object]:
    """Cores, interpreter, numpy, thread pools and revision of one run."""
    import numpy

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return {
        "cores": cores,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "thread_pools": threads,
        "git_rev": git_rev(root),
    }
