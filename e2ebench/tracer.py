"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files by wrapping public
calls of the program on the objects a workload built (see
:meth:`Tracer.wrap`). A span has a name, start, end, parent and batch
id. Calls made thousands of times per batch are tallied (count and
total time per batch) instead of kept as spans. Nothing is written
until :meth:`Tracer.write_chrome_trace` at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed call; times are ``perf_counter`` seconds."""

    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    batch: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``.

    Each interval is clipped to ``[lo, hi]`` and overlapping intervals
    are merged, so a stretch covered twice counts once.
    """
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    run_lo, run_hi = None, None
    for a, b in clipped:
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_time(span: Span, children: Sequence[Span]) -> float:
    """The span's duration minus the part its children cover."""
    return span.duration - covered(
        ((c.start, c.end) for c in children), span.start, span.end
    )


class Tracer:
    """Span stack, per-batch tallies and the wrappers that feed them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.batch = -1
        self._stack: List[int] = []
        #: (batch, name) -> [calls, seconds]
        self.tallies: Dict[Tuple[int, str], List[float]] = defaultdict(
            lambda: [0, 0.0]
        )
        self._patched: List[Tuple[object, str, bool, object]] = []

    # ------------------------------------------------------------ spans
    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, name, self.clock(), 0.0, parent, self.batch))
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed out of order (open: {popped})")
        self.spans[sid].end = self.clock()

    def start_batch(self, batch: int) -> int:
        """Open the root span of one batch; returns its span id."""
        self.batch = batch
        return self.begin("batch")

    # ---------------------------------------------------------- tallies
    def tally(self, name: str, seconds: float, calls: int = 1) -> None:
        entry = self.tallies[(self.batch, name)]
        entry[0] += calls
        entry[1] += seconds

    def tally_of(self, batch: int, name: str) -> Tuple[int, float]:
        calls, seconds = self.tallies.get((batch, name), (0, 0.0))
        return int(calls), float(seconds)

    # --------------------------------------------------------- wrapping
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        tallied: bool = False,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a recording wrapper until :meth:`unwrap_all`.

        ``owner`` is an instance (the wrapper shadows the class method
        on that object only) or a dict (a registry entry is replaced).
        ``after(result, args, kwargs)`` runs once the call returned,
        outside its timing, to count work done.
        """
        if isinstance(owner, dict):
            original = owner[attr]
            had_own = True
        else:
            had_own = attr in vars(owner)
            original = getattr(owner, attr)
        clock = self.clock

        if tallied:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                t0 = clock()
                result = original(*args, **kwargs)
                self.tally(name, clock() - t0)
                if after is not None:
                    after(result, args, kwargs)
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                sid = self.begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.end(sid)
                if after is not None:
                    after(result, args, kwargs)
                return result

        if isinstance(owner, dict):
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, had_own, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, had_own, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            elif had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ---------------------------------------------------------- queries
    def children_of(self) -> Dict[Optional[int], List[Span]]:
        out: Dict[Optional[int], List[Span]] = defaultdict(list)
        for span in self.spans:
            out[span.parent].append(span)
        return out

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def per_batch_ms(self, name: str) -> Dict[int, float]:
        """Total milliseconds of spans called ``name``, per batch."""
        out: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.name == name:
                out[span.batch] += span.duration * 1e3
        return out

    # ----------------------------------------------------------- export
    def chrome_trace(self, metadata: Optional[dict] = None) -> dict:
        """Chrome trace-event JSON (Perfetto and chrome://tracing open it).

        Spans become complete (``X``) events in microseconds from the
        first span; per-batch tallies become counter (``C``) events at
        the start of their batch.
        """
        origin = min((s.start for s in self.spans), default=0.0)
        events: List[dict] = []
        for span in self.spans:
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": {"sid": span.sid, "parent": span.parent, "batch": span.batch},
                }
            )
        batch_start = {s.batch: s.start for s in reversed(self.spans) if s.name == "batch"}
        for (batch, name), (calls, seconds) in sorted(self.tallies.items()):
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "ts": (batch_start.get(batch, origin) - origin) * 1e6,
                    "pid": 1,
                    "args": {"calls": int(calls), "ms": seconds * 1e3},
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": metadata or {},
        }

    def write_chrome_trace(self, path: str, metadata: Optional[dict] = None) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(metadata), fh)
