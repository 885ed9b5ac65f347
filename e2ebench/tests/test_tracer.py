import json

import pytest

from e2ebench.tracer import Span, Tracer, covered, self_time


def spans_from_chrome(trace):
    """Rebuild the spans of a :meth:`Tracer.chrome_trace` document.

    Times come back in seconds from the first span.
    """
    spans = []
    for event in trace["traceEvents"]:
        if event.get("ph") != "X":
            continue
        args = event["args"]
        start = event["ts"] / 1e6
        spans.append(
            Span(
                args["sid"],
                event["name"],
                start,
                start + event["dur"] / 1e6,
                args["parent"],
                args["batch"],
            )
        )
    return sorted(spans, key=lambda s: s.sid)


def span(sid, start, end, parent=None, name="x"):
    return Span(sid, name, start, end, parent, 0)


def test_self_time_without_children_is_duration():
    assert self_time(span(0, 1.0, 3.0), []) == pytest.approx(2.0)


def test_self_time_merges_overlapping_children():
    parent = span(0, 0.0, 10.0)
    children = [span(1, 1.0, 4.0, 0), span(2, 3.0, 6.0, 0), span(3, 8.0, 9.0, 0)]
    # Union of [1,4] and [3,6] is [1,6]; plus [8,9]: 6 covered.
    assert self_time(parent, children) == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    parent = span(0, 2.0, 5.0)
    children = [span(1, 0.0, 3.0, 0), span(2, 4.5, 7.0, 0), span(3, 6.0, 8.0, 0)]
    assert self_time(parent, children) == pytest.approx(3.0 - 1.0 - 0.5)


def test_nested_children_are_covered_once():
    assert covered([(1.0, 5.0), (2.0, 3.0), (2.5, 4.0)], 0.0, 10.0) == pytest.approx(4.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class Store:
    def read(self, x):
        return x * 2

    def probe(self, x):
        return x


def test_wrapped_calls_become_nested_spans_and_tallies():
    tracer = Tracer(clock=FakeClock())
    store = Store()
    tracer.wrap(store, "read", "store.read")
    tracer.wrap(store, "probe", "cache.probe", tallied=True)
    root = tracer.start_batch(0)
    assert store.read(3) == 6
    assert store.probe(1) == 1
    assert store.probe(2) == 2
    tracer.end(root)
    batch, read = tracer.spans
    assert read.parent == batch.sid and read.batch == 0
    assert tracer.tally_of(0, "cache.probe") == (2, 2.0)
    tracer.unwrap_all()
    assert "read" not in vars(store) and "probe" not in vars(store)


def test_wrap_of_a_registry_entry_is_restored():
    registry = {"f": lambda v: v + 1}
    original = registry["f"]
    tracer = Tracer()
    tracer.wrap(registry, "f", "registry.f", tallied=True)
    tracer.batch = 5
    assert registry["f"](1) == 2
    assert tracer.tally_of(5, "registry.f")[0] == 1
    tracer.unwrap_all()
    assert registry["f"] is original


def test_spans_must_close_in_order():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_chrome_trace_round_trip(tmp_path):
    tracer = Tracer(clock=FakeClock())
    store = Store()
    tracer.wrap(store, "read", "store.read")
    for batch in range(3):
        root = tracer.start_batch(batch)
        stage = tracer.begin("stage")
        store.read(batch)
        tracer.end(stage)
        tracer.tally("selector", 0.25, 4)
        tracer.end(root)
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(str(path), {"workload": "unit"})
    document = json.loads(path.read_text())
    assert document["otherData"] == {"workload": "unit"}
    assert {e["ph"] for e in document["traceEvents"]} == {"X", "C"}
    rebuilt = spans_from_chrome(document)
    origin = tracer.spans[0].start
    assert len(rebuilt) == len(tracer.spans)
    for got, want in zip(rebuilt, tracer.spans):
        assert (got.sid, got.name, got.parent, got.batch) == (want.sid, want.name, want.parent, want.batch)
        assert got.start == pytest.approx(want.start - origin)
        assert got.duration == pytest.approx(want.duration)
    counters = [e for e in document["traceEvents"] if e["ph"] == "C"]
    assert [c["args"] for c in counters] == [{"calls": 4, "ms": 250.0}] * 3
