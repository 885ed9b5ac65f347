import os

import pytest

from e2ebench.harness import (
    Ledger,
    median,
    min_samples_for,
    percentile,
    samples_beyond,
)
from e2ebench.runner import measure_rounds
from e2ebench.tracer import Tracer
from e2ebench.workloads import Round


@pytest.mark.parametrize(
    "n, pct, beyond",
    [
        (200, 95.0, 10),
        (199, 95.0, 9),
        (100, 90.0, 10),
        (1000, 99.0, 10),
        (48, 95.0, 2),
        (1, 50.0, 0),
        (0, 95.0, 0),
    ],
)
def test_samples_beyond(n, pct, beyond):
    assert samples_beyond(n, pct) == beyond


def test_min_samples_for_is_the_first_count_with_ten_beyond():
    for pct in (50.0, 90.0, 95.0, 98.0, 99.0):
        n = min_samples_for(pct)
        assert samples_beyond(n, pct) >= 10
        assert samples_beyond(n - 1, pct) < 10
    assert min_samples_for(95.0) == 200


class FakeWorkload:
    """Instant rounds of 7 batches; records which rounds were traced."""

    def __init__(self):
        self.traced = []
        self.recording_first = False

    def run_round(self, index, tracer):
        self.traced.append(tracer is not None)
        return Round(roots=7, batch_s=[1e-6] * 7)


def test_a_run_continues_until_the_tail_has_ten_samples_beyond():
    workload = FakeWorkload()
    plain, traced = measure_rounds(workload, seconds=0.0, tracer=None)
    batches = sum(len(r.batch_s) for r in plain)
    assert batches >= 200 and batches - 7 < 200
    assert samples_beyond(batches, 95.0) >= 10
    assert traced == [] and not any(workload.traced)


def test_a_traced_run_alternates_plain_and_traced_rounds():
    workload = FakeWorkload()
    plain, traced = measure_rounds(workload, seconds=0.0, tracer=Tracer())
    assert (len(plain), len(traced)) == (1, 1)
    assert workload.traced == [False, True]


def test_percentile_is_a_measured_value():
    values = list(range(1, 201))
    assert percentile(values, 95.0) == 190
    assert sum(v > percentile(values, 95.0) for v in values) == samples_beyond(200, 95.0)
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5


def test_ledger_counts_a_raising_operation_as_failed():
    ledger = Ledger()

    def boom():
        raise ValueError("broken batch")

    assert ledger.run("ok", lambda: 7) == 7
    assert ledger.run("bad", boom) is None
    assert ledger.run("epoch", boom, ops=4) is None
    assert ledger.check("output", False) is False
    assert ledger.check("output", True) is True
    assert (ledger.attempted, ledger.failed) == (8, 6)
    assert not ledger.correct
    assert "broken batch" in ledger.errors[0]


def test_empty_ledger_is_not_correct():
    assert not Ledger().correct


def test_stop_child_processes_stops_the_resource_tracker():
    from multiprocessing import resource_tracker, shared_memory

    from e2ebench.harness import stop_child_processes

    block = shared_memory.SharedMemory(create=True, size=64)
    block.close()
    block.unlink()
    tracker = resource_tracker._resource_tracker
    pid = tracker._pid
    assert pid is not None
    stop_child_processes()
    assert tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
