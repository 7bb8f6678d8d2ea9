"""Unit tests of the benchmark's own arithmetic: latency from the due
time, self time by subtracting child spans, and the capacity ladder."""

import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench.layers import queue_waits, train_steps  # noqa: E402
from perfbench.loadgen import (  # noqa: E402
    RungResult,
    block_p99,
    due_latency_ms,
    max_passing_rate,
    poisson_offsets,
    run_schedule,
    rung_passes,
)
from perfbench.spans import Span, Target, Tracer, covered, install, self_times  # noqa: E402


# ----------------------------------------------------------------------
# Latency from the due time
# ----------------------------------------------------------------------
def test_latency_counts_from_due_time_not_send_time():
    due = np.array([10.000, 10.010, 10.020])
    sent = np.array([10.000, 10.015, 10.019])  # 2nd late by 5 ms, 3rd early
    done = np.array([10.004, 10.020, 10.030])
    latency, lateness = due_latency_ms(due, sent, done)
    np.testing.assert_allclose(latency, [4.0, 10.0, 10.0])
    np.testing.assert_allclose(lateness, [0.0, 5.0, 0.0], atol=1e-9)


def test_a_stall_is_charged_to_every_request_it_delayed():
    # One sender, requests due every 10 ms, the first takes 35 ms:
    # the next three go out late and their latency includes the wait.
    offsets = np.array([0.0, 0.010, 0.020, 0.030, 0.100])
    costs = [0.035, 0.0, 0.0, 0.0, 0.0]

    def send(i):
        time.sleep(costs[i])
        return i

    outcome = run_schedule(offsets, send, senders=1)
    latency = outcome.latency_ms()
    lateness = outcome.lateness_ms()
    assert outcome.attempted == 5 and outcome.failed == 0
    assert latency[0] >= 35.0
    assert latency[1] >= 25.0 and lateness[1] >= 25.0
    assert latency[3] >= 5.0
    assert lateness[4] < 5.0
    assert outcome.results == [0, 1, 2, 3, 4]


def test_schedule_is_seeded_and_failures_are_counted():
    a = poisson_offsets(100.0, 50, np.random.default_rng(3))
    b = poisson_offsets(100.0, 50, np.random.default_rng(3))
    np.testing.assert_array_equal(a, b)
    assert np.all(np.diff(a) > 0)

    def send(i):
        if i % 2:
            raise RuntimeError("boom")
        return i

    outcome = run_schedule(np.linspace(0, 0.02, 6), send, senders=2)
    assert outcome.attempted == 6
    assert outcome.failed == 3
    assert outcome.failures[1] == "RuntimeError"


def test_generator_drops_the_rest_once_far_behind():
    offsets = np.array([0.0, 0.001, 0.002, 0.003])

    def send(i):
        time.sleep(0.05)

    outcome = run_schedule(offsets, send, senders=1, abort_late_s=0.02)
    assert outcome.unsent >= 2
    assert outcome.attempted + outcome.unsent == 4


# ----------------------------------------------------------------------
# The max_rps ladder
# ----------------------------------------------------------------------
def test_block_p99_is_the_median_of_block_tails():
    calm = np.full(100, 5.0)
    stalled = calm.copy()
    stalled[40:60] = 80.0  # one stall hits 20 consecutive requests
    assert block_p99([calm, stalled, calm]) == pytest.approx(5.0)
    assert np.percentile(np.concatenate([calm, stalled, calm]), 99) == pytest.approx(80.0)
    slow_tail = calm.copy()
    slow_tail[-3:] = 40.0
    assert block_p99([slow_tail, slow_tail, calm]) > 30.0
    assert np.isnan(block_p99([]))


def test_rung_passes_on_p99_failures_and_backlog():
    fast = [np.full(100, 5.0), np.full(100, 5.0)]
    on_time = np.zeros(200)
    assert rung_passes(fast, on_time, failed=0, unsent=0, limit_ms=25.0)
    slow = [np.r_[np.full(97, 5.0), np.full(3, 40.0)]] * 2  # 3% over the limit
    assert not rung_passes(slow, on_time, 0, 0, 25.0)
    assert not rung_passes(fast, on_time, failed=1, unsent=0, limit_ms=25.0)
    assert not rung_passes(fast, on_time, failed=0, unsent=4, limit_ms=25.0)
    growing = np.linspace(0.0, 60.0, 200)  # lateness climbing to the end
    assert not rung_passes(fast, growing, 0, 0, 25.0)
    assert not rung_passes([np.array([])], np.array([]), 0, 0, 25.0)


def test_max_rps_is_the_highest_passing_rung():
    def rung(rate, passed):
        return RungResult(rate, 0.0, 0.0, 0, 0, 100, passed)

    assert max_passing_rate([rung(100, True), rung(250, False), rung(200, True)]) == 200
    # A noisy miss below a passing rate does not cap the result.
    assert max_passing_rate([rung(100, False), rung(250, True), rung(300, False)]) == 250
    assert max_passing_rate([rung(100, False)]) == 0.0


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
def span(sid, parent, start, end, name="x"):
    return Span(sid, parent, name, start, end, 0, None, None)


def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert covered([(1.0, 2.0), (1.5, 3.0), (5.0, 6.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([(-1.0, 1.0), (9.0, 11.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered([], 0.0, 1.0) == 0.0


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),
        span(3, 2, 2.0, 3.0),  # grandchild: inside 2, not subtracted from 1 again
        span(4, 1, 5.0, 9.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(4.0)
    assert sum(selfs.values()) == pytest.approx(10.0)


class _Toy:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        time.sleep(0.002)
        return n

    def items(self, n):
        yield from range(n)


def test_install_records_parents_requests_and_restores():
    original_outer = _Toy.__dict__["outer"]
    tracer = Tracer()
    undo = install(tracer, [
        Target(__name__, "_Toy.outer", "core.outer"),
        Target(__name__, "_Toy.inner", "nn.inner", lambda args, out: {"n": out}),
    ])
    try:
        tracer.set_request(7)
        assert _Toy().outer(3) == 4
        tracer.set_request(None)
        worker = threading.Thread(target=_Toy().inner, args=(1,))
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
    finally:
        undo()
    assert _Toy.__dict__["outer"] is original_outer
    inner, outer, other = tracer.spans
    assert (outer.name, inner.name) == ("core.outer", "nn.inner")
    assert inner.parent == outer.sid and outer.parent is None
    assert inner.request == outer.request == 7
    assert inner.attrs == {"n": 3}
    assert other.parent is None and other.request is None
    assert self_times(tracer.spans)[outer.sid] < outer.duration


def test_generator_target_clocks_items_and_alternates_tracing():
    tracer = Tracer()
    undo = install(tracer, [Target(__name__, "_Toy.items", "data.item", generator=True)])
    try:
        tracer.alternate = True
        seen = []
        for item in _Toy().items(4):
            seen.append((item, tracer.enabled))
    finally:
        undo()
    assert seen == [(0, True), (1, False), (2, True), (3, False)]
    assert tracer.enabled  # switched back on once the generator ends
    marks = tracer.marks["data.item"]
    assert len(marks) == 5  # four items and the exhausted call
    steps = train_steps(marks)
    assert [traced for _, _, traced in steps] == [True, False, True, False]
    assert all(b >= a for a, b, _ in steps)


def test_queue_wait_is_latency_minus_the_answering_pipeline():
    pipes = [
        Span(1, None, "serving.pipeline", 1.000, 1.004, 0, None, {"users": [5, 6]}),
        Span(2, None, "serving.pipeline", 2.000, 2.010, 0, None, {"users": [5]}),
    ]
    requests = [(5, 1.999, 2.011, 12.0), (6, 0.997, 1.005, 8.0), (9, 0.0, 1.0, 3.0)]
    waits = queue_waits(requests, pipes)
    assert waits == pytest.approx([2.0, 4.0])


# ----------------------------------------------------------------------
# The two clocks
# ----------------------------------------------------------------------
def test_stopwatch_cpu_clock_leaves_out_time_off_the_cpu():
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    from perfbench.workloads import Stopwatch

    watch = Stopwatch()
    time.sleep(0.2)
    idle = watch.elapsed()
    assert idle.wall >= 0.2
    assert idle.cpu < 0.1

    watch = Stopwatch()
    deadline = time.perf_counter() + 0.2
    while time.perf_counter() < deadline:
        pass
    busy = watch.elapsed()
    assert busy.cpu > max(idle.cpu, 0.05)
