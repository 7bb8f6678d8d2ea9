"""Open-loop load generation for the serving workloads.

The schedule is drawn up front from the workload seed: Poisson arrival
offsets at a fixed rate, plus whatever per-request payload the workload
attaches.  The service only ever sees the generated requests.

Senders are a small fixed pool of threads (at most ``nproc``).  Each
takes the next request in schedule order, sleeps until it is due, and
sends it.  Because ``recommend`` is synchronous, a stalled service
holds its senders and later requests go out late; their latency is
still timed from when they were *due*, so the stall is charged to every
request it delayed, and the generator's own lateness is reported.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

__all__ = [
    "Outcome",
    "RungResult",
    "block_p99",
    "due_latency_ms",
    "max_passing_rate",
    "percentile",
    "poisson_offsets",
    "run_schedule",
    "rung_passes",
]


def poisson_offsets(rate: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Due times (seconds from the schedule start) of ``count`` Poisson arrivals."""
    if rate <= 0 or count < 1:
        raise ValueError(f"need rate > 0 and count >= 1, got {rate}, {count}")
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


def due_latency_ms(due: np.ndarray, sent: np.ndarray, done: np.ndarray):
    """Latency and generator lateness, both measured from the due time.

    All three arrays are absolute clock readings in seconds.  Returns
    ``(latency_ms, lateness_ms)``; lateness is never negative (a sender
    that woke early still sent at ``due`` at the earliest).
    """
    due = np.asarray(due, dtype=np.float64)
    latency = (np.asarray(done, dtype=np.float64) - due) * 1e3
    lateness = np.maximum(np.asarray(sent, dtype=np.float64) - due, 0.0) * 1e3
    return latency, lateness


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation; NaN if empty."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return math.nan
    return float(np.percentile(values, q))


def block_p99(blocks: Sequence[Sequence[float]]) -> float:
    """The median over ``blocks`` of each block's p99 latency.

    A block is one stretch of a schedule, or one round of a rate that
    is sent in several rounds.  On a shared host a single stall
    (another tenant, a descheduled vCPU) delays a run of consecutive
    requests and alone decides a pooled p99.  Taking each block's p99
    and reporting their median keeps one stall from deciding the
    result, while a tail that most blocks show still does.
    """
    tails = [np.percentile(np.asarray(b, dtype=np.float64), 99) for b in blocks if len(b)]
    return float(np.median(tails)) if tails else math.nan


@dataclass
class Outcome:
    """What happened to every request of one schedule, in schedule order."""

    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    #: per request: None on success, else a short failure label
    failures: List[Optional[str]]
    #: per request: whatever the send callable returned (None if it failed)
    results: list
    #: requests never sent because the rung was aborted
    unsent: int = 0

    @property
    def sent_mask(self) -> np.ndarray:
        return ~np.isnan(self.done)

    def latency_ms(self) -> np.ndarray:
        mask = self.sent_mask
        return due_latency_ms(self.due[mask], self.sent[mask], self.done[mask])[0]

    def lateness_ms(self) -> np.ndarray:
        mask = self.sent_mask
        return due_latency_ms(self.due[mask], self.sent[mask], self.done[mask])[1]

    @property
    def attempted(self) -> int:
        return int(self.sent_mask.sum())

    @property
    def failed(self) -> int:
        return sum(1 for f in self.failures if f is not None)


def run_schedule(
    offsets: np.ndarray,
    send: Callable[[int], object],
    senders: int,
    abort_late_s: float = 1.0,
) -> Outcome:
    """Send request ``i`` at ``start + offsets[i]`` from ``senders`` threads.

    ``send(i)`` performs request ``i`` and returns its result; an
    exception marks the request failed with the exception's type name.
    Once the generator is more than ``abort_late_s`` behind schedule the
    backlog is plainly growing, so the remaining requests are dropped
    (counted in ``unsent``) rather than waited out.
    """
    count = len(offsets)
    due = np.full(count, np.nan)
    sent = np.full(count, np.nan)
    done = np.full(count, np.nan)
    failures: List[Optional[str]] = [None] * count
    results: list = [None] * count
    lock = threading.Lock()
    cursor = [0]
    aborted = threading.Event()
    start = time.perf_counter() + 0.005

    def worker() -> None:
        while not aborted.is_set():
            with lock:
                i = cursor[0]
                if i >= count:
                    return
                cursor[0] = i + 1
            t_due = start + offsets[i]
            wait = t_due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            t_sent = time.perf_counter()
            if t_sent - t_due > abort_late_s:
                aborted.set()
                return
            try:
                results[i] = send(i)
            except Exception as exc:  # counted, never fatal to the run
                failures[i] = type(exc).__name__
            done[i] = time.perf_counter()
            due[i] = t_due
            sent[i] = t_sent

    threads = [
        threading.Thread(target=worker, name=f"perfbench-sender-{n}", daemon=True)
        for n in range(senders)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    unsent = int(np.isnan(done).sum())
    # Unsent slots keep their scheduled due time so arrays stay aligned.
    nan = np.isnan(due)
    due[nan] = start + offsets[nan]
    return Outcome(due, sent, done, failures, results, unsent)


@dataclass
class RungResult:
    """One rate of the capacity ladder."""

    rate: float
    p99_ms: float
    late_tail_ms: float
    failed: int
    unsent: int
    samples: int
    passed: bool


def rung_passes(
    latency_ms: Sequence[np.ndarray],
    lateness_ms: np.ndarray,
    failed: int,
    unsent: int,
    limit_ms: float,
) -> bool:
    """Whether one rate meets the latency limit with no growing backlog.

    ``latency_ms`` holds the rung's latencies in blocks (see
    :func:`block_p99`), timed from the due time.  A rung passes when
    nothing failed or was dropped, its p99 is within ``limit_ms``, and
    the generator finished on schedule: its median lateness over the
    last tenth of the requests is within the limit too.  A backlog that
    keeps growing shows as lateness that climbs toward the end.
    """
    if failed or unsent or not any(len(b) for b in latency_ms):
        return False
    tail = lateness_ms[-max(1, len(lateness_ms) // 10):]
    return block_p99(latency_ms) <= limit_ms and float(np.median(tail)) <= limit_ms


def max_passing_rate(rungs: Sequence[RungResult]) -> float:
    """The highest measured rate that passed; 0.0 when none did.

    One noisy failure below a passing rate does not cap the result: the
    ladder reports the best rate at which the service held the limit.
    """
    passing = [r.rate for r in rungs if r.passed]
    return float(max(passing)) if passing else 0.0
