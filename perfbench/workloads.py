"""The benchmark's workloads: set-up, the serving phase, the training phase.

Why the workloads are what they are, and the sizing behind the
constants below, is written down in ``WORKLOADS.md`` beside this file.

Both workloads, ``serve_write`` and ``serve_read``, run the same
lifecycle on the Table-I-shaped Beauty data (SLIME4Rec, float32,
N=50, d=64, L=2, library defaults otherwise):

1. set-up, repeated ``SETUP_REPEATS`` times: load the dataset file,
   build the ``SequenceDataset``, the model, the trainer, the service,
   seed one session per user, and (``serve_read`` only) pre-encode every
   session;
2. serving: open-loop Poisson traffic at 100 and 125 req/s, each round
   followed by requests sent one at a time for their CPU cost (in the
   traced run, a rate ladder for capacity instead); the two workloads
   differ only here;
3. training: ``Trainer.fit`` for one epoch over a seeded slice of the
   training instances, with its validation pass and run-state
   checkpoint, then one ``Trainer.test()``; a first test pass runs
   before serving.

Everything the program receives is generated from the workload seed
before it is sent.

Each timed phase is read on two clocks (:class:`Elapsed`): the wall
clock, printed and kept in the result file, and the process's CPU
clock, which the gated metrics use.  On the shared host the time a
vCPU is taken away from the guest (steal) is left out of the CPU clock,
so a busy neighbour stretches the first and not the second.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import hashlib
import inspect
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import SlimeConfig
from repro.core.model import Slime4Rec
from repro.data import synthetic
from repro.data.dataset import SequenceDataset
from repro.evaluation.topk import full_sort_topk
from repro.serving.service import RecommenderService
from repro.train.trainer import TrainConfig, Trainer

from perfbench.loadgen import (
    Outcome,
    RungResult,
    block_p99,
    max_passing_rate,
    percentile,
    poisson_offsets,
    run_schedule,
    rung_passes,
)

#: Table I's Beauty shape.  A Zipf exponent of 0.6 keeps ~11.7k items
#: through 5-core filtering; the preset's 1.1 leaves only ~5.5k.
TABLE1 = {"num_users": 22363, "num_items": 12101, "zipf_exponent": 0.6}
MAX_LEN = 50
BATCH_SIZE = 256
SETUP_REPEATS = 3
#: training steps per second of ``--seconds`` (a step is ~0.65 s here,
#: and the validation and test passes add ~11 s at Table-I width)
TRAIN_STEPS_PER_SECOND = 0.2

LOW_RATE = 100.0
#: 250 req/s saturates serve_write at Table-I width, and at 150 req/s
#: its median already doubles the host's run-to-run drift (WORKLOADS.md)
HIGH_RATE = 125.0
#: capacity ladder above the high rate; the low and high rates are its
#: first rungs
LADDER = (150.0, 175.0, 200.0, 225.0, 250.0, 300.0, 350.0, 400.0, 500.0, 600.0)
LATENCY_LIMIT_MS = 25.0
SENDERS = 2
#: alternating rounds of the low and the high rate, each of
#: ``ROUND_REQUESTS * --seconds`` requests per rate (210 at 30 s, so
#: 840 per rate in all)
ROUNDS = 4
ROUND_REQUESTS = 7
#: share of ``--seconds`` spent per ladder rung and warming up (at the
#: high rate, so both batch sizes the two senders can form have run
#: before timing starts): 1.5 s and 0.9 s at 30 s
RUNG_SHARE, WARMUP_SHARE = 0.05, 0.03
READ_ZIPF = 1.1
READ_OBSERVE_SHARE = 0.05
CHECK_SAMPLES = 200
#: requests sent one at a time per second of ``--seconds`` (600 at
#: 30 s, split over the rounds), timed in chunks of ``COST_CHUNK``
COST_REQUESTS, COST_CHUNK = 20, 50


class DegradedAnswer(RuntimeError):
    """The service answered from its popularity fallback."""


@dataclass(frozen=True)
class Elapsed:
    """One phase's duration on the wall clock and on the process CPU clock."""

    wall: float
    cpu: float


class Stopwatch:
    """Reads both clocks at start; :meth:`elapsed` gives the time since."""

    def __init__(self) -> None:
        self._wall = time.perf_counter()
        self._cpu = time.process_time()

    def elapsed(self) -> Elapsed:
        return Elapsed(time.perf_counter() - self._wall, time.process_time() - self._cpu)


# ----------------------------------------------------------------------
# Data
# ----------------------------------------------------------------------
def data_config(scale: float = 1.0) -> synthetic.SyntheticConfig:
    cfg = dataclasses.replace(synthetic.PRESETS["beauty"], **TABLE1)
    return cfg if scale == 1.0 else cfg.scaled(scale)


def _cache_path(cfg: synthetic.SyntheticConfig, cache_dir: Path) -> Path:
    # Keyed by the generator's source too, so a changed generator never
    # reads an old file.
    key = hashlib.sha256(
        (repr(cfg) + inspect.getsource(synthetic)).encode()
    ).hexdigest()[:16]
    return cache_dir / f"{cfg.name}-{key}.npz"


def _to_arrays(interactions) -> Dict[str, np.ndarray]:
    users, items, stamps = zip(*interactions)
    return {
        "users": np.asarray(users, dtype=np.int64),
        "items": np.asarray(items, dtype=np.int64),
        "stamps": np.asarray(stamps, dtype=np.float64),
    }


def ensure_dataset_file(cfg: synthetic.SyntheticConfig, cache_dir: Path) -> Path:
    """Generate the interaction log once per checkout and keep it on disk.

    The file stands in for the downloaded Beauty dump: set-up loads it
    like a user of the library would load theirs.  Generating it takes
    ~13 s at Table-I size, so it is made by the first run only.
    """
    path = _cache_path(cfg, cache_dir)
    if not path.exists():
        cache_dir.mkdir(parents=True, exist_ok=True)
        arrays = _to_arrays(synthetic.generate_interactions(cfg))
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".npz")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, path)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
    return path


def load_interactions(path: Path) -> list:
    with np.load(path) as archive:
        return list(zip(archive["users"].tolist(), archive["items"].tolist(),
                        archive["stamps"].tolist()))


def regenerated_matches(cfg: synthetic.SyntheticConfig, path: Path) -> bool:
    """Generate the log afresh and compare it with the file set-up loads."""
    fresh = _to_arrays(synthetic.generate_interactions(cfg))
    with np.load(path) as archive:
        return all(np.array_equal(fresh[k], archive[k]) for k in fresh)


def train_slice(dataset: SequenceDataset, count: int, rng: np.random.Generator):
    """The dataset with its training instances cut to a seeded sample.

    The catalog, the validation and the test split stay whole; only the
    number of training instances per epoch (the run length) shrinks.
    """
    total = len(dataset.train_instances)
    keep = np.sort(rng.choice(total, size=min(count, total), replace=False))
    sliced = copy.copy(dataset)
    sliced.train_instances = [dataset.train_instances[i] for i in keep]
    # SequenceDataset.sample_same_target draws from this index.
    sliced._target_index = {}
    for idx, (_, target) in enumerate(sliced.train_instances):
        sliced._target_index.setdefault(target, []).append(idx)
    return sliced


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class System:
    """Everything one set-up builds."""

    dataset: SequenceDataset
    model: Slime4Rec
    trainer: Trainer
    service: RecommenderService
    checkpoint_dir: Path

    def close(self) -> None:
        self.service.close()
        shutil.rmtree(self.checkpoint_dir, ignore_errors=True)


def set_up(workload: str, data_file: Path, seed: int, train_steps: int,
           work_dir: Path) -> System:
    """Build the system from the dataset file, as a user would."""
    dataset = SequenceDataset(load_interactions(data_file), name="beauty",
                              max_len=MAX_LEN, k_core=5)
    sliced = train_slice(dataset, train_steps * BATCH_SIZE,
                         np.random.default_rng([seed, 1]))
    model = Slime4Rec(SlimeConfig(num_items=dataset.num_items, max_len=MAX_LEN,
                                  dtype="float32"))
    checkpoint_dir = Path(tempfile.mkdtemp(prefix="ckpt-", dir=work_dir))
    trainer = Trainer(model, sliced, TrainConfig(
        epochs=1, batch_size=BATCH_SIZE, seed=seed, guard_policy="raise",
        checkpoint_dir=str(checkpoint_dir),
    ))
    service = RecommenderService(model)
    for user, sequence in enumerate(dataset.sequences):
        service.observe_history(user, sequence)
    if workload == "serve_read":
        pre_encode(service, model, dataset.num_users)
    return System(dataset, model, trainer, service, checkpoint_dir)


def pre_encode(service: RecommenderService, model, num_users: int,
               chunk: int = 64) -> None:
    """Encode every session once so reads find a cached user vector."""
    version = service.table.version
    sessions = [service.sessions.get(user) for user in range(num_users)]
    for start in range(0, num_users, chunk):
        part = sessions[start:start + chunk]
        vecs = model.encode_users(np.stack([s.window() for s in part]))
        for session, vec in zip(part, vecs):
            session.store_vec(vec, version)


def set_up_repeatedly(workload: str, data_file: Path, seed: int, train_steps: int,
                      work_dir: Path, repeats: int):
    """Set up ``repeats`` times; keep the last system, return all timings."""
    times: List[Elapsed] = []
    system: Optional[System] = None
    for _ in range(repeats):
        if system is not None:
            system.close()
            system = None
            gc.collect()
        watch = Stopwatch()
        system = set_up(workload, data_file, seed, train_steps, work_dir)
        times.append(watch.elapsed())
    return system, times


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
@dataclass
class Traffic:
    """Generated requests of one phase: due offsets, users, observed items."""

    offsets: np.ndarray
    users: np.ndarray
    #: item observed before the recommend call; 0 = no observe
    items: np.ndarray


class TrafficSource:
    """Draws each phase's requests from the workload seed."""

    def __init__(self, workload: str, seed: int, num_users: int, num_items: int) -> None:
        self.workload = workload
        self.seed = seed
        self.num_users = num_users
        self.num_items = num_items
        rng = np.random.default_rng([seed, 2])
        # Which users are popular is itself drawn from the seed.
        self._popular = rng.permutation(num_users)
        weights = np.arange(1, num_users + 1, dtype=np.float64) ** -READ_ZIPF
        self._cdf = np.cumsum(weights / weights.sum())
        self._phase = 0

    def phase(self, rate: float, count: int) -> Traffic:
        self._phase += 1
        rng = np.random.default_rng([self.seed, 3, self._phase])
        offsets = poisson_offsets(rate, count, rng)
        items = rng.integers(1, self.num_items + 1, size=count)
        if self.workload == "serve_write":
            users = rng.integers(0, self.num_users, size=count)
        else:
            draws = np.minimum(np.searchsorted(self._cdf, rng.random(count)),
                               self.num_users - 1)
            users = self._popular[draws]
            items = np.where(rng.random(count) < READ_OBSERVE_SHARE, items, 0)
        return Traffic(offsets, users, items)


@dataclass
class Answer:
    """One served request kept for the output check."""

    user: int
    sent: float
    done: float
    observed: bool
    ids: Optional[np.ndarray]


@dataclass
class ServeRecord:
    rungs: List[RungResult] = field(default_factory=list)
    #: the low and the high rate's schedules, in the order sent
    phases: Dict[str, List[Outcome]] = field(default_factory=dict)
    answers: List[Answer] = field(default_factory=list)
    #: process CPU ms per request of each chunk sent one at a time
    cost_cpu_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    checked: int = 0


def send_request(service: RecommenderService, user: int, item: int) -> np.ndarray:
    """One request: ``observe`` (when ``item``) then ``recommend``; the top-k ids."""
    if item:
        service.observe(user, item)
    result = service.recommend(user)
    if result.degraded:
        raise DegradedAnswer(f"user {user}")
    return result.ids[0]


def send_phase(service: RecommenderService, traffic: Traffic, record: ServeRecord,
               tracer=None, request_base: int = 0) -> Outcome:
    """Send one phase open-loop; keep every answer for the output check."""
    users = traffic.users.tolist()
    items = traffic.items.tolist()

    def request(i: int):
        return send_request(service, users[i], items[i])

    if tracer is None:
        send = request
    else:
        def send(i: int):
            tracer.set_request(request_base + i)
            try:
                return tracer.span("bench.request", request, i)
            finally:
                tracer.set_request(None)

    outcome = run_schedule(traffic.offsets, send, SENDERS)
    for i in range(len(users)):
        if not np.isnan(outcome.done[i]):
            record.answers.append(Answer(users[i], outcome.sent[i], outcome.done[i],
                                         bool(items[i]), outcome.results[i]))
    record.attempted += outcome.attempted
    record.failed += outcome.failed
    return outcome


def rung(rate: float, blocks: List[Outcome]) -> RungResult:
    """Judge one rate from its blocks (schedules sent at that rate)."""
    if len(blocks) == 1:
        # One contiguous schedule: judge it in five stretches.
        latency = np.array_split(blocks[0].latency_ms(), 5)
    else:
        latency = [block.latency_ms() for block in blocks]
    lateness = blocks[-1].lateness_ms()
    failed = sum(block.failed for block in blocks)
    unsent = sum(block.unsent for block in blocks)
    tail = lateness[-max(1, len(lateness) // 10):]
    return RungResult(
        rate=rate,
        p99_ms=block_p99(latency),
        late_tail_ms=float(np.median(tail)) if len(tail) else float("nan"),
        failed=failed,
        unsent=unsent,
        samples=sum(len(part) for part in latency),
        passed=rung_passes(latency, lateness, failed, unsent, LATENCY_LIMIT_MS),
    )


def round_requests(seconds: float) -> int:
    """Requests per round at each fixed rate."""
    return max(10, round(ROUND_REQUESTS * seconds))


def serve(system: System, source: TrafficSource, seconds: float,
          record: ServeRecord) -> None:
    """Warm up, then alternate the low rate, the high rate and the cost chunks.

    The two fixed rates are sent in alternating rounds, so a slow
    stretch of the shared host lands on both rates and on one round
    each, not on all of one rate's requests.  Each round ends with its
    share of the one-at-a-time requests (:func:`serve_cost`), which
    spreads their chunks over the whole serving phase.
    """
    service = system.service
    warm_up(service, source, seconds, record)
    count = round_requests(seconds)
    cost_count = max(COST_CHUNK, round(COST_REQUESTS * seconds / ROUNDS))
    for _ in range(ROUNDS):
        for name, rate in (("low", LOW_RATE), ("high", HIGH_RATE)):
            outcome = send_phase(service, source.phase(rate, count), record)
            record.phases.setdefault(name, []).append(outcome)
        serve_cost(service, source.phase(LOW_RATE, cost_count), record)
    for name, rate in (("low", LOW_RATE), ("high", HIGH_RATE)):
        record.rungs.append(rung(rate, record.phases[name]))


def serve_cost(service: RecommenderService, traffic: Traffic, record: ServeRecord) -> None:
    """Send ``traffic`` one request at a time, ignoring its due times.

    Keeps the process CPU ms per request of each chunk.  With one
    request in flight every batch the service forms holds one request,
    so the work a request costs does not depend on how the host's speed
    shaped the batches, as it does in the open-loop rounds.
    """
    users, items = traffic.users.tolist(), traffic.items.tolist()
    for start in range(0, len(users), COST_CHUNK):
        chunk = range(start, min(start + COST_CHUNK, len(users)))
        watch = Stopwatch()
        for i in chunk:
            sent = time.perf_counter()
            try:
                ids = send_request(service, users[i], items[i])
            except Exception:  # counted, never fatal to the run
                ids = None
                record.failed += 1
            record.answers.append(Answer(users[i], sent, time.perf_counter(),
                                         bool(items[i]), ids))
        record.attempted += len(chunk)
        record.cost_cpu_ms.append(1e3 * watch.elapsed().cpu / len(chunk))


def serve_traced(system: System, source: TrafficSource, seconds: float,
                 record: ServeRecord, tracer) -> dict:
    """The traced run's serving: what the per-layer metrics need.

    The low rate goes out untraced and then traced on the same
    schedule, which gives the tracing overhead on p50 latency; the high
    rate follows, traced.  Last, untraced, the capacity ladder climbs.
    """
    service = system.service
    tracer.enabled = False
    warm_up(service, source, seconds, record)
    # Half the untraced runs' requests per rate keeps the traced run short.
    count = ROUNDS * round_requests(seconds) // 2
    low = source.phase(LOW_RATE, count)
    plain = send_phase(service, low, record)
    before = service.stats()
    tracer.enabled = True
    start = time.perf_counter()
    traced_low = send_phase(service, low, record, tracer)
    traced_high = send_phase(service, source.phase(HIGH_RATE, count), record,
                             tracer, request_base=count)
    end = time.perf_counter()
    after = service.stats()
    tracer.enabled = False
    record.phases = {"low": [traced_low], "high": [traced_high]}
    record.rungs += [rung(LOW_RATE, [traced_low]), rung(HIGH_RATE, [traced_high])]
    climb(service, source, seconds, record)
    sent = traced_low.sent_mask
    latency = traced_low.latency_ms()
    return {
        "windows": [(start, end)],
        "low_requests": list(zip(low.users[sent].tolist(), traced_low.sent[sent].tolist(),
                                 traced_low.done[sent].tolist(), latency.tolist())),
        "lateness_ms": np.concatenate([traced_low.lateness_ms(), traced_high.lateness_ms()]),
        "reuses": after["user_vec_reuses"] - before["user_vec_reuses"],
        "encodes": after["encodes"] - before["encodes"],
        "stats": after,
        "p50_pair": (percentile(plain.latency_ms(), 50), percentile(latency, 50)),
        "max_rps": max_passing_rate(record.rungs),
    }


def warm_up(service, source: TrafficSource, seconds: float, record: ServeRecord) -> None:
    count = max(10, round(HIGH_RATE * WARMUP_SHARE * seconds))
    send_phase(service, source.phase(HIGH_RATE, count), record)


def climb(service, source: TrafficSource, seconds: float, record: ServeRecord) -> None:
    """Measure the ladder's rungs until two in a row fail."""
    misses = 0
    for rate in LADDER:
        count = max(10, round(rate * RUNG_SHARE * seconds))
        result = rung(rate, [send_phase(service, source.phase(rate, count), record)])
        record.rungs.append(result)
        misses = 0 if result.passed else misses + 1
        if misses == 2:
            return


def check_answers(system: System, record: ServeRecord, seed: int) -> None:
    """Recompute a sample of answers with the reference full sort.

    Only each user's last answer is checkable after the run, and only
    when no event for that user could have landed while it was served:
    then the session still holds the vector and the window the answer
    was computed from.
    """
    service = system.service
    last: Dict[int, Answer] = {}
    observed_end: Dict[int, List[float]] = {}
    for answer in record.answers:
        if answer.observed:
            observed_end.setdefault(answer.user, []).append(answer.done)
        if answer.ids is not None and (answer.user not in last or answer.done > last[answer.user].done):
            last[answer.user] = answer
    checkable = [
        a for user, a in sorted(last.items())
        if all(end <= a.sent for end in observed_end.get(user, ()) if end != a.done)
    ]
    rng = np.random.default_rng([seed, 4])
    picks = rng.choice(len(checkable), size=min(CHECK_SAMPLES, len(checkable)), replace=False)
    table = service.table
    k = service.config.k
    for index in picks:
        answer = checkable[index]
        session = service.sessions.get(answer.user)
        users = table.prepare_users(session.user_vec[None, :])
        expected = full_sort_topk(table.score_all(users), k, exclude=[session.seen()],
                                  exclude_padding=True).ids[0]
        record.checked += 1
        if not np.array_equal(expected, answer.ids):
            record.mismatches += 1


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------
@dataclass
class TrainRecord:
    samples: int = 0
    steps: int = 0
    fit: Optional[Elapsed] = None
    #: duration of each test pass
    tests: List[Elapsed] = field(default_factory=list)
    #: users ranked per test pass
    test_users: int = 0
    valid_ndcg10: float = float("nan")
    test_metrics: dict = field(default_factory=dict)
    guards: dict = field(default_factory=dict)
    error: Optional[str] = None
    checks_failed: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return max(self.steps, 1)

    @property
    def failed(self) -> int:
        return sum(self.guards.values()) + len(self.checks_failed) + (self.error is not None)


def timed_test(trainer: Trainer) -> Tuple[Elapsed, dict]:
    """One ``Trainer.test()``: its duration and its metrics."""
    watch = Stopwatch()
    result = trainer.test()
    return watch.elapsed(), dict(result.metrics)


def train(system: System, first_test: Tuple[Elapsed, dict]) -> TrainRecord:
    """One timed ``fit`` (validation and checkpoint included), one timed test.

    ``first_test`` is a test pass the run made before serving; the two
    passes, half a minute apart, share ``eval_users_per_cpu_s`` so a slow
    stretch of the host weighs on half of it.
    """
    trainer = system.trainer
    record = TrainRecord(samples=len(trainer.dataset.train_instances),
                         steps=len(trainer.iterator),
                         test_users=len(system.dataset.test))
    try:
        watch = Stopwatch()
        history = trainer.fit()
        record.fit = watch.elapsed()
        last_test = timed_test(trainer)
    except FloatingPointError as exc:
        record.error = str(exc)
        return record
    record.tests = [first_test[0], last_test[0]]
    record.guards = history.guard_counters()
    record.test_metrics = last_test[1]
    if history.valid_metrics:
        record.valid_ndcg10 = float(history.valid_metrics[-1]["NDCG@10"])
    if not (len(history.losses) == 1 and np.isfinite(history.losses).all()):
        record.checks_failed.append("epoch loss missing or not finite")
    if not all(0.0 <= v <= 1.0 for test in (first_test, last_test) for v in test[1].values()):
        record.checks_failed.append("test metric outside [0, 1]")
    if not 0.0 <= record.valid_ndcg10 <= 1.0:
        record.checks_failed.append("validation NDCG@10 missing")
    if trainer.store is None or trainer.store.latest_step() != record.steps:
        record.checks_failed.append("no run-state checkpoint at the epoch boundary")
    return record
