#!/usr/bin/env python
"""Serving-latency A/B: the fast online path vs the naive baseline.

The question this answers: at a production catalog (default 100k
items), what do the serving subsystem's three optimizations — cached
user state, request micro-batching and blocked ``argpartition`` top-k —
buy over the naive loop that re-encodes every request and full-sorts
the catalog?  Both arms score the same model-dtype (float32) item
table in one-row tiles, so their scores are the same bits.

Setup (no dataset build — random-id traffic at serving geometry):

1. Build SLIME4Rec on a ``--num-items`` catalog and briefly train it
   with sampled softmax on Zipf-popular sequences whose next item
   follows a fixed hidden successor map, so top-k has real signal.
2. **Fidelity gate**: serve the same held-out users through the fast
   arm (blocked top-k) and the reference arm (full sort); HR@10 /
   NDCG@10 must agree within 0.01 absolute.
3. **Latency replay**: closed-loop worker threads replay a Zipfian
   user stream (observe one event, then recommend) against each arm,
   interleaving the arms round-robin to cancel thermal/cache drift.

Besides the fast/naive pair, two resilience arms ride along:
``serve_degraded`` replays the same stream against the permanent
popularity fallback (the latency floor when the model path is down)
and ``serve_overload`` replays at 2x concurrency against a
deliberately under-provisioned shed-policy service (answered-request
latency + shed rate when overload is explicit instead of absorbed).

Writes:

- ``benchmarks/results/serving_latency.json`` — the committed A/B
  record (p50/p99/QPS per arm + the fidelity numbers);
- one ``variant``-tagged line per arm (``serve_fast`` /
  ``serve_naive`` / ``serve_degraded`` / ``serve_overload``) to
  ``benchmarks/results/step_time_history.jsonl``
  (skipped with ``--no-record`` or ``PERF_SMOKE_NO_RECORD=1``).  The
  perf-smoke rolling-median gate compares strictly within a variant.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving_latency.py
    PYTHONPATH=src python benchmarks/bench_serving_latency.py --num-items 250000
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

RESULTS_DIR = Path(__file__).resolve().parent / "results"
OUT_PATH = RESULTS_DIR / "serving_latency.json"
HISTORY_PATH = RESULTS_DIR / "step_time_history.jsonl"

FIDELITY_TOLERANCE = 0.01  # max |HR@10 / NDCG@10 delta| fast vs reference


def _git_revision() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--num-items", type=int, default=100_000)
    parser.add_argument("--max-len", type=int, default=32)
    parser.add_argument("--hidden-dim", type=int, default=64)
    parser.add_argument("--dtype", choices=("float32", "float64"), default="float32")
    parser.add_argument("--train-steps", type=int, default=30)
    parser.add_argument("--num-negatives", type=int, default=512)
    parser.add_argument("--users", type=int, default=2000,
                        help="resident serving sessions")
    parser.add_argument("--eval-users", type=int, default=500,
                        help="held-out users for the fidelity gate")
    parser.add_argument("--requests", type=int, default=600,
                        help="replay requests per arm (split across rounds)")
    parser.add_argument("--rounds", type=int, default=4,
                        help="A/B interleaving rounds")
    parser.add_argument("--concurrency", type=int, default=4)
    parser.add_argument("--observe-prob", type=float, default=0.25,
                        help="fraction of requests that carry a new event "
                        "(the rest are pure reads and can reuse cached state)")
    parser.add_argument("--zipf-a", type=float, default=1.2)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-record", action="store_true",
                        help="do not append history lines")
    return parser


# ----------------------------------------------------------------------
# Synthetic traffic: Zipf-popular items with a hidden successor map
# ----------------------------------------------------------------------


class Traffic:
    """Item popularity (Zipf rank-frequency) + a successor map.

    ``succ[i]`` is the item that deterministically follows item ``i``;
    a model that learns it beats popularity ranking, giving the
    fidelity gate real HR@10 signal instead of noise-vs-noise.
    """

    def __init__(self, num_items: int, a: float, rng) -> None:
        self.num_items = num_items
        ranks = np.arange(1, num_items + 1, dtype=np.float64)
        probs = ranks ** (-a)
        self._probs = probs / probs.sum()
        self._by_rank = rng.permutation(num_items) + 1  # rank -> item id
        self.succ = np.zeros(num_items + 1, dtype=np.int64)
        self.succ[1:] = rng.permutation(num_items) + 1

    def draw_items(self, size, rng) -> np.ndarray:
        return self._by_rank[
            rng.choice(self.num_items, size=size, p=self._probs)
        ]

    def history(self, length: int, rng) -> np.ndarray:
        """A popularity-seeded successor walk (10% random restarts)."""
        items = self.draw_items(length, rng)
        for t in range(1, length):
            if rng.random() < 0.9:
                items[t] = self.succ[items[t - 1]]
        return items


def train_model(args, traffic: Traffic, rng):
    """Brief sampled-softmax training so rankings carry signal."""
    from repro.core import Slime4Rec, SlimeConfig
    from repro.data.batching import Batch
    from repro.optim import Adam

    config = SlimeConfig(
        num_items=args.num_items,
        max_len=args.max_len,
        hidden_dim=args.hidden_dim,
        cl_weight=0.0,
        seed=args.seed,
        dtype=args.dtype,
        train_num_negatives=args.num_negatives,
        negative_sampling="log_uniform",
    )
    model = Slime4Rec(config)
    model.train()
    optimizer = Adam(model.parameters())
    start = time.perf_counter()
    loss_value = float("nan")
    for _ in range(args.train_steps):
        inputs = np.stack([traffic.history(args.max_len, rng) for _ in range(128)])
        inputs[:, : args.max_len // 4] = 0  # left padding, as in training
        batch = Batch(
            input_ids=inputs, targets=traffic.succ[inputs[:, -1]]
        )
        optimizer.zero_grad()
        loss = model.loss(batch)
        loss.backward()
        optimizer.step()
        loss_value = float(loss.data)
    elapsed = time.perf_counter() - start
    print(f"trained {args.train_steps} sampled-softmax steps in {elapsed:.1f}s "
          f"(final loss {loss_value:.4f})")
    model.eval()
    return model


# ----------------------------------------------------------------------
# The two arms
# ----------------------------------------------------------------------


def arm_configs(args) -> dict:
    from repro.serving import ServingConfig

    return {
        "serve_fast": ServingConfig(
            k=args.k,
            topk="blocked",
            micro_batch=32,
            max_wait_ms=2.0,
            batching=True,
            reuse_user_state=True,
        ),
        "serve_naive": ServingConfig(
            k=args.k,
            topk="full_sort",
            batching=False,
            reuse_user_state=False,
        ),
        # permanent popularity fallback: the floor the service degrades
        # to when the model path is down (enter_fallback after seeding)
        "serve_degraded": ServingConfig(
            k=args.k,
            topk="blocked",
            micro_batch=32,
            max_wait_ms=2.0,
            batching=True,
            reuse_user_state=True,
        ),
        # deliberately under-provisioned + shed admission: measures the
        # latency of the *answered* requests when overload is explicit
        # instead of absorbed as queue time (replayed at 2x concurrency)
        "serve_overload": ServingConfig(
            k=args.k,
            topk="blocked",
            micro_batch=4,
            max_wait_ms=2.0,
            batching=True,
            reuse_user_state=True,
            queue_capacity=4,
            admission_policy="shed",
            request_timeout_ms=2000.0,
        ),
    }


#: arms in the fidelity gate and the headline fast-vs-naive speedup
PRIMARY_ARMS = ("serve_fast", "serve_naive")


def fidelity_gate(args, model, traffic: Traffic, rng) -> dict:
    """HR@10/NDCG@10 of the blocked fast arm vs the full-sort naive arm.

    Both arms rank the same held-out users against the same hidden
    successor targets (targets never appear in the history, so
    seen-masking cannot hide them).
    """
    from repro.serving import RecommenderService

    histories, targets = [], []
    for _ in range(args.eval_users):
        length = int(rng.integers(5, args.max_len + 1))
        while True:
            history = traffic.history(length, rng)
            target = int(traffic.succ[history[-1]])
            if target not in history:
                break
        histories.append(history)
        targets.append(target)
    targets = np.asarray(targets)

    metrics = {}
    configs = arm_configs(args)
    for name in PRIMARY_ARMS:
        config = configs[name]
        with RecommenderService(model, config) as service:
            for user, history in enumerate(histories):
                service.observe_history(user, history)
            results = service.recommend_many(range(len(histories)), k=args.k)
        ids = np.concatenate([r.ids for r in results], axis=0)
        hit = ids == targets[:, None]
        ranks = np.argmax(hit, axis=1)
        found = hit.any(axis=1)
        hr = float(found.mean())
        ndcg = float(np.where(found, 1.0 / np.log2(ranks + 2), 0.0).mean())
        metrics[name] = {"HR@10": round(hr, 4), "NDCG@10": round(ndcg, 4)}
        print(f"[{name:>11}] fidelity: HR@10 {hr:.4f}  NDCG@10 {ndcg:.4f}")
    delta = max(
        abs(metrics["serve_fast"]["HR@10"] - metrics["serve_naive"]["HR@10"]),
        abs(metrics["serve_fast"]["NDCG@10"] - metrics["serve_naive"]["NDCG@10"]),
    )
    ok = delta <= FIDELITY_TOLERANCE
    print(f"fidelity max |delta| {delta:.4f} "
          f"({'within' if ok else 'EXCEEDS'} {FIDELITY_TOLERANCE})")
    return {"arms": metrics, "max_abs_delta": round(delta, 4),
            "tolerance": FIDELITY_TOLERANCE, "ok": ok}


def replay_segment(
    service, users, events, writes, latencies, offset, concurrency, counters=None
) -> float:
    """Closed-loop replay of one pre-drawn request segment; returns wall.

    Shed / deadline-expired requests record NaN latency (they got a
    typed error, not an answer) and are tallied into ``counters`` along
    with degraded answers.
    """
    from repro.serving import DeadlineExceeded, Overloaded

    count = len(users)
    cursor = [0]
    cursor_lock = threading.Lock()
    if counters is None:
        counters = {}
    counters.setdefault("shed", 0)
    counters.setdefault("deadline_expired", 0)
    counters.setdefault("degraded", 0)

    def worker() -> None:
        while True:
            with cursor_lock:
                i = cursor[0]
                if i >= count:
                    return
                cursor[0] += 1
            if writes[i]:
                service.observe(int(users[i]), int(events[i]))
            start = time.perf_counter()
            try:
                result = service.recommend(int(users[i]))
            except Overloaded:
                latencies[offset + i] = np.nan
                with cursor_lock:
                    counters["shed"] += 1
                # client-side backoff on an explicit 429-style shed;
                # without it the closed loop spin-sheds the whole
                # pre-drawn stream while one batch is in flight
                time.sleep(0.025)
                continue
            except DeadlineExceeded:
                latencies[offset + i] = np.nan
                with cursor_lock:
                    counters["deadline_expired"] += 1
                continue
            latencies[offset + i] = (time.perf_counter() - start) * 1000.0
            if result.degraded:
                with cursor_lock:
                    counters["degraded"] += 1

    start = time.perf_counter()
    threads = [
        threading.Thread(target=worker, daemon=True) for _ in range(concurrency)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - start


def latency_ab(args, model, traffic: Traffic, rng) -> dict:
    """Interleaved closed-loop Zipf replay of both arms."""
    from repro.serving import RecommenderService

    # Resident sessions, identical in both arms.
    user_histories = [
        traffic.history(int(rng.integers(5, args.max_len + 1)), rng)
        for _ in range(args.users)
    ]
    # Pre-draw the whole request stream once; both arms replay the
    # same users and events in the same order.
    ranks = np.arange(1, args.users + 1, dtype=np.float64)
    probs = ranks ** (-args.zipf_a)
    probs /= probs.sum()
    by_rank = rng.permutation(args.users)
    users = by_rank[rng.choice(args.users, size=args.requests, p=probs)]
    events = traffic.draw_items(args.requests, rng)
    writes = rng.random(args.requests) < args.observe_prob

    # the overload arm models more clients than the service is
    # provisioned for; the others replay at the configured concurrency
    concurrency = {
        name: args.concurrency * 2 if name == "serve_overload" else args.concurrency
        for name in arm_configs(args)
    }

    services, latencies, walls, counters = {}, {}, {}, {}
    for name, config in arm_configs(args).items():
        services[name] = RecommenderService(model, config)
        for user, history in enumerate(user_histories):
            services[name].observe_history(user, history)
        latencies[name] = np.zeros(args.requests)
        walls[name] = 0.0
        counters[name] = {}
        # warm up: table snapshot + one request outside the timing
        services[name].recommend(0)
        if name == "serve_degraded":
            # the benchmark's model-path-down floor: everything from
            # here on is answered by the popularity fallback
            services[name].enter_fallback("benchmark")
            check = services[name].recommend(0)
            assert check.degraded, "degraded arm must flag its results"
            live = check.ids[0][check.ids[0] >= 0]
            assert 0 not in live and len(np.unique(live)) == len(live), (
                "degraded arm must return a valid masked top-k"
            )

    per_round = max(args.requests // args.rounds, 1)
    for round_idx in range(args.rounds):  # interleaved A/B/A/B
        lo = round_idx * per_round
        hi = args.requests if round_idx == args.rounds - 1 else lo + per_round
        if lo >= hi:
            continue
        for name, service in services.items():
            walls[name] += replay_segment(
                service, users[lo:hi], events[lo:hi], writes[lo:hi],
                latencies[name], lo, concurrency[name], counters[name],
            )

    summary = {}
    for name, service in services.items():
        lat = latencies[name]
        answered = int(np.isfinite(lat).sum())
        stats = service.stats()
        service.close()
        summary[name] = {
            "p50_ms": round(float(np.nanpercentile(lat, 50)), 3),
            "p99_ms": round(float(np.nanpercentile(lat, 99)), 3),
            "qps": round(answered / walls[name], 1) if walls[name] else 0.0,
            "answered": answered,
            "shed": counters[name]["shed"],
            "deadline_expired": counters[name]["deadline_expired"],
            "degraded_requests": counters[name]["degraded"],
            "shed_rate": round(
                (args.requests - answered) / args.requests, 4
            ),
            "concurrency": concurrency[name],
            "mean_batch_size": round(stats["mean_batch_size"], 2),
            "encodes": stats["encodes"],
            "user_vec_reuses": stats["user_vec_reuses"],
            "table_mb": round(stats["table_nbytes"] / 1e6, 1),
        }
        print(f"[{name:>14}] p50 {summary[name]['p50_ms']:8.2f} ms  "
              f"p99 {summary[name]['p99_ms']:8.2f} ms  "
              f"{summary[name]['qps']:8.1f} QPS  "
              f"(mean batch {summary[name]['mean_batch_size']:.1f}, "
              f"encodes {summary[name]['encodes']}, "
              f"shed {summary[name]['shed']}, "
              f"degraded {summary[name]['degraded_requests']})")
    return summary


def main() -> int:
    args = build_parser().parse_args()
    rng = np.random.default_rng(args.seed)
    traffic = Traffic(args.num_items, args.zipf_a, rng)

    model = train_model(args, traffic, rng)
    fidelity = fidelity_gate(args, model, traffic, rng)
    summary = latency_ab(args, model, traffic, rng)

    p50_speedup = summary["serve_naive"]["p50_ms"] / summary["serve_fast"]["p50_ms"]
    qps_speedup = (
        summary["serve_fast"]["qps"] / summary["serve_naive"]["qps"]
        if summary["serve_naive"]["qps"] else 0.0
    )
    print(f"fast-arm speedup over naive: {p50_speedup:.1f}x p50 latency, "
          f"{qps_speedup:.1f}x QPS (V={args.num_items}, "
          f"concurrency={args.concurrency}, {args.dtype} model)")

    record = {
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "git": _git_revision(),
        "model": "SLIME4Rec",
        "dtype": args.dtype,
        "num_items": args.num_items,
        "max_len": args.max_len,
        "hidden_dim": args.hidden_dim,
        "train_steps": args.train_steps,
        "users": args.users,
        "requests": args.requests,
        "rounds": args.rounds,
        "concurrency": args.concurrency,
        "observe_prob": args.observe_prob,
        "zipf_a": args.zipf_a,
        "k": args.k,
        "p50_speedup_fast_over_naive": round(p50_speedup, 2),
        "qps_speedup_fast_over_naive": round(qps_speedup, 2),
        "arms": summary,
        "fidelity": fidelity,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"serving A/B record written to {OUT_PATH}")

    if not args.no_record and not os.environ.get("PERF_SMOKE_NO_RECORD"):
        with HISTORY_PATH.open("a", encoding="utf-8") as fh:
            for name in summary:
                fh.write(json.dumps({
                    "date": record["date"],
                    "git": record["git"],
                    "dtype": args.dtype,
                    "variant": name,
                    "step_ms": summary[name]["p50_ms"],
                    "p99_ms": summary[name]["p99_ms"],
                    "qps": summary[name]["qps"],
                    "shed_rate": summary[name]["shed_rate"],
                    "dataset": "random-ids",
                    "num_items": args.num_items,
                    "max_len": args.max_len,
                    "hidden_dim": args.hidden_dim,
                    "concurrency": args.concurrency,
                    "model": "SLIME4Rec",
                }) + "\n")
        print(f"variant-tagged serving records appended to {HISTORY_PATH}")
    return 0 if fidelity["ok"] else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
