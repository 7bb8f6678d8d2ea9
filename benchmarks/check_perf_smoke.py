#!/usr/bin/env python
"""CI perf smoke check: fail fast on pathological training slowdowns.

Runs a 5-step SLIME4Rec training loop in **both dtypes** (the float64
default and the float32 fast path) plus one full-catalog evaluation
pass on the synthetic beauty preset, and exits non-zero when any of
them exceeds its wall-clock budget.  A **static-graph smoke** follows:
one capture-replay-equality cell (tape replay pinned bitwise against
the dynamic engine, variant ``static_graph`` in the history).  Then a
**serving smoke**: an
inline Zipf replay through the fast online arm (model-dtype item table +
blocked top-k, ``repro.serving``) whose p50/p99 are gated the same way
under the ``serve_p50`` / ``serve_p99`` history variants, and a
**serving chaos cell**: concurrent traffic through a shed-policy
service while the encode path crashes twice (deterministic injection
via ``repro.utils.faults``), gating that the answered-request p99
stays bounded, the popularity fallback returned valid masked top-k,
and the service came back to the model path.  The budgets are deliberately
loose (several times the expected duration on a loaded CI worker): the
goal is to catch order-of-magnitude regressions — an accidentally
quadratic path, a dropped cache, a float-pow in a hot loop, a silent
float64 upcast that erases the float32 win — not to benchmark.

Each run also appends one JSON line per dtype to
``benchmarks/results/step_time_history.jsonl`` (git revision, step
time, eval time), building the per-PR step-time record the ROADMAP
asks for.  Set ``PERF_SMOKE_NO_RECORD=1`` to skip the append.

Once that history holds **at least 3 matching records** for a dtype
(same model/geometry *and* loss variant — records tagged with another
``variant``, e.g. the sampled-CE benchmark's, never mix into this
script's ``"default"`` median), the check also compares the measured step time
against the rolling median of the most recent ones and fails on a
>1.3x regression — a much tighter bound than the static budgets, while
still noise-tolerant (the median spans several PRs, and a failing
measurement is re-run once before it counts).  The history mixes
machines unless CI hardware is pinned; set ``PERF_SMOKE_NO_HISTORY=1``
to skip the comparison on a foreign machine, or widen
``PERF_SMOKE_HISTORY_FACTOR`` (default 1.3).

Usage::

    PYTHONPATH=src python benchmarks/check_perf_smoke.py

Environment overrides: ``PERF_SMOKE_TRAIN_BUDGET_S`` (default 15),
``PERF_SMOKE_EVAL_BUDGET_S`` (default 5), ``PERF_SMOKE_SERVE_BUDGET_MS``
(default 250, the static serving-p99 ceiling),
``PERF_SMOKE_SERVE_SLACK_MS`` (default 2, absolute grace on the serving
history gate), ``PERF_SMOKE_CHAOS_BUDGET_MS`` (default 1500, the
answered-p99 ceiling of the injected-fault cell), ``PERF_SMOKE_NO_RECORD``,
``PERF_SMOKE_NO_HISTORY``, ``PERF_SMOKE_HISTORY_FACTOR``.
No pytest or pytest-benchmark dependency — plain stdlib + the repo
itself.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent / "results"
HISTORY_PATH = RESULTS_DIR / "step_time_history.jsonl"

GEOMETRY = {
    "dataset": "beauty",
    "scale": 0.2,
    "max_len": 32,
    "hidden_dim": 64,
    "batch_size": 128,
    "model": "SLIME4Rec",
}

#: Geometry of the serving-smoke records (variants ``serve_p50`` /
#: ``serve_p99``): an inline blocked-top-k replay on the same
#: preset/model as the training smoke.  Records from before the
#: float16 table was removed carry ``"table_dtype": "float16"``; later
#: ones time the model-dtype (float32) table.
SERVING_GEOMETRY = {
    "dataset": "beauty",
    "scale": 0.2,
    "max_len": 32,
    "hidden_dim": 64,
    "model": "SLIME4Rec",
    "topk": "blocked",
    "requests": 250,
}

#: Timed optimizer steps per dtype (shared by measurement and budget math).
STEPS = 5

#: Rolling-median window and minimum history size for the regression gate.
HISTORY_WINDOW = 7
HISTORY_MIN_RECORDS = 3

#: Variant of the records this script measures and gates on.  Other
#: benchmarks (e.g. ``bench_sampled_softmax.py``) append records with
#: their own variant tag to the same history file; the median gate
#: compares strictly within one variant, never across.
DEFAULT_VARIANT = "default"


def _history_median(
    dtype: str, variant: str = DEFAULT_VARIANT, geometry: dict = GEOMETRY
) -> tuple:
    """Median ``step_ms`` of recent history records matching this config.

    Returns ``(median, count)``; ``(None, count)`` when fewer than
    ``HISTORY_MIN_RECORDS`` comparable records exist.  Only records
    whose dtype, *variant* and full ``geometry`` match count — a record
    taken at a different batch size or model, or under a different loss
    variant (sampled-CE vs the default full softmax), is not a
    baseline.  Records predating the variant field count as
    ``"default"``.  Each record family (training smoke, serving smoke,
    standalone benchmarks) passes its own geometry dict.
    """
    if not HISTORY_PATH.exists():
        return None, 0
    times = []
    for line in HISTORY_PATH.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        if rec.get("dtype") != dtype:
            continue
        if rec.get("variant", DEFAULT_VARIANT) != variant:
            continue
        if any(rec.get(key) != value for key, value in geometry.items()):
            continue
        if isinstance(rec.get("step_ms"), (int, float)):
            times.append(float(rec["step_ms"]))
    times = times[-HISTORY_WINDOW:]
    if len(times) < HISTORY_MIN_RECORDS:
        return None, len(times)
    return statistics.median(times), len(times)


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


def _measure(dataset, dtype: str, steps: int = STEPS):
    """Train ``steps`` batches + one eval pass; return timings/losses."""
    from repro.baselines import build_baseline
    from repro.data.batching import BatchIterator
    from repro.evaluation import Evaluator
    from repro.optim import Adam

    model = build_baseline(
        GEOMETRY["model"], dataset,
        hidden_dim=GEOMETRY["hidden_dim"], seed=0, dtype=dtype,
    )
    iterator = BatchIterator(
        dataset, batch_size=GEOMETRY["batch_size"], with_same_target=True, seed=0
    )
    batch = next(iter(iterator.epoch()))
    optimizer = Adam(model.parameters())

    def step() -> float:
        optimizer.zero_grad()
        loss = model.loss(batch)
        loss.backward()
        optimizer.step()
        return float(loss.data)

    step()  # warmup outside the budget: first call pays FFT/cache setup
    start = time.perf_counter()
    losses = [step() for _ in range(steps)]
    train_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    result = Evaluator(dataset).evaluate(model, split="valid")
    eval_elapsed = time.perf_counter() - start
    return {
        "steps": steps,
        "train_s": train_elapsed,
        "step_ms": train_elapsed / steps * 1000.0,
        "eval_s": eval_elapsed,
        "losses": losses,
        "result": result,
    }


def _measure_static_graph(dataset, steps: int = STEPS):
    """Static-graph replay step time + the inline capture-replay equality cell.

    Two identically seeded float32 models run the same batch: one
    dynamically, one through the tape executor (first step captures,
    later steps replay).  The cell asserts bitwise-equal losses over
    the warmup steps — a fast path that drifts from the dynamic engine
    must fail the smoke, not just run fast — then times ``steps``
    replayed optimizer steps.
    """
    from repro.autograd.graph import TapeExecutor
    from repro.baselines import build_baseline
    from repro.data.batching import BatchIterator
    from repro.optim import Adam

    def build():
        model = build_baseline(
            GEOMETRY["model"], dataset,
            hidden_dim=GEOMETRY["hidden_dim"], seed=0, dtype="float32",
        )
        iterator = BatchIterator(
            dataset, batch_size=GEOMETRY["batch_size"], with_same_target=True, seed=0
        )
        batch = next(iter(iterator.epoch()))
        return model, batch, Adam(model.parameters())

    d_model, d_batch, d_opt = build()
    s_model, s_batch, s_opt = build()
    executor = TapeExecutor(s_model)

    equal = True
    for _ in range(3):  # capture + 2 replays, pinned against dynamic
        d_opt.zero_grad()
        loss = d_model.loss(d_batch)
        loss.backward()
        d_opt.step()
        s_opt.zero_grad()
        result = executor.step(s_batch)
        result.backward()
        s_opt.step()
        if float(loss.data) != result.loss:
            equal = False

    def replay_step() -> float:
        s_opt.zero_grad()
        result = executor.step(s_batch)
        result.backward()
        s_opt.step()
        return result.loss

    start = time.perf_counter()
    losses = [replay_step() for _ in range(steps)]
    elapsed = time.perf_counter() - start
    stats = executor.stats()
    return {
        "steps": steps,
        "step_ms": elapsed / steps * 1000.0,
        "losses": losses,
        "equal": equal and stats["captures"] == 1 and stats["fallback_steps"] == 0,
        "stats": stats,
    }


def _measure_serving(dataset):
    """Inline Zipf replay through the fast serving arm; p50/p99 in ms.

    Single-threaded and unbatched (``batching=False``) so the numbers
    measure the serving pipeline itself — encode, one-row-tile scoring,
    blocked top-k — without collector-wait or thread-scheduling noise.
    """
    import numpy as np

    from repro.baselines import build_baseline
    from repro.serving import RecommenderService, ServingConfig

    model = build_baseline(
        SERVING_GEOMETRY["model"], dataset,
        hidden_dim=SERVING_GEOMETRY["hidden_dim"], seed=0, dtype="float32",
    )
    config = ServingConfig(
        topk=SERVING_GEOMETRY["topk"],
        batching=False,
    )
    requests = SERVING_GEOMETRY["requests"]
    rng = np.random.default_rng(0)
    ranks = np.arange(1, dataset.num_users + 1, dtype=np.float64)
    probs = ranks ** -1.2
    probs /= probs.sum()
    users = rng.choice(dataset.num_users, size=requests, p=probs)
    events = rng.integers(1, dataset.num_items + 1, size=requests)
    latencies = []
    with RecommenderService(model, config) as service:
        for user_id, seq in enumerate(dataset.sequences):
            service.observe_history(user_id, seq[-dataset.max_len:])
        service.recommend(0)  # warmup: table snapshot outside the timing
        for i in range(requests):
            if i % 4 == 0:  # a 25% write mix, as in the latency bench
                service.observe(int(users[i]), int(events[i]))
            start = time.perf_counter()
            service.recommend(int(users[i]))
            latencies.append((time.perf_counter() - start) * 1000.0)
    latencies.sort()
    return {
        "p50_ms": latencies[len(latencies) // 2],
        "p99_ms": latencies[min(int(len(latencies) * 0.99), len(latencies) - 1)],
    }


def _measure_serving_chaos(dataset):
    """One injected-fault serving cell: shed policy under a dying encode.

    Replays concurrent traffic through a deliberately small-queue,
    shed-policy service while the first two encode passes crash
    (``serve.encode``, ``on_error="degrade"``).  Returns the answered
    requests' p99, the outcome tally, whether every degraded answer
    honored the masked-top-k contract, and whether the service came
    back to the model path once the fault passed — the smoke gate
    asserts all of it.
    """
    import threading

    import numpy as np

    from repro.baselines import build_baseline
    from repro.serving import (
        DeadlineExceeded,
        Overloaded,
        RecommenderService,
        ServingConfig,
    )
    from repro.utils.faults import FaultInjector, inject

    model = build_baseline(
        SERVING_GEOMETRY["model"], dataset,
        hidden_dim=SERVING_GEOMETRY["hidden_dim"], seed=0, dtype="float32",
    )
    config = ServingConfig(
        topk=SERVING_GEOMETRY["topk"],
        batching=True,
        micro_batch=4,
        max_wait_ms=2.0,
        queue_capacity=8,
        admission_policy="shed",
        request_timeout_ms=1000.0,
    )
    injector = FaultInjector().crash_at("serve.encode", times=2)
    latencies, counts = [], {"ok": 0, "degraded": 0, "shed": 0, "expired": 0}
    valid = [True]
    lock = threading.Lock()
    with RecommenderService(model, config) as service:
        for user_id, seq in enumerate(dataset.sequences[:64]):
            service.observe_history(user_id, seq[-dataset.max_len:])

        def worker(uid):
            for _ in range(12):
                start = time.perf_counter()
                try:
                    result = service.recommend(uid)
                except Overloaded:
                    with lock:
                        counts["shed"] += 1
                    continue
                except DeadlineExceeded:
                    with lock:
                        counts["expired"] += 1
                    continue
                elapsed = (time.perf_counter() - start) * 1000.0
                with lock:
                    latencies.append(elapsed)
                    if result.degraded:
                        counts["degraded"] += 1
                        live = result.ids[0][result.ids[0] >= 0]
                        if 0 in live or len(np.unique(live)) != len(live):
                            valid[0] = False
                    else:
                        counts["ok"] += 1

        with inject(injector):
            threads = [
                threading.Thread(target=worker, args=(uid,), daemon=True)
                for uid in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        recovered = False
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                recovered = not service.recommend(0).degraded
                break
            except (DeadlineExceeded, Overloaded):
                continue
    latencies.sort()
    p99 = (
        latencies[min(int(len(latencies) * 0.99), len(latencies) - 1)]
        if latencies else float("inf")
    )
    return {
        "p99_ms": p99,
        "counts": counts,
        "fired": len(injector.fired),
        "degraded_valid": valid[0],
        "recovered": recovered,
    }


def main() -> int:
    train_budget = float(os.environ.get("PERF_SMOKE_TRAIN_BUDGET_S", "15"))
    eval_budget = float(os.environ.get("PERF_SMOKE_EVAL_BUDGET_S", "5"))

    from repro.data.synthetic import load_preset

    dataset = load_preset(
        GEOMETRY["dataset"], scale=GEOMETRY["scale"], max_len=GEOMETRY["max_len"]
    )

    history_factor = float(os.environ.get("PERF_SMOKE_HISTORY_FACTOR", "1.3"))
    use_history = not os.environ.get("PERF_SMOKE_NO_HISTORY")

    ok = True
    records = []
    measured = {}
    for dtype in ("float64", "float32"):
        m = _measure(dataset, dtype)
        measured[dtype] = m
        if use_history:
            median, count = _history_median(dtype)
            if median is None:
                print(f"[{dtype}] history gate skipped "
                      f"({count} comparable records, need {HISTORY_MIN_RECORDS})")
            else:
                budget_ms = history_factor * median
                print(f"[{dtype}] history gate: {m['step_ms']:.0f} ms/step vs "
                      f"rolling median {median:.0f} ms over {count} records "
                      f"(limit {budget_ms:.0f} ms)")
                if m["step_ms"] > budget_ms:
                    print(f"[{dtype}] over the history limit — re-measuring once "
                          f"to rule out a loaded worker")
                    m = _measure(dataset, dtype)
                    measured[dtype] = m
                    print(f"[{dtype}] re-run: {m['step_ms']:.0f} ms/step")
                    if m["step_ms"] > budget_ms:
                        print(f"FAIL: {dtype} step time regressed "
                              f"{m['step_ms'] / median:.2f}x over the rolling median "
                              f"({m['step_ms']:.0f} ms > {budget_ms:.0f} ms)",
                              file=sys.stderr)
                        ok = False
        print(f"[{dtype}] train: {m['steps']} steps in {m['train_s']:.2f}s "
              f"({m['step_ms']:.0f} ms/step, budget {train_budget:.0f}s), "
              f"final loss {m['losses'][-1]:.4f}")
        if not all(math.isfinite(l) for l in m["losses"]):
            print(f"FAIL: non-finite training loss in {dtype}", file=sys.stderr)
            ok = False
        if m["train_s"] > train_budget:
            print(f"FAIL: {dtype} training exceeded budget "
                  f"({m['train_s']:.2f}s > {train_budget:.0f}s)", file=sys.stderr)
            ok = False
        print(f"[{dtype}] eval: full pass in {m['eval_s']:.2f}s "
              f"(budget {eval_budget:.0f}s), {m['result'].as_row()}")
        if m["eval_s"] > eval_budget:
            print(f"FAIL: {dtype} evaluation exceeded budget "
                  f"({m['eval_s']:.2f}s > {eval_budget:.0f}s)", file=sys.stderr)
            ok = False
        records.append({
            "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            "git": _git_revision(),
            "dtype": dtype,
            "variant": DEFAULT_VARIANT,
            "step_ms": round(m["step_ms"], 2),
            "eval_s": round(m["eval_s"], 3),
            **GEOMETRY,
        })

    def _speedup() -> float:
        f32 = measured["float32"]["step_ms"]
        return measured["float64"]["step_ms"] / f32 if f32 else 0.0

    print(f"float32 step speedup over float64: {_speedup():.2f}x")
    # A float32 step markedly slower than the float64 step means the
    # fast path regressed into widening copies somewhere.  A single
    # 5-step timing is noisy on a loaded worker, so re-measure both
    # dtypes once before failing; only a persistent inversion is real.
    if _speedup() < 1.0 / 1.3:
        print("float32 slower than float64 — re-measuring once to rule out noise")
        measured["float64"] = _measure(dataset, "float64")
        measured["float32"] = _measure(dataset, "float32")
        print(f"float32 step speedup over float64 (re-run): {_speedup():.2f}x")
        if _speedup() < 1.0 / 1.3:
            print("FAIL: float32 step is persistently slower than float64 — "
                  "a widening copy likely crept into the hot path", file=sys.stderr)
            ok = False

    # --- static-graph smoke: replay must stay bitwise + not regress ---
    sg = _measure_static_graph(dataset)
    print(f"[static_graph] equality cell: capture + replay vs dynamic "
          f"{'bitwise-identical' if sg['equal'] else 'DIVERGED'} "
          f"({sg['stats']['captures']} capture, {sg['stats']['replays']} replays)")
    if not sg["equal"]:
        print("FAIL: static-graph replay diverged from the dynamic engine",
              file=sys.stderr)
        ok = False
    print(f"[static_graph] replay: {sg['steps']} steps "
          f"({sg['step_ms']:.0f} ms/step)")
    if not all(math.isfinite(l) for l in sg["losses"]):
        print("FAIL: non-finite loss under static-graph replay", file=sys.stderr)
        ok = False
    if use_history:
        median, count = _history_median("float32", "static_graph")
        if median is None:
            print(f"[static_graph] history gate skipped "
                  f"({count} comparable records, need {HISTORY_MIN_RECORDS})")
        else:
            budget_ms = history_factor * median
            print(f"[static_graph] history gate: {sg['step_ms']:.0f} ms/step vs "
                  f"rolling median {median:.0f} ms over {count} records "
                  f"(limit {budget_ms:.0f} ms)")
            if sg["step_ms"] > budget_ms:
                print("[static_graph] over the history limit — re-measuring once "
                      "to rule out a loaded worker")
                sg = _measure_static_graph(dataset)
                print(f"[static_graph] re-run: {sg['step_ms']:.0f} ms/step")
                if sg["step_ms"] > budget_ms:
                    print(f"FAIL: static-graph step time regressed "
                          f"{sg['step_ms'] / median:.2f}x over the rolling median "
                          f"({sg['step_ms']:.0f} ms > {budget_ms:.0f} ms)",
                          file=sys.stderr)
                    ok = False
    records.append({
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "git": _git_revision(),
        "dtype": "float32",
        "variant": "static_graph",
        "step_ms": round(sg["step_ms"], 2),
        **GEOMETRY,
    })

    # --- serving smoke: the online path must not regress either -------
    serve_budget = float(os.environ.get("PERF_SMOKE_SERVE_BUDGET_MS", "250"))
    # Millisecond-scale percentiles jitter multiplicatively on a loaded
    # worker, so the history gate gets a small absolute grace on top of
    # the ratio — it exists to catch order-of-magnitude regressions
    # (a full sort sneaking back in), not 2 ms of scheduler noise.
    serve_slack = float(os.environ.get("PERF_SMOKE_SERVE_SLACK_MS", "2"))

    def _serve_failures(m) -> list:
        failures = []
        if m["p99_ms"] > serve_budget:
            failures.append(
                f"serving p99 {m['p99_ms']:.1f} ms over static budget "
                f"{serve_budget:.0f} ms"
            )
        if use_history:
            for stat in ("p50", "p99"):
                median, count = _history_median(
                    "float32", f"serve_{stat}", SERVING_GEOMETRY
                )
                if median is None:
                    print(f"[serving] {stat} history gate skipped ({count} "
                          f"comparable records, need {HISTORY_MIN_RECORDS})")
                    continue
                limit = history_factor * median + serve_slack
                print(f"[serving] {stat} history gate: {m[stat + '_ms']:.2f} ms "
                      f"vs rolling median {median:.2f} ms over {count} records "
                      f"(limit {limit:.2f} ms)")
                if m[stat + "_ms"] > limit:
                    failures.append(
                        f"serving {stat} regressed "
                        f"{m[stat + '_ms'] / median:.2f}x over the rolling "
                        f"median ({m[stat + '_ms']:.1f} ms > {limit:.1f} ms)"
                    )
        return failures

    serving = _measure_serving(dataset)
    print(f"[serving] inline blocked replay: p50 {serving['p50_ms']:.2f} ms  "
          f"p99 {serving['p99_ms']:.2f} ms")
    failures = _serve_failures(serving)
    if failures:
        print("[serving] over a limit — re-measuring once to rule out a "
              "loaded worker")
        serving = _measure_serving(dataset)
        print(f"[serving] re-run: p50 {serving['p50_ms']:.2f} ms  "
              f"p99 {serving['p99_ms']:.2f} ms")
        failures = _serve_failures(serving)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
            ok = False
    for stat in ("p50", "p99"):
        records.append({
            "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            "git": _git_revision(),
            "dtype": "float32",
            "variant": f"serve_{stat}",
            "step_ms": round(serving[stat + "_ms"], 3),
            **SERVING_GEOMETRY,
        })

    # --- serving chaos cell: failure semantics must hold every pass ---
    # Static-budget gate only (no history line): the p99 of *answered*
    # requests under an injected encode crash + shed admission must stay
    # bounded — a fault that turns into unbounded caller latency is a
    # broken deadline path, not noise.
    chaos_budget = float(os.environ.get("PERF_SMOKE_CHAOS_BUDGET_MS", "1500"))
    chaos = _measure_serving_chaos(dataset)
    print(f"[serving-chaos] shed policy under injected encode crash: "
          f"answered p99 {chaos['p99_ms']:.2f} ms "
          f"(budget {chaos_budget:.0f} ms), outcomes {chaos['counts']}, "
          f"faults fired {chaos['fired']}, "
          f"recovered {'yes' if chaos['recovered'] else 'NO'}")
    if chaos["p99_ms"] > chaos_budget:
        print(f"FAIL: chaos-cell p99 {chaos['p99_ms']:.1f} ms exceeds "
              f"{chaos_budget:.0f} ms — a fault is turning into unbounded "
              f"latency", file=sys.stderr)
        ok = False
    if chaos["counts"]["degraded"] == 0:
        print("FAIL: chaos cell produced no degraded answers — the injected "
              "fault never exercised the fallback arm", file=sys.stderr)
        ok = False
    if not chaos["degraded_valid"]:
        print("FAIL: a degraded answer violated the masked top-k contract",
              file=sys.stderr)
        ok = False
    if not chaos["recovered"]:
        print("FAIL: service did not return to the model path after the "
              "injected fault passed", file=sys.stderr)
        ok = False

    if not ok:
        # A failing run must not write its regressed step times into the
        # rolling-median baseline — repeated CI retries would otherwise
        # ratchet the regression into the history until the gate passed.
        print("failing run: step-time record NOT appended to history")
    elif not os.environ.get("PERF_SMOKE_NO_RECORD"):
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        with HISTORY_PATH.open("a", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        print(f"step-time record appended to {HISTORY_PATH}")

    print("perf smoke:", "OK" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
