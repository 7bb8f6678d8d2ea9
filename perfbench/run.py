#!/usr/bin/env python3
"""Run one workload of the SLIME4Rec benchmark and print its metrics.

    python3 perfbench/run.py --workload serve_write --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The first run generates the
Table-I-shaped dataset file under ``.bench_build/perfbench`` (~15 s);
later runs load it.  Every metric is printed by name with its unit, the
host fingerprint with it, and the last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs with timing
wrappers installed and reports the per-layer metrics instead, and
writes every span under ``.bench_build/perfbench/spans``.

The exit code is 0 only when the run completed and printed its result;
output checks that fail are reported through ``correct`` and
``failed``.  See ``WORKLOADS.md`` for what the workloads are and why.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# One BLAS thread.  On a 2-vCPU host shared with other tenants, a
# two-thread OpenBLAS GEMM waits for its second thread whenever that
# vCPU is taken: a 512^3 float32 GEMM then takes ~24 ms instead of
# ~1.5 ms, in episodes lasting minutes.  One thread costs ~1.3x on that
# GEMM and has no such episodes.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# The timings are read on the process CPU clock, which leaves out the
# time a busy neighbour takes the vCPU away (steal); their wall-clock
# counterparts are printed as "# wall" lines and kept in the result
# file, ungated (WORKLOADS.md, "Steadiness").
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "train_samples_per_cpu_s": "1/s",
    "eval_users_per_cpu_s": "1/s",
    "valid_ndcg10": "score",
    "serve_cpu_ms": "ms",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("serve_write", "serve_read"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time the run is sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="users/items multiplier of the Table-I shape (tests use tiny ones)")
    parser.add_argument("--cache-dir", type=Path, default=ROOT / ".bench_build" / "perfbench",
                        help="where the dataset file, results and spans go")
    return parser.parse_args(argv)


def import_program():
    """Import the package from this checkout; exit 2 without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'repro'}; run from a full checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(src), str(ROOT)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import numpy as np

    from perfbench import host, workloads as wl
    from perfbench.layers import TARGETS, UNITS, layer_metrics
    from perfbench.loadgen import percentile
    from perfbench.spans import Tracer, install

    fingerprint = host.fingerprint()
    cfg = wl.data_config(args.scale)
    data_file = wl.ensure_dataset_file(cfg, args.cache_dir)
    train_steps = max(2, round(wl.TRAIN_STEPS_PER_SECOND * args.seconds))
    work_dir = args.cache_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)

    tracer = Tracer() if args.trace else None
    uninstall = install(tracer, TARGETS) if tracer else (lambda: None)
    checks = []
    try:
        if tracer:
            checks.append(("dataset file equals a fresh generation",
                           wl.regenerated_matches(cfg, data_file)))
        system, setup_times = wl.set_up_repeatedly(
            args.workload, data_file, args.seed, train_steps, work_dir,
            repeats=1 if tracer else wl.SETUP_REPEATS)
        calibration = host.calibrate()
        # Set-up state lives for the whole run; keep the collector's
        # full passes to the garbage the measured phases make.
        gc.collect()
        gc.freeze()

        first_test = wl.timed_test(system.trainer)
        source = wl.TrafficSource(args.workload, args.seed, system.dataset.num_users,
                                  system.dataset.num_items)
        serve = wl.ServeRecord()
        serve_extra = {}
        if tracer:
            serve_extra = wl.serve_traced(system, source, args.seconds, serve, tracer)
        else:
            wl.serve(system, source, args.seconds, serve)
        system.service.close()
        wl.check_answers(system, serve, args.seed)

        if tracer:
            tracer.alternate = True
        trained = wl.train(system, first_test)
        system.close()
    finally:
        uninstall()

    checks += [
        ("served answers equal the reference full sort", serve.checked > 0 and serve.mismatches == 0),
        ("training guards quiet and metrics sane", trained.failed == 0),
    ]
    attempted = serve.attempted + serve.checked + trained.attempted
    failed = serve.failed + serve.mismatches + trained.failed
    correct = all(ok for _, ok in checks) and failed == 0

    low = np.concatenate([o.latency_ms() for o in serve.phases["low"]])
    high = np.concatenate([o.latency_ms() for o in serve.phases["high"]])
    fit, tests = trained.fit, trained.tests
    test_users = trained.test_users * len(tests)
    wall = {
        "setup_s": statistics.median(t.wall for t in setup_times),
        "train_samples_per_s": trained.samples / fit.wall if fit else 0.0,
        "eval_users_per_s": test_users / sum(t.wall for t in tests) if tests else 0.0,
        "lat_p50_ms_low": percentile(low, 50),
        "lat_p50_ms_high": percentile(high, 50),
    }
    counts = {}
    if tracer:
        metrics = layer_metrics(tracer.spans, tracer.marks, serve_extra, calibration)
        units = UNITS
    else:
        metrics = {
            "setup_s": statistics.median(t.cpu for t in setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": 1.0 - failed / attempted,
            "train_samples_per_cpu_s": trained.samples / fit.cpu if fit else 0.0,
            "eval_users_per_cpu_s": test_users / sum(t.cpu for t in tests) if tests else 0.0,
            "valid_ndcg10": trained.valid_ndcg10,
            "serve_cpu_ms": statistics.median(serve.cost_cpu_ms),
        }
        units = E2E_UNITS
        counts = {
            "setup_s": len(setup_times), "train_samples_per_cpu_s": trained.samples,
            "eval_users_per_cpu_s": test_users, "valid_ndcg10": len(system.dataset.valid),
            "serve_cpu_ms": len(serve.cost_cpu_ms) * wl.COST_CHUNK,
        }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": {**fingerprint, **calibration},
        "checks": {name: ok for name, ok in checks},
        "rungs": [vars(r) for r in serve.rungs],
        "setup_times": [vars(t) for t in setup_times], "wall": wall,
        "serve_cpu_ms_chunks": serve.cost_cpu_ms,
        "train_error": trained.error,
        "metrics": {k: {"value": metrics[k], "unit": units[k], "n": counts.get(k)} for k in units},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = args.cache_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    if tracer:
        tracer.dump(args.cache_dir / "spans" / f"{tag}.jsonl", {"host": record["host"]})

    print(f"# host {json.dumps(record['host'])}")
    # The p99 tails are printed and kept, but are not gated metrics:
    # their run-to-run spread on a shared 2-vCPU host exceeds any
    # allowed bound (see WORKLOADS.md).
    for rung in serve.rungs:
        print(f"# rung {rung.rate:g} req/s: p99 {rung.p99_ms:.2f} ms, late tail "
              f"{rung.late_tail_ms:.2f} ms, n={rung.samples}, unsent={rung.unsent}, "
              f"{'pass' if rung.passed else 'FAIL'}")
    for name, ok in checks:
        print(f"# check {'ok  ' if ok else 'FAIL'} {name}")
    for name, value in wall.items():
        print(f"# wall {name} {value:.6g}")
    for name in units:
        n = counts.get(name)
        print(f"{name} {metrics[name]:.6g} {units[name]}" + (f" (n={n})" if n is not None else ""))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
