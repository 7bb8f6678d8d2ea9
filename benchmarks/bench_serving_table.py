#!/usr/bin/env python
"""Per-request serving CPU of the item table, A/B across source trees.

What one inline request costs on the process CPU clock, at the paper's
Table-I catalog (11,728 items) and at ``bench_serving_latency.py``'s
100k-item catalog.  Two request kinds, as in ``perfbench``:

- ``read_cpu_ms``: ``recommend`` for a user whose vector is cached, so
  the request is scoring plus blocked top-k;
- ``write_cpu_ms``: ``observe`` then ``recommend``, so the request also
  re-encodes the session.

The model is SLIME4Rec in float32 with N=50, d=64, L=2 (the perfbench
geometry), untrained: scoring cost does not depend on the weights.  The
service runs with the default :class:`~repro.serving.ServingConfig`
and ``batching=False``, one BLAS thread.

With ``--tree NAME=SRC`` given twice, each pair runs one worker process
per tree (``PYTHONPATH=SRC``), alternating which tree runs first, and
the summary gives each tree's median and quartiles per metric plus how
many pairs the second tree won.  Without ``--tree`` it measures this
checkout once and prints the JSON.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving_table.py
    python benchmarks/bench_serving_table.py --tree parent=../parent/src \\
        --tree change=src --pairs 10 \\
        --out benchmarks/results/serving_model_dtype_table.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CATALOGS = (11_728, 100_000)
METRICS = ("read_cpu_ms", "write_cpu_ms")
MAX_LEN = 50


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[], metavar="NAME=SRC",
                        help="a source tree to measure (give two for an A/B)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--users", type=int, default=256)
    parser.add_argument("--requests", type=int, default=400,
                        help="timed requests per kind and catalog")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, help="write the A/B record here")
    return parser


def _cpu_ms_per_request(fn, count: int) -> float:
    start = time.process_time()
    for i in range(count):
        fn(i)
    return (time.process_time() - start) * 1e3 / count


def measure(users: int, requests: int, seed: int) -> dict:
    """This interpreter's tree: CPU ms per request for each catalog."""
    from repro.core.config import SlimeConfig
    from repro.core.model import Slime4Rec
    from repro.serving import RecommenderService, ServingConfig

    out = {}
    for num_items in CATALOGS:
        rng = np.random.default_rng([seed, num_items])
        model = Slime4Rec(SlimeConfig(num_items=num_items, max_len=MAX_LEN, dtype="float32"))
        with RecommenderService(model, ServingConfig(batching=False)) as service:
            for user in range(users):
                length = int(rng.integers(5, MAX_LEN + 1))
                service.observe_history(user, rng.integers(1, num_items + 1, size=length))
                service.recommend(user)  # encode once: later reads are cached
            picks = rng.integers(0, users, size=requests)
            events = rng.integers(1, num_items + 1, size=requests)

            def write(i):
                service.observe(int(picks[i]), int(events[i]))
                service.recommend(int(picks[i]))

            write_ms = _cpu_ms_per_request(write, requests)
            # every session is fresh again after one more read each
            for user in range(users):
                service.recommend(user)
            read_ms = _cpu_ms_per_request(lambda i: service.recommend(int(picks[i])), requests)
            out[str(num_items)] = {
                "read_cpu_ms": read_ms,
                "write_cpu_ms": write_ms,
                "table_mb": service.stats()["table_nbytes"] / 1e6,
            }
    return out


def _run_worker(src: str, args) -> dict:
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, __file__, "--users", str(args.users),
           "--requests", str(args.requests), "--seed", str(args.seed)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def _quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def ab(args) -> dict:
    trees = [spec.split("=", 1) for spec in args.tree]
    if len(trees) != 2 or any(len(t) != 2 for t in trees):
        raise SystemExit("give exactly two --tree NAME=SRC for an A/B")
    (base, base_src), (new, new_src) = trees
    pairs = []
    for index in range(args.pairs):
        order = [(base, base_src), (new, new_src)]
        if index % 2:
            order.reverse()
        pair = {"first": order[0][0]}
        for name, src in order:
            pair[name] = _run_worker(src, args)
        pairs.append(pair)
        print(f"pair {index + 1}/{args.pairs}: " + "  ".join(
            f"{name} read {pair[name][str(CATALOGS[0])]['read_cpu_ms']:.2f} ms"
            for name in (base, new)), flush=True)

    summary = {}
    for catalog in map(str, CATALOGS):
        summary[catalog] = {}
        for metric in METRICS:
            a = [p[base][catalog][metric] for p in pairs]
            b = [p[new][catalog][metric] for p in pairs]
            summary[catalog][metric] = {
                base: _quartiles(a),
                new: _quartiles(b),
                f"{new}_wins": int(sum(y < x for x, y in zip(a, b))),
            }
        summary[catalog]["table_mb"] = {
            name: pairs[0][name][catalog]["table_mb"] for name in (base, new)
        }
    sys.path.insert(0, str(ROOT))
    from perfbench.host import fingerprint

    host = fingerprint()
    host["blas_threads"] = "1"
    return {"trees": [base, new], "host": host,
            "users": args.users, "requests": args.requests,
            "summary": summary, "pairs": pairs}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not args.tree:
        print(json.dumps(measure(args.users, args.requests, args.seed)))
        return 0
    record = ab(args)
    text = json.dumps(record, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(json.dumps(record["summary"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
