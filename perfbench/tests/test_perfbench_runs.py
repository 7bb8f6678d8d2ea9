"""End-to-end passes of the benchmark command at a tiny geometry.

Each workload runs once through ``perfbench/run.py`` as a subprocess,
the way the benchmark is driven, and its last output line must carry
exactly the metrics ``BENCHMARK.json`` declares, with their units.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload,trace", [("serve_write", "0"), ("serve_read", "1")])
def test_tiny_run_prints_every_declared_metric(tmp_path, workload, trace):
    assert workload in {w["name"] for w in SPEC["workloads"]}
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", trace, "--scale", "0.02", "--cache-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        assert metric["value"] == metric["value"], f"{name} is NaN"
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert (tmp_path / "results" / f"{workload}-seed3-trace0.json").is_file()
    else:
        assert result["metrics"]["core.forward_ms"]["value"] > 0
        assert result["metrics"]["serving.encode_rows"]["value"] > 0
        assert (tmp_path / "spans" / f"{workload}-seed3-trace1.jsonl").is_file()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for directory in SPEC["paths"]:
        shutil.copytree(ROOT / directory, tmp_path / directory,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "--workload", "serve_write", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
