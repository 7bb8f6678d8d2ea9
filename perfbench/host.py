"""Host fingerprint and calibration kernels.

Every result carries the fingerprint of the machine that produced it
(CPU model, usable cores, numpy and BLAS build) plus two calibration
numbers measured in the same process: a STREAM-style triad bandwidth
and a float32 GEMM time.  Results whose fingerprints differ are not
comparable; the ``*_gbs`` numbers of the traced run are read against
``host.triad_gbs``.
"""

from __future__ import annotations

import os
import platform
import time

import numpy as np

__all__ = ["calibrate", "fingerprint"]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no mode argument
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def fingerprint() -> dict:
    """What a result needs to be compared only with its own kind."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return {
        "cpu": _cpu_model(),
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


def calibrate(repeats: int = 5) -> dict:
    """``host.triad_gbs`` and ``host.gemm_ms``, medians of ``repeats``.

    The triad ``a = b + s * c`` runs on float64 arrays of 4 Mi elements
    (32 MiB each, well past the last-level cache) and counts the STREAM
    convention of 24 bytes per element.  The GEMM is a 512 x 512 x 512
    float32 product.
    """
    n = 4 * 1024 * 1024
    b = np.ones(n)
    c = np.full(n, 2.0)
    a = np.empty(n)
    triad = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        triad.append(time.perf_counter() - start)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((512, 512)).astype(np.float32)
    y = rng.standard_normal((512, 512)).astype(np.float32)
    x @ y
    gemm = []
    for _ in range(repeats):
        start = time.perf_counter()
        x @ y
        gemm.append(time.perf_counter() - start)
    return {
        "host.triad_gbs": 24.0 * n / float(np.median(triad)) / 1e9,
        "host.gemm_ms": float(np.median(gemm)) * 1e3,
    }
