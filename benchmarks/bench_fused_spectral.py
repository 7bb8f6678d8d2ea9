"""Fused vs. unfused filter-mixer step time.

The fused :func:`spectral_filter` op applies both branches' combined
filter on one FFT pair forward and one backward per mixer layer; the
unfused path calls it once per branch, running two of each on the same
input.  This benchmark times one full
forward+backward through a layer's ``mix_spectra`` under both regimes
on realistic geometry and records the measured ratio, so the repo's
perf trajectory is tracked alongside the paper artifacts.
"""

import time

import numpy as np
import pytest

from conftest import print_metric_rows

from repro.autograd import functional as F
from repro.autograd.spectral import num_frequency_bins, spectral_filter
from repro.autograd.tensor import Tensor
from repro.core.filter_mixer import FilterMixerLayer

#: (batch, seq_len, hidden) — the throughput-benchmark geometry.
GEOMETRY = (128, 32, 64)


def make_layer(seed=0):
    batch, n, d = GEOMETRY
    m = num_frequency_bins(n)
    rng = np.random.default_rng(seed)
    dfs_mask = np.zeros(m)
    dfs_mask[: 2 * m // 3] = 1.0
    sfs_mask = np.zeros(m)
    sfs_mask[m // 3 :] = 1.0
    layer = FilterMixerLayer(n, d, dfs_mask, sfs_mask, gamma=0.5, rng=rng)
    x = rng.normal(size=(batch, n, d))
    return layer, x


def fused_step(layer, x):
    inp = Tensor(x, requires_grad=True)
    out = layer.mix_spectra(inp)  # fused: both branches on one FFT pair
    F.sum(out).backward()
    return float(out.data.sum())


def branch_outputs(layer, inp):
    """Each branch filtered on its own FFT pair (weight 1)."""
    dfs = spectral_filter(inp, [(layer.dfs_real, layer.dfs_imag, layer.dfs_mask, 1.0)])
    sfs = spectral_filter(inp, [(layer.sfs_real, layer.sfs_imag, layer.sfs_mask, 1.0)])
    return dfs, sfs


def unfused_step(layer, x):
    inp = Tensor(x, requires_grad=True)
    dfs, sfs = branch_outputs(layer, inp)
    out = F.add(F.mul(dfs, 1.0 - layer.gamma), F.mul(sfs, layer.gamma))
    F.sum(out).backward()
    return float(out.data.sum())


STEPS = {"fused": fused_step, "unfused": unfused_step}


@pytest.mark.parametrize("mode", sorted(STEPS))
def test_mix_spectra_step(benchmark, mode):
    layer, x = make_layer()
    result = benchmark(STEPS[mode], layer, x)
    assert np.isfinite(result)


def test_fused_not_slower_and_identical(capsys):
    """Record the fused/unfused ratio and cross-check the outputs."""
    layer, x = make_layer()
    timings = {}
    for mode, step in STEPS.items():
        step(layer, x)  # warmup
        start = time.perf_counter()
        reps = 10
        for _ in range(reps):
            step(layer, x)
        timings[mode] = (time.perf_counter() - start) / reps * 1000.0

    inp = Tensor(x)
    fused_out = layer.mix_spectra(inp)
    dfs, sfs = branch_outputs(layer, inp)
    unfused_out = (1.0 - layer.gamma) * dfs.data + layer.gamma * sfs.data
    assert np.allclose(fused_out.data, unfused_out, atol=1e-10)

    speedup = timings["unfused"] / timings["fused"]
    print_metric_rows(
        "Fused spectral mixer step",
        {
            "fused": {"ms": timings["fused"]},
            "unfused": {"ms": timings["unfused"]},
            "speedup": {"x": speedup},
        },
    )
    # Generous bound: the fused path must at minimum not regress.  On an
    # unloaded machine it measures ~1.5-2x faster (half the FFTs).
    assert speedup > 0.9, f"fused path slower than two-call path: {speedup:.2f}x"
