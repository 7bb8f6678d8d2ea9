"""Tests for the fused spectral-filter op — the heart of SLIME4Rec."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import dft_matrices, spectral_filter_reference, spectral_mix_reference
from repro.autograd.gradcheck import gradcheck
from repro.autograd.spectral import combined_filter, num_frequency_bins, spectral_filter
from repro.autograd.tensor import Tensor


def make_inputs(rng, batch=2, n=8, d=3):
    m = num_frequency_bins(n)
    x = Tensor(rng.normal(size=(batch, n, d)), requires_grad=True)
    wr = Tensor(rng.normal(size=(m, d)), requires_grad=True)
    wi = Tensor(rng.normal(size=(m, d)), requires_grad=True)
    return x, wr, wi, m


def single(x, wr, wi, mask):
    """The op with one branch of weight 1 (FMLP-Rec, w/oD, w/oS)."""
    return spectral_filter(x, [(wr, wi, mask, 1.0)])


class TestBinCount:
    def test_even(self):
        assert num_frequency_bins(8) == 5

    def test_odd(self):
        assert num_frequency_bins(7) == 4

    def test_matches_paper_formula_for_even_n(self):
        # Paper: M = ceil(N/2) + 1; for even N this equals N//2 + 1.
        for n in (2, 4, 8, 50, 100):
            assert num_frequency_bins(n) == n // 2 + 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            num_frequency_bins(0)


class TestForward:
    def test_identity_filter_reconstructs_input(self, rng):
        """W = 1 + 0i on all bins must be a perfect round trip."""
        x, _, _, m = make_inputs(rng)
        ones = Tensor(np.ones((m, 3)))
        zeros = Tensor(np.zeros((m, 3)))
        out = single(x, ones, zeros, np.ones(m))
        assert np.allclose(out.data, x.data, atol=1e-12)

    def test_zero_mask_kills_everything(self, rng):
        x, wr, wi, m = make_inputs(rng)
        out = single(x, wr, wi, np.zeros(m))
        assert np.allclose(out.data, 0.0)

    def test_dc_only_mask_gives_constant_over_time(self, rng):
        x, wr, wi, m = make_inputs(rng)
        mask = np.zeros(m)
        mask[0] = 1.0
        out = single(x, wr, wi, mask)
        # Only the DC bin survives -> output constant along time axis.
        assert np.allclose(out.data, out.data[:, :1, :], atol=1e-10)

    def test_output_is_real_dtype(self, rng):
        x, wr, wi, m = make_inputs(rng)
        out = single(x, wr, wi, np.ones(m))
        assert out.data.dtype.kind == "f"

    def test_linearity_in_input(self, rng):
        x1, wr, wi, m = make_inputs(rng)
        x2 = Tensor(rng.normal(size=x1.shape))
        mask = np.ones(m)
        lhs = single(Tensor(x1.data + 2.0 * x2.data), wr, wi, mask)
        a = single(Tensor(x1.data), wr, wi, mask)
        b = single(x2, wr, wi, mask)
        assert np.allclose(lhs.data, a.data + 2.0 * b.data, atol=1e-10)

    def test_equals_circular_convolution(self, rng):
        """The op must equal a time-domain circular conv with the kernel."""
        x, wr, wi, m = make_inputs(rng, batch=1, n=8, d=1)
        mask = np.ones(m)
        out = single(x, wr, wi, mask)
        filt = (wr.data + 1j * wi.data)[:, 0]
        kernel = np.fft.irfft(filt, n=8)
        expected = np.real(np.fft.ifft(np.fft.fft(x.data[0, :, 0]) * np.fft.fft(kernel)))
        assert np.allclose(out.data[0, :, 0], expected, atol=1e-10)

    def test_branch_weight_scales_output(self, rng):
        x, wr, wi, m = make_inputs(rng)
        mask = np.ones(m)
        half = spectral_filter(x, [(wr, wi, mask, 0.5)])
        assert np.allclose(half.data, 0.5 * single(x, wr, wi, mask).data, atol=1e-12)

    def test_shape_validation(self, rng):
        x, wr, wi, m = make_inputs(rng)
        with pytest.raises(ValueError):
            single(Tensor(np.zeros((2, 8))), wr, wi, np.ones(m))
        with pytest.raises(ValueError):
            single(x, Tensor(np.zeros((m + 1, 3))), wi, np.ones(m))
        with pytest.raises(ValueError):
            single(x, wr, wi, np.ones(m + 2))
        with pytest.raises(ValueError):
            spectral_filter(x, [])


class TestGradients:
    def test_gradcheck_banded_mask_even(self, rng):
        x, wr, wi, m = make_inputs(rng, n=8)
        mask = np.zeros(m)
        mask[1:4] = 1.0
        gradcheck(lambda a, b, c: single(a, b, c, mask), [x, wr, wi])

    def test_gradcheck_full_mask_odd(self, rng):
        x, wr, wi, m = make_inputs(rng, n=7)
        gradcheck(lambda a, b, c: single(a, b, c, np.ones(m)), [x, wr, wi])

    def test_masked_bins_receive_no_filter_gradient(self, rng):
        x, wr, wi, m = make_inputs(rng)
        mask = np.zeros(m)
        mask[2] = 1.0
        out = single(x, wr, wi, mask)
        out.backward(np.ones_like(out.data))
        outside = np.ones(m, dtype=bool)
        outside[2] = False
        assert np.allclose(wr.grad[outside], 0.0)
        assert np.allclose(wi.grad[outside], 0.0)

    def test_dc_imaginary_gradient_is_zero(self, rng):
        x, wr, wi, m = make_inputs(rng, n=8)
        out = single(x, wr, wi, np.ones(m))
        out.backward(np.ones_like(out.data))
        assert np.allclose(wi.grad[0], 0.0)
        assert np.allclose(wi.grad[-1], 0.0)  # Nyquist for even N


# ----------------------------------------------------------------------
# Oracle comparisons, one branch (weight 1) and two branches (1-γ, γ)
# ----------------------------------------------------------------------


def make_branches(rng, nbranch, m, d, gamma=0.3, dtype=np.float64, masks=None):
    """``nbranch`` independent filters; two branches mix as ``(1-γ, γ)``."""
    weights = [1.0] if nbranch == 1 else [1.0 - gamma, gamma]
    if masks is None:
        masks = [(rng.random(m) > 0.3).astype(float) for _ in weights]
    branches = []
    for mask, weight in zip(masks, weights):
        wr = Tensor(rng.normal(size=(m, d)).astype(dtype), requires_grad=True)
        wi = Tensor(rng.normal(size=(m, d)).astype(dtype), requires_grad=True)
        branches.append((wr, wi, mask, weight))
    return branches


def branch_params(branches):
    return [w for b in branches for w in b[:2]]


@pytest.mark.parametrize("nbranch", [1, 2])
class TestOracle:
    @pytest.mark.parametrize("n", [10, 9])
    def test_forward_matches_reference(self, rng, nbranch, n):
        m = num_frequency_bins(n)
        x = Tensor(rng.normal(size=(2, n, 3)), requires_grad=True)
        branches = make_branches(rng, nbranch, m, 3)
        fast = spectral_filter(x, branches)
        ref = spectral_mix_reference(x, branches)
        assert np.allclose(fast.data, ref.data, atol=1e-10)

    @pytest.mark.parametrize("n", [10, 9])
    def test_gradients_match_reference(self, rng, nbranch, n):
        m = num_frequency_bins(n)
        x = Tensor(rng.normal(size=(2, n, 3)), requires_grad=True)
        branches = make_branches(rng, nbranch, m, 3)
        tensors = [x] + branch_params(branches)

        out = spectral_filter(x, branches)
        out.backward(np.ones_like(out.data))
        fused = [t.grad.copy() for t in tensors]

        for t in tensors:
            t.zero_grad()
        ref = spectral_mix_reference(x, branches)
        ref.backward(np.ones_like(ref.data))
        for got, t in zip(fused, tensors):
            assert np.allclose(got, t.grad, atol=1e-10)

    @given(
        n=st.integers(4, 12),
        d=st.integers(1, 3),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_reference_property(self, nbranch, n, d, seed):
        r = np.random.default_rng(seed)
        m = num_frequency_bins(n)
        x = Tensor(r.normal(size=(2, n, d)), requires_grad=True)
        branches = make_branches(r, nbranch, m, d)
        fast = spectral_filter(x, branches)
        ref = spectral_mix_reference(x, branches)
        assert np.allclose(fast.data, ref.data, atol=1e-9)

    def test_matches_reference_at_benchmark_scale(self, nbranch):
        """64 x 64 x 64 in float32: the blocked-product geometry."""
        rng = np.random.default_rng(0)
        n = d = batch = 64
        m = num_frequency_bins(n)
        x = Tensor(rng.normal(size=(batch, n, d)).astype(np.float32), requires_grad=True)
        masks = [np.ones(m, dtype=np.float32)] * nbranch
        branches = make_branches(rng, nbranch, m, d, dtype=np.float32, masks=masks)
        fast = spectral_filter(x, branches)
        ref = spectral_mix_reference(x, branches)
        assert fast.data.dtype == np.float32
        assert np.allclose(fast.data, ref.data, atol=1e-3)  # float32 tolerance


# ----------------------------------------------------------------------
# Two branches: SLIME4Rec's DFS + SFS mix
# ----------------------------------------------------------------------


def make_mixed_inputs(rng, batch=2, n=8, d=3):
    """x plus independent DFS/SFS filter pairs for the fused op."""
    m = num_frequency_bins(n)
    x = Tensor(rng.normal(size=(batch, n, d)), requires_grad=True)
    params = [Tensor(rng.normal(size=(m, d)), requires_grad=True) for _ in range(4)]
    return (x, *params, m)


def mask_pair(m, kind, rng):
    """DFS/SFS window pairs covering the interesting overlap regimes."""
    if kind == "disjoint":
        dfs, sfs = np.zeros(m), np.zeros(m)
        dfs[: m // 2] = 1.0
        sfs[m // 2 :] = 1.0
    elif kind == "overlapping":
        dfs = (rng.random(m) > 0.3).astype(float)
        sfs = (rng.random(m) > 0.3).astype(float)
        sfs[m // 3] = dfs[m // 3] = 1.0  # force at least one shared bin
    else:  # full
        dfs, sfs = np.ones(m), np.ones(m)
    return dfs, sfs


def mixed(x, dr, di, dfs_mask, sr, si, sfs_mask, gamma, **kwargs):
    """The op on SLIME4Rec's two branches, weighted ``(1-γ, γ)``."""
    return spectral_filter(
        x, [(dr, di, dfs_mask, 1.0 - gamma), (sr, si, sfs_mask, gamma)], **kwargs
    )


def mixed_reference(x, dr, di, dfs_mask, sr, si, sfs_mask, gamma):
    """(1-γ)·ref_D + γ·ref_S through the O(N²) DFT-matrix reference."""
    return spectral_mix_reference(
        x, [(dr, di, dfs_mask, 1.0 - gamma), (sr, si, sfs_mask, gamma)]
    )


class TestMixedForward:
    @pytest.mark.parametrize("n", [8, 9])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("kind", ["disjoint", "overlapping"])
    def test_matches_reference(self, rng, n, gamma, kind):
        x, dr, di, sr, si, m = make_mixed_inputs(rng, n=n)
        dfs_mask, sfs_mask = mask_pair(m, kind, rng)
        fused = mixed(x, dr, di, dfs_mask, sr, si, sfs_mask, gamma)
        ref = mixed_reference(x, dr, di, dfs_mask, sr, si, sfs_mask, gamma)
        assert np.allclose(fused.data, ref.data, atol=1e-10)

    def test_matches_two_single_branch_calls(self, rng):
        x, dr, di, sr, si, m = make_mixed_inputs(rng, n=10)
        dfs_mask, sfs_mask = mask_pair(m, "overlapping", rng)
        fused = mixed(x, dr, di, dfs_mask, sr, si, sfs_mask, 0.3)
        a = single(x, dr, di, dfs_mask)
        b = single(x, sr, si, sfs_mask)
        assert np.allclose(fused.data, 0.7 * a.data + 0.3 * b.data, atol=1e-12)

    def test_filter_provider_matches_recombination(self, rng):
        """A provider returning combined_filter must not change values."""
        x, dr, di, sr, si, m = make_mixed_inputs(rng)
        dfs_mask, sfs_mask = mask_pair(m, "overlapping", rng)
        branches = [(dr, di, dfs_mask, 0.5), (sr, si, sfs_mask, 0.5)]
        filt = combined_filter(branches)
        with_provider = spectral_filter(x, branches, filt_provider=lambda: filt)
        without = spectral_filter(x, branches)
        assert np.array_equal(with_provider.data, without.data)

    def test_shape_validation(self, rng):
        x, dr, di, sr, si, m = make_mixed_inputs(rng)
        with pytest.raises(ValueError):
            mixed(Tensor(np.zeros((2, 8))), dr, di, np.ones(m), sr, si, np.ones(m), 0.5)
        with pytest.raises(ValueError):
            mixed(x, dr, di, np.ones(m + 1), sr, si, np.ones(m), 0.5)
        with pytest.raises(ValueError):
            mixed(x, Tensor(np.zeros((m + 1, 3))), di, np.ones(m), sr, si, np.ones(m), 0.5)
        with pytest.raises(ValueError, match="disagree"):
            mixed(x, dr, di, np.ones(m), Tensor(np.zeros((m, 4))), Tensor(np.zeros((m, 4))),
                  np.ones(m), 0.5)
        with pytest.raises(ValueError, match="provided filter"):  # would broadcast
            mixed(x, dr, di, np.ones(m), sr, si, np.ones(m), 0.5,
                  filt_provider=lambda: np.zeros((m, 1), dtype=complex))


class TestMixedGradients:
    @pytest.mark.parametrize("n", [8, 9])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("kind", ["disjoint", "overlapping"])
    def test_gradcheck_finite_differences(self, rng, n, gamma, kind):
        x, dr, di, sr, si, m = make_mixed_inputs(rng, n=n)
        dfs_mask, sfs_mask = mask_pair(m, kind, rng)
        gradcheck(
            lambda a, b, c, d, e: mixed(a, b, c, dfs_mask, d, e, sfs_mask, gamma),
            [x, dr, di, sr, si],
        )

    @pytest.mark.parametrize("n", [8, 9])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_fused_and_reference_gradients_agree(self, rng, n, gamma):
        x, dr, di, sr, si, m = make_mixed_inputs(rng, n=n)
        dfs_mask, sfs_mask = mask_pair(m, "overlapping", rng)
        tensors = (x, dr, di, sr, si)

        out = mixed(x, dr, di, dfs_mask, sr, si, sfs_mask, gamma)
        seed_grad = np.ones_like(out.data)
        out.backward(seed_grad)
        fused = [t.grad.copy() if t.grad is not None else None for t in tensors]

        for t in tensors:
            t.zero_grad()
        ref = mixed_reference(x, dr, di, dfs_mask, sr, si, sfs_mask, gamma)
        ref.backward(seed_grad)
        for got, t in zip(fused, tensors):
            expected = t.grad if t.grad is not None else np.zeros_like(t.data)
            got = got if got is not None else np.zeros_like(t.data)
            assert np.allclose(got, expected, atol=1e-10)

    def test_masked_bins_receive_no_filter_gradient(self, rng):
        x, dr, di, sr, si, m = make_mixed_inputs(rng)
        dfs_mask, sfs_mask = mask_pair(m, "disjoint", rng)
        out = mixed(x, dr, di, dfs_mask, sr, si, sfs_mask, 0.5)
        out.backward(np.ones_like(out.data))
        assert np.allclose(dr.grad[dfs_mask == 0], 0.0)
        assert np.allclose(di.grad[dfs_mask == 0], 0.0)
        assert np.allclose(sr.grad[sfs_mask == 0], 0.0)
        assert np.allclose(si.grad[sfs_mask == 0], 0.0)

    def test_dc_and_nyquist_imaginary_gradients_zero(self, rng):
        x, dr, di, sr, si, m = make_mixed_inputs(rng, n=8)
        out = mixed(x, dr, di, np.ones(m), sr, si, np.ones(m), 0.5)
        out.backward(np.ones_like(out.data))
        for imag in (di, si):
            assert np.allclose(imag.grad[0], 0.0)
            assert np.allclose(imag.grad[-1], 0.0)  # Nyquist for even N


class TestDftMatrices:
    def test_roundtrip(self, rng):
        n = 10
        cos_m, sin_m, icos, isin = dft_matrices(n)
        x = rng.normal(size=n)
        xr, xi = cos_m @ x, sin_m @ x
        back = icos @ xr + isin @ xi
        assert np.allclose(back, x, atol=1e-12)

    def test_matches_numpy_rfft(self, rng):
        n = 12
        cos_m, sin_m, _, _ = dft_matrices(n)
        x = rng.normal(size=n)
        spec = np.fft.rfft(x)
        assert np.allclose(cos_m @ x, spec.real, atol=1e-12)
        assert np.allclose(sin_m @ x, spec.imag, atol=1e-12)
