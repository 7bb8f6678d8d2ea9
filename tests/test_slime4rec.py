"""Tests for the SLIME4Rec model and the filter mixer layer."""

import numpy as np
import pytest

from repro.autograd.spectral import num_frequency_bins
from repro.autograd.tensor import Tensor
from repro.core import FilterMixerLayer, SlideMode, Slime4Rec, SlimeConfig
from repro.data.batching import Batch
from repro.data.dataset import SequenceDataset
from repro.data.synthetic import SyntheticConfig, generate_interactions


def small_config(**overrides):
    defaults = dict(
        num_items=30, max_len=12, hidden_dim=16, num_layers=2,
        alpha=0.4, cl_weight=0.1, seed=0,
    )
    defaults.update(overrides)
    return SlimeConfig(**defaults)


def random_batch(cfg, batch=4, seed=0, with_positive=True):
    rng = np.random.default_rng(seed)
    inputs = rng.integers(1, cfg.num_items + 1, size=(batch, cfg.max_len))
    inputs[:, : cfg.max_len // 2] = 0  # left padding
    targets = rng.integers(1, cfg.num_items + 1, size=batch)
    positives = None
    if with_positive:
        positives = rng.integers(1, cfg.num_items + 1, size=(batch, cfg.max_len))
    return Batch(input_ids=inputs, targets=targets, positive_ids=positives)


class TestConfig:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            small_config(alpha=1.2)

    def test_rejects_no_branches(self):
        with pytest.raises(ValueError):
            small_config(use_dfs=False, use_sfs=False)

    def test_int_slide_mode_coerced(self):
        cfg = small_config(slide_mode=3)
        assert cfg.slide_mode is SlideMode.MODE_3

    def test_mode4_directions(self):
        assert SlideMode.MODE_4.dfs_direction == "high_to_low"
        assert SlideMode.MODE_4.sfs_direction == "high_to_low"


class TestFilterMixerLayer:
    def test_forward_shape(self, rng):
        m = num_frequency_bins(12)
        layer = FilterMixerLayer(12, 8, np.ones(m), np.ones(m), rng=rng)
        out = layer(Tensor(rng.normal(size=(3, 12, 8))))
        assert out.shape == (3, 12, 8)

    def test_requires_at_least_one_branch(self, rng):
        with pytest.raises(ValueError):
            FilterMixerLayer(12, 8, None, None, rng=rng)

    def test_single_branch_ignores_gamma(self, rng):
        m = num_frequency_bins(12)
        layer = FilterMixerLayer(12, 8, np.ones(m), None, gamma=0.9, rng=rng)
        out = layer(Tensor(rng.normal(size=(2, 12, 8))))
        assert out.shape == (2, 12, 8)

    @pytest.mark.parametrize("lone", ["dfs", "sfs"])
    def test_lone_branch_has_unit_weight(self, rng, lone):
        """A disabled branch leaves the other at weight 1, whatever gamma is."""
        from oracles import spectral_filter_reference

        m = num_frequency_bins(12)
        mask = np.ones(m)
        masks = (mask, None) if lone == "dfs" else (None, mask)
        layer = FilterMixerLayer(12, 8, *masks, gamma=0.9, rng=np.random.default_rng(0))
        x = Tensor(rng.normal(size=(2, 12, 8)))
        real, imag = getattr(layer, f"{lone}_real"), getattr(layer, f"{lone}_imag")
        expected = spectral_filter_reference(x, real, imag, mask).data
        assert np.allclose(layer.mix_spectra(x).data, expected, atol=1e-10)

    def test_gamma_zero_equals_dfs_only_mixing(self, rng):
        """With gamma=0 the SFS branch contributes nothing to the mix."""
        m = num_frequency_bins(12)
        mask = np.ones(m)
        layer = FilterMixerLayer(12, 8, mask, mask, gamma=0.0, rng=np.random.default_rng(0))
        layer.eval()
        x = Tensor(rng.normal(size=(2, 12, 8)))
        mixed = layer.mix_spectra(x).data
        from repro.autograd.spectral import spectral_filter

        dfs_only = spectral_filter(x, [(layer.dfs_real, layer.dfs_imag, mask, 1.0)]).data
        assert np.allclose(mixed, dfs_only, atol=1e-10)

    def test_mask_bin_count_validated(self, rng):
        with pytest.raises(ValueError):
            FilterMixerLayer(12, 8, np.ones(3), None, rng=rng)

    def test_filter_cache_invalidated_on_payload_replacement(self, rng):
        """Replacing a filter parameter's .data must not serve stale filters."""
        m = num_frequency_bins(12)
        layer = FilterMixerLayer(12, 8, np.ones(m), np.ones(m), rng=np.random.default_rng(0))
        layer.eval()
        x = Tensor(rng.normal(size=(2, 12, 8)))
        before = layer.mix_spectra(x).data.copy()  # warms the cache
        layer.dfs_real.data = layer.dfs_real.data + 1.0  # new payload object
        after = layer.mix_spectra(x).data
        assert not np.allclose(before, after)

    def test_filter_cache_manual_invalidation(self, rng):
        """In-place .data edits require invalidate_filter_cache()."""
        m = num_frequency_bins(12)
        layer = FilterMixerLayer(12, 8, np.ones(m), np.ones(m), rng=np.random.default_rng(0))
        layer.eval()
        x = Tensor(rng.normal(size=(2, 12, 8)))
        layer.mix_spectra(x)
        layer.dfs_real.data += 1.0
        layer.invalidate_filter_cache()
        from repro.autograd.spectral import combined_filter

        expected = combined_filter([
            (layer.dfs_real, layer.dfs_imag, layer.dfs_mask, 1.0 - layer.gamma),
            (layer.sfs_real, layer.sfs_imag, layer.sfs_mask, layer.gamma),
        ])
        assert np.allclose(layer._combined_filter(), expected)

    def test_gradients_reach_all_parameters(self, rng):
        m = num_frequency_bins(12)
        layer = FilterMixerLayer(12, 8, np.ones(m), np.ones(m), rng=rng)
        x = Tensor(rng.normal(size=(2, 12, 8)), requires_grad=True)
        layer(x).sum().backward()
        for name, param in layer.named_parameters():
            assert param.grad is not None, name


class TestSlime4Rec:
    def test_predict_shape_includes_padding_column(self):
        cfg = small_config()
        model = Slime4Rec(cfg)
        batch = random_batch(cfg)
        scores = model.predict_scores(batch.input_ids)
        assert scores.shape == (4, cfg.num_items + 1)

    def test_loss_is_finite_scalar(self):
        cfg = small_config()
        model = Slime4Rec(cfg)
        loss = model.loss(random_batch(cfg))
        assert loss.data.shape == ()
        assert np.isfinite(loss.data)

    def test_loss_without_positive_falls_back_to_rec(self):
        cfg = small_config()
        model = Slime4Rec(cfg)
        model.eval()  # deterministic (no dropout)
        batch = random_batch(cfg, with_positive=False)
        loss = model.loss(batch)
        rec = model.recommendation_loss(batch.input_ids, batch.targets)
        assert np.isclose(float(loss.data), float(rec.data))

    def test_cl_weight_zero_matches_rec_loss(self):
        cfg = small_config(cl_weight=0.0)
        model = Slime4Rec(cfg)
        model.eval()
        batch = random_batch(cfg)
        assert np.isclose(
            float(model.loss(batch).data),
            float(model.recommendation_loss(batch.input_ids, batch.targets).data),
        )

    def test_cl_term_increases_loss(self):
        batch_cfg = small_config(cl_weight=0.0)
        cl_cfg = small_config(cl_weight=1.0)
        plain = Slime4Rec(batch_cfg)
        contrastive = Slime4Rec(cl_cfg)
        contrastive.load_state_dict(plain.state_dict())
        plain.eval(), contrastive.eval()
        batch = random_batch(batch_cfg)
        assert float(contrastive.loss(batch).data) > float(plain.loss(batch).data)

    def test_training_reduces_loss(self):
        from repro.optim import Adam

        cfg = small_config(cl_weight=0.0, embed_dropout=0.0, hidden_dropout=0.0)
        model = Slime4Rec(cfg)
        batch = random_batch(cfg, batch=16)
        opt = Adam(model.parameters(), lr=1e-2)
        first = None
        for step in range(30):
            opt.zero_grad()
            loss = model.loss(batch)
            if first is None:
                first = float(loss.data)
            loss.backward()
            opt.step()
        assert float(loss.data) < first * 0.8

    def test_ablation_variants_construct(self):
        for kwargs in (dict(use_dfs=False), dict(use_sfs=False), dict(cl_weight=0.0)):
            model = Slime4Rec(small_config(**kwargs))
            scores = model.predict_scores(random_batch(model.config).input_ids)
            assert np.all(np.isfinite(scores))

    def test_filter_amplitudes_structure(self):
        cfg = small_config(num_layers=3)
        model = Slime4Rec(cfg)
        amps = model.filter_amplitudes()
        m = num_frequency_bins(cfg.max_len)
        assert len(amps["dfs"]) == 3 and len(amps["sfs"]) == 3
        assert amps["dfs"][0].shape == (m, cfg.hidden_dim)

    def test_filter_amplitudes_respect_masks(self):
        cfg = small_config(num_layers=4, alpha=0.2)
        model = Slime4Rec(cfg)
        amps = model.filter_amplitudes()
        for layer, amp in zip(model.layers, amps["dfs"]):
            outside = layer.dfs_mask == 0
            assert np.allclose(amp[outside], 0.0)

    def test_noise_injection_changes_scores(self):
        quiet = Slime4Rec(small_config(noise_eps=0.0))
        noisy = Slime4Rec(small_config(noise_eps=0.5))
        noisy.load_state_dict(quiet.state_dict())
        quiet.eval(), noisy.eval()
        inputs = random_batch(quiet.config).input_ids
        assert not np.allclose(quiet.predict_scores(inputs), noisy.predict_scores(inputs))

    def test_deterministic_construction(self):
        a = Slime4Rec(small_config(seed=42))
        b = Slime4Rec(small_config(seed=42))
        sa, sb = a.state_dict(), b.state_dict()
        assert all(np.allclose(sa[k], sb[k]) for k in sa)

    def test_alpha_one_single_layer_masks_match_fmlp(self):
        """alpha=1 -> every DFS window is the full band (FMLP equivalence)."""
        model = Slime4Rec(small_config(alpha=1.0, num_layers=2))
        for layer in model.layers:
            assert np.all(layer.dfs_mask == 1.0)

    def test_rejects_wrong_sequence_length(self):
        cfg = small_config()
        model = Slime4Rec(cfg)
        with pytest.raises(ValueError):
            model.predict_scores(np.zeros((2, cfg.max_len + 1), dtype=np.int64))


class TestLastPositionInference:
    """Eval-mode, grad-off encodes run the last block on the last position.

    Only the spectral filter mixes positions, so the fast path must
    equal the full ``encode_states(ids)[:, -1]`` up to rounding, and
    training or grad mode must never take it.
    """

    @staticmethod
    def _pair(model, inputs):
        from repro.autograd.tensor import no_grad

        with no_grad():
            ref = model.encode_states(inputs).data[:, -1]
            got = model.user_representation(inputs).data
        return got, ref

    @staticmethod
    def _assert_close(got, ref):
        if got.dtype == np.float64:
            np.testing.assert_allclose(got, ref, rtol=1e-12)
        else:
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-5 * np.abs(ref).max())

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(),
            dict(use_dfs=False),
            dict(use_sfs=False),
            dict(num_layers=1),
            dict(num_layers=3),
            dict(max_len=13),
        ],
        ids=["both", "w/oD", "w/oS", "L1", "L3", "odd_len"],
    )
    def test_matches_full_encode(self, dtype, overrides):
        cfg = small_config(dtype=dtype, **overrides)
        model = Slime4Rec(cfg)
        model.eval()
        got, ref = self._pair(model, random_batch(cfg, batch=9).input_ids)
        assert got.shape == (9, cfg.hidden_dim) and got.dtype == ref.dtype
        self._assert_close(got, ref)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_noise_stream_consumed_as_on_full_path(self, dtype):
        from repro.autograd.tensor import no_grad

        cfg = small_config(dtype=dtype, noise_eps=0.3)
        model = Slime4Rec(cfg)
        model.eval()
        inputs = random_batch(cfg).input_ids
        start = model._noise_rng.bit_generator.state
        with no_grad():
            ref = model.encode_states(inputs).data[:, -1]
        end = model._noise_rng.bit_generator.state
        model._noise_rng.bit_generator.state = start
        with no_grad():
            got = model.user_representation(inputs).data
        assert model._noise_rng.bit_generator.state == end
        self._assert_close(got, ref)

    def test_kernel_cache_refreshes_after_optimizer_step(self):
        from repro.optim import Adam

        cfg = small_config(cl_weight=0.0)
        model = Slime4Rec(cfg)
        batch = random_batch(cfg)
        model.eval()
        before = model.layers[-1]._last_kernel().copy()
        self._pair(model, batch.input_ids)  # warms every cache
        opt = Adam(model.parameters(), lr=1e-2)
        model.train()
        opt.zero_grad()
        model.loss(batch).backward()
        opt.step()
        model.eval()
        assert not np.allclose(model.layers[-1]._last_kernel(), before)
        self._assert_close(*self._pair(model, batch.input_ids))

    def test_training_and_grad_mode_run_the_full_path(self, monkeypatch):
        """The fast path is never taken when a graph or dropout is live."""

        def forbidden(self, x):
            raise AssertionError("forward_last taken outside eval/no-grad")

        cfg = small_config(cl_weight=0.0)
        batch = random_batch(cfg)

        def losses(model):
            out = []
            for train in (True, False):  # training mode; eval mode with grad on
                model.train(train)
                model.embed_dropout.rng = np.random.default_rng(7)
                for layer in model.layers:
                    layer.filter_dropout.rng = np.random.default_rng(8)
                    layer.ffn_dropout.rng = np.random.default_rng(9)
                out.append(model.recommendation_loss(batch.input_ids, batch.targets).data)
                model.embed_dropout.rng = np.random.default_rng(7)
                for layer in model.layers:
                    layer.filter_dropout.rng = np.random.default_rng(8)
                    layer.ffn_dropout.rng = np.random.default_rng(9)
                states = model.encode_states(batch.input_ids)
                out.append(model.prediction_loss(states[:, -1], batch.targets).data)
            return out

        model = Slime4Rec(cfg)
        monkeypatch.setattr(FilterMixerLayer, "forward_last", forbidden)
        train_loss, train_ref, eval_loss, eval_ref = losses(model)
        assert train_loss.tobytes() == train_ref.tobytes()
        assert eval_loss.tobytes() == eval_ref.tobytes()

    def test_forward_last_rejects_training_and_grad_mode(self, rng):
        from repro.autograd.tensor import no_grad

        m = num_frequency_bins(12)
        layer = FilterMixerLayer(12, 8, np.ones(m), np.ones(m), rng=rng)
        x = Tensor(rng.normal(size=(2, 12, 8)))
        with pytest.raises(RuntimeError):
            layer.forward_last(x)  # training mode
        layer.eval()
        with pytest.raises(RuntimeError):
            layer.forward_last(x)  # grad enabled
        with no_grad():
            assert layer.forward_last(x).shape == (2, 1, 8)
