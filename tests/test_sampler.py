import numpy as np
import pytest

from tdas.core import NoiseSource
from tdas.filters import SpaceFilter, build_freq_mask, FreqFilterParams, identity_space_mask
from tdas.sampler import (
    DivergenceError,
    SamplerConfig,
    freq_domain_sample,
    langevin_sample,
    sample_batch,
    vanilla_sample,
)
from tdas.scores import EmpiricalScore, GaussianScore, ScoreModel, geometric_levels
from tdas.synthdata import LOW_FREQ_BLOBS, SynthSpec, generate
from tdas.transforms import Dct2Map


def make_cfg(**kw):
    defaults = dict(levels=geometric_levels(1.0, 0.1, 5, 4), eps0=0.01)
    defaults.update(kw)
    return SamplerConfig(**defaults)


class TestSchedule:
    def test_step_sizes_follow_sigma(self):
        cfg = make_cfg()
        sched = list(cfg.schedule())
        assert len(sched) == 20
        smin2 = cfg.levels.sigma_min**2
        for _, sigma, eps in sched:
            assert np.isclose(eps, cfg.eps0 * sigma**2 / smin2)

    def test_accel_scales_linearly_keeping_budget(self):
        base = sum(e for _, _, e in make_cfg().schedule())
        fast = make_cfg(levels=geometric_levels(1.0, 0.1, 5, 2), accel_factor=2.0)
        assert np.isclose(sum(e for _, _, e in fast.schedule()), base)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            make_cfg(eps0=0.0)
        with pytest.raises(ValueError):
            make_cfg(accel_factor=-1.0)


class TestLoops:
    def test_identity_filter_bit_identical_to_vanilla(self):
        model = GaussianScore(np.zeros((1, 6, 6)), 1.0)
        cfg = make_cfg()
        for seed in range(3):
            v = vanilla_sample(model, cfg, NoiseSource(seed), (1, 6, 6))
            f = langevin_sample(model, cfg, NoiseSource(seed),
                                identity_space_mask((1, 6, 6)), np.ones((1, 6, 6)))
            assert np.array_equal(v, f)

    def test_trajectory_recording(self):
        model = GaussianScore(np.zeros((1, 4, 4)), 1.0)
        cfg = make_cfg()
        traj = []
        x = vanilla_sample(model, cfg, NoiseSource(0), (1, 4, 4), observe=traj.append)
        assert len(traj) == cfg.total_steps + 1
        assert np.array_equal(traj[-1], x)

    def test_max_steps_truncates(self):
        model = GaussianScore(np.zeros((1, 4, 4)), 1.0)
        traj = []
        vanilla_sample(model, make_cfg(), NoiseSource(0), (1, 4, 4), max_steps=7,
                       observe=traj.append)
        assert len(traj) == 8

    def test_divergence_detected(self):
        class ExplodingScore(GaussianScore):
            def score(self, x, sigma=0.0):
                return np.full_like(x, np.inf)

        model = ExplodingScore(np.zeros((1, 4, 4)), 1.0)
        with pytest.raises(DivergenceError) as exc:
            vanilla_sample(model, make_cfg(), NoiseSource(0), (1, 4, 4))
        assert exc.value.step == 0

    def test_denoise_final_step(self):
        model = GaussianScore(np.zeros((1, 4, 4)), 1.0)
        cfg = make_cfg()
        seed = 5
        x_plain = vanilla_sample(model, cfg, NoiseSource(seed), (1, 4, 4))
        x_den = vanilla_sample(model, make_cfg(denoise_final=True), NoiseSource(seed), (1, 4, 4))
        smin = cfg.levels.sigma_min
        assert np.allclose(x_den, x_plain + smin**2 * model.score(x_plain, smin))

    def test_filtered_noise_changes_output(self):
        model = GaussianScore(np.zeros((1, 8, 8)), 1.0)
        cfg = make_cfg()
        freq = build_freq_mask(FreqFilterParams(0.5, 0.2, 0.2, 0.4), (1, 8, 8))
        v = vanilla_sample(model, cfg, NoiseSource(0), (1, 8, 8))
        f = langevin_sample(model, cfg, NoiseSource(0), identity_space_mask((1, 8, 8)), freq)
        assert not np.allclose(v, f)


class TestFreqDomainLoop:
    def test_conjugation_identity(self):
        model = GaussianScore(np.zeros((1, 8, 8)), 1.0)
        cfg = make_cfg()
        x_space = vanilla_sample(model, cfg, NoiseSource(4), (1, 8, 8))
        x_conj = freq_domain_sample(model, cfg, NoiseSource(4), (1, 8, 8))
        assert np.allclose(x_space, x_conj, atol=1e-10)

    def test_denoise_final_honoured(self):
        model = GaussianScore(np.zeros((1, 8, 8)), 1.0)
        cfg = make_cfg(denoise_final=True)
        x_space = vanilla_sample(model, cfg, NoiseSource(4), (1, 8, 8))
        x_conj = freq_domain_sample(model, cfg, NoiseSource(4), (1, 8, 8))
        assert np.allclose(x_space, x_conj, rtol=0, atol=1e-10)

    def test_observer_sees_transform_domain_states_before_denoising(self):
        model = GaussianScore(np.zeros((1, 8, 8)), 1.0)
        fmap = Dct2Map()
        traj = []
        freq_domain_sample(model, make_cfg(denoise_final=True), NoiseSource(4), (1, 8, 8),
                           fmap=fmap, observe=traj.append)
        plain = freq_domain_sample(model, make_cfg(), NoiseSource(4), (1, 8, 8), fmap=fmap)
        assert len(traj) == make_cfg().total_steps + 1
        assert np.array_equal(fmap.inverse(traj[-1]), plain)


class TestSampleBatch:
    def test_chains_independent_of_batch_size(self):
        model = GaussianScore(np.zeros((1, 4, 4)), 1.0)
        cfg = make_cfg()
        full = sample_batch(model, cfg, 42, 4, shape=(1, 4, 4))
        fewer = sample_batch(model, cfg, 42, 2, shape=(1, 4, 4))
        assert np.allclose(full[:2], fewer)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_gaussian_chains_bit_identical_across_batch_sizes(self, k):
        # The batch score is a stack of per-chain score calls, so no chain sees its batch.
        model = GaussianScore(np.linspace(-1.0, 1.0, 16).reshape(1, 4, 4), 0.7)
        full = sample_batch(model, make_cfg(), 42, 5, shape=(1, 4, 4))
        assert np.array_equal(sample_batch(model, make_cfg(), 42, k, shape=(1, 4, 4)), full[:k])

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_empirical_chains_agree_to_rounding_across_batch_sizes(self, k):
        # BLAS may round a row of the score's products differently for another
        # batch size (a one-row product takes another path), so only
        # round-off is pinned.
        model = EmpiricalScore(generate(SynthSpec(LOW_FREQ_BLOBS, 20, (1, 8, 8), seed=9)))
        full = sample_batch(model, make_cfg(), 42, 9, shape=(1, 8, 8))
        np.testing.assert_allclose(sample_batch(model, make_cfg(), 42, k, shape=(1, 8, 8)),
                                   full[:k], rtol=0, atol=1e-12)

    def test_matches_single_chain_loop(self):
        model = GaussianScore(np.zeros((1, 4, 4)), 1.0)
        cfg = make_cfg()
        batch = sample_batch(model, cfg, 42, 3, shape=(1, 4, 4))
        for i in range(3):
            single = vanilla_sample(model, cfg, NoiseSource.for_worker(42, i), (1, 4, 4))
            assert np.allclose(batch[i], single, atol=1e-12)

    def test_needs_shape_or_mask(self):
        model = GaussianScore(np.zeros((1, 4, 4)), 1.0)
        with pytest.raises(ValueError):
            sample_batch(model, make_cfg(), 0, 2)

    def test_rejects_shape_that_disagrees_with_space_mask(self):
        model = GaussianScore(np.zeros((1, 4, 4)), 1.0)
        space = identity_space_mask((1, 4, 4))
        with pytest.raises(ValueError):
            sample_batch(model, make_cfg(), 0, 2, space=space, shape=(1, 8, 8))
        agreeing = sample_batch(model, make_cfg(), 0, 2, space=space, shape=[1, 4, 4])
        assert np.array_equal(agreeing, sample_batch(model, make_cfg(), 0, 2, space=space))

    def test_model_with_only_score_runs_through_its_score(self):
        class Pull(ScoreModel):
            calls = 0

            def score(self, x, sigma):
                Pull.calls += 1
                return -x / (1.0 + sigma**2)

        cfg = make_cfg()
        out = sample_batch(Pull(), cfg, 42, 3, shape=(1, 4, 4))
        assert Pull.calls == 3 * cfg.total_steps
        # The same pull as a Gaussian target with s0 = 1 and mu = 0.
        gaussian = sample_batch(GaussianScore(np.zeros((1, 4, 4)), 1.0), cfg, 42, 3, shape=(1, 4, 4))
        assert np.array_equal(out, gaussian)
