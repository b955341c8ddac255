import math
import tracemalloc

import numpy as np
import pytest

from tdas import core, validate
from tdas.core import ImageDataset, NoiseSource
from tdas.sampler import SamplerConfig, freq_domain_sample, vanilla_sample
from tdas.scores import EmpiricalScore, GaussianScore, geometric_levels
from tdas.transforms import Dct2Map, PermutationMap
from tdas.validate import (
    check_theorem1,
    check_theorem2,
    sliced_wasserstein,
    spectral_deviation,
)


def make_cfg():
    return SamplerConfig(levels=geometric_levels(1.0, 0.1, 5, 4), eps0=0.01)


class TestTrajectoryEquivalence:
    def test_dct_map_tiny_deviation(self):
        model = GaussianScore(np.zeros((1, 8, 8)), 1.0)
        dev = check_theorem1(model, make_cfg(), seed=0, steps=20, shape=(1, 8, 8))
        assert dev <= 1e-10

    def test_permutation_map_exact(self):
        model = GaussianScore(np.zeros((1, 8, 8)), 1.0)
        fmap = PermutationMap((1, 8, 8), seed=1)
        dev = check_theorem1(model, make_cfg(), seed=0, steps=20, shape=(1, 8, 8), fmap=fmap)
        assert dev == 0.0

    @pytest.mark.parametrize("steps", [1, 7, 20])
    def test_compares_the_first_steps_of_the_trajectories(self, steps):
        # The gap is the largest over the initial state and the first `steps`
        # steps, measured on the two recorded full-run trajectories.
        model = GaussianScore(np.linspace(-1.0, 1.0, 64).reshape(1, 8, 8), 0.7)
        fmap = Dct2Map()
        traj_space, traj_freq = [], []
        vanilla_sample(model, make_cfg(), NoiseSource(3), (1, 8, 8), observe=traj_space.append)
        freq_domain_sample(model, make_cfg(), NoiseSource(3), (1, 8, 8), fmap=fmap,
                           observe=traj_freq.append)
        gaps = [float(np.max(np.abs(xf - fmap.forward(xs))))
                for xs, xf in zip(traj_space, traj_freq, strict=True)]
        assert check_theorem1(model, make_cfg(), 3, steps, (1, 8, 8), fmap) == max(gaps[:steps + 1])

    @pytest.mark.parametrize("steps", [0, -5, 21, 5.5, True])
    def test_rejects_steps_outside_the_run(self, steps):
        # 0 or -5 steps compared only the initial state; the run has 20. 5.5
        # and True are no step counts, though the range check takes both.
        model = GaussianScore(np.zeros((1, 4, 4)), 1.0)
        with pytest.raises(ValueError, match="steps"):
            check_theorem1(model, make_cfg(), 0, steps, (1, 4, 4))


class TestDeviationDecomposition:
    def test_identity_holds_per_draw(self):
        # With shared draws, lhs equals the decomposition exactly, not just in
        # expectation; consistency at tiny n_mc confirms the shared stream.
        model = GaussianScore(np.zeros((1, 4, 4)), 1.0)
        rep = check_theorem2(model, np.zeros((1, 4, 4)),
                             lambda xs, src: src.normal((1, 4, 4)), 0.01, 200, seed=1)
        assert abs(rep.lhs - rep.rhs) < 1e-10
        assert rep.consistent()

    def test_correlated_noise_shifts_terms(self):
        model = GaussianScore(np.zeros((1, 4, 4)), 1.0)
        aligned = check_theorem2(model, np.zeros((1, 4, 4)),
                                 lambda xs, src: xs, 0.04, 500, seed=2)
        anti = check_theorem2(model, np.zeros((1, 4, 4)),
                              lambda xs, src: -xs, 0.04, 500, seed=2)
        assert aligned.correlation_term > 0 > anti.correlation_term
        assert np.isclose(aligned.correlation_term, -anti.correlation_term)
        assert aligned.consistent() and anti.consistent()

    def test_rejects_small_mc(self):
        model = GaussianScore(np.zeros((1, 2, 2)), 1.0)
        with pytest.raises(ValueError):
            check_theorem2(model, np.zeros((1, 2, 2)), lambda xs, src: xs, 0.01, 50)

    @pytest.mark.parametrize("eps", [0.0, float("nan"), float("inf")])
    def test_rejects_eps_that_is_not_positive_and_finite(self, eps):
        model = GaussianScore(np.zeros((1, 2, 2)), 1.0)
        with pytest.raises(ValueError, match="eps"):
            check_theorem2(model, np.zeros((1, 2, 2)), lambda xs, src: xs, eps, 100)

    def test_json_report(self):
        model = GaussianScore(np.zeros((1, 2, 2)), 1.0)
        rep = check_theorem2(model, np.zeros((1, 2, 2)),
                             lambda xs, src: src.normal((1, 2, 2)), 0.01, 100)
        import json

        d = json.loads(rep.to_json())
        assert {"lhs", "rhs", "consistent", "standard_error"} <= set(d)


def per_draw_theorem2(model, x_t, noise_gen, eps, n_mc, seed):
    """Reference: the four terms summed one draw at a time, targets from
    NoiseSource(seed) and noise from its child stream for_worker(seed, 0)."""
    src = NoiseSource(seed)
    noise_src = NoiseSource.for_worker(seed, 0)
    drift = x_t + (eps / 2.0) * model.score(x_t, 0.0)
    root_eps = math.sqrt(eps)
    lhs, c1, var, corr = (np.empty(n_mc) for _ in range(4))
    for j in range(n_mc):
        x_star = model.sample_targets(src, 1)[0]
        z = noise_gen(x_star, noise_src)
        a = x_star - drift
        lhs[j] = np.sum((a - root_eps * z) ** 2)
        c1[j] = np.sum(a**2)
        var[j] = eps * np.sum(z**2)
        corr[j] = 2.0 * root_eps * np.sum(x_star * z)
    return validate.DeviationReport(
        lhs=float(lhs.mean()), c1_term=float(c1.mean()), variance_term=float(var.mean()),
        correlation_term=float(corr.mean()), mc_samples=n_mc,
        standard_error=float(lhs.std(ddof=1) / math.sqrt(n_mc)))


class SmoothedEmpirical(EmpiricalScore):
    """Empirical target (sample_targets draws integers) with a score defined at sigma 0."""

    def score(self, x, sigma):
        return super().score(x, max(sigma, 0.5))


def _gaussian(shape):
    return GaussianScore(np.linspace(-1.0, 1.0, math.prod(shape)).reshape(shape), 1.3)


def _empirical(shape):
    items = np.random.Generator(np.random.PCG64(8)).standard_normal((9,) + shape)
    return SmoothedEmpirical(ImageDataset(items))


class TestDeviationBlocks:
    @pytest.mark.parametrize("shape", [(1, 8, 8), (3, 5, 7)])
    @pytest.mark.parametrize("make_model", [_gaussian, _empirical])
    @pytest.mark.parametrize("noise_gen", [lambda xs, src: src.normal(xs.shape),
                                           lambda xs, src: xs, lambda xs, src: -xs],
                             ids=["independent", "aligned", "anti"])
    def test_equals_per_draw_loop(self, monkeypatch, shape, make_model, noise_gen):
        # 37 draws per block: 250 draws span seven blocks, the last one partial.
        draw_bytes = 8 * math.prod(shape)
        monkeypatch.setattr(core, "BLOCK_BYTES", 37 * draw_bytes + draw_bytes // 2)
        model = make_model(shape)
        x_t = np.random.Generator(np.random.PCG64(4)).standard_normal(shape)
        got = check_theorem2(model, x_t, noise_gen, 0.02, 250, seed=6)
        assert got == per_draw_theorem2(model, x_t, noise_gen, 0.02, 250, seed=6)

    def test_memory_stays_within_a_few_blocks(self):
        # The CLI default: stacking every draw would take 2 * 100_000 * 2 KiB.
        shape, n_mc = (1, 16, 16), 100_000
        model = GaussianScore(np.zeros(shape), 1.0)
        tracemalloc.start()
        try:
            check_theorem2(model, np.zeros(shape), lambda xs, src: xs, 0.01, n_mc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * core.BLOCK_BYTES + 4 * 8 * n_mc


class TestTheorem2Draws:
    def test_regimes_share_their_targets(self, monkeypatch):
        shape, n_mc, seed = (2, 3, 5), 300, 9
        draw_bytes = 8 * math.prod(shape)
        monkeypatch.setattr(core, "BLOCK_BYTES", 41 * draw_bytes)
        model = _gaussian(shape)
        x_t = np.random.Generator(np.random.PCG64(4)).standard_normal(shape)
        reps = [check_theorem2(model, x_t, gen, 0.02, n_mc, seed=seed)
                for gen in (lambda xs, src: src.normal(xs.shape),
                            lambda xs, src: xs, lambda xs, src: -xs)]
        drift = x_t + 0.01 * model.score(x_t, 0.0)
        xs = model.sample_targets(NoiseSource(seed), n_mc)
        c1 = float(np.mean([np.sum((x - drift) ** 2) for x in xs]))
        assert [r.c1_term for r in reps] == [c1] * 3

    @pytest.mark.parametrize("noise_gen", [lambda xs, src: 0.0,
                                           lambda xs, src: np.zeros((1, 1, 1)),
                                           lambda xs, src: src.normal((1, 4, 3))],
                             ids=["scalar", "broadcastable", "transposed"])
    def test_rejects_noise_of_another_shape(self, noise_gen):
        model = GaussianScore(np.zeros((1, 3, 4)), 1.0)
        with pytest.raises(ValueError, match="shape"):
            check_theorem2(model, np.zeros((1, 3, 4)), noise_gen, 0.01, 100)

    def test_noise_gen_cannot_change_the_targets(self):
        def in_place(xs, src):
            xs *= -1.0
            return xs

        model = GaussianScore(np.zeros((1, 3, 4)), 1.0)
        with pytest.raises(ValueError, match="read-only"):
            check_theorem2(model, np.zeros((1, 3, 4)), in_place, 0.01, 100)


class TestMetrics:
    def test_spectral_deviation_zero_on_self(self, small_dataset):
        assert spectral_deviation(small_dataset, small_dataset) == 0.0

    def test_spectral_deviation_symmetric(self, rng):
        a = ImageDataset(rng.standard_normal((10, 1, 8, 8)))
        b = ImageDataset(2.0 * rng.standard_normal((10, 1, 8, 8)))
        assert np.isclose(spectral_deviation(a, b), spectral_deviation(b, a))

    def test_spectral_deviation_detects_scaling(self, small_dataset):
        scaled = ImageDataset(2.0 * small_dataset.items)
        assert np.isclose(spectral_deviation(small_dataset, scaled), np.log(4.0))

    def test_sw_zero_on_identical(self, small_dataset):
        assert sliced_wasserstein(small_dataset, small_dataset) < 1e-12

    def test_sw_detects_mean_shift(self, rng):
        a = ImageDataset(rng.standard_normal((200, 1, 4, 4)))
        b = ImageDataset(rng.standard_normal((200, 1, 4, 4)) + 3.0)
        far = sliced_wasserstein(a, b, 32, seed=0)
        near = sliced_wasserstein(a, ImageDataset(rng.standard_normal((200, 1, 4, 4))), 32, seed=0)
        assert far > near

    def test_sw_unequal_sizes(self, rng):
        a = ImageDataset(rng.standard_normal((50, 1, 4, 4)))
        b = ImageDataset(rng.standard_normal((80, 1, 4, 4)))
        assert np.isfinite(sliced_wasserstein(a, b, 8, seed=0))

    def test_sw_seeded(self, rng):
        a = ImageDataset(rng.standard_normal((20, 1, 4, 4)))
        b = ImageDataset(rng.standard_normal((20, 1, 4, 4)))
        assert sliced_wasserstein(a, b, 16, seed=5) == sliced_wasserstein(a, b, 16, seed=5)

    def test_shape_mismatch(self, rng):
        a = ImageDataset(rng.standard_normal((5, 1, 4, 4)))
        b = ImageDataset(rng.standard_normal((5, 1, 8, 8)))
        with pytest.raises(ValueError):
            spectral_deviation(a, b)
        with pytest.raises(ValueError):
            sliced_wasserstein(a, b)
