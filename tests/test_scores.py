import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from tdas.core import ImageDataset, NoiseSource
from tdas.scores import (
    EmpiricalScore,
    GaussianScore,
    NoiseLevels,
    ScoreModel,
    _row_logsumexp,
    geometric_levels,
)
from tdas.transforms import Dct2Map, PermutationMap

TINY = np.finfo(np.float64).tiny


def numeric_grad(log_density, x, h=1e-5):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (log_density(xp) - log_density(xm)) / (2 * h)
    return g


class TestGaussianScore:
    def test_score_formula(self):
        mu = np.full((1, 2, 2), 0.5)
        m = GaussianScore(mu, s0=2.0)
        x = np.ones((1, 2, 2))
        assert np.allclose(m.score(x, sigma=1.0), -(x - mu) / 5.0)

    def test_score_is_the_negated_difference_bit_for_bit(self, rng):
        m = GaussianScore(rng.standard_normal((1, 6, 6)), s0=0.7)
        x = rng.standard_normal((4, 1, 6, 6)) * 3.0
        for sigma in (0.0, 0.3, 11.0):
            assert np.array_equal(m.score(x, sigma), -(x - m.mu) / (m.s0**2 + sigma**2))

    def test_score_is_log_density_gradient(self, rng):
        m = GaussianScore(rng.standard_normal((1, 2, 2)), s0=1.5)
        x = rng.standard_normal((1, 2, 2))
        num = numeric_grad(lambda y: m.log_density(y, 0.7), x)
        assert np.allclose(m.score(x, 0.7), num, atol=1e-6)

    def test_sample_target_moments(self):
        m = GaussianScore(np.full((1, 4, 4), 2.0), s0=0.5)
        src = NoiseSource(0)
        draws = m.sample_targets(src, 4000)
        assert abs(draws.mean() - 2.0) < 0.02
        assert abs(draws.std() - 0.5) < 0.02


class TestInBasis:
    @pytest.mark.parametrize("fmap", [Dct2Map(), PermutationMap((2, 5, 6), seed=3)],
                             ids=["dct", "permutation"])
    def test_gaussian_score_is_the_conjugated_score(self, fmap, rng):
        m = GaussianScore(rng.standard_normal((2, 5, 6)), s0=0.8)
        mapped = m.in_basis(fmap)
        x = rng.standard_normal((3, 2, 5, 6)) * 2.0
        for sigma in (0.0, 0.4, 3.0):
            np.testing.assert_allclose(mapped.score(fmap.forward(x), sigma),
                                       fmap.forward(m.score(x, sigma)), rtol=0, atol=1e-12)

    def test_models_without_the_form_give_none(self, small_dataset):
        class Shifted(GaussianScore):
            def score(self, x, sigma=0.0):
                return super().score(x, sigma) + 1.0

        for m in (EmpiricalScore(small_dataset), Shifted(np.zeros((1, 8, 8)), 1.0), _ScoreOnly()):
            assert m.in_basis(Dct2Map()) is None


class _ScoreOnly(ScoreModel):
    """A model that defines only score, so it inherits ScoreModel.score_batch."""

    def score(self, x, sigma):
        return np.sin(x) / (1.0 + sigma**2)


class TestScoreBatchDefault:
    @pytest.mark.parametrize("model", [GaussianScore(np.full((1, 3, 4), 0.25), 1.5), _ScoreOnly()],
                             ids=["gaussian", "score-only"])
    def test_equals_per_chain_stack(self, model, rng):
        xs = rng.standard_normal((5, 1, 3, 4))
        expected = np.stack([model.score(x, 0.7) for x in xs])
        assert np.array_equal(model.score_batch(xs, 0.7), expected)

    @pytest.mark.parametrize("model", [GaussianScore(np.full((1, 3, 4), 0.25), 1.5), _ScoreOnly()],
                             ids=["gaussian", "score-only"])
    def test_writes_into_out(self, model, rng):
        xs = rng.standard_normal((5, 1, 3, 4))
        out = np.full(xs.shape, np.nan)
        assert model.score_batch(xs, 0.7, out=out) is out
        assert np.array_equal(out, np.stack([model.score(x, 0.7) for x in xs]))

    @pytest.mark.parametrize("result", [lambda x: 1.0, lambda x: x[0, 0], lambda x: x[None]],
                             ids=["scalar", "row", "extra-axis"])
    def test_rejects_a_chain_score_of_another_shape(self, result):
        # Each of these would broadcast into the chain's row.
        class Odd(ScoreModel):
            def score(self, x, sigma):
                return result(x)

        with pytest.raises(ValueError, match="shape"):
            Odd().score_batch(np.ones((2, 1, 3, 4)), 0.7)


class TestEmpiricalScore:
    def test_single_atom_reduces_to_gaussian(self, rng):
        atom = rng.standard_normal((1, 3, 3))
        m = EmpiricalScore(ImageDataset(atom[None]))
        x = rng.standard_normal((1, 3, 3))
        assert np.allclose(m.score(x, 0.8), (atom - x) / 0.64, atol=1e-10)

    def test_score_is_log_density_gradient(self, small_dataset, rng):
        m = EmpiricalScore(small_dataset)
        x = rng.standard_normal((1, 8, 8))
        num = numeric_grad(lambda y: m.log_density(y, 1.2), x)
        assert np.allclose(m.score(x, 1.2), num, atol=1e-5)

    def test_score_batch_matches_single(self, small_dataset, rng):
        m = EmpiricalScore(small_dataset)
        xs = rng.standard_normal((5, 1, 8, 8))
        batched = m.score_batch(xs, 0.9)
        assert np.allclose(batched, np.stack([m.score(x, 0.9) for x in xs]), atol=1e-10)

    def test_score_batch_into_out_is_bit_identical(self, small_dataset, rng):
        m = EmpiricalScore(small_dataset)
        xs = rng.standard_normal((5, 1, 8, 8))
        out = np.full(xs.shape, np.nan)
        assert m.score_batch(xs, 0.9, out=out) is out
        assert np.array_equal(out, m.score_batch(xs, 0.9))

    @pytest.mark.parametrize("shape", [(1, 4, 16), (4, 4, 4), (64,), (8, 8), (3, 4, 8, 8)])
    def test_score_rejects_x_not_ending_in_the_image_shape(self, small_dataset, shape):
        # Each has a multiple of the 64 pixels, which a reshape would take.
        with pytest.raises(ValueError, match="dataset"):
            EmpiricalScore(small_dataset).score(np.zeros(shape), 0.9)

    @pytest.mark.parametrize("shape", [(2, 1, 4, 16), (3, 4, 4, 4), (2, 64), (5, 2, 1, 8, 4)])
    def test_score_batch_rejects_x_not_ending_in_the_image_shape(self, small_dataset, shape):
        with pytest.raises(ValueError, match="dataset"):
            EmpiricalScore(small_dataset).score_batch(np.zeros(shape), 0.9)

    def test_score_takes_a_stack(self, small_dataset, rng):
        m = EmpiricalScore(small_dataset)
        xs = rng.standard_normal((2, 3, 1, 8, 8))
        assert np.array_equal(m.score(xs, 0.9), m.score_batch(xs, 0.9))

    def test_far_point_stable(self, small_dataset):
        # Log-space weights must not overflow at large distances.
        m = EmpiricalScore(small_dataset)
        out = m.score(np.full((1, 8, 8), 1e3), 0.1)
        assert np.all(np.isfinite(out))

    def test_sigma_zero_rejected(self, small_dataset):
        m = EmpiricalScore(small_dataset)
        with pytest.raises(ValueError):
            m.score(np.zeros((1, 8, 8)), 0.0)

    def test_sample_target_returns_items(self, small_dataset):
        m = EmpiricalScore(small_dataset)
        src = NoiseSource(3)
        for draw in m.sample_targets(src, 5):
            assert any(np.array_equal(draw, item) for item in small_dataset.items)


@pytest.mark.parametrize("make_model", [
    lambda ds: GaussianScore(np.linspace(-1.0, 1.0, 64).reshape(1, 8, 8), 0.7),
    EmpiricalScore,
], ids=["gaussian", "empirical"])
def test_sample_targets_are_successive_draws(make_model, small_dataset):
    m = make_model(small_dataset)
    block_src, one_src = NoiseSource(12), NoiseSource(12)
    block = m.sample_targets(block_src, 37)
    singles = np.stack([m.sample_targets(one_src, 1)[0] for _ in range(37)])
    assert block.shape == (37, 1, 8, 8)
    assert np.array_equal(block, singles)
    assert np.array_equal(block_src.normal((5,)), one_src.normal((5,)))
    assert block_src.integers(0, 1000) == one_src.integers(0, 1000)


class _MatmulRecorder(np.ndarray):
    """Array that records the left operand of every `left @ self`. Views such as
    self.T do not inherit left_operands, so products with them go unrecorded."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and inputs[1] is self and hasattr(self, "left_operands"):
            self.left_operands.append(np.array(inputs[0]))
        inputs = tuple(np.asarray(a) for a in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestSubnormalWeights:
    SIGMA = 0.12

    def test_score_batch_keeps_subnormal_weights_out_of_matmul(self):
        rng = np.random.Generator(np.random.PCG64(7))
        ds = ImageDataset(rng.standard_normal((40, 1, 4, 4)))
        x = ds.items[:6] + 0.3 * rng.standard_normal((6, 1, 4, 4))
        flat, xf = ds.items.reshape(len(ds), -1), x.reshape(len(x), -1)
        # The unflushed formula: scipy logsumexp, weights used as they come.
        sq = (np.sum(xf**2, axis=1, keepdims=True) + np.sum(flat**2, axis=1)[None, :]
              - 2.0 * xf @ flat.T)
        logits = -sq / (2.0 * self.SIGMA**2)
        w = np.exp(logits - logsumexp(logits, axis=1, keepdims=True))
        assert np.any((w > 0) & (w < TINY)), "case must produce subnormal weights"
        expected = ((w @ flat - xf) / self.SIGMA**2).reshape(x.shape)

        m = EmpiricalScore(ds)
        m._flat = m._flat.view(_MatmulRecorder)
        m._flat.left_operands = []
        out = m.score_batch(x, self.SIGMA)
        (reached,) = m._flat.left_operands
        assert reached.shape == w.shape
        assert np.all((reached == 0) | (reached >= TINY))
        assert np.array_equal(np.asarray(out), expected)


class TestRowLogsumexp:
    def check(self, a):
        expected = logsumexp(a, axis=1, keepdims=True)
        assert np.array_equal(_row_logsumexp(a, np.empty_like(a)), expected)

    @pytest.mark.parametrize("scale", [1.0, 30.0, 1e3, 1e5])
    def test_random_rows(self, rng, scale):
        self.check(scale * rng.standard_normal((20, 300)))

    def test_tied_maximum(self, rng):
        a = rng.standard_normal((6, 50))
        a[:, [3, 17, 40]] = a.max(axis=1, keepdims=True) + 0.5
        a[0, 9] = a[0, 3]
        self.check(a)

    def test_one_hot_rows(self, rng):
        a = -1e5 + rng.standard_normal((5, 64))
        a[np.arange(5), [0, 7, 63, 20, 7]] = 0.0
        self.check(a)

    def test_subnormal_shifted_entries(self, rng):
        a = -rng.uniform(708.0, 745.0, size=(8, 100))
        a[:, 0] = rng.standard_normal(8)
        shifted = np.exp(a - a.max(axis=1, keepdims=True))
        assert np.any((shifted > 0) & (shifted < TINY))
        self.check(a)


class TestNoiseLevels:
    def test_requires_strictly_decreasing(self):
        with pytest.raises(ValueError):
            NoiseLevels((1.0, 1.0, 0.5), 1)
        with pytest.raises(ValueError):
            NoiseLevels((0.5, 1.0), 1)
        NoiseLevels((1.0, 0.5, 0.1), 1)

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            NoiseLevels((1.0, 0.0), 1)

    @pytest.mark.parametrize("sigmas", [(np.nan,), (1.0, np.nan), (np.inf, 1.0), (np.nan, 1.0, 0.5)])
    def test_requires_finite(self, sigmas):
        # A NaN fails no comparison, so the ordering check alone let it through.
        with pytest.raises(ValueError, match="finite"):
            NoiseLevels(sigmas, 1)

    @pytest.mark.parametrize("steps", [1.5, 2.0, True, "2", None])
    def test_requires_integral_steps_per_level(self, steps):
        # 1.5 made total_steps 3.0, which schedule() could not iterate.
        with pytest.raises(ValueError, match="integer"):
            NoiseLevels((1.0, 0.5), steps)

    def test_accepts_numpy_integer_steps(self):
        assert NoiseLevels((1.0, 0.5), np.int64(3)).total_steps == 6

    def test_totals(self):
        lv = NoiseLevels((2.0, 1.0, 0.5), 4)
        assert lv.levels == 3 and lv.total_steps == 12 and lv.sigma_min == 0.5

    @given(
        smax=st.floats(0.5, 10),
        ratio=st.floats(0.01, 0.9),
        n=st.integers(2, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_geometric_is_geometric(self, smax, ratio, n):
        lv = geometric_levels(smax, smax * ratio, n, 1)
        s = np.array(lv.sigmas)
        assert np.isclose(s[0], smax) and np.isclose(s[-1], smax * ratio)
        assert np.allclose(np.diff(np.log(s)), np.log(s[1] / s[0]), atol=1e-9)

    def test_geometric_single_level(self):
        assert geometric_levels(1.0, 0.1, 1).sigmas == (1.0,)

    def test_geometric_single_level_may_start_at_sigma_min(self):
        assert geometric_levels(0.5, 0.5, 1).sigmas == (0.5,)

    @pytest.mark.parametrize("sigma_max, sigma_min", [(1.0, 5.0), (1.0, 0.0), (1.0, -0.1),
                                                      (np.inf, 0.1), (np.nan, 0.1), (1.0, np.nan),
                                                      (np.inf, np.inf)])
    def test_geometric_single_level_checks_its_range(self, sigma_max, sigma_min):
        # The one level is sigma_max, but the range must still hold.
        with pytest.raises(ValueError):
            geometric_levels(sigma_max, sigma_min, 1)

    @pytest.mark.parametrize("levels", [2.5, 3.0, True])
    def test_geometric_requires_integral_levels(self, levels):
        with pytest.raises(ValueError, match="integer"):
            geometric_levels(1.0, 0.1, levels)
