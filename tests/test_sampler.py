import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from tdas import sampler
from tdas.core import NoiseSource, block_slices
from tdas.filters import (
    DCT,
    DFT,
    FreqFilterParams,
    SpaceFilter,
    build_freq_mask,
    identity_space_mask,
)
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
from tdas.transforms import Dct2Map, dct2


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

    @pytest.mark.parametrize("field", ["eps0", "accel_factor"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_step_sizes(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            make_cfg(**{field: value})

    def test_rejects_unknown_transform(self):
        # Caught at construction, not at a filtered run's first step.
        with pytest.raises(ValueError, match="transform"):
            make_cfg(transform="dtc")


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
        # The loop updates its state in place, so each state kept must be its
        # own copy: none shares memory with another or with the result, and
        # together they are a second run's trajectory copied step by step.
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(traj + [x], 2))
        copied = []
        vanilla_sample(model, cfg, NoiseSource(0), (1, 4, 4),
                       observe=lambda state: copied.append(state.copy()))
        assert all(np.array_equal(a, b) for a, b in zip(traj, copied, strict=True))

    def test_divergence_detected(self):
        class ExplodingScore(GaussianScore):
            def score(self, x, sigma=0.0):
                return np.full_like(x, np.inf)

        model = ExplodingScore(np.zeros((1, 4, 4)), 1.0)
        with pytest.raises(DivergenceError) as exc:
            vanilla_sample(model, make_cfg(), NoiseSource(0), (1, 4, 4))
        assert exc.value.step == 0
        assert exc.value.level == 0
        assert exc.value.sigma == make_cfg().levels.sigmas[0]
        assert exc.value.chains == (0,)

    def test_divergence_reports_level_sigma_and_chains(self):
        # Below sigma 0.5, chains whose first pixel is positive get an infinite score.
        class ExplodingLate(GaussianScore):
            def score(self, x, sigma=0.0):
                if sigma < 0.5 and x[0, 0, 0] > 0:
                    return np.full_like(x, np.inf)
                return super().score(x, sigma)

        shape, cfg, n = (1, 4, 4), make_cfg(), 8
        first = 2 * cfg.levels.steps_per_level  # sigmas 1, 0.56, 0.32, ...
        with pytest.raises(DivergenceError) as exc:
            sample_batch(ExplodingLate(np.zeros(shape), 1.0), cfg, 42, n, shape=shape)
        before = []
        for i in range(n):
            traj = []
            vanilla_sample(GaussianScore(np.zeros(shape), 1.0), cfg, NoiseSource.for_worker(42, i),
                           shape, observe=traj.append)
            before.append(traj[first])
        expected = tuple(i for i in range(n) if before[i][0, 0, 0] > 0)
        assert 0 < len(expected) < n
        assert (exc.value.step, exc.value.level) == (first, 2)
        assert exc.value.sigma == cfg.levels.sigmas[2]
        assert exc.value.chains == expected

    def test_finite_entries_whose_sum_overflows_are_not_a_divergence(self):
        # With eps = 2 the drift moves every entry to 1e308 in one step, and
        # 1e308 absorbs the noise, so each state's entries are finite while
        # their sum is not; the check's sum warns of no overflow.
        class ToHuge(ScoreModel):
            def score(self, x, sigma):
                return 1e308 - x

        shape = (1, 4, 4)
        cfg = make_cfg(levels=geometric_levels(1.0, 1.0, 1, 5), eps0=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outs = (vanilla_sample(ToHuge(), cfg, NoiseSource(0), shape),
                    sample_batch(ToHuge(), cfg, 42, 3, shape=shape))
        for out in outs:
            assert np.all(out == 1e308)
            with np.errstate(over="ignore"):
                assert not math.isfinite(out.sum())

    def test_infinities_of_both_signs_are_a_divergence_without_a_warning(self):
        # inf - inf in the check's sum is NaN, which numpy reports as invalid.
        class Opposed(ScoreModel):
            def score(self, x, sigma):
                s = np.zeros_like(x)
                s[..., 0, 0], s[..., 0, 1] = np.inf, -np.inf
                return s

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as exc:
                sample_batch(Opposed(), make_cfg(), 42, 2, shape=(1, 4, 4))
        assert (exc.value.step, exc.value.level, exc.value.chains) == (0, 0, (0, 1))

    def test_overflow_inside_a_score_still_warns(self):
        # The score overflows on the way to a finite result, so only numpy's
        # warning can show it: the loop must not silence the model.
        class Damped(ScoreModel):
            def score(self, x, sigma):
                return -x - 1.0 / np.exp(np.full_like(x, 1e3))

        with pytest.warns(RuntimeWarning, match="overflow"):
            out = vanilla_sample(Damped(), make_cfg(), NoiseSource(0), (1, 4, 4))
        assert np.all(np.isfinite(out))

    def test_filtered_noise_changes_output(self):
        model = GaussianScore(np.zeros((1, 8, 8)), 1.0)
        cfg = make_cfg()
        freq = build_freq_mask(FreqFilterParams(0.5, 0.2, 0.2, 0.4), (1, 8, 8))
        v = vanilla_sample(model, cfg, NoiseSource(0), (1, 8, 8))
        f = langevin_sample(model, cfg, NoiseSource(0), identity_space_mask((1, 8, 8)), freq)
        assert not np.allclose(v, f)

    @pytest.mark.parametrize("shape", [(4, 4), (1, 0, 4)])
    @pytest.mark.parametrize("entry", [vanilla_sample, freq_domain_sample])
    def test_rejects_shape_that_is_not_chw(self, entry, shape):
        with pytest.raises(ValueError):
            entry(GaussianScore(np.zeros((1, 4, 4)), 1.0), make_cfg(), NoiseSource(0), shape)


class TestStreamPosition:
    # Each chain draws its initial state and one noise tensor per step it runs,
    # and no more, however the draws are blocked. A (3, 12, 9) block holds 202
    # rows, so the 201-step run draws exactly one full block and the 250-step
    # run one full block and part of a second.
    @pytest.mark.parametrize("shape", [(1, 4, 4), (3, 12, 9)])
    @pytest.mark.parametrize("entry", ["vanilla", "freq_domain", "langevin"])
    @pytest.mark.parametrize("levels, steps_per_level", [(1, 1), (3, 67), (5, 50)])
    def test_source_ends_after_the_draws_consumed(self, shape, entry, levels, steps_per_level):
        model = GaussianScore(np.zeros(shape), 1.0)
        cfg = make_cfg(levels=geometric_levels(1.0, 0.1, levels, steps_per_level))
        src = NoiseSource(3)
        if entry == "vanilla":
            vanilla_sample(model, cfg, src, shape)
        elif entry == "freq_domain":
            freq_domain_sample(model, cfg, src, shape)
        else:
            langevin_sample(model, cfg, src, identity_space_mask(shape),
                            build_freq_mask(FreqFilterParams(0.5, 0.2, 0.2, 0.4), shape))
        fresh = NoiseSource(3)
        for _ in range(cfg.total_steps + 1):
            fresh.normal(shape)
        assert np.array_equal(src.normal(shape), fresh.normal(shape))


class TestFreqDomainLoop:
    def test_conjugation_identity(self):
        model = GaussianScore(np.zeros((1, 8, 8)), 1.0)
        cfg = make_cfg()
        x_space = vanilla_sample(model, cfg, NoiseSource(4), (1, 8, 8))
        x_conj = freq_domain_sample(model, cfg, NoiseSource(4), (1, 8, 8))
        assert np.allclose(x_space, x_conj, atol=1e-10)

    def test_observer_sees_transform_domain_states(self):
        model = GaussianScore(np.zeros((1, 8, 8)), 1.0)
        fmap = Dct2Map()
        traj = []
        x = freq_domain_sample(model, make_cfg(), NoiseSource(4), (1, 8, 8), fmap=fmap,
                               observe=traj.append)
        assert len(traj) == make_cfg().total_steps + 1
        assert np.array_equal(fmap.inverse(traj[-1]), x)


class _DctDraws:
    """A NoiseSource stand-in whose draws are dct2 of a real stream's draws."""

    def __init__(self, src):
        self._src = src

    @classmethod
    def for_worker(cls, master_seed, worker):
        return cls(NoiseSource.for_worker(master_seed, worker))

    def normal(self, shape=None, out=None):
        out = self._src.normal(shape, out)
        out[...] = dct2(out)
        return out


class _ScoreOnly(ScoreModel):
    """A model's score alone, which has no DCT-basis form."""

    def __init__(self, model):
        self.model = model

    def score(self, x, sigma):
        return self.model.score(x, sigma)


def _count_apply_tdas(monkeypatch):
    """Record, per apply_tdas call the sampler makes, whether it bypassed the masks."""
    calls, real = [], sampler.apply_tdas

    def counting(z, *args, **kwargs):
        out = real(z, *args, **kwargs)
        calls.append(out is z)
        return out

    monkeypatch.setattr(sampler, "apply_tdas", counting)
    return calls


class TestDctBasisRoute:
    # A frequency-only DCT mask and a GaussianScore run the chain on y = D[x],
    # each raw draw z multiplied by the mask. Fed D[z], that is the apply_tdas
    # run of z mapped to the DCT basis, so the two agree to round-off. The
    # shapes span the single-chain noise block's bounds, as above.
    @pytest.mark.parametrize("shape, levels", [((1, 4, 4), (5, 4)), ((3, 12, 9), (5, 50)),
                                               ((1, 260, 260), (2, 2))])
    def test_equals_the_apply_tdas_route_fed_the_same_noise(self, shape, levels, monkeypatch):
        model = GaussianScore(np.linspace(-1.0, 1.0, math.prod(shape)).reshape(shape), 0.8)
        cfg = make_cfg(levels=geometric_levels(1.0, 0.1, *levels))
        space = identity_space_mask(shape)
        freq = build_freq_mask(FreqFilterParams(0.9, 0.6, 0.2, 0.35), shape)
        pixel = sample_batch(_ScoreOnly(model), cfg, 42, 3, freq=freq, shape=shape)
        batch = sample_batch(model, cfg, 42, 3, freq=freq, shape=shape)
        for i in range(3):
            single = langevin_sample(model, cfg, _DctDraws.for_worker(42, i), space, freq)
            np.testing.assert_allclose(single, pixel[i], rtol=0, atol=1e-12)
            # On real draws a batch row is its single chain bit for bit.
            assert np.array_equal(
                batch[i], langevin_sample(model, cfg, NoiseSource.for_worker(42, i), space, freq))
        monkeypatch.setattr(sampler, "NoiseSource", _DctDraws)
        np.testing.assert_allclose(sample_batch(model, cfg, 42, 3, freq=freq, shape=shape), pixel,
                                   rtol=0, atol=1e-12)

    # Every run but the first regulates its noise with apply_tdas, one call a
    # refill: T + 1 for a batch, one a block of steps for a single chain.
    @pytest.mark.parametrize("case", ["dct-route", "dft", "space", "empirical", "score-only",
                                      "all-ones"])
    @pytest.mark.parametrize("entry", ["single", "batch"])
    def test_route_selection(self, case, entry, monkeypatch):
        shape = (1, 8, 8)
        transform = DFT if case == "dft" else DCT
        cfg = make_cfg(transform=transform)
        model = GaussianScore(np.full(shape, 0.3), 0.9)
        if case == "empirical":
            model = EmpiricalScore(generate(SynthSpec(LOW_FREQ_BLOBS, 20, shape, seed=9)))
        elif case == "score-only":
            model = _ScoreOnly(model)
        space = identity_space_mask(shape)
        if case == "space":
            space = SpaceFilter(np.linspace(0.4, 1.0, math.prod(shape)).reshape(shape))
        freq = build_freq_mask(FreqFilterParams(0.9, 0.6, 0.2, 0.35, transform=transform), shape)
        if case == "all-ones":
            freq = np.ones(shape)
        calls = _count_apply_tdas(monkeypatch)
        if entry == "single":
            out = langevin_sample(model, cfg, NoiseSource(7), space, freq)
            refills = len(list(block_slices(cfg.total_steps + 1, 8 * math.prod(shape))))
        else:
            out = sample_batch(model, cfg, 7, 3, space=space, freq=freq)
            refills = cfg.total_steps + 1
        assert len(calls) == (0 if case == "dct-route" else refills)
        # All-ones masks are bypassed and give the unfiltered run bit for bit.
        assert calls == [case == "all-ones"] * len(calls)
        if entry == "single":
            plain = vanilla_sample(model, cfg, NoiseSource(7), shape)
        else:
            plain = sample_batch(model, cfg, 7, 3, shape=shape)
        assert np.array_equal(out, plain) == (case == "all-ones")


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

    # A single chain draws its steps in blocks of up to 512 KiB, a batch one
    # step at a time; (3, 12, 9) steps do not divide the bound and their 251
    # draws span two blocks, and a (1, 260, 260) step is above it.
    @pytest.mark.parametrize("shape, levels", [((1, 4, 4), (5, 4)), ((3, 12, 9), (5, 50)),
                                               ((1, 260, 260), (2, 2))])
    def test_matches_single_chain_loop(self, shape, levels):
        model = GaussianScore(np.zeros(shape), 1.0)
        cfg = make_cfg(levels=geometric_levels(1.0, 0.1, *levels))
        batch = sample_batch(model, cfg, 42, 3, shape=shape)
        for i in range(3):
            single = vanilla_sample(model, cfg, NoiseSource.for_worker(42, i), shape)
            assert np.array_equal(batch[i], single)

    # Per-step sizes of 128 B and 2,592 B (below the 512-KiB noise block; the
    # second does not divide it, and its 251 draws span two blocks) and of
    # 528 KiB (above it, one step per block).
    @pytest.mark.parametrize("shape, levels", [((1, 4, 4), (5, 4)), ((3, 12, 9), (5, 50)),
                                               ((1, 260, 260), (2, 2))])
    @pytest.mark.parametrize("transform", [DCT, DFT])
    def test_filtered_chains_match_batch_rows(self, shape, levels, transform):
        model = GaussianScore(np.linspace(-1.0, 1.0, math.prod(shape)).reshape(shape), 0.8)
        cfg = make_cfg(levels=geometric_levels(1.0, 0.1, *levels), transform=transform)
        space = SpaceFilter(np.linspace(0.4, 1.0, math.prod(shape)).reshape(shape))
        freq = build_freq_mask(FreqFilterParams(0.9, 0.6, 0.2, 0.35, transform=transform), shape)
        batch = sample_batch(model, cfg, 42, 3, space=space, freq=freq)
        for i in range(3):
            single = langevin_sample(model, cfg, NoiseSource.for_worker(42, i), space, freq)
            assert np.array_equal(batch[i], single)

    @pytest.mark.parametrize("n", [0, -1, True, 2.0])
    def test_rejects_fewer_than_one_chain(self, n):
        with pytest.raises(ValueError):
            sample_batch(GaussianScore(np.zeros((1, 4, 4)), 1.0), make_cfg(), 0, n, shape=(1, 4, 4))

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

    def test_run_holds_state_block_and_drift(self):
        # A state-sized array of eight 64² chains is 256 KiB. Besides the
        # state and the scratch block that holds first the drift and then
        # the noise, the run may hold two chains' worth (a chain's score and
        # the chains' generators) and numpy's ufunc buffer of
        # np.getbufsize() float64s, which apply_tdas's broadcast mask product
        # takes at this size. A noise block apart from the drift buffer, a
        # drift allocated each step, or per-chain scores gathered in a list
        # and stacked come to at least a third array.
        shape, n = (1, 64, 64), 8
        model = GaussianScore(np.zeros(shape), 1.0)
        freq = build_freq_mask(FreqFilterParams(0.9, 0.8, 0.3, 0.45, transform=DCT), shape)
        cfg = make_cfg(levels=geometric_levels(1.0, 0.1, 2, 3))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            sample_batch(model, cfg, 5, n, freq=freq, shape=shape)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        chain = 8 * math.prod(shape)
        assert peak <= 2 * n * chain + 2 * chain + 8 * np.getbufsize()

    def test_empirical_run_holds_state_and_scratch_block(self):
        # 400 chains at 32² are 3.3 MB a state-sized array. Besides the state
        # and the scratch block, the run holds the chains' generators (about
        # 1 KB each) and the (400, 20) softmax weights, together under half
        # a state. A separate drift buffer or the rows' squares would be a
        # third array.
        shape, n = (1, 32, 32), 400
        model = EmpiricalScore(generate(SynthSpec(LOW_FREQ_BLOBS, 20, shape, seed=9)))
        cfg = make_cfg(levels=geometric_levels(1.0, 0.1, 2, 3))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            sample_batch(model, cfg, 5, n, shape=shape)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * 8 * math.prod(shape)

    def test_finite_check_allocates_nothing_state_sized(self):
        # 64 chains at 64² are 2 MiB a state-sized array. Besides the state
        # and the scratch block, the run holds one chain's score and the
        # chains' generators, under a tenth of a state; a finite check
        # through an array of booleans would add an eighth.
        shape, n = (1, 64, 64), 64
        model = GaussianScore(np.zeros(shape), 1.0)
        cfg = make_cfg(levels=geometric_levels(1.0, 0.1, 2, 3))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            sample_batch(model, cfg, 5, n, shape=shape)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 2.125 * n * 8 * math.prod(shape)

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
