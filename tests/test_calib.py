import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdas import calib, core
from tdas.calib import (
    DDPM,
    SGM,
    CalibrationError,
    FreqStats,
    RatioGrid,
    calc_freq_params,
    calc_lambda_pair,
    freq_power_stats,
    kappa_curve,
    quantile,
    ratio_grid,
)
from tdas.core import ImageDataset
from tdas.filters import DCT, DFT, radial_distance_grid
from tdas.transforms import dct2, dft2_naive


def mirrored_rfft2_power(items):
    """Stacked mean of numpy's rfft2 power, with each cell outside the half
    spectrum filled from its mirror image (-h mod H, -w mod W): of the two,
    the one that comes first in (w, h) order is the one kept."""
    spectrum = np.fft.rfft2(items, axes=(-2, -1))
    half = (spectrum.real ** 2 + spectrum.imag ** 2).mean(axis=(0, 1))
    height, width = items.shape[-2:]
    h, w = np.indices((height, width))
    mirror_h, mirror_w = -h % height, -w % width
    mirrored = (mirror_w < w) | ((mirror_w == w) & (mirror_h < h))
    return half[np.where(mirrored, mirror_h, h), np.where(mirrored, mirror_w, w)]


def brute_quantile(values, alpha):
    """Independent oracle: scan candidates for the smallest x with
    #{y <= x} >= alpha * n."""
    values = sorted(values)
    n = len(values)
    for x in values:
        if sum(1 for y in values if y <= x) >= alpha * n - 1e-12:
            return x
    raise AssertionError("unreachable")


class TestQuantile:
    def test_simple_cases(self):
        s = [1, 2, 3, 4]
        assert quantile(s, 0.25) == 1
        assert quantile(s, 0.5) == 2
        assert quantile(s, 0.75) == 3
        assert quantile(s, 1.0) == 4

    def test_duplicates(self):
        assert quantile([5, 5, 5, 1], 0.5) == 5

    def test_invalid(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)
        with pytest.raises(ValueError):
            quantile([1.0], 0.0)
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    @given(
        seed=st.integers(0, 2**31),
        n=st.integers(1, 60),
        alpha=st.floats(0.01, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, seed, n, alpha):
        g = np.random.Generator(np.random.PCG64(seed))
        values = g.choice([0.1, 0.5, 1.0, 2.0, 7.0], size=n)  # forces ties
        assert quantile(values, alpha) == brute_quantile(values.tolist(), alpha)


class TestStatsAndRatio:
    def test_power_matches_direct_dct(self, small_dataset):
        st_ = freq_power_stats(small_dataset, DCT)
        direct = (dct2(small_dataset.items) ** 2).mean(axis=(0, 1))
        assert np.allclose(st_.power, direct)
        assert st_.sample_count == len(small_dataset)

    @pytest.mark.parametrize("shape", [(1, 1, 8, 8), (6, 1, 9, 7), (5, 3, 16, 16), (20, 3, 128, 128),
                                       (70, 1, 128, 128)])
    def test_power_is_the_stacked_mean_bit_for_bit(self, shape):
        x = ImageDataset(np.random.default_rng(4).standard_normal(shape))
        assert np.array_equal(freq_power_stats(x, DCT).power,
                              (dct2(x.items) ** 2).mean(axis=(0, 1)))
        assert np.array_equal(freq_power_stats(x, DFT).power, mirrored_rfft2_power(x.items))

    def test_dft_power_at_1024_is_the_numpy_route(self):
        # The paper's resolution, one image per transform block.
        x = ImageDataset(np.random.default_rng(8).standard_normal((2, 1, 1024, 1024)))
        assert np.array_equal(freq_power_stats(x, DFT).power, mirrored_rfft2_power(x.items))

    @pytest.mark.parametrize("shape", [(3, 1, 9, 7), (3, 2, 16, 16), (2, 1, 10, 7), (2, 1, 9, 8),
                                       (2, 1, 1, 5), (2, 1, 5, 1)])
    def test_dft_power_is_exactly_conjugate_symmetric(self, shape):
        x = ImageDataset(np.random.default_rng(6).standard_normal(shape))
        power = freq_power_stats(x, DFT).power
        height, width = power.shape
        for h in range(height):
            for w in range(width):
                assert power[h, w] == power[-h % height, -w % width]

    @pytest.mark.parametrize("shape", [(4, 1, 9, 7), (3, 3, 16, 16), (2, 3, 12, 9)])
    def test_dft_power_matches_the_naive_dft(self, shape):
        x = ImageDataset(np.random.default_rng(7).standard_normal(shape))
        naive = (np.abs(dft2_naive(x.items)) ** 2).mean(axis=(0, 1))
        assert np.allclose(freq_power_stats(x, DFT).power, naive, rtol=1e-13, atol=0)

    def test_block_sets_span_several_blocks(self):
        # The two largest sets above are transformed a block at a time.
        for count, channels in ((20, 3), (70, 1)):
            assert count * channels * 128 * 128 * 8 > core.BLOCK_BYTES

    def test_dft_power_holds_less_than_the_image_set(self):
        # The spectra of all 16 images at once would take four times the set.
        x = ImageDataset(np.random.default_rng(5).standard_normal((16, 1, 512, 512)))
        tracemalloc.start()
        try:
            freq_power_stats(x, DFT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.items.nbytes

    def test_dft_power_nonnegative(self, small_dataset):
        assert np.all(freq_power_stats(small_dataset, DFT).power >= 0)

    def test_ratio_identity(self, small_dataset):
        s = freq_power_stats(small_dataset, DCT)
        g = ratio_grid(s, s)
        assert np.allclose(g.gamma, 1.0)
        assert g.clamped_cells == 0

    def test_ratio_clamps_tiny_reference(self):
        ref = FreqStats(np.array([[0.0, 1.0]]), DCT, 1)
        gen = FreqStats(np.array([[2.0, 2.0]]), DCT, 1)
        g = ratio_grid(gen, ref)
        assert g.clamped_cells == 1
        assert np.all(np.isfinite(g.gamma)) and np.all(g.gamma > 0)

    def test_mismatched_stats_rejected(self, small_dataset):
        a = freq_power_stats(small_dataset, DCT)
        b = freq_power_stats(small_dataset, DFT)
        with pytest.raises(ValueError):
            ratio_grid(a, b)


def synthetic_ratio(height=16, width=16, low=0.8, high=2.5, transform=DCT):
    """gamma rises with radius: excess high-frequency power."""
    d0 = radial_distance_grid(height, width, transform)
    gamma = low + (high - low) * d0 / d0.max()
    return RatioGrid(gamma, transform)


def brute_region(g, r):
    return radial_distance_grid(*g.gamma.shape, g.transform) >= 2 * r * r


def brute_kappa(g, r):
    """Independent oracle: the exactly rounded sum of the region over its size."""
    region = brute_region(g, r)
    return math.fsum(g.gamma[region]) / int(region.sum())


class TestKappa:
    def test_curve_starts_at_the_global_mean(self):
        g = synthetic_ratio()
        assert np.isclose(kappa_curve(g)[0][1], g.gamma.mean())

    def test_kappa_increases_for_rising_profile(self):
        g = synthetic_ratio()
        curve = kappa_curve(g)
        values = [v for _, v in curve]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("transform", [DCT, DFT])
    @pytest.mark.parametrize("shape", [(1, 5), (7, 13), (16, 16), (33, 32)])
    def test_curve_radii_are_the_scan_grid(self, shape, transform):
        # The radii are exactly k / max(H, W), the grid calc_freq_params
        # reports its radii on.
        rng = np.random.default_rng(11)
        g = RatioGrid(0.1 + rng.gamma(2.0, 1.0, size=shape), transform)
        curve = kappa_curve(g)
        step = 1.0 / max(shape)
        assert [r for r, _ in curve] == [k * step for k in range(len(curve))]

    @pytest.mark.parametrize("transform", [DCT, DFT])
    @pytest.mark.parametrize("shape", [(1, 5), (7, 13), (33, 32), (64, 64)])
    def test_curve_matches_brute_force_regions(self, shape, transform):
        rng = np.random.default_rng(12)
        g = RatioGrid(0.1 + rng.gamma(2.0, 1.0, size=shape), transform)
        curve = kappa_curve(g)
        _, counts = calib._radial_scan(g)
        assert len(counts) == len(curve)
        for (r, value), count in zip(curve, counts):
            assert count == brute_region(g, r).sum()
            assert math.isclose(value, brute_kappa(g, r), rel_tol=1e-12)
        assert not brute_region(g, len(curve) * (1.0 / max(shape))).any()
        if shape[0] == shape[1]:
            # Cell (k, k) has d0 = 2 (k/H)^2, exactly the k-th threshold, so
            # the scan must put it inside region k.
            d0 = radial_distance_grid(*shape, transform)
            thresholds = [2 * r * r for r, _ in curve]
            assert np.count_nonzero(np.isin(d0, thresholds)) > shape[0] // 2


class TestCalcParams:
    def test_sgm_direction_recovers_sensible_params(self):
        g = synthetic_ratio()
        p = calc_freq_params(g, SGM)
        s = g.gamma.ravel()
        assert np.isclose(p.lambda1, s.mean() / quantile(s, 0.75))
        assert np.isclose(p.lambda2, s.mean() / quantile(s, 0.9))
        assert p.lambda2 <= p.lambda1 <= 1.0
        assert 0 < p.r1 <= p.r2

    def test_crossings_match_curve(self):
        g = synthetic_ratio()
        p = calc_freq_params(g, SGM)
        curve = dict(kappa_curve(g))
        q1 = quantile(g.gamma.ravel(), 0.75)
        # r1 is the first grid radius where kappa reaches Q_0.75 from below.
        prior = [r for r in sorted(curve) if 0 < r < p.r1]
        assert curve[p.r1] >= q1
        assert all(curve[r] < q1 for r in prior)

    def test_ddpm_direction_on_falling_profile(self):
        g = synthetic_ratio(low=1.2, high=0.3)  # gamma falls with radius
        p = calc_freq_params(g, DDPM)
        s = g.gamma.ravel()
        assert np.isclose(p.lambda1, s.mean() / quantile(s, 0.25))
        assert np.isclose(p.lambda2, s.mean() / quantile(s, 0.1))
        assert p.lambda1 >= 1.0  # amplification when mass is missing

    def test_falling_profile_never_crosses_sgm_levels(self):
        # kappa decreases with radius, so it can never reach the upper
        # quantiles from below; the radius scan must refuse, with the curve
        # attached for diagnosis.
        g = synthetic_ratio(low=2.5, high=0.8)
        with pytest.raises(CalibrationError) as exc:
            calc_freq_params(g, SGM)
        assert len(exc.value.curve) > 0

    def test_lambda_pair_without_radius_scan(self):
        g = synthetic_ratio(low=2.5, high=0.8)
        l1, l2 = calc_lambda_pair(g, SGM)
        assert np.isfinite(l1) and np.isfinite(l2)

    def test_scale_invariance_of_lambdas(self):
        # ave/Q is a ratio of homogeneous statistics, so rescaling the whole
        # grid leaves both suppression rates unchanged.
        g = synthetic_ratio()
        g3 = RatioGrid(3.0 * g.gamma, g.transform)
        assert np.allclose(calc_lambda_pair(g, SGM), calc_lambda_pair(g3, SGM))

    def test_transform_other_than_the_grids_is_refused(self):
        # Radii measured in the DFT layout on a DCT grid would give a mask for
        # the wrong geometry.
        g = synthetic_ratio(transform=DCT)
        with pytest.raises(ValueError):
            calc_freq_params(g, SGM, DFT)
        assert calc_freq_params(g, SGM, DCT) == calc_freq_params(g, SGM)

    @pytest.mark.parametrize("transform", [DCT, DFT])
    def test_radii_at_1024_are_the_first_brute_force_crossings(self, transform):
        g = synthetic_ratio(1024, 1024, transform=transform)
        p = calc_freq_params(g, SGM)
        step = 1 / 1024
        for radius, alpha in ((p.r1, 0.75), (p.r2, 0.9)):
            level = quantile(g.gamma, alpha)
            k = round(radius / step)
            assert radius == k * step and k >= 1
            assert brute_kappa(g, k * step) >= level > brute_kappa(g, (k - 1) * step)

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            calc_freq_params(synthetic_ratio(), "other")
