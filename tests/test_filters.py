import json

import numpy as np
import pytest

from tdas.core import DegenerateDatasetError, ImageDataset
from tdas.filters import (
    DCT,
    DFT,
    FreqFilterParams,
    SpaceFilter,
    apply_tdas,
    build_freq_mask,
    build_space_mask,
    identity_space_mask,
    radial_distance_grid,
)
from tdas.transforms import dct2, idct2


class TestFreqFilterParams:
    def test_json_roundtrip(self):
        p = FreqFilterParams(0.9, 0.7, 0.2, 0.4, transform=DFT)
        assert FreqFilterParams.from_json(p.to_json()) == p

    def test_loads_json_with_legacy_zones_key(self):
        text = """{
  "lambda1": 0.9,
  "lambda2": 0.7,
  "r1": 0.2,
  "r2": 0.4,
  "transform": "dct",
  "zones": 3
}"""
        assert FreqFilterParams.from_json(text) == FreqFilterParams(0.9, 0.7, 0.2, 0.4)

    def test_rejects_json_asking_for_another_zone_count(self):
        text = '{"lambda1": 0.9, "lambda2": 0.7, "r1": 0.2, "r2": 0.4, "zones": 2}'
        with pytest.raises(ValueError):
            FreqFilterParams.from_json(text)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lambda1=0.9, lambda2=0.8, r1=0.0, r2=0.5),
            dict(lambda1=0.9, lambda2=0.8, r1=0.6, r2=0.5),
            dict(lambda1=-0.1, lambda2=0.8, r1=0.2, r2=0.5),
            dict(lambda1=0.9, lambda2=0.0, r1=0.2, r2=0.5),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            FreqFilterParams(**kwargs)

    def test_lambda_above_one_allowed(self):
        # Amplification is legitimate in the reverse calibration direction.
        FreqFilterParams(2.94, 1.5, 0.2, 0.4)


class TestRadialGrid:
    def test_dct_corner_is_zero(self):
        d0 = radial_distance_grid(8, 8, DCT)
        assert d0[0, 0] == 0.0
        assert np.isclose(d0[4, 4], 0.5)

    def test_dft_four_corner_symmetry(self):
        d0 = radial_distance_grid(8, 8, DFT)
        assert d0[0, 0] == d0[0, 7] == 0.0 or d0[0, 0] == 0.0
        assert np.isclose(d0[0, 7], (1 / 8) ** 2)
        # Maximum sits at the Nyquist center: (1/2)^2 + (1/2)^2 = 0.5.
        assert np.isclose(d0.max(), 0.5)

    def test_rectangular_normalization(self):
        d0 = radial_distance_grid(4, 8, DCT)
        assert np.isclose(d0[2, 4], (2 / 4) ** 2 + (4 / 8) ** 2)


class TestFreqMask:
    def test_three_zone_values(self):
        p = FreqFilterParams(0.6, 0.3, 0.25, 0.5)
        mask = build_freq_mask(p, (1, 16, 16))
        assert set(np.unique(mask)) == {1.0, 0.6, 0.3}
        assert mask[0, 0, 0] == 1.0
        d0 = radial_distance_grid(16, 16, DCT)
        assert np.all(mask[0][d0 > 2 * p.r2**2] == 0.3)

    def test_two_zone_as_degenerate_three(self):
        p = FreqFilterParams(0.5, 0.5, 0.3, 0.3)
        mask = build_freq_mask(p, (1, 8, 8))
        assert set(np.unique(mask)) <= {1.0, 0.5}

    def test_channel_uniform(self):
        mask = build_freq_mask(FreqFilterParams(0.7, 0.4, 0.2, 0.4), (3, 8, 8))
        assert np.array_equal(mask[0], mask[1]) and np.array_equal(mask[1], mask[2])


class TestSpaceMask:
    def test_range_and_peak(self, rng):
        ds = ImageDataset(rng.standard_normal((10, 1, 8, 8)))
        sf = build_space_mask(ds)
        assert sf.mask.min() >= 1 / 3 - 1e-12
        assert np.isclose(sf.mask.max(), 1.0)

    def test_formula(self):
        ds = ImageDataset(np.stack([np.array([[[0.0, 3.0]]])]))
        sf = build_space_mask(ds)
        raw = np.log1p(np.array([0.0, 3.0]))
        expected = (2 * raw / raw.max() + 1) / 3
        assert np.allclose(sf.mask[0, 0], expected)

    def test_all_zero_dataset_rejected(self):
        with pytest.raises(DegenerateDatasetError):
            build_space_mask(ImageDataset(np.zeros((3, 1, 4, 4))))


class TestApplyTdas:
    def test_identity_masks_bit_identical(self, rng):
        z = rng.standard_normal((2, 8, 8))
        out = apply_tdas(z, identity_space_mask(z.shape), np.ones(z.shape), DCT)
        assert out is z

    def test_matches_manual_composition(self, rng):
        z = rng.standard_normal((1, 8, 8))
        space = SpaceFilter(rng.uniform(1 / 3, 1.0, (1, 8, 8)))
        freq = rng.uniform(0.2, 1.0, (1, 8, 8))
        out = apply_tdas(z, space, freq, DCT)
        assert np.allclose(out, idct2(freq * dct2(space.mask * z)), atol=1e-12)

    def test_dft_symmetric_mask_fast_path_matches_full_route(self, rng):
        # Radial masks are conjugate-symmetric, triggering the half-spectrum
        # path; it must agree with the full complex-transform route.
        z = rng.standard_normal((2, 8, 8))
        freq = build_freq_mask(FreqFilterParams(0.7, 0.4, 0.2, 0.4, transform=DFT), (2, 8, 8))
        out = apply_tdas(z, identity_space_mask(z.shape), freq, DFT)
        from tdas.transforms import dft2, idft2_real

        assert np.allclose(out, idft2_real(freq * dft2(z)), atol=1e-12)

    def test_dft_symmetric_mask_odd_width(self, rng):
        z = rng.standard_normal((1, 7, 9))
        freq = build_freq_mask(FreqFilterParams(0.7, 0.4, 0.2, 0.4, transform=DFT), (1, 7, 9))
        from tdas.transforms import dft2, idft2_real

        out = apply_tdas(z, identity_space_mask(z.shape), freq, DFT)
        assert np.allclose(out, idft2_real(freq * dft2(z)), atol=1e-12)

    def test_dft_output_real(self, rng):
        z = rng.standard_normal((1, 8, 8))
        freq = rng.uniform(0.2, 1.0, (1, 8, 8))
        out = apply_tdas(z, identity_space_mask(z.shape), freq, DFT)
        assert out.dtype == np.float64

    def test_batched_equals_per_item(self, rng):
        z = rng.standard_normal((4, 1, 8, 8))
        space = SpaceFilter(rng.uniform(0.5, 1.0, (1, 8, 8)))
        freq = rng.uniform(0.3, 1.0, (1, 8, 8))
        batched = apply_tdas(z, space, freq, DCT)
        single = np.stack([apply_tdas(zi, space, freq, DCT) for zi in z])
        assert np.allclose(batched, single, atol=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            apply_tdas(rng.standard_normal((1, 8, 8)), identity_space_mask((1, 4, 4)),
                       np.ones((1, 4, 4)), DCT)

    def test_pure_scaling_in_frequency_domain(self, rng):
        # With identity space mask, the DCT of the output equals freq * DCT(z).
        z = rng.standard_normal((1, 8, 8))
        freq = rng.uniform(0.2, 1.0, (1, 8, 8))
        out = apply_tdas(z, identity_space_mask(z.shape), freq, DCT)
        assert np.allclose(dct2(out), freq * dct2(z), atol=1e-12)
