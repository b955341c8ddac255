import json
import tracemalloc

import numpy as np
import pytest

from tdas.core import DegenerateDatasetError, ImageDataset
from tdas.filters import (
    BASIS,
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
from tdas.transforms import dct2, dft2, dht2, idct2, idft2_real


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

    @pytest.mark.parametrize("field", ["lambda1", "lambda2", "r1", "r2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, field, value):
        # Python's json reads NaN and Infinity, so parameter files can carry them.
        fields = {"lambda1": 0.9, "lambda2": 0.7, "r1": 0.2, "r2": 0.4, field: value}
        with pytest.raises(ValueError):
            FreqFilterParams(**fields)
        with pytest.raises(ValueError):
            FreqFilterParams.from_json(json.dumps(fields))

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

    @pytest.mark.parametrize(
        "shape", [(n, n) for n in range(1, 41)] + [(7, 9), (33, 32), (100, 100)],
        ids=lambda shape: f"{shape[0]}x{shape[1]}",
    )
    def test_dft_grid_is_conjugate_symmetric(self, shape):
        # Cell (h, w) and its mirror (-h mod H, -w mod W) get the same float.
        d0 = radial_distance_grid(*shape, DFT)
        mirrored = d0[(-np.arange(shape[0])) % shape[0]][:, (-np.arange(shape[1])) % shape[1]]
        assert np.array_equal(d0, mirrored)

    @pytest.mark.parametrize("n", [2**k for k in range(11)])
    def test_dft_grid_on_power_of_two_sides_is_the_fractional_formula(self, n):
        # The formula on fractions h = i / n, bit for bit: i / n and 1 - i / n
        # are exact when n is a power of two.
        h = np.arange(n, dtype=np.float64) / n
        side = np.minimum(h, 1.0 - h) ** 2
        assert np.array_equal(radial_distance_grid(n, n, DFT), side[:, None] + side[None, :])


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


def _numpy_route(z, space, freq, transform):
    """apply_tdas out of place: the DCT through dct2 and idct2, the DFT both
    ways on numpy, back through irfft2."""
    masked = space.mask * z
    if transform == DCT:
        return idct2(freq * dct2(masked))
    height, width = z.shape[-2:]
    half = np.fft.rfft2(masked, axes=(-2, -1)) * freq[..., : width // 2 + 1]
    return np.fft.irfft2(half, s=(height, width), axes=(-2, -1))


class TestApplyTdas:
    def test_identity_masks_bit_identical(self, rng):
        z = rng.standard_normal((2, 8, 8))
        out = apply_tdas(z, identity_space_mask(z.shape), np.ones(z.shape), DCT)
        assert out is z
        assert apply_tdas(z, identity_space_mask(z.shape), np.ones(z.shape), DFT,
                          overwrite=True) is z

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

    # The DFT is taken a 512-KiB block of items at a time: (70, 1, 32, 32)
    # spans two blocks, the second partial; a 300² item is larger than a
    # block; sample_batch passes 5-axis (1, n, C, H, W) blocks.
    @pytest.mark.parametrize("shape", [(2, 1, 9, 7), (3, 1, 12, 9), (2, 3, 16, 16), (8, 1, 256, 256),
                                       (70, 1, 32, 32), (2, 1, 300, 300), (1, 8, 1, 64, 64)])
    @pytest.mark.parametrize("transform, overwrite, identity, dtype", [
        pytest.param(t, o, i, d, id="-".join([t] + ["overwrite"] * o + ["identity-space"] * i
                                             + ["float32"] * (d == np.float32)))
        for d in (np.float64, np.float32) for i in (False, True) for o in (False, True)
        for t in (DCT, DFT)])
    def test_equals_the_numpy_route_bit_for_bit(self, shape, transform, overwrite, identity,
                                                 dtype, rng):
        # The DFT goes forward through scipy's rfft2 and back through numpy's
        # ifft and irfft, in place with overwrite; the reference runs both
        # ways on numpy, back through irfft2. A float32 z is copied once into
        # a float64 array, whatever overwrite says, and left as it was.
        z = rng.standard_normal(shape).astype(dtype)
        space = (identity_space_mask(shape[-3:]) if identity
                 else SpaceFilter(rng.uniform(0.4, 1.0, shape[-3:])))
        freq = build_freq_mask(FreqFilterParams(0.7, 0.4, 0.2, 0.4, transform=transform), shape[-3:])
        expected = _numpy_route(z, space, freq, transform)
        given = z.copy()
        out = apply_tdas(z, space, freq, transform, overwrite=overwrite)
        assert np.array_equal(out, expected)
        # The masks are not all ones, so z itself would mean a bypass.
        assert out is not z and out.dtype == np.float64
        if overwrite and dtype == np.float64:
            assert np.shares_memory(out, z)
        else:
            assert np.array_equal(z, given)

    @pytest.mark.parametrize("transform", [DCT, DFT])
    @pytest.mark.parametrize("identity", [False, True])
    @pytest.mark.parametrize("layout", ["strided-items", "strided-columns", "strided-5-axis"])
    def test_overwrite_of_a_strided_z_keeps_its_result(self, layout, identity, transform, rng):
        # The DFT runs on a flat stack of items; a z whose leading axes do not
        # merge (strided-5-axis) has no flat view, so its result must not be
        # written into a reshaped copy and lost.
        base = rng.standard_normal({"strided-items": (6, 1, 32, 32),
                                    "strided-columns": (3, 1, 32, 64),
                                    "strided-5-axis": (2, 4, 1, 32, 32)}[layout])
        z = {"strided-items": base[::2], "strided-columns": base[..., ::2],
             "strided-5-axis": base[:, :2]}[layout]
        assert not z.flags.c_contiguous
        space = (identity_space_mask(z.shape[-3:]) if identity
                 else SpaceFilter(rng.uniform(0.4, 1.0, z.shape[-3:])))
        freq = build_freq_mask(FreqFilterParams(0.7, 0.4, 0.2, 0.4, transform=transform),
                               z.shape[-3:])
        expected = _numpy_route(z, space, freq, transform)
        assert np.array_equal(apply_tdas(z, space, freq, transform, overwrite=True), expected)

    def test_dft_holds_one_block_of_half_spectrum(self, rng):
        # Eight 256² chains: one chain fills a 512-KiB block, so the half
        # spectrum held at once is one chain's, 1/8 of the stack's. The mask
        # product takes numpy's ufunc buffer of np.getbufsize() float64s (the
        # mask's half-width slice and the spectrum's real part do not merge
        # into one loop); a product of the complex half would cast the mask
        # through a buffer of as many complex128s, twice that. A few KB more
        # are the FFTs' and the iterator's own.
        shape = (8, 1, 256, 256)
        freq = build_freq_mask(FreqFilterParams(0.9, 0.8, 0.3, 0.45, transform=DFT), shape[1:])
        space = identity_space_mask(shape[1:])
        apply_tdas(rng.standard_normal(shape), space, freq, DFT, overwrite=True)  # FFT plans
        z = rng.standard_normal(shape)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = apply_tdas(z, space, freq, DFT, overwrite=True)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert np.shares_memory(out, z)
        half = 16 * shape[-2] * (shape[-1] // 2 + 1)
        assert peak <= half + 8 * np.getbufsize() + 4096

    # In the mask's basis the regulation is the product with the mask, item
    # by item: in place with overwrite, into a fresh array otherwise, and
    # out of a strided z's own layout.
    @pytest.mark.parametrize("shape", [(1, 8, 8), (2, 3, 12, 9), (1, 4, 1, 16, 16)])
    @pytest.mark.parametrize("overwrite", [False, True])
    @pytest.mark.parametrize("strided", [False, True])
    def test_basis_is_the_mask_product(self, shape, overwrite, strided, rng):
        z = rng.standard_normal(shape[:-1] + (2 * shape[-1],))[..., ::2] if strided \
            else rng.standard_normal(shape)
        freq = build_freq_mask(FreqFilterParams(0.7, 0.4, 0.2, 0.4), shape[-3:])
        given = z.copy()
        out = apply_tdas(z, identity_space_mask(shape[-3:]), freq, BASIS, overwrite=overwrite)
        assert np.array_equal(out, given * freq)
        assert out is not z
        if overwrite and not strided:
            assert np.shares_memory(out, z)
        else:
            assert np.array_equal(z, given)

    @pytest.mark.parametrize("transform, forward, inverse", [(DCT, dct2, idct2), (DFT, dht2, dht2)])
    def test_basis_conjugates_the_pixel_regulation(self, transform, forward, inverse, rng):
        # D^-1[M * D[z]], D the DCT or the Hartley transform, is the pixel
        # regulation of z.
        z = rng.standard_normal((2, 1, 12, 9))
        identity = identity_space_mask(z.shape[1:])
        freq = build_freq_mask(FreqFilterParams(0.7, 0.4, 0.2, 0.4, transform=transform),
                               z.shape[1:])
        np.testing.assert_allclose(inverse(apply_tdas(forward(z), identity, freq, BASIS)),
                                   apply_tdas(z, identity, freq, transform), rtol=0, atol=1e-12)

    def test_basis_refuses_a_space_mask(self, rng):
        z = rng.standard_normal((1, 8, 8))
        space = SpaceFilter(rng.uniform(0.4, 1.0, z.shape))
        with pytest.raises(ValueError, match="space mask"):
            apply_tdas(z, space, rng.uniform(0.2, 1.0, z.shape), BASIS, overwrite=True)

    def test_dft_refuses_asymmetric_mask(self, rng):
        # A real inverse DFT of an asymmetric mask would filter with its
        # symmetrised average, not with the mask itself.
        z = rng.standard_normal((1, 8, 8))
        freq = rng.uniform(0.2, 1.0, (1, 8, 8))
        with pytest.raises(ValueError):
            apply_tdas(z, identity_space_mask(z.shape), freq, DFT)
        radial = build_freq_mask(FreqFilterParams(0.7, 0.4, 0.2, 0.4, transform=DFT), (1, 8, 8))
        out = apply_tdas(z, identity_space_mask(z.shape), radial, DFT)
        assert out.dtype == np.float64

    @pytest.mark.parametrize("n", [7, 12, 24, 100])
    def test_dft_masks_at_scan_radii_are_accepted(self, n, rng):
        # Zone thresholds at the calibration scan radii r_k = k / n hit mirror
        # cells exactly; both cells of a pair must land in the same zone.
        z = rng.standard_normal((1, n, n))
        identity = identity_space_mask(z.shape)
        spectrum = dft2(z)
        radii = np.arange(1, n + 1) / n
        for i, r1 in enumerate(radii):
            for r2 in radii[i:]:
                freq = build_freq_mask(FreqFilterParams(0.7, 0.4, r1, r2, transform=DFT), z.shape)
                out = apply_tdas(z, identity, freq, DFT)
                assert np.allclose(out, idft2_real(freq * spectrum), atol=1e-12)

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

    @pytest.mark.parametrize("transform", [DCT, DFT, BASIS])
    def test_freq_with_leading_axes_is_refused(self, transform, rng):
        # The masks are the item's: a freq with a batch axis would broadcast
        # over z's leading axes, or not, depending on z.
        z = rng.standard_normal((2, 1, 8, 8))
        freq = build_freq_mask(FreqFilterParams(0.7, 0.4, 0.2, 0.4, transform=DFT), (1, 8, 8))
        with pytest.raises(ValueError, match="shape mismatch"):
            apply_tdas(z, identity_space_mask((1, 8, 8)), freq[None], transform)

    def test_pure_scaling_in_frequency_domain(self, rng):
        # With identity space mask, the DCT of the output equals freq * DCT(z).
        z = rng.standard_normal((1, 8, 8))
        freq = rng.uniform(0.2, 1.0, (1, 8, 8))
        out = apply_tdas(z, identity_space_mask(z.shape), freq, DCT)
        assert np.allclose(dct2(out), freq * dct2(z), atol=1e-12)
