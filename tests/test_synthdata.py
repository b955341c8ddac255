import tracemalloc

import numpy as np
import pytest

from tdas.calib import freq_power_stats
from tdas.core import NoiseSource
from tdas.synthdata import (
    FACE_LIKE,
    KINDS,
    LOW_FREQ_BLOBS,
    UNSTRUCTURED,
    SynthSpec,
    _decay_magnitude,
    _oval_template,
    generate,
    radial_power_profile,
)
from tdas.transforms import idct2


class TestSpec:
    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            SynthSpec("nope", 5, (1, 8, 8))

    def test_invalid_count_and_decay(self):
        with pytest.raises(ValueError):
            SynthSpec(UNSTRUCTURED, 0, (1, 8, 8))
        for decay in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SynthSpec(LOW_FREQ_BLOBS, 5, (1, 8, 8), spectral_decay=decay)

    @pytest.mark.parametrize("count", [True, 2.5])
    def test_count_must_be_an_integer(self, count):
        # count=True passed construction and failed inside generate.
        with pytest.raises(ValueError, match="count"):
            SynthSpec(UNSTRUCTURED, count, (1, 8, 8))

    @pytest.mark.parametrize("seed", [2.9, True])
    def test_seed_must_be_an_integer(self, seed):
        # A seed of 2.9 generated seed 2's set.
        with pytest.raises(ValueError, match="seed"):
            SynthSpec(UNSTRUCTURED, 5, (1, 8, 8), seed=seed)


class TestGenerate:
    def test_deterministic(self):
        spec = SynthSpec(LOW_FREQ_BLOBS, 4, (1, 8, 8), seed=9)
        assert np.array_equal(generate(spec).items, generate(spec).items)

    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_the_item_by_item_stack(self, kind):
        # 64 items of 32^2 fill a block, so 70 span two; a 260^2 item outgrows one.
        for count, shape in [(5, (2, 9, 7)), (70, (1, 32, 32)), (2, (1, 260, 260))]:
            spec = SynthSpec(kind, count, shape, spectral_decay=1.3, seed=12)
            src = NoiseSource(spec.seed)
            mag = _decay_magnitude(*shape[1:], spec.spectral_decay)
            items = []
            for _ in range(spec.count):
                noise = src.normal(spec.shape)
                if kind == UNSTRUCTURED:
                    items.append(noise)
                elif kind == LOW_FREQ_BLOBS:
                    items.append(idct2(mag * noise))
                else:
                    items.append(_oval_template(*shape[1:]) + 0.1 * idct2(mag * noise))
            assert np.array_equal(generate(spec).items, np.stack(items)), (count, shape)

    @pytest.mark.parametrize("p", [0.5, 1.3, 2.0, 4.0])
    def test_decay_magnitude_is_the_formula(self, p):
        h, w = np.arange(9.0)[:, None], np.arange(7.0)[None, :]
        expected = (1.0 + np.sqrt(h**2 + w**2)) ** (-p / 2.0)
        assert np.array_equal(_decay_magnitude(9, 7, p), expected)

    def test_structured_data_holds_the_stack_and_one_plane(self):
        # The decay profile takes one plane and each block's inverse DCT is
        # written back into the stack. numpy's ufunc buffers (a few 64-KiB
        # blocks, whatever the grid) come on top.
        spec = SynthSpec(LOW_FREQ_BLOBS, 2, (1, 256, 256))
        plane = 256 * 256 * 8
        generate(spec)  # scipy's transform plans are cached on first use
        tracemalloc.start()
        try:
            generate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * plane + 2**18

    def test_face_like_adds_one_plane_to_the_blobs_peak(self):
        # The template is one (H, W) plane added by broadcasting; a (C, H, W)
        # copy of it took C more planes.
        def peak(kind):
            spec = SynthSpec(kind, 2, (3, 256, 256))
            generate(spec)  # scipy's transform plans are cached on first use
            tracemalloc.start()
            try:
                generate(spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(FACE_LIKE) <= peak(LOW_FREQ_BLOBS) + 256 * 256 * 8

    def test_shapes(self):
        ds = generate(SynthSpec(FACE_LIKE, 3, (2, 10, 12), seed=0))
        assert ds.items.shape == (3, 2, 10, 12)

    def test_unstructured_is_white(self):
        ds = generate(SynthSpec(UNSTRUCTURED, 400, (1, 8, 8), seed=1))
        power = freq_power_stats(ds).power
        # White noise: flat spectral power (each bin is unit-variance).
        assert abs(power.mean() - 1.0) < 0.05
        assert power.std() / power.mean() < 0.25

    def test_blobs_power_slope(self):
        p = 2.0
        ds = generate(SynthSpec(LOW_FREQ_BLOBS, 300, (1, 32, 32), spectral_decay=p, seed=2))
        radii, power = radial_power_profile(freq_power_stats(ds).power)
        keep = (radii > 1.0) & (power > 0)
        slope = np.polyfit(np.log(radii[keep]), np.log(power[keep]), 1)[0]
        assert abs(slope + p) < 0.4

    def test_face_like_shares_layout(self):
        ds = generate(SynthSpec(FACE_LIKE, 50, (1, 16, 16), seed=3))
        mean_img = ds.items.mean(axis=0)[0]
        center = mean_img[6:10, 6:10].mean()
        corner = mean_img[:2, :2].mean()
        assert center > corner + 0.3  # oval foreground vs background

    def test_structured_beats_noise_at_low_freq(self):
        blobs = generate(SynthSpec(LOW_FREQ_BLOBS, 200, (1, 16, 16), seed=4))
        noise = generate(SynthSpec(UNSTRUCTURED, 200, (1, 16, 16), seed=5))
        pb = freq_power_stats(blobs).power
        pn = freq_power_stats(noise).power
        assert pb[0, 0] / pb[-1, -1] > 10 * pn[0, 0] / pn[-1, -1]


def test_radial_profile_skips_empty_bins():
    power = np.ones((4, 4))
    radii, means = radial_power_profile(power, n_bins=32)
    assert len(radii) == len(means)
    assert np.all(means == 1.0)
