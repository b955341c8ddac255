import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdas.sampler import SamplerConfig
from tdas.scores import GaussianScore, geometric_levels
from tdas.transforms import (
    Dct2Map,
    HartleyMap,
    PermutationMap,
    dct2,
    dct_matrix,
    dft2,
    dft2_naive,
    dht2,
    idct2,
    idft2_real,
    rdft2,
)
from tdas.validate import check_theorem1


@pytest.mark.parametrize("d", [1, 2, 3, 8, 17])
def test_dct_matrix_orthogonal(d):
    m = dct_matrix(d)
    assert np.allclose(m @ m.T, np.eye(d), atol=1e-12)


@pytest.mark.parametrize("shape", [(1, 4, 4), (2, 8, 8), (1, 5, 7), (3, 16, 16)])
def test_dct2_roundtrip_and_norm(shape, rng):
    t = rng.standard_normal(shape)
    assert np.allclose(idct2(dct2(t)), t, atol=1e-12)
    # Orthonormality: L2 norm preserved per channel.
    assert np.allclose(np.linalg.norm(dct2(t)), np.linalg.norm(t))


@pytest.mark.parametrize("shape", [(1, 4, 4), (1, 5, 7), (2, 9, 3)])
def test_dft2_matches_naive(shape, rng):
    t = rng.standard_normal(shape)
    assert np.allclose(dft2(t), dft2_naive(t), atol=1e-9)


@pytest.mark.parametrize("shape", [(1, 1), (1, 4, 4), (1, 5, 7), (2, 9, 3), (2, 3, 13, 17),
                                   (1, 12, 1), (1, 100, 64), (1, 256, 255)])
def test_rdft2_is_numpys_half_spectrum(shape, rng):
    # scipy's rfft2 equals numpy's bit for bit, odd and prime sides included,
    # and is the half of the full DFT.
    t = rng.standard_normal(shape)
    half = rdft2(t)
    assert np.array_equal(half, np.fft.rfft2(t, axes=(-2, -1)))
    assert np.array_equal(rdft2(t.swapaxes(-2, -1)), np.fft.rfft2(t.swapaxes(-2, -1), axes=(-2, -1)))
    assert np.allclose(half, dft2(t)[..., : t.shape[-1] // 2 + 1], atol=1e-9)


def test_dft2_roundtrip(rng):
    t = rng.standard_normal((2, 6, 10))
    assert np.allclose(idft2_real(dft2(t)), t, atol=1e-12)


# Odd, even and prime sides, single rows and columns, with 0 to 2 leading axes.
_HARTLEY_SHAPES = [(9, 7), (8, 8), (16, 11), (1, 5), (5, 1), (2, 9, 7), (3, 1, 16, 11),
                   (2, 3, 8, 8), (1, 1, 5, 1)]


@pytest.mark.parametrize("shape", _HARTLEY_SHAPES)
def test_dht2_is_re_minus_im_of_the_orthonormal_dft(shape, rng):
    t = rng.standard_normal(shape)
    spectrum = dft2_naive(t) / np.sqrt(shape[-2] * shape[-1])
    np.testing.assert_allclose(dht2(t), spectrum.real - spectrum.imag, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shape", _HARTLEY_SHAPES)
def test_dht2_is_its_own_inverse_and_keeps_the_norm(shape, rng):
    t = rng.standard_normal(shape)
    h = dht2(t)
    np.testing.assert_allclose(dht2(h), t, rtol=0, atol=1e-13)
    assert np.isclose(np.linalg.norm(h), np.linalg.norm(t), rtol=1e-13, atol=0)


@pytest.mark.parametrize("shape", [(1, 6, 10), (2, 1, 9, 7)])
def test_dht2_overwrite_writes_into_t(shape, rng):
    t = rng.standard_normal(shape)
    given = t.copy()
    expected = dht2(t)
    assert np.array_equal(t, given)  # without overwrite t is only read
    out = dht2(t, overwrite=True)
    assert out is t
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("layout", ["strided-columns", "strided-items", "float32"])
def test_dht2_overwrite_of_a_strided_or_cast_t_keeps_its_contents(layout, rng):
    base = rng.standard_normal((4, 1, 12, 18))
    t = {"strided-columns": base[..., ::2], "strided-items": base[::2],
         "float32": base.astype(np.float32)}[layout]
    given = t.copy()
    out = dht2(t, overwrite=True)
    assert np.array_equal(t, given)
    assert np.array_equal(out, dht2(np.array(t, dtype=np.float64)))


@pytest.mark.parametrize("shape", [(1, 6, 9), (1, 1, 2), (1, 2, 1), (1, 5, 16), (1, 31, 5),
                                   (2, 3, 16, 31)])
def test_dct2_separable_against_matrix(shape, rng):
    # Independent route: explicit row/column matrix products, the inverse
    # by the transposes.
    t = rng.standard_normal(shape)
    mh, mw = dct_matrix(shape[-2]), dct_matrix(shape[-1])
    assert np.allclose(dct2(t), mh @ t @ mw.T, atol=1e-10)
    assert np.allclose(idct2(t), mh.T @ t @ mw, atol=1e-10)


@given(
    seed=st.integers(0, 2**31),
    a=st.floats(-5, 5),
    b=st.floats(-5, 5),
)
@settings(max_examples=30, deadline=None)
def test_dct2_linearity(seed, a, b):
    g = np.random.Generator(np.random.PCG64(seed))
    x, y = g.standard_normal((2, 1, 6, 6))
    assert np.allclose(dct2(a * x + b * y), a * dct2(x) + b * dct2(y), atol=1e-9)


class TestOrthogonalMaps:
    def test_dct_map_roundtrip(self, rng):
        t = rng.standard_normal((2, 5, 5))
        m = Dct2Map()
        assert np.allclose(m.inverse(m.forward(t)), t, atol=1e-12)

    def test_hartley_map_is_its_own_inverse(self, rng):
        t = rng.standard_normal((2, 5, 6))
        m = HartleyMap()
        assert np.array_equal(m.forward(t), m.inverse(t))
        np.testing.assert_allclose(m.inverse(m.forward(t)), t, rtol=0, atol=1e-13)

    def test_hartley_map_keeps_theorem_1(self):
        # The transform-domain chain in the Hartley basis is the spatial
        # chain mapped over, to round-off.
        cfg = SamplerConfig(levels=geometric_levels(1.0, 0.1, 5, 4), eps0=0.01)
        for shape in [(1, 8, 8), (3, 9, 7)]:
            model = GaussianScore(np.linspace(-1.0, 1.0, np.prod(shape)).reshape(shape), 0.7)
            assert check_theorem1(model, cfg, seed=0, steps=20, shape=shape,
                                  fmap=HartleyMap()) <= 1e-6

    def test_permutation_roundtrip_and_norm(self, rng):
        t = rng.standard_normal((3, 4, 4))
        m = PermutationMap(t.shape, seed=3)
        out = m.forward(t)
        assert np.allclose(m.inverse(out), t)
        assert np.isclose(np.linalg.norm(out), np.linalg.norm(t))
        assert sorted(out.ravel()) == sorted(t.ravel())

    def test_permutation_batched(self, rng):
        t = rng.standard_normal((5, 1, 3, 3))
        m = PermutationMap((1, 3, 3), seed=0)
        single = np.stack([m.forward(ti) for ti in t])
        assert np.array_equal(m.forward(t), single)
