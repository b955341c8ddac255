import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdas.transforms import (
    Dct2Map,
    PermutationMap,
    dct1,
    dct1_naive,
    dct2,
    dct_matrix,
    dft2,
    dft2_naive,
    idct1,
    idct2,
    idft2_real,
    rdft2,
)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 17])
def test_dct_matrix_orthogonal(d):
    m = dct_matrix(d)
    assert np.allclose(m @ m.T, np.eye(d), atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 5, 16, 31])
def test_dct1_matches_naive(d, rng):
    v = rng.standard_normal(d)
    assert np.allclose(dct1(v), dct1_naive(v), atol=1e-9)


def test_dct1_roundtrip(rng):
    v = rng.standard_normal(64)
    assert np.allclose(idct1(dct1(v)), v, atol=1e-12)


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


def test_dct2_separable_against_matrix(rng):
    # Independent route: explicit row/column matrix products.
    t = rng.standard_normal((1, 6, 9))
    mh, mw = dct_matrix(6), dct_matrix(9)
    expected = mh @ t[0] @ mw.T
    assert np.allclose(dct2(t)[0], expected, atol=1e-10)


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
