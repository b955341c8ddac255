"""Orthonormal DCT-II / DFT transforms with brute-force reference versions.

Fast paths delegate to scipy.fft / numpy.fft, which handle arbitrary
(including odd) lengths via mixed-radix and Bluestein plans. dct_matrix and
dft2_naive implement the O(d^2) definitions directly as independent oracles:
tests compare dct2 and idct2 with dct_matrix products, the DFTs with dft2_naive.

Which library runs which transform:

- scipy.fft: the DCTs, and rdft2, the half spectrum of a real image. scipy's
  rfft2 runs its real-to-complex and complex passes in one call into one
  output array, where numpy's runs them as two calls with an array each, and
  its result equals numpy's bit for bit. dht2, the Hartley transform, is
  formed from rdft2's half spectrum.
- numpy.fft: the inverse of the half spectrum, dft2 and idft2_real. The
  inverse, in filters.apply_tdas's pixel-basis DFT, is numpy's irfft2 run as
  its own two passes, ifft over H and then irfft over W. Each takes out=, so
  they write into buffers the caller gives up, and together they equal
  np.fft.irfft2 bit for bit, as tests/test_filters.py pins. scipy's irfft2
  scales by 1/(HW) once where numpy scales by 1/H and then by 1/W, so it
  differs in the last bits whenever H is not a power of two, and scipy's
  fft2 and ifft2 differ from numpy's on many small shapes.

The DCT is the orthonormal type-II variant along each axis: the 1/sqrt(2)
weight sits on the k = 0 output coefficient, so dct_matrix is orthogonal and
the 2D transform preserves the L2 norm.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.fft


def dct_matrix(d: int) -> np.ndarray:
    """The d x d orthonormal DCT-II matrix."""
    k = np.arange(d)[:, None]
    n = np.arange(d)[None, :]
    m = np.sqrt(2.0 / d) * np.cos(np.pi * (n + 0.5) * k / d)
    m[0, :] /= np.sqrt(2.0)
    return m


def dct2(t: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Separable orthonormal 2D DCT-II over the last two axes, per channel.

    With overwrite, t's contents may be destroyed (scipy's overwrite_x); the
    result of a float64 t is then written into t's memory.
    """
    return scipy.fft.dctn(np.asarray(t, dtype=np.float64), type=2, norm="ortho", axes=(-2, -1),
                          overwrite_x=overwrite)


def idct2(t: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Inverse of dct2; overwrite as there."""
    return scipy.fft.idctn(np.asarray(t, dtype=np.float64), type=2, norm="ortho", axes=(-2, -1),
                           overwrite_x=overwrite)


def dft2(t: np.ndarray) -> np.ndarray:
    """Standard (unnormalized-forward) 2D DFT over the last two axes."""
    return np.fft.fft2(np.asarray(t, dtype=np.float64), axes=(-2, -1))


def idft2_real(s: np.ndarray) -> np.ndarray:
    """Real part of the inverse 2D DFT."""
    return np.fft.ifft2(np.asarray(s), axes=(-2, -1)).real


def rdft2(t: np.ndarray) -> np.ndarray:
    """Half spectrum of a real t: columns 0..W//2 of its 2D DFT over the last
    two axes, bit for bit numpy's rfft2. The other columns follow by
    conjugate symmetry."""
    return scipy.fft.rfft2(np.asarray(t, dtype=np.float64), axes=(-2, -1))


def dht2(t: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Orthonormal 2D discrete Hartley transform over the last two axes.

    H[t] = Re X - Im X for X the orthonormal 2D DFT of t. It is real,
    orthogonal and its own inverse, and for a real mask M with
    M[h, w] == M[-h, -w] it takes the DFT filter F^-1[M * F[t]] to M * H[t].
    Each (H, W) plane is formed from its rdft2 half spectrum, the columns
    w > W//2 from the mirrored half, X[h, w] = conj X[-h mod H, W - w], so
    beside the result only one plane's half spectrum is held. With
    overwrite, the result of a C-contiguous float64 t is written into t's
    memory.
    """
    t = np.asarray(t, dtype=np.float64)
    out = t if overwrite and t.flags.c_contiguous else np.empty(t.shape)
    height, width = t.shape[-2:]
    split = width // 2 + 1
    mirror = slice(width - split, 0, -1)  # the half's columns W - w for w = split .. W-1
    scale = 1.0 / math.sqrt(height * width)
    for plane, dest in zip(t.reshape((-1, height, width)), out.reshape((-1, height, width))):
        half = rdft2(plane)
        half *= scale
        # Re - Im and Re + Im formed in the half itself, then copied out:
        # an arithmetic ufunc between its views and dest's would not merge
        # into one loop and would take numpy's ufunc buffer.
        re, im = half.real, half.imag
        re -= im
        im *= 2.0
        im += re
        dest[:, :split] = re
        # Row -h mod H is row 0 for h = 0 and row H - h after it.
        dest[:1, split:] = im[:1, mirror]
        dest[1:, split:] = im[:0:-1, mirror]
        del half, re, im  # so the next plane's half is not formed beside this one
    return out


def dft2_naive(t: np.ndarray) -> np.ndarray:
    """Double-sum 2D DFT per channel; O((HW)^2)."""
    t = np.asarray(t, dtype=np.float64)
    h, w = t.shape[-2:]
    fh = np.exp(-2j * np.pi * np.outer(np.arange(h), np.arange(h)) / h)
    fw = np.exp(-2j * np.pi * np.outer(np.arange(w), np.arange(w)) / w)
    return np.einsum("kh,...hw,wl->...kl", fh, t, fw)


class OrthogonalMap:
    """Invertible linear map on (C, H, W) tensors with orthogonal representation matrix.

    forward and inverse act on the last three axes, so they also take stacks.
    """

    def forward(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def inverse(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Dct2Map(OrthogonalMap):
    def forward(self, t):
        return dct2(t)

    def inverse(self, t):
        return idct2(t)


class HartleyMap(OrthogonalMap):
    """The 2D Hartley transform, its own inverse (see dht2)."""

    def forward(self, t):
        return dht2(t)

    def inverse(self, t):
        return dht2(t)


class PermutationMap(OrthogonalMap):
    """Coordinate permutation of the flattened tensor; orthogonal by construction."""

    def __init__(self, shape, seed: int):
        self.shape = tuple(shape)
        n = int(np.prod(self.shape))
        self.perm = np.random.Generator(np.random.PCG64(seed)).permutation(n)
        self.inv_perm = np.argsort(self.perm)

    def forward(self, t):
        return t.reshape(t.shape[:-3] + (-1,))[..., self.perm].reshape(t.shape)

    def inverse(self, t):
        return t.reshape(t.shape[:-3] + (-1,))[..., self.inv_perm].reshape(t.shape)
