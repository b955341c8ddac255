"""Synthetic structured datasets: spectra dominated by low frequencies, a
face-like shared spatial layout, and an unstructured white-noise control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ImageDataset, NoiseSource, _is_count, _seed, block_slices
from .transforms import idct2

LOW_FREQ_BLOBS = "low_freq_blobs"
FACE_LIKE = "face_like"
UNSTRUCTURED = "unstructured"

KINDS = (LOW_FREQ_BLOBS, FACE_LIKE, UNSTRUCTURED)


@dataclass(frozen=True)
class SynthSpec:
    kind: str
    count: int
    shape: tuple
    spectral_decay: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; choose from {KINDS}")
        if not _is_count(self.count) or self.count < 1:
            raise ValueError(f"count must be an integer >= 1, got {self.count!r}")
        if len(self.shape) != 3:
            raise ValueError("shape must be (C, H, W)")
        if not 0 < self.spectral_decay < math.inf:
            raise ValueError("spectral_decay must be positive and finite")
        _seed(self.seed)  # raises for a bool or a seed that is not an integer


def _decay_magnitude(height, width, p):
    """DCT-coefficient magnitude profile (1 + r)^(-p/2) with r the radial index
    distance to the DC bin, so binned spectral power falls off like r^(-p)."""
    h = np.arange(height, dtype=np.float64)[:, None]
    w = np.arange(width, dtype=np.float64)[None, :]
    m = h**2 + w**2  # one buffer, each step in place
    np.sqrt(m, out=m)
    m += 1.0
    m **= -p / 2.0
    return m


def _oval_template(height, width):
    """The face-like layout: 0.8 inside a centred oval, 0.1 outside, as one
    (H, W) plane that generate adds to every channel."""
    hh = (np.arange(height)[:, None] - (height - 1) / 2.0) / (height / 2.0)
    ww = (np.arange(width)[None, :] - (width - 1) / 2.0) / (width / 2.0)
    inside = (hh / 0.75) ** 2 + (ww / 0.55) ** 2 <= 1.0
    return np.where(inside, 0.8, 0.1)


def generate(spec: SynthSpec) -> ImageDataset:
    """spec.count images from one NoiseSource(spec.seed) draw of the whole
    (count, C, H, W) stack: row i is, bit for bit, the i-th of count successive
    image draws. Structured kinds scale the stack by the decay profile in
    place and take its inverse DCT a core.block_slices block at a time."""
    items = NoiseSource(spec.seed).normal((spec.count,) + tuple(spec.shape))
    if spec.kind == UNSTRUCTURED:
        return ImageDataset(items)
    items *= _decay_magnitude(*spec.shape[1:], spec.spectral_decay)
    for rows in block_slices(spec.count, items[0].nbytes):
        idct2(items[rows], overwrite=True)  # the result is written into the block
    if spec.kind == FACE_LIKE:
        # Equals template + 0.1 * v bit for bit.
        items *= 0.1
        items += _oval_template(*spec.shape[1:])
    return ImageDataset(items)


def radial_power_profile(power: np.ndarray, n_bins: int = 16):
    """Bin an H x W power grid by radial index distance to the DC bin.

    Returns (bin center radii, mean power per bin), skipping empty bins.
    """
    height, width = power.shape
    h = np.arange(height)[:, None]
    w = np.arange(width)[None, :]
    r = np.sqrt(h**2 + w**2).ravel()
    p = power.ravel()
    edges = np.linspace(0.0, r.max() + 1e-9, n_bins + 1)
    centers, means = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (r >= lo) & (r < hi)
        if sel.any():
            centers.append(0.5 * (lo + hi))
            means.append(float(p[sel].mean()))
    return np.array(centers), np.array(means)
