"""Frequency statistics and automated filter-parameter calibration.

The pipeline: average spectral power grids for a reference and a generated
sample set, their elementwise ratio, order-statistic quantiles over that
ratio multiset, the radial behavior function kappa(r), and the lambda/r
estimation rules (quantiles from above for score-model acceleration, from
below for the DDPM-style direction where kappa decreases).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import ImageDataset, block_slices
from .filters import DCT, DFT, FreqFilterParams, radial_distance_grid
from .transforms import dct2, rdft2

log = logging.getLogger(__name__)

SGM = "sgm"
DDPM = "ddpm"

RATIO_FLOOR = 1e-12


class CalibrationError(Exception):
    """Raised when no radius satisfies the quantile-crossing rule; carries the curve."""

    def __init__(self, message, curve=None):
        super().__init__(message)
        self.curve = curve or []


@dataclass(frozen=True)
class FreqStats:
    """Channel-averaged mean spectral power per (h, w) bin."""

    power: np.ndarray
    transform: str
    sample_count: int

    def __post_init__(self):
        object.__setattr__(self, "power", np.asarray(self.power, dtype=np.float64))
        if self.power.ndim != 2 or np.any(self.power < 0):
            raise ValueError("power must be a nonnegative H x W grid")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")


@dataclass(frozen=True)
class RatioGrid:
    """Elementwise generated/reference power ratio; entries positive and finite."""

    gamma: np.ndarray
    transform: str
    clamped_cells: int = 0

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=np.float64)
        object.__setattr__(self, "gamma", g)
        if not np.all(np.isfinite(g)) or np.any(g <= 0):
            raise ValueError("gamma entries must be positive and finite")


def freq_power_stats(samples: ImageDataset, transform: str = DCT) -> FreqStats:
    """power(h, w) = mean over samples and channels of the squared spectrum.

    The images are transformed a block of at most core.BLOCK_BYTES at a time
    and each squared (image, channel) plane is added in order into one sum:
    the sum a mean over all the stacked spectra takes, bit for bit, whatever
    the block size, without holding them. The DFT of a real image is
    conjugate-symmetric, so its power is summed over the half spectrum
    (rdft2, columns 0..W//2) and the grid is completed once at the end,
    exactly symmetric: power(h, w) = power(-h mod H, -w mod W).
    """
    if transform not in (DCT, DFT):
        raise ValueError(f"unknown transform {transform!r}")
    items = samples.items
    count, channels, height, width = items.shape
    columns = width // 2 + 1 if transform == DFT else width
    total = np.zeros((height, columns))
    for rows in block_slices(count, items[0].nbytes):
        _add_power(total, items[rows], transform)
    if transform == DFT:
        total = _mirror_columns(total, width)
    total /= count * channels
    return FreqStats(total, transform, len(samples))


def _add_power(total, block, transform):
    """Add the squared spectrum of each (image, channel) plane of a block into
    total, in order: the squared DCT, or re**2 + im**2 over the DFT half
    spectrum. The DFT power is formed in one buffer, with im**2 squared in
    place in the spectrum, so no plane makes a temporary. Nothing of the
    block outlives the call, so no two blocks' spectra are held at once."""
    if transform == DCT:
        power = dct2(block)
        np.square(power, out=power)
    else:
        half = rdft2(block)
        power = np.square(half.real)
        power += np.square(half.imag, out=half.imag)
    for plane in power.reshape((-1,) + total.shape):
        total += plane


def _mirror_columns(half: np.ndarray, width: int) -> np.ndarray:
    """The H x width grid power(h, w) = power(-h mod H, -w mod width) from its
    columns 0..width // 2. Columns 0 and, for even width, width / 2 are their
    own mirror images; their rows below H // 2 are copied from those above."""
    height, kept = half.shape
    rows = -np.arange(height) % height
    full = np.empty((height, width))
    full[:, :kept] = half
    full[:, kept:] = half[rows[:, None], width - np.arange(kept, width)]
    lower = np.arange(height // 2 + 1, height)[:, None]
    own = [0, width // 2] if width % 2 == 0 else [0]
    full[lower, own] = half[rows[lower], own]
    return full


def ratio_grid(generated: FreqStats, reference: FreqStats) -> RatioGrid:
    if generated.power.shape != reference.power.shape or generated.transform != reference.transform:
        raise ValueError("stats must share shape and transform")
    tiny = reference.power < RATIO_FLOOR
    clamped = int(tiny.sum())
    if clamped:
        log.warning("ratio_grid: %d reference cells below floor %g were clamped", clamped, RATIO_FLOOR)
    gamma = np.maximum(generated.power, RATIO_FLOOR)
    gamma /= np.maximum(reference.power, RATIO_FLOOR)
    return RatioGrid(gamma, generated.transform, clamped)


def quantile(values, alpha: float) -> float:
    """Order-statistic quantile: the smallest x in S with #{y in S : y <= x} >= alpha * #S."""
    return _quantiles(values, (alpha,))[0]


def _quantiles(values, alphas):
    """quantile(values, alpha) for each alpha, from one sort of the multiset."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("quantile of an empty set")
    for alpha in alphas:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    ordered = np.sort(values)
    return [float(ordered[math.ceil(alpha * values.size - 1e-12) - 1]) for alpha in alphas]


def _radial_scan(g: RatioGrid):
    """Sum and size of the region d0 >= 2 r_k^2 for every scan radius
    r_k = k / max(H, W) whose region is non-empty, in one pass over the grid.

    Each cell goes to bin k, the largest k with d0 >= 2 r_k^2, and region k
    is the suffix sum of the bins from k out, added outermost bin first: a
    total minus a prefix would cancel on the small outer regions.
    """
    height, width = g.gamma.shape
    d0 = radial_distance_grid(height, width, g.transform).ravel()
    r = np.arange(max(height, width) + 2) * (1.0 / max(height, width))
    bins = np.searchsorted(2.0 * r * r, d0, side="right") - 1
    sums, counts = np.bincount(bins, weights=g.gamma.ravel()), np.bincount(bins)
    return np.cumsum(sums[::-1])[::-1], np.cumsum(counts[::-1])[::-1]


def kappa_curve(g: RatioGrid):
    """(r, kappa(r)) on the radial grid r = k / max(H, W), while the region is
    non-empty: kappa(r) is the mean of gamma over the cells with d0 >= 2 r^2."""
    step = 1.0 / max(g.gamma.shape)
    sums, counts = _radial_scan(g)
    return [(k * step, value) for k, value in enumerate((sums / counts).tolist())]


def _first_crossing(curve, level, from_below: bool):
    for r, value in curve:
        if (value >= level) if from_below else (value <= level):
            return r
    return None


def _direction_quantiles(s: np.ndarray, direction: str):
    if direction == SGM:
        return (*_quantiles(s, (0.75, 0.9)), True)
    if direction == DDPM:
        return (*_quantiles(s, (0.25, 0.1)), False)
    raise ValueError(f"unknown direction {direction!r}")


def calc_lambda_pair(g: RatioGrid, direction: str = SGM):
    """The suppression rates alone: lambda_i = ave(S) / Q_i(S).

    Independent of the radius scan, so usable even when kappa never crosses
    the quantile levels.
    """
    s = g.gamma.ravel()
    q1, q2, _ = _direction_quantiles(s, direction)
    ave = float(s.mean())
    return ave / q1, ave / q2


def calc_freq_params(g: RatioGrid, direction: str = SGM, transform: str | None = None) -> FreqFilterParams:
    """Estimate (lambda1, lambda2, r1, r2) from a ratio grid.

    SGM direction (kappa increasing, high-frequency excess): lambdas are
    ave/Q_0.75 and ave/Q_0.9; radii are the first grid points where kappa
    reaches those quantiles from below. DDPM direction (kappa decreasing):
    quantiles Q_0.25 and Q_0.1, crossings from above. Ties resolve to the
    smallest r; results are clamped to at least one grid step so the pass
    zone always contains the DC bin. transform, if given, must be g.transform.
    """
    if transform is not None and transform != g.transform:
        raise ValueError(f"ratio grid is in {g.transform!r}, not {transform!r}")
    s = g.gamma.ravel()
    ave = float(s.mean())
    curve = kappa_curve(g)
    q1, q2, from_below = _direction_quantiles(s, direction)
    r1 = _first_crossing(curve, q1, from_below)
    r2 = _first_crossing(curve, q2, from_below)
    if r1 is None or r2 is None:
        raise CalibrationError(
            f"kappa never crosses quantile level(s) {q1:.4g}/{q2:.4g}", curve=curve
        )
    step = 1.0 / max(g.gamma.shape)
    r1 = max(r1, step)
    r2 = max(r2, r1)
    return FreqFilterParams(lambda1=ave / q1, lambda2=ave / q2, r1=r1, r2=r2, transform=g.transform)
