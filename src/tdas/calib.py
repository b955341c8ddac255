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

from .core import ImageDataset
from .filters import DCT, DFT, FreqFilterParams, radial_distance_grid
from .transforms import dct2, dft2

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
    """power(h, w) = mean over samples and channels of the squared spectrum."""
    if transform == DCT:
        spec_sq = dct2(samples.items) ** 2
    elif transform == DFT:
        spec_sq = np.abs(dft2(samples.items)) ** 2
    else:
        raise ValueError(f"unknown transform {transform!r}")
    return FreqStats(spec_sq.mean(axis=(0, 1)), transform, len(samples))


def ratio_grid(generated: FreqStats, reference: FreqStats, floor: float = RATIO_FLOOR) -> RatioGrid:
    if generated.power.shape != reference.power.shape or generated.transform != reference.transform:
        raise ValueError("stats must share shape and transform")
    tiny = reference.power < floor
    clamped = int(tiny.sum())
    if clamped:
        log.warning("ratio_grid: %d reference cells below floor %g were clamped", clamped, floor)
    denom = np.maximum(reference.power, floor)
    gamma = np.maximum(generated.power, floor) / denom
    return RatioGrid(gamma, generated.transform, clamped)


def quantile(values, alpha: float) -> float:
    """Order-statistic quantile: the smallest x in S with #{y in S : y <= x} >= alpha * #S."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("quantile of an empty set")
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    ordered = np.sort(values)
    k = math.ceil(alpha * values.size - 1e-12)
    return float(ordered[k - 1])


def kappa(g: RatioGrid, r: float, distance: str | None = None) -> float:
    """Mean of gamma over cells with normalized d0(h, w) >= 2 r^2."""
    distance = distance or g.transform
    height, width = g.gamma.shape
    d0 = radial_distance_grid(height, width, distance)
    region = d0 >= 2.0 * r * r
    if not region.any():
        raise ValueError(f"empty region outside radius r={r}")
    return float(g.gamma[region].mean())


def kappa_curve(g: RatioGrid, distance: str | None = None):
    """(r, kappa(r)) on the radial grid r = k / max(H, W), while the region is non-empty."""
    height, width = g.gamma.shape
    step = 1.0 / max(height, width)
    curve = []
    k = 0
    while True:
        r = k * step
        try:
            curve.append((r, kappa(g, r, distance)))
        except ValueError:
            break
        k += 1
    return curve


def _first_crossing(curve, level, from_below: bool):
    for r, value in curve:
        if (value >= level) if from_below else (value <= level):
            return r
    return None


def _direction_quantiles(s: np.ndarray, direction: str):
    if direction == SGM:
        return quantile(s, 0.75), quantile(s, 0.9), True
    if direction == DDPM:
        return quantile(s, 0.25), quantile(s, 0.1), False
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
    zone always contains the DC bin.
    """
    transform = transform or g.transform
    s = g.gamma.ravel()
    ave = float(s.mean())
    curve = kappa_curve(g, transform)
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
    return FreqFilterParams(lambda1=ave / q1, lambda2=ave / q2, r1=r1, r2=r2, transform=transform)


def write_kappa_csv(curve, path) -> None:
    lines = ["r,kappa"] + [f"{r:.10g},{k:.10g}" for r, k in curve]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
