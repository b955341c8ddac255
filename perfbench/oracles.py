"""Closed-form and brute-force oracles for the benchmark's output checks.

Written from the documented definitions with numpy/scipy only, so a change
inside tdas cannot move an oracle together with the code it checks.
Monte-Carlo comparisons use N_SE standard errors.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.fft

N_SE = 6.0


def langevin_variance(sigmas, steps_per_level, eps0, accel_factor, s0):
    """Per-coefficient output variance, in units of m_k^2, of annealed Langevin
    on N(0, s0^2 I) with frequency-filtered noise: v <- a^2 v + eps with
    a = 1 - eps / (2 (s0^2 + sigma^2)), eps = accel * eps0 * sigma^2 / sigma_min^2,
    starting from the filtered initial draw, v0 = 1."""
    smin2 = sigmas[-1] ** 2
    v = 1.0
    for sigma in sigmas:
        eps = accel_factor * eps0 * sigma**2 / smin2
        a = 1.0 - eps / (2.0 * (s0**2 + sigma**2))
        for _ in range(steps_per_level):
            v = a * a * v + eps
    return v


def radial_d0(height, width, transform):
    """Normalized squared radial coordinate: to the DC corner (dct), or to the
    nearest spectrum corner (dft)."""
    h = np.arange(height, dtype=np.float64)[:, None] / height
    w = np.arange(width, dtype=np.float64)[None, :] / width
    if transform == "dct":
        return h**2 + w**2
    return np.minimum(h, 1.0 - h) ** 2 + np.minimum(w, 1.0 - w) ** 2


def three_zone_mask(lambda1, lambda2, r1, r2, transform, height, width):
    d0 = radial_d0(height, width, transform)
    return np.where(d0 <= 2.0 * r1**2, 1.0, np.where(d0 <= 2.0 * r2**2, lambda1, lambda2))


def zone_power(x, mask, transform, v):
    """For each zone of the (H, W) mask: (m_k, measured power / (m_k^2 v), tolerance).

    x is an (n, C, H, W) stack of samples. Each coefficient's normalized power
    is chi-square(1) with variance 2; the count is halved because real-input
    DFT coefficients come in conjugate pairs.
    """
    height, width = mask.shape
    if transform == "dct":
        power = scipy.fft.dctn(x, type=2, norm="ortho", axes=(-2, -1)) ** 2
    else:
        power = np.abs(np.fft.fft2(x, axes=(-2, -1))) ** 2 / (height * width)
    rows = []
    for m in np.unique(mask):
        cells = power[..., mask == m]
        tol = N_SE * math.sqrt(2.0 / (cells.size / 2.0))
        rows.append((float(m), float(cells.mean() / (m * m * v)), tol))
    return rows


def band_ratio(gamma, exponent, count, bands=16, min_cells=100):
    """Radial-band means of gamma / E[gamma] for two LOW_FREQ_BLOBS sets whose
    DCT magnitudes differ by (1 + r)^(exponent / 2), r the index distance to DC.

    Per cell the ratio is (1 + r)^exponent times a ratio of two independent
    mean-of-count chi-squares, whose mean is count / (count - 2).
    Returns (band, mean, tolerance) for bands with at least min_cells cells.
    """
    height, width = gamma.shape
    r = np.hypot(np.arange(height)[:, None], np.arange(width)[None, :])
    z = gamma / ((1.0 + r) ** exponent * count / (count - 2.0))
    edges = np.linspace(0.0, r.max() + 1e-9, bands + 1)
    band = np.digitize(r, edges) - 1
    rows = []
    for b in range(bands):
        values = z[band == b]
        if values.size >= min_cells:
            se = float(values.std(ddof=1)) / math.sqrt(values.size)
            rows.append((b, float(values.mean()), N_SE * se))
    return rows


def order_quantile(values, alpha):
    """The smallest x in S with #{y in S : y <= x} >= alpha * #S."""
    k = math.ceil(alpha * values.size - 1e-12)
    return float(np.partition(values, k - 1)[k - 1])


def calibration_rule_errors(gamma, params, transform):
    """Violations of the SGM rule: lambda_i = ave(S) / Q_i(S) with Q at 0.75 and
    0.9, and r_i the first grid radius k / max(H, W) whose kappa (mean ratio over
    d0 >= 2 r^2) reaches Q_i. Radii are clamped to at least one grid step."""
    s = gamma.ravel()
    ave = float(s.mean())
    step = 1.0 / max(gamma.shape)
    d0 = radial_d0(*gamma.shape, transform)

    def kappa(k):
        r = k * step
        return float(gamma[d0 >= 2.0 * r * r].mean())

    errors = []
    for name, lam, radius, alpha in (("1", params.lambda1, params.r1, 0.75),
                                     ("2", params.lambda2, params.r2, 0.9)):
        q = order_quantile(s, alpha)
        if not math.isclose(lam, ave / q, rel_tol=1e-12):
            errors.append(f"lambda{name}={lam!r} != ave/Q={ave / q!r}")
        k = round(radius / step)
        if kappa(k) < q or (k > 1 and kappa(k - 1) >= q):
            errors.append(f"r{name}={radius!r} is not the first kappa crossing of {q:.6g}")
    return errors
