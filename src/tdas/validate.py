"""Numerical harnesses for the two exact identities behind the method, plus
desk-scale sample-quality metrics (spectral deviation and sliced Wasserstein).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .calib import freq_power_stats, ratio_grid
from .core import ImageDataset, NoiseSource, _is_count, block_slices
from .filters import DCT
from .sampler import SamplerConfig, freq_domain_sample, vanilla_sample
from .transforms import Dct2Map, OrthogonalMap


def check_theorem1(model, cfg: SamplerConfig, seed: int, steps: int, shape=(1, 16, 16),
                   fmap: OrthogonalMap | None = None) -> float:
    """Max over the initial state and the first `steps` steps (1 <= steps <=
    cfg.total_steps) of the sup-norm gap between the transform-domain
    trajectory and the mapped spatial trajectory, when both full runs consume
    the same noise stream. Only the first steps + 1 spatial states are kept;
    each transform-domain state is compared as the second run reaches it.

    The conjugation identity is deterministic, so the result is round-off only.
    """
    if not _is_count(steps) or not 1 <= steps <= cfg.total_steps:
        raise ValueError(f"steps must be an integer in 1..{cfg.total_steps}, got {steps!r}")
    if fmap is None:
        fmap = Dct2Map()
    space, gaps = [], []

    def keep(x):
        if len(space) <= steps:
            space.append(x)

    def compare(y):
        if len(gaps) <= steps:
            gaps.append(float(np.max(np.abs(y - fmap.forward(space[len(gaps)])))))

    vanilla_sample(model, cfg, NoiseSource(seed), shape, observe=keep)
    freq_domain_sample(model, cfg, NoiseSource(seed), shape, fmap=fmap, observe=compare)
    return max(gaps)


@dataclass
class DeviationReport:
    """Monte-Carlo estimate of the one-step deviation decomposition.

    lhs = E||x* - x_{t-1}||^2; the decomposition is a noise-independent
    constant, the noise-variance term eps*E||z||^2, and the correlation term
    2*sqrt(eps)*E[x* . z] (subtracted).
    """

    lhs: float
    c1_term: float
    variance_term: float
    correlation_term: float
    mc_samples: int
    standard_error: float

    @property
    def rhs(self) -> float:
        return self.c1_term + self.variance_term - self.correlation_term

    def consistent(self) -> bool:
        """lhs and rhs agree within four standard errors."""
        return abs(self.lhs - self.rhs) <= 4.0 * self.standard_error

    def to_json(self) -> str:
        d = asdict(self)
        d["rhs"] = self.rhs
        d["consistent"] = self.consistent()
        return json.dumps(d, indent=2)


def check_theorem2(model, x_t: np.ndarray, noise_gen, eps: float, n_mc: int,
                   seed: int = 0) -> DeviationReport:
    """Estimate both sides of the deviation decomposition from shared draws.

    x_t is held fixed, so the filtration condition reduces to E[z] = 0 while z
    may correlate with the target draw x*. The draws are taken, and the four
    terms reduced, a block of at most core.BLOCK_BYTES of targets at a time
    (one draw if a single one is larger; the block's temporaries peak at a
    few times that). Targets come from the stream NoiseSource(seed), one
    model.sample_targets call per block. noise_gen(x_star, src) makes each
    draw's noise from a stream of its own, NoiseSource.for_worker(seed, 0),
    so the targets do not depend on noise_gen: regimes run at one seed are
    paired on the same target draws. noise_gen gets read-only target rows
    and must return a tensor of their shape (ValueError otherwise). Each
    row's sum is the float64 pairwise sum np.sum makes on that draw alone,
    so the result does not depend on the block size.
    """
    if n_mc < 100:
        raise ValueError("n_mc must be >= 100")
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    target_src = NoiseSource(seed)
    noise_src = NoiseSource.for_worker(seed, 0)
    drift = x_t + (eps / 2.0) * model.score(x_t, 0.0)
    lhs_vals = np.empty(n_mc)
    c1_vals = np.empty(n_mc)
    var_vals = np.empty(n_mc)
    corr_vals = np.empty(n_mc)
    root_eps = math.sqrt(eps)
    axes = tuple(range(1, drift.ndim + 1))
    for rows in block_slices(n_mc, drift.nbytes):
        xs = model.sample_targets(target_src, rows.stop - rows.start)
        xs.flags.writeable = False
        z = np.stack([noise_gen(x_star, noise_src) for x_star in xs])
        if z.shape != xs.shape:
            raise ValueError(f"noise_gen returned shape {z.shape[1:]}, "
                             f"expected the target's {xs.shape[1:]}")
        a = xs - drift
        lhs_vals[rows] = np.sum((a - root_eps * z) ** 2, axis=axes)
        c1_vals[rows] = np.sum(a**2, axis=axes)
        var_vals[rows] = eps * np.sum(z**2, axis=axes)
        corr_vals[rows] = 2.0 * root_eps * np.sum(xs * z, axis=axes)
    se = float(lhs_vals.std(ddof=1) / math.sqrt(n_mc))
    return DeviationReport(
        lhs=float(lhs_vals.mean()),
        c1_term=float(c1_vals.mean()),
        variance_term=float(var_vals.mean()),
        correlation_term=float(corr_vals.mean()),
        mc_samples=n_mc,
        standard_error=se,
    )


def spectral_deviation(samples: ImageDataset, reference: ImageDataset, transform: str = DCT) -> float:
    """Mean over (h, w) of |log gamma| between the two sets' power grids."""
    if samples.shape != reference.shape:
        raise ValueError("sample sets must share shape")
    g = ratio_grid(freq_power_stats(samples, transform), freq_power_stats(reference, transform))
    return float(np.mean(np.abs(np.log(g.gamma))))


def sliced_wasserstein(a: ImageDataset, b: ImageDataset, n_projections: int = 64,
                       seed: int = 0) -> float:
    """Average 1D 2-Wasserstein distance over random unit projections."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("empty sample set")
    if a.shape != b.shape:
        raise ValueError("sample sets must share shape")
    if n_projections < 1:
        raise ValueError("need at least one projection")
    fa = a.items.reshape(len(a), -1)
    fb = b.items.reshape(len(b), -1)
    src = NoiseSource(seed)
    total = 0.0
    for _ in range(n_projections):
        direction = src.normal((fa.shape[1],))
        direction /= np.linalg.norm(direction)
        total += _w2_1d(fa @ direction, fb @ direction)
    return total / n_projections


def _w2_1d(u: np.ndarray, v: np.ndarray) -> float:
    """2-Wasserstein distance between 1D empirical distributions."""
    u = np.sort(u)
    v = np.sort(v)
    if u.size == v.size:
        return float(np.sqrt(np.mean((u - v) ** 2)))
    # Unequal sizes: compare on a common quantile grid.
    n = max(u.size, v.size)
    q = (np.arange(n) + 0.5) / n
    uq = np.quantile(u, q)
    vq = np.quantile(v, q)
    return float(np.sqrt(np.mean((uq - vq) ** 2)))
