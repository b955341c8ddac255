"""Numerical harnesses for the two exact identities behind the method, plus
desk-scale sample-quality metrics (spectral deviation and sliced Wasserstein).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .calib import freq_power_stats, ratio_grid
from .core import ImageDataset, NoiseSource, draw_normal
from .filters import DCT
from .sampler import SamplerConfig, freq_domain_sample, vanilla_sample
from .transforms import Dct2Map, OrthogonalMap


def check_theorem1(model, cfg: SamplerConfig, seed: int, steps: int, shape=(1, 16, 16),
                   fmap: OrthogonalMap | None = None) -> float:
    """Max over t of the sup-norm gap between the transform-domain trajectory and
    the mapped spatial trajectory, when both loops consume the same noise stream.

    The conjugation identity is deterministic, so the result is round-off only.
    """
    if fmap is None:
        fmap = Dct2Map()
    traj_space, traj_freq = [], []
    vanilla_sample(model, cfg, NoiseSource(seed), shape, max_steps=steps,
                   observe=traj_space.append)
    freq_domain_sample(model, cfg, NoiseSource(seed), shape, fmap=fmap, max_steps=steps,
                       observe=traj_freq.append)
    assert len(traj_space) == len(traj_freq)
    return max(
        float(np.max(np.abs(xf - fmap.forward(xs))))
        for xs, xf in zip(traj_space, traj_freq)
    )


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

    def consistent(self, n_se: float = 4.0) -> bool:
        return abs(self.lhs - self.rhs) <= n_se * self.standard_error

    def to_json(self) -> str:
        d = asdict(self)
        d["rhs"] = self.rhs
        d["consistent"] = self.consistent()
        return json.dumps(d, indent=2)


def check_theorem2(model, x_t: np.ndarray, noise_gen, eps: float, n_mc: int,
                   seed: int = 0) -> DeviationReport:
    """Estimate both sides of the deviation decomposition from shared draws.

    x_t is held fixed, so the filtration condition reduces to E[z] = 0 while z
    may correlate with the target draw x*. noise_gen(x_star, src) produces the
    noise for each draw. Accumulation uses float64 pairwise sums (numpy),
    reduction-order stable to well under 1e-9 at these sizes.
    """
    if n_mc < 100:
        raise ValueError("n_mc must be >= 100")
    if eps <= 0:
        raise ValueError("eps must be positive")
    src = NoiseSource(seed)
    drift = x_t + (eps / 2.0) * model.score(x_t, 0.0)
    lhs_vals = np.empty(n_mc)
    c1_vals = np.empty(n_mc)
    var_vals = np.empty(n_mc)
    corr_vals = np.empty(n_mc)
    root_eps = math.sqrt(eps)
    for j in range(n_mc):
        x_star = model.sample_target(src)
        z = noise_gen(x_star, src)
        a = x_star - drift
        lhs_vals[j] = np.sum((a - root_eps * z) ** 2)
        c1_vals[j] = np.sum(a**2)
        var_vals[j] = eps * np.sum(z**2)
        corr_vals[j] = 2.0 * root_eps * np.sum(x_star * z)
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
