"""Annealed Langevin sampling: one loop, four entry points.

Vanilla sampling is the identity noise regulator, TDAS regulates each step's
noise with apply_tdas, the transform-domain variant used by the equivalence
harness conjugates the loop by an orthogonal map, and sample_batch runs a stack
of chains with per-chain noise streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NoiseSource, draw_normal
from .filters import DCT, SpaceFilter, apply_tdas, identity_space_mask
from .scores import NoiseLevels
from .transforms import Dct2Map, OrthogonalMap


class DivergenceError(Exception):
    def __init__(self, step: int):
        super().__init__(f"non-finite state at sampling step {step}")
        self.step = step


@dataclass(frozen=True)
class SamplerConfig:
    """Annealed Langevin schedule.

    Step size at level i is accel_factor * eps0 * sigma_i^2 / sigma_L^2
    (sigma_L = smallest level). accel_factor k compensates a k-fold iteration
    reduction by scaling every step linearly, keeping sum(eps) constant.
    """

    levels: NoiseLevels
    eps0: float
    accel_factor: float = 1.0
    transform: str = DCT
    denoise_final: bool = False

    def __post_init__(self):
        if self.eps0 <= 0 or self.accel_factor <= 0:
            raise ValueError("eps0 and accel_factor must be positive")

    @property
    def total_steps(self) -> int:
        return self.levels.total_steps

    def schedule(self):
        """Yield (step_index, sigma_i, eps_t) over the full run."""
        smin2 = self.levels.sigma_min**2
        t = 0
        for sigma in self.levels.sigmas:
            eps = self.accel_factor * self.eps0 * sigma**2 / smin2
            for _ in range(self.levels.steps_per_level):
                yield t, sigma, eps
                t += 1


def _same(z):
    return z


def _anneal(score, cfg: SamplerConfig, draw, regulate=_same, fmap: OrthogonalMap | None = None,
            max_steps=None, observe=None):
    """The annealed Langevin loop behind every entry point; leading axes pass through.

    draw() gives a standard-normal block and regulate(z) filters it (apply_tdas,
    or the identity for unfiltered sampling); the initial state and every step's
    noise are regulate(draw()). With fmap the state lives in the transform domain:
    the score is evaluated by mapping back, noise enters as F[regulate(z)], and the
    result is mapped back before the optional final denoising step. observe(state)
    sees the initial state and the state after every step; states are never
    updated in place, so an observer may keep them without copying.
    """
    step_score, noise = score, lambda: regulate(draw())
    if fmap is not None:
        step_score = lambda xt, sigma: fmap.forward(score(fmap.inverse(xt), sigma))
        noise = lambda: fmap.forward(regulate(draw()))
    x = noise()
    if observe is not None:
        observe(x)
    for t, sigma, eps in cfg.schedule():
        if max_steps is not None and t >= max_steps:
            break
        eta = noise()
        x = x + (eps / 2.0) * step_score(x, sigma) + np.sqrt(eps) * eta
        if not np.all(np.isfinite(x)):
            raise DivergenceError(t)
        if observe is not None:
            observe(x)
    if fmap is not None:
        x = fmap.inverse(x)
    if cfg.denoise_final:
        x = x + cfg.levels.sigma_min**2 * score(x, cfg.levels.sigma_min)
    return x


# The entry points below are thin calls into _anneal and never call each other,
# so a wrapper around one of them sees each chain step once.

def langevin_sample(model, cfg: SamplerConfig, src: NoiseSource, space: SpaceFilter,
                    freq: np.ndarray):
    """Filtered annealed Langevin chain: init and every noise pass through the masks."""
    shape = space.mask.shape
    return _anneal(model.score, cfg, lambda: draw_normal(src, shape),
                   lambda z: apply_tdas(z, space, freq, cfg.transform))


def vanilla_sample(model, cfg: SamplerConfig, src: NoiseSource, shape, max_steps=None,
                   observe=None):
    """Unfiltered annealed Langevin chain (the all-ones-mask case)."""
    return _anneal(model.score, cfg, lambda: draw_normal(src, shape),
                   max_steps=max_steps, observe=observe)


def freq_domain_sample(model, cfg: SamplerConfig, src: NoiseSource, shape,
                       fmap: OrthogonalMap | None = None, max_steps=None, observe=None):
    """Unfiltered chain conjugated by an orthogonal map (DCT by default): the
    state, and what observe sees, live in the transform domain."""
    return _anneal(model.score, cfg, lambda: draw_normal(src, shape),
                   fmap=Dct2Map() if fmap is None else fmap, max_steps=max_steps,
                   observe=observe)


def sample_batch(model, cfg: SamplerConfig, master_seed: int, n_chains: int,
                 space: SpaceFilter | None = None, freq: np.ndarray | None = None,
                 shape=None):
    """Run n_chains independent filtered chains with per-chain derived seeds.

    Noise is drawn chain-by-chain from per-chain streams, while the score of the
    whole stack comes from one model.score_batch call per step. Chain i's noise
    does not depend on n_chains, and nor does its output when score_batch
    treats rows alone (the base class stacks per-chain score calls). A BLAS
    score_batch, such as EmpiricalScore's, can round a row differently for
    another batch size (a one-row product takes another BLAS path), so its
    chains agree across batch sizes only to round-off.
    Returns an (n_chains, C, H, W) stack.
    """
    if space is None:
        if shape is None:
            raise ValueError("need either a space mask or an explicit shape")
        space = identity_space_mask(shape)
    elif shape is not None and tuple(shape) != space.mask.shape:
        raise ValueError(f"shape {tuple(shape)} disagrees with the space mask's {space.mask.shape}")
    shape = space.mask.shape
    if freq is None:
        freq = np.ones(shape)
    sources = [NoiseSource.for_worker(master_seed, i) for i in range(n_chains)]
    draw = lambda: np.stack([draw_normal(s, shape) for s in sources])
    return _anneal(model.score_batch, cfg, draw, lambda z: apply_tdas(z, space, freq, cfg.transform))
