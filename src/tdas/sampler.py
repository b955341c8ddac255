"""Annealed Langevin sampling: one loop, four entry points.

Vanilla sampling is the identity noise regulator, TDAS regulates each step's
noise with apply_tdas, the transform-domain variant used by the equivalence
harness conjugates the loop by an orthogonal map, and sample_batch runs a stack
of chains with per-chain noise streams. Every run draws its noise into one
block that it allocates once, whose leading axis is the step; _noise refills
it, regulates each refill once and hands the loop a row a step. A single
chain's block holds as many steps as fit in core.BLOCK_BYTES, filled by one
generator call; sample_batch's holds one step, filled a row per chain, and
takes each step's drift before the step's noise is drawn over it.

A filtered run whose mask is frequency-only, and whose model has a form in
the mask's basis (ScoreModel.in_basis, as GaussianScore does), runs the same
loop in that basis: the DCT basis for a DCT mask, the Hartley basis (dht2)
for a conjugate-symmetric DFT mask. There D^-1[M * D[z]] is M * D[z], and
D[z] is again standard normal, so apply_tdas, given transform BASIS,
multiplies each raw draw by the mask and no transform runs per step; the
final state is mapped back once. The chains have the law of the
pixel-basis run but not its draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NoiseSource, _is_count, block_slices
from .filters import (BASIS, DCT, DFT, SpaceFilter, _conjugate_symmetric, apply_tdas,
                      identity_space_mask)
from .scores import NoiseLevels
from .transforms import Dct2Map, HartleyMap, OrthogonalMap, dht2, idct2


class DivergenceError(Exception):
    """A chain's state became non-finite at sampling step `step`.

    level is the noise-level index of that step, sigma its noise level and
    chains the indices of the chains whose state is non-finite (0 for a single
    chain). Single chains draw their noise a block of steps ahead, so their
    NoiseSource has already advanced past the failing step.
    """

    def __init__(self, step: int, level: int, sigma: float, chains: tuple):
        super().__init__(f"non-finite state at sampling step {step} (noise level {level}, "
                         f"sigma {sigma:.6g}, chains {list(chains)})")
        self.step = step
        self.level = level
        self.sigma = sigma
        self.chains = chains


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

    def __post_init__(self):
        if not (0 < self.eps0 < np.inf and 0 < self.accel_factor < np.inf):
            raise ValueError("eps0 and accel_factor must be positive and finite")
        if self.transform not in (DCT, DFT):
            raise ValueError(f"unknown transform {self.transform!r}")

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


def _noise(draw, block, count, regulate):
    """Yield count regulated standard-normal rows out of block, the one
    array the run draws its noise into, whose leading axis is the step.

    Each refill draws into a leading slice of block (draw(part)), regulates
    the slice once (apply_tdas, the identity, or freq_domain_sample's map
    forward) and hands out its rows. The loop takes a row only after it is
    done with the one before, so a refill overwrites nothing still in use.
    One block for the whole run, rather than one a refill, keeps large
    blocks from being freed and faulted in again (a 1024² chain refills
    every step).
    """
    for start in range(0, count, len(block)):
        part = block[: count - start]
        draw(part)
        yield from regulate(part)


def _nonfinite_chains(x) -> tuple:
    """Indices of the chains in a stack (one index, 0, for a single chain)
    whose state has a non-finite entry."""
    finite = np.isfinite(x).reshape(x.shape[:-3] + (-1,)).all(axis=-1)
    return tuple(int(i) for i in np.flatnonzero(~finite))


def _anneal(score, cfg: SamplerConfig, noise, observe=None):
    """The annealed Langevin loop behind every entry point; leading axes pass through.

    noise yields the run's regulated noise rows: the initial state is a copy
    of the first and step t takes the row after. score(x, sigma) is
    evaluated in the state's basis, which the loop does not know:
    freq_domain_sample hands in a conjugated score and noise mapped forward,
    and a mask-basis run the model's in_basis score and masked raw draws.
    observe(state) sees a copy of the initial state and of the state after
    every step, so an observer may keep what it is given.

    The state is updated in place, the score's output is scaled in place,
    and each noise row is scaled where it lies. The drift is added before
    the step's noise is taken, so sample_batch can score into its noise
    block: its drift is dead by the time the noise is drawn over it. A
    single chain's score returns a new array (see ScoreModel), which stays
    bound until the next step's replaces it.
    """
    x = next(noise).copy()
    if observe is not None:
        observe(x.copy())
    for t, sigma, eps in cfg.schedule():
        # The update adds the terms in the order x + drift + noise, bit for
        # bit the out-of-place x + (eps/2) score + sqrt(eps) eta.
        drift = score(x, sigma)
        drift *= eps / 2.0
        x += drift
        eta = next(noise)
        eta *= math.sqrt(eps)
        x += eta
        # A sum of finite entries may overflow, so only non-finite entries
        # count, and the sum's own overflow (or inf - inf) is no warning.
        with np.errstate(over="ignore", invalid="ignore"):
            total = x.sum()
        if not math.isfinite(total) and (chains := _nonfinite_chains(x)):
            raise DivergenceError(t, t // cfg.levels.steps_per_level, sigma, chains)
        if observe is not None:
            observe(x.copy())
    return x


def _chain_noise(src: NoiseSource, shape, cfg: SamplerConfig, regulate=_same):
    """One chain's noise rows: cfg.total_steps + 1 draws from src into one
    (k, C, H, W) block of at most core.BLOCK_BYTES (k >= 1), one
    src.normal call per refill, so src ends where one draw per step
    would leave it."""
    shape = tuple(shape)
    if len(shape) != 3:
        raise ValueError(f"expected a (C, H, W) shape, got {shape}")
    count = cfg.total_steps + 1
    # An empty shape has 0-byte items, which src.normal rejects.
    block = np.empty((next(block_slices(count, 8 * math.prod(shape))).stop,) + shape)
    return _noise(lambda part: src.normal(out=part), block, count, regulate)


def _filtered(model, cfg: SamplerConfig, space: SpaceFilter, freq):
    """(model, regulate, finish) of a filtered run: the model whose score the
    loop takes, the noise regulation and the map of the final state.

    The run steps in the mask's basis, the DCT basis for a DCT mask and the
    Hartley basis for a DFT mask, when the space mask is the identity, freq
    is not all ones (which apply_tdas would bypass), a DFT mask is
    conjugate-symmetric (the one kind apply_tdas takes, and the kind that is
    diagonal in the Hartley basis) and the model has a form in that basis.
    Every other run regulates in the pixel basis. Both regulate with
    apply_tdas, the mask-basis run with transform BASIS (the mask product).
    """
    fmap, back = (Dct2Map(), idct2) if cfg.transform == DCT else (HartleyMap(), dht2)
    transform, finish = cfg.transform, _same
    if (space.is_identity and not np.all(np.asarray(freq) == 1.0)
            and (cfg.transform == DCT or _conjugate_symmetric(np.asarray(freq)))
            and (in_basis := model.in_basis(fmap)) is not None):
        model, transform, finish = in_basis, BASIS, lambda y: back(y, overwrite=True)
    return model, lambda z: apply_tdas(z, space, freq, transform, overwrite=True), finish


# The entry points below are thin calls into _anneal and never call each other,
# so a wrapper around one of them sees each chain step once.

def langevin_sample(model, cfg: SamplerConfig, src: NoiseSource, space: SpaceFilter,
                    freq: np.ndarray):
    """Filtered annealed Langevin chain: init and every noise pass through the masks.

    With a frequency-only mask and a model that has a form in the mask's
    basis the chain runs in that basis, DCT or Hartley (see the module
    docstring): its draws differ from the pixel-basis run's, its law does not.
    """
    model, regulate, finish = _filtered(model, cfg, space, freq)
    return finish(_anneal(model.score, cfg, _chain_noise(src, space.mask.shape, cfg, regulate)))


def vanilla_sample(model, cfg: SamplerConfig, src: NoiseSource, shape, observe=None):
    """Unfiltered annealed Langevin chain (the all-ones-mask case)."""
    return _anneal(model.score, cfg, _chain_noise(src, shape, cfg), observe)


def freq_domain_sample(model, cfg: SamplerConfig, src: NoiseSource, shape,
                       fmap: OrthogonalMap | None = None, observe=None):
    """Unfiltered chain conjugated by an orthogonal map (DCT by default).

    The one loop runs on y = fmap.forward(x): each noise block is mapped
    forward once, the score is evaluated by mapping back, and the final
    state is mapped back. The state, and what observe sees, live in the
    transform domain.
    """
    if fmap is None:
        fmap = Dct2Map()
    y = _anneal(lambda y, sigma: fmap.forward(model.score(fmap.inverse(y), sigma)), cfg,
                _chain_noise(src, shape, cfg, fmap.forward), observe)
    return fmap.inverse(y)


def sample_batch(model, cfg: SamplerConfig, master_seed: int, n_chains: int,
                 space: SpaceFilter | None = None, freq: np.ndarray | None = None,
                 shape=None):
    """Run n_chains independent filtered chains with per-chain derived seeds.

    Noise is drawn chain-by-chain from per-chain streams, while the score of the
    whole stack comes from one model.score_batch call per step. The run
    allocates one (1, n_chains, C, H, W) block: each step's drift is scored
    into it, added to the state, and then overwritten by the step's noise,
    each chain drawing its row, which is regulated there in place. A step
    thus holds two arrays of the stack's size, the state and the block.
    Chain i's noise does not depend on n_chains, and nor does its output
    when score_batch treats rows alone (the base class writes per-chain
    score calls into their rows). A BLAS score_batch, such as
    EmpiricalScore's, can round a row differently for another batch size (a
    one-row product takes another BLAS path), so its chains agree across
    batch sizes only to round-off. A frequency-only mask with a model that
    has a form in the mask's basis runs the stack in that basis, as
    langevin_sample does. Returns an (n_chains, C, H, W) stack.
    """
    if not _is_count(n_chains) or n_chains < 1:
        raise ValueError(f"n_chains must be an integer >= 1, got {n_chains!r}")
    if space is None:
        if shape is None:
            raise ValueError("need either a space mask or an explicit shape")
        space = identity_space_mask(shape)
    elif shape is not None and tuple(shape) != space.mask.shape:
        raise ValueError(f"shape {tuple(shape)} disagrees with the space mask's {space.mask.shape}")
    shape = space.mask.shape
    if freq is None:
        freq = np.ones(shape)
    model, regulate, finish = _filtered(model, cfg, space, freq)
    sources = [NoiseSource.for_worker(master_seed, i) for i in range(n_chains)]

    def draw(part):
        for src, row in zip(sources, part[0]):
            src.normal(out=row)

    block = np.empty((1, n_chains) + shape)
    return finish(_anneal(lambda x, sigma: model.score_batch(x, sigma, out=block[0]), cfg,
                          _noise(draw, block, cfg.total_steps + 1, regulate)))
