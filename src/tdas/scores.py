"""Analytically exact score models and the annealed noise-level ladder.

These stand in for trained score networks: both models return the exact
gradient of the log of the sigma-smoothed density, so any quality difference
between sampling schemes is attributable to the scheme itself.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .core import ImageDataset, NoiseSource
from .transforms import OrthogonalMap

_TINY = np.finfo(np.float64).tiny


def _row_logsumexp(a: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """scipy.special.logsumexp(a, axis=1, keepdims=True) for a 2-D array of finite
    rows, bit for bit, without scipy's extra exp pass over the whole array: as in
    scipy, the m entries equal to a row's maximum are split off and the rest
    enter as log1p(s/m). The exponentials go into scratch, an array of a's
    shape and dtype whose contents are overwritten."""
    a_max = np.max(a, axis=1, keepdims=True)
    at_max = a == a_max
    m = np.sum(at_max, axis=1, keepdims=True, dtype=a.dtype)
    e = np.subtract(a, a_max, out=scratch)
    np.exp(e, out=e)
    e[at_max] = 0.0
    return np.log1p(np.sum(e, axis=1, keepdims=True) / m) + np.log(m) + a_max


def _put(row: np.ndarray, s: np.ndarray):
    """Write one chain's score into its row. A call of its own, so a chain's
    score is freed before the next chain's is computed."""
    if np.shape(s) != row.shape:
        raise ValueError(f"score returned shape {np.shape(s)} for a chain of shape {row.shape}")
    row[...] = s


class ScoreModel:
    """Interface: exact score of the sigma-smoothed target plus target draws.

    score returns a new writable array of x's shape, which the caller owns:
    the sampler scales it in place, so a model must not hand out an array it
    keeps (a cached result, a constant or a view of x). score_batch writes
    into out, an array of x's shape that the caller owns and that does not
    overlap x, when one is given, and otherwise returns a new array as score
    does. It may use out as scratch on the way and does not read what out
    holds on entry: sample_batch hands in one scratch block for the whole
    run, which also holds the previous step's noise.
    """

    def score(self, x: np.ndarray, sigma: float) -> np.ndarray:
        raise NotImplementedError

    def score_batch(self, x: np.ndarray, sigma: float, out: np.ndarray | None = None) -> np.ndarray:
        """Score of a (B, C, H, W) stack of chains, one score call per chain,
        each written into its row of out."""
        if out is None:
            out = np.empty(x.shape)
        for xi, row in zip(x, out):
            _put(row, self.score(xi, sigma))
        return out

    def sample_targets(self, src: NoiseSource, n: int) -> np.ndarray:
        """An (n, C, H, W) stack of n target draws, in stream order."""
        raise NotImplementedError

    def in_basis(self, fmap: OrthogonalMap) -> ScoreModel | None:
        """The same model in fmap's basis, or None if the model has no such form.

        The returned model's score at y = fmap.forward(x) is
        fmap.forward(self.score(x, sigma)), computed without a transform, so
        a sampler may run a chain on y and map only its final state back.
        The default is None: a model gives this form only where it is as
        cheap as its own, such as a score that is diagonal in every
        orthonormal basis.
        """
        return None


@dataclass
class GaussianScore(ScoreModel):
    """Target N(mu, s0^2 I); the sigma-smoothed density is N(mu, (s0^2 + sigma^2) I)."""

    mu: np.ndarray
    s0: float

    def score(self, x, sigma=0.0):
        # fl(mu - x) = -fl(x - mu), so this is -(x - mu) / var without the
        # negation's pass (only an exact zero keeps the other sign). Dividing
        # in place holds one chain-sized array where numpy does not elide the
        # quotient's temporary (below 256 KiB).
        d = self.mu - x
        d /= self.s0**2 + sigma**2
        return d

    def log_density(self, x, sigma=0.0):
        var = self.s0**2 + sigma**2
        d = x.size
        return -0.5 * np.sum((x - self.mu) ** 2) / var - 0.5 * d * np.log(2 * np.pi * var)

    def sample_targets(self, src, n):
        # One (n,)+shape draw equals n successive draws bit for bit.
        return self.mu + self.s0 * src.normal((n,) + np.shape(self.mu))

    def in_basis(self, fmap):
        # An isotropic Gaussian is isotropic in every orthonormal basis: only
        # its mean moves. A subclass may change the score, so it gets None.
        if type(self) is not GaussianScore:
            return None
        return GaussianScore(fmap.forward(self.mu), self.s0)


@dataclass
class EmpiricalScore(ScoreModel):
    """Exact score of the Gaussian-smoothed empirical distribution of a dataset.

    p_sigma(x) = (1/N) sum_i N(x; x_i, sigma^2 I); the score is a softmax-weighted
    combination of (x_i - x)/sigma^2, computed in log space for stability.
    Weights below the smallest normal float64 are flushed to zero before the
    weighted sum, because subnormal operands slow the BLAS matmul several-fold.
    Each dropped product is below 2^-1022 * max|x_i|, so it could move a
    coordinate of the sum only if that coordinate were below about
    1e-292 * max|x_i|.
    """

    ds: ImageDataset
    _flat: np.ndarray = field(init=False, repr=False)
    _sq_norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._flat = self.ds.items.reshape(len(self.ds), -1)
        self._sq_norms = np.sum(self._flat**2, axis=1)

    def _weights(self, x_flat, sigma, scratch):
        """(B, N) softmax weights, formed in the buffers of the cross product
        and the logits: each in-place step is the out-of-place
        exp(logits - logsumexp(logits)) with logits = -sq / (2 sigma^2), bit
        for bit (negating the divisor rounds as negating the quotient). The
        rows' squares go into scratch, an array of x_flat's shape whose
        contents are overwritten."""
        prod = x_flat @ self._flat.T
        prod *= 2.0
        # (B, N) squared distances via the expansion ||x - xi||^2.
        sq = np.square(x_flat, out=scratch)
        logits = np.sum(sq, axis=1, keepdims=True) + self._sq_norms[None, :]
        logits -= prod
        logits /= -(2.0 * sigma**2)
        logits -= _row_logsumexp(logits, scratch=prod)
        np.exp(logits, out=logits)
        logits[logits < _TINY] = 0.0
        return logits

    def score_batch(self, x: np.ndarray, sigma: float, out: np.ndarray | None = None) -> np.ndarray:
        if sigma <= 0:
            raise ValueError("empirical score needs sigma > 0 (density is atomic at 0)")
        self._check_shape(x)
        if out is None:
            out = np.empty(x.shape)
        x_flat = x.reshape(-1, self._flat.shape[1])
        # The rows' squares and then the product go straight into out's
        # memory; a flat view of it must exist.
        out_flat = out.reshape(x_flat.shape, copy=False)
        np.matmul(self._weights(x_flat, sigma, scratch=out_flat), self._flat, out=out_flat)
        out_flat -= x_flat
        out_flat /= sigma**2
        return out

    def score(self, x, sigma):
        self._check_shape(x)
        return self.score_batch(x[None], sigma)[0]

    def _check_shape(self, x):
        # Any multiple of the image size would reshape; only stacks of images may pass.
        if x.shape[-3:] != self.ds.shape:
            raise ValueError(f"x of shape {x.shape} does not end in the dataset's {self.ds.shape}")

    def log_density(self, x, sigma):
        if sigma <= 0:
            raise ValueError("empirical score needs sigma > 0")
        x_flat = x.reshape(1, -1)
        sq = np.sum((x_flat[:, None, :] - self._flat[None]) ** 2, axis=2)
        d = self._flat.shape[1]
        log_norm = -0.5 * d * np.log(2 * np.pi * sigma**2)
        return float(logsumexp(-sq[0] / (2 * sigma**2)) - np.log(len(self.ds)) + log_norm)

    def sample_targets(self, src, n):
        return self.ds.items[[src.integers(0, len(self.ds)) for _ in range(n)]]


def _is_count(n) -> bool:
    """An integer that is not a bool (numpy integers count)."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


@dataclass(frozen=True)
class NoiseLevels:
    """Strictly decreasing sigma ladder with a fixed inner-step count per level."""

    sigmas: tuple
    steps_per_level: int

    def __post_init__(self):
        sig = tuple(float(s) for s in self.sigmas)
        object.__setattr__(self, "sigmas", sig)
        if len(sig) < 1 or not all(0 < s < np.inf for s in sig):
            raise ValueError("need at least one sigma, each positive and finite")
        if any(nxt >= prev for prev, nxt in zip(sig, sig[1:])):
            raise ValueError("sigmas must be strictly decreasing")
        if not _is_count(self.steps_per_level) or self.steps_per_level < 1:
            raise ValueError(f"steps_per_level must be an integer >= 1, got {self.steps_per_level!r}")

    @property
    def levels(self) -> int:
        return len(self.sigmas)

    @property
    def total_steps(self) -> int:
        return self.levels * self.steps_per_level

    @property
    def sigma_min(self) -> float:
        return self.sigmas[-1]


def geometric_levels(sigma_max: float, sigma_min: float, levels: int, steps_per_level: int = 1) -> NoiseLevels:
    """Geometric ladder sigma_i = sigma_max * (sigma_min/sigma_max)^((i-1)/(L-1))."""
    if not _is_count(levels) or levels < 1:
        raise ValueError(f"levels must be an integer >= 1, got {levels!r}")
    if levels == 1:
        if not 0 < sigma_min <= sigma_max < np.inf:
            raise ValueError(f"need finite sigma_max >= sigma_min > 0, got {sigma_max}, {sigma_min}")
        return NoiseLevels((sigma_max,), steps_per_level)
    if not sigma_max > sigma_min > 0:
        raise ValueError(f"need sigma_max > sigma_min > 0, got {sigma_max}, {sigma_min}")
    ratio = (sigma_min / sigma_max) ** (1.0 / (levels - 1))
    return NoiseLevels(tuple(sigma_max * ratio**i for i in range(levels)), steps_per_level)
