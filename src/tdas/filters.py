"""Space and frequency masks, and the filtered-noise regulation
eta = D^-1[M_freq * D[M_space * z]].
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .core import ImageDataset, DegenerateDatasetError, as_tensor
from .transforms import dct2, idct2, dft2, idft2_real

DCT = "dct"
DFT = "dft"


@dataclass(frozen=True)
class FreqFilterParams:
    """Piecewise-constant radial spectral mask parameters.

    Radii are fractions of the grid extent: the squared radial coordinate of
    cell (h, w) is d0 = (h/H)^2 + (w/W)^2 (DCT) or its four-corner minimum
    (DFT), so parameters transfer across resolutions. Zone boundaries sit at
    d0 = 2*r1^2 and d0 = 2*r2^2; the two-zone mask is lambda1 = lambda2 or r1 = r2.
    """

    lambda1: float
    lambda2: float
    r1: float
    r2: float
    transform: str = DCT

    def __post_init__(self):
        if not (0 < self.r1 <= self.r2):
            raise ValueError(f"need 0 < r1 <= r2, got r1={self.r1}, r2={self.r2}")
        if self.lambda1 <= 0 or self.lambda2 <= 0:
            raise ValueError("lambda1 and lambda2 must be positive")
        if self.transform not in (DCT, DFT):
            raise ValueError(f"unknown transform {self.transform!r}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FreqFilterParams":
        fields = json.loads(text)
        # Files from earlier versions carry "zones": 3. The mask has always had
        # three zones, so any other count would be silently ignored.
        if fields.pop("zones", 3) != 3:
            raise ValueError("zones is not a parameter; two zones are lambda1 == lambda2 "
                             "or r1 == r2")
        return cls(**fields)


@dataclass(frozen=True)
class SpaceFilter:
    """Per-pixel mask; normalized dataset-derived masks live in [1/3, 1]."""

    mask: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mask", as_tensor(self.mask))
        # Cached at construction; the mask is frozen, and the sampler hits
        # this check on every step.
        object.__setattr__(self, "_identity", bool(np.all(self.mask == 1.0)))

    @property
    def is_identity(self) -> bool:
        return self._identity


def radial_distance_grid(height: int, width: int, transform: str) -> np.ndarray:
    """Normalized squared radial coordinate d0(h, w) on an H x W grid.

    DCT: distance to the DC corner (0, 0). DFT: minimum distance to the four
    spectrum corners, reflecting the conjugate symmetry of real-input spectra.
    """
    h = np.arange(height, dtype=np.float64)[:, None] / height
    w = np.arange(width, dtype=np.float64)[None, :] / width
    if transform == DCT:
        return h**2 + w**2
    if transform == DFT:
        return np.minimum(h, 1.0 - h) ** 2 + np.minimum(w, 1.0 - w) ** 2
    raise ValueError(f"unknown transform {transform!r}")


def build_freq_mask(p: FreqFilterParams, shape) -> np.ndarray:
    """Three-zone radial mask: 1 inside r1, lambda1 between r1 and r2, lambda2 outside.

    The two-zone form is the special case lambda1 = lambda2 (or r1 = r2).
    Channel-uniform.
    """
    c, height, width = shape
    d0 = radial_distance_grid(height, width, p.transform)
    mask2d = np.where(
        d0 <= 2.0 * p.r1**2, 1.0, np.where(d0 <= 2.0 * p.r2**2, p.lambda1, p.lambda2)
    )
    return np.broadcast_to(mask2d, (c, height, width)).copy()


def build_space_mask(ds: ImageDataset) -> SpaceFilter:
    """Dataset-statistics mask: log(1 + mean |x|) per pixel, normalized to [1/3, 1]."""
    raw = np.log1p(ds.mean_abs())
    peak = raw.max()
    if peak <= 0.0:
        raise DegenerateDatasetError("all-zero dataset: space mask undefined")
    return SpaceFilter((2.0 * raw / peak + 1.0) / 3.0)


def identity_space_mask(shape) -> SpaceFilter:
    return SpaceFilter(np.ones(shape))


def _conjugate_symmetric(freq: np.ndarray) -> bool:
    """True when the real mask satisfies M[h, w] == M[-h mod H, -w mod W].

    Checked on index views (h = 0 row, w = 0 column, and the interior block)
    to avoid materializing a rolled copy of the mask.
    """
    return (
        np.array_equal(freq[..., 0, 1:], freq[..., 0, :0:-1])
        and np.array_equal(freq[..., 1:, 0], freq[..., :0:-1, 0])
        and np.array_equal(freq[..., 1:, 1:], freq[..., :0:-1, :0:-1])
    )


def apply_tdas(z: np.ndarray, space: SpaceFilter, freq: np.ndarray, transform: str = DCT) -> np.ndarray:
    """Regulate a noise tensor through the space mask and the spectral mask.

    All-ones masks are returned untouched (bit-identical), so unfiltered
    sampling is literally a special case of the filtered path.

    Accepts extra leading batch axes on z.
    """
    if z.shape[-3:] != space.mask.shape or z.shape[-3:] != np.shape(freq)[-3:]:
        raise ValueError(
            f"shape mismatch: z {z.shape}, space {space.mask.shape}, freq {np.shape(freq)}"
        )
    if space.is_identity and np.all(np.asarray(freq) == 1.0):
        return z
    masked = space.mask * z
    if transform == DCT:
        return idct2(freq * dct2(masked))
    if transform == DFT:
        if _conjugate_symmetric(freq):
            # Real input with a symmetric mask: work on the half-spectrum.
            # Radial masks are symmetric by construction, so this is the
            # common case; it halves the transform traffic.
            height, width = masked.shape[-2:]
            half = np.fft.rfft2(masked, axes=(-2, -1))
            half *= freq[..., : width // 2 + 1]
            return np.fft.irfft2(half, s=(height, width), axes=(-2, -1))
        return idft2_real(freq * dft2(masked))
    raise ValueError(f"unknown transform {transform!r}")
