"""Space and frequency masks, and the filtered-noise regulation
eta = D^-1[M_freq * D[M_space * z]].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .core import ImageDataset, DegenerateDatasetError, as_tensor, block_slices
from .transforms import dct2, idct2, rdft2

DCT = "dct"
DFT = "dft"
# The transform of a z that is already in the basis where the mask is
# diagonal (the DCT basis of a DCT mask, the Hartley basis of a
# conjugate-symmetric DFT mask): the regulation is the product M * z.
BASIS = "basis"


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
        # Every comparison with NaN is false, so NaN fails these as well.
        if not 0 < self.r1 <= self.r2 < math.inf:
            raise ValueError(f"need 0 < r1 <= r2 < inf, got r1={self.r1}, r2={self.r2}")
        if not (0 < self.lambda1 < math.inf and 0 < self.lambda2 < math.inf):
            raise ValueError("lambda1 and lambda2 must be positive and finite")
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
    The DFT distance is taken on integer indices, min(i, H - i), so cells (i, j)
    and (-i mod H, -j mod W) get the same float on every grid.
    """
    h = np.arange(height)[:, None]
    w = np.arange(width)[None, :]
    if transform == DCT:
        return (h / height) ** 2 + (w / width) ** 2
    if transform == DFT:
        return (np.minimum(h, height - h) / height) ** 2 + (np.minimum(w, width - w) / width) ** 2
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


def apply_tdas(z: np.ndarray, space: SpaceFilter, freq: np.ndarray, transform: str = DCT,
               overwrite: bool = False) -> np.ndarray:
    """Regulate a noise tensor through the space mask and the spectral mask.

    All-ones masks are returned untouched (bit-identical), so unfiltered
    sampling is literally a special case of the filtered path. Every other
    call returns a new array object, never z itself, so a result that is z
    tells a caller (or a tracer) that the masks were bypassed. freq has the
    space mask's shape. A DFT mask must be conjugate-symmetric,
    M[h, w] == M[-h, -w], as every radial mask is: the output is then real
    and comes from the half-spectrum transforms, taken over one
    core.block_slices block of (C, H, W) items at a time, so the half
    spectrum held at once is one block's, not the whole stack's. With
    transform BASIS, z is in the mask's basis and the regulation is the DCT
    route's mask product without the transforms; a space mask, which is not
    diagonal there, is refused.

    overwrite has scipy.fft's overwrite_x meaning: z's contents may be
    destroyed, and the result of a C-contiguous float64 z is a view of z's
    memory. Any other z is copied once into the float64 array the call
    works in. Callers that own a fresh block pass True; masks are checked
    before z is touched.

    Accepts extra leading batch axes on z.
    """
    if z.shape[-3:] != space.mask.shape or np.shape(freq) != space.mask.shape:
        raise ValueError(
            f"shape mismatch: z {z.shape}, space {space.mask.shape}, freq {np.shape(freq)}"
        )
    if space.is_identity and np.all(np.asarray(freq) == 1.0):
        return z
    if transform not in (DCT, DFT, BASIS):
        raise ValueError(f"unknown transform {transform!r}")
    if transform == DFT and not _conjugate_symmetric(freq):
        raise ValueError("DFT mask is not conjugate-symmetric, M[h, w] != M[-h, -w]")
    if transform == BASIS and not space.is_identity:
        raise ValueError("a space mask is not diagonal in the spectral mask's basis")
    # x is the one buffer every branch writes into: a view of z's memory (so
    # the result is not z itself), or a C-contiguous float64 copy of z.
    if overwrite and z.dtype == np.float64 and z.flags.c_contiguous:
        x = z.view()
    else:
        x = np.array(z, dtype=np.float64, order="C")
    if not space.is_identity:
        np.multiply(space.mask, x, out=x)
    items = x.reshape((-1,) + x.shape[-3:])  # a view, as x is C-contiguous
    if transform == DFT:
        width = x.shape[-1]
        # The real and imaginary parts times the real mask, each in place: the
        # product of the complex half would cast the mask to complex through
        # numpy's ufunc buffer, np.getbufsize() complex128s a call.
        mask = freq[..., : width // 2 + 1]
        for rows in block_slices(len(items), items[0].nbytes):
            half = rdft2(items[rows])
            half.real *= mask
            half.imag *= mask
            # numpy's irfft2 as its two passes, so both can write into buffers
            # we own. Not scipy's inverse: scipy scales by 1/(HW) once where
            # numpy scales by 1/H and then 1/W, which moves the last bits when
            # H is not a power of two (see the transforms module docstring).
            np.fft.ifft(half, axis=-2, out=half)
            np.fft.irfft(half, n=width, axis=-1, out=items[rows])
            del half  # so the next block's spectrum is not formed beside it
        return x
    if transform == DCT:
        dct2(x, True)  # in place: x is C-contiguous float64
    # Item by item, because a product broadcast over planes smaller than
    # numpy's ufunc buffer takes that 64-KiB buffer.
    for item in items:
        item *= freq
    return idct2(x, True) if transform == DCT else x
