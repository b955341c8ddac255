"""Tensors, deterministic noise streams, dataset containers, and file I/O.

A "tensor" throughout this package is a C-contiguous float64 numpy array of
shape (C, H, W). Masks, noises, scores, and images all share this carrier.
"""

from __future__ import annotations

import json
import numbers
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TENSOR_MAGIC = b"TDT1"


class TensorFormatError(Exception):
    """Raised when a tensor file has a malformed header or truncated payload."""


class DegenerateDatasetError(Exception):
    """Raised when a dataset cannot support the requested statistic."""


def as_tensor(data) -> np.ndarray:
    """Coerce to a float64 (C, H, W) array and validate finiteness."""
    t = np.ascontiguousarray(data, dtype=np.float64)
    if t.ndim != 3:
        raise ValueError(f"tensor must be 3-dimensional (C, H, W), got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("tensor contains non-finite values")
    return t


@dataclass
class ImageDataset:
    """Non-empty ordered collection of same-shape tensors, stored stacked as (N, C, H, W)."""

    items: np.ndarray

    def __post_init__(self):
        self.items = np.ascontiguousarray(self.items, dtype=np.float64)
        if self.items.ndim != 4 or self.items.shape[0] == 0:
            raise ValueError("dataset must be a non-empty (N, C, H, W) stack")

    @classmethod
    def from_list(cls, tensors) -> "ImageDataset":
        tensors = [as_tensor(t) for t in tensors]
        shapes = {t.shape for t in tensors}
        if len(shapes) != 1:
            raise ValueError(f"dataset items must share one shape, got {shapes}")
        return cls(np.stack(tensors))

    @property
    def shape(self):
        return self.items.shape[1:]

    def __len__(self):
        return self.items.shape[0]

    def __getitem__(self, i) -> np.ndarray:
        return self.items[i]

    def mean_abs(self) -> np.ndarray:
        return np.mean(np.abs(self.items), axis=0)


def _is_count(n) -> bool:
    """An integer that is not a bool (numpy integers count)."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


def _seed(seed) -> int:
    if not _is_count(seed):  # int() would truncate 2.7 to 2 and take True for 1
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return int(seed)


class NoiseSource:
    """Seeded standard-normal stream.

    Backed by numpy's PCG64 bit generator with the ziggurat normal transform
    (``Generator.standard_normal``); identical seeds give bit-identical draw
    sequences across runs and platforms.
    """

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.PCG64(_seed(seed)))

    @classmethod
    def for_worker(cls, master_seed: int, worker: int) -> "NoiseSource":
        # One independent child stream per worker, stable under scheduling: the
        # same child as SeedSequence(master_seed).spawn(worker + 1)[worker].
        child = np.random.SeedSequence(_seed(master_seed), spawn_key=(worker,))
        src = cls.__new__(cls)
        src._gen = np.random.Generator(np.random.PCG64(child))
        return src

    def normal(self, shape=None, out=None) -> np.ndarray:
        """A standard-normal draw of the given shape. Given out, a
        C-contiguous float64 array whose shape stands in for shape, the draw
        is written into out and out is returned: bit for bit the sized draw,
        with the stream left where that draw leaves it."""
        if out is None and shape is None:
            raise TypeError("normal() needs a shape or an out array")
        if out is not None and not out.flags.c_contiguous:
            # numpy fills other contiguous layouts in memory order, which is
            # not the sized draw's order.
            raise ValueError("out must be C-contiguous")
        # numpy rejects negative dims, a shape other than out's and an out of
        # another dtype itself; an empty draw consumes no stream.
        out = self._gen.standard_normal(shape, out=out)
        if out.size == 0:
            raise ValueError(f"all dims must be >= 1, got {out.shape}")
        return out

    def integers(self, low, high) -> int:
        return int(self._gen.integers(low, high))


# Every block-wise pass (noise draws, spectral statistics, Monte-Carlo terms)
# holds at most this many bytes of items at once; see block_slices.
BLOCK_BYTES = 1 << 19


def block_slices(count: int, item_bytes: int):
    """Yield the slices of range(count), in order, each holding at most
    BLOCK_BYTES of items of item_bytes each (one item if a single one is larger)."""
    per_block = max(1, BLOCK_BYTES // max(1, item_bytes))
    for start in range(0, count, per_block):
        yield slice(start, min(start + per_block, count))


def save_tensor(t: np.ndarray, path) -> None:
    """Write a tensor as magic 'TDT1', uint32-LE C,H,W, then float64-LE payload."""
    t = as_tensor(t)
    c, h, w = t.shape
    with open(path, "wb") as f:
        f.write(TENSOR_MAGIC)
        f.write(struct.pack("<III", c, h, w))
        f.write(t.astype("<f8").tobytes())


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 16 or raw[:4] != TENSOR_MAGIC:
        raise TensorFormatError(f"{path}: bad magic or truncated header")
    c, h, w = struct.unpack("<III", raw[4:16])
    if c == 0 or h == 0 or w == 0:
        raise TensorFormatError(f"{path}: zero dimension in header ({c}, {h}, {w})")
    expected = 16 + 8 * c * h * w
    if len(raw) != expected:
        raise TensorFormatError(f"{path}: payload is {len(raw)} bytes, expected {expected}")
    data = np.frombuffer(raw[16:], dtype="<f8").reshape(c, h, w)
    return np.ascontiguousarray(data)


def export_image(t: np.ndarray, path, clamp=(0.0, 1.0)) -> None:
    """Write binary PGM (1 channel) or PPM (3 channels), maxval 255.

    Values are mapped affinely from [lo, hi] to [0, 255], clamped, and rounded
    half away from zero (floor(x + 0.5)), so the midpoint lands on 128.
    """
    t = as_tensor(t)
    lo, hi = clamp
    if not hi > lo:
        raise ValueError(f"clamp needs hi > lo, got {tuple(clamp)}")
    c, h, w = t.shape
    if c not in (1, 3):
        raise ValueError(f"export supports 1 or 3 channels, got {c}")
    scaled = (t - lo) / (hi - lo) * 255.0
    pixels = np.floor(np.clip(scaled, 0.0, 255.0) + 0.5).clip(0, 255).astype(np.uint8)
    header = f"{'P5' if c == 1 else 'P6'}\n{w} {h}\n255\n".encode("ascii")
    # PNM interleaves channels per pixel; our layout is channel-major.
    body = np.moveaxis(pixels, 0, -1).tobytes() if c == 3 else pixels.tobytes()
    with open(path, "wb") as f:
        f.write(header)
        f.write(body)


def save_dataset(ds: ImageDataset, directory, extra_manifest=None) -> None:
    """Persist a dataset as a directory of TDT1 tensors plus a JSON manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    width = len(str(len(ds) - 1))
    names = []
    for i in range(len(ds)):
        name = f"item_{i:0{width}d}.tdt"
        save_tensor(ds[i], directory / name)
        names.append(name)
    manifest = {"count": len(ds), "shape": list(ds.shape), "items": names}
    if extra_manifest:
        manifest.update(extra_manifest)
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))


def load_dataset(directory) -> ImageDataset:
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    ds = ImageDataset.from_list([load_tensor(directory / name) for name in manifest["items"]])
    if manifest["count"] != len(ds) or tuple(manifest["shape"]) != ds.shape:
        raise ValueError(f"{directory}: manifest claims count {manifest['count']} and shape "
                         f"{manifest['shape']}, items give {len(ds)} and {list(ds.shape)}")
    return ds
