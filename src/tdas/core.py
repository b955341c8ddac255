"""Tensors, deterministic noise streams, dataset containers, and file I/O.

A "tensor" throughout this package is a C-contiguous float64 numpy array of
shape (C, H, W). Masks, noises, scores, and images all share this carrier.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TENSOR_MAGIC = b"TDT1"


class TensorFormatError(Exception):
    """Raised when a tensor file has a malformed header or truncated payload."""


class DegenerateDatasetError(Exception):
    """Raised when a dataset cannot support the requested statistic."""


def as_tensor(data, shape=None) -> np.ndarray:
    """Coerce to a float64 (C, H, W) array and validate finiteness."""
    t = np.ascontiguousarray(data, dtype=np.float64)
    if shape is not None:
        t = t.reshape(shape)
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


class NoiseSource:
    """Seeded standard-normal stream.

    Backed by numpy's PCG64 bit generator with the ziggurat normal transform
    (``Generator.standard_normal``); identical seeds give bit-identical draw
    sequences across runs and platforms. ``position`` counts scalars drawn.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.position = 0
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    @classmethod
    def for_worker(cls, master_seed: int, worker: int) -> "NoiseSource":
        # One independent child stream per worker, stable under scheduling.
        child = np.random.SeedSequence(master_seed).spawn(worker + 1)[worker]
        src = cls.__new__(cls)
        src.seed = master_seed
        src.position = 0
        src._gen = np.random.Generator(np.random.PCG64(child))
        return src

    def normal(self, shape) -> np.ndarray:
        shape = tuple(int(s) for s in np.atleast_1d(shape))
        if any(s < 1 for s in shape):
            raise ValueError(f"all dims must be >= 1, got {shape}")
        out = self._gen.standard_normal(shape)
        self.position += out.size
        return out

    def integers(self, low, high) -> int:
        self.position += 1
        return int(self._gen.integers(low, high))

    def uniform(self, size=None) -> np.ndarray:
        out = self._gen.random(size)
        self.position += np.size(out)
        return out


def draw_normal(source: NoiseSource, shape) -> np.ndarray:
    """Draw an i.i.d. standard-normal tensor of shape (C, H, W)."""
    shape = tuple(int(s) for s in shape)
    if len(shape) != 3:
        raise ValueError(f"expected a (C, H, W) shape, got {shape}")
    return source.normal(shape)


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
    items = [load_tensor(directory / name) for name in manifest["items"]]
    return ImageDataset.from_list(items)
