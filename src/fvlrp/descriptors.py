"""Dense local descriptor extraction and PCA reduction.

The descriptor is a SIFT-like gradient orientation histogram computed on
a square patch: 4x4 spatial cells times 8 orientation bins (128 values).
Gradients come from central differences with replicated borders; each
pixel votes with its gradient magnitude, split linearly between the two
nearest orientation bins. The histogram is l2-normalized, clamped at
0.2, and renormalized (an all-zero histogram stays zero).

Every descriptor keeps its receptive field: the (x, y, w, h) patch
rectangle it was computed from, used later to spread relevance onto
pixels.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimError, ExtractError, FitError, ParseError
from .imaging import Image

_DESC_MAGIC = b"DESC1"
N_CELLS = 4
N_ORI = 8
RAW_DIM = N_CELLS * N_CELLS * N_ORI
CLAMP = 0.2


class DescriptorSet:
    """Ordered descriptors of one image, row-major over grid positions."""

    def __init__(self, vectors: np.ndarray, areas: np.ndarray, image_size: tuple[int, int]):
        vectors = np.asarray(vectors, dtype=np.float64)
        areas = np.asarray(areas, dtype=np.int64)
        if vectors.ndim != 2 or areas.shape != (vectors.shape[0], 4):
            raise DimError(f"inconsistent shapes {vectors.shape} / {areas.shape}")
        self.vectors = vectors
        self.areas = areas
        self.image_size = (int(image_size[0]), int(image_size[1]))

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _gradients(gray: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central differences with replicated borders."""
    padded = np.pad(gray, 1, mode="edge")
    gx = 0.5 * (padded[1:-1, 2:] - padded[1:-1, :-2])
    gy = 0.5 * (padded[2:, 1:-1] - padded[:-2, 1:-1])
    return gx, gy


def _cell_index_grid(patch: int) -> np.ndarray:
    """(patch, patch) map from local pixel offset to flat 4x4 cell index."""
    axis = (N_CELLS * np.arange(patch)) // patch
    return (axis[:, None] * N_CELLS + axis[None, :]).astype(np.int64)


def _normalize_clamped(hist: np.ndarray) -> np.ndarray:
    norm = np.sqrt(np.dot(hist, hist))
    if norm == 0.0:
        return hist
    v = hist / norm
    np.minimum(v, CLAMP, out=v)
    return v / np.sqrt(np.dot(v, v))


def extract_dense(img: Image, patch: int, stride: int) -> DescriptorSet:
    """Extract one descriptor per grid position.

    Grid positions (x, y) are the multiples of `stride` for which the
    patch rectangle fits inside the image; descriptors are emitted
    row-major (y outer, x inner).
    """
    if patch < 1 or stride < 1:
        raise ExtractError(f"patch and stride must be positive, got {patch}, {stride}")
    if patch > min(img.width, img.height):
        raise ExtractError(f"patch {patch} exceeds image {img.width}x{img.height}")

    gray = img.gray()
    gx, gy = _gradients(gray)
    mag = np.hypot(gx, gy)
    # Orientation split onto the two nearest of 8 bins over [0, 2*pi).
    theta = np.mod(np.arctan2(gy, gx), 2.0 * np.pi)
    t = theta * (N_ORI / (2.0 * np.pi))
    b0 = np.floor(t).astype(np.int64) % N_ORI
    frac = t - np.floor(t)
    b1 = (b0 + 1) % N_ORI
    w0 = mag * (1.0 - frac)
    w1 = mag * frac

    cells = _cell_index_grid(patch)
    xs = range(0, img.width - patch + 1, stride)
    ys = range(0, img.height - patch + 1, stride)
    vectors = []
    areas = []
    for y in ys:
        for x in xs:
            sl = (slice(y, y + patch), slice(x, x + patch))
            idx0 = (cells * N_ORI + b0[sl]).ravel()
            idx1 = (cells * N_ORI + b1[sl]).ravel()
            hist = np.bincount(idx0, weights=w0[sl].ravel(), minlength=RAW_DIM)
            hist += np.bincount(idx1, weights=w1[sl].ravel(), minlength=RAW_DIM)
            vectors.append(_normalize_clamped(hist))
            areas.append((x, y, patch, patch))
    return DescriptorSet(np.array(vectors), np.array(areas, dtype=np.int64),
                         (img.width, img.height))


# ---------------------------------------------------------------------------
# PCA


@dataclass(frozen=True)
class PcaModel:
    """Mean vector plus an orthonormal projection basis (rows are axes)."""

    mean: np.ndarray
    basis: np.ndarray  # (dim, raw_dim)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def raw_dim(self) -> int:
        return self.basis.shape[1]


def pca_fit(data: np.ndarray, dim: int) -> PcaModel:
    """Fit the top-`dim` principal axes of a descriptor matrix (one row each).

    Axes are eigenvalue-descending with a deterministic sign convention:
    the largest-magnitude entry of each axis is positive.
    """
    data = np.asarray(data, dtype=np.float64)
    n, raw_dim = data.shape
    if dim > raw_dim:
        raise DimError(f"requested dim {dim} exceeds descriptor dim {raw_dim}")
    if n <= dim:
        raise FitError(f"need more than {dim} samples, got {n}")
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    rank = int(np.sum(eigvals > max(eigvals[0], 0.0) * 1e-10))
    if dim > rank:
        raise DimError(f"covariance rank {rank} is below requested dim {dim}")
    basis = eigvecs[:, order[:dim]].T.copy()
    for row in basis:
        peak = np.argmax(np.abs(row))
        if row[peak] < 0.0:
            row *= -1.0
    return PcaModel(mean=mean, basis=basis)


def pca_apply(model: PcaModel, ds: DescriptorSet) -> DescriptorSet:
    """Project every vector; receptive fields and ordering are untouched."""
    if ds.dim != model.raw_dim:
        raise DimError(f"descriptor dim {ds.dim} does not match model {model.raw_dim}")
    projected = (ds.vectors - model.mean) @ model.basis.T
    return DescriptorSet(projected, ds.areas.copy(), ds.image_size)


# ---------------------------------------------------------------------------
# Descriptor cache file (format DESC1)


def save_descriptors(ds: DescriptorSet, path) -> None:
    """Binary cache: magic, uint32 (width, height, count, dim), then per
    descriptor 4 uint32 area fields and `dim` float64 values, all
    little-endian."""
    with open(path, "wb") as fh:
        fh.write(_DESC_MAGIC)
        fh.write(struct.pack("<IIII", ds.image_size[0], ds.image_size[1], len(ds), ds.dim))
        for i in range(len(ds)):
            fh.write(ds.areas[i].astype("<u4").tobytes())
            fh.write(ds.vectors[i].astype("<f8").tobytes())


def load_descriptors(path) -> DescriptorSet:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:5] != _DESC_MAGIC:
        raise ParseError(f"{path}: bad magic {data[:5]!r}")
    width, height, count, dim = struct.unpack("<IIII", data[5:21])
    rec = 16 + dim * 8
    if len(data) != 21 + count * rec:
        raise ParseError(f"{path}: expected {count} records of {rec} bytes")
    areas = np.empty((count, 4), dtype=np.int64)
    vectors = np.empty((count, dim), dtype=np.float64)
    off = 21
    for i in range(count):
        areas[i] = np.frombuffer(data[off:off + 16], dtype="<u4")
        vectors[i] = np.frombuffer(data[off + 16:off + rec], dtype="<f8")
        off += rec
    return DescriptorSet(vectors, areas, (width, height))
