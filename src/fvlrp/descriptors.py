"""Dense local descriptor extraction and PCA reduction.

The descriptor is a SIFT-like gradient orientation histogram computed on
a square patch: 4x4 spatial cells times 8 orientation bins (128 values).
Gradients come from central differences with replicated borders; each
pixel votes with its gradient magnitude, split linearly between the two
nearest orientation bins. The histogram is l2-normalized, clamped at
0.2, and renormalized (an all-zero histogram stays zero).

As in dense SIFT (VLFeat `vl_dsift`), each cell histogram is binned
once per image and shared by every patch covering it, bit for bit what
binning each patch alone gives (`verification.oracle_extract_dense`).
So patch origins must lie on the cell grid: `patch % 4 == 0` and
`stride % (patch // 4) == 0`, unless the image holds one patch per axis.

Every descriptor keeps its receptive field: the (x, y, w, h) patch
rectangle it was computed from, used later to spread relevance onto
pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimError, ExtractError, FitError
from .imaging import Image
from .util import read_container, write_container

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


def orientation_votes(gray: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-pixel votes (b0, b1, w0, w1): the gradient magnitude (central
    differences, replicated borders) split linearly between the two
    nearest of 8 orientation bins over [0, 2*pi)."""
    padded = np.pad(gray, 1, mode="edge")
    gx = 0.5 * (padded[1:-1, 2:] - padded[1:-1, :-2])
    gy = 0.5 * (padded[2:, 1:-1] - padded[:-2, 1:-1])
    mag = np.hypot(gx, gy)
    theta = np.mod(np.arctan2(gy, gx), 2.0 * np.pi)
    t = theta * (N_ORI / (2.0 * np.pi))
    b0 = np.floor(t).astype(np.int64) % N_ORI
    frac = t - np.floor(t)
    b1 = (b0 + 1) % N_ORI
    return b0, b1, mag * (1.0 - frac), mag * frac


def tiles_grid(patch: int, stride: int, per_side: int) -> bool:
    """Whether every patch origin lies on the grid of cells of side
    patch/4, so that neighbouring patches share whole cells."""
    return patch % N_CELLS == 0 and (per_side == 1 or stride % (patch // N_CELLS) == 0)


def _row_norms(h: np.ndarray) -> np.ndarray:
    # Batched matmul, not einsum or sum: it equals np.dot per row bit for bit.
    return np.sqrt(np.matmul(h[:, None, :], h[:, :, None])[:, 0, 0])


def _normalize_clamped(h: np.ndarray) -> np.ndarray:
    """Row-wise l2-normalize, clamp at CLAMP and renormalize, in place;
    rows of zero norm are left as they are."""
    norm = _row_norms(h)[:, None]
    keep = norm != 0.0
    np.divide(h, norm, out=h, where=keep)
    np.minimum(h, CLAMP, out=h, where=keep)
    np.divide(h, _row_norms(h)[:, None], out=h, where=keep)
    return h


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
    xs = range(0, img.width - patch + 1, stride)
    ys = range(0, img.height - patch + 1, stride)
    if not tiles_grid(patch, stride, max(len(xs), len(ys))):
        raise ExtractError(f"patch {patch} / stride {stride}: cells do not tile the grid")

    b0, b1, w0, w1 = orientation_votes(img.gray())
    side = patch // N_CELLS
    nx, ny = (xs[-1] + patch) // side, (ys[-1] + patch) // side
    # One bincount over the covered pixels in row-major order adds each
    # cell's votes in the order a per-patch bincount adds them.
    rows, cols = np.arange(ny * side) // side, np.arange(nx * side) // side
    cell = ((rows[:, None] * nx + cols) * N_ORI).ravel()
    covered = (slice(0, ny * side), slice(0, nx * side))
    size = nx * ny * N_ORI
    cells = np.bincount(cell + b0[covered].ravel(), w0[covered].ravel(), size)
    cells += np.bincount(cell + b1[covered].ravel(), w1[covered].ravel(), size)
    # The 4x4 cells under each patch, row-major over the grid.
    cy = np.array(ys)[:, None, None, None] // side + np.arange(N_CELLS)[:, None]
    cx = np.array(xs)[:, None, None] // side + np.arange(N_CELLS)
    hist = cells.reshape(ny, nx, N_ORI)[cy, cx].reshape(-1, RAW_DIM)
    areas = np.array([(x, y, patch, patch) for y in ys for x in xs], dtype=np.int64)
    return DescriptorSet(_normalize_clamped(hist), areas, (img.width, img.height))


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


def _record_dtype(dim: int) -> np.dtype:
    return np.dtype([("area", "<u4", (4,)), ("vec", "<f8", (dim,))])


def save_descriptors(ds: DescriptorSet, path) -> None:
    """Binary cache: magic, uint32 (width, height, count, dim), then per
    descriptor 4 uint32 area fields and `dim` float64 values, all
    little-endian."""
    records = np.empty(len(ds), dtype=_record_dtype(ds.dim))
    records["area"] = ds.areas
    records["vec"] = ds.vectors
    write_container(path, _DESC_MAGIC,
                    (ds.image_size[0], ds.image_size[1], len(ds), ds.dim),
                    records.tobytes())


def load_descriptors(path) -> DescriptorSet:
    # The record size is computed, not read off `_record_dtype`, so that a
    # damaged header with a huge `dim` is a size mismatch, not a dtype error.
    (width, height, count, dim), body = read_container(
        path, _DESC_MAGIC, 4, lambda w, h, count, dim: count * (16 + 8 * dim))
    records = np.frombuffer(body, dtype=_record_dtype(dim), count=count)
    # astype copies: the set owns writable arrays, not views of the file.
    return DescriptorSet(records["vec"].astype(np.float64, order="C"),
                         records["area"].astype(np.int64, order="C"), (width, height))
