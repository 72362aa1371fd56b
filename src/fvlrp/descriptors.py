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

PCA has one fit, `pca_fit_inplace`, which centres the matrix it is
given in place. `pca_fit` runs it on a copy and leaves its argument
alone; `pipeline.fit_pca` runs it on the pooled training matrix itself,
so that matrix gets no centred copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimError, ExtractError, FitError, ValidationError
from .imaging import Image
from .util import normalize_rows, read_container, write_container

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
    # arctan2 lies in [-pi, pi], so adding 2*pi below zero is np.mod(., 2*pi)
    # bit for bit; a rounded 2*pi gives t = 8, whose bin wraps to 0.
    theta = np.arctan2(gy, gx)
    theta = np.where(theta < 0.0, theta + 2.0 * np.pi, theta)
    t = theta * (N_ORI / (2.0 * np.pi))
    whole = np.floor(t)
    b0 = whole.astype(np.int64)
    b0 &= N_ORI - 1
    frac = t - whole
    return b0, (b0 + 1) & (N_ORI - 1), mag * (1.0 - frac), mag * frac


def tiles_grid(patch: int, stride: int, per_side: int) -> bool:
    """Whether every patch origin lies on the grid of cells of side
    patch/4, so that neighbouring patches share whole cells."""
    return patch % N_CELLS == 0 and (per_side == 1 or stride % (patch // N_CELLS) == 0)


def patch_origins(width: int, height: int, patch: int, stride: int
                  ) -> tuple[range, range]:
    """Patch origins along x and along y: the multiples of `stride` at
    which a `patch`-sized square fits inside the image."""
    return range(0, width - patch + 1, stride), range(0, height - patch + 1, stride)


def descriptor_count(width: int, height: int, patch: int, stride: int) -> int:
    """How many descriptors `extract_dense` emits for an image of this size."""
    xs, ys = patch_origins(width, height, patch, stride)
    return len(xs) * len(ys)


def _normalize_clamped(h: np.ndarray) -> np.ndarray:
    """Row-wise l2-normalize, clamp at CLAMP and renormalize, in place,
    with `util.normalize_rows`, the row norm the improved FV uses too;
    rows of zero norm are left as they are."""
    normalize_rows(h)
    np.minimum(h, CLAMP, out=h)
    return normalize_rows(h)


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
    xs, ys = patch_origins(img.width, img.height, patch, stride)
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
    # The 4x4 cells under each patch, row-major over the grid: every
    # window of 4x4 cells, taken each `stride` pixels, copied once.
    step = max(stride // side, 1)
    windows = np.lib.stride_tricks.sliding_window_view(
        cells.reshape(ny, nx, N_ORI), (N_CELLS, N_CELLS), axis=(0, 1))
    hist = windows[::step, ::step].transpose(0, 1, 3, 4, 2).copy().reshape(-1, RAW_DIM)
    areas = np.empty((len(ys), len(xs), 4), dtype=np.int64)
    areas[..., 0] = np.arange(0, xs.stop, stride)
    areas[..., 1] = np.arange(0, ys.stop, stride)[:, None]
    areas[..., 2:] = patch
    areas = areas.reshape(-1, 4)
    return DescriptorSet(_normalize_clamped(hist), areas, (img.width, img.height))


# ---------------------------------------------------------------------------
# PCA


@dataclass(frozen=True)
class PcaModel:
    """Mean vector plus an orthonormal projection basis (rows are axes)."""

    mean: np.ndarray
    basis: np.ndarray  # (dim, raw_dim)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        basis = np.asarray(self.basis, dtype=np.float64)
        if basis.ndim != 2 or mean.shape != (basis.shape[1],):
            raise DimError(f"PCA mean {mean.shape} and basis {basis.shape} inconsistent")
        if not all(np.isfinite(a).all() for a in (mean, basis)):
            raise ValidationError("non-finite PCA parameters")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def raw_dim(self) -> int:
        return self.basis.shape[1]


def pca_fit(data: np.ndarray, dim: int) -> PcaModel:
    """Fit the top-`dim` principal axes of a descriptor matrix (one row each).

    Axes are eigenvalue-descending with a deterministic sign convention:
    the largest-magnitude entry of each axis is positive. `data` is not
    modified.
    """
    return pca_fit_inplace(np.array(data, dtype=np.float64), dim)


def pca_fit_inplace(data: np.ndarray, dim: int) -> PcaModel:
    """`pca_fit` on a float64 matrix that it centres in place.

    On return `data` holds the centred rows, so `data @ model.basis.T`
    is the projection `pca_apply` gives, bit for bit, without a centred
    copy of the matrix.
    """
    n, raw_dim = data.shape
    if dim > raw_dim:
        raise DimError(f"requested dim {dim} exceeds descriptor dim {raw_dim}")
    if n <= dim:
        raise FitError(f"need more than {dim} samples, got {n}")
    mean = data.mean(axis=0)
    data -= mean
    cov = data.T @ data / (n - 1)
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
