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
`extract_dense` is two steps: `cell_grid` bins the cells, and
`descriptors_from_cells` gathers, normalizes and places each patch's
4x4 cells; the set keeps its grid. A split's grids are stored as one
CELL1 file (`encode_cells`), and `decode_cells` runs the same second
step on each stored grid, so a decoded set equals the extracted one bit
for bit.

Every descriptor keeps its receptive field: the (x, y, w, h) patch
rectangle it was computed from, used later to spread relevance onto
pixels. It follows from the geometry, so it is not stored.

PCA has one fit, `pca_fit_inplace`, which centres the matrix it is
given in place. `pca_fit` runs it on a copy and leaves its argument
alone; `pipeline.fit_pca_pooled` runs it on the pooled training matrix
itself, so that matrix gets no centred copy.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DimError, ExtractError, FitError, ParseError, ValidationError
from .imaging import Image
from .util import container_chunks, normalize_rows, parse_container

_CELLS_MAGIC = b"CELL1"
N_CELLS = 4
N_ORI = 8
RAW_DIM = N_CELLS * N_CELLS * N_ORI
CLAMP = 0.2


class DescriptorSet:
    """Ordered descriptors of one image, row-major over grid positions.

    `cells` is the (ny, nx, 8) `cell_grid` the descriptors were gathered
    from (`descriptors_from_cells`), or None for a set made otherwise,
    such as a projected one.
    """

    def __init__(self, vectors: np.ndarray, areas: np.ndarray,
                 image_size: tuple[int, int], cells: np.ndarray | None = None):
        vectors = np.asarray(vectors, dtype=np.float64)
        areas = np.asarray(areas, dtype=np.int64)
        if vectors.ndim != 2 or areas.shape != (vectors.shape[0], 4):
            raise DimError(f"inconsistent shapes {vectors.shape} / {areas.shape}")
        self.vectors = vectors
        self.areas = areas
        self.image_size = (int(image_size[0]), int(image_size[1]))
        self.cells = cells

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


def grid_shape(width: int, height: int, patch: int, stride: int
               ) -> tuple[int, int]:
    """(ny, nx): the rows and columns of cells of side patch/4 that the
    patches of an image of this size cover. A geometry `extract_dense`
    cannot run is an `ExtractError`: a patch larger than the image, or
    patch origins off the grid of cells of side patch/4, so that
    neighbouring patches would not share whole cells."""
    if patch < 1 or stride < 1:
        raise ExtractError(f"patch and stride must be positive, got {patch}, {stride}")
    if patch > min(width, height):
        raise ExtractError(f"patch {patch} exceeds image {width}x{height}")
    xs, ys = patch_origins(width, height, patch, stride)
    if patch % N_CELLS or (max(len(xs), len(ys)) > 1 and stride % (patch // N_CELLS)):
        raise ExtractError(f"patch {patch} / stride {stride}: cells do not tile the grid")
    side = patch // N_CELLS
    return (ys[-1] + patch) // side, (xs[-1] + patch) // side


def cell_grid(img: Image, patch: int, stride: int) -> np.ndarray:
    """The (ny, nx, 8) orientation histograms of the cells the patches
    cover (`grid_shape`), each binned once: the first step of
    `extract_dense`."""
    ny, nx = grid_shape(img.width, img.height, patch, stride)
    b0, b1, w0, w1 = orientation_votes(img.gray())
    side = patch // N_CELLS
    # One bincount over the covered pixels in row-major order adds each
    # cell's votes in the order a per-patch bincount adds them.
    rows, cols = np.arange(ny * side) // side, np.arange(nx * side) // side
    cell = ((rows[:, None] * nx + cols) * N_ORI).ravel()
    covered = (slice(0, ny * side), slice(0, nx * side))
    size = nx * ny * N_ORI
    cells = np.bincount(cell + b0[covered].ravel(), w0[covered].ravel(), size)
    cells += np.bincount(cell + b1[covered].ravel(), w1[covered].ravel(), size)
    return cells.reshape(ny, nx, N_ORI)


def descriptors_from_cells(cells: np.ndarray, width: int, height: int,
                           patch: int, stride: int) -> DescriptorSet:
    """The descriptors of a width x height image from its `cell_grid`:
    the second step of `extract_dense`. Each descriptor is the 4x4 cells
    under its patch, normalized and clamped; its area follows from the
    geometry."""
    xs, ys = patch_origins(width, height, patch, stride)
    # The 4x4 cells under each patch, row-major over the grid: every
    # window of 4x4 cells, taken each `stride` pixels, copied once.
    step = max(stride // (patch // N_CELLS), 1)
    windows = np.lib.stride_tricks.sliding_window_view(
        cells, (N_CELLS, N_CELLS), axis=(0, 1))
    hist = windows[::step, ::step].transpose(0, 1, 3, 4, 2).copy().reshape(-1, RAW_DIM)
    areas = np.empty((len(ys), len(xs), 4), dtype=np.int64)
    areas[..., 0] = np.arange(0, xs.stop, stride)
    areas[..., 1] = np.arange(0, ys.stop, stride)[:, None]
    areas[..., 2:] = patch
    areas = areas.reshape(-1, 4)
    return DescriptorSet(_normalize_clamped(hist), areas, (width, height), cells)


def extract_dense(img: Image, patch: int, stride: int) -> DescriptorSet:
    """Extract one descriptor per grid position.

    Grid positions (x, y) are the multiples of `stride` for which the
    patch rectangle fits inside the image; descriptors are emitted
    row-major (y outer, x inner).
    """
    return descriptors_from_cells(cell_grid(img, patch, stride),
                                  img.width, img.height, patch, stride)


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
# A split's cell grids (format CELL1)


def encode_cells(grids: Iterable[np.ndarray], width: int, height: int,
                 patch: int, stride: int, count: int) -> Iterator[bytes]:
    """The CELL1 bytes of `count` images' cell grids, all of one width x
    height: magic, uint32 (width, height, patch, stride, count), then each
    (ny, nx, 8) grid's float64 values, little-endian, one chunk per grid
    as `grids` yields it."""
    shape = (*grid_shape(width, height, patch, stride), N_ORI)

    def chunks():
        written = 0
        for cells in grids:
            if cells.shape != shape:
                raise DimError(f"cell grid {cells.shape}, expected {shape}")
            written += 1
            yield cells.astype("<f8").tobytes()
        if written != count:
            raise DimError(f"{written} cell grids, expected {count}")

    return container_chunks(_CELLS_MAGIC, (width, height, patch, stride, count),
                            chunks())


def decode_cells(data: bytes, count: int) -> Iterator[DescriptorSet]:
    """The descriptor sets of `encode_cells` bytes that hold `count`
    images, each built from its grid as it is reached: bit for bit what
    `extract_dense` gives its image. Bytes whose geometry `extract_dense`
    refuses, or whose image count is not `count`, are a `ParseError`,
    raised by this call, before any set is built."""
    shape = []

    def body_size(width, height, patch, stride, images):
        try:
            shape.extend((*grid_shape(width, height, patch, stride), N_ORI))
        except ExtractError as exc:
            raise ParseError(str(exc)) from exc
        if images != count:
            raise ParseError(f"holds {images} images, expected {count}")
        return images * 8 * math.prod(shape)

    (width, height, patch, stride, images), body = parse_container(
        data, _CELLS_MAGIC, 5, body_size)
    grids = np.frombuffer(body, dtype="<f8").reshape(images, *shape)
    return (descriptors_from_cells(cells, width, height, patch, stride)
            for cells in grids)
