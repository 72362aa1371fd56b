"""Fisher vector embedding of descriptor sets.

A descriptor l is related to every component k of a diagonal GMM through
its soft-assignment weight, its standardized deviation from the mean, and
its second-moment deviation:

    psi_w_k(l)  = (gamma_k - w_k) / sqrt(w_k)                      (scalar)
    psi_mu_k(l) = gamma_k * (l - mu_k) / sigma_k / sqrt(w_k)       (D values)
    psi_sg_k(l) = gamma_k * ((l - mu_k)^2 / sigma_k^2 - 1)
                  / sqrt(2) / sqrt(w_k)                            (D values)

Per-descriptor embeddings are concatenated as [all K weight entries,
K mean blocks of D, K sigma blocks of D], giving a (1+2D)K vector. The
image-level raw Fisher vector is their arithmetic mean over descriptors.
`aggregate` computes it from per-component moments of the
responsibilities (Sanchez et al., IJCV 2013) without forming the
embeddings; it equals the mean of Psi up to rounding (about 1e-15 at
the defaults). `aggregate_images` does so for a block of sets of one
size in one pass, each row bit for bit its set's `aggregate`. `encode`
gives the embeddings Psi with the same raw FV, and `encode_lazily` the
raw FV with a call that forms Psi. All read one set of moment inputs,
the responsibilities and the standardized deviations, which only
`_columns` builds, so every raw FV is `aggregate`'s bit for bit. Psi has
one implementation, `embed_batch`. It is built dimension-major, as the
C-contiguous ((1+2D)K, n) array whose rows are the FV dimensions, in one
pass over all live components, and handed out as its transposed
(n, (1+2D)K) view: relevance redistribution and the MoRF kernel read Psi
one FV dimension at a time. `embed_descriptor` is its single-row form.

The improved form phi applies the signed square root followed by l2
normalization, which is equivalent to the Hellinger kernel on the raw
vector (see :func:`hellinger_check`). Both are plain (1+2D)K arrays;
`improve` takes one or a stack of them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimError, EmptyInputError, ParseError
from .gmm import GmmModel, responsibilities
from .util import container_chunks, normalize_rows, parse_container

_FVEC_MAGIC = b"FVEC2"
INV_SQRT2 = 1.0 / np.sqrt(2.0)


def fv_length(k: int, d: int) -> int:
    return (1 + 2 * d) * k


def signed_sqrt(v: np.ndarray) -> np.ndarray:
    """sign(v) * sqrt(|v|) with the convention sign(0) = +1."""
    return np.where(v < 0.0, -1.0, 1.0) * np.sqrt(np.abs(v))


@dataclass(frozen=True)
class EmbeddingIndex:
    """Flat FV dimension <-> (moment, component, coord): `decode` one
    dimension, or take a component's mean or sigma block as a slice.

    Flat layout for K components of dimension D (0-based):

    * ``d in [0, K)``            -> ("w", d, 0)
    * ``d in [K, K + K*D)``      -> ("mu", (d-K) // D, (d-K) % D)
    * ``d in [K + K*D, (1+2D)K)``-> ("sigma", ...) analogously
    """

    n_components: int
    dim: int

    @property
    def length(self) -> int:
        return fv_length(self.n_components, self.dim)

    def decode(self, d: int) -> tuple[str, int, int]:
        k, dd = self.n_components, self.dim
        if not 0 <= d < self.length:
            raise DimError(f"dimension {d} outside [0, {self.length})")
        if d < k:
            return ("w", d, 0)
        if d < k + k * dd:
            off = d - k
            return ("mu", off // dd, off % dd)
        off = d - k - k * dd
        return ("sigma", off // dd, off % dd)

    def mu_block(self, component: int) -> slice:
        k, dd = self.n_components, self.dim
        return slice(k + component * dd, k + (component + 1) * dd)

    def sigma_block(self, component: int) -> slice:
        k, dd = self.n_components, self.dim
        base = k + k * dd
        return slice(base + component * dd, base + (component + 1) * dd)


def _columns(model: GmmModel, vectors: np.ndarray
             ) -> tuple[np.ndarray | slice, np.ndarray, np.ndarray]:
    """The inputs both the raw FV and Psi are read off, dimension-major:
    the live components (a slice when all are), the responsibilities
    gamma (K, n) and the standardized deviations t = (x - mu_k) / sigma_k
    (|live|, D, n), each descriptor's values one column. The only builder
    of them; a `vectors` that is not (n, D) is refused by
    `responsibilities`."""
    gamma = responsibilities(model, vectors).T
    live = np.flatnonzero(model.weights)
    if live.size == model.n_components:
        live = slice(None)  # indexing by it copies nothing
    t = np.subtract(np.ascontiguousarray(np.transpose(vectors), dtype=np.float64),
                    model.means[live, :, None])
    t /= model.sigmas[live, :, None]
    return live, gamma, t


def _psi_t(model: GmmModel, live: np.ndarray | slice, gamma: np.ndarray,
           t: np.ndarray) -> np.ndarray:
    """Psi transposed, the C-contiguous ((1+2D)K, n) array, from the
    dimension-major moment inputs, all live components at once; `t` is
    overwritten. Each entry takes the operations, in the order, that one
    component at a time takes (`verification.oracle_embed_batch`)."""
    k, d = model.n_components, model.dim
    n = gamma.shape[1]
    psi = np.zeros((fv_length(k, d), n))
    w = model.weights[live, None]
    sqrt_w = np.sqrt(w)
    g = gamma[live]
    psi[:k][live] = (g - w) / sqrt_w
    g, sqrt_w = g[:, None, :], sqrt_w[:, :, None]
    mu = g * t
    mu /= sqrt_w
    psi[k:k + k * d].reshape(k, d, n)[live] = mu
    t *= t
    t -= 1.0
    t *= g
    t *= INV_SQRT2
    t /= sqrt_w
    psi[k + k * d:].reshape(k, d, n)[live] = t
    return psi


def embed_batch(model: GmmModel, vectors: np.ndarray) -> np.ndarray:
    """Per-descriptor raw embeddings, one row per descriptor: the Psi
    half of `encode`, the transposed view of a C-contiguous array.

    Components with exactly zero mixture weight contribute zero blocks
    (they also receive zero responsibility, so this is the correct
    limit, avoiding 0/0). A row depends only on its own descriptor, bit
    for bit, not on the batch it comes in.
    """
    return _psi_t(model, *_columns(model, vectors)).T


def embed_descriptor(model: GmmModel, descriptor: np.ndarray) -> np.ndarray:
    """Raw embedding of a single descriptor (same path as the batch)."""
    descriptor = np.asarray(descriptor, dtype=np.float64)
    if descriptor.ndim != 1:
        raise DimError(f"expected a single descriptor, got shape {descriptor.shape}")
    return embed_batch(model, descriptor[None, :])[0]


def _moments_fv(model: GmmModel, live: np.ndarray | slice, gamma: np.ndarray,
                t: np.ndarray, images: int) -> np.ndarray:
    """The raw FVs, one row per image, of `images` equal consecutive runs
    of the n descriptor columns, each the mean of Psi over its run, from
    the per-component moments S0 = sum gamma_k, S1 = sum gamma_k t and
    S2 = sum gamma_k t*t (Sanchez et al., IJCV 2013):

        w:     (S0 / n - w_k) / sqrt(w_k)
        mu:    S1 / n / sqrt(w_k)
        sigma: (S2 - S0) / n / sqrt(2) / sqrt(w_k)

    Zero-weight components keep zero blocks. The inputs are `_columns`'s
    and are not written. S1 and S2 of all images are each one stacked
    matmul over a row-major (|live| * images, n, D) copy of `t`: one
    (1, n) x (n, D) product per component and image, the one an image
    alone makes, so each row is bit for bit its image's `aggregate`. A
    matmul over another layout rounds differently. The squares are
    formed on that copy, so no third array of t's size is held.
    """
    k, d = model.n_components, model.dim
    n = t.shape[2] // images
    if n == 0:
        raise EmptyInputError("cannot aggregate an empty descriptor set")
    # a copy, never a view: `t *= t` must not write the caller's
    t = t.reshape(-1, d, images, n).transpose(0, 2, 3, 1).copy().reshape(-1, n, d)
    w = model.weights[live][:, None, None]
    sqrt_w = np.sqrt(w)
    g = gamma[live].reshape(-1, 1, n)  # (|live| * images, 1, n)
    s0 = g.sum(axis=2).reshape(-1, images, 1)
    fv = np.zeros((images, fv_length(k, d)))
    fv[:, :k][:, live] = ((s0 / n - w) / sqrt_w)[..., 0].T
    fv[:, k:k + k * d].reshape(images, k, d)[:, live] = (
        np.matmul(g, t).reshape(-1, images, d) / n / sqrt_w).transpose(1, 0, 2)
    t *= t
    fv[:, k + k * d:].reshape(images, k, d)[:, live] = (
        (np.matmul(g, t).reshape(-1, images, d) - s0) / n * INV_SQRT2
        / sqrt_w).transpose(1, 0, 2)
    return fv


def aggregate_images(model: GmmModel, vectors: np.ndarray, images: int
                     ) -> np.ndarray:
    """The raw FVs of `images` sets of equal size held as consecutive row
    blocks of `vectors`, one row each, from one `_columns` pass: each row
    bit for bit what `aggregate` gives its set alone."""
    if len(vectors) % images:
        raise DimError(f"{len(vectors)} descriptors are not {images} equal sets")
    return _moments_fv(model, *_columns(model, vectors), images)


def encode_lazily(model: GmmModel, vectors: np.ndarray
                  ) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """The raw FV, bit for bit as `aggregate` gives it, and a call that
    forms Psi, as `embed_batch` gives it, from the same `_columns` pass,
    for a caller that needs Psi only for some sets. The call overwrites
    the deviations it reads, so it is made at most once."""
    live, gamma, t = _columns(model, vectors)
    return (_moments_fv(model, live, gamma, t, 1)[0],
            lambda: _psi_t(model, live, gamma, t).T)


def encode(model: GmmModel, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Psi, the per-descriptor embeddings (one row per descriptor, the
    transposed view `embed_batch` gives), and the raw FV, bit for bit as
    `aggregate` gives it; both are read off one `_columns` pass, the raw
    FV first, since `_psi_t` overwrites the deviations."""
    raw, psi = encode_lazily(model, vectors)
    return psi(), raw


def aggregate(model: GmmModel, vectors: np.ndarray) -> np.ndarray:
    """The raw (1+2D)K Fisher vector of a descriptor matrix: the mean of
    its embeddings, from per-component moments, without forming them."""
    return _moments_fv(model, *_columns(model, vectors), 1)[0]


def improve(x: np.ndarray) -> np.ndarray:
    """phi(x): signed square root then l2 normalization, the unit-norm
    improved FV, along the last axis of `x`, so one raw FV or a stack of
    them (images, traces, steps, ...); zero maps to zero. Each row of a
    stack is bit for bit the improved FV of that row alone."""
    return normalize_rows(signed_sqrt(np.asarray(x, dtype=np.float64)))


def hellinger_check(x, y) -> tuple[float, float]:
    """Both sides of the normalization/Hellinger-kernel identity.

    The left side is the plain dot product of the two improved vectors;
    the right side is the Hellinger kernel on the raw vectors,
    sum_d sign(x_d y_d) sqrt(|x_d|/||x||_1 * |y_d|/||y||_1), computed
    without going through the normalization path.
    """
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape:
        raise DimError(f"shape mismatch {xv.shape} vs {yv.shape}")
    ax, ay = np.abs(xv), np.abs(yv)
    l1x, l1y = ax.sum(), ay.sum()
    if l1x == 0.0 or l1y == 0.0:
        raise DegenerateInputError("hellinger check needs nonzero vectors")
    lhs = float(np.dot(improve(xv), improve(yv)))
    sgn = np.where(xv < 0.0, -1.0, 1.0) * np.where(yv < 0.0, -1.0, 1.0)
    rhs = float(np.sum(sgn * np.sqrt((ax / l1x) * (ay / l1y))))
    return lhs, rhs


# ---------------------------------------------------------------------------
# A split's raw Fisher vectors (format FVEC2)


def encode_fisher_vectors(rows: np.ndarray, k: int, d: int) -> Iterator[bytes]:
    """The FVEC2 bytes of raw FVs, one row per image: magic, uint32
    (images, K, D), then the (images, (1+2D)K) float64 values,
    little-endian."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != fv_length(k, d):
        raise DimError(f"rows {rows.shape} do not have length (1+2*{d})*{k}")
    return container_chunks(_FVEC_MAGIC, (rows.shape[0], k, d),
                            [rows.astype("<f8").tobytes()])


def decode_fisher_vectors(data: bytes, count: int) -> np.ndarray:
    """The (count, (1+2D)K) raw FVs of `encode_fisher_vectors` bytes;
    bytes that hold another number of rows are a `ParseError`."""
    def body_size(images, k, d):
        if images != count:
            raise ParseError(f"holds {images} Fisher vectors, expected {count}")
        return 8 * images * fv_length(k, d)

    (images, k, d), body = parse_container(data, _FVEC_MAGIC, 3, body_size)
    return np.frombuffer(body, dtype="<f8").reshape(images, fv_length(k, d)).copy()
