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
image-level raw Fisher vector is the arithmetic mean over descriptors;
the improved form applies the signed square root followed by l2
normalization, which is equivalent to the Hellinger kernel on the raw
vector (see :func:`hellinger_check`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimError, EmptyInputError
from .descriptors import DescriptorSet
from .gmm import GmmModel, responsibilities
from .util import read_container, write_container

_FVEC_MAGIC = b"FVEC1"
INV_SQRT2 = 1.0 / np.sqrt(2.0)


def fv_length(k: int, d: int) -> int:
    return (1 + 2 * d) * k


def signed_sqrt(v: np.ndarray) -> np.ndarray:
    """sign(v) * sqrt(|v|) with the convention sign(0) = +1."""
    return np.where(v < 0.0, -1.0, 1.0) * np.sqrt(np.abs(v))


@dataclass(frozen=True)
class EmbeddingIndex:
    """Bijection between flat FV dimension and (moment, component, coord).

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

    def encode(self, moment: str, component: int, coord: int) -> int:
        k, dd = self.n_components, self.dim
        if not 0 <= component < k:
            raise DimError(f"component {component} outside [0, {k})")
        if moment == "w":
            return component
        if not 0 <= coord < dd:
            raise DimError(f"coordinate {coord} outside [0, {dd})")
        if moment == "mu":
            return k + component * dd + coord
        if moment == "sigma":
            return k + k * dd + component * dd + coord
        raise DimError(f"unknown moment {moment!r}")

    def mu_block(self, component: int) -> slice:
        k, dd = self.n_components, self.dim
        return slice(k + component * dd, k + (component + 1) * dd)

    def sigma_block(self, component: int) -> slice:
        k, dd = self.n_components, self.dim
        base = k + k * dd
        return slice(base + component * dd, base + (component + 1) * dd)


@dataclass(frozen=True)
class RawFisherVector:
    """Mean of per-descriptor embeddings, before any normalization."""

    values: np.ndarray
    n_components: int
    dim: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (fv_length(self.n_components, self.dim),):
            raise DimError(
                f"vector length {v.shape} does not match (1+2*{self.dim})*{self.n_components}")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ImprovedFisherVector:
    """Power- plus l2-normalized Fisher vector; unit norm unless all-zero."""

    values: np.ndarray


def embed_batch(model: GmmModel, vectors: np.ndarray) -> np.ndarray:
    """Per-descriptor raw embeddings, one row per descriptor.

    Components with exactly zero mixture weight contribute zero blocks
    (they also receive zero responsibility, so this is the correct
    limit, avoiding 0/0).
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[1] != model.dim:
        raise DimError(f"descriptors {vectors.shape} vs model dim {model.dim}")
    n = vectors.shape[0]
    k, d = model.n_components, model.dim
    idx = EmbeddingIndex(k, d)
    gamma = responsibilities(model, vectors)
    sqrt_w = np.sqrt(model.weights)
    out = np.zeros((n, idx.length))
    for j in range(k):
        if model.weights[j] == 0.0:
            continue
        g = gamma[:, j][:, None]
        out[:, j] = (gamma[:, j] - model.weights[j]) / sqrt_w[j]
        t = (vectors - model.means[j]) / model.sigmas[j]
        out[:, idx.mu_block(j)] = g * t / sqrt_w[j]
        out[:, idx.sigma_block(j)] = g * (t * t - 1.0) * INV_SQRT2 / sqrt_w[j]
    return out


def embed_descriptor(model: GmmModel, descriptor: np.ndarray) -> np.ndarray:
    """Raw embedding of a single descriptor (same path as the batch)."""
    descriptor = np.asarray(descriptor, dtype=np.float64)
    if descriptor.ndim != 1:
        raise DimError(f"expected a single descriptor, got shape {descriptor.shape}")
    return embed_batch(model, descriptor[None, :])[0]


def mean_embedding(emb: np.ndarray) -> np.ndarray:
    """The raw FV of a set: the mean of its per-descriptor embeddings."""
    return emb.sum(axis=0) / emb.shape[0]


def aggregate(model: GmmModel, ds: DescriptorSet | np.ndarray) -> RawFisherVector:
    """Mean of per-descriptor embeddings, summed in descriptor order."""
    vectors = ds.vectors if isinstance(ds, DescriptorSet) else np.asarray(ds, dtype=np.float64)
    if vectors.shape[0] == 0:
        raise EmptyInputError("cannot aggregate an empty descriptor set")
    mean = mean_embedding(embed_batch(model, vectors))
    return RawFisherVector(mean, model.n_components, model.dim)


def improve(x: RawFisherVector | np.ndarray) -> ImprovedFisherVector:
    """Signed square root then l2 normalization; zero maps to zero."""
    v = x.values if isinstance(x, RawFisherVector) else np.asarray(x, dtype=np.float64)
    v = signed_sqrt(v)
    norm = np.sqrt(np.dot(v, v))
    if norm == 0.0:
        return ImprovedFisherVector(v)
    return ImprovedFisherVector(v / norm)


def hellinger_check(x, y) -> tuple[float, float]:
    """Both sides of the normalization/Hellinger-kernel identity.

    The left side is the plain dot product of the two improved vectors;
    the right side is the Hellinger kernel on the raw vectors,
    sum_d sign(x_d y_d) sqrt(|x_d|/||x||_1 * |y_d|/||y||_1), computed
    without going through the normalization path.
    """
    xv = x.values if isinstance(x, RawFisherVector) else np.asarray(x, dtype=np.float64)
    yv = y.values if isinstance(y, RawFisherVector) else np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape:
        raise DimError(f"shape mismatch {xv.shape} vs {yv.shape}")
    ax, ay = np.abs(xv), np.abs(yv)
    l1x, l1y = ax.sum(), ay.sum()
    if l1x == 0.0 or l1y == 0.0:
        raise DegenerateInputError("hellinger check needs nonzero vectors")
    lhs = float(np.dot(improve(xv).values, improve(yv).values))
    sgn = np.where(xv < 0.0, -1.0, 1.0) * np.where(yv < 0.0, -1.0, 1.0)
    rhs = float(np.sum(sgn * np.sqrt((ax / l1x) * (ay / l1y))))
    return lhs, rhs


# ---------------------------------------------------------------------------
# FV cache file (format FVEC1)


def save_fisher_vector(fv: RawFisherVector, path) -> None:
    """Binary cache: magic, uint32 (K, D), then the (1+2D)K float64 values,
    little-endian."""
    write_container(path, _FVEC_MAGIC, (fv.n_components, fv.dim),
                    fv.values.astype("<f8").tobytes())


def load_fisher_vector(path) -> RawFisherVector:
    (k, d), body = read_container(path, _FVEC_MAGIC, 2,
                                  lambda k, d: 8 * fv_length(k, d))
    return RawFisherVector(np.frombuffer(body, dtype="<f8").copy(), k, d)
