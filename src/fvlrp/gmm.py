"""Diagonal-covariance Gaussian mixture model.

Provides EM fitting with k-means++ seeding, log-domain responsibilities,
dataset log-likelihood, and generative sampling (used as the visual
vocabulary and as the replacement sampler for feature perturbation).

All stochastic operations take an explicit ``numpy.random.Generator``;
nothing touches global RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimError, FitError

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class GmmModel:
    """K diagonal Gaussians with mixture weights.

    ``sigmas`` holds per-dimension standard deviations; every entry is
    at least ``sigma_floor`` (elementwise), and the weights form a
    probability simplex.
    """

    weights: np.ndarray       # (K,)
    means: np.ndarray         # (K, D)
    sigmas: np.ndarray        # (K, D)
    sigma_floor: np.ndarray   # (D,)
    ll_trace: tuple[float, ...] = field(default=(), compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        m = np.asarray(self.means, dtype=np.float64)
        s = np.asarray(self.sigmas, dtype=np.float64)
        fl = np.asarray(self.sigma_floor, dtype=np.float64)
        if w.ndim != 1 or m.shape != (w.size, fl.size) or s.shape != m.shape:
            raise DimError(
                f"inconsistent parameter shapes {w.shape}, {m.shape}, {s.shape}, {fl.size}")
        if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-12:
            raise FitError("mixture weights must be a probability simplex")
        if np.any(fl <= 0.0) or np.any(s < fl[None, :]):
            raise FitError("standard deviations must respect the positive floor")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "sigmas", s)
        object.__setattr__(self, "sigma_floor", fl)

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _check_dims(model: GmmModel, data: np.ndarray) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    squeeze = data.ndim == 1
    if squeeze:
        data = data[None, :]
    if data.ndim != 2 or data.shape[1] != model.dim:
        raise DimError(f"data of dim {data.shape[-1]} vs model dim {model.dim}")
    return data


def _log_joint(model: GmmModel, data: np.ndarray) -> np.ndarray:
    """(n, K) array of log pi_k + log N(x; mu_k, sigma_k)."""
    log_norm = -0.5 * model.dim * _LOG_2PI - np.log(model.sigmas).sum(axis=1)  # (K,)
    z = (data[:, None, :] - model.means[None, :, :]) / model.sigmas[None, :, :]
    log_dens = log_norm[None, :] - 0.5 * np.einsum("nkd,nkd->nk", z, z)
    with np.errstate(divide="ignore"):
        log_w = np.log(model.weights)
    return log_w[None, :] + log_dens


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)
    return out


def responsibilities(model: GmmModel, descriptors: np.ndarray) -> np.ndarray:
    """Posterior component probabilities gamma_k for each descriptor.

    Accepts a single (D,) vector or an (n, D) batch; computed in the
    log domain so extreme densities neither overflow nor underflow.
    """
    data = np.asarray(descriptors, dtype=np.float64)
    single = data.ndim == 1
    data = _check_dims(model, data)
    lj = _log_joint(model, data)
    gamma = np.exp(lj - _logsumexp(lj, axis=1)[:, None])
    return gamma[0] if single else gamma


def log_likelihood(model: GmmModel, data: np.ndarray) -> float:
    """Sum over descriptors of log sum_k pi_k N(x; mu_k, sigma_k)."""
    data = _check_dims(model, np.asarray(data, dtype=np.float64))
    return float(_logsumexp(_log_joint(model, data), axis=1).sum())


def _kmeanspp_seeds(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ center selection: each next center drawn proportional to
    squared distance from the nearest already-chosen center."""
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    first = int(rng.integers(n))
    centers[0] = data[first]
    d2 = np.sum((data - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total == 0.0:
            centers[j] = data[int(rng.integers(n))]
            continue
        probs = d2 / total
        idx = int(rng.choice(n, p=probs))
        centers[j] = data[idx]
        d2 = np.minimum(d2, np.sum((data - centers[j]) ** 2, axis=1))
    return centers


def _floored_variance(var: np.ndarray, floor_var: np.ndarray) -> np.ndarray:
    return np.maximum(var, floor_var[None, :])


def em_fit(data: np.ndarray, k: int, seed: int, max_iter: int = 100,
           tol: float = 1e-6) -> GmmModel:
    """Fit a K-component diagonal GMM with EM.

    Initialization: k-means++ seeding from the seeded RNG followed by one
    hard-assignment M-step. Iterations stop when the mean log-likelihood
    improvement drops below `tol` or after `max_iter` rounds. Variances
    are floored at 1e-4 times the per-dimension data variance (itself
    floored at 1e-8), which keeps tiny corpora from collapsing a
    component; the floor is recorded on the model.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DimError(f"data must be (n, D), got shape {data.shape}")
    n, dim = data.shape
    if k < 1:
        raise FitError(f"component count must be >= 1, got {k}")
    if n < k:
        raise FitError(f"{n} samples cannot support {k} components")
    if k > 1 and np.all(data == data[0]):
        raise FitError("all samples identical: degenerate for k > 1")

    data_var = data.var(axis=0)
    floor_var = 1e-4 * np.maximum(data_var, 1e-8)
    sigma_floor = np.sqrt(floor_var)

    rng = np.random.default_rng(seed)
    centers = _kmeanspp_seeds(data, k, rng)
    # One hard-assignment M-step seeds weights, means and variances.
    d2 = ((data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assign = np.argmin(d2, axis=1)
    weights = np.empty(k)
    means = np.empty((k, dim))
    variances = np.empty((k, dim))
    for j in range(k):
        members = data[assign == j]
        weights[j] = members.shape[0] / n
        if members.shape[0] == 0:
            means[j] = centers[j]
            variances[j] = np.maximum(data_var, floor_var)
        else:
            means[j] = members.mean(axis=0)
            variances[j] = _floored_variance(members.var(axis=0)[None, :], floor_var)[0]

    model = GmmModel(weights, means, np.sqrt(variances), sigma_floor)
    trace: list[float] = []
    previous = model
    for it in range(max_iter + 1):
        lj = _log_joint(model, data)
        per_point = _logsumexp(lj, axis=1)
        ll = float(per_point.sum())
        if trace and ll < trace[-1]:
            # Variance flooring can nick EM's monotonicity right at
            # convergence; keep the previous, better iterate.
            model = previous
            break
        trace.append(ll)
        if len(trace) > 1 and (trace[-1] - trace[-2]) / n < tol:
            break
        if it == max_iter:
            break
        gamma = np.exp(lj - per_point[:, None])
        nk = gamma.sum(axis=0)
        new_weights = nk / nk.sum()
        new_means = model.means.copy()
        new_vars = model.sigmas.copy() ** 2
        for j in range(k):
            if nk[j] == 0.0:
                continue
            new_means[j] = gamma[:, j] @ data / nk[j]
            diff = data - new_means[j]
            new_vars[j] = _floored_variance(
                (gamma[:, j] @ (diff * diff) / nk[j])[None, :], floor_var)[0]
        previous = model
        model = GmmModel(new_weights, new_means, np.sqrt(new_vars), sigma_floor)
    return GmmModel(model.weights, model.means, model.sigmas, model.sigma_floor,
                    ll_trace=tuple(trace))


def sample(model: GmmModel, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Draw descriptors from the mixture: component proportional to its
    weight, then an independent Gaussian per dimension.

    Returns (D,) for `n=None`, else (n, D). Deterministic given the RNG
    state. Each draw takes one uniform (mapped to a component through
    the weights' cumulative sum) and then D standard normals, so a batch
    of n equals n single draws bit for bit and leaves the generator in
    the same state; the first m of n draws are the draws of a batch of m.
    """
    count = 1 if n is None else int(n)
    cdf = np.cumsum(model.weights)
    cdf /= cdf[-1]
    u = np.empty(count)
    eps = np.empty((count, model.dim))
    for i in range(count):
        u[i] = rng.random()
        eps[i] = rng.standard_normal(model.dim)
    ks = cdf.searchsorted(u, side="right")
    out = model.means[ks] + model.sigmas[ks] * eps
    return out[0] if n is None else out
