"""Diagonal-covariance Gaussian mixture model.

Provides EM fitting with k-means++ seeding, log-domain responsibilities,
dataset log-likelihood, and generative sampling (used as the visual
vocabulary and as the replacement sampler for feature perturbation).
Each works on a matrix, one row per descriptor: `responsibilities` and
`log_likelihood` take only (n, D) data, and `sample` draws the count it
is given.

All stochastic operations take an explicit ``numpy.random.Generator``;
nothing touches global RNG state.

EM works in matrix products (Sanchez et al., "Image Classification with
the Fisher Vector: Theory and Practice", IJCV 2013). With precisions
P = 1/sigma**2, the E-step's Mahalanobis term is expanded as

    sum_d (x_d - mu_kd)**2 P_kd = (x*x) @ P.T - 2 x @ (mu*P).T + sum_d mu_kd**2 P_kd

and the M-step takes every component at once: mu = gamma @ x / N_k and
sigma**2 = gamma @ (x*x) / N_k - mu**2, then the variance floor. Both
forms cancel where the direct differences do not. Their rounding error is
bounded by about (D + 4) eps sum_d (x_d**2 + mu_kd**2) / sigma_kd**2 on
the log-joint and (n + 4) eps (E_k[x_d**2] + mu_kd**2) on a variance
(eps the float64 round-off). `em_fit` floors every variance at 1e-4 times
the data variance v_d, which caps the first bound at
1e4 (D + 4) eps sum_d (x_d**2 + mu_kd**2) / v_d. For centred data such as
PCA output, where x_d**2 / v_d is a squared standard score, that is about
1e-9 at D = 16 and scores of order 1, and the second bound is about 2e-8
of the floor at n = 5000. `verification.check_em` holds both forms to
these bounds against the direct-difference oracles.

The E-step is component-major: the log-joint and the responsibilities
gamma are (K, n) arrays, so the per-point max and sum over the K
components run along the long n axis (numpy's max and sum along the
short axis of a (5000, 8) array took 8-27x as long on a 2-vCPU x86-64
host). Each EM iteration exponentiates the log-joint once; gamma and the
per-point log-likelihood come from the same exponentials (`_normalize`).
Only entries of lj - max at or above -700 are exponentiated; the rest are
exact zeros, which keeps numpy's `exp` off its slow underflow path and
moves no sum. The K rows are added in a sequential loop, so a point's
sum, and with it its gamma and its Fisher embedding, do not depend on the
batch it comes in.

`sample` takes all its randomness from one ``standard_normal((n, D + 1))``
block: per row, the first normal picks the component through the normal
quantiles of the cumulative weights, and the other D are the Gaussian
noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .errors import DimError, FitError, RangeError, ValidationError

_LOG_2PI = np.log(2.0 * np.pi)
# exponents of lj - max below this give exact zero responsibilities
_EXP_CUT = -700.0


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
        if not all(np.isfinite(a).all() for a in (w, m, s, fl)):
            raise ValidationError("non-finite GMM parameters")
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
    if data.ndim != 2 or data.shape[1] != model.dim:
        raise DimError(f"data {data.shape} is not (n, {model.dim})")
    return data


def _log_joint(model: GmmModel, data: np.ndarray,
               data_sq: np.ndarray | None = None) -> np.ndarray:
    """(K, n) array of log pi_k + log N(x; mu_k, sigma_k), component-major.

    The Mahalanobis term is expanded into two (n, D) x (D, K) products,
    so no (n, K, D) array is formed (see the module docstring). `data_sq`
    is `data * data` when the caller already holds it. The (n, K) result
    is transposed once into a contiguous (K, n) array, so the per-point
    reductions over the K components run along the long axis.

    A column's result does not depend on the other columns, bit for bit.
    numpy takes a matrix-vector product for a one-row matrix, which rounds
    otherwise than the matrix-matrix product of a taller one, so a lone
    row is evaluated stacked twice and the first copy kept. Multiplying
    in the (K, D) x (D, n) order instead would not keep this: the
    products would round differently from batch to batch.
    """
    if data.shape[0] == 1:
        return _log_joint(model, np.repeat(data, 2, axis=0))[:, :1]
    if data_sq is None:
        data_sq = data * data
    prec = 1.0 / (model.sigmas * model.sigmas)
    log_norm = -0.5 * model.dim * _LOG_2PI - np.log(model.sigmas).sum(axis=1)  # (K,)
    quad = data_sq @ prec.T
    quad -= 2.0 * (data @ (model.means * prec).T)
    lj = np.ascontiguousarray(quad.T)
    # log pi_k + (log_norm_k - 0.5 quad) in place, bit for bit, along n
    lj += (model.means * model.means * prec).sum(axis=1)[:, None]
    lj *= -0.5
    lj += log_norm[:, None]
    with np.errstate(divide="ignore"):
        lj += np.log(model.weights)[:, None]
    return lj


def _normalize(lj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-point log sum_k exp(lj_k) (n,) and responsibilities (K, n) from
    the (K, n) log-joint, with one exponentiation: e = exp(lj - max_k lj)
    and gamma = e / sum_k e.

    Entries of lj - max below -700 are set to exact zeros, not
    exponentiated: they are clipped to -700, exponentiated and multiplied
    by the mask of the kept entries. numpy's SIMD `exp` takes a slow path
    on arguments near and below the underflow point, and on a fitted GMM
    about half the entries lie there. A dropped entry is below
    e**-700 ~ 1e-304, so no kept gamma, sum or log-sum moves: each
    point's sum holds its peak's 1.0, which absorbs them.

    The K rows of e are added in a sequential loop, so every point's sum
    is ((e_1 + e_2) + e_3) + ... whatever n is. numpy's `sum(axis=0)`
    adds a single column pairwise but many columns row by row, which
    would make a point's gamma depend on its batch.
    """
    peak = lj.max(axis=0)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    e = lj - peak
    keep = e >= _EXP_CUT
    np.maximum(e, _EXP_CUT, out=e)
    np.exp(e, out=e)
    e *= keep
    total = e[0].copy()
    for row in e[1:]:
        total += row
    e /= total
    return np.log(total) + peak, e


def responsibilities(model: GmmModel, descriptors: np.ndarray) -> np.ndarray:
    """Posterior component probabilities gamma_k for each descriptor.

    Takes an (n, D) matrix and returns (n, K), the transposed view of the
    component-major (K, n) array `_normalize` forms, so each component's
    column is contiguous. Computed in the log domain, so extreme
    densities neither overflow nor underflow.
    """
    return _normalize(_log_joint(model, _check_dims(model, descriptors)))[1].T


def log_likelihood(model: GmmModel, data: np.ndarray) -> float:
    """Sum over descriptors of log sum_k pi_k N(x; mu_k, sigma_k)."""
    data = _check_dims(model, data)
    return float(_normalize(_log_joint(model, data))[0].sum())


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


def _m_step(model: GmmModel, data: np.ndarray, gamma: np.ndarray,
            floor_var: np.ndarray, data_sq: np.ndarray | None = None) -> GmmModel:
    """All components' weights, means and floored variances from the (K, n)
    responsibilities as matrix products. A component with no responsibility
    mass keeps its mean and sigma and gets weight 0. `data_sq` is as in
    `_log_joint`."""
    if data_sq is None:
        data_sq = data * data
    nk = gamma.sum(axis=1)
    live = (nk > 0.0)[:, None]
    denom = np.where(live, nk[:, None], 1.0)
    means = np.where(live, (gamma @ data) / denom, model.means)
    var = (gamma @ data_sq) / denom - means * means
    sigmas = np.where(live, np.sqrt(_floored_variance(var, floor_var)), model.sigmas)
    return GmmModel(nk / nk.sum(), means, sigmas, model.sigma_floor)


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
    data_sq = data * data  # both steps use x*x; the data never change
    trace: list[float] = []
    previous = model
    for it in range(max_iter + 1):
        per_point, gamma = _normalize(_log_joint(model, data, data_sq))
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
        previous = model
        model = _m_step(model, data, gamma, floor_var, data_sq)
    return GmmModel(model.weights, model.means, model.sigmas, model.sigma_floor,
                    ll_trace=tuple(trace))


def sample(model: GmmModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n descriptors from the mixture: component proportional to its
    weight, then an independent Gaussian per dimension.

    Returns (n, D); `n` must be a non-negative integer, not a bool.
    Deterministic given the RNG state. A batch is one
    ``rng.standard_normal((n, D + 1))`` call, and each row is one draw:
    its first normal z0 picks component k where
    ``Phi^-1(cdf_{k-1}) <= z0 < Phi^-1(cdf_k)`` (cdf the weights'
    normalised cumulative sum, Phi the standard normal CDF), so k has
    probability w_k and a zero-weight component is never drawn, and the
    other D are its Gaussian noise. The generator fills the block row by
    row, so a batch of n equals n batches of one bit for bit and leaves the
    generator in the same state; the first m of n draws are the draws of
    a batch of m.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise RangeError(f"draw count must be a non-negative integer, got {n!r}")
    cdf = np.cumsum(model.weights)
    cdf /= cdf[-1]
    normal = NormalDist()
    thresholds = np.array([-np.inf if p <= 0.0 else np.inf if p >= 1.0
                           else normal.inv_cdf(p) for p in cdf[:-1]])
    z = rng.standard_normal((n, model.dim + 1))
    ks = thresholds.searchsorted(z[:, 0], side="right")
    return model.means[ks] + model.sigmas[ks] * z[:, 1:]
