"""Relevance propagation through the Fisher-vector pipeline.

The classifier score is decomposed in three stages:

* R3 — per FV dimension d: ``R3_d = w_d phi(x)_d + b/D`` where D is the
  full FV length, so ``sum_d R3_d = f(x)`` by construction.
* R2 — per local descriptor l, redistributing each dimension's R3_d in
  proportion to the descriptor's mapping contribution m_d(l) (the
  per-descriptor embedding value). Dimensions whose mapping column is
  identically zero form the set Z(x); their relevance is spread
  uniformly as the per-descriptor offset xi. Three redistribution
  variants: plain (refuses exactly-zero column sums), epsilon-stabilized
  (denominator ``colsum + eps*sgn(colsum)``, sgn(0)=+1), and absolute
  (proportional to |m_d(l)|, always conserving).
* R1 — per pixel, spreading each descriptor's R2_l uniformly over its
  receptive field (clipped to the image; clipping shrinks the divisor).

The mapping matrix m_d(l) is the |L| x (1+2D)K embedding matrix Psi from
`embed_batch`, whose mean is the raw Fisher vector. :func:`explain`
computes it once per image and uses it for both the FV and R2, and R2 is
one array pass over its columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptors import DescriptorSet, PcaModel, extract_dense, pca_apply
from .errors import DimError, RangeError, ValidationError, ZeroDenominatorError
from .fisher import embed_batch, improve, mean_embedding
from .gmm import GmmModel
from .imaging import Heatmap, Image
from .svm import SvmModel, score

VARIANTS = ("plain", "epsilon", "absolute")
DEFAULT_VARIANT = "epsilon"
DEFAULT_EPSILON = 100.0


def _check_conservation(total: float, target: float, what: str) -> None:
    if abs(total - target) > 1e-9 * max(1.0, abs(target)):
        raise ValidationError(f"{what} sums to {total!r}, expected {target!r}")


@dataclass(frozen=True)
class R3Map:
    """Relevance per FV dimension for one class; sums to the score."""

    values: np.ndarray
    class_name: str
    score: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        _check_conservation(float(v.sum()), self.score, "R3")


@dataclass(frozen=True)
class R2Map:
    """Relevance per descriptor; records the variant and the Z(x)/xi split."""

    values: np.ndarray
    variant: str
    epsilon: float | None
    zero_dims: np.ndarray     # sorted indices of Z(x)
    xi: float                 # uniform per-descriptor share from Z(x)
    score: float              # f(x) the R3 layer summed to
    class_name: str = ""

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(v)):
            raise ValidationError("non-finite descriptor relevances")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "zero_dims",
                           np.asarray(self.zero_dims, dtype=np.int64))
        if self.variant == "absolute":
            _check_conservation(float(v.sum()), self.score, "absolute-variant R2")


class FvMappingView:
    """Column access to m_d(l) = Psi(l)_d, the columns of `embed_batch`.

    Nothing in the package builds one: `relevance_r2` takes the whole
    matrix. The class stays because the benchmark traces
    `lrp_fv.FvMappingView.column` by name.
    """

    def __init__(self, model: GmmModel, descriptors: DescriptorSet | np.ndarray):
        vectors = (descriptors.vectors if isinstance(descriptors, DescriptorSet)
                   else descriptors)
        self._psi = embed_batch(model, vectors)

    def column(self, d: int) -> np.ndarray:
        return np.ascontiguousarray(self._psi[:, d])


def relevance_r3(model: SvmModel, phi_x, class_name: str) -> R3Map:
    """Primal decomposition R3_d = w_d phi(x)_d + b/D."""
    values = phi_x.values if hasattr(phi_x, "values") else np.asarray(phi_x, dtype=np.float64)
    if values.shape[0] != model.dim:
        raise DimError(f"feature length {values.shape[0]} vs model dim {model.dim}")
    k = model.class_index(class_name)
    f = score(model, values, class_name)
    r3 = model.weights[k] * values + model.biases[k] / model.dim
    return R3Map(r3, class_name, f)


def relevance_r3_dual(model: SvmModel, phi_x, class_name: str) -> R3Map:
    """Support-vector form: R3_d = sum_i a_i y_i phi(x_i)_d phi(x)_d + b/D."""
    values = phi_x.values if hasattr(phi_x, "values") else np.asarray(phi_x, dtype=np.float64)
    k = model.class_index(class_name)
    if model.duals is None or model.duals[k] is None:
        raise ValidationError(f"no dual view stored for class {class_name!r}")
    dual = model.duals[k]
    w_dual = (dual.alphas * dual.labels) @ dual.features
    r3 = w_dual * values + model.biases[k] / model.dim
    return R3Map(r3, class_name, float(r3.sum()))


def relevance_r2(r3: R3Map, psi: np.ndarray, variant: str = DEFAULT_VARIANT,
                 epsilon: float = DEFAULT_EPSILON) -> R2Map:
    """Redistribute per-dimension relevance onto descriptors.

    `psi` is the |L| x (1+2D)K embedding matrix from `embed_batch`. Its
    columns are summed one at a time, and the per-dimension shares are
    accumulated in ascending dimension order, so results are
    reproducible bit for bit.
    """
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    psi = np.asarray(psi, dtype=np.float64)
    if psi.ndim != 2:
        raise DimError("mapping matrix must be 2-d (descriptors x dims)")
    n = psi.shape[0]
    if n < 1:
        raise ValidationError("need at least one descriptor")
    if r3.values.shape[0] != psi.shape[1]:
        raise DimError(f"R3 length {r3.values.shape[0]} vs mapping dims {psi.shape[1]}")
    if variant == "epsilon" and not epsilon > 0.0:
        raise RangeError("epsilon variant needs epsilon > 0")

    cols = np.ascontiguousarray(psi.T)
    zero = ~cols.any(axis=1)
    if variant == "absolute":
        cols = np.abs(cols)
    colsum = cols.sum(axis=1)
    if variant == "plain":
        bad = np.flatnonzero((colsum == 0.0) & ~zero)
        if bad.size:
            raise ZeroDenominatorError(
                f"dimension {bad[0]}: column sum is exactly 0; "
                "use the epsilon or absolute variant")
        denom = colsum
    elif variant == "epsilon":
        denom = np.where(colsum >= 0.0, colsum + epsilon, colsum - epsilon)
    else:
        denom = colsum
    denom[zero] = 1.0
    contrib = (r3.values[:, None] * cols) / denom[:, None]
    contrib[zero] = 0.0
    # A sequential running sum from a zero row adds the dimensions in
    # ascending order, like a loop of `r2 += share`.
    r2 = np.cumsum(np.vstack((np.zeros(n), contrib)), axis=0)[-1]
    xi = float(np.cumsum(np.append(0.0, r3.values[zero]))[-1]) / n
    r2 += xi
    eps_out = epsilon if variant == "epsilon" else None
    return R2Map(r2, variant, eps_out, np.flatnonzero(zero), xi,
                 r3.score, r3.class_name)


def relevance_r1(r2: R2Map, ds: DescriptorSet, dims: tuple[int, int]) -> Heatmap:
    """Spread descriptor relevance uniformly over clipped receptive fields.

    `dims` is (width, height) of the target pixel grid.
    """
    width, height = dims
    if len(ds) != r2.values.shape[0]:
        raise DimError(f"descriptor set size {len(ds)} vs R2 length {r2.values.shape[0]}")
    heat = np.zeros((height, width))
    for rel, (x, y, w, h) in zip(r2.values, ds.areas):
        x0, y0 = max(int(x), 0), max(int(y), 0)
        x1, y1 = min(int(x + w), width), min(int(y + h), height)
        if x1 <= x0 or y1 <= y0:
            continue
        heat[y0:y1, x0:x1] += rel / ((x1 - x0) * (y1 - y0))
    return Heatmap(heat)


@dataclass(frozen=True)
class Explanation:
    heatmap: Heatmap
    r2: R2Map
    r3: R3Map
    score: float
    prediction_positive: bool
    descriptors: DescriptorSet  # the projected descriptors R2 is laid over


def explain(image: Image, gmm: GmmModel, pca: PcaModel, svm: SvmModel,
            class_name: str, variant: str = DEFAULT_VARIANT,
            epsilon: float = DEFAULT_EPSILON, patch: int = 16,
            stride: int = 4) -> Explanation:
    """End-to-end: image -> descriptors -> FV -> score -> R3 -> R2 -> R1."""
    ds = pca_apply(pca, extract_dense(image, patch, stride))
    psi = embed_batch(gmm, ds.vectors)
    phi = improve(mean_embedding(psi))
    f = score(svm, phi, class_name)
    r3 = relevance_r3(svm, phi, class_name)
    r2 = relevance_r2(r3, psi, variant=variant, epsilon=epsilon)
    heat = relevance_r1(r2, ds, (image.width, image.height))
    k = svm.class_index(class_name)
    return Explanation(heat, r2, r3, f, f > float(svm.thresholds[k]), ds)
