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
  receptive field (clipped to the image; clipping shrinks the divisor),
  added in descriptor order in one pass on the coarsest grid they tile.
  The pixel grid is the descriptor set's `image_size`.

The mapping matrix m_d(l) is the |L| x (1+2D)K embedding matrix Psi from
`embed_batch`, whose mean is the raw Fisher vector up to rounding (the
raw FV is taken from per-component moments). :func:`explain` computes
both once per image with `fisher.encode`, from one pass over the
responsibilities and deviations, the moment inputs `fisher` builds in
one place. R2 is one array pass over Psi's columns, summed in ascending
dimension order, so both layers are reproducible bit for bit. It reads
the columns as the rows of Psi's transpose; `encode` stores Psi that
way, so taking the transpose copies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptors import DescriptorSet, PcaModel, extract_dense, pca_apply
from .errors import DimError, RangeError, ValidationError, ZeroDenominatorError
from .fisher import embed_batch, encode, improve
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
    values = np.asarray(phi_x, dtype=np.float64)
    if values.shape[0] != model.dim:
        raise DimError(f"feature length {values.shape[0]} vs model dim {model.dim}")
    k = model.class_index(class_name)
    f = score(model, values, class_name)
    r3 = model.weights[k] * values + model.biases[k] / model.dim
    return R3Map(r3, class_name, f)


def relevance_r2(r3: R3Map, psi: np.ndarray, variant: str = DEFAULT_VARIANT,
                 epsilon: float = DEFAULT_EPSILON) -> R2Map:
    """Redistribute per-dimension relevance onto descriptors.

    `psi` is the |L| x (1+2D)K embedding matrix from `embed_batch`. Its
    columns are summed one at a time, and the per-dimension shares are
    added by one sequential reduction in ascending dimension order, so
    results are reproducible bit for bit. The columns are read as the
    rows of the C-contiguous transpose, which for `embed_batch`'s and
    `encode`'s output is the array they were built in (no copy); any
    other layout is copied once and gives the same bits. `psi` is never
    written.
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
    contrib = r3.values[:, None] * cols
    contrib /= denom[:, None]
    contrib[zero] = 0.0
    # Rows reduced from 0.0 add the dimensions in ascending order, as `r2 += share`
    # does; one column would collapse to numpy's pairwise sum, so n = 1 runs a cumsum.
    r2 = (np.add.reduce(contrib, axis=0, initial=0.0) if n > 1
          else np.cumsum(np.append(0.0, contrib))[-1:])
    xi = float(np.cumsum(np.append(0.0, r3.values[zero]))[-1]) / n
    r2 += xi
    eps_out = epsilon if variant == "epsilon" else None
    return R2Map(r2, variant, eps_out, np.flatnonzero(zero), xi,
                 r3.score, r3.class_name)


def relevance_r1(r2: R2Map, ds: DescriptorSet) -> Heatmap:
    """Spread descriptor relevance uniformly over clipped receptive fields.

    The pixel grid is the set's `image_size` (width, height), the image
    its descriptors were extracted from. One `bincount` adds the shares
    in descriptor order, as a per-descriptor loop would, on the grid of
    g x g cells (g: gcd of the clipped area edges), then expanded.
    """
    width, height = ds.image_size
    if len(ds) != r2.values.shape[0]:
        raise DimError(f"descriptor set size {len(ds)} vs R2 length {r2.values.shape[0]}")
    x, y, w, h = ds.areas.T
    x0, y0 = np.maximum(x, 0), np.maximum(y, 0)
    x1, y1 = np.minimum(x + w, width), np.minimum(y + h, height)
    keep = (x1 > x0) & (y1 > y0)
    share = r2.values[keep] / ((x1 - x0) * (y1 - y0))[keep]
    edges = np.stack((x0, y0, x1, y1))[:, keep]
    g = max(int(np.gcd.reduce(edges, axis=None)), 1)
    cx0, cy0, cx1, cy1 = edges // g
    gw, gh = -(-width // g), -(-height // g)
    cw, counts = cx1 - cx0, (cx1 - cx0) * (cy1 - cy0)
    owner = np.repeat(np.arange(share.size), counts)
    k = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    cells = (cy0[owner] + k // cw[owner]) * gw + cx0[owner] + k % cw[owner]
    grid = np.bincount(cells, share[owner], gh * gw).reshape(gh, gw)
    heat = np.repeat(np.repeat(grid, g, axis=0), g, axis=1)[:height, :width]
    return Heatmap(np.ascontiguousarray(heat))


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
    psi, raw = encode(gmm, ds.vectors)
    r3 = relevance_r3(svm, improve(raw), class_name)
    r2 = relevance_r2(r3, psi, variant=variant, epsilon=epsilon)
    heat = relevance_r1(r2, ds)
    f = r3.score
    k = svm.class_index(class_name)
    return Explanation(heat, r2, r3, f, f > float(svm.thresholds[k]), ds)
