"""Heatmap quality and context-use measurements.

Two instruments:

* Most-relevant-first local feature replacement. Descriptors are
  replaced, in batches, by samples drawn from the mixture model, and
  the raw Fisher vector is updated incrementally rather than
  recomputed. A whole trace is one array computation: the embeddings
  Psi of an image's descriptors and its raw FV x0 are computed once and
  shared by all of its traces; per trace, every replacement is drawn
  with one sampling call and embedded with one batch embedding, and the
  raw FV after step i is the cumulative update
  ``x_i = x0 + sum_{j<=i} sum_{l in batch j} (Psi(new_l) - Psi(old_l)) / |L|``.
  Each descriptor is replaced at most once. The score trace under the
  relevance-derived ordering is compared against random orderings via
  the area statistic ``A = mean_i (f(x) - f(x_i))`` and the fraction V
  of traces whose prediction switches sign.

* Outside-inside ratio mu = mean relevance outside the annotated boxes
  divided by mean relevance inside. In the default positive-only mode
  negative relevances are clamped to zero first. mu is only reported
  when the inside mean is positive and the outside mean non-negative;
  otherwise the measurement is flagged undefined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .descriptors import DescriptorSet, PcaModel, extract_dense, pca_apply
from .errors import (DimError, EmptyInputError, RangeError, UndefinedError,
                     ValidationError)
from .fisher import embed_batch, improve, mean_embedding
from .gmm import GmmModel, sample
from .imaging import BoundingBox, Heatmap
from .lrp_fv import R2Map, relevance_r2, relevance_r3
from .lrp_nn import (NeuralNet, image_to_input, lrp_alphabeta, lrp_epsilon,
                     nn_heatmap, nn_scores)
from .svm import SvmModel, score
from .synth import LabeledImage


@dataclass(frozen=True)
class MorfTrace:
    """One replacement run: scores after each batch of replacements."""

    ordering_id: str
    scores: np.ndarray         # f after step i, i = 1..I
    original_score: float      # f(x^(0)) = f(x)
    batch: int
    positive_flags: np.ndarray  # prediction still positive after step i
    class_name: str

    def __post_init__(self):
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=np.float64))
        object.__setattr__(self, "positive_flags",
                           np.asarray(self.positive_flags, dtype=bool))
        if self.scores.shape != self.positive_flags.shape:
            raise DimError("scores and flags must align")

    @property
    def steps(self) -> int:
        return self.scores.shape[0]


@dataclass(frozen=True)
class QualityStats:
    """Summary over a set of traces."""

    area: float                 # mean A
    switch_fraction: float      # V
    first_switch_histogram: np.ndarray  # count of first sign switches per step
    n_traces: int

    def __post_init__(self):
        if not 0.0 <= self.switch_fraction <= 1.0:
            raise ValidationError("switch fraction must lie in [0, 1]")


def morf_ordering(r2: R2Map) -> np.ndarray:
    """Descriptor indices by descending relevance, ties by ascending index."""
    n = r2.values.shape[0]
    return np.lexsort((np.arange(n), -r2.values))


def _check_trace_size(batch: int, steps: int, n: int) -> None:
    if batch < 1 or steps < 1:
        raise RangeError("batch and step count must be >= 1")
    if batch * steps > n:
        raise RangeError(f"batch*steps = {batch * steps} exceeds |L| = {n}")


class _Encoded(NamedTuple):
    """What every trace on one image starts from."""

    vectors: np.ndarray   # (|L|, D) descriptors
    emb: np.ndarray       # (|L|, (1+2D)K) embeddings Psi
    x0: np.ndarray        # raw FV


def _encode(gmm: GmmModel, ds: DescriptorSet) -> _Encoded:
    emb = embed_batch(gmm, ds.vectors)
    return _Encoded(ds.vectors, emb, mean_embedding(emb))


def _replace_trace(encoded: _Encoded, gmm: GmmModel, svm_model: SvmModel,
                   class_name: str, order: np.ndarray, batch: int, steps: int,
                   rng: np.random.Generator, ordering_id: str,
                   identity_replacement: bool = False,
                   state_out: dict | None = None) -> MorfTrace:
    """Whole-trace replacement kernel.

    Replaces descriptors ``order[:batch*steps]`` (distinct, in range) in
    `steps` batches. All replacements are drawn with one `sample` call
    and embedded with one `embed_batch` call; the raw FV after step i is
    ``x0 + cumsum`` of the per-batch sums of ``(Psi(new) - Psi(old))/|L|``.
    Each step is improved and scored on its own.
    """
    vectors, emb, x0 = encoded
    n = vectors.shape[0]
    idx = order[:batch * steps]
    new_vectors = vectors[idx] if identity_replacement else sample(gmm, rng, idx.size)
    delta = (embed_batch(gmm, new_vectors) - emb[idx]) / n
    xs = x0 + np.cumsum(delta.reshape(steps, batch, -1).sum(axis=1), axis=0)
    tau = float(svm_model.thresholds[svm_model.class_index(class_name)])
    f0 = score(svm_model, improve(x0), class_name)
    scores = np.array([score(svm_model, improve(x), class_name) for x in xs])
    if state_out is not None:
        mutated = vectors.copy()
        mutated[idx] = new_vectors
        state_out["fv"] = xs[-1]
        state_out["vectors"] = mutated
    return MorfTrace(ordering_id, scores, f0, batch, scores > tau, class_name)


def morf_replace(ds: DescriptorSet, gmm: GmmModel, svm_model: SvmModel,
                 r2: R2Map, batch: int, steps: int, rng: np.random.Generator,
                 ordering: np.ndarray | None = None,
                 ordering_id: str | None = None,
                 identity_replacement: bool = False,
                 state_out: dict | None = None) -> MorfTrace:
    """Replace descriptors most-relevant-first; score after each batch.

    `ordering` overrides the relevance-derived order (for random
    baselines); its first batch*steps entries must be distinct indices
    into the descriptor set. With `identity_replacement` each descriptor
    is "replaced" by itself, which must leave the score exactly
    unchanged (the incremental update is computed from the embedding
    difference, which is exactly zero). `state_out`, if given, receives
    the final raw FV ("fv") and the mutated descriptor matrix
    ("vectors").
    """
    n = len(ds)
    _check_trace_size(batch, steps, n)
    if r2.values.shape[0] != n:
        raise DimError("relevance map does not align with the descriptor set")
    if ordering is None:
        order = morf_ordering(r2)
    else:
        order = np.asarray(ordering, dtype=np.int64)
        if order.shape[0] < batch * steps:
            raise RangeError("explicit ordering too short for batch*steps")
        used = order[:batch * steps]
        if used.min() < 0 or used.max() >= n:
            raise RangeError(f"explicit ordering has indices outside [0, {n})")
        if np.unique(used).size != used.size:
            raise RangeError("explicit ordering repeats a descriptor")
    if ordering_id is None:
        ordering_id = (f"lrp-{r2.variant}" if ordering is None else "custom")
    return _replace_trace(_encode(gmm, ds), gmm, svm_model, r2.class_name,
                          order, batch, steps, rng, ordering_id,
                          identity_replacement, state_out)


def area_above(trace: MorfTrace) -> float:
    """A = (1/I) sum_i (f(x) - f(x_i))."""
    if trace.steps == 0:
        raise EmptyInputError("empty trace")
    return float(np.mean(trace.original_score - trace.scores))


def sign_switch_fraction(traces: list[MorfTrace]) -> QualityStats:
    """V and the first-switch histogram over positively-predicted traces."""
    if not traces:
        raise EmptyInputError("no traces")
    steps = max(t.steps for t in traces)
    hist = np.zeros(steps, dtype=np.int64)
    switched = 0
    areas = []
    for t in traces:
        if t.original_score <= 0.0:
            raise ValidationError(
                f"trace {t.ordering_id!r} starts from a non-positive prediction")
        areas.append(area_above(t))
        below = np.nonzero(t.scores < 0.0)[0]
        if below.size:
            switched += 1
            hist[below[0]] += 1
    return QualityStats(float(np.mean(areas)), switched / len(traces),
                        hist, len(traces))


@dataclass(frozen=True)
class OrderingReport:
    """A/V statistics per ordering strategy over a set of images."""

    class_name: str
    stats: dict                      # ordering id -> QualityStats
    per_repetition_area: dict        # ordering id -> (repetitions,) mean A
    traces: dict                     # ordering id -> list[MorfTrace]
    n_images: int
    batch: int
    steps: int


def compare_orderings(images, class_name: str, gmm: GmmModel, pca: PcaModel,
                      svm_model: SvmModel, variants=("epsilon",),
                      epsilon: float = 100.0, batch: int = 5, steps: int = 20,
                      repetitions: int = 5, seed: int = 0, patch: int = 16,
                      stride: int = 4) -> OrderingReport:
    """Relevance-derived orderings vs random orderings on one class.

    Only images the model predicts positive for `class_name` are used.
    Each ordering is run `repetitions` times with independent
    replacement-sampling seeds; random orderings also redraw the order
    itself per repetition.
    """
    tau = float(svm_model.thresholds[svm_model.class_index(class_name)])
    prepared = []
    for img in images:
        image = img.image if isinstance(img, LabeledImage) else img
        ds = pca_apply(pca, extract_dense(image, patch, stride))
        _check_trace_size(batch, steps, len(ds))
        encoded = _encode(gmm, ds)
        phi = improve(encoded.x0)
        f = score(svm_model, phi, class_name)
        # switch statistics need a sign to lose, so f > 0 on top of the
        # configured decision threshold
        if f > tau and f > 0.0:
            prepared.append((ds, encoded, phi))
    if not prepared:
        raise EmptyInputError(f"no positive predictions for class {class_name!r}")

    ordering_ids = [f"lrp-{v}" for v in variants] + ["random"]
    all_traces: dict = {oid: [] for oid in ordering_ids}
    rep_areas: dict = {oid: np.zeros(repetitions) for oid in ordering_ids}

    def run(oid, rep, encoded, order, rng):
        trace = _replace_trace(encoded, gmm, svm_model, class_name, order,
                               batch, steps, rng, oid)
        all_traces[oid].append(trace)
        rep_areas[oid][rep] += area_above(trace)

    for vi, variant in enumerate(variants):
        for ii, (_, encoded, phi) in enumerate(prepared):
            r3 = relevance_r3(svm_model, phi, class_name)
            order = morf_ordering(relevance_r2(r3, encoded.emb, variant=variant,
                                               epsilon=epsilon))
            for rep in range(repetitions):
                rng = np.random.default_rng(
                    np.random.SeedSequence((seed, 1 + vi, ii, rep)))
                run(f"lrp-{variant}", rep, encoded, order, rng)
    for ii, (ds, encoded, _) in enumerate(prepared):
        for rep in range(repetitions):
            rng = np.random.default_rng(np.random.SeedSequence((seed, 0, ii, rep)))
            run("random", rep, encoded, rng.permutation(len(ds)), rng)
    stats = {oid: sign_switch_fraction(ts) for oid, ts in all_traces.items()}
    per_rep = {oid: areas / len(prepared) for oid, areas in rep_areas.items()}
    return OrderingReport(class_name, stats, per_rep, all_traces,
                          len(prepared), batch, steps)


# ---------------------------------------------------------------------------
# Outside-inside context ratio


@dataclass(frozen=True)
class ContextRatio:
    mu: float
    defined: bool
    n_inside: int
    n_outside: int
    class_name: str = ""
    image_id: str = ""


def context_ratio(heatmap: Heatmap, boxes: list[BoundingBox],
                  mode: str = "positive", class_name: str = "",
                  image_id: str = "") -> ContextRatio:
    """mu = mean relevance outside the boxes / mean inside.

    `mode` is "positive" (clamp negatives to 0 first) or "all". The
    ratio is flagged undefined unless the inside mean is > 0 and the
    outside mean >= 0.
    """
    if mode not in ("positive", "all"):
        raise ValidationError(f"unknown mode {mode!r}")
    if not boxes:
        raise ValidationError("need at least one bounding box")
    h, w = heatmap.values.shape
    inside = np.zeros((h, w), dtype=bool)
    for box in boxes:
        inside |= box.mask(w, h)
    outside = ~inside
    if not outside.any():
        raise UndefinedError("boxes cover the entire image; no outside region")
    if not inside.any():
        raise UndefinedError("boxes have no pixels inside the image")
    values = heatmap.values
    if mode == "positive":
        values = np.maximum(values, 0.0)
    mean_in = float(values[inside].mean())
    mean_out = float(values[outside].mean())
    defined = mean_in > 0.0 and mean_out >= 0.0
    mu = mean_out / mean_in if defined else float("nan")
    return ContextRatio(mu, defined, int(inside.sum()), int(outside.sum()),
                        class_name, image_id)


@dataclass(frozen=True)
class ContextReport:
    """Per-class mean mu for the FV and NN heatmaps over true positives."""

    classes: tuple[str, ...]
    fv_mean: dict            # class -> mean mu or None when missing
    nn_mean: dict
    fv_values: dict          # class -> list of per-image ContextRatio
    nn_values: dict
    fv_undefined: dict       # class -> count of excluded undefined ratios
    nn_undefined: dict
    fv_true_positives: dict  # class -> count
    nn_true_positives: dict


def _mean_or_none(ratios: list) -> float | None:
    return float(np.mean([r.mu for r in ratios])) if ratios else None


def context_report(test_images: list[LabeledImage], gmm: GmmModel,
                   pca: PcaModel, svm_model: SvmModel, net: NeuralNet,
                   variant: str = "epsilon", epsilon: float = 100.0,
                   nn_rule: str = "alphabeta", nn_alpha: float = 2.0,
                   nn_beta: float = 1.0, nn_epsilon: float = 0.01,
                   mode: str = "positive", patch: int = 16,
                   stride: int = 4) -> ContextReport:
    """mu tables over each model's own true-positive test images."""
    from .lrp_fv import explain as fv_explain

    classes = svm_model.classes
    fv_vals: dict = {c: [] for c in classes}
    nn_vals: dict = {c: [] for c in classes}
    fv_undef = {c: 0 for c in classes}
    nn_undef = {c: 0 for c in classes}
    fv_tp = {c: 0 for c in classes}
    nn_tp = {c: 0 for c in classes}
    for img in test_images:
        nn_in = image_to_input(img.image, net.input_size)
        nn_out = nn_scores(net, nn_in)
        for c in img.labels:
            boxes = [b for b in img.boxes if b.label == c]
            if not boxes:
                continue
            expl = fv_explain(img.image, gmm, pca, svm_model, c,
                              variant=variant, epsilon=epsilon,
                              patch=patch, stride=stride)
            if expl.prediction_positive:
                fv_tp[c] += 1
                ratio = context_ratio(expl.heatmap, boxes, mode, c, img.image_id)
                if ratio.defined:
                    fv_vals[c].append(ratio)
                else:
                    fv_undef[c] += 1
            if nn_out[net.class_index(c)] > 0.0:
                nn_tp[c] += 1
                if nn_rule == "alphabeta":
                    rel = lrp_alphabeta(net, nn_in, c, nn_alpha, nn_beta)
                else:
                    rel = lrp_epsilon(net, nn_in, c, nn_epsilon)
                heat = nn_heatmap(rel, net.input_size,
                                  (img.image.width, img.image.height))
                ratio = context_ratio(heat, boxes, mode, c, img.image_id)
                if ratio.defined:
                    nn_vals[c].append(ratio)
                else:
                    nn_undef[c] += 1
    return ContextReport(
        classes,
        {c: _mean_or_none(fv_vals[c]) for c in classes},
        {c: _mean_or_none(nn_vals[c]) for c in classes},
        fv_vals, nn_vals, fv_undef, nn_undef, fv_tp, nn_tp)
