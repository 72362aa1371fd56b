"""Heatmap quality and context-use measurements.

Two instruments:

* Most-relevant-first local feature replacement. Descriptors are
  replaced, in batches, by samples drawn from the mixture model, and
  the raw Fisher vector is updated incrementally rather than
  recomputed. `compare_orderings` scores every image from its raw FV
  x0 and forms the embeddings Psi of its descriptors only for the
  images it keeps, both from one pass of `fisher`'s moment inputs
  (`fisher.encode_lazily`), so x0 and Psi are what `fisher.encode`
  gives and each image's responsibilities are computed once. All
  traces of an image are one array computation (`replace_traces`),
  dimension-major as Psi is stored: each trace draws its replacements with one
  sampling call on its own generator; the draws of every trace are embedded with one
  batch embedding; the raw FV after step i is the cumulative update
  ``x_i = x0 + sum_{j<=i} sum_{l in batch j} (Psi(new_l) - Psi(old_l)) / |L|``;
  and every step of every trace is improved and scored in one pass,
  by the `fisher.improve` and `svm.score` every other caller uses.
  `morf_replace` is its relevance-ordered single trace; the `verify`
  checks call `replace_traces` directly, so they check the kernel
  `compare_orderings` runs. The extra memory is the embedded draws and
  the embeddings they replace, each traces * batch * steps * (1+2D)K
  float64 values per image (2.1 MB at the defaults). Each descriptor is
  replaced at most once. The score trace under the relevance-derived
  ordering is compared against random orderings via the area statistic
  ``A = mean_i (f(x) - f(x_i))`` and the fraction V of traces whose
  prediction switches sign.

* Outside-inside ratio mu = mean relevance outside the annotated boxes
  divided by mean relevance inside, positive-only: negative relevances
  are clamped to zero first. mu is only reported when the inside mean
  is positive and the outside mean non-negative; otherwise the
  measurement is flagged undefined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptors import DescriptorSet, PcaModel, extract_dense, pca_apply
from .errors import (DimError, EmptyInputError, RangeError, UndefinedError,
                     ValidationError)
from .fisher import embed_batch, encode, encode_lazily, improve
from .gmm import GmmModel, sample
from .imaging import BoundingBox, Heatmap
from .lrp_fv import VARIANTS, R2Map, explain, relevance_r2, relevance_r3
from .lrp_nn import NeuralNet, image_to_input, lrp_alphabeta, nn_heatmap, nn_scores
from .svm import SvmModel, score
from .synth import LabeledImage


@dataclass(frozen=True)
class MorfTrace:
    """One replacement run: scores after each batch of replacements."""

    ordering_id: str
    scores: np.ndarray         # f after step i, i = 1..I
    original_score: float      # f(x^(0)) = f(x)
    batch: int
    class_name: str

    def __post_init__(self):
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=np.float64))

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


def _slot_major(a: np.ndarray, batch: int) -> np.ndarray:
    """Per-trace replacements (traces, steps*batch, ...) flattened in
    (batch slot, trace, step) order."""
    a = a.reshape(a.shape[0], -1, batch, *a.shape[2:])
    return np.moveaxis(a, 2, 0).reshape(-1, *a.shape[3:])


def replace_traces(vectors: np.ndarray, psi: np.ndarray, x0: np.ndarray,
                   gmm: GmmModel, svm_model: SvmModel, class_name: str,
                   plans: list, batch: int, steps: int,
                   identity_replacement: bool = False
                   ) -> tuple[list[MorfTrace], np.ndarray, np.ndarray]:
    """Replacement kernel: every trace of one image in one array pass.

    `vectors` are an image's descriptors, `psi` and `x0` their embeddings
    and raw FV, as `fisher.encode` gives them; `psi` may be in either
    memory order, with the same bits out. `plans` holds one (ordering
    id, order, rng) per trace; a trace replaces descriptors
    ``order[:batch*steps]`` (distinct, in range) in `steps` batches, with
    replacements drawn by one `sample` call on its own generator (or the
    descriptors themselves under `identity_replacement`).

    The kernel runs dimension-major, one FV dimension per row. All draws
    are embedded with one `embed_batch` call, its columns in (batch
    slot, trace, step) order, and the columns of `psi` they replace are
    subtracted in the same order. The per-batch sums of
    ``(Psi(new) - Psi(old)) / |L|`` add the batch slots row by row, in
    slot order, as a per-trace sum over the batch would; their
    ``cumsum`` over the steps plus x0 is the raw FV after each step. The
    (traces, steps) stack of them is improved and scored by one
    `improve` and one `score` call, which give each step what they give
    it alone.

    Memory beyond the inputs is the embedded draws and the gathered
    columns of `psi`, each traces * batch * steps * (1+2D)K float64
    values. `compare_orderings` runs (|variants|+1) * repetitions traces
    per image, 2.1 MB each at the defaults (10 traces, 100 draws, FV
    length 264).

    Returns the traces, the drawn descriptors (traces, batch*steps, D)
    and each trace's final raw FV (traces, (1+2D)K).
    """
    n = vectors.shape[0]
    m = batch * steps
    idxs = np.stack([order[:m] for _, order, _ in plans])
    draws = np.stack([vectors[idx] if identity_replacement else sample(gmm, rng, m)
                      for idx, (_, _, rng) in zip(idxs, plans)])
    delta = embed_batch(gmm, _slot_major(draws, batch)).T
    delta -= psi.T.take(_slot_major(idxs, batch), axis=1)
    delta /= n
    delta = delta.reshape(-1, batch, len(plans), steps)
    # the batch sum row by row, ((d_1 + d_2) + d_3) + ...; `sum(axis=1)` adds
    # pairwise once one trace of one step leaves a single column per dimension
    per_step = delta[:, 0].copy()
    for slot in range(1, batch):
        per_step += delta[:, slot]
    xs = np.ascontiguousarray(np.cumsum(per_step, axis=2).transpose(1, 2, 0))
    xs += x0
    f0 = score(svm_model, improve(x0), class_name)
    scores = score(svm_model, improve(xs), class_name)
    traces = [MorfTrace(oid, row, f0, batch, class_name)
              for (oid, _, _), row in zip(plans, scores)]
    return traces, draws, xs[:, -1]


def morf_replace(ds: DescriptorSet, gmm: GmmModel, svm_model: SvmModel,
                 r2: R2Map, batch: int, steps: int,
                 rng: np.random.Generator) -> MorfTrace:
    """Replace descriptors most-relevant-first; score after each batch.

    The relevance-ordered single trace of `replace_traces`; checks that
    need the kernel's other inputs or outputs (an explicit ordering,
    identity replacement, the draws or the final raw FV) call
    `replace_traces` directly.
    """
    _check_trace_size(batch, steps, len(ds))
    if r2.values.shape[0] != len(ds):
        raise DimError("relevance map does not align with the descriptor set")
    psi, x0 = encode(gmm, ds.vectors)
    (trace,), _, _ = replace_traces(
        ds.vectors, psi, x0, gmm, svm_model, r2.class_name,
        [(f"lrp-{r2.variant}", morf_ordering(r2), rng)], batch, steps)
    return trace


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
    stats: dict                      # ordering id -> QualityStats, None if no image
    per_repetition_area: dict        # ordering id -> (repetitions,) mean A, empty if no image
    traces: dict                     # ordering id -> list[MorfTrace]
    n_images: int
    batch: int
    steps: int


def compare_orderings(images: list[LabeledImage], class_name: str,
                      gmm: GmmModel, pca: PcaModel, svm_model: SvmModel,
                      variants=("epsilon",), epsilon: float = 100.0,
                      batch: int = 5, steps: int = 20, repetitions: int = 5,
                      seed: int = 0, patch: int = 16, stride: int = 4) -> OrderingReport:
    """Relevance-derived orderings vs random orderings on one class.

    Only images the model predicts positive for `class_name` are used;
    each image is scored from its raw FV, and the embeddings behind the
    traces are formed, from the same moment inputs, only for the images
    kept.
    Each ordering is run `repetitions` times with independent
    replacement-sampling seeds; random orderings also redraw the order
    itself per repetition. With no positive image, A and V are undefined:
    the report has `n_images` 0, no traces and None for every ordering's
    stats.
    """
    if not variants:
        raise ValidationError("need at least one relevance variant")
    unknown = [v for v in variants if v not in VARIANTS]
    if unknown:
        raise ValidationError(f"unknown variants {unknown}; expected from {VARIANTS}")
    if len(set(variants)) != len(variants):
        raise ValidationError(f"variants repeat: {list(variants)}")
    if repetitions < 1:
        raise RangeError("repetitions must be >= 1")
    tau = float(svm_model.thresholds[svm_model.class_index(class_name)])
    ordering_ids = [f"lrp-{v}" for v in variants] + ["random"]
    all_traces: dict = {oid: [] for oid in ordering_ids}
    rep_areas: dict = {oid: np.zeros(repetitions) for oid in ordering_ids}
    kept = 0
    for img in images:
        vectors = pca_apply(pca, extract_dense(img.image, patch, stride)).vectors
        _check_trace_size(batch, steps, len(vectors))
        x0, psi_of = encode_lazily(gmm, vectors)
        phi = improve(x0)
        f = score(svm_model, phi, class_name)
        # switch statistics need a sign to lose, so f > 0 on top of the
        # configured decision threshold
        if not (f > tau and f > 0.0):
            continue
        ii, kept = kept, kept + 1
        psi = psi_of()
        r3 = relevance_r3(svm_model, phi, class_name)
        plans = []
        for vi, variant in enumerate(variants):
            order = morf_ordering(relevance_r2(r3, psi, variant=variant,
                                               epsilon=epsilon))
            plans += [(f"lrp-{variant}", order, np.random.default_rng(
                np.random.SeedSequence((seed, 1 + vi, ii, rep))))
                for rep in range(repetitions)]
        for rep in range(repetitions):
            rng = np.random.default_rng(np.random.SeedSequence((seed, 0, ii, rep)))
            plans.append(("random", rng.permutation(len(vectors)), rng))
        traces, _, _ = replace_traces(vectors, psi, x0, gmm, svm_model,
                                      class_name, plans, batch, steps)
        for t, trace in enumerate(traces):
            all_traces[trace.ordering_id].append(trace)
            rep_areas[trace.ordering_id][t % repetitions] += area_above(trace)
    if not kept:
        return OrderingReport(class_name, dict.fromkeys(ordering_ids),
                              {oid: np.zeros(0) for oid in ordering_ids},
                              all_traces, 0, batch, steps)
    stats = {oid: sign_switch_fraction(ts) for oid, ts in all_traces.items()}
    per_rep = {oid: areas / kept for oid, areas in rep_areas.items()}
    return OrderingReport(class_name, stats, per_rep, all_traces,
                          kept, batch, steps)


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
                  class_name: str = "", image_id: str = "") -> ContextRatio:
    """mu = mean positive relevance outside the boxes / mean inside.

    Negative relevances are clamped to 0 first. The ratio is flagged
    undefined unless the inside mean is > 0 and the outside mean >= 0.
    """
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
    values = np.maximum(heatmap.values, 0.0)
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
                   nn_alpha: float = 2.0, nn_beta: float = 1.0,
                   patch: int = 16, stride: int = 4) -> ContextReport:
    """Positive-only mu tables over each model's own true-positive test
    images; the network heatmap comes from the alpha-beta rule. Each
    (image, labelled class) with a box counts, for each model that
    predicts it positive, once as a true positive and once as a defined
    or an undefined mu."""
    classes = svm_model.classes
    values = {m: {c: [] for c in classes} for m in ("fv", "nn")}
    undefined = {m: dict.fromkeys(classes, 0) for m in ("fv", "nn")}
    true_pos = {m: dict.fromkeys(classes, 0) for m in ("fv", "nn")}
    for img in test_images:
        nn_in = image_to_input(img.image, net.input_size)
        nn_out = nn_scores(net, nn_in)
        for c in img.labels:
            boxes = [b for b in img.boxes if b.label == c]
            if not boxes:
                continue
            expl = explain(img.image, gmm, pca, svm_model, c, variant=variant,
                           epsilon=epsilon, patch=patch, stride=stride)
            positive = [("fv", expl.heatmap)] if expl.prediction_positive else []
            if nn_out[net.class_index(c)] > 0.0:
                rel = lrp_alphabeta(net, nn_in, c, nn_alpha, nn_beta)
                positive.append(("nn", nn_heatmap(
                    rel, net.input_size, (img.image.width, img.image.height))))
            for model, heat in positive:
                true_pos[model][c] += 1
                ratio = context_ratio(heat, boxes, c, img.image_id)
                if ratio.defined:
                    values[model][c].append(ratio)
                else:
                    undefined[model][c] += 1
    means = {m: {c: _mean_or_none(values[m][c]) for c in classes} for m in values}
    return ContextReport(classes, means["fv"], means["nn"], values["fv"],
                         values["nn"], undefined["fv"], undefined["nn"],
                         true_pos["fv"], true_pos["nn"])
