"""Replacement curves and the outside-inside ratio."""

import copy
import dataclasses

import numpy as np
import pytest

from fvlrp import evaluation
from fvlrp.config import PipelineConfig
from fvlrp.descriptors import DescriptorSet, extract_dense, pca_apply
from fvlrp.errors import (EmptyInputError, RangeError, UndefinedError,
                          ValidationError)
from fvlrp.evaluation import (MorfTrace, area_above, compare_orderings,
                              context_ratio, context_report, morf_ordering,
                              morf_replace, replace_traces,
                              sign_switch_fraction)
from fvlrp.fisher import aggregate, embed_batch, encode, improve
from fvlrp.gmm import GmmModel, em_fit
from fvlrp.imaging import BoundingBox, Heatmap
from fvlrp.lrp_fv import relevance_r2, relevance_r3
from fvlrp.pipeline import train_all
from fvlrp.svm import SvmModel, score
from fvlrp.synth import generate_corpus, two_class_spec
from fvlrp.verification import (oracle_replace_trace, random_descriptor_set,
                                random_gmm, random_svm)


def make_r2(gmm, ds, model, cls="a", variant="epsilon"):
    phi = improve(aggregate(gmm, ds.vectors))
    r3 = relevance_r3(model, phi, cls)
    return relevance_r2(r3, embed_batch(gmm, ds.vectors), variant=variant)


def toy_setup(rng, n=30, dim=3, k=2):
    vectors = rng.normal(size=(200, dim))
    gmm = em_fit(vectors, k, seed=1)
    areas = np.tile([0, 0, 4, 4], (n, 1))
    ds = DescriptorSet(rng.normal(size=(n, dim)), areas, (16, 16))
    fv_len = k * (1 + 2 * dim)
    w = rng.normal(size=(1, fv_len))
    model = SvmModel(("a",), w, np.array([0.1]))
    return gmm, ds, model


def test_ordering_is_descending_with_index_ties():
    from fvlrp.lrp_fv import R2Map
    r2 = R2Map(np.array([1.0, 2.0, 2.0, 0.0]), "plain", None,
               np.array([], dtype=np.int64), 0.0, 5.0, "a")
    assert list(morf_ordering(r2)) == [1, 2, 0, 3]


def test_area_above_hand_value():
    trace = MorfTrace("t", np.array([0.5, 0.0, 0.25]), 1.0, 1, "a")
    assert area_above(trace) == pytest.approx(0.75)
    # one step is a trace; no step is not
    assert area_above(MorfTrace("t", np.array([0.25]), 1.0, 1, "a")) == 0.75
    with pytest.raises(EmptyInputError):
        area_above(MorfTrace("t", np.zeros(0), 1.0, 1, "a"))


def test_switch_fraction_counts_first_dips():
    mk = lambda scores: MorfTrace("t", np.asarray(scores), 1.0, 1, "a")
    stats = sign_switch_fraction([mk([0.5, -0.1, -0.2]),
                                  mk([0.9, 0.8, 0.7]),
                                  mk([-1.0, 0.5, -0.5])])
    assert stats.switch_fraction == pytest.approx(2 / 3)
    assert list(stats.first_switch_histogram) == [1, 1, 0]
    assert stats.n_traces == 3
    with pytest.raises(ValidationError):
        sign_switch_fraction([MorfTrace("t", np.array([0.5]), -1.0, 1, "a")])
    with pytest.raises(EmptyInputError):
        sign_switch_fraction([])
    # ties at zero: a start at exactly 0.0 has no sign to lose, and a step
    # at exactly 0.0 has not switched
    with pytest.raises(ValidationError):
        sign_switch_fraction([MorfTrace("t", np.array([0.5]), 0.0, 1, "a")])
    stats = sign_switch_fraction([mk([0.5, 0.0, 0.0])])
    assert stats.switch_fraction == 0.0
    assert list(stats.first_switch_histogram) == [0, 0, 0]


def single_trace(gmm, ds, model, order, batch, steps, rng,
                 identity_replacement=False):
    """One trace through the kernel; returns it with the mutated
    descriptor matrix and the final raw FV."""
    psi, x0 = encode(gmm, ds.vectors)
    (trace,), draws, final = replace_traces(
        ds.vectors, psi, x0, gmm, model, "a", [("t", order, rng)], batch,
        steps, identity_replacement)
    mutated = ds.vectors.copy()
    mutated[order[:batch * steps]] = draws[0]
    return trace, mutated, final[0]


def test_identity_replacement_keeps_score(rng):
    gmm, ds, model = toy_setup(rng)
    r2 = make_r2(gmm, ds, model)
    f0 = score(model, improve(aggregate(gmm, ds.vectors)), "a")
    trace, mutated, _ = single_trace(gmm, ds, model, morf_ordering(r2), 3, 5,
                                     rng, identity_replacement=True)
    np.testing.assert_array_equal(trace.scores, np.full(5, f0))
    assert trace.original_score == f0
    np.testing.assert_array_equal(mutated, ds.vectors)


def test_incremental_update_matches_batch_recompute(rng):
    gmm, ds, model = toy_setup(rng, n=20)
    r2 = make_r2(gmm, ds, model)
    _, mutated, final = single_trace(gmm, ds, model, morf_ordering(r2), 4, 5,
                                     np.random.default_rng(3))
    np.testing.assert_allclose(final, aggregate(gmm, mutated), atol=1e-10)


def test_replacement_range_checks(rng):
    gmm, ds, model = toy_setup(rng, n=10)
    r2 = make_r2(gmm, ds, model)
    with pytest.raises(RangeError):
        morf_replace(ds, gmm, model, r2, batch=3, steps=4, rng=rng)
    with pytest.raises(RangeError):
        morf_replace(ds, gmm, model, r2, batch=0, steps=1, rng=rng)


def test_every_step_matches_recomputed_score(rng):
    gmm, ds, model = toy_setup(rng, n=24)
    r2 = make_r2(gmm, ds, model)
    order = morf_ordering(r2)
    full = morf_replace(ds, gmm, model, r2, batch=3, steps=6,
                        rng=np.random.default_rng(17))
    for i in range(1, 7):
        # draws are prefix-stable, so the first i steps replay exactly
        part, mutated, _ = single_trace(gmm, ds, model, order, 3, i,
                                        np.random.default_rng(17))
        assert np.array_equal(part.scores, full.scores[:i])
        oracle = aggregate(gmm, mutated)
        expect = score(model, improve(oracle), "a")
        assert full.scores[i - 1] == pytest.approx(expect, rel=1e-9, abs=1e-12)
        changed = np.nonzero(np.any(mutated != ds.vectors, axis=1))[0]
        assert sorted(changed) == sorted(order[:3 * i])


@pytest.mark.parametrize("batch, steps", [(1, 7), (6, 1), (1, 1)])
def test_morf_replace_with_one_descriptor_or_one_step_is_the_oracle(batch, steps):
    rng = np.random.default_rng([12, batch, steps])
    gmm, ds, model = toy_setup(rng, n=20)
    r2 = make_r2(gmm, ds, model)
    trace = morf_replace(ds, gmm, model, r2, batch, steps,
                         np.random.default_rng(8))
    psi, x0 = encode(gmm, ds.vectors)
    want = oracle_replace_trace(ds.vectors, psi, x0, gmm, model, "a",
                                morf_ordering(r2), batch, steps,
                                np.random.default_rng(8), "lrp-epsilon")
    assert trace.ordering_id == want.ordering_id and trace.steps == steps
    assert trace.scores.tobytes() == want.scores.tobytes()
    assert trace.original_score == want.original_score


def test_constant_classifier_has_zero_area(rng):
    gmm, ds, model = toy_setup(rng)
    fv_len = model.dim
    flat = SvmModel(("a",), np.zeros((1, fv_len)), np.array([2.0]))
    r2 = make_r2(gmm, ds, flat)
    trace = morf_replace(ds, gmm, flat, r2, batch=2, steps=5, rng=rng)
    assert area_above(trace) == 0.0
    assert trace.original_score == 2.0


def test_replacement_is_seed_deterministic(rng):
    gmm, ds, model = toy_setup(rng)
    r2 = make_r2(gmm, ds, model)
    a = morf_replace(ds, gmm, model, r2, 2, 6, np.random.default_rng(42))
    b = morf_replace(ds, gmm, model, r2, 2, 6, np.random.default_rng(42))
    np.testing.assert_array_equal(a.scores, b.scores)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def kernel_against_oracle(vectors, psi, x0, gmm, model, cls, plans, batch,
                          steps, identity_replacement=False):
    """Run the kernel on `plans` and each plan through the per-trace
    oracle from a copy of its generator; assert they agree bit for bit."""
    copies = [(oid, order, copy.deepcopy(rng)) for oid, order, rng in plans]
    result = replace_traces(vectors, psi, x0, gmm, model, cls, plans, batch,
                            steps, identity_replacement)
    traces, draws, final = result
    assert len(traces) == len(plans)
    m = batch * steps
    for t, (oid, order, rng) in enumerate(copies):
        state = {}
        want = oracle_replace_trace(vectors, psi, x0, gmm, model, cls, order,
                                    batch, steps, rng, oid,
                                    identity_replacement, state)
        got = traces[t]
        assert got.ordering_id == oid and got.batch == batch
        assert same_bits(got.scores, want.scores)
        assert same_bits(got.original_score, want.original_score)
        assert same_bits(final[t], state["fv"])
        assert same_bits(draws[t], state["vectors"][order[:m]])
    return result


@pytest.fixture(scope="module")
def fixed_workload():
    """The benchmark's fixed workload: seed 0, 100 train and 20 test
    images per class."""
    config = PipelineConfig(seed=0)
    spec = two_class_spec(0.0, seed=0, train_per_class=100, test_per_class=20)
    train_imgs, test_imgs = generate_corpus(spec)
    bundle = train_all(train_imgs, spec.class_names, config, with_nn=False)
    return config, bundle, test_imgs


def test_kernel_matches_oracle_on_fixed_workload(fixed_workload, monkeypatch):
    config, bundle, test_imgs = fixed_workload
    checked = []

    def checked_kernel(*args):
        traces = kernel_against_oracle(*args)[0]
        checked.extend(traces)
        return traces, None, None

    monkeypatch.setattr(evaluation, "replace_traces", checked_kernel)
    for cls in bundle.classes:
        rep = compare_orderings(
            test_imgs, cls, bundle.gmm, bundle.pca, bundle.svm,
            variants=(config.variant,), epsilon=config.epsilon,
            batch=config.morf_batch, steps=config.morf_steps,
            repetitions=config.morf_repetitions, seed=config.seed)
        reported = [t for ts in rep.traces.values() for t in ts]
        assert len(reported) == 2 * rep.n_images * config.morf_repetitions
    assert len(checked) == 400


MICRO_CASES = {
    # name: (n, batch, steps, zero-weight component, identity)
    "batch-1": (20, 1, 7, False, False),
    "steps-1": (20, 6, 1, False, False),
    "all-descriptors": (12, 3, 4, False, False),
    "single-draw": (5, 1, 1, False, False),
    "zero-weight-component": (18, 2, 5, True, False),
    "identity": (15, 3, 5, False, True),
}


@pytest.mark.parametrize("case", list(MICRO_CASES))
def test_kernel_matches_oracle_on_micro_problems(case):
    n, batch, steps, zero_weight, identity = MICRO_CASES[case]
    for seed in range(4):
        rng = np.random.default_rng([2024, seed, list(MICRO_CASES).index(case)])
        k, dim = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        gmm = random_gmm(rng, k, dim)
        if zero_weight:
            w = gmm.weights.copy()
            w[1] = 0.0
            gmm = GmmModel(w / w.sum(), gmm.means, gmm.sigmas, gmm.sigma_floor)
        ds = random_descriptor_set(rng, n, dim)
        model = random_svm(rng, (1 + 2 * dim) * k)
        psi, x0 = encode(gmm, ds.vectors)
        r3 = relevance_r3(model, improve(x0), "c")
        plans = []
        # two relevance variants and a random ordering in one call
        for vi, variant in enumerate(("epsilon", "absolute")):
            order = morf_ordering(relevance_r2(r3, psi, variant=variant))
            plans += [(f"lrp-{variant}", order, np.random.default_rng([seed, vi, r]))
                      for r in range(2)]
        for r in range(2):
            perm_rng = np.random.default_rng([seed, 9, r])
            plans.append(("random", perm_rng.permutation(n), perm_rng))
        traces, _, _ = kernel_against_oracle(ds.vectors, psi, x0, gmm, model,
                                             "c", plans, batch, steps, identity)
        if identity:
            for t in traces:
                assert np.all(t.scores == t.original_score)


@pytest.mark.parametrize("identity", [False, True])
@pytest.mark.parametrize("traces, batch, steps", [(1, 8, 1), (1, 1, 4), (5, 3, 4)])
def test_kernel_does_not_depend_on_psi_memory_order(identity, traces, batch, steps):
    """Traces, draws and final raw FVs are the same bits, and the oracle's,
    whether Psi is the transposed view `encode` gives or row-major."""
    rng = np.random.default_rng([31, traces, batch, steps])
    gmm = random_gmm(rng, 4, 3)
    ds = random_descriptor_set(rng, 20, 3)
    model = random_svm(rng, gmm.n_components * 7)
    psi, x0 = encode(gmm, ds.vectors)
    orders = [rng.permutation(20) for _ in range(traces)]
    results = []
    for layout in (psi, np.ascontiguousarray(psi)):
        plans = [("t", order, np.random.default_rng([5, t]))
                 for t, order in enumerate(orders)]
        results.append(kernel_against_oracle(ds.vectors, layout, x0, gmm, model,
                                             "c", plans, batch, steps, identity))
    (traces_a, draws_a, final_a), (traces_b, draws_b, final_b) = results
    assert all(same_bits(a.scores, b.scores) for a, b in zip(traces_a, traces_b))
    assert same_bits(draws_a, draws_b) and same_bits(final_a, final_b)


def test_compare_orderings_makes_one_replacement_pass_per_image(
        micro_bundle, micro_corpus, monkeypatch):
    _, _, test_imgs = micro_corpus
    calls = []
    for name in ("aggregate", "embed_batch", "sample", "score", "improve"):
        def counted(*args, _name=name, _fn=getattr(evaluation, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(evaluation, name, counted)
    cls = micro_bundle.classes[0]
    counts = []
    for steps in (2, 4):
        calls.clear()
        report = compare_orderings(test_imgs, cls, micro_bundle.gmm,
                                   micro_bundle.pca, micro_bundle.svm,
                                   variants=("epsilon", "absolute"), batch=2,
                                   steps=steps, repetitions=3, seed=0)
        assert 1 <= report.n_images < len(test_imgs)
        # every image is scored from its raw FV alone; Psi is formed only
        # for the positive ones, then one embedding of all of their draws
        assert calls.count("aggregate") == len(test_imgs)
        assert calls.count("embed_batch") == 2 * report.n_images
        assert calls.count("sample") == report.n_images * 3 * 3
        counts.append((calls.count("score"), calls.count("improve")))
    # f(x) is improved and scored per image, and the kernel's steps in one
    # call per image: never once per step
    assert counts[0] == counts[1]
    assert counts[0] == (len(test_imgs) + 2 * report.n_images,) * 2


def test_each_trace_draws_from_a_stream_of_its_own(micro_bundle, micro_corpus,
                                                  monkeypatch):
    """With two relevance variants and the random ordering, no two traces
    of an image start their generators from the same seed: no variant's
    replacements replay another ordering's stream."""
    _, _, test_imgs = micro_corpus
    starts = []

    def recorded(vectors, psi, x0, gmm, svm_model, class_name, plans, *args):
        starts.append([(oid, np.random.default_rng(rng.bit_generator.seed_seq)
                        .standard_normal(4).tobytes()) for oid, _, rng in plans])
        return replace_traces(vectors, psi, x0, gmm, svm_model, class_name,
                              plans, *args)

    monkeypatch.setattr(evaluation, "replace_traces", recorded)
    report = compare_orderings(test_imgs, micro_bundle.classes[0],
                               micro_bundle.gmm, micro_bundle.pca,
                               micro_bundle.svm, variants=("epsilon", "absolute"),
                               batch=2, steps=2, repetitions=2, seed=0)
    assert len(starts) == report.n_images > 0
    for plans in starts:
        assert [oid for oid, _ in plans] == (
            ["lrp-epsilon"] * 2 + ["lrp-absolute"] * 2 + ["random"] * 2)
        assert len({start for _, start in plans}) == len(plans)
    # and no two images share one
    assert len({start for plans in starts for _, start in plans}) == 6 * len(starts)


@pytest.mark.parametrize("variants, repetitions, error", [
    ((), 2, ValidationError),
    (("epsilon", "epsilon"), 2, ValidationError),
    (("epsilon", "nonsense"), 2, ValidationError),
    ("epsilon", 2, ValidationError),
    (("epsilon",), 0, RangeError),
    (("epsilon",), -1, RangeError),
])
def test_compare_orderings_checks_arguments_before_extraction(
        micro_bundle, micro_corpus, monkeypatch, variants, repetitions, error):
    _, _, test_imgs = micro_corpus

    def no_extraction(*args, **kwargs):
        raise AssertionError("extracted before checking the arguments")

    monkeypatch.setattr(evaluation, "extract_dense", no_extraction)
    with pytest.raises(error):
        compare_orderings(test_imgs, micro_bundle.classes[0], micro_bundle.gmm,
                          micro_bundle.pca, micro_bundle.svm,
                          variants=variants, batch=2, steps=2,
                          repetitions=repetitions)


def test_context_ratio_hand_values():
    heat = np.zeros((4, 4))
    heat[:, :2] = 2.0   # inside box
    heat[:, 2:] = 0.5
    box = BoundingBox("a", 0, 0, 1, 3)
    ratio = context_ratio(Heatmap(heat), [box])
    assert ratio.mu == pytest.approx(0.25)
    assert ratio.defined and ratio.n_inside == 8 and ratio.n_outside == 8


def test_context_ratio_clamps_negatives_and_flags_undefined():
    heat = np.zeros((4, 4))
    heat[:, :2] = 1.0
    heat[:, 2:] = -1.0
    box = BoundingBox("a", 0, 0, 1, 3)
    # negative relevance outside is clamped to 0, not averaged in
    clamped = context_ratio(Heatmap(heat), [box])
    assert clamped.mu == pytest.approx(0.0) and clamped.defined
    # no positive relevance inside: undefined
    dead = context_ratio(Heatmap(-heat), [box])
    assert not dead.defined and np.isnan(dead.mu)
    with pytest.raises(ValidationError):
        context_ratio(Heatmap(heat), [])
    with pytest.raises(UndefinedError):
        context_ratio(Heatmap(heat), [BoundingBox("a", 0, 0, 3, 3)])


def test_context_ratio_multiple_boxes():
    heat = np.ones((4, 4))
    boxes = [BoundingBox("a", 0, 0, 1, 1), BoundingBox("a", 2, 2, 3, 3)]
    ratio = context_ratio(Heatmap(heat), boxes)
    assert ratio.mu == pytest.approx(1.0)
    assert ratio.n_inside == 8


def test_compare_orderings_report_shape(micro_bundle, micro_corpus):
    _, _, test_imgs = micro_corpus
    cls = micro_bundle.classes[0]
    mine = [im for im in test_imgs if cls in im.labels]
    report = compare_orderings(mine, cls, micro_bundle.gmm, micro_bundle.pca,
                               micro_bundle.svm, batch=4, steps=5,
                               repetitions=2, seed=0)
    assert set(report.stats) == {"lrp-epsilon", "random"}
    assert report.batch == 4 and report.steps == 5
    assert 0 < report.n_images <= len(mine)
    for oid, stats in report.stats.items():
        assert stats.n_traces == report.n_images * 2
        assert len(report.per_repetition_area[oid]) == 2
        assert stats.area == pytest.approx(
            float(np.mean(report.per_repetition_area[oid])))
    # relevance-guided removal should not trail the random baseline here
    assert report.stats["lrp-epsilon"].area >= report.stats["random"].area


def test_compare_orderings_needs_positive_predictions(micro_bundle, micro_corpus):
    """With no positive image there is nothing to perturb: the report has
    no images, no traces and no stats, and nothing raises."""
    _, _, test_imgs = micro_corpus
    cls = micro_bundle.classes[0]
    others = [im for im in test_imgs if cls not in im.labels]
    report = compare_orderings(others, cls, micro_bundle.gmm, micro_bundle.pca,
                               micro_bundle.svm, batch=2, steps=2, repetitions=1)
    assert report.n_images == 0
    assert (report.batch, report.steps) == (2, 2)
    assert report.stats == {"lrp-epsilon": None, "random": None}
    assert all(ts == [] for ts in report.traces.values())
    assert all(a.size == 0 for a in report.per_repetition_area.values())


def test_compare_orderings_keeps_a_score_only_above_tau_and_zero(
        micro_bundle, micro_corpus):
    """An image scored exactly at its class's threshold, or exactly 0.0
    under a negative threshold, is not kept; one step above the tie, it is."""
    _, _, test_imgs = micro_corpus
    b, cls = micro_bundle, micro_bundle.classes[0]
    k = b.svm.class_index(cls)

    def phi(img):
        return improve(aggregate(b.gmm, pca_apply(
            b.pca, extract_dense(img.image, 16, 4)).vectors))

    image = max((im for im in test_imgs if cls in im.labels),
                key=lambda im: score(b.svm, phi(im), cls))
    dot = score(dataclasses.replace(b.svm, biases=np.zeros(2)), phi(image), cls)

    def kept(bias, tau):
        biases, taus = b.svm.biases.copy(), b.svm.thresholds.copy()
        biases[k], taus[k] = bias, tau
        svm = dataclasses.replace(b.svm, biases=biases, thresholds=taus)
        report = compare_orderings([image], cls, b.gmm, b.pca, svm, batch=1,
                                   steps=1, repetitions=1)
        return report.n_images, score(svm, phi(image), cls)

    f = dot + b.svm.biases[k]
    assert f > 0.0
    assert kept(b.svm.biases[k], f) == (0, f)
    assert kept(b.svm.biases[k], np.nextafter(f, -np.inf)) == (1, f)
    assert kept(-dot, -1.0) == (0, 0.0)
    n, above = kept(np.nextafter(-dot, np.inf), -1.0)
    assert n == 1 and above > 0.0


def test_context_report_counts_each_undefined_ratio_once(micro_bundle,
                                                        micro_corpus, monkeypatch):
    """Every true positive's mu is undefined here, so each is counted once
    as undefined, and no class has a mean."""
    _, _, test_imgs = micro_corpus

    def undefined(heatmap, boxes, class_name, image_id):
        ratio = context_ratio(heatmap, boxes, class_name, image_id)
        return dataclasses.replace(ratio, mu=float("nan"), defined=False)

    monkeypatch.setattr(evaluation, "context_ratio", undefined)
    report = context_report(test_imgs, micro_bundle.gmm, micro_bundle.pca,
                            micro_bundle.svm, micro_bundle.net)
    for values, mean, undef, true_pos in (
            (report.fv_values, report.fv_mean, report.fv_undefined,
             report.fv_true_positives),
            (report.nn_values, report.nn_mean, report.nn_undefined,
             report.nn_true_positives)):
        assert sum(true_pos.values()) > 0
        assert undef == true_pos
        assert all(values[c] == [] and mean[c] is None for c in report.classes)


def test_context_report_structure(micro_bundle, micro_corpus):
    _, _, test_imgs = micro_corpus
    models = (micro_bundle.gmm, micro_bundle.pca, micro_bundle.svm,
              micro_bundle.net)
    report = context_report(test_imgs, *models)
    assert report.classes == micro_bundle.classes
    per_class = len(test_imgs) // len(report.classes)
    for values, mean, undefined, true_pos in (
            (report.fv_values, report.fv_mean, report.fv_undefined,
             report.fv_true_positives),
            (report.nn_values, report.nn_mean, report.nn_undefined,
             report.nn_true_positives)):
        assert sum(true_pos.values()) > 0
        for c in report.classes:
            assert 0 <= true_pos[c] <= per_class
            assert len(values[c]) + undefined[c] == true_pos[c]
            if values[c]:
                assert mean[c] == pytest.approx(
                    float(np.mean([r.mu for r in values[c]])))
                assert all(r.defined for r in values[c])
            else:
                assert mean[c] is None
    # an image whose labels have no box counts for neither model
    boxless = [dataclasses.replace(im, boxes=(), image_id=f"{im.image_id}-nobox")
               for im in test_imgs]
    assert context_report(test_imgs + boxless, *models) == report
