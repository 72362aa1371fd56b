"""Replacement curves and the outside-inside ratio."""

import numpy as np
import pytest

from fvlrp.descriptors import DescriptorSet, extract_dense, pca_apply
from fvlrp.errors import (EmptyInputError, RangeError, UndefinedError,
                          ValidationError)
from fvlrp.evaluation import (MorfTrace, area_above, compare_orderings,
                              context_ratio, context_report, morf_ordering,
                              morf_replace, sign_switch_fraction)
from fvlrp.fisher import aggregate, embed_batch, improve
from fvlrp.gmm import em_fit
from fvlrp.imaging import BoundingBox, Heatmap
from fvlrp.lrp_fv import relevance_r2, relevance_r3
from fvlrp.svm import SvmModel, score
from fvlrp.verification import recomputed_fisher_vector


def make_r2(gmm, ds, model, cls="a", variant="epsilon"):
    phi = improve(aggregate(gmm, ds))
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
    trace = MorfTrace("t", np.array([0.5, 0.0, 0.25]), 1.0, 1,
                      np.array([True, False, False]), "a")
    assert area_above(trace) == pytest.approx(0.75)


def test_switch_fraction_counts_first_dips():
    mk = lambda scores: MorfTrace("t", np.asarray(scores), 1.0, 1,
                                  np.ones(len(scores), dtype=bool), "a")
    stats = sign_switch_fraction([mk([0.5, -0.1, -0.2]),
                                  mk([0.9, 0.8, 0.7]),
                                  mk([-1.0, 0.5, -0.5])])
    assert stats.switch_fraction == pytest.approx(2 / 3)
    assert list(stats.first_switch_histogram) == [1, 1, 0]
    assert stats.n_traces == 3
    with pytest.raises(ValidationError):
        sign_switch_fraction([MorfTrace("t", np.array([0.5]), -1.0, 1,
                                        np.array([True]), "a")])
    with pytest.raises(EmptyInputError):
        sign_switch_fraction([])


def test_identity_replacement_keeps_score(rng):
    gmm, ds, model = toy_setup(rng)
    r2 = make_r2(gmm, ds, model)
    f0 = score(model, improve(aggregate(gmm, ds)), "a")
    trace = morf_replace(ds, gmm, model, r2, batch=3, steps=5, rng=rng,
                         identity_replacement=True)
    np.testing.assert_array_equal(trace.scores, np.full(5, f0))
    assert trace.original_score == f0


def test_incremental_update_matches_batch_recompute(rng):
    gmm, ds, model = toy_setup(rng, n=20)
    r2 = make_r2(gmm, ds, model)
    state = {}
    morf_replace(ds, gmm, model, r2, batch=4, steps=5,
                 rng=np.random.default_rng(3), state_out=state)
    oracle = recomputed_fisher_vector(gmm, state["vectors"])
    np.testing.assert_allclose(state["fv"], oracle, atol=1e-10)


def test_replacement_range_checks(rng):
    gmm, ds, model = toy_setup(rng, n=10)
    r2 = make_r2(gmm, ds, model)
    with pytest.raises(RangeError):
        morf_replace(ds, gmm, model, r2, batch=3, steps=4, rng=rng)
    with pytest.raises(RangeError):
        morf_replace(ds, gmm, model, r2, batch=0, steps=1, rng=rng)
    with pytest.raises(RangeError):
        morf_replace(ds, gmm, model, r2, batch=2, steps=2, rng=rng,
                     ordering=np.array([0, 1, 2]))


def test_explicit_ordering_must_be_distinct_and_in_range(rng):
    gmm, ds, model = toy_setup(rng, n=10)
    r2 = make_r2(gmm, ds, model)
    for bad in ([0, 1, 2, 1], [0, 1, -1, 3], [0, 1, 2, 10], [12, 0, 1, 2]):
        with pytest.raises(RangeError):
            morf_replace(ds, gmm, model, r2, batch=2, steps=2, rng=rng,
                         ordering=np.array(bad))
    # only the first batch*steps entries are used, so a repeat after them
    # and any permutation of the descriptors are fine
    morf_replace(ds, gmm, model, r2, batch=2, steps=2, rng=rng,
                 ordering=np.array([3, 2, 1, 0, 3]))
    morf_replace(ds, gmm, model, r2, batch=2, steps=5, rng=rng,
                 ordering=rng.permutation(10))


def test_every_step_matches_recomputed_score(rng):
    gmm, ds, model = toy_setup(rng, n=24)
    r2 = make_r2(gmm, ds, model)
    full = morf_replace(ds, gmm, model, r2, batch=3, steps=6,
                        rng=np.random.default_rng(17))
    for i in range(1, 7):
        # draws are prefix-stable, so the first i steps replay exactly
        state = {}
        part = morf_replace(ds, gmm, model, r2, batch=3, steps=i,
                            rng=np.random.default_rng(17), state_out=state)
        assert np.array_equal(part.scores, full.scores[:i])
        oracle = recomputed_fisher_vector(gmm, state["vectors"])
        expect = score(model, improve(oracle), "a")
        assert full.scores[i - 1] == pytest.approx(expect, rel=1e-9, abs=1e-12)
        changed = np.nonzero(np.any(state["vectors"] != ds.vectors, axis=1))[0]
        assert sorted(changed) == sorted(morf_ordering(r2)[:3 * i])


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


def test_context_ratio_hand_values():
    heat = np.zeros((4, 4))
    heat[:, :2] = 2.0   # inside box
    heat[:, 2:] = 0.5
    box = BoundingBox("a", 0, 0, 1, 3)
    ratio = context_ratio(Heatmap(heat), [box])
    assert ratio.mu == pytest.approx(0.25)
    assert ratio.defined and ratio.n_inside == 8 and ratio.n_outside == 8


def test_context_ratio_modes_and_undefined():
    heat = np.zeros((4, 4))
    heat[:, :2] = 1.0
    heat[:, 2:] = -1.0
    box = BoundingBox("a", 0, 0, 1, 3)
    clamped = context_ratio(Heatmap(heat), [box], mode="positive")
    assert clamped.mu == pytest.approx(0.0) and clamped.defined
    raw = context_ratio(Heatmap(heat), [box], mode="all")
    assert not raw.defined and np.isnan(raw.mu)
    # no positive relevance inside: undefined in both modes
    dead = context_ratio(Heatmap(-heat), [box], mode="positive")
    assert not dead.defined
    with pytest.raises(ValidationError):
        context_ratio(Heatmap(heat), [box], mode="sideways")
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
    _, _, test_imgs = micro_corpus
    cls = micro_bundle.classes[0]
    others = [im for im in test_imgs if cls not in im.labels]
    with pytest.raises(EmptyInputError):
        compare_orderings(others, cls, micro_bundle.gmm, micro_bundle.pca,
                          micro_bundle.svm, batch=2, steps=2, repetitions=1)


def test_context_report_structure(micro_bundle, micro_corpus):
    _, _, test_imgs = micro_corpus
    report = context_report(test_imgs, micro_bundle.gmm, micro_bundle.pca,
                            micro_bundle.svm, micro_bundle.net)
    assert report.classes == micro_bundle.classes
    per_class = len(test_imgs) // len(report.classes)
    for c in report.classes:
        assert 0 <= report.fv_true_positives[c] <= per_class
        assert (len(report.fv_values[c]) + report.fv_undefined[c]
                == report.fv_true_positives[c])
        if report.fv_values[c]:
            assert report.fv_mean[c] == pytest.approx(
                float(np.mean([r.mu for r in report.fv_values[c]])))
            assert all(r.defined for r in report.fv_values[c])
        else:
            assert report.fv_mean[c] is None
