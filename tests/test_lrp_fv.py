"""Relevance decomposition through the embedding, checked on hand cases."""

import dataclasses

import numpy as np
import pytest

from fvlrp.descriptors import DescriptorSet, extract_dense, pca_apply
from fvlrp.errors import (DimError, RangeError, ValidationError,
                          ZeroDenominatorError)
from fvlrp import fisher, gmm as gmm_module, lrp_fv
from fvlrp.fisher import EmbeddingIndex, aggregate, embed_batch, improve
from fvlrp.gmm import GmmModel, em_fit
from fvlrp.lrp_fv import (FvMappingView, R3Map, explain, relevance_r1,
                          relevance_r2, relevance_r3)
from fvlrp.svm import SvmModel, score
from fvlrp.verification import oracle_r2_from_matrix


def toy_model(weights, bias):
    w = np.asarray([weights], dtype=np.float64)
    return SvmModel(("a",), w, np.array([float(bias)]))


def test_r3_hand_case():
    model = toy_model([2.0, -1.0], 0.5)
    r3 = relevance_r3(model, np.array([0.6, 0.8]), "a")
    np.testing.assert_allclose(r3.values, [2 * 0.6 + 0.25, -0.8 + 0.25])
    assert r3.score == pytest.approx(0.9)
    assert r3.values.sum() == pytest.approx(r3.score)


def test_r3_rejects_wrong_length():
    with pytest.raises(DimError):
        relevance_r3(toy_model([1.0, 1.0], 0.0), np.zeros(3), "a")


def test_r3_map_validates_conservation():
    with pytest.raises(ValidationError):
        R3Map(np.array([1.0, 2.0]), "a", score=5.0)


def test_r2_plain_hand_case():
    r3 = R3Map(np.array([0.5, 0.4]), "a", score=0.9)
    psi = np.array([[1.0, 2.0], [3.0, -1.0]])
    r2 = relevance_r2(r3, psi, variant="plain")
    np.testing.assert_allclose(
        r2.values,
        0.5 * np.array([1.0, 3.0]) / 4.0 + 0.4 * np.array([2.0, -1.0]) / 1.0)
    assert r2.values.sum() == pytest.approx(0.9)
    assert r2.zero_dims.size == 0 and r2.xi == 0.0


def test_r2_zero_column_share_is_uniform():
    # dimension 1 maps to no descriptor; its relevance spreads evenly
    r3 = R3Map(np.array([0.5, 0.4]), "a", score=0.9)
    psi = np.array([[1.0, 0.0], [3.0, 0.0]])
    r2 = relevance_r2(r3, psi, variant="plain")
    assert list(r2.zero_dims) == [1]
    assert r2.xi == pytest.approx(0.2)
    np.testing.assert_allclose(r2.values, [0.125 + 0.2, 0.375 + 0.2])
    assert r2.values.sum() == pytest.approx(0.9)


def test_r2_single_descriptor_receives_everything():
    r3 = R3Map(np.array([0.3, 0.7]), "a", score=1.0)
    psi = np.array([[1.0, 0.0]])
    r2 = relevance_r2(r3, psi, variant="plain")
    assert r2.values[0] == pytest.approx(1.0)


def test_r2_plain_raises_on_cancelling_column():
    r3 = R3Map(np.array([1.0]), "a", score=1.0)
    psi = np.array([[1.0], [-1.0]])
    with pytest.raises(ZeroDenominatorError):
        relevance_r2(r3, psi, variant="plain")
    # the stabilized variant survives the same column, keeping sign(0) = +1
    r2 = relevance_r2(r3, psi, variant="epsilon", epsilon=2.0)
    np.testing.assert_allclose(r2.values, [0.5, -0.5])


def test_r2_epsilon_approaches_plain(rng):
    n, dims = 7, 9
    mat = rng.normal(size=(n, dims)) + 0.5  # column sums away from zero
    r3_values = rng.normal(size=dims)
    r3 = R3Map(r3_values, "a", score=float(r3_values.sum()))
    plain = relevance_r2(r3, mat, variant="plain")
    small = relevance_r2(r3, mat, variant="epsilon", epsilon=1e-10)
    scale = np.abs(plain.values).max()
    np.testing.assert_allclose(small.values, plain.values, atol=1e-6 * scale)


def test_r2_epsilon_requires_positive_epsilon():
    r3 = R3Map(np.array([1.0]), "a", score=1.0)
    psi = np.ones((2, 1))
    with pytest.raises(RangeError):
        relevance_r2(r3, psi, variant="epsilon", epsilon=0.0)
    with pytest.raises(ValidationError):
        relevance_r2(r3, psi, variant="nope")


def test_r2_absolute_always_conserves(rng):
    mat = rng.normal(size=(11, 20))
    mat[:, 3] = 0.0  # one dead dimension exercises the xi path too
    r3_values = rng.normal(size=20)
    r3 = R3Map(r3_values, "a", score=float(r3_values.sum()))
    r2 = relevance_r2(r3, mat, variant="absolute")
    assert r2.values.sum() == pytest.approx(r3.score, abs=1e-9)


def test_mapping_views_agree(rng):
    vectors = rng.normal(size=(200, 4))
    gmm = em_fit(vectors, 3, seed=1)
    probes = rng.normal(size=(15, 4))
    view = FvMappingView(gmm, probes)
    matrix = embed_batch(gmm, probes)
    assert matrix.shape[1] == gmm.n_components * (1 + 2 * 4)
    for d in range(matrix.shape[1]):
        np.testing.assert_array_equal(view.column(d), matrix[:, d])


@pytest.mark.parametrize("variant", ["plain", "epsilon", "absolute"])
def test_r2_zero_weight_component_matches_oracle(rng, variant):
    k, dim = 3, 4
    weights = np.array([0.6, 0.0, 0.4])
    model = GmmModel(weights, rng.normal(0.0, 1.5, (k, dim)),
                     rng.uniform(0.4, 1.6, (k, dim)), np.full(dim, 1e-8))
    psi = embed_batch(model, rng.normal(size=(13, dim)))
    r3_values = rng.normal(size=psi.shape[1])
    r3 = R3Map(r3_values, "a", score=float(r3_values.sum()))
    r2 = relevance_r2(r3, psi, variant=variant, epsilon=0.5)
    expect, zero_dims, xi = oracle_r2_from_matrix(r3_values, psi, variant, 0.5)
    np.testing.assert_array_equal(r2.values, expect)
    assert r2.xi == xi
    idx = EmbeddingIndex(k, dim)
    dims = range(idx.length)
    dead = [1, *dims[idx.mu_block(1)], *dims[idx.sigma_block(1)]]
    assert r2.zero_dims.tolist() == zero_dims == dead


@pytest.mark.parametrize("variant", ["plain", "epsilon", "absolute"])
def test_r2_does_not_depend_on_psi_memory_order(rng, variant):
    """The same bits from Psi as `encode` gives it (a transposed view) and
    from a row-major copy; R2 reads Psi and never writes into it."""
    weights = np.array([0.5, 0.0, 0.3, 0.2])  # a dead component fills Z(x)
    model = GmmModel(weights, rng.normal(0.0, 1.5, (4, 5)),
                     rng.uniform(0.4, 1.6, (4, 5)), np.full(5, 1e-8))
    psi, raw = fisher.encode(model, rng.normal(size=(30, 5)))
    row_major = np.ascontiguousarray(psi)
    assert psi.T.flags.c_contiguous and not psi.flags.c_contiguous
    r3 = relevance_r3(SvmModel(("a",), rng.normal(size=(1, psi.shape[1])),
                               np.array([0.2])), improve(raw), "a")
    before = psi.copy()
    a, b = (relevance_r2(r3, p, variant=variant, epsilon=0.5)
            for p in (psi, row_major))
    assert a.values.tobytes() == b.values.tobytes()
    assert a.xi == b.xi and a.zero_dims.tolist() == b.zero_dims.tolist()
    assert a.zero_dims.size == 1 + 2 * 5
    assert psi.tobytes() == before.tobytes()


def test_explain_computes_responsibilities_once(monkeypatch, micro_bundle,
                                                micro_corpus):
    original = gmm_module.responsibilities
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (gmm_module, fisher, lrp_fv):
        if getattr(module, "responsibilities", None) is original:
            monkeypatch.setattr(module, "responsibilities", counted)
    explain(micro_corpus[2][0].image, micro_bundle.gmm, micro_bundle.pca,
            micro_bundle.svm, micro_bundle.classes[0])
    assert len(calls) == 1


def test_r1_uniform_spread_and_clipping():
    ds = DescriptorSet(np.zeros((2, 3)),
                       np.array([[0, 0, 2, 2], [3, 3, 4, 4]]),  # 2nd clips to 1x1
                       (4, 4))
    from fvlrp.lrp_fv import R2Map
    r2 = R2Map(np.array([4.0, 3.0]), "plain", None, np.array([], dtype=np.int64),
               0.0, 7.0, "a")
    heat = relevance_r1(r2, ds)
    expected = np.zeros((4, 4))
    expected[0:2, 0:2] = 1.0   # 4.0 over 4 pixels
    expected[3, 3] = 3.0       # clipped footprint is one pixel
    np.testing.assert_allclose(heat.values, expected)
    assert heat.values.sum() == pytest.approx(7.0)


def test_r1_is_linear_in_r2(rng):
    from fvlrp.lrp_fv import R2Map
    areas = np.array([[0, 0, 3, 3], [2, 1, 3, 3], [4, 4, 2, 2]])
    ds = DescriptorSet(np.zeros((3, 2)), areas, (6, 6))
    vals = rng.normal(size=3)
    none = np.array([], dtype=np.int64)
    single = [relevance_r1(
        R2Map(np.eye(3)[i] * vals[i], "plain", None, none,
              0.0, float(vals[i]), "a"), ds).values
        for i in range(3)]
    combined = relevance_r1(
        R2Map(vals, "plain", None, none, 0.0, float(vals.sum()), "a"), ds)
    np.testing.assert_allclose(combined.values, sum(single), atol=1e-12)


def test_explain_absolute_variant_conserves_to_pixels(micro_bundle, micro_corpus):
    image = micro_corpus[2][0].image
    expl = explain(image, micro_bundle.gmm, micro_bundle.pca,
                   micro_bundle.svm, micro_bundle.classes[0],
                   variant="absolute")
    assert expl.heatmap.values.shape == (image.height, image.width)
    assert expl.heatmap.values.sum() == pytest.approx(expl.score, abs=1e-9)
    assert expl.r3.values.sum() == pytest.approx(expl.score, abs=1e-9)


def test_explain_score_at_the_threshold_is_not_a_positive_prediction(
        micro_bundle, micro_corpus):
    image = micro_corpus[2][0].image
    b, cls = micro_bundle, micro_bundle.classes[0]
    f = explain(image, b.gmm, b.pca, b.svm, cls).score
    for tau, positive in ((f, False), (np.nextafter(f, -np.inf), True)):
        svm = dataclasses.replace(b.svm, thresholds=np.full(2, tau))
        expl = explain(image, b.gmm, b.pca, svm, cls)
        assert expl.score == f and expl.prediction_positive is positive


def test_explain_score_matches_pipeline(micro_bundle, micro_corpus):
    image = micro_corpus[2][0].image
    cls = micro_bundle.classes[0]
    ds = pca_apply(micro_bundle.pca, extract_dense(image, 16, 4))
    phi = improve(aggregate(micro_bundle.gmm, ds.vectors))
    expl = explain(image, micro_bundle.gmm, micro_bundle.pca,
                   micro_bundle.svm, cls)
    assert expl.score == pytest.approx(score(micro_bundle.svm, phi, cls))
    tau = float(micro_bundle.svm.thresholds[0])
    assert expl.prediction_positive == (expl.score > tau)
    assert expl.r2.variant == "epsilon" and expl.r2.epsilon == 100.0
