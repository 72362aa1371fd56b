"""EM fitting, responsibilities, likelihood, and mixture sampling."""

import math
import tracemalloc

import numpy as np
import pytest

from fvlrp import gmm, pipeline
from fvlrp.config import PipelineConfig
from fvlrp.descriptors import descriptor_count
from fvlrp.errors import DimError, FitError, RangeError
from fvlrp.gmm import (GmmModel, _log_joint, _m_step, _normalize, em_fit,
                       log_likelihood, responsibilities, sample)
from fvlrp.pipeline import extract_corpus, fit_gmm, fit_pca, make_corpus
from fvlrp.verification import random_gmm


def make_model(weights, means, sigmas):
    means = np.asarray(means, dtype=np.float64)
    return GmmModel(np.asarray(weights, dtype=np.float64), means,
                    np.asarray(sigmas, dtype=np.float64),
                    np.full(means.shape[1], 1e-8))


def dense_log_likelihood(model, data):
    """Direct density evaluation without the log-domain shortcuts."""
    total = 0.0
    for x in np.atleast_2d(data):
        p = 0.0
        for w, mu, sg in zip(model.weights, model.means, model.sigmas):
            norm = np.prod(1.0 / (np.sqrt(2.0 * np.pi) * sg))
            p += w * norm * np.exp(-0.5 * np.sum(((x - mu) / sg) ** 2))
        total += np.log(p)
    return total


def test_log_likelihood_matches_dense_oracle(rng):
    model = make_model([0.3, 0.7], rng.normal(size=(2, 3)),
                       rng.uniform(0.5, 2.0, (2, 3)))
    data = rng.normal(size=(40, 3))
    assert log_likelihood(model, data) == pytest.approx(
        dense_log_likelihood(model, data), rel=1e-12)


def dense_responsibilities(model, data):
    """Posteriors from the direct densities, as in `dense_log_likelihood`."""
    rows = []
    for x in np.atleast_2d(data):
        p = np.array([w * np.prod(1.0 / (np.sqrt(2.0 * np.pi) * sg))
                      * np.exp(-0.5 * np.sum(((x - mu) / sg) ** 2))
                      for w, mu, sg in zip(model.weights, model.means, model.sigmas)])
        rows.append(p / p.sum())
    return np.array(rows)


def test_responsibilities_at_floor_scale_match_direct_densities(rng):
    # sigma at the floor scale of unit-variance data, means far from the
    # origin and each sample 10 sigma off a mean in every dimension: the
    # expanded quadratic form cancels the most here.
    sigmas = 1e-2 * np.array([[1.0, 1.5, 2.0], [1.2, 1.4, 1.8]])
    means = np.array([5.0, -3.0, 2.0]) + np.array([[0.0, 0.0, 0.0], [1e-3, -1e-3, 5e-4]])
    model = make_model([0.4, 0.6], means, sigmas)
    comp = rng.integers(0, 2, 30)
    signs = rng.choice([-1.0, 1.0], (30, 3))
    data = means[comp] + 10.0 * sigmas[comp] * signs
    # The floor-derived bound of the module docstring, as in check_em.
    scale = ((data ** 2)[:, None, :] + means[None] ** 2) / sigmas[None] ** 2
    tol = (3 + 4) * np.finfo(float).eps * scale.sum(axis=2).max()
    np.testing.assert_allclose(responsibilities(model, data),
                               dense_responsibilities(model, data), rtol=0, atol=tol)
    assert log_likelihood(model, data) == pytest.approx(
        dense_log_likelihood(model, data), rel=0, abs=len(data) * tol)


def test_zero_responsibility_component_is_kept(rng):
    data = rng.normal(size=(50, 2))
    model = make_model([0.5, 0.5], [[0.0, 0.0], [1e3, 1e3]], [[1.0, 1.0], [1e-3, 1e-3]])
    gamma = responsibilities(model, data)
    assert np.all(gamma[:, 1] == 0.0)
    floor_var = np.full(2, 1e-4)
    fitted = _m_step(model, data, gamma.T, floor_var)
    assert fitted.weights[1] == 0.0
    np.testing.assert_array_equal(fitted.means[1], model.means[1])
    np.testing.assert_array_equal(fitted.sigmas[1], model.sigmas[1])
    after = responsibilities(fitted, data)
    assert np.all(np.isfinite(after)) and np.all(after[:, 1] == 0.0)
    assert np.isfinite(log_likelihood(fitted, data))


@pytest.mark.parametrize("fn", [responsibilities, log_likelihood])
def test_e_step_forms_no_per_dimension_temporary(fn):
    gen = np.random.default_rng(5)
    n, k, d = 5000, 8, 16
    model = random_gmm(gen, k, d)
    data = gen.normal(size=(n, d))
    tracemalloc.start()
    try:
        fn(model, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * k * d * 8, f"{fn.__name__} peaked at {peak} bytes"


def test_responsibilities_sum_to_one(rng):
    model = make_model([0.2, 0.5, 0.3], rng.normal(size=(3, 4)),
                       rng.uniform(0.5, 1.5, (3, 4)))
    gamma = responsibilities(model, rng.normal(size=(25, 4)))
    assert gamma.shape == (25, 3)
    np.testing.assert_allclose(gamma.sum(axis=1), np.ones(25), atol=1e-12)
    assert np.all(gamma >= 0.0)


def test_responsibilities_survive_extreme_distances():
    model = make_model([0.5, 0.5], [[0.0], [1.0]], [[0.01], [0.01]])
    gamma = responsibilities(model, np.array([[1000.0]]))
    assert np.all(np.isfinite(gamma))
    np.testing.assert_allclose(gamma.sum(axis=1), [1.0], atol=1e-12)


def test_em_final_trace_entry_is_the_returned_models_likelihood():
    """`em_fit` and `log_likelihood` share one normaliser: the last trace
    entry is the likelihood of the model returned, bit for bit, whether EM
    stopped at the iteration cap or by `tol`."""
    reasons = set()
    for seed in range(12):
        gen = np.random.default_rng(seed)
        k, d = int(gen.integers(1, 6)), int(gen.integers(1, 5))
        centers = gen.normal(0.0, 3.0, (k, d))
        data = centers[gen.integers(0, k, 150)] + gen.normal(0.0, 0.8, (150, d))
        for max_iter in (4, 100):
            model = em_fit(data, k, seed=seed, max_iter=max_iter)
            trace = model.ll_trace
            if len(trace) > 1 and (trace[-1] - trace[-2]) / len(data) < 1e-6:
                reasons.add("tol")
            elif len(trace) == max_iter + 1:
                reasons.add("cap")
            assert trace[-1] == log_likelihood(model, data), (seed, max_iter)
    assert reasons == {"tol", "cap"}


def test_em_trace_monotone_and_deterministic(rng):
    data = np.concatenate([rng.normal(-2.0, 0.5, (60, 2)),
                           rng.normal(2.0, 0.8, (60, 2))])
    a = em_fit(data, 2, seed=7)
    b = em_fit(data, 2, seed=7)
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.weights, b.weights)
    trace = np.asarray(a.ll_trace)
    assert np.all(np.diff(trace) >= -1e-8)


def test_em_k1_closed_form(rng):
    data = rng.normal(1.5, 2.0, (300, 3))
    model = em_fit(data, 1, seed=0)
    assert model.weights[0] == 1.0
    np.testing.assert_allclose(model.means[0], data.mean(axis=0), atol=1e-12)
    floor = 1e-4 * np.maximum(data.var(axis=0), 1e-8)
    expect = np.sqrt(np.maximum(data.var(axis=0), floor))
    np.testing.assert_allclose(model.sigmas[0], expect, atol=1e-12)


def test_em_separates_clear_clusters(rng):
    data = np.concatenate([rng.normal(-5.0, 0.3, (80, 1)),
                           rng.normal(5.0, 0.3, (80, 1))])
    model = em_fit(data, 2, seed=1)
    centers = np.sort(model.means[:, 0])
    np.testing.assert_allclose(centers, [-5.0, 5.0], atol=0.2)
    np.testing.assert_allclose(model.weights, [0.5, 0.5], atol=0.05)


def test_em_respects_variance_floor(rng):
    data = np.repeat(rng.normal(size=(4, 2)), 10, axis=0)
    model = em_fit(data, 2, seed=3)
    assert np.all(model.sigmas >= model.sigma_floor[None, :])


@pytest.mark.parametrize("seed", range(4))
def test_em_seeds_an_empty_and_a_single_member_cluster(seed):
    """Two distinct points, one of them alone, and k = 3: k-means++ picks
    both points and then repeats one, whose cluster is empty. The hard
    assignment gives the lone point's cluster the floored zero variance,
    and the empty cluster weight 0, its seed as mean and the data
    variance."""
    data = np.array([[0.0, 0.0]] * 5 + [[1.0, 2.0]])
    data_var = data.var(axis=0)
    floor = 1e-4 * data_var
    init = em_fit(data, 3, seed=seed, max_iter=0)
    assert len(init.ll_trace) == 1
    lone = int(np.argmax(np.all(init.means == data[5], axis=1)))
    crowd = 1 - lone
    np.testing.assert_array_equal(init.weights[[crowd, lone, 2]], [5 / 6, 1 / 6, 0.0])
    np.testing.assert_array_equal(init.sigmas[lone], np.sqrt(floor))
    np.testing.assert_array_equal(init.sigmas[crowd], np.sqrt(floor))
    assert any(np.array_equal(init.means[2], x) for x in data)
    np.testing.assert_array_equal(init.sigmas[2], np.sqrt(data_var))
    # the empty component keeps weight 0 and its mean through EM
    fit = em_fit(data, 3, seed=seed)
    assert fit.weights[2] == 0.0
    np.testing.assert_array_equal(fit.means[2], init.means[2])


def test_em_rejects_bad_shapes(rng):
    with pytest.raises(DimError):
        em_fit(rng.normal(size=12), 2, seed=0)
    with pytest.raises(FitError):
        em_fit(rng.normal(size=(3, 2)), 5, seed=0)


@pytest.mark.parametrize("shape", [(2,), (1, 1, 2), (4, 3)])
def test_kernels_take_only_a_descriptor_matrix(shape):
    model = make_model([0.5, 0.5], [[0.0, 0.0], [1.0, 1.0]], np.ones((2, 2)))
    for kernel in (responsibilities, log_likelihood):
        with pytest.raises(DimError):
            kernel(model, np.zeros(shape))


def test_model_validates_simplex():
    with pytest.raises(FitError):
        make_model([0.5, 0.6], np.zeros((2, 1)), np.ones((2, 1)))


def test_sampling_statistics_and_determinism():
    model = make_model([0.25, 0.75], [[-3.0], [3.0]], [[0.5], [0.5]])
    draws_a = sample(model, np.random.default_rng(11), 4000)
    draws_b = sample(model, np.random.default_rng(11), 4000)
    np.testing.assert_array_equal(draws_a, draws_b)
    frac_high = np.mean(draws_a[:, 0] > 0.0)
    assert frac_high == pytest.approx(0.75, abs=0.03)
    single = sample(model, np.random.default_rng(2), 1)
    assert single.shape == (1, 1)


@pytest.mark.parametrize("k,d,n", [(1, 1, 1), (3, 2, 7), (5, 16, 40),
                                   (8, 4, 100)])
def test_batch_sample_equals_single_draws(k, d, n):
    gen = np.random.default_rng(100 * k + d)
    weights = gen.random(k)
    if k > 2:
        weights[1] = 0.0  # a zero-weight component in the cumulative sum
    model = make_model(weights / weights.sum(), gen.normal(size=(k, d)),
                       0.1 + gen.random((k, d)))
    batch_rng = np.random.default_rng(n)
    single_rng = np.random.default_rng(n)
    batch = sample(model, batch_rng, n)
    singles = np.concatenate([sample(model, single_rng, 1) for _ in range(n)])
    assert batch.shape == (n, d)
    np.testing.assert_array_equal(batch, singles)
    assert batch_rng.bit_generator.state == single_rng.bit_generator.state
    # prefix stability: the first m of n draws are a batch of m
    np.testing.assert_array_equal(
        sample(model, np.random.default_rng(n), max(1, n // 2)),
        batch[:max(1, n // 2)])


@pytest.mark.parametrize("n", [-1, 2.7, "3", True, False])
def test_sample_refuses_a_bad_draw_count(n):
    model = make_model([1.0], [[0.0]], [[1.0]])
    with pytest.raises(RangeError):
        sample(model, np.random.default_rng(0), n)
    assert sample(model, np.random.default_rng(0), 0).shape == (0, 1)


@pytest.mark.parametrize("zeros", [(0,), (2,), (4,), (0, 2, 4)])
def test_zero_weight_components_are_never_drawn(zeros):
    # means 1000 apart and unit sigmas: a draw's component is its mean
    weights = np.arange(1.0, 6.0)
    weights[list(zeros)] = 0.0
    model = make_model(weights / weights.sum(), 1000.0 * np.arange(5.0)[:, None],
                       np.ones((5, 1)))
    draws = sample(model, np.random.default_rng(len(zeros)), 20000)
    counts = np.bincount(np.rint(draws[:, 0] / 1000.0).astype(int), minlength=5)
    assert counts.size == 5
    assert not counts[list(zeros)].any()
    live = [k for k in range(5) if k not in zeros]
    np.testing.assert_allclose(counts[live] / 20000.0, model.weights[live], atol=0.015)


def test_draws_pick_components_by_the_normal_cdf():
    """Each row is means[k] + sigmas[k] * z[1:] for the row z of one
    standard-normal block, with k = searchsorted(cdf, Phi(z[0])) and Phi
    from `math.erf`; rows within 1e-9 of a cdf value are skipped."""
    gen = np.random.default_rng(21)
    k, d, n = 6, 3, 5000
    weights = gen.random(k)
    weights[2] = 0.0
    model = make_model(weights / weights.sum(), gen.normal(size=(k, d)),
                       0.1 + gen.random((k, d)))
    draws = sample(model, np.random.default_rng(8), n)
    z = np.random.default_rng(8).standard_normal((n, d + 1))
    cdf = np.cumsum(model.weights)
    cdf /= cdf[-1]
    checked = 0
    for row, zr in zip(draws, z):
        u = 0.5 * (1.0 + math.erf(zr[0] / math.sqrt(2.0)))
        if np.abs(cdf - u).min() <= 1e-9:
            continue
        comp = int(cdf.searchsorted(u, side="right"))
        want = model.means[comp] + model.sigmas[comp] * zr[1:]
        assert row.tobytes() == want.tobytes()
        checked += 1
    assert checked > 0.99 * n


@pytest.mark.parametrize("n", [0, 1, 37])
def test_sample_takes_one_normal_block(n):
    model = make_model([0.3, 0.7], [[0.0, 1.0], [2.0, 3.0]], np.ones((2, 2)))
    drawn, block = np.random.default_rng(4), np.random.default_rng(4)
    sample(model, drawn, n)
    block.standard_normal((n, 3))
    assert drawn.bit_generator.state == block.bit_generator.state


def plain_normalize(lj):
    """`_normalize` with every entry exponentiated: the reference for the
    masked form."""
    peak = lj.max(axis=0)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    e = np.exp(lj - peak)
    total = e[0].copy()
    for row in e[1:]:
        total += row
    return np.log(total) + peak, e / total


@pytest.fixture(scope="module")
def seed0_em():
    """Seed 0's EM subsample, as `pipeline.fit_gmm` passes it to
    `em_fit`, and the fitted model."""
    config = PipelineConfig(seed=0)
    train, _, _ = make_corpus(config)
    rows = sum(descriptor_count(img.image.width, img.image.height,
                                config.patch, config.stride) for img in train)
    _, projected = fit_pca(extract_corpus(train, config), rows, config)
    seen = []

    def recording_em_fit(data, *args, **kwargs):
        seen.append(data)
        return em_fit(data, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "em_fit", recording_em_fit)
        model = fit_gmm(projected, config)
    return config, seen[0], model


def test_normalize_drops_only_what_underflows(seed0_em):
    _, data, model = seed0_em
    lj = _log_joint(model, data)
    per_point, gamma = _normalize(lj)
    want_point, want_gamma = plain_normalize(lj)
    dropped = lj - lj.max(axis=0) < -700.0
    assert dropped.mean() > 0.3  # the case the mask is for
    assert np.all(gamma[dropped] == 0.0)
    assert gamma[~dropped].tobytes() == want_gamma[~dropped].tobytes()
    assert per_point.tobytes() == want_point.tobytes()


def test_masked_exp_keeps_em_iteration_count(seed0_em, monkeypatch):
    config, data, model = seed0_em
    monkeypatch.setattr(gmm, "_normalize", plain_normalize)
    reference = em_fit(data, config.gmm_k, seed=config.seed,
                       max_iter=config.gmm_max_iter, tol=config.gmm_tol)
    assert len(model.ll_trace) == len(reference.ll_trace)
    np.testing.assert_allclose(model.ll_trace, reference.ll_trace, rtol=1e-12)
