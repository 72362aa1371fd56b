"""The self-check battery must pass, and individual checks must be honest."""

import numpy as np
import pytest

from fvlrp.errors import ZeroDenominatorError
from fvlrp.verification import (check_em, check_epsilon_violation,
                                check_hellinger, check_identity_replacement,
                                check_incremental_fv, check_nn_bias_deficit,
                                check_nn_rules, check_r3_conservation,
                                check_streaming_oracle, oracle_nn_backward,
                                oracle_r2_from_matrix, random_descriptor_set,
                                random_gmm, run_all)


def test_run_all_passes():
    results = run_all(seed=0)
    assert len(results) >= 9
    failed = [r for r in results if not r.passed]
    assert not failed, "\n".join(f"{r.name}: {r.detail}" for r in failed)
    assert len({r.name for r in results}) == len(results)


def test_run_all_is_deterministic():
    a = run_all(seed=3)
    b = run_all(seed=3)
    assert [(r.name, r.passed, r.detail) for r in a] == \
           [(r.name, r.passed, r.detail) for r in b]


@pytest.mark.parametrize("check", [
    check_r3_conservation, check_hellinger, check_epsilon_violation,
    check_streaming_oracle, check_incremental_fv, check_identity_replacement,
    check_nn_rules, check_nn_bias_deficit, check_em,
])
def test_each_check_passes(check):
    result = check()
    assert result.passed, f"{result.name}: {result.detail}"


def test_oracle_r2_agrees_with_production(rng):
    from fvlrp.fisher import aggregate, improve
    from fvlrp.lrp_fv import relevance_r2, relevance_r3
    from fvlrp.fisher import embed_batch
    from fvlrp.verification import random_svm

    gmm = random_gmm(rng, 3, 4)
    ds = random_descriptor_set(rng, 12, 4)
    svm = random_svm(rng, 3 * (1 + 2 * 4))
    phi = improve(aggregate(gmm, ds))
    r3 = relevance_r3(svm, phi, svm.classes[0])
    psi = embed_batch(gmm, ds.vectors)
    fast = relevance_r2(r3, psi, variant="epsilon", epsilon=5.0)
    slow, zero_dims, xi = oracle_r2_from_matrix(
        r3.values, psi, variant="epsilon", epsilon=5.0)
    np.testing.assert_array_equal(fast.values, slow)
    assert list(fast.zero_dims) == zero_dims
    assert fast.xi == xi


def test_oracle_nn_matches_fast_rule(rng):
    from fvlrp.lrp_nn import DenseLayer, NeuralNet, lrp_epsilon

    layers = (DenseLayer(rng.normal(size=(4, 3)), rng.normal(size=3), "relu"),
              DenseLayer(rng.normal(size=(3, 2)), rng.normal(size=2), "identity"))
    net = NeuralNet(("a", "b"), layers, (2, 2))
    x = rng.normal(size=4)
    fast = lrp_epsilon(net, x, "a", epsilon=0.1)
    slow = oracle_nn_backward(net, x, "a", rule="epsilon", epsilon=0.1)
    np.testing.assert_allclose(fast.input_relevance, slow[0], atol=1e-12)
