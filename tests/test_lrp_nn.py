"""Backward relevance rules for the dense baseline net."""

import numpy as np
import pytest

from fvlrp.errors import DimError, TrainError, ValidationError, ZeroDenominatorError
from fvlrp.imaging import Image
from fvlrp.lrp_nn import (DenseLayer, NeuralNet, downscale, forward,
                          image_to_input, lrp_alphabeta, lrp_epsilon,
                          nn_heatmap, nn_scores, nn_train)


def linear_net(weights, biases=None, classes=("a",)):
    w = np.asarray(weights, dtype=np.float64)
    b = np.zeros(w.shape[1]) if biases is None else np.asarray(biases, float)
    return NeuralNet(classes, (DenseLayer(w, b),), (w.shape[0], 1))


def test_epsilon_rule_hand_case():
    net = linear_net([[2.0], [-1.0]])
    x = np.array([1.0, 1.0])
    assert nn_scores(net, x)[net.class_index("a")] == pytest.approx(1.0)
    exact = lrp_epsilon(net, x, "a", epsilon=0.0)
    np.testing.assert_allclose(exact.input_relevance, [2.0, -1.0])
    assert exact.input_relevance.sum() == pytest.approx(exact.score)
    damped = lrp_epsilon(net, x, "a", epsilon=1.0)
    np.testing.assert_allclose(damped.input_relevance, [1.0, -0.5])
    # what the stabilizer absorbed is accounted, not lost
    assert damped.stabilizer_shares[0] == pytest.approx(0.5)
    assert damped.layer_deficit(0) == pytest.approx(0.5)


def test_epsilon_rule_zero_denominator():
    net = linear_net([[1.0], [-1.0]])
    x = np.array([1.0, 1.0])  # z = 0 exactly
    with pytest.raises(ZeroDenominatorError):
        lrp_epsilon(net, x, "a", epsilon=0.0)
    rel = lrp_epsilon(net, x, "a", epsilon=0.5)
    assert np.all(np.isfinite(rel.input_relevance))
    with pytest.raises(ValidationError):
        lrp_epsilon(net, x, "a", epsilon=-1.0)


def test_alphabeta_rule_hand_case():
    net = linear_net([[2.0], [-1.0]])
    x = np.array([1.0, 1.0])
    rel = lrp_alphabeta(net, x, "a", alpha=2.0, beta=1.0)
    np.testing.assert_allclose(rel.input_relevance, [2.0, -1.0])
    assert rel.input_relevance.sum() == pytest.approx(rel.score)
    assert rel.stabilizer_shares == (0.0,)


def test_alphabeta_empty_positive_part():
    # no positive contributions: the alpha term vanishes and the output
    # relevance is carried by the beta term alone, scaled by -beta
    net = linear_net([[-1.0], [-2.0]])
    x = np.array([1.0, 1.0])
    rel = lrp_alphabeta(net, x, "a", alpha=2.0, beta=1.0)
    np.testing.assert_allclose(rel.input_relevance, [1.0, 2.0])
    assert rel.input_relevance.sum() == pytest.approx(-1.0 * rel.score)


def test_alphabeta_requires_unit_gap():
    net = linear_net([[1.0], [1.0]])
    with pytest.raises(ValidationError):
        lrp_alphabeta(net, np.ones(2), "a", alpha=2.0, beta=0.5)


def test_deficit_matches_bias_and_stabilizer_shares(rng):
    layers = (DenseLayer(rng.normal(size=(6, 4)), rng.normal(size=4)),
              DenseLayer(rng.normal(size=(4, 2)), rng.normal(size=2)))
    net = NeuralNet(("a", "b"), layers, (3, 2))
    x = rng.normal(size=6)
    rel = lrp_epsilon(net, x, "b", epsilon=0.01)
    for k in range(2):
        assert rel.layer_deficit(k) == pytest.approx(
            rel.bias_shares[k] + rel.stabilizer_shares[k], abs=1e-12)
    ab = lrp_alphabeta(net, x, "b")
    for k in range(2):
        assert ab.layer_deficit(k) == pytest.approx(ab.bias_shares[k], abs=1e-12)


def test_relevance_starts_at_selected_class(rng):
    layers = (DenseLayer(rng.normal(size=(4, 3)), np.zeros(3)),)
    net = NeuralNet(("p", "q", "r"), layers, (2, 2))
    x = rng.normal(size=4)
    rel = lrp_epsilon(net, x, "q", epsilon=0.1)
    scores = nn_scores(net, x)
    np.testing.assert_allclose(rel.relevances[-1], [0.0, scores[1], 0.0])
    assert rel.score == pytest.approx(scores[1])


def test_forward_applies_relu():
    layers = (DenseLayer(np.array([[1.0], [1.0]]), np.array([-3.0])),
              DenseLayer(np.array([[2.0]]), np.array([0.5])))
    net = NeuralNet(("a",), layers, (2, 1))
    acts = forward(net, np.array([1.0, 1.0]))
    assert acts[1][0] == 0.0            # 2 - 3 clamps at zero
    assert acts[2][0] == pytest.approx(0.5)
    with pytest.raises(DimError):
        forward(net, np.zeros(3))


def test_net_shape_validation():
    with pytest.raises(DimError):
        NeuralNet(("a",), (DenseLayer(np.zeros((3, 1)), np.zeros(1)),),
                  (2, 2))
    with pytest.raises(DimError):
        NeuralNet(("a", "b"), (DenseLayer(np.zeros((4, 1)), np.zeros(1)),),
                  (2, 2))


def test_downscale_block_means():
    g = np.arange(16, dtype=np.float64).reshape(4, 4) / 15.0
    img = Image(g)
    small = downscale(img, (2, 2))
    np.testing.assert_allclose(small[0, 0], g[:2, :2].mean())
    np.testing.assert_allclose(small[1, 1], g[2:, 2:].mean())
    assert image_to_input(img, (2, 2)).shape == (4,)
    with pytest.raises(DimError):
        downscale(img, (3, 3))


def test_heatmap_upsample_preserves_total(rng):
    rel = rng.normal(size=4)
    net = NeuralNet(("a",), (DenseLayer(rel[:, None].copy(), np.zeros(1)),), (2, 2))
    layer_rel = lrp_epsilon(net, np.ones(4), "a", epsilon=0.1)
    flat = nn_heatmap(layer_rel, (2, 2))
    assert flat.values.shape == (2, 2)
    up = nn_heatmap(layer_rel, (2, 2), source_dims=(8, 8))
    assert up.values.shape == (8, 8)
    assert up.values.sum() == pytest.approx(flat.values.sum())
    # each source block is constant
    np.testing.assert_allclose(up.values[0:4, 0:4],
                               up.values[0, 0] * np.ones((4, 4)))
    with pytest.raises(DimError):
        nn_heatmap(layer_rel, (2, 2), source_dims=(5, 5))


def test_nn_train_learns_and_is_deterministic(rng):
    n = 80
    x = rng.normal(size=(n, 16))
    y = np.where(x[:, 0] + x[:, 1] > 0, 1.0, -1.0)
    kwargs = dict(hidden=(8,), input_size=(4, 4), seed=7, epochs=120, lr=0.05)
    net = nn_train(x, {"a": y}, **kwargs)
    scores = np.array([nn_scores(net, xi)[net.class_index("a")] for xi in x])
    assert np.mean(np.sign(scores) == y) > 0.9
    again = nn_train(x, {"a": y}, **kwargs)
    for la, lb in zip(net.layers, again.layers):
        np.testing.assert_array_equal(la.weights, lb.weights)
        np.testing.assert_array_equal(la.biases, lb.biases)


def test_nn_train_rejects_degenerate_labels(rng):
    x = rng.normal(size=(10, 4))
    with pytest.raises(TrainError):
        nn_train(x, {"a": np.ones(10)}, hidden=(3,), input_size=(2, 2))
    with pytest.raises(DimError):
        nn_train(x, {"a": np.ones(10)}, hidden=(3,), input_size=(3, 3))
    with pytest.raises(TrainError):
        nn_train(x, {}, hidden=(3,), input_size=(2, 2))
