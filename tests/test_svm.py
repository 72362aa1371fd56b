"""Linear hinge-loss training: determinism and thresholds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvlrp.errors import DimError, TrainError, ValidationError
from fvlrp.svm import SvmModel, eer_threshold, score, train, with_thresholds


def separable_problem(rng, n=40, dim=6, margin=2.0):
    x = rng.normal(size=(n, dim))
    w_true = rng.normal(size=dim)
    y = np.where(x @ w_true >= 0.0, 1.0, -1.0)
    x += margin * y[:, None] * w_true / np.linalg.norm(w_true)
    return x, y


def test_training_separates_separable_data(rng):
    x, y = separable_problem(rng)
    model = train(x, {"a": y}, c=10.0, epochs=300)
    scores = x @ model.weights[0] + model.biases[0]
    assert np.all(np.sign(scores) == y)


def test_training_deterministic_and_duplication_invariant(rng):
    x, y = separable_problem(rng, n=25)
    base = train(x, {"a": y}, c=1.0, epochs=150)
    again = train(x, {"a": y}, c=1.0, epochs=150)
    np.testing.assert_array_equal(base.weights, again.weights)
    # duplicating every sample leaves the mean subgradient unchanged
    doubled = train(np.concatenate([x, x]), {"a": np.concatenate([y, y])},
                    c=1.0, epochs=150)
    np.testing.assert_allclose(doubled.weights, base.weights, atol=1e-6)
    np.testing.assert_allclose(doubled.biases, base.biases, atol=1e-6)


def test_multiclass_order_and_prediction(rng):
    x = rng.normal(size=(60, 4))
    labels = {"one": np.where(x[:, 0] > 0, 1.0, -1.0),
              "two": np.where(x[:, 1] > 0, 1.0, -1.0)}
    model = train(x, labels, c=10.0, epochs=200)
    assert model.classes == ("one", "two")
    x_new = np.array([3.0, -3.0, 0.0, 0.0])
    decided = {c: score(model, x_new, c) > model.thresholds[k]
               for k, c in enumerate(model.classes)}
    assert decided["one"] and not decided["two"]


def test_train_rejects_bad_labels(rng):
    x = rng.normal(size=(10, 3))
    with pytest.raises(TrainError):
        train(x, {"a": np.ones(10)})
    with pytest.raises(ValidationError):
        train(x, {"a": np.linspace(-1, 1, 10)})
    with pytest.raises(DimError):
        train(x, {"a": np.ones(7)})


def test_model_validates_shapes():
    with pytest.raises(DimError):
        SvmModel(("a",), np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(DimError):
        SvmModel(("a",), np.zeros((1, 3)), np.zeros(1),
                 thresholds=np.zeros(2))


def test_eer_threshold_hand_case():
    tau = eer_threshold([-2.0, -1.0, 1.0, 2.0], [-1, -1, 1, 1])
    assert -1.0 < tau < 1.0
    scores = np.array([-2.0, -1.0, 1.0, 2.0])
    pred = scores > tau
    assert list(pred) == [False, False, True, True]


def test_eer_threshold_prefers_lowest_on_ties():
    # all thresholds in (1, 2) give fpr=fnr=0.5; the sweep must resolve
    # deterministically toward the lowest candidate
    a = eer_threshold([1.0, 2.0], [1, -1])
    b = eer_threshold([1.0, 2.0], [1, -1])
    assert a == b


def test_with_thresholds_reaches_equal_error(rng):
    x, y = separable_problem(rng, n=50)
    model = train(x, {"a": y}, c=5.0, epochs=200)
    model = with_thresholds(model, x, {"a": y})
    scores = x @ model.weights[0] + model.biases[0]
    pred = scores > model.thresholds[0]
    fpr = np.sum(pred & (y < 0)) / np.sum(y < 0)
    fnr = np.sum(~pred & (y > 0)) / np.sum(y > 0)
    assert fpr == fnr == 0.0  # separable: EER is zero


def test_regularization_shrinks_weights(rng):
    x, y = separable_problem(rng, n=40)
    strong = train(x, {"a": y}, c=0.01, epochs=150)
    weak = train(x, {"a": y}, c=100.0, epochs=150)
    assert np.linalg.norm(strong.weights) < np.linalg.norm(weak.weights)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 31 - 1),
       st.lists(st.integers(1, 6), min_size=1, max_size=2),
       st.integers(1, 300))
def test_score_of_a_stack_is_the_score_of_each_row(seed, lead, length):
    # one row, 2-D (rows, F) and 3-D (traces, steps, F) stacks, signed,
    # about a third of the rows all zero
    rng = np.random.default_rng(seed)
    model = SvmModel(("a", "b"), rng.normal(size=(2, length)), rng.normal(size=2))
    stack = rng.normal(size=(*lead, length))
    stack[rng.random(lead) < 0.3] = 0.0
    for c in model.classes:
        scores = score(model, stack, c)
        assert scores.shape == tuple(lead)
        for i in np.ndindex(*lead):
            one = score(model, stack[i], c)
            assert type(one) is float
            assert scores[i].tobytes() == np.float64(one).tobytes()


def test_score_rejects_a_stack_of_the_wrong_length(rng):
    model = SvmModel(("a",), rng.normal(size=(1, 4)), np.zeros(1))
    for bad in (np.zeros((3, 5)), np.zeros(5), np.float64(1.0)):
        with pytest.raises(DimError):
            score(model, bad, "a")
