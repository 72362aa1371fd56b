"""Model files: exact round trips and version/parse failure modes."""

import json

import numpy as np
import pytest

from fvlrp.descriptors import pca_fit
from fvlrp.errors import ParseError, VersionError
from fvlrp.gmm import em_fit
from fvlrp.lrp_nn import nn_train
from fvlrp.serialization import (SCHEMA_VERSION, deserialize_model, load_model,
                                 save_model, serialize_model)
from fvlrp.svm import train, with_thresholds


@pytest.fixture(scope="module")
def models():
    rng = np.random.default_rng(77)
    data = rng.normal(size=(120, 6))
    gmm = em_fit(data, 3, seed=2)
    pca = pca_fit(rng.normal(size=(80, 8)), 5)
    y = np.where(data[:, 0] > 0, 1.0, -1.0)
    svm = with_thresholds(train(data, {"a": y}, epochs=40),
                          data, {"a": y})
    net = nn_train(rng.normal(size=(40, 16)),
                   {"a": np.where(rng.random(40) > 0.5, 1.0, -1.0)},
                   hidden=(4,), input_size=(4, 4), seed=1, epochs=5)
    return {"gmm": gmm, "pca": pca, "svm": svm, "nn": net}


def arrays_of(model):
    out = []
    for name in dir(model):
        if name.startswith("_"):
            continue
        val = getattr(model, name)
        if isinstance(val, np.ndarray):
            out.append((name, val))
    return out


@pytest.mark.parametrize("kind", ["gmm", "pca", "svm", "nn"])
def test_round_trip_is_bit_exact(models, kind, tmp_path):
    model = models[kind]
    path = tmp_path / f"{kind}.json"
    save_model(model, path)
    back = load_model(path, expected_kind=kind)
    assert type(back) is type(model)
    for name, val in arrays_of(model):
        np.testing.assert_array_equal(getattr(back, name), val,
                                      err_msg=f"{kind}.{name}")
    if kind == "nn":
        for la, lb in zip(model.layers, back.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.biases, lb.biases)
        assert back.input_size == model.input_size
    if kind == "svm":
        assert back.classes == model.classes


def test_serialization_is_deterministic(models):
    blob_a = serialize_model(models["gmm"])
    blob_b = serialize_model(models["gmm"])
    assert blob_a == blob_b
    # floats travel as hex strings so equality survives the text layer
    assert b"0x1." in blob_a


def test_svm_file_with_a_seed_key_still_loads(models):
    # svm.json files written before SvmModel.seed was removed carry "seed".
    doc = json.loads(serialize_model(models["svm"]))
    assert "seed" not in doc["payload"]
    doc["payload"]["seed"] = 7
    back = deserialize_model(json.dumps(doc).encode(), expected_kind="svm")
    np.testing.assert_array_equal(back.weights, models["svm"].weights)


def test_kind_mismatch_and_unknown_kind(models):
    blob = serialize_model(models["pca"])
    with pytest.raises(ParseError):
        deserialize_model(blob, expected_kind="gmm")
    doc = json.loads(blob)
    doc["kind"] = "forest"
    with pytest.raises(ParseError):
        deserialize_model(json.dumps(doc).encode())


def test_version_gate(models):
    doc = json.loads(serialize_model(models["gmm"]))
    doc["version"] = SCHEMA_VERSION + 1
    with pytest.raises(VersionError):
        deserialize_model(json.dumps(doc).encode())


def test_parse_failures(models):
    with pytest.raises(ParseError):
        deserialize_model(b"\x89PNG not json")
    with pytest.raises(ParseError):
        deserialize_model(b"[1, 2, 3]")
    with pytest.raises(ParseError):
        deserialize_model(json.dumps({"format": "other", "version": 1}).encode())
    doc = json.loads(serialize_model(models["gmm"]))
    del doc["payload"]["means"]
    with pytest.raises(ParseError):
        deserialize_model(json.dumps(doc).encode())
    with pytest.raises(ParseError):
        serialize_model({"not": "a model"})


@pytest.mark.parametrize("activation", ["identity", "tanh"])
def test_nn_hidden_layer_must_be_relu(models, tmp_path, activation):
    doc = json.loads(serialize_model(models["nn"]))
    assert [l["activation"] for l in doc["payload"]["layers"]] == ["relu", "identity"]
    doc["payload"]["layers"][0]["activation"] = activation
    path = tmp_path / "nn.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_model(path, expected_kind="nn")


def test_corrupted_array_rejected(models):
    doc = json.loads(serialize_model(models["gmm"]))
    doc["payload"]["weights"]["data"] = ["zzz"] * 3
    with pytest.raises(ParseError):
        deserialize_model(json.dumps(doc).encode())


# each damages the weights of a 3-component mixture, so a shape whose
# product is 3 passes the length check
@pytest.mark.parametrize("field, value", [
    ("data", 3),
    ("shape", ["x"]),
    ("shape", [-1, -3]),
    ("shape", [3.5]),
    ("shape", [True, 3]),
], ids=["data-not-a-list", "shape-not-a-number", "shape-negative",
        "shape-fraction", "shape-bool"])
def test_damaged_array_encoding_rejected(models, tmp_path, field, value):
    doc = json.loads(serialize_model(models["gmm"]))
    doc["payload"]["weights"][field] = value
    path = tmp_path / "gmm.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_model(path, expected_kind="gmm")
