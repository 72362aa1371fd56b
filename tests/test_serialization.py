"""Model files: exact round trips and version/parse failure modes."""

import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvlrp.descriptors import PcaModel, pca_fit
from fvlrp.errors import DimError, IoError, ParseError, PipelineError, VersionError
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
    # arrays travel as their little-endian float64 bytes, so equality
    # survives the text layer
    weights = json.loads(blob_a)["payload"]["weights"]
    assert base64.b64decode(weights["f8le"]) == models["gmm"].weights.astype("<f8").tobytes()


def test_svm_file_with_a_seed_key_still_loads(models):
    # a payload key outside the kind's field table, such as the "seed" of
    # svm.json files written before SvmModel.seed was removed, is ignored
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
    # version 1 stored arrays as hex-string lists; no reader is kept
    doc["version"] = 1
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


def test_corrupted_array_rejected(models):
    doc = json.loads(serialize_model(models["gmm"]))
    doc["payload"]["weights"]["f8le"] = "zzz"
    with pytest.raises(ParseError):
        deserialize_model(json.dumps(doc).encode())


# each damages the weights of a 3-component mixture, so a shape whose
# product is 3 passes the length check
@pytest.mark.parametrize("field, value", [
    ("f8le", 3),
    ("f8le", "AAAA!AAA"),
    ("f8le", base64.b64encode(bytes(16)).decode("ascii")),
    ("shape", ["x"]),
    ("shape", [-1, -3]),
    ("shape", [3.5]),
    ("shape", [True, 3]),
], ids=["f8le-not-a-string", "f8le-not-base64", "f8le-wrong-byte-count",
        "shape-not-a-number", "shape-negative", "shape-fraction", "shape-bool"])
def test_damaged_array_encoding_rejected(models, tmp_path, field, value):
    doc = json.loads(serialize_model(models["gmm"]))
    doc["payload"]["weights"][field] = value
    path = tmp_path / "gmm.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_model(path, expected_kind="gmm")


@pytest.mark.parametrize("kind, field, value", [
    ("gmm", "ll_trace", {"shape": [1, 1], "f8le": "AAAAAAAAAAA="}),
    ("svm", "classes", ["a", 1]),
    ("svm", "epochs", True),
    ("svm", "epochs", 200.0),
    ("svm", "c", 1.0),
    ("nn", "input_size", [4, 4, 1]),
    ("nn", "input_size", [4, "4"]),
    ("nn", "layers", [1, 2]),
])
def test_mistyped_field_is_a_parse_error_naming_it(models, kind, field, value):
    doc = json.loads(serialize_model(models[kind]))
    doc["payload"][field] = value
    with pytest.raises(ParseError, match=field):
        deserialize_model(json.dumps(doc).encode())


def test_pca_model_checks_its_shapes():
    with pytest.raises(DimError):
        PcaModel(np.zeros(4), np.zeros(4))
    with pytest.raises(DimError):
        PcaModel(np.zeros(3), np.zeros((2, 4)))
    PcaModel(np.zeros(4), np.zeros((2, 4)))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("kind, field", [
    ("pca", "mean"), ("pca", "basis"), ("gmm", "weights"), ("gmm", "means"),
    ("gmm", "sigmas"), ("gmm", "sigma_floor"), ("svm", "weights"),
    ("svm", "biases"), ("svm", "thresholds"), ("nn", "layers"),
])
def test_non_finite_parameter_is_refused(models, kind, field, value):
    doc = json.loads(serialize_model(models[kind]))
    array = doc["payload"][field]
    array = array[-1]["biases"] if kind == "nn" else array
    values = np.frombuffer(base64.b64decode(array["f8le"]), dtype="<f8").copy()
    values[0] = value
    array["f8le"] = base64.b64encode(values.tobytes()).decode("ascii")
    with pytest.raises(PipelineError):
        deserialize_model(json.dumps(doc).encode())


def array_records(node):
    """Every {"shape", "f8le"} record in a payload, layer records included."""
    if isinstance(node, dict):
        if "f8le" in node:
            yield node
        for value in node.values():
            yield from array_records(value)
    elif isinstance(node, list):
        for value in node:
            yield from array_records(value)


@pytest.mark.parametrize("kind", ["pca", "gmm", "svm", "nn"])
def test_base64_flip_never_loads_a_non_finite_model(models, kind):
    # '/' is six one-bits: at an exponent's position it makes NaN or inf
    doc = json.loads(serialize_model(models[kind]))
    flips = 0
    for record in array_records(doc["payload"]):
        text = record["f8le"]
        for i in range(len(text.rstrip("="))):
            record["f8le"] = text[:i] + ("/" if text[i] != "/" else "A") + text[i + 1:]
            try:
                model = deserialize_model(json.dumps(doc).encode())
            except PipelineError:
                continue
            flips += 1
            arrays = [a for layer in getattr(model, "layers", ()) for a in
                      (layer.weights, layer.biases)] + [a for _, a in arrays_of(model)]
            assert all(np.isfinite(a).all() for a in arrays), (record, i)
        record["f8le"] = text
    assert flips > 0


def test_unreadable_path_is_an_io_error(models, tmp_path):
    with pytest.raises(IoError):
        load_model(tmp_path / "missing.json")
    with pytest.raises(IoError):
        save_model(models["pca"], tmp_path / "no-such-dir" / "pca.json")


def json_paths(doc, path=()):
    """The path of every value in a JSON document, the root included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from json_paths(value, (*path, key))


# one value of each JSON type; a replacement must differ in type
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kind=st.sampled_from(["pca", "gmm", "svm", "nn"]), data=st.data())
def test_one_retyped_value_loads_equal_or_raises_a_pipeline_error(models, kind, data):
    blob = serialize_model(models[kind])
    doc = json.loads(blob)
    path = data.draw(st.sampled_from(list(json_paths(doc))))
    parent, old = None, doc
    for key in path:
        parent, old = old, old[key]
    new = data.draw(JSON_VALUES.filter(lambda v: type(v) is not type(old)))
    if parent is None:
        doc = new
    else:
        parent[path[-1]] = new
    try:
        back = deserialize_model(json.dumps(doc).encode())
    except PipelineError:
        return
    assert serialize_model(back) == blob
