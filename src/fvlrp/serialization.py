"""Versioned, value-exact model serialization.

All model artifacts (mixture, PCA, SVM, network) share one JSON schema:

    {"format": "fvlrp-model", "version": 1, "kind": "...",
     "payload": {...}}

Every real number is stored as its ``float.hex()`` string, and arrays
as ``{"shape": [...], "data": [hex, ...]}`` (row-major), so round-trips
reproduce each value bit for bit. Keys are emitted sorted with a fixed
separator convention, making serialization deterministic at the byte
level.
"""

from __future__ import annotations

import json

import numpy as np

from .descriptors import PcaModel
from .errors import ParseError, VersionError
from .gmm import GmmModel
from .lrp_nn import DenseLayer, NeuralNet, layer_activations
from .svm import SvmModel

FORMAT_NAME = "fvlrp-model"
SCHEMA_VERSION = 1


def _enc_float(x: float) -> str:
    return float(x).hex()


def _dec_float(s) -> float:
    try:
        return float.fromhex(s)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad float encoding {s!r}") from exc


def _enc_array(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.float64)
    return {"shape": list(a.shape), "data": [x.hex() for x in a.ravel().tolist()]}


def _dec_array(obj) -> np.ndarray:
    try:
        shape = tuple(obj["shape"])
        data = obj["data"]
    except (TypeError, KeyError) as exc:
        raise ParseError(f"bad array encoding: {exc}") from exc
    if not all(type(s) is int and s >= 0 for s in shape):
        raise ParseError(f"array shape {list(shape)} is not a list of "
                         "non-negative integers")
    if not isinstance(data, list):
        raise ParseError("array data is not a list")
    values = np.array([_dec_float(s) for s in data], dtype=np.float64)
    if values.size != int(np.prod(shape, dtype=np.int64)):
        raise ParseError(f"array data length {values.size} does not match shape {shape}")
    return values.reshape(shape)


def _require(payload: dict, key: str):
    if key not in payload:
        raise ParseError(f"missing field {key!r}")
    return payload[key]


def _gmm_payload(m: GmmModel) -> dict:
    return {
        "n_components": m.n_components,
        "dim": m.dim,
        "weights": _enc_array(m.weights),
        "means": _enc_array(m.means),
        "sigmas": _enc_array(m.sigmas),
        "sigma_floor": _enc_array(m.sigma_floor),
        "ll_trace": [_enc_float(v) for v in m.ll_trace],
    }


def _gmm_restore(payload: dict) -> GmmModel:
    k = int(_require(payload, "n_components"))
    d = int(_require(payload, "dim"))
    weights = _dec_array(_require(payload, "weights"))
    means = _dec_array(_require(payload, "means"))
    if weights.shape != (k,) or means.shape != (k, d):
        raise ParseError(f"component count {k} inconsistent with parameter blocks")
    return GmmModel(weights, means, _dec_array(_require(payload, "sigmas")),
                    _dec_array(_require(payload, "sigma_floor")),
                    ll_trace=tuple(_dec_float(v) for v in payload.get("ll_trace", [])))


def _pca_payload(m: PcaModel) -> dict:
    return {"mean": _enc_array(m.mean), "basis": _enc_array(m.basis)}


def _pca_restore(payload: dict) -> PcaModel:
    return PcaModel(_dec_array(_require(payload, "mean")),
                    _dec_array(_require(payload, "basis")))


def _svm_payload(m: SvmModel) -> dict:
    return {
        "classes": list(m.classes),
        "weights": _enc_array(m.weights),
        "biases": _enc_array(m.biases),
        "c": _enc_float(m.c),
        "epochs": m.epochs,
        "thresholds": _enc_array(m.thresholds),
    }


def _svm_restore(payload: dict) -> SvmModel:
    return SvmModel(tuple(_require(payload, "classes")),
                    _dec_array(_require(payload, "weights")),
                    _dec_array(_require(payload, "biases")),
                    c=_dec_float(_require(payload, "c")),
                    epochs=int(_require(payload, "epochs")),
                    thresholds=_dec_array(_require(payload, "thresholds")))


def _nn_payload(m: NeuralNet) -> dict:
    return {
        "classes": list(m.classes),
        "input_size": list(m.input_size),
        "layers": [{
            "weights": _enc_array(l.weights),
            "biases": _enc_array(l.biases),
            "activation": act,
        } for l, act in zip(m.layers, layer_activations(len(m.layers)))],
    }


def _nn_restore(payload: dict) -> NeuralNet:
    """The net; each layer's "activation" must be the one its position
    fixes (`lrp_nn.layer_activations`)."""
    entries = _require(payload, "layers")
    for i, (l, act) in enumerate(zip(entries, layer_activations(len(entries)))):
        if _require(l, "activation") != act:
            raise ParseError(f"layer {i} activation {l['activation']!r}, "
                             f"expected {act!r} at that position")
    layers = tuple(DenseLayer(_dec_array(_require(l, "weights")),
                              _dec_array(_require(l, "biases")))
                   for l in entries)
    w, h = _require(payload, "input_size")
    return NeuralNet(tuple(_require(payload, "classes")), layers, (int(w), int(h)))


_KINDS = {
    GmmModel: ("gmm", _gmm_payload),
    PcaModel: ("pca", _pca_payload),
    SvmModel: ("svm", _svm_payload),
    NeuralNet: ("nn", _nn_payload),
}
_RESTORERS = {"gmm": _gmm_restore, "pca": _pca_restore,
              "svm": _svm_restore, "nn": _nn_restore}


def serialize_model(model) -> bytes:
    """Self-describing, deterministic JSON bytes for any model artifact."""
    for cls, (kind, encode) in _KINDS.items():
        if isinstance(model, cls):
            doc = {"format": FORMAT_NAME, "version": SCHEMA_VERSION,
                   "kind": kind, "payload": encode(model)}
            return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("ascii")
    raise ParseError(f"cannot serialize object of type {type(model).__name__}")


def deserialize_model(blob: bytes, expected_kind: str | None = None):
    try:
        doc = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"not a model file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ParseError("missing or wrong format marker")
    version = doc.get("version")
    if version != SCHEMA_VERSION:
        raise VersionError(f"schema version {version!r}, expected {SCHEMA_VERSION}")
    kind = doc.get("kind")
    if kind not in _RESTORERS:
        raise ParseError(f"unknown model kind {kind!r}")
    if expected_kind is not None and kind != expected_kind:
        raise ParseError(f"expected a {expected_kind!r} model, found {kind!r}")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise ParseError("missing payload")
    return _RESTORERS[kind](payload)


def save_model(model, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_model(model))


def load_model(path, expected_kind: str | None = None):
    with open(path, "rb") as fh:
        return deserialize_model(fh.read(), expected_kind)
