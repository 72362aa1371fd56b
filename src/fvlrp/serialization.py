"""Versioned, value-exact model serialization.

Every model file is one JSON envelope, ``{"format": "fvlrp-model",
"version": 2, "kind": ..., "payload": {...}}``, and `_KINDS` is the
whole payload layout: per kind, the model class and one (encode, decode)
pair per constructor field. An array is ``{"shape": [...], "f8le": ...}``
with the base64 of its row-major little-endian float64 bytes (the layout
of CELL1, FVEC2 and HMAP1), and the SVM's ``c`` is a ``float.hex()``
string, so values round-trip bit for bit. Nothing that follows from the
arrays is stored; the model constructors check that the shapes agree.
Each decoder checks its field's JSON type; a malformed field is a
`ParseError` that names it. Sorted keys make the bytes deterministic.
"""

from __future__ import annotations

import base64
import json
import math

import numpy as np

from .descriptors import PcaModel
from .errors import ParseError, VersionError
from .gmm import GmmModel
from .lrp_nn import DenseLayer, NeuralNet
from .svm import SvmModel
from .util import load_file, write_file

FORMAT_NAME = "fvlrp-model"
SCHEMA_VERSION = 2


def _typed(value, kind: type, field: str):
    """`value` if its JSON type is `kind`; a bool is not an int."""
    if type(value) is not kind:
        raise ParseError(f"field {field!r}: expected {kind.__name__}, "
                         f"got {type(value).__name__}")
    return value


def _enc_array(a) -> dict:
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape),
            "f8le": base64.b64encode(a.tobytes()).decode("ascii")}


def _dec_array(obj, field: str) -> np.ndarray:
    shape = _typed(_typed(obj, dict, field).get("shape"), list, f"{field}.shape")
    if not all(type(s) is int and s >= 0 for s in shape):
        raise ParseError(f"field {field!r}: shape {shape} is not non-negative ints")
    try:
        raw = base64.b64decode(_typed(obj.get("f8le"), str, f"{field}.f8le"),
                               validate=True)
    except ValueError as exc:
        raise ParseError(f"field {field!r}: bad base64: {exc}") from exc
    if len(raw) != 8 * math.prod(shape):
        raise ParseError(f"field {field!r}: {len(raw)} bytes for shape {shape}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def _dec_hex(value, field: str) -> float:
    try:
        return float.fromhex(_typed(value, str, field))
    except ValueError as exc:
        raise ParseError(f"field {field!r}: bad hex float {value!r}") from exc


def _dec_trace(value, field: str) -> tuple[float, ...]:
    trace = _dec_array(value, field)
    if trace.ndim != 1:
        raise ParseError(f"field {field!r}: shape {list(trace.shape)} is not 1-D")
    return tuple(trace.tolist())


def _dec_size(value, field: str) -> tuple[int, int]:
    if len(_typed(value, list, field)) != 2:
        raise ParseError(f"field {field!r}: expected [width, height], got {value}")
    return tuple(_typed(v, int, field) for v in value)


def _dump(model, codecs: dict) -> dict:
    return {field: encode(getattr(model, field))
            for field, (encode, _) in codecs.items()}


def _build(cls, codecs: dict, payload, where: str):
    """`cls` rebuilt from its `payload` record through `codecs`."""
    missing = [field for field in codecs if field not in _typed(payload, dict, where)]
    if missing:
        raise ParseError(f"{where}: missing field {missing[0]!r}")
    return cls(**{field: decode(payload[field], field)
                  for field, (_, decode) in codecs.items()})


_ARRAY = (_enc_array, _dec_array)
_NAMES = (list, lambda v, f: tuple(_typed(s, str, f) for s in _typed(v, list, f)))
_LAYER = {"weights": _ARRAY, "biases": _ARRAY}
_LAYERS = (lambda layers: [_dump(l, _LAYER) for l in layers],
           lambda v, f: tuple(_build(DenseLayer, _LAYER, l, f"{f}[{i}]")
                              for i, l in enumerate(_typed(v, list, f))))

_KINDS = {
    "pca": (PcaModel, {"mean": _ARRAY, "basis": _ARRAY}),
    "gmm": (GmmModel, {"weights": _ARRAY, "means": _ARRAY, "sigmas": _ARRAY,
                       "sigma_floor": _ARRAY, "ll_trace": (_enc_array, _dec_trace)}),
    "svm": (SvmModel, {"classes": _NAMES, "weights": _ARRAY, "biases": _ARRAY,
                       "c": (lambda c: float(c).hex(), _dec_hex),
                       "epochs": (int, lambda v, f: _typed(v, int, f)),
                       "thresholds": _ARRAY}),
    "nn": (NeuralNet, {"classes": _NAMES, "layers": _LAYERS,
                       "input_size": (list, _dec_size)}),
}


def serialize_model(model) -> bytes:
    """Self-describing, deterministic JSON bytes for any model artifact."""
    for kind, (cls, codecs) in _KINDS.items():
        if isinstance(model, cls):
            doc = {"format": FORMAT_NAME, "version": SCHEMA_VERSION,
                   "kind": kind, "payload": _dump(model, codecs)}
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
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ParseError(f"unknown model kind {kind!r}")
    if expected_kind is not None and kind != expected_kind:
        raise ParseError(f"expected a {expected_kind!r} model, found {kind!r}")
    cls, codecs = _KINDS[kind]
    return _build(cls, codecs, doc.get("payload"), "payload")


def save_model(model, path) -> None:
    write_file(path, [serialize_model(model)])


def load_model(path, expected_kind: str | None = None):
    return load_file(path, deserialize_model, expected_kind)
