"""Every decoder turns damaged bytes into a value or a `PipelineError`.

One file of each kind the pipeline writes (PGM, a split's multi-image
PGM, the corpus index, the four model kinds' JSON, CELL1, FVEC2 and
HMAP1) is damaged in seeded ways: cut short, one byte replaced, one
byte inserted, `COPIES` times each. The decoders take bytes, so no file
is written. A decoder that lets any other exception escape fails the
test with its traceback.
"""

from collections import Counter

import numpy as np
import pytest

from fvlrp.cli import decode_index
from fvlrp.descriptors import cell_grid, decode_cells, encode_cells, pca_fit
from fvlrp.errors import ParseError, PipelineError
from fvlrp.fisher import decode_fisher_vectors, encode_fisher_vectors, fv_length
from fvlrp.gmm import em_fit
from fvlrp.imaging import (Heatmap, Image, decode_boxes, decode_heatmap,
                           decode_image, decode_images, encode_heatmap,
                           encode_image)
from fvlrp.lrp_nn import nn_train
from fvlrp.report import encode_table
from fvlrp.serialization import deserialize_model, serialize_model
from fvlrp.svm import train, with_thresholds

COPIES = 100


def _models():
    rng = np.random.default_rng(41)
    data = rng.normal(size=(60, 4))
    y = np.where(data[:, 0] > 0, 1.0, -1.0)
    return {
        "pca": pca_fit(rng.normal(size=(40, 6)), 3),
        "gmm": em_fit(data, 2, seed=1, max_iter=5),
        "svm": with_thresholds(train(data, {"a": y}, epochs=10), data, {"a": y}),
        "nn": nn_train(rng.normal(size=(20, 16)), {"a": np.sign(rng.normal(size=20))},
                       hidden=(3,), input_size=(4, 4), seed=1, epochs=2),
    }


def _kinds():
    """name -> (good bytes, decoder of bytes)."""
    rng = np.random.default_rng(40)
    images = [Image(rng.random((12, 12))) for _ in range(2)]
    kinds = {
        "PGM": (encode_image(Image(rng.integers(0, 256, (10, 7)) / 255.0)),
                decode_image),
        "multi-image PGM": (
            b"".join(encode_image(Image(rng.integers(0, 256, (6, 5)) / 255.0))
                     for _ in range(3)),
            lambda data: list(decode_images(data, 3))),
        # decoded as context-report reads it: every row, and its boxes
        "corpus index": (
            encode_table(("split", "image", "labels", "flags", "boxes"), [
                ("train", "train-disk-0000", "disk", "-", "disk 3 4 20 22"),
                ("test", "test-cross-0000", "cross,disk", "tag-at-1-2",
                 "cross 0 0 5 5;disk 8 9 30 31"),
                ("test", "test-none-0001", "", "-", "")]),
            lambda data: [decode_boxes(e.boxes) for e in decode_index(data)]),
        "CELL1": (b"".join(encode_cells((cell_grid(img, 8, 4) for img in images),
                                        12, 12, 8, 4, 2)),
                  lambda data: list(decode_cells(data, 2))),
        "FVEC2": (b"".join(encode_fisher_vectors(
                      rng.normal(size=(2, fv_length(3, 2))), 3, 2)),
                  lambda data: decode_fisher_vectors(data, 2)),
        "HMAP1": (b"".join(encode_heatmap(Heatmap(rng.normal(size=(5, 3))))),
                  decode_heatmap),
    }
    for kind, model in _models().items():
        kinds[f"{kind}.json"] = (serialize_model(model),
                                 lambda data, kind=kind: deserialize_model(data, kind))
    return kinds


KINDS = _kinds()


def damaged(good: bytes, seed: int):
    """(how, bytes): `COPIES` cut short, byte replaced and byte inserted."""
    rng = np.random.default_rng(seed)
    for _ in range(COPIES):
        yield "truncated", good[:int(rng.integers(0, len(good)))]
    for _ in range(COPIES):
        i = int(rng.integers(0, len(good)))
        byte = good[i] ^ int(rng.integers(1, 256))  # never the same byte
        yield "replaced", good[:i] + bytes([byte]) + good[i + 1:]
    for _ in range(COPIES):
        i = int(rng.integers(0, len(good) + 1))
        yield "inserted", good[:i] + bytes([int(rng.integers(0, 256))]) + good[i:]


@pytest.mark.parametrize("kind", list(KINDS))
def test_damaged_bytes_decode_or_raise_a_pipeline_error(kind):
    good, decode = KINDS[kind]
    decode(good)
    refused = Counter()
    with np.errstate(all="ignore"):  # a replaced body byte may decode to inf
        for how, data in damaged(good, sorted(KINDS).index(kind)):
            try:
                decode(data)
            except PipelineError:
                refused[how] += 1
    # every kind's length is checked: most cut copies are refused
    assert refused["truncated"] > COPIES // 2, refused


def test_corpus_index_decoder_refuses_what_synth_gen_never_writes():
    good, _ = KINDS["corpus index"]
    entries = decode_index(good)
    assert [(e.split, e.image_id, e.labels, e.flags) for e in entries] == [
        ("train", "train-disk-0000", ("disk",), ()),
        ("test", "test-cross-0000", ("cross", "disk"), ("tag-at-1-2",)),
        ("test", "test-none-0001", (), ())]
    header, first, *rest = good.split(b"\n")
    for bad, match in (
            (good.replace(b"disk 3", b"d\xefsk 3"), "not ASCII"),
            (good.replace(b"\tflags", b""), "header"),
            (b"", "header"),
            (good.replace(b"\t-\tdisk 3", b"\tdisk 3"), "line 2: 4 fields")):
        with pytest.raises(ParseError, match=match):
            decode_index(bad)
    # the boxes field is kept as written, and refused where it is decoded
    (entry,) = decode_index(b"\n".join([header, first.replace(b" 22", b"")]))
    with pytest.raises(ParseError, match="expected 5 fields"):
        decode_boxes(entry.boxes)
