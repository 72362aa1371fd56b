"""Delimited tables and rendered figures for the report commands, as the
bytes the report builders return."""

import struct
import zlib

import numpy as np
import pytest

from fvlrp.descriptors import extract_dense, pca_apply
from fvlrp.evaluation import OrderingReport, compare_orderings, context_report
from fvlrp.fisher import EmbeddingIndex
from fvlrp.imaging import (Image, decode_heatmap, decode_image, encode_png,
                           render_heatmap)
from fvlrp.lrp_fv import explain
from fvlrp.report import (context_files, context_summary_text, encode_table,
                          explanation_files, fmt, morf_files, morf_summary_text)


def read_tsv(data: bytes):
    lines = data.decode("ascii").splitlines()
    header = lines[0].split("\t")
    return header, [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def check_png(blob: bytes):
    """Walk the chunks of an 8-bit RGB PNG, verifying each CRC and the
    inflated IDAT length; returns the pixels as (height, width, 3) uint8."""
    assert blob[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = [], 8
    while pos < len(blob):
        (length,) = struct.unpack(">I", blob[pos:pos + 4])
        tag, data = blob[pos + 4:pos + 8], blob[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", blob[pos + 8 + length:pos + 12 + length])
        assert crc == zlib.crc32(tag + data), tag
        chunks.append((tag, data))
        pos += 12 + length
    assert pos == len(blob)
    tags = [tag for tag, _ in chunks]
    assert tags[0] == b"IHDR" and tags[-1] == b"IEND"
    width, height, depth, colour = struct.unpack(">IIBB", chunks[0][1][:10])
    assert (depth, colour) == (8, 2)
    raw = zlib.decompress(b"".join(d for t, d in chunks if t == b"IDAT"))
    assert len(raw) == height * (1 + 3 * width)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, 1 + 3 * width)
    assert not rows[:, 0].any()  # filter type 0 on every row
    return rows[:, 1:].reshape(height, width, 3)


def test_encode_png_round_trips_pixels():
    px = np.random.default_rng(3).integers(0, 256, size=(5, 7, 3)) / 255.0
    np.testing.assert_array_equal(check_png(encode_png(Image(px))),
                                  np.rint(px * 255))
    np.testing.assert_array_equal(check_png(encode_png(Image(px[:, :, 0]))),
                                  np.rint(px[:, :, [0, 0, 0]] * 255))


def test_fmt_is_round_trippable():
    assert fmt(True) == "1" and fmt(False) == "0"
    assert fmt(np.int64(7)) == "7"
    assert fmt(0.1) == repr(0.1)
    assert float(fmt(np.float64(1 / 3))) == 1 / 3
    assert fmt("abc") == "abc"


def test_write_table_layout():
    """The bytes of a table as the CLI writes it."""
    assert (encode_table(("a", "b"), [(1, 2.5), (True, "x")])
            == b"a\tb\n1\t2.5\n1\tx\n")
    assert encode_table(("a", "b"), []) == b"a\tb\n"


@pytest.fixture(scope="module")
def morf_report(micro_bundle, micro_corpus):
    _, _, test_imgs = micro_corpus
    cls = micro_bundle.classes[0]
    mine = [im for im in test_imgs if cls in im.labels]
    return compare_orderings(mine, cls, micro_bundle.gmm, micro_bundle.pca,
                             micro_bundle.svm, batch=4, steps=5,
                             repetitions=2, seed=0)


def test_morf_tables(morf_report):
    files = morf_files(morf_report)
    assert list(files) == ["morf_summary.tsv", "morf_traces.tsv",
                           "morf_first_switch.tsv", "morf_curves.png"]
    header, rows = read_tsv(files["morf_summary.tsv"])
    assert header[:2] == ["class", "ordering"]
    assert {r["ordering"] for r in rows} == set(morf_report.stats)
    for r in rows:
        st = morf_report.stats[r["ordering"]]
        assert float(r["area"]) == st.area
        assert int(r["traces"]) == st.n_traces
    _, trace_rows = read_tsv(files["morf_traces.tsv"])
    # step 0 rows carry the unperturbed score
    zero = [r for r in trace_rows if r["step"] == "0"]
    assert len(zero) == sum(len(ts) for ts in morf_report.traces.values())
    per_trace = morf_report.steps + 1
    assert len(trace_rows) == len(zero) * per_trace


def test_morf_figure_and_text(morf_report):
    pixels = check_png(morf_files(morf_report)["morf_curves.png"])
    assert pixels.shape == (288, 720, 3)
    text = morf_summary_text(morf_report)
    for oid in morf_report.stats:
        assert oid in text


def test_morf_writers_mark_a_class_without_positives_missing():
    ids = ("lrp-epsilon", "random")
    empty = OrderingReport("disk", dict.fromkeys(ids),
                           {oid: np.zeros(0) for oid in ids},
                           {oid: [] for oid in ids}, 0, 4, 5)
    files = morf_files(empty)
    _, rows = read_tsv(files["morf_summary.tsv"])
    assert [r["ordering"] for r in rows] == list(ids)
    for r in rows:
        assert (r["images"], r["traces"]) == ("0", "0")
        for field in ("area", "switch_fraction", "mean_rep_area", "rep_area_std"):
            assert r[field] == "missing"
    assert read_tsv(files["morf_traces.tsv"])[1] == []
    assert read_tsv(files["morf_first_switch.tsv"])[1] == []
    # empty axes: only the background, frames and zero lines are drawn
    pixels = check_png(files["morf_curves.png"])
    colours = {tuple(int(round(255 * c)) for c in rgb)
               for rgb in ((1.0, 1.0, 1.0), (0.15, 0.15, 0.15), (0.6, 0.6, 0.6))}
    assert set(map(tuple, pixels.reshape(-1, 3))) == colours
    text = morf_summary_text(empty)
    assert "0 images" in text and text.count("A = missing  V = missing") == 2


@pytest.fixture(scope="module")
def ctx_report(micro_bundle, micro_corpus):
    _, _, test_imgs = micro_corpus
    return context_report(test_imgs, micro_bundle.gmm, micro_bundle.pca,
                          micro_bundle.svm, micro_bundle.net)


def test_context_tables_and_figure(ctx_report):
    files = context_files(ctx_report)
    assert list(files) == ["context_summary.tsv", "context_values.tsv",
                           "context_ratio.png"]
    header, rows = read_tsv(files["context_summary.tsv"])
    assert {r["class"] for r in rows} == set(ctx_report.classes)
    _, values = read_tsv(files["context_values.tsv"])
    fv_rows = [r for r in values if r["model"] == "fv"]
    total_defined = sum(len(v) for v in ctx_report.fv_values.values())
    assert len(fv_rows) == total_defined
    width = max(320, 128 * len(ctx_report.classes))
    assert check_png(files["context_ratio.png"]).shape == (272, width, 3)
    text = context_summary_text(ctx_report)
    for c in ctx_report.classes:
        assert c in text


def test_write_explanation_artifacts(micro_bundle, micro_corpus):
    """The files `explain` writes, as `explanation_files` builds them."""
    _, _, test_imgs = micro_corpus
    img = test_imgs[0]
    cls = micro_bundle.classes[0]
    expl = explain(img.image, micro_bundle.gmm, micro_bundle.pca,
                   micro_bundle.svm, cls)
    ds = pca_apply(micro_bundle.pca,
                   extract_dense(img.image, micro_bundle.patch,
                                 micro_bundle.stride))
    index = EmbeddingIndex(micro_bundle.gmm.n_components,
                           micro_bundle.gmm.dim)
    files = explanation_files("demo", img.image, expl, index)
    assert list(files) == [f"demo_{suffix}" for suffix in (
        "heatmap.hmap", "heatmap.ppm", "r2.tsv", "r3.tsv", "overview.png")]
    # the HMAP1 dump round trips every value; the PPM is its rendering
    back = decode_heatmap(files["demo_heatmap.hmap"])
    assert back.values.tobytes() == expl.heatmap.values.tobytes()
    rendered = decode_image(files["demo_heatmap.ppm"])
    np.testing.assert_array_equal(rendered.pixels,
                                  render_heatmap(expl.heatmap).pixels)
    # three panels of the upscaled image side by side, 8 px gutters
    h, w = img.image.height, img.image.width
    assert check_png(files["demo_overview.png"]).shape == (
        4 * h + 16, 3 * 4 * w + 32, 3)
    _, r2_rows = read_tsv(files["demo_r2.tsv"])
    assert len(r2_rows) == len(ds)
    total = sum(float(r["relevance"]) for r in r2_rows)
    # repr round trip keeps the sum at the serialized precision
    assert total == pytest.approx(float(np.sum(expl.r2.values)), abs=1e-12)
    _, r3_rows = read_tsv(files["demo_r3.tsv"])
    assert len(r3_rows) == micro_bundle.svm.dim
    assert {r["moment"] for r in r3_rows} == {"w", "mu", "sigma"}
