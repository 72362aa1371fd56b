"""Delimited tables and rendered figures for the report commands."""

import hashlib
import os
import struct
import zlib

import numpy as np
import pytest

from fvlrp.descriptors import extract_dense, pca_apply
from fvlrp.evaluation import OrderingReport, compare_orderings, context_report
from fvlrp.fisher import EmbeddingIndex
from fvlrp.imaging import Image, load_heatmap, save_png
from fvlrp.lrp_fv import explain
from fvlrp.report import (context_summary_text, fmt, morf_summary_text,
                          write_context_figure, write_context_tables,
                          write_explanation, write_morf_figure,
                          write_morf_tables, write_table)


def read_tsv(path):
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split("\t")
    return header, [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def check_png(path):
    """Walk the chunks of an 8-bit RGB PNG, verifying each CRC and the
    inflated IDAT length; returns the pixels as (height, width, 3) uint8."""
    blob = open(path, "rb").read()
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


def test_save_png_round_trips_pixels(tmp_path):
    px = np.random.default_rng(3).integers(0, 256, size=(5, 7, 3)) / 255.0
    save_png(Image(px), tmp_path / "c.png")
    np.testing.assert_array_equal(check_png(tmp_path / "c.png"),
                                  np.rint(px * 255))
    save_png(Image(px[:, :, 0]), tmp_path / "g.png")
    np.testing.assert_array_equal(check_png(tmp_path / "g.png"),
                                  np.rint(px[:, :, [0, 0, 0]] * 255))


def test_fmt_is_round_trippable():
    assert fmt(True) == "1" and fmt(False) == "0"
    assert fmt(np.int64(7)) == "7"
    assert fmt(0.1) == repr(0.1)
    assert float(fmt(np.float64(1 / 3))) == 1 / 3
    assert fmt("abc") == "abc"


def test_write_table_layout(tmp_path):
    path = tmp_path / "t.tsv"
    digest = write_table(path, ("a", "b"), [(1, 2.5), (True, "x")])
    raw = open(path, "rb").read()
    assert raw == b"a\tb\n1\t2.5\n1\tx\n"
    assert digest == hashlib.sha256(raw).hexdigest()


def test_writers_return_the_digest_of_each_file_they_wrote(tmp_path, morf_report,
                                                           ctx_report):
    written = {**write_morf_tables(tmp_path, morf_report),
               **write_morf_figure(tmp_path, morf_report),
               **write_context_tables(tmp_path, ctx_report),
               **write_context_figure(tmp_path, ctx_report)}
    assert len(written) == 7
    for path, digest in written.items():
        assert digest == hashlib.sha256(open(path, "rb").read()).hexdigest(), path


@pytest.fixture(scope="module")
def morf_report(micro_bundle, micro_corpus):
    _, _, test_imgs = micro_corpus
    cls = micro_bundle.classes[0]
    mine = [im for im in test_imgs if cls in im.labels]
    return compare_orderings(mine, cls, micro_bundle.gmm, micro_bundle.pca,
                             micro_bundle.svm, batch=4, steps=5,
                             repetitions=2, seed=0)


def test_morf_tables(tmp_path, morf_report):
    paths = list(write_morf_tables(tmp_path, morf_report))
    assert [os.path.basename(p) for p in paths] == [
        "morf_summary.tsv", "morf_traces.tsv", "morf_first_switch.tsv"]
    header, rows = read_tsv(paths[0])
    assert header[:2] == ["class", "ordering"]
    assert {r["ordering"] for r in rows} == set(morf_report.stats)
    for r in rows:
        st = morf_report.stats[r["ordering"]]
        assert float(r["area"]) == st.area
        assert int(r["traces"]) == st.n_traces
    _, trace_rows = read_tsv(paths[1])
    # step 0 rows carry the unperturbed score
    zero = [r for r in trace_rows if r["step"] == "0"]
    assert len(zero) == sum(len(ts) for ts in morf_report.traces.values())
    per_trace = morf_report.steps + 1
    assert len(trace_rows) == len(zero) * per_trace


def test_morf_figure_and_text(tmp_path, morf_report):
    (path,) = write_morf_figure(tmp_path, morf_report)
    assert path.endswith("morf_curves.png")
    blob = open(path, "rb").read()
    assert blob[:8] == b"\x89PNG\r\n\x1a\n"
    check_png(path)
    text = morf_summary_text(morf_report)
    for oid in morf_report.stats:
        assert oid in text


def test_morf_writers_mark_a_class_without_positives_missing(tmp_path):
    ids = ("lrp-epsilon", "random")
    empty = OrderingReport("disk", dict.fromkeys(ids),
                           {oid: np.zeros(0) for oid in ids},
                           {oid: [] for oid in ids}, 0, 4, 5)
    summary, traces, switches = write_morf_tables(tmp_path, empty)
    _, rows = read_tsv(summary)
    assert [r["ordering"] for r in rows] == list(ids)
    for r in rows:
        assert (r["images"], r["traces"]) == ("0", "0")
        for field in ("area", "switch_fraction", "mean_rep_area", "rep_area_std"):
            assert r[field] == "missing"
    assert read_tsv(traces)[1] == [] and read_tsv(switches)[1] == []
    # empty axes: only the background, frames and zero lines are drawn
    (figure,) = write_morf_figure(tmp_path, empty)
    pixels = check_png(figure)
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


def test_context_tables_and_figure(tmp_path, ctx_report):
    paths = list(write_context_tables(tmp_path, ctx_report))
    names = [os.path.basename(p) for p in paths]
    assert names == ["context_summary.tsv", "context_values.tsv"]
    header, rows = read_tsv(paths[0])
    assert {r["class"] for r in rows} == set(ctx_report.classes)
    _, values = read_tsv(paths[1])
    fv_rows = [r for r in values if r["model"] == "fv"]
    total_defined = sum(len(v) for v in ctx_report.fv_values.values())
    assert len(fv_rows) == total_defined
    (fig_path,) = write_context_figure(tmp_path, ctx_report)
    assert fig_path.endswith("context_ratio.png")
    assert open(fig_path, "rb").read()[:4] == b"\x89PNG"
    check_png(fig_path)
    text = context_summary_text(ctx_report)
    for c in ctx_report.classes:
        assert c in text


def test_write_explanation_artifacts(tmp_path, micro_bundle, micro_corpus):
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
    paths = write_explanation(tmp_path, "demo", img.image, expl, index)
    suffixes = sorted(os.path.basename(p).replace("demo_", "") for p in paths)
    assert suffixes == ["heatmap.hmap", "heatmap.ppm", "overview.png",
                        "r2.tsv", "r3.tsv"]
    for path, digest in paths.items():
        assert digest == hashlib.sha256(open(path, "rb").read()).hexdigest(), path
    check_png(os.path.join(tmp_path, "demo_overview.png"))
    back = load_heatmap(os.path.join(tmp_path, "demo_heatmap.hmap"))
    np.testing.assert_array_equal(back.values, expl.heatmap.values)
    _, r2_rows = read_tsv(os.path.join(tmp_path, "demo_r2.tsv"))
    assert len(r2_rows) == len(ds)
    total = sum(float(r["relevance"]) for r in r2_rows)
    # repr round trip keeps the sum at the serialized precision
    assert total == pytest.approx(float(np.sum(expl.r2.values)), abs=1e-12)
    _, r3_rows = read_tsv(os.path.join(tmp_path, "demo_r3.tsv"))
    assert len(r3_rows) == micro_bundle.svm.dim
    assert {r["moment"] for r in r3_rows} == {"w", "mu", "sigma"}
