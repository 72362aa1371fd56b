"""Delimited report tables plus figures rendered to PNG files.

Every writer returns the list of paths it produced. Numbers are written
with ``repr(float(...))`` so a value survives a TSV round trip exactly.
Figures are numpy rasters of fixed geometry written by
:func:`fvlrp.imaging.save_png`, so identical inputs give byte-identical
files. They carry no text: the numbers are in the tables written next
to them, and docs/FORMATS.md records each panel layout and series
colour.
"""

from __future__ import annotations

import os

import numpy as np

from .evaluation import ContextReport, OrderingReport
from .fisher import EmbeddingIndex
from .imaging import (Heatmap, Image, render_heatmap, save_heatmap, save_image,
                      save_png)
from .lrp_fv import Explanation

_SCALE = 4  # nearest-neighbour upscale of image panels
_GUTTER = 8  # white border around and between image panels, px
_MARGIN = 24  # white border around each plot frame, px
_OVERLAY_ALPHA = 0.55
_FRAME = (0.15, 0.15, 0.15)
_ZERO_LINE = (0.6, 0.6, 0.6)
# tab10 hues; series i takes _SERIES[i % len(_SERIES)]
_SERIES = tuple(tuple(int(h[i:i + 2], 16) / 255.0 for i in (0, 2, 4))
                for h in ("1f77b4", "ff7f0e", "2ca02c", "d62728", "9467bd",
                          "8c564b"))


def fmt(value) -> str:
    """Exact textual form of a scalar for delimited output."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_table(path, header, rows) -> str:
    """Write a tab-separated table with a header line; returns the path."""
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(fmt(v) for v in row))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# raster drawing


def _rgb(gray: np.ndarray) -> np.ndarray:
    return np.repeat(gray[:, :, None], 3, axis=2)


def _side_by_side(panels) -> np.ndarray:
    """Equal-size (h, w, 3) panels in a row, upscaled, on white."""
    scaled = [np.repeat(np.repeat(p, _SCALE, axis=0), _SCALE, axis=1)
              for p in panels]
    gutter = np.ones((scaled[0].shape[0], _GUTTER, 3))
    row = np.hstack([part for p in scaled for part in (gutter, p)] + [gutter])
    return np.pad(row, ((_GUTTER, _GUTTER), (0, 0), (0, 0)),
                  constant_values=1.0)


def _limits(values) -> tuple[float, float]:
    """Data range covering `values` and 0, padded by 5 % on each side."""
    lo = min(0.0, float(np.min(values)))
    hi = max(0.0, float(np.max(values)))
    pad = 0.05 * (hi - lo) if hi > lo else 1.0
    return lo - pad, hi + pad


def _to_px(lo: float, hi: float, p0: int, p1: int):
    """Affine map taking data value `lo` to pixel `p0` and `hi` to `p1`."""
    return lambda v: p0 + (float(v) - lo) * ((p1 - p0) / (hi - lo))


def _fill(canvas, x0, y0, x1, y1, colour) -> None:
    """Fill the rectangle between two pixel corners, both inclusive."""
    xa, xb = sorted((int(round(x0)), int(round(x1))))
    ya, yb = sorted((int(round(y0)), int(round(y1))))
    canvas[ya:yb + 1, xa:xb + 1] = colour


def _line(canvas, x0, y0, x1, y1, colour) -> None:
    """Draw a 2 px wide segment between two pixel positions."""
    n = int(np.ceil(max(abs(x1 - x0), abs(y1 - y0)))) + 1
    xs = np.rint(np.linspace(x0, x1, n)).astype(np.intp)
    ys = np.rint(np.linspace(y0, y1, n)).astype(np.intp)
    for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1)):
        canvas[ys + dy, xs + dx] = colour


def _frame(canvas, left: int, top: int, right: int, bottom: int) -> None:
    """1 px outline of a plot rectangle."""
    _fill(canvas, left, top, right, top, _FRAME)
    _fill(canvas, left, bottom, right, bottom, _FRAME)
    _fill(canvas, left, top, left, bottom, _FRAME)
    _fill(canvas, right, top, right, bottom, _FRAME)


# ---------------------------------------------------------------------------
# feature-replacement (MoRF) reports


def _ordering_ids(report: OrderingReport) -> list[str]:
    return sorted(report.stats)


def write_morf_tables(out_dir, report: OrderingReport) -> list[str]:
    """Summary + per-trace curve dump (step, f value) for one class."""
    paths = []
    summary_rows = []
    for oid in _ordering_ids(report):
        st = report.stats[oid]
        per_rep = np.asarray(report.per_repetition_area[oid], dtype=np.float64)
        summary_rows.append((report.class_name, oid, report.n_images,
                             report.batch, report.steps, st.n_traces,
                             st.area, st.switch_fraction,
                             float(per_rep.mean()),
                             float(per_rep.std(ddof=1)) if per_rep.size > 1 else 0.0))
    paths.append(write_table(
        os.path.join(out_dir, "morf_summary.tsv"),
        ("class", "ordering", "images", "batch", "steps", "traces",
         "area", "switch_fraction", "mean_rep_area", "rep_area_std"),
        summary_rows))

    trace_rows = []
    for oid in _ordering_ids(report):
        for ti, trace in enumerate(report.traces[oid]):
            trace_rows.append((oid, ti, 0, trace.original_score))
            for step, score in enumerate(trace.scores, start=1):
                trace_rows.append((oid, ti, step, float(score)))
    paths.append(write_table(
        os.path.join(out_dir, "morf_traces.tsv"),
        ("ordering", "trace", "step", "score"), trace_rows))

    hist_rows = []
    for oid in _ordering_ids(report):
        hist = report.stats[oid].first_switch_histogram
        for step, count in enumerate(hist, start=1):
            hist_rows.append((oid, step, int(count)))
    paths.append(write_table(
        os.path.join(out_dir, "morf_first_switch.tsv"),
        ("ordering", "step", "count"), hist_rows))
    return paths


def write_morf_figure(out_dir, report: OrderingReport) -> list[str]:
    """Mean perturbation curves (left) and first-switch histogram (right)."""
    ids = _ordering_ids(report)
    width, height = 720, 288
    canvas = np.ones((height, width, 3))
    top, bottom = _MARGIN, height - _MARGIN
    half = width // 2

    means = [np.stack([np.concatenate(([t.original_score], t.scores))
                       for t in report.traces[oid]]).mean(axis=0)
             for oid in ids]
    left, right = _MARGIN, half - _MARGIN
    px = _to_px(-0.5, report.steps + 0.5, left, right)
    py = _to_px(*_limits(np.concatenate(means)), bottom, top)
    _fill(canvas, left, py(0.0), right, py(0.0), _ZERO_LINE)
    for pos, mean in enumerate(means):
        colour = _SERIES[pos % len(_SERIES)]
        points = [(px(step), py(value)) for step, value in enumerate(mean)]
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            _line(canvas, x0, y0, x1, y1, colour)
        for x, y in points:
            _fill(canvas, x - 2, y - 2, x + 2, y + 2, colour)
    _frame(canvas, left, top, right, bottom)

    hists = [report.stats[oid].first_switch_histogram for oid in ids]
    left, right = half + _MARGIN, width - _MARGIN
    px = _to_px(0.5, len(hists[0]) + 0.5, left, right)
    py = _to_px(*_limits(np.concatenate(hists)), bottom, top)
    _fill(canvas, left, py(0.0), right, py(0.0), _ZERO_LINE)
    bar = 0.8 / len(ids)
    for pos, hist in enumerate(hists):
        colour = _SERIES[pos % len(_SERIES)]
        for step, count in enumerate(hist, start=1):
            x0 = step - 0.4 + pos * bar
            _fill(canvas, px(x0), py(0.0), px(x0 + bar) - 1, py(count), colour)
    _frame(canvas, left, top, right, bottom)
    path = os.path.join(out_dir, "morf_curves.png")
    save_png(Image(canvas), path)
    return [path]


def morf_summary_text(report: OrderingReport) -> str:
    """Compact A/V summary block for terminal output."""
    lines = [f"class {report.class_name}: {report.n_images} images, "
             f"batch {report.batch} x {report.steps} steps"]
    for oid in _ordering_ids(report):
        st = report.stats[oid]
        lines.append(f"  {oid:>12s}  A = {st.area:.6f}  V = {st.switch_fraction:.3f}"
                     f"  ({st.n_traces} traces)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# context-ratio reports


def write_context_tables(out_dir, report: ContextReport) -> list[str]:
    paths = []
    summary_rows = []
    for c in report.classes:
        for model, mean, undef, tp in (
                ("fv", report.fv_mean[c], report.fv_undefined[c],
                 report.fv_true_positives[c]),
                ("nn", report.nn_mean[c], report.nn_undefined[c],
                 report.nn_true_positives[c])):
            summary_rows.append((c, model,
                                 "missing" if mean is None else fmt(mean),
                                 tp, undef))
    paths.append(write_table(
        os.path.join(out_dir, "context_summary.tsv"),
        ("class", "model", "mean_mu", "true_positives", "undefined"),
        summary_rows))

    value_rows = []
    for c in report.classes:
        for model, ratios in (("fv", report.fv_values[c]),
                              ("nn", report.nn_values[c])):
            for ratio in ratios:
                value_rows.append((c, model, ratio.image_id, ratio.mu,
                                   ratio.n_inside, ratio.n_outside))
    paths.append(write_table(
        os.path.join(out_dir, "context_values.tsv"),
        ("class", "model", "image", "mu", "inside_px", "outside_px"),
        value_rows))
    return paths


def write_context_figure(out_dir, report: ContextReport) -> list[str]:
    """Grouped bars of mean outside/inside ratio per class and model."""
    n = len(report.classes)
    width, height = max(320, 128 * n), 272
    canvas = np.ones((height, width, 3))
    left, right = _MARGIN, width - _MARGIN
    top, bottom = _MARGIN, height - _MARGIN
    series = [[means[c] if means[c] is not None else 0.0
               for c in report.classes]
              for means in (report.fv_mean, report.nn_mean)]
    px = _to_px(-0.5, n - 0.5, left, right)
    py = _to_px(*_limits(series), bottom, top)
    _fill(canvas, left, py(0.0), right, py(0.0), _ZERO_LINE)
    for pos, (values, x_lo) in enumerate(zip(series, (-0.38, 0.02))):
        for ci, value in enumerate(values):
            _fill(canvas, px(ci + x_lo), py(0.0), px(ci + x_lo + 0.36),
                  py(value), _SERIES[pos])
    _frame(canvas, left, top, right, bottom)
    path = os.path.join(out_dir, "context_ratio.png")
    save_png(Image(canvas), path)
    return [path]


def context_summary_text(report: ContextReport) -> str:
    lines = ["class      model  mean_mu      tp  undef"]
    for c in report.classes:
        for model, mean, undef, tp in (
                ("fv", report.fv_mean[c], report.fv_undefined[c],
                 report.fv_true_positives[c]),
                ("nn", report.nn_mean[c], report.nn_undefined[c],
                 report.nn_true_positives[c])):
            shown = "missing" if mean is None else f"{mean:.6f}"
            lines.append(f"{c:<10s} {model:<6s} {shown:<12s} {tp:3d}  {undef:3d}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# single-image explanation reports


def write_explanation(out_dir, stem: str, image: Image, expl: Explanation,
                      index: EmbeddingIndex | None = None) -> list[str]:
    """Heatmap dump, per-level relevance tables, and an overview figure."""
    paths = []
    raw_path = os.path.join(out_dir, f"{stem}_heatmap.hmap")
    save_heatmap(expl.heatmap, raw_path, mode="raw")
    paths.append(raw_path)
    rendered = render_heatmap(expl.heatmap)
    ppm_path = os.path.join(out_dir, f"{stem}_heatmap.ppm")
    save_image(rendered, ppm_path)
    paths.append(ppm_path)

    r2_rows = []
    for l in range(len(expl.r2.values)):
        x, y, w, h = (int(v) for v in expl.descriptors.areas[l])
        r2_rows.append((l, x, y, w, h, float(expl.r2.values[l])))
    paths.append(write_table(
        os.path.join(out_dir, f"{stem}_r2.tsv"),
        ("descriptor", "x", "y", "w", "h", "relevance"), r2_rows))

    r3_rows = []
    for d, value in enumerate(expl.r3.values):
        if index is not None:
            moment, comp, coord = index.decode(d)
        else:
            moment, comp, coord = ("-", -1, -1)
        r3_rows.append((d, moment, comp, coord, float(value)))
    paths.append(write_table(
        os.path.join(out_dir, f"{stem}_r3.tsv"),
        ("dimension", "moment", "component", "coordinate", "relevance"),
        r3_rows))

    paths.extend(_explanation_figure(out_dir, stem, image, expl))
    return paths


def _explanation_figure(out_dir, stem: str, image: Image,
                        expl: Explanation) -> list[str]:
    """Input, rendered relevance, and the relevance blended over the input."""
    gray = _rgb(image.gray())
    rendered = render_heatmap(expl.heatmap).pixels
    overlay = _OVERLAY_ALPHA * rendered + (1.0 - _OVERLAY_ALPHA) * gray
    path = os.path.join(out_dir, f"{stem}_overview.png")
    save_png(Image(_side_by_side((gray, rendered, overlay))), path)
    return [path]


def write_nn_heatmap(out_dir, stem: str, image: Image,
                     heatmap: Heatmap) -> list[str]:
    """Raw dump plus a two-panel figure (input, rendered heatmap)."""
    paths = []
    raw_path = os.path.join(out_dir, f"{stem}_heatmap.hmap")
    save_heatmap(heatmap, raw_path, mode="raw")
    paths.append(raw_path)
    fig_path = os.path.join(out_dir, f"{stem}_overview.png")
    save_png(Image(_side_by_side((_rgb(image.gray()),
                                  render_heatmap(heatmap).pixels))), fig_path)
    paths.append(fig_path)
    return paths
