"""The benchmark's own tests, on the tiny workload size.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402  (puts the checkout's src on sys.path)
import workloads  # noqa: E402

import fvlrp.evaluation  # noqa: E402
import fvlrp.gmm  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

INFO_LINES = {
    "explain": ("explain_ms_p50", "explain_ms_p90", "explain_samples", "context_s"),
    "morf": ("morf_ms_per_trace",),
}


def _run(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", tuple(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, lines = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    printed = {line.split()[0]: line.split() for line in lines}
    for name in result["metrics"]:
        assert len(printed[name]) == 3, printed[name]  # name, value, unit
    assert printed["error_rate"][1] == "0.0"
    if not trace:
        for name in ("round_s_median",) + INFO_LINES.get(workload, ()):
            assert len(printed[name]) == 3, printed[name]


def test_forced_check_failure_raises_error_rate(monkeypatch):
    monkeypatch.setattr(workloads, "ACCURACY_FLOOR", 1.01)
    result = worker.measure("train", seed=1, seconds=0.0, trace=False,
                            size="tiny")
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] > 0.0


def test_traced_spans_form_a_tree_with_nonnegative_self_times():
    result = worker.measure("cli", seed=1, seconds=0.0, trace=True,
                            size="tiny")
    recorded = result["spans"]
    by_id = {s[0]: s for s in recorded}
    assert len(by_id) == len(recorded)
    names = {s[2] for s in recorded}
    assert {"cli.extract", "util.parallel_map", "descriptors.extract_dense",
            "gmm.em_fit"} <= names
    for sid, parent, _, start, end in recorded:
        assert end >= start
        if parent is not None:
            # a parent opens before its children and encloses them
            assert parent < sid
            assert by_id[parent][3] <= start and end <= by_id[parent][4]
    # no span is its own ancestor: following parents reaches a root
    for sid, parent, *_ in recorded:
        seen = {sid}
        while parent is not None:
            assert parent not in seen
            seen.add(parent)
            parent = by_id[parent][1]
    assert min(spans.self_times(recorded).values()) >= 0.0
    metrics = result["metrics"]
    assert metrics["cli.bytes_written"]["value"] > 0
    assert metrics["gmm.em_fit.iterations"]["value"] >= 1


def test_wrappers_follow_callers_and_tolerate_missing_layers(monkeypatch):
    monkeypatch.setattr(spans, "LAYERS", spans.LAYERS + (
        ("gmm.removed_function", ("calls",)),
        ("removed_module.function", ("s",))))
    original = fvlrp.gmm.sample
    tracer = spans.Tracer()
    absent = tracer.install()
    try:
        assert absent == ["gmm.removed_function", "removed_module.function"]
        # evaluation looks `sample` up in its own namespace
        assert fvlrp.evaluation.sample is fvlrp.gmm.sample
        assert fvlrp.evaluation.sample is not original
    finally:
        tracer.uninstall()
    assert fvlrp.gmm.sample is original
    assert fvlrp.evaluation.sample is original


def test_scaled_time_drops_the_probes_and_rescales_to_the_reference():
    speed = hostspeed.SpeedProbe()
    ref = hostspeed.REF_S
    # (start, wall, cpu): two probes inside [10, 12), one after it
    speed.samples = [(10.5, 0.01, ref), (11.5, 0.01, 2 * ref),
                     (12.5, 0.01, ref)]
    # 2 s less 0.02 s of probes, at the mean of ref/cpu = (1 + 0.5) / 2
    assert speed.scaled(10.0, 12.0) == pytest.approx(1.98 * 0.75)
    assert speed.scaled(13.0, 14.0) == 1.0  # no probe inside: as it ran


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        [0, None, "root", 0.0, 10.0],
        [1, 0, "a", 1.0, 4.0],
        [2, 0, "b", 3.0, 6.0],   # overlaps a (another thread)
        [3, 2, "c", 3.5, 4.5],
    ]
    selfs = spans.self_times(recorded)
    assert selfs == {0: 5.0, 1: 3.0, 2: 2.0, 3: 1.0}
    assert spans.summarize(recorded)["root"] == (1, 5.0)
