"""The benchmark must still run against the package.

`perfbench/spans.py` wraps functions by their `<module>.<qualname>`
name and reports a missing one as absent; a refactor that deletes or
renames a traced function would leave that layer silently empty. The
workloads in `perfbench/workloads.py` call the library directly, so a
signature change there would otherwise show only when the benchmark
runs.
"""

import importlib.util
import os
import sys

import pytest

import fvlrp.gmm

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_layer_is_present():
    spans = _load("spans")
    original = fvlrp.gmm.responsibilities
    tracer = spans.Tracer()
    try:
        assert tracer.install() == []
        assert fvlrp.gmm.responsibilities is not original
    finally:
        tracer.uninstall()
    assert fvlrp.gmm.responsibilities is original


@pytest.fixture(scope="module")
def worker():
    saved = list(sys.path)
    try:
        return _load("worker")  # puts src/ and perfbench/ on sys.path
    finally:
        sys.path[:] = saved


@pytest.mark.parametrize("workload", ["train", "explain", "morf", "cli"])
def test_benchmark_workload_runs(worker, workload):
    result = worker.measure(workload, seed=1, seconds=0.0, trace=False, size="tiny")
    assert result["attempted"] > 0
    assert result["failed"] == 0


def test_traced_explain_reads_each_layer_once_per_explanation(worker):
    """Every explanation computes the responsibilities once and R2 once,
    both directly inside its `lrp_fv.explain` span: the per-layer figures
    of a traced `explain` run are per-explanation costs."""
    result = worker.measure("explain", seed=1, seconds=0.0, trace=True, size="tiny")
    assert result["failed"] == 0 and result["absent"] == []
    spans = result["spans"]
    explains = {sid for sid, _, name, _, _ in spans if name == "lrp_fv.explain"}
    assert explains
    for layer in ("gmm.responsibilities", "lrp_fv.relevance_r2"):
        parents = [parent for _, parent, name, _, _ in spans if name == layer]
        assert sorted(parents) == sorted(explains)
