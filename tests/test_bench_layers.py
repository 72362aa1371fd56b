"""The benchmark's traced layer names must all exist in the package.

`perfbench/spans.py` wraps functions by their `<module>.<qualname>`
name and reports a missing one as absent; a refactor that deletes or
renames a traced function would leave that layer silently empty.
"""

import importlib.util
import os

import fvlrp.gmm

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def test_every_benchmark_layer_is_present():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = fvlrp.gmm.responsibilities
    tracer = spans.Tracer()
    try:
        assert tracer.install() == []
        assert fvlrp.gmm.responsibilities is not original
    finally:
        tracer.uninstall()
    assert fvlrp.gmm.responsibilities is original
