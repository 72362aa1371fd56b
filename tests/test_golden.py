"""Output drift is a gate: a TINY CLI run matches its golden digest.

`tests/golden/tiny_run.json` holds the sha256 of every file a full TINY
run writes under `--out` and each command's stdout. A change that moves
bytes on purpose regenerates it with `tests/golden/regen.py` and names
the moved files and the reason.
"""

import importlib.util
import json
import os

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _regen():
    spec = importlib.util.spec_from_file_location(
        "golden_regen", os.path.join(GOLDEN_DIR, "regen.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_run_matches_golden_digest(tmp_path):
    regen = _regen()
    with open(regen.GOLDEN, encoding="ascii") as fh:
        golden = json.load(fh)
    assert golden["config"] == regen.TINY
    got = regen.run_digest(regen.TINY, str(tmp_path / "out"))

    problems = regen.compare(golden, got)
    assert not problems, "\n".join(problems)
