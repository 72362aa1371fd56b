"""Output drift is a gate: a TINY CLI run matches its golden digest.

`tests/golden/tiny_run.json` holds the sha256 of every file a full TINY
run writes under `--out` and each command's stdout. A change that moves
bytes on purpose regenerates it with `tests/golden/regen.py` and names
the moved files and the reason.
"""

import json

import conftest


def test_tiny_run_matches_golden_digest(tmp_path):
    regen = conftest.golden_regen()
    with open(regen.GOLDEN, encoding="ascii") as fh:
        golden = json.load(fh)
    assert golden["config"] == regen.TINY
    got = regen.run_digest(regen.TINY, str(tmp_path / "out"))

    problems = regen.compare(golden, got)
    assert not problems, "\n".join(problems)
