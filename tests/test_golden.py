"""Output drift is a gate: full CLI runs match their golden digests.

`tests/golden/tiny_run.json` holds the sha256 of every file a full TINY
run writes under `--out` and each command's stdout; `fixed_run.json`
holds the same for the fixed workload, `{"seed": 0}`. A change that
moves bytes on purpose regenerates both with `tests/golden/regen.py`
and names the moved files and the reason.
"""

import conftest


def _check(path: str, config: dict, out_dir: str) -> None:
    regen = conftest.golden_regen()
    golden = regen.load_golden(path)
    assert golden["config"] == config
    problems = regen.compare(golden, regen.run_digest(config, out_dir))
    assert not problems, "\n".join(problems)


def test_tiny_run_matches_golden_digest(tmp_path):
    regen = conftest.golden_regen()
    _check(regen.GOLDEN, regen.TINY, str(tmp_path / "out"))


def test_fixed_run_matches_golden_digest(tmp_path):
    regen = conftest.golden_regen()
    _check(regen.FIXED_GOLDEN, regen.FIXED, str(tmp_path / "out"))
