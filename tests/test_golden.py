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

    problems = []
    if got["environment"] != golden["environment"]:
        problems.append(f"environment differs: recorded {golden['environment']}, "
                        f"running {got['environment']}; model bytes depend on "
                        "the BLAS build, so the digest may need regenerating")
    want, have = golden["files"], got["files"]
    for label, paths in (
            ("added", sorted(set(have) - set(want))),
            ("removed", sorted(set(want) - set(have))),
            ("changed", sorted(p for p in set(want) & set(have)
                               if want[p] != have[p]))):
        if paths:
            problems.append(f"{label} ({len(paths)}): " + ", ".join(paths))
    for command in sorted(set(golden["stdout"]) | set(got["stdout"])):
        if golden["stdout"].get(command) != got["stdout"].get(command):
            problems.append(f"stdout of `{command}` changed:\n"
                            f"--- golden\n{golden['stdout'].get(command)}"
                            f"--- now\n{got['stdout'].get(command)}")
    assert not problems, "\n".join(problems)
