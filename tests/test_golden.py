"""Output drift is a gate: full CLI runs match their golden digests.

`tests/golden/tiny_run.json` holds the sha256 of every file a full TINY
run writes under `--out` and each command's stdout; `fixed_run.json`
holds the same for the fixed workload, `{"seed": 0}`. A change that
moves bytes on purpose regenerates both with `tests/golden/regen.py`
and names the moved files and the reason. The fixed run is also checked
at one OpenBLAS thread, so no output depends on how BLAS splits a
product across threads.
"""

import json
import os
import subprocess
import sys

import conftest
import fvlrp


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


# Runs the fixed sequence in a fresh process and prints `compare`'s
# problems against `fixed_run.json` as one JSON line.
_ONE_THREAD_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("golden_regen", sys.argv[1])
regen = importlib.util.module_from_spec(spec)
spec.loader.exec_module(regen)
digest = regen.run_digest(regen.FIXED, sys.argv[2])
print(json.dumps(regen.compare(regen.load_golden(regen.FIXED_GOLDEN), digest)))
"""


def test_fixed_run_does_not_depend_on_the_blas_thread_count(tmp_path):
    """The in-process test above runs at the default thread count; this
    one runs the same sequence with `OPENBLAS_NUM_THREADS=1`, which
    OpenBLAS reads only when it loads, so in a subprocess."""
    regen = conftest.golden_regen()
    src = os.path.dirname(os.path.dirname(os.path.abspath(fvlrp.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=src if not path else os.pathsep.join((src, path)))
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_THREAD_RUN, regen.__file__,
         str(tmp_path / "out")], env=env, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    problems = json.loads(proc.stdout.splitlines()[-1])
    assert not problems, "\n".join(problems)
