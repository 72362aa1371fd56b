"""Rewrite the golden digests of full CLI runs: `tiny_run.json` for the
TINY config (the one criterion 10 uses) and `fixed_run.json` for the
fixed workload, `{"seed": 0}`, which reaches default-size behaviour
such as EM stopping at its cap and the 1024-64-32-2 network.

A digest pins every output byte of the command-line pipeline: it runs
synth-gen → predict, one `explain`, `morf-eval`, `context-report` and
`verify` in process on its config, then records the sha256 of every
file under `--out` and each command's stdout, with the `--out` path
written as `$OUT`. `tests/test_golden.py` reruns the same sequences and
compares.

EM's gemms make model bytes depend on the BLAS build, so the digest
also records numpy's version and BLAS; a mismatch there is reported
before any changed file.

A change that moves output bytes on purpose reruns this script, which
prints what moved against each digest it replaces (with `compare`, the
function the test reports through), and names the moved files and the
reason:

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from fvlrp.cli import decode_index, main as cli_main

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(GOLDEN_DIR, "tiny_run.json")
FIXED_GOLDEN = os.path.join(GOLDEN_DIR, "fixed_run.json")

TINY = {
    "corpus_size": 64, "train_per_class": 8, "test_per_class": 3,
    "patch": 16, "stride": 8, "pca_dim": 8, "gmm_k": 3,
    "gmm_sample_count": 800, "svm_epochs": 60, "nn_input": 16,
    "nn_hidden": [16, 8], "nn_epochs": 8, "morf_batch": 3,
    "morf_steps": 5, "morf_repetitions": 2, "seed": 9,
}

FIXED = {"seed": 0}

# Each digest file and the config of the run it pins.
DIGESTS = ((GOLDEN, TINY), (FIXED_GOLDEN, FIXED))

STAGES = ("synth-gen", "extract", "pca-fit", "gmm-fit", "embed",
          "svm-train", "nn-train", "predict")


def environment() -> dict:
    """numpy's version and the BLAS it was built against."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def first_test_image(out_dir: str) -> tuple[str, str]:
    """The id of the first test image in the corpus index, and its first
    label."""
    with open(os.path.join(out_dir, "corpus", "index.tsv"), "rb") as fh:
        entries = decode_index(fh.read())
    for entry in entries:
        if entry.split == "test":
            return entry.image_id, entry.labels[0]
    raise RuntimeError("no test image in the corpus index")


def run_digest(config: dict, out_dir: str) -> dict:
    """Run the whole CLI sequence under `config` into `out_dir` and digest it."""
    config_path = os.path.join(os.path.dirname(out_dir), "config.json")
    with open(config_path, "w", encoding="ascii") as fh:
        json.dump(config, fh)
    base = ["--config", config_path, "--out", out_dir]
    commands = [[stage] for stage in STAGES]
    commands += [["explain"], ["morf-eval"], ["context-report"], ["verify"]]
    stdout = {}
    for command in commands:
        if command == ["explain"]:
            image_id, cls = first_test_image(out_dir)
            command = ["explain", "--image", image_id, "--class", cls]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main([*command, *base])
        if code != 0:
            raise RuntimeError(f"`fvlrp {' '.join(command)}` exited {code}")
        stdout[" ".join(command)] = buf.getvalue().replace(out_dir, "$OUT")
    files = {}
    for root, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out_dir).replace(os.sep, "/")
            with open(path, "rb") as fh:
                files[rel] = hashlib.sha256(fh.read()).hexdigest()
    return {"environment": environment(), "config": config,
            "stdout": stdout, "files": dict(sorted(files.items()))}


def compare(golden: dict, got: dict) -> list[str]:
    """What differs between two digests: the environment first, then the
    added, removed and changed paths, then each command's stdout."""
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
    return problems


def load_golden(path: str) -> dict:
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def main() -> int:
    for path, config in DIGESTS:
        with tempfile.TemporaryDirectory() as tmp:
            digest = run_digest(config, os.path.join(tmp, "out"))
        if os.path.exists(path):
            problems = compare(load_golden(path), digest)
            print("\n".join(problems) if problems
                  else f"{os.path.basename(path)}: no change against the old digest")
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            json.dump(digest, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}: {len(digest['files'])} files, "
              f"{len(digest['stdout'])} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
