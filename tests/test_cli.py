"""Command-line pipeline: staging, exit codes, and cache discipline."""

import json
import os

import numpy as np
import pytest

from fvlrp import cli, descriptors, fisher, gmm, lrp_nn, svm
from fvlrp.cli import main

TINY = {
    "corpus_size": 64,
    "train_per_class": 8,
    "test_per_class": 3,
    "patch": 16,
    "stride": 8,
    "pca_dim": 8,
    "gmm_k": 3,
    "gmm_sample_count": 800,
    "svm_epochs": 60,
    "nn_input": 16,
    "nn_hidden": [16, 8],
    "nn_epochs": 8,
    "morf_batch": 3,
    "morf_steps": 5,
    "morf_repetitions": 2,
    "seed": 9,
}

STAGES = ["synth-gen", "extract", "pca-fit", "gmm-fit", "embed",
          "svm-train", "nn-train"]


def write_config(directory, **extra):
    cfg = dict(TINY, **extra)
    path = os.path.join(directory, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return path


def run(out, config, *extra):
    return main([*extra[:1], "--config", config, "--out", str(out),
                 *extra[1:]])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = write_config(out)
    for stage in STAGES:
        assert run(out, config, stage) == 0, stage
    return out, config


def test_stage_artifacts_exist(pipeline):
    out, _ = pipeline
    assert (out / "corpus" / "index.tsv").exists()
    assert (out / "corpus" / "train").is_dir()
    for stage in STAGES:
        assert (out / "manifests" / f"{stage}.json").exists()
    for kind in ("pca", "gmm", "svm", "nn"):
        assert (out / "models" / f"{kind}.json").exists()


def test_manifest_records_inputs_and_hashes(pipeline):
    out, _ = pipeline
    doc = json.loads((out / "manifests" / "svm-train.json").read_text())
    assert doc["stage"] == "svm-train"
    assert set(doc["inputs"]) == {"synth-gen", "embed"}
    assert doc["outputs"] == {"models/svm.json": doc["outputs"]["models/svm.json"]}
    assert len(doc["config_hash"]) == 64


def test_predict_writes_scores(pipeline, capsys):
    out, config = pipeline
    assert run(out, config, "predict") == 0
    captured = capsys.readouterr().out
    assert "accuracy" in captured
    table = (out / "reports" / "predictions.tsv").read_text().splitlines()
    n_images = 2 * TINY["test_per_class"]
    assert len(table) == 1 + n_images * 2  # header + image x class
    assert table[0].split("\t") == ["image", "class", "score", "decision",
                                    "label"]


def test_explain_writes_artifacts(pipeline):
    out, config = pipeline
    index = (out / "corpus" / "index.tsv").read_text().splitlines()[1:]
    image_id, cls = None, None
    for line in index:
        fields = line.split("\t")
        if fields[0] == "test":
            image_id, cls = fields[1], fields[4].split(",")[0]
            break
    assert run(out, config, "explain", "--image", image_id,
               "--class", cls) == 0
    dest = out / "reports" / "explain"
    stem = f"{image_id}_{cls}_epsilon"
    for suffix in ("heatmap.hmap", "heatmap.ppm", "r2.tsv", "r3.tsv",
                   "overview.png"):
        assert (dest / f"{stem}_{suffix}").exists(), suffix


def test_explain_usage_and_validation_errors(pipeline, capsys):
    out, config = pipeline
    assert run(out, config, "explain") == 1
    assert "needs --image and --class" in capsys.readouterr().err
    assert run(out, config, "explain", "--image", "no-such-image",
               "--class", "disk") == 3
    image_id = (out / "corpus" / "index.tsv").read_text().splitlines()[1].split("\t")[1]
    capsys.readouterr()
    assert run(out, config, "explain", "--image", image_id,
               "--class", "no-such-class") == 3
    assert "not in corpus classes" in capsys.readouterr().err


def test_morf_eval_and_context_report(pipeline, capsys):
    out, config = pipeline
    assert run(out, config, "morf-eval") == 0
    first = capsys.readouterr().out
    assert "random" in first
    for cls_dir in (out / "reports" / "morf").iterdir():
        for name in ("morf_summary.tsv", "morf_traces.tsv",
                     "morf_first_switch.tsv", "morf_curves.png"):
            assert (cls_dir / name).exists(), name
    assert run(out, config, "context-report") == 0
    assert (out / "reports" / "context" / "context_summary.tsv").exists()
    assert (out / "reports" / "context" / "context_ratio.png").exists()


def test_verify_includes_trained_model_checks(pipeline, capsys):
    out, config = pipeline
    assert run(out, config, "verify") == 0
    text = capsys.readouterr().out
    assert "trained-conservation" in text
    assert "trained-hellinger" in text
    assert "checks passed" in text


def test_verify_reports_a_stale_stage_before_a_missing_one(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert run(out, config, "synth-gen") == 0
    other = tmp_path / "other"
    other.mkdir()
    # only synth-gen has run, and under another seed
    assert run(out, write_config(other, seed=123), "verify") == 2
    assert "synth-gen" in capsys.readouterr().err


def test_missing_dependency_names_the_stage(tmp_path, capsys):
    config = write_config(tmp_path)
    assert run(tmp_path / "fresh", config, "extract") == 2
    err = capsys.readouterr().err
    assert "synth-gen" in err and "dependency error" in err


# Every (command, upstream stage) pair the stage table declares.
_DECLARED_NEEDS = [(name, stage) for name, command in cli._COMMANDS.items()
                   for stage in command.needs]


@pytest.mark.parametrize("command, stage", _DECLARED_NEEDS,
                         ids=[f"{c}<-{s}" for c, s in _DECLARED_NEEDS])
def test_each_declared_upstream_stage_is_required(pipeline, capsys, command,
                                                  stage):
    out, config = pipeline
    manifest = out / "manifests" / f"{stage}.json"
    hidden = manifest.with_suffix(".hidden")
    manifest.rename(hidden)
    try:
        assert run(out, config, command) == 2
    finally:
        hidden.rename(manifest)
    assert f"needs artifacts from `{stage}`" in capsys.readouterr().err


def test_manifest_inputs_are_the_declared_upstream_stages(pipeline):
    out, _ = pipeline
    for stage in STAGES:
        doc = json.loads((out / "manifests" / f"{stage}.json").read_text())
        assert sorted(doc["inputs"]) == sorted(cli._COMMANDS[stage].needs), stage


def test_explain_without_classifier_names_missing_stage(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    for stage in ("synth-gen", "extract", "pca-fit", "gmm-fit"):
        assert run(out, config, stage) == 0, stage
    assert run(out, config, "explain", "--image", "x", "--class", "y") == 2
    assert "svm-train" in capsys.readouterr().err


def test_gmm_fit_states_why_em_stopped(pipeline, capsys):
    out, config = pipeline
    assert run(out, config, "gmm-fit") == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    trace = [float.fromhex(v) for v in json.loads(
        (out / "models" / "gmm.json").read_text())["payload"]["ll_trace"]]
    # EM runs on all 784 descriptors: 16 train images x 7 x 7 patches.
    gain = (trace[-1] - trace[-2]) / 784
    assert line == (f"gmm-fit: K=3, {len(trace) - 1} M-steps, stopped by gmm_tol, "
                    f"last gain per descriptor {gain:.2e}")


def test_stale_cache_is_refused(pipeline, tmp_path, capsys):
    out, _ = pipeline
    other = write_config(tmp_path, seed=123)
    assert run(out, other, "extract") == 2
    assert "config" in capsys.readouterr().err.lower()


def test_modified_artifact_is_refused(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert run(out, config, "synth-gen") == 0
    victim = next((out / "corpus" / "train").glob("*.pgm"))
    victim.write_bytes(victim.read_bytes() + b"\n")
    assert run(out, config, "extract") == 2
    assert "synth-gen" in capsys.readouterr().err


def test_usage_errors(capsys):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    assert main(["extract", "--no-such-flag"]) == 1


def test_models_are_thread_count_invariant(pipeline, tmp_path):
    out, _ = pipeline
    config = write_config(tmp_path)
    second = tmp_path / "run2"
    for stage in STAGES:
        assert main([stage, "--config", config, "--out", str(second),
                     "--threads", "3"]) == 0, stage
    for kind in ("pca", "gmm", "svm", "nn"):
        a = (out / "models" / f"{kind}.json").read_bytes()
        b = (second / "models" / f"{kind}.json").read_bytes()
        assert a == b, kind
    assert ((out / "corpus" / "index.tsv").read_bytes()
            == (second / "corpus" / "index.tsv").read_bytes())


def test_cli_has_no_stage_implementation_of_its_own():
    """Fitting, projection and encoding live in `fvlrp.pipeline` only."""
    forbidden = {
        "em_fit": gmm.em_fit, "pca_fit": descriptors.pca_fit,
        "pca_apply": descriptors.pca_apply,
        "extract_dense": descriptors.extract_dense,
        "aggregate": fisher.aggregate, "nn_train": lrp_nn.nn_train,
        "image_to_input": lrp_nn.image_to_input, "svm.train": svm.train,
        "with_thresholds": svm.with_thresholds,
        # a module import would reach the same functions by attribute
        "gmm": gmm, "descriptors": descriptors, "fisher": fisher,
        "lrp_nn": lrp_nn, "svm": svm,
    }
    for name, value in vars(cli).items():
        for what, obj in forbidden.items():
            assert value is not obj, f"fvlrp.cli.{name} is {what}"
