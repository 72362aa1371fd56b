"""Command-line pipeline: staging, exit codes, and cache discipline."""

import dataclasses
import json
import os
import shutil
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import conftest
from fvlrp import cli, descriptors, fisher, gmm, lrp_nn, svm, util
from fvlrp.cli import main
from fvlrp.config import load_config
from fvlrp.descriptors import RAW_DIM, descriptor_count
from fvlrp.errors import DependencyError
from fvlrp.imaging import decode_images
from fvlrp.pipeline import make_corpus
from fvlrp.serialization import load_model
from fvlrp.synth import label_vectors

# the TINY run the golden digest and criterion 10 pin
REGEN = conftest.golden_regen()
TINY = REGEN.TINY

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


def count_reads(mp, out, config) -> list:
    """The paths under `out`, other than the `config` file, that each
    `util.read_file` call reads from now on, whichever module calls it."""
    reads, original = [], util.read_file

    def counted(path):
        rel = os.path.relpath(path, out).replace(os.sep, "/")
        if not rel.startswith("../") and os.path.abspath(path) != os.path.abspath(config):
            reads.append(rel)
        return original(path)

    for name, module in list(sys.modules.items()):
        if name.startswith("fvlrp") and getattr(module, "read_file", None) is original:
            mp.setattr(module, "read_file", counted)
    return reads


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = write_config(out)
    for stage in STAGES:
        assert run(out, config, stage) == 0, stage
    return out, config


def test_stage_artifacts_exist(pipeline):
    out, _ = pipeline
    for name in ("index.tsv", "train.pgm", "test.pgm"):
        assert (out / "corpus" / name).exists(), name
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


def test_a_report_path_that_cannot_be_written_exits_3(pipeline, tmp_path,
                                                     capsys):
    src, config = pipeline
    out = tmp_path / "run"
    shutil.copytree(src, out)
    table = out / "reports" / "predictions.tsv"
    table.unlink(missing_ok=True)
    table.mkdir(parents=True)
    assert run(out, config, "predict") == 3
    assert "cannot write" in capsys.readouterr().err
    # the same for the manifest, written last
    table.rmdir()
    manifest = out / "manifests" / "predict.json"
    manifest.unlink(missing_ok=True)
    manifest.mkdir()
    assert run(out, config, "predict") == 3
    assert "cannot write" in capsys.readouterr().err


def test_explain_writes_artifacts(pipeline):
    out, config = pipeline
    image_id, cls = REGEN.first_test_image(str(out))
    assert run(out, config, "explain", "--image", image_id,
               "--class", cls) == 0
    dest = out / "reports" / "explain"
    stem = f"{image_id}_{cls}_epsilon"
    for suffix in ("heatmap.hmap", "heatmap.ppm", "r2.tsv", "r3.tsv",
                   "overview.png"):
        assert (dest / f"{stem}_{suffix}").exists(), suffix


def test_explain_usage_and_validation_errors(pipeline, tmp_path, monkeypatch, capsys):
    out, config = pipeline
    # without both flags: refused before any read, on a trained or empty --out
    reads = count_reads(monkeypatch, out, config)
    for flags in ((), ("--image", "x"), ("--class", "disk")):
        for where in (out, tmp_path / "empty"):
            assert run(where, config, "explain", *flags) == 1
            assert "explain needs --image and --class" in capsys.readouterr().err
    assert reads == []
    assert not (tmp_path / "empty").exists()
    assert run(out, config, "explain", "--image", "no-such-image",
               "--class", "disk") == 3
    image_id = (out / "corpus" / "index.tsv").read_text().splitlines()[1].split("\t")[1]
    capsys.readouterr()
    assert run(out, config, "explain", "--image", image_id,
               "--class", "no-such-class") == 3
    assert "not in corpus classes" in capsys.readouterr().err


def test_morf_eval_of_an_unknown_class_is_refused(pipeline, capsys):
    out, config = pipeline
    assert run(out, config, "morf-eval", "--class", "nosuch") == 3
    assert "class 'nosuch' not in corpus classes" in capsys.readouterr().err


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


def test_morf_eval_writes_a_class_without_positives(pipeline, tmp_path,
                                                   monkeypatch, capsys):
    """A class no test image is predicted positive for gets its reports,
    with A and V missing, and the command writes its manifest."""
    src, config = pipeline
    out = tmp_path / "run"
    shutil.copytree(src, out)
    read_bundle = cli._read_bundle

    def out_of_reach(run, **kwargs):
        bundle = read_bundle(run, **kwargs)
        model = bundle.svm
        lifted = dataclasses.replace(model, thresholds=model.thresholds + 1e6)
        return dataclasses.replace(bundle, svm=lifted)

    monkeypatch.setattr(cli, "_read_bundle", out_of_reach)
    capsys.readouterr()
    assert run(out, config, "morf-eval") == 0
    text = capsys.readouterr().out
    classes = json.loads((out / "manifests" / "synth-gen.json").read_text())["classes"]
    assert text.count("0 images") == len(classes)
    manifest = json.loads((out / "manifests" / "morf-eval.json").read_text())
    for cls in classes:
        summary = (out / "reports" / "morf" / cls / "morf_summary.tsv")
        assert all("\tmissing\t" in line
                   for line in summary.read_text().splitlines()[1:])
        for name in ("morf_summary.tsv", "morf_traces.tsv",
                     "morf_first_switch.tsv", "morf_curves.png"):
            assert f"reports/morf/{cls}/{name}" in manifest["outputs"]


def test_verify_includes_trained_model_checks(pipeline, capsys):
    out, config = pipeline
    assert run(out, config, "verify") == 0
    text = capsys.readouterr().out
    assert "trained-conservation" in text
    assert "trained-hellinger" in text
    assert "ok   trained-descriptors" in text
    assert "checks passed" in text


def test_verify_decodes_only_the_test_image_it_explains(pipeline, monkeypatch):
    out, config = pipeline
    calls = []

    def counted(*args, _decode=cli.decode_images, **kwargs):
        for img in _decode(*args, **kwargs):
            calls.append(img)
            yield img

    monkeypatch.setattr(cli, "decode_images", counted)
    assert run(out, config, "verify") == 0
    assert len(calls) == 1


def test_verify_before_training_runs_only_the_seeded_checks(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    for stage in ("synth-gen", "extract"):
        assert run(out, config, stage) == 0, stage
    capsys.readouterr()
    assert run(out, config, "verify") == 0
    lines = capsys.readouterr().out.splitlines()
    assert not any("trained-" in line for line in lines)
    seeded = sum(line.startswith("ok   ") for line in lines)
    assert seeded > 0 and lines[-1] == f"verify: all {seeded} checks passed"


def test_a_failing_check_makes_verify_exit_3(tmp_path, monkeypatch, capsys):
    from fvlrp.verification import CheckResult

    monkeypatch.setattr(cli, "run_all", lambda seed: [
        CheckResult("fine", True, "ok"), CheckResult("broken", False, "off")])
    assert main(["verify", "--out", str(tmp_path / "run")]) == 3
    captured = capsys.readouterr()
    assert "FAIL broken: off" in captured.out and "ok   fine" in captured.out
    assert "1 of 2 checks failed" in captured.err


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
    # explain refuses a call without both flags before it reads anything
    flags = ("--image", "x", "--class", "y") if command == "explain" else ()
    try:
        assert run(out, config, command, *flags) == 2
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
    trace = load_model(out / "models" / "gmm.json", "gmm").ll_trace
    # EM runs on all 784 descriptors: 16 train images x 7 x 7 patches.
    gain = (trace[-1] - trace[-2]) / 784
    assert line == (f"gmm-fit: K=3, {len(trace) - 1} M-steps, stopped by gmm_tol, "
                    f"last gain per descriptor {gain:.2e}")


def test_thresholds_are_eer_over_the_scores_of_the_training_phi(pipeline):
    # each stored threshold comes from exactly the scores that predict,
    # explain and MoRF compare against it, one phi at a time
    out, config = pipeline
    model = load_model(out / "models" / "svm.json", "svm")
    run = cli._Run(str(out), "svm-train", load_config(config))
    features = cli._load_feature_matrix(run, "train")
    labels = label_vectors(run.entries("train"), model.classes)
    for c, tau in zip(model.classes, model.thresholds):
        scores = [svm.score(model, phi, c) for phi in features]
        assert tau.tobytes() == np.float64(
            svm.eer_threshold(scores, labels[c])).tobytes()


def test_stale_cache_is_refused(pipeline, tmp_path, capsys):
    out, _ = pipeline
    other = write_config(tmp_path, seed=123)
    assert run(out, other, "extract") == 2
    assert "config" in capsys.readouterr().err.lower()


def test_report_settings_need_no_retraining(pipeline, tmp_path, capsys):
    out, config = pipeline
    image_id, cls = REGEN.first_test_image(str(out))
    explain = ("explain", "--image", image_id, "--class", cls)
    trained = {p: p.read_bytes() for p in (out / "manifests").iterdir()
               if p.stem in STAGES}
    assert run(out, config, *explain, "--variant", "abs") == 0
    assert run(out, config, *explain, "--epsilon", "1") == 0
    steps = tmp_path / "steps"
    steps.mkdir()
    assert run(out, write_config(steps, morf_steps=4), "morf-eval") == 0
    assert {p: p.read_bytes() for p in trained} == trained
    capsys.readouterr()
    for field, value in (("seed", 123), ("pca_dim", 6)):
        other = tmp_path / field
        other.mkdir()
        assert run(out, write_config(other, **{field: value}), *explain) == 2
        assert "stale cache" in capsys.readouterr().err


def test_modified_artifact_is_refused(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert run(out, config, "synth-gen") == 0
    victim = out / "corpus" / "train.pgm"
    data = bytearray(victim.read_bytes())
    data[len(data) // 2] ^= 1
    victim.write_bytes(bytes(data))
    assert run(out, config, "extract") == 2
    assert "synth-gen" in capsys.readouterr().err


def test_deleted_artifact_is_refused(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert run(out, config, "synth-gen") == 0
    (out / "corpus" / "train.pgm").unlink()
    assert run(out, config, "extract") == 2
    err = capsys.readouterr().err
    assert "corpus/train.pgm recorded by `synth-gen` is missing or modified" in err


def test_a_changed_field_names_its_own_stage_stale(pipeline, tmp_path, capsys):
    out, _ = pipeline
    assert run(out, write_config(tmp_path, pca_dim=6), "gmm-fit") == 2
    assert "stale cache: `pca-fit`" in capsys.readouterr().err


def test_a_changed_svm_c_reruns_svm_train_alone(tmp_path):
    out = tmp_path / "run"
    config = write_config(tmp_path)
    for stage in ("synth-gen", "extract", "pca-fit", "gmm-fit", "embed",
                  "svm-train"):
        assert run(out, config, stage) == 0, stage
    before = {p.name: p.read_bytes() for p in (out / "manifests").iterdir()}
    other = tmp_path / "other"
    other.mkdir()
    assert run(out, write_config(other, svm_c=0.5), "svm-train") == 0
    assert run(out, write_config(other, svm_c=0.5), "predict") == 0
    after = {p.name: p.read_bytes() for p in (out / "manifests").iterdir()}
    moved = {name for name in after if after[name] != before.get(name)}
    assert moved == {"svm-train.json", "predict.json"}


def test_edited_test_embedding_is_refused_where_it_is_read(pipeline, capsys):
    out, config = pipeline
    victim = out / "embeddings" / "test.fvec"
    original = victim.read_bytes()
    victim.write_bytes(original[:-1] + bytes([original[-1] ^ 1]))
    try:
        assert run(out, config, "svm-train") == 0
        capsys.readouterr()
        for command in ("predict", "verify"):
            assert run(out, config, command) == 2, command
            assert "`embed`" in capsys.readouterr().err, command
    finally:
        victim.write_bytes(original)


def test_pca_fit_refuses_an_edited_corpus_index(tmp_path, capsys):
    out = tmp_path / "run"
    config = write_config(tmp_path)
    for stage in ("synth-gen", "extract"):
        assert run(out, config, stage) == 0, stage
    index = out / "corpus" / "index.tsv"
    lines = index.read_text().splitlines(keepends=True)
    lines.remove(next(line for line in lines if line.startswith("train\t")))
    index.write_text("".join(lines))
    assert run(out, config, "pca-fit") == 2
    assert "synth-gen" in capsys.readouterr().err


def test_explain_hashes_only_the_files_it_reads_and_writes(pipeline,
                                                          monkeypatch):
    out, config = pipeline
    image_id, cls = REGEN.first_test_image(str(out))
    hashed = count_reads(monkeypatch, out, config)
    assert run(out, config, "explain", "--image", image_id,
               "--class", cls) == 0
    # four upstream manifests, the index, the test split's images and
    # three models read and hashed; the five reports are hashed as written
    assert len(hashed) == len(set(hashed)) == 9, hashed
    hashed.clear()
    assert run(out, config, "predict") == 0
    # predict uses the index twice, and reads it once
    assert len(hashed) == len(set(hashed)), hashed


def test_a_file_no_declared_stage_recorded_is_refused(pipeline):
    out, config = pipeline
    run = cli._Run(str(out), "explain", load_config(config))
    extracted = json.loads((out / "manifests" / "extract.json").read_text())
    with pytest.raises(DependencyError, match="no upstream stage of it recorded"):
        run.read(next(iter(extracted["outputs"])))


def test_nn_train_runs_right_after_synth_gen(tmp_path):
    out = tmp_path / "run"
    config = write_config(tmp_path)
    assert run(out, config, "synth-gen") == 0
    assert run(out, config, "nn-train") == 0
    assert (out / "models" / "nn.json").exists()


def test_negative_seed_exits_3_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["synth-gen", "--seed", "-3", "--out", str(out)]) == 3
    assert "seed must be >= 0, got -3" in capsys.readouterr().err
    assert run(out, write_config(tmp_path, seed=-1), "synth-gen") == 3
    assert not out.exists()


def test_usage_errors(capsys):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    assert main(["extract", "--no-such-flag"]) == 1


def test_mistyped_config_exits_3_and_writes_nothing(tmp_path, capsys):
    config = write_config(tmp_path, gmm_k=2.5)
    out = tmp_path / "run"
    assert run(out, config, "synth-gen") == 3
    assert "gmm_k" in capsys.readouterr().err
    assert not out.exists()


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


def test_stored_fisher_vectors_equal_the_per_image_path(pipeline):
    """`embed` pools a split's responsibilities; each stored raw FV still
    equals the per-image path that `embed_image`, `explain` and MoRF
    take, bit for bit."""
    out, config_path = pipeline
    config = load_config(config_path)
    pca = load_model(out / "models" / "pca.json", "pca")
    gmm_model = load_model(out / "models" / "gmm.json", "gmm")
    images = list(cli._Run(str(out), "predict", config).images("test"))
    assert len(images) == 2 * TINY["test_per_class"]
    rows = fisher.decode_fisher_vectors(
        (out / "embeddings" / "test.fvec").read_bytes(), len(images))
    for img, stored in zip(images, rows):
        vectors = descriptors.pca_apply(pca, descriptors.extract_dense(
            img.image, config.patch, config.stride)).vectors
        assert stored.tobytes() == fisher.aggregate(gmm_model, vectors).tobytes()


def test_stored_descriptor_sets_equal_extract_dense(pipeline):
    """Every image's cell grid read back from `descriptors/<split>.cells`,
    and the descriptors built from it, are what `extract_dense` gives the
    image, bit for bit, and the file's geometry is the run's."""
    out, config_path = pipeline
    config = load_config(config_path)
    run = cli._Run(str(out), "predict", config)
    for split in ("train", "test"):
        images = list(run.images(split))
        cells = descriptors.decode_cells(
            (out / "descriptors" / f"{split}.cells").read_bytes(), len(images))
        assert cells[1:] == (config.corpus_size, config.corpus_size,
                             config.patch, config.stride)
        rows = np.split(descriptors.descriptors_from_cells(
            cells.grids, config.patch, config.stride), len(images))
        for img, grid, vectors in zip(images, cells.grids, rows, strict=True):
            want = descriptors.extract_dense(img.image, config.patch, config.stride)
            assert vectors.tobytes() == want.vectors.tobytes(), img.image_id
            assert cells[1:3] == want.image_size, img.image_id
            assert grid.tobytes() == want.cells.tobytes(), img.image_id


def test_descriptors_and_embeddings_are_one_file_per_split(pipeline):
    out, _ = pipeline
    for directory, suffix in (("descriptors", "cells"), ("embeddings", "fvec")):
        files = {p.relative_to(out).as_posix()
                 for p in (out / directory).rglob("*")}
        assert files == {f"{directory}/train.{suffix}",
                         f"{directory}/test.{suffix}"}, directory


def test_embed_counts_one_fisher_vector_per_image(pipeline, capsys):
    out, config = pipeline
    assert run(out, config, "embed") == 0
    images = 2 * (TINY["train_per_class"] + TINY["test_per_class"])
    length = (1 + 2 * TINY["pca_dim"]) * TINY["gmm_k"]
    assert capsys.readouterr().out == (
        f"embed: {images} Fisher vectors of length {length}\n")


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


# Every shared option, the value passed and the parsed value expected.
_SHARED_FLAGS = [("--config", "c.json", "config", "c.json"),
                 ("--seed", "3", "seed", 3), ("--threads", "2", "threads", 2),
                 ("--variant", "abs", "variant", "abs"),
                 ("--epsilon", "1.5", "epsilon", 1.5),
                 ("--class", "disk", "cls", "disk"),
                 ("--image", "img-1", "image", "img-1"),
                 ("--out", "dir", "out", "dir")]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_every_command_accepts_every_shared_flag(command):
    argv = [command] + [tok for flag, value, _, _ in _SHARED_FLAGS
                        for tok in (flag, value)]
    args = cli.build_parser().parse_args(argv)
    assert args.command == command
    for _, _, dest, want in _SHARED_FLAGS:
        assert getattr(args, dest) == want, dest


def test_synth_gen_tags_the_artefact_class(tmp_path):
    config = write_config(tmp_path, artefact_class="disk")
    out = tmp_path / "run"
    assert run(out, config, "synth-gen") == 0
    header, *lines = (out / "corpus" / "index.tsv").read_text().splitlines()
    rows = [dict(zip(header.split("\t"), line.split("\t"))) for line in lines]
    train, test, _ = make_corpus(load_config(config))
    assert sorted(row["image"] for row in rows) == sorted(
        im.image_id for im in train + test)
    for split, images in (("train", train), ("test", test)):
        stored = decode_images((out / "corpus" / f"{split}.pgm").read_bytes(),
                               len(images))
        for row, im, img in zip([r for r in rows if r["split"] == split],
                                images, stored):
            assert row["image"] == im.image_id
            tags = [f for f in row["flags"].split(",") if f.startswith("tag-at-")]
            assert len(tags) == (row["labels"] == "disk"), im.image_id
            assert row["flags"] == (",".join(im.flags) or "-"), im.image_id
            np.testing.assert_array_equal(img.pixels, im.image.pixels)


def test_extract_holds_one_raw_descriptor_set(tmp_path):
    """`extract` writes each cell grid as it extracts it, so its peak is
    far below the raw descriptors of a split (fixed workload)."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"seed": 0}))
    out = tmp_path / "run"
    base = ["--config", str(config_path), "--out", str(out)]
    assert main(["synth-gen", *base]) == 0
    config = load_config(config_path)
    train_rows = 2 * config.train_per_class * descriptor_count(
        config.corpus_size, config.corpus_size, config.patch, config.stride)
    raw_bytes = train_rows * RAW_DIM * 8
    tracemalloc.start()
    try:
        assert main(["extract", *base]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < raw_bytes / 4, (
        f"extract peaked at {peak / raw_bytes:.2f}x the train split's raw descriptors")


def test_svm_train_and_predict_decode_no_image(tmp_path, monkeypatch):
    """Both stages read the labels from the corpus index, and decode no
    image and no box."""
    out = tmp_path / "run"
    config = write_config(tmp_path)
    for stage in ("synth-gen", "extract", "pca-fit", "gmm-fit", "embed"):
        assert run(out, config, stage) == 0, stage
    calls = []
    for name in ("decode_images", "decode_boxes"):
        def counted(*args, _name=name, _load=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _load(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    for stage in ("svm-train", "predict"):
        assert run(out, config, stage) == 0, stage
    assert calls == []
    assert (out / "reports" / "predictions.tsv").exists()


# A manifest that is not what its stage writes: not JSON, not an object,
# and `outputs` a string (one that holds every recorded path).
_MALFORMED = {
    "not-json": lambda doc: "{",
    "not-an-object": lambda doc: "[]",
    "string-outputs": lambda doc: json.dumps(
        dict(doc, outputs=" ".join(doc["outputs"]))),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_a_malformed_manifest_is_a_dependency_error(pipeline, capsys, case):
    out, config = pipeline
    manifest = out / "manifests" / "synth-gen.json"
    original = manifest.read_text()
    manifest.write_text(_MALFORMED[case](json.loads(original)))
    try:
        for command in ("extract", "verify"):
            assert run(out, config, command) == 2, command
            err = capsys.readouterr().err
            assert "re-run `fvlrp synth-gen`" in err, (command, err)
    finally:
        manifest.write_text(original)


@pytest.fixture(scope="module")
def tiny_sequence(tmp_path_factory):
    """The command sequence of the golden digest, run into a fresh --out.
    Per command: the files it created, its `decode_boxes` calls, the
    paths under --out it read, and those it wrote through `_Run.write`."""
    root = tmp_path_factory.mktemp("sequence")
    config, out = write_config(root), root / "out"
    commands = [[stage] for stage in REGEN.STAGES]
    commands += [["explain"], ["morf-eval"], ["context-report"], ["verify"]]
    calls, created, reads, written = {}, {}, {}, {}

    def files():
        return {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}

    def counted(*args, _decode=cli.decode_boxes, **kwargs):
        calls[name] += 1  # `name` is the command running now
        return _decode(*args, **kwargs)

    def write(run, rel, chunks, _write=cli._Run.write):
        written[name].add(rel)
        return _write(run, rel, chunks)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "decode_boxes", counted)
        mp.setattr(cli._Run, "write", write)
        read = count_reads(mp, out, config)
        for command in commands:
            name = command[0]
            if name == "explain":
                image_id, cls = REGEN.first_test_image(str(out))
                command = [name, "--image", image_id, "--class", cls]
            calls[name], written[name] = 0, set()
            before = files() if out.exists() else set()
            read.clear()
            assert run(out, config, *command) == 0, command
            created[name], reads[name] = files() - before, list(read)
    return out, calls, created, reads, written


def test_only_context_report_decodes_boxes(tiny_sequence):
    _, calls, *_ = tiny_sequence
    # context-report decodes the boxes of the 2 x 3 test images
    assert calls == {name: 6 if name == "context-report" else 0 for name in calls}


def test_synth_gen_writes_the_corpus_as_three_files(tiny_sequence):
    _, _, created, *_ = tiny_sequence
    corpus = {p for p in created["synth-gen"] if p.startswith("corpus/")}
    assert corpus == {"corpus/index.tsv", "corpus/train.pgm", "corpus/test.pgm"}


def test_extract_and_nn_train_read_the_train_images_once(tiny_sequence):
    _, _, _, reads, _ = tiny_sequence
    for name in ("extract", "nn-train"):
        assert Counter(reads[name])["corpus/train.pgm"] == 1, name


def test_context_report_takes_its_boxes_from_the_index(tiny_sequence):
    """The boxes context-report reads are the generator's, from the corpus
    index and the test split's image file."""
    out, _, _, reads, _ = tiny_sequence
    corpus = sorted(p for p in reads["context-report"] if p.startswith("corpus/"))
    assert corpus == ["corpus/index.tsv", "corpus/test.pgm"]
    config = load_config(out.parent / "config.json")
    _, test, _ = make_corpus(config)
    stored = list(cli._Run(str(out), "context-report", config).images(
        "test", boxes=True))
    assert [im.boxes for im in stored] == [im.boxes for im in test]
    assert all(im.boxes for im in stored)


def test_a_manifest_records_exactly_the_files_its_command_created(tiny_sequence):
    out, _, created, *_ = tiny_sequence
    for name, new in created.items():
        manifest = f"manifests/{name}.json"
        if name == "verify":
            assert new == set()
            continue
        doc = json.loads((out / manifest).read_text())
        assert new == set(doc["outputs"]) | {manifest}, name


def test_every_file_a_command_creates_is_written_through_run_write(tiny_sequence):
    """One write path: models, reports and manifests alike go through
    `_Run.write`, so each file's digest is what the command wrote."""
    _, _, created, _, written = tiny_sequence
    assert set(created) == set(cli._COMMANDS)
    for name, new in created.items():
        assert new == written[name], name


def test_each_command_reads_a_file_once_and_none_it_wrote(tiny_sequence):
    """`_Run.read` parses the bytes it checked, and `_Run.write` hashes
    what it writes, so no command opens a path twice or reads back its
    own output. `verify` decodes the bytes its whole-tree check kept."""
    _, _, _, reads, written = tiny_sequence
    for name, paths in reads.items():
        twice = sorted(p for p, n in Counter(paths).items() if n > 1)
        assert not twice, (name, twice)
        assert not set(paths) & written[name], name
        # every upstream manifest is among the reads
        assert {f"manifests/{s}.json" for s in cli._COMMANDS[name].needs} <= set(paths)
    # extract reads both split files of the corpus
    assert {"corpus/train.pgm", "corpus/test.pgm"} <= set(reads["extract"])
