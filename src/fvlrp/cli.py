"""Command-line pipeline: staged subcommands with cached artifacts.

Each stage writes its artifacts under a working directory plus a
manifest recording its stage hash, the seed, the upstream manifests it
consumed, and a digest of every file it wrote. `_COMMANDS`, the one
stage table, declares each command's upstream stages and config fields;
a stage's hash covers those fields and its upstream stages' hashes. A
command refuses a missing or stale upstream manifest, and opens upstream
files only through `_Upstream.path`, which checks each file's digest.

Exit codes: 0 success, 1 usage error, 2 missing/stale dependency,
3 validation or verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator
from typing import Callable, NamedTuple

import numpy as np

from . import report
from .config import PipelineConfig, load_config
from .descriptors import descriptor_count, load_descriptors, save_descriptors
from .errors import (DependencyError, PipelineError, UsageError,
                     ValidationError, VerificationError)
from .evaluation import compare_orderings, context_report
from .fisher import (EmbeddingIndex, hellinger_check, load_fisher_vector,
                     save_fisher_vector)
from .imaging import load_annotations, load_image, save_annotations, save_image
from .lrp_fv import explain
from .pipeline import (ModelBundle, em_stop, embed_all, extract_corpus,
                       fit_gmm, fit_pca, improved_matrix, make_corpus,
                       project_all, train_net, train_svm)
from .serialization import load_model, save_model
from .svm import score
from .synth import LabeledImage
from .util import file_hash, stable_hash
from .verification import run_all

_VARIANT_FLAGS = {"plain": "plain", "eps": "epsilon", "abs": "absolute"}

STAGE_SYNTH = "synth-gen"
STAGE_EXTRACT = "extract"
STAGE_PCA = "pca-fit"
STAGE_GMM = "gmm-fit"
STAGE_EMBED = "embed"
STAGE_SVM = "svm-train"
STAGE_NN = "nn-train"


# ---------------------------------------------------------------------------
# manifests and artifact bookkeeping


def _manifest_path(out_dir: str, stage: str) -> str:
    return os.path.join(out_dir, "manifests", f"{stage}.json")


def _stage_hash(config: PipelineConfig, stage: str) -> str:
    """Hash of the fields `stage` reads and of its upstream stages' hashes."""
    command = _COMMANDS[stage]
    return stable_hash([{f: getattr(config, f) for f in command.fields},
                        [_stage_hash(config, s) for s in command.needs]])


def _write_manifest(out_dir: str, stage: str, config: PipelineConfig,
                    inputs: tuple[str, ...], outputs: list[str],
                    **extra) -> None:
    """Record what a stage produced; paths are relative to the out dir."""
    os.makedirs(os.path.join(out_dir, "manifests"), exist_ok=True)
    doc = {
        "stage": stage,
        "config_hash": _stage_hash(config, stage),
        "seed": config.seed,
        "inputs": {s: file_hash(_manifest_path(out_dir, s)) for s in inputs},
        "outputs": {rel: file_hash(os.path.join(out_dir, rel))
                    for rel in sorted(outputs)},
    }
    doc.update(extra)
    with open(_manifest_path(out_dir, stage), "w", encoding="ascii",
              newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _require_stage(out_dir: str, stage: str, config: PipelineConfig,
                   needed_by: str) -> dict:
    """Load an upstream manifest, refusing a missing or stale one."""
    path = _manifest_path(out_dir, stage)
    if not os.path.exists(path):
        raise DependencyError(
            f"`{needed_by}` needs artifacts from `{stage}`; "
            f"run `fvlrp {stage}` first")
    with open(path, "r", encoding="ascii") as fh:
        manifest = json.load(fh)
    if manifest.get("config_hash") != _stage_hash(config, stage):
        raise DependencyError(
            f"stale cache: `{stage}` artifacts were built under a different "
            f"configuration; re-run `fvlrp {stage}`")
    return manifest


class _Upstream(NamedTuple):
    """A command's checked upstream manifests; `path` opens their files."""
    out_dir: str
    command: str
    manifests: dict[str, dict]
    checked: set[str]

    def path(self, rel: str) -> str:
        """`rel` once it matches its recorded digest, hashed once per command."""
        full = os.path.join(self.out_dir, rel)
        if rel not in self.checked:
            stage = next((s for s, m in self.manifests.items()
                          if rel in m.get("outputs", {})), None)
            if stage is None:
                raise DependencyError(f"`{self.command}` reads {rel}, which no "
                                      f"upstream stage of it recorded")
            if (not os.path.isfile(full)
                    or file_hash(full) != self.manifests[stage]["outputs"][rel]):
                raise DependencyError(
                    f"artifact {rel} recorded by `{stage}` is missing or "
                    f"modified; re-run `fvlrp {stage}`")
            self.checked.add(rel)
        return full


def _upstream(out_dir: str, command: str, config: PipelineConfig) -> _Upstream:
    """`command`'s upstream manifests, each checked by `_require_stage`."""
    return _Upstream(out_dir, command, {s: _require_stage(out_dir, s, config, command)
                                        for s in _COMMANDS[command].needs}, set())


def _ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _rel(out_dir: str, path: str) -> str:
    return os.path.relpath(path, out_dir).replace(os.sep, "/")


# ---------------------------------------------------------------------------
# corpus storage


_INDEX = "corpus/index.tsv"


def _save_corpus_split(out_dir: str, split: str,
                       images: list[LabeledImage]) -> list[str]:
    written = []
    split_dir = _ensure_dir(os.path.join(out_dir, "corpus", split))
    for img in images:
        img_path = os.path.join(split_dir, f"{img.image_id}.pgm")
        ann_path = os.path.join(split_dir, f"{img.image_id}.txt")
        save_image(img.image, img_path)
        save_annotations(list(img.boxes), ann_path)
        written += [_rel(out_dir, img_path), _rel(out_dir, ann_path)]
    return written


def _save_corpus_index(out_dir: str, train: list[LabeledImage],
                       test: list[LabeledImage]) -> None:
    rows = []
    for split, images in (("train", train), ("test", test)):
        for img in images:
            rows.append((split, img.image_id,
                         f"corpus/{split}/{img.image_id}.pgm",
                         f"corpus/{split}/{img.image_id}.txt",
                         ",".join(img.labels),
                         ",".join(img.flags) if img.flags else "-"))
    report.write_table(os.path.join(out_dir, _INDEX),
                       ("split", "image", "file", "annotations", "labels",
                        "flags"), rows)


class _IndexEntry(NamedTuple):
    """One row of the corpus index. Its `labels` are all that
    `label_vectors` reads, so stages that need only the labels never
    decode the image."""

    split: str
    image_id: str
    file: str
    annotations: str
    labels: tuple[str, ...]
    flags: tuple[str, ...]


def _load_corpus_index(upstream: _Upstream) -> list[_IndexEntry]:
    with open(upstream.path(_INDEX), "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split("\t")
    entries = []
    for line in lines[1:]:
        row = dict(zip(header, line.split("\t")))
        entries.append(_IndexEntry(
            row["split"], row["image"], row["file"], row["annotations"],
            tuple(row["labels"].split(",")) if row["labels"] else (),
            () if row["flags"] == "-" else tuple(row["flags"].split(","))))
    return entries


def _split_entries(upstream: _Upstream, split: str) -> list[_IndexEntry]:
    return [e for e in _load_corpus_index(upstream) if e.split == split]


def _iter_split(upstream: _Upstream, split: str) -> Iterator[LabeledImage]:
    """The split's images in index order, each read as it is reached."""
    for entry in _split_entries(upstream, split):
        img = load_image(upstream.path(entry.file))
        boxes = load_annotations(upstream.path(entry.annotations))
        yield LabeledImage(img, entry.labels, tuple(boxes), entry.image_id,
                           entry.flags)


def _load_split(upstream: _Upstream, split: str) -> list[LabeledImage]:
    return list(_iter_split(upstream, split))


def _split_ids(upstream: _Upstream, split: str) -> list[str]:
    return [e.image_id for e in _split_entries(upstream, split)]


def _corpus_classes(upstream: _Upstream) -> tuple[str, ...]:
    return tuple(upstream.manifests[STAGE_SYNTH]["classes"])


# ---------------------------------------------------------------------------
# models

# The stages a trained bundle is read from, in the order they are checked.
_BUNDLE_STAGES = (STAGE_SYNTH, STAGE_PCA, STAGE_GMM, STAGE_SVM)


def _load_stage_model(upstream: _Upstream, kind: str):
    return load_model(upstream.path(f"models/{kind}.json"), kind)


def _save_stage_model(out_dir: str, model, kind: str) -> dict:
    """Write a stage's one model file; returns the keys of its manifest."""
    rel = f"models/{kind}.json"
    _ensure_dir(os.path.join(out_dir, "models"))
    save_model(model, os.path.join(out_dir, rel))
    return {"outputs": [rel]}


def _read_bundle(upstream: _Upstream, config: PipelineConfig,
                 with_nn: bool = False) -> ModelBundle:
    """The trained models as stored."""
    pca, gmm, svm = (_load_stage_model(upstream, kind)
                     for kind in ("pca", "gmm", "svm"))
    net = _load_stage_model(upstream, "nn") if with_nn else None
    return ModelBundle(_corpus_classes(upstream), pca, gmm, svm, net,
                       config.patch, config.stride)


# ---------------------------------------------------------------------------
# subcommands
#
# A handler receives its `_Upstream` (see `_COMMANDS`) and returns the
# keys its own manifest adds: "outputs", the files it wrote, plus any
# extra keys; `verify` writes no manifest.


def _cmd_synth_gen(config: PipelineConfig, args, upstream) -> dict:
    out_dir = args.out
    train_imgs, test_imgs, classes = make_corpus(config)
    outputs = _save_corpus_split(out_dir, "train", train_imgs)
    outputs += _save_corpus_split(out_dir, "test", test_imgs)
    _save_corpus_index(out_dir, train_imgs, test_imgs)
    outputs.append(_INDEX)
    size = config.corpus_size
    print(f"synth-gen: {len(train_imgs)} train / {len(test_imgs)} test images "
          f"({size}x{size}, rho={config.corpus_rho})")
    return {"outputs": outputs, "classes": list(classes)}


def _desc_rel(image_id: str, split: str) -> str:
    return f"descriptors/{split}/{image_id}.desc"


def _cmd_extract(config: PipelineConfig, args, upstream) -> dict:
    out_dir = args.out
    outputs = []
    total = 0
    for split in ("train", "test"):
        ids = _split_ids(upstream, split)
        _ensure_dir(os.path.join(out_dir, "descriptors", split))
        # one raw set at a time: each is written before the next is extracted
        sets = extract_corpus(_iter_split(upstream, split), config)
        for image_id, ds in zip(ids, sets):
            rel = _desc_rel(image_id, split)
            save_descriptors(ds, os.path.join(out_dir, rel))
            outputs.append(rel)
            total += len(ds)
    print(f"extract: {total} descriptors "
          f"(patch {config.patch}, stride {config.stride})")
    return {"outputs": outputs}


def _load_descriptor_sets(upstream: _Upstream, split: str):
    """The split's image ids, and its descriptor sets loaded one at a time
    as they are iterated, so a consumer that drops each set holds one."""
    ids = _split_ids(upstream, split)
    return ids, (load_descriptors(upstream.path(_desc_rel(i, split))) for i in ids)


def _split_rows(config: PipelineConfig, ids: list[str]) -> int:
    # Every corpus image is corpus_size pixels square.
    return len(ids) * descriptor_count(config.corpus_size, config.corpus_size,
                                       config.patch, config.stride)


def _project_split(upstream: _Upstream, split: str, pca, config: PipelineConfig):
    """The split's image ids and its projected descriptors, one matrix."""
    ids, sets = _load_descriptor_sets(upstream, split)
    return ids, project_all(pca, sets, _split_rows(config, ids))


def _cmd_pca_fit(config: PipelineConfig, args, upstream) -> dict:
    ids, sets = _load_descriptor_sets(upstream, "train")
    rows = _split_rows(config, ids)
    model, _ = fit_pca(sets, rows, config)
    print(f"pca-fit: {model.raw_dim} -> {model.dim} dims on {rows} descriptors")
    return _save_stage_model(args.out, model, "pca")


def _cmd_gmm_fit(config: PipelineConfig, args, upstream) -> dict:
    pca = _load_stage_model(upstream, "pca")
    _, projected = _project_split(upstream, "train", pca, config)
    model = fit_gmm(projected, config)
    steps, reason, gain = em_stop(model, projected, config)
    print(f"gmm-fit: K={config.gmm_k}, {steps} M-steps, stopped by {reason}, "
          f"last gain per descriptor {'none' if gain is None else f'{gain:.2e}'}")
    return _save_stage_model(args.out, model, "gmm")


def _fvec_rel(image_id: str, split: str) -> str:
    return f"embeddings/{split}/{image_id}.fvec"


def _cmd_embed(config: PipelineConfig, args, upstream) -> dict:
    out_dir = args.out
    pca = _load_stage_model(upstream, "pca")
    gmm = _load_stage_model(upstream, "gmm")
    outputs = []
    for split in ("train", "test"):
        ids, projected = _project_split(upstream, split, pca, config)
        _ensure_dir(os.path.join(out_dir, "embeddings", split))
        raws = embed_all(gmm, projected)
        for image_id, raw in zip(ids, raws):
            rel = _fvec_rel(image_id, split)
            save_fisher_vector(raw, gmm.n_components, gmm.dim,
                               os.path.join(out_dir, rel))
            outputs.append(rel)
    print(f"embed: {len(outputs)} Fisher vectors of length "
          f"{(1 + 2 * config.pca_dim) * config.gmm_k}")
    return {"outputs": outputs}


def _load_feature_matrix(upstream: _Upstream, split: str
                         ) -> tuple[list[str], np.ndarray]:
    ids = _split_ids(upstream, split)
    raws = [load_fisher_vector(upstream.path(_fvec_rel(i, split))) for i in ids]
    return ids, improved_matrix(raws)


def _cmd_svm_train(config: PipelineConfig, args, upstream) -> dict:
    classes = _corpus_classes(upstream)
    _, features = _load_feature_matrix(upstream, "train")
    model = train_svm(_split_entries(upstream, "train"), features, classes,
                      config)
    taus = ", ".join(f"{c}: {t:.4f}" for c, t in zip(classes, model.thresholds))
    print(f"svm-train: {len(classes)} classes on {features.shape[0]} images "
          f"(C={config.svm_c}); thresholds {taus}")
    return _save_stage_model(args.out, model, "svm")


def _cmd_nn_train(config: PipelineConfig, args, upstream) -> dict:
    classes = _corpus_classes(upstream)
    train_imgs = _load_split(upstream, "train")
    net = train_net(train_imgs, classes, config)
    arch = "-".join(str(s) for s in
                    [net.input_dim] + [l.weights.shape[1] for l in net.layers])
    print(f"nn-train: {arch} network on {len(train_imgs)} images")
    return _save_stage_model(args.out, net, "nn")


def _cmd_predict(config: PipelineConfig, args, upstream) -> dict:
    out_dir = args.out
    classes = _corpus_classes(upstream)
    svm_model = _load_stage_model(upstream, "svm")
    entries = _split_entries(upstream, "test")
    _, features = _load_feature_matrix(upstream, "test")
    scores = {c: score(svm_model, features, c) for c in classes}
    rows = []
    correct = {c: 0 for c in classes}
    for i, entry in enumerate(entries):
        for c in classes:
            k = svm_model.class_index(c)
            f = float(scores[c][i])
            decision = int(f > float(svm_model.thresholds[k]))
            truth = int(c in entry.labels)
            correct[c] += int(decision == truth)
            rows.append((entry.image_id, c, f, decision, truth))
    _ensure_dir(os.path.join(out_dir, "reports"))
    path = os.path.join(out_dir, "reports", "predictions.tsv")
    report.write_table(path, ("image", "class", "score", "decision", "label"),
                       rows)
    acc = ", ".join(f"{c}: {correct[c] / len(entries):.3f}" for c in classes)
    print(f"predict: {len(entries)} test images; accuracy {acc}")
    print(f"wrote {path}")
    return {"outputs": [_rel(out_dir, path)]}


def _cmd_explain(config: PipelineConfig, args, upstream) -> dict:
    out_dir = args.out
    bundle = _read_bundle(upstream, config)
    if not args.image or not args.cls:
        raise UsageError("explain needs --image and --class")
    if args.cls not in bundle.classes:
        raise ValidationError(
            f"class {args.cls!r} not in corpus classes {bundle.classes}")
    entries = {e.image_id: e for e in _load_corpus_index(upstream)}
    if args.image not in entries:
        raise ValidationError(f"image {args.image!r} not in the corpus index")
    img = load_image(upstream.path(entries[args.image].file))
    expl = explain(img, bundle.gmm, bundle.pca, bundle.svm, args.cls,
                   variant=config.variant, epsilon=config.epsilon,
                   patch=bundle.patch, stride=bundle.stride)
    stem = f"{args.image}_{args.cls}_{config.variant}"
    dest = _ensure_dir(os.path.join(out_dir, "reports", "explain"))
    paths = report.write_explanation(
        dest, stem, img, expl,
        EmbeddingIndex(bundle.gmm.n_components, bundle.gmm.dim))
    state = "positive" if expl.prediction_positive else "negative"
    print(f"explain: f({args.image}, {args.cls}) = {expl.score:.6f} "
          f"({state}); variant {config.variant}")
    for p in paths:
        print(f"wrote {p}")
    return {"outputs": [_rel(out_dir, p) for p in paths]}


def _cmd_morf_eval(config: PipelineConfig, args, upstream) -> dict:
    out_dir = args.out
    bundle = _read_bundle(upstream, config)
    if args.cls and args.cls not in bundle.classes:
        raise ValidationError(
            f"class {args.cls!r} not in corpus classes {bundle.classes}")
    targets = (args.cls,) if args.cls else bundle.classes
    test_imgs = _load_split(upstream, "test")
    outputs = []
    for cls in targets:
        rep = compare_orderings(
            test_imgs, cls, bundle.gmm, bundle.pca, bundle.svm,
            variants=(config.variant,), epsilon=config.epsilon,
            batch=config.morf_batch, steps=config.morf_steps,
            repetitions=config.morf_repetitions, seed=config.seed,
            patch=bundle.patch, stride=bundle.stride)
        dest = _ensure_dir(os.path.join(out_dir, "reports", "morf", cls))
        paths = report.write_morf_tables(dest, rep)
        paths += report.write_morf_figure(dest, rep)
        outputs += [_rel(out_dir, p) for p in paths]
        print(report.morf_summary_text(rep))
        for p in paths:
            print(f"wrote {p}")
    return {"outputs": outputs}


def _cmd_context_report(config: PipelineConfig, args, upstream) -> dict:
    out_dir = args.out
    bundle = _read_bundle(upstream, config, with_nn=True)
    test_imgs = _load_split(upstream, "test")
    rep = context_report(test_imgs, bundle.gmm, bundle.pca, bundle.svm,
                         bundle.net, variant=config.variant,
                         epsilon=config.epsilon, nn_alpha=config.nn_alpha,
                         nn_beta=config.nn_beta, patch=bundle.patch,
                         stride=bundle.stride)
    dest = _ensure_dir(os.path.join(out_dir, "reports", "context"))
    paths = report.write_context_tables(dest, rep)
    paths += report.write_context_figure(dest, rep)
    print(report.context_summary_text(rep))
    for p in paths:
        print(f"wrote {p}")
    return {"outputs": [_rel(out_dir, p) for p in paths]}


def _trained_model_checks(config: PipelineConfig, upstream: _Upstream) -> list:
    """Spot checks against the trained artifacts, when they exist."""
    from .verification import CheckResult

    # Stage by stage, every file of each, so a stale or modified upstream
    # stage is reported even when a later stage has not run yet.
    for stage in (STAGE_SYNTH, STAGE_PCA, STAGE_GMM, STAGE_EMBED, STAGE_SVM):
        if not os.path.exists(_manifest_path(upstream.out_dir, stage)):
            return []
        manifest = upstream.manifests[stage] = _require_stage(
            upstream.out_dir, stage, config, "verify")
        for rel in manifest.get("outputs", {}):
            upstream.path(rel)
    bundle = _read_bundle(upstream, config)
    results = []

    img = next(_iter_split(upstream, "test"))
    cls = bundle.classes[0]
    expl = explain(img.image, bundle.gmm, bundle.pca, bundle.svm, cls,
                   variant="absolute", patch=bundle.patch,
                   stride=bundle.stride)
    gap = abs(float(expl.heatmap.values.sum()) - expl.score)
    ok = gap <= 1e-9 * max(1.0, abs(expl.score))
    results.append(CheckResult(
        "trained-conservation", ok,
        f"pixel sum vs f gap {gap:.2e} on {img.image_id}"))

    ids = _split_ids(upstream, "test")[:2]
    raws = [load_fisher_vector(upstream.path(_fvec_rel(i, "test"))) for i in ids]
    if len(raws) == 2:
        lhs, rhs = hellinger_check(raws[0], raws[1])
        ok = abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
        results.append(CheckResult(
            "trained-hellinger", ok, f"|lhs-rhs| = {abs(lhs - rhs):.2e}"))
    return results


def _cmd_verify(config: PipelineConfig, args, upstream) -> None:
    results = run_all(seed=config.seed)
    results += _trained_model_checks(config, upstream)
    failed = 0
    for res in results:
        mark = "ok  " if res.passed else "FAIL"
        print(f"{mark} {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    if failed:
        raise VerificationError(f"{failed} of {len(results)} checks failed")
    print(f"verify: all {len(results)} checks passed")


# ---------------------------------------------------------------------------
# the stage table and argument parsing


class _Command(NamedTuple):
    handler: Callable[..., dict | None]
    needs: tuple[str, ...]  # upstream stages, in the order they are checked
    fields: tuple[str, ...]  # config fields it reads besides its needs' own
    help: str


_COMMANDS = {
    STAGE_SYNTH: _Command(_cmd_synth_gen, (), (
        "corpus_size", "corpus_rho", "train_per_class", "test_per_class",
        "artefact_class", "seed"), "render the synthetic corpus to disk"),
    STAGE_EXTRACT: _Command(_cmd_extract, (STAGE_SYNTH,), ("patch", "stride"),
                            "dense local descriptors for every image"),
    STAGE_PCA: _Command(_cmd_pca_fit, (STAGE_SYNTH, STAGE_EXTRACT), ("pca_dim",),
                        "fit the descriptor projection"),
    STAGE_GMM: _Command(_cmd_gmm_fit, (STAGE_SYNTH, STAGE_EXTRACT, STAGE_PCA),
                        ("gmm_k", "gmm_max_iter", "gmm_tol", "gmm_sample_count"),
                        "fit the visual-word mixture via EM"),
    STAGE_EMBED: _Command(
        _cmd_embed, (STAGE_SYNTH, STAGE_EXTRACT, STAGE_PCA, STAGE_GMM), (),
        "aggregate per-image Fisher vectors"),
    STAGE_SVM: _Command(_cmd_svm_train, (STAGE_SYNTH, STAGE_EMBED),
                        ("svm_c", "svm_epochs"),
                        "train one-vs-rest linear classifiers"),
    STAGE_NN: _Command(_cmd_nn_train, (STAGE_SYNTH,), (
        "nn_hidden", "nn_input", "nn_epochs", "nn_lr", "nn_batch"),
        "train the pixel-level comparison network"),
    "predict": _Command(_cmd_predict, (STAGE_SYNTH, STAGE_EMBED, STAGE_SVM), (),
                        "score the test split"),
    "explain": _Command(_cmd_explain, _BUNDLE_STAGES, ("variant", "epsilon"),
                        "relevance heatmap for one image and class"),
    "morf-eval": _Command(
        _cmd_morf_eval, _BUNDLE_STAGES,
        ("variant", "epsilon", "morf_batch", "morf_steps", "morf_repetitions"),
        "feature-replacement curves: relevance vs random ordering"),
    "context-report": _Command(
        _cmd_context_report, (*_BUNDLE_STAGES, STAGE_NN),
        ("variant", "epsilon", "nn_alpha", "nn_beta"),
        "outside/inside relevance ratios for both models"),
    # verify checks whichever trained stages exist, one at a time
    "verify": _Command(_cmd_verify, (), ("seed",),
                       "run the seeded invariant and oracle checks"),
}


class _Parser(argparse.ArgumentParser):
    """Argparse that raises instead of exiting, for uniform exit codes."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="fvlrp",
                     description="Fisher-vector classification with "
                                 "pixel-level relevance explanations")
    # The options every command takes, declared once.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH",
                        help="JSON config file (flags override it)")
    shared.add_argument("--seed", type=int, help="master random seed")
    shared.add_argument("--threads", type=int,
                        help="accepted for compatibility; has no effect")
    shared.add_argument("--variant", choices=tuple(_VARIANT_FLAGS),
                        help="relevance redistribution variant")
    shared.add_argument("--epsilon", type=float, help="stabilizer strength")
    shared.add_argument("--class", dest="cls", metavar="NAME",
                        help="class name for explain/morf-eval")
    shared.add_argument("--image", metavar="ID",
                        help="corpus image id for explain")
    shared.add_argument("--out", metavar="DIR", default="runs",
                        help="working directory for artifacts (default: runs)")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, command in _COMMANDS.items():
        sub.add_parser(name, help=command.help, parents=[shared])
    return parser


def _resolve_config(args) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    variant = _VARIANT_FLAGS[args.variant] if args.variant else None
    return config.with_overrides(seed=args.seed, threads=args.threads,
                                 variant=variant, epsilon=args.epsilon)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_help()
            raise UsageError("a subcommand is required")
        config = _resolve_config(args)
        os.makedirs(args.out, exist_ok=True)
        command = _COMMANDS[args.command]
        produced = command.handler(config, args,
                                   _upstream(args.out, args.command, config))
        if produced is not None:
            _write_manifest(args.out, args.command, config, command.needs,
                            **produced)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DependencyError as exc:
        print(f"dependency error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
