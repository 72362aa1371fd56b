"""Command-line pipeline: staged subcommands with cached artifacts.

Each stage writes its artifacts under a working directory plus a
manifest recording the configuration hash, the seed, the upstream
manifests it consumed, and a digest of every file it wrote. `_COMMANDS`
declares each command's upstream stages once; `main` checks them before
the command runs and records them in its manifest. A stage refuses to
run when a required upstream stage is missing, was built under a
different configuration, or has modified artifacts on disk.

Exit codes: 0 success, 1 usage error, 2 missing/stale dependency,
3 validation or verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import report
from .config import PipelineConfig, load_config
from .descriptors import load_descriptors, save_descriptors
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
from .util import file_hash
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


def _write_manifest(out_dir: str, stage: str, config: PipelineConfig,
                    inputs: tuple[str, ...], outputs: list[str],
                    **extra) -> None:
    """Record what a stage produced; paths are relative to the out dir."""
    os.makedirs(os.path.join(out_dir, "manifests"), exist_ok=True)
    doc = {
        "stage": stage,
        "config_hash": config.config_hash(),
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
    """Load an upstream manifest, refusing missing or stale artifacts."""
    path = _manifest_path(out_dir, stage)
    if not os.path.exists(path):
        raise DependencyError(
            f"`{needed_by}` needs artifacts from `{stage}`; "
            f"run `fvlrp {stage}` first")
    with open(path, "r", encoding="ascii") as fh:
        manifest = json.load(fh)
    if manifest.get("config_hash") != config.config_hash():
        raise DependencyError(
            f"stale cache: `{stage}` artifacts were built under a different "
            f"configuration; re-run `fvlrp {stage}`")
    for rel, digest in manifest.get("outputs", {}).items():
        full = os.path.join(out_dir, rel)
        if not os.path.exists(full) or file_hash(full) != digest:
            raise DependencyError(
                f"artifact {rel} recorded by `{stage}` is missing or "
                f"modified; re-run `fvlrp {stage}`")
    return manifest


def _ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _rel(out_dir: str, path: str) -> str:
    return os.path.relpath(path, out_dir).replace(os.sep, "/")


# ---------------------------------------------------------------------------
# corpus storage


def _index_path(out_dir: str) -> str:
    return os.path.join(out_dir, "corpus", "index.tsv")


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
                       test: list[LabeledImage]) -> str:
    rows = []
    for split, images in (("train", train), ("test", test)):
        for img in images:
            rows.append((split, img.image_id,
                         f"corpus/{split}/{img.image_id}.pgm",
                         f"corpus/{split}/{img.image_id}.txt",
                         ",".join(img.labels),
                         ",".join(img.flags) if img.flags else "-"))
    return report.write_table(_index_path(out_dir),
                              ("split", "image", "file", "annotations",
                               "labels", "flags"), rows)


def _load_corpus_index(out_dir: str) -> list[dict]:
    with open(_index_path(out_dir), "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split("\t")
    entries = []
    for line in lines[1:]:
        entries.append(dict(zip(header, line.split("\t"))))
    return entries


def _load_split(out_dir: str, split: str) -> list[LabeledImage]:
    images = []
    for entry in _load_corpus_index(out_dir):
        if entry["split"] != split:
            continue
        img = load_image(os.path.join(out_dir, entry["file"]))
        boxes = load_annotations(os.path.join(out_dir, entry["annotations"]))
        labels = tuple(entry["labels"].split(",")) if entry["labels"] else ()
        flags = () if entry["flags"] == "-" else tuple(entry["flags"].split(","))
        images.append(LabeledImage(img, labels, tuple(boxes),
                                   entry["image"], flags))
    return images


def _split_ids(out_dir: str, split: str) -> list[str]:
    return [e["image"] for e in _load_corpus_index(out_dir)
            if e["split"] == split]


def _corpus_classes(manifest: dict) -> tuple[str, ...]:
    return tuple(manifest["classes"])


# ---------------------------------------------------------------------------
# models

# The stages a trained bundle is read from, in the order they are checked.
_BUNDLE_STAGES = (STAGE_SYNTH, STAGE_PCA, STAGE_GMM, STAGE_SVM)


def _model_path(out_dir: str, name: str) -> str:
    return os.path.join(out_dir, "models", f"{name}.json")


def _read_bundle(out_dir: str, config: PipelineConfig, synth_manifest: dict,
                 with_nn: bool = False) -> ModelBundle:
    """The trained models as stored; callers check the manifests first."""

    def model(kind):
        return load_model(_model_path(out_dir, kind), kind)

    return ModelBundle(_corpus_classes(synth_manifest), model("pca"),
                       model("gmm"), model("svm"),
                       model("nn") if with_nn else None,
                       config.patch, config.stride)


# ---------------------------------------------------------------------------
# subcommands
#
# A handler receives the checked manifests of its upstream stages (see
# `_COMMANDS`) and returns the keys its own manifest adds: "outputs", the
# files it wrote, plus any extra keys; `verify` writes no manifest.


def _cmd_synth_gen(config: PipelineConfig, args, upstream) -> dict:
    out_dir = args.out
    train_imgs, test_imgs, classes = make_corpus(config)
    outputs = _save_corpus_split(out_dir, "train", train_imgs)
    outputs += _save_corpus_split(out_dir, "test", test_imgs)
    outputs.append(_rel(out_dir, _save_corpus_index(out_dir, train_imgs,
                                                    test_imgs)))
    size = config.corpus_size
    print(f"synth-gen: {len(train_imgs)} train / {len(test_imgs)} test images "
          f"({size}x{size}, rho={config.corpus_rho})")
    return {"outputs": outputs, "classes": list(classes)}


def _desc_path(out_dir: str, image_id: str, split: str) -> str:
    return os.path.join(out_dir, "descriptors", split, f"{image_id}.desc")


def _cmd_extract(config: PipelineConfig, args, upstream) -> dict:
    out_dir = args.out
    outputs = []
    total = 0
    for split in ("train", "test"):
        images = _load_split(out_dir, split)
        _ensure_dir(os.path.join(out_dir, "descriptors", split))
        for img, ds in zip(images, extract_corpus(images, config)):
            path = _desc_path(out_dir, img.image_id, split)
            save_descriptors(ds, path)
            outputs.append(_rel(out_dir, path))
            total += len(ds)
    print(f"extract: {total} descriptors "
          f"(patch {config.patch}, stride {config.stride})")
    return {"outputs": outputs}


def _load_descriptor_sets(out_dir: str, split: str):
    ids = _split_ids(out_dir, split)
    return ids, [load_descriptors(_desc_path(out_dir, i, split)) for i in ids]


def _cmd_pca_fit(config: PipelineConfig, args, upstream) -> dict:
    out_dir = args.out
    _, sets = _load_descriptor_sets(out_dir, "train")
    model = fit_pca(sets, config)
    _ensure_dir(os.path.join(out_dir, "models"))
    path = _model_path(out_dir, "pca")
    save_model(model, path)
    print(f"pca-fit: {model.raw_dim} -> {model.dim} dims "
          f"on {sum(len(ds) for ds in sets)} descriptors")
    return {"outputs": [_rel(out_dir, path)]}


def _cmd_gmm_fit(config: PipelineConfig, args, upstream) -> dict:
    out_dir = args.out
    pca = load_model(_model_path(out_dir, "pca"), "pca")
    _, sets = _load_descriptor_sets(out_dir, "train")
    projected = project_all(pca, sets)
    model = fit_gmm(projected, config)
    path = _model_path(out_dir, "gmm")
    save_model(model, path)
    steps, reason, gain = em_stop(model, projected, config)
    print(f"gmm-fit: K={config.gmm_k}, {steps} M-steps, stopped by {reason}, "
          f"last gain per descriptor {'none' if gain is None else f'{gain:.2e}'}")
    return {"outputs": [_rel(out_dir, path)]}


def _fvec_path(out_dir: str, image_id: str, split: str) -> str:
    return os.path.join(out_dir, "embeddings", split, f"{image_id}.fvec")


def _cmd_embed(config: PipelineConfig, args, upstream) -> dict:
    out_dir = args.out
    pca = load_model(_model_path(out_dir, "pca"), "pca")
    gmm = load_model(_model_path(out_dir, "gmm"), "gmm")
    outputs = []
    for split in ("train", "test"):
        ids, sets = _load_descriptor_sets(out_dir, split)
        _ensure_dir(os.path.join(out_dir, "embeddings", split))
        raws = embed_all(gmm, project_all(pca, sets))
        for image_id, raw in zip(ids, raws):
            path = _fvec_path(out_dir, image_id, split)
            save_fisher_vector(raw, path)
            outputs.append(_rel(out_dir, path))
    print(f"embed: {len(outputs)} Fisher vectors of length "
          f"{(1 + 2 * config.pca_dim) * config.gmm_k}")
    return {"outputs": outputs}


def _load_feature_matrix(out_dir: str, split: str
                         ) -> tuple[list[str], np.ndarray]:
    ids = _split_ids(out_dir, split)
    raws = [load_fisher_vector(_fvec_path(out_dir, i, split)) for i in ids]
    return ids, improved_matrix(raws)


def _cmd_svm_train(config: PipelineConfig, args, upstream) -> dict:
    out_dir = args.out
    classes = _corpus_classes(upstream[STAGE_SYNTH])
    train_imgs = _load_split(out_dir, "train")
    _, features = _load_feature_matrix(out_dir, "train")
    model = train_svm(train_imgs, features, classes, config)
    path = _model_path(out_dir, "svm")
    save_model(model, path)
    taus = ", ".join(f"{c}: {t:.4f}" for c, t in zip(classes, model.thresholds))
    print(f"svm-train: {len(classes)} classes on {features.shape[0]} images "
          f"(C={config.svm_c}); thresholds {taus}")
    return {"outputs": [_rel(out_dir, path)]}


def _cmd_nn_train(config: PipelineConfig, args, upstream) -> dict:
    out_dir = args.out
    classes = _corpus_classes(upstream[STAGE_SYNTH])
    train_imgs = _load_split(out_dir, "train")
    net = train_net(train_imgs, classes, config)
    path = _model_path(out_dir, "nn")
    save_model(net, path)
    arch = "-".join(str(s) for s in
                    [net.input_dim] + [l.weights.shape[1] for l in net.layers])
    print(f"nn-train: {arch} network on {len(train_imgs)} images")
    return {"outputs": [_rel(out_dir, path)]}


def _cmd_predict(config: PipelineConfig, args, upstream) -> dict:
    out_dir = args.out
    classes = _corpus_classes(upstream[STAGE_SYNTH])
    svm_model = load_model(_model_path(out_dir, "svm"), "svm")
    test_imgs = _load_split(out_dir, "test")
    ids, features = _load_feature_matrix(out_dir, "test")
    by_id = {img.image_id: img for img in test_imgs}
    rows = []
    correct = {c: 0 for c in classes}
    for image_id, phi in zip(ids, features):
        img = by_id[image_id]
        for c in classes:
            k = svm_model.class_index(c)
            f = float(score(svm_model, phi, c))
            decision = int(f > float(svm_model.thresholds[k]))
            truth = int(c in img.labels)
            correct[c] += int(decision == truth)
            rows.append((image_id, c, f, decision, truth))
    _ensure_dir(os.path.join(out_dir, "reports"))
    path = os.path.join(out_dir, "reports", "predictions.tsv")
    report.write_table(path, ("image", "class", "score", "decision", "label"),
                       rows)
    acc = ", ".join(f"{c}: {correct[c] / len(ids):.3f}" for c in classes)
    print(f"predict: {len(ids)} test images; accuracy {acc}")
    print(f"wrote {path}")
    return {"outputs": [_rel(out_dir, path)]}


def _cmd_explain(config: PipelineConfig, args, upstream) -> dict:
    out_dir = args.out
    bundle = _read_bundle(out_dir, config, upstream[STAGE_SYNTH])
    if not args.image or not args.cls:
        raise UsageError("explain needs --image and --class")
    if args.cls not in bundle.classes:
        raise ValidationError(
            f"class {args.cls!r} not in corpus classes {bundle.classes}")
    entries = {e["image"]: e for e in _load_corpus_index(out_dir)}
    if args.image not in entries:
        raise ValidationError(f"image {args.image!r} not in the corpus index")
    img = load_image(os.path.join(out_dir, entries[args.image]["file"]))
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
    bundle = _read_bundle(out_dir, config, upstream[STAGE_SYNTH])
    if args.cls and args.cls not in bundle.classes:
        raise ValidationError(
            f"class {args.cls!r} not in corpus classes {bundle.classes}")
    targets = (args.cls,) if args.cls else bundle.classes
    test_imgs = _load_split(out_dir, "test")
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
    bundle = _read_bundle(out_dir, config, upstream[STAGE_SYNTH], with_nn=True)
    test_imgs = _load_split(out_dir, "test")
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


def _trained_model_checks(config: PipelineConfig, out_dir: str) -> list:
    """Spot checks against the trained artifacts, when they exist."""
    from .verification import CheckResult

    # Stage by stage, so a stale upstream stage is reported even when a
    # later stage has not run yet.
    manifests = []
    for stage in (STAGE_SYNTH, STAGE_PCA, STAGE_GMM, STAGE_EMBED, STAGE_SVM):
        if not os.path.exists(_manifest_path(out_dir, stage)):
            return []
        manifests.append(_require_stage(out_dir, stage, config, "verify"))
    bundle = _read_bundle(out_dir, config, manifests[0])
    test_imgs = _load_split(out_dir, "test")
    results = []

    img = test_imgs[0]
    cls = bundle.classes[0]
    expl = explain(img.image, bundle.gmm, bundle.pca, bundle.svm, cls,
                   variant="absolute", patch=bundle.patch,
                   stride=bundle.stride)
    gap = abs(float(expl.heatmap.values.sum()) - expl.score)
    ok = gap <= 1e-9 * max(1.0, abs(expl.score))
    results.append(CheckResult(
        "trained-conservation", ok,
        f"pixel sum vs f gap {gap:.2e} on {img.image_id}"))

    ids = _split_ids(out_dir, "test")[:2]
    raws = [load_fisher_vector(_fvec_path(out_dir, i, "test")) for i in ids]
    if len(raws) == 2:
        lhs, rhs = hellinger_check(raws[0], raws[1])
        ok = abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
        results.append(CheckResult(
            "trained-hellinger", ok, f"|lhs-rhs| = {abs(lhs - rhs):.2e}"))
    return results


def _cmd_verify(config: PipelineConfig, args, upstream) -> None:
    results = run_all(seed=config.seed)
    results += _trained_model_checks(config, args.out)
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
    help: str


_COMMANDS = {
    STAGE_SYNTH: _Command(_cmd_synth_gen, (),
                          "render the synthetic corpus to disk"),
    STAGE_EXTRACT: _Command(_cmd_extract, (STAGE_SYNTH,),
                            "dense local descriptors for every image"),
    STAGE_PCA: _Command(_cmd_pca_fit, (STAGE_EXTRACT,),
                        "fit the descriptor projection"),
    STAGE_GMM: _Command(_cmd_gmm_fit, (STAGE_EXTRACT, STAGE_PCA),
                        "fit the visual-word mixture via EM"),
    STAGE_EMBED: _Command(_cmd_embed, (STAGE_EXTRACT, STAGE_PCA, STAGE_GMM),
                          "aggregate per-image Fisher vectors"),
    STAGE_SVM: _Command(_cmd_svm_train, (STAGE_SYNTH, STAGE_EMBED),
                        "train one-vs-rest linear classifiers"),
    STAGE_NN: _Command(_cmd_nn_train, (STAGE_SYNTH,),
                       "train the pixel-level comparison network"),
    "predict": _Command(_cmd_predict, (STAGE_SYNTH, STAGE_EMBED, STAGE_SVM),
                        "score the test split"),
    "explain": _Command(_cmd_explain, _BUNDLE_STAGES,
                        "relevance heatmap for one image and class"),
    "morf-eval": _Command(
        _cmd_morf_eval, _BUNDLE_STAGES,
        "feature-replacement curves: relevance vs random ordering"),
    "context-report": _Command(
        _cmd_context_report, (*_BUNDLE_STAGES, STAGE_NN),
        "outside/inside relevance ratios for both models"),
    # verify checks whichever trained stages exist, one at a time
    "verify": _Command(_cmd_verify, (),
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
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", metavar="PATH",
                       help="JSON config file (flags override it)")
        p.add_argument("--seed", type=int, help="master random seed")
        p.add_argument("--threads", type=int,
                       help="accepted for compatibility; has no effect")
        p.add_argument("--variant", choices=tuple(_VARIANT_FLAGS),
                       help="relevance redistribution variant")
        p.add_argument("--epsilon", type=float, help="stabilizer strength")
        p.add_argument("--class", dest="cls", metavar="NAME",
                       help="class name for explain/morf-eval")
        p.add_argument("--image", metavar="ID",
                       help="corpus image id for explain")
        p.add_argument("--out", metavar="DIR", default="runs",
                       help="working directory for artifacts (default: runs)")
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
        upstream = {stage: _require_stage(args.out, stage, config, args.command)
                    for stage in command.needs}
        produced = command.handler(config, args, upstream)
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
