"""Command-line pipeline: staged subcommands with cached artifacts.

`_COMMANDS`, the one stage table, declares each command's upstream
stages and config fields; a stage's hash covers those fields and its
upstream stages' hashes. Each command does all its file I/O through one
`_Run`: it refuses a missing, malformed or stale upstream manifest,
opens upstream files only through `_Run.path`, which checks each file's
digest, reads the corpus index once, and records every file it writes
under the working directory. `main` then writes the command's manifest:
its stage hash, the seed, the upstream manifests it consumed, and a
digest of every file it wrote. A command that wrote nothing writes none.

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
# one command's file I/O


_INDEX = "corpus/index.tsv"


def _manifest_path(out_dir: str, stage: str) -> str:
    return os.path.join(out_dir, "manifests", f"{stage}.json")


def _stage_hash(config: PipelineConfig, stage: str) -> str:
    """Hash of the fields `stage` reads and of its upstream stages' hashes."""
    command = _COMMANDS[stage]
    return stable_hash([{f: getattr(config, f) for f in command.fields},
                        [_stage_hash(config, s) for s in command.needs]])


def _well_formed(stage: str, manifest) -> bool:
    """An object whose `outputs` maps paths to digests; `synth-gen`'s also
    lists the corpus classes."""
    if not isinstance(manifest, dict):
        return False
    outputs = manifest.get("outputs")
    classes = manifest.get("classes") if stage == STAGE_SYNTH else []
    return (isinstance(outputs, dict) and isinstance(classes, list)
            and all(isinstance(v, str) for v in [*outputs.values(), *classes]))


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


class _Run:
    """One command's file I/O under `--out`. It checks the declared
    upstream manifests, opens upstream files only once they match their
    recorded digests, and records every file the command writes, which
    `manifest` then lists."""

    def __init__(self, out_dir: str, command: str, config: PipelineConfig):
        self.out_dir, self.command, self.config = out_dir, command, config
        self.manifests: dict[str, dict] = {}
        self.checked: set[str] = set()
        self.outputs: set[str] = set()
        self._index: list[_IndexEntry] | None = None
        for stage in _COMMANDS[command].needs:
            self.require(stage)

    def require(self, stage: str) -> dict:
        """Load an upstream manifest, refusing a missing, malformed or
        stale one."""
        path = _manifest_path(self.out_dir, stage)
        if not os.path.exists(path):
            raise DependencyError(
                f"`{self.command}` needs artifacts from `{stage}`; "
                f"run `fvlrp {stage}` first")
        try:
            with open(path, "r", encoding="ascii") as fh:
                manifest = json.load(fh)
        except ValueError:  # not ASCII, or not JSON
            manifest = None
        if not _well_formed(stage, manifest):
            raise DependencyError(f"manifest of `{stage}` is malformed; "
                                  f"re-run `fvlrp {stage}`")
        if manifest.get("config_hash") != _stage_hash(self.config, stage):
            raise DependencyError(
                f"stale cache: `{stage}` artifacts were built under a different "
                f"configuration; re-run `fvlrp {stage}`")
        self.manifests[stage] = manifest
        return manifest

    def path(self, rel: str) -> str:
        """`rel` once it matches its recorded digest, hashed once per command."""
        full = os.path.join(self.out_dir, rel)
        if rel not in self.checked:
            stage = next((s for s, m in self.manifests.items()
                          if rel in m["outputs"]), None)
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

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(self.manifests[STAGE_SYNTH]["classes"])

    def entries(self, split: str | None = None) -> list[_IndexEntry]:
        """The rows of the corpus index (those of `split`, if given); the
        index is parsed once per command."""
        if self._index is None:
            with open(self.path(_INDEX), "r", encoding="ascii") as fh:
                header, *lines = fh.read().splitlines()
            self._index = []
            for line in lines:
                row = dict(zip(header.split("\t"), line.split("\t")))
                self._index.append(_IndexEntry(
                    row["split"], row["image"], row["file"], row["annotations"],
                    tuple(row["labels"].split(",")) if row["labels"] else (),
                    () if row["flags"] == "-" else tuple(row["flags"].split(","))))
        return [e for e in self._index if split in (None, e.split)]

    def images(self, split: str, boxes: bool = False) -> Iterator[LabeledImage]:
        """The split's images in index order, each read as it is reached.
        Annotation files are opened only when `boxes` is set."""
        for e in self.entries(split):
            yield LabeledImage(
                load_image(self.path(e.file)), e.labels,
                tuple(load_annotations(self.path(e.annotations))) if boxes else (),
                e.image_id, e.flags)

    def directory(self, rel: str) -> str:
        """The full path of directory `rel`, made if missing."""
        full = os.path.join(self.out_dir, rel)
        if not os.path.isdir(full):  # one stat, not makedirs' three
            os.makedirs(full, exist_ok=True)
        return full

    def write(self, rel: str) -> str:
        """The full path to write output `rel` to, its directory made;
        `rel` is recorded."""
        self.outputs.add(rel)
        return os.path.join(self.directory(os.path.dirname(rel)),
                            os.path.basename(rel))

    def wrote(self, paths: list[str]) -> None:
        """Record files that a report writer named itself, and say so."""
        for p in paths:
            self.outputs.add(os.path.relpath(p, self.out_dir).replace(os.sep, "/"))
            print(f"wrote {p}")

    def manifest(self, extra: dict) -> None:
        """Write the command's manifest: what it read and what it wrote."""
        doc = {
            "stage": self.command,
            "config_hash": _stage_hash(self.config, self.command),
            "seed": self.config.seed,
            "inputs": {s: file_hash(_manifest_path(self.out_dir, s))
                       for s in _COMMANDS[self.command].needs},
            "outputs": {rel: file_hash(os.path.join(self.out_dir, rel))
                        for rel in sorted(self.outputs)},
            **extra,
        }
        self.directory("manifests")
        with open(_manifest_path(self.out_dir, self.command), "w",
                  encoding="ascii", newline="\n") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
            fh.write("\n")


# ---------------------------------------------------------------------------
# models

# The stages a trained bundle is read from, in the order they are checked.
_BUNDLE_STAGES = (STAGE_SYNTH, STAGE_PCA, STAGE_GMM, STAGE_SVM)


def _load_stage_model(run: _Run, kind: str):
    return load_model(run.path(f"models/{kind}.json"), kind)


def _read_bundle(run: _Run, with_nn: bool = False) -> ModelBundle:
    """The trained models as stored."""
    pca, gmm, svm = (_load_stage_model(run, kind)
                     for kind in ("pca", "gmm", "svm"))
    net = _load_stage_model(run, "nn") if with_nn else None
    return ModelBundle(run.classes, pca, gmm, svm, net, run.config.patch,
                       run.config.stride)


# ---------------------------------------------------------------------------
# subcommands
#
# A handler receives its `_Run` (see `_COMMANDS`), writes through it, and
# returns the extra keys of its manifest, if any. `main` writes the
# manifest when the command wrote a file; `verify` writes none.


def _cmd_synth_gen(config: PipelineConfig, args, run: _Run) -> dict:
    train_imgs, test_imgs, classes = make_corpus(config)
    rows = []
    for split, images in (("train", train_imgs), ("test", test_imgs)):
        for img in images:
            stem = f"corpus/{split}/{img.image_id}"
            save_image(img.image, run.write(f"{stem}.pgm"))
            save_annotations(list(img.boxes), run.write(f"{stem}.txt"))
            rows.append((split, img.image_id, f"{stem}.pgm", f"{stem}.txt",
                         ",".join(img.labels),
                         ",".join(img.flags) if img.flags else "-"))
    header = ("split", "image", "file", "annotations", "labels", "flags")
    report.write_table(run.write(_INDEX), header, rows)
    size = config.corpus_size
    print(f"synth-gen: {len(train_imgs)} train / {len(test_imgs)} test images "
          f"({size}x{size}, rho={config.corpus_rho})")
    return {"classes": list(classes)}


def _desc_rel(image_id: str, split: str) -> str:
    return f"descriptors/{split}/{image_id}.desc"


def _cmd_extract(config: PipelineConfig, args, run: _Run) -> None:
    total = 0
    for split in ("train", "test"):
        # one raw set at a time: each is written before the next is extracted
        sets = extract_corpus(run.images(split), config)
        for entry, ds in zip(run.entries(split), sets):
            save_descriptors(ds, run.write(_desc_rel(entry.image_id, split)))
            total += len(ds)
    print(f"extract: {total} descriptors "
          f"(patch {config.patch}, stride {config.stride})")


def _load_descriptor_sets(run: _Run, split: str):
    """The split's image ids, and its descriptor sets loaded one at a time
    as they are iterated, so a consumer that drops each set holds one."""
    ids = [e.image_id for e in run.entries(split)]
    return ids, (load_descriptors(run.path(_desc_rel(i, split))) for i in ids)


def _split_rows(config: PipelineConfig, ids: list[str]) -> int:
    # Every corpus image is corpus_size pixels square.
    return len(ids) * descriptor_count(config.corpus_size, config.corpus_size,
                                       config.patch, config.stride)


def _project_split(run: _Run, split: str, pca):
    """The split's image ids and its projected descriptors, one matrix."""
    ids, sets = _load_descriptor_sets(run, split)
    return ids, project_all(pca, sets, _split_rows(run.config, ids))


def _cmd_pca_fit(config: PipelineConfig, args, run: _Run) -> None:
    ids, sets = _load_descriptor_sets(run, "train")
    rows = _split_rows(config, ids)
    model, _ = fit_pca(sets, rows, config)
    print(f"pca-fit: {model.raw_dim} -> {model.dim} dims on {rows} descriptors")
    save_model(model, run.write("models/pca.json"))


def _cmd_gmm_fit(config: PipelineConfig, args, run: _Run) -> None:
    pca = _load_stage_model(run, "pca")
    _, projected = _project_split(run, "train", pca)
    model = fit_gmm(projected, config)
    steps, reason, gain = em_stop(model, projected, config)
    print(f"gmm-fit: K={config.gmm_k}, {steps} M-steps, stopped by {reason}, "
          f"last gain per descriptor {'none' if gain is None else f'{gain:.2e}'}")
    save_model(model, run.write("models/gmm.json"))


def _fvec_rel(image_id: str, split: str) -> str:
    return f"embeddings/{split}/{image_id}.fvec"


def _cmd_embed(config: PipelineConfig, args, run: _Run) -> None:
    pca = _load_stage_model(run, "pca")
    gmm = _load_stage_model(run, "gmm")
    for split in ("train", "test"):
        ids, projected = _project_split(run, split, pca)
        for image_id, raw in zip(ids, embed_all(gmm, projected)):
            save_fisher_vector(raw, gmm.n_components, gmm.dim,
                               run.write(_fvec_rel(image_id, split)))
    print(f"embed: {len(run.outputs)} Fisher vectors of length "
          f"{(1 + 2 * config.pca_dim) * config.gmm_k}")


def _load_feature_matrix(run: _Run, split: str) -> np.ndarray:
    """The split's improved Fisher vectors as stored, one row per image."""
    return improved_matrix([load_fisher_vector(run.path(_fvec_rel(e.image_id, split)))
                            for e in run.entries(split)])


def _cmd_svm_train(config: PipelineConfig, args, run: _Run) -> None:
    classes = run.classes
    features = _load_feature_matrix(run, "train")
    model = train_svm(run.entries("train"), features, classes, config)
    taus = ", ".join(f"{c}: {t:.4f}" for c, t in zip(classes, model.thresholds))
    print(f"svm-train: {len(classes)} classes on {features.shape[0]} images "
          f"(C={config.svm_c}); thresholds {taus}")
    save_model(model, run.write("models/svm.json"))


def _cmd_nn_train(config: PipelineConfig, args, run: _Run) -> None:
    train_imgs = list(run.images("train"))
    net = train_net(train_imgs, run.classes, config)
    arch = "-".join(str(s) for s in
                    [net.input_dim] + [l.weights.shape[1] for l in net.layers])
    print(f"nn-train: {arch} network on {len(train_imgs)} images")
    save_model(net, run.write("models/nn.json"))


def _cmd_predict(config: PipelineConfig, args, run: _Run) -> None:
    classes = run.classes
    svm_model = _load_stage_model(run, "svm")
    entries = run.entries("test")
    features = _load_feature_matrix(run, "test")
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
    path = report.write_table(
        os.path.join(run.directory("reports"), "predictions.tsv"),
        ("image", "class", "score", "decision", "label"), rows)
    acc = ", ".join(f"{c}: {correct[c] / len(entries):.3f}" for c in classes)
    print(f"predict: {len(entries)} test images; accuracy {acc}")
    run.wrote([path])


def _cmd_explain(config: PipelineConfig, args, run: _Run) -> None:
    bundle = _read_bundle(run)
    if not args.image or not args.cls:
        raise UsageError("explain needs --image and --class")
    if args.cls not in bundle.classes:
        raise ValidationError(
            f"class {args.cls!r} not in corpus classes {bundle.classes}")
    entry = next((e for e in run.entries() if e.image_id == args.image), None)
    if entry is None:
        raise ValidationError(f"image {args.image!r} not in the corpus index")
    img = load_image(run.path(entry.file))
    expl = explain(img, bundle.gmm, bundle.pca, bundle.svm, args.cls,
                   variant=config.variant, epsilon=config.epsilon,
                   patch=bundle.patch, stride=bundle.stride)
    paths = report.write_explanation(
        run.directory("reports/explain"), f"{args.image}_{args.cls}_{config.variant}",
        img, expl, EmbeddingIndex(bundle.gmm.n_components, bundle.gmm.dim))
    state = "positive" if expl.prediction_positive else "negative"
    print(f"explain: f({args.image}, {args.cls}) = {expl.score:.6f} "
          f"({state}); variant {config.variant}")
    run.wrote(paths)


def _cmd_morf_eval(config: PipelineConfig, args, run: _Run) -> None:
    bundle = _read_bundle(run)
    if args.cls and args.cls not in bundle.classes:
        raise ValidationError(
            f"class {args.cls!r} not in corpus classes {bundle.classes}")
    targets = (args.cls,) if args.cls else bundle.classes
    test_imgs = list(run.images("test"))
    for cls in targets:
        rep = compare_orderings(
            test_imgs, cls, bundle.gmm, bundle.pca, bundle.svm,
            variants=(config.variant,), epsilon=config.epsilon,
            batch=config.morf_batch, steps=config.morf_steps,
            repetitions=config.morf_repetitions, seed=config.seed,
            patch=bundle.patch, stride=bundle.stride)
        dest = run.directory(f"reports/morf/{cls}")
        paths = report.write_morf_tables(dest, rep)
        paths += report.write_morf_figure(dest, rep)
        print(report.morf_summary_text(rep))
        run.wrote(paths)


def _cmd_context_report(config: PipelineConfig, args, run: _Run) -> None:
    bundle = _read_bundle(run, with_nn=True)
    test_imgs = list(run.images("test", boxes=True))
    rep = context_report(test_imgs, bundle.gmm, bundle.pca, bundle.svm,
                         bundle.net, variant=config.variant,
                         epsilon=config.epsilon, nn_alpha=config.nn_alpha,
                         nn_beta=config.nn_beta, patch=bundle.patch,
                         stride=bundle.stride)
    dest = run.directory("reports/context")
    paths = report.write_context_tables(dest, rep)
    paths += report.write_context_figure(dest, rep)
    print(report.context_summary_text(rep))
    run.wrote(paths)


def _trained_model_checks(run: _Run) -> list:
    """Spot checks against the trained artifacts, when they exist."""
    from .verification import CheckResult

    # Stage by stage, every file of each, so a stale or modified upstream
    # stage is reported even when a later stage has not run yet.
    for stage in (STAGE_SYNTH, STAGE_PCA, STAGE_GMM, STAGE_EMBED, STAGE_SVM):
        if not os.path.exists(_manifest_path(run.out_dir, stage)):
            return []
        for rel in run.require(stage)["outputs"]:
            run.path(rel)
    bundle = _read_bundle(run)
    results = []

    img = next(run.images("test"))
    cls = bundle.classes[0]
    expl = explain(img.image, bundle.gmm, bundle.pca, bundle.svm, cls,
                   variant="absolute", patch=bundle.patch,
                   stride=bundle.stride)
    gap = abs(float(expl.heatmap.values.sum()) - expl.score)
    ok = gap <= 1e-9 * max(1.0, abs(expl.score))
    results.append(CheckResult(
        "trained-conservation", ok,
        f"pixel sum vs f gap {gap:.2e} on {img.image_id}"))

    raws = [load_fisher_vector(run.path(_fvec_rel(e.image_id, "test")))
            for e in run.entries("test")[:2]]
    if len(raws) == 2:
        lhs, rhs = hellinger_check(raws[0], raws[1])
        ok = abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
        results.append(CheckResult(
            "trained-hellinger", ok, f"|lhs-rhs| = {abs(lhs - rhs):.2e}"))
    return results


def _cmd_verify(config: PipelineConfig, args, run: _Run) -> None:
    results = run_all(seed=config.seed)
    results += _trained_model_checks(run)
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
    handler: Callable[..., dict | None]  # returns extra manifest keys
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
        run = _Run(args.out, args.command, config)
        extra = _COMMANDS[args.command].handler(config, args, run)
        if run.outputs:
            run.manifest(extra or {})
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
