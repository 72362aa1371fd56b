"""Command-line pipeline: staged subcommands with cached artifacts.

`_COMMANDS`, the one stage table, declares each command's upstream
stages and config fields; a stage's hash covers those fields and its
upstream stages' hashes. Each command does all its file I/O through one
`_Run`: it refuses a missing, malformed or stale upstream manifest,
reads each upstream file once, through `_Run.read`, which returns the
bytes only if they match their recorded digest, so the bytes parsed are
the bytes checked, and writes every output through `_Run.write`, which
records the digest of what it writes. A report is built as bytes by
`report` and written by `_Run.write_report`.
`main` then writes the command's manifest: its stage hash, the seed,
the digests of the upstream manifests it parsed and of every file it
wrote. A command that wrote nothing writes none.

Exit codes: 0 success, 1 usage error, 2 missing/stale dependency,
3 validation or verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import islice
from typing import Callable, NamedTuple

import numpy as np

from . import report
from .config import PipelineConfig, load_config
from .descriptors import decode_cells, descriptor_count, encode_cells
from .errors import (DependencyError, IoError, ParseError, PipelineError,
                     UsageError, ValidationError, VerificationError)
from .evaluation import compare_orderings, context_report
from .fisher import (EmbeddingIndex, decode_fisher_vectors,
                     encode_fisher_vectors, hellinger_check, improve)
from .imaging import decode_boxes, decode_images, encode_boxes, encode_image
from .lrp_fv import explain
from .pipeline import (ModelBundle, em_stop, embed_all, extract_corpus,
                       fit_gmm, fit_pca_pooled, make_corpus, project_all,
                       train_net, train_svm)
from .serialization import deserialize_model, serialize_model
from .svm import score
from .synth import LabeledImage
from .util import read_file, stable_hash, write_file
from .verification import run_all, same_descriptors

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


def _corpus_rel(split: str) -> str:
    return f"corpus/{split}.pgm"


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


_INDEX_COLUMNS = ("split", "image", "labels", "flags", "boxes")


class IndexEntry(NamedTuple):
    """One row of the corpus index. Its `labels` are all that
    `label_vectors` reads, so stages that need only the labels never
    decode an image; `boxes` is the row's field as written, decoded only
    by the stages that use the boxes."""

    split: str
    image_id: str
    labels: tuple[str, ...]
    flags: tuple[str, ...]
    boxes: str


def decode_index(data: bytes) -> list[IndexEntry]:
    """The rows of a corpus index that `synth-gen` wrote, in file order.

    Bytes that are not ASCII, a header other than `_INDEX_COLUMNS` and a
    row of another field count are a `ParseError`. A row's `boxes` field
    is kept as written; `imaging.decode_boxes` refuses a bad one, as a
    `ParseError`, when a stage that uses the boxes decodes it.
    """
    try:
        lines = data.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"corpus index is not ASCII text: {exc}") from exc
    header = lines[0].split("\t") if lines else []
    if header != list(_INDEX_COLUMNS):
        raise ParseError(f"corpus index header is {header}, "
                         f"expected {list(_INDEX_COLUMNS)}")
    entries = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != len(_INDEX_COLUMNS):
            raise ParseError(f"corpus index line {lineno}: {len(fields)} fields, "
                             f"expected {len(_INDEX_COLUMNS)}")
        split, image_id, labels, flags, boxes = fields
        entries.append(IndexEntry(
            split, image_id, tuple(labels.split(",")) if labels else (),
            () if flags == "-" else tuple(flags.split(",")), boxes))
    return entries


class _Run:
    """One command's file I/O under `--out`. It checks the declared
    upstream manifests, returns an upstream file's bytes only once they
    match their recorded digest, and records the digest of every file the
    command writes, which `manifest` then lists."""

    def __init__(self, out_dir: str, command: str, config: PipelineConfig):
        self.out_dir, self.command, self.config = out_dir, command, config
        self.manifests: dict[str, dict] = {}
        self.inputs: dict[str, str] = {}  # stage -> digest of its manifest
        self.outputs: dict[str, str] = {}  # path under out_dir -> digest
        self._index: list[IndexEntry] | None = None
        self._kept: dict[str, bytes] = {}  # path -> bytes checked with `keep`
        for stage in _COMMANDS[command].needs:
            self.require(stage)

    def require(self, stage: str) -> dict:
        """Load an upstream manifest, refusing a missing, malformed or
        stale one."""
        try:
            data = read_file(_manifest_path(self.out_dir, stage))
        except IoError as exc:
            raise DependencyError(
                f"`{self.command}` needs artifacts from `{stage}`; "
                f"run `fvlrp {stage}` first") from exc
        try:
            manifest = json.loads(data.decode("ascii"))
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
        self.inputs[stage] = hashlib.sha256(data).hexdigest()
        return manifest

    def read(self, rel: str, keep: bool = False) -> bytes:
        """The bytes of upstream file `rel`, read once, returned only when
        their sha256 is the digest its stage recorded. With `keep`, later
        reads of `rel` return these bytes without opening the file."""
        if rel in self._kept:
            return self._kept[rel]
        stage = next((s for s, m in self.manifests.items()
                      if rel in m["outputs"]), None)
        if stage is None:
            raise DependencyError(f"`{self.command}` reads {rel}, which no "
                                  f"upstream stage of it recorded")
        try:
            data = read_file(os.path.join(self.out_dir, rel))
        except IoError:
            data = None
        if (data is None or hashlib.sha256(data).hexdigest()
                != self.manifests[stage]["outputs"][rel]):
            raise DependencyError(
                f"artifact {rel} recorded by `{stage}` is missing or "
                f"modified; re-run `fvlrp {stage}`")
        if keep:
            self._kept[rel] = data
        return data

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(self.manifests[STAGE_SYNTH]["classes"])

    def entries(self, split: str | None = None) -> list[IndexEntry]:
        """The rows of the corpus index (those of `split`, if given); the
        index is parsed once per command."""
        if self._index is None:
            self._index = decode_index(self.read(_INDEX))
        return [e for e in self._index if split in (None, e.split)]

    def images(self, split: str, boxes: bool = False) -> Iterator[LabeledImage]:
        """The split's images in index order, from one read of the split's
        file; each is decoded as it is reached. The boxes are decoded from
        the index only when `boxes` is set."""
        entries = self.entries(split)
        pixels = decode_images(self.read(_corpus_rel(split)), len(entries))
        return (LabeledImage(img, e.labels,
                             tuple(decode_boxes(e.boxes)) if boxes else (),
                             e.image_id, e.flags)
                for e, img in zip(entries, pixels))

    def write(self, rel: str, chunks: Iterable[bytes]) -> None:
        """Write output `rel` from `chunks`, its directory made, and record
        the digest of what was written."""
        full = os.path.join(self.out_dir, rel)
        folder = os.path.dirname(full)
        if not os.path.isdir(folder):  # one stat, not makedirs' three
            os.makedirs(folder, exist_ok=True)
        self.outputs[rel] = write_file(full, chunks)

    def write_report(self, folder: str, files: dict[str, bytes]) -> None:
        """Write a report's files under `folder`, in order, and say so."""
        for name, data in files.items():
            rel = f"{folder}/{name}"
            self.write(rel, [data])
            print(f"wrote {os.path.join(self.out_dir, rel)}")

    def manifest(self, extra: dict) -> None:
        """Write the command's manifest: what it read and what it wrote."""
        doc = {
            "stage": self.command,
            "config_hash": _stage_hash(self.config, self.command),
            "seed": self.config.seed,
            "inputs": {s: self.inputs[s] for s in _COMMANDS[self.command].needs},
            "outputs": self.outputs,
            **extra,
        }
        text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
        self.write(f"manifests/{self.command}.json", [text.encode("ascii")])


# ---------------------------------------------------------------------------
# models

# The stages a trained bundle is read from, in the order they are checked.
_BUNDLE_STAGES = (STAGE_SYNTH, STAGE_PCA, STAGE_GMM, STAGE_SVM)


def _load_stage_model(run: _Run, kind: str):
    return deserialize_model(run.read(f"models/{kind}.json"), kind)


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
        run.write(_corpus_rel(split), (encode_image(img.image) for img in images))
        rows += [(split, img.image_id, ",".join(img.labels),
                  ",".join(img.flags) if img.flags else "-", encode_boxes(img.boxes))
                 for img in images]
    run.write(_INDEX, [report.encode_table(_INDEX_COLUMNS, rows)])
    size = config.corpus_size
    print(f"synth-gen: {len(train_imgs)} train / {len(test_imgs)} test images "
          f"({size}x{size}, rho={config.corpus_rho})")
    return {"classes": list(classes)}


def _cells_rel(split: str) -> str:
    return f"descriptors/{split}.cells"


def _fvec_rel(split: str) -> str:
    return f"embeddings/{split}.fvec"


def _split_rows(config: PipelineConfig, images: int) -> int:
    # Every corpus image is corpus_size pixels square.
    return images * descriptor_count(config.corpus_size, config.corpus_size,
                                     config.patch, config.stride)


def _cmd_extract(config: PipelineConfig, args, run: _Run) -> None:
    total = 0
    size = config.corpus_size
    for split in ("train", "test"):
        images = len(run.entries(split))
        # one set at a time: its grid is written before the next is extracted
        run.write(_cells_rel(split), encode_cells(
            (ds.cells for ds in extract_corpus(run.images(split), config)),
            size, size, config.patch, config.stride, images))
        total += _split_rows(config, images)
    print(f"extract: {total} descriptors "
          f"(patch {config.patch}, stride {config.stride})")


def _load_descriptor_sets(run: _Run, split: str) -> tuple[int, Iterator]:
    """The split's rows, and its descriptor sets built one at a time as
    they are iterated, so a consumer that drops each set holds one."""
    images = len(run.entries(split))
    return (_split_rows(run.config, images),
            decode_cells(run.read(_cells_rel(split)), images))


def _project_split(run: _Run, split: str, pca):
    """The split's projected descriptors, one matrix."""
    rows, sets = _load_descriptor_sets(run, split)
    return project_all(pca, sets, rows)


def _cmd_pca_fit(config: PipelineConfig, args, run: _Run) -> None:
    rows, sets = _load_descriptor_sets(run, "train")
    model, _ = fit_pca_pooled(sets, rows, config)
    print(f"pca-fit: {model.raw_dim} -> {model.dim} dims on {rows} descriptors")
    run.write("models/pca.json", [serialize_model(model)])


def _cmd_gmm_fit(config: PipelineConfig, args, run: _Run) -> None:
    pca = _load_stage_model(run, "pca")
    projected = _project_split(run, "train", pca)
    model = fit_gmm(projected, config)
    steps, reason, gain = em_stop(model, projected, config)
    print(f"gmm-fit: K={config.gmm_k}, {steps} M-steps, stopped by {reason}, "
          f"last gain per descriptor {'none' if gain is None else f'{gain:.2e}'}")
    run.write("models/gmm.json", [serialize_model(model)])


def _cmd_embed(config: PipelineConfig, args, run: _Run) -> None:
    pca = _load_stage_model(run, "pca")
    gmm = _load_stage_model(run, "gmm")
    images = 0
    for split in ("train", "test"):
        raws = embed_all(gmm, _project_split(run, split, pca))
        run.write(_fvec_rel(split),
                  encode_fisher_vectors(raws, gmm.n_components, gmm.dim))
        images += raws.shape[0]
    print(f"embed: {images} Fisher vectors of length "
          f"{(1 + 2 * config.pca_dim) * config.gmm_k}")


def _load_raw_matrix(run: _Run, split: str) -> np.ndarray:
    """The split's raw Fisher vectors as stored, one row per image."""
    return decode_fisher_vectors(run.read(_fvec_rel(split)),
                                 len(run.entries(split)))


def _load_feature_matrix(run: _Run, split: str) -> np.ndarray:
    """The split's improved Fisher vectors as stored, one row per image."""
    return improve(_load_raw_matrix(run, split))


def _cmd_svm_train(config: PipelineConfig, args, run: _Run) -> None:
    classes = run.classes
    features = _load_feature_matrix(run, "train")
    model = train_svm(run.entries("train"), features, classes, config)
    taus = ", ".join(f"{c}: {t:.4f}" for c, t in zip(classes, model.thresholds))
    print(f"svm-train: {len(classes)} classes on {features.shape[0]} images "
          f"(C={config.svm_c}); thresholds {taus}")
    run.write("models/svm.json", [serialize_model(model)])


def _cmd_nn_train(config: PipelineConfig, args, run: _Run) -> None:
    train_imgs = list(run.images("train"))
    net = train_net(train_imgs, run.classes, config)
    arch = "-".join(str(s) for s in
                    [net.input_dim] + [l.weights.shape[1] for l in net.layers])
    print(f"nn-train: {arch} network on {len(train_imgs)} images")
    run.write("models/nn.json", [serialize_model(net)])


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
    acc = ", ".join(f"{c}: {correct[c] / len(entries):.3f}" for c in classes)
    print(f"predict: {len(entries)} test images; accuracy {acc}")
    run.write_report("reports", {"predictions.tsv": report.encode_table(
        ("image", "class", "score", "decision", "label"), rows)})


def _cmd_explain(config: PipelineConfig, args, run: _Run) -> None:
    bundle = _read_bundle(run)
    if args.cls not in bundle.classes:
        raise ValidationError(
            f"class {args.cls!r} not in corpus classes {bundle.classes}")
    entry = next((e for e in run.entries() if e.image_id == args.image), None)
    if entry is None:
        raise ValidationError(f"image {args.image!r} not in the corpus index")
    position = run.entries(entry.split).index(entry)
    img = next(islice(run.images(entry.split), position, None)).image
    expl = explain(img, bundle.gmm, bundle.pca, bundle.svm, args.cls,
                   variant=config.variant, epsilon=config.epsilon,
                   patch=bundle.patch, stride=bundle.stride)
    state = "positive" if expl.prediction_positive else "negative"
    print(f"explain: f({args.image}, {args.cls}) = {expl.score:.6f} "
          f"({state}); variant {config.variant}")
    run.write_report("reports/explain", report.explanation_files(
        f"{args.image}_{args.cls}_{config.variant}", img, expl,
        EmbeddingIndex(bundle.gmm.n_components, bundle.gmm.dim)))


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
        print(report.morf_summary_text(rep))
        run.write_report(f"reports/morf/{cls}", report.morf_files(rep))


def _cmd_context_report(config: PipelineConfig, args, run: _Run) -> None:
    bundle = _read_bundle(run, with_nn=True)
    test_imgs = list(run.images("test", boxes=True))
    rep = context_report(test_imgs, bundle.gmm, bundle.pca, bundle.svm,
                         bundle.net, variant=config.variant,
                         epsilon=config.epsilon, nn_alpha=config.nn_alpha,
                         nn_beta=config.nn_beta, patch=bundle.patch,
                         stride=bundle.stride)
    print(report.context_summary_text(rep))
    run.write_report("reports/context", report.context_files(rep))


def _trained_model_checks(run: _Run) -> list:
    """Spot checks against the trained artifacts, when they exist."""
    from .verification import CheckResult

    # Stage by stage, every file of each, so a stale or modified upstream
    # stage is reported even when a later stage has not run yet. The
    # checks below decode the bytes checked here.
    for stage in (STAGE_SYNTH, STAGE_EXTRACT, STAGE_PCA, STAGE_GMM, STAGE_EMBED,
                  STAGE_SVM):
        if not os.path.exists(_manifest_path(run.out_dir, stage)):
            return []
        for rel in run.require(stage)["outputs"]:
            run.read(rel, keep=True)
    bundle = _read_bundle(run)
    results = []

    img = next(run.images("test"))
    _, sets = _load_descriptor_sets(run, "test")
    ok = same_descriptors(next(sets), next(extract_corpus([img], run.config)))
    results.append(CheckResult(
        "trained-descriptors", ok,
        f"stored cell grid of {img.image_id} gives extract_dense's descriptors "
        f"{'bit for bit' if ok else 'with a difference'}"))

    cls = bundle.classes[0]
    expl = explain(img.image, bundle.gmm, bundle.pca, bundle.svm, cls,
                   variant="absolute", patch=bundle.patch,
                   stride=bundle.stride)
    gap = abs(float(expl.heatmap.values.sum()) - expl.score)
    ok = gap <= 1e-9 * max(1.0, abs(expl.score))
    results.append(CheckResult(
        "trained-conservation", ok,
        f"pixel sum vs f gap {gap:.2e} on {img.image_id}"))

    raws = _load_raw_matrix(run, "test")[:2]
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
        if args.command == "explain" and not (args.image and args.cls):
            raise UsageError("explain needs --image and --class")
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
