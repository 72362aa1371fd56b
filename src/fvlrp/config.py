"""Pipeline configuration: one flat record, JSON file + flag overrides.

Precedence is flags > file > defaults. Every field is checked against
its annotation when the record is built, and a file may not set a field
to null (a `None` override means "flag not given"). Every `int` field is
at least 1, except `seed` (at least 0). Which command reads which field,
and so which fields each stage's cache hash covers, is declared once, in
`fvlrp.cli._COMMANDS`; no command reads `threads`, which is validated for
compatibility. No paths are stored here, so identical experiments hash
identically wherever they run.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .descriptors import RAW_DIM, descriptor_count, grid_shape
from .errors import ExtractError, IoError, ParseError, SpecError, ValidationError
from .lrp_fv import VARIANTS
from .lrp_nn import check_alphabeta
from .synth import two_class_spec
from .util import read_file, write_file

# What each field annotation accepts; a bool is neither an int nor a float,
# and a float is finite (JSON files may spell NaN and Infinity).
_ACCEPTS = {"int": (int,), "float": (int, float), "str": (str,)}


def _typed(value, annotation: str) -> bool:
    if annotation == "tuple[int, ...]":
        return isinstance(value, (list, tuple)) and all(_typed(v, "int") for v in value)
    return (isinstance(value, _ACCEPTS[annotation]) and not isinstance(value, bool)
            and (annotation != "float" or math.isfinite(value)))


@dataclass(frozen=True)
class PipelineConfig:
    # Corpus
    corpus_size: int = 64
    corpus_rho: float = 0.0
    train_per_class: int = 100
    test_per_class: int = 20
    artefact_class: str = ""        # empty = no artefact injection
    # Descriptors
    patch: int = 16
    stride: int = 4
    pca_dim: int = 16
    # Mixture model
    gmm_k: int = 8
    gmm_max_iter: int = 100
    gmm_tol: float = 1e-6
    gmm_sample_count: int = 5000
    # Classifiers
    svm_c: float = 1.0
    svm_epochs: int = 200
    nn_hidden: tuple[int, ...] = (64, 32)
    nn_input: int = 32
    nn_epochs: int = 60
    nn_lr: float = 0.01
    nn_batch: int = 16
    # Relevance
    variant: str = "epsilon"
    epsilon: float = 100.0
    nn_alpha: float = 2.0
    nn_beta: float = 1.0
    # Replacement evaluation
    morf_batch: int = 5
    morf_steps: int = 20
    morf_repetitions: int = 5
    # Reproducibility / execution
    seed: int = 0
    threads: int = 1                # accepted for compatibility; unused

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _typed(value, f.type):
                raise ValidationError(f"{f.name} must be {f.type}, got {value!r}")
        if not 0.0 <= self.corpus_rho <= 1.0:
            raise ValidationError("corpus_rho must lie in [0, 1]")
        for f in dataclasses.fields(self):
            least, value = int(f.name != "seed"), getattr(self, f.name)
            if f.type == "int" and value < least:
                raise ValidationError(f"{f.name} must be >= {least}, got {value}")
        if self.svm_c <= 0 or self.gmm_tol <= 0 or self.nn_lr < 0:
            raise ValidationError("svm_c and gmm_tol must be > 0, nn_lr >= 0")
        if any(h < 1 for h in self.nn_hidden):
            raise ValidationError(
                f"nn_hidden layer sizes must be >= 1, got {list(self.nn_hidden)}")
        if self.pca_dim > RAW_DIM:
            raise ValidationError(
                f"pca_dim {self.pca_dim} exceeds the descriptor dimension {RAW_DIM}")
        # Cross-field checks: each of these would otherwise fail only
        # stages later (synth-gen, nn-train, extract, pca-fit, gmm-fit,
        # morf-eval, context-report).
        size = self.corpus_size
        try:  # the corpus `make_corpus` renders must place its objects
            classes = two_class_spec(self.corpus_rho, size=size).class_names
        except SpecError as exc:
            raise ValidationError(f"corpus_size {size}: {exc}") from exc
        if self.artefact_class not in ("",) + classes:
            raise ValidationError(
                f"artefact_class {self.artefact_class!r} is not a class of the "
                f"corpus; expected one of {list(classes)} or \"\" for none")
        if size % self.nn_input != 0:
            raise ValidationError(
                f"corpus_size {size} must be a multiple of nn_input {self.nn_input}")
        try:
            grid_shape(size, size, self.patch, self.stride)
        except ExtractError as exc:
            raise ValidationError(f"corpus_size {size}: {exc}") from exc
        per_image = descriptor_count(size, size, self.patch, self.stride)
        # `make_corpus` renders `train_per_class` images of each class.
        train_descriptors = len(classes) * self.train_per_class * per_image
        if self.pca_dim >= train_descriptors:
            raise ValidationError(
                f"pca_dim {self.pca_dim} must be below the {train_descriptors} "
                f"training descriptors")
        em_samples = min(self.gmm_sample_count, train_descriptors)
        if self.gmm_k > em_samples:
            raise ValidationError(
                f"gmm_k {self.gmm_k} exceeds the {em_samples} descriptors EM "
                f"samples (gmm_sample_count or all training descriptors)")
        if self.morf_batch * self.morf_steps > per_image:
            raise ValidationError(
                f"morf_batch*morf_steps = {self.morf_batch * self.morf_steps} "
                f"exceeds the {per_image} descriptors per image")
        check_alphabeta(self.nn_alpha, self.nn_beta)
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}")
        if self.variant == "epsilon" and self.epsilon <= 0:
            raise ValidationError("epsilon must be > 0 for the epsilon variant")
        object.__setattr__(self, "nn_hidden", tuple(self.nn_hidden))

    def with_overrides(self, **overrides) -> "PipelineConfig":
        """New config with the given non-None fields replaced."""
        changes = {k: v for k, v in overrides.items() if v is not None}
        unknown = set(changes) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise ValidationError(f"unknown config fields: {sorted(unknown)}")
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["nn_hidden"] = list(self.nn_hidden)
        return out


def load_config(path) -> PipelineConfig:
    """The config a UTF-8 JSON file holds; a file that cannot be read or
    decoded is a `ParseError`."""
    try:
        raw = json.loads(read_file(path).decode("utf-8"))
    except IoError as exc:
        raise ParseError(f"config: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ParseError(f"config {path} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"config {path} must be a JSON object")
    nulls = sorted(name for name, value in raw.items() if value is None)
    if nulls:
        raise ValidationError(f"config {path}: null values for {nulls}")
    return PipelineConfig().with_overrides(**raw)


def save_config(config: PipelineConfig, path) -> None:
    text = json.dumps(config.to_dict(), sort_keys=True, indent=1) + "\n"
    write_file(path, [text.encode("utf-8")])
