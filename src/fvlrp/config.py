"""Pipeline configuration: one flat record, JSON file + flag overrides.

Precedence is flags > file > defaults. The configuration hash covers
only result-affecting fields: `threads` is excluded (it is accepted and
validated for compatibility, and nothing reads it) and no paths are
stored here at all (the output directory is a command-line concern), so
identical experiments hash identically wherever they run.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .descriptors import RAW_DIM, tiles_grid
from .errors import ParseError, ValidationError
from .util import stable_hash


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
        if not 0.0 <= self.corpus_rho <= 1.0:
            raise ValidationError("corpus_rho must lie in [0, 1]")
        positive = {
            "corpus_size": self.corpus_size, "train_per_class": self.train_per_class,
            "test_per_class": self.test_per_class, "patch": self.patch,
            "stride": self.stride, "pca_dim": self.pca_dim, "gmm_k": self.gmm_k,
            "gmm_max_iter": self.gmm_max_iter, "gmm_sample_count": self.gmm_sample_count,
            "svm_epochs": self.svm_epochs, "nn_input": self.nn_input,
            "nn_epochs": self.nn_epochs, "nn_batch": self.nn_batch,
            "morf_batch": self.morf_batch, "morf_steps": self.morf_steps,
            "morf_repetitions": self.morf_repetitions, "threads": self.threads,
        }
        for name, value in positive.items():
            if int(value) < 1:
                raise ValidationError(f"{name} must be >= 1, got {value}")
        if self.svm_c <= 0 or self.gmm_tol <= 0 or self.nn_lr < 0:
            raise ValidationError("svm_c and gmm_tol must be > 0, nn_lr >= 0")
        if any(int(h) < 1 for h in self.nn_hidden):
            raise ValidationError(
                f"nn_hidden layer sizes must be >= 1, got {list(self.nn_hidden)}")
        if self.pca_dim > RAW_DIM:
            raise ValidationError(
                f"pca_dim {self.pca_dim} exceeds the descriptor dimension {RAW_DIM}")
        # Cross-field checks: each of these would otherwise fail only
        # stages later (nn-train, extract, gmm-fit, morf-eval).
        if self.corpus_size % self.nn_input != 0:
            raise ValidationError(
                f"corpus_size {self.corpus_size} must be a multiple of "
                f"nn_input {self.nn_input}")
        if self.patch > self.corpus_size:
            raise ValidationError(
                f"patch {self.patch} exceeds corpus_size {self.corpus_size}")
        per_side = (self.corpus_size - self.patch) // self.stride + 1
        if not tiles_grid(self.patch, self.stride, per_side):
            raise ValidationError(f"patch {self.patch} / stride {self.stride}: "
                                  f"descriptor cells do not tile the grid")
        # `make_corpus` renders two classes of `train_per_class` images.
        em_samples = min(self.gmm_sample_count,
                         2 * self.train_per_class * per_side * per_side)
        if self.gmm_k > em_samples:
            raise ValidationError(
                f"gmm_k {self.gmm_k} exceeds the {em_samples} descriptors EM "
                f"samples (gmm_sample_count or all training descriptors)")
        if self.morf_batch * self.morf_steps > per_side * per_side:
            raise ValidationError(
                f"morf_batch*morf_steps = {self.morf_batch * self.morf_steps} "
                f"exceeds the {per_side * per_side} descriptors per image")
        if self.variant not in ("plain", "epsilon", "absolute"):
            raise ValidationError(f"unknown variant {self.variant!r}")
        if self.variant == "epsilon" and self.epsilon <= 0:
            raise ValidationError("epsilon must be > 0 for the epsilon variant")
        object.__setattr__(self, "nn_hidden", tuple(int(h) for h in self.nn_hidden))

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

    def config_hash(self) -> str:
        """Hash of the result-affecting configuration (threads excluded)."""
        payload = self.to_dict()
        payload.pop("threads")
        return stable_hash(payload)


def load_config(path) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"config {path} must be a JSON object")
    return PipelineConfig().with_overrides(**raw)


def save_config(config: PipelineConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, sort_keys=True, indent=1)
        fh.write("\n")
