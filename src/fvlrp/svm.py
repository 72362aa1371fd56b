"""Linear one-vs-rest SVM over improved Fisher vectors (or any features).

Each class c gets an independent binary model minimizing

    lambda * ||w||^2 / 2 + (1/n) * sum_i max(0, 1 - y_i (w . x_i + b))

with lambda = 1/C. The solver is a deterministic full-batch subgradient
descent over averaged iterates: because every step sees the exact mean
subgradient, duplicating the training set leaves the trajectory
unchanged (up to summation rounding), which is the invariance the tests
rely on. The model kept is the last averaged iterate. `score` is the one
product for f(x), so the EER thresholds come from exactly the scores
every decision compares against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimError, TrainError, ValidationError


def _as_feature_matrix(features) -> np.ndarray:
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim != 2:
        raise DimError(f"expected a 2-d feature matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class SvmModel:
    """One binary linear scorer per class, plus decision thresholds."""

    classes: tuple[str, ...]
    weights: np.ndarray          # (n_classes, dim)
    biases: np.ndarray           # (n_classes,)
    c: float = 1.0
    epochs: int = 200
    thresholds: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.biases, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != len(self.classes) or b.shape != (len(self.classes),):
            raise DimError("weights/biases do not match the class list")
        tau = self.thresholds
        tau = np.zeros(len(self.classes)) if tau is None else np.asarray(tau, dtype=np.float64)
        if tau.shape != (len(self.classes),):
            raise DimError("thresholds do not match the class list")
        if not all(np.isfinite(a).all() for a in (w, b, tau)):
            raise ValidationError("non-finite SVM parameters")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)
        object.__setattr__(self, "thresholds", tau)

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    def class_index(self, name: str) -> int:
        try:
            return self.classes.index(name)
        except ValueError:
            raise KeyError(f"unknown class {name!r}") from None


def _objective(w: np.ndarray, b: float, lam: float,
               feats: np.ndarray, y: np.ndarray) -> float:
    margins = y * (feats @ w + b)
    hinge = np.maximum(0.0, 1.0 - margins)
    return float(0.5 * lam * np.dot(w, w) + hinge.mean())


def _train_binary(feats: np.ndarray, y: np.ndarray, c: float, epochs: int
                  ) -> tuple[np.ndarray, float]:
    """Last averaged iterate (w, b) of full-batch subgradient descent."""
    n, dim = feats.shape
    lam = 1.0 / c
    w = np.zeros(dim)
    b = 0.0
    # Running averages over iterates (including the zero start).
    avg_w, avg_b = w.copy(), b
    for t in range(1, epochs + 1):
        margins = y * (feats @ w + b)
        active = margins < 1.0
        ay = np.where(active, y, 0.0)
        grad_w = lam * w - (ay @ feats) / n
        grad_b = -ay.sum() / n
        eta = 1.0 / (lam * (t + 1.0))
        w = w - eta * grad_w
        b = b - eta * grad_b
        avg_w = avg_w + (w - avg_w) / (t + 1.0)
        avg_b = avg_b + (b - avg_b) / (t + 1.0)
    return avg_w, avg_b


def train(features, labels: dict, c: float = 1.0, epochs: int = 200) -> SvmModel:
    """Fit one-vs-rest binary models.

    `labels` maps class name -> array of +/-1, one per feature row, in
    the class order the model should expose. Every class needs at least
    one positive and one negative example.
    """
    feats = _as_feature_matrix(features)
    classes = tuple(labels)
    if not classes:
        raise TrainError("no classes to train")
    n = feats.shape[0]
    weights = np.zeros((len(classes), feats.shape[1]))
    biases = np.zeros(len(classes))
    for k, name in enumerate(classes):
        y = np.asarray(labels[name], dtype=np.float64)
        if y.shape != (n,):
            raise DimError(f"labels for {name!r} have shape {y.shape}, expected ({n},)")
        if not np.all(np.abs(y) == 1.0):
            raise ValidationError(f"labels for {name!r} must be +/-1")
        if not (np.any(y > 0) and np.any(y < 0)):
            raise TrainError(f"class {name!r} needs both positive and negative examples")
        w, b = _train_binary(feats, y, c, epochs)
        weights[k] = w
        biases[k] = b
    return SvmModel(classes, weights, biases, c=c, epochs=epochs)


def score(model: SvmModel, phi_x, class_name: str):
    """f(x) = w . phi(x) + b for one class: a float for one phi(x), an
    array for a stack of them along the last axis. Each w . phi(x) is one
    (1, F) x (F, 1) product of a batched matmul, the dot product np.dot
    takes, so a row scores alike alone or in any stack, bit for bit."""
    x = np.asarray(phi_x, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] != model.dim:
        raise DimError(f"feature shape {x.shape} vs model dim {model.dim}")
    k = model.class_index(class_name)
    f = np.matmul(x[..., None, :], model.weights[k][:, None])[..., 0, 0]
    f += model.biases[k]
    return float(f) if x.ndim == 1 else f


def eer_threshold(scores, labels) -> float:
    """Threshold equalizing false-positive and false-negative rates.

    Brute-force sweep over midpoints of sorted scores (plus extremes);
    ties resolved toward the lowest threshold.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if s.shape != y.shape or s.ndim != 1 or s.size == 0:
        raise ValidationError("scores and +/-1 labels must be matching non-empty vectors")
    npos = float(np.sum(y > 0))
    nneg = float(np.sum(y < 0))
    if npos == 0 or nneg == 0:
        raise ValidationError("EER needs both positive and negative examples")
    uniq = np.unique(s)
    candidates = np.concatenate(([uniq[0] - 1.0], (uniq[:-1] + uniq[1:]) / 2.0, [uniq[-1] + 1.0]))
    best_tau, best_gap = candidates[0], np.inf
    for tau in candidates:
        pred = s > tau
        fpr = float(np.sum(pred & (y < 0))) / nneg
        fnr = float(np.sum(~pred & (y > 0))) / npos
        gap = abs(fpr - fnr)
        if gap < best_gap - 1e-15:
            best_tau, best_gap = float(tau), gap
    return best_tau


def with_thresholds(model: SvmModel, features, labels: dict) -> SvmModel:
    """Copy of the model with per-class EER thresholds fit on the `score`s
    of `features`, the scores every decision compares them against."""
    feats = _as_feature_matrix(features)
    taus = np.array([eer_threshold(score(model, feats, name), labels[name])
                     for name in model.classes])
    return SvmModel(model.classes, model.weights, model.biases, model.c,
                    model.epochs, taus)
