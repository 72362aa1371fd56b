"""Small dense ReLU network with layer-wise relevance propagation.

The network consumes a block-mean-downscaled grayscale image (flattened
row-major) and emits one linear score per class; training minimizes the
sum of per-class hinge losses (multi-label, not softmax-competitive).
Training keeps the first layer in example space: it holds P = X W0, the
first-layer pre-activations of the n training inputs X, and the summed
per-example gradients A, never the (input_dim, h1) matrix W0; W0 is
built once, for the kept epoch (see `nn_train`).

Two relevance rules are provided, both operating on the cached forward
pass with z_ij = w_ij x_i and z_j = sum_i z_ij + b_j:

* epsilon rule: R_i = sum_j z_ij / (z_j + eps*sign(z_j)) R_j, with
  sign(0) = +1. At eps = 0 an exactly-zero z_j is refused.
* alpha-beta rule: R_i = sum_j (alpha z_ij+/z_j+ - beta z_ij-/z_j-) R_j
  where +/- are the summed positive/negative parts (bias included);
  a term with an empty part (z_j+ = 0 or z_j- = 0) is defined as 0.

Biases contribute to the denominators but receive no outgoing
relevance; each propagation records the per-layer share routed to bias
terms (and, for the epsilon rule, to the stabilizer), so the layer sums
obey  sum_i R_i = sum_j R_j - bias_share - stabilizer_share  exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimError, TrainError, ValidationError, ZeroDenominatorError
from .imaging import Heatmap, Image


def layer_activations(n_layers: int) -> tuple[str, ...]:
    """Each layer's activation, fixed by its position: ReLU on every
    hidden layer, and the linear ("identity") class-score output last."""
    return ("relu",) * (n_layers - 1) + ("identity",)


@dataclass(frozen=True)
class DenseLayer:
    """Weights and biases of one layer; its activation follows from its
    position in the net (`layer_activations`)."""

    weights: np.ndarray   # (fan_in, fan_out)
    biases: np.ndarray    # (fan_out,)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.biases, dtype=np.float64)
        if w.ndim != 2 or b.shape != (w.shape[1],):
            raise DimError(f"layer shapes {w.shape} / {b.shape} inconsistent")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValidationError("non-finite layer parameters")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)


@dataclass(frozen=True)
class NeuralNet:
    """Dense feedforward net; the last layer is the per-class linear output."""

    classes: tuple[str, ...]
    layers: tuple[DenseLayer, ...]
    input_size: tuple[int, int]    # (width, height) of the consumed image

    def __post_init__(self):
        if not self.layers:
            raise ValidationError("network needs at least one layer")
        w, h = self.input_size
        expect = w * h
        for i, layer in enumerate(self.layers):
            if layer.weights.shape[0] != expect:
                raise DimError(f"layer {i} expects {layer.weights.shape[0]} inputs, got {expect}")
            expect = layer.weights.shape[1]
        if expect != len(self.classes):
            raise DimError(f"output width {expect} vs {len(self.classes)} classes")

    @property
    def input_dim(self) -> int:
        return self.input_size[0] * self.input_size[1]

    def class_index(self, name: str) -> int:
        try:
            return self.classes.index(name)
        except ValueError:
            raise KeyError(f"unknown class {name!r}") from None


def downscale(image: Image, size: tuple[int, int]) -> np.ndarray:
    """Block-mean downscale of the grayscale image to (width, height)."""
    gray = image.gray()
    w, h = size
    sh, sw = image.height // h, image.width // w
    if sh * h != image.height or sw * w != image.width:
        raise DimError(f"image {image.width}x{image.height} not divisible by {w}x{h}")
    return gray.reshape(h, sh, w, sw).mean(axis=(1, 3))


def image_to_input(image: Image, size: tuple[int, int]) -> np.ndarray:
    return downscale(image, size).reshape(-1)


def forward(net: NeuralNet, x: np.ndarray) -> list[np.ndarray]:
    """All activation vectors, input first, output scores last."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.input_dim,):
        raise DimError(f"input shape {x.shape} vs expected ({net.input_dim},)")
    return _batch_forward([l.weights for l in net.layers],
                          [l.biases for l in net.layers], x)


def nn_scores(net: NeuralNet, x: np.ndarray) -> np.ndarray:
    return forward(net, x)[-1]


def _init_params(sizes: list[int], rng: np.random.Generator
                 ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    weights, biases = [], []
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        last = i == len(sizes) - 2
        scale = np.sqrt((1.0 if last else 2.0) / fan_in)
        weights.append(rng.standard_normal((fan_in, fan_out)) * scale)
        biases.append(np.zeros(fan_out))
    return weights, biases


def _hinge_loss(nets_out: np.ndarray, y: np.ndarray) -> float:
    return float(np.maximum(0.0, 1.0 - y * nets_out).sum(axis=1).mean())


def _batch_forward(weights: list[np.ndarray], biases: list[np.ndarray],
                   x: np.ndarray) -> list[np.ndarray]:
    """All activations of the layers `weights`/`biases` (the last one the
    output) on `x`, one input or a batch of rows."""
    acts = [x]
    for w, b, act in zip(weights, biases, layer_activations(len(weights))):
        z = acts[-1] @ w + b
        acts.append(np.maximum(z, 0.0) if act == "relu" else z)
    return acts


def _training_arrays(inputs, labels: dict, input_size: tuple[int, int]
                     ) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Inputs as (n, input_dim) floats, labels as (n, classes) +/-1, and
    the class names; refuses misaligned or single-signed labels."""
    x = np.asarray(inputs, dtype=np.float64)
    classes = tuple(labels)
    if not classes:
        raise TrainError("no classes to train")
    n = x.shape[0]
    if x.ndim != 2 or x.shape[1] != input_size[0] * input_size[1]:
        raise DimError(f"inputs {x.shape} vs input size {input_size}")
    y = np.stack([np.asarray(labels[c], dtype=np.float64) for c in classes], axis=1)
    if y.shape != (n, len(classes)):
        raise DimError("labels do not align with inputs")
    for j, name in enumerate(classes):
        if not (np.any(y[:, j] > 0) and np.any(y[:, j] < 0)):
            raise TrainError(f"class {name!r} needs both positive and negative examples")
    return x, y, classes


def nn_train(inputs, labels: dict, hidden: tuple[int, ...] = (64, 32),
             input_size: tuple[int, int] = (32, 32), seed: int = 0,
             epochs: int = 60, lr: float = 0.01, batch_size: int = 16) -> NeuralNet:
    """Mini-batch subgradient descent on the summed per-class hinge loss.

    `inputs` is (n, input_dim) of flattened downscaled images; `labels`
    maps class name -> +/-1 per example. The parameters kept are those
    of the epoch with the lowest full-training loss, so the final loss
    never exceeds the initial one.

    The first layer is trained in example space. Every step changes W0
    by -lr X_b^T g for its batch rows X_b and first-layer gradient g, so
    W0 stays W0_init - lr X^T A, where row i of A sums the gradients
    example i received. The loop keeps the invariant P = X W0 (n, h1)
    and A instead of W0: a batch's pre-activations are P[idx] + b0, a
    step updates P -= lr G[:, idx] g with the Gram matrix G = X X^T
    formed once, and adds g into A[idx] (exact: a batch is a slice of a
    permutation, so no row repeats). W0 itself is built once, for the
    kept epoch. A step then costs O(n b h1) instead of the O(d b h1) of
    updating W0 (d = input_dim), and G takes n^2 float64s (320 KB at
    n = 200); the weight-space loop would be cheaper only past n = d
    training images, which the configured workloads stay far below
    (n = 200, d = 1024).
    `verification.oracle_nn_train` is the weight-space loop.
    """
    x, y, classes = _training_arrays(inputs, labels, input_size)
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    weights, biases = _init_params([x.shape[1], *hidden, len(classes)], rng)
    last = len(weights) - 1
    gram = x @ x.T
    p = x @ weights[0]
    a = np.zeros_like(p)

    def forward_from(z0):
        """Activations from layer 0's output on, given its pre-activations."""
        return _batch_forward(weights[1:], biases[1:],
                              z0 if last == 0 else np.maximum(z0, 0.0))

    def full_loss():
        return _hinge_loss(forward_from(p + biases[0])[-1], y)

    # Steps rebind the entries of `weights` and `biases` (weights[0] is
    # never touched), so shallow copies of the lists and a copy of A keep
    # an epoch's parameters.
    best_loss, best = full_loss(), (a.copy(), list(weights), list(biases))
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            yb = y[idx]
            # acts[k] feeds layer k + 1.
            acts = forward_from(p[idx] + biases[0])
            # d(loss)/d(score): -y where the margin is violated.
            grad = np.where(yb * acts[-1] < 1.0, -yb, 0.0) / len(idx)
            for li in range(last, 0, -1):
                gw = acts[li - 1].T @ grad
                gb = grad.sum(axis=0)
                grad = (grad @ weights[li].T) * (acts[li - 1] > 0.0)
                weights[li] = weights[li] - lr * gw
                biases[li] = biases[li] - lr * gb
            biases[0] = biases[0] - lr * grad.sum(axis=0)
            p -= gram[idx].T @ (lr * grad)     # G symmetric: G[idx].T = G[:, idx]
            a[idx] += grad
        loss = full_loss()
        if loss < best_loss:
            best_loss, best = loss, (a.copy(), list(weights), list(biases))
    a_best, kept_weights, kept_biases = best
    kept_weights[0] = weights[0] - lr * (x.T @ a_best)
    layers = tuple(DenseLayer(w, b) for w, b in zip(kept_weights, kept_biases))
    return NeuralNet(classes, layers, input_size)


@dataclass(frozen=True)
class LayerRelevance:
    """Relevance per activation layer: index 0 = input pixels, -1 = output."""

    relevances: tuple[np.ndarray, ...]
    bias_shares: tuple[float, ...]          # one per weight layer
    stabilizer_shares: tuple[float, ...]    # one per weight layer (0 for alpha-beta)
    rule: str
    class_name: str
    score: float

    @property
    def input_relevance(self) -> np.ndarray:
        return self.relevances[0]

    def layer_deficit(self, k: int) -> float:
        """sum_j R at layer k+1 minus sum_i R at layer k (= shares routed away)."""
        return float(self.relevances[k + 1].sum() - self.relevances[k].sum())


def _top_relevance(net: NeuralNet, acts: list[np.ndarray], class_name: str
                   ) -> tuple[np.ndarray, float]:
    k = net.class_index(class_name)
    top = np.zeros(len(net.classes))
    f = float(acts[-1][k])
    top[k] = f
    return top, f


def lrp_epsilon(net: NeuralNet, x: np.ndarray, class_name: str,
                epsilon: float = 0.0) -> LayerRelevance:
    """Backward pass with the stabilized proportional rule."""
    if epsilon < 0.0:
        raise ValidationError("epsilon must be >= 0")
    acts = forward(net, x)
    top, f = _top_relevance(net, acts, class_name)
    rel = [top]
    bias_shares: list[float] = []
    stab_shares: list[float] = []
    for li in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[li]
        xin = acts[li]
        z = xin @ layer.weights + layer.biases
        if epsilon == 0.0 and np.any(z == 0.0):
            raise ZeroDenominatorError(
                f"layer {li}: z_j = 0 with epsilon = 0; use epsilon > 0")
        stab = np.where(z >= 0.0, epsilon, -epsilon)
        factor = rel[0] / (z + stab)
        rel.insert(0, (xin[:, None] * layer.weights) @ factor)
        bias_shares.insert(0, float(np.dot(layer.biases, factor)))
        stab_shares.insert(0, float(np.dot(stab, factor)))
    return LayerRelevance(tuple(rel), tuple(bias_shares), tuple(stab_shares),
                          "epsilon", class_name, f)


def check_alphabeta(alpha: float, beta: float) -> None:
    """The alpha-beta rule conserves relevance only when alpha - beta = 1."""
    if abs(alpha - beta - 1.0) > 1e-12:
        raise ValidationError(f"alpha - beta must be 1, got {alpha} - {beta}")


def lrp_alphabeta(net: NeuralNet, x: np.ndarray, class_name: str,
                  alpha: float = 2.0, beta: float = 1.0) -> LayerRelevance:
    """Backward pass splitting positive and negative contributions."""
    check_alphabeta(alpha, beta)
    acts = forward(net, x)
    top, f = _top_relevance(net, acts, class_name)
    rel = [top]
    bias_shares: list[float] = []
    for li in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[li]
        xin = acts[li]
        zij = xin[:, None] * layer.weights
        zpos = np.maximum(zij, 0.0)
        zneg = np.minimum(zij, 0.0)
        bpos = np.maximum(layer.biases, 0.0)
        bneg = np.minimum(layer.biases, 0.0)
        zjp = zpos.sum(axis=0) + bpos
        zjn = zneg.sum(axis=0) + bneg
        # A term with an empty part contributes 0 (guarded division).
        fpos = np.divide(rel[0], zjp, out=np.zeros_like(zjp), where=zjp != 0.0)
        fneg = np.divide(rel[0], zjn, out=np.zeros_like(zjn), where=zjn != 0.0)
        rel.insert(0, zpos @ (alpha * fpos) + zneg @ (-beta * fneg))
        bias_shares.insert(0, float(np.dot(bpos, alpha * fpos) - np.dot(bneg, beta * fneg)))
    zeros = tuple(0.0 for _ in bias_shares)
    return LayerRelevance(tuple(rel), tuple(bias_shares), zeros,
                          "alphabeta", class_name, f)


def nn_heatmap(layer_rel: LayerRelevance, dims: tuple[int, int],
               source_dims: tuple[int, int] | None = None) -> Heatmap:
    """Reshape input relevance to the image grid; optionally upsample.

    `dims` is the (width, height) the net consumed. When `source_dims`
    is given, relevance is replicated over the corresponding pixel block
    and divided by its area, so the total is preserved.
    """
    w, h = dims
    rel = layer_rel.input_relevance
    if rel.shape != (w * h,):
        raise DimError(f"input relevance {rel.shape} vs grid {w}x{h}")
    grid = rel.reshape(h, w)
    if source_dims is None or source_dims == dims:
        return Heatmap(grid)
    sw, sh = source_dims
    fx, fy = sw // w, sh // h
    if fx * w != sw or fy * h != sh:
        raise DimError(f"source {sw}x{sh} not an integer multiple of {w}x{h}")
    up = np.kron(grid, np.ones((fy, fx))) / (fx * fy)
    return Heatmap(up)
