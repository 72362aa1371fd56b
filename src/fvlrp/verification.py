"""Seeded invariant suite and independent oracle implementations.

Everything here exists to check the pipeline against slower, simpler
reimplementations: dense extraction binning each patch on its own,
the descriptor embeddings Psi one mixture component at a time,
relevance redistribution with a loop over the columns of the embedding
matrix, R1 one receptive field at a time, relevance propagation with explicit
per-connection loops, Fisher-vector recomputation from scratch after
incremental updates, MoRF replacement one trace and one step at a time,
the SVM solver replayed in its dual (support-vector) form, EM's E-step
and M-step from direct differences, one component at a time, and network
training with the first-layer weight matrix updated step by step. The
`verify` command runs the whole suite; the test suite reuses the same
checks at their pinned sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptors import (CLAMP, N_CELLS, N_ORI, RAW_DIM, DescriptorSet,
                          extract_dense, orientation_votes)
from .errors import ZeroDenominatorError
from .evaluation import MorfTrace, replace_traces
from .fisher import (INV_SQRT2, EmbeddingIndex, aggregate, embed_batch,
                     encode, improve)
from .gmm import GmmModel, _log_joint, _m_step, em_fit, responsibilities, sample
from .imaging import Image
from .lrp_fv import R2Map, R3Map, relevance_r1, relevance_r2, relevance_r3
from .lrp_nn import (DenseLayer, NeuralNet, _batch_forward, _hinge_loss,
                     _init_params, _training_arrays, forward, lrp_alphabeta,
                     lrp_epsilon, nn_train)
from .svm import SvmModel, _objective, score, train


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rel_ok(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol * max(1.0, abs(target))


# ---------------------------------------------------------------------------
# Random instance builders (all driven by explicit generators)


def random_gmm(rng: np.random.Generator, k: int, dim: int) -> GmmModel:
    w = rng.random(k) + 0.2
    w = w / w.sum()
    means = rng.normal(0.0, 1.5, (k, dim))
    sigmas = rng.uniform(0.4, 1.6, (k, dim))
    return GmmModel(w, means, sigmas, np.full(dim, 1e-8))


def random_descriptor_set(rng: np.random.Generator, n: int, dim: int,
                          image: int = 24, patch: int = 6) -> DescriptorSet:
    vectors = rng.normal(0.0, 1.0, (n, dim))
    xs = rng.integers(0, image - patch + 1, n)
    ys = rng.integers(0, image - patch + 1, n)
    areas = np.stack([xs, ys, np.full(n, patch), np.full(n, patch)], axis=1)
    return DescriptorSet(vectors, areas.astype(np.int64), (image, image))


def random_svm(rng: np.random.Generator, dim: int) -> SvmModel:
    w = rng.normal(0.0, 1.0, (1, dim)) / np.sqrt(dim)
    b = rng.normal(0.0, 0.3, 1)
    return SvmModel(("c",), w, b)


# ---------------------------------------------------------------------------
# Oracles


def oracle_embed_batch(model: GmmModel, vectors: np.ndarray) -> np.ndarray:
    """Psi row-major (n, (1+2D)K), one loop over the live components:
    component j's weight column and mean and sigma blocks from its
    responsibilities g and deviations t = (x - mu_j) / sigma_j. Zero-weight
    components keep zero blocks. Pins down `fisher.embed_batch` bit for bit."""
    vectors = np.asarray(vectors, dtype=np.float64)
    gamma = responsibilities(model, vectors)
    idx = EmbeddingIndex(model.n_components, model.dim)
    psi = np.zeros((vectors.shape[0], idx.length))
    for j in np.flatnonzero(model.weights):
        w, sqrt_w = model.weights[j], np.sqrt(model.weights[j])
        t = (vectors - model.means[j]) / model.sigmas[j]
        g = gamma[:, j]
        psi[:, j] = (g - w) / sqrt_w
        g = g[:, None]
        psi[:, idx.mu_block(j)] = g * t / sqrt_w
        psi[:, idx.sigma_block(j)] = g * (t * t - 1.0) * INV_SQRT2 / sqrt_w
    return psi


def oracle_r2_from_matrix(r3_values: np.ndarray, matrix: np.ndarray,
                          variant: str, epsilon: float = 100.0
                          ) -> tuple[np.ndarray, list[int], float]:
    """Descriptor relevances computed from the materialized matrix.

    Mirrors the redistribution rules with a loop over matrix columns in
    ascending dimension order; used to pin down the array kernel in
    `relevance_r2`.
    """
    n = matrix.shape[0]
    r2 = np.zeros(n)
    zero_dims: list[int] = []
    xi_total = 0.0
    for d in range(matrix.shape[1]):
        col = np.ascontiguousarray(matrix[:, d])
        if not np.any(col):
            zero_dims.append(d)
            xi_total += r3_values[d]
            continue
        if variant == "absolute":
            acol = np.abs(col)
            r2 += r3_values[d] * acol / acol.sum()
            continue
        colsum = col.sum()
        if variant == "plain":
            if colsum == 0.0:
                raise ZeroDenominatorError(f"dimension {d}: zero column sum")
            denom = colsum
        else:
            denom = colsum + (epsilon if colsum >= 0.0 else -epsilon)
        r2 += r3_values[d] * col / denom
    xi = xi_total / n
    r2 += xi
    return r2, zero_dims, xi


def oracle_replace_trace(vectors: np.ndarray, psi: np.ndarray, x0: np.ndarray,
                         gmm: GmmModel, svm_model: SvmModel, class_name: str,
                         order: np.ndarray, batch: int, steps: int,
                         rng: np.random.Generator, ordering_id: str,
                         identity_replacement: bool = False,
                         state_out: dict | None = None) -> MorfTrace:
    """One replacement trace on its own.

    `vectors` are an image's descriptors, `psi` and `x0` their embeddings
    and raw FV from `fisher.encode`. Replaces descriptors
    ``order[:batch*steps]`` (distinct, in range) in `steps` batches. All
    replacements are drawn with one `sample` call and embedded with one
    `embed_batch` call; the raw FV after step i is
    ``x0 + cumsum`` of the per-batch sums of ``(Psi(new) - Psi(old))/|L|``.
    Each step is improved and scored on its own; pins down the per-image
    array pass of `evaluation.replace_traces`.
    """
    n = vectors.shape[0]
    idx = order[:batch * steps]
    new_vectors = vectors[idx] if identity_replacement else sample(gmm, rng, idx.size)
    delta = (embed_batch(gmm, new_vectors) - psi[idx]) / n
    xs = x0 + np.cumsum(delta.reshape(steps, batch, -1).sum(axis=1), axis=0)
    f0 = score(svm_model, improve(x0), class_name)
    scores = np.array([score(svm_model, improve(x), class_name) for x in xs])
    if state_out is not None:
        mutated = vectors.copy()
        mutated[idx] = new_vectors
        state_out["fv"] = xs[-1]
        state_out["vectors"] = mutated
    return MorfTrace(ordering_id, scores, f0, batch, class_name)


def oracle_log_joint(model: GmmModel, data: np.ndarray) -> np.ndarray:
    """(n, K) log pi_k + log N(x; mu_k, sigma_k) from the direct differences
    (x - mu_k) / sigma_k, through an (n, K, D) array; pins down the
    expanded form of `gmm._log_joint`."""
    log_norm = -0.5 * model.dim * np.log(2.0 * np.pi) - np.log(model.sigmas).sum(axis=1)
    z = (data[:, None, :] - model.means[None, :, :]) / model.sigmas[None, :, :]
    log_dens = log_norm[None, :] - 0.5 * np.einsum("nkd,nkd->nk", z, z)
    with np.errstate(divide="ignore"):
        log_w = np.log(model.weights)
    return log_w[None, :] + log_dens


def oracle_m_step(model: GmmModel, data: np.ndarray, gamma: np.ndarray,
                  floor_var: np.ndarray) -> GmmModel:
    """EM's M-step one component at a time, variances from the centred
    differences; pins down the matrix form of `gmm._m_step`."""
    nk = gamma.sum(axis=0)
    means = model.means.copy()
    variances = model.sigmas.copy() ** 2
    for j in range(nk.size):
        if nk[j] == 0.0:
            continue
        means[j] = gamma[:, j] @ data / nk[j]
        diff = data - means[j]
        variances[j] = np.maximum(gamma[:, j] @ (diff * diff) / nk[j], floor_var)
    return GmmModel(nk / nk.sum(), means, np.sqrt(variances), model.sigma_floor)


def _cell_index_grid(patch: int) -> np.ndarray:
    """(patch, patch) map from local pixel offset to flat 4x4 cell index."""
    axis = (N_CELLS * np.arange(patch)) // patch
    return (axis[:, None] * N_CELLS + axis[None, :]).astype(np.int64)


def _normalize_clamped(hist: np.ndarray) -> np.ndarray:
    norm = np.sqrt(np.dot(hist, hist))
    if norm == 0.0:
        return hist
    v = hist / norm
    np.minimum(v, CLAMP, out=v)
    return v / np.sqrt(np.dot(v, v))


def oracle_orientation_votes(gray: np.ndarray) -> tuple[np.ndarray, ...]:
    """`descriptors.orientation_votes` in its textbook form: the angle
    wrapped by np.mod, the bin by floor modulo N_ORI."""
    padded = np.pad(gray, 1, mode="edge")
    gx = 0.5 * (padded[1:-1, 2:] - padded[1:-1, :-2])
    gy = 0.5 * (padded[2:, 1:-1] - padded[:-2, 1:-1])
    mag = np.hypot(gx, gy)
    theta = np.mod(np.arctan2(gy, gx), 2.0 * np.pi)
    t = theta * (N_ORI / (2.0 * np.pi))
    b0 = np.floor(t).astype(np.int64) % N_ORI
    frac = t - np.floor(t)
    b1 = (b0 + 1) % N_ORI
    return b0, b1, mag * (1.0 - frac), mag * frac


def oracle_extract_dense(img: Image, patch: int, stride: int) -> DescriptorSet:
    """`extract_dense` with each patch histogram binned from its own
    pixels, one grid position at a time (any geometry)."""
    b0, b1, w0, w1 = oracle_orientation_votes(img.gray())
    cells = _cell_index_grid(patch)
    vectors = []
    areas = []
    for y in range(0, img.height - patch + 1, stride):
        for x in range(0, img.width - patch + 1, stride):
            sl = (slice(y, y + patch), slice(x, x + patch))
            idx0 = (cells * N_ORI + b0[sl]).ravel()
            idx1 = (cells * N_ORI + b1[sl]).ravel()
            hist = np.bincount(idx0, weights=w0[sl].ravel(), minlength=RAW_DIM)
            hist += np.bincount(idx1, weights=w1[sl].ravel(), minlength=RAW_DIM)
            vectors.append(_normalize_clamped(hist))
            areas.append((x, y, patch, patch))
    return DescriptorSet(np.array(vectors), np.array(areas, dtype=np.int64),
                         (img.width, img.height))


def oracle_relevance_r1(r2_values: np.ndarray, areas: np.ndarray,
                        dims: tuple[int, int]) -> np.ndarray:
    """R1 with the receptive fields clipped one descriptor at a time."""
    width, height = dims
    heat = np.zeros((height, width))
    for rel, (x, y, w, h) in zip(r2_values, areas):
        x0, y0 = max(int(x), 0), max(int(y), 0)
        x1, y1 = min(int(x + w), width), min(int(y + h), height)
        if x1 <= x0 or y1 <= y0:
            continue
        heat[y0:y1, x0:x1] += rel / ((x1 - x0) * (y1 - y0))
    return heat


def oracle_nn_backward(net: NeuralNet, x: np.ndarray, class_name: str,
                       rule: str, epsilon: float = 0.0, alpha: float = 2.0,
                       beta: float = 1.0) -> list[np.ndarray]:
    """Relevance per layer via explicit per-connection loops."""
    acts = forward(net, x)
    rel = np.zeros(len(net.classes))
    rel[net.class_index(class_name)] = acts[-1][net.class_index(class_name)]
    out = [rel]
    for li in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[li]
        xin = acts[li]
        nin, nout = layer.weights.shape
        prev = np.zeros(nin)
        for j in range(nout):
            zij = [xin[i] * layer.weights[i, j] for i in range(nin)]
            if rule == "epsilon":
                zj = sum(zij) + layer.biases[j]
                stab = epsilon if zj >= 0.0 else -epsilon
                for i in range(nin):
                    prev[i] += zij[i] / (zj + stab) * out[0][j]
            else:
                zp = sum(max(v, 0.0) for v in zij) + max(layer.biases[j], 0.0)
                zn = sum(min(v, 0.0) for v in zij) + min(layer.biases[j], 0.0)
                for i in range(nin):
                    pos = alpha * max(zij[i], 0.0) / zp if zp != 0.0 else 0.0
                    neg = beta * min(zij[i], 0.0) / zn if zn != 0.0 else 0.0
                    prev[i] += (pos - neg) * out[0][j]
        out.insert(0, prev)
    return out


def oracle_nn_train(inputs, labels: dict, hidden: tuple[int, ...] = (64, 32),
                    input_size: tuple[int, int] = (32, 32), seed: int = 0,
                    epochs: int = 60, lr: float = 0.01,
                    batch_size: int = 16) -> NeuralNet:
    """`nn_train` in weight space: every step multiplies the batch by the
    (input_dim, h1) first-layer matrix and rewrites that matrix."""
    x, y, classes = _training_arrays(inputs, labels, input_size)
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    weights, biases = _init_params([x.shape[1], *hidden, len(classes)], rng)

    def full_loss():
        return _hinge_loss(_batch_forward(weights, biases, x)[-1], y)

    best_loss, best = full_loss(), (list(weights), list(biases))
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            xb, yb = x[idx], y[idx]
            acts = _batch_forward(weights, biases, xb)
            grad = np.where(yb * acts[-1] < 1.0, -yb, 0.0) / xb.shape[0]
            for li in range(len(weights) - 1, -1, -1):
                gw = acts[li].T @ grad
                gb = grad.sum(axis=0)
                if li > 0:
                    grad = (grad @ weights[li].T) * (acts[li] > 0.0)
                weights[li] = weights[li] - lr * gw
                biases[li] = biases[li] - lr * gb
        loss = full_loss()
        if loss < best_loss:
            best_loss, best = loss, (list(weights), list(biases))
    layers = tuple(DenseLayer(w, b) for w, b in zip(*best))
    return NeuralNet(classes, layers, input_size)


def oracle_svm_dual(features: np.ndarray, y: np.ndarray, c: float,
                    epochs: int) -> np.ndarray:
    """Per-example coefficients a of the lowest-objective averaged iterate.

    Replays the averaged subgradient recurrence, tracking next to w the
    coefficients with w = sum_i a_i y_i x_i: each step scales a by
    (1 - eta*lam) and adds eta/n to every margin violator. `svm.train`
    keeps the last averaged iterate, so `check_svm_dual` also checks that
    the last iterate is the lowest-objective one on its problems.
    """
    n, dim = features.shape
    lam = 1.0 / c
    w, b, a = np.zeros(dim), 0.0, np.zeros(n)
    avg_w, avg_b, avg_a = w, b, a
    best_obj, best_a = _objective(avg_w, avg_b, lam, features, y), avg_a
    for t in range(1, epochs + 1):
        active = y * (features @ w + b) < 1.0
        ay = np.where(active, y, 0.0)
        eta = 1.0 / (lam * (t + 1.0))
        w = w - eta * (lam * w - (ay @ features) / n)
        b = b - eta * (-ay.sum() / n)
        a = (1.0 - eta * lam) * a + np.where(active, eta / n, 0.0)
        avg_w = avg_w + (w - avg_w) / (t + 1.0)
        avg_b = avg_b + (b - avg_b) / (t + 1.0)
        avg_a = avg_a + (a - avg_a) / (t + 1.0)
        obj = _objective(avg_w, avg_b, lam, features, y)
        if obj < best_obj:
            best_obj, best_a = obj, avg_a
    return best_a


# ---------------------------------------------------------------------------
# Checks


def check_r3_conservation(cases: int = 200, seed: int = 1001) -> CheckResult:
    """R3 sums to f(x); absolute-variant R2 and R1 chains conserve too."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        k = int(rng.integers(2, 6))
        dim = int(rng.integers(2, 7))
        n = int(rng.integers(3, 13))
        gmm = random_gmm(rng, k, dim)
        ds = random_descriptor_set(rng, n, dim)
        phi = improve(aggregate(gmm, ds.vectors))
        svm_model = random_svm(rng, phi.shape[0])
        f = score(svm_model, phi, "c")
        r3 = relevance_r3(svm_model, phi, "c")
        r2 = relevance_r2(r3, embed_batch(gmm, ds.vectors), variant="absolute")
        heat = relevance_r1(r2, ds)
        for total in (float(r3.values.sum()), float(r2.values.sum()),
                      float(heat.values.sum())):
            worst = max(worst, abs(total - f) / max(1.0, abs(f)))
            if not _rel_ok(total, f, 1e-9):
                return CheckResult("conservation", False,
                                   f"sum {total!r} vs f {f!r}")
    return CheckResult("conservation", True,
                       f"{cases} cases, worst relative error {worst:.2e}")


def check_hellinger(pairs: int = 1000, seed: int = 1002) -> CheckResult:
    from .fisher import hellinger_check

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(pairs):
        m = int(rng.integers(5, 61))
        scale = 10.0 ** rng.uniform(-3, 3)
        x = rng.normal(0.0, scale, m)
        y = rng.normal(0.0, scale, m)
        lhs, rhs = hellinger_check(x, y)
        err = abs(lhs - rhs) / max(1.0, abs(lhs))
        worst = max(worst, err)
        if err > 1e-10:
            return CheckResult("hellinger", False, f"|lhs-rhs| = {abs(lhs - rhs)!r}")
    return CheckResult("hellinger", True,
                       f"{pairs} pairs, worst relative gap {worst:.2e}")


def check_epsilon_violation() -> CheckResult:
    """The cancellation instance where the stabilizer destroys relevance."""
    r3 = R3Map(np.array([1.0]), "c", 1.0)
    psi = np.array([[2.0], [-2.0]])
    r2_eps = relevance_r2(r3, psi, variant="epsilon", epsilon=1.0)
    r2_abs = relevance_r2(r3, psi, variant="absolute")
    ok = (np.array_equal(r2_eps.values, np.array([2.0, -2.0]))
          and float(r2_eps.values.sum()) == 0.0
          and np.array_equal(r2_abs.values, np.array([0.5, 0.5]))
          and float(r2_abs.values.sum()) == 1.0)
    detail = (f"epsilon variant: {r2_eps.values.tolist()} (sum "
              f"{float(r2_eps.values.sum())}), absolute: {r2_abs.values.tolist()}")
    return CheckResult("epsilon-violation", ok, detail)


def check_streaming_oracle(cases: int = 100, seed: int = 1003) -> CheckResult:
    """The array R2 kernel must equal the per-column loop bit for bit, n = 1
    included. The last four cases take the fixed workload's shape (n = 169,
    length 264), eight zeroed columns and, in two, subnormal entries."""
    rng = np.random.default_rng(seed)
    for case in range(cases):
        fixed = case >= cases - 4
        k = 8 if fixed else int(rng.integers(2, 4))
        dim = 16 if fixed else int(rng.integers(2, 5))
        if not fixed and (1 + 2 * dim) * k > 30:
            dim = 2
        n = 169 if fixed else int(rng.integers(1, 6))
        gmm = random_gmm(rng, k, dim)
        vectors = rng.normal(0.0, 6.0 if fixed and case % 2 else 1.0, (n, dim))
        r3_values = rng.normal(0.0, 1.0, (1 + 2 * dim) * k)
        r3 = R3Map(r3_values, "c", float(r3_values.sum()))
        matrix = embed_batch(gmm, vectors)
        if fixed:
            matrix[:, rng.choice(matrix.shape[1], 8, replace=False)] = 0.0
        for variant, eps in (("epsilon", 100.0), ("absolute", 100.0),
                             ("plain", 100.0)):
            try:
                streamed = relevance_r2(r3, matrix, variant=variant,
                                        epsilon=eps)
            except ZeroDenominatorError:
                try:
                    oracle_r2_from_matrix(r3_values, matrix, variant, eps)
                except ZeroDenominatorError:
                    continue
                return CheckResult("streaming-oracle", False,
                                   f"case {case}: refusal mismatch")
            expect, zero_dims, xi = oracle_r2_from_matrix(
                r3_values, matrix, variant, eps)
            if not (streamed.values.tobytes() == expect.tobytes()
                    and streamed.zero_dims.tolist() == zero_dims
                    and streamed.xi == xi):
                return CheckResult(
                    "streaming-oracle", False,
                    f"case {case} variant {variant}: bitwise mismatch")
    return CheckResult("streaming-oracle", True,
                       f"{cases} cases x 3 variants, all bitwise equal")


TILING_GEOMETRIES = ((8, 2), (8, 4), (8, 6), (12, 3), (12, 6), (16, 4), (16, 8), (16, 16))


def same_descriptors(a: DescriptorSet, b: DescriptorSet) -> bool:
    return (a.vectors.tobytes() == b.vectors.tobytes()
            and np.array_equal(a.areas, b.areas) and a.image_size == b.image_size)


def angle_edge_images(rng: np.random.Generator, height: int = 24, width: int = 20
                      ) -> list[np.ndarray]:
    """Gray images whose gradients sit where the angle wrap can round:
    signed zeros only (zero gradients at angles 0, -0, pi and -pi), a
    leftward ramp (angle exactly pi) with rows of -0.0 above it (-pi),
    and a rightward ramp whose first column falls by steps small enough
    that the wrapped angle rounds to 2*pi or lands just below it."""
    zeros = np.where(rng.random((height, width)) < 0.5, -0.0, 0.0)
    ramp = np.linspace(1.0, 0.0, width)
    left = np.zeros((height, width))
    left[1::2] = ramp
    left[2::4] = -0.0
    images = [zeros, left]
    for step in (1e-20, 1e-18, 1e-16, 1e-15):
        right = np.tile(ramp[::-1], (height, 1))
        right[:, 0] = step * np.arange(height, 0, -1)
        images.append(right)
    return images


def check_dense_extraction(cases: int = 48, seed: int = 1009) -> CheckResult:
    """Cell-shared extraction equals per-patch binning, and the orientation
    votes equal their oracle, bit for bit: on the tiling geometries, with
    non-square, color and constant images, and on the angle edge cases."""
    rng = np.random.default_rng(seed)
    for case in range(cases):
        patch, stride = TILING_GEOMETRIES[case % len(TILING_GEOMETRIES)]
        shape = tuple(int(v) for v in rng.integers(patch, 3 * patch, 2))
        shape += (3,) if case % 4 == 1 else ()
        img = Image(np.full(shape, 0.5) if case % 4 == 2 else rng.random(shape))
        if not same_descriptors(extract_dense(img, patch, stride),
                                oracle_extract_dense(img, patch, stride)):
            return CheckResult("dense-extraction", False,
                               f"case {case}: patch {patch} stride {stride} shape {shape}")
    edges = angle_edge_images(rng)
    for case, gray in enumerate(edges):
        votes = zip(orientation_votes(gray), oracle_orientation_votes(gray))
        if not (all(a.tobytes() == b.tobytes() for a, b in votes)
                and same_descriptors(extract_dense(Image(gray), 8, 4),
                                     oracle_extract_dense(Image(gray), 8, 4))):
            return CheckResult("dense-extraction", False, f"angle edge case {case}")
    return CheckResult("dense-extraction", True,
                       f"{cases} images and {len(edges)} angle edge cases, "
                       f"all bitwise equal")


def check_r1(cases: int = 200, seed: int = 1010) -> CheckResult:
    """The array R1 kernel equals the per-descriptor loop bit for bit, on
    areas clipped at every edge, some of them empty after clipping. The last
    20 take `extract_dense` areas (cell grids, patch 4 too) on sides off the
    cell grid (65 x 66 at patch 16) and on an image of one descriptor."""
    rng = np.random.default_rng(seed)
    aligned = TILING_GEOMETRIES + ((4, 1), (4, 4))
    for case in range(cases):
        dims = tuple(int(v) for v in rng.integers(1, 20, 2))
        n = int(rng.integers(1, 30))
        areas = np.concatenate([rng.integers(-8, 24, (n, 2)), rng.integers(0, 12, (n, 2))],
                               axis=1)
        j = case - cases + 2 * len(aligned)
        if j >= 0:
            patch, stride = aligned[j // 2]
            dims = (patch, patch) if j % 2 else (4 * patch + 1, 4 * patch + 2)
            areas = extract_dense(Image(rng.random(dims[::-1])), patch, stride).areas
        r2 = R2Map(rng.normal(0.0, 1.0, len(areas)), "epsilon", 1.0,
                   np.array([], dtype=np.int64), 0.0, 0.0, "c")
        heat = relevance_r1(r2, DescriptorSet(np.zeros((len(areas), 1)), areas, dims))
        if heat.values.tobytes() != oracle_relevance_r1(r2.values, areas, dims).tobytes():
            return CheckResult("r1", False, f"case {case}: bitwise mismatch")
    return CheckResult("r1", True, f"{cases} clipped cases, all bitwise equal")


def check_incremental_fv(cases: int = 100, steps: int = 20,
                         seed: int = 1004) -> CheckResult:
    """Incremental FV updates equal recomputation from the mutated set."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for case in range(cases):
        k = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 6))
        n = steps + int(rng.integers(5, 14))
        gmm = random_gmm(rng, k, dim)
        ds = random_descriptor_set(rng, n, dim)
        svm_model = random_svm(rng, (1 + 2 * dim) * k)
        # most-relevant-first over a random relevance map
        order = np.argsort(-rng.normal(0.0, 1.0, n))
        psi, x0 = encode(gmm, ds.vectors)
        _, draws, final = replace_traces(
            ds.vectors, psi, x0, gmm, svm_model, "c",
            [("check", order, np.random.default_rng(seed + case))], 1, steps)
        mutated = ds.vectors.copy()
        mutated[order[:steps]] = draws[0]
        expect = aggregate(gmm, mutated)
        scale = max(1.0, float(np.max(np.abs(expect))))
        err = float(np.max(np.abs(final[0] - expect))) / scale
        worst = max(worst, err)
        if err > 1e-9:
            return CheckResult("incremental-fv", False,
                               f"case {case}: relative error {err:.2e}")
    return CheckResult("incremental-fv", True,
                       f"{cases} cases x {steps} steps, worst error {worst:.2e}")


def check_identity_replacement(seed: int = 1005) -> CheckResult:
    """Replacing descriptors by themselves leaves every score unchanged."""
    rng = np.random.default_rng(seed)
    gmm = random_gmm(rng, 3, 4)
    ds = random_descriptor_set(rng, 30, 4)
    svm_model = random_svm(rng, (1 + 2 * 4) * 3)
    # most-relevant-first over a random relevance map
    order = np.argsort(-rng.normal(0.0, 1.0, 30))
    psi, x0 = encode(gmm, ds.vectors)
    (trace,), _, _ = replace_traces(ds.vectors, psi, x0, gmm, svm_model, "c",
                                    [("check", order, rng)], 3, 10,
                                    identity_replacement=True)
    ok = bool(np.all(trace.scores == trace.original_score))
    gap = float(np.max(np.abs(trace.scores - trace.original_score)))
    return CheckResult("identity-replacement", ok, f"max |f_i - f_0| = {gap!r}")


def _sample_generic_net(rng: np.random.Generator, biased: bool = False
                        ) -> tuple[NeuralNet, np.ndarray]:
    """Net + input in generic position for both rules.

    Rejects draws where any unit has an exactly-zero pre-activation or
    a single-signed contribution split (there the alpha-beta layer sum
    is degenerate by convention, and the eps=0 rule is undefined).
    """
    while True:
        n_in = int(rng.integers(3, 7))
        n_hidden = int(rng.integers(3, 7))
        n_out = int(rng.integers(2, 4))
        layers = []
        sizes = [n_in, n_hidden, n_out]
        for i in range(len(sizes) - 1):
            w = rng.normal(0.0, 1.0, (sizes[i], sizes[i + 1]))
            b = rng.normal(0.0, 0.3, sizes[i + 1]) if biased else np.zeros(sizes[i + 1])
            layers.append(DenseLayer(w, b))
        net = NeuralNet(tuple(f"c{j}" for j in range(n_out)), tuple(layers),
                        (n_in, 1))
        x = rng.normal(0.0, 1.0, n_in)
        acts = forward(net, x)
        ok = True
        for li, layer in enumerate(net.layers):
            zij = acts[li][:, None] * layer.weights
            z = zij.sum(axis=0) + layer.biases
            zplus = zij.clip(min=0.0).sum(axis=0) + layer.biases.clip(min=0.0)
            zminus = zij.clip(max=0.0).sum(axis=0) + layer.biases.clip(max=0.0)
            if np.any(z == 0.0) or np.any(zplus <= 0.0) or np.any(zminus >= 0.0):
                ok = False
                break
        if ok:
            return net, x


def check_nn_rules(nets: int = 50, seed: int = 1006) -> CheckResult:
    """Per-layer conservation on bias-free nets + brute-force oracle match."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for case in range(nets):
        net, x = _sample_generic_net(rng)
        cls = net.classes[int(rng.integers(len(net.classes)))]
        for rule, rel in (("epsilon", lrp_epsilon(net, x, cls, 0.0)),
                          ("alphabeta", lrp_alphabeta(net, x, cls, 2.0, 1.0))):
            sums = [float(r.sum()) for r in rel.relevances]
            for a, b in zip(sums, sums[1:]):
                worst = max(worst, abs(a - b) / max(1.0, abs(b)))
                if not _rel_ok(a, b, 1e-9):
                    return CheckResult("nn-rules", False,
                                       f"net {case} {rule}: layer sums {a!r} vs {b!r}")
            oracle = oracle_nn_backward(net, x, cls, rule)
            for got, expect in zip(rel.relevances, oracle):
                scale = max(1.0, float(np.max(np.abs(expect))))
                err = float(np.max(np.abs(got - expect))) / scale
                worst = max(worst, err)
                if err > 1e-9:
                    return CheckResult("nn-rules", False,
                                       f"net {case} {rule}: oracle gap {err:.2e}")
    return CheckResult("nn-rules", True,
                       f"{nets} nets x 2 rules, worst gap {worst:.2e}")


def check_nn_bias_deficit(nets: int = 20, seed: int = 1007) -> CheckResult:
    """Layer relevance deficit equals the recorded bias (+ stabilizer) share."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for case in range(nets):
        net, x = _sample_generic_net(rng, biased=True)
        cls = net.classes[0]
        for rel in (lrp_epsilon(net, x, cls, 0.1),
                    lrp_alphabeta(net, x, cls, 2.0, 1.0)):
            for li in range(len(net.layers)):
                deficit = rel.layer_deficit(li)
                share = rel.bias_shares[li] + rel.stabilizer_shares[li]
                err = abs(deficit - share) / max(1.0, abs(deficit))
                worst = max(worst, err)
                if err > 1e-9:
                    return CheckResult("nn-bias-deficit", False,
                                       f"net {case} layer {li}: {deficit!r} vs {share!r}")
    return CheckResult("nn-bias-deficit", True,
                       f"{nets} biased nets, worst gap {worst:.2e}")


def check_svm_dual(cases: int = 40, seed: int = 1011) -> CheckResult:
    """The trained SVM in its support-vector form: w = sum_i a_i y_i x_i,
    and R3_d = sum_i a_i y_i x_i,d phi(x)_d + b/D equals `relevance_r3`."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for case in range(cases):
        n, dim = int(rng.integers(4, 31)), int(rng.integers(2, 13))
        features = rng.normal(0.0, 1.0, (n, dim))
        y = rng.permutation(np.resize([1.0, -1.0], n))
        c, epochs = float(10.0 ** rng.uniform(-1.0, 1.0)), int(rng.integers(20, 121))
        model = train(features, {"c": y}, c=c, epochs=epochs)
        w_dual = (oracle_svm_dual(features, y, c, epochs) * y) @ features
        phi = rng.normal(0.0, 1.0, dim)
        for what, got, expect in (
                ("weights", w_dual, model.weights[0]),
                ("R3", w_dual * phi + model.biases[0] / dim,
                 relevance_r3(model, phi, "c").values)):
            err = float(np.max(np.abs(got - expect))) / max(1.0, float(np.max(np.abs(expect))))
            worst = max(worst, err)
            if err > 1e-9:
                return CheckResult("svm-dual", False, f"case {case}: {what} gap {err:.2e}")
    return CheckResult("svm-dual", True, f"{cases} trained models, worst gap {worst:.2e}")


def nn_oracle_gap(net: NeuralNet, oracle: NeuralNet) -> float:
    """Worst |production - oracle| over every weight and bias of every
    layer, relative to max(1, the largest |value| of that array)."""
    worst = 0.0
    for got, ref in zip(net.layers, oracle.layers):
        for a, b in ((got.weights, ref.weights), (got.biases, ref.biases)):
            scale = max(1.0, float(np.max(np.abs(b))))
            worst = max(worst, float(np.max(np.abs(a - b))) / scale)
    return worst


NN_TRAIN_TOL = 1e-10


def check_nn_train(seed: int = 1012) -> CheckResult:
    """Example-space `nn_train` against its weight-space oracle within
    NN_TRAIN_TOL on seeded problems: more and fewer examples than inputs,
    one and two hidden layers, one and two classes. A large step on the
    last problems makes the loss rise late, so a kept epoch before the
    last one is covered too."""
    rng = np.random.default_rng(seed)
    worst, cases = 0.0, 0
    for n, side in ((40, 4), (12, 4), (30, 6)):
        for hidden in ((6,), (5, 3)):
            for n_classes in (1, 2):
                x = rng.uniform(0.0, 1.0, (n, side * side))
                labels = {f"c{j}": rng.permutation(np.resize([1.0, -1.0], n))
                          for j in range(n_classes)}
                kwargs = dict(hidden=hidden, input_size=(side, side),
                              seed=int(rng.integers(1 << 30)), epochs=12,
                              lr=0.5 if n == 30 else 0.05, batch_size=5)
                gap = nn_oracle_gap(nn_train(x, labels, **kwargs),
                                    oracle_nn_train(x, labels, **kwargs))
                worst = max(worst, gap)
                cases += 1
                if not gap <= NN_TRAIN_TOL:
                    return CheckResult(
                        "nn-train", False,
                        f"n={n} d={side * side} hidden={hidden} "
                        f"classes={n_classes}: oracle gap {gap:.2e}")
    return CheckResult("nn-train", True,
                       f"{cases} nets vs weight-space oracle, worst gap {worst:.2e}")


def _em_oracle_gap(model: GmmModel, data: np.ndarray) -> float:
    """Worst ratio of |production - oracle| to its tolerance over one E-step
    and one M-step at `model` (above 1 fails).

    Tolerances, with eps the float64 unit round-off, n samples, D dims and
    the variance floor v_d = sigma_floor_d**2 (sigma >= sigma_floor, so the
    floor bounds every term of the expansion):
    - log-joint lj at (x, k): (D + 4) eps (sum_d (x_d**2 + mu_kd**2) / v_d + |lj|);
    - weight pi_k: (n + 4) eps pi_k;
    - mean mu_kd: (n + 4) eps E_k[|x_d|];
    - variance sigma_kd**2: (n + 4) eps (E_k[x_d**2] + mu_kd**2),
    where E_k is the responsibility-weighted mean over the samples.
    """
    eps = np.finfo(np.float64).eps
    n, dim = data.shape
    floor_var = model.sigma_floor ** 2
    lj, lj_ref = _log_joint(model, data).T, oracle_log_joint(model, data)
    scale = (((data * data) @ (1.0 / floor_var))[:, None]
             + (model.means ** 2 / floor_var).sum(axis=1)[None, :])
    worst = float(np.max(np.abs(lj - lj_ref)
                         / ((dim + 4) * eps * (scale + np.abs(lj_ref)))))
    gamma = responsibilities(model, data)
    got = _m_step(model, data, gamma.T, floor_var)
    ref = oracle_m_step(model, data, gamma, floor_var)
    nk = np.maximum(gamma.sum(axis=0), np.finfo(np.float64).tiny)[:, None]
    for a, b, size in (
            (got.weights, ref.weights, ref.weights),
            (got.means, ref.means, (gamma.T @ np.abs(data)) / nk),
            (got.sigmas ** 2, ref.sigmas ** 2,
             (gamma.T @ (data * data)) / nk + ref.means ** 2)):
        bound = np.maximum((n + 4) * eps * size, np.finfo(np.float64).tiny)
        worst = max(worst, float(np.max(np.abs(a - b) / bound)))
    return worst


def check_em(runs: int = 50, seed: int = 1008) -> CheckResult:
    """Monotone log-likelihood traces; K=1 matches the closed form; the
    expanded E-step and the matrix M-step match their oracles within the
    tolerances of `_em_oracle_gap`, on every run and on one run whose
    data pins a component onto the variance floor."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for run in range(runs + 1):
        if run < runs:
            k = int(rng.integers(1, 5))
            dim = int(rng.integers(2, 5))
            n = int(rng.integers(40, 121))
            centers = rng.normal(0.0, 4.0, (k, dim))
            assign = rng.integers(0, k, n)
            data = centers[assign] + rng.normal(0.0, 0.7, (n, dim))
        else:
            # 20 copies of one point, far from a cloud: one component collapses.
            k = 2
            point = np.full((20, 3), 10.0)
            data = np.concatenate([rng.normal(0.0, 1.0, (60, 3)), point])
        model = em_fit(data, k, seed=seed + run)
        trace = np.asarray(model.ll_trace)
        if trace.size < 1 or np.any(np.diff(trace) < -1e-8):
            return CheckResult("em", False, f"run {run}: trace not monotone")
        on_floor = np.all(model.sigmas == model.sigma_floor, axis=1)
        if run == runs and not np.any(on_floor):
            return CheckResult("em", False, "no component collapsed onto the floor")
        gap = _em_oracle_gap(model, data)
        if not gap <= 1.0:
            return CheckResult("em", False,
                               f"run {run}: E/M-step vs oracle {gap:.2e} of tolerance")
        worst = max(worst, gap)
    data = np.random.default_rng(seed).normal(1.5, 2.0, (200, 3))
    model = em_fit(data, 1, seed=seed)
    floor = 1e-4 * np.maximum(data.var(axis=0), 1e-8)
    expect_var = np.maximum(data.var(axis=0), floor)
    mean_err = float(np.max(np.abs(model.means[0] - data.mean(axis=0))))
    var_err = float(np.max(np.abs(model.sigmas[0] ** 2 - expect_var)))
    ok = (model.weights[0] == 1.0 and mean_err <= 1e-12 and var_err <= 1e-12)
    return CheckResult("em", ok,
                       f"{runs} monotone runs; K=1 gaps mean {mean_err:.2e} "
                       f"var {var_err:.2e}; E/M-step vs oracle at most "
                       f"{worst:.2e} of tolerance")


def run_all(seed: int = 0) -> list[CheckResult]:
    """The full invariant suite at its pinned sizes."""
    base = seed * 7919
    return [
        check_r3_conservation(seed=1001 + base),
        check_hellinger(seed=1002 + base),
        check_epsilon_violation(),
        check_streaming_oracle(seed=1003 + base),
        check_incremental_fv(seed=1004 + base),
        check_identity_replacement(seed=1005 + base),
        check_nn_rules(seed=1006 + base),
        check_nn_bias_deficit(seed=1007 + base),
        check_em(seed=1008 + base),
        check_dense_extraction(seed=1009 + base),
        check_r1(seed=1010 + base),
        check_svm_dual(seed=1011 + base),
        check_nn_train(seed=1012 + base),
    ]
