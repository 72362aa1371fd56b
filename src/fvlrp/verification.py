"""Seeded invariant suite and independent oracle implementations.

Everything here exists to check the pipeline against slower, simpler
reimplementations: relevance redistribution with a loop over the
columns of the embedding matrix, relevance propagation with explicit
per-connection loops, and Fisher-vector recomputation from scratch after
incremental updates. The `verify` command runs the whole suite; the test
suite reuses the same checks at their pinned sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptors import DescriptorSet
from .errors import ZeroDenominatorError
from .evaluation import morf_replace
from .fisher import aggregate, embed_batch, improve
from .gmm import GmmModel, em_fit
from .lrp_fv import R2Map, R3Map, relevance_r1, relevance_r2, relevance_r3
from .lrp_nn import DenseLayer, NeuralNet, forward, lrp_alphabeta, lrp_epsilon
from .svm import SvmModel, score


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


def recomputed_fisher_vector(gmm: GmmModel, vectors: np.ndarray) -> np.ndarray:
    return aggregate(gmm, vectors).values


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
        phi = improve(aggregate(gmm, ds))
        svm_model = random_svm(rng, phi.values.shape[0])
        f = score(svm_model, phi, "c")
        r3 = relevance_r3(svm_model, phi, "c")
        r2 = relevance_r2(r3, embed_batch(gmm, ds.vectors), variant="absolute")
        heat = relevance_r1(r2, ds, ds.image_size)
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
    """The array R2 kernel must equal the per-column loop bit for bit."""
    rng = np.random.default_rng(seed)
    for case in range(cases):
        k = int(rng.integers(2, 4))
        dim = int(rng.integers(2, 5))
        if (1 + 2 * dim) * k > 30:
            dim = 2
        n = int(rng.integers(1, 6))
        gmm = random_gmm(rng, k, dim)
        vectors = rng.normal(0.0, 1.0, (n, dim))
        r3_values = rng.normal(0.0, 1.0, (1 + 2 * dim) * k)
        r3 = R3Map(r3_values, "c", float(r3_values.sum()))
        matrix = embed_batch(gmm, vectors)
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
            if not (np.array_equal(streamed.values, expect)
                    and streamed.zero_dims.tolist() == zero_dims
                    and streamed.xi == xi):
                return CheckResult(
                    "streaming-oracle", False,
                    f"case {case} variant {variant}: bitwise mismatch")
    return CheckResult("streaming-oracle", True,
                       f"{cases} cases x 3 variants, all bitwise equal")


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
        r2 = R2Map(rng.normal(0.0, 1.0, n), "epsilon", 1.0,
                   np.array([], dtype=np.int64), 0.0, 0.0, "c")
        state: dict = {}
        morf_replace(ds, gmm, svm_model, r2, batch=1, steps=steps,
                     rng=np.random.default_rng(seed + case), state_out=state)
        expect = recomputed_fisher_vector(gmm, state["vectors"])
        scale = max(1.0, float(np.max(np.abs(expect))))
        err = float(np.max(np.abs(state["fv"] - expect))) / scale
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
    r2 = R2Map(rng.normal(0.0, 1.0, 30), "epsilon", 1.0,
               np.array([], dtype=np.int64), 0.0, 0.0, "c")
    trace = morf_replace(ds, gmm, svm_model, r2, batch=3, steps=10,
                         rng=rng, identity_replacement=True)
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
            act = "identity" if i == len(sizes) - 2 else "relu"
            layers.append(DenseLayer(w, b, act))
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


def check_em(runs: int = 50, seed: int = 1008) -> CheckResult:
    """Monotone log-likelihood traces; K=1 matches the closed form."""
    rng = np.random.default_rng(seed)
    for run in range(runs):
        k = int(rng.integers(1, 5))
        dim = int(rng.integers(2, 5))
        n = int(rng.integers(40, 121))
        centers = rng.normal(0.0, 4.0, (k, dim))
        assign = rng.integers(0, k, n)
        data = centers[assign] + rng.normal(0.0, 0.7, (n, dim))
        model = em_fit(data, k, seed=seed + run)
        trace = np.asarray(model.ll_trace)
        if trace.size < 1 or np.any(np.diff(trace) < -1e-8):
            return CheckResult("em", False, f"run {run}: trace not monotone")
    data = np.random.default_rng(seed).normal(1.5, 2.0, (200, 3))
    model = em_fit(data, 1, seed=seed)
    floor = 1e-4 * np.maximum(data.var(axis=0), 1e-8)
    expect_var = np.maximum(data.var(axis=0), floor)
    mean_err = float(np.max(np.abs(model.means[0] - data.mean(axis=0))))
    var_err = float(np.max(np.abs(model.sigmas[0] ** 2 - expect_var)))
    ok = (model.weights[0] == 1.0 and mean_err <= 1e-12 and var_err <= 1e-12)
    return CheckResult("em", ok,
                       f"{runs} monotone runs; K=1 gaps mean {mean_err:.2e} "
                       f"var {var_err:.2e}")


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
    ]
