"""Fisher-vector embedding: hand formulas, layout, and normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvlrp.errors import DegenerateInputError, DimError, EmptyInputError
from fvlrp.fisher import (EmbeddingIndex, aggregate, decode_fisher_vectors,
                          embed_batch, embed_descriptor, encode,
                          encode_fisher_vectors, fv_length, hellinger_check,
                          improve, signed_sqrt)
from fvlrp.gmm import GmmModel, responsibilities
from fvlrp.util import row_norms
from fvlrp.verification import oracle_embed_batch, random_gmm


def make_model(weights, means, sigmas):
    means = np.asarray(means, dtype=np.float64)
    return GmmModel(np.asarray(weights, dtype=np.float64), means,
                    np.asarray(sigmas, dtype=np.float64),
                    np.full(means.shape[1], 1e-8))


def test_fv_length():
    assert fv_length(8, 16) == (1 + 32) * 8
    assert fv_length(1, 1) == 3


def test_single_gaussian_hand_formula():
    # K=1: gamma = 1 always, sqrt(w) = 1
    model = make_model([1.0], [[2.0]], [[0.5]])
    psi = embed_descriptor(model, np.array([3.0]))
    t = (3.0 - 2.0) / 0.5
    np.testing.assert_allclose(
        psi, [1.0 - 1.0, t, (t * t - 1.0) / np.sqrt(2.0)], atol=1e-15)


def test_two_component_hand_formula():
    model = make_model([0.25, 0.75], [[0.0], [4.0]], [[1.0], [1.0]])
    x = np.array([1.0])
    gamma = responsibilities(model, x[None, :])[0]
    psi = embed_descriptor(model, x)
    for j, (w, mu) in enumerate(((0.25, 0.0), (0.75, 4.0))):
        g, rw = gamma[j], np.sqrt(w)
        t = (1.0 - mu) / 1.0
        assert psi[j] == pytest.approx((g - w) / rw, rel=1e-12)
        assert psi[2 + j] == pytest.approx(g * t / rw, rel=1e-12)
        assert psi[4 + j] == pytest.approx(
            g * (t * t - 1.0) / (np.sqrt(2.0) * rw), rel=1e-12)


def test_layout_and_index_bijection():
    idx = EmbeddingIndex(3, 5)
    seen = set()
    for d in range(idx.length):
        moment, comp, coord = idx.decode(d)
        if moment == "w":
            assert (comp, coord) == (d, 0)
        else:
            block = idx.mu_block(comp) if moment == "mu" else idx.sigma_block(comp)
            assert block.start + coord == d < block.stop
        seen.add((moment, comp, coord))
    assert len(seen) == idx.length
    assert idx.decode(0) == ("w", 0, 0)
    assert idx.decode(3) == ("mu", 0, 0)
    assert idx.decode(3 + 15) == ("sigma", 0, 0)
    with pytest.raises(DimError):
        idx.decode(idx.length)


def test_zero_weight_component_contributes_zero_block():
    model = make_model([1.0, 0.0], [[0.0], [100.0]], [[1.0], [1.0]])
    emb = embed_batch(model, np.array([[0.3], [0.7]]))
    idx = EmbeddingIndex(2, 1)
    assert np.all(emb[:, 1] == 0.0)
    assert np.all(emb[:, idx.mu_block(1)] == 0.0)
    assert np.all(emb[:, idx.sigma_block(1)] == 0.0)


def test_aggregate_is_mean_of_embeddings(rng):
    model = make_model([0.5, 0.5], rng.normal(size=(2, 3)),
                       rng.uniform(0.5, 1.5, (2, 3)))
    vectors = rng.normal(size=(7, 3))
    fv = aggregate(model, vectors)
    np.testing.assert_allclose(fv, embed_batch(model, vectors).mean(axis=0),
                               atol=1e-12)
    with pytest.raises(EmptyInputError):
        aggregate(model, np.zeros((0, 3)))


def with_dead_component(model):
    """The model with its first component's weight set to zero."""
    w = model.weights.copy()
    w[0] = 0.0
    return GmmModel(w / w.sum(), model.means, model.sigmas, model.sigma_floor)


@pytest.mark.parametrize("n", [1, 2, 7, 169])
@pytest.mark.parametrize("dead", [False, True])
def test_encode_raw_fv_is_aggregate_bitwise(rng, n, dead):
    model = random_gmm(rng, 4, 5)
    model = with_dead_component(model) if dead else model
    vectors = rng.normal(0.0, 2.0, (n, 5))
    psi, raw = encode(model, vectors)
    assert raw.tobytes() == aggregate(model, vectors).tobytes()
    assert psi.tobytes() == embed_batch(model, vectors).tobytes()


def test_zero_weight_component_gives_zero_raw_fv_blocks(rng):
    model = with_dead_component(random_gmm(rng, 3, 4))
    idx = EmbeddingIndex(3, 4)
    with np.errstate(all="raise"):  # no 0/0 on the way
        raw = aggregate(model, rng.normal(size=(9, 4)))
    assert raw[0] == 0.0
    assert np.all(raw[idx.mu_block(0)] == 0.0)
    assert np.all(raw[idx.sigma_block(0)] == 0.0)
    assert np.all(raw[idx.mu_block(1)] != 0.0)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 40), st.data())
def test_embedding_row_does_not_depend_on_its_batch(seed, n, data):
    """Rows of Psi, and of the responsibilities behind it, are the same
    bits in any batch, for K up to 16 components."""
    rng = np.random.default_rng(seed)
    k, d = int(rng.integers(1, 17)), int(rng.integers(1, 17))
    model = random_gmm(rng, k, d)
    vectors = rng.normal(0.0, 2.0, (n, d))
    subset = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                max_size=n, unique=True))
    for rows in (responsibilities, embed_batch):
        full = rows(model, vectors)
        assert full[subset].tobytes() == rows(model, vectors[subset]).tobytes()
        for i in range(n):
            assert full[i].tobytes() == rows(model, vectors[i:i + 1])[0].tobytes()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 40), st.booleans())
def test_embed_batch_is_the_per_component_oracle_bitwise(seed, n, dead):
    """Psi equals the row-major one-component-at-a-time oracle bit for bit,
    for K and D up to 16, and is the transposed view of a C-contiguous
    array: each FV dimension's column is contiguous."""
    rng = np.random.default_rng(seed)
    k, d = int(rng.integers(1, 17)), int(rng.integers(1, 17))
    model = random_gmm(rng, k, d)
    model = with_dead_component(model) if dead and k > 1 else model
    vectors = rng.normal(0.0, 2.0, (n, d))
    for rows in (vectors, vectors[:1]):
        psi = embed_batch(model, rows)
        assert psi.T.flags.c_contiguous
        assert psi.tobytes() == oracle_embed_batch(model, rows).tobytes()


@pytest.mark.parametrize("dead", [False, True])
def test_embed_batch_is_the_oracle_at_the_workload_shape(rng, dead):
    model = random_gmm(rng, 8, 16)
    model = with_dead_component(model) if dead else model
    vectors = rng.normal(0.0, 2.0, (169, 16))
    psi, _ = encode(model, vectors)
    assert psi.shape == (169, fv_length(8, 16)) and psi.T.flags.c_contiguous
    assert psi.tobytes() == oracle_embed_batch(model, vectors).tobytes()


def test_signed_sqrt_convention():
    np.testing.assert_array_equal(signed_sqrt(np.array([4.0, -9.0, 0.0])),
                                  [2.0, -3.0, 0.0])


def test_improve_unit_norm_and_zero(rng):
    v = rng.normal(size=12)
    improved = improve(v)
    assert np.linalg.norm(improved) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(improve(np.zeros(6)), np.zeros(6))


def random_stack(seed: int, lead: list, length: int) -> np.ndarray:
    """A (*lead, length) stack of signed rows on mixed scales, about a
    third of its rows all zero."""
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(*lead, length)) * 10.0 ** rng.integers(-3, 4, (*lead, 1))
    stack[rng.random(lead) < 0.3] = 0.0
    return stack


# One row, 2-D (rows, F) and 3-D (traces, steps, F) stacks.
stack_shapes = (st.integers(0, 2 ** 31 - 1),
                st.lists(st.integers(1, 6), min_size=1, max_size=2),
                st.integers(1, 300))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(*stack_shapes)
def test_improve_and_row_norms_of_a_stack_are_those_of_each_row(seed, lead, length):
    stack = random_stack(seed, lead, length)
    improved, norms = improve(stack), row_norms(stack)
    assert improved.shape == stack.shape and norms.shape == tuple(lead)
    for i in np.ndindex(*lead):
        assert improved[i].tobytes() == improve(stack[i]).tobytes()
        assert norms[i].tobytes() == np.sqrt(np.dot(stack[i], stack[i])).tobytes()


def test_hellinger_identity_random(rng):
    for _ in range(100):
        x = rng.normal(size=9) * 10.0 ** rng.integers(-3, 4)
        y = rng.normal(size=9) * 10.0 ** rng.integers(-3, 4)
        lhs, rhs = hellinger_check(x, y)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_hellinger_identity_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    x, y = rng.normal(size=(2, n))
    lhs, rhs = hellinger_check(x, y)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_hellinger_rejects_degenerate():
    with pytest.raises(DegenerateInputError):
        hellinger_check(np.zeros(4), np.ones(4))
    with pytest.raises(DimError):
        hellinger_check(np.ones(3), np.ones(4))


def test_fisher_vector_file_roundtrip(rng):
    fvs = rng.normal(size=(4, fv_length(3, 2)))
    data = b"".join(encode_fisher_vectors(fvs, 3, 2))
    back = decode_fisher_vectors(data, 4)
    assert back.tobytes() == fvs.tobytes() and back.flags.writeable
    assert data[:5] == b"FVEC2"
    assert np.frombuffer(data[5:17], "<u4").tolist() == [4, 3, 2]
    with pytest.raises(DimError):
        encode_fisher_vectors(fvs, 2, 3)
    with pytest.raises(DimError):
        encode_fisher_vectors(fvs[0], 3, 2)


def test_improved_dot_equals_hellinger_on_model_fvs(rng):
    model = make_model([0.4, 0.6], rng.normal(size=(2, 2)),
                       rng.uniform(0.5, 1.2, (2, 2)))
    a = aggregate(model, rng.normal(size=(5, 2)))
    b = aggregate(model, rng.normal(size=(6, 2)))
    lhs, rhs = hellinger_check(a, b)
    dot = float(np.dot(improve(a), improve(b)))
    assert lhs == pytest.approx(dot, abs=1e-15)
    assert rhs == pytest.approx(dot, abs=1e-10)
