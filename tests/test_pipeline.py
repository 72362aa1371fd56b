"""End-to-end training on the shared micro corpus."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvlrp.cli import main as cli_main
from fvlrp.config import PipelineConfig, load_config
from fvlrp.descriptors import (RAW_DIM, DescriptorSet, descriptor_count,
                               extract_dense, pca_apply, pca_fit)
from fvlrp.errors import DimError, PipelineError, ValidationError
from fvlrp.evaluation import compare_orderings, context_report
from fvlrp.fisher import aggregate, embed_batch
from fvlrp.gmm import GmmModel
from fvlrp.imaging import Image
from fvlrp.pipeline import (em_stop, embed_all, embed_image, fit_pca,
                            make_corpus, nn_inputs, project_all, train_all,
                            train_net)
from fvlrp.verification import random_gmm
from fvlrp.serialization import save_model
from fvlrp.svm import score
from fvlrp.synth import label_vectors
from fvlrp.verification import NN_TRAIN_TOL, nn_oracle_gap, oracle_nn_train
from test_cli import STAGES, write_config


def test_bundle_shapes(micro_bundle, micro_config):
    b = micro_bundle
    cfg = micro_config
    assert b.pca.dim == cfg.pca_dim
    assert b.gmm.n_components == cfg.gmm_k
    assert b.gmm.dim == cfg.pca_dim
    fv_len = cfg.gmm_k * (1 + 2 * cfg.pca_dim)
    assert b.svm.weights.shape == (len(b.classes), fv_len)
    assert b.svm.thresholds.shape == (len(b.classes),)
    assert b.net.input_size == (cfg.nn_input, cfg.nn_input)
    assert b.patch == cfg.patch and b.stride == cfg.stride


@pytest.mark.parametrize("trace,expect", [
    ((0.0,), (0, "likelihood decrease", None)),
    ((0.0, 10.0, 10.5), (2, "likelihood decrease", 0.5 / 10)),
    ((0.0, 10.0, 10.0 + 5e-6), (2, "gmm_tol", 5e-6 / 10)),
    ((0.0, 10.0, 20.0, 30.0), (3, "gmm_max_iter", 1.0)),
])
def test_em_stop_reads_the_trace(trace, expect):
    gmm = GmmModel(np.ones(1), np.zeros((1, 2)), np.ones((1, 2)), np.ones(2),
                   ll_trace=trace)
    # 12 descriptors, of which EM subsamples gmm_sample_count = 10.
    projected = [DescriptorSet(np.zeros((6, 2)), np.zeros((6, 4), dtype=np.int64), (8, 8))] * 2
    config = PipelineConfig(gmm_max_iter=3, gmm_sample_count=10)
    steps, reason, gain = em_stop(gmm, projected, config)
    assert (steps, reason) == expect[:2]
    assert gain == pytest.approx(expect[2])


def test_training_is_deterministic(micro_corpus, micro_config, micro_bundle):
    spec, train_imgs, _ = micro_corpus
    again = train_all(train_imgs, spec.class_names, micro_config, with_nn=False)
    np.testing.assert_array_equal(again.svm.weights, micro_bundle.svm.weights)
    np.testing.assert_array_equal(again.svm.thresholds,
                                  micro_bundle.svm.thresholds)
    np.testing.assert_array_equal(again.gmm.means, micro_bundle.gmm.means)
    np.testing.assert_array_equal(again.pca.basis,
                                  micro_bundle.pca.basis)


def test_bundle_separates_training_data(micro_corpus, micro_bundle):
    _, train_imgs, _ = micro_corpus
    correct = 0
    for im in train_imgs:
        phi = embed_image(micro_bundle, im.image)
        cls = im.labels[0]
        k = micro_bundle.svm.class_index(cls)
        correct += score(micro_bundle.svm, phi, cls) > micro_bundle.svm.thresholds[k]
    assert correct / len(train_imgs) >= 0.9


def test_embed_image_unit_norm(micro_corpus, micro_bundle):
    _, _, test_imgs = micro_corpus
    phi = embed_image(micro_bundle, test_imgs[0].image)
    assert np.linalg.norm(phi) == pytest.approx(1.0)


def test_library_and_cli_train_identical_models(tmp_path):
    config_path = write_config(tmp_path)
    out = tmp_path / "run"
    for stage in STAGES:
        assert cli_main([stage, "--config", config_path,
                         "--out", str(out)]) == 0, stage
    config = load_config(config_path)
    train_imgs, _, classes = make_corpus(config)
    bundle = train_all(train_imgs, classes, config, with_nn=True)
    for kind, model in (("pca", bundle.pca), ("gmm", bundle.gmm),
                        ("svm", bundle.svm), ("nn", bundle.net)):
        path = tmp_path / f"{kind}.json"
        save_model(model, path)
        assert path.read_bytes() == (out / "models" / f"{kind}.json"
                                     ).read_bytes(), kind


@pytest.fixture(scope="module")
def fixed_workload():
    config = PipelineConfig(seed=0)
    train_imgs, _, classes = make_corpus(config)
    return config, train_imgs, classes


def assert_pooled_fit_is_concatenated_fit(raw_sets, config):
    rows = sum(len(ds) for ds in raw_sets)
    pca, projected = fit_pca(iter(raw_sets), rows, config)
    ref = pca_fit(np.concatenate([ds.vectors for ds in raw_sets]), config.pca_dim)
    assert pca.mean.tobytes() == ref.mean.tobytes()
    assert pca.basis.tobytes() == ref.basis.tobytes()
    assert len(projected) == len(raw_sets)
    for got, raw in zip(projected, raw_sets):
        want = pca_apply(ref, raw)
        assert got.vectors.tobytes() == want.vectors.tobytes()
        np.testing.assert_array_equal(got.areas, want.areas)
        assert got.image_size == want.image_size


def test_pooled_pca_equals_concatenated_fit_on_fixed_workload(fixed_workload):
    config, train_imgs, _ = fixed_workload
    raw_sets = [extract_dense(img.image, config.patch, config.stride)
                for img in train_imgs]
    assert_pooled_fit_is_concatenated_fit(raw_sets, config)


def test_pooled_pca_equals_concatenated_fit_on_mixed_sizes(rng):
    config = PipelineConfig(pca_dim=20)
    shapes = [(40, 36), (64, 52)] * 6  # |L| = 6 x 7 and 13 x 10
    raw_sets = [extract_dense(Image(rng.random(shape)), config.patch, config.stride)
                for shape in shapes]
    assert {len(ds) for ds in raw_sets} == {42, 130}
    for ds, (h, w) in zip(raw_sets, shapes):
        assert len(ds) == descriptor_count(w, h, config.patch, config.stride)
    assert_pooled_fit_is_concatenated_fit(raw_sets, config)


@pytest.mark.parametrize("sizes", [(1,), (169,), (1, 169, 1, 1, 169), (169, 1)])
def test_pooled_embedding_equals_per_set_aggregate(rng, sizes):
    """Sets projected into one matrix and embedded from its row blocks
    give the raw FV of each set projected and aggregated alone, bit for
    bit."""
    config = PipelineConfig()
    raw_sets = [DescriptorSet(rng.random((n, RAW_DIM)),
                              np.zeros((n, 4), dtype=np.int64), (8, 8))
                for n in sizes]
    pca = pca_fit(rng.random((200, RAW_DIM)), config.pca_dim)
    gmm = random_gmm(rng, config.gmm_k, config.pca_dim)
    projected = project_all(pca, iter(raw_sets), sum(sizes))
    assert projected.vectors.shape == (sum(sizes), config.pca_dim)
    raws = embed_all(gmm, projected)
    assert len(raws) == len(sizes)
    for raw, ds, got in zip(raws, raw_sets, projected):
        alone = pca_apply(pca, ds).vectors
        assert got.vectors.tobytes() == alone.tobytes()
        assert raw.tobytes() == aggregate(gmm, alone).tobytes()


def test_pooled_pca_refuses_a_wrong_row_count(rng):
    config = PipelineConfig(pca_dim=4)
    sets = [DescriptorSet(rng.random((5, RAW_DIM)),
                          np.zeros((5, 4), dtype=np.int64), (8, 8))] * 3
    with pytest.raises(DimError, match="expected 16"):
        fit_pca(iter(sets), 16, config)
    with pytest.raises(DimError, match="more than the expected 14"):
        fit_pca(iter(sets), 14, config)


def test_pca_fit_leaves_its_argument_unchanged(rng):
    data = rng.normal(3.0, 1.0, size=(50, 8))
    before = data.copy()
    pca_fit(data, 3)
    assert data.tobytes() == before.tobytes()


def test_training_holds_the_raw_descriptors_once(fixed_workload):
    """The pooled raw training matrix is the peak: no concatenated or
    centred copy of it exists beside the per-image sets."""
    config, train_imgs, classes = fixed_workload
    rows = sum(descriptor_count(img.image.width, img.image.height,
                                config.patch, config.stride) for img in train_imgs)
    raw_bytes = rows * RAW_DIM * 8
    tracemalloc.start()
    try:
        train_all(train_imgs, classes, config, with_nn=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * raw_bytes, f"peaked at {peak / raw_bytes:.2f}x the raw matrix"


def test_raw_fv_is_mean_of_embeddings_on_fixed_workload(fixed_workload):
    """The moment form of the raw FV agrees with the mean of Psi to
    rounding on the fixed workload's 40 test images."""
    config, train_imgs, classes = fixed_workload
    bundle = train_all(train_imgs, classes, config, with_nn=False)
    _, test_imgs, _ = make_corpus(config)
    assert len(test_imgs) == 40
    for img in test_imgs:
        vectors = pca_apply(bundle.pca, extract_dense(
            img.image, config.patch, config.stride)).vectors
        fv = aggregate(bundle.gmm, vectors)
        gap = np.abs(fv - embed_batch(bundle.gmm, vectors).mean(axis=0)).max()
        assert gap <= 1e-14 * np.abs(fv).max()


def test_train_net_matches_weight_space_oracle(fixed_workload):
    """The example-space first layer trains the net the weight-space loop
    trains, on the fixed workload (n = 200 images, d = 1024 inputs)."""
    config, train, classes = fixed_workload
    net = train_net(train, classes, config)
    oracle = oracle_nn_train(
        nn_inputs(train, config), label_vectors(train, classes),
        hidden=config.nn_hidden, input_size=(config.nn_input, config.nn_input),
        seed=config.seed, epochs=config.nn_epochs, lr=config.nn_lr,
        batch_size=config.nn_batch)
    assert [l.weights.shape for l in net.layers] == \
           [l.weights.shape for l in oracle.layers]
    assert nn_oracle_gap(net, oracle) <= NN_TRAIN_TOL


def run_library_path(fields: dict) -> str:
    """The library path a config drives: `train_all`, `compare_orderings`
    for each class, then `context_report`. Returns "refused" for a config
    that does not load, "ran" for one that runs to the end, and "failed"
    for a `PipelineError` on the way; any other exception propagates."""
    try:
        config = PipelineConfig(**fields)
    except ValidationError:
        return "refused"
    try:
        train, test, classes = make_corpus(config)
        b = train_all(train, classes, config)
        for cls in classes:
            compare_orderings(test, cls, b.gmm, b.pca, b.svm, variants=(config.variant,),
                              epsilon=config.epsilon, batch=config.morf_batch,
                              steps=config.morf_steps,
                              repetitions=config.morf_repetitions, seed=config.seed,
                              patch=b.patch, stride=b.stride)
        context_report(test, b.gmm, b.pca, b.svm, b.net, variant=config.variant,
                       epsilon=config.epsilon, nn_alpha=config.nn_alpha,
                       nn_beta=config.nn_beta, patch=b.patch, stride=b.stride)
    except PipelineError:
        return "failed"
    return "ran"


# One small config with pca_dim, gmm_k, morf_batch and morf_steps at 1
# and no hidden layer.
CORNER = dict(corpus_size=48, nn_input=16, train_per_class=2, test_per_class=1,
              patch=16, stride=8, pca_dim=1, gmm_k=1, gmm_sample_count=50,
              gmm_max_iter=1, svm_epochs=1, nn_hidden=(), nn_epochs=1, nn_batch=1,
              morf_batch=1, morf_steps=1, morf_repetitions=1)


def test_the_smallest_config_runs_to_the_end():
    assert run_library_path(CORNER) == "ran"


@st.composite
def small_configs(draw):
    """Small configs, every size field near its least; most of them load."""
    patch, stride = draw(st.sampled_from(
        [(4, 1), (8, 2), (8, 4), (12, 3), (12, 4), (16, 8), (24, 6), (48, 4)]))
    return dict(
        corpus_size=draw(st.sampled_from([48, 64])), nn_input=16,
        train_per_class=draw(st.integers(1, 3)),
        test_per_class=draw(st.integers(1, 2)),
        corpus_rho=draw(st.sampled_from([0.0, 0.5, 1.0])),
        artefact_class=draw(st.sampled_from(["", "disk", "cross"])),
        patch=patch, stride=stride,
        pca_dim=draw(st.integers(1, 6)), gmm_k=draw(st.integers(1, 4)),
        gmm_max_iter=draw(st.integers(1, 5)),
        gmm_sample_count=draw(st.sampled_from([2, 20, 200])),
        svm_epochs=draw(st.integers(1, 5)),
        nn_hidden=draw(st.lists(st.integers(1, 4), max_size=2).map(tuple)),
        nn_epochs=draw(st.integers(1, 2)), nn_batch=draw(st.integers(1, 8)),
        variant=draw(st.sampled_from(["plain", "epsilon", "absolute"])),
        morf_batch=draw(st.integers(1, 3)), morf_steps=draw(st.integers(1, 3)),
        morf_repetitions=draw(st.integers(1, 2)), seed=draw(st.integers(0, 3)))


@settings(derandomize=True, deadline=None, max_examples=20)
@given(small_configs())
def test_every_config_is_refused_runs_or_raises_a_pipeline_error(fields):
    assert run_library_path(fields) in ("refused", "ran", "failed")
