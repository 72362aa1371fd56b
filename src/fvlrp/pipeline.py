"""The training pipeline, one function per stage.

These functions are the only implementation of each stage: the CLI
stages wrap them in file I/O and manifests, so the library and the CLI
train byte-identical models from the same config. Each step is a pure
function of its inputs plus the configuration, with all randomness
drawn from explicitly derived seeds, so a run is reproducible bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .descriptors import DescriptorSet, PcaModel, extract_dense, pca_apply, pca_fit
from .fisher import RawFisherVector, aggregate, improve
from .gmm import GmmModel, em_fit
from .lrp_nn import NeuralNet, image_to_input, nn_train
from .svm import SvmModel, train, with_thresholds
from .synth import (LabeledImage, generate_corpus, inject_artefact,
                    label_vectors, two_class_spec)
from .util import parallel_map


@dataclass(frozen=True)
class ModelBundle:
    """Everything the explanation and evaluation stages need."""

    classes: tuple[str, ...]
    pca: PcaModel
    gmm: GmmModel
    svm: SvmModel
    net: NeuralNet | None
    patch: int
    stride: int


def make_corpus(config: PipelineConfig
                ) -> tuple[list[LabeledImage], list[LabeledImage], tuple[str, ...]]:
    """The configured (train, test) corpus, artefact applied, and its classes."""
    spec = two_class_spec(config.corpus_rho, seed=config.seed,
                          train_per_class=config.train_per_class,
                          test_per_class=config.test_per_class,
                          size=config.corpus_size)
    train, test = generate_corpus(spec)
    if config.artefact_class:
        train = [inject_artefact(im, config.artefact_class) for im in train]
        test = [inject_artefact(im, config.artefact_class) for im in test]
    return train, test, spec.class_names


def extract_corpus(images: list[LabeledImage], config: PipelineConfig
                   ) -> list[DescriptorSet]:
    """Dense descriptors for every image, in corpus order."""
    return parallel_map(
        lambda img: extract_dense(img.image, config.patch, config.stride),
        images)


def fit_pca(descriptor_sets: list[DescriptorSet], config: PipelineConfig) -> PcaModel:
    pooled = np.concatenate([ds.vectors for ds in descriptor_sets], axis=0)
    return pca_fit(pooled, config.pca_dim)


def project_all(pca: PcaModel, descriptor_sets: list[DescriptorSet]
                ) -> list[DescriptorSet]:
    return parallel_map(lambda ds: pca_apply(pca, ds), descriptor_sets)


def fit_gmm(projected: list[DescriptorSet], config: PipelineConfig) -> GmmModel:
    """EM on a seeded subsample of the pooled projected descriptors."""
    pooled = np.concatenate([ds.vectors for ds in projected], axis=0)
    count = _gmm_sample_size(projected, config)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 101)))
    idx = np.sort(rng.choice(pooled.shape[0], size=count, replace=False))
    return em_fit(pooled[idx], config.gmm_k, seed=config.seed,
                  max_iter=config.gmm_max_iter, tol=config.gmm_tol)


def _gmm_sample_size(projected: list[DescriptorSet], config: PipelineConfig) -> int:
    return min(config.gmm_sample_count, sum(len(ds) for ds in projected))


def em_stop(gmm: GmmModel, projected: list[DescriptorSet], config: PipelineConfig
            ) -> tuple[int, str, float | None]:
    """Why `fit_gmm` stopped, read off the model's log-likelihood trace.

    Returns the number of M-steps behind the fitted model, the stop reason
    ("gmm_tol", "gmm_max_iter" or "likelihood decrease", tested in
    `em_fit`'s order) and the last per-descriptor gain (None before any
    M-step was kept).
    """
    trace = gmm.ll_trace
    steps = len(trace) - 1
    gain = None
    if steps:
        gain = (trace[-1] - trace[-2]) / _gmm_sample_size(projected, config)
    if gain is not None and gain < config.gmm_tol:
        return steps, "gmm_tol", gain
    if steps == config.gmm_max_iter:
        return steps, "gmm_max_iter", gain
    return steps, "likelihood decrease", gain


def embed_all(gmm: GmmModel, projected: list[DescriptorSet]
              ) -> list[RawFisherVector]:
    return parallel_map(lambda ds: aggregate(gmm, ds), projected)


def improved_matrix(raw_fvs: list[RawFisherVector]) -> np.ndarray:
    return np.stack([improve(fv).values for fv in raw_fvs])


def train_svm(train_images: list[LabeledImage], features: np.ndarray,
              classes: tuple[str, ...], config: PipelineConfig) -> SvmModel:
    """One-vs-rest SVMs with per-class EER thresholds fit on the training set."""
    labels = label_vectors(train_images, classes)
    model = train(features, labels, c=config.svm_c, epochs=config.svm_epochs)
    return with_thresholds(model, features, labels)


def nn_inputs(images: list[LabeledImage], config: PipelineConfig) -> np.ndarray:
    size = (config.nn_input, config.nn_input)
    return np.stack(parallel_map(
        lambda img: image_to_input(img.image, size), images))


def train_net(train_images: list[LabeledImage], classes: tuple[str, ...],
              config: PipelineConfig) -> NeuralNet:
    inputs = nn_inputs(train_images, config)
    labels = label_vectors(train_images, classes)
    return nn_train(inputs, labels, hidden=config.nn_hidden,
                    input_size=(config.nn_input, config.nn_input),
                    seed=config.seed, epochs=config.nn_epochs,
                    lr=config.nn_lr, batch_size=config.nn_batch)


def train_all(train_images: list[LabeledImage], classes: tuple[str, ...],
              config: PipelineConfig, with_nn: bool = True) -> ModelBundle:
    """Fit PCA, mixture, SVM (and optionally the network) on a corpus."""
    raw_sets = extract_corpus(train_images, config)
    pca = fit_pca(raw_sets, config)
    projected = project_all(pca, raw_sets)
    gmm = fit_gmm(projected, config)
    features = improved_matrix(embed_all(gmm, projected))
    svm_model = train_svm(train_images, features, classes, config)
    net = train_net(train_images, classes, config) if with_nn else None
    return ModelBundle(classes, pca, gmm, svm_model, net,
                       config.patch, config.stride)


def embed_image(bundle: ModelBundle, image) -> np.ndarray:
    """Improved FV of a single image under a trained bundle."""
    ds = pca_apply(bundle.pca, extract_dense(image, bundle.patch, bundle.stride))
    return improve(aggregate(bundle.gmm, ds)).values
