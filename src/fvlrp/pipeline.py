"""The training pipeline, one function per stage.

These functions are the only implementation of each stage: the CLI
stages wrap them in file I/O and manifests, so the library and the CLI
train byte-identical models from the same config. Each step is a pure
function of its inputs plus the configuration, with all randomness
drawn from explicitly derived seeds, so a run is reproducible bit for
bit.

Memory: PCA is fit on the pooled raw training descriptors, the largest
array of a training run. They are held once. `fit_pca_pooled` takes the
raw sets one at a time, copies each into one pooled matrix and centres
that matrix in place; `fit_pca` then projects its row blocks into one
projected matrix. The pooled matrix is consumed, and a caller that
passes a generator holds no other copy. A split's projected descriptors
are likewise one matrix (`PooledSets`, from `fit_pca` or `project_all`),
which EM subsamples without concatenating a copy.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .descriptors import (RAW_DIM, DescriptorSet, PcaModel, descriptor_count,
                          extract_dense, pca_apply, pca_fit_inplace)
from .errors import DimError
from .fisher import aggregate, improve
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


def extract_corpus(images: Iterable[LabeledImage], config: PipelineConfig
                   ) -> Iterator[DescriptorSet]:
    """Dense descriptors for every image, in corpus order, one set at a
    time, so a caller that writes each set as it comes holds one."""
    for img in images:
        yield extract_dense(img.image, config.patch, config.stride)


@dataclass(frozen=True)
class PooledSets(Sequence):
    """Descriptor sets held as consecutive row blocks of one matrix:
    each set's `vectors` is a view of `vectors`."""

    vectors: np.ndarray
    sets: tuple[DescriptorSet, ...]

    def __len__(self) -> int:
        return len(self.sets)

    def __getitem__(self, i):
        return self.sets[i]

    @classmethod
    def fill(cls, sets: Iterable[DescriptorSet], rows: int, dim: int,
             write: Callable[[DescriptorSet, np.ndarray], object]) -> PooledSets:
        """One (rows, dim) matrix, each set's block written by
        `write(ds, block)` as the set comes; `rows` must be their total."""
        vectors = np.empty((rows, dim))
        views = []
        stop = 0
        for ds in sets:
            start, stop = stop, stop + len(ds)
            if stop > rows:
                raise DimError(f"more than the expected {rows} descriptors")
            write(ds, vectors[start:stop])
            views.append(DescriptorSet(vectors[start:stop], ds.areas, ds.image_size))
        if stop != rows:
            raise DimError(f"expected {rows} descriptors, got {stop}")
        return cls(vectors, tuple(views))


def _check_raw_dim(ds: DescriptorSet, raw_dim: int) -> None:
    if ds.dim != raw_dim:
        raise DimError(f"descriptor dim {ds.dim}, expected {raw_dim}")


def fit_pca_pooled(descriptor_sets: Iterable[DescriptorSet], rows: int,
                   config: PipelineConfig) -> tuple[PcaModel, PooledSets]:
    """PCA on the pooled raw training descriptors, and those descriptors
    centred.

    `descriptor_sets` yields the raw training sets, `rows` descriptors in
    all. Each set is copied into one (rows, RAW_DIM) matrix as it comes,
    and the fit centres that matrix in place (`pca_fit_inplace`). So the
    raw training descriptors are held once: no concatenated copy, no
    centred copy, and a generator's sets are dropped as soon as they are
    copied.
    """
    def copy(ds, block):
        _check_raw_dim(ds, RAW_DIM)
        block[...] = ds.vectors

    raw = PooledSets.fill(descriptor_sets, rows, RAW_DIM, copy)
    return pca_fit_inplace(raw.vectors, config.pca_dim), raw


def fit_pca(descriptor_sets: Iterable[DescriptorSet], rows: int,
            config: PipelineConfig) -> tuple[PcaModel, PooledSets]:
    """PCA on the pooled raw training descriptors (`fit_pca_pooled`), and
    every set projected: each set's centred row block times the basis,
    bit for bit what `pca_apply` gives, written into one (rows, pca_dim)
    matrix. The pooled matrix is consumed and freed on return.
    """
    pca, centred = fit_pca_pooled(descriptor_sets, rows, config)
    projected = PooledSets.fill(
        centred.sets, rows, pca.dim,
        lambda ds, block: np.matmul(ds.vectors, pca.basis.T, out=block))
    return pca, projected


def project_all(pca: PcaModel, descriptor_sets: Iterable[DescriptorSet],
                rows: int) -> PooledSets:
    """Every set projected, bit for bit as `pca_apply`, into one matrix;
    `rows` is the sets' total descriptor count."""
    def project(ds, block):
        _check_raw_dim(ds, pca.raw_dim)
        np.matmul(ds.vectors - pca.mean, pca.basis.T, out=block)

    return PooledSets.fill(descriptor_sets, rows, pca.dim, project)


def fit_gmm(projected: PooledSets, config: PipelineConfig) -> GmmModel:
    """EM on a seeded subsample of the pooled projected descriptors."""
    count = _gmm_sample_size(projected, config)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 101)))
    idx = np.sort(rng.choice(projected.vectors.shape[0], size=count, replace=False))
    return em_fit(projected.vectors[idx], config.gmm_k, seed=config.seed,
                  max_iter=config.gmm_max_iter, tol=config.gmm_tol)


def _gmm_sample_size(projected: Sequence[DescriptorSet], config: PipelineConfig) -> int:
    return min(config.gmm_sample_count, sum(len(ds) for ds in projected))


def em_stop(gmm: GmmModel, projected: Sequence[DescriptorSet], config: PipelineConfig
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


def embed_all(gmm: GmmModel, projected: Sequence[DescriptorSet]) -> np.ndarray:
    """The raw FV of every set, each aggregated on its own, one row each.

    One responsibilities pass over a split's pooled rows gives the same
    bits, but its (rows, K) temporaries leave the heap larger, and the
    next PCA fit's peak then sits on top of it.
    """
    return np.stack([aggregate(gmm, ds.vectors) for ds in projected])


def train_svm(labelled: Sequence, features: np.ndarray,
              classes: tuple[str, ...], config: PipelineConfig) -> SvmModel:
    """One-vs-rest SVMs with per-class EER thresholds fit on the training set.

    `labelled` is aligned with the rows of `features`; only each item's
    `.labels` is read (`LabeledImage`s, or the CLI's corpus-index rows).
    """
    labels = label_vectors(labelled, classes)
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
    rows = sum(descriptor_count(img.image.width, img.image.height,
                                config.patch, config.stride)
               for img in train_images)
    pca, projected = fit_pca(extract_corpus(train_images, config), rows, config)
    gmm = fit_gmm(projected, config)
    features = improve(embed_all(gmm, projected))
    svm_model = train_svm(train_images, features, classes, config)
    net = train_net(train_images, classes, config) if with_nn else None
    return ModelBundle(classes, pca, gmm, svm_model, net,
                       config.patch, config.stride)


def embed_image(bundle: ModelBundle, image) -> np.ndarray:
    """Improved FV of a single image under a trained bundle."""
    ds = pca_apply(bundle.pca, extract_dense(image, bundle.patch, bundle.stride))
    return improve(aggregate(bundle.gmm, ds.vectors))
