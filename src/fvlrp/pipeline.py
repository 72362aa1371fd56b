"""The training pipeline, one function per stage.

These functions are the only implementation of each stage: the CLI
stages wrap them in file I/O and manifests, so the library and the CLI
train byte-identical models from the same config. Each step is a pure
function of its inputs plus the configuration, with all randomness
drawn from explicitly derived seeds, so a run is reproducible bit for
bit.

Memory: PCA is fit on the pooled raw training descriptors, the largest
array of a training run. They are held once: `fit_pca_pooled` builds
each block of up to BLOCK images of one size straight into its rows of
one pooled matrix and centres that matrix in place; `fit_pca` then
projects it image by image into one projected matrix and drops it.
`project_all` builds and projects one block at a time, so it holds one
block's raw descriptors. A split's projected descriptors are one matrix
(`PooledSets`), which EM subsamples without a copy and `embed_all`
embeds a block at a time.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import groupby, islice

import numpy as np

from .config import PipelineConfig
from .descriptors import (RAW_DIM, CellGrids, DescriptorSet, PcaModel, cell_grid,
                          descriptor_count, descriptors_from_cells,
                          extract_dense, pca_apply, pca_fit_inplace)
from .errors import DimError
from .fisher import aggregate, aggregate_images, improve
from .gmm import GmmModel, em_fit
from .imaging import Image
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


# Images per block: consecutive images of one size are encoded BLOCK at a
# time, so numpy's per-call cost is paid once per block, not per image. A
# block's embedding temporaries grow with it, and at 169 descriptors per
# image blocks of 20 or more left the heap larger than one image at a time.
BLOCK = 16


def cell_stacks(images: Iterable[Image], patch: int, stride: int
                ) -> Iterator[CellGrids]:
    """The images' cell grids, each binned once (`cell_grid`), in blocks of
    up to BLOCK consecutive images of one size."""
    for (width, height), run in groupby(images, key=lambda im: (im.width, im.height)):
        while grids := [cell_grid(im, patch, stride) for im in islice(run, BLOCK)]:
            yield CellGrids(np.stack(grids), width, height, patch, stride)


@dataclass(frozen=True)
class PooledSets:
    """A split's descriptors as one matrix, each image's a row block in
    corpus order; `blocks` holds the (images, rows per image) of each
    block of up to BLOCK images of one size."""

    vectors: np.ndarray
    blocks: tuple[tuple[int, int], ...]

    def block_rows(self) -> Iterator[tuple[int, np.ndarray]]:
        """Each block's image count and rows, a view of `vectors`."""
        stop = 0
        for images, n in self.blocks:
            start, stop = stop, stop + images * n
            yield images, self.vectors[start:stop]

    @classmethod
    def fill(cls, stacks: Iterable[CellGrids], rows: int, dim: int,
             write: Callable[[CellGrids, np.ndarray], object]) -> PooledSets:
        """One (rows, dim) matrix, each block's rows written by
        `write(block, rows)`; `rows` must be the stacks' descriptor count."""
        vectors = np.empty((rows, dim))
        blocks = []
        stop = 0
        for stack in stacks:
            n = descriptor_count(stack.width, stack.height, stack.patch, stack.stride)
            for i in range(0, len(stack.grids), BLOCK):
                block = stack._replace(grids=stack.grids[i:i + BLOCK])
                start, stop = stop, stop + len(block.grids) * n
                if stop > rows:
                    raise DimError(f"more than the expected {rows} descriptors")
                write(block, vectors[start:stop])
                blocks.append((len(block.grids), n))
        if stop != rows:
            raise DimError(f"expected {rows} descriptors, got {stop}")
        return cls(vectors, tuple(blocks))


def _project(centred: np.ndarray, images: int, basis: np.ndarray,
             out: np.ndarray) -> None:
    """One gemm per image, bit for bit `pca_apply`; one over the block is not."""
    for x, y in zip(centred.reshape(images, -1, centred.shape[1]),
                    out.reshape(images, -1, out.shape[1])):
        np.matmul(x, basis.T, out=y)


def fit_pca_pooled(stacks: Iterable[CellGrids], rows: int,
                   config: PipelineConfig) -> tuple[PcaModel, PooledSets]:
    """PCA on the pooled raw training descriptors, and those descriptors
    centred: `rows` of them, built from `stacks` straight into one
    (rows, RAW_DIM) matrix, which the fit centres in place
    (`pca_fit_inplace`), so no per-image, concatenated or centred copy
    is made."""
    raw = PooledSets.fill(stacks, rows, RAW_DIM, lambda block, out: (
        descriptors_from_cells(block.grids, block.patch, block.stride, out)))
    return pca_fit_inplace(raw.vectors, config.pca_dim), raw


def fit_pca(stacks: Iterable[CellGrids], rows: int,
            config: PipelineConfig) -> tuple[PcaModel, PooledSets]:
    """PCA on the pooled raw training descriptors (`fit_pca_pooled`), and
    every image projected, bit for bit as `pca_apply`, into one (rows,
    pca_dim) matrix. The pooled matrix is consumed and freed on return.
    """
    pca, centred = fit_pca_pooled(stacks, rows, config)
    projected = PooledSets(np.empty((rows, pca.dim)), centred.blocks)
    for (images, x), (_, y) in zip(centred.block_rows(), projected.block_rows()):
        _project(x, images, pca.basis, y)
    return pca, projected


def project_all(pca: PcaModel, stacks: Iterable[CellGrids], rows: int
                ) -> PooledSets:
    """Every image's descriptors built and projected a block at a time,
    bit for bit as `pca_apply`, into one matrix; `rows` is their count."""
    if pca.raw_dim != RAW_DIM:
        raise DimError(f"descriptor dim {RAW_DIM}, expected {pca.raw_dim}")

    def project(block, out):
        raw = descriptors_from_cells(block.grids, block.patch, block.stride)
        raw -= pca.mean
        _project(raw, len(block.grids), pca.basis, out)

    return PooledSets.fill(stacks, rows, pca.dim, project)


def fit_gmm(projected: PooledSets, config: PipelineConfig) -> GmmModel:
    """EM on a seeded subsample of the pooled projected descriptors."""
    count = _gmm_sample_size(projected, config)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 101)))
    idx = np.sort(rng.choice(projected.vectors.shape[0], size=count, replace=False))
    return em_fit(projected.vectors[idx], config.gmm_k, seed=config.seed,
                  max_iter=config.gmm_max_iter, tol=config.gmm_tol)


def _gmm_sample_size(projected: PooledSets, config: PipelineConfig) -> int:
    return min(config.gmm_sample_count, projected.vectors.shape[0])


def em_stop(gmm: GmmModel, projected: PooledSets, config: PipelineConfig
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


def embed_all(gmm: GmmModel, projected: PooledSets) -> np.ndarray:
    """The raw FV of every image, one row each, bit for bit its
    `aggregate`: one `_columns` pass and one moment product per block
    (`fisher.aggregate_images`). A pass over a whole split's rows would
    give the same bits, but its (rows, K) temporaries leave the heap
    larger, and the next PCA fit's peak then sits on top of it.
    """
    return np.concatenate([aggregate_images(gmm, rows, images)
                           for images, rows in projected.block_rows()])


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
    pca, projected = fit_pca(cell_stacks((img.image for img in train_images),
                                         config.patch, config.stride), rows, config)
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
