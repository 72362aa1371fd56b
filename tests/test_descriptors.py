"""Dense gradient-histogram descriptors against a slow reference."""

import numpy as np
import pytest

from fvlrp.descriptors import (CLAMP, DescriptorSet, cell_grid, decode_cells,
                               descriptors_from_cells, encode_cells,
                               extract_dense, pca_apply, pca_fit)
from fvlrp.config import PipelineConfig
from fvlrp.errors import DimError, ExtractError, FitError, IoError, ParseError
from fvlrp.fisher import (decode_fisher_vectors, encode_fisher_vectors,
                          fv_length)
from fvlrp.imaging import Heatmap, Image, decode_heatmap, encode_heatmap
from fvlrp.pipeline import make_corpus
from fvlrp.util import load_file, write_file
from fvlrp.verification import (TILING_GEOMETRIES, oracle_extract_dense,
                                same_descriptors)


def reference_descriptor(gray, x0, y0, patch):
    """Per-pixel loop implementation of one patch histogram."""
    h, w = gray.shape
    hist = np.zeros(4 * 4 * 8)
    for dy in range(patch):
        for dx in range(patch):
            yy, xx = y0 + dy, x0 + dx
            gx = 0.5 * (gray[yy, min(xx + 1, w - 1)] - gray[yy, max(xx - 1, 0)])
            gy = 0.5 * (gray[min(yy + 1, h - 1), xx] - gray[max(yy - 1, 0), xx])
            mag = np.hypot(gx, gy)
            theta = np.arctan2(gy, gx) % (2.0 * np.pi)
            t = theta * 8.0 / (2.0 * np.pi)
            b0 = int(np.floor(t)) % 8
            frac = t - np.floor(t)
            cell = (4 * dy // patch) * 4 + (4 * dx // patch)
            hist[cell * 8 + b0] += mag * (1.0 - frac)
            hist[cell * 8 + (b0 + 1) % 8] += mag * frac
    norm = np.linalg.norm(hist)
    if norm == 0.0:
        return hist
    hist = np.minimum(hist / norm, CLAMP)
    return hist / np.linalg.norm(hist)


def test_matches_slow_reference(rng):
    gray = rng.random((20, 24))
    ds = extract_dense(Image(gray), patch=8, stride=4)
    for i in range(len(ds)):
        x, y, w, h = ds.areas[i]
        assert (w, h) == (8, 8)
        expected = reference_descriptor(gray, x, y, 8)
        np.testing.assert_allclose(ds.vectors[i], expected, atol=1e-12)


def test_grid_positions_and_order():
    ds = extract_dense(Image(np.zeros((12, 16))), patch=8, stride=4)
    expected = [(x, y) for y in (0, 4) for x in (0, 4, 8)]
    assert [tuple(a[:2]) for a in ds.areas] == expected
    assert ds.image_size == (16, 12)


def test_vertical_edge_concentrates_horizontal_gradient_bins():
    gray = np.zeros((16, 16))
    gray[:, 8:] = 1.0
    ds = extract_dense(Image(gray), patch=16, stride=16)
    v = ds.vectors[0].reshape(16, 8)
    # gradient points in +x: orientation 0 -> bin 0 only
    assert v[:, 0].sum() > 0.0
    assert np.all(v[:, 1:] == 0.0)


def test_constant_image_gives_zero_descriptors():
    ds = extract_dense(Image(np.full((8, 8), 0.5)), patch=8, stride=8)
    np.testing.assert_array_equal(ds.vectors, np.zeros((1, 128)))
    img = Image(np.full((20, 28), 0.25))
    ds = extract_dense(img, patch=8, stride=2)
    assert not ds.vectors.any()
    assert same_descriptors(ds, oracle_extract_dense(img, 8, 2))


def test_norm_and_clamp_invariants(rng):
    gray = rng.random((32, 32))
    ds = extract_dense(Image(gray), patch=16, stride=8)
    norms = np.linalg.norm(ds.vectors, axis=1)
    assert np.all((np.abs(norms - 1.0) < 1e-12) | (norms == 0.0))
    # pre-renormalization values are clamped at 0.2, so after the final
    # l2 step no entry can exceed 0.2 / ||clamped||, and ||clamped|| >= 0.2
    # whenever anything was clamped
    assert ds.vectors.max() < 1.0


def test_clamp_semantics_on_spike_histogram():
    # one dominant bin: after l2 it exceeds 0.2, gets clamped, and the
    # renormalized result matches the hand-computed vector
    gray = np.zeros((8, 8))
    gray[:, 4:] = 1.0  # single-orientation gradient spike
    ds = extract_dense(Image(gray), patch=8, stride=8)
    v = ds.vectors[0]
    clamped = np.minimum(v / np.linalg.norm(v), CLAMP)
    np.testing.assert_allclose(v, clamped / np.linalg.norm(clamped),
                               atol=1e-12)
    assert v.max() > CLAMP  # renormalization lifts the clamped entries


def test_patch_larger_than_image_rejected():
    with pytest.raises(ExtractError):
        extract_dense(Image(np.zeros((8, 8))), patch=9, stride=4)
    with pytest.raises(ExtractError):
        extract_dense(Image(np.zeros((8, 8))), patch=4, stride=0)


@pytest.mark.parametrize("patch,stride", TILING_GEOMETRIES)
def test_cell_sharing_equals_per_patch_oracle(rng, patch, stride):
    for shape in ((3 * patch, 2 * patch + 5), (2 * patch + 3, 3 * patch, 3)):
        img = Image(rng.random(shape))
        assert same_descriptors(extract_dense(img, patch, stride),
                                oracle_extract_dense(img, patch, stride))


def test_fixed_workload_corpus_matches_oracle_bitwise():
    # Guards the numpy/BLAS assumption the kernel rests on (batched
    # matmul norms equal np.dot per row) on real synthetic images.
    train, test, _ = make_corpus(PipelineConfig(seed=0))
    mismatched = [i for i, li in enumerate(train + test)
                  if not same_descriptors(extract_dense(li.image, 16, 4),
                                          oracle_extract_dense(li.image, 16, 4))]
    assert len(train + test) == 240
    assert mismatched == []


@pytest.mark.parametrize("patch,stride", [(10, 2), (16, 6), (6, 3)])
def test_geometry_whose_cells_do_not_tile_is_rejected(patch, stride):
    with pytest.raises(ExtractError, match="tile"):
        extract_dense(Image(np.zeros((32, 32))), patch=patch, stride=stride)


def test_single_patch_per_axis_needs_no_tiling(rng):
    img = Image(rng.random((16, 18)))
    ds = extract_dense(img, patch=16, stride=6)
    assert len(ds) == 1
    assert same_descriptors(ds, oracle_extract_dense(img, 16, 6))


def test_pca_matches_numpy_eig(rng):
    data = rng.normal(size=(200, 10)) @ rng.normal(size=(10, 10))
    model = pca_fit(data, 4)
    cov = np.cov(data.T, ddof=1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    top = eigvecs[:, np.argsort(eigvals)[::-1][:4]].T
    for row, expect in zip(model.basis, top):
        if expect[np.argmax(np.abs(expect))] < 0:
            expect = -expect
        np.testing.assert_allclose(row, expect, atol=1e-10)
    assert model.basis @ model.basis.T == pytest.approx(np.eye(4), abs=1e-12)


def test_pca_projection_centers_data(rng):
    data = rng.normal(5.0, 1.0, size=(300, 6))
    model = pca_fit(data, 3)
    ds = DescriptorSet(data, np.zeros((300, 4), dtype=np.int64), (8, 8))
    projected = pca_apply(model, ds)
    np.testing.assert_allclose(projected.vectors.mean(axis=0),
                               np.zeros(3), atol=1e-10)
    np.testing.assert_array_equal(projected.areas, ds.areas)


def test_pca_rejects_rank_deficient(rng):
    flat = np.tile(rng.normal(size=(1, 5)), (50, 1))
    with pytest.raises(DimError):
        pca_fit(flat + 0.0, 3)
    with pytest.raises(FitError):
        pca_fit(rng.normal(size=(3, 5)), 4)


def write_cells(path, grids, *geometry):
    """A CELL1 file, written as the CLI writes one."""
    write_file(path, encode_cells(grids, *geometry))


def read_cells(path, count):
    """The sets of a CELL1 file; a `ParseError` names the file."""
    return load_file(path, decode_cells, count)


def _cells_path(tmp_path, images, patch, stride):
    path = tmp_path / "a.cells"
    h, w = images[0].gray().shape
    write_cells(path, (cell_grid(img, patch, stride) for img in images),
               w, h, patch, stride, len(images))
    return path


def test_descriptor_cache_roundtrip(tmp_path, rng):
    """Each set `decode_cells` yields is `extract_dense` of its image, bit
    for bit: one window gather reads both."""
    for shape, patch, stride in (((20, 20), 8, 6), ((20, 28, 3), 8, 4),
                                 ((16, 18), 16, 6), ((33, 40), 12, 3)):
        images = [Image(rng.random(shape)) for _ in range(3)]
        path = _cells_path(tmp_path, images, patch, stride)
        loaded = list(read_cells(path, 3))
        assert len(loaded) == 3
        for back, img in zip(loaded, images):
            assert same_descriptors(back, extract_dense(img, patch, stride))


def test_extract_dense_is_its_two_steps(rng):
    img = Image(rng.random((24, 20)))
    cells = cell_grid(img, 8, 4)
    assert cells.shape == (12, 10, 8)  # cells of side 2
    ds = extract_dense(img, 8, 4)
    assert same_descriptors(descriptors_from_cells(cells, 20, 24, 8, 4), ds)
    # the set keeps the grid it was gathered from, which `extract` stores
    assert ds.cells.tobytes() == cells.tobytes()
    assert pca_apply(pca_fit(ds.vectors, 4), ds).cells is None


def test_descriptor_cache_rejects_corruption(tmp_path, rng):
    path = _cells_path(tmp_path, [Image(rng.random((12, 12)))], 8, 4)
    data = path.read_bytes()
    (tmp_path / "bad.cells").write_bytes(b"XXXXX" + data[5:])
    with pytest.raises(ParseError):
        list(read_cells(tmp_path / "bad.cells", 1))


def _cells_file(path, rng):
    images = [Image(rng.random((12, 12))) for _ in range(2)]
    write_cells(path, (cell_grid(img, 8, 4) for img in images), 12, 12, 8, 4, 2)


def _load_cells_file(path):
    return list(read_cells(path, 2))


def _fvec_file(path, rng):
    write_file(path, encode_fisher_vectors(rng.normal(size=(2, fv_length(3, 2))), 3, 2))


def _load_fvecs(path, count):
    return load_file(path, decode_fisher_vectors, count)


def _load_fvec_file(path):
    return _load_fvecs(path, 2)


@pytest.mark.parametrize("write, load", [(_cells_file, _load_cells_file),
                                         (_fvec_file, _load_fvec_file)],
                         ids=["CELL1", "FVEC2"])
@pytest.mark.parametrize("keep", [8, -8], ids=["header", "body"])
def test_truncated_cache_file_raises_parse_error(tmp_path, rng, write, load, keep):
    path = tmp_path / "a.bin"
    write(path, rng)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ParseError):
        load(path)


def _hmap_file(path, rng):
    write_file(path, encode_heatmap(Heatmap(rng.normal(size=(5, 3)))))


def _load_hmap_file(path):
    return load_file(path, decode_heatmap)


@pytest.mark.parametrize("write, load", [(_cells_file, _load_cells_file),
                                         (_fvec_file, _load_fvec_file),
                                         (_hmap_file, _load_hmap_file)],
                         ids=["CELL1", "FVEC2", "HMAP1"])
def test_binary_formats_refuse_damaged_files(tmp_path, rng, write, load):
    path = tmp_path / "a.bin"
    write(path, rng)
    good = path.read_bytes()
    load(path)
    all_ones = good[:5] + b"\xff" * 16 + good[21:]  # huge header fields
    for damaged in (good[:-1], b"XXXXX" + good[5:], good + b"\0", all_ones,
                    good[:7]):
        path.write_bytes(damaged)
        with pytest.raises(ParseError):
            load(path)
    with pytest.raises(IoError):
        load(tmp_path / "missing.bin")


# CELL1 headers (width, height, patch, stride, images) that no extraction
# writes, with a body of one 64 x 64 image's grid at patch 16, stride 8.
_BAD_CELL_HEADERS = {
    "patch-0": (64, 64, 0, 8, 1),
    "stride-0": (64, 64, 16, 0, 1),
    "patch-does-not-tile": (64, 64, 10, 2, 1),
    "patch-larger-than-image": (64, 64, 65, 8, 1),
    "huge-image-count": (64, 64, 16, 8, 2**32 - 1),
    "huge-image": (2**32 - 1, 2**32 - 1, 16, 8, 1),
}


@pytest.mark.parametrize("case", list(_BAD_CELL_HEADERS))
def test_cells_loader_refuses_a_header_extraction_never_writes(tmp_path, case):
    path = tmp_path / "a.cells"
    body = np.zeros((8, 8, 8)).tobytes()
    path.write_bytes(b"CELL1" + np.array(_BAD_CELL_HEADERS[case], "<u4").tobytes()
                     + body)
    with pytest.raises(ParseError, match="a.cells"):
        list(read_cells(path, 1))


@pytest.mark.parametrize("write, load", [(_cells_file, read_cells),
                                         (_fvec_file, _load_fvecs)],
                         ids=["CELL1", "FVEC2"])
def test_a_file_of_another_image_count_is_refused_naming_it(tmp_path, rng,
                                                            write, load):
    path = tmp_path / "split.bin"
    write(path, rng)
    for count in (1, 3):
        with pytest.raises(ParseError, match=r"split\.bin: holds 2 .*expected"):
            list(load(path, count))


def test_descriptor_cache_bytes_match_record_layout(tmp_path, rng):
    images = [Image(rng.random((20, 28))) for _ in range(2)]
    path = _cells_path(tmp_path, images, 8, 4)
    expect = b"CELL1" + np.array([28, 20, 8, 4, 2], "<u4").tobytes()
    for img in images:
        expect += cell_grid(img, 8, 4).astype("<f8").tobytes()
    assert path.read_bytes() == expect


def test_cells_writer_refuses_a_grid_of_another_shape_or_count(tmp_path, rng):
    grid = cell_grid(Image(rng.random((16, 16))), 8, 4)
    with pytest.raises(DimError):
        write_cells(tmp_path / "a.cells", [grid], 20, 20, 8, 4, 1)
    with pytest.raises(DimError):
        write_cells(tmp_path / "a.cells", [grid], 16, 16, 8, 4, 2)


def test_loaded_descriptors_own_writable_arrays(tmp_path, rng):
    path = _cells_path(tmp_path, [Image(rng.random((16, 16)))], 8, 4)
    back = next(read_cells(path, 1))
    for arr, dtype in ((back.vectors, np.float64), (back.areas, np.int64)):
        assert arr.dtype == dtype and arr.flags.c_contiguous
        assert arr.flags.writeable
        root = arr
        while root.base is not None:
            root = root.base
        # the memory is numpy's own, not the bytes read from the file
        assert isinstance(root, np.ndarray) and root.flags.owndata
