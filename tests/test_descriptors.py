"""Dense gradient-histogram descriptors against a slow reference."""

import numpy as np
import pytest

from fvlrp.descriptors import (CLAMP, DescriptorSet, extract_dense,
                               load_descriptors, pca_apply, pca_fit,
                               save_descriptors)
from fvlrp.config import PipelineConfig
from fvlrp.errors import DimError, ExtractError, FitError, IoError, ParseError
from fvlrp.fisher import fv_length, load_fisher_vector, save_fisher_vector
from fvlrp.imaging import Heatmap, Image, load_heatmap, save_heatmap
from fvlrp.pipeline import make_corpus
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


def test_descriptor_cache_roundtrip(tmp_path, rng):
    gray = rng.random((20, 20))
    ds = extract_dense(Image(gray), patch=8, stride=6)
    path = tmp_path / "a.desc"
    save_descriptors(ds, path)
    back = load_descriptors(path)
    np.testing.assert_array_equal(back.vectors, ds.vectors)
    np.testing.assert_array_equal(back.areas, ds.areas)
    assert back.image_size == ds.image_size


def test_descriptor_cache_rejects_corruption(tmp_path, rng):
    ds = extract_dense(Image(rng.random((12, 12))), patch=8, stride=4)
    path = tmp_path / "a.desc"
    save_descriptors(ds, path)
    data = path.read_bytes()
    (tmp_path / "bad.desc").write_bytes(b"XXXXX" + data[5:])
    with pytest.raises(ParseError):
        load_descriptors(tmp_path / "bad.desc")


def _desc_file(path, rng):
    save_descriptors(extract_dense(Image(rng.random((12, 12))), patch=8, stride=4),
                     path)


def _fvec_file(path, rng):
    save_fisher_vector(rng.normal(size=fv_length(3, 2)), 3, 2, path)


@pytest.mark.parametrize("write, load", [(_desc_file, load_descriptors),
                                         (_fvec_file, load_fisher_vector)],
                         ids=["DESC1", "FVEC1"])
@pytest.mark.parametrize("keep", [8, -8], ids=["header", "body"])
def test_truncated_cache_file_raises_parse_error(tmp_path, rng, write, load, keep):
    path = tmp_path / "a.bin"
    write(path, rng)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ParseError):
        load(path)


def _hmap_file(path, rng):
    save_heatmap(Heatmap(rng.normal(size=(5, 3))), path)


@pytest.mark.parametrize("write, load", [(_desc_file, load_descriptors),
                                         (_fvec_file, load_fisher_vector),
                                         (_hmap_file, load_heatmap)],
                         ids=["DESC1", "FVEC1", "HMAP1"])
def test_binary_formats_refuse_damaged_files(tmp_path, rng, write, load):
    path = tmp_path / "a.bin"
    write(path, rng)
    good = path.read_bytes()
    load(path)
    all_ones = good[:5] + b"\xff" * 16 + good[21:]  # huge header fields
    for damaged in (good[:-1], b"XXXXX" + good[5:], good + b"\0", all_ones):
        path.write_bytes(damaged)
        with pytest.raises(ParseError):
            load(path)
    with pytest.raises(IoError):
        load(tmp_path / "missing.bin")


def test_descriptor_cache_bytes_match_record_layout(tmp_path, rng):
    ds = extract_dense(Image(rng.random((20, 28))), patch=8, stride=4)
    path = tmp_path / "a.desc"
    save_descriptors(ds, path)
    expect = b"DESC1" + np.array([28, 20, len(ds), 128], "<u4").tobytes()
    for area, vec in zip(ds.areas, ds.vectors):
        expect += area.astype("<u4").tobytes() + vec.astype("<f8").tobytes()
    assert path.read_bytes() == expect


def test_loaded_descriptors_own_writable_arrays(tmp_path, rng):
    ds = extract_dense(Image(rng.random((16, 16))), patch=8, stride=4)
    save_descriptors(ds, tmp_path / "a.desc")
    back = load_descriptors(tmp_path / "a.desc")
    for arr, dtype in ((back.vectors, np.float64), (back.areas, np.int64)):
        assert arr.dtype == dtype and arr.flags.c_contiguous
        assert arr.flags.writeable and arr.flags.owndata
