"""Configuration record, hashing, and the small shared utilities."""

import ast
import os
import pathlib

import numpy as np
import pytest

from fvlrp.config import PipelineConfig, load_config, save_config
from fvlrp.errors import ParseError, ValidationError
from fvlrp.util import canonical_json, file_hash, parallel_map, stable_hash


def test_defaults_and_overrides():
    cfg = PipelineConfig()
    assert cfg.variant == "epsilon" and cfg.epsilon == 100.0
    bumped = cfg.with_overrides(seed=9, gmm_k=4, threads=None)
    assert bumped.seed == 9 and bumped.gmm_k == 4
    assert bumped.threads == cfg.threads  # None means "keep"
    with pytest.raises(ValidationError):
        cfg.with_overrides(banana=1)


def test_validation_rejects_bad_fields():
    with pytest.raises(ValidationError):
        PipelineConfig(corpus_rho=1.5)
    with pytest.raises(ValidationError):
        PipelineConfig(gmm_k=0)
    with pytest.raises(ValidationError):
        PipelineConfig(variant="softmax")
    with pytest.raises(ValidationError):
        PipelineConfig(variant="epsilon", epsilon=0.0)
    # plain variant does not use epsilon, so zero is fine there
    PipelineConfig(variant="plain", epsilon=0.0)


def test_validation_rejects_nn_input_not_dividing_corpus_size():
    with pytest.raises(ValidationError, match="nn_input"):
        PipelineConfig(corpus_size=60)
    PipelineConfig(corpus_size=60, nn_input=30)


def test_validation_rejects_patch_larger_than_corpus():
    with pytest.raises(ValidationError, match="patch"):
        PipelineConfig(patch=80)
    PipelineConfig(patch=64, morf_batch=1, morf_steps=1)


def test_validation_rejects_cells_that_do_not_tile_the_stride_grid():
    for patch, stride in ((10, 2), (16, 6), (18, 3)):
        with pytest.raises(ValidationError, match=f"patch {patch} / stride {stride}"):
            PipelineConfig(patch=patch, stride=stride, morf_batch=1, morf_steps=1)
    PipelineConfig(patch=16, stride=8, morf_batch=1, morf_steps=1)
    PipelineConfig(patch=12, stride=6, morf_batch=1, morf_steps=1)


def test_validation_rejects_zero_width_hidden_layer():
    with pytest.raises(ValidationError, match="nn_hidden"):
        PipelineConfig(nn_hidden=(64, 0))
    with pytest.raises(ValidationError, match="nn_hidden"):
        PipelineConfig().with_overrides(nn_hidden=[0])
    PipelineConfig(nn_hidden=(1,))


def test_validation_rejects_pca_dim_beyond_descriptor_dim():
    PipelineConfig(pca_dim=128)
    with pytest.raises(ValidationError, match="pca_dim 129"):
        PipelineConfig(pca_dim=129)


def test_validation_rejects_more_components_than_em_samples():
    # EM samples min(gmm_sample_count, training descriptors).
    PipelineConfig(gmm_k=50, gmm_sample_count=50)
    with pytest.raises(ValidationError, match="gmm_k 51"):
        PipelineConfig(gmm_k=51, gmm_sample_count=50)
    # patch 64 on 64 px: one descriptor per image, 2 x 3 training images
    small = dict(patch=64, train_per_class=3, morf_batch=1, morf_steps=1)
    PipelineConfig(gmm_k=6, **small)
    with pytest.raises(ValidationError, match="gmm_k 7"):
        PipelineConfig(gmm_k=7, **small)


def test_validation_rejects_morf_budget_beyond_descriptor_count():
    # 64 px, patch 16, stride 4: 13 x 13 = 169 descriptors per image
    PipelineConfig(morf_batch=13, morf_steps=13)
    with pytest.raises(ValidationError, match="morf_batch"):
        PipelineConfig(morf_batch=10)
    with pytest.raises(ValidationError, match="morf_batch"):
        PipelineConfig().with_overrides(morf_batch=10, morf_steps=17)
    with pytest.raises(ValidationError, match="morf_batch"):
        PipelineConfig(patch=64, morf_batch=2, morf_steps=1)


def test_hash_ignores_threads_only():
    base = PipelineConfig()
    assert base.config_hash() == PipelineConfig(threads=8).config_hash()
    assert base.config_hash() != PipelineConfig(seed=1).config_hash()
    assert base.config_hash() != PipelineConfig(gmm_k=9).config_hash()


def test_config_file_round_trip(tmp_path):
    cfg = PipelineConfig(seed=3, nn_hidden=(10, 5), corpus_rho=0.25)
    path = tmp_path / "config.json"
    save_config(cfg, path)
    back = load_config(path)
    assert back == cfg
    assert back.nn_hidden == (10, 5)


def test_config_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ParseError):
        load_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ParseError):
        load_config(arr)
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"no_such_field": 1}')
    with pytest.raises(ValidationError):
        load_config(unknown)


def test_parallel_map_preserves_order():
    assert parallel_map(lambda x: x * x, range(50)) == [x * x for x in range(50)]


def test_package_starts_no_threads():
    """Every stage runs serially: no module imports a thread pool."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "fvlrp"
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("concurrent", "threading"), \
                    f"{path.name} imports {name}"


def test_stable_hash_is_order_insensitive():
    a = stable_hash({"x": 1, "y": [1.5, 2.5]})
    b = stable_hash({"y": [1.5, 2.5], "x": 1})
    assert a == b and len(a) == 64
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    assert stable_hash({"x": 1}) != stable_hash({"x": 2})


def test_file_hash_tracks_content(tmp_path):
    p = tmp_path / "blob.bin"
    p.write_bytes(b"abc")
    h1 = file_hash(p)
    q = tmp_path / "other.bin"
    q.write_bytes(b"abc")
    assert file_hash(q) == h1  # content, not name
    p.write_bytes(b"abcd")
    assert file_hash(p) != h1
