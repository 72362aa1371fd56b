"""Configuration record, hashing, and the small shared utilities."""

import ast
import dataclasses
import json
import os
import pathlib
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvlrp import cli
from fvlrp.config import PipelineConfig, load_config, save_config
from fvlrp.errors import IoError, ParseError, PipelineError, ValidationError
from fvlrp.util import canonical_json, parallel_map, stable_hash


def test_defaults_and_overrides():
    cfg = PipelineConfig()
    assert cfg.variant == "epsilon" and cfg.epsilon == 100.0
    bumped = cfg.with_overrides(seed=9, gmm_k=4, threads=None)
    assert bumped.seed == 9 and bumped.gmm_k == 4
    assert bumped.threads == cfg.threads  # None means "keep"
    assert cfg.with_overrides(svm_c=2, corpus_rho=0).svm_c == 2  # ints are floats
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


def test_validation_rejects_solver_rates_out_of_range():
    for field, value in (("svm_c", 0.0), ("svm_c", -1.0), ("gmm_tol", 0.0),
                         ("gmm_tol", -1e-9), ("nn_lr", -1e-9)):
        with pytest.raises(ValidationError, match="svm_c and gmm_tol must be > 0"):
            PipelineConfig(**{field: value})
    PipelineConfig(svm_c=1e-9, gmm_tol=1e-12, nn_lr=0.0)


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
    # (and a pca_dim below those 6 descriptors)
    small = dict(patch=64, train_per_class=3, pca_dim=4, morf_batch=1,
                 morf_steps=1)
    PipelineConfig(gmm_k=6, **small)
    with pytest.raises(ValidationError, match="gmm_k 7"):
        PipelineConfig(gmm_k=7, **small)


def test_validation_rejects_pca_dim_at_training_descriptor_count():
    # patch 64 on 64 px: one descriptor per image, 2 x 3 training images
    small = dict(patch=64, train_per_class=3, gmm_k=2, morf_batch=1, morf_steps=1)
    PipelineConfig(pca_dim=5, **small)
    with pytest.raises(ValidationError, match="pca_dim 6 must be below the 6"):
        PipelineConfig(pca_dim=6, **small)


def test_validation_rejects_alpha_beta_without_unit_gap():
    PipelineConfig(nn_alpha=3.0, nn_beta=2.0)
    PipelineConfig(nn_alpha=1.0, nn_beta=0.0)
    for alpha, beta in ((3.0, 1.0), (2.0, 0.0), (2.0, 1.0 + 1e-9)):
        with pytest.raises(ValidationError, match="alpha - beta must be 1"):
            PipelineConfig(nn_alpha=alpha, nn_beta=beta)


def test_validation_rejects_corpus_too_small_to_place_its_objects():
    # The cross (size 30) needs a centre range [16, size - 16).
    with pytest.raises(ValidationError, match="corpus_size 32"):
        PipelineConfig(corpus_size=32)
    PipelineConfig(corpus_size=48, nn_input=16, morf_batch=4)


def test_validation_rejects_unknown_artefact_class():
    for name in ("", "disk", "cross"):
        PipelineConfig(artefact_class=name)
    for name in ("nosuch", "Disk", " disk"):
        with pytest.raises(ValidationError, match=r"artefact_class .*'disk', 'cross'"):
            PipelineConfig(artefact_class=name)


def test_validation_rejects_morf_budget_beyond_descriptor_count():
    # 64 px, patch 16, stride 4: 13 x 13 = 169 descriptors per image
    PipelineConfig(morf_batch=13, morf_steps=13)
    with pytest.raises(ValidationError, match="morf_batch"):
        PipelineConfig(morf_batch=10)
    with pytest.raises(ValidationError, match="morf_batch"):
        PipelineConfig().with_overrides(morf_batch=10, morf_steps=17)
    with pytest.raises(ValidationError, match="morf_batch"):
        PipelineConfig(patch=64, morf_batch=2, morf_steps=1)


def _stage_hashes(**fields):
    config = PipelineConfig(**fields)
    return {stage: cli._stage_hash(config, stage) for stage in cli._COMMANDS}


def test_hash_ignores_threads_only():
    """A stage's hash covers the fields `cli._COMMANDS` gives it and the
    hashes of its upstream stages, so a field moves its own stage and
    the stages below it."""
    base = _stage_hashes()
    assert _stage_hashes(threads=8) == base
    seeded = _stage_hashes(seed=1)
    assert all(seeded[stage] != base[stage] for stage in base)
    more_words = _stage_hashes(gmm_k=9)
    assert {stage for stage in base if more_words[stage] != base[stage]} == {
        "gmm-fit", "embed", "svm-train", "predict", "explain", "morf-eval",
        "context-report"}


def test_every_field_but_threads_is_read_by_some_command():
    read = {f for command in cli._COMMANDS.values() for f in command.fields}
    assert read == set(PipelineConfig().to_dict()) - {"threads"}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(PipelineConfig)
                                   if f.type == "int"])
def test_int_field_below_its_least_value_is_refused(tmp_path, field):
    least = 0 if field == "seed" else 1
    message = f"^{field} must be >= {least}, got {least - 1}$"
    with pytest.raises(ValidationError, match=message):
        PipelineConfig().with_overrides(**{field: least - 1})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({field: least - 1}))
    with pytest.raises(ValidationError, match=message):
        load_config(path)


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
    null = tmp_path / "null.json"
    null.write_text('{"seed": null}')  # in a file, null is not "flag not given"
    with pytest.raises(ValidationError, match="seed"):
        load_config(null)


def test_config_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"seed": 1, "x": "\xff"}')
    with pytest.raises(ParseError, match="not UTF-8 JSON"):
        load_config(path)
    out = tmp_path / "run"
    assert cli.main(["synth-gen", "--config", str(path), "--out", str(out)]) == 3
    assert "not UTF-8 JSON" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_that_cannot_be_written_is_an_io_error(tmp_path):
    with pytest.raises(IoError, match="cannot write"):
        save_config(PipelineConfig(), tmp_path)  # a directory


@pytest.mark.parametrize("field, value", [
    ("gmm_k", 2.5), ("gmm_k", True), ("seed", "0"), ("svm_c", True),
    ("corpus_rho", False), ("nn_hidden", [16.5, 8]), ("nn_hidden", 16),
    ("nn_hidden", [True]), ("variant", 1), ("pca_dim", "x"),
    ("svm_c", float("nan")), ("epsilon", float("inf")),
])
def test_field_of_the_wrong_type_is_refused(tmp_path, field, value):
    with pytest.raises(ValidationError, match=field):
        PipelineConfig().with_overrides(**{field: value})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({field: value}))
    with pytest.raises(ValidationError, match=field):
        load_config(path)


# one value of each JSON type; a replacement must differ in type
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 300),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3),
    st.lists(st.integers(0, 70), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_one_retyped_field_loads_or_raises_a_pipeline_error(tmp_path_factory, data):
    raw = PipelineConfig().to_dict()
    name = data.draw(st.sampled_from(sorted(raw)))
    raw[name] = data.draw(JSON_VALUES.filter(lambda v: type(v) is not type(raw[name])))
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps(raw))
    try:
        loaded = load_config(path)
    except PipelineError:
        return
    assert loaded.to_dict() == raw


def test_parallel_map_preserves_order():
    assert parallel_map(lambda x: x * x, range(50)) == [x * x for x in range(50)]


ROOT = pathlib.Path(__file__).resolve().parents[1]


def package_imports():
    """(file name, top-level module) of every import in `src/fvlrp`; a
    relative import is the package itself."""
    for path in sorted((ROOT / "src" / "fvlrp").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["fvlrp" if node.level else node.module]
            else:
                continue
            for name in names:
                yield path.name, name.split(".")[0]


def test_package_starts_no_threads():
    """Every stage runs serially: no module imports a thread pool."""
    for file, module in package_imports():
        assert module not in ("concurrent", "threading"), f"{file} imports {module}"


def test_numpy_is_the_only_runtime_dependency():
    allowed = set(sys.stdlib_module_names) | {"numpy", "fvlrp"}
    for file, module in package_imports():
        assert module in allowed, f"{file} imports {module}"
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.split(r"[\s<>=!~;\[]", dep)[0] for dep in project["dependencies"]] \
        == ["numpy"]


def test_stable_hash_is_order_insensitive():
    a = stable_hash({"x": 1, "y": [1.5, 2.5]})
    b = stable_hash({"y": [1.5, 2.5], "x": 1})
    assert a == b and len(a) == 64
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    assert stable_hash({"x": 1}) != stable_hash({"x": 2})
