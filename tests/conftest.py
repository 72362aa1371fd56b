"""Shared fixtures: a tiny trained pipeline reused across test modules."""

import importlib.util
import os

import numpy as np
import pytest

from fvlrp.config import PipelineConfig
from fvlrp.pipeline import train_all
from fvlrp.synth import generate_corpus, two_class_spec

# One line per acceptance criterion, echoed after the run so the
# PASS/FAIL verdicts survive output capturing.
acceptance_lines: list = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def golden_regen():
    """`golden/regen.py` as a module: the TINY config, the CLI stages it
    runs and the golden digest of that run."""
    spec = importlib.util.spec_from_file_location(
        "golden_regen", os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                     "golden", "regen.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def micro_config():
    return PipelineConfig(train_per_class=10, test_per_class=4,
                          gmm_sample_count=1500, svm_epochs=80, nn_epochs=10,
                          seed=5)


@pytest.fixture(scope="session")
def micro_corpus(micro_config):
    spec = two_class_spec(0.0, seed=micro_config.seed,
                          train_per_class=micro_config.train_per_class,
                          test_per_class=micro_config.test_per_class)
    train_imgs, test_imgs = generate_corpus(spec)
    return spec, train_imgs, test_imgs


@pytest.fixture(scope="session")
def micro_bundle(micro_config, micro_corpus):
    spec, train_imgs, _ = micro_corpus
    return train_all(train_imgs, spec.class_names, micro_config, with_nn=True)


@pytest.fixture()
def rng():
    return np.random.default_rng(0xF15E)
