import numpy as np
import pytest

from qrgames import SteeringGameSpec


def pytest_configure(config):
    # hypothesis caches the constants it reads from the sources, at collection,
    # under its home directory: keep it in pytest's cache, not in .hypothesis/
    if hasattr(config, "cache"):
        from hypothesis.configuration import set_hypothesis_home_dir

        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def ideal_spec():
    return SteeringGameSpec.ideal()
