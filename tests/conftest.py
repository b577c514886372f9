import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same few examples on every run, with no
# deadline and no example database, so they cannot make the suite flaky.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          max_examples=8, database=None)
settings.load_profile("deterministic")

from diracbag.bagmodel import BagConfig


@pytest.fixture
def massless_cfg():
    return BagConfig(a=1.0, mass=0.0, lam=0.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
