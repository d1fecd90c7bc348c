import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from crancache.effcap import Quantizer, RadioParams
from crancache.scenario import Scenario

# Deterministic property testing: the suite doubles as a reproducibility
# check, so example generation must not depend on run order or wall clock.
settings.register_profile("suite", derandomize=True, deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def scenario() -> Scenario:
    return Scenario()


@pytest.fixture(scope="session")
def quick_quantizer() -> Quantizer:
    # 4k log-spaced intervals: ~0.1% of the full grid's cost, well inside
    # every tolerance the fast tests use.
    return Quantizer.geometric(4096)


def radio(beta: float = 4.0, mu: float = 1.0, noise: float = 0.0) -> RadioParams:
    return RadioParams(pathloss_exponent=beta, noise=noise,
                       bandwidth_hz=1000.0, slot_s=1e-3, spectral_efficiency=mu)


@pytest.fixture
def make_radio():
    return radio


def traced_peak_mib(call) -> float:
    """Peak traced memory of ``call()`` in MiB.  numpy reports its buffers
    to tracemalloc, so the peak is exact."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
