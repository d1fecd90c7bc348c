import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crancache.errors import (DomainError, InfeasibleBackhaulError,
                              ParameterError)
from crancache.qos import (QosProfile, min_backhaul_rate,
                           theta_cloud_from_cluster)

from oracles import uniform_qos


def test_cloud_exponent_reference_numbers():
    # 1 Mbit over 2 hops at 2.4 Mbit/s inside a 1 s budget: load 5/6,
    # so 0.1 at the cache becomes 0.6 from the cloud.
    assert abs(theta_cloud_from_cluster(0.1, 1e6, 2.4e6, 1.0, hops=2) - 0.6) < 1e-12
    # load 1/2 doubles the exponent
    assert abs(theta_cloud_from_cluster(0.1, 1e6, 4e6, 1.0, hops=2) - 0.2) < 1e-15


def test_cloud_exponent_infeasible_backhaul():
    with pytest.raises(InfeasibleBackhaulError):
        theta_cloud_from_cluster(0.1, 1e6, 2e6, 1.0, hops=2)   # load exactly 1
    with pytest.raises(InfeasibleBackhaulError):
        theta_cloud_from_cluster(0.1, 1e6, 1e6, 1.0, hops=2)
    with pytest.raises(ParameterError):
        theta_cloud_from_cluster(-0.1, 1e6, 4e6, 1.0)


def test_min_backhaul_rate_reference_number():
    r = min_backhaul_rate(0.1, 0.6, 1e6, 1.0, hops=2)
    assert abs(r - 2.4e6) / 2.4e6 < 1e-9


def test_min_backhaul_rate_guards():
    with pytest.raises(DomainError):
        min_backhaul_rate(0.6, 0.6, 1e6, 1.0)
    with pytest.raises(DomainError):
        min_backhaul_rate(0.7, 0.6, 1e6, 1.0)
    with pytest.raises(ParameterError):
        min_backhaul_rate(0.1, 0.6, 0.0, 1.0)


@given(st.floats(min_value=1e-3, max_value=5.0),
       st.floats(min_value=1.01, max_value=50.0),
       st.floats(min_value=1e4, max_value=1e8),
       st.floats(min_value=0.05, max_value=20.0))
def test_rate_and_exponent_mappings_invert(theta_t, ratio, bits, budget):
    theta_c = theta_t * ratio
    rate = min_backhaul_rate(theta_t, theta_c, bits, budget)
    back = theta_cloud_from_cluster(theta_t, bits, rate, budget)
    assert abs(back - theta_c) / theta_c < 1e-9


def test_profile_construction_and_lookup():
    q = uniform_qos(0.1, 0.6, 3)
    assert q.count == 3
    assert q.theta_for(1, cached=True) == 0.1
    assert q.theta_for(1, cached=False) == 0.6
    np.testing.assert_array_equal(q.theta_cluster, np.full(3, 0.1))


def test_profile_validation():
    with pytest.raises(ParameterError):
        QosProfile(np.array([0.1, 0.1]), np.array([0.6]))
    with pytest.raises(ParameterError):
        QosProfile(np.array([0.0]), np.array([0.6]))
    with pytest.raises(ParameterError):
        QosProfile(np.array([0.6]), np.array([0.1]))   # cloud softer
    # equal exponents are allowed: the cloud may match the cache target
    q = QosProfile(np.array([0.3]), np.array([0.3]))
    assert q.theta_for(0, cached=False) == 0.3
