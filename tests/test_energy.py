import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crancache.energy import PowerModel, eta_cluster, eta_rru, power_delta
from crancache.errors import ParameterError


def test_power_model_defaults():
    p = PowerModel()
    assert p.rrh_active == 104.0
    assert p.rrh_sleep == 56.0
    assert p.cache_per_object == 0.15
    assert p.backhaul == 10.0


def test_power_model_validation():
    with pytest.raises(ParameterError):
        PowerModel(rrh_active=-1.0)
    with pytest.raises(ParameterError):
        PowerModel(rrh_sleep=105.0)   # sleeping above active draw
    with pytest.raises(ParameterError):
        PowerModel(rrh_active=0.0, rrh_sleep=0.0)   # no draw to divide by


def test_power_model_warns_when_cache_cannot_pay():
    with pytest.warns(UserWarning):
        PowerModel(cache_per_object=10.0, backhaul=10.0)
    with pytest.warns(UserWarning):
        PowerModel(cache_per_object=12.0, backhaul=10.0)
    # free backhaul: nothing to displace, but nothing to warn about either
    PowerModel(cache_per_object=0.15, backhaul=0.0)


def test_eta_cluster_reference_denominator():
    # 5e-6 RRH/m^2 over a 1 km disk at 104 W active, 5 cached objects at
    # 0.15 W, full hit ratio: denominator 5e-6*pi*1e6*104 + 0.75
    denom = 5e-6 * math.pi * 1e6 * 104.0 + 0.75
    assert abs(denom - 1634.3781798666926) < 1e-9
    eta = eta_cluster(1.0, 5e-6, 1000.0, 5, 1.0, PowerModel())
    assert abs(eta - 1.0 / denom) < 1e-18
    # capacity scales the ratio linearly
    assert abs(eta_cluster(3.0, 5e-6, 1000.0, 5, 1.0, PowerModel()) - 3.0 / denom) < 1e-18


def test_eta_cluster_miss_traffic_charges_backhaul():
    base = eta_cluster(1.0, 5e-6, 1000.0, 2, 1.0, PowerModel())
    half = eta_cluster(1.0, 5e-6, 1000.0, 2, 0.5, PowerModel())
    # half the requests miss, so half the backhaul draw shows up
    assert 1.0 / half - 1.0 / base == pytest.approx(5.0, abs=1e-12)


def test_eta_cluster_guards():
    with pytest.raises(ParameterError):
        eta_cluster(-1.0, 5e-6, 1000.0, 0, 0.0, PowerModel())
    with pytest.raises(ParameterError):
        eta_cluster(1.0, 0.0, 1000.0, 0, 0.0, PowerModel())
    with pytest.raises(ParameterError):
        eta_cluster(1.0, 5e-6, 1000.0, -1, 0.0, PowerModel())
    with pytest.raises(ParameterError):
        eta_cluster(1.0, 5e-6, 1000.0, 0, 1.5, PowerModel())


def test_power_delta_reference_values():
    # caching the whole 5-object catalog removes all backhaul traffic:
    # 5 * 0.15 - 1.0 * 10 = -9.25 W
    assert power_delta(5, 1.0, PowerModel()) == -9.25
    # empty cache, no hits: exactly zero
    assert power_delta(0, 0.0, PowerModel()) == 0.0


def test_power_delta_warns_when_positive():
    with pytest.warns(UserWarning):
        delta = power_delta(5, 0.01, PowerModel())
    assert delta == pytest.approx(0.65, abs=1e-12)
    with pytest.raises(ParameterError):
        power_delta(-1, 0.5, PowerModel())
    with pytest.raises(ParameterError):
        power_delta(1, 1.0001, PowerModel())


@given(st.integers(min_value=0, max_value=20),
       st.floats(min_value=0.0, max_value=1.0))
def test_power_delta_matches_denominator_shift(cache_size, hit):
    # the cluster denominator with the cache minus the cacheless one
    # (which pays full backhaul) is exactly the net cache cost
    p = PowerModel()
    delta = _quiet_power_delta(cache_size, hit, p)
    with_cache = 1.0 / eta_cluster(1.0, 5e-6, 1000.0, cache_size, hit, p)
    without = 1.0 / eta_cluster(1.0, 5e-6, 1000.0, 0, 0.0, p)
    assert (with_cache - without) == pytest.approx(delta, abs=1e-9)


def _quiet_power_delta(cache_size, hit, p):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return power_delta(cache_size, hit, p)


def test_eta_rru_reference_value():
    # two classes on one block: 3 of 5 RRHs active, one cached object,
    # one fetched: 15 / (3*104 + 2*56 + 0.15 + 10) = 15 / 434.15
    eta = eta_rru([10.0, 5.0], [2, 1], 5, 1, 1, PowerModel())
    assert abs(eta - 15.0 / 434.15) < 1e-15
    assert abs(eta - 0.03455027064378671) < 1e-15


def test_eta_rru_sleep_gap():
    # waking an idle RRH costs the active/sleep gap and nothing else
    p = PowerModel()
    lean = eta_rru([10.0], [2], 5, 1, 0, p)
    waked = eta_rru([10.0], [3], 5, 1, 0, p)
    assert 10.0 / waked - 10.0 / lean == pytest.approx(104.0 - 56.0, abs=1e-10)
    assert waked < lean


def test_eta_rru_scalar_inputs():
    eta = eta_rru(4.0, 1, 1, 0, 0, PowerModel())
    assert abs(eta - 4.0 / 104.0) < 1e-15


def test_eta_rru_guards():
    p = PowerModel()
    with pytest.raises(ParameterError):
        eta_rru([1.0, 2.0], [1], 5, 0, 0, p)          # misaligned vectors
    with pytest.raises(ParameterError):
        eta_rru([-1.0], [1], 5, 0, 0, p)
    with pytest.raises(ParameterError):
        eta_rru([1.0], [-1], 5, 0, 0, p)
    with pytest.raises(ParameterError):
        eta_rru([1.0], [6], 5, 0, 0, p)               # more active than exist
    with pytest.raises(ParameterError):
        eta_rru([1.0], [1], 5, -1, 0, p)
    with pytest.raises(ParameterError):
        eta_rru([1.0], [1], 5, 0, -1, p)
