from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crancache.content import ClusterCache, ContentCatalog, hit_ratio, zipf_popularity
from crancache.errors import ParameterError
from crancache.scenario import Scenario


def test_zipf_unit_exponent_five_objects_exact():
    # P_l = (1/l) / H_5 with H_5 = 137/60
    h5 = Fraction(137, 60)
    expected = [float(Fraction(1, l) / h5) for l in range(1, 6)]
    np.testing.assert_allclose(zipf_popularity(1.0, 5), expected, rtol=1e-14)


def test_zipf_zero_exponent_is_uniform():
    np.testing.assert_allclose(zipf_popularity(0.0, 4), np.full(4, 0.25), rtol=1e-15)


@given(st.floats(min_value=0.0, max_value=4.0),
       st.integers(min_value=1, max_value=40))
def test_zipf_is_a_sorted_distribution(s, count):
    p = zipf_popularity(s, count)
    assert p.size == count
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.all(np.diff(p) <= 1e-15)
    assert np.all(p > 0)


def test_zipf_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        zipf_popularity(1.0, 0)
    with pytest.raises(ParameterError):
        zipf_popularity(-0.5, 3)


def test_catalog_validation():
    with pytest.raises(ParameterError):
        ContentCatalog(0.0, np.array([1.0]))
    with pytest.raises(ParameterError):
        ContentCatalog(1e6, np.array([0.5, 0.4]))          # does not sum to 1
    with pytest.raises(ParameterError):
        ContentCatalog(1e6, np.array([0.4, 0.6]))          # increasing
    with pytest.raises(ParameterError):
        ContentCatalog(1e6, np.array([1.5, -0.5]))         # a negative entry
    with pytest.raises(ParameterError):
        ContentCatalog(1e6, np.empty(0))
    cat = ContentCatalog.zipf(1e6, 1.0, 5)
    assert cat.count == 5
    assert cat.object_size_bits == 1e6


def test_select_top_k_is_the_popularity_prefix():
    # a cache of size k holds exactly the k most popular objects, 0 .. k-1
    for k in range(6):
        cache = Scenario(cache_size=k).cache()
        assert cache.size == k
        assert [c for c in range(5) if cache.holds(c)] == list(range(k))
    with pytest.raises(ParameterError, match=r"cache size 6 outside \[0, 5\]"):
        Scenario(cache_size=6).cache()
    with pytest.raises(ParameterError, match=r"cache size -1 outside \[0, 5\]"):
        Scenario(cache_size=-1).cache()


def test_cluster_cache_basics():
    cache = ClusterCache(2)
    assert cache.size == 2
    assert cache.holds(0) and cache.holds(1)
    assert not cache.holds(2)
    assert ClusterCache().size == 0
    assert not ClusterCache().holds(0)
    with pytest.raises(ParameterError):
        ClusterCache(-1)


def test_hit_ratio_top_two_unit_zipf():
    cat = ContentCatalog.zipf(1e6, 1.0, 5)
    assert abs(hit_ratio(ClusterCache(2), cat) - 90.0 / 137.0) < 1e-14
    assert hit_ratio(ClusterCache(), cat) == 0.0
    assert abs(hit_ratio(ClusterCache(5), cat) - 1.0) < 1e-14


@pytest.mark.parametrize("exponent", [0.0, 0.5, 1.0, 2.0])
def test_hit_ratio_is_a_probability_for_every_catalog_size(exponent):
    # the prefix sum rounds a few ulp past 1 at some sizes of analyze's
    # Zipf grid (count 3 at s = 1, for one), and short of 1 at others
    for n in range(1, 41):
        cat = ContentCatalog.zipf(1e6, exponent, n)
        ratios = [hit_ratio(ClusterCache(k), cat) for k in range(n + 1)]
        assert all(0.0 <= r <= 1.0 for r in ratios)
        assert ratios[0] == 0.0 and ratios[-1] == 1.0


def test_hit_ratio_rejects_object_outside_catalog():
    cat = ContentCatalog.zipf(1e6, 1.0, 3)
    with pytest.raises(ParameterError):
        hit_ratio(ClusterCache(4), cat)
