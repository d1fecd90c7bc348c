from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crancache.content import (ClusterCache, ContentCatalog, hit_ratio,
                               select_random_k, select_top_k, zipf_popularity)
from crancache.errors import ParameterError
from crancache.geometry import substream


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
        ContentCatalog(1e6, np.empty(0))
    cat = ContentCatalog.zipf(1e6, 1.0, 5)
    assert cat.count == 5
    assert cat.object_size_bits == 1e6


def test_select_top_k_is_the_popularity_prefix():
    cat = ContentCatalog.zipf(1e6, 1.0, 5)
    assert select_top_k(cat, 0) == frozenset()
    assert select_top_k(cat, 2) == frozenset({0, 1})
    assert select_top_k(cat, 5) == frozenset(range(5))
    with pytest.raises(ParameterError):
        select_top_k(cat, 6)
    with pytest.raises(ParameterError):
        select_top_k(cat, -1)


def test_select_random_k_reproducible():
    cat = ContentCatalog.zipf(1e6, 1.0, 5)
    a = select_random_k(cat, 3, substream(9, 7))
    b = select_random_k(cat, 3, substream(9, 7))
    assert a == b
    assert len(a) == 3
    assert a <= frozenset(range(5))
    with pytest.raises(ParameterError):
        select_random_k(cat, 6, substream(9, 7))


def test_cluster_cache_basics():
    cache = ClusterCache(stored=frozenset({0, 3}))
    assert cache.size == 2
    assert cache.holds(0) and cache.holds(3)
    assert not cache.holds(1)
    assert ClusterCache().size == 0
    with pytest.raises(ParameterError):
        ClusterCache(stored=frozenset({-1}))


def test_hit_ratio_top_two_unit_zipf():
    cat = ContentCatalog.zipf(1e6, 1.0, 5)
    cache = ClusterCache(stored=frozenset({0, 1}))
    assert abs(hit_ratio(cache, cat) - 90.0 / 137.0) < 1e-14
    assert hit_ratio(ClusterCache(), cat) == 0.0
    assert abs(hit_ratio(ClusterCache(stored=frozenset(range(5))), cat) - 1.0) < 1e-14


def test_hit_ratio_rejects_object_outside_catalog():
    cat = ContentCatalog.zipf(1e6, 1.0, 3)
    with pytest.raises(ParameterError):
        hit_ratio(ClusterCache(stored=frozenset({5})), cat)
