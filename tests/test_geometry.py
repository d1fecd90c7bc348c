import math

import numpy as np
import pytest

from crancache.content import ContentCatalog
from crancache.errors import ParameterError
from crancache.geometry import (STREAM_FADING, STREAM_RRH_POS, STREAM_USER_MARK,
                                DensityConfig, NetworkRealization, sample_network,
                                sample_ppp, substream)

CATALOG = ContentCatalog.zipf(1e6, 1.0, 5)


def test_substream_reproducible_and_path_sensitive():
    a = substream(42, 0).uniform(size=5)
    b = substream(42, 0).uniform(size=5)
    c = substream(42, 1).uniform(size=5)
    d = substream(43, 0).uniform(size=5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_ppp_count_matches_intensity():
    # mean count must track lambda*pi*r^2 = 15.708; 400 seeds give a
    # standard error of 0.198, so a 3-sigma band is decisive and stable.
    lam = 5e-6 * math.pi * 1e6
    counts = [len(sample_ppp(5e-6, 1000.0, substream(1000 + s, STREAM_RRH_POS)))
              for s in range(400)]
    assert abs(np.mean(counts) - lam) < 3.0 * math.sqrt(lam / 400)


def test_ppp_points_fill_the_disk_uniformly():
    pts = sample_ppp(2e-4, 1000.0, substream(3, 0))
    r = np.hypot(pts[:, 0], pts[:, 1])
    assert r.max() <= 1000.0
    # r^2 is uniform on [0, R^2]: half the points inside R/sqrt(2)
    frac = np.mean(r <= 1000.0 / math.sqrt(2.0))
    assert abs(frac - 0.5) < 3.0 * math.sqrt(0.25 / len(pts))


def test_ppp_rejects_degenerate_inputs():
    rng = substream(0, 0)
    with pytest.raises(ParameterError):
        sample_ppp(0.0, 1000.0, rng)
    with pytest.raises(ParameterError):
        sample_ppp(5e-6, 0.0, rng)


def test_thinning_matches_class_probabilities():
    # ~20,000 users, each marking object 0 with probability P_0
    p = CATALOG.popularity
    marks = sample_network(DensityConfig(5e-6, 2e-2, CATALOG), 564.0, seed=77).user_content
    frac = np.mean(marks == 0)
    assert abs(frac - p[0]) < 3.0 * math.sqrt(p[0] * (1 - p[0]) / len(marks))
    assert set(np.unique(marks)) <= set(range(5))


def test_request_marks_follow_the_catalog_popularity():
    net = sample_network(DensityConfig(5e-6, 2e-5, CATALOG), 1000.0, seed=3)
    expected = substream(3, STREAM_USER_MARK).choice(
        CATALOG.count, size=net.n_user, p=CATALOG.popularity)
    assert net.n_user > 0
    np.testing.assert_array_equal(net.user_content, expected)


def test_realization_validation():
    with pytest.raises(ParameterError):
        NetworkRealization(10.0, np.array([[50.0, 0.0]]),
                           np.empty((0, 2)), np.empty(0, dtype=int), 0)
    with pytest.raises(ParameterError):
        NetworkRealization(100.0, np.empty((0, 2)),
                           np.array([[5.0, 0.0]]), np.array([0, 1]), 0)


def test_density_validation():
    with pytest.raises(ParameterError):
        DensityConfig(0.0, 5e-6, CATALOG)
    with pytest.raises(ParameterError):
        DensityConfig(5e-6, 0.0, CATALOG)


def test_sample_network_is_seed_deterministic():
    cfg = DensityConfig(5e-6, 5e-6, CATALOG)
    a = sample_network(cfg, 1000.0, seed=5)
    b = sample_network(cfg, 1000.0, seed=5)
    np.testing.assert_array_equal(a.rrh_xy, b.rrh_xy)
    np.testing.assert_array_equal(a.user_xy, b.user_xy)
    np.testing.assert_array_equal(a.user_content, b.user_content)


def test_fading_stream_distinct_from_position_stream():
    a = substream(11, STREAM_RRH_POS).uniform(size=4)
    b = substream(11, STREAM_FADING).uniform(size=4)
    assert not np.array_equal(a, b)
