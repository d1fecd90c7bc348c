import math

import numpy as np
import pytest

from crancache.content import zipf_popularity
from crancache.errors import ParameterError
from crancache.geometry import (STREAM_FADING, STREAM_RRH_POS, DensityConfig,
                                NetworkRealization, sample_network, sample_ppp,
                                substream, thin_by_content)


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
    p = zipf_popularity(1.0, 5)
    marks = thin_by_content(np.zeros((20000, 2)), p, substream(77, 1))
    frac = np.mean(marks == 0)
    assert abs(frac - p[0]) < 3.0 * math.sqrt(p[0] * (1 - p[0]) / 20000)
    assert set(np.unique(marks)) <= set(range(5))


def test_thinning_validation():
    rng = substream(0, 1)
    with pytest.raises(ParameterError):
        thin_by_content(np.zeros((4, 2)), np.array([0.5, 0.4]), rng)
    with pytest.raises(ParameterError):
        thin_by_content(np.zeros((4, 2)), np.array([1.5, -0.5]), rng)


def test_realization_validation():
    with pytest.raises(ParameterError):
        NetworkRealization(10.0, np.array([[50.0, 0.0]]),
                           np.empty((0, 2)), np.empty(0, dtype=int), 0)
    with pytest.raises(ParameterError):
        NetworkRealization(100.0, np.empty((0, 2)),
                           np.array([[5.0, 0.0]]), np.array([0, 1]), 0)


def test_density_split_renormalizes_exactly():
    cfg = DensityConfig(5e-6, 5e-6, np.array([2.0, 1.0, 1.0]))
    assert abs(cfg.lambda_split.sum() - 5e-6) < 1e-20
    np.testing.assert_allclose(cfg.lambda_split,
                               [2.5e-6, 1.25e-6, 1.25e-6], rtol=1e-14)
    pop = zipf_popularity(1.0, 5)
    cfg = DensityConfig.from_popularity(5e-6, 5e-6, pop)
    np.testing.assert_allclose(cfg.lambda_split, 5e-6 * pop, rtol=1e-14)


def test_density_validation():
    with pytest.raises(ParameterError):
        DensityConfig(0.0, 5e-6, np.array([1.0]))
    with pytest.raises(ParameterError):
        DensityConfig(5e-6, 0.0, np.array([1.0]))
    with pytest.raises(ParameterError):
        DensityConfig(5e-6, 5e-6, np.array([0.0, 0.0]))
    with pytest.raises(ParameterError):
        DensityConfig(5e-6, 5e-6, np.array([-1.0, 2.0]))


def test_sample_network_is_seed_deterministic():
    cfg = DensityConfig.from_popularity(5e-6, 5e-6, zipf_popularity(1.0, 5))
    a = sample_network(cfg, 1000.0, seed=5)
    b = sample_network(cfg, 1000.0, seed=5)
    np.testing.assert_array_equal(a.rrh_xy, b.rrh_xy)
    np.testing.assert_array_equal(a.user_xy, b.user_xy)
    np.testing.assert_array_equal(a.user_content, b.user_content)


def test_fading_stream_distinct_from_position_stream():
    a = substream(11, STREAM_RRH_POS).uniform(size=4)
    b = substream(11, STREAM_FADING).uniform(size=4)
    assert not np.array_equal(a, b)
