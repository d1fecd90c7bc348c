import math

import numpy as np
import pytest

from crancache.content import zipf_popularity
from crancache.errors import CoverageError, ParameterError
from crancache.geometry import (STREAM_FADING, STREAM_RRH_POS, DensityConfig,
                                NetworkRealization, load_realization,
                                nearest_serving_rrh, sample_network,
                                sample_ppp, save_realization, substream,
                                thin_by_content)


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


def _two_rrh_realization():
    return NetworkRealization(
        cluster_radius=100.0,
        rrh_xy=np.array([[10.0, 0.0], [-10.0, 0.0], [50.0, 0.0]]),
        rrh_content=np.array([0, 0, 1]),
        user_xy=np.array([[0.0, 0.0], [40.0, 0.0]]),
        user_content=np.array([0, 1]),
        seed=0)


def test_nearest_rrh_selection_and_tie_break():
    real = _two_rrh_realization()
    # user at the origin sits exactly between RRH 0 and 1: lowest index wins
    idx, dist = nearest_serving_rrh(real.user_xy[0], real, content=0)
    assert idx == 0
    assert abs(dist - 10.0) < 1e-12
    idx, dist = nearest_serving_rrh(real.user_xy[1], real, content=1)
    assert idx == 2
    assert abs(dist - 10.0) < 1e-12


def test_nearest_rrh_coverage_error():
    real = _two_rrh_realization()
    with pytest.raises(CoverageError):
        nearest_serving_rrh(real.user_xy[0], real, content=4)


def test_realization_validation():
    with pytest.raises(ParameterError):
        NetworkRealization(10.0, np.array([[50.0, 0.0]]), np.array([0]),
                           np.empty((0, 2)), np.empty(0, dtype=int), 0)
    with pytest.raises(ParameterError):
        NetworkRealization(100.0, np.array([[5.0, 0.0]]), np.array([0, 1]),
                           np.empty((0, 2)), np.empty(0, dtype=int), 0)


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
        DensityConfig(5e-6, 5e-6, np.array([0.0, 0.0]))
    with pytest.raises(ParameterError):
        DensityConfig(5e-6, 5e-6, np.array([-1.0, 2.0]))


def test_sample_network_is_seed_deterministic():
    cfg = DensityConfig.from_popularity(5e-6, 5e-6, zipf_popularity(1.0, 5))
    a = sample_network(cfg, 1000.0, seed=5)
    b = sample_network(cfg, 1000.0, seed=5)
    np.testing.assert_array_equal(a.rrh_xy, b.rrh_xy)
    np.testing.assert_array_equal(a.rrh_content, b.rrh_content)
    np.testing.assert_array_equal(a.user_xy, b.user_xy)
    np.testing.assert_array_equal(a.user_content, b.user_content)


def test_user_popularity_override_leaves_rrh_field_alone():
    cfg = DensityConfig.from_popularity(5e-6, 5e-6, zipf_popularity(1.0, 5))
    base = sample_network(cfg, 1000.0, seed=5)
    skew = sample_network(cfg, 1000.0, seed=5,
                          user_popularity=np.array([1.0, 0, 0, 0, 0]))
    np.testing.assert_array_equal(base.rrh_xy, skew.rrh_xy)
    np.testing.assert_array_equal(base.rrh_content, skew.rrh_content)
    np.testing.assert_array_equal(base.user_xy, skew.user_xy)
    assert np.all(skew.user_content == 0)


def test_save_load_round_trip(tmp_path):
    cfg = DensityConfig.from_popularity(5e-6, 5e-6, zipf_popularity(1.0, 5))
    real = sample_network(cfg, 1000.0, seed=5)
    p1 = tmp_path / "drop.txt"
    p2 = tmp_path / "drop2.txt"
    save_realization(real, str(p1))
    loaded = load_realization(str(p1))
    assert loaded.seed == real.seed
    assert loaded.cluster_radius == real.cluster_radius
    np.testing.assert_array_equal(loaded.rrh_content, real.rrh_content)
    np.testing.assert_allclose(loaded.rrh_xy, real.rrh_xy, rtol=1e-8, atol=1e-6)
    # a second save of the loaded object reproduces the file byte for byte
    save_realization(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_malformed_file(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("radius 100\nwrong 5\n")
    with pytest.raises(ParameterError):
        load_realization(str(p))
    # a saved realization cut in half, and a short or non-numeric point line
    good = tmp_path / "good.txt"
    cfg = DensityConfig.from_popularity(5e-6, 5e-6, zipf_popularity(1.0, 5))
    save_realization(sample_network(cfg, 1000.0, seed=5), str(good))
    lines = good.read_text().splitlines(keepends=True)
    p.write_text("".join(lines[:len(lines) // 2]))
    with pytest.raises(ParameterError, match="malformed realization file"):
        load_realization(str(p))
    for bad_point in ("1.5 2.5\n", "1.5 north 0\n"):
        lines[4] = bad_point
        p.write_text("".join(lines))
        with pytest.raises(ParameterError, match="malformed realization file"):
            load_realization(str(p))


def test_fading_stream_distinct_from_position_stream():
    a = substream(11, STREAM_RRH_POS).uniform(size=4)
    b = substream(11, STREAM_FADING).uniform(size=4)
    assert not np.array_equal(a, b)
