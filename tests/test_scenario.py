import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from crancache.content import ClusterCache
from crancache.errors import ParameterError
from crancache.scenario import Scenario, load_scenario


def test_empty_text_gives_pure_defaults():
    assert load_scenario(text="") == Scenario()


def test_parsing_with_renamed_keys():
    s = load_scenario(text="""
        [content]
        count = 3
        zipf_exponent = 0.5
        [quantizer]
        intervals = 1000
        [power]
        rrh_active = 90
        rrh_sleep = 40
        [run]
        seed = 3  # master seed, inline comment
    """)
    assert s.content_count == 3
    assert s.zipf_exponent == 0.5
    assert s.quant_intervals == 1000
    assert s.rrh_active_w == 90.0
    assert s.rrh_sleep_w == 40.0
    assert s.seed == 3
    # untouched areas keep their defaults
    assert s.lambda_rrh == 5e-6
    assert s.backhaul_w == 10.0


# one config line per field, each with a valid value off the default
SETTING_LINES = {
    "lambda_rrh": ("[geometry] lambda_rrh = 6e-6", 6e-6),
    "lambda_user": ("[geometry] lambda_user = 7e-6", 7e-6),
    "cluster_radius": ("[geometry] cluster_radius = 800", 800.0),
    "sim_radius": ("[geometry] sim_radius = 3000", 3000.0),
    "content_count": ("[content] count = 4", 4),
    "object_size_bits": ("[content] object_size_bits = 2e6", 2e6),
    "zipf_exponent": ("[content] zipf_exponent = 0.8", 0.8),
    "popularity": ("[content] popularity = 0.4, 0.3, 0.15, 0.1, 0.05",
                   (0.4, 0.3, 0.15, 0.1, 0.05)),
    "cache_size": ("[content] cache_size = 3", 3),
    "theta_cluster": ("[qos] theta_cluster = 0.2", (0.2,)),
    "theta_cloud": ("[qos] theta_cloud = 0.3 0.4 0.5 0.6 0.7", (0.3, 0.4, 0.5, 0.6, 0.7)),
    "noise": ("[radio] noise = 0.2", 0.2),
    "pathloss_exponent": ("[radio] pathloss_exponent = 3.5", 3.5),
    "bandwidth_hz": ("[radio] bandwidth_hz = 2000", 2000.0),
    "slot_s": ("[radio] slot_s = 2e-3", 2e-3),
    "rru_count": ("[radio] rru_count = 3", 3),
    "quant_intervals": ("[quantizer] intervals = 1024", 1024),
    "rrh_active_w": ("[power] rrh_active = 90", 90.0),
    "rrh_sleep_w": ("[power] rrh_sleep = 40", 40.0),
    "cache_per_object_w": ("[power] cache_per_object = 0.2", 0.2),
    "backhaul_w": ("[power] backhaul = 12", 12.0),
    "cost_coeff": ("[games] cost_coeff = 2e-4", 2e-4),
    "seed": ("[run] seed = 7", 7),
    "mc_trials": ("[run] mc_trials = 500", 500),
    "user_distance": ("[run] user_distance = 80", 80.0),
}


def test_each_setting_loads_into_its_field_alone():
    # every field can be set from a config file, under its documented
    # section and key, and a line sets nothing but its own field
    assert list(SETTING_LINES) == [f.name for f in fields(Scenario)]
    for name, (line, value) in SETTING_LINES.items():
        section, assignment = line.split(" ", 1)
        loaded = load_scenario(text=f"{section}\n{assignment}\n")
        assert getattr(loaded, name) != getattr(Scenario(), name)
        assert loaded == replace(Scenario(), **{name: value}), line
        assert type(getattr(loaded, name)) is type(value), line


def test_readme_config_example_loads():
    # the README can never show a key the schema has dropped
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = re.findall(r"^```ini\n(.*?)^```", readme, re.M | re.S)
    assert len(examples) == 1
    s = load_scenario(text=examples[0])
    assert s.content_count == 10 and s.cache_size == 4


def test_unknown_section_and_key_are_rejected():
    with pytest.raises(ParameterError):
        load_scenario(text="[contnet]\ncount = 3\n")
    with pytest.raises(ParameterError):
        load_scenario(text="[content]\ncuont = 3\n")
    with pytest.raises(ParameterError):
        load_scenario(text="[run]\nseed = abc\n")


def test_missing_file_is_an_error():
    with pytest.raises(ParameterError):
        load_scenario(path="/nonexistent/scenario.ini")


def test_popularity_override_and_validation():
    s = load_scenario(text="[content]\ncount = 3\npopularity = 0.5 0.3 0.2\n")
    assert np.allclose(s.catalog().popularity, [0.5, 0.3, 0.2])
    # must be sorted most-popular-first; caught while loading, not later
    with pytest.raises(ParameterError):
        load_scenario(text="[content]\ncount = 3\npopularity = 0.2 0.3 0.5\n")
    # one weight per content; the count does not follow the vector
    with pytest.raises(ParameterError, match="popularity has 3 entries for 5 contents"):
        load_scenario(text="[content]\npopularity = 0.5 0.3 0.2\n")


def test_theta_broadcast_and_length_check():
    q = Scenario().qos()
    assert q.count == 5
    assert np.all(q.theta_cluster == 0.1)
    assert np.all(q.theta_cloud == 0.6)
    s = load_scenario(text="[qos]\ntheta_cluster = 0.1, 0.2, 0.3\n"
                           "[content]\ncount = 3\n")
    assert np.allclose(s.qos().theta_cluster, [0.1, 0.2, 0.3])
    with pytest.raises(ParameterError):
        load_scenario(text="[qos]\ntheta_cluster = 0.1 0.2\n")


def test_cache_size_follows_catalog_unless_pinned():
    s = load_scenario(text="[content]\ncount = 2\n")
    assert s.cache_size is None
    assert s.resolved_cache_size() == 2
    assert s.cache().size == 2
    pinned = load_scenario(text="[content]\ncount = 4\ncache_size = 1\n")
    assert pinned.cache() == ClusterCache(1)
    # an explicitly oversized cache is caught while loading
    with pytest.raises(ParameterError):
        load_scenario(text="[content]\ncount = 2\ncache_size = 5\n")


def test_cache_policies():
    # the one placement: the cache_size most popular objects
    s = Scenario(cache_size=2)
    assert s.cache() == ClusterCache(2)
    assert [c for c in range(5) if s.cache().holds(c)] == [0, 1]


def test_derived_radio_objects():
    s = Scenario()
    assert s.mu() == pytest.approx(1e6, rel=1e-15)
    assert s.radio().spectral_efficiency == s.mu()
    u = s.user_radio()
    assert u.spectral_efficiency == 1.0
    assert u.pathloss_exponent == s.radio().pathloss_exponent
    assert u.bandwidth_hz == s.radio().bandwidth_hz


def test_quantizer_modes():
    s = Scenario(quant_intervals=256)
    q = s.quantizer()
    assert q.boundaries[0] == 0.0
    assert q.boundaries[-1] == pytest.approx(5e4)
    wide = s.user_quantizer()
    assert wide.boundaries[-1] == pytest.approx(1e12)


def test_every_quantizer_call_builds_a_fresh_grid():
    # a grid keeps the set-up of every call it serves, so a scenario hands
    # out a new one per call and no run inherits another's kept set-up
    s = Scenario(quant_intervals=256)
    assert Scenario().quantizer() is not Scenario().quantizer()
    assert s.quantizer() is not s.quantizer()
    assert s.user_quantizer() is not s.user_quantizer()


def test_density_split_matches_popularity():
    s = Scenario()
    np.testing.assert_array_equal(s.density().catalog.popularity, s.catalog().popularity)


def test_a_scenario_is_valid_once_built():
    # the cache and QoS builders run at construction, not at first use
    with pytest.raises(ParameterError, match=r"cache size 6 outside \[0, 5\]"):
        Scenario(cache_size=6)
    with pytest.raises(ParameterError, match="theta vector length"):
        Scenario(theta_cluster=(0.1, 0.2))


def test_header_lines_shape():
    lines = Scenario().header_lines()
    assert lines[0] == "# scenario parameters (fully resolved)"
    assert "# cluster_radius = 1000  (assumed default)" in lines
    assert "# cache_size = 5  (follows content count)" in lines
    assert "# cache_size = 2" in Scenario(cache_size=2).header_lines()
    assert lines[-1] == "# derived: mu_bit_s_hz = 1000000"
    assert all(line.startswith("#") for line in lines)
    custom = Scenario(cluster_radius=800.0).header_lines()
    assert "# cluster_radius = 800" in custom
    assert not any("assumed default" in line for line in custom)
