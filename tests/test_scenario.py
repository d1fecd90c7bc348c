import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from crancache.content import ClusterCache
from crancache.errors import ParameterError
from crancache.scenario import _FIELD_MAP, _SCHEMA, Scenario, load_scenario


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


def test_schema_keys_and_fields_match_one_to_one():
    # a key with no field would end in a TypeError traceback, a field with
    # no key could not be set from a config file
    keys = [(section, key) for section, names in _SCHEMA.items() for key in names]
    assert (sorted(_FIELD_MAP.get(k, k[1]) for k in keys)
            == sorted(f.name for f in fields(Scenario)))
    assert set(_FIELD_MAP) <= set(keys)


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
    d = s.density()
    assert d.lambda_split.sum() == pytest.approx(s.lambda_rrh, rel=1e-15)
    assert np.allclose(d.lambda_split / s.lambda_rrh, s.catalog().popularity)


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
