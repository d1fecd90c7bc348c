import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, special

import crancache
from crancache import effcap
from crancache.content import ContentCatalog, ClusterCache, hit_ratio
from crancache.effcap import (LN2, Quantizer, a_beta, avg_eff_cap_cluster,
                              avg_eff_cap_content, caching_gain, demand_moment,
                              eff_cap_user, log_moments, outage_prob,
                              per_content_eff_caps, required_spectral_efficiency,
                              u_func)
from crancache.effcap import (_BOUNDARY_CHUNK, _LINK_BLOCK, _PARALLEL_INTERVALS, _T_NODES,
                              _T_WEIGHTS, _sinr_coeffs)
from crancache.errors import DomainError, ParameterError
from crancache.qos import QosProfile
from crancache.scenario import Scenario

from conftest import radio, traced_peak_mib
from oracles import (distance_avg_cap_quad, equal_width_quantizer, k_table_single,
                     l_func_general, l_func_limited, moment_avg_cap_quad,
                     one_block_log_moment, per_content_eff_caps_one_by_one,
                     random_instance, u_func_mpmath, uniform_qos)


# -- geometry constant ------------------------------------------------------


def test_geometry_constant_reference_values():
    assert abs(a_beta(4.0) - math.pi / 4.0) < 1e-12
    assert abs(a_beta(6.0) - 0.6045997880780726) < 1e-12
    assert abs(a_beta(8.0) - 0.5553603672697958) < 1e-12


def test_geometry_constant_keeps_its_bits_at_the_default_exponent():
    # every game and benchmark runs at beta = 4, where math.gamma gives
    # scipy's Gamma expression bit for bit
    assert a_beta(4.0) == special.gamma(0.5) * special.gamma(0.5) / 4.0


@given(st.floats(min_value=2.05, max_value=12.0))
def test_geometry_constant_reflection_identity(beta):
    # Gamma(z)Gamma(1-z) = pi / sin(pi z) with z = 2/beta
    assert abs(a_beta(beta) - math.pi / (beta * math.sin(2 * math.pi / beta))) \
        < 1e-10 * a_beta(beta)


def test_geometry_constant_domain():
    with pytest.raises(DomainError):
        a_beta(2.0)
    with pytest.raises(DomainError):
        a_beta(1.5)


# -- close-in correction u --------------------------------------------------


def test_u_reference_points():
    assert abs(u_func(1.0, 4.0) - math.pi / 4.0) < 1e-12
    assert abs(u_func(4.0, 4.0) - 2.0 * math.atan(2.0)) < 1e-12
    assert u_func(0.0, 4.0) == 0.0


def test_u_quartic_pathloss_closed_form():
    g = np.geomspace(1e-3, 1e3, 25)
    np.testing.assert_allclose(u_func(g, 4.0),
                               np.sqrt(g) * np.arctan(np.sqrt(g)), rtol=1e-10)


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=2.2, max_value=9.0))
def test_u_matches_direct_quadrature(gamma, beta):
    lo = gamma ** (-2.0 / beta)
    val, _ = integrate.quad(lambda x: 1.0 / (1.0 + x ** (beta / 2.0)), lo,
                            np.inf, epsabs=1e-13, epsrel=1e-11, limit=400)
    oracle = gamma ** (2.0 / beta) * val
    assert abs(u_func(gamma, beta) - oracle) <= 1e-8 * max(oracle, 1e-6)


@pytest.mark.parametrize("beta", [2.5, 3.0, 4.0, 6.0, 8.0])
def test_u_matches_mpmath_to_1e14(beta):
    # from 1e-12 through gamma > 2^53, where gamma/(1+gamma) rounds to 1 in
    # double precision, to e^60; both series branches and their seam at 1
    gammas = np.concatenate([np.geomspace(1e-12, math.exp(60.0), 40),
                             np.linspace(0.5, 2.0, 7)])
    ours = u_func(gammas, beta)
    oracle = np.array([u_func_mpmath(float(g), beta) for g in gammas])
    np.testing.assert_allclose(ours, oracle, rtol=1e-14, atol=0.0)


def test_u_keeps_scalars_and_shapes():
    assert type(u_func(2.0, 6.0)) is float
    assert u_func(np.float64(2.0), 6.0) == u_func(2.0, 6.0)
    grid = np.array([[0.0, 0.5], [1.0, 3e20]])
    out = u_func(grid, 6.0)
    assert out.shape == (2, 2) and out[0, 0] == 0.0
    assert np.array_equal(out.ravel(), [u_func(float(g), 6.0) for g in grid.ravel()])


def test_u_guards():
    with pytest.raises(DomainError):
        u_func(1.0, 2.0)
    with pytest.raises(ParameterError):
        u_func(-1.0, 4.0)


# -- radio parameters -------------------------------------------------------


def test_required_spectral_efficiency_reference():
    # five 1-Mbit objects over five 1 kHz / 1 ms blocks
    assert required_spectral_efficiency(5, 1e6, 5, 1000.0, 1e-3) == 1e6
    # one block has to carry the whole catalog
    assert required_spectral_efficiency(5, 1e6, 1, 1000.0, 1e-3) == 5e6
    with pytest.raises(ParameterError):
        required_spectral_efficiency(0, 1e6, 5, 1000.0, 1e-3)
    with pytest.raises(ParameterError):
        required_spectral_efficiency(5, 1e6, 5, 0.0, 1e-3)


def test_radio_params_validation_and_tbar():
    p = radio()
    assert abs(p.tbar - 1e-3 / LN2) < 1e-18
    with pytest.raises(DomainError):
        radio(beta=2.0)


# -- quantizer --------------------------------------------------------------


def test_quantizer_geometric_shape():
    q = Quantizer.geometric(64, 1e4, 1e-6)
    assert q.boundaries.size == 64 + 1
    assert q.boundaries[0] == 0.0
    assert q.boundaries[1] == 1e-6
    assert q.boundaries[-1] == 1e4
    assert np.all(np.diff(q.boundaries) > 0)
    np.testing.assert_allclose(q.midpoints,
                               0.5 * (q.boundaries[:-1] + q.boundaries[1:]))


def test_quantizer_validation():
    with pytest.raises(ParameterError):
        Quantizer(np.array([0.0]))
    with pytest.raises(ParameterError):
        Quantizer(np.array([1.0, 2.0]))          # must start at 0
    with pytest.raises(ParameterError):
        Quantizer(np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ParameterError):
        Quantizer.geometric(1)
    with pytest.raises(ParameterError):
        Quantizer.geometric(16, 1e-3, 1e-2)      # min above max


def test_quantizer_keeps_a_read_only_copy_of_its_boundaries():
    # the grid's kept set-up derives from its boundaries, so neither the
    # caller's array nor the grid's own may change them after the fact
    b = np.array([0.0, 1.0, 2.0, 4.0])
    q = Quantizer(b)
    b[1] = 1.5
    assert q.boundaries.tolist() == [0.0, 1.0, 2.0, 4.0]
    with pytest.raises(ValueError, match="read-only"):
        q.boundaries[1] = 1.5
    assert q.boundaries.tolist() == [0.0, 1.0, 2.0, 4.0]


def test_kept_set_up_is_read_only():
    q = Quantizer.geometric(512)
    log_moments([50.0], [3.0], 5e-6, radio(noise=0.3), q, 1e-6)
    kept = [v for v in q._kept.values() if isinstance(v, np.ndarray)]
    assert len(kept) == 3          # ln(1 + midpoint), power, u
    for v in kept:
        assert not v.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            v[0] = 1.0


# -- fixed-distance outage --------------------------------------------------


def test_outage_interference_limited_reference():
    # 1 - exp(-2 pi A(4) * 5e-6 * 50^2) at threshold 1
    assert abs(outage_prob(1.0, 50.0, 5e-6, radio()) - 0.05982102932605893) < 1e-12
    assert abs(outage_prob(1.0, 50.0, 5e-6, radio(beta=8.0))
               - 0.042680321747558314) < 1e-12


def test_outage_with_noise_floor():
    p = radio(noise=2.0)
    k1 = 2 * math.pi * a_beta(4.0) * 5e-6 * 2500.0
    k2 = 50.0 ** 4 * 2.0 / 1.0
    want = 1.0 - math.exp(-(k1 * math.sqrt(3.0) + k2 * 3.0))
    assert abs(outage_prob(3.0, 50.0, 5e-6, p) - want) < 1e-12


def test_outage_shapes_and_guards():
    g = np.array([0.0, 1.0, 10.0])
    out = outage_prob(g, 50.0, 5e-6, radio())
    assert out.shape == (3,)
    assert out[0] == 0.0
    assert np.all(np.diff(out) > 0)
    assert outage_prob(0.0, 0.0, 5e-6, radio()) == 0.0   # zero distance allowed
    with pytest.raises(ParameterError):
        outage_prob(1.0, -1.0, 5e-6, radio())
    with pytest.raises(ParameterError):
        outage_prob(1.0, 50.0, 0.0, radio())


# -- per-user effective capacity --------------------------------------------


def wide_quantizer(n=1 << 14):
    return Quantizer.geometric(n, 1e12)


def test_eff_cap_user_matches_k_table():
    # the per-user capacity and the allocation link table evaluate one
    # SINR law, so every link must agree: capacity = mu * K
    inst = random_instance(42, 6, 12)
    for n in (1, 3):
        mu = inst.mu_for(n)
        params = replace(inst.params, spectral_efficiency=mu)
        for content in range(inst.content_count):
            k = inst._k_table(content, n)
            theta = inst.theta_of(content)
            for (u, r), d in np.ndenumerate(inst._dist):
                got, = eff_cap_user([theta], d, inst.lambda_rrh, params, inst.quantizer)
                assert got == pytest.approx(mu * k[u, r], rel=1e-12)


def test_eff_cap_monotone_in_theta_and_distance():
    q = wide_quantizer()
    thetas = [0.02, 0.1, 0.5, 2.0]
    vals = eff_cap_user(thetas, 50.0, 5e-6, radio(), q)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    dists = [10.0, 50.0, 200.0]
    vals = [eff_cap_user([0.1], d, 5e-6, radio(), q)[0] for d in dists]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_eff_cap_increases_with_pathloss_exponent():
    # at 50 m the serving link is strong; steeper decay hurts the (farther)
    # interferers more than the signal, so capacity grows with beta
    q = wide_quantizer()
    vals = [eff_cap_user([0.1], 50.0, 5e-6, radio(beta=b), q)[0]
            for b in (4.0, 6.0, 8.0)]
    assert vals[0] < vals[1] < vals[2]


def test_eff_cap_regression_values():
    # anchors cross-checked against Monte Carlo (acceptance suite re-runs
    # that comparison at full trial count)
    q = Quantizer.geometric(1 << 16, 1e12)
    assert abs(eff_cap_user([0.1], 50.0, 5e-6, radio(), q)[0] - 6.13618) < 2e-4
    assert abs(eff_cap_user([0.6], 50.0, 5e-6, radio(beta=8.0), q)[0]
               - 4.97376) < 2e-4


def test_eff_cap_small_theta_reaches_ergodic_capacity():
    # theta -> 0 limit is E[log2(1+SINR)] = (1/ln2) int S(x)/(1+x) dx
    k1 = 2 * math.pi * a_beta(4.0) * 5e-6 * 2500.0
    val, _ = integrate.quad(lambda x: math.exp(-k1 * math.sqrt(x)) / (1 + x),
                            0.0, np.inf, epsabs=1e-12, epsrel=1e-10, limit=400)
    ergodic = val / LN2
    got, = eff_cap_user([1e-8], 50.0, 5e-6, radio(), wide_quantizer(1 << 16))
    assert abs(got - ergodic) / ergodic < 0.01


def test_eff_cap_bounded_by_grid_ceiling():
    q = Quantizer.geometric(256, 100.0)
    v, = eff_cap_user([0.01], 1.0, 5e-6, radio(), q)
    assert v <= 1.0 * math.log2(1.0 + 100.0) + 1e-9


def test_a_per_user_pass_keeps_no_weight_vector_per_exponent():
    # one pass over 25 exponents on a fresh default per-user grid: the grid
    # keeps three vectors of 0.5 MiB (boundaries, ln(1 + midpoint) and the
    # power), the call adds c1, c2 and one chunk of weights per exponent
    # (25 x 64 KiB); a weight vector per exponent would add 12.5 MiB
    s = Scenario()
    thetas = np.geomspace(1e-3, 1.0, 25).tolist()
    peak = traced_peak_mib(lambda: eff_cap_user(thetas, s.user_distance, s.lambda_rrh,
                                                s.user_radio(), s.user_quantizer()))
    assert peak < 8


_PROPERTY_GRID = Quantizer.geometric(512)


def _k_of_lengths(d, a, noise):
    """K = -ln G / (a ln 2) from the kernel's log-moments, one per link length.

    G >= (1 + gamma_max)^(-a) > 1e-240 for a <= 50, so these inputs never
    reach the underflow DomainError.
    """
    g, = log_moments(np.asarray(d, dtype=float), [a], 5e-6, radio(noise=noise),
                     _PROPERTY_GRID)
    return -np.log(demand_moment(g)) / (a * LN2)


def _k_slack(k, a):
    """1e-12 relative, plus 8 ulp of G: where G is near 1 (long noisy links,
    small a) its rounding alone moves K by up to ~3 eps / (a ln 2)."""
    return 1e-12 * k + 8.0 * np.finfo(float).eps / (a * LN2)


_LENGTHS = st.floats(min_value=0.5, max_value=2000.0)
_EXPONENTS = st.floats(min_value=1e-3, max_value=12.5)   # a * stretch <= 50
_STRETCHES = st.floats(min_value=1.0, max_value=4.0)
_NOISES = st.sampled_from([0.0, 0.3])


@given(_LENGTHS, _STRETCHES, _EXPONENTS, _NOISES)
def test_k_non_increasing_in_link_length_and_below_the_grid_ceiling(d, stretch, a, noise):
    # a longer link shifts the SINR law down, and (1 + gamma)^(-a) falls in gamma
    near, far = _k_of_lengths([d, d * stretch], a, noise)
    assert far <= near + _k_slack(near, a)
    # G >= (1 + last midpoint)^(-a), since the masses sum to one
    assert near <= math.log2(1.0 + _PROPERTY_GRID.boundaries[-1]) * (1.0 + 1e-12)


@given(_LENGTHS, _EXPONENTS, _STRETCHES, _NOISES)
def test_k_non_increasing_in_the_exponent(d, a, stretch, noise):
    # 2^-K is the power mean of order a of 1/(1 + gamma), non-decreasing in a
    loose, = _k_of_lengths([d], a, noise)
    strict, = _k_of_lengths([d], a * stretch, noise)
    assert strict <= loose + _k_slack(loose, a)


def test_eff_cap_quantizer_refinement_converges():
    coarse, = eff_cap_user([0.1], 50.0, 5e-6, radio(), Quantizer.geometric(1 << 12, 1e12))
    fine, = eff_cap_user([0.1], 50.0, 5e-6, radio(), Quantizer.geometric(1 << 17, 1e12))
    assert abs(coarse - fine) / fine < 5e-3


def test_eff_cap_equal_width_grid_agrees_at_moderate_exponent():
    geo, = eff_cap_user([0.6], 50.0, 5e-6, radio(), Quantizer.geometric(1 << 16, 5e4))
    eq, = eff_cap_user([0.6], 50.0, 5e-6, radio(), equal_width_quantizer())
    assert abs(geo - eq) / geo < 5e-3


def test_eff_cap_guards():
    q = wide_quantizer(256)
    with pytest.raises(ParameterError):
        eff_cap_user([0.0], 50.0, 5e-6, radio(), q)
    with pytest.raises(ParameterError):
        eff_cap_user([0.1], -1.0, 5e-6, radio(), q)
    with pytest.raises(ParameterError):
        eff_cap_user([0.1], 50.0, 0.0, radio(), q)


def test_eff_cap_underflow_at_zero_distance_is_a_domain_error():
    # at d = 0 every survival value is 1, so all mass folds onto the top
    # interval, whose weight (1 + midpoint)^(-a) underflows to 0 at the
    # delivery exponent; the log-moment has no finite capacity
    s = Scenario()
    with pytest.raises(DomainError, match="underflows"):
        eff_cap_user([0.1], 0.0, 5e-6, s.radio(), s.quantizer())


@pytest.mark.parametrize("noise", [0.0, 0.3])
def test_blocked_log_moments_match_one_block_oracle(noise):
    # link blocking must not move a bit: block edges, short tail blocks and
    # a lone last link (folded into the block before it) all sum the same
    b = _LINK_BLOCK
    q = Quantizer.geometric(20000, 1e6)
    p = radio(noise=noise)
    rng = np.random.default_rng(7)
    for links in (1, 2, b - 1, b, b + 1, 2 * b + 1, 3 * b + 1):
        d = rng.uniform(1.0, 800.0, size=links)
        got, = log_moments(d, [3.0], 5e-6, p, q)
        assert got.shape == d.shape
        assert np.array_equal(got, one_block_log_moment(d, 3.0, 5e-6, p, q))


_SKIP_GRID = Quantizer.geometric(1 << 16)


def _live(a: float) -> int:
    """1 + the last interval of _SKIP_GRID whose weight is nonzero at a."""
    nonzero = np.flatnonzero(np.exp(-a * np.log1p(_SKIP_GRID.midpoints)))
    return int(nonzero[-1]) + 1 if nonzero.size else 0


# where the kernel stops: mid-chunk, just past and exactly on a chunk edge,
# at the end of the grid (nothing skipped) and before the first interval.
# The edge exponents put a * ln(1 + midpoint) ~0.2 either side of exp's
# underflow to 0 at 1075 ln 2; on this grid a = 1e9 would still leave
# 23,047 live intervals, so the empty case takes a = 1e16
_SKIP_CASES = [(1.44e5, 38127), (27611.6, 5 * _BOUNDARY_CHUNK + 1),
               (27627.6, 5 * _BOUNDARY_CHUNK), (3.0, 1 << 16), (1e16, 0)]


@pytest.mark.parametrize("noise", [0.0, 0.3])
@pytest.mark.parametrize("beta", [4.0, 6.0])
@pytest.mark.parametrize("lambda_l", [None, 1e-6])
def test_skipped_chunks_match_the_every_chunk_oracle(noise, beta, lambda_l):
    # chunks past the last nonzero weight would add only +-0.0, so the
    # kernel that stops there must give the every-chunk sum byte for byte
    p = radio(beta=beta, noise=noise)
    d = np.random.default_rng(3).uniform(0.5, 800.0, size=2 * _LINK_BLOCK + 1)
    for a, live in _SKIP_CASES:
        assert _live(a) == live
        got, = log_moments(d, [a], 5e-6, p, _SKIP_GRID, lambda_l)
        assert np.array_equal(got, one_block_log_moment(d, a, 5e-6, p, _SKIP_GRID,
                                                        lambda_l))
        if live == 0:
            with pytest.raises(DomainError, match="underflows"):
                demand_moment(got)
        else:
            assert demand_moment(got) is got
    for family in ([3.0, 1.44e5, 7.2e5], [1.44e5, 7.2e5, 1e16]):
        gs = log_moments(d, family, 5e-6, p, _SKIP_GRID, lambda_l)
        for a, g in zip(family, gs):
            assert np.array_equal(g, one_block_log_moment(d, a, 5e-6, p, _SKIP_GRID,
                                                          lambda_l))


# One grid serving call after call: pathloss exponents switch back and
# forth, lambda_l comes and goes, noise is off and on, and the exponent
# lists overlap in different orders, so each call mixes kept weights with
# new ones.  (beta, noise, lambda_l, exponents)
_REUSE_CASES = [(4.0, 0.0, None, [3.0, 1.44e5]),
                (4.0, 0.0, 1e-6, [1.44e5, 3.0]),
                (6.0, 0.3, 1e-6, [3.0, 50.0, 7.2e5]),
                (8.0, 0.3, None, [50.0]),
                (4.0, 0.3, 1e-6, [7.2e5, 1.44e5, 3.0]),
                (6.0, 0.0, None, [1.44e5, 50.0]),
                (8.0, 0.0, 1e-6, [3.0, 7.2e5, 0.0144])]


@pytest.mark.parametrize("grid", ["quantizer", "user_quantizer"])
def test_one_grid_reused_across_calls_keeps_every_bit(grid):
    # G from the grid's kept set-up must be the G of a fresh grid and of
    # the oracle, which forms the SINR law and the weights from scratch
    make = getattr(Scenario(quant_intervals=1 << 14), grid)
    kept = make()
    d = np.random.default_rng(11).uniform(0.5, 800.0, size=2 * _LINK_BLOCK + 1)
    for beta, noise, lambda_l, family in _REUSE_CASES:
        p = radio(beta=beta, noise=noise)
        got = log_moments(d, family, 5e-6, p, kept, lambda_l)
        fresh = log_moments(d, family, 5e-6, p, make(), lambda_l)
        for a, g, f in zip(family, got, fresh):
            assert np.array_equal(g, f)
            assert np.array_equal(g, one_block_log_moment(d, a, 5e-6, p, make(),
                                                          lambda_l))


def test_a_grid_builds_its_set_up_once(monkeypatch):
    # u(gamma) once per pathloss exponent, however many calls the grid
    # serves and however many workers share its 20 link blocks; and the
    # grid keeps nothing per log-moment exponent
    calls = []
    real_u = effcap.u_func

    def recording_u(*args):
        calls.append(args[1])
        return real_u(*args)

    monkeypatch.setattr(effcap, "u_func", recording_u)
    _report_cpus(monkeypatch, 4)
    q = Quantizer.geometric(_PARALLEL_INTERVALS)
    d = np.linspace(20.0, 50.0, 20 * _LINK_BLOCK)
    for _ in range(3):
        for beta in (4.0, 6.0):
            log_moments(d, [3.0, 50.0], 5e-6, radio(beta=beta), q, 1e-6)
            log_moments(d, [50.0], 5e-6, radio(beta=beta), q)
    assert calls == [4.0, 6.0]
    assert set(q._kept) == {"log_mid", ("power", 4.0), ("power", 6.0),
                            ("u", 4.0), ("u", 6.0)}


def test_kernel_evaluates_survival_only_up_to_the_last_nonzero_weight(monkeypatch):
    # counted, so no timing is involved: the survival exp is the one call
    # with out=, over (links, chunk boundaries) lanes per chunk
    real, lanes = np.exp, []

    def counting_exp(x, *args, **kwargs):
        if "out" in kwargs:
            lanes.append(np.size(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    chunk = _BOUNDARY_CHUNK + 1
    for a, most in ((1.44e5, 5 * chunk), (3.0, 8 * chunk)):
        lanes.clear()
        log_moments([50.0], [a], 5e-6, radio(), _SKIP_GRID)
        assert 0 < sum(lanes) <= most
    assert sum(lanes) == 8 * chunk


def test_zero_length_link_in_last_block_is_a_domain_error():
    q = Quantizer.geometric(4096, 1e6)
    d = np.linspace(10.0, 500.0, 2 * _LINK_BLOCK + 3)
    d[-1] = 0.0
    g, = log_moments(d, [200.0], 5e-6, radio(), q)
    with pytest.raises(DomainError, match="underflows"):
        demand_moment(g)


def test_only_the_underflowing_exponent_raises():
    # one pass over two exponents: the mild one is usable on every link,
    # the strict one underflows on the zero-length link alone
    q = Quantizer.geometric(4096, 1e6)
    d = np.linspace(10.0, 500.0, _LINK_BLOCK + 3)
    d[2] = 0.0
    mild, strict = log_moments(d, [1.0, 200.0], 5e-6, radio(), q)
    assert demand_moment(mild) is mild
    with pytest.raises(DomainError, match="underflows"):
        demand_moment(strict)
    assert np.all(strict[d > 0.0] > 0.0)


@pytest.mark.parametrize("noise", [0.0, 0.2])
@pytest.mark.parametrize("intervals", [512, 1 << 14])
@pytest.mark.parametrize("cache_size", [None, 2])
def test_k_table_family_matches_single_exponent_builds(noise, intervals, cache_size):
    # the fused pass shares each survival chunk across the exponents of
    # the family but must leave every table's bytes as a lone build's
    inst = random_instance(5, 9, 21, cache_size=cache_size, noise=noise,
                           quantizer=Quantizer.geometric(intervals, 1e6))
    count = inst.content_count
    family = {inst._log_moment_exponent(c, n)
              for c in range(count) for n in range(1, count + 1)}
    assert len(family) == (count if cache_size is None else 2 * count)
    inst._k_table(0, 1)
    keys = {(c, n) for c in range(count) for n in range(1, count + 1)}
    assert set(inst._k_cache) == keys
    for c, n in keys:
        assert np.array_equal(inst._k_table(c, n),
                              k_table_single(inst, inst._log_moment_exponent(c, n)))


def test_k_table_underflow_surfaces_only_on_demand():
    # user 0 sits on RRH 0: at this delay exponent the tables of RRU
    # counts 1 and 2 (a = 144, 72) underflow on that link, while those of
    # counts 3-5, built in the same pass, do not
    inst = random_instance(42, 6, 12, theta_cluster=2e-5)
    inst._dist[0, 0] = 0.0
    for c in range(inst.content_count):
        for n in (1, 2):
            with pytest.raises(DomainError, match="underflows"):
                inst._k_table(c, n)
        for n in (3, 4, 5):
            a = inst._log_moment_exponent(c, n)
            assert np.array_equal(inst._k_table(c, n), k_table_single(inst, a))


_K_TABLE_DIGEST = """
import hashlib
from crancache.effcap import Quantizer
from oracles import random_instance
inst = random_instance(3, 11, 23, noise=0.2, quantizer=Quantizer.geometric(1 << 14, 1e6))
table = inst._k_table(0, 2)
print(hashlib.sha256(table.tobytes()).hexdigest())
"""


def _child(script: str, *args: str, **env: str) -> str:
    """Standard output of ``script`` run by a fresh interpreter that sees
    this package and the test helpers, with ``env`` added to its
    environment (so set before numpy loads)."""
    src = str(Path(crancache.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [src, tests, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_k_table_bytes_do_not_depend_on_blas_threads():
    # outputs are a function of (config, seed) alone; a gemv split across
    # BLAS threads sums its rows in another order, so each child sets the
    # thread count before numpy loads
    digests = set()
    for threads in ("1", "2"):
        digests.add(_child(_K_TABLE_DIGEST, OPENBLAS_NUM_THREADS=threads))
    assert len(digests) == 1


# -- link blocks on several threads ------------------------------------------


def _report_cpus(monkeypatch, count: int) -> None:
    """Make the kernel see ``count`` CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


_ORACLE_CHECK = """
import itertools, json, os, sys
import numpy as np
from conftest import radio
from oracles import one_block_log_moment
from crancache.effcap import log_moments
from crancache.scenario import Scenario
def live_limit(q, a):
    nonzero = np.flatnonzero(np.exp(-a * np.log1p(q.midpoints)))
    return int(nonzero[-1]) + 1 if nonzero.size else 0
for case, (grid, intervals, family, live) in json.loads(sys.argv[1]).items():
    q = getattr(Scenario(quant_intervals=intervals), grid)()
    assert max(live_limit(q, a) for a in family) == live, case
    for noise, lambda_l in itertools.product((0.0, 0.3), (None, 1e-6)):
        p = radio(noise=noise)
        rng = np.random.default_rng(5)
        for links in (0, 1, 2, 8, 9, 17, 500):
            d = rng.uniform(0.5, 800.0, size=links)
            want = [one_block_log_moment(d, a, 5e-6, p, q, lambda_l) for a in family]
            for cpus in (1, 2, 3):
                os.sched_getaffinity = lambda pid: set(range(cpus))
                got = log_moments(d, family, 5e-6, p, q, lambda_l)
                if not all(np.array_equal(g, w) for g, w in zip(got, want)):
                    print("differs:", case, noise, lambda_l, links, cpus)
print("checked")
"""

# (grid, intervals, exponents, live limit).  The cluster grid stops before
# its top interval: mid-chunk, exactly on a chunk edge (a = 68.957 puts
# the last nonzero weight on interval 8,191) or before the first interval.
# The per-user grid runs to its top and folds in the mass beyond it.  The
# ragged grids end on a part-chunk of 3 and 5 intervals, and neither count
# is a multiple of _LINK_BLOCK.
_ORACLE_CASES = {
    "cluster-mid-chunk": ("quantizer", 1 << 13, [1.44e5, 7.2e5], 4766),
    "cluster-ragged-mid-chunk": ("quantizer", (1 << 13) + 3, [1.44e5, 7.2e5], 4768),
    "cluster-ragged-chunk-edge": ("quantizer", (1 << 13) + 3, [68.957, 7.2e5],
                                  _BOUNDARY_CHUNK),
    "cluster-ragged-nothing-live": ("quantizer", (1 << 13) + 3, [1e16], 0),
    "user-top": ("user_quantizer", 1 << 13, [3.0, 0.0144], 1 << 13),
    "user-ragged-top": ("user_quantizer", (1 << 14) + 5, [3.0, 0.0144], (1 << 14) + 5),
}


def test_threaded_log_moments_match_the_one_block_oracle():
    # however many workers split the blocks, each G is the oracle's, which
    # sums every link in one block on one thread over every chunk.
    # OpenBLAS splits a gemv of more links than a kernel block over its own
    # threads, and the tail rows of each part round differently, so this
    # runs on one BLAS thread
    # every case takes the threaded path
    assert all(intervals >= _PARALLEL_INTERVALS for _, intervals, *_ in _ORACLE_CASES.values())
    assert _child(_ORACLE_CHECK, json.dumps(_ORACLE_CASES),
                  OPENBLAS_NUM_THREADS="1") == "checked\n"


_K_FAMILY_DIGEST = """
import hashlib, os, sys
if sys.argv[1:] == ["pin"]:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from crancache.effcap import Quantizer
from oracles import random_instance
inst = random_instance(3, 11, 23, noise=0.2, quantizer=Quantizer.geometric(1 << 14, 1e6))
inst._k_table(0, 2)
digest = hashlib.sha256()
for key in sorted(inst._k_cache):
    digest.update(inst._k_cache[key].tobytes())
print(len(os.sched_getaffinity(0)), digest.hexdigest())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_k_family_bytes_do_not_depend_on_the_cpu_count():
    # the kernel runs one worker per CPU it may use: a child pinned to one
    # CPU and one left on all of them must build the same family
    (pinned, one), (free, other) = (_child(_K_FAMILY_DIGEST, *pin).split()
                                    for pin in (["pin"], []))
    assert (int(pinned), int(free)) == (1, len(os.sched_getaffinity(0)))
    assert one == other


def _threaded_call(q: Quantizer) -> list[np.ndarray]:
    """A call whose 20 link blocks the kernel spreads over its workers."""
    d = np.linspace(20.0, 500.0, 20 * _LINK_BLOCK)
    return log_moments(d, [3.0, 50.0], 5e-6, radio(noise=0.3), q)


def _in_thread(call):
    """What ``call()`` returns or raises, run on a thread of its own that
    must end within a minute."""
    outcome = []

    def target():
        try:
            outcome.append(call())
        except Exception as exc:
            outcome.append(exc)

    runner = threading.Thread(target=target)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    return outcome[0]


def test_threaded_calls_keep_every_byte_and_leave_no_thread(monkeypatch):
    # more workers than cores, with the GIL passed on every microsecond:
    # each worker writes only its own links and reads only the kept
    # set-up, so every G is the serial pass's, and no worker outlives the call
    q = Quantizer.geometric(_PARALLEL_INTERVALS)
    _report_cpus(monkeypatch, 1)
    serial = _threaded_call(q)
    real_dot, runners = np.dot, set()

    def recording_dot(*args, **kwargs):
        runners.add(threading.get_ident())
        return real_dot(*args, **kwargs)

    monkeypatch.setattr(np, "dot", recording_dot)
    _report_cpus(monkeypatch, 8)
    before = threading.enumerate()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _in_thread(lambda: _threaded_call(q))
    finally:
        sys.setswitchinterval(switch)
    assert len(runners) > 1   # a worker free again may take another span
    assert threading.enumerate() == before
    assert all(np.array_equal(g, s) for g, s in zip(got, serial))


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_an_error_in_one_block_leaves_the_call(monkeypatch, where):
    # the failing block's error reaches the caller once every worker has
    # ended, so nothing hangs and no thread is left running
    q = Quantizer.geometric(_PARALLEL_INTERVALS)
    real_dot, caller = np.dot, []

    def failing_dot(*args, **kwargs):
        if (threading.get_ident() in caller) == (where == "caller"):
            raise RuntimeError(f"block failed on the {where}")
        return real_dot(*args, **kwargs)

    def call():
        caller.append(threading.get_ident())
        return _threaded_call(q)

    monkeypatch.setattr(np, "dot", failing_dot)
    _report_cpus(monkeypatch, 3)
    before = threading.enumerate()
    error = _in_thread(call)
    assert isinstance(error, RuntimeError) and where in str(error)
    assert threading.enumerate() == before


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("noise", [0.0, 0.3])
def test_a_pass_over_several_laws_keeps_each_runs_lone_bytes(monkeypatch, cpus, noise):
    # runs of 1, 2, 9 and 224 links, each its own lambda_l (the first and
    # the last share one but are not adjacent), in one threaded call on a
    # two-chunk grid: each run's G must be a lone call's on its links
    _report_cpus(monkeypatch, cpus)
    p = radio(noise=noise)
    q = Quantizer.geometric((1 << 13) + 3)
    rng = np.random.default_rng(11)
    sizes, lams = (1, 2, 9, 224), (1e-6, 2.5e-6, 4e-7, 1e-6)
    runs = [rng.uniform(0.5, 800.0, size) for size in sizes]
    got = log_moments(np.concatenate(runs), [3.0, 50.0], 5e-6, p, q, np.repeat(lams, sizes))
    edges = np.cumsum((0, *sizes))
    for lo, hi, links, lam in zip(edges, edges[1:], runs, lams):
        want = log_moments(links, [3.0, 50.0], 5e-6, p, q, lam)
        for g, w in zip(got, want):
            assert _hexes(g[lo:hi]) == _hexes(w)


# -- nearest-holder outage --------------------------------------------------


def test_limited_outage_reference_point():
    # q = 5, beta = 4, threshold 1: 1 - 1/(2 pi + pi/4 + 1)
    assert abs(l_func_limited(1.0, 5.0, 4.0) - 0.8760625079177022) < 1e-9


def test_limited_outage_shape_and_guards():
    g = np.geomspace(1e-3, 1e3, 20)
    out = l_func_limited(g, 5.0, 4.0)
    assert np.all(np.diff(out) > 0)
    assert np.all((out >= 0) & (out < 1))
    # q = 1: the whole field holds the content, outage from u() alone
    lone = l_func_limited(1.0, 1.0, 4.0)
    assert abs(lone - (1.0 - 1.0 / (math.pi / 4.0 + 1.0))) < 1e-12
    with pytest.raises(ParameterError):
        l_func_limited(1.0, 0.5, 4.0)
    with pytest.raises(ParameterError):
        l_func_limited(-1.0, 5.0, 4.0)


def test_general_outage_reduces_to_limited_without_noise():
    for beta in (4.0, 6.0):
        p = radio(beta=beta)
        for g in np.geomspace(1e-3, 1e3, 20):
            lim = l_func_limited(g, 5.0, beta)
            gen = l_func_general(float(g), 1e-6, 5e-6, p)
            assert abs(gen - lim) < 1e-7


def test_general_outage_noise_raises_outage():
    p = radio(noise=0.5)
    for g in (0.1, 1.0, 10.0):
        assert l_func_general(g, 1e-6, 5e-6, p) > l_func_limited(g, 5.0, 4.0)


def test_general_outage_guards():
    with pytest.raises(ParameterError):
        l_func_general(1.0, 0.0, 5e-6, radio())
    with pytest.raises(ParameterError):
        l_func_general(1.0, 6e-6, 5e-6, radio())
    with pytest.raises(ParameterError):
        l_func_general(-1.0, 1e-6, 5e-6, radio())


def test_distance_rule_averages_the_survival_law_to_the_outage_oracle():
    # the estimators average the survival law _sinr_coeffs(..., lambda_l)
    # gives the kernel; over the distance rule it must be the coverage
    # 1 - L(gamma) of the independent oracle, also where the noise factor
    # decays much faster than the distance weight (steep pathloss, strong noise)
    d = np.sqrt(_T_NODES / (np.pi * 1e-6))
    for beta, noise in ((4.0, 0.0), (4.0, 0.3), (8.0, 2.0)):
        p = radio(beta=beta, noise=noise)
        for g in np.geomspace(1e-2, 1e2, 10):
            c1, c2 = _sinr_coeffs(g, 5e-6, p, 1e-6)
            coverage = _T_WEIGHTS @ np.exp(-(c1 * d ** 2 + c2 * d ** beta))
            assert abs(coverage - (1.0 - l_func_general(float(g), 1e-6, 5e-6, p))) < 1e-8


# -- content-level capacity -------------------------------------------------


def test_content_capacity_scales_with_popularity(quick_quantizer, monkeypatch):
    real, calls = effcap.log_moments, []
    monkeypatch.setattr(effcap, "log_moments",
                        lambda *args, **kwargs: calls.append(None) or real(*args, **kwargs))
    for noise in (0.0, 0.3):
        p = radio(noise=noise, mu=1e6)
        (full,), = avg_eff_cap_content((0.1,), [1.0], [1e-6], 5e-6, p, quick_quantizer)
        (half,), = avg_eff_cap_content((0.1,), [0.5], [1e-6], 5e-6, p, quick_quantizer)
        for h, f in zip(half, full):
            assert abs(h - 0.5 * f) < 1e-9 * f
        # each exponent of a sequence keeps the bytes of a call of its own
        assert avg_eff_cap_content((0.1, 0.6), [0.5], [1e-6], 5e-6, p, quick_quantizer) \
            == [[half, *avg_eff_cap_content((0.6,), [0.5], [1e-6], 5e-6, p,
                                            quick_quantizer)[0]]]
        # popularity 0: a zero pair per exponent, with no kernel pass
        calls.clear()
        assert avg_eff_cap_content((0.1, 0.6), [0.0], [1e-6], 5e-6, p, quick_quantizer) \
            == [[(0.0, 0.0)] * 2]
        assert not calls


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_catalog_pass_keeps_each_contents_lone_bytes(quick_quantizer, monkeypatch, cpus):
    # two unrequested contents (one with holders, one without), two adjacent
    # contents sharing lambda_l and a last one sharing the first's: one pass
    # over the two distinct requested laws gives every content a lone
    # call's bytes
    _report_cpus(monkeypatch, cpus)
    p = radio(noise=0.3, mu=1e6)
    pops = (0.4, 0.0, 0.2, 0.2, 0.0, 0.2)
    lams = (1e-6, 3e-6, 2e-6, 2e-6, 0.0, 1e-6)
    real, sizes = effcap.log_moments, []

    def counted(d, *args, **kwargs):
        sizes.append(np.size(d))
        return real(d, *args, **kwargs)

    monkeypatch.setattr(effcap, "log_moments", counted)
    got = avg_eff_cap_content((0.1, 0.6), pops, lams, 5e-6, p, quick_quantizer)
    assert sizes == [2 * _T_NODES.size]
    for caps, popularity, lam in zip(got, pops, lams):
        want, = avg_eff_cap_content((0.1, 0.6), [popularity], [lam], 5e-6, p,
                                    quick_quantizer)
        assert _hexes(caps) == _hexes(want)
    assert got[1] == got[4] == [(0.0, 0.0)] * 2


def test_unrequested_content_needs_no_holders(quick_quantizer):
    # a content with P_l = 0 gets no share of the field (lambda_l = 0 under
    # the popularity split) and contributes 0 to both estimators
    p = radio(mu=1e6)
    assert avg_eff_cap_content((0.1,), [0.0], [0.0], 5e-6, p, quick_quantizer) \
        == [[(0.0, 0.0)]]
    cat = ContentCatalog(1e6, np.array([0.5, 0.5, 0.0]))
    fc, fl = per_content_eff_caps(cat, uniform_qos(0.1, 0.6, 3),
                                  5e-6 * cat.popularity, 5e-6, p, quick_quantizer)
    assert fc[2] == fl[2] == 0.0 and fc[0] > fl[0] > 0.0
    # a requested content still needs holders
    with pytest.raises(ParameterError):
        avg_eff_cap_content((0.1,), [0.5], [0.0], 5e-6, p, quick_quantizer)


@pytest.mark.parametrize("lambda_l", [1.37e-7, 1e-6])
@pytest.mark.parametrize("theta", [0.1, 0.6])
def test_content_capacity_resolves_mass_at_tiny_distances(quick_quantizer, lambda_l,
                                                          theta):
    # steep pathloss and a noise floor put the capacity mass at
    # t = pi*lambda_l*d^2 < 1e-4, far below where the mean distance sits;
    # the integral must still find it there
    p = radio(beta=8.0, noise=1.0, mu=1e6)
    ((got, _),), = avg_eff_cap_content((theta,), [1.0], [lambda_l], 5e-6, p,
                                       quick_quantizer)
    want = distance_avg_cap_quad(theta, lambda_l, 5e-6, p, quick_quantizer)
    assert abs(got - want) <= 1e-9 * want


@pytest.mark.parametrize("beta, noise, tol", [(4.0, 0.0, 1e-12), (4.0, 0.3, 1e-10),
                                              (8.0, 1.0, 1e-8)])
@pytest.mark.parametrize("lambda_l", [1.37e-7, 1e-6])
@pytest.mark.parametrize("theta", [0.1, 0.6])
def test_moment_estimator_matches_adaptive_quadrature(quick_quantizer, beta, noise, tol,
                                                      lambda_l, theta):
    # -ln E_t[G] on the fixed distance rule against the quad oracle of
    # the same average, up to steep pathloss with a strong noise floor
    p = radio(beta=beta, noise=noise, mu=1e6)
    ((_, got),), = avg_eff_cap_content((theta,), [1.0], [lambda_l], 5e-6, p,
                                       quick_quantizer)
    want = moment_avg_cap_quad(theta, lambda_l, 5e-6, p, quick_quantizer)
    assert abs(got - want) <= tol * want


@pytest.mark.parametrize("zipf", [0.0, 0.5, 1.0, 2.0])
def test_content_capacity_matches_adaptive_quadrature(scenario, quick_quantizer, zipf):
    catalog = ContentCatalog.zipf(scenario.object_size_bits, zipf, scenario.content_count)
    p = scenario.radio()
    for lambda_l in set((scenario.lambda_rrh * catalog.popularity).tolist()):
        for theta in (scenario.theta_cluster[0], scenario.theta_cloud[0]):
            ((got, _),), = avg_eff_cap_content((theta,), [1.0], [lambda_l],
                                               scenario.lambda_rrh, p, quick_quantizer)
            want = distance_avg_cap_quad(theta, lambda_l, scenario.lambda_rrh, p,
                                         quick_quantizer)
            assert abs(got - want) <= 1e-11 * want


def test_content_capacity_estimator_ordering(quick_quantizer):
    # averaging the capacity over the distance law can only beat mapping
    # the averaged SINR law (convexity of -log)
    for beta, noise in ((4.0, 0.0), (8.0, 1.0)):
        p = radio(beta=beta, noise=noise, mu=1e6)
        for theta, lam_l in ((0.1, 1e-6), (0.6, 2.5e-6), (0.05, 5e-6)):
            ((da, qm),), = avg_eff_cap_content((theta,), [1.0], [lam_l], 5e-6, p,
                                               quick_quantizer)
            assert da >= qm > 0.0


def test_content_capacity_guards(quick_quantizer):
    for noise in (0.0, 0.3):
        p = radio(noise=noise, mu=1e6)
        # an exponent <= 0 anywhere in the sequence, even for an unrequested
        # content: the exponents are checked before popularity 0 returns
        for thetas in ((0.0,), (0.1, 0.0), (-0.1, 0.6), (0.1, 0.6, -1e-9)):
            for popularity in (1.0, 0.0):
                with pytest.raises(ParameterError):
                    avg_eff_cap_content(thetas, [popularity], [1e-6], 5e-6, p,
                                        quick_quantizer)
        with pytest.raises(ParameterError):
            avg_eff_cap_content((0.1,), [1.0], [6e-6], 5e-6, p, quick_quantizer)
        with pytest.raises(ParameterError):
            avg_eff_cap_content((0.1,), [1.5], [1e-6], 5e-6, p, quick_quantizer)
        with pytest.raises(ParameterError):
            avg_eff_cap_content((0.1,), [0.5, 0.5], [1e-6], 5e-6, p, quick_quantizer)


def _cluster_pieces():
    cat = ContentCatalog.zipf(1e6, 1.0, 3)
    qos = uniform_qos(0.1, 0.6, 3)
    split = 5e-6 * cat.popularity
    return cat, qos, split


def test_per_content_vectors_carry_popularity_weight(quick_quantizer):
    cat, qos, split = _cluster_pieces()
    p = radio(mu=1e6)
    fc, fl = per_content_eff_caps(cat, qos, split, 5e-6, p, quick_quantizer)
    assert fc.shape == fl.shape == (3,)
    assert np.all(fc > fl)      # softer exponent from the cache side
    ((bare, _),), = avg_eff_cap_content((0.1,), [1.0], split[:1], 5e-6, p,
                                        quick_quantizer)
    assert abs(fc[0] - cat.popularity[0] * bare) < 1e-9 * fc[0]


def test_per_content_alignment_guard(quick_quantizer):
    cat, qos, split = _cluster_pieces()
    with pytest.raises(ParameterError):
        per_content_eff_caps(cat, qos, split[:2], 5e-6, radio(mu=1e6), quick_quantizer)


def test_cluster_capacity_cache_extremes(quick_quantizer):
    cat, qos, split = _cluster_pieces()
    p = radio(mu=1e6)
    fc, fl = per_content_eff_caps(cat, qos, split, 5e-6, p, quick_quantizer)
    none = avg_eff_cap_cluster(hit_ratio(ClusterCache(), cat), fc, fl)
    full = avg_eff_cap_cluster(hit_ratio(ClusterCache(3), cat), fc, fl)
    assert abs(none - fl.sum()) < 1e-9
    assert abs(full - fc.sum()) < 1e-9
    # growing the cache along the popularity prefix never hurts
    caps = [avg_eff_cap_cluster(hit_ratio(ClusterCache(k), cat), fc, fl) for k in range(4)]
    assert all(b >= a - 1e-12 for a, b in zip(caps, caps[1:]))


def test_caching_gain_sign_and_zero(quick_quantizer):
    cat, qos, split = _cluster_pieces()
    p = radio(mu=1e6)
    p_hit = hit_ratio(ClusterCache(2), cat)
    fc, fl = per_content_eff_caps(cat, qos, split, 5e-6, p, quick_quantizer)
    assert caching_gain(p_hit, fc, fl) > 0.0
    flat = uniform_qos(0.3, 0.3, 3)
    assert caching_gain(p_hit, *per_content_eff_caps(cat, flat, split, 5e-6, p,
                                                     quick_quantizer)) == 0.0
    assert caching_gain(hit_ratio(ClusterCache(), cat), fc, fl) == 0.0


def _catalogs():
    zipf0 = ContentCatalog.zipf(1e6, 0.0, 5)
    ranked = ContentCatalog.zipf(1e6, 1.0, 4)
    flat = ContentCatalog.zipf(1e6, 0.5, 3)
    with_zero = ContentCatalog(1e6, np.array([0.6, 0.4, 0.0]))
    return {
        # five identical contents: one integral pair serves them all
        "zipf0": (zipf0, uniform_qos(0.1, 0.6, 5), 5e-6 * zipf0.popularity),
        "theta-vectors": (ranked, QosProfile(np.array([0.05, 0.1, 0.2, 0.4]),
                                             np.array([0.3, 0.5, 0.7, 0.9])),
                          5e-6 * ranked.popularity),
        "flat": (flat, uniform_qos(0.3, 0.3, 3), 5e-6 * flat.popularity),
        # a zero-popularity content that still has holders
        "zero-popularity": (with_zero, uniform_qos(0.1, 0.6, 3),
                            np.full(3, 5e-6 / 3)),
    }


@pytest.mark.parametrize("name", list(_catalogs()))
def test_per_content_caps_match_lone_integrals_bytewise(quick_quantizer, name):
    cat, qos, split = _catalogs()[name]
    p = radio(mu=1e6)
    got = per_content_eff_caps(cat, qos, split, 5e-6, p, quick_quantizer)
    want = per_content_eff_caps_one_by_one(cat, qos, split, 5e-6, p, quick_quantizer)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    if name == "zero-popularity":
        assert got[0][2] == got[1][2] == 0.0


@pytest.mark.parametrize("noise", [0.0, 0.3])
@pytest.mark.parametrize("beta", [4.0, 6.0])
def test_doubling_theta_and_halving_the_object_halves_content_caps_exactly(noise, beta):
    # halving the object halves mu, so a = mu*theta*W*Tbar and every G keep
    # their bytes, and -ln G/(theta*W*T) divides by a theta twice as large;
    # every factor is a power of two, so the halving is exact
    def caps(s):
        cat = s.catalog()
        return per_content_eff_caps(cat, s.qos(), s.lambda_rrh * cat.popularity,
                                    s.lambda_rrh, s.radio(), s.quantizer())

    base = Scenario(noise=noise, pathloss_exponent=beta)
    scaled = replace(base, theta_cluster=tuple(2 * t for t in base.theta_cluster),
                     theta_cloud=tuple(2 * t for t in base.theta_cloud),
                     object_size_bits=base.object_size_bits / 2)
    for want, got in zip(caps(base), caps(scaled)):
        assert np.all(want > 0.0)
        assert np.array_equal(got, want / 2)


def test_per_content_caps_share_kernel_passes(quick_quantizer, monkeypatch):
    # one pass over the distance nodes per distinct exponent pair, shared by
    # both exponents and every content with that pair; counted, so no
    # timing is involved
    real, calls = effcap.log_moments, []
    monkeypatch.setattr(effcap, "log_moments",
                        lambda *args, **kwargs: calls.append(None) or real(*args, **kwargs))

    def passes(run) -> int:
        calls.clear()
        run()
        return len(calls)

    p = radio(mu=1e6)
    cat = ContentCatalog.zipf(1e6, 0.0, 5)
    split = 5e-6 * cat.popularity
    for thetas in ((0.1,), (0.6,), (0.1, 0.6)):
        assert passes(lambda: avg_eff_cap_content(thetas, cat.popularity, split, 5e-6, p,
                                                  quick_quantizer)) == 1
    assert passes(lambda: per_content_eff_caps(cat, uniform_qos(0.1, 0.6, 5),
                                               split, 5e-6, p, quick_quantizer)) == 1
    ranked = ContentCatalog.zipf(1e6, 1.0, 4)
    assert passes(lambda: per_content_eff_caps(ranked, uniform_qos(0.1, 0.6, 4),
                                               5e-6 * ranked.popularity, 5e-6, p,
                                               quick_quantizer)) == 1
    # three exponent pairs: the first and the last content share one
    mixed = QosProfile(np.array([0.05, 0.1, 0.2, 0.05]), np.array([0.3, 0.5, 0.7, 0.3]))
    assert passes(lambda: per_content_eff_caps(ranked, mixed, 5e-6 * ranked.popularity,
                                               5e-6, p, quick_quantizer)) == 3
    # a catalog nobody requests makes no pass
    assert passes(lambda: avg_eff_cap_content((0.1,), [0.0, 0.0], [1e-6, 2e-6], 5e-6, p,
                                              quick_quantizer)) == 0
