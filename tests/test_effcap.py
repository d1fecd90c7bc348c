import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

import crancache
from crancache.content import ContentCatalog, ClusterCache, hit_ratio
from crancache.effcap import (LN2, Quantizer, RadioParams,
                              a_beta, avg_eff_cap_cluster, avg_eff_cap_content,
                              caching_gain, eff_cap_user, l_func_limited,
                              outage_prob,
                              per_content_eff_caps,
                              required_spectral_efficiency, u_func)
from crancache.effcap import (_LINK_BLOCK, _demand_moment, _folded_moment, _l_grid,
                              _log_moments, _moment_weights, _sinr_coeffs)
from crancache.errors import DomainError, ParameterError
from crancache.games import random_instance
from crancache.qos import QosProfile
from crancache.scenario import Scenario

from conftest import radio
from oracles import k_table_single, l_func_general


# -- geometry constant ------------------------------------------------------


def test_geometry_constant_reference_values():
    assert abs(a_beta(4.0) - math.pi / 4.0) < 1e-12
    assert abs(a_beta(6.0) - 0.6045997880780726) < 1e-12
    assert abs(a_beta(8.0) - 0.5553603672697958) < 1e-12


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
    with pytest.raises(ParameterError):
        RadioParams(snr=0.0, pathloss_exponent=4.0, noise=0.0,
                    bandwidth_hz=1000.0, slot_s=1e-3, spectral_efficiency=1.0)


# -- quantizer --------------------------------------------------------------


def test_quantizer_geometric_shape():
    q = Quantizer.geometric(64, 1e4, 1e-6)
    assert q.n_intervals == 64
    assert q.boundaries[0] == 0.0
    assert q.boundaries[1] == 1e-6
    assert q.gamma_max == 1e4
    assert np.all(np.diff(q.boundaries) > 0)
    np.testing.assert_allclose(q.midpoints,
                               0.5 * (q.boundaries[:-1] + q.boundaries[1:]))


def test_quantizer_equal_width_shape():
    q = Quantizer.equal_width(10, 5.0)
    np.testing.assert_allclose(q.boundaries, np.linspace(0.0, 5.0, 11))


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
            k = inst._k_table(inst._log_moment_exponent(content, n))
            theta = inst.theta_of(content)
            for (u, r), d in np.ndenumerate(inst._dist):
                got = eff_cap_user(theta, d, inst.lambda_rrh, params, inst.quantizer)
                assert got == pytest.approx(mu * k[u, r], rel=1e-12)


def test_eff_cap_monotone_in_theta_and_distance():
    q = wide_quantizer()
    thetas = [0.02, 0.1, 0.5, 2.0]
    vals = [eff_cap_user(t, 50.0, 5e-6, radio(), q) for t in thetas]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    dists = [10.0, 50.0, 200.0]
    vals = [eff_cap_user(0.1, d, 5e-6, radio(), q) for d in dists]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_eff_cap_increases_with_pathloss_exponent():
    # at 50 m the serving link is strong; steeper decay hurts the (farther)
    # interferers more than the signal, so capacity grows with beta
    q = wide_quantizer()
    vals = [eff_cap_user(0.1, 50.0, 5e-6, radio(beta=b), q)
            for b in (4.0, 6.0, 8.0)]
    assert vals[0] < vals[1] < vals[2]


def test_eff_cap_regression_values():
    # anchors cross-checked against Monte Carlo (acceptance suite re-runs
    # that comparison at full trial count)
    q = Quantizer.geometric(1 << 16, 1e12)
    assert abs(eff_cap_user(0.1, 50.0, 5e-6, radio(), q) - 6.13618) < 2e-4
    assert abs(eff_cap_user(0.6, 50.0, 5e-6, radio(beta=8.0), q)
               - 4.97376) < 2e-4


def test_eff_cap_small_theta_reaches_ergodic_capacity():
    # theta -> 0 limit is E[log2(1+SINR)] = (1/ln2) int S(x)/(1+x) dx
    k1 = 2 * math.pi * a_beta(4.0) * 5e-6 * 2500.0
    val, _ = integrate.quad(lambda x: math.exp(-k1 * math.sqrt(x)) / (1 + x),
                            0.0, np.inf, epsabs=1e-12, epsrel=1e-10, limit=400)
    ergodic = val / LN2
    got = eff_cap_user(1e-8, 50.0, 5e-6, radio(), wide_quantizer(1 << 16))
    assert abs(got - ergodic) / ergodic < 0.01


def test_eff_cap_bounded_by_grid_ceiling():
    q = Quantizer.geometric(256, 100.0)
    v = eff_cap_user(0.01, 1.0, 5e-6, radio(), q)
    assert v <= 1.0 * math.log2(1.0 + 100.0) + 1e-9


_PROPERTY_GRID = Quantizer.geometric(512)


def _k_of_lengths(d, a, noise):
    """K = -ln G / (a ln 2) from the kernel's log-moments, one per link length.

    G >= (1 + gamma_max)^(-a) > 1e-240 for a <= 50, so these inputs never
    reach the underflow DomainError.
    """
    q = _PROPERTY_GRID
    c1, c2 = _sinr_coeffs(q.boundaries, 5e-6, radio(noise=noise))
    g, = _log_moments(np.asarray(d, dtype=float), c1, c2, 4.0, [_moment_weights(q, a)])
    return -np.log(_demand_moment(g)) / (a * LN2)


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
    assert near <= math.log2(1.0 + _PROPERTY_GRID.gamma_max) * (1.0 + 1e-12)


@given(_LENGTHS, _EXPONENTS, _STRETCHES, _NOISES)
def test_k_non_increasing_in_the_exponent(d, a, stretch, noise):
    # 2^-K is the power mean of order a of 1/(1 + gamma), non-decreasing in a
    loose, = _k_of_lengths([d], a, noise)
    strict, = _k_of_lengths([d], a * stretch, noise)
    assert strict <= loose + _k_slack(loose, a)


def test_eff_cap_quantizer_refinement_converges():
    coarse = eff_cap_user(0.1, 50.0, 5e-6, radio(), Quantizer.geometric(1 << 12, 1e12))
    fine = eff_cap_user(0.1, 50.0, 5e-6, radio(), Quantizer.geometric(1 << 17, 1e12))
    assert abs(coarse - fine) / fine < 5e-3


def test_eff_cap_equal_width_grid_agrees_at_moderate_exponent():
    geo = eff_cap_user(0.6, 50.0, 5e-6, radio(), Quantizer.geometric(1 << 16, 5e4))
    eq = eff_cap_user(0.6, 50.0, 5e-6, radio(), Quantizer.equal_width(10 ** 6, 5e4))
    assert abs(geo - eq) / geo < 5e-3


def test_eff_cap_guards():
    q = wide_quantizer(256)
    with pytest.raises(ParameterError):
        eff_cap_user(0.0, 50.0, 5e-6, radio(), q)
    with pytest.raises(ParameterError):
        eff_cap_user(0.1, -1.0, 5e-6, radio(), q)
    with pytest.raises(ParameterError):
        eff_cap_user(0.1, 50.0, 0.0, radio(), q)


def test_eff_cap_underflow_at_zero_distance_is_a_domain_error():
    # at d = 0 every survival value is 1, so all mass folds onto the top
    # interval, whose weight (1 + midpoint)^(-a) underflows to 0 at the
    # delivery exponent; the log-moment has no finite capacity
    s = Scenario()
    with pytest.raises(DomainError, match="underflows"):
        eff_cap_user(0.1, 0.0, 5e-6, s.radio(), s.quantizer())


def _one_block_log_moments(d, c1, c2, beta, weights):
    # the kernel before link blocking: every link in one survival block
    d = np.asarray(d, dtype=float)[..., None]
    d_sq, d_beta = d ** 2, d ** beta
    g, = _folded_moment(lambda sl: np.exp(-d_sq * c1[sl] - d_beta * c2[sl]), [weights])
    return g


@pytest.mark.parametrize("noise", [0.0, 0.3])
def test_blocked_log_moments_match_one_block_oracle(noise):
    # link blocking must not move a bit: block edges, short tail blocks and
    # a lone last link (folded into the block before it) all sum the same
    b = _LINK_BLOCK
    q = Quantizer.geometric(20000, 1e6)
    c1, c2 = _sinr_coeffs(q.boundaries, 5e-6, radio(noise=noise))
    weights = _moment_weights(q, 3.0)
    rng = np.random.default_rng(7)
    for links in (1, 2, b - 1, b, b + 1, 2 * b + 1, 3 * b + 1):
        d = rng.uniform(1.0, 800.0, size=(2, links))
        for dd in (d[0], d, d[0, 0]):
            got, = _log_moments(dd, c1, c2, 4.0, [weights])
            assert got.shape == np.shape(dd)
            assert np.array_equal(got, _one_block_log_moments(dd, c1, c2, 4.0, weights))


def test_zero_length_link_in_last_block_is_a_domain_error():
    q = Quantizer.geometric(4096, 1e6)
    c1, c2 = _sinr_coeffs(q.boundaries, 5e-6, radio())
    d = np.linspace(10.0, 500.0, 2 * _LINK_BLOCK + 3)
    d[-1] = 0.0
    g, = _log_moments(d, c1, c2, 4.0, [_moment_weights(q, 200.0)])
    with pytest.raises(DomainError, match="underflows"):
        _demand_moment(g)


def test_only_the_underflowing_exponent_raises():
    # one pass over two exponents: the mild one is usable on every link,
    # the strict one underflows on the zero-length link alone
    q = Quantizer.geometric(4096, 1e6)
    c1, c2 = _sinr_coeffs(q.boundaries, 5e-6, radio())
    d = np.linspace(10.0, 500.0, _LINK_BLOCK + 3)
    d[2] = 0.0
    mild, strict = _log_moments(d, c1, c2, 4.0, [_moment_weights(q, 1.0),
                                                 _moment_weights(q, 200.0)])
    assert _demand_moment(mild) is mild
    with pytest.raises(DomainError, match="underflows"):
        _demand_moment(strict)
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
    first = min(family)
    inst._k_table(first)
    assert set(inst._k_cache) == family
    for a in family:
        assert np.array_equal(inst._k_table(a), k_table_single(inst, a))
    # an exponent outside the family is built alone on its own miss
    stray = 0.5 * first
    assert np.array_equal(inst._k_table(stray), k_table_single(inst, stray))
    assert set(inst._k_cache) == family | {stray}


def test_k_table_underflow_surfaces_only_on_demand():
    # user 0 sits on RRH 0: the delivery exponents underflow on that link,
    # a mild exponent built in the same pass does not
    inst = random_instance(42, 6, 12)
    inst._dist[0, 0] = 0.0
    mild = 1e-3
    assert np.array_equal(inst._k_table(mild), k_table_single(inst, mild))
    for a in inst._k_cache.keys() - {mild}:
        with pytest.raises(DomainError, match="underflows"):
            inst._k_table(a)


_K_TABLE_DIGEST = """
import hashlib
from crancache.effcap import Quantizer
from crancache.games import random_instance
inst = random_instance(3, 11, 23, noise=0.2, quantizer=Quantizer.geometric(1 << 14, 1e6))
table = inst._k_table(inst._log_moment_exponent(0, 2))
print(hashlib.sha256(table.tobytes()).hexdigest())
"""


def test_k_table_bytes_do_not_depend_on_blas_threads():
    # outputs are a function of (config, seed) alone; a gemv split across
    # BLAS threads sums its rows in another order, so each child sets the
    # thread count before numpy loads
    src = str(Path(crancache.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", _K_TABLE_DIGEST], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(run.stdout)
    assert len(digests) == 1


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


def test_outage_grid_matches_pointwise_quadrature():
    # the vectorized Laguerre grid must agree with adaptive quadrature,
    # including where the noise factor decays much faster than the
    # nearest-holder distance weight (steep pathloss, strong noise)
    for beta, noise in ((4.0, 0.3), (8.0, 2.0)):
        p = radio(beta=beta, noise=noise)
        b = np.geomspace(1e-2, 1e2, 10)
        grid = _l_grid(b, 1e-6, 5e-6, p)
        for i, g in enumerate(b):
            assert abs(grid[i] - l_func_general(float(g), 1e-6, 5e-6, p)) < 1e-6


# -- content-level capacity -------------------------------------------------


def test_content_capacity_scales_with_popularity(quick_quantizer):
    p = radio(mu=1e6)
    full = avg_eff_cap_content(0.1, 1.0, 1e-6, 5e-6, p, quick_quantizer)
    half = avg_eff_cap_content(0.1, 0.5, 1e-6, 5e-6, p, quick_quantizer)
    assert abs(half - 0.5 * full) < 1e-9 * full
    assert avg_eff_cap_content(0.1, 0.0, 1e-6, 5e-6, p, quick_quantizer) == 0.0


def test_content_capacity_estimator_ordering(quick_quantizer):
    # averaging the capacity over the distance law can only beat mapping
    # the averaged SINR law (convexity of -log)
    p = radio(mu=1e6)
    for theta, lam_l in ((0.1, 1e-6), (0.6, 2.5e-6), (0.05, 5e-6)):
        da = avg_eff_cap_content(theta, 1.0, lam_l, 5e-6, p, quick_quantizer,
                                 form="distance_avg")
        qm = avg_eff_cap_content(theta, 1.0, lam_l, 5e-6, p, quick_quantizer,
                                 form="quantized_moment")
        assert da >= qm > 0.0


def test_content_capacity_guards(quick_quantizer):
    p = radio(mu=1e6)
    with pytest.raises(ParameterError):
        avg_eff_cap_content(0.1, 1.0, 1e-6, 5e-6, p, quick_quantizer, form="midpoint")
    with pytest.raises(ParameterError):
        avg_eff_cap_content(0.0, 1.0, 1e-6, 5e-6, p, quick_quantizer)
    with pytest.raises(ParameterError):
        avg_eff_cap_content(0.1, 1.0, 6e-6, 5e-6, p, quick_quantizer)
    with pytest.raises(ParameterError):
        avg_eff_cap_content(0.1, 1.5, 1e-6, 5e-6, p, quick_quantizer)


def _cluster_pieces():
    cat = ContentCatalog.zipf(1e6, 1.0, 3)
    qos = QosProfile.uniform(0.1, 0.6, 3)
    split = 5e-6 * cat.popularity
    return cat, qos, split


def test_per_content_vectors_carry_popularity_weight(quick_quantizer):
    cat, qos, split = _cluster_pieces()
    p = radio(mu=1e6)
    fc, fl = per_content_eff_caps(cat, qos, split, 5e-6, p, quick_quantizer)
    assert fc.shape == fl.shape == (3,)
    assert np.all(fc > fl)      # softer exponent from the cache side
    bare = avg_eff_cap_content(0.1, 1.0, float(split[0]), 5e-6, p, quick_quantizer)
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
    full = avg_eff_cap_cluster(hit_ratio(ClusterCache(stored=frozenset(range(3))), cat),
                               fc, fl)
    assert abs(none - fl.sum()) < 1e-9
    assert abs(full - fc.sum()) < 1e-9
    # growing the cache along the popularity prefix never hurts
    caps = [avg_eff_cap_cluster(hit_ratio(ClusterCache(stored=frozenset(range(k))), cat),
                                fc, fl)
            for k in range(4)]
    assert all(b >= a - 1e-12 for a, b in zip(caps, caps[1:]))


def test_caching_gain_sign_and_zero(quick_quantizer):
    cat, qos, split = _cluster_pieces()
    p = radio(mu=1e6)
    p_hit = hit_ratio(ClusterCache(stored=frozenset({0, 1})), cat)
    fc, fl = per_content_eff_caps(cat, qos, split, 5e-6, p, quick_quantizer)
    assert caching_gain(p_hit, fc, fl) > 0.0
    flat = QosProfile.uniform(0.3, 0.3, 3)
    assert caching_gain(p_hit, *per_content_eff_caps(cat, flat, split, 5e-6, p,
                                                     quick_quantizer)) == 0.0
    assert caching_gain(hit_ratio(ClusterCache(), cat), fc, fl) == 0.0
