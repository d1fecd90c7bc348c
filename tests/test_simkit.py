import math
import os
import sys
import threading
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy import stats

from crancache.effcap import RadioParams, a_beta, log_moment_exponent
from crancache.errors import ParameterError
from crancache.geometry import (DEFAULT_SIM_RADIUS, STREAM_FADING, NetworkRealization,
                                substream)
from crancache import simkit
from crancache.simkit import MIN_TRIALS, SINR_CAP, mc_eff_cap, sample_sinr_batch

from oracles import enumerate_partitions, sample_sinr_batch_in_one_pass, simulate_sinr


def _params(beta=4.0, noise=0.0, mu=1.0):
    return RadioParams(pathloss_exponent=beta, noise=noise,
                       bandwidth_hz=1000.0, slot_s=1e-3, spectral_efficiency=mu)


def test_sample_batch_shape_and_determinism():
    p = _params(noise=1.0)
    a = sample_sinr_batch(50.0, 5e-6, p, 500, substream(3, STREAM_FADING))
    b = sample_sinr_batch(50.0, 5e-6, p, 500, substream(3, STREAM_FADING))
    assert a.shape == (500,)
    assert np.array_equal(a, b)
    c = sample_sinr_batch(50.0, 5e-6, p, 500, substream(4, STREAM_FADING))
    assert not np.array_equal(a, c)


def test_sample_batch_guards():
    p = _params()
    rng = substream(0, STREAM_FADING)
    with pytest.raises(ParameterError):
        sample_sinr_batch(0.0, 5e-6, p, 100, rng)
    with pytest.raises(ParameterError):
        sample_sinr_batch(50.0, 0.0, p, 100, rng)
    with pytest.raises(ParameterError):
        sample_sinr_batch(50.0, 5e-6, p, 0, rng)
    with pytest.raises(ParameterError):
        sample_sinr_batch(50.0, 5e-6, p, 100, rng, sim_radius=0.0)


def test_sample_batch_bounds_its_draws_before_drawing(monkeypatch):
    # 100 trials at the default density expect 100 * (62.8 + 1) ~ 6,383
    # links; a bound just below that must refuse the batch and leave the
    # generator untouched, one just above must run it
    p = _params()
    monkeypatch.setattr(simkit, "MAX_DRAWS", 6_000)
    rng = substream(0, STREAM_FADING)
    state = rng.bit_generator.state
    with pytest.raises(ParameterError, match="draws"):
        sample_sinr_batch(50.0, 5e-6, p, 100, rng)
    assert rng.bit_generator.state == state
    monkeypatch.setattr(simkit, "MAX_DRAWS", 6_500)
    assert sample_sinr_batch(50.0, 5e-6, p, 100, rng).shape == (100,)


def test_default_draw_bound_admits_a_million_default_trials():
    # on the bound's formula alone, so no test ever makes the big request:
    # 10^6 trials fit at the default density, the default 10^5 trials at
    # lambda_rrh = 1e-2 (a ~94 GiB batch) do not
    def links(trials, lambda_rrh):
        return trials * (lambda_rrh * math.pi * 2000.0 ** 2 + 1.0)

    assert links(1_000_000, 5e-6) < simkit.MAX_DRAWS
    assert links(100_000, 1e-2) > simkit.MAX_DRAWS


# (trials, lambda_rrh, beta, noise, CHUNK_DRAWS or None for the module's,
# chunks the seed-1 batch walks)
STREAMED_CASES = {
    "one-default-chunk": (2000, 5e-6, 4.0, 0.0, None, 1),
    "just-past-one-chunk": (2200, 5e-6, 4.0, 0.0, None, 2),
    "default-chunks-noisy": (8193, 5e-6, 4.0, 0.3, None, 4),
    "many-small-chunks": (3000, 5e-6, 4.0, 0.3, 1000, 189),
    "trials-over-the-budget": (500, 5e-6, 4.0, 0.0, 50, 634),
    "beta-3": (4000, 5e-6, 3.0, 0.3, 4096, 62),
    "beta-6": (4000, 5e-6, 6.0, 0.0, 4096, 62),
    "ten-times-density": (1000, 5e-5, 4.0, 0.0, None, 5),
    # ~0.25 interferers a trial: 76% of trials and 61 chunks draw nothing
    "sparse": (2000, 2e-8, 4.0, 0.0, 1, 532),
    "sparse-noisy": (2000, 2e-8, 4.0, 0.3, 1, 532),
    "no-interferer-at-all": (50, 1e-12, 4.0, 0.0, None, 1),
}


@pytest.mark.parametrize("case", sorted(STREAMED_CASES))
def test_streamed_batch_matches_the_one_pass_oracle(case, monkeypatch):
    # the chunked walk must return the one-pass sample bit for bit, leave
    # the generator where one pass leaves it, and warn as one pass warns,
    # with its radius stage on the calling thread (1 CPU) or a worker (2)
    trials, lam, beta, noise, chunk, chunks = STREAMED_CASES[case]
    if chunk is not None:
        monkeypatch.setattr(simkit, "CHUNK_DRAWS", chunk)
    counts = substream(1, STREAM_FADING).poisson(lam * math.pi * DEFAULT_SIM_RADIUS ** 2,
                                                 size=trials)
    assert len(range(simkit.CHUNK_DRAWS, int(counts.sum()), simkit.CHUNK_DRAWS)) + 1 == chunks
    p = _params(beta=beta, noise=noise)

    def sample(sampler):
        rng = substream(1, STREAM_FADING)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sinr = sampler(50.0, lam, p, trials, rng, DEFAULT_SIM_RADIUS)
        return sinr, rng.bit_generator.state, [str(w.message) for w in caught]

    expect, expect_state, expect_warned = sample(sample_sinr_batch_in_one_pass)
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        got, got_state, got_warned = sample(sample_sinr_batch)
        assert np.array_equal(got, expect)
        assert got_state == expect_state
        assert got_warned == expect_warned
    assert bool(got_warned) == (noise == 0.0 and not counts.all())
    if case == "no-interferer-at-all":
        assert np.all(got == SINR_CAP)


def _power_on_threads(monkeypatch, cpus: int, fail_off_caller: bool = False) -> set:
    """The threads that call ``np.power`` from here on, with ``cpus`` CPUs
    reported; with ``fail_off_caller``, a call off this thread raises."""
    real_power, caller, runners = np.power, threading.get_ident(), set()

    def power(*args, **kwargs):
        runners.add(threading.get_ident())
        if fail_off_caller and threading.get_ident() != caller:
            raise RuntimeError("radius stage failed")
        return real_power(*args, **kwargs)

    monkeypatch.setattr(np, "power", power)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return runners


def test_radius_stage_runs_on_a_worker_that_ends_with_the_call(monkeypatch):
    # 62 chunks: on two CPUs every chunk's radius terms form off the calling
    # thread, on one all on it, to the same bytes, and no thread outlives
    # either call.  The GIL passes every microsecond, so a terms buffer
    # handed back too early would be refilled under the fading it multiplies
    monkeypatch.setattr(simkit, "CHUNK_DRAWS", 4096)
    p = _params(noise=0.3)
    before = threading.enumerate()
    runners = _power_on_threads(monkeypatch, 2)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = sample_sinr_batch(50.0, 5e-6, p, 4000, substream(1, STREAM_FADING))
    finally:
        sys.setswitchinterval(switch)
    assert runners and threading.get_ident() not in runners
    assert threading.enumerate() == before
    runners = _power_on_threads(monkeypatch, 1)
    serial = sample_sinr_batch(50.0, 5e-6, p, 4000, substream(1, STREAM_FADING))
    assert runners == {threading.get_ident()}
    assert np.array_equal(threaded, serial)


def test_an_error_in_the_radius_stage_reaches_the_caller(monkeypatch):
    before = threading.enumerate()
    _power_on_threads(monkeypatch, 2, fail_off_caller=True)
    with pytest.raises(RuntimeError, match="radius stage"):
        sample_sinr_batch(50.0, 5e-6, _params(), 8193, substream(1, STREAM_FADING))
    assert threading.enumerate() == before


def test_radius_stage_keeps_the_callers_error_handling(monkeypatch):
    # radii below 1 m overflow r^-beta at beta = 1e10; on either CPU count
    # the caller's np.errstate decides whether that warns or raises
    p = _params(beta=1e10, noise=1.0)
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                sample_sinr_batch(1.5, 1.0, p, 200, substream(1, STREAM_FADING), 2.0)
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                sample_sinr_batch(1.5, 1.0, p, 200, substream(1, STREAM_FADING), 2.0)


def test_sample_batch_keeps_every_interferer_of_the_trial_before_empty_ones():
    # replay the draw protocol by hand and sum each trial's terms on its
    # own: a batch whose last trials draw no interferer must still count
    # the last interferer of the trial before them
    p = _params(noise=0.0)
    trials, lam = 200, 1e-7
    rng = substream(16, STREAM_FADING)
    counts = rng.poisson(lam * math.pi * DEFAULT_SIM_RADIUS ** 2, size=trials)
    assert list(counts[-3:]) == [2, 5, 0]
    total = int(counts.sum())
    radii = DEFAULT_SIM_RADIUS * np.sqrt(rng.uniform(size=total))
    terms = radii ** -4.0 * rng.standard_exponential(total)
    signal = 50.0 ** -4.0 * rng.standard_exponential(trials)
    ends = np.cumsum(counts)
    expect = [min(s / math.fsum(terms[e - c:e]), SINR_CAP) if c else SINR_CAP
              for s, c, e in zip(signal, counts, ends)]
    with pytest.warns(UserWarning, match="capped"):
        got = sample_sinr_batch(50.0, lam, p, trials, substream(16, STREAM_FADING))
    assert got == pytest.approx(expect, rel=1e-12, abs=0.0)


def test_an_empty_trial_reads_the_cap_however_weak_its_signal():
    # from 1e80 m the signal is ~1e-320, and signal / 1e-300 falls far below
    # the cap: only the inf fill of an empty, noiseless trial puts it there
    with pytest.warns(UserWarning, match="capped"):
        got = sample_sinr_batch(1e80, 1e-20, _params(), 100, substream(1, STREAM_FADING))
    assert np.all(got == SINR_CAP)


def test_default_batch_holds_a_bounded_share_of_its_draws():
    # numpy reports its buffers to tracemalloc, so the peak is exact: one
    # default batch draws ~6.3e6 interferers, ~50 MB per array if held at once
    tracemalloc.start()
    try:
        sample_sinr_batch(50.0, 5e-6, _params(), 100_000, substream(1, STREAM_FADING))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_sample_batch_noise_only_is_exponential():
    # with no interferers the SINR is just faded signal over noise, so the
    # draws must be exponential with scale d^-beta / noise
    p = _params(noise=1.0)
    rng = substream(5, STREAM_FADING)
    sinr = sample_sinr_batch(50.0, 1e-12, p, 2000, rng)
    ks = stats.kstest(sinr, "expon", args=(0.0, 50.0 ** -4))
    assert ks.pvalue > 0.01


def test_sample_batch_heavy_tail_survival():
    # P(SINR > x) -> exp(-2 pi A lambda x^(2/beta) d^2) in the
    # interference-limited regime; at beta=8 the x^(1/4) tail is heavy
    # enough that naive running-sum accumulation visibly corrupts it
    beta = 8.0
    p = _params(beta=beta)
    rng = substream(11, STREAM_FADING)
    sinr = sample_sinr_batch(50.0, 5e-6, p, 20000, rng)
    x = 1e6
    target = math.exp(-2 * math.pi * a_beta(beta) * 5e-6 * x ** (2 / beta) * 2500.0)
    assert abs(target - 0.2517498993986517) < 1e-15
    emp = float(np.mean(sinr > x))
    se = math.sqrt(target * (1 - target) / 20000)
    assert abs(emp - target) < 4 * se


def test_sample_batch_empty_field_caps_and_warns():
    # zero noise and an (effectively) empty interference disk has no finite
    # SINR; the batch caps those trials and says so
    p = _params(noise=0.0)
    rng = substream(6, STREAM_FADING)
    with pytest.warns(UserWarning, match="capped"):
        sinr = sample_sinr_batch(50.0, 1e-12, p, 50, rng)
    assert np.all(sinr <= SINR_CAP)
    assert np.count_nonzero(sinr == SINR_CAP) >= 45


def _toy_realization(seed=13):
    rrh = np.array([[100.0, 0.0], [-40.0, 30.0], [0.0, 200.0]])
    users = np.array([[10.0, -5.0]])
    return NetworkRealization(cluster_radius=500.0, rrh_xy=rrh,
                              user_xy=users, user_content=np.array([0]),
                              seed=seed)


def test_simulate_sinr_matches_hand_computation():
    real = _toy_realization()
    p = _params(beta=4.0, noise=0.5)
    got = simulate_sinr(real, 0, 1, p, fading_seed=2)

    # replay the documented draw protocol by hand
    h = substream(real.seed, STREAM_FADING, 2).standard_exponential(3)
    d = np.hypot(real.rrh_xy[:, 0] - 10.0, real.rrh_xy[:, 1] + 5.0)
    power = 1.0 * d ** -4.0 * h
    expect = power[1] / (power[0] + power[2] + 0.5)
    assert got == pytest.approx(expect, rel=1e-14)


def test_simulate_sinr_fading_seeds_are_independent_draws():
    real = _toy_realization()
    p = _params(noise=0.1)
    a = simulate_sinr(real, 0, 0, p, fading_seed=0)
    b = simulate_sinr(real, 0, 0, p, fading_seed=1)
    assert a != b
    assert simulate_sinr(real, 0, 0, p, fading_seed=0) == a


def test_simulate_sinr_index_guards():
    real = _toy_realization()
    p = _params()
    with pytest.raises(ParameterError):
        simulate_sinr(real, 1, 0, p)
    with pytest.raises(ParameterError):
        simulate_sinr(real, -1, 0, p)
    with pytest.raises(ParameterError):
        simulate_sinr(real, 0, 3, p)


def test_simulate_sinr_lone_rrh_zero_noise_caps():
    real = NetworkRealization(cluster_radius=500.0,
                              rrh_xy=np.array([[50.0, 0.0]]),
                              user_xy=np.array([[0.0, 0.0]]),
                              user_content=np.array([0]), seed=1)
    with pytest.warns(UserWarning, match="capped"):
        got = simulate_sinr(real, 0, 0, _params(noise=0.0))
    assert got == SINR_CAP


def test_mc_eff_cap_monotone_in_theta_same_seed():
    # theta only enters post-processing, so one seed gives a common set of
    # SINR draws and the estimate is the effective capacity of that fixed
    # empirical distribution: non-increasing in theta, no sampling noise
    p = _params(noise=0.0)
    values = [e.value for e in mc_eff_cap((0.05, 0.1, 0.3, 0.6, 1.2), 50.0, 5e-6, p,
                                          2000, seed=9)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[0] > values[-1]   # and genuinely decreasing over the range


def test_mc_eff_cap_disjoint_seeds_agree():
    p = _params(noise=1.0)
    e1, = mc_eff_cap((0.1,), 50.0, 5e-6, p, 20000, seed=21)
    e2, = mc_eff_cap((0.1,), 50.0, 5e-6, p, 20000, seed=22)
    assert e1.std_error > 0 and e2.std_error > 0
    z = abs(e1.value - e2.value) / math.hypot(e1.std_error, e2.std_error)
    assert z < 4.0


@pytest.mark.parametrize("beta, noise, bandwidth_hz, slot_s, underflows", [
    (4.0, 0.0, 1000.0, 1e-3, False),   # the defaults
    (4.0, 0.3, 1000.0, 1e-3, False),   # a*ln(1+SINR) ~ 1e-9: 1 - e^(-aL) cancels
    (6.0, 0.3, 1000.0, 1e-3, False),   # ~ 1e-12
    (4.0, 0.0, 1e7, 1.0, True),        # a*ln(1+SINR) > 745 on every draw
])
def test_mc_eff_cap_matches_a_50_digit_mean_of_the_same_draws(beta, noise, bandwidth_hz,
                                                              slot_s, underflows):
    p = RadioParams(pathloss_exponent=beta, noise=noise, bandwidth_hz=bandwidth_hz,
                    slot_s=slot_s, spectral_efficiency=1.0)
    thetas, trials = (0.1, 0.6), 1000
    estimates = mc_eff_cap(thetas, 50.0, 5e-6, p, trials, seed=1)
    sinr = sample_sinr_batch(50.0, 5e-6, p, trials, substream(1, STREAM_FADING))
    with mpmath.workdps(50):
        logs = [mpmath.log1p(mpmath.mpf(float(s))) for s in sinr]
        for theta, est in zip(thetas, estimates):
            a = log_moment_exponent(1.0, theta, p)
            assert (not np.exp(-a * np.log1p(sinr)).any()) == underflows
            z = [mpmath.exp(-a * x) for x in logs]
            mean = mpmath.fsum(z) / trials
            sd = mpmath.sqrt(mpmath.fsum((v - mean) ** 2 for v in z) / (trials - 1))
            denom = theta * bandwidth_hz * slot_s
            assert est.value == pytest.approx(float(-mpmath.log(mean) / denom),
                                              rel=1e-13, abs=0.0)
            assert est.std_error == pytest.approx(
                float(sd / mpmath.sqrt(trials) / (mean * denom)), rel=1e-9, abs=0.0)


def test_mc_eff_cap_guards():
    p = _params(noise=1.0)
    with pytest.raises(ParameterError):
        mc_eff_cap((0.1, 0.0), 50.0, 5e-6, p, 200, seed=1)
    with pytest.raises(ParameterError):
        mc_eff_cap((0.1,), 50.0, 5e-6, p, MIN_TRIALS - 1, seed=1)


def test_enumerate_partitions_bell_counts():
    for n, bell in ((0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)):
        assert sum(1 for _ in enumerate_partitions(range(n))) == bell


def test_enumerate_partitions_each_covers_once():
    items = ["a", "b", "c", "d"]
    seen = set()
    for part in enumerate_partitions(items):
        for block in part:
            assert block
        flat = [e for block in part for e in block]
        assert sorted(flat) == sorted(items)
        key = frozenset(part)
        assert key not in seen
        seen.add(key)


def test_enumerate_partitions_order_is_stable():
    first = next(iter(enumerate_partitions([0, 1, 2])))
    assert first == [frozenset({0, 1, 2})]
    a = [tuple(sorted(map(sorted, p))) for p in enumerate_partitions(range(4))]
    b = [tuple(sorted(map(sorted, p))) for p in enumerate_partitions(range(4))]
    assert a == b


def test_enumerate_partitions_size_cap():
    with pytest.raises(ParameterError):
        next(enumerate_partitions(range(13)))
