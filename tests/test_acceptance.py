"""Acceptance suite: one test per shipping criterion.

Run with ``pytest tests/test_acceptance.py -v`` for one PASS/FAIL line per
criterion; each test also prints its measured numbers (visible with -s or
in the captured output on failure).  Informational comparisons print with
no assertion and say so.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from crancache import effcap, energy, games, qos, simkit
from crancache.cli import (ALGORITHMS, build_instance, main, run_algorithm)
from crancache.content import ContentCatalog
from crancache.errors import CoverageError
from crancache.scenario import Scenario

from oracles import (enumerate_partitions, l_func_general, l_func_limited,
                     random_instance, shapley_by_sampling)


@pytest.fixture(scope="module")
def scenario():
    return Scenario()


def _user_radio(scenario, beta):
    return replace(scenario.user_radio(), pathloss_exponent=beta)


def test_criterion_01_analytic_mc_agreement(scenario):
    quant = scenario.user_quantizer()
    for beta in (4.0, 6.0, 8.0):
        t0 = time.perf_counter()
        params = _user_radio(scenario, beta)
        thetas = (float(scenario.theta_cluster[0]), float(scenario.theta_cloud[0]))
        mcs = simkit.mc_eff_cap(thetas, scenario.user_distance, scenario.lambda_rrh,
                                params, scenario.mc_trials, seed=scenario.seed)
        for theta, mc in zip(thetas, mcs):
            ana, = effcap.eff_cap_user([theta], scenario.user_distance,
                                      scenario.lambda_rrh, params, quant)
            err = abs(ana - mc.value)
            tol = max(0.02 * abs(ana), 3.0 * mc.std_error)
            print(f"criterion 1: beta={beta:g} theta={theta:g} "
                  f"analytic={ana:.5f} mc={mc.value:.5f} (se {mc.std_error:.2g}) "
                  f"err={err:.2g} tol={tol:.2g}")
            assert err <= tol
        elapsed = time.perf_counter() - t0
        print(f"criterion 1: beta={beta:g} runtime {elapsed:.2f} s (budget 120 s)")
        assert elapsed < 120.0


def test_criterion_02_monotone_in_pathloss(scenario):
    quant = scenario.user_quantizer()
    for theta in (0.1, 0.6):
        values = [effcap.eff_cap_user([theta], scenario.user_distance,
                                      scenario.lambda_rrh,
                                      _user_radio(scenario, beta), quant)[0]
                  for beta in (4.0, 6.0, 8.0)]
        print(f"criterion 2: theta={theta:g} E(beta=4,6,8) = "
              + ", ".join(f"{v:.5f}" for v in values))
        assert values[0] < values[1] < values[2]


def test_criterion_03_caching_gain_shape(scenario):
    params = scenario.radio()
    quant = scenario.quantizer()
    profile = scenario.qos()
    peak_gain = 0.0
    k5 = {}
    for s in (0.0, 0.5, 1.0, 2.0):
        catalog = ContentCatalog.zipf(scenario.object_size_bits, s,
                                      scenario.content_count)
        split = scenario.lambda_rrh * catalog.popularity
        from_cache, from_cloud = effcap.per_content_eff_caps(
            catalog, profile, split, scenario.lambda_rrh, params, quant)
        caps, gains = [], []
        for k in range(scenario.content_count + 1):
            p_hit = float(catalog.popularity[:k].sum())
            caps.append(float(p_hit * from_cache.sum()
                              + (1.0 - p_hit) * from_cloud.sum()))
            gains.append(float(p_hit * (from_cache - from_cloud).sum()))
        assert all(b >= a for a, b in zip(caps, caps[1:]))
        assert all(g >= -1e-12 for g in gains)
        peak_gain = max(peak_gain, max(gains))
        if s == 1.0:
            k5 = {"gain": gains[-1], "cap": caps[-1]}
        print(f"criterion 3: s={s:g} cap(K=0..5) = "
              + ", ".join(f"{c:.3f}" for c in caps))
    eta5 = energy.eta_cluster(k5["cap"], scenario.lambda_rrh,
                              scenario.cluster_radius, scenario.content_count,
                              1.0, scenario.power())
    print(f"criterion 3: peak gain over grid = {peak_gain:.4f} bit/s/Hz")
    print(f"criterion 3: info only, no tolerance: at s=1, K=5, r_T=1000 m the "
          f"achieved gain is {k5['gain'] * params.bandwidth_hz / 1e6:.4g} Mbit/s "
          f"per block and eta = {eta5 * params.bandwidth_hz / 1e6:.4g} Mbit/Joule; "
          f"reference headline 0.57 Mbit/s/Hz and 0.004 Mbit/Joule")


def test_criterion_04_power_delta_exact(scenario):
    power = scenario.power()
    full = energy.power_delta(5, 1.0, power)
    empty = energy.power_delta(0, 0.0, power)
    print(f"criterion 4: delta(K=5, hit=1) = {full} W, delta(K=0, hit=0) = {empty} W")
    assert full == -9.25
    assert empty == 0.0


def test_criterion_05_backhaul_arithmetic():
    rate = qos.min_backhaul_rate(0.1, 0.6, 1e6, 1.0, hops=2)
    print(f"criterion 5: minimal backhaul rate = {rate:.10g} bit/s")
    assert abs(rate - 2.4e6) / 2.4e6 < 1e-9
    back = qos.theta_cloud_from_cluster(0.1, 1e6, rate, 1.0, hops=2)
    print(f"criterion 5: round-trip cloud exponent = {back:.10g}")
    assert abs(back - 0.6) / 0.6 < 1e-9


def test_criterion_06_closed_form_cross_checks():
    a4 = effcap.a_beta(4.0)
    u14 = effcap.u_func(1.0, 4.0)
    print(f"criterion 6: a_beta(4) = {a4!r}, u(1,4) = {u14!r}, pi/4 = {math.pi/4!r}")
    assert abs(a4 - math.pi / 4) < 1e-9
    assert abs(u14 - math.pi / 4) < 1e-9

    worst = 0.0
    for gamma in np.geomspace(0.1, 10.0, 5):
        for q in (1.5, 2.0, 5.0, 10.0):
            lam_l = 5e-6 / q
            params = effcap.RadioParams(pathloss_exponent=4.0, noise=0.0,
                                        bandwidth_hz=1000.0, slot_s=1e-3,
                                        spectral_efficiency=1.0)
            gen = l_func_general(float(gamma), lam_l, 5e-6, params)
            lim = l_func_limited(float(gamma), q, 4.0)
            worst = max(worst, abs(gen - lim))
    print(f"criterion 6: max |general - limited| over 20-point grid = {worst:.3g}")
    assert worst < 1e-7

    ref = l_func_limited(1.0, 5.0, 4.0)
    print(f"criterion 6: l_limited(1, 5, 4) = {ref!r}")
    assert abs(ref - 0.876062) < 1e-6


def test_criterion_07_rrh_game_always_stabilizes():
    t0 = time.perf_counter()
    for i in range(100):
        inst = random_instance(9000 + i, 2 + i % 5, 3 + i % 8,
                                     content_count=1 + i % 3)
        n = inst.content_count
        part = games.hedonic_rrh_association(range(n), inst, n)
        stable, witness = games.check_nash_stable(part, inst, n)
        assert stable, f"instance {i}: deviation {witness}"
    elapsed = time.perf_counter() - t0
    print(f"criterion 7: 100/100 Nash-stable, no convergence failures, "
          f"{elapsed:.2f} s (budget 10 s)")
    assert elapsed < 10.0


def test_criterion_08_merge_split_stability_and_gap():
    gaps = []
    for i in range(50):
        n_contents = 2 + i % 3
        inst = random_instance(9500 + i, 3 + i % 3, 5 + i % 6,
                                     content_count=n_contents)
        res = games.nested_allocate(inst)
        welfares = [s.welfare for s in res.steps]
        assert all(b > a for a, b in zip(welfares, welfares[1:]))
        sigs = [s.partition for s in res.steps]
        assert len(set(sigs)) == len(sigs)

        best = -math.inf
        for part in enumerate_partitions(range(n_contents)):
            fixed = games.evaluate_fixed_partition("probe", inst, part)
            best = max(best, fixed.welfare)
        assert res.welfare <= best + 1e-9 * max(1.0, abs(best))
        gaps.append(best - res.welfare)
    print(f"criterion 8: 50/50 monotone, no recurrence; optimality gap "
          f"mean {np.mean(gaps):.4g}, max {np.max(gaps):.4g} "
          f"(informational, stability is the criterion)")


def test_criterion_09_shapley_sampled_vs_exact():
    inst = random_instance(42, 6, 12)
    n = inst.content_count
    exact = games.shapley_values(inst, n)
    for content in range(n):
        grand = games.coalition_eff_cap(range(inst.n_rrh), content, inst, n)
        assert exact[content].sum() == pytest.approx(grand, rel=1e-9, abs=1e-9)
    samp, se = shapley_by_sampling(inst, n, permutations=10_000, seed=3)
    diff = np.abs(samp - exact)
    assert np.all(diff[se == 0.0] == 0.0)
    z_max = float((diff[se > 0.0] / se[se > 0.0]).max())
    print(f"criterion 9: efficiency identity holds; max sampled deviation "
          f"= {z_max:.2f} standard errors (limit 3)")
    assert z_max < 3.0


@pytest.mark.slow
def test_criterion_10_algorithm_ranking(scenario):
    welfare = {alg: [] for alg in ALGORITHMS}
    runtime = {alg: [] for alg in ALGORITHMS}
    used, seed = 0, scenario.seed
    while used < 100 and seed < scenario.seed + 200:
        sc = replace(scenario, seed=seed)
        seed += 1
        try:
            build_instance(sc)
        except CoverageError:
            continue  # empty draw skipped for every algorithm alike
        used += 1
        for alg in ALGORITHMS:
            inst = build_instance(sc)     # fresh caches: honest wall-clock
            res = run_algorithm(inst, alg, sc)
            welfare[alg].append(res.welfare)
            runtime[alg].append(res.runtime_s)
    assert used >= 100
    means = {alg: float(np.mean(w)) for alg, w in welfare.items()}
    times = {alg: float(np.mean(r)) for alg, r in runtime.items()}
    for alg in ALGORITHMS:
        print(f"criterion 10: {alg:11s} mean welfare {means[alg]:10.3f} "
              f"mean runtime {times[alg] * 1e3:7.2f} ms  (n={used})")
    assert means["nested"] >= means["suboptimal"]
    assert means["nested"] >= means["orthogonal"]
    assert means["nested"] >= means["full_reuse"]
    assert times["suboptimal"] < times["nested"]


@pytest.mark.slow
def test_criterion_11_byte_identical_reruns(tmp_path):
    argsets = (
        ["analyze"],
        ["validate"],
        ["allocate", "--algorithm", "nested"],
        ["sweep", "--instances", "2"],
    )
    cfg = tmp_path / "small.ini"
    cfg.write_text("[run]\nmc_trials = 20000\n")
    for i, run_dir in enumerate(("first", "second")):
        for argv in argsets:
            code = main(argv + ["--config", str(cfg),
                                "--out", str(tmp_path / run_dir)])
            assert code == 0, f"{argv} exited {code}"
    first = sorted((tmp_path / "first").iterdir())
    second = sorted((tmp_path / "second").iterdir())
    assert [p.name for p in first] == [p.name for p in second]
    for a, b in zip(first, second):
        same = a.read_bytes() == b.read_bytes()
        print(f"criterion 11: {a.name}: {'identical' if same else 'DIFFERS'}")
        assert same, f"{a.name} differs between identically seeded runs"
