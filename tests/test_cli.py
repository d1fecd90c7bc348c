import math
from dataclasses import replace

import numpy as np
import pytest

from crancache import cli, effcap, geometry, simkit
from crancache.cli import (ALGORITHMS, _parse, build_instance, main,
                           run_allocate, run_analyze, run_sweep, run_validate,
                           write_csv)
from crancache.errors import CoverageError, ParameterError
from crancache.scenario import MAX_INTERVALS, Scenario, load_scenario

from conftest import traced_peak_mib


def _read_csv(path):
    """Rows of a written CSV, as (columns, list-of-string-tuples)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    cols = lines[0].split(",")
    return cols, [tuple(ln.split(",")) for ln in lines[1:]]


def test_write_csv_format(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(str(path), ["# hello"], ["a", "b"], [(1, 1.0 / 3.0), (2, 1e6)])
    text = path.read_text()
    assert text == "# hello\na,b\n1,0.333333333\n2,1000000\n"


def test_run_analyze_outputs(tmp_path):
    out = run_analyze(Scenario(), str(tmp_path))
    cols, rows = _read_csv(tmp_path / "effcap_vs_theta.csv")
    assert cols == ["theta_per_bit", "effcap_beta4", "effcap_beta6", "effcap_beta8"]
    assert len(rows) == 25
    # steeper pathloss cuts interference faster than signal at 50 m, so the
    # per-user curve must order beta4 < beta6 < beta8 on every row
    for row in rows:
        b4, b6, b8 = (float(v) for v in row[1:])
        assert b4 < b6 < b8

    cols, rows = _read_csv(tmp_path / "cluster_vs_cache.csv")
    assert cols[:3] == ["zipf_s", "cache_k", "hit_ratio"]
    assert len(rows) == 4 * 6
    by_s = {}
    for row in rows:
        by_s.setdefault(float(row[0]), []).append([float(v) for v in row[1:]])
    assert sorted(by_s) == [0.0, 0.5, 1.0, 2.0]
    for s, grid in by_s.items():
        ks = [g[0] for g in grid]
        assert ks == [0, 1, 2, 3, 4, 5]
        caps = [g[2] for g in grid]
        assert all(b >= a for a, b in zip(caps, caps[1:]))   # caching never hurts
        gains = [g[3] for g in grid]
        assert gains[0] == 0.0 and all(g >= 0.0 for g in gains)
    assert out["peak_gain"] == pytest.approx(48.7429, rel=1e-3)


def test_run_analyze_is_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_analyze(Scenario(), str(a))
    run_analyze(Scenario(), str(b))
    for name in ("effcap_vs_theta.csv", "cluster_vs_cache.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_analyze_on_a_catalog_whose_hit_ratio_rounds_past_one(tmp_path, capsys):
    # at count = 3 a popularity prefix sum of the Zipf grid reads
    # 1.0000000000000002, which energy.power_delta used to reject (exit 2)
    cfg = tmp_path / "c.ini"
    cfg.write_text("[content]\ncount = 3\n")
    assert main(["--config", str(cfg), "analyze", "--out", str(tmp_path / "o")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    for name in ("effcap_vs_theta.csv", "cluster_vs_cache.csv"):
        _, rows = _read_csv(tmp_path / "o" / name)
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row)
    _, rows = _read_csv(tmp_path / "o" / "cluster_vs_cache.csv")
    assert all(0.0 <= float(row[2]) <= 1.0 for row in rows)


def test_run_validate_and_negative_control(tmp_path, monkeypatch):
    s = replace(Scenario(), mc_trials=20_000)
    assert run_validate(s, str(tmp_path / "ok")) is True
    cols, rows = _read_csv(tmp_path / "ok" / "validation.csv")
    assert cols == ["check", "analytic", "reference", "std_error", "status"]
    statuses = {r[-1] for r in rows}
    assert statuses <= {"PASS", "INFO"}
    # a wrong interference constant must be caught by every outage check
    a_beta = effcap.a_beta
    monkeypatch.setattr(effcap, "a_beta", lambda beta: 1.3 * a_beta(beta))
    assert run_validate(s, str(tmp_path / "bad")) is False
    _, rows = _read_csv(tmp_path / "bad" / "validation.csv")
    outage = {r[0]: r[-1] for r in rows if r[0].startswith("outage_cdf_gamma_")}
    assert outage == {f"outage_cdf_gamma_{g}": "FAIL" for g in ("0.1", "1", "10")}


def test_build_instance_rejects_empty_field():
    s = replace(Scenario(), lambda_rrh=1e-12, lambda_user=1e-12)
    with pytest.raises(CoverageError):
        build_instance(s)


def test_build_instance_refuses_a_drop_past_either_size_bound():
    # each drop is just past one bound and builds in ~0.1 s and under 100 MB
    # without it; the bounds refuse them before any point is drawn
    area = math.pi * Scenario().cluster_radius ** 2
    per_field = math.sqrt(1.01 * geometry.MAX_LINKS)
    links = replace(Scenario(), lambda_rrh=per_field / area, lambda_user=per_field / area)
    with pytest.raises(ParameterError, match="links"):
        build_instance(links)
    inside = math.sqrt(0.99 * geometry.MAX_LINKS) / area
    assert build_instance(replace(links, lambda_rrh=inside, lambda_user=inside)).n_rrh > 0
    # a lopsided drop: 1.06e6 RRHs for 0.9 expected users (one at seed 5)
    points = replace(Scenario(), lambda_rrh=1.01 * geometry.MAX_POINTS / area,
                     lambda_user=0.9 / area, seed=5)
    with pytest.raises(ParameterError, match="points per field"):
        build_instance(points)


def test_allocate_over_the_drop_size_bound_exits_2(tmp_path, capsys, monkeypatch):
    # the default drop expects ~247 links; a lowered bound refuses it the
    # way cluster_radius = 1e5 (2.5e10 links) meets the real one
    monkeypatch.setattr(geometry, "MAX_LINKS", 200)
    out = tmp_path / "o"
    assert main(["allocate", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "links" in err
    assert not out.exists()


def test_run_allocate_files(tmp_path):
    s = Scenario()
    result = run_allocate(s, "nested", str(tmp_path))
    instance = build_instance(s)

    cols, rows = _read_csv(tmp_path / "assignment.csv")
    assert cols == ["rru", "content", "rrh", "active"]
    rrhs = sorted(int(r[2]) for r in rows)
    assert rrhs == list(range(instance.n_rrh))     # every RRH placed once
    assert sum(int(r[3]) for r in rows) == len(result.active)

    cols, rows = _read_csv(tmp_path / "steps.csv")
    assert cols == ["step", "op", "partition", "welfare"]
    assert rows[0][1] == "init"
    welfares = [float(r[3]) for r in rows]
    assert all(b > a for a, b in zip(welfares, welfares[1:]))
    assert "," not in rows[0][2]                   # block separator swapped out

    summary = (tmp_path / "summary.txt").read_text().splitlines()
    fields = dict(line.split(" ", 1) for line in summary[:6])
    assert fields["algorithm"] == "nested"
    assert int(fields["active"]) + int(fields["asleep"]) == instance.n_rrh
    assert float(fields["welfare"]) == pytest.approx(result.welfare, rel=1e-8)


def test_run_sweep_shares_seeds_across_algorithms(tmp_path):
    s = Scenario()
    out = run_sweep(s, str(tmp_path), 3, algorithms=("orthogonal", "full_reuse"))
    cols, rows = _read_csv(tmp_path / "sweep.csv")
    assert cols == ["seed", "algorithm", "welfare", "rru_count", "active", "asleep"]
    seeds = {r[0] for r in rows}
    for seed in seeds:
        algs = [r[1] for r in rows if r[0] == seed]
        assert sorted(algs) == ["full_reuse", "orthogonal"]
    assert set(out["mean_welfare"]) == {"orthogonal", "full_reuse"}
    assert not math.isnan(out["mean_welfare"]["orthogonal"])
    with pytest.raises(ParameterError):
        run_sweep(s, str(tmp_path), 0)
    with pytest.raises(ParameterError):
        run_sweep(s, str(tmp_path), 1, algorithms=("bogus",))


@pytest.mark.parametrize("config, flags", [
    ("[geometry]\nlambda_user = 0\n", []),
    ("[geometry]\nlambda_rrh = 1e-9\n", []),
    ("", ["--algorithms", ","]),
], ids=["no-users", "every-drop-empty", "no-algorithm"])
def test_sweep_that_compares_nothing_exits_2(tmp_path, config, flags):
    cfg = tmp_path / "s.ini"
    cfg.write_text(config)
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "sweep", "--instances", "2", *flags,
                 "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("config", [
    "[geometry]\nlambda_user = 0\n",
    "[geometry]\nlambda_rrh = 1e-12\nlambda_user = 1e-12\n",
], ids=["no-users", "empty-drop"])
def test_allocate_that_cannot_run_leaves_no_out_dir(tmp_path, config):
    cfg = tmp_path / "s.ini"
    cfg.write_text(config)
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "allocate", "--out", str(out)]) == 2
    assert not out.exists()


def test_sweep_drops_share_one_grid(tmp_path, monkeypatch):
    # one grid per sweep, so the kernel's set-up on it is built once
    grids, instances = [], []
    real_quantizer, real_run = Scenario.quantizer, cli.run_algorithm

    def counting_quantizer(scenario):
        grids.append(real_quantizer(scenario))
        return grids[-1]

    def recording_run(instance, algorithm, scenario):
        instances.append(instance)
        return real_run(instance, algorithm, scenario)

    monkeypatch.setattr(Scenario, "quantizer", counting_quantizer)
    monkeypatch.setattr(cli, "run_algorithm", recording_run)
    run_sweep(Scenario(), str(tmp_path), 3, algorithms=("orthogonal", "full_reuse"))
    assert len(grids) == 1
    assert len(instances) == 6 and len({id(i) for i in instances}) == 3
    assert all(i.quantizer is grids[0] for i in instances)
    # a lone build still makes a grid of its own
    assert build_instance(Scenario()).quantizer is not grids[0]


def test_analyze_traced_memory_stays_bounded(tmp_path):
    # no grid keeps a weight vector per exponent, run_analyze lets the
    # per-user grid go before the cluster curves, and no kept set-up is
    # keyed on an intensity, so the peak stays near the one kernel pass's
    # working set: a grid's four 0.5 MiB vectors and a chunk of weights
    # per exponent
    assert traced_peak_mib(lambda: run_analyze(Scenario(), str(tmp_path))) < 10


def test_validate_traced_memory_stays_bounded(tmp_path):
    # the Monte Carlo batch forms its SINR in place once its chunk walk is
    # gone, and run_validate lets the per-user grid and its SINR batch go
    # before the per-content checks build the cluster grid
    assert traced_peak_mib(lambda: run_validate(Scenario(), str(tmp_path))) < 8


def test_sweep_skips_only_empty_drops(tmp_path):
    # at this intensity seeds 1 and 3 draw no RRH, seeds 2 and 4 draw one
    sparse = replace(Scenario(), lambda_rrh=1e-7)
    run_sweep(sparse, str(tmp_path), 4, algorithms=("orthogonal",))
    _, rows = _read_csv(tmp_path / "sweep.csv")
    assert [r[0] for r in rows] == ["2", "4"]
    # any other error ends the sweep
    with pytest.raises(ParameterError, match="links"):
        run_sweep(replace(Scenario(), cluster_radius=1e5), str(tmp_path), 2,
                  algorithms=("orthogonal",))


def test_sweep_rejects_a_repeated_algorithm(tmp_path, capsys, monkeypatch):
    # refused before any drop is built, so nothing runs twice and no
    # --out appears
    def no_drop(scenario):
        raise AssertionError("a drop was built")

    monkeypatch.setattr("crancache.cli.build_instance", no_drop)
    out = tmp_path / "o"
    assert main(["sweep", "--algorithms", "nested,nested,orthogonal",
                 "--instances", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: algorithm 'nested' named twice\n"
    assert not out.exists()


def test_parser_accepts_shared_options_on_both_sides():
    assert _parse(["--out", "x", "analyze"]).out == "x"
    assert _parse(["analyze", "--out", "y"]).out == "y"
    args = _parse(["analyze"])
    assert args.out == "out" and args.seed is None
    assert _parse(["allocate"]).algorithm == "nested"
    assert _parse(["sweep", "--instances", "7"]).instances == 7
    assert _parse(["--seed", "9", "validate"]).seed == 9


@pytest.mark.parametrize("before", [True, False])
def test_removed_reference_grid_flag_is_unknown(tmp_path, capsys, before):
    out = tmp_path / "o"
    argv = ["analyze", "--out", str(out)]
    argv = ["--paper-exact"] + argv if before else argv + ["--paper-exact"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --paper-exact" in capsys.readouterr().err
    assert not out.exists()


def test_dense_strict_content_integral_underflow_exits_2(tmp_path, capsys):
    # at lambda_rrh = 1e-2 the distance nodes below ~8 um are links whose
    # log-moment underflows at these exponents (a limit of the
    # survival-difference kernel, not of the distance rule)
    cfg = tmp_path / "dense.ini"
    cfg.write_text("[geometry]\nlambda_rrh = 1e-2\n[qos]\ntheta_cluster = 20\n"
                   "theta_cloud = 50\n[content]\ncount = 1\n[radio]\nrru_count = 1\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "analyze", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: log-moment underflows") and "Traceback" not in err
    assert not out.exists()


def test_validate_over_the_draw_bound_exits_2(tmp_path, capsys, monkeypatch):
    # the default 10^5 trials need ~6.4e6 links; a lowered bound refuses
    # them before any draw, the way lambda_rrh = 1e-2 meets the real one
    monkeypatch.setattr(simkit, "MAX_DRAWS", 1 << 20)
    out = tmp_path / "o"
    assert main(["validate", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "draws" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "[geometry]\nsim_radius = 1e200\n",          # sim_radius ** 2 in the draw bound
    "[run]\nuser_distance = 1e200\n",            # d ** 2 in the outage law
    "[run]\nuser_distance = 1e80\n",             # d ** beta in the outage law
    "[radio]\npathloss_exponent = 200\n",
    "[radio]\npathloss_exponent = 1e10\n",
    "[run]\nuser_distance = 1e-200\n",           # d ** -beta in the sampler
    "[run]\nuser_distance = 1e-80\n",
], ids=["sim_radius-1e200", "user_distance-1e200", "user_distance-1e80",
        "pathloss_exponent-200", "pathloss_exponent-1e10", "user_distance-1e-200",
        "user_distance-1e-80"])
def test_validate_on_an_overflowing_power_exits_2(tmp_path, capsys, text):
    # each length or exponent is finite, so it passes load, but a float
    # power of it overflows
    cfg = tmp_path / "far.ini"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert [ln for ln in err.splitlines() if ln.startswith("error:")] == err.splitlines()[-1:]
    assert "Traceback" not in err
    assert not out.exists()


def test_quantizer_intervals_over_the_bound_exit_2(tmp_path, capsys):
    # 2^40 intervals used to pass load and end in an 8 TiB grid allocation
    cfg = tmp_path / "huge.ini"
    cfg.write_text(f"[quantizer]\nintervals = {1 << 40}\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "analyze", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(MAX_INTERVALS) in err
    assert "Traceback" not in err
    assert not out.exists()
    at_bound = load_scenario(text=f"[quantizer]\nintervals = {MAX_INTERVALS}\n")
    assert at_bound.quant_intervals == MAX_INTERVALS


def test_main_exit_codes(tmp_path):
    assert main(["analyze", "--out", str(tmp_path / "m")]) == 0
    assert main(["--config", "/nonexistent.ini", "analyze"]) == 2
    with pytest.raises(SystemExit):
        main(["allocate", "--algorithm", "annealing"])
    with pytest.raises(SystemExit):
        main([])                                    # a subcommand is required


def test_negative_seed_is_rejected(tmp_path):
    out = str(tmp_path / "o")
    assert main(["allocate", "--seed", "-1", "--out", out]) == 2
    cfg = tmp_path / "neg.ini"
    cfg.write_text("[run]\nseed = -1\n")
    assert main(["--config", str(cfg), "allocate", "--out", out]) == 2


@pytest.mark.parametrize("section, key, value", [
    ("geometry", "lambda_rrh", "nan"),
    ("radio", "noise", "nan"),
    ("radio", "noise", "inf"),
    ("qos", "theta_cluster", "nan"),
    ("games", "cost_coeff", "nan"),
    ("geometry", "cluster_radius", "inf"),
    ("power", "backhaul", "nan"),
    ("run", "mc_trials", "50"),
    ("geometry", "cluster_radius", "0"),
    ("geometry", "sim_radius", "-1"),
    ("run", "user_distance", "-5"),
    ("run", "user_distance", "0"),
    ("content", "popularity", "0.6,0.4"),
    ("content", "cache_size", "6"),
    ("content", "cache_size", "-1"),
    ("quantizer", "intervals", "1"),
    ("quantizer", "intervals", "0"),
    ("radio", "rru_count", "0"),
    ("radio", "bandwidth_hz", "0"),
    ("radio", "slot_s", "-1e-3"),
    ("radio", "noise", "-1"),
    ("radio", "pathloss_exponent", "2"),
    ("power", "rrh_active", "-1"),
    ("power", "rrh_sleep", "200"),
    ("games", "cost_coeff", "-1"),
    ("geometry", "lambda_rrh", "-1"),
    ("geometry", "lambda_user", "-1"),
    ("geometry", "lambda_user", "0"),
    # removed keys exit 2 as unknown keys, whatever the value, including
    # one they used to accept
    ("quantizer", "mode", "cubic"),
    ("games", "shapley_permutations", "1"),
    ("games", "shapley_mode", "bogus"),
    ("radio", "snr", "1"),
    ("radio", "snr", "0"),
    ("radio", "snr", "nan"),
    ("content", "cache_policy", "top_k"),
    ("content", "cache_policy", "lru"),
    ("games", "literal_power_accounting", "false"),
    ("quantizer", "gamma_max", "5e4"),
    ("quantizer", "gamma_min", "1e-12"),
    ("quantizer", "gamma_min", "1e5"),
    ("quantizer", "gamma_min", "0"),
    ("quantizer", "gamma_min", "-1"),
    ("run", "user_gamma_max", "1e12"),
    ("run", "user_gamma_max", "1e-20"),
])
def test_non_finite_config_value_is_rejected(tmp_path, section, key, value):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "allocate", "--algorithm", "orthogonal",
                 "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", [["analyze"], ["allocate", "--algorithm", "orthogonal"]],
                         ids=["analyze", "allocate"])
def test_zero_power_config_is_rejected(tmp_path, command):
    # every key is valid alone, but with no active draw every cluster energy
    # efficiency divides by zero
    cfg = tmp_path / "zero.ini"
    cfg.write_text("[power]\nrrh_active = 0\nrrh_sleep = 0\n"
                   "cache_per_object = 0\nbackhaul = 0\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), *command, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("text", [
    b"[radio]\nnoise = 1\nnoise = 2\n",           # duplicate key
    b"[radio]\nnoise = 1\n[radio]\nnoise = 0\n",  # duplicate section
    b"noise = 1\n[radio]\n",                       # key before any section header
    b"[radio]\nnoise\n",                           # line with no '='
    b"[radio]\nnoise = 1 # \xff\xfe\n",            # bytes that are not UTF-8
    b"[radio]\nnoise = 5%\n",                      # bare '%' the parser interpolates
], ids=["duplicate-key", "duplicate-section", "no-section-header", "no-equals",
        "not-utf8", "bare-percent"])
def test_malformed_config_file_is_rejected(tmp_path, capsys, text):
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(text)
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "allocate", "--algorithm", "orthogonal",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed config: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_unusable_out_exits_2(tmp_path, capsys, under):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / "o" if under else blocker
    assert main(["allocate", "--algorithm", "orthogonal", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write outputs under ") and err.count("\n") == 1
    assert blocker.read_text() == "not a directory\n"


def test_validate_with_unrequested_contents(tmp_path):
    # contents with popularity 0 get no holders (lambda_l = 0) and report
    # 0 for both estimators; the requested ones are unaffected
    cfg = tmp_path / "zero.ini"
    cfg.write_text("[run]\nmc_trials = 20000\n[content]\npopularity = 0.5 0.5 0 0 0\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "validate", "--out", str(out)]) == 0
    _, rows = _read_csv(out / "validation.csv")
    content = {r[0]: (float(r[1]), float(r[2])) for r in rows if r[0].startswith("content_")}
    assert content["content_0_distance_avg_vs_moment"] \
        == content["content_1_distance_avg_vs_moment"]
    assert min(content["content_0_distance_avg_vs_moment"]) > 0.0
    for l in (2, 3, 4):
        assert content[f"content_{l}_distance_avg_vs_moment"] == (0.0, 0.0)


def _count_content_integrals(monkeypatch) -> tuple[list, list]:
    """Lists that grow by one per ``effcap.avg_eff_cap_content`` call and
    per kernel pass over the distance nodes; counted, so no timing is
    involved."""
    calls, passes = [], []
    real_content, real_moments = effcap.avg_eff_cap_content, effcap.log_moments
    monkeypatch.setattr(effcap, "avg_eff_cap_content",
                        lambda *a, **k: calls.append(None) or real_content(*a, **k))

    def counted(d, *args, **kwargs):
        if np.size(d) == effcap._T_NODES.size:
            passes.append(None)
        return real_moments(d, *args, **kwargs)

    monkeypatch.setattr(effcap, "log_moments", counted)
    return calls, passes


def test_validate_content_rows_cost_one_kernel_pass_each(tmp_path, monkeypatch):
    # both estimators of a content come from one call and one pass over the
    # distance nodes
    calls, passes = _count_content_integrals(monkeypatch)
    scenario = replace(Scenario(), mc_trials=20000)
    run_validate(scenario, str(tmp_path / "o"))
    assert len(calls) == len(passes) == scenario.content_count


def test_analyze_integrals_run_inside_the_content_entry(tmp_path, monkeypatch):
    # per_content_eff_caps reaches every integral through the module's
    # avg_eff_cap_content, one call and one pass per distinct content:
    # the five identical contents of Zipf 0 share one, and the five
    # contents of each of Zipf 0.5, 1 and 2 differ in popularity
    calls, passes = _count_content_integrals(monkeypatch)
    run_analyze(Scenario(), str(tmp_path / "o"))
    assert len(calls) == len(passes) == 1 + 3 * 5


@pytest.mark.parametrize("text, code", [
    # every draw's (1 + SINR)^-a underflows to 0 at these exponents
    ("[radio]\nbandwidth_hz = 1e7\nslot_s = 1\n[run]\nmc_trials = 1000\n", 1),
    ("[qos]\ntheta_cloud = 50\n[run]\nuser_distance = 1e-3\n", 1),
    # mu*W*T = 1e7: the ergodic limit needs theta0 scaled down with it
    ("[radio]\nbandwidth_hz = 1e7\nslot_s = 1\n", 0),
], ids=["underflow_wt", "underflow_short_link", "large_wt"])
def test_validate_off_the_defaults_ends_in_finite_rows(tmp_path, text, code):
    cfg = tmp_path / "c.ini"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "validate", "--out", str(out)]) == code
    _, rows = _read_csv(out / "validation.csv")
    assert all(math.isfinite(float(v)) for row in rows for v in row[1:4])
    status = {row[0]: row[4] for row in rows}
    assert status["ergodic_limit"] == "PASS"


def test_main_seed_override(tmp_path):
    cfg = tmp_path / "s.ini"
    cfg.write_text("[run]\nmc_trials = 20000\n[content]\ncount = 2\ncache_size = 2\n")
    code = main(["--config", str(cfg), "--seed", "4", "allocate",
                 "--algorithm", "orthogonal", "--out", str(tmp_path / "o")])
    assert code == 0
    header = (tmp_path / "o" / "assignment.csv").read_text()
    assert "# seed = 4" in header
    assert "# content_count = 2" in header
