import math
from dataclasses import replace

import numpy as np
import pytest

from crancache import effcap
from crancache.cli import (ALGORITHMS, _parse, build_instance, main,
                           run_allocate, run_analyze, run_sweep, run_validate,
                           write_csv)
from crancache.errors import CoverageError, ParameterError
from crancache.scenario import Scenario


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


def test_sweep_skips_only_empty_drops(tmp_path):
    # at this intensity seeds 1 and 3 draw no RRH, seeds 2 and 4 draw one
    sparse = replace(Scenario(), lambda_rrh=1e-7)
    run_sweep(sparse, str(tmp_path), 4, algorithms=("orthogonal",))
    _, rows = _read_csv(tmp_path / "sweep.csv")
    assert [r[0] for r in rows] == ["2", "4"]
    # any other error ends the sweep
    with pytest.raises(ParameterError, match="cache size"):
        run_sweep(replace(Scenario(), cache_size=9), str(tmp_path), 2,
                  algorithms=("orthogonal",))


def test_parser_accepts_shared_options_on_both_sides():
    assert _parse(["--out", "x", "analyze"]).out == "x"
    assert _parse(["analyze", "--out", "y"]).out == "y"
    args = _parse(["analyze"])
    assert args.out == "out" and args.seed is None and not args.paper_exact
    assert _parse(["allocate"]).algorithm == "nested"
    assert _parse(["sweep", "--instances", "7"]).instances == 7
    args = _parse(["--seed", "9", "validate", "--paper-exact"])
    assert args.seed == 9 and args.paper_exact


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
    ("radio", "snr", "nan"),
    ("qos", "theta_cluster", "nan"),
    ("games", "cost_coeff", "nan"),
    ("geometry", "cluster_radius", "inf"),
    ("power", "backhaul", "nan"),
    ("run", "mc_trials", "50"),
    ("geometry", "cluster_radius", "0"),
    ("geometry", "sim_radius", "-1"),
    ("run", "user_distance", "-5"),
    ("quantizer", "gamma_min", "1e5"),
    ("run", "user_gamma_max", "1e-20"),
    ("content", "popularity", "0.6,0.4"),
    ("quantizer", "intervals", "1"),
    ("quantizer", "gamma_min", "0"),
    ("quantizer", "gamma_min", "-1"),
    ("quantizer", "mode", "cubic"),
    ("radio", "rru_count", "0"),
    ("radio", "bandwidth_hz", "0"),
    ("radio", "slot_s", "-1e-3"),
    ("games", "shapley_permutations", "1"),
    ("games", "shapley_mode", "bogus"),
    ("content", "cache_policy", "lru"),
    ("radio", "snr", "0"),
    ("radio", "noise", "-1"),
    ("radio", "pathloss_exponent", "2"),
    ("power", "rrh_active", "-1"),
    ("power", "rrh_sleep", "200"),
    ("games", "cost_coeff", "-1"),
    ("geometry", "lambda_rrh", "-1"),
    ("geometry", "lambda_user", "-1"),
])
def test_non_finite_config_value_is_rejected(tmp_path, section, key, value):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "allocate", "--algorithm", "orthogonal",
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_main_seed_override(tmp_path):
    cfg = tmp_path / "s.ini"
    cfg.write_text("[run]\nmc_trials = 20000\n[content]\ncount = 2\ncache_size = 2\n")
    code = main(["--config", str(cfg), "--seed", "4", "allocate",
                 "--algorithm", "orthogonal", "--out", str(tmp_path / "o")])
    assert code == 0
    header = (tmp_path / "o" / "assignment.csv").read_text()
    assert "# seed = 4" in header
    assert "# content_count = 2" in header
