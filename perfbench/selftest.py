"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

They run on reduced inputs (a few seconds each): corrupted outputs count as
failures, traced counters repeat exactly, the tracer restores what it
wraps, and the benchmark refuses to run without the program.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (sets the BLAS thread count first)

run.import_program()

from crancache import cli, games  # noqa: E402
from crancache.scenario import Scenario  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, tail  # noqa: E402
from workloads import AllocationCapture, Analysis, Dense, Sweep, quiet  # noqa: E402

with open(run.REFERENCES) as _fh:
    REFS = json.load(_fh)


def traced(workload, out_dir):
    """Counters of one traced solve: every per-layer metric except times."""
    capture = AllocationCapture().install()
    tracer = Tracer("crancache").install()
    try:
        with quiet():
            workload.solve(str(out_dir))
    finally:
        tracer.uninstall()
        capture.uninstall()
    metrics = tracer.metrics(wall_s=1.0)
    return tracer, {k: v for k, (v, unit) in metrics.items() if unit not in ("s", "1/s")}


def small_analysis():
    w = Analysis(1)
    w.scenario = replace(w.scenario, quant_intervals=4096, mc_trials=2000)
    return w


def small_sweep():
    w = Sweep(1)
    w.instances = w.drops = 3
    return w


def small_dense():
    w = Dense(1)
    w.scenario = replace(w.scenario, lambda_rrh=5e-6, lambda_user=5e-6)
    return w


@pytest.mark.parametrize("make", [small_analysis, small_sweep, small_dense])
def test_counters_repeat_exactly(make, tmp_path):
    _, first = traced(make(), tmp_path / "a")
    _, second = traced(make(), tmp_path / "b")
    assert first == second
    assert first["trace.absent_targets"] == 0


def test_module_self_times_cover_the_traced_calls(tmp_path):
    workload = small_sweep()
    capture = AllocationCapture().install()
    tracer = Tracer("crancache").install()
    try:
        with quiet():
            workload.solve(str(tmp_path))
    finally:
        tracer.uninstall()
        capture.uninstall()
    top = sum(s[1] for n, s in tracer.stats.items() if n == "cli.run_sweep")
    m = tracer.metrics(wall_s=top)
    modules = sum(m[f"{mod}.self_s"][0] for mod in ("scenario", "geometry", "effcap",
                                                    "simkit", "games", "energy", "cli"))
    assert modules + m["trace.uncovered_s"][0] == pytest.approx(top, rel=1e-9)
    assert abs(m["trace.uncovered_s"][0]) < 1e-6 * max(top, 1.0)
    assert m["games.coalition_eff_cap.calls"][0] > 0
    assert m["games.k_tables"][0] >= 3 * 3   # RRU counts 5, 4 and 1 on every drop


def test_tracer_restores_what_it_wraps():
    before = (cli.run_algorithm, games.coalition_eff_cap, games.prefers,
              Scenario.__dict__["quantizer"])
    tracer = Tracer("crancache").install()
    assert games.coalition_eff_cap is not before[1]
    tracer.uninstall()
    after = (cli.run_algorithm, games.coalition_eff_cap, games.prefers,
             Scenario.__dict__["quantizer"])
    assert after == before


def test_removed_function_is_recorded_absent(monkeypatch):
    monkeypatch.delattr(games, "prefers")
    tracer = Tracer("crancache").install()
    tracer.uninstall()
    assert tracer.absent == ["games.prefers"]
    assert tracer.metrics(1.0)["games.prefers.calls"] == (0, "count")


def analysis_outputs():
    """Analysis outputs for seed 1 as recorded in the reference file."""
    refs = REFS["analysis"]
    items = copy.deepcopy(refs["rows"])
    for key, value in refs["validation"].items():
        mc, se = refs["mc"]["1"][key]
        items[key] = {"analytic": value["analytic"], "mc": mc, "std_error": se,
                      "status": value["status"]}
    return {"seed": 1, "items": items}


def failed_items(workload, collected, refs):
    return {k for k, v in workload.check(collected, refs).items() if v}


def test_corrupted_analysis_output_is_a_failure():
    w = Analysis(1)
    refs = REFS["analysis"]
    assert failed_items(w, analysis_outputs(), refs) == set()
    assert len(w.check(analysis_outputs(), refs)) == w.planned_items()

    out = analysis_outputs()
    out["items"]["effcap_vs_theta/3"][1] *= 1 + 1e-6
    assert failed_items(w, out, refs) == {"effcap_vs_theta/3"}

    out = analysis_outputs()
    out["items"]["validation/outage_cdf_gamma_1"]["status"] = "FAIL"
    assert failed_items(w, out, refs) == {"validation/outage_cdf_gamma_1"}

    # a cluster row whose total capacity falls below the smaller cache's
    out = analysis_outputs()
    refs_bent = copy.deepcopy(refs)
    for r in (out["items"], refs_bent["rows"]):
        r["cluster_vs_cache/2"][3] = r["cluster_vs_cache/1"][3] * 0.5
    assert failed_items(w, out, refs_bent) == {"cluster_vs_cache/2"}

    out = analysis_outputs()
    del out["items"]["cluster_vs_cache/0"]
    assert failed_items(w, out, refs) == {"cluster_vs_cache/0"}


def test_corrupted_allocation_is_a_failure():
    scenario = Scenario(seed=1)
    instance = cli.build_instance(scenario)
    capture = AllocationCapture().install()
    try:
        result = cli.run_algorithm(instance, "nested", scenario)
    finally:
        capture.uninstall()
    refs = REFS["sweep"]
    collected = workloads._allocation_items(capture, {"1/nested": result.welfare})

    def check(collected, planned=1):
        return workloads._check_allocations(collected, refs, planned, scenario)

    assert check(collected) == {"1/nested": []}

    def corrupted(**changes):
        return {"items": {"1/nested": {**collected["items"]["1/nested"], **changes}}}

    assert check(corrupted(welfare=result.welfare * (1 + 1e-8)))["1/nested"]
    assert check(corrupted(written_welfare=result.welfare * (1 + 1e-6)))["1/nested"]

    # hand one coalition's RRHs to another: its users lose all service
    block = result.rru_partition[0]
    partition = result.rrh_partitions[block]
    first, second = sorted(partition.coalitions)[:2]
    coalitions = dict(partition.coalitions)
    coalitions[second] |= coalitions[first]
    coalitions[first] = frozenset()
    moved = replace(result, rrh_partitions={**result.rrh_partitions,
                                            block: games.RrhPartition(coalitions)})
    problems = check(corrupted(result=moved, digest=workloads.allocation_digest(moved)))
    assert any("Nash" in p for p in problems["1/nested"])
    assert any("reference" in p for p in problems["1/nested"])

    assert check(collected, planned=2)["missing/1"]


def test_tail_needs_ten_samples_beyond():
    assert tail(list(range(100)))[0] == 90.0
    assert tail(list(range(40)))[0] == 75.0
    assert tail([1.0, 2.0, 3.0]) == (50.0, 2.0)


def test_no_program_means_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
