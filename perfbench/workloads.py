"""The three workloads: inputs from a workload seed, the timed cli calls,
and the correctness check run after timing.

Each workload is closed loop with one client: the next cli call starts
when the previous one returns.  Construction is set-up (the benchmark's
``setup_s``); ``solve`` is the timed region (``wall_s``); ``collect`` and
``check`` run after timing.

An item is the unit ``error_rate`` counts: one checked ``analyze`` row or
``validate`` check on ``analysis``, one (seed, algorithm) allocation on
``sweep``, the single allocation on ``dense``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import replace

from crancache import cli, games, geometry
from crancache.scenario import Scenario

WELFARE_RTOL = 1e-9
CSV_RTOL = 1e-8

# sweep: consecutive master seeds from the workload seed, as many as it
# takes to cover this many user-RRH links (per-drop work scales with links,
# so a fixed link total keeps the work per run steady across seeds)
SWEEP_LINKS = 6000

# dense: first master seed seed + DENSE_STRIDE * j whose drop has a link
# count in this window (3,808 links at master seed 1)
DENSE_LAMBDA = 2e-5
DENSE_LINKS = (3700, 3900)
DENSE_STRIDE = 100_000
DENSE_TRIES = 1000


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def read_csv(path: str) -> list[list[str]]:
    """Data rows of a cli CSV, header comments and column line dropped."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def links(realization) -> int:
    return realization.n_rrh * realization.n_user


def allocation_digest(result) -> str:
    """Hash of everything an allocation decides except welfare: RRU
    partition, per-block RRH coalitions, active set and step log."""
    blob = {
        "rru": [sorted(int(c) for c in block) for block in result.rru_partition],
        "rrh": [{str(c): sorted(int(r) for r in members)
                 for c, members in result.rrh_partitions[block].coalitions.items()}
                for block in result.rru_partition],
        "active": sorted(int(r) for r in result.active),
        "steps": [[s.op, s.partition] for s in result.steps],
    }
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()


class AllocationCapture:
    """Keeps (master seed, algorithm, result) of every ``cli.run_algorithm``
    call so the check can test stability after timing.  It is installed in
    both runs and times nothing.  It keeps no instance: holding a sweep's
    instances (and their value caches) would raise its peak RSS by ~12%."""

    def __init__(self):
        self.calls: list[tuple] = []
        self._original = None

    def install(self) -> "AllocationCapture":
        original = self._original = cli.run_algorithm
        calls = self.calls

        def run_algorithm(instance, algorithm, scenario):
            result = original(instance, algorithm, scenario)
            calls.append((instance.realization.seed, algorithm, result))
            return result

        cli.run_algorithm = run_algorithm
        return self

    def uninstall(self) -> None:
        cli.run_algorithm = self._original


def check_allocation(instance, result) -> list[str]:
    """Invariants every allocation must hold, for any seed."""
    problems = []
    for block in result.rru_partition:
        stable, witness = games.check_nash_stable(result.rrh_partitions[block],
                                                  instance, result.rru_count)
        if not stable:
            problems.append(f"block {sorted(block)} not Nash-stable: {witness}")
    welfare = [s.welfare for s in result.steps if not math.isnan(s.welfare)]
    if any(b <= a for a, b in zip(welfare, welfare[1:])):
        problems.append("step welfare does not strictly increase")
    return problems


def compare_allocation(item: dict, ref: dict | None) -> list[str]:
    if ref is None:
        return []
    problems = []
    if not close(item["welfare"], ref["welfare"], WELFARE_RTOL):
        problems.append(f"welfare {item['welfare']!r} != reference {ref['welfare']!r}")
    if item["digest"] != ref["digest"]:
        problems.append("partition, active set or step log differs from reference")
    return problems


class Workload:
    name = ""

    def solve(self, out_dir: str):
        raise NotImplementedError

    def planned_items(self) -> int:
        raise NotImplementedError

    def collect(self, out_dir: str, capture: AllocationCapture) -> dict:
        """Outputs of one solve, as items keyed by name (after timing)."""
        raise NotImplementedError

    def check(self, collected: dict, refs: dict) -> dict[str, list[str]]:
        """Problems per item; an empty list is a pass."""
        raise NotImplementedError

    def reference(self, collected: dict) -> dict:
        """What the reference file records for these outputs."""
        raise NotImplementedError


class Analysis(Workload):
    """``cli.run_analyze`` then ``cli.run_validate`` on the default scenario."""

    name = "analysis"
    FILES = ("effcap_vs_theta", "cluster_vs_cache")

    def __init__(self, seed: int):
        self.seed = seed
        self.scenario = Scenario(seed=seed)
        self.scenario.quantizer()

    def solve(self, out_dir: str):
        cli.run_analyze(self.scenario, out_dir)
        cli.run_validate(self.scenario, out_dir)

    def planned_items(self) -> int:
        thetas, blocks = 25, 4 * (self.scenario.content_count + 1)
        return thetas + blocks + 6 + self.scenario.content_count

    def collect(self, out_dir, capture):
        items = {}
        for stem in self.FILES:
            for i, row in enumerate(read_csv(os.path.join(out_dir, stem + ".csv"))):
                items[f"{stem}/{i}"] = [float(v) for v in row]
        for check, analytic, mc, se, status in read_csv(
                os.path.join(out_dir, "validation.csv")):
            items[f"validation/{check}"] = {"analytic": float(analytic), "mc": float(mc),
                                            "std_error": float(se), "status": status}
        return {"seed": self.seed, "items": items}

    def reference(self, collected):
        items = collected["items"]
        return {
            "rows": {k: v for k, v in items.items() if not k.startswith("validation/")},
            "validation": {k: {"analytic": v["analytic"], "status": v["status"]}
                           for k, v in items.items() if k.startswith("validation/")},
            "mc": {str(collected["seed"]): {k: [v["mc"], v["std_error"]]
                                            for k, v in items.items()
                                            if k.startswith("validation/")}},
        }

    def check(self, collected, refs):
        items = collected["items"]
        mc_ref = refs.get("mc", {}).get(str(collected["seed"]))
        problems: dict[str, list[str]] = {}
        previous_total: dict[float, float] = {}
        for key, value in items.items():
            found = problems.setdefault(key, [])
            if key.startswith("validation/"):
                ref = refs["validation"].get(key)
                if value["status"] == "FAIL":
                    found.append("validate check failed")
                if ref is None:
                    found.append("check missing from the reference")
                    continue
                if value["status"] != ref["status"]:
                    found.append(f"status {value['status']} != reference {ref['status']}")
                if not close(value["analytic"], ref["analytic"], CSV_RTOL):
                    found.append("analytic value differs from reference")
                if mc_ref is not None:
                    mc, se = mc_ref[key]
                    if not (close(value["mc"], mc, CSV_RTOL)
                            and close(value["std_error"], se, CSV_RTOL)):
                        found.append("Monte Carlo value differs from reference")
                continue
            ref = refs["rows"].get(key)
            if ref is None or len(ref) != len(value):
                found.append("row missing from the reference or of another width")
            elif not all(close(a, b, CSV_RTOL) for a, b in zip(value, ref)):
                found.append("values differ from reference")
            if key.startswith("cluster_vs_cache/"):
                zipf_s, cache_k, total = value[0], value[1], value[3]
                if cache_k > 0 and total < previous_total.get(zipf_s, -math.inf):
                    found.append("eff_cap_total decreases with cache_k")
                previous_total[zipf_s] = total
        for key in refs["rows"].keys() | refs["validation"].keys():
            if key not in items:
                problems[key] = ["output row missing"]
        return problems


class Sweep(Workload):
    """``cli.run_sweep`` with all four algorithms on the default scenario."""

    name = "sweep"

    def __init__(self, seed: int):
        self.scenario = Scenario(seed=seed)
        self.scenario.quantizer()
        total, self.instances, self.drops = 0, 0, 0
        while total < SWEEP_LINKS:
            sc = replace(self.scenario, seed=seed + self.instances)
            drop_links = links(geometry.sample_network(sc.density(), sc.cluster_radius,
                                                       sc.seed))
            total += drop_links
            self.drops += drop_links > 0   # run_sweep skips empty drops
            self.instances += 1
        self.links = total

    def solve(self, out_dir):
        cli.run_sweep(self.scenario, out_dir, self.instances)

    def planned_items(self) -> int:
        return self.drops * len(cli.ALGORITHMS)

    def collect(self, out_dir, capture):
        csv_welfare = {f"{seed}/{alg}": float(welfare) for seed, alg, welfare, *_
                       in read_csv(os.path.join(out_dir, "sweep.csv"))}
        return _allocation_items(capture, csv_welfare)

    def reference(self, collected):
        return _allocation_reference(collected)

    def check(self, collected, refs):
        return _check_allocations(collected, refs, self.planned_items(), self.scenario)


class Dense(Workload):
    """``cli.run_allocate --algorithm nested`` on one dense drop."""

    name = "dense"

    def __init__(self, seed: int):
        base = replace(Scenario(), lambda_rrh=DENSE_LAMBDA, lambda_user=DENSE_LAMBDA)
        for j in range(DENSE_TRIES):
            sc = replace(base, seed=seed + DENSE_STRIDE * j)
            self.links = links(geometry.sample_network(sc.density(), sc.cluster_radius,
                                                       sc.seed))
            if DENSE_LINKS[0] <= self.links <= DENSE_LINKS[1]:
                break
        else:
            raise RuntimeError(f"no dense drop with {DENSE_LINKS} links for seed {seed}")
        self.scenario = sc
        self.scenario.quantizer()

    def solve(self, out_dir):
        cli.run_allocate(self.scenario, "nested", out_dir)

    def planned_items(self) -> int:
        return 1

    def collect(self, out_dir, capture):
        with open(os.path.join(out_dir, "summary.txt")) as fh:
            fields = dict(line.split(" ", 1) for line in fh.read().splitlines())
        key = f"{self.scenario.seed}/nested"
        return _allocation_items(capture, {key: float(fields["welfare"])})

    def reference(self, collected):
        return _allocation_reference(collected)

    def check(self, collected, refs):
        return _check_allocations(collected, refs, 1, self.scenario)


def _allocation_items(capture: AllocationCapture, written_welfare: dict) -> dict:
    items = {}
    for seed, algorithm, result in capture.calls:
        key = f"{seed}/{algorithm}"
        items[key] = {"seed": seed, "result": result, "welfare": result.welfare,
                      "digest": allocation_digest(result),
                      "written_welfare": written_welfare.get(key)}
    return {"items": items}


def _allocation_reference(collected: dict) -> dict:
    return {"allocations": {k: {"welfare": v["welfare"], "digest": v["digest"]}
                            for k, v in collected["items"].items()}}


def _check_allocations(collected: dict, refs: dict, planned: int,
                       scenario: Scenario) -> dict[str, list[str]]:
    """The instance of each drop is rebuilt from its master seed (the
    program is deterministic in it) for the stability check."""
    problems: dict[str, list[str]] = {}
    ref_items = refs.get("allocations", {})
    instances: dict[int, object] = {}
    for key, item in collected["items"].items():
        found = problems.setdefault(key, [])
        try:
            if item["seed"] not in instances:
                instances = {item["seed"]: cli.build_instance(
                    replace(scenario, seed=item["seed"]))}
            found += check_allocation(instances[item["seed"]], item["result"])
        except Exception as exc:  # a crash in the check is a failed item
            found.append(f"stability check raised {exc!r}")
        written = item["written_welfare"]
        if written is None or not close(written, item["welfare"], CSV_RTOL):
            found.append("written welfare missing or differs from the result")
        found += compare_allocation(item, ref_items.get(key))
    for i in range(len(problems), planned):
        problems[f"missing/{i}"] = ["allocation not produced"]
    return problems


WORKLOADS = {w.name: w for w in (Analysis, Sweep, Dense)}


def quiet():
    """Keep the cli's progress lines off the benchmark's stdout."""
    return contextlib.redirect_stdout(io.StringIO())
