"""Command-line front end: analyze, validate, allocate, sweep.

All file outputs are deterministic functions of (config, master seed):
floats are written with 9 significant digits, every CSV starts with the
fully resolved parameter set as '#' comments, and nothing time- or
machine-dependent goes into a file (wall-clock numbers only ever reach
stdout).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import effcap, energy, games, simkit
from .content import ClusterCache, ContentCatalog, hit_ratio
from .errors import CoverageError, CrancacheError, ParameterError
from .geometry import STREAM_VALIDATE_SINR, sample_network, substream
from .scenario import Scenario, load_scenario

ALGORITHMS = ("nested", "suboptimal", "orthogonal", "full_reuse")

_F = "{:.9g}"


def _fmt(value) -> str:
    if isinstance(value, float):
        return _F.format(value)
    return str(value)


def write_csv(path: str, header_lines: list[str], columns: list[str],
              rows: list[tuple]) -> None:
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# -- analyze ----------------------------------------------------------------


def run_analyze(scenario: Scenario, out_dir: str) -> dict:
    """Analytic curves: per-user capacity, cluster capacity and energy
    efficiency versus cache size.  Returns the headline numbers."""
    header = scenario.header_lines()
    quant = scenario.quantizer()
    params = scenario.radio()
    user_params = scenario.user_radio()
    user_quant = scenario.user_quantizer()

    # per-user effective capacity across delay exponents and pathloss slopes:
    # one kernel pass per slope serves all 25 exponents
    thetas = np.geomspace(1e-3, 1.0, 25).tolist()
    betas = (4.0, 6.0, 8.0)
    columns = [effcap.eff_cap_user(thetas, scenario.user_distance, scenario.lambda_rrh,
                                   replace(user_params, pathloss_exponent=beta),
                                   user_quant)
               for beta in betas]
    user_rows = list(zip(thetas, *columns))
    del user_quant   # its kept powers are of no use to the cluster curves

    # cluster capacity, caching gain and energy efficiency vs cache size
    zipf_grid = (0.0, 0.5, 1.0, 2.0)
    qos = scenario.qos()
    power = scenario.power()
    rows = []
    peak_gain = 0.0
    for s in zipf_grid:
        catalog = ContentCatalog.zipf(scenario.object_size_bits, s,
                                      scenario.content_count)
        split = scenario.lambda_rrh * catalog.popularity
        from_cache, from_cloud = effcap.per_content_eff_caps(
            catalog, qos, split, scenario.lambda_rrh, params, quant)
        for k in range(scenario.content_count + 1):
            p_hit = hit_ratio(ClusterCache(k), catalog)
            cap_total = effcap.avg_eff_cap_cluster(p_hit, from_cache, from_cloud)
            gain = effcap.caching_gain(p_hit, from_cache, from_cloud)
            peak_gain = max(peak_gain, gain)
            delta = energy.power_delta(k, p_hit, power)
            eta = energy.eta_cluster(cap_total, scenario.lambda_rrh,
                                     scenario.cluster_radius, k, p_hit, power)
            rows.append((s, k, p_hit, cap_total, gain, delta, eta))
    # every row is computed before anything is written, so a failing
    # scenario leaves no output directory behind
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "effcap_vs_theta.csv"), header,
              ["theta_per_bit"] + [f"effcap_beta{int(b)}" for b in betas], user_rows)
    write_csv(os.path.join(out_dir, "cluster_vs_cache.csv"), header,
              ["zipf_s", "cache_k", "hit_ratio", "eff_cap_total",
               "caching_gain", "power_delta_w", "eta_total"], rows)

    print(f"analyze: wrote effcap_vs_theta.csv and cluster_vs_cache.csv to {out_dir}")
    print(f"analyze: peak caching gain over the grid = {peak_gain:.6g} bit/s/Hz")
    return {"peak_gain": float(peak_gain)}


# -- validate ---------------------------------------------------------------


def run_validate(scenario: Scenario, out_dir: str) -> bool:
    """Cross-check closed forms against Monte Carlo on the same parameters.

    Every analytic value is priced before the first trial is drawn, so a
    scenario the closed forms reject ends before any sampling."""
    params = scenario.user_radio()
    d_m = scenario.user_distance
    lam = scenario.lambda_rrh
    trials = scenario.mc_trials

    gammas = (0.1, 1.0, 10.0)
    outages = [effcap.outage_prob(gamma, d_m, lam, params) for gamma in gammas]
    thetas = (float(scenario.theta_cluster[0]), float(scenario.theta_cloud[0]))
    # vanishing-exponent limit: the capacity map flattens to the ergodic mean
    # once the log-moment exponent a = mu*theta*W*Tbar is tiny, so theta0
    # is set through a, not on its own (1e-8 at mu*W*T = 1)
    theta0 = 1e-8 / (params.spectral_efficiency * params.bandwidth_hz * params.slot_s)
    *anas, ana0 = effcap.eff_cap_user(thetas + (theta0,), d_m, lam, params,
                                      scenario.user_quantizer())

    # both per-content estimators, side by side (informational); these are
    # cluster-context quantities, so they use the delivery mu, and one
    # kernel pass serves every content with the same cluster exponent
    catalog = scenario.catalog()
    qos = scenario.qos()
    cluster_params = scenario.radio()
    cluster_quant = scenario.quantizer()
    split = lam * catalog.popularity
    cluster_thetas = qos.theta_cluster.tolist()
    content_caps = [None] * catalog.count
    for theta in dict.fromkeys(cluster_thetas):
        members = [l for l, other in enumerate(cluster_thetas) if other == theta]
        caps = effcap.avg_eff_cap_content((theta,), catalog.popularity[members],
                                          split[members], lam, cluster_params,
                                          cluster_quant)
        for l, (pair,) in zip(members, caps):
            content_caps[l] = pair
    # the grid is of no use to the Monte Carlo checks
    del cluster_quant

    rows = []

    def record(check: str, analytic: float, mc: float, se: float, ok: bool | None):
        status = "INFO" if ok is None else ("PASS" if ok else "FAIL")
        rows.append((check, analytic, mc, se, status))
        print(f"validate: {status:4s} {check}: analytic={analytic:.6g} "
              f"mc={mc:.6g} se={se:.3g}")

    sinr = simkit.sample_sinr_batch(d_m, lam, params, trials,
                                    substream(scenario.seed, STREAM_VALIDATE_SINR),
                                    scenario.sim_radius)
    for gamma, analytic in zip(gammas, outages):
        emp = float(np.mean(sinr < gamma))
        se = math.sqrt(max(emp * (1 - emp), 1e-12) / trials)
        record(f"outage_cdf_gamma_{gamma:g}", analytic, emp, se,
               abs(analytic - emp) < 3 * se)

    mcs = simkit.mc_eff_cap(thetas, d_m, lam, params, trials, scenario.seed,
                            scenario.sim_radius)
    for label, ana, mc in zip(("cluster", "cloud"), anas, mcs):
        tol = max(0.02 * abs(ana), 3 * mc.std_error)
        record(f"eff_cap_theta_{label}", ana, mc.value, mc.std_error,
               abs(ana - mc.value) <= tol)

    log2_sinr = np.log2(1 + sinr)
    ergodic = params.spectral_efficiency * float(np.mean(log2_sinr))
    record("ergodic_limit", ana0, ergodic,
           params.spectral_efficiency * float(np.std(log2_sinr)) / math.sqrt(trials),
           abs(ana0 - ergodic) <= 0.01 * ergodic)

    for l, (distance_avg, moment) in enumerate(content_caps):
        record(f"content_{l}_distance_avg_vs_moment", distance_avg, moment, 0.0, None)

    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "validation.csv"), scenario.header_lines(),
              ["check", "analytic", "reference", "std_error", "status"], rows)
    all_ok = all(status != "FAIL" for *_, status in rows)
    print(f"validate: {'all checks passed' if all_ok else 'CHECK FAILURES PRESENT'}")
    return all_ok


# -- allocate ---------------------------------------------------------------


def build_instance(scenario: Scenario,
                   quantizer: effcap.Quantizer | None = None) -> games.ClusterInstance:
    """The drop of ``scenario``'s seed as an allocation instance, on
    ``quantizer`` if given (a grid of the scenario's) or a fresh grid."""
    realization = sample_network(scenario.density(), scenario.cluster_radius,
                                 scenario.seed)
    if realization.n_rrh == 0 or realization.n_user == 0:
        raise CoverageError("empty realization (no RRHs or no users); "
                            "change the seed or raise the intensities")
    return games.ClusterInstance(
        realization=realization, catalog=scenario.catalog(),
        cache=scenario.cache(), qos=scenario.qos(), params=scenario.radio(),
        power=scenario.power(), lambda_rrh=scenario.lambda_rrh,
        quantizer=scenario.quantizer() if quantizer is None else quantizer,
        cost_coeff=scenario.cost_coeff)


def run_algorithm(instance: games.ClusterInstance, algorithm: str,
                  scenario: Scenario) -> games.AllocationResult:
    """Run one allocation algorithm on a built instance.

    No algorithm reads ``scenario``: the instance carries every setting.
    The parameter stays because ``perfbench/workloads.py``'s
    ``AllocationCapture`` wraps this function by its signature.
    """
    if algorithm == "nested":
        return games.nested_allocate(instance)
    if algorithm == "suboptimal":
        return games.suboptimal_allocate(instance)
    if algorithm == "orthogonal":
        return games.orthogonal_allocate(instance)
    if algorithm == "full_reuse":
        return games.full_reuse_allocate(instance)
    raise ParameterError(f"unknown algorithm {algorithm!r}; pick from {ALGORITHMS}")


def block_energy_efficiency(instance: games.ClusterInstance,
                            result: games.AllocationResult) -> list[float]:
    """Per-RRU energy efficiency under the final assignment and sleep set."""
    etas = []
    n = result.rru_count
    for block in result.rru_partition:
        partition = result.rrh_partitions[block]
        caps, active_counts = [], []
        for content in sorted(block):
            members = partition.members(content)
            caps.append(games.coalition_eff_cap(members, content, instance, n))
            active_counts.append(len(members & result.active))
        cached, fetched = instance.paid_objects(block)
        etas.append(energy.eta_rru(caps, active_counts, instance.n_rrh,
                                   cached, fetched, instance.power))
    return etas


def run_allocate(scenario: Scenario, algorithm: str, out_dir: str) -> games.AllocationResult:
    instance = build_instance(scenario)
    result = run_algorithm(instance, algorithm, scenario)
    os.makedirs(out_dir, exist_ok=True)
    header = scenario.header_lines() + [f"# algorithm = {result.algorithm}"]

    rows = []
    for rru_index, block in enumerate(result.rru_partition):
        partition = result.rrh_partitions[block]
        for content in sorted(block):
            for rrh in sorted(partition.members(content)):
                rows.append((rru_index, content, rrh,
                             1 if rrh in result.active else 0))
    write_csv(os.path.join(out_dir, "assignment.csv"), header,
              ["rru", "content", "rrh", "active"], rows)

    # partition signatures use "," inside blocks; swap for ";" to keep the CSV flat
    write_csv(os.path.join(out_dir, "steps.csv"), header,
              ["step", "op", "partition", "welfare"],
              [(s.index, s.op, s.partition.replace(",", ";"), s.welfare)
               for s in result.steps])

    etas = block_energy_efficiency(instance, result)
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(f"algorithm {result.algorithm}\n")
        fh.write(f"welfare {_F.format(result.welfare)}\n")
        fh.write(f"rru_count {result.rru_count}\n")
        fh.write(f"rrh_total {instance.n_rrh}\n")
        fh.write(f"active {len(result.active)}\n")
        fh.write(f"asleep {len(result.asleep)}\n")
        for i, (block, eta) in enumerate(zip(result.rru_partition, etas)):
            contents = ",".join(str(c) for c in sorted(block))
            fh.write(f"rru {i} contents {contents} eta {_F.format(eta)}\n")

    print(f"allocate[{algorithm}]: welfare={result.welfare:.6g} "
          f"rru_count={result.rru_count} active={len(result.active)}"
          f"/{instance.n_rrh} runtime={result.runtime_s:.3g}s")
    return result


# -- sweep ------------------------------------------------------------------


def run_sweep(scenario: Scenario, out_dir: str, instances: int,
              algorithms: tuple[str, ...] = ALGORITHMS) -> dict:
    """Paired-seed comparison of allocation algorithms.

    Every algorithm sees the same realizations (common random numbers), so
    per-seed welfare differences are directly meaningful.  The algorithms
    share one instance per drop, with the blocks each negotiates, so a
    per-algorithm ``mean_runtime`` counts only the work it adds there.
    Every drop runs on one SINR grid, so the kernel's set-up on it (ln(1 +
    midpoint) and the powers of the boundaries) is built once per sweep.
    Empty drops are skipped for every algorithm alike; any other error ends
    the sweep.
    """
    if instances < 1:
        raise ParameterError("need at least one instance")
    if not algorithms:
        raise ParameterError("no algorithm selected")
    for i, alg in enumerate(algorithms):
        if alg not in ALGORITHMS:
            raise ParameterError(f"unknown algorithm {alg!r}")
        if alg in algorithms[:i]:
            raise ParameterError(f"algorithm {alg!r} named twice")
    rows = []
    welfare: dict[str, list[float]] = {alg: [] for alg in algorithms}
    runtime: dict[str, list[float]] = {alg: [] for alg in algorithms}
    quant = scenario.quantizer()
    for i in range(instances):
        seed = scenario.seed + i
        sc = replace(scenario, seed=seed)
        try:
            instance = build_instance(sc, quant)
        except CoverageError:
            continue
        for alg in algorithms:
            result = run_algorithm(instance, alg, sc)
            welfare[alg].append(result.welfare)
            runtime[alg].append(result.runtime_s)
            rows.append((seed, alg, result.welfare, result.rru_count,
                         len(result.active), len(result.asleep)))
    if not rows:
        raise CoverageError(f"all {instances} drops were empty (no RRHs or no users); "
                            "raise the intensities")
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "sweep.csv"), scenario.header_lines(),
              ["seed", "algorithm", "welfare", "rru_count", "active", "asleep"],
              rows)
    means = {alg: float(np.mean(w)) for alg, w in welfare.items()}
    for alg in algorithms:
        print(f"sweep: {alg:11s} mean_welfare={means[alg]:.6g} "
              f"mean_runtime={np.mean(runtime[alg]):.4g}s n={len(welfare[alg])}")
    return {"mean_welfare": means,
            "mean_runtime": {alg: float(np.mean(r)) for alg, r in runtime.items()}}


# -- entry point ------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    # the shared options must work on either side of the subcommand, so
    # every action keeps SUPPRESS (a parse mentions the dest only when the
    # flag was typed) and real defaults live in the namespace _parse seeds;
    # set_defaults would write through the shared action objects and make
    # subparsers clobber root-side values on namespace copy-back
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="scenario config file (INI)")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="override the master seed")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="output directory (default: out)")
    parser = argparse.ArgumentParser(
        prog="crancache", parents=[common],
        description="Cluster content caching: capacity analysis, Monte Carlo "
                    "validation, and coalition-based RRU/RRH allocation.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("analyze", parents=[common],
                   help="write analytic capacity/energy curves")
    sub.add_parser("validate", parents=[common],
                   help="cross-check closed forms against Monte Carlo")
    p_alloc = sub.add_parser("allocate", parents=[common],
                             help="run one allocation algorithm")
    p_alloc.add_argument("--algorithm", default="nested", choices=ALGORITHMS)
    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="compare algorithms over many seeds")
    p_sweep.add_argument("--instances", type=int, default=20)
    p_sweep.add_argument("--algorithms", default=",".join(ALGORITHMS),
                         help="comma-separated subset of algorithms")
    return parser


def _parse(argv: list[str] | None) -> argparse.Namespace:
    seeded = argparse.Namespace(config=None, seed=None, out="out")
    return _parser().parse_args(argv, namespace=seeded)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        scenario = load_scenario(args.config) if args.config else Scenario()
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)
        if args.command == "analyze":
            run_analyze(scenario, args.out)
        elif args.command == "validate":
            ok = run_validate(scenario, args.out)
            return 0 if ok else 1
        elif args.command == "allocate":
            run_allocate(scenario, args.algorithm, args.out)
        elif args.command == "sweep":
            algorithms = tuple(a.strip() for a in args.algorithms.split(",") if a.strip())
            run_sweep(scenario, args.out, args.instances, algorithms)
        return 0
    except CrancacheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # the config is read without raising OSError, so this is an output:
        # --out names a file, lies under one, or cannot be written
        print(f"error: cannot write outputs under {args.out!r}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
