"""crancache benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload analysis --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` times the workload's cli calls with tracing off and prints
the end-to-end metrics; ``--trace 1`` is a separate run that wraps the
package's public functions and prints the per-layer metrics.  Either way
the outputs are checked after timing, and the last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--workload all`` runs every workload, untraced and traced, each in its
own process, and prints one table with the tracing overhead per workload.

The program is imported from ``src/`` of the checkout holding this file;
without it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import os

# One BLAS thread (never above nproc): runs compare like with like, and a
# second tenant's load moves single-threaded timings least.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCES = os.path.join(HERE, "references.json")

WORKLOAD_NAMES = ("analysis", "sweep", "dense")
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 900


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


def import_program():
    """Import crancache from this checkout's src/, and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "crancache")):
        raise BenchmarkError(f"no crancache package under {SRC}")
    sys.path.insert(0, SRC)
    import crancache
    if not os.path.abspath(crancache.__file__).startswith(SRC + os.sep):
        raise BenchmarkError(f"crancache imported from {crancache.__file__}, not {SRC}")
    return crancache


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "openblas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def measure_setup(workload: str, seed: int, probes: int) -> list[float]:
    """Set-up times of fresh processes: spawn to ready for the first timed call.

    Each probe imports the package and builds the workload's inputs exactly
    as a run does, then reports the monotonic clock (shared by all
    processes on one host) and exits.
    """
    times = []
    for _ in range(probes):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, time, check; returns the result object the last line prints."""
    from workloads import WORKLOADS, AllocationCapture, quiet
    from tracer import Tracer

    # half the set-up probes run before the timed calls and half after, so
    # they sample two moments of a host whose speed drifts over seconds
    setups = [] if trace else measure_setup(name, seed, SETUP_PROBES // 2)
    workload = WORKLOADS[name](seed)
    run_dir = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)

    walls, cpus, captures, error = [], [], [], None
    run_start = time.perf_counter()
    while True:
        out_dir = os.path.join(run_dir, f"solve{len(walls)}")
        os.makedirs(out_dir)
        capture = AllocationCapture().install()
        tracer = Tracer("crancache").install() if trace else None
        try:
            with quiet():
                start, cpu = time.perf_counter(), time.process_time()
                workload.solve(out_dir)
                walls.append(time.perf_counter() - start)
                cpus.append(time.process_time() - cpu)
        except Exception as exc:  # a crash is a failed run, reported below
            error = exc
        finally:
            if tracer is not None:
                tracer.uninstall()
            capture.uninstall()
        captures.append((out_dir, capture))
        elapsed = time.perf_counter() - run_start
        if error or trace or elapsed + walls[-1] > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not trace:
        setups += measure_setup(name, seed, SETUP_PROBES - len(setups))

    if error is not None:
        attempted = max(workload.planned_items(), 1)
        failures = {"solve": [f"raised {error!r}"]}
        failed = attempted
    else:
        with open(REFERENCES) as fh:
            refs = json.load(fh).get(name, {})
        attempted, failures = 0, {}
        for out_dir, capture in captures:
            problems = workload.check(workload.collect(out_dir, capture), refs)
            attempted += len(problems)
            failures.update({k: v for k, v in problems.items() if v})
        failed = len(failures)
    for key, problems in sorted(failures.items())[:20]:
        print(f"perfbench: FAIL {name} {key}: {'; '.join(problems)}")

    env = environment()
    print("perfbench: env " + json.dumps(env, sort_keys=True))
    wall_s = statistics.median(walls) if walls else time.perf_counter() - run_start
    if trace:
        layer = tracer.metrics(wall_s)
        tracer.write(os.path.join(run_dir, "spans.json"),
                     {"workload": name, "seed": seed, "env": env})
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        if tracer.absent:
            print("perfbench: absent targets " + ", ".join(tracer.absent))
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "wall_s": {"value": wall_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
        print(f"perfbench: {name} seed={seed} solves={len(walls)} "
              f"walls_s={[round(w, 4) for w in walls]} "
              f"cpu_s={[round(c, 4) for c in cpus]} setups_s="
              f"{[round(s, 4) for s in setups]} error_rate="
              f"{failed / attempted:.4g} ({failed}/{attempted})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} trace={trace} failed:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary = {"seed": seed, "seconds": seconds, "env": environment(), "workloads": {}}
    ok = True
    for name in WORKLOAD_NAMES:
        plain = run_child(name, seed, seconds, 0)
        traced = run_child(name, seed, seconds, 1)
        wall = plain["metrics"]["wall_s"]["value"]
        overhead = traced["metrics"]["trace.wall_s"]["value"] - wall
        error_rate = plain["failed"] / plain["attempted"]
        ok &= plain["correct"] and traced["correct"]
        print(f"== {name}")
        for key in ("setup_s", "wall_s", "peak_rss_mb"):
            m = plain["metrics"][key]
            print(f"  {key:34s} {m['value']:14.6g} {m['unit']}")
        print(f"  {'error_rate':34s} {error_rate:14.6g} ratio "
              f"({plain['failed']}/{plain['attempted']})")
        print(f"  {'trace.overhead_s':34s} {overhead:14.6g} s")
        for key, m in traced["metrics"].items():
            print(f"  {key:34s} {m['value']:14.6g} {m['unit']}")
        summary["workloads"][name] = {"untraced": plain, "traced": traced,
                                      "error_rate": error_rate,
                                      "trace_overhead_s": overhead}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"summary-seed{seed}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    print("perfbench: all workloads " + ("correct" if ok else "HAVE FAILURES"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30,
                        help="measure for this long (at least one solve)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        import_program()
        if args.setup_probe:
            from workloads import WORKLOADS
            WORKLOADS[args.workload](args.seed)
            print(time.monotonic())
            return 0
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, ImportError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
