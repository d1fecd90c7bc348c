"""Out-of-program tracing for the traced run.

Public functions of the ``crancache`` modules are wrapped from outside:
every module attribute bound to the original function object (including
``from x import f`` aliases) is pointed at the wrapper, and restored on
``uninstall``.  Spans are kept in memory and written out when the run
ends.  A span's self time is its duration minus the time covered by its
wrapped children.  Counts are derived from call arguments and return
values only; no private attribute of the program is read.

Wrappers on the hottest functions (``coalition_eff_cap``, ``prefers``)
aggregate calls and times instead of recording one span per call, so the
tracing overhead stays small.
"""

from __future__ import annotations

import json
import os
import sys
import time

MODULES = ("scenario", "geometry", "effcap", "simkit", "games", "energy", "cli")

# (module, attribute path); a dotted path names a method on a class.
TARGETS = (
    ("scenario", "Scenario.quantizer"),
    ("scenario", "Scenario.user_quantizer"),
    ("geometry", "sample_network"),
    ("effcap", "avg_eff_cap_content"),
    ("effcap", "eff_cap_user"),
    ("simkit", "sample_sinr_batch"),
    ("simkit", "mc_eff_cap"),
    ("games", "coalition_eff_cap"),
    ("games", "prefers"),
    ("games", "hedonic_rrh_association"),
    ("games", "nested_allocate"),
    ("games", "suboptimal_allocate"),
    ("games", "orthogonal_allocate"),
    ("games", "full_reuse_allocate"),
    ("games", "shapley_values"),
    ("energy", "eta_cluster"),
    ("energy", "eta_rru"),
    ("energy", "power_delta"),
    ("cli", "run_analyze"),
    ("cli", "run_validate"),
    ("cli", "run_allocate"),
    ("cli", "run_sweep"),
    ("cli", "build_instance"),
    ("cli", "run_algorithm"),
    ("cli", "block_energy_efficiency"),
    ("cli", "write_csv"),
)

HOT = frozenset({"games.coalition_eff_cap", "games.prefers"})

# percentiles tried for a tail latency, highest first
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it; (50, median) when the sample is too small for any."""
    n = len(values)
    for pct in _TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10 - 1e-9:
            return pct, percentile(values, pct)
    return 50.0, percentile(values, 50.0)


class Tracer:
    """Wraps the target functions and accumulates spans and counts."""

    def __init__(self, package):
        self.package = package
        self.absent: list[str] = []
        self.stats: dict[str, list] = {}        # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []            # (id, parent, name, start, end)
        self.run_algorithm_s: list[float] = []
        self.counts = {"geometry.points": 0, "simkit.trials": 0,
                       "simkit.capped_trials": 0, "games.prefers.accepted": 0,
                       "games.steps_accepted": 0, "games.link_boundaries": 0,
                       "cli.bytes_written": 0}
        self._stack: list[list] = []            # [span id, child_s]
        self._next_id = 0
        self._patches: list[tuple] = []
        self._instances: dict[int, tuple] = {}  # id -> (index, instance)
        self._cap_keys: set = set()
        self._k_tables: set = set()
        self._exponents: dict = {}
        self.origin = time.perf_counter()

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        observers = {
            "geometry.sample_network": self._on_sample_network,
            "simkit.sample_sinr_batch": self._on_sample_sinr_batch,
            "games.coalition_eff_cap": self._on_coalition_eff_cap,
            "games.prefers": self._on_prefers,
            "games.shapley_values": self._on_shapley_values,
            "games.nested_allocate": self._on_allocation,
            "games.suboptimal_allocate": self._on_allocation,
            "games.orthogonal_allocate": self._on_allocation,
            "games.full_reuse_allocate": self._on_allocation,
            "cli.write_csv": self._on_write_csv,
        }
        for module_name, path in TARGETS:
            name = f"{module_name}.{path.split('.')[-1]}"
            module = sys.modules.get(f"{self.package}.{module_name}")
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(name, original, observers.get(name))
            if owner is module:
                self._rebind(original, wrapper)
            else:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        return self

    def _rebind(self, original, wrapper) -> None:
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, observe):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = None if name in HOT else self.spans
        durations = self.run_algorithm_s if name == "cli.run_algorithm" else None
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            if spans is None:
                span_id = parent
            else:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if spans is not None:
                    spans.append((span_id, parent, name, start - tracer.origin,
                                  end - tracer.origin))
                if durations is not None:
                    durations.append(duration)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- observers: arguments and return values only ---------------------------

    def _instance_index(self, instance) -> int:
        # holding the instance keeps its id from being reused within the run
        entry = self._instances.get(id(instance))
        if entry is None:
            entry = (len(self._instances), instance)
            self._instances[id(instance)] = entry
        return entry[0]

    def _demand_k_table(self, index, instance, content, rru_count) -> None:
        key = (index, content, rru_count)
        exponent = self._exponents.get(key)
        if exponent is None:
            exponent = (instance.mu_for(rru_count) * instance.theta_of(content)
                        * instance.params.bandwidth_hz * instance.params.tbar)
            self._exponents[key] = exponent
        if (index, exponent) not in self._k_tables:
            self._k_tables.add((index, exponent))
            self.counts["games.link_boundaries"] += (
                instance.realization.n_user * instance.n_rrh
                * len(instance.quantizer.boundaries))

    def _on_sample_network(self, args, kwargs, result) -> None:
        self.counts["geometry.points"] += result.n_rrh + result.n_user

    def _on_sample_sinr_batch(self, args, kwargs, result) -> None:
        simkit = sys.modules[f"{self.package}.simkit"]
        self.counts["simkit.trials"] += int(_arg(args, kwargs, 3, "trials"))
        self.counts["simkit.capped_trials"] += int((result >= simkit.SINR_CAP).sum())

    def _on_coalition_eff_cap(self, args, kwargs, result) -> None:
        coalition = frozenset(_arg(args, kwargs, 0, "coalition"))
        content = _arg(args, kwargs, 1, "content")
        instance = _arg(args, kwargs, 2, "instance")
        rru_count = _arg(args, kwargs, 3, "rru_count")
        index = self._instance_index(instance)
        key = (index, content, rru_count, coalition)
        if key in self._cap_keys:
            return  # its table demand is already counted
        self._cap_keys.add(key)
        if coalition and instance.users_of(content).size:
            self._demand_k_table(index, instance, content, rru_count)

    def _on_prefers(self, args, kwargs, result) -> None:
        if result:
            self.counts["games.prefers.accepted"] += 1

    def _on_shapley_values(self, args, kwargs, result) -> None:
        instance = _arg(args, kwargs, 0, "instance")
        rru_count = _arg(args, kwargs, 1, "rru_count")
        index = self._instance_index(instance)
        for content in range(instance.content_count):
            if instance.users_of(content).size:
                self._demand_k_table(index, instance, content, rru_count)

    def _on_allocation(self, args, kwargs, result) -> None:
        self.counts["games.steps_accepted"] += sum(
            1 for step in result.steps if step.op in ("merge", "split"))

    def _on_write_csv(self, args, kwargs, result) -> None:
        self.counts["cli.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    # -- results -------------------------------------------------------------

    def _calls(self, name) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def _self_s(self, *names) -> float:
        return sum(self.stats.get(n, [0, 0.0, 0.0])[2] for n in names)

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit).

        Module self times plus ``trace.uncovered_s`` add up to ``wall_s``,
        the traced duration of the workload's timed calls.
        """
        m: dict[str, tuple[float, str]] = {}

        def count(name, value):
            m[name] = (value, "count")

        def seconds(name, value):
            m[name] = (value, "s")

        count("scenario.quantizer.calls",
              self._calls("scenario.quantizer") + self._calls("scenario.user_quantizer"))
        seconds("scenario.quantizer.self_s",
                self._self_s("scenario.quantizer", "scenario.user_quantizer"))
        for name in ("geometry.sample_network", "effcap.avg_eff_cap_content",
                     "effcap.eff_cap_user", "simkit.sample_sinr_batch",
                     "games.coalition_eff_cap", "games.prefers",
                     "games.hedonic_rrh_association", "games.shapley_values"):
            count(f"{name}.calls", self._calls(name))
            seconds(f"{name}.self_s", self._self_s(name))
        count("geometry.points", self.counts["geometry.points"])
        trials = self.counts["simkit.trials"]
        count("simkit.trials", trials)
        count("simkit.capped_trials", self.counts["simkit.capped_trials"])
        sampler_s = self._self_s("simkit.sample_sinr_batch")
        m["simkit.trials_per_s"] = (trials / sampler_s if sampler_s > 0 else 0.0, "1/s")

        cap_calls = self._calls("games.coalition_eff_cap")
        m["games.coalition_eff_cap.hit_ratio"] = (
            1.0 - len(self._cap_keys) / cap_calls if cap_calls else 0.0, "ratio")
        count("games.k_tables", len(self._k_tables))
        count("games.link_boundaries", self.counts["games.link_boundaries"])
        prefers = self._calls("games.prefers")
        m["games.prefers.accept_ratio"] = (
            self.counts["games.prefers.accepted"] / prefers if prefers else 0.0, "ratio")
        seconds("games.nested_allocate.self_s", self._self_s("games.nested_allocate"))
        count("games.steps_accepted", self.counts["games.steps_accepted"])

        seconds("cli.build_instance.self_s", self._self_s("cli.build_instance"))
        samples = self.run_algorithm_s
        count("cli.run_algorithm.calls", len(samples))
        seconds("cli.run_algorithm.p50_s", percentile(samples, 50.0) if samples else 0.0)
        seconds("cli.run_algorithm.tail_s", tail(samples)[1] if samples else 0.0)
        seconds("cli.write_csv.self_s", self._self_s("cli.write_csv"))
        m["cli.bytes_written"] = (self.counts["cli.bytes_written"], "B")

        covered = 0.0
        for module in MODULES:
            module_s = sum(s[2] for n, s in self.stats.items()
                           if n.startswith(module + "."))
            seconds(f"{module}.self_s", module_s)
            covered += module_s
        seconds("trace.wall_s", wall_s)
        seconds("trace.uncovered_s", wall_s - covered)
        count("trace.absent_targets", len(self.absent))
        return m

    def write(self, path: str, extra: dict) -> None:
        """Write the spans, per-function stats and absent targets as JSON."""
        record = dict(extra)
        record["absent"] = self.absent
        record["functions"] = {n: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                               for n, s in sorted(self.stats.items())}
        record["spans"] = [{"id": i, "parent": p, "name": n, "start_s": a, "end_s": b}
                           for i, p, n, a, b in self.spans]
        with open(path, "w") as fh:
            json.dump(record, fh)
