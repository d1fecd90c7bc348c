"""Scenario configuration: defaults, file parsing, and object assembly.

Config files are INI-style text with one section per model area.  Every
key has a default (the reference evaluation setup: 1 ms slots, 1 kHz
blocks, intensities 5e-6 per m^2, five 1-Mbit objects, 104/56 W RRHs,
0.15 W per cached object, 10 W backhaul, exponents 0.1 and 0.6); unknown
sections or keys are rejected rather than ignored so typos cannot
silently fall back to defaults.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .content import ClusterCache, ContentCatalog
from .effcap import (DEFAULT_INTERVALS, USER_GAMMA_MAX, Quantizer, RadioParams,
                     required_spectral_efficiency)
from .energy import PowerModel
from .errors import ParameterError
from .geometry import DEFAULT_SIM_RADIUS, DensityConfig
from .qos import QosProfile
from .simkit import MIN_TRIALS

# Bound on [quantizer] intervals: a grid holds, for as long as it lives, its
# boundaries, ln(1 + midpoint) and two power vectors per pathloss exponent,
# each of its size, so 2^20 (16x the default, 8 MiB per vector) keeps a
# typo from asking for terabytes.
MAX_INTERVALS = 1 << 20


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


@dataclass(frozen=True)
class Scenario:
    """Fully resolved run parameters; every field has a working default."""

    # geometry
    lambda_rrh: float = 5e-6
    lambda_user: float = 5e-6
    cluster_radius: float = 1000.0     # assumed default, flagged in outputs
    sim_radius: float = DEFAULT_SIM_RADIUS
    # content
    content_count: int = 5
    object_size_bits: float = 1e6
    zipf_exponent: float = 1.0
    popularity: tuple = ()             # explicit override; empty -> Zipf
    cache_size: int | None = None      # None: cache the whole catalog
    # qos
    theta_cluster: tuple = (0.1,)
    theta_cloud: tuple = (0.6,)
    # radio
    noise: float = 0.0                 # relative to RRH power; 0 -> interference-limited
    pathloss_exponent: float = 4.0
    bandwidth_hz: float = 1000.0
    slot_s: float = 1e-3
    rru_count: int = 5                 # reference block count fixing mu
    # quantizer
    quant_intervals: int = DEFAULT_INTERVALS
    # power
    rrh_active_w: float = 104.0
    rrh_sleep_w: float = 56.0
    cache_per_object_w: float = 0.15
    backhaul_w: float = 10.0
    # games
    cost_coeff: float = 1e-4
    # run
    seed: int = 1
    mc_trials: int = 100_000
    user_distance: float = 50.0        # typical-user serving distance, meters

    def __post_init__(self):
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        for f in fields(self):
            value = getattr(self, f.name)
            entries = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in entries):
                raise ParameterError(f"{f.name} must be finite, got {value!r}")
        if self.mc_trials < MIN_TRIALS:
            raise ParameterError(f"mc_trials must be at least {MIN_TRIALS}, "
                                 f"got {self.mc_trials}")
        for name in ("cluster_radius", "sim_radius", "user_distance",
                     "bandwidth_hz", "slot_s"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)!r}")
        for name, least in (("quant_intervals", 2), ("rru_count", 1)):
            if getattr(self, name) < least:
                raise ParameterError(f"{name} must be at least {least}, "
                                     f"got {getattr(self, name)!r}")
        if self.quant_intervals > MAX_INTERVALS:
            raise ParameterError(f"quant_intervals must be at most {MAX_INTERVALS}, "
                                 f"got {self.quant_intervals!r}")
        if self.popularity and len(self.popularity) != self.content_count:
            raise ParameterError(f"popularity has {len(self.popularity)} entries "
                                 f"for {self.content_count} contents")
        if self.cost_coeff < 0:
            raise ParameterError(f"cost_coeff must be non-negative, got {self.cost_coeff!r}")
        # the builders range-check the radio, power and density fields; the
        # quantizers are not built here, since each allocates its whole grid
        self.radio()
        self.power()
        self.density()

    def _theta_vec(self, raw: tuple) -> np.ndarray:
        if len(raw) == 1:
            return np.full(self.content_count, raw[0])
        if len(raw) != self.content_count:
            raise ParameterError("theta vector length must be 1 or the content count")
        return np.asarray(raw, dtype=float)

    def catalog(self) -> ContentCatalog:
        if self.popularity:
            return ContentCatalog(self.object_size_bits,
                                  np.asarray(self.popularity, dtype=float))
        return ContentCatalog.zipf(self.object_size_bits, self.zipf_exponent,
                                   self.content_count)

    def resolved_cache_size(self) -> int:
        return self.content_count if self.cache_size is None else self.cache_size

    def cache(self) -> ClusterCache:
        k = self.resolved_cache_size()
        if not 0 <= k <= self.content_count:
            raise ParameterError(f"cache size {k} outside [0, {self.content_count}]")
        return ClusterCache(k)

    def qos(self) -> QosProfile:
        return QosProfile(self._theta_vec(self.theta_cluster),
                          self._theta_vec(self.theta_cloud))

    def mu(self) -> float:
        return required_spectral_efficiency(self.content_count, self.object_size_bits,
                                            self.rru_count, self.bandwidth_hz,
                                            self.slot_s)

    def radio(self) -> RadioParams:
        return RadioParams(pathloss_exponent=self.pathloss_exponent, noise=self.noise,
                           bandwidth_hz=self.bandwidth_hz, slot_s=self.slot_s,
                           spectral_efficiency=self.mu())

    def quantizer(self) -> Quantizer:
        return Quantizer.geometric(self.quant_intervals)

    def user_radio(self) -> RadioParams:
        """Radio constants for typical-user curves.

        Per-user effective capacity uses the plain bit/s/Hz normalization
        (spectral efficiency 1).  The content-delivery requirement mu()
        belongs to cluster aggregates and allocation utilities, where the
        object stream sets the log-moment exponent; folding it into the
        per-user curve would push the exponent so high that the curve
        reads the deep-outage tail instead of the channel.
        """
        return replace(self.radio(), spectral_efficiency=1.0)

    def user_quantizer(self) -> Quantizer:
        """Grid for typical-user curves.

        At unit normalization the moment still feels SINR values far above
        the cluster grid's reach (at pathloss exponent 8 and 50 m, half the
        mass sits beyond 5e4), so the per-user grid extends to
        ``effcap.USER_GAMMA_MAX``.
        """
        return Quantizer.geometric(self.quant_intervals, USER_GAMMA_MAX)

    def power(self) -> PowerModel:
        return PowerModel(rrh_active=self.rrh_active_w, rrh_sleep=self.rrh_sleep_w,
                          cache_per_object=self.cache_per_object_w,
                          backhaul=self.backhaul_w)

    def density(self) -> DensityConfig:
        return DensityConfig.from_popularity(self.lambda_rrh, self.lambda_user,
                                             self.catalog().popularity)

    def header_lines(self) -> list[str]:
        """Resolved parameter set as '#' comment lines for CSV embedding."""
        lines = ["# scenario parameters (fully resolved)"]
        for f in fields(self):
            value = getattr(self, f.name)
            note = ""
            if f.name == "cache_size" and value is None:
                value = self.resolved_cache_size()
                note = "  (follows content count)"
            if isinstance(value, float):
                value = f"{value:.9g}"
            if f.name == "cluster_radius" and value == "1000":
                note = "  (assumed default)"
            lines.append(f"# {f.name} = {value}{note}")
        lines.append(f"# derived: mu_bit_s_hz = {self.mu():.9g}")
        return lines


_SCHEMA = {
    "geometry": {"lambda_rrh": float, "lambda_user": float,
                 "cluster_radius": float, "sim_radius": float},
    "content": {"count": int, "object_size_bits": float, "zipf_exponent": float,
                "popularity": _floats, "cache_size": int},
    "qos": {"theta_cluster": _floats, "theta_cloud": _floats},
    "radio": {"noise": float, "pathloss_exponent": float,
              "bandwidth_hz": float, "slot_s": float, "rru_count": int},
    "quantizer": {"intervals": int},
    "power": {"rrh_active": float, "rrh_sleep": float, "cache_per_object": float,
              "backhaul": float},
    "games": {"cost_coeff": float},
    "run": {"seed": int, "mc_trials": int, "user_distance": float},
}

# (section, key) -> Scenario field name, where they differ
_FIELD_MAP = {
    ("content", "count"): "content_count",
    ("quantizer", "intervals"): "quant_intervals",
    ("power", "rrh_active"): "rrh_active_w",
    ("power", "rrh_sleep"): "rrh_sleep_w",
    ("power", "cache_per_object"): "cache_per_object_w",
    ("power", "backhaul"): "backhaul_w",
}


def load_scenario(path: str | None = None, text: str | None = None) -> Scenario:
    """Parse a config file (or literal text) into a Scenario.

    Sections and keys outside the schema raise ParameterError; a missing
    file is an error, an empty file yields pure defaults.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        if text is not None:
            parser.read_string(text)
        elif not parser.read(path):
            raise ParameterError(f"config file not found: {path}")
        # items() interpolates, so a stray '%' in a value fails here
        sections = [(section, parser.items(section)) for section in parser.sections()]
    except (configparser.Error, UnicodeDecodeError) as exc:
        # configparser spreads some messages over several lines
        raise ParameterError("malformed config: " + " ".join(str(exc).split())) from exc
    values = {}
    for section, items in sections:
        if section not in _SCHEMA:
            raise ParameterError(f"unknown config section [{section}]")
        for key, raw in items:
            caster = _SCHEMA[section].get(key)
            if caster is None:
                raise ParameterError(f"unknown key {key!r} in section [{section}]")
            name = _FIELD_MAP.get((section, key), key)
            try:
                values[name] = caster(raw)
            except ValueError as exc:
                raise ParameterError(f"bad value for [{section}] {key}: {raw!r}") from exc
    scenario = Scenario(**values)
    scenario.cache()     # surface cache-size and theta-length errors at load time
    scenario.qos()
    return scenario
