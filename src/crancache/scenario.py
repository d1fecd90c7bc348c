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
from dataclasses import dataclass, field, fields, replace

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


# parser of a config value, by the annotation of the field it sets
_PARSERS = {"float": float, "int": int, "int | None": int, "tuple": _floats}


def _setting(section: str, default, key: str | None = None):
    """A Scenario field set by ``key`` (default: the field's name) in a
    config file's ``[section]``."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass(frozen=True)
class Scenario:
    """Fully resolved run parameters; every field has a working default.

    Each field is one config setting: ``_setting`` declares its section,
    and its key where the key is not the field's name, so the fields are
    the only list of what a config file may set.
    """

    lambda_rrh: float = _setting("geometry", 5e-6)
    lambda_user: float = _setting("geometry", 5e-6)
    cluster_radius: float = _setting("geometry", 1000.0)  # assumed default, flagged in outputs
    sim_radius: float = _setting("geometry", DEFAULT_SIM_RADIUS)
    content_count: int = _setting("content", 5, "count")
    object_size_bits: float = _setting("content", 1e6)
    zipf_exponent: float = _setting("content", 1.0)
    popularity: tuple = _setting("content", ())          # explicit override; empty -> Zipf
    cache_size: int | None = _setting("content", None)   # None: cache the whole catalog
    theta_cluster: tuple = _setting("qos", (0.1,))
    theta_cloud: tuple = _setting("qos", (0.6,))
    # relative to RRH power; 0 -> interference-limited
    noise: float = _setting("radio", 0.0)
    pathloss_exponent: float = _setting("radio", 4.0)
    bandwidth_hz: float = _setting("radio", 1000.0)
    slot_s: float = _setting("radio", 1e-3)
    rru_count: int = _setting("radio", 5)                # reference block count fixing mu
    quant_intervals: int = _setting("quantizer", DEFAULT_INTERVALS, "intervals")
    rrh_active_w: float = _setting("power", 104.0, "rrh_active")
    rrh_sleep_w: float = _setting("power", 56.0, "rrh_sleep")
    cache_per_object_w: float = _setting("power", 0.15, "cache_per_object")
    backhaul_w: float = _setting("power", 10.0, "backhaul")
    cost_coeff: float = _setting("games", 1e-4)
    seed: int = _setting("run", 1)
    mc_trials: int = _setting("run", 100_000)
    user_distance: float = _setting("run", 50.0)         # typical-user serving distance, meters

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
        # the builders range-check the radio, power, density, cache and QoS
        # fields; the quantizers are not built here, since each allocates
        # its whole grid
        self.radio()
        self.power()
        self.density()
        self.cache()
        self.qos()

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
        return DensityConfig(self.lambda_rrh, self.lambda_user, self.catalog())

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


def load_scenario(path: str | None = None, text: str | None = None) -> Scenario:
    """Parse a config file (or literal text) into a Scenario.

    Sections and keys no Scenario field declares raise ParameterError; a
    missing file is an error, an empty file yields pure defaults.
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
    settings = {(f.metadata["section"], f.metadata["key"] or f.name): f
                for f in fields(Scenario)}
    known_sections = {section for section, _ in settings}
    values = {}
    for section, items in sections:
        if section not in known_sections:
            raise ParameterError(f"unknown config section [{section}]")
        for key, raw in items:
            setting = settings.get((section, key))
            if setting is None:
                raise ParameterError(f"unknown key {key!r} in section [{section}]")
            try:
                values[setting.name] = _PARSERS[setting.type](raw)
            except ValueError as exc:
                raise ParameterError(f"bad value for [{section}] {key}: {raw!r}") from exc
    return Scenario(**values)
