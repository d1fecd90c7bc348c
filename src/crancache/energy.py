"""Power accounting and energy efficiency of the cluster."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class PowerModel:
    """Per-component power draw, watts.

    The active draw must be positive: every cluster energy efficiency
    divides by a term carrying it.  A caching cost at or above the backhaul
    cost makes caching pointless, so that configuration warns.
    """

    rrh_active: float = 104.0
    rrh_sleep: float = 56.0
    cache_per_object: float = 0.15
    backhaul: float = 10.0

    def __post_init__(self):
        if min(self.rrh_active, self.rrh_sleep, self.cache_per_object, self.backhaul) < 0:
            raise ParameterError("power figures must be non-negative")
        if self.rrh_active <= 0:
            raise ParameterError("active RRH draw must be positive")
        if self.rrh_sleep > self.rrh_active:
            raise ParameterError("sleep draw cannot exceed active draw")
        if self.cache_per_object >= self.backhaul > 0:
            warnings.warn("caching an object costs at least as much as fetching it; "
                          "the cache cannot pay for itself", stacklevel=2)


def eta_cluster(mean_eff_cap: float, lambda_rrh: float, cluster_radius: float,
                cache_size: int, hit_ratio: float, power: PowerModel) -> float:
    """Cluster energy efficiency, bit/s/Hz per watt.

    Denominator: expected RRH draw over the cluster disk
    (lambda_R * pi * r^2 * P_active) + caching power for the stored
    objects + backhaul power weighted by the miss probability.
    """
    if mean_eff_cap < 0:
        raise ParameterError("mean effective capacity must be non-negative")
    if lambda_rrh <= 0 or cluster_radius <= 0:
        raise ParameterError("RRH intensity and cluster radius must be positive")
    if cache_size < 0 or not 0 <= hit_ratio <= 1:
        raise ParameterError("cache size must be >= 0 and hit ratio in [0, 1]")
    denom = (lambda_rrh * np.pi * cluster_radius ** 2 * power.rrh_active
             + cache_size * power.cache_per_object
             + (1.0 - hit_ratio) * power.backhaul)
    return mean_eff_cap / denom


def power_delta(cache_size: int, hit_ratio: float, power: PowerModel) -> float:
    """Net power cost of running the cache: K*P_cache - P_hit*P_backhaul.

    Negative means the cache saves power on balance.  A positive value is
    legal but means the cache burns more than the backhaul it displaces,
    so it warns.
    """
    if cache_size < 0 or not 0 <= hit_ratio <= 1:
        raise ParameterError("cache size must be >= 0 and hit ratio in [0, 1]")
    delta = cache_size * power.cache_per_object - hit_ratio * power.backhaul
    if delta > 0:
        warnings.warn(f"cache adds {delta:.3g} W net; caching is not paying for "
                      "itself at this hit ratio", stacklevel=2)
    return delta


def eta_rru(per_content_eff_caps, active_counts, total_rrhs: int,
            cached_count: int, cloud_count: int, power: PowerModel) -> float:
    """Energy efficiency of one resource block, bit/s/Hz per watt.

    Numerator: summed effective capacity of the content classes sharing the
    block.  Denominator: active RRHs at full draw, the rest asleep, plus
    cache power for the block's cached objects and backhaul power for the
    fetched ones.  Putting an idle RRH to sleep shrinks the denominator by
    the active/sleep gap and leaves the numerator alone.
    """
    caps = np.atleast_1d(np.asarray(per_content_eff_caps, dtype=float))
    active = np.atleast_1d(np.asarray(active_counts, dtype=int))
    if caps.shape != active.shape:
        raise ParameterError("capacity and active-count vectors must align")
    if np.any(caps < 0) or np.any(active < 0):
        raise ParameterError("capacities and counts must be non-negative")
    n_active = int(active.sum())
    if n_active > total_rrhs:
        raise ParameterError("more active RRHs than the cluster holds")
    if cached_count < 0 or cloud_count < 0:
        raise ParameterError("object counts must be non-negative")
    denom = (n_active * power.rrh_active
             + (total_rrhs - n_active) * power.rrh_sleep
             + cached_count * power.cache_per_object
             + cloud_count * power.backhaul)
    return float(caps.sum() / denom)
