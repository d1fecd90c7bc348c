"""Statistical delay QoS: exponent mapping between cluster and cloud service.

A request served from the cluster cache only crosses the radio link, so it
can run at the target exponent theta_T.  A cloud fetch first spends a fixed
time moving the object over the backhaul; the radio stage must then be run
at a harder exponent theta_C so the end-to-end delay target still holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleBackhaulError, ParameterError

DEFAULT_HOPS = 2  # cloud -> cluster -> RRH


def theta_cloud_from_cluster(theta_cluster: float, object_bits: float,
                             backhaul_rate: float, delay_budget: float,
                             hops: int = DEFAULT_HOPS) -> float:
    """Exponent the radio stage must meet when the object comes from the cloud.

    theta_C = theta_T / (1 - rho_b) with backhaul load factor
    rho_b = hops * B / (r * D_max).  rho_b >= 1 means the backhaul alone
    blows the budget.
    """
    if theta_cluster <= 0 or object_bits <= 0 or backhaul_rate <= 0 or delay_budget <= 0:
        raise ParameterError("all rate and budget parameters must be positive")
    rho_b = hops * object_bits / backhaul_rate / delay_budget
    if rho_b >= 1:
        raise InfeasibleBackhaulError(
            f"backhaul load factor {rho_b:.3g} >= 1; no radio exponent can recover the budget")
    return theta_cluster / (1.0 - rho_b)


def min_backhaul_rate(theta_cluster: float, theta_cloud: float, object_bits: float,
                      delay_budget: float, hops: int = DEFAULT_HOPS) -> float:
    """Smallest backhaul rate for which theta_cloud suffices end to end.

    Inverse of :func:`theta_cloud_from_cluster`:
    r = hops * B / (D_max * (1 - theta_T / theta_C)).
    """
    if theta_cluster <= 0 or object_bits <= 0 or delay_budget <= 0:
        raise ParameterError("all rate and budget parameters must be positive")
    if theta_cluster >= theta_cloud:
        raise DomainError("cloud exponent must exceed the cluster exponent")
    return hops * object_bits / (delay_budget * (1.0 - theta_cluster / theta_cloud))


@dataclass(frozen=True)
class QosProfile:
    """Per-content delay exponents.

    ``theta_cluster[l]`` / ``theta_cloud[l]`` are the exponents for content
    l delivered from the cache / the cloud.  Cloud exponents can never be
    softer than cluster ones.
    """

    theta_cluster: np.ndarray
    theta_cloud: np.ndarray

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.theta_cluster, dtype=float))
        c = np.atleast_1d(np.asarray(self.theta_cloud, dtype=float))
        if t.shape != c.shape:
            raise ParameterError("exponent vectors must have equal length")
        if np.any(t <= 0) or np.any(c <= 0):
            raise ParameterError("delay exponents must be strictly positive")
        if np.any(c < t - 1e-15):
            raise ParameterError("cloud exponent below cluster exponent")
        object.__setattr__(self, "theta_cluster", t)
        object.__setattr__(self, "theta_cloud", c)

    @property
    def count(self) -> int:
        return int(self.theta_cluster.size)

    def theta_for(self, content: int, cached: bool) -> float:
        vec = self.theta_cluster if cached else self.theta_cloud
        return float(vec[content])
