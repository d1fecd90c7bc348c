"""Content catalog, Zipf popularity, and the cluster cache."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


def zipf_popularity(exponent: float, count: int) -> np.ndarray:
    """Zipf request probabilities P_l = l^-s / sum_k k^-s, l = 1..count.

    exponent = 0 gives the uniform distribution.  Returned vector is
    non-increasing and sums to 1.
    """
    if count < 1:
        raise ParameterError("catalog must hold at least one object")
    if exponent < 0:
        raise ParameterError("Zipf exponent must be non-negative")
    ranks = np.arange(1, count + 1, dtype=float)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


@dataclass(frozen=True)
class ContentCatalog:
    """The library of equally sized objects users may request.

    ``popularity[l]`` is the request probability of object l (0-based;
    object 0 is the most popular).  The vector must be non-increasing:
    ranking by popularity is the indexing convention everywhere else.
    """

    object_size_bits: float
    popularity: np.ndarray

    def __post_init__(self):
        if self.object_size_bits <= 0:
            raise ParameterError("object size must be positive")
        p = np.asarray(self.popularity, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ParameterError("popularity must be a non-empty vector")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ParameterError("popularity must be non-negative and sum to 1")
        if np.any(np.diff(p) > 1e-15):
            raise ParameterError("popularity must be non-increasing in the object index")
        object.__setattr__(self, "popularity", p)

    @classmethod
    def zipf(cls, object_size_bits: float, exponent: float, count: int) -> "ContentCatalog":
        return cls(object_size_bits, zipf_popularity(exponent, count))

    @property
    def count(self) -> int:
        return int(self.popularity.size)


@dataclass(frozen=True)
class ClusterCache:
    """The cluster edge cache, holding the ``size`` most popular objects.

    Popularity is non-increasing in the object index, so those are objects
    0 .. size-1.  A request for a stored object is served from the cache
    (hit); anything else is fetched over the backhaul from the cloud,
    which stores the full catalog.
    """

    size: int = 0

    def __post_init__(self):
        if self.size < 0:
            raise ParameterError(f"cache size must be non-negative, got {self.size}")

    def holds(self, content: int) -> bool:
        return content < self.size


def hit_ratio(cache: ClusterCache, catalog: ContentCatalog) -> float:
    """Probability a request is served from the cluster cache: the
    popularity prefix sum P_1 + ... + P_K of the K = ``cache.size`` objects.

    The sum may round a few ulp past 1, or short of it for the full cache;
    so it is clamped at 1, and a full cache hits every request.
    """
    if cache.size > catalog.count:
        raise ParameterError(f"cache of {cache.size} objects exceeds the "
                             f"{catalog.count}-object catalog")
    if cache.size == catalog.count:
        return 1.0
    return min(float(catalog.popularity[:cache.size].sum()), 1.0)
