"""Content catalog, Zipf popularity, and the cluster cache."""

from __future__ import annotations

from dataclasses import dataclass, field

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


def select_top_k(catalog: ContentCatalog, k: int) -> frozenset[int]:
    """Indices of the k most popular objects; ties resolve to the lower index."""
    if not 0 <= k <= catalog.count:
        raise ParameterError(f"cache size {k} outside [0, {catalog.count}]")
    # popularity is non-increasing, so the stable prefix is exactly top-k.
    return frozenset(range(k))


def select_random_k(catalog: ContentCatalog, k: int, rng: np.random.Generator) -> frozenset[int]:
    """Uniformly random cache contents of size k (no popularity weighting)."""
    if not 0 <= k <= catalog.count:
        raise ParameterError(f"cache size {k} outside [0, {catalog.count}]")
    return frozenset(int(i) for i in rng.choice(catalog.count, size=k, replace=False))


@dataclass(frozen=True)
class ClusterCache:
    """The set of objects held at the cluster edge cache.

    A request for a stored object is served from the cache (hit); anything
    else is fetched over the backhaul from the cloud, which stores the full
    catalog.
    """

    stored: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if any(i < 0 for i in self.stored):
            raise ParameterError("stored indices must be non-negative")

    @property
    def size(self) -> int:
        return len(self.stored)

    def holds(self, content: int) -> bool:
        return content in self.stored


def hit_ratio(cache: ClusterCache, catalog: ContentCatalog) -> float:
    """Probability a request is served from the cluster cache."""
    if any(i >= catalog.count for i in cache.stored):
        raise ParameterError("cache stores an object outside the catalog")
    if not cache.stored:
        return 0.0
    return float(catalog.popularity[sorted(cache.stored)].sum())
