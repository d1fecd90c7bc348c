"""Spatial model: Poisson fields of RRHs and users on a disk.

RRHs and users are drawn as independent homogeneous Poisson point
processes, and each user independently draws the object it requests with
probability lambda_l / lambda_R.  The per-content holder fields
(intensity lambda_l, sum lambda_l = lambda_R) enter only the analytic
law, through lambda_l; no drop marks which content an RRH holds.

All randomness flows from a single 64-bit master seed.  Sub-streams are
derived as ``default_rng(SeedSequence(master, spawn_key=path))`` where
``path`` is a tuple of small integers naming the consumer (see the
``STREAM_*`` constants: RRH positions 0, user positions 2, user content
marks 3, fading 4, and ``validate``'s single-link SINR batch 11; stream 5
is reserved for the test oracles' game instances); the same (seed, path)
pair always reproduces the same draws, independent of call order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# Sub-stream names for the documented seed-derivation scheme.
STREAM_RRH_POS = 0
STREAM_USER_POS = 2
STREAM_USER_MARK = 3
STREAM_FADING = 4
STREAM_VALIDATE_SINR = 11

# Simulation window, meters.  Interference beyond this radius is dropped.
# It is below the serving signal, but not small next to the interference
# it is cut from: a Poisson field's mean interference beyond R falls only
# as R^(2 - beta).  At the defaults (seed 1, 10^5 trials) `validate` FAILs
# 3 of 6 checks at beta = 3 (eff_cap_theta_cluster 3.98982 analytic
# against 4.10784) and all six at beta = 2.01, 2.2 and 2.5.  At beta = 3.5
# and 4 all pass, but the Monte Carlo capacity still reads 0.3-0.9% high.
# At beta = 3, an 8000 m window (5e4 trials) brings the capacity checks
# in (4.00356 against 3.98982).
DEFAULT_SIM_RADIUS = 2000.0

# Bounds on a drop's expected size, both checked before any point is drawn.
# Links are users x RRHs: an allocation instance holds a distance per link
# and, per delay exponent it prices, a K-table entry from the log-moment
# kernel.  2^20 links is 275x the benchmark's dense drop (3,808 links,
# ~0.3 s to allocate) and 8 MiB per table, so a typo such as cluster_radius
# = 1e5 (2.5e10 links, a 184 GiB distance array) exits 2 instead.
MAX_LINKS = 1 << 20
# Drawing a field holds ~6 doubles per point, 48 MiB at 2^20 points.  Within
# the links bound a field passes it only when the other expects under one
# point, as with cluster_radius = 1e7 and lambda_user = 1e-20 (1.6e9 RRHs
# for a drop that is likely empty).
MAX_POINTS = 1 << 20


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Derive an independent generator from the master seed and a stream path."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(path)))


@dataclass(frozen=True)
class DensityConfig:
    """Intensities of the RRH and user fields (points per square meter).

    ``lambda_split`` holds the per-content RRH intensities; it is
    renormalized on construction so the entries sum to ``lambda_rrh``
    exactly.
    """

    lambda_rrh: float
    lambda_user: float
    lambda_split: np.ndarray

    def __post_init__(self):
        if self.lambda_rrh <= 0 or self.lambda_user <= 0:
            raise ParameterError("densities lambda_rrh and lambda_user must be positive")
        split = np.asarray(self.lambda_split, dtype=float)
        if split.ndim != 1 or split.size == 0 or np.any(split < 0):
            raise ParameterError("lambda_split must be a non-empty vector of non-negative intensities")
        total = split.sum()
        if total <= 0:
            raise ParameterError("lambda_split must have positive total intensity")
        object.__setattr__(self, "lambda_split", split * (self.lambda_rrh / total))

    @classmethod
    def from_popularity(cls, lambda_rrh: float, lambda_user: float,
                        popularity: np.ndarray) -> "DensityConfig":
        """Split the RRH field proportionally to content popularity."""
        return cls(lambda_rrh, lambda_user, lambda_rrh * np.asarray(popularity, dtype=float))


@dataclass(frozen=True)
class NetworkRealization:
    """One sampled drop: RRH and user positions plus request marks.

    ``user_content[j]`` is the object (0-based) user ``j`` requests.
    """

    cluster_radius: float
    rrh_xy: np.ndarray          # (n_rrh, 2)
    user_xy: np.ndarray         # (n_user, 2)
    user_content: np.ndarray    # (n_user,) int
    seed: int

    def __post_init__(self):
        if self.cluster_radius <= 0:
            raise ParameterError("cluster_radius must be positive")
        for xy in (self.rrh_xy, self.user_xy):
            if xy.size and np.hypot(xy[:, 0], xy[:, 1]).max() > self.cluster_radius * (1 + 1e-12):
                raise ParameterError("point outside the cluster disk")
        if len(self.user_content) != len(self.user_xy):
            raise ParameterError("request marks must align with the user points")

    @property
    def n_rrh(self) -> int:
        return len(self.rrh_xy)

    @property
    def n_user(self) -> int:
        return len(self.user_xy)


def sample_ppp(intensity: float, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Draw a homogeneous PPP on a disk; returns an (n, 2) coordinate array.

    The count is Poisson(intensity * pi * radius^2); positions are uniform
    on the disk (radius via sqrt of a uniform draw).
    """
    if intensity <= 0:
        raise ParameterError("PPP intensity must be strictly positive")
    if radius <= 0:
        raise ParameterError("disk radius must be strictly positive")
    n = rng.poisson(intensity * np.pi * radius ** 2)
    r = radius * np.sqrt(rng.uniform(size=n))
    phi = rng.uniform(0.0, 2 * np.pi, size=n)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi)])


def thin_by_content(points: np.ndarray, probabilities: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """Assign each point an independent content class.

    ``probabilities`` must sum to 1 within 1e-12; class l is drawn with
    probability lambda_l / lambda_R.  Thinning a PPP this way yields
    independent PPPs per class, which the analysis relies on.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or p.size == 0 or np.any(p < 0):
        raise ParameterError("probabilities must be a non-negative vector")
    if abs(p.sum() - 1.0) > 1e-12:
        raise ParameterError(f"probabilities must sum to 1 (got {p.sum()!r})")
    p = p / p.sum()
    return rng.choice(p.size, size=len(points), p=p)


def sample_network(density: DensityConfig, radius: float, seed: int) -> NetworkRealization:
    """Sample a full drop from the master seed using the documented streams.

    User request marks follow ``density.lambda_split``.  A drop whose
    expected points per field exceed MAX_POINTS, or whose expected links
    exceed MAX_LINKS, raises ParameterError before any draw.
    """
    area = np.pi * radius * radius     # radius ** 2 raises OverflowError past 1e154
    rrhs, users = density.lambda_rrh * area, density.lambda_user * area
    fix = "lower cluster_radius, lambda_rrh or lambda_user"
    if max(rrhs, users) > MAX_POINTS:
        raise ParameterError(f"a {radius:g} m cluster expects ~{rrhs:.3g} RRHs and "
                             f"~{users:.3g} users, over the {MAX_POINTS} points per "
                             f"field bound; {fix}")
    if rrhs * users > MAX_LINKS:
        raise ParameterError(f"a {radius:g} m cluster expects ~{rrhs * users:.3g} links "
                             f"(users x RRHs), over the {MAX_LINKS} bound; {fix}")
    split_frac = density.lambda_split / density.lambda_rrh
    rrh_xy = sample_ppp(density.lambda_rrh, radius, substream(seed, STREAM_RRH_POS))
    user_xy = sample_ppp(density.lambda_user, radius, substream(seed, STREAM_USER_POS))
    user_content = thin_by_content(user_xy, split_frac, substream(seed, STREAM_USER_MARK))
    return NetworkRealization(radius, rrh_xy, user_xy, user_content, seed)
