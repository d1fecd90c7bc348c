"""Monte Carlo reference paths.

Everything here exists to check the closed forms, not to be fast at scale:
fresh interference fields per trial and exact SINR (no quantization).
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .effcap import RadioParams, log_moment_exponent
from .errors import DomainError, ParameterError
from .geometry import DEFAULT_SIM_RADIUS, STREAM_FADING, substream

# Sentinel SINR when the denominator vanishes (no interferers, no noise).
SINR_CAP = 1e12

MIN_TRIALS = 100

# Bound on a batch's expected links, trials * (lambda_R*pi*sim_radius^2 + 1):
# every trial's interferers plus its serving link, each one random draw.
# The batch streams in chunks, so this bounds its time, not its memory:
# 2^26 is 10x the default load and holds 10^6 trials at default density.
MAX_DRAWS = 1 << 26

# Interferer draws per chunk of the trial walk: each of a chunk's radius,
# fading and term arrays is ~1 MiB, at any density (~2,000 default trials).
CHUNK_DRAWS = 1 << 17


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo point estimate with its standard error."""

    value: float
    std_error: float


def sample_sinr_batch(d_m: float, lambda_rrh: float, params: RadioParams,
                      trials: int, rng: np.random.Generator,
                      sim_radius: float = DEFAULT_SIM_RADIUS) -> np.ndarray:
    """SINR draws for a user served from distance d_m.

    Each trial gets a fresh Poisson interference field on the simulation
    disk and fresh unit-mean exponential fading on every link; the serving
    RRH sits at exactly d_m and never interferes.  Draw order is fixed
    (counts, interferer radii, interferer fading, serving fading) so a
    given generator state always yields the same sample.  A batch whose
    expected links exceed MAX_DRAWS raises ParameterError before any draw.

    The trials are walked in chunks of about CHUNK_DRAWS interferers, so
    memory stays bounded at any trial count and density.  The radii come
    from a copy of the generator taken after the counts, and the
    interferer fading from the original advanced past them: a PCG64
    generator (as ``substream`` gives) spends one output per double, so
    every draw keeps its stream position and the sample is the one a
    single pass over all interferers draws.  Advancing drops a pending
    32-bit half-output; nothing here draws 32-bit values.
    """
    if d_m <= 0:
        raise ParameterError("serving distance must be positive")
    if lambda_rrh <= 0 or trials < 1 or sim_radius <= 0:
        raise ParameterError("need positive intensity, radius and trial count")
    area = np.pi * sim_radius * sim_radius     # sim_radius ** 2 overflows past 1e154
    draws = trials * (lambda_rrh * area + 1.0)
    if draws > MAX_DRAWS:
        raise ParameterError(f"{trials} trials at {lambda_rrh:g} RRHs per m^2 on a "
                             f"{sim_radius:g} m disk need ~{draws:.3g} draws, over "
                             f"the {MAX_DRAWS} bound; lower mc_trials, lambda_rrh "
                             "or sim_radius")
    beta = params.pathloss_exponent
    denom = _interference(lambda_rrh, beta, trials, rng, sim_radius)
    # the walk's counts and chunk buffers are gone with its frame, and the
    # SINR forms in place in the order of np.where(denom > 0, signal /
    # max(denom, 1e-300), inf) capped at SINR_CAP, so its bits are the formula's
    sinr = rng.standard_exponential(trials)
    try:
        sinr *= d_m ** (-beta)
    except OverflowError:
        raise DomainError(f"serving distance {d_m:g} m to the power -{beta:g} "
                          "overflows a float") from None
    denom += params.noise
    empty = ~(denom > 0.0)
    if np.any(denom == 0.0):
        warnings.warn("trial with empty interference field and zero noise; "
                      f"SINR capped at {SINR_CAP:g}", stacklevel=2)
    np.maximum(denom, 1e-300, out=denom)
    sinr /= denom
    sinr[empty] = np.inf
    return np.minimum(sinr, SINR_CAP, out=sinr)


def _interference(lambda_rrh: float, beta: float, trials: int,
                  rng: np.random.Generator, sim_radius: float) -> np.ndarray:
    """Each trial's interference power: the counts, interferer radii and
    interferer fading of :func:`sample_sinr_batch`, drawn from ``rng`` in
    its order, which leaves ``rng`` just before the serving fading."""
    counts = rng.poisson(lambda_rrh * np.pi * sim_radius ** 2, size=trials)
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1])
    radius_rng = copy.deepcopy(rng)
    rng.bit_generator.advance(total)

    # chunk edges fall after the last trial that ends within each multiple
    # of CHUNK_DRAWS, so a chunk draws at most CHUNK_DRAWS past its first
    # trial's draws.  Each non-empty trial sums its own segment: terms span
    # ~beta*13 orders of magnitude, so a running cumsum-and-difference
    # would cancel them.
    edges = np.searchsorted(ends, np.arange(CHUNK_DRAWS, total, CHUNK_DRAWS),
                            side="right")
    # A chunk's trials end at or below one multiple of CHUNK_DRAWS and its
    # first starts less than a trial's count below the multiple before, so
    # two buffers of CHUNK_DRAWS plus the largest count hold every chunk's
    # radii and fading.  random(out=) draws uniform()'s bits (uniform is
    # 0.0 + 1.0 * x), and the terms form in place in the order of the
    # formula, sim_radius * sqrt(x), then ** -beta, then times the fading.
    interference = np.zeros(trials)
    width = min(total, CHUNK_DRAWS + int(counts.max()))
    radii_buf, fading_buf = np.empty(width), np.empty(width)
    for lo, hi in zip([0, *edges], [*edges, trials]):
        busy = lo + np.flatnonzero(counts[lo:hi])
        if busy.size == 0:
            continue
        first = starts[busy[0]]
        size = int(ends[busy[-1]] - first)
        terms = radius_rng.random(out=radii_buf[:size])
        np.sqrt(terms, out=terms)
        terms *= sim_radius
        np.power(terms, -beta, out=terms)
        terms *= rng.standard_exponential(out=fading_buf[:size])
        interference[busy] = np.add.reduceat(terms, starts[busy] - first)
    return interference


def mc_eff_cap(thetas, d_m: float, lambda_rrh: float, params: RadioParams,
               trials: int, seed: int,
               sim_radius: float = DEFAULT_SIM_RADIUS) -> list[McEstimate]:
    """Monte Carlo effective capacities of a user served from distance d_m,
    one per delay exponent in ``thetas``.

    Estimates the log-moment mean(e^(-a*L)), L = ln(1+SINR) and
    a = mu*theta*W*Tbar, and maps it through -ln(mean)/(theta*W*T).  The
    mean is taken as e^(-a*L_min) * (1 - mean(y)) with L_min = min L and
    y = -expm1(-a*(L - L_min)), and its log as a*L_min - log1p(-mean(y)):
    no draw underflows however large a*L gets, and where a*L is tiny the
    gap 1 - mean(e^(-a*L)) keeps its digits.  The standard error
    propagates through the log by the delta method.  theta enters only in
    post-processing, so every exponent shares one batch of SINR draws, the
    same batch any call with this seed draws, and the estimates are
    exactly monotone in theta.
    """
    if any(theta <= 0 for theta in thetas):
        raise ParameterError("delay exponent must be strictly positive")
    if trials < MIN_TRIALS:
        raise ParameterError(f"at least {MIN_TRIALS} trials required, got {trials}")
    rng = substream(seed, STREAM_FADING)
    sinr = sample_sinr_batch(d_m, lambda_rrh, params, trials, rng, sim_radius)
    log1p_sinr = np.log1p(sinr)
    l_min = float(log1p_sinr.min())
    shifted = log1p_sinr - l_min
    estimates = []
    for theta in thetas:
        a = log_moment_exponent(params.spectral_efficiency, theta, params)
        y = -np.expm1(-a * shifted)
        y_mean = float(y.mean())
        y_se = float(y.std(ddof=1) / math.sqrt(trials))
        denom = theta * params.bandwidth_hz * params.slot_s
        estimates.append(McEstimate(value=(a * l_min - math.log1p(-y_mean)) / denom,
                                    std_error=y_se / ((1.0 - y_mean) * denom)))
    return estimates
