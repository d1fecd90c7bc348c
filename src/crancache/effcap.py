"""Effective capacity of the cached-content downlink.

The link-layer rate a user can sustain under a statistical delay exponent
theta is computed from the SINR distribution of the typical user.  With
RRHs as a Poisson field and Rayleigh fading, the SINR law has closed-form
survival functions; the effective capacity follows by quantizing the SINR
axis and summing the log-moment over intervals.

Conventions used throughout:

* ``a_beta`` is the interference geometry constant
  (1/beta) * Gamma(2/beta) * Gamma(1 - 2/beta); finite only for beta > 2.
* the log-moment exponent is mu * theta * W * Tbar with Tbar = T / ln 2,
  and the outer map divides by theta * W * T, so a deterministic SINR
  gamma collapses to mu * log2(1 + gamma).
* quantizer intervals carry their probability mass via survival-function
  differences; mass beyond gamma_max folds into the last interval so the
  masses always sum to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy import special

from .errors import DomainError, ParameterError

LN2 = math.log(2.0)

DEFAULT_INTERVALS = 1 << 16
DEFAULT_GAMMA_MAX = 5e4
# Lowest positive quantizer boundary.  Strict delay exponents concentrate
# the log-moment near SINR ~ 1e-6; six extra decades of margin are cheap.
DEFAULT_GAMMA_MIN = 1e-12

# Boundaries per survival chunk and links per block: the block x chunk
# survival scratch (8 x 8,193 doubles, ~0.5 MiB) stays in L2 cache.
_BOUNDARY_CHUNK = 1 << 13
_LINK_BLOCK = 8


def a_beta(beta: float) -> float:
    """Geometry constant (1/beta)*Gamma(2/beta)*Gamma(1-2/beta).

    Diverges as beta -> 2 (interference from the far field stops being
    summable), hence the domain restriction.
    """
    if beta <= 2:
        raise DomainError(f"pathloss exponent must exceed 2, got {beta}")
    return special.gamma(2.0 / beta) * special.gamma(1.0 - 2.0 / beta) / beta


def u_func(gamma, beta: float):
    """Close-in interference correction u(gamma) for the serving-content field.

    Defined as gamma^(2/beta) * integral_{gamma^(-2/beta)}^inf dx/(1+x^(beta/2)).
    Substituting t = 1/(1+x^(beta/2)) turns the integral into an incomplete
    beta function,

        u = 2 * a_beta(beta) * gamma^(2/beta) * I_{gamma/(1+gamma)}(1-2/beta, 2/beta),

    which is exact and vectorizes; the quadrature route is kept in the test
    suite as an independent check.  For beta = 4 this reduces to
    sqrt(gamma)*arctan(sqrt(gamma)).
    """
    if beta <= 2:
        raise DomainError(f"pathloss exponent must exceed 2, got {beta}")
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise ParameterError("SINR threshold must be non-negative")
    p, q = 1.0 - 2.0 / beta, 2.0 / beta
    out = 2.0 * a_beta(beta) * g ** (2.0 / beta) * special.betainc(p, q, g / (1.0 + g))
    return float(out) if np.isscalar(gamma) else out


def required_spectral_efficiency(content_count: int, object_size_bits: float,
                                 rru_count: int, bandwidth_hz: float,
                                 slot_s: float) -> float:
    """Per-RRU spectral efficiency mu = L*B / (N*W*T) needed to ship the catalog.

    Fewer RRUs (smaller N) pack more delivery into each block, raising the
    rate each block must carry.
    """
    if content_count < 1 or rru_count < 1:
        raise ParameterError("content and RRU counts must be at least 1")
    if object_size_bits <= 0 or bandwidth_hz <= 0 or slot_s <= 0:
        raise ParameterError("object size, bandwidth and slot must be positive")
    return content_count * object_size_bits / (rru_count * bandwidth_hz * slot_s)


@dataclass(frozen=True)
class RadioParams:
    """Physical-layer constants for one evaluation context.

    ``noise`` is the normalized noise power paired with the linear average
    SNR ``snr``; noise = 0 selects the interference-limited regime.
    ``spectral_efficiency`` is the per-RRU delivery requirement mu.
    """

    snr: float
    pathloss_exponent: float
    noise: float
    bandwidth_hz: float
    slot_s: float
    spectral_efficiency: float

    def __post_init__(self):
        if self.pathloss_exponent <= 2:
            raise DomainError("pathloss exponent must exceed 2")
        if self.snr <= 0 or self.noise < 0:
            raise ParameterError("snr must be positive, noise non-negative")
        if self.bandwidth_hz <= 0 or self.slot_s <= 0 or self.spectral_efficiency <= 0:
            raise ParameterError("bandwidth, slot and spectral efficiency must be positive")

    @property
    def tbar(self) -> float:
        return self.slot_s / LN2


@dataclass(frozen=True)
class Quantizer:
    """SINR axis partition used by all quantized expectations.

    ``boundaries`` has n+1 entries, starts at exactly 0 and increases
    strictly; interval n is [boundaries[n], boundaries[n+1]) with typical
    value at the arithmetic midpoint.
    """

    boundaries: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        if b.ndim != 1 or b.size < 2:
            raise ParameterError("need at least one interval")
        if b[0] != 0.0:
            raise ParameterError("first boundary must be exactly 0")
        if np.any(np.diff(b) <= 0):
            raise ParameterError("boundaries must increase strictly")
        object.__setattr__(self, "boundaries", b)

    @property
    def n_intervals(self) -> int:
        return self.boundaries.size - 1

    @property
    def gamma_max(self) -> float:
        return float(self.boundaries[-1])

    @property
    def midpoints(self) -> np.ndarray:
        b = self.boundaries
        return 0.5 * (b[:-1] + b[1:])

    @classmethod
    def geometric(cls, intervals: int = DEFAULT_INTERVALS,
                  gamma_max: float = DEFAULT_GAMMA_MAX,
                  gamma_min: float = DEFAULT_GAMMA_MIN) -> "Quantizer":
        """Log-spaced grid; resolves the low-SINR region where the
        log-moment integrand varies fastest."""
        if intervals < 2 or not 0 < gamma_min < gamma_max:
            raise ParameterError("need intervals >= 2 and 0 < gamma_min < gamma_max")
        b = np.empty(intervals + 1)
        b[0] = 0.0
        b[1:] = np.geomspace(gamma_min, gamma_max, intervals)
        return cls(b)

    @classmethod
    def equal_width(cls, intervals: int = 10 ** 6,
                    gamma_max: float = DEFAULT_GAMMA_MAX) -> "Quantizer":
        """Uniform grid.  Needs very many intervals to resolve strict
        exponents; kept for reproducing equal-width reference runs."""
        if intervals < 1 or gamma_max <= 0:
            raise ParameterError("need intervals >= 1 and gamma_max > 0")
        return cls(np.linspace(0.0, gamma_max, intervals + 1))


def _sinr_coeffs(gamma, lambda_rrh: float, params: RadioParams,
                 lambda_l: float | None = None):
    """Exponents (c1, c2) of the SINR law on a threshold grid.

    A link of length d has Pr{SINR > gamma} = exp(-(c1*d^2 + c2*d^beta))
    (Andrews, Baccelli & Ganti 2011): c1 = 2*pi*A(beta)*lambda*gamma^(2/beta)
    is the Poisson interference field, c2 = gamma*noise/snr the noise floor.
    Given ``lambda_l``, d is the distance to the nearest of the lambda_l
    content holders, so the other holders lie beyond d: the remaining
    lambda_R - lambda_l of the field interferes as before and the holders
    add pi*lambda_l*u(gamma).
    """
    beta = params.pathloss_exponent
    g = np.asarray(gamma, dtype=float)
    lam = lambda_rrh if lambda_l is None else lambda_rrh - lambda_l
    c1 = 2.0 * np.pi * a_beta(beta) * lam * g ** (2.0 / beta)
    if lambda_l is not None:
        c1 = c1 + np.pi * lambda_l * u_func(g, beta)
    return c1, g * (params.noise / params.snr)


def _moment_weights(quantizer: Quantizer, a: float) -> np.ndarray:
    """Log-moment weight (1 + midpoint)^(-a) of every quantizer interval."""
    return np.exp(-a * np.log1p(quantizer.midpoints))


def _folded_moment(survival, weights: list[np.ndarray]) -> list:
    """Sum over quantizer intervals of probability mass times each weight vector.

    ``survival(sl)`` is the survival function at the boundaries in slice
    ``sl`` (last axis).  Masses are its differences, and the mass beyond
    gamma_max folds into the last interval so the masses sum to one.
    Boundaries are taken _BOUNDARY_CHUNK at a time, so the scratch array
    is rows x _BOUNDARY_CHUNK; :func:`_log_moments` passes at most a few
    links (rows) per call.  Each chunk's survival and masses are formed
    once and summed against every weight vector by its own gemv, so a
    vector's sum has the same operands, and bytes, as if it came alone.
    """
    n = weights[0].size
    gs = [0.0] * len(weights)
    buffer = None
    for lo in range(0, n, _BOUNDARY_CHUNK):
        sl = slice(lo, min(lo + _BOUNDARY_CHUNK, n) + 1)
        surv = survival(sl)
        if buffer is None:  # the first chunk is the widest
            buffer = np.empty(surv.size)
        mass = np.subtract(surv[..., :-1], surv[..., 1:],
                           out=_view(buffer, surv.shape[:-1] + (sl.stop - lo - 1,)))
        gs = [g + mass @ w[lo:sl.stop - 1] for g, w in zip(gs, weights)]
    return [g + surv[..., -1] * w[-1] for g, w in zip(gs, weights)]


def _view(buffer: np.ndarray, shape: tuple) -> np.ndarray:
    """Contiguous array of ``shape`` over the front of a flat buffer.

    Reusing one buffer saves a fresh, page-faulted allocation per chunk;
    a contiguous view runs every ufunc and gemv on the same loop, and so
    to the same bytes, as a fresh array would.
    """
    return buffer[:math.prod(shape)].reshape(shape)


def _log_moments(d, c1: np.ndarray, c2: np.ndarray, beta: float,
                 weights: list[np.ndarray]) -> list[np.ndarray]:
    """Quantized log-moments G(d) of the SINR law, one per weight vector,
    each shaped like the lengths d.

    ``c1``, ``c2`` are :func:`_sinr_coeffs` on the quantizer boundaries and
    ``weights`` holds :func:`_moment_weights` vectors, one per exponent.
    Links go through :func:`_folded_moment` _LINK_BLOCK at a time, so each
    survival chunk stays in cache and each sum is a small gemv whose bytes
    do not depend on the BLAS thread count.  A G may underflow to 0; pass
    the one a caller demands through :func:`_demand_moment`.
    """
    d = np.asarray(d, dtype=float)
    d_sq, d_beta = d ** 2, d ** beta
    n = d.shape[-1] if d.ndim else 1
    # numpy sums a 1-row block with a dot routine, not gemv, which rounds
    # differently; so a lone last link joins the block before it
    starts = list(range(0, max(n - 1, 1), _LINK_BLOCK))
    # without noise c2 is all 0.0 and x - bt*c2 == x bit for bit, so skip it;
    # c2 = gamma*noise/snr grows along the boundaries, so its last entry tells
    noisy = bool(c2[-1])
    # survival buffer for the largest block (_LINK_BLOCK + 1 links) and chunk
    buffer = np.empty(math.prod(d.shape[:-1]) * (_LINK_BLOCK + 1)
                       * (min(_BOUNDARY_CHUNK, c1.size - 1) + 1))
    gs = [np.empty(d.shape) for _ in weights]
    for lo, hi in zip(starts, starts[1:] + [n]):
        links = (..., slice(lo, hi)) if d.ndim else (...,)
        # negating the (block, 1) column saves a pass over each survival chunk
        neg_sq, bt = -d_sq[links][..., None], d_beta[links][..., None]

        def survival(sl):
            x = np.multiply(neg_sq, c1[sl],
                            out=_view(buffer, neg_sq.shape[:-1] + (sl.stop - sl.start,)))
            if noisy:
                np.subtract(x, bt * c2[sl], out=x)
            return np.exp(x, out=x)

        for g, block in zip(gs, _folded_moment(survival, weights)):
            g[links] = block
    return gs


def _demand_moment(g: np.ndarray) -> np.ndarray:
    """``g`` itself, once every entry is a usable log-moment.

    A G that underflows to 0 (a link of length ~0 puts all mass on the top
    interval, whose weight vanishes under a strict exponent) has no finite
    capacity and raises DomainError.
    """
    if not np.all(g > 0.0):
        raise DomainError("log-moment underflows to 0 (link too short for the "
                          "delay exponent); effective capacity is not finite")
    return g


def outage_prob(gamma, d_m: float, lambda_rrh: float, params: RadioParams):
    """Pr{SINR < gamma} for a user served from distance d_m.

    One minus the survival law of :func:`_sinr_coeffs`; vectorized over
    gamma.
    """
    if d_m < 0:
        raise ParameterError("distance must be non-negative")
    if lambda_rrh <= 0:
        raise ParameterError("RRH intensity must be positive")
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise ParameterError("SINR threshold must be non-negative")
    c1, c2 = _sinr_coeffs(g, lambda_rrh, params)
    out = -np.expm1(-(c1 * d_m ** 2 + c2 * d_m ** params.pathloss_exponent))
    return float(out) if np.isscalar(gamma) else out


def eff_cap_user(theta: float, d_m: float, lambda_rrh: float,
                 params: RadioParams, quantizer: Quantizer) -> float:
    """Effective capacity (bit/s/Hz) of a user served from distance d_m.

    Quantizes the SINR distribution of :func:`outage_prob` and maps the
    log-moment sum G through -ln(G)/(theta*W*T).  Decreasing in theta and
    in d_m; bounded by mu*log2(1 + gamma_max).
    """
    if theta <= 0:
        raise ParameterError("delay exponent must be strictly positive")
    if d_m < 0:
        raise ParameterError("distance must be non-negative")
    if lambda_rrh <= 0:
        raise ParameterError("RRH intensity must be positive")
    c1, c2 = _sinr_coeffs(quantizer.boundaries, lambda_rrh, params)
    a = params.spectral_efficiency * theta * params.bandwidth_hz * params.tbar
    g, = _log_moments(d_m, c1, c2, params.pathloss_exponent,
                      [_moment_weights(quantizer, a)])
    g_sum = float(_demand_moment(g))
    return -math.log(g_sum) / (theta * params.bandwidth_hz * params.slot_s)


def l_func_limited(gamma, q_ratio: float, beta: float):
    """Interference-limited outage of the nearest-content-holder link.

    1 - 1/(2*A(beta)*gamma^(2/beta)*(q-1) + u(gamma) + 1) with
    q = lambda_R / lambda_l >= 1.  Exact once noise is dropped; vectorized
    over gamma.
    """
    if q_ratio < 1:
        raise ParameterError("q_ratio = lambda_R/lambda_l cannot be below 1")
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise ParameterError("SINR threshold must be non-negative")
    denom = 2.0 * a_beta(beta) * g ** (2.0 / beta) * (q_ratio - 1.0) + u_func(g, beta) + 1.0
    out = 1.0 - 1.0 / denom
    return float(out) if np.isscalar(gamma) else out


def _l_decay_coeff(gamma, lambda_l: float, lambda_rrh: float, params: RadioParams):
    """Quadratic-exponent coefficient of the nearest-distance outage integrand."""
    c1, _ = _sinr_coeffs(gamma, lambda_rrh, params, lambda_l)
    return c1 + np.pi * lambda_l


def _l_grid(boundaries: np.ndarray, lambda_l: float, lambda_rrh: float,
            params: RadioParams, laguerre_order: int = 96) -> np.ndarray:
    """Vectorized nearest-holder outage on a boundary grid.

    Noise-free grids use the closed form; otherwise the distance integral
    is taken against its exponential weight with Gauss-Laguerre nodes
    (checked against the adaptive-quadrature ``l_func_general`` in
    ``tests/oracles.py``).
    """
    if params.noise == 0.0:
        return np.asarray(l_func_limited(boundaries, lambda_rrh / lambda_l,
                                         params.pathloss_exponent))
    beta = params.pathloss_exponent
    c = _l_decay_coeff(boundaries, lambda_l, lambda_rrh, params)
    # in t = pi*lambda_l*d^2 the integral is int exp(-(1+alpha)t - nu t^(b/2)) dt;
    # substituting t = s*tau with s = 1/((1+alpha) + nu^(2/b)) keeps both decay
    # channels at unit scale, else the nodes overshoot the noise cliff entirely
    alpha = c / (np.pi * lambda_l) - 1.0
    nu = boundaries * (params.noise / params.snr) * (np.pi * lambda_l) ** (-beta / 2.0)
    s = 1.0 / (1.0 + alpha + nu ** (2.0 / beta))
    nodes, weights = np.polynomial.laguerre.laggauss(laguerre_order)
    t = s[:, None] * nodes[None, :]
    rest = np.exp(-((1.0 + alpha) * s - 1.0)[:, None] * nodes[None, :]
                  - nu[:, None] * t ** (beta / 2.0))
    vals = s * (rest @ weights)
    return 1.0 - vals


def avg_eff_cap_content(theta: float, popularity: float, lambda_l: float,
                        lambda_rrh: float, params: RadioParams, quantizer: Quantizer,
                        form: str = "distance_avg") -> float:
    """Popularity-weighted mean effective capacity of one content class.

    The user associates with the nearest RRH holding the content (intensity
    lambda_l inside the full field lambda_R); the remaining holders closer
    than the noise horizon contribute through the u() correction.

    Two estimators are exposed:

    * ``"distance_avg"`` (default): average the per-distance effective
      capacity over the nearest-holder distance law
      f(d) = 2*pi*lambda_l*d*exp(-pi*lambda_l*d^2).
    * ``"quantized_moment"``: build the unconditional SINR law from the
      nearest-holder outage curve, then map its log-moment once.  Reported
      alongside the default by the validation command; the two coincide as
      the SINR law degenerates and otherwise bracket the service rate.
    """
    if theta <= 0 or not 0 <= popularity <= 1:
        raise ParameterError("need theta > 0 and popularity in [0, 1]")
    if not 0 < lambda_l <= lambda_rrh:
        raise ParameterError("need 0 < lambda_l <= lambda_rrh")
    if form not in ("distance_avg", "quantized_moment"):
        raise ParameterError(f"unknown estimator form {form!r}")
    if popularity == 0.0:
        return 0.0
    a = params.spectral_efficiency * theta * params.bandwidth_hz * params.tbar
    weights = _moment_weights(quantizer, a)
    denom = theta * params.bandwidth_hz * params.slot_s

    if form == "quantized_moment":
        survival = 1.0 - _l_grid(quantizer.boundaries, lambda_l, lambda_rrh, params)
        g, = _folded_moment(lambda sl: survival[sl], [weights])
        return popularity * (-math.log(float(g)) / denom)

    c1, c2 = _sinr_coeffs(quantizer.boundaries, lambda_rrh, params, lambda_l)
    beta = params.pathloss_exponent

    def eff_cap_at(t: float) -> float:
        d = math.sqrt(t / (np.pi * lambda_l))
        g, = _log_moments(d, c1, c2, beta, [weights])
        return -math.log(float(_demand_moment(g))) / denom

    val, _ = integrate.quad(lambda t: math.exp(-t) * eff_cap_at(t),
                            0.0, np.inf, epsabs=1e-9, epsrel=1e-8, limit=200)
    return popularity * val


def per_content_eff_caps(catalog, qos, lambda_split: np.ndarray, lambda_rrh: float,
                         params: RadioParams,
                         quantizer: Quantizer) -> tuple[np.ndarray, np.ndarray]:
    """Per-content capacity vectors at the cache exponent and the cloud exponent.

    Each entry is the default ``distance_avg`` form of
    :func:`avg_eff_cap_content`.

    Returns (from_cache, from_cloud); entry l already carries the P_l
    weighting.  Neither depends on what the cache actually holds, so the
    split into hit and miss terms is left to the caller.
    """
    split = np.asarray(lambda_split, dtype=float)
    if split.size != catalog.count or qos.count != catalog.count:
        raise ParameterError("catalog, QoS profile and density split must align")
    from_cache = np.empty(catalog.count)
    from_cloud = np.empty(catalog.count)
    for l in range(catalog.count):
        p_l = float(catalog.popularity[l])
        from_cache[l] = avg_eff_cap_content(float(qos.theta_cluster[l]), p_l,
                                            float(split[l]), lambda_rrh, params,
                                            quantizer)
        from_cloud[l] = avg_eff_cap_content(float(qos.theta_cloud[l]), p_l,
                                            float(split[l]), lambda_rrh, params,
                                            quantizer)
    return from_cache, from_cloud


def avg_eff_cap_cluster(p_hit: float, from_cache: np.ndarray,
                        from_cloud: np.ndarray) -> float:
    """Cluster-level mean effective capacity at cache hit ratio ``p_hit``.

    E_T = P_hit * sum_l E_l(theta_cluster) + (1 - P_hit) * sum_l E_l(theta_cloud),
    from the :func:`per_content_eff_caps` vectors; non-decreasing in the
    hit ratio whenever cloud exponents are at least as strict as cluster
    ones.
    """
    return float(p_hit * from_cache.sum() + (1.0 - p_hit) * from_cloud.sum())


def caching_gain(p_hit: float, from_cache: np.ndarray, from_cloud: np.ndarray) -> float:
    """Capacity added by the cache relative to serving everything from the cloud.

    P_hit * sum_l (E_l(theta_cluster) - E_l(theta_cloud)), from the
    :func:`per_content_eff_caps` vectors; non-negative whenever
    theta_cluster <= theta_cloud elementwise.
    """
    return float(p_hit * (from_cache - from_cloud).sum())
