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
* a content's capacity averages over the nearest-holder distance law on
  a fixed rule in ln t, t = pi * lambda_l * d^2 (:func:`_distance_rule`),
  so one kernel pass over its nodes serves every delay exponent and both
  estimators (:func:`avg_eff_cap_content`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError

LN2 = math.log(2.0)

DEFAULT_INTERVALS = 1 << 16
DEFAULT_GAMMA_MAX = 5e4
# Lowest positive quantizer boundary.  Strict delay exponents concentrate
# the log-moment near SINR ~ 1e-6; six extra decades of margin are cheap.
DEFAULT_GAMMA_MIN = 1e-12
# Top boundary of the grid for per-user curves (Scenario.user_quantizer).
USER_GAMMA_MAX = 1e12

# Boundaries per survival chunk and links per block: a worker's block x
# chunk survival and mass scratch (2 x 9 x 8,193 doubles, ~1.1 MiB) stays
# in the L2 cache of the core it runs on, one set per worker.
_BOUNDARY_CHUNK = 1 << 13
_LINK_BLOCK = 8
# Fewest grid intervals at which the link blocks run on several threads.
# Below it each ufunc and gemv of a block is too short for the GIL it
# releases to pay for passing the GIL between threads: on a 2-vCPU Xeon,
# 3,808 links ran 2x slower on a 512-interval grid, even at 2,048 and
# 1.3x faster at 4,096.
_PARALLEL_INTERVALS = 1 << 12

# Terms past the first of the incomplete-beta series behind u_func
# (_beta_series): each is below half the one before, so 55 reach 2^-55.
# Where x^16 <= 2^-56 the first 16 terms alone do.
_SERIES_TERMS = 55
_HEAD_TERMS = 16
_HEAD_X = 2.0 ** (-56 / _HEAD_TERMS)


def a_beta(beta: float) -> float:
    """Geometry constant (1/beta)*Gamma(2/beta)*Gamma(1-2/beta).

    Diverges as beta -> 2 (interference from the far field stops being
    summable), hence the domain restriction.
    """
    if beta <= 2:
        raise DomainError(f"pathloss exponent must exceed 2, got {beta}")
    return math.gamma(2.0 / beta) * math.gamma(1.0 - 2.0 / beta) / beta


def u_func(gamma, beta: float):
    """Close-in interference correction u(gamma) for the serving-content field.

    Defined as gamma^(2/beta) * integral_{gamma^(-2/beta)}^inf dx/(1+x^(beta/2)).
    Substituting t = 1/(1+x^(beta/2)) turns the integral into a regularized
    incomplete beta function,

        u = 2 * a_beta(beta) * gamma^(2/beta) * I_{gamma/(1+gamma)}(p, q),

    with p = 1 - 2/beta and q = 2/beta.  As p + q = 1, B(p, q) = pi/sin(pi p)
    and I_x(p, q) = x^p (1-x)^q sin(pi p)/(pi p) * S_p(x) with the series
    S_p(x) = 2F1(1, 1; p+1; x) = sum_n n!/(p+1)_n x^n (DLMF 8.17.8).  Every
    power cancels, since gamma^q x^p (1-x)^q = x and 2*a_beta*sin(pi p) =
    2*pi/beta, which leaves

    * gamma <= 1: u = (q/p) * x * S_p(x) at x = gamma/(1+gamma) <= 1/2;
    * gamma > 1: u = 2*a_beta*gamma^q - (1-y) * S_q(y), from the complement
      I_x(p, q) = 1 - I_y(q, p) at y = 1/(1+gamma) <= 1/2, which keeps the
      tail that gamma/(1+gamma) rounds away once gamma passes 2^53.

    Each branch is evaluated on its own entries only, and
    :func:`_beta_series` sums either series to 2^-55.  Within 1e-14 of a
    40-digit evaluation for gamma up to e^60 (``tests/oracles.py``).  For
    beta = 4 u reduces to sqrt(gamma)*arctan(sqrt(gamma)).
    """
    if beta <= 2:
        raise DomainError(f"pathloss exponent must exceed 2, got {beta}")
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise ParameterError("SINR threshold must be non-negative")
    p, q = 1.0 - 2.0 / beta, 2.0 / beta
    flat = g.ravel()
    low = flat <= 1.0
    high = ~low
    out = np.empty(flat.shape)
    gl, gh = flat[low], flat[high]
    x = gl / (1.0 + gl)
    out[low] = (q / p) * x * _beta_series(x, p)
    out[high] = (2.0 * a_beta(beta) * gh ** q
                 - gh / (1.0 + gh) * _beta_series(1.0 / (1.0 + gh), q))
    return float(out[0]) if np.isscalar(gamma) else out.reshape(g.shape)


def _beta_series(x: np.ndarray, p: float) -> np.ndarray:
    """S_p(x) = sum_n n!/(p+1)_n x^n for 0 < p < 1 and 0 <= x <= 1/2.

    Term n + 1 is below x times term n, so the first _SERIES_TERMS + 1
    terms leave under 2^-55 of the sum; a fixed Horner loop adds them.
    Past term _HEAD_TERMS - 1 it runs only on entries above _HEAD_X:
    below it those terms sum to under x^16/(1-x) < 2^-55 as well.
    """
    n = np.arange(1.0, _SERIES_TERMS + 1)
    coeffs = np.concatenate(([1.0], np.cumprod(n / (p + n))))
    big = x > _HEAD_X
    xb = x[big]
    tail = np.full(xb.shape, coeffs[-1])
    for c in coeffs[-2:_HEAD_TERMS - 1:-1]:
        tail *= xb
        tail += c
    s = np.zeros(x.shape)
    s[big] = tail
    for c in coeffs[_HEAD_TERMS - 1::-1]:
        s *= x
        s += c
    return s


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

    ``noise`` is the noise power relative to the RRH transmit power (unit
    path gain at 1 m); noise = 0 selects the interference-limited regime.
    ``spectral_efficiency`` is the per-RRU delivery requirement mu.
    """

    pathloss_exponent: float
    noise: float
    bandwidth_hz: float
    slot_s: float
    spectral_efficiency: float

    def __post_init__(self):
        if self.pathloss_exponent <= 2:
            raise DomainError("pathloss exponent must exceed 2")
        if self.noise < 0:
            raise ParameterError("noise must be non-negative")
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
    value at the arithmetic midpoint.  The grid holds a read-only copy of
    the boundaries, so a caller mutating its own array moves nothing here.

    A grid also keeps the kernel's set-up on it, each part built on first
    use and then held, read-only, for as long as the grid lives: ln(1 +
    midpoint) and, per pathloss exponent beta, the powers gamma^(2/beta)
    and u(gamma).  Nothing is kept per log-moment exponent: the kernel
    forms the weights (1 + midpoint)^(-a) a chunk at a time, so what a
    grid keeps does not grow with the exponents its callers ask for.  Each
    part depends on the grid and at most one scalar, so a kept part has
    the bits of a fresh one.
    """

    boundaries: np.ndarray
    _kept: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.array(self.boundaries, dtype=float)
        if b.ndim != 1 or b.size < 2:
            raise ParameterError("need at least one interval")
        if b[0] != 0.0:
            raise ParameterError("first boundary must be exactly 0")
        if np.any(np.diff(b) <= 0):
            raise ParameterError("boundaries must increase strictly")
        b.setflags(write=False)
        object.__setattr__(self, "boundaries", b)
        object.__setattr__(self, "_kept", {})

    @property
    def midpoints(self) -> np.ndarray:
        b = self.boundaries
        return 0.5 * (b[:-1] + b[1:])

    def _keep(self, key, make):
        """``make()`` on the first request for ``key``, the kept value after."""
        if key not in self._kept:
            value = make()
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            self._kept[key] = value
        return self._kept[key]

    def _log_mid(self) -> np.ndarray:
        """ln(1 + midpoint), one per interval; the moment weight of
        interval i at exponent a is exp(-a * ln(1 + midpoint_i))."""
        return self._keep("log_mid", lambda: np.log1p(self.midpoints))

    def _power(self, beta: float) -> np.ndarray:
        """gamma^(2/beta) at every boundary."""
        return self._keep(("power", beta), lambda: self.boundaries ** (2.0 / beta))

    def _u(self, beta: float) -> np.ndarray:
        """u(gamma) of :func:`u_func` at every boundary."""
        return self._keep(("u", beta), lambda: u_func(self.boundaries, beta))

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


def _sinr_coeffs(gamma, lambda_rrh: float, params: RadioParams,
                 lambda_l: float | None = None):
    """Exponents (c1, c2) of the SINR law on a threshold grid.

    A link of length d has Pr{SINR > gamma} = exp(-(c1*d^2 + c2*d^beta))
    (Andrews, Baccelli & Ganti 2011): c1 = 2*pi*A(beta)*lambda*gamma^(2/beta)
    is the Poisson interference field, c2 = gamma*noise the noise floor.
    Given ``lambda_l``, d is the distance to the nearest of the lambda_l
    content holders, so the other holders lie beyond d: the remaining
    lambda_R - lambda_l of the field interferes as before and the holders
    add pi*lambda_l*u(gamma).

    ``gamma`` is an array of thresholds or a :class:`Quantizer`, whose
    boundaries are then the thresholds and whose kept gamma^(2/beta) and
    u(gamma) serve in place of fresh ones; c1 and c2 are formed on every
    call, in the same order either way, so their bits do not depend on it.
    """
    beta = params.pathloss_exponent
    if isinstance(gamma, Quantizer):
        g, power, u = gamma.boundaries, gamma._power, gamma._u
    else:
        g = np.asarray(gamma, dtype=float)
        power, u = (lambda b: g ** (2.0 / b)), (lambda b: u_func(g, b))
    lam = lambda_rrh if lambda_l is None else lambda_rrh - lambda_l
    c1 = 2.0 * np.pi * a_beta(beta) * lam * power(beta)
    if lambda_l is not None:
        c1 = c1 + np.pi * lambda_l * u(beta)
    return c1, g * params.noise


def log_moment_exponent(mu: float, theta: float, params: RadioParams) -> float:
    """Log-moment exponent a = mu * theta * W * Tbar of a delay exponent theta
    at the per-RRU spectral efficiency mu."""
    return mu * theta * params.bandwidth_hz * params.tbar


def log_moments(d, exponents, lambda_rrh: float, params: RadioParams,
                quantizer: Quantizer, lambda_l: float | None = None) -> list[np.ndarray]:
    """Quantized log-moments G(d) = E[(1 + SINR)^(-a)] of the links whose
    lengths the vector d holds, one vector per exponent a.

    The SINR law is :func:`_sinr_coeffs` on the quantizer boundaries (the
    nearest-holder law given ``lambda_l``).  Interval masses are survival
    differences, and the mass beyond gamma_max folds into the last interval
    so the masses sum to one; each is weighted by (1 + midpoint)^(-a).
    Links go _LINK_BLOCK at a time and boundaries _BOUNDARY_CHUNK at a
    time, so each survival chunk stays in cache.  A chunk's survival and
    masses are formed once and summed against every exponent's weights by
    a small gemv of its own, so each G has the bytes of a lone pass, and
    the bytes do not depend on the BLAS thread count.

    The walk goes chunk by chunk, and within a chunk block by block.  At
    the start of a chunk its weights for every exponent are formed from
    the grid's kept ln(1 + midpoint), so a call holds exponents x chunk
    weights per worker, never a weight vector over the grid.  Each
    block's sums carry from chunk to chunk in its slice of G, 0.0 + p0 +
    p1 + ..., the additions and order of a block that ran every chunk in
    one go; the top-interval fold joins at the last chunk.  ln(1 +
    midpoint) and the SINR law's powers of the boundaries are the grid's
    kept set-up (:class:`Quantizer`), so a call builds only c1 and c2,
    the chunk weights and the survival chunks.

    The link blocks run in parallel, one contiguous span of them per CPU
    this process may run on (``os.sched_getaffinity``, else
    ``os.cpu_count``), the calling thread working the first span.  A call
    with one block (``eff_cap_user``) or on a grid of under
    _PARALLEL_INTERVALS intervals stays on the calling thread.  The
    set-up is built before any worker starts, each worker forms its own
    chunk weights and scratch and writes only its own links' sums, and
    numpy's exp and gemv release the GIL.  A block's sums are those of a serial pass
    whoever runs it: the block edges, the chunk order and each gemv are
    the same.  The gemv is ``np.dot`` into a scratch vector, which calls
    the BLAS routine ``@`` calls but, unlike ``@``, releases the GIL.  So
    the bytes do not depend on the worker count either.  Every worker
    thread ends with the call.

    A chunk where every exponent's weights are all 0.0 is skipped, wherever
    it falls; the weights do not increase along the grid, so only the
    chunks past the last nonzero weight are.  Survival lies in [0, 1], so
    every mass is finite, and such a chunk would add only mass * 0.0 =
    +-0.0 to each sum: skipping it keeps every byte.  A G may underflow to
    0; pass the one a caller demands through :func:`demand_moment`.
    """
    c1, c2 = _sinr_coeffs(quantizer, lambda_rrh, params, lambda_l)
    log_mid = quantizer._log_mid()
    d = np.asarray(d, dtype=float)
    # negating the (links, 1) column saves a pass over each survival chunk
    neg_sq, bt = -d[:, None] ** 2, d[:, None] ** params.pathloss_exponent
    n, m = d.size, c1.size - 1
    # numpy sums a 1-row block with a dot routine, not gemv, which rounds
    # differently; so a lone last link joins the block before it
    starts = list(range(0, max(n - 1, 1), _LINK_BLOCK))
    blocks = list(zip(starts, starts[1:] + [n]))
    # without noise c2 is all 0.0 and x - bt*c2 == x bit for bit, so skip it;
    # c2 = gamma*noise grows along the boundaries, so its last entry tells
    noisy = bool(c2[-1])
    # each block's running sums, 0.0 before its first chunk
    gs = [np.zeros(n) for _ in exponents]

    def run(span):
        # the worker's own survival, mass and partial-sum buffers, sized for
        # the largest block (_LINK_BLOCK + 1 links) and chunk; a contiguous
        # view over the front of one runs every ufunc and gemv on the same
        # loop, and so to the same bytes, as a fresh array would, without a
        # page-faulted allocation per chunk
        surv_buf = np.empty((_LINK_BLOCK + 1) * (min(_BOUNDARY_CHUNK, m) + 1))
        mass_buf = np.empty((_LINK_BLOCK + 1) * min(_BOUNDARY_CHUNK, m))
        part_buf = np.empty(_LINK_BLOCK + 1)
        for b0 in range(0, m, _BOUNDARY_CHUNK):
            k = min(_BOUNDARY_CHUNK, m - b0)   # intervals in this chunk
            # the bits of the whole-grid weights exp(-a * ln(1 + midpoint))
            weights = [np.exp(-a * log_mid[b0:b0 + k]) for a in exponents]
            if not any(w.any() for w in weights):
                continue
            for lo, hi in span:
                size = hi - lo
                part = part_buf[:size]
                surv = np.multiply(neg_sq[lo:hi], c1[b0:b0 + k + 1],
                                   out=surv_buf[:size * (k + 1)].reshape(size, k + 1))
                if noisy:
                    np.subtract(surv, bt[lo:hi] * c2[b0:b0 + k + 1], out=surv)
                np.exp(surv, out=surv)
                mass = np.subtract(surv[:, :-1], surv[:, 1:],
                                   out=mass_buf[:size * k].reshape(size, k))
                for g, w in zip(gs, weights):
                    g[lo:hi] += np.dot(mass, w, out=part)
                    # the chunk ending at the top interval folds in the mass
                    # beyond gamma_max; where the last weight is 0.0, the
                    # fold adds +0.0
                    if b0 + k == m:
                        g[lo:hi] += surv[:, -1] * w[-1]

    spans = _spans(blocks) if m >= _PARALLEL_INTERVALS else [blocks]
    if len(spans) == 1:
        run(spans[0])
    else:
        # imported here: concurrent.futures loads logging, ~7 ms that every
        # command would pay at start-up whether or not it builds a K table
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(len(spans) - 1) as pool:
            workers = [pool.submit(run, span) for span in spans[1:]]
            run(spans[0])
            for worker in workers:
                worker.result()
    return gs


def _spans(blocks: list) -> list[list]:
    """``blocks`` cut into one contiguous span per CPU this process may run
    on, as even as the count allows; no more spans than blocks."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    count = min(cpus, len(blocks))
    edges = [len(blocks) * i // count for i in range(count + 1)]
    return [blocks[lo:hi] for lo, hi in zip(edges, edges[1:])]


def demand_moment(g: np.ndarray) -> np.ndarray:
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
    try:
        out = -np.expm1(-(c1 * d_m ** 2 + c2 * d_m ** params.pathloss_exponent))
    except OverflowError:
        raise DomainError(f"distance {d_m:g} m to the power {params.pathloss_exponent:g} "
                          "overflows a float") from None
    return float(out) if np.isscalar(gamma) else out


def eff_cap_user(thetas, d_m: float, lambda_rrh: float,
                 params: RadioParams, quantizer: Quantizer) -> list[float]:
    """Effective capacities (bit/s/Hz) of a user served from distance d_m,
    one per delay exponent in ``thetas``.

    Quantizes the SINR distribution of :func:`outage_prob` and maps the
    log-moment sum G through -ln(G)/(theta*W*T).  One kernel pass serves
    every exponent, each G with the bytes of a lone pass.  Decreasing in
    theta and in d_m; bounded by mu*log2(1 + gamma_max).
    """
    if any(theta <= 0 for theta in thetas):
        raise ParameterError("delay exponent must be strictly positive")
    if d_m < 0:
        raise ParameterError("distance must be non-negative")
    if lambda_rrh <= 0:
        raise ParameterError("RRH intensity must be positive")
    gs = log_moments([d_m], [log_moment_exponent(params.spectral_efficiency, theta, params)
                             for theta in thetas], lambda_rrh, params, quantizer)
    return [-math.log(demand_moment(g)[0]) / (theta * params.bandwidth_hz * params.slot_s)
            for theta, g in zip(thetas, gs)]


def _distance_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights of a fixed rule for int_0^inf e^(-t) f(t) dt.

    Composite Gauss-Legendre in u = ln t, 16 nodes on each of 14 equal
    panels of u in [-30, 4]; a node's weight is its u weight times the
    Jacobian t and the density e^(-t).  The capacity integrand is
    non-increasing in t, so beyond u = 4 it carries under e^(-54) of the
    mass, and below u = -30 (t < 1e-13) about 1e-13 at the defaults.
    Going lower gains nothing and reaches lengths where the survival
    differences cancel and G underflows.
    """
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(-30.0, 4.0, 15)
    half = 0.5 * np.diff(edges)[:, None]
    u = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * x).ravel()
    t = np.exp(u)
    return t, (half * w).ravel() * t * np.exp(-t)


# t = pi*lambda_l*d^2 is exponential(1) under the nearest-holder distance law
_T_NODES, _T_WEIGHTS = _distance_rule()


def avg_eff_cap_content(thetas, popularity: float, lambda_l: float,
                        lambda_rrh: float, params: RadioParams,
                        quantizer: Quantizer) -> list[tuple[float, float]]:
    """Popularity-weighted mean effective capacities of one content class,
    a (distance_avg, quantized_moment) pair per delay exponent in ``thetas``.

    The user associates with the nearest RRH holding the content (intensity
    lambda_l inside the full field lambda_R); the remaining holders closer
    than the noise horizon contribute through the u() correction.
    t = pi*lambda_l*d^2 is Exp(1) under the nearest-holder distance law,
    and one :func:`log_moments` pass on the fixed :func:`_distance_rule`
    nodes gives G(t) at every node and exponent (each G with the bytes of
    a lone pass).  Times the popularity, the pair is

    * distance_avg = E_t[-ln G(t)] / (theta*W*T): the per-distance capacity
      averaged over the distance law, which every curve and game reports;
    * quantized_moment = -ln E_t[G(t)] / (theta*W*T): the capacity of the
      distance-averaged SINR law, whose survival E_t[S_t(gamma)] is the
      nearest-holder coverage 1 - L(gamma); the validation command prints
      both.

    The two are orders of one average, so by Jensen (-ln is convex) the
    first is never below the second.  A content nobody requests
    (popularity 0) contributes 0 whatever its holders, with no kernel
    pass, so only a requested one needs 0 < lambda_l <= lambda_R.
    """
    if any(theta <= 0 for theta in thetas) or not 0 <= popularity <= 1:
        raise ParameterError("need theta > 0 and popularity in [0, 1]")
    if popularity == 0.0:
        return [(0.0, 0.0)] * len(thetas)
    if not 0 < lambda_l <= lambda_rrh:
        raise ParameterError("need 0 < lambda_l <= lambda_rrh for a requested content")
    gs = log_moments(np.sqrt(_T_NODES / (np.pi * lambda_l)),
                     [log_moment_exponent(params.spectral_efficiency, theta, params)
                      for theta in thetas], lambda_rrh, params, quantizer, lambda_l)
    caps = []
    for theta, g in zip(thetas, gs):
        denom = theta * params.bandwidth_hz * params.slot_s
        caps.append((popularity * (float(_T_WEIGHTS @ -np.log(demand_moment(g))) / denom),
                     popularity * (-math.log(float(_T_WEIGHTS @ g)) / denom)))
    return caps


def per_content_eff_caps(catalog, qos, lambda_split: np.ndarray, lambda_rrh: float,
                         params: RadioParams,
                         quantizer: Quantizer) -> tuple[np.ndarray, np.ndarray]:
    """Per-content capacity vectors at the cache exponent and the cloud exponent.

    Entry l is the ``distance_avg`` of one :func:`avg_eff_cap_content`
    call on the content's (theta_cluster, theta_cloud), so both exponents
    share its one kernel pass over the fixed distance nodes.  Contents with
    the same exponents, popularity and lambda_l share the call itself.

    Returns (from_cache, from_cloud); entry l already carries the P_l
    weighting.  Neither depends on what the cache actually holds, so the
    split into hit and miss terms is left to the caller.
    """
    split = np.asarray(lambda_split, dtype=float)
    if split.size != catalog.count or qos.count != catalog.count:
        raise ParameterError("catalog, QoS profile and density split must align")
    from_cache = np.empty(catalog.count)
    from_cloud = np.empty(catalog.count)
    caps = {}
    for l in range(catalog.count):
        key = ((float(qos.theta_cluster[l]), float(qos.theta_cloud[l])),
               float(catalog.popularity[l]), float(split[l]))
        if key not in caps:
            caps[key] = avg_eff_cap_content(*key, lambda_rrh, params, quantizer)
        (from_cache[l], _), (from_cloud[l], _) = caps[key]
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
