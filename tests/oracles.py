"""Slow, independent reference paths the tests check the library against.

Nothing in ``crancache`` calls these: each recomputes a quantity the
library gets another way (adaptive quadrature where the library uses
Gauss-Laguerre nodes, an explicit per-RRH SINR draw where it samples
whole interference fields, every set partition where it runs a local
search), so agreement is evidence for both.
"""

import math
import warnings
from typing import Iterator

import numpy as np
from scipy import integrate

from crancache.effcap import RadioParams, _l_decay_coeff
from crancache.errors import ParameterError
from crancache.geometry import STREAM_FADING, NetworkRealization, substream
from crancache.simkit import SINR_CAP


def l_func_general(gamma: float, lambda_l: float, lambda_rrh: float,
                   params: RadioParams) -> float:
    """Outage of the nearest-content-holder link with a noise floor.

    1 - 2*pi*lambda_l * integral_0^inf d * exp(-C(gamma)*d^2)
    * exp(-gamma*d^beta*noise/snr) dd, evaluated by adaptive quadrature
    (relative tolerance 1e-8, truncated where the Gaussian factor is below
    1e-15 of its peak).  Coincides with ``effcap.l_func_limited`` at noise = 0.
    """
    if gamma < 0:
        raise ParameterError("SINR threshold must be non-negative")
    if not 0 < lambda_l <= lambda_rrh:
        raise ParameterError("need 0 < lambda_l <= lambda_rrh")
    beta = params.pathloss_exponent
    c = float(_l_decay_coeff(gamma, lambda_l, lambda_rrh, params))
    noise_rate = gamma * params.noise / params.snr

    def integrand(d):
        return 2.0 * np.pi * lambda_l * d * np.exp(-c * d * d - noise_rate * d ** beta)

    # integrand < 1e-15 of peak beyond whichever factor dies first; keeping
    # the interval tight stops quad from missing a support spike near 0
    d_cut = math.sqrt(math.log(1e15) / c)
    if noise_rate > 0.0:
        d_cut = min(d_cut, (math.log(1e15) / noise_rate) ** (1.0 / beta))
    val, _ = integrate.quad(integrand, 0.0, d_cut, epsabs=0.0, epsrel=1e-8, limit=200)
    return 1.0 - val


def simulate_sinr(realization: NetworkRealization, user_index: int,
                  serving_index: int, params: RadioParams,
                  fading_seed: int = 0) -> float:
    """One SINR draw on a fixed realization with fresh fading.

    All RRHs except the serving one interfere; fading comes from the
    realization's master seed via the fading sub-stream, indexed by
    ``fading_seed`` so repeated draws are independent yet replayable.
    """
    if not 0 <= user_index < realization.n_user:
        raise ParameterError("user index out of range")
    if not 0 <= serving_index < realization.n_rrh:
        raise ParameterError("serving RRH index out of range")
    beta = params.pathloss_exponent
    rng = substream(realization.seed, STREAM_FADING, fading_seed)
    h = rng.standard_exponential(realization.n_rrh)
    ux, uy = realization.user_xy[user_index]
    d = np.hypot(realization.rrh_xy[:, 0] - ux, realization.rrh_xy[:, 1] - uy)
    power = params.snr * d ** (-beta) * h
    signal = power[serving_index]
    interference = power.sum() - signal
    denom = interference + params.noise
    if denom <= 0.0:
        warnings.warn(f"no interference and zero noise; SINR capped at {SINR_CAP:g}",
                      stacklevel=2)
        return SINR_CAP
    return float(min(signal / denom, SINR_CAP))


def enumerate_partitions(items, max_items: int = 12) -> Iterator[list[frozenset]]:
    """All set partitions of ``items``, in a deterministic order.

    The brute-force reference for the merge-and-split search.  Counts
    follow the Bell numbers, so the size is capped.
    """
    elems = list(items)
    if len(elems) > max_items:
        raise ParameterError(f"partition enumeration capped at {max_items} items")
    if not elems:
        yield []
        return

    def rec(rest: list, blocks: list[list]):
        if not rest:
            yield [frozenset(b) for b in blocks]
            return
        head, tail = rest[0], rest[1:]
        for i in range(len(blocks)):
            blocks[i].append(head)
            yield from rec(tail, blocks)
            blocks[i].pop()
        blocks.append([head])
        yield from rec(tail, blocks)
        blocks.pop()

    yield from rec(elems, [])
