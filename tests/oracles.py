"""Slow, independent reference paths the tests check the library against.

Nothing in ``crancache`` calls these: each recomputes a quantity the
library gets another way (adaptive quadrature where the library uses
Gauss-Laguerre nodes, an explicit per-RRH SINR draw where it samples
whole interference fields, every set partition where it runs a local
search, every coalition where it uses the Shapley closed form, one
exponent per kernel pass where it builds a family), so agreement is
evidence for both.  ``shapley_by_sampling`` is the Monte Carlo estimate
of the Shapley values over random join orders, with per-entry standard
errors, for RRH counts beyond the reach of enumeration.
"""

import math
import warnings
from typing import Iterator

import numpy as np
from scipy import integrate

from crancache.effcap import (LN2, RadioParams, _l_decay_coeff, _log_moments,
                              _moment_weights, _sinr_coeffs)
from crancache.errors import ParameterError
from crancache.geometry import (STREAM_FADING, STREAM_GAME, NetworkRealization,
                                substream)
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


def k_table_single(instance, a: float) -> np.ndarray:
    """K-table of one exponent, built by a kernel pass of its own.

    The fused family pass of ``ClusterInstance._k_table`` must reproduce
    this table byte for byte.
    """
    q = instance.quantizer
    c1, c2 = _sinr_coeffs(q.boundaries, instance.lambda_rrh, instance.params)
    g, = _log_moments(instance._dist.ravel(), c1, c2,
                      instance.params.pathloss_exponent, [_moment_weights(q, a)])
    return (-np.log(g) / (a * LN2)).reshape(instance._dist.shape)


def shapley_by_enumeration(instance, rru_count=None) -> np.ndarray:
    """(contents, rrhs) Shapley values from the capacity of every RRH subset.

    phi_j = sum over S not holding j of |S|!(D-|S|-1)!/D! * (v(S+j) - v(S)),
    with v evaluated on all 2^D bitmask-indexed coalitions, so D is capped.
    """
    d = instance.n_rrh
    if d > 12:
        raise ParameterError(f"coalition enumeration capped at 12 RRHs, got {d}")
    weights = np.array([math.factorial(s) * math.factorial(d - s - 1) / math.factorial(d)
                        for s in range(d)])
    masks = np.arange(1 << d)
    sizes = np.array([int(m).bit_count() for m in masks])
    mu = instance.mu_for(rru_count)
    values = np.zeros((instance.content_count, d))
    for content in range(instance.content_count):
        users = instance.users_of(content)
        if users.size == 0:
            continue
        k = instance._k_table(instance._log_moment_exponent(content, rru_count))[users]
        caps = np.zeros(1 << d)
        best = np.zeros((1 << d, users.size))
        for mask in range(1, 1 << d):
            low = mask & -mask
            rest = mask ^ low
            rrh = low.bit_length() - 1
            best[mask] = np.maximum(best[rest], k[:, rrh]) if rest else k[:, rrh]
            caps[mask] = mu * best[mask].sum()
        for j in range(d):
            without = masks[(masks >> j) & 1 == 0]
            values[content, j] = float(np.sum(weights[sizes[without]]
                                              * (caps[without | (1 << j)] - caps[without])))
    return values


def shapley_by_sampling(instance, rru_count, permutations: int, seed: int,
                        batch: int = 2048) -> tuple[np.ndarray, np.ndarray]:
    """(values, std_errors), each (contents, rrhs): Shapley values averaged
    over ``permutations`` random join orders, drawn in batches from the
    game sub-stream of ``seed``, with the per-entry sampling standard error.
    """
    d = instance.n_rrh
    rng = substream(seed, STREAM_GAME, 0)
    mu = instance.mu_for(rru_count)
    sums = np.zeros((instance.content_count, d))
    sq_sums = np.zeros((instance.content_count, d))
    for lo in range(0, permutations, batch):
        p = min(batch, permutations - lo)
        perms = np.argsort(rng.random((p, d)), axis=1)
        for content in range(instance.content_count):
            users = instance.users_of(content)
            if users.size == 0:
                continue
            k = instance._k_table(instance._log_moment_exponent(content, rru_count))
            # capacity after each join is a running row-max over the permutation
            acc = np.maximum.accumulate(k[users][:, perms], axis=2)
            caps = mu * acc.sum(axis=0)                      # (p, d)
            marginals = np.diff(caps, axis=1, prepend=0.0)
            by_rrh = np.empty_like(marginals)
            np.put_along_axis(by_rrh, perms, marginals, axis=1)
            sums[content] += by_rrh.sum(axis=0)
            sq_sums[content] += (by_rrh ** 2).sum(axis=0)
    mean = sums / permutations
    var = np.maximum(sq_sums / permutations - mean ** 2, 0.0)
    se = np.sqrt(var / permutations)
    return mean, se
