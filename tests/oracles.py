"""Slow, independent reference paths the tests check the library against.

Nothing in ``crancache`` calls these: each recomputes a quantity the
library gets another way (40-digit mpmath where the library sums a
double-precision series, adaptive quadrature where the library uses
its fixed distance rule, an equal-width SINR
grid where it uses a geometric one, an explicit per-RRH SINR draw where
it samples whole interference fields, every interferer of a Monte Carlo
batch in one pass where the library walks the batch in chunks, every set
partition and every RRH assignment where it runs a local search, every
coalition where it uses the Shapley closed form, the noise-free
closed form of the nearest-holder outage and its quadrature with noise
where it forms that law's survival on its SINR grid, each coalition game
priced from scratch on frozensets where the library keeps join and leave
values per coalition, one exponent per kernel pass where it builds a
family or shares one pass across exponents and contents, every link in
one survival block where it takes links a few at a time), so agreement
is evidence for both.  ``shapley_by_sampling`` is the Monte Carlo
estimate of the Shapley values over random join orders, with per-entry
standard errors, for RRH counts beyond the reach of enumeration.
``joint_optimum`` is the best welfare any allocation of a small drop
reaches, the yardstick the algorithms are measured against;
``milp_optimum`` reaches the same value at default scale, solving each
block as a mixed-integer program where ``joint_optimum`` tries every
assignment.
``random_instance`` builds the small game instances the game tests and
criteria 7-9 run on.
"""

import itertools
import math
import warnings
from typing import Iterator

import mpmath
import numpy as np
from scipy import integrate
from scipy.optimize import LinearConstraint, milp

from crancache import games
from crancache.content import ClusterCache, ContentCatalog
from crancache.effcap import (_BOUNDARY_CHUNK, LN2, Quantizer, RadioParams, _sinr_coeffs,
                              a_beta, avg_eff_cap_content, log_moment_exponent,
                              log_moments, required_spectral_efficiency, u_func)
from crancache.energy import PowerModel
from crancache.errors import ConvergenceError, ParameterError
from crancache.games import ClusterInstance, RrhPartition
from crancache.geometry import STREAM_FADING, NetworkRealization, substream
from crancache.qos import QosProfile
from crancache.scenario import Scenario
from crancache.simkit import SINR_CAP

# geometry's seed-derivation stream reserved for the game instances and
# Shapley sampling below; the program draws nothing from it
STREAM_GAME = 5


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


def l_func_general(gamma: float, lambda_l: float, lambda_rrh: float,
                   params: RadioParams) -> float:
    """Outage of the nearest-content-holder link with a noise floor.

    1 - 2*pi*lambda_l * integral_0^inf d * exp(-C(gamma)*d^2)
    * exp(-gamma*d^beta*noise) dd, evaluated by adaptive quadrature
    (relative tolerance 1e-8, truncated where the Gaussian factor is below
    1e-15 of its peak).  C(gamma) = 2*pi*A(beta)*(lambda_R - lambda_l)
    *gamma^(2/beta) + pi*lambda_l*u(gamma) + pi*lambda_l is built here from
    first principles: A(beta) from ``math.gamma`` and u from
    :func:`u_func_mpmath`.  Coincides with :func:`l_func_limited` at
    noise = 0.
    """
    if gamma < 0:
        raise ParameterError("SINR threshold must be non-negative")
    if not 0 < lambda_l <= lambda_rrh:
        raise ParameterError("need 0 < lambda_l <= lambda_rrh")
    beta = params.pathloss_exponent
    q = 2.0 / beta
    a = math.gamma(q) * math.gamma(1.0 - q) / beta
    c = (2.0 * math.pi * a * (lambda_rrh - lambda_l) * gamma ** q
         + math.pi * lambda_l * u_func_mpmath(gamma, beta) + math.pi * lambda_l)
    noise_rate = gamma * params.noise

    def integrand(d):
        return 2.0 * np.pi * lambda_l * d * np.exp(-c * d * d - noise_rate * d ** beta)

    # integrand < 1e-15 of peak beyond whichever factor dies first; keeping
    # the interval tight stops quad from missing a support spike near 0
    d_cut = math.sqrt(math.log(1e15) / c)
    if noise_rate > 0.0:
        d_cut = min(d_cut, (math.log(1e15) / noise_rate) ** (1.0 / beta))
    val, _ = integrate.quad(integrand, 0.0, d_cut, epsabs=0.0, epsrel=1e-8, limit=200)
    return 1.0 - val


def u_func_mpmath(gamma: float, beta: float) -> float:
    """The close-in correction u(gamma) to 40 digits.

    2*A(beta)*gamma^(2/beta)*I_{gamma/(1+gamma)}(1-2/beta, 2/beta) from
    mpmath's Gamma and regularized incomplete beta, with 2/beta and
    gamma/(1+gamma) formed at 40 digits, so the argument never rounds to 1.
    """
    with mpmath.workdps(40):
        g, q = mpmath.mpf(gamma), 2 / mpmath.mpf(beta)
        a = mpmath.gamma(q) * mpmath.gamma(1 - q) / beta
        ibeta = mpmath.betainc(1 - q, q, 0, g / (1 + g), regularized=True)
        return float(2 * a * g ** q * ibeta)


def equal_width_quantizer() -> Quantizer:
    """10^6 equal intervals on [0, 5e4]: an SINR grid independent of the
    library's log-spaced one, and fine enough at moderate exponents."""
    return Quantizer(np.linspace(0.0, 5e4, 10 ** 6 + 1))


def _distance_quad(transform, theta: float, lambda_l: float, lambda_rrh: float,
                   params: RadioParams, quantizer: Quantizer) -> float:
    """int_0^inf e^(-t) transform(G(t)) dt by adaptive quadrature, with
    t = pi*lambda_l*d^2 and G the log-moment of a link of length d.

    Taken in u = ln t over [-30, 4] with a breakpoint at every integer u
    and relative tolerance 1e-12; each G(t) comes from a kernel pass of its
    own.  The library's fixed rule covers the same range, so this checks
    its node placement, not the truncation.
    """
    a = log_moment_exponent(params.spectral_efficiency, theta, params)

    def integrand(u):
        t = math.exp(u)
        g, = log_moments([math.sqrt(t / (np.pi * lambda_l))], [a], lambda_rrh, params,
                         quantizer, lambda_l)
        return t * math.exp(-t) * transform(float(g[0]))

    val, _ = integrate.quad(integrand, -30.0, 4.0, points=range(-29, 4), epsabs=0.0,
                            epsrel=1e-12, limit=400)
    return val


def distance_avg_cap_quad(theta: float, lambda_l: float, lambda_rrh: float,
                          params: RadioParams, quantizer: Quantizer) -> float:
    """Nearest-holder distance average of the effective capacity,
    E_t[-ln G(t)] / (theta*W*T), by :func:`_distance_quad`."""
    return (_distance_quad(lambda g: -math.log(g), theta, lambda_l, lambda_rrh,
                           params, quantizer)
            / (theta * params.bandwidth_hz * params.slot_s))


def moment_avg_cap_quad(theta: float, lambda_l: float, lambda_rrh: float,
                        params: RadioParams, quantizer: Quantizer) -> float:
    """Effective capacity of the distance-averaged SINR law,
    -ln E_t[G(t)] / (theta*W*T), by :func:`_distance_quad`: the twin of
    :func:`distance_avg_cap_quad` for the ``quantized_moment`` estimator."""
    return (-math.log(_distance_quad(lambda g: g, theta, lambda_l, lambda_rrh,
                                     params, quantizer))
            / (theta * params.bandwidth_hz * params.slot_s))


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
    power = d ** (-beta) * h
    signal = power[serving_index]
    interference = power.sum() - signal
    denom = interference + params.noise
    if denom <= 0.0:
        warnings.warn(f"no interference and zero noise; SINR capped at {SINR_CAP:g}",
                      stacklevel=2)
        return SINR_CAP
    return float(min(signal / denom, SINR_CAP))


def sample_sinr_batch_in_one_pass(d_m: float, lambda_rrh: float, params: RadioParams,
                                  trials: int, rng: np.random.Generator,
                                  sim_radius: float) -> np.ndarray:
    """``simkit.sample_sinr_batch`` drawing every interferer of the batch
    at once: counts, then all radii, all interferer fading and the serving
    fading in stream order, one array entry per interferer.

    The streamed sampler must match it bit for bit, and leave the
    generator in the same state.  Each non-empty trial's terms are summed
    over its own segment, so empty trials at the end of the batch take no
    term from the trial before them.
    """
    beta = params.pathloss_exponent
    counts = rng.poisson(lambda_rrh * np.pi * sim_radius ** 2, size=trials)
    total = int(counts.sum())
    radii = sim_radius * np.sqrt(rng.uniform(size=total))
    h_int = rng.standard_exponential(total)
    h_srv = rng.standard_exponential(trials)

    terms = radii ** (-beta) * h_int
    starts = np.cumsum(counts) - counts
    busy = counts > 0
    interference = np.zeros(trials)
    if total:
        interference[busy] = np.add.reduceat(terms, starts[busy])

    signal = d_m ** (-beta) * h_srv
    denom = interference + params.noise
    with np.errstate(divide="ignore"):
        sinr = np.where(denom > 0.0, signal / np.maximum(denom, 1e-300), np.inf)
    if np.any(denom == 0.0):
        warnings.warn("trial with empty interference field and zero noise; "
                      f"SINR capped at {SINR_CAP:g}", stacklevel=2)
    return np.minimum(sinr, SINR_CAP)


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


def joint_optimum(instance) -> float:
    """Largest welfare any allocation reaches: the best, over every RRU
    partition of the contents, of the summed block utilities, each block
    maximized over every assignment of the RRHs to its contents.

    A block is priced as the library prices it: ``games.coalition_value``
    per content at the partition's RRU count, summed and clamped at 0.
    Each block tables its contents' values over every RRH subset, so a
    block of k contents costs k^R lookups; the size is capped at 4 contents and 7
    RRHs (4^7 = 16,384 assignments per block).
    """
    n, r = instance.content_count, instance.n_rrh
    if n > 4 or r > 7:
        raise ParameterError(f"joint optimum capped at 4 contents and 7 RRHs, "
                             f"got {n} and {r}")
    bits = 1 << np.arange(r)
    best = -math.inf
    for partition in enumerate_partitions(range(n)):
        m = len(partition)
        welfare = 0.0
        for block in partition:
            contents = sorted(block)
            choice = np.array(list(itertools.product(range(len(contents)), repeat=r)))
            total = np.zeros(len(choice))
            for i, c in enumerate(contents):
                table = np.array([
                    games.coalition_value([j for j in range(r) if mask >> j & 1], c,
                                          instance, m)
                    for mask in range(1 << r)])
                total += table[(choice == i) @ bits]
            welfare += max(float(total.max()), 0.0)
        best = max(best, welfare)
    return best


def _block_optimum(instance, contents: list, rru_count: int) -> float:
    """Utility psi of the best assignment of every RRH to one of
    ``contents``, from one mixed-integer program, re-priced exactly and
    clamped at 0 as the library clamps a block's utility.

    Binary x[r, c] puts RRH r on content c, with sum_c x[r, c] = 1; binary
    z[c] >= x[r, c] marks c's coalition non-empty; y[u, r] in [0, 1], with
    y[u, r] <= x[r, c] and sum_r y[u, r] <= 1, lets requester u of c take
    member r.  The program maximizes sum mu_N K_c[u, r] y[u, r]
    - c0 P_rrh sum x - c0 sum_c share_c z[c]; as K >= 0, each requester
    takes its best member, so this is the block's summed coalition value.
    """
    r, k = instance.n_rrh, len(contents)
    requesters = [(i, u) for i, c in enumerate(contents) for u in instance.users_of(c)]
    nx, ny = r * k, len(requesters) * r
    n = nx + k + ny
    x = np.arange(nx).reshape(r, k)
    y = nx + k + np.arange(ny).reshape(len(requesters), r)
    gain = np.zeros(n)
    gain[:nx] = -instance.cost_coeff * instance.power.rrh_active
    gain[nx:nx + k] = [-instance.cost_coeff * instance.share_power(c) for c in contents]
    for j, (i, u) in enumerate(requesters):
        gain[y[j]] = instance.mu_for(rru_count) * instance._k_table(contents[i], rru_count)[u]
    owner = np.array([i for i, _ in requesters], dtype=int)

    def rows(*terms) -> np.ndarray:
        """Constraint rows, one per row of each term's 2-D column array,
        with the term's coefficient in each of those columns."""
        a = np.zeros((len(terms[0][0]), n))
        for columns, coeff in terms:
            a[np.arange(len(a))[:, None], columns] = coeff
        return a

    one_content = rows((x, 1.0))
    marks = rows((x.reshape(-1, 1), 1.0), (nx + np.tile(np.arange(k), r)[:, None], -1.0))
    members = rows((y.reshape(-1, 1), 1.0), (x.T[owner].reshape(-1, 1), -1.0))
    one_member = rows((y, 1.0))
    constraint = LinearConstraint(
        np.vstack([one_content, marks, members, one_member]),
        np.r_[np.ones(r), np.full(nx + ny + len(requesters), -np.inf)],
        np.r_[np.ones(r), np.zeros(nx + ny), np.ones(len(requesters))])
    result = milp(-gain, integrality=np.r_[np.ones(nx + k), np.zeros(ny)],
                  bounds=(0.0, 1.0), constraints=constraint,
                  options={"mip_rel_gap": 0.0})
    if result.status != 0:
        raise ConvergenceError(f"block MILP did not solve: {result.message}")
    choice = result.x[x].argmax(axis=1)
    total = sum(games.coalition_value(np.flatnonzero(choice == i), c, instance, rru_count)
                for i, c in enumerate(contents))
    return max(total, 0.0)


def milp_optimum(instance) -> float:
    """Largest welfare any allocation reaches, at default scale: the best,
    over every RRU partition of the contents, of the summed block
    utilities, each block's best RRH assignment found by a mixed-integer
    program (``scipy.optimize.milp``, HiGHS, zero relative gap) and
    re-priced with ``games.coalition_value``, so the value is the exact
    welfare of a real allocation.  Each (block, RRU count) is solved once.
    """
    blocks = {}
    best = -math.inf
    for partition in enumerate_partitions(range(instance.content_count)):
        m = len(partition)
        for block in partition:
            if (block, m) not in blocks:
                blocks[block, m] = _block_optimum(instance, sorted(block), m)
        best = max(best, sum(blocks[block, m] for block in partition))
    return best


def moved(partition: RrhPartition, player: int, target: int) -> RrhPartition:
    """The partition with ``player`` moved to coalition ``target``."""
    source = partition.content_of(player)
    coalitions = dict(partition.coalitions)
    coalitions[source] = coalitions[source] - {player}
    coalitions[target] = coalitions[target] | {player}
    return RrhPartition(coalitions)


def switch_until_stable(partition: RrhPartition, players, wants) -> RrhPartition:
    """The switch sweep on frozensets: players in order, each moving to the
    first label ``wants(player, label, partition)`` accepts, until a sweep
    moves nobody; ConvergenceError after ``games.MAX_SWEEPS`` sweeps."""
    labels = sorted(partition.coalitions)
    for _ in range(games.MAX_SWEEPS):
        changed = False
        for player in players:
            for target in labels:
                if wants(player, target, partition):
                    partition = moved(partition, player, target)
                    changed = True
                    break
        if not changed:
            return partition
    raise ConvergenceError(f"no stable partition within {games.MAX_SWEEPS} sweeps")


def greedy_init_partition(contents, instance, rru_count: int) -> RrhPartition:
    """Seed partition: RRHs in index order each join their best coalition
    so far, by ``games.rrh_payoff``; ties go to the lowest content index."""
    contents = sorted(contents)
    coalitions = {c: frozenset() for c in contents}
    for rrh in range(instance.n_rrh):
        best, best_pay = None, -math.inf
        for c in contents:
            pay = games.rrh_payoff(rrh, coalitions[c], c, instance, rru_count)
            if pay > best_pay:
                best, best_pay = c, pay
        coalitions[best] = coalitions[best] | {rrh}
    return RrhPartition(coalitions)


def hedonic_by_frozensets(contents, instance, rru_count: int) -> RrhPartition:
    """The RRH game priced from scratch: the greedy seed, then the sweep
    with ``games.prefers`` deciding every move."""
    return switch_until_stable(
        greedy_init_partition(contents, instance, rru_count), range(instance.n_rrh),
        lambda rrh, target, part: games.prefers(rrh, target, part, instance, rru_count))


def block_utility(partition: RrhPartition, instance, rru_count: int) -> float:
    """psi of an RRU: its clamped sum of ``games.coalition_value`` per content."""
    total = sum(games.coalition_value(partition.members(c), c, instance, rru_count)
                for c in sorted(partition.coalitions))
    return max(total, 0.0)


def shapley_conflict_payoff(content: int, coalition: frozenset, shapley: np.ndarray,
                            instance) -> float:
    """A content's payoff for sharing an RRU with ``coalition``: the L1
    distances between its row of ``shapley`` and each member's, summed in
    member order, minus the acquisition cost of the block after joining."""
    if content in coalition:
        raise ParameterError("payoff is defined for a joining content, not a member")
    conflict = sum(float(np.abs(shapley[content] - shapley[other]).sum())
                   for other in sorted(coalition))
    return conflict - games._acquisition_cost(coalition | {content}, instance)


def conflict_utility(coalition: frozenset, shapley: np.ndarray, instance) -> float:
    """A block's worth in the content game: its members' conflict payoffs."""
    if not coalition:
        return 0.0
    return sum(shapley_conflict_payoff(c, coalition - {c}, shapley, instance)
               for c in sorted(coalition))


def content_game_by_frozensets(instance, shapley: np.ndarray) -> RrhPartition:
    """The Shapley content game priced from scratch, from one block per
    content: conflicts recomputed for every member on every evaluation."""
    n = instance.content_count
    return switch_until_stable(
        RrhPartition({c: frozenset({c}) for c in range(n)}), range(n),
        lambda content, block, part: games._wants_switch(
            content, block, part,
            lambda c, coalition, _: shapley_conflict_payoff(c, coalition, shapley, instance),
            lambda coalition, _: conflict_utility(coalition, shapley, instance)))


def k_table_single(instance, a: float) -> np.ndarray:
    """K-table of one exponent, built by a kernel pass of its own.

    The fused family pass of ``ClusterInstance._k_table`` must reproduce
    this table byte for byte.
    """
    g, = log_moments(instance._dist.ravel(), [a], instance.lambda_rrh, instance.params,
                     instance.quantizer)
    return (-np.log(g) / (a * LN2)).reshape(instance._dist.shape)


def one_block_log_moment(d, a: float, lambda_rrh: float, params: RadioParams,
                         quantizer: Quantizer, lambda_l: float | None = None) -> np.ndarray:
    """Quantized log-moment of links of lengths d at exponent a (the
    nearest-holder law given ``lambda_l``), with every link in one survival
    block and the boundary-chunked fold of :func:`_folded_moment` over
    every chunk.

    ``effcap.log_moments`` inlines this fold, takes links a few at a time
    and stops after the last nonzero weight; whatever its block edges and
    wherever it stops, it must reproduce this byte for byte.  That holds
    on one BLAS thread: OpenBLAS splits a gemv over more links than a
    kernel block across its own threads, and the tail rows of each part
    round differently (at 500 links on two threads, 4 of the 500 G move).
    """
    c1, c2 = _sinr_coeffs(quantizer.boundaries, lambda_rrh, params, lambda_l)
    d = np.asarray(d, dtype=float)[..., None]
    d_sq, d_beta = d ** 2, d ** params.pathloss_exponent
    weights = np.exp(-a * np.log1p(quantizer.midpoints))
    g, = _folded_moment(lambda sl: np.exp(-d_sq * c1[sl] - d_beta * c2[sl]), [weights])
    return g


def _folded_moment(survival, weights: list[np.ndarray]) -> list:
    """Sum over quantizer intervals of probability mass times each weight vector.

    ``survival(sl)`` is the survival function at the boundaries in slice
    ``sl`` (last axis).  Masses are its differences, and the mass beyond
    gamma_max folds into the last interval so the masses sum to one.
    Boundaries are taken _BOUNDARY_CHUNK at a time, so the scratch array
    is rows x _BOUNDARY_CHUNK.  Each chunk's survival and masses are formed
    once and summed against every weight vector by its own gemv.
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
    """Contiguous array of ``shape`` over the front of a flat buffer."""
    return buffer[:math.prod(shape)].reshape(shape)


def per_content_eff_caps_one_by_one(catalog, qos, lambda_split, lambda_rrh: float,
                                    params: RadioParams, quantizer):
    """(from_cache, from_cloud) from one lone ``avg_eff_cap_content``
    integral per content and exponent, each with kernel passes of its own;
    the vectors hold its ``distance_avg`` entry.

    ``per_content_eff_caps`` shares passes across exponents and identical
    contents, and must reproduce these vectors byte for byte.
    """
    from_cache = np.empty(catalog.count)
    from_cloud = np.empty(catalog.count)
    for l in range(catalog.count):
        p_l, lambda_l = float(catalog.popularity[l]), float(lambda_split[l])
        ((from_cache[l], _),), = avg_eff_cap_content((float(qos.theta_cluster[l]),), [p_l],
                                                     [lambda_l], lambda_rrh, params, quantizer)
        ((from_cloud[l], _),), = avg_eff_cap_content((float(qos.theta_cloud[l]),), [p_l],
                                                     [lambda_l], lambda_rrh, params, quantizer)
    return from_cache, from_cloud


def shapley_by_enumeration(instance, rru_count: int) -> np.ndarray:
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
        k = instance._k_table(content, rru_count)[users]
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


def shapley_by_sampling(instance, rru_count: int, permutations: int, seed: int,
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
            k = instance._k_table(content, rru_count)
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


def uniform_qos(theta_cluster: float, theta_cloud: float, count: int) -> QosProfile:
    """The same cluster and cloud exponent for each of ``count`` contents."""
    return QosProfile(np.full(count, theta_cluster), np.full(count, theta_cloud))


def random_instance(seed: int, n_rrh: int, n_users: int, content_count: int = 5,
                    cache_size: int | None = None, radius: float = 1000.0,
                    zipf_exponent: float = 1.0, theta_cluster: float = 0.1,
                    theta_cloud: float = 0.6, object_bits: float = 1e6,
                    bandwidth_hz: float = 1000.0, slot_s: float = 1e-3,
                    pathloss_exponent: float = 4.0, noise: float = 0.0,
                    cost_coeff: float = Scenario.cost_coeff,
                    quantizer: Quantizer | None = None,
                    power: PowerModel | None = None) -> ClusterInstance:
    """A reproducible small instance for game experiments.

    Exact point counts (not Poisson) keep instance sizes controlled; the
    analytic field intensity is the one implied by the drawn count.  One
    generator draws a content mark per RRH, which nothing reads, and then
    the user requests, so the requests stay those of every earlier build.
    """
    if n_rrh < 1 or n_users < 1:
        raise ParameterError("need at least one RRH and one user")
    pos_rng = substream(seed, STREAM_GAME, 1)

    def uniform_disk(n):
        r = radius * np.sqrt(pos_rng.uniform(size=n))
        phi = pos_rng.uniform(0, 2 * np.pi, size=n)
        return np.column_stack([r * np.cos(phi), r * np.sin(phi)])

    catalog = ContentCatalog.zipf(object_bits, zipf_exponent, content_count)
    rrh_xy = uniform_disk(n_rrh)
    user_xy = uniform_disk(n_users)
    mark_rng = substream(seed, STREAM_GAME, 2)
    mark_rng.choice(content_count, size=n_rrh, p=catalog.popularity)
    user_content = mark_rng.choice(content_count, size=n_users, p=catalog.popularity)
    realization = NetworkRealization(radius, rrh_xy, user_xy, user_content, seed)

    k = content_count if cache_size is None else cache_size
    power = power if power is not None else PowerModel()
    cache = ClusterCache(k)
    qos = uniform_qos(theta_cluster, theta_cloud, content_count)
    mu = required_spectral_efficiency(content_count, object_bits, content_count,
                                      bandwidth_hz, slot_s)
    params = RadioParams(pathloss_exponent=pathloss_exponent, noise=noise,
                         bandwidth_hz=bandwidth_hz, slot_s=slot_s,
                         spectral_efficiency=mu)
    quantizer = quantizer if quantizer is not None else Quantizer.geometric(512)
    lambda_rrh = n_rrh / (np.pi * radius ** 2)
    return ClusterInstance(realization=realization, catalog=catalog, cache=cache,
                           qos=qos, params=params, power=power,
                           lambda_rrh=lambda_rrh, quantizer=quantizer,
                           cost_coeff=cost_coeff)
