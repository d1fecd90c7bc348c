"""Coalition formation for RRH association and RRU sharing.

Both coalition games run one hedonic switch rule (Bogomolnaia & Jackson
2002), :func:`_wants_switch`: a player moves only if its own payoff AND
the joint value of the two coalitions it touches strictly rise.  The
summed coalition value is then a strict potential, so the sweep
:func:`_switch_until_stable` always settles into a Nash-stable partition.

* inner game: within one resource block (RRU), RRHs choose which of the
  block's contents to serve (capacity minus power bill).
* Shapley game, the cheap outer allocation: contents choose a block under
  Shapley-value conflict payoffs; contents whose per-RRH Shapley profiles
  differ share a block at little cost, contents that want the same RRHs
  do not.

The nested outer allocation is a merge-and-split search: a candidate
merge or split is accepted only when total welfare (sum of per-RRU
utilities, each at the spectral-efficiency requirement of the candidate
RRU count) strictly increases, so it cannot revisit a partition.

All negotiation orders are fixed (ascending index) and every tie refuses
the move, so results are deterministic functions of the instance.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .content import ClusterCache, ContentCatalog, hit_ratio
from .effcap import (LN2, Quantizer, RadioParams, _demand_moment, _log_moments,
                     _moment_weights, _sinr_coeffs, required_spectral_efficiency)
from .energy import PowerModel, eta_rru
from .errors import (ConvergenceError, DomainError, ParameterError,
                     StabilityViolationError)
from .geometry import STREAM_GAME, NetworkRealization, substream
from .qos import QosProfile

MAX_SWEEPS = 10_000
DEFAULT_COST_COEFF = 1e-4
SPLIT_ENUMERATION_CAP = 12   # largest block whose every bipartition is tried


@dataclass(eq=False)
class ClusterInstance:
    """Everything one allocation run needs, with value caches.

    The same cost coefficient prices both the inner and the outer game.
    ``lambda_rrh`` is the intensity used by the analytic per-link capacity;
    utilities treat coalition members as serving RRH candidates and the
    whole field as interference, so the instance never re-derives
    intensities from the drawn point count unless told to.
    """

    realization: NetworkRealization
    catalog: ContentCatalog
    cache: ClusterCache
    qos: QosProfile
    params: RadioParams
    power: PowerModel
    lambda_rrh: float
    quantizer: Quantizer
    cost_coeff: float = DEFAULT_COST_COEFF
    literal_power_accounting: bool = False

    _dist: np.ndarray = field(init=False, repr=False)
    _users_by_content: list = field(init=False, repr=False)
    _k_cache: dict = field(init=False, repr=False)
    _cap_cache: dict = field(init=False, repr=False)

    def __post_init__(self):
        if self.cost_coeff < 0:
            raise ParameterError("cost coefficient must be non-negative")
        if self.lambda_rrh <= 0:
            raise ParameterError("RRH intensity must be positive")
        if self.qos.count != self.catalog.count:
            raise ParameterError("QoS profile must cover the catalog")
        r = self.realization
        if r.user_content.size and r.user_content.max() >= self.catalog.count:
            raise ParameterError("user requests an object outside the catalog")
        dx = r.user_xy[:, 0:1] - r.rrh_xy[None, :, 0]
        dy = r.user_xy[:, 1:2] - r.rrh_xy[None, :, 1]
        self._dist = np.hypot(dx, dy)
        self._users_by_content = [np.flatnonzero(r.user_content == l)
                                  for l in range(self.catalog.count)]
        self._k_cache = {}
        self._cap_cache = {}

    # -- value plumbing ----------------------------------------------------

    @property
    def n_rrh(self) -> int:
        return self.realization.n_rrh

    @property
    def content_count(self) -> int:
        return self.catalog.count

    def users_of(self, content: int) -> np.ndarray:
        return self._users_by_content[content]

    def mu_for(self, rru_count: int | None) -> float:
        if rru_count is None:
            return self.params.spectral_efficiency
        return required_spectral_efficiency(self.catalog.count,
                                            self.catalog.object_size_bits,
                                            rru_count, self.params.bandwidth_hz,
                                            self.params.slot_s)

    def theta_of(self, content: int) -> float:
        return self.qos.theta_for(content, self.cache.holds(content))

    def share_power(self, content: int) -> float:
        """Power the coalition pays to obtain the object it serves."""
        return (self.power.cache_per_object if self.cache.holds(content)
                else self.power.backhaul)

    def paid_objects(self, contents: frozenset) -> tuple[int, int]:
        """(cached, fetched): objects a block carrying ``contents`` pays power for.

        Default accounting counts the objects the block actually serves;
        the literal variant charges the full cache and catalog regardless,
        which decouples the bill from the block.
        """
        if self.literal_power_accounting:
            return self.cache.size, self.catalog.count
        cached = sum(1 for c in contents if self.cache.holds(c))
        return cached, len(contents) - cached

    def _log_moment_exponent(self, content: int, rru_count: int | None) -> float:
        return (self.mu_for(rru_count) * self.theta_of(content)
                * self.params.bandwidth_hz * self.params.tbar)

    def _k_table(self, a: float) -> np.ndarray:
        """Normalized log-moment map K(a)[user, rrh]; capacity is mu * K.

        K = -ln G / (a ln 2) with G the quantized log-moment of the SINR
        law for a link of the tabulated distance, so K -> log2(1+gamma)
        as the law degenerates.  Strictly decreasing in distance, which
        is what lets "nearest coalition member" read as a row-max.

        Tables are built one exponent family per kernel pass: a miss
        builds every exponent the instance can demand and has not cached
        (each content's at every RRU count 1..L, plus ``a``), sharing each
        survival chunk, with every table byte-identical to a build of its
        own.  An exponent whose G underflows raises DomainError only when
        it is demanded.
        """
        if a not in self._k_cache:
            count = self.content_count
            family = {self._log_moment_exponent(c, n)
                      for c in range(count) for n in range(1, count + 1)}
            family = sorted((family | {a}) - self._k_cache.keys())
            c1, c2 = _sinr_coeffs(self.quantizer.boundaries, self.lambda_rrh, self.params)
            gs = _log_moments(self._dist.ravel(), c1, c2, self.params.pathloss_exponent,
                              [_moment_weights(self.quantizer, e) for e in family])
            for e, g in zip(family, gs):
                try:
                    tab = -np.log(_demand_moment(g)) / (e * LN2)
                    self._k_cache[e] = tab.reshape(self._dist.shape)
                except DomainError as exc:
                    self._k_cache[e] = exc
        tab = self._k_cache[a]
        if isinstance(tab, DomainError):
            raise tab
        return tab


def coalition_eff_cap(coalition: Iterable[int], content: int,
                      instance: ClusterInstance,
                      rru_count: int | None = None) -> float:
    """Summed effective capacity the coalition delivers for one content.

    Each requester of the content is served by its nearest coalition
    member; users of other contents and users with no member in reach
    contribute nothing.  Empty coalition: 0.
    """
    cols = tuple(sorted(coalition))
    key = (content, rru_count, cols)
    cached = instance._cap_cache.get(key)
    if cached is not None:
        return cached
    if cols and (cols[0] < 0 or cols[-1] >= instance.n_rrh):
        raise ParameterError("coalition member outside the realization")
    users = instance.users_of(content)
    if not cols or users.size == 0:
        instance._cap_cache[key] = 0.0
        return 0.0
    a = instance._log_moment_exponent(content, rru_count)
    k = instance._k_table(a)
    value = instance.mu_for(rru_count) * float(k[np.ix_(users, cols)].max(axis=1).sum())
    instance._cap_cache[key] = value
    return value


def coalition_value(coalition: Iterable[int], content: int,
                    instance: ClusterInstance,
                    rru_count: int | None = None) -> float:
    """Coalition worth: delivered capacity minus the members' power bill.

    v(R) = cap(R) - c0 * (|R| * P_rrh + P_share); the object-acquisition
    power P_share is paid once per coalition and split among members, so
    in total it appears once.  v(empty) = 0.
    """
    cols = tuple(sorted(coalition))
    if not cols:
        return 0.0
    cap = coalition_eff_cap(cols, content, instance, rru_count)
    cost = instance.cost_coeff * (len(cols) * instance.power.rrh_active
                                  + instance.share_power(content))
    return cap - cost


def rrh_payoff(rrh: int, coalition: Iterable[int], content: int,
               instance: ClusterInstance, rru_count: int | None = None) -> float:
    """Payoff RRH ``rrh`` gets for joining ``coalition`` on this content.

    Marginal capacity minus c0 * (own RRH power + equal share of the
    object-acquisition power); the share is computed at the size after
    joining.
    """
    cols = tuple(sorted(coalition))
    if rrh in cols:
        raise ParameterError("payoff is defined for a joining RRH, not a member")
    joined = tuple(sorted(cols + (rrh,)))
    gain = (coalition_eff_cap(joined, content, instance, rru_count)
            - coalition_eff_cap(cols, content, instance, rru_count))
    cost = instance.cost_coeff * (instance.power.rrh_active
                                  + instance.share_power(content) / len(joined))
    return gain - cost


@dataclass(frozen=True)
class RrhPartition:
    """Assignment of every player to exactly one labelled coalition:
    RRHs to the contents of one RRU, or contents to block indices."""

    coalitions: dict  # label -> frozenset of players

    def __post_init__(self):
        seen: set[int] = set()
        for members in self.coalitions.values():
            if seen & members:
                raise ParameterError("player appears in two coalitions")
            seen |= members
        object.__setattr__(self, "coalitions",
                           {c: frozenset(m) for c, m in sorted(self.coalitions.items())})

    def members(self, label: int) -> frozenset:
        return self.coalitions[label]

    def content_of(self, player: int) -> int:
        for label, members in self.coalitions.items():
            if player in members:
                return label
        raise ParameterError(f"player {player} not in any coalition")

    def moved(self, player: int, target: int) -> "RrhPartition":
        src = self.content_of(player)
        new = dict(self.coalitions)
        new[src] = new[src] - {player}
        new[target] = new[target] | {player}
        return RrhPartition(new)

    def total_value(self, instance: ClusterInstance,
                    rru_count: int | None = None) -> float:
        return sum(coalition_value(m, c, instance, rru_count)
                   for c, m in self.coalitions.items())


def _wants_switch(player: int, target: int, partition: RrhPartition,
                  payoff, value) -> bool:
    """Whether ``player`` strictly gains AND lifts the joint value by moving.

    ``payoff(player, coalition, label)`` is its payoff for joining
    ``coalition``, ``value(coalition, label)`` a coalition's worth.  Any
    tie refuses the move, which is what rules out oscillation.
    """
    current = partition.content_of(player)
    if target == current:
        return False
    a = partition.members(target)
    b = partition.members(current)
    b_rest = b - {player}
    own_now = payoff(player, b_rest, current)
    if payoff(player, a, target) <= own_now:
        return False
    joint_now = value(a, target) + value(b, current)
    joint_then = value(a | {player}, target) + value(b_rest, current)
    return joint_then > joint_now


def _switch_until_stable(partition: RrhPartition, players: Sequence[int],
                         wants, max_sweeps: int) -> RrhPartition:
    """Sweep players in order, each moving to the first label ``wants``
    accepts, until a sweep moves nobody (a Nash-stable partition)."""
    labels = sorted(partition.coalitions)
    for _ in range(max_sweeps):
        moved = False
        for player in players:
            for target in labels:
                if wants(player, target, partition):
                    partition = partition.moved(player, target)
                    moved = True
                    break
        if not moved:
            return partition
    raise ConvergenceError(f"no stable partition within {max_sweeps} sweeps")


def prefers(rrh: int, target_content: int, partition: RrhPartition,
            instance: ClusterInstance, rru_count: int | None = None) -> bool:
    """Whether the RRH strictly wants to defect to the target coalition.

    :func:`_wants_switch` with RRH payoffs and coalition values.
    """
    return _wants_switch(
        rrh, target_content, partition,
        lambda p, coalition, c: rrh_payoff(p, coalition, c, instance, rru_count),
        lambda coalition, c: coalition_value(coalition, c, instance, rru_count))


def greedy_init_partition(contents: Sequence[int], instance: ClusterInstance,
                          rru_count: int | None = None) -> RrhPartition:
    """Seed partition: RRHs in index order each join their best coalition so far.

    Ties go to the lowest content index.
    """
    contents = sorted(contents)
    coalitions: dict[int, frozenset] = {c: frozenset() for c in contents}
    for rrh in range(instance.n_rrh):
        best, best_pay = None, -math.inf
        for c in contents:
            pay = rrh_payoff(rrh, coalitions[c], c, instance, rru_count)
            if pay > best_pay:
                best, best_pay = c, pay
        coalitions[best] = coalitions[best] | {rrh}
    return RrhPartition(coalitions)


def hedonic_rrh_association(contents: Sequence[int], instance: ClusterInstance,
                            rru_count: int | None = None,
                            max_sweeps: int = MAX_SWEEPS) -> RrhPartition:
    """Negotiate RRH coalitions for the contents sharing one RRU.

    Starts from :func:`greedy_init_partition` and sweeps RRHs in index
    order; each moves to the first coalition (by content index) it
    strictly prefers.  Stops at the first sweep with no move, i.e. at a
    Nash-stable partition.  Every accepted move raises the summed
    coalition value, so with the sweep cap as a safety net the loop always
    terminates.
    """
    contents = sorted(contents)
    if not contents:
        raise ParameterError("an RRU must carry at least one content")
    # prefers is looked up at call time, so a wrapper bound on the module sees each call
    return _switch_until_stable(
        greedy_init_partition(contents, instance, rru_count), range(instance.n_rrh),
        lambda rrh, target, part: prefers(rrh, target, part, instance, rru_count),
        max_sweeps)


def check_nash_stable(partition: RrhPartition, instance: ClusterInstance,
                      rru_count: int | None = None):
    """Exhaustive deviation check; returns (stable, witness).

    The witness is the first (rrh, target_content) move some RRH strictly
    prefers, or None when stable.
    """
    contents = sorted(partition.coalitions)
    for rrh in range(instance.n_rrh):
        for target in contents:
            if prefers(rrh, target, partition, instance, rru_count):
                return False, (rrh, target)
    return True, None


def prune_sleep_rrhs(partition: RrhPartition, instance: ClusterInstance):
    """Split a block's RRHs into serving and idle sets.

    An RRH serves iff it is the nearest coalition member (lowest index on
    ties) of at least one requester of its content.  Removing idle RRHs
    never changes any user's serving member, so capacity is unchanged.
    """
    active: set[int] = set()
    for content, members in partition.coalitions.items():
        cols = sorted(members)
        users = instance.users_of(content)
        if not cols or users.size == 0:
            continue
        sub = instance._dist[np.ix_(users, cols)]
        serving = np.argmin(sub, axis=1)  # first minimum = lowest index
        active.update(cols[j] for j in serving)
    asleep = frozenset(range(instance.n_rrh)) - active
    return frozenset(active), asleep


# -- outer game: contents to RRUs -----------------------------------------


def _canonical(partition: Iterable[frozenset]) -> tuple[frozenset, ...]:
    blocks = [frozenset(b) for b in partition if b]
    return tuple(sorted(blocks, key=min))


def _signature(partition: tuple[frozenset, ...]) -> str:
    return "|".join(",".join(str(c) for c in sorted(b)) for b in partition)


def _one_block_per_content(instance: ClusterInstance) -> tuple[frozenset, ...]:
    return tuple(frozenset({c}) for c in range(instance.content_count))


def _catalog_partition(instance: ClusterInstance,
                       blocks: Iterable[frozenset]) -> tuple[frozenset, ...]:
    """Canonical RRU partition of the catalog."""
    state = _canonical(blocks)
    if sorted(c for b in state for c in b) != list(range(instance.content_count)):
        raise ParameterError("RRU blocks must partition the full catalog")
    return state


def rru_coalition_utility(coalition: Iterable[int], rrh_partition: RrhPartition,
                          instance: ClusterInstance, rru_count: int) -> float:
    """Utility of one RRU: clamped sum of its per-content coalition values."""
    contents = sorted(coalition)
    if sorted(rrh_partition.coalitions) != contents:
        raise ParameterError("RRH partition does not match the RRU's contents")
    total = sum(coalition_value(rrh_partition.members(c), c, instance, rru_count)
                for c in contents)
    return max(total, 0.0)


@dataclass
class AllocationStep:
    index: int
    op: str
    partition: str
    welfare: float


@dataclass
class AllocationResult:
    """Outcome of one allocation run over the whole cluster."""

    algorithm: str
    rru_partition: tuple
    rrh_partitions: dict          # frozenset of contents -> RrhPartition
    welfare: float
    active: frozenset
    asleep: frozenset
    steps: list
    runtime_s: float
    shapley: np.ndarray | None = None   # (contents, rrhs), suboptimal only

    @property
    def rru_count(self) -> int:
        return len(self.rru_partition)


class _PartitionEvaluator:
    """Memoized welfare of RRU partitions under the nested inner game."""

    def __init__(self, instance: ClusterInstance):
        self.instance = instance
        self._psi: dict = {}

    def block(self, contents: frozenset, rru_count: int):
        key = (contents, rru_count)
        hit = self._psi.get(key)
        if hit is None:
            partition = hedonic_rrh_association(sorted(contents), self.instance,
                                                rru_count=rru_count)
            psi = rru_coalition_utility(contents, partition, self.instance, rru_count)
            hit = (psi, partition)
            self._psi[key] = hit
        return hit

    def welfare(self, partition: tuple) -> float:
        n = len(partition)
        return sum(self.block(b, n)[0] for b in partition)


def _bipartitions(block: frozenset):
    """Proper two-way splits of a block, deterministically ordered.

    All splits up to :data:`SPLIT_ENUMERATION_CAP` contents; single
    peel-offs beyond it.
    """
    items = sorted(block)
    m = len(items)
    if m < 2:
        return
    if m <= SPLIT_ENUMERATION_CAP:
        first, rest = items[0], items[1:]
        for mask in range(1 << (m - 1)):
            left = {first}
            for i, item in enumerate(rest):
                if mask >> i & 1:
                    left.add(item)
            if len(left) < m:
                yield frozenset(left), block - frozenset(left)
    else:
        for item in items:
            yield block - {item}, frozenset({item})


def _neighbours(state: tuple):
    """(op, candidate) pairs: every pairwise merge, then every split."""
    for i, j in itertools.combinations(range(len(state)), 2):
        yield "merge", _canonical(
            [b for k, b in enumerate(state) if k not in (i, j)] + [state[i] | state[j]])
    for idx, block in enumerate(state):
        for left, right in _bipartitions(block):
            yield "split", _canonical(
                [b for i, b in enumerate(state) if i != idx] + [left, right])


def nested_allocate(instance: ClusterInstance) -> AllocationResult:
    """Merge-and-split search over RRU partitions with nested RRH games.

    Starts from one block per content.  A candidate merge or split is
    accepted only when the welfare of the whole candidate partition (every
    block re-evaluated at the candidate's RRU count, since the per-block
    rate requirement depends on how many blocks exist) strictly exceeds the
    current welfare.  Welfare therefore increases at
    every step, no partition can recur, and the loop ends at a partition
    stable against all scanned merges and splits.
    """
    t0 = time.perf_counter()
    state = _one_block_per_content(instance)
    ev = _PartitionEvaluator(instance)
    welfare = ev.welfare(state)
    seen = {_signature(state)}
    steps = [AllocationStep(0, "init", _signature(state), welfare)]

    while True:
        for op, cand in _neighbours(state):
            cand_w = ev.welfare(cand)
            if cand_w > welfare:
                sig = _signature(cand)
                if sig in seen:
                    raise StabilityViolationError(f"partition revisited: {sig}")
                state, welfare = cand, cand_w
                seen.add(sig)
                steps.append(AllocationStep(len(steps), op, sig, welfare))
                break
        else:
            return _finalize("nested", instance, state, ev, steps, t0)


def _finalize(name: str, instance: ClusterInstance, state: tuple,
              ev: _PartitionEvaluator, steps: list, t0: float,
              shapley: np.ndarray | None = None) -> AllocationResult:
    n = len(state)
    rrh_parts = {}
    active: set[int] = set()
    welfare = 0.0
    for block in state:
        psi, partition = ev.block(block, n)
        rrh_parts[block] = partition
        welfare += psi
        block_active, _ = prune_sleep_rrhs(partition, instance)
        active |= block_active
    asleep = frozenset(range(instance.n_rrh)) - active
    return AllocationResult(algorithm=name, rru_partition=state,
                            rrh_partitions=rrh_parts, welfare=welfare,
                            active=frozenset(active), asleep=asleep, steps=steps,
                            runtime_s=time.perf_counter() - t0, shapley=shapley)


def evaluate_fixed_partition(name: str, instance: ClusterInstance,
                             partition: Iterable[frozenset]) -> AllocationResult:
    """Welfare of a hand-picked RRU partition (no outer search)."""
    t0 = time.perf_counter()
    state = _catalog_partition(instance, partition)
    ev = _PartitionEvaluator(instance)
    steps = [AllocationStep(0, "fixed", _signature(state), ev.welfare(state))]
    return _finalize(name, instance, state, ev, steps, t0)


def orthogonal_allocate(instance: ClusterInstance) -> AllocationResult:
    """One content per RRU; the no-sharing baseline."""
    return evaluate_fixed_partition("orthogonal", instance,
                                    _one_block_per_content(instance))


def full_reuse_allocate(instance: ClusterInstance) -> AllocationResult:
    """All contents in a single RRU; the maximal-sharing baseline."""
    return evaluate_fixed_partition(
        "full_reuse", instance, [frozenset(range(instance.content_count))])


# -- Shapley machinery -----------------------------------------------------


def shapley_values(instance: ClusterInstance,
                   rru_count: int | None = None) -> np.ndarray:
    """(contents, rrhs) Shapley values of each content's capacity game.

    Closed form of Littlechild & Owen (1973), for any number of RRHs.  A
    content's capacity is mu times a sum over its users of max-games
    max_{r in R} K[user, r].  Sorting one user's row so that
    x_(1) >= ... >= x_(D), with x_(D+1) = 0, the RRH holding x_(i) gets
    sum_{j >= i} (x_(j) - x_(j+1)) / j; summing over users gives the row.
    O(U * D log D), where enumerating coalitions is O(2^D).  Row sums
    equal the grand coalition's capacity (efficiency).
    """
    d = instance.n_rrh
    mu = instance.mu_for(rru_count)
    values = np.zeros((instance.content_count, d))
    for content in range(instance.content_count):
        users = instance.users_of(content)
        if users.size == 0:
            continue
        k = instance._k_table(instance._log_moment_exponent(content, rru_count))[users]
        order = np.argsort(-k, axis=1, kind="stable")
        x = np.take_along_axis(k, order, axis=1)
        steps = -np.diff(x, axis=1, append=0.0) / np.arange(1, d + 1)
        # suffix sums; tied values add an exact 0, so twin RRHs stay equal
        phi = np.cumsum(steps[:, ::-1], axis=1)[:, ::-1]
        by_rrh = np.empty_like(phi)
        np.put_along_axis(by_rrh, order, phi, axis=1)
        values[content] = mu * by_rrh.sum(axis=0)
    return values


def _acquisition_cost(contents: frozenset, instance: ClusterInstance) -> float:
    """Outer-game cost of running one RRU that carries ``contents``.

    All RRHs are presumed active at this stage (association has not run
    yet); cache and backhaul power follow :meth:`ClusterInstance.paid_objects`.
    """
    if not contents:
        return 0.0
    power = instance.power
    cached, fetched = instance.paid_objects(contents)
    return instance.cost_coeff * (instance.n_rrh * power.rrh_active
                                  + (cached * power.cache_per_object
                                     + fetched * power.backhaul))


def shapley_conflict_payoff(content: int, coalition: frozenset,
                            shapley: np.ndarray, instance: ClusterInstance) -> float:
    """Payoff of a content for sharing an RRU with ``coalition``.

    Sum over members of the L1 distance between rows of the
    :func:`shapley_values` array ``shapley`` (dissimilar RRH preferences
    make good roommates), minus the block's acquisition cost evaluated on
    the post-join coalition.
    """
    if content in coalition:
        raise ParameterError("payoff is defined for a joining content, not a member")
    conflict = sum(float(np.abs(shapley[content] - shapley[other]).sum())
                   for other in sorted(coalition))
    return conflict - _acquisition_cost(coalition | {content}, instance)


def _conflict_utility(coalition: frozenset, shapley: np.ndarray,
                      instance: ClusterInstance) -> float:
    if not coalition:
        return 0.0
    return sum(shapley_conflict_payoff(c, coalition - {c}, shapley, instance)
               for c in sorted(coalition))


def suboptimal_allocate(instance: ClusterInstance,
                        max_sweeps: int = MAX_SWEEPS) -> AllocationResult:
    """RRU allocation from Shapley conflicts instead of nested evaluation.

    Starts from one block per content.  Step 1: Shapley values per
    content (at the starting RRU count's rate requirement).  Step 2:
    contents negotiate RRU membership hedonically under the conflict
    payoff, same two-condition preference as the RRH game.  Step 3: the inner RRH game and idle pruning run once on the
    final partition.  Reported welfare uses the same utility as the nested
    search so results are comparable.
    """
    t0 = time.perf_counter()
    state = _one_block_per_content(instance)
    shapley = shapley_values(instance, rru_count=len(state))
    steps = [AllocationStep(0, "init", _signature(state), math.nan)]

    def wants(content, block, part):
        return _wants_switch(
            content, block, part,
            lambda c, coalition, _: shapley_conflict_payoff(c, coalition, shapley, instance),
            lambda coalition, _: _conflict_utility(coalition, shapley, instance))

    # emptied blocks stay as targets: a content may leave to go alone
    blocks = _switch_until_stable(RrhPartition(dict(enumerate(state))),
                                  range(instance.content_count), wants, max_sweeps)

    final = _canonical(blocks.coalitions.values())
    ev = _PartitionEvaluator(instance)
    steps.append(AllocationStep(1, "final", _signature(final), ev.welfare(final)))
    return _finalize("suboptimal", instance, final, ev, steps, t0, shapley=shapley)


# -- instance generation ----------------------------------------------------


def random_instance(seed: int, n_rrh: int, n_users: int, content_count: int = 5,
                    cache_size: int | None = None, radius: float = 1000.0,
                    zipf_exponent: float = 1.0, theta_cluster: float = 0.1,
                    theta_cloud: float = 0.6, object_bits: float = 1e6,
                    bandwidth_hz: float = 1000.0, slot_s: float = 1e-3,
                    pathloss_exponent: float = 4.0, noise: float = 0.0,
                    snr: float = 1.0, cost_coeff: float = DEFAULT_COST_COEFF,
                    quantizer: Quantizer | None = None,
                    power: PowerModel | None = None) -> ClusterInstance:
    """A reproducible small instance for game experiments.

    Exact point counts (not Poisson) keep instance sizes controlled; the
    analytic field intensity is the one implied by the drawn count.
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
    rrh_content = mark_rng.choice(content_count, size=n_rrh, p=catalog.popularity)
    user_content = mark_rng.choice(content_count, size=n_users, p=catalog.popularity)
    realization = NetworkRealization(radius, rrh_xy, rrh_content, user_xy,
                                     user_content, seed)

    k = content_count if cache_size is None else cache_size
    power = power if power is not None else PowerModel()
    cache = ClusterCache(stored=frozenset(range(k)),
                         power_per_object_w=power.cache_per_object)
    qos = QosProfile.uniform(theta_cluster, theta_cloud, content_count)
    mu = required_spectral_efficiency(content_count, object_bits, content_count,
                                      bandwidth_hz, slot_s)
    params = RadioParams(snr=snr, pathloss_exponent=pathloss_exponent, noise=noise,
                         bandwidth_hz=bandwidth_hz, slot_s=slot_s,
                         spectral_efficiency=mu)
    quantizer = quantizer if quantizer is not None else Quantizer.geometric(512)
    lambda_rrh = n_rrh / (np.pi * radius ** 2)
    return ClusterInstance(realization=realization, catalog=catalog, cache=cache,
                           qos=qos, params=params, power=power,
                           lambda_rrh=lambda_rrh, quantizer=quantizer,
                           cost_coeff=cost_coeff)

