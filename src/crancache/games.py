"""Coalition formation for RRH association and RRU sharing.

Both coalition games run one hedonic switch rule (Bogomolnaia & Jackson
2002), :meth:`_SwitchGame.wants`: a player moves only if its own payoff
AND the joint value of the two coalitions it touches strictly rise.  The
summed coalition value is then a strict potential, so the sweep
:func:`_switch_until_stable` always settles into a Nash-stable partition.
Each game keeps the values that rule reads per coalition and refreshes
only the two coalitions a move touches.

* inner game: within one resource block (RRU), RRHs choose which of the
  block's contents to serve (capacity minus power bill).  It reads cached
  join and leave capacities; :func:`coalition_eff_cap`,
  :func:`coalition_value`, :func:`rrh_payoff` and :func:`prefers` price
  the same quantities from scratch, and :func:`check_nash_stable` checks
  an outcome with them.
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

from .content import ClusterCache, ContentCatalog
from .effcap import (LN2, Quantizer, RadioParams, demand_moment, log_moment_exponent,
                     log_moments, required_spectral_efficiency)
from .energy import PowerModel
from .errors import (ConvergenceError, DomainError, ParameterError,
                     StabilityViolationError)
from .geometry import NetworkRealization
from .qos import QosProfile

MAX_SWEEPS = 10_000
SPLIT_ENUMERATION_CAP = 12   # largest block whose every bipartition is tried


@dataclass(eq=False)
class ClusterInstance:
    """Everything one allocation run needs, with two value caches: the K
    tables and the negotiated RRU blocks, so the algorithms run on one
    instance share every game they have in common.

    The same cost coefficient prices both the inner and the outer game.
    ``lambda_rrh`` is the intensity used by the analytic per-link capacity;
    utilities treat coalition members as serving RRH candidates and the
    whole field as interference, so the instance never re-derives
    intensities from the drawn point count.
    """

    realization: NetworkRealization
    catalog: ContentCatalog
    cache: ClusterCache
    qos: QosProfile
    params: RadioParams
    power: PowerModel
    lambda_rrh: float
    quantizer: Quantizer
    cost_coeff: float

    _dist: np.ndarray = field(init=False, repr=False)
    _users_by_content: list = field(init=False, repr=False)
    _k_cache: dict = field(init=False, repr=False)
    _block_cache: dict = field(init=False, repr=False)

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
        self._block_cache = {}

    # -- value plumbing ----------------------------------------------------

    @property
    def n_rrh(self) -> int:
        return self.realization.n_rrh

    @property
    def content_count(self) -> int:
        return self.catalog.count

    def users_of(self, content: int) -> np.ndarray:
        return self._users_by_content[content]

    def mu_for(self, rru_count: int) -> float:
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
        """(cached, fetched): objects a block carrying ``contents`` pays power
        for, counting only the objects the block serves."""
        cached = sum(1 for c in contents if self.cache.holds(c))
        return cached, len(contents) - cached

    def _log_moment_exponent(self, content: int, rru_count: int) -> float:
        return log_moment_exponent(self.mu_for(rru_count), self.theta_of(content),
                                   self.params)

    def _k_table(self, content: int, rru_count: int) -> np.ndarray:
        """Normalized log-moment map K[user, rrh]; capacity is mu * K.

        K = -ln G / (a ln 2) with G the quantized log-moment of the SINR
        law at the content's exponent a for ``rru_count`` RRUs, so K ->
        log2(1+gamma) as the law degenerates.  Strictly decreasing in
        distance, which is what lets "nearest coalition member" read as a
        row-max.

        The first demand builds the whole family (every content at every
        RRU count 1..L) in one kernel pass that shares each survival chunk,
        with every table byte-identical to a build of its own.  A table
        whose G underflows raises DomainError only when it is demanded.
        """
        count = self.content_count
        if not 0 <= content < count:
            raise ParameterError(f"content {content} outside [0, {count})")
        if not 1 <= rru_count <= count:
            raise ParameterError(f"RRU count {rru_count} outside [1, {count}]")
        if not self._k_cache:
            exponents = {(c, n): self._log_moment_exponent(c, n)
                         for c in range(count) for n in range(1, count + 1)}
            family = sorted(set(exponents.values()))
            gs = log_moments(self._dist.ravel(), family, self.lambda_rrh, self.params,
                             self.quantizer)
            tables = {}
            for e, g in zip(family, gs):
                try:
                    tables[e] = (-np.log(demand_moment(g)) / (e * LN2)).reshape(
                        self._dist.shape)
                except DomainError as exc:
                    tables[e] = exc
            self._k_cache = {key: tables[e] for key, e in exponents.items()}
        tab = self._k_cache[content, rru_count]
        if isinstance(tab, DomainError):
            raise tab
        return tab


def coalition_eff_cap(coalition: Iterable[int], content: int,
                      instance: ClusterInstance, rru_count: int) -> float:
    """Summed effective capacity the coalition delivers for one content
    in a partition of ``rru_count`` RRUs.

    Each requester of the content is served by its nearest coalition
    member; users of other contents and users with no member in reach
    contribute nothing.  Empty coalition: 0.
    """
    members = frozenset(coalition)
    if members and (min(members) < 0 or max(members) >= instance.n_rrh):
        raise ParameterError("coalition member outside the realization")
    if not 0 <= content < instance.content_count:
        raise ParameterError(f"content {content} outside [0, {instance.content_count})")
    users = instance.users_of(content)
    if not members or users.size == 0:
        return 0.0
    k = instance._k_table(content, rru_count)
    # a row max is exact, so the member order cannot move a bit
    return instance.mu_for(rru_count) * float(
        k[users[:, None], list(members)].max(axis=1).sum())


def coalition_value(coalition: Iterable[int], content: int,
                    instance: ClusterInstance, rru_count: int) -> float:
    """Coalition worth: delivered capacity minus the members' power bill.

    v(R) = cap(R) - c0 * (|R| * P_rrh + P_share); the object-acquisition
    power P_share is paid once per coalition and split among members, so
    in total it appears once.  v(empty) = 0.
    """
    members = frozenset(coalition)
    if not members:
        return 0.0
    cap = coalition_eff_cap(members, content, instance, rru_count)
    cost = instance.cost_coeff * (len(members) * instance.power.rrh_active
                                  + instance.share_power(content))
    return cap - cost


def rrh_payoff(rrh: int, coalition: Iterable[int], content: int,
               instance: ClusterInstance, rru_count: int) -> float:
    """Payoff RRH ``rrh`` gets for joining ``coalition`` on this content.

    Marginal capacity minus c0 * (own RRH power + equal share of the
    object-acquisition power); the share is computed at the size after
    joining.
    """
    members = frozenset(coalition)
    if rrh in members:
        raise ParameterError("payoff is defined for a joining RRH, not a member")
    joined = members | {rrh}
    gain = (coalition_eff_cap(joined, content, instance, rru_count)
            - coalition_eff_cap(members, content, instance, rru_count))
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


def _wants_switch(player: int, target: int, partition: RrhPartition,
                  payoff, value) -> bool:
    """Whether ``player`` strictly gains AND lifts the joint value by moving,
    priced from scratch on frozensets: the exact form of
    :meth:`_SwitchGame.wants`.

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


def prefers(rrh: int, target_content: int, partition: RrhPartition,
            instance: ClusterInstance, rru_count: int) -> bool:
    """Whether the RRH strictly wants to defect to the target coalition.

    :func:`_wants_switch` with RRH payoffs and coalition values.
    """
    return _wants_switch(
        rrh, target_content, partition,
        lambda p, coalition, c: rrh_payoff(p, coalition, c, instance, rru_count),
        lambda coalition, c: coalition_value(coalition, c, instance, rru_count))


class _SwitchGame:
    """A hedonic game's partition with the numbers its switch rule reads.

    ``label[player]`` is the player's coalition and ``members[label]`` its
    players.  A subclass prices, from values it keeps per coalition and
    refreshes on each move, a player's payoff for staying (``stay``) and
    for joining ``target`` (``join``), and the joint value of the two
    coalitions a move touches before and after it (``joint``).
    """

    label: list
    members: dict

    def wants(self, player: int, target: int) -> bool:
        """Whether ``player`` strictly gains AND lifts the joint value by
        moving to ``target``.  Any tie refuses the move, which is what
        rules out oscillation."""
        if target == self.label[player] or self.join(player, target) <= self.stay(player):
            return False
        now, then = self.joint(player, target)
        return then > now

    def move(self, player: int, target: int):
        source = self.label[player]
        self.members[source].remove(player)
        self.members[target].add(player)
        self.label[player] = target
        self.refresh(source)
        self.refresh(target)


def _switch_until_stable(game: _SwitchGame):
    """Sweep players in index order, each moving to the first label (in
    label order) it wants, until a sweep moves nobody (a Nash-stable
    partition), or raise ConvergenceError after MAX_SWEEPS sweeps."""
    labels = sorted(game.members)
    players = range(len(game.label))
    for _ in range(MAX_SWEEPS):
        moved = False
        for player in players:
            for target in labels:
                if game.wants(player, target):
                    game.move(player, target)
                    moved = True
                    break
        if not moved:
            return
    raise ConvergenceError(f"no stable partition within {MAX_SWEEPS} sweeps")


class _RrhGame(_SwitchGame):
    """RRHs choosing among the contents of one RRU, on cached capacities.

    Per content it keeps the K rows of its requesters as (RRHs x
    requesters), each requester's best and second-best member value and
    the member holding the best, the coalition's capacity, every RRH's
    capacity on joining it and every member's capacity on leaving it.
    Payoffs and values are then float arithmetic in the operation order of
    :func:`rrh_payoff` and :func:`coalition_value`, on capacities summed
    over the same per-user maxima as :func:`coalition_eff_cap`, so every
    comparison sees the bytes those exact functions give.
    """

    def __init__(self, contents: list, instance: ClusterInstance, rru_count: int):
        count = instance.content_count
        self.mu = instance.mu_for(rru_count)
        self.c0 = instance.cost_coeff
        self.rrh_power = instance.power.rrh_active
        self.share, self.k = {}, {}
        for c in contents:
            if not 0 <= c < count:
                raise ParameterError(f"content {c} outside [0, {count})")
            users = instance.users_of(c)
            self.share[c] = instance.share_power(c)
            # a content nobody requests reads no K table: every capacity is 0
            self.k[c] = (np.ascontiguousarray(instance._k_table(c, rru_count)[users].T)
                         if users.size else np.empty((instance.n_rrh, 0)))
        self.members = {c: set() for c in contents}
        self.cap = dict.fromkeys(contents, 0.0)
        self.join_cap, self.leave_cap = {}, {}
        # greedy seed: RRHs in index order each join their best coalition so
        # far, ties to the lowest content
        best = {c: np.full(self.k[c].shape[1], -np.inf) for c in contents}
        self.label = []
        for rrh in range(instance.n_rrh):
            choice, choice_pay, choice_cap = None, -math.inf, 0.0
            for c in contents:
                joined = self.mu * float(np.maximum(best[c], self.k[c][rrh]).sum())
                pay = self._payoff(joined, self.cap[c], len(self.members[c]) + 1, c)
                if pay > choice_pay:
                    choice, choice_pay, choice_cap = c, pay, joined
            np.maximum(best[choice], self.k[choice][rrh], out=best[choice])
            self.cap[choice] = choice_cap
            self.members[choice].add(rrh)
            self.label.append(choice)
        for c in contents:
            self.refresh(c)

    def _payoff(self, joined_cap: float, cap: float, size: int, content: int) -> float:
        """:func:`rrh_payoff` for joining a coalition of capacity ``cap``
        that has ``size`` members after the join."""
        return (joined_cap - cap) - self.c0 * (self.rrh_power + self.share[content] / size)

    def _value(self, cap: float, size: int, content: int) -> float:
        """:func:`coalition_value` of ``size`` members with capacity ``cap``."""
        if not size:
            return 0.0
        return cap - self.c0 * (size * self.rrh_power + self.share[content])

    def refresh(self, content: int):
        k, members = self.k[content], sorted(self.members[content])
        if members:
            rows = k[members]
            top = rows.argmax(axis=0)
            cols = np.arange(k.shape[1])
            best = rows[top, cols]
            rows[top, cols] = -np.inf
            second = rows.max(axis=0)
            holder = np.asarray(members)[top]
            cap = self.mu * float(best.sum())
        else:
            best, cap = np.full(k.shape[1], -np.inf), 0.0
        self.cap[content] = cap
        # a row max is exact, so each sum adds the values coalition_eff_cap
        # adds, in the same order
        self.join_cap[content] = (self.mu * np.maximum(best, k).sum(axis=1)).tolist()
        if len(members) > 1:
            left = np.where(holder == np.asarray(members)[:, None], second, best)
            self.leave_cap[content] = dict(zip(members, (self.mu * left.sum(axis=1)).tolist()))
        else:
            self.leave_cap[content] = dict.fromkeys(members, 0.0)

    def stay(self, rrh: int) -> float:
        c = self.label[rrh]
        return self._payoff(self.cap[c], self.leave_cap[c][rrh], len(self.members[c]), c)

    def join(self, rrh: int, target: int) -> float:
        return self._payoff(self.join_cap[target][rrh], self.cap[target],
                            len(self.members[target]) + 1, target)

    def joint(self, rrh: int, target: int) -> tuple[float, float]:
        c = self.label[rrh]
        a, b = len(self.members[target]), len(self.members[c])
        now = self._value(self.cap[target], a, target) + self._value(self.cap[c], b, c)
        then = (self._value(self.join_cap[target][rrh], a + 1, target)
                + self._value(self.leave_cap[c][rrh], b - 1, c))
        return now, then


def hedonic_rrh_association(contents: Sequence[int], instance: ClusterInstance,
                            rru_count: int) -> RrhPartition:
    """Negotiate RRH coalitions for the contents sharing one RRU.

    Starts from a greedy seed (RRHs in index order each join their best
    coalition so far, ties to the lowest content index) and sweeps RRHs
    in index order; each moves to the first coalition (by content index)
    it strictly prefers.  Stops at the first sweep with no move, i.e. at a
    Nash-stable partition.  Every accepted move raises the summed
    coalition value, so with the sweep cap as a safety net the loop always
    terminates.
    """
    contents = sorted(contents)
    if not contents:
        raise ParameterError("an RRU must carry at least one content")
    game = _RrhGame(contents, instance, rru_count)
    _switch_until_stable(game)
    return RrhPartition({c: frozenset(m) for c, m in game.members.items()})


def check_nash_stable(partition: RrhPartition, instance: ClusterInstance,
                      rru_count: int):
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

    @property
    def rru_count(self) -> int:
        return len(self.rru_partition)


def _block(instance: ClusterInstance, contents: frozenset, rru_count: int):
    """(psi, RRH partition) of the RRU carrying ``contents`` in a partition
    of ``rru_count`` RRUs, negotiated once per instance.

    psi is the RRU's utility: the clamped sum of its per-content coalition
    values.  A block whose game raises is not cached.
    """
    key = (contents, rru_count)
    hit = instance._block_cache.get(key)
    if hit is None:
        ordered = sorted(contents)
        partition = hedonic_rrh_association(ordered, instance, rru_count)
        total = sum(coalition_value(partition.members(c), c, instance, rru_count)
                    for c in ordered)
        hit = instance._block_cache[key] = (max(total, 0.0), partition)
    return hit


def _welfare(instance: ClusterInstance, partition: tuple) -> float:
    """Summed RRU utility of a canonical RRU partition."""
    n = len(partition)
    return sum(_block(instance, b, n)[0] for b in partition)


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
    welfare = _welfare(instance, state)
    seen = {_signature(state)}
    steps = [AllocationStep(0, "init", _signature(state), welfare)]

    while True:
        for op, cand in _neighbours(state):
            cand_w = _welfare(instance, cand)
            if cand_w > welfare:
                sig = _signature(cand)
                if sig in seen:
                    raise StabilityViolationError(f"partition revisited: {sig}")
                state, welfare = cand, cand_w
                seen.add(sig)
                steps.append(AllocationStep(len(steps), op, sig, welfare))
                break
        else:
            return _finalize("nested", instance, state, steps, t0)


def _finalize(name: str, instance: ClusterInstance, state: tuple, steps: list,
              t0: float) -> AllocationResult:
    n = len(state)
    rrh_parts = {}
    active: set[int] = set()
    welfare = 0.0
    for block in state:
        psi, partition = _block(instance, block, n)
        rrh_parts[block] = partition
        welfare += psi
        block_active, _ = prune_sleep_rrhs(partition, instance)
        active |= block_active
    asleep = frozenset(range(instance.n_rrh)) - active
    return AllocationResult(algorithm=name, rru_partition=state,
                            rrh_partitions=rrh_parts, welfare=welfare,
                            active=frozenset(active), asleep=asleep, steps=steps,
                            runtime_s=time.perf_counter() - t0)


def evaluate_fixed_partition(name: str, instance: ClusterInstance,
                             partition: Iterable[frozenset]) -> AllocationResult:
    """Welfare of a hand-picked RRU partition (no outer search)."""
    t0 = time.perf_counter()
    state = _catalog_partition(instance, partition)
    steps = [AllocationStep(0, "fixed", _signature(state), _welfare(instance, state))]
    return _finalize(name, instance, state, steps, t0)


def orthogonal_allocate(instance: ClusterInstance) -> AllocationResult:
    """One content per RRU; the no-sharing baseline."""
    return evaluate_fixed_partition("orthogonal", instance,
                                    _one_block_per_content(instance))


def full_reuse_allocate(instance: ClusterInstance) -> AllocationResult:
    """All contents in a single RRU; the maximal-sharing baseline."""
    return evaluate_fixed_partition(
        "full_reuse", instance, [frozenset(range(instance.content_count))])


# -- Shapley machinery -----------------------------------------------------


def shapley_values(instance: ClusterInstance, rru_count: int) -> np.ndarray:
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
        k = instance._k_table(content, rru_count)[users]
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


class _ContentGame(_SwitchGame):
    """Contents choosing an RRU under Shapley conflict payoffs, from one
    block per content; emptied blocks stay as targets, so a content may
    leave to go alone.

    A content's payoff for sharing a block with ``coalition`` is the sum,
    over members in index order, of the L1 distance between their rows of
    the :func:`shapley_values` array (dissimilar RRH preferences make good
    roommates), minus the block's acquisition cost after the join.  A
    block's value is the sum of its members' payoffs.  The distances are
    taken once per game and each block's value is kept per block.
    """

    def __init__(self, shapley: np.ndarray, instance: ClusterInstance):
        n = len(shapley)
        self.instance = instance
        self.conflict = [[float(np.abs(shapley[c] - shapley[o]).sum()) for o in range(n)]
                         for c in range(n)]
        self.label = list(range(n))
        self.members = {c: {c} for c in range(n)}
        self.value = {c: self._utility(self.members[c]) for c in range(n)}

    def payoff(self, content: int, coalition: set) -> float:
        row = self.conflict[content]
        return (sum(row[other] for other in sorted(coalition))
                - _acquisition_cost(coalition | {content}, self.instance))

    def _utility(self, coalition: set) -> float:
        if not coalition:
            return 0.0
        return sum(self.payoff(c, coalition - {c}) for c in sorted(coalition))

    def refresh(self, block: int):
        self.value[block] = self._utility(self.members[block])

    def stay(self, content: int) -> float:
        return self.payoff(content, self.members[self.label[content]] - {content})

    def join(self, content: int, target: int) -> float:
        return self.payoff(content, self.members[target])

    def joint(self, content: int, target: int) -> tuple[float, float]:
        source = self.label[content]
        now = self.value[target] + self.value[source]
        then = (self._utility(self.members[target] | {content})
                + self._utility(self.members[source] - {content}))
        return now, then


def suboptimal_allocate(instance: ClusterInstance) -> AllocationResult:
    """RRU allocation from Shapley conflicts instead of nested evaluation.

    Starts from one block per content.  Step 1: Shapley values per
    content (at the starting RRU count's rate requirement).  Step 2:
    contents negotiate RRU membership hedonically under the conflict
    payoff, by the same switch rule and sweep as the RRH game.  Step 3:
    the inner RRH game and idle pruning run once on the final partition.
    Reported welfare uses the same utility as the nested search so results
    are comparable.
    """
    t0 = time.perf_counter()
    state = _one_block_per_content(instance)
    game = _ContentGame(shapley_values(instance, rru_count=len(state)), instance)
    steps = [AllocationStep(0, "init", _signature(state), math.nan)]
    _switch_until_stable(game)
    final = _canonical(game.members.values())
    steps.append(AllocationStep(1, "final", _signature(final), _welfare(instance, final)))
    return _finalize("suboptimal", instance, final, steps, t0)
