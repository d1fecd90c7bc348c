import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from crancache import games
from crancache.cli import ALGORITHMS, build_instance, run_algorithm
from crancache.energy import PowerModel
from crancache.errors import ConvergenceError, DomainError, ParameterError
from crancache.geometry import NetworkRealization
from crancache.scenario import Scenario
from crancache.games import (AllocationResult, ClusterInstance, RrhPartition,
                             check_nash_stable, coalition_eff_cap,
                             coalition_value, evaluate_fixed_partition,
                             full_reuse_allocate, hedonic_rrh_association,
                             nested_allocate, orthogonal_allocate, prefers,
                             prune_sleep_rrhs, rrh_payoff, shapley_values,
                             suboptimal_allocate)

from oracles import (block_utility, conflict_utility, content_game_by_frozensets,
                     enumerate_partitions, greedy_init_partition, hedonic_by_frozensets,
                     joint_optimum, milp_optimum, moved, random_instance,
                     shapley_by_enumeration, shapley_by_sampling, shapley_conflict_payoff)


@pytest.fixture(scope="module")
def inst():
    return random_instance(42, 6, 12)


def test_random_instance_reproducible():
    a = random_instance(7, 5, 9)
    b = random_instance(7, 5, 9)
    assert np.array_equal(a.realization.rrh_xy, b.realization.rrh_xy)
    assert np.array_equal(a.realization.user_content, b.realization.user_content)
    assert a.n_rrh == 5
    assert a.realization.n_user == 9
    assert a.lambda_rrh == pytest.approx(5 / (math.pi * 1000.0 ** 2), rel=1e-15)
    c = random_instance(8, 5, 9)
    assert not np.array_equal(a.realization.rrh_xy, c.realization.rrh_xy)


def test_random_instance_guards():
    with pytest.raises(ParameterError):
        random_instance(1, 0, 5)
    with pytest.raises(ParameterError):
        random_instance(1, 5, 0)
    with pytest.raises(ParameterError):
        random_instance(1, 5, 5, cost_coeff=-1e-6)


def test_coalition_eff_cap_degenerate_cases(inst):
    n = inst.content_count
    assert coalition_eff_cap([], 0, inst, n) == 0.0
    # content 2 has no requesters in this draw
    assert inst.users_of(2).size == 0
    assert coalition_eff_cap([0, 1], 2, inst, n) == 0.0
    with pytest.raises(ParameterError):
        coalition_eff_cap([0, 6], 0, inst, n)
    with pytest.raises(ParameterError):
        coalition_eff_cap([-1, 0], 0, inst, n)


def test_member_range_checked_before_the_no_requester_shortcut(inst):
    # content 2 has no requesters, which used to return 0 for any member
    n = inst.content_count
    assert inst.users_of(2).size == 0
    with pytest.raises(ParameterError, match="outside the realization"):
        coalition_eff_cap([99], 2, inst, n)
    with pytest.raises(ParameterError, match="outside the realization"):
        rrh_payoff(99, [], 2, inst, n)
    # nothing is remembered for a refused coalition: asking again raises again
    with pytest.raises(ParameterError, match="outside the realization"):
        coalition_eff_cap([99], 2, inst, n)


def test_content_outside_the_catalog_is_rejected(inst):
    # users_of(-1) and theta_of(-1) would index from the end, so the range
    # check must come before the empty-coalition and no-requester shortcuts
    n = inst.content_count
    for content in (-1, n):
        for coalition in ([0], []):
            with pytest.raises(ParameterError, match="content"):
                coalition_eff_cap(coalition, content, inst, n)
        with pytest.raises(ParameterError, match="content"):
            rrh_payoff(0, [1], content, inst, n)
        with pytest.raises(ParameterError, match="content"):
            inst._k_table(content, n)
        # the RRH game checks the range itself, content 2 having no requesters
        for contents in ([content], [0, content], [2, content]):
            with pytest.raises(ParameterError, match="content"):
                hedonic_rrh_association(contents, inst, n)
        with pytest.raises(ParameterError, match="content"):
            coalition_eff_cap([0], content, inst, n)


def test_rru_count_outside_the_catalog_is_rejected(inst):
    # a partition of L contents has 1..L blocks; no other count prices a game
    for n in (0, inst.content_count + 1):
        with pytest.raises(ParameterError):
            coalition_eff_cap([0, 1], 0, inst, n)
        with pytest.raises(ParameterError):
            shapley_values(inst, n)


def test_coalition_eff_cap_monotone_in_members(inst):
    # nearest-member service: adding an RRH can only shorten distances
    n = inst.content_count
    for content in range(n):
        solo = coalition_eff_cap([1], content, inst, n)
        pair = coalition_eff_cap([1, 4], content, inst, n)
        full = coalition_eff_cap(range(6), content, inst, n)
        assert solo <= pair <= full


def test_coalition_eff_cap_order_insensitive(inst):
    # nothing is memoized, so each order is priced afresh and none may move a bit
    n = inst.content_count
    for content in (0, 1, 4):
        caps = {coalition_eff_cap(order, content, inst, n).hex()
                for order in itertools.permutations([3, 0, 5])}
        assert len(caps) == 1


def test_coalition_value_decomposition(inst):
    n = inst.content_count
    cols = [0, 2, 4]
    for content in (0, 1):
        cap = coalition_eff_cap(cols, content, inst, n)
        expect = cap - inst.cost_coeff * (3 * inst.power.rrh_active
                                          + inst.share_power(content))
        assert coalition_value(cols, content, inst, n) == pytest.approx(expect, rel=1e-15)
    assert coalition_value([], 0, inst, n) == 0.0


def test_rrh_payoff_marginal_identity(inst):
    n = inst.content_count
    base = [1, 3]
    for content in (0, 1, 4):
        gain = (coalition_eff_cap([0, 1, 3], content, inst, n)
                - coalition_eff_cap(base, content, inst, n))
        cost = inst.cost_coeff * (inst.power.rrh_active + inst.share_power(content) / 3)
        assert rrh_payoff(0, base, content, inst, n) == pytest.approx(gain - cost, rel=1e-12,
                                                                      abs=1e-15)
    with pytest.raises(ParameterError):
        rrh_payoff(1, base, 0, inst, n)


def test_rrh_partition_plumbing():
    part = RrhPartition({0: frozenset({1, 2}), 1: frozenset({0})})
    assert part.members(0) == frozenset({1, 2})
    assert part.content_of(0) == 1
    after = moved(part, 2, 1)
    assert after.members(0) == frozenset({1})
    assert after.members(1) == frozenset({0, 2})
    assert part.members(1) == frozenset({0})   # original untouched
    with pytest.raises(ParameterError):
        RrhPartition({0: frozenset({1}), 1: frozenset({1})})
    with pytest.raises(ParameterError):
        part.content_of(7)


def test_prefers_refuses_staying_put(inst):
    n = inst.content_count
    part = greedy_init_partition(range(n), inst, n)
    for rrh in range(inst.n_rrh):
        assert not prefers(rrh, part.content_of(rrh), part, inst, n)


def test_greedy_init_covers_all_rrhs(inst):
    n = inst.content_count
    part = greedy_init_partition(range(n), inst, n)
    assert sorted(part.coalitions) == list(range(n))
    placed = sorted(r for m in part.coalitions.values() for r in m)
    assert placed == list(range(inst.n_rrh))
    # the game's own seed, on cached capacities, is the same partition
    seed = games._RrhGame(list(range(n)), inst, n)
    assert RrhPartition({c: frozenset(m) for c, m in seed.members.items()}) == part


def test_manual_negotiation_is_a_potential_climb(inst):
    # replay the negotiation by hand: every accepted move must strictly
    # raise the summed coalition value, and the fixed scan order must land
    # on exactly the partition the routine returns
    n = inst.content_count
    contents = list(range(n))

    def total_value(partition):
        return sum(coalition_value(m, c, inst, n) for c, m in partition.coalitions.items())

    part = greedy_init_partition(contents, inst, n)
    for _ in range(200):
        changed = False
        for rrh in range(inst.n_rrh):
            for target in contents:
                if prefers(rrh, target, part, inst, n):
                    before = total_value(part)
                    part = moved(part, rrh, target)
                    assert total_value(part) > before
                    changed = True
                    break
        if not changed:
            break
    assert part == hedonic_rrh_association(contents, inst, n)


def test_hedonic_outcome_is_nash_stable():
    for seed in range(100, 110):
        inst = random_instance(seed, 5, 10, content_count=3)
        part = hedonic_rrh_association(range(3), inst, 3)
        stable, witness = check_nash_stable(part, inst, 3)
        assert stable and witness is None
        placed = sorted(r for m in part.coalitions.values() for r in m)
        assert placed == list(range(5))


# name -> (instance builder, whether some block's sweep must move an RRH)
HEDONIC_CASES = {
    "random-3-12-40": (lambda: random_instance(3, 12, 40), True),
    "random-4-20-60": (lambda: random_instance(4, 20, 60), True),
    "random-5-3-9": (lambda: random_instance(5, 3, 9), True),
    "default-drop": (lambda: build_instance(replace(Scenario(), seed=2)), True),
    "twin-rrhs": (lambda: _with_twins(random_instance(3, 12, 40), (0, 1), (4, 5), (4, 9)),
                  True),
    "content-nobody-requests": (lambda: random_instance(42, 6, 12), True),
    # three unrequested contents of equal power: the greedy seed ties exactly
    "contents-nobody-requests": (lambda: random_instance(1, 8, 2), True),
    "one-rrh": (lambda: random_instance(6, 1, 8), False),
    "free-power": (lambda: random_instance(3, 12, 40, cost_coeff=0.0), True),
    "no-join-pays": (lambda: random_instance(3, 12, 40, cost_coeff=1e6), False),
}


@pytest.mark.parametrize("case", sorted(HEDONIC_CASES))
def test_hedonic_matches_the_frozenset_oracle(case):
    # the game on cached join/leave capacities must settle, move by move,
    # where the sweep priced from scratch by prefers settles, and its
    # block utility must carry the same bytes
    build, must_move = HEDONIC_CASES[case]
    probe = build()
    n = probe.content_count
    if case == "content-nobody-requests":
        assert probe.users_of(2).size == 0
    blocks = [(tuple(range(n)), 1), (tuple(range(n)), n), ((0, 2, 4), 2), ((1, 3), 2)]
    any_moved = False
    for contents, rru_count in blocks:
        expect = hedonic_by_frozensets(contents, probe, rru_count)
        any_moved |= expect != greedy_init_partition(contents, probe, rru_count)
        assert hedonic_rrh_association(contents, probe, rru_count) == expect
        psi, part = games._block(build(), frozenset(contents), rru_count)
        assert part == expect
        assert psi.hex() == block_utility(expect, probe, rru_count).hex()
    assert any_moved == must_move


@pytest.mark.parametrize("seed", range(6))
def test_content_game_matches_the_frozenset_oracle(seed):
    # conflicts taken once and block values kept per block must settle where
    # the sweep that recomputes every conflict on every evaluation settles
    inst = random_instance(seed, 6 + seed, 12 + 4 * seed, content_count=3 + seed % 4,
                           cost_coeff=[1e-3, 0.0, 1e-2][seed % 3])
    shapley = shapley_values(inst, inst.content_count)
    game = games._ContentGame(shapley, inst)
    games._switch_until_stable(game)
    expect = content_game_by_frozensets(inst, shapley)
    assert {b: frozenset(m) for b, m in game.members.items()} == expect.coalitions
    for block, members in expect.coalitions.items():
        assert game.value[block].hex() == conflict_utility(members, shapley, inst).hex()
    for content in range(inst.content_count):
        others = [c for c in range(inst.content_count) if c != content]
        for size in range(len(others) + 1):
            for coalition in itertools.combinations(others, size):
                assert game.payoff(content, set(coalition)).hex() == shapley_conflict_payoff(
                    content, frozenset(coalition), shapley, inst).hex()
    assert suboptimal_allocate(inst).rru_partition == games._canonical(
        expect.coalitions.values())


def test_hedonic_game_never_prices_from_scratch(monkeypatch):
    # the sweep reads cached capacities; the exact pricers stay the checker
    calls = []
    for name in ("coalition_eff_cap", "coalition_value", "rrh_payoff", "prefers"):
        real = getattr(games, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(games, name, counted)
    inst = random_instance(3, 12, 40)
    n = inst.content_count
    for rru_count in (1, n):
        hedonic_rrh_association(range(n), inst, rru_count)
    assert calls == []


def test_hedonic_guards(inst, monkeypatch):
    n = inst.content_count
    monkeypatch.setattr(games, "MAX_SWEEPS", 0)
    with pytest.raises(ConvergenceError):
        hedonic_rrh_association(range(n), inst, n)
    with pytest.raises(ParameterError):
        hedonic_rrh_association([], inst, n)


def test_check_nash_stable_reports_valid_witness(inst):
    # dump every RRH on content 0 and leave the busy contents empty;
    # somebody must want out, and the witness must be an actual deviation
    n = inst.content_count
    coalitions = {c: frozenset() for c in range(n)}
    coalitions[0] = frozenset(range(inst.n_rrh))
    part = RrhPartition(coalitions)
    stable, witness = check_nash_stable(part, inst, n)
    assert not stable
    rrh, target = witness
    assert prefers(rrh, target, part, inst, n)


def test_prune_keeps_every_served_user_covered(inst):
    n = inst.content_count
    part = hedonic_rrh_association(range(n), inst, n)
    active, asleep = prune_sleep_rrhs(part, inst)
    assert active | asleep == frozenset(range(inst.n_rrh))
    assert not active & asleep
    for content, members in part.coalitions.items():
        kept = members & active
        assert coalition_eff_cap(kept, content, inst, n) == \
            coalition_eff_cap(members, content, inst, n)


def _direct_rru_utility(part: RrhPartition, inst, rru_count: int) -> float:
    """One RRU's utility with capacity and power in one expression, where
    the library sums per-content coalition values."""
    served = [c for c in part.coalitions if part.members(c)]
    cap = sum(coalition_eff_cap(part.members(c), c, inst, rru_count) for c in served)
    n_members = sum(len(part.members(c)) for c in served)
    share = sum(inst.share_power(c) for c in served)
    return max(cap - inst.cost_coeff * (n_members * inst.power.rrh_active + share), 0.0)


def test_rru_utility_forms_agree(inst):
    full = full_reuse_allocate(inst)
    contents = frozenset(range(inst.content_count))
    part = full.rrh_partitions[contents]
    assert part == hedonic_rrh_association(sorted(contents), inst, rru_count=1)
    assert full.welfare > 0
    assert full.welfare == pytest.approx(_direct_rru_utility(part, inst, 1), rel=1e-12)
    blocks = [frozenset({0, 1}), frozenset({2, 3, 4})]
    split = evaluate_fixed_partition("split", inst, blocks)
    direct = sum(_direct_rru_utility(split.rrh_partitions[b], inst, 2) for b in blocks)
    assert split.welfare == pytest.approx(direct, rel=1e-12)


def test_rru_utility_clamps_at_zero():
    # price power high enough and no coalition is worth running
    inst = random_instance(3, 4, 6, content_count=3, cost_coeff=1e6)
    full = full_reuse_allocate(inst)
    part = full.rrh_partitions[frozenset(range(3))]
    assert sum(coalition_value(part.members(c), c, inst, 1) for c in range(3)) < 0.0
    assert full.welfare == 0.0
    assert full.steps[0].welfare == 0.0


def test_shapley_exact_efficiency(inst):
    n = inst.content_count
    values = shapley_values(inst, n)
    assert values.shape == (n, inst.n_rrh)
    for content in range(n):
        grand = coalition_eff_cap(range(inst.n_rrh), content, inst, n)
        if grand == 0.0:
            assert np.all(values[content] == 0.0)
        else:
            assert values[content].sum() == pytest.approx(grand, rel=1e-12)


def _with_twins(base: ClusterInstance, *pairs) -> ClusterInstance:
    """``base`` with RRH ``b`` moved onto RRH ``a`` for each (a, b)."""
    r = base.realization
    rrh_xy = r.rrh_xy.copy()
    for a, b in pairs:
        rrh_xy[b] = rrh_xy[a]
    return ClusterInstance(
        realization=NetworkRealization(r.cluster_radius, rrh_xy, r.user_xy,
                                       r.user_content, r.seed),
        catalog=base.catalog, cache=base.cache, qos=base.qos, params=base.params,
        power=base.power, lambda_rrh=base.lambda_rrh, quantizer=base.quantizer,
        cost_coeff=base.cost_coeff)


def test_shapley_exact_symmetry_for_twin_rrhs():
    # two RRHs at identical positions are interchangeable, so their
    # Shapley values must match exactly on every content
    twin = _with_twins(random_instance(15, 4, 10, content_count=3), (0, 1))
    values = shapley_values(twin, twin.content_count)
    assert np.array_equal(values[:, 0], values[:, 1])


@pytest.mark.parametrize("seed, n_rrh, n_users, cache_size", [
    (0, 1, 4, None), (1, 2, 7, None), (2, 5, 12, 2), (3, 8, 15, None), (4, 10, 25, 3),
])
def test_shapley_closed_form_matches_enumeration(seed, n_rrh, n_users, cache_size):
    inst = random_instance(seed, n_rrh, n_users, cache_size=cache_size)
    for rru_count in (inst.content_count, 2):
        expect = shapley_by_enumeration(inst, rru_count)
        assert np.allclose(shapley_values(inst, rru_count), expect, rtol=1e-12, atol=0.0)


def test_shapley_efficiency_beyond_enumeration():
    # 30 RRHs: 2^30 coalitions, out of reach of enumeration
    inst = random_instance(11, 30, 60)
    n = inst.content_count
    values = shapley_values(inst, n)
    assert np.all(values >= 0.0)
    for content in range(n):
        grand = coalition_eff_cap(range(inst.n_rrh), content, inst, n)
        assert values[content].sum() == pytest.approx(grand, rel=1e-12)


def test_shapley_sampled_agrees_with_exact(inst):
    n = inst.content_count
    exact = shapley_values(inst, n)
    samp, se = shapley_by_sampling(inst, n, permutations=10_000, seed=3)
    diff = np.abs(samp - exact)
    assert np.all(diff[se == 0.0] == 0.0)
    assert np.all(diff[se > 0.0] < 3.0 * se[se > 0.0])


def test_shapley_sampled_deterministic(inst):
    n = inst.content_count
    a, _ = shapley_by_sampling(inst, n, permutations=500, seed=3)
    b, _ = shapley_by_sampling(inst, n, permutations=500, seed=3)
    assert np.array_equal(a, b)
    c, _ = shapley_by_sampling(inst, n, permutations=500, seed=4)
    assert not np.array_equal(a, c)


def test_conflict_payoff_hand_check(inst):
    values = np.array([[1.0, 0.0, 2.0, 0.0, 0.0, 0.0],
                       [0.0, 1.0, 2.0, 0.0, 0.0, 0.0],
                       [4.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    got = shapley_conflict_payoff(0, frozenset({1, 2}), values, inst)
    # L1(row0, row1) = 2, L1(row0, row2) = 5; cost on the 3-content block
    cost = games._acquisition_cost(frozenset({0, 1, 2}), inst)
    assert got == pytest.approx(7.0 - cost, rel=1e-15)
    with pytest.raises(ParameterError):
        shapley_conflict_payoff(1, frozenset({1, 2}), values, inst)
    # the content game prices the same join from its distances, taken once
    game = games._ContentGame(values, inst)
    assert game.payoff(0, {1, 2}).hex() == got.hex()


def test_nested_welfare_climbs_without_repeats(inst):
    res = nested_allocate(inst)
    assert isinstance(res, AllocationResult)
    welfares = [s.welfare for s in res.steps]
    assert all(b > a for a, b in zip(welfares, welfares[1:]))
    sigs = [s.partition for s in res.steps]
    assert len(set(sigs)) == len(sigs)
    assert res.welfare == pytest.approx(welfares[-1], rel=1e-12)
    covered = sorted(c for b in res.rru_partition for c in b)
    assert covered == list(range(inst.content_count))


def test_nested_beats_orthogonal_start(inst):
    # the search starts from one content per block and only ever improves
    res = nested_allocate(inst)
    assert res.welfare >= orthogonal_allocate(inst).welfare


def test_fixed_partition_baselines(inst):
    orth = orthogonal_allocate(inst)
    full = full_reuse_allocate(inst)
    assert orth.algorithm == "orthogonal" and orth.rru_count == inst.content_count
    assert full.algorithm == "full_reuse" and full.rru_count == 1
    assert orth.active | orth.asleep == frozenset(range(inst.n_rrh))
    with pytest.raises(ParameterError):
        evaluate_fixed_partition("bad", inst, [frozenset({0, 1})])


def test_suboptimal_runs_deterministically(inst):
    a = suboptimal_allocate(inst)
    b = suboptimal_allocate(inst)
    assert a.algorithm == "suboptimal"
    assert a.steps[0].op == "init" and math.isnan(a.steps[0].welfare)
    assert a.steps[-1].op == "final"
    assert [s.partition for s in a.steps] == [s.partition for s in b.steps]
    assert a.welfare == b.welfare
    covered = sorted(c for blk in a.rru_partition for c in blk)
    assert covered == list(range(inst.content_count))


def test_suboptimal_outcome_admits_no_content_switch():
    # the content game stops at a partition where no content wants to move
    # to another block, emptied blocks (going alone) included
    for seed in range(3):
        inst = random_instance(seed, 6, 12)
        res = suboptimal_allocate(inst)
        n = inst.content_count
        shapley = shapley_values(inst, n)
        blocks = list(res.rru_partition) + [frozenset()] * (n - res.rru_count)
        part = RrhPartition(dict(enumerate(blocks)))

        def payoff(content, coalition, _block):
            return shapley_conflict_payoff(content, coalition, shapley, inst)

        def value(coalition, _block):
            return conflict_utility(coalition, shapley, inst)

        for content in range(n):
            for target in range(n):
                assert not games._wants_switch(content, target, part, payoff, value)


def test_suboptimal_guards(inst, monkeypatch):
    monkeypatch.setattr(games, "MAX_SWEEPS", 0)
    with pytest.raises(ConvergenceError):
        suboptimal_allocate(inst)


def test_block_pays_for_the_objects_it_serves():
    inst = random_instance(5, 6, 12, cache_size=2)
    assert inst.paid_objects(frozenset({0, 3, 4})) == (1, 2)
    assert inst.paid_objects(frozenset({0, 1})) == (2, 0)
    power = inst.power
    expected = inst.cost_coeff * (inst.n_rrh * power.rrh_active
                                  + power.cache_per_object + 2 * power.backhaul)
    assert games._acquisition_cost(frozenset({0, 3, 4}), inst) \
        == pytest.approx(expected, rel=1e-12)


def test_user_on_top_of_an_rrh_is_a_domain_error(inst):
    # a zero-length link has no finite log-moment capacity
    r = inst.realization
    user_xy = r.user_xy.copy()
    user_xy[0] = r.rrh_xy[0]
    moved = replace(inst, realization=replace(r, user_xy=user_xy))
    with pytest.raises(DomainError, match="underflows"):
        nested_allocate(moved)


def test_bipartition_enumeration():
    block = frozenset({0, 1, 2, 3})
    splits = list(games._bipartitions(block))
    assert len(splits) == 2 ** 3 - 1
    for left, right in splits:
        assert left and right
        assert left | right == block
        assert not left & right
    assert len(set(frozenset((l, r)) for l, r in splits)) == len(splits)
    assert list(games._bipartitions(frozenset({0}))) == []
    big = frozenset(range(games.SPLIT_ENUMERATION_CAP + 1))
    peels = list(games._bipartitions(big))
    assert len(peels) == len(big)
    assert all(len(r) == 1 for _, r in peels)


def _drop(kind: str, seed: int) -> ClusterInstance:
    if kind == "default":
        return build_instance(replace(Scenario(), seed=seed))
    return random_instance(seed, 6, 12)


def _outcome(res: AllocationResult) -> tuple:
    """Everything an allocation reports, with each welfare as its repr
    (so a -0.0 and the init step's nan compare too)."""
    return (res.rru_partition,
            [res.rrh_partitions[b].coalitions for b in res.rru_partition],
            res.active, res.asleep,
            [(s.index, s.op, s.partition, repr(s.welfare)) for s in res.steps],
            repr(res.welfare))


@pytest.mark.parametrize("kind, seed", [("random", s) for s in range(4)]
                         + [("default", s) for s in range(1, 5)])
def test_algorithms_sharing_an_instance_match_fresh_instances(kind, seed):
    # negotiated blocks live on the instance, so the later algorithms of a
    # sweep reuse what the earlier ones negotiated; each must still report
    # what it reports alone, and each final partition must be worth, on a
    # fresh instance, what the algorithm reported for it
    shared = _drop(kind, seed)
    for alg in ALGORITHMS:
        res = run_algorithm(shared, alg, Scenario())
        assert _outcome(res) == _outcome(run_algorithm(_drop(kind, seed), alg, Scenario()))
        fixed = evaluate_fixed_partition(alg, _drop(kind, seed), res.rru_partition)
        assert _outcome(fixed)[:4] == _outcome(res)[:4]
        assert repr(fixed.welfare) == repr(res.welfare)


def _count_games(monkeypatch) -> list:
    real, calls = games.hedonic_rrh_association, []

    def counted(contents, instance, rru_count):
        calls.append((tuple(contents), rru_count))
        return real(contents, instance, rru_count)

    monkeypatch.setattr(games, "hedonic_rrh_association", counted)
    return calls


def test_each_block_is_negotiated_once_per_instance(monkeypatch):
    inst = random_instance(0, 6, 12)
    calls = _count_games(monkeypatch)
    first = nested_allocate(inst)
    assert calls and len(set(calls)) == len(calls)
    calls.clear()
    assert _outcome(nested_allocate(inst)) == _outcome(first)
    orthogonal_allocate(inst)
    assert calls == []


def test_a_block_whose_game_raises_is_not_cached(monkeypatch):
    inst = random_instance(0, 6, 12)
    with monkeypatch.context() as patched:
        patched.setattr(games, "MAX_SWEEPS", 0)
        with pytest.raises(ConvergenceError):
            full_reuse_allocate(inst)
    calls = _count_games(monkeypatch)
    assert _outcome(full_reuse_allocate(inst)) == \
        _outcome(full_reuse_allocate(random_instance(0, 6, 12)))
    assert calls == [((0, 1, 2, 3, 4), 1)] * 2


# small drops the joint optimum can price: 3-4 contents, 5-7 RRHs, on a
# 10 m disk, where noise 0.3 shifts the values without swamping them
YARDSTICK_DROPS = [dict(seed=7000 + i, n_rrh=5 + i % 3, n_users=6 + i % 7,
                        content_count=3 + i % 2, radius=10.0, noise=noise)
                   for noise in (0.0, 0.3) for i in range(10)]


def test_joint_optimum_matches_pricing_every_partition_directly():
    # the subset tables must price each assignment as block_utility does
    inst = random_instance(**YARDSTICK_DROPS[0])
    best = -math.inf
    for part in enumerate_partitions(range(inst.content_count)):
        welfare = 0.0
        for block in part:
            contents = sorted(block)
            welfare += max(block_utility(RrhPartition(
                {c: frozenset(j for j in range(inst.n_rrh) if choice[j] == c)
                 for c in contents}), inst, len(part))
                for choice in itertools.product(contents, repeat=inst.n_rrh))
        best = max(best, welfare)
    assert joint_optimum(inst) == pytest.approx(best, rel=1e-12, abs=0.0)
    for too_big in (random_instance(1, 7, 6), random_instance(1, 8, 6, content_count=4)):
        with pytest.raises(ParameterError, match="capped"):
            joint_optimum(too_big)


def print_gaps(yardstick: str, gaps: dict):
    for name, gap in gaps.items():
        at_optimum = sum(g <= 1e-12 for g in gap)
        print(f"{yardstick}, {name}: {at_optimum}/{len(gap)} drops at the optimum, "
              f"gap mean {100 * np.mean(gap):.2f}%, max {100 * np.max(gap):.2f}%")


def test_no_algorithm_beats_the_joint_optimum():
    # every algorithm's outcome is one of the allocations the optimum
    # ranges over, so a welfare above it means the accounting is wrong
    gaps = {alg: [] for alg in ALGORITHMS}
    for drop in YARDSTICK_DROPS:
        inst = random_instance(**drop)
        best = joint_optimum(inst)
        assert best > 0.0
        for alg in ALGORITHMS:
            welfare = run_algorithm(inst, alg, Scenario()).welfare
            assert welfare <= best * (1 + 1e-12)
            gaps[alg].append((best - welfare) / best)
    print_gaps("joint optimum", gaps)


def test_milp_optimum_equals_the_joint_optimum_on_small_drops():
    # the MILP solves each block where the joint optimum tries every
    # assignment, so on the drops both can price they must agree; on the
    # costly copies the power bill rivals the capacity, so a mispriced
    # RRH or object-share term moves the MILP's assignment
    costly = dict(cost_coeff=1.0, cache_size=1,
                  power=PowerModel(rrh_active=1.0, rrh_sleep=0.5,
                                   cache_per_object=0.15, backhaul=100.0))
    for drop in YARDSTICK_DROPS + [dict(d, **costly) for d in YARDSTICK_DROPS[:5]]:
        inst = random_instance(**drop)
        assert milp_optimum(inst) == pytest.approx(joint_optimum(inst), rel=1e-12, abs=0.0)


@pytest.mark.slow
def test_no_algorithm_beats_the_milp_optimum_on_default_drops():
    # default drops (5 contents, 13-23 RRHs) are past the joint optimum's
    # reach; besides the algorithms, the best RRU partition under the inner
    # RRH game is one more real allocation the optimum bounds
    inner = "best RRU partition, inner game"
    gaps = {name: [] for name in (*ALGORITHMS, inner)}
    for seed in range(1, 11):
        inst = build_instance(replace(Scenario(), seed=seed))
        best = milp_optimum(inst)
        welfare = {alg: run_algorithm(inst, alg, Scenario()).welfare for alg in ALGORITHMS}
        welfare[inner] = max(sum(games._block(inst, block, len(part))[0] for block in part)
                             for part in enumerate_partitions(range(inst.content_count)))
        for name, value in welfare.items():
            assert value <= best * (1 + 1e-12), name
            gaps[name].append((best - value) / best)
    print_gaps("MILP optimum", gaps)


def test_rrh_relabelling_probe():
    # informational: the same drop with its RRHs renumbered; nested's
    # outcome should not depend on the numbering, but today's greedy seed
    # and sweep visit RRHs in index order, so it can
    moved_drops = 0
    for drop in YARDSTICK_DROPS:
        inst = random_instance(**drop)
        perm = np.random.default_rng(drop["seed"]).permutation(inst.n_rrh)
        relabelled = replace(inst, realization=replace(
            inst.realization, rrh_xy=inst.realization.rrh_xy[perm]))
        base, other = nested_allocate(inst), nested_allocate(relabelled)
        # RRH j of the relabelled drop is RRH perm[j] of the original
        mapped = {block: {c: frozenset(int(perm[j]) for j in members)
                          for c, members in part.coalitions.items()}
                  for block, part in other.rrh_partitions.items()}
        same = (other.rru_partition == base.rru_partition
                and mapped == {b: p.coalitions for b, p in base.rrh_partitions.items()}
                and other.welfare == pytest.approx(base.welfare, rel=1e-12, abs=0.0))
        moved_drops += not same
    print(f"RRH relabelling: nested moves on {moved_drops}/{len(YARDSTICK_DROPS)} drops")
