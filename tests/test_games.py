import math
from dataclasses import replace

import numpy as np
import pytest

from crancache import games
from crancache.cli import block_energy_efficiency
from crancache.energy import eta_rru
from crancache.errors import ConvergenceError, DomainError, ParameterError
from crancache.geometry import NetworkRealization
from crancache.games import (AllocationResult, ClusterInstance, RrhPartition,
                             check_nash_stable, coalition_eff_cap,
                             coalition_value, evaluate_fixed_partition,
                             full_reuse_allocate, greedy_init_partition,
                             hedonic_rrh_association, nested_allocate,
                             orthogonal_allocate, prefers, prune_sleep_rrhs,
                             random_instance, rrh_payoff, rru_coalition_utility,
                             shapley_conflict_payoff, shapley_values,
                             suboptimal_allocate)

from oracles import shapley_by_enumeration, shapley_by_sampling


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
    assert coalition_eff_cap([], 0, inst) == 0.0
    # content 2 has no requesters in this draw
    assert inst.users_of(2).size == 0
    assert coalition_eff_cap([0, 1], 2, inst) == 0.0
    with pytest.raises(ParameterError):
        coalition_eff_cap([0, 6], 0, inst)
    with pytest.raises(ParameterError):
        coalition_eff_cap([-1, 0], 0, inst)


def test_member_range_checked_before_the_no_requester_shortcut(inst):
    # content 2 has no requesters, which used to return 0 for any member
    assert inst.users_of(2).size == 0
    with pytest.raises(ParameterError, match="outside the realization"):
        coalition_eff_cap([99], 2, inst)
    with pytest.raises(ParameterError, match="outside the realization"):
        rrh_payoff(99, [], 2, inst)
    assert (2, None, (99,)) not in inst._cap_cache


def test_coalition_eff_cap_monotone_in_members(inst):
    # nearest-member service: adding an RRH can only shorten distances
    for content in range(inst.content_count):
        solo = coalition_eff_cap([1], content, inst)
        pair = coalition_eff_cap([1, 4], content, inst)
        full = coalition_eff_cap(range(6), content, inst)
        assert solo <= pair <= full


def test_coalition_eff_cap_order_insensitive_and_cached(inst):
    a = coalition_eff_cap([3, 0, 5], 1, inst)
    b = coalition_eff_cap([5, 3, 0], 1, inst)
    assert a == b
    assert (1, None, (0, 3, 5)) in inst._cap_cache


def test_coalition_value_decomposition(inst):
    cols = [0, 2, 4]
    for content in (0, 1):
        cap = coalition_eff_cap(cols, content, inst)
        expect = cap - inst.cost_coeff * (3 * inst.power.rrh_active
                                          + inst.share_power(content))
        assert coalition_value(cols, content, inst) == pytest.approx(expect, rel=1e-15)
    assert coalition_value([], 0, inst) == 0.0


def test_rrh_payoff_marginal_identity(inst):
    base = [1, 3]
    for content in (0, 1, 4):
        gain = (coalition_eff_cap([0, 1, 3], content, inst)
                - coalition_eff_cap(base, content, inst))
        cost = inst.cost_coeff * (inst.power.rrh_active + inst.share_power(content) / 3)
        assert rrh_payoff(0, base, content, inst) == pytest.approx(gain - cost, rel=1e-12,
                                                                   abs=1e-15)
    with pytest.raises(ParameterError):
        rrh_payoff(1, base, 0, inst)


def test_rrh_partition_plumbing():
    part = RrhPartition({0: frozenset({1, 2}), 1: frozenset({0})})
    assert part.members(0) == frozenset({1, 2})
    assert part.content_of(0) == 1
    moved = part.moved(2, 1)
    assert moved.members(0) == frozenset({1})
    assert moved.members(1) == frozenset({0, 2})
    assert part.members(1) == frozenset({0})   # original untouched
    with pytest.raises(ParameterError):
        RrhPartition({0: frozenset({1}), 1: frozenset({1})})
    with pytest.raises(ParameterError):
        part.content_of(7)


def test_prefers_refuses_staying_put(inst):
    part = greedy_init_partition(range(inst.content_count), inst)
    for rrh in range(inst.n_rrh):
        assert not prefers(rrh, part.content_of(rrh), part, inst)


def test_greedy_init_covers_all_rrhs(inst):
    part = greedy_init_partition(range(inst.content_count), inst)
    assert sorted(part.coalitions) == list(range(inst.content_count))
    placed = sorted(r for m in part.coalitions.values() for r in m)
    assert placed == list(range(inst.n_rrh))


def test_manual_negotiation_is_a_potential_climb(inst):
    # replay the negotiation by hand: every accepted move must strictly
    # raise the summed coalition value, and the fixed scan order must land
    # on exactly the partition the routine returns
    contents = list(range(inst.content_count))
    part = greedy_init_partition(contents, inst)
    for _ in range(200):
        moved = False
        for rrh in range(inst.n_rrh):
            for target in contents:
                if prefers(rrh, target, part, inst):
                    before = part.total_value(inst)
                    part = part.moved(rrh, target)
                    assert part.total_value(inst) > before
                    moved = True
                    break
        if not moved:
            break
    assert part == hedonic_rrh_association(contents, inst)


def test_hedonic_outcome_is_nash_stable():
    for seed in range(100, 110):
        inst = random_instance(seed, 5, 10, content_count=3)
        part = hedonic_rrh_association(range(3), inst)
        stable, witness = check_nash_stable(part, inst)
        assert stable and witness is None
        placed = sorted(r for m in part.coalitions.values() for r in m)
        assert placed == list(range(5))


def test_hedonic_guards(inst):
    with pytest.raises(ConvergenceError):
        hedonic_rrh_association(range(inst.content_count), inst, max_sweeps=0)
    with pytest.raises(ParameterError):
        hedonic_rrh_association([], inst)


def test_check_nash_stable_reports_valid_witness(inst):
    # dump every RRH on content 0 and leave the busy contents empty;
    # somebody must want out, and the witness must be an actual deviation
    coalitions = {c: frozenset() for c in range(inst.content_count)}
    coalitions[0] = frozenset(range(inst.n_rrh))
    part = RrhPartition(coalitions)
    stable, witness = check_nash_stable(part, inst)
    assert not stable
    rrh, target = witness
    assert prefers(rrh, target, part, inst)


def test_prune_keeps_every_served_user_covered(inst):
    part = hedonic_rrh_association(range(inst.content_count), inst)
    active, asleep = prune_sleep_rrhs(part, inst)
    assert active | asleep == frozenset(range(inst.n_rrh))
    assert not active & asleep
    for content, members in part.coalitions.items():
        kept = members & active
        assert coalition_eff_cap(kept, content, inst) == \
            coalition_eff_cap(members, content, inst)


def test_rru_utility_forms_agree(inst):
    # oracle: capacity and power in one expression instead of the sum of
    # per-content coalition values
    contents = frozenset(range(inst.content_count))
    part = hedonic_rrh_association(sorted(contents), inst, rru_count=1)
    served = [c for c in contents if part.members(c)]
    cap = sum(coalition_eff_cap(part.members(c), c, inst, 1) for c in served)
    n_members = sum(len(part.members(c)) for c in served)
    share = sum(inst.share_power(c) for c in served)
    direct = max(cap - inst.cost_coeff * (n_members * inst.power.rrh_active + share), 0.0)
    comp = rru_coalition_utility(contents, part, inst, 1)
    assert comp > 0
    assert comp == pytest.approx(direct, rel=1e-12)


def test_rru_utility_guards(inst):
    part = hedonic_rrh_association([0, 1], inst, rru_count=2)
    with pytest.raises(ParameterError):
        rru_coalition_utility(frozenset({0, 1, 2}), part, inst, 2)


def test_rru_utility_clamps_at_zero():
    # price power high enough and no coalition is worth running
    inst = random_instance(3, 4, 6, content_count=3, cost_coeff=1e6)
    part = hedonic_rrh_association(range(3), inst, rru_count=1)
    assert rru_coalition_utility(frozenset(range(3)), part, inst, 1) == 0.0


def test_shapley_exact_efficiency(inst):
    values = shapley_values(inst)
    assert values.shape == (inst.content_count, inst.n_rrh)
    for content in range(inst.content_count):
        grand = coalition_eff_cap(range(inst.n_rrh), content, inst)
        if grand == 0.0:
            assert np.all(values[content] == 0.0)
        else:
            assert values[content].sum() == pytest.approx(grand, rel=1e-12)


def test_shapley_exact_symmetry_for_twin_rrhs():
    # two RRHs at identical positions are interchangeable, so their
    # Shapley values must match exactly on every content
    base = random_instance(15, 4, 10, content_count=3)
    r = base.realization
    rrh_xy = r.rrh_xy.copy()
    rrh_xy[1] = rrh_xy[0]
    twin = ClusterInstance(
        realization=NetworkRealization(r.cluster_radius, rrh_xy, r.rrh_content,
                                       r.user_xy, r.user_content, r.seed),
        catalog=base.catalog, cache=base.cache, qos=base.qos, params=base.params,
        power=base.power, lambda_rrh=base.lambda_rrh, quantizer=base.quantizer)
    values = shapley_values(twin)
    assert np.array_equal(values[:, 0], values[:, 1])


@pytest.mark.parametrize("seed, n_rrh, n_users, cache_size", [
    (0, 1, 4, None), (1, 2, 7, None), (2, 5, 12, 2), (3, 8, 15, None), (4, 10, 25, 3),
])
def test_shapley_closed_form_matches_enumeration(seed, n_rrh, n_users, cache_size):
    inst = random_instance(seed, n_rrh, n_users, cache_size=cache_size)
    for rru_count in (None, 2):
        expect = shapley_by_enumeration(inst, rru_count)
        assert np.allclose(shapley_values(inst, rru_count), expect, rtol=1e-12, atol=0.0)


def test_shapley_efficiency_beyond_enumeration():
    # 30 RRHs: 2^30 coalitions, out of reach of enumeration
    inst = random_instance(11, 30, 60)
    values = shapley_values(inst)
    assert np.all(values >= 0.0)
    for content in range(inst.content_count):
        grand = coalition_eff_cap(range(inst.n_rrh), content, inst)
        assert values[content].sum() == pytest.approx(grand, rel=1e-12)


def test_shapley_sampled_agrees_with_exact(inst):
    exact = shapley_values(inst)
    samp, se = shapley_by_sampling(inst, None, permutations=10_000, seed=3)
    diff = np.abs(samp - exact)
    assert np.all(diff[se == 0.0] == 0.0)
    assert np.all(diff[se > 0.0] < 3.0 * se[se > 0.0])


def test_shapley_sampled_deterministic(inst):
    a, _ = shapley_by_sampling(inst, None, permutations=500, seed=3)
    b, _ = shapley_by_sampling(inst, None, permutations=500, seed=3)
    assert np.array_equal(a, b)
    c, _ = shapley_by_sampling(inst, None, permutations=500, seed=4)
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
    assert np.array_equal(a.shapley, shapley_values(inst, inst.content_count))
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
        blocks = list(res.rru_partition) + [frozenset()] * (n - res.rru_count)
        part = RrhPartition(dict(enumerate(blocks)))

        def payoff(content, coalition, _block):
            return shapley_conflict_payoff(content, coalition, res.shapley, inst)

        def value(coalition, _block):
            return games._conflict_utility(coalition, res.shapley, inst)

        for content in range(n):
            for target in range(n):
                assert not games._wants_switch(content, target, part, payoff, value)


def test_suboptimal_guards(inst):
    with pytest.raises(ConvergenceError):
        suboptimal_allocate(inst, max_sweeps=0)


def test_literal_power_accounting_charges_cache_and_catalog():
    inst = random_instance(5, 6, 12, cache_size=2)
    literal = replace(inst, literal_power_accounting=True)
    power = inst.power
    assert inst.paid_objects(frozenset({0, 3, 4})) == (1, 2)
    full = literal.cost_coeff * (literal.n_rrh * power.rrh_active
                                 + 2 * power.cache_per_object + 5 * power.backhaul)
    for block in (frozenset({0}), frozenset({3}), frozenset(range(5))):
        assert literal.paid_objects(block) == (2, 5)
        assert games._acquisition_cost(block, literal) == pytest.approx(full, rel=1e-12)
    assert games._acquisition_cost(frozenset({0}), inst) < full

    res = orthogonal_allocate(literal)
    etas = block_energy_efficiency(literal, res)
    for block, eta in zip(res.rru_partition, etas):
        members = res.rrh_partitions[block].members(min(block))
        cap = coalition_eff_cap(members, min(block), literal, res.rru_count)
        expected = eta_rru([cap], [len(members & res.active)], literal.n_rrh,
                           2, 5, power)
        assert eta == expected
    assert etas != block_energy_efficiency(inst, orthogonal_allocate(inst))


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
