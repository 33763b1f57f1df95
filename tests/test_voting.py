import random

import pytest

from cpnets import (
    CPTable,
    CnfFormula,
    InstanceTooLarge,
    MCPNet,
    StateBudgetExceeded,
    agent_partition,
    build_graph,
    closure,
    dominates,
    exists_majority_optimal,
    exists_majority_optimum,
    exists_pareto_optimal,
    exists_pareto_optimum,
    forward_sweep_optimum,
    is_majority_optimal,
    is_majority_optimum,
    is_pareto_optimal,
    is_pareto_optimum,
    m_ipo,
    majority_dominates,
    net_from_tables,
    pareto_dominates,
    value_at,
)
from cpnets import voting
from helpers import majority_dominators, random_net, random_profile

MR, MW, FR, FW = 0b00, 0b01, 0b10, 0b11


class TestDinnerProfile:
    """Frozen facts for the three-diner profile.

    Individual orders, best first:
        agent 0: 00 01 11 10, agent 1: 01 00 10 11, agent 2: 00 10 11 01.
    """

    def test_individual_optima(self, dinner_profile):
        assert [
            forward_sweep_optimum(a) for a in dinner_profile.agents
        ] == [MR, MW, MR]

    def test_pareto_dominance(self, dinner_profile):
        assert pareto_dominates(dinner_profile, MR, FR)
        assert not pareto_dominates(dinner_profile, MW, MR)
        assert not pareto_dominates(dinner_profile, MR, MW)
        assert not pareto_dominates(dinner_profile, MR, MR)

    def test_pareto_optimal_set(self, dinner_profile):
        flags = [is_pareto_optimal(dinner_profile, o) for o in range(4)]
        assert flags == [True, True, False, False]

    def test_exists_pareto_optimal(self, dinner_profile):
        found, witness = exists_pareto_optimal(dinner_profile)
        assert found
        assert witness == MR
        assert is_pareto_optimal(dinner_profile, witness)

    def test_no_pareto_optimum(self, dinner_profile):
        assert exists_pareto_optimum(dinner_profile) == (False, None)
        assert not is_pareto_optimum(dinner_profile, MR)

    def test_majority_optimum(self, dinner_profile):
        assert is_majority_optimum(dinner_profile, MR)
        assert exists_majority_optimum(dinner_profile) == (True, MR)
        assert exists_majority_optimal(dinner_profile) == (True, MR)
        flags = [is_majority_optimal(dinner_profile, o) for o in range(4)]
        assert flags == [True, False, False, False]

    def test_agent_partition(self, dinner_profile):
        part = agent_partition(dinner_profile, MR, FR)
        assert part.prefers == {0, 1, 2}
        assert part.opposes == frozenset()
        assert part.incomparables == frozenset()
        part = agent_partition(dinner_profile, MR, MW)
        assert part.prefers == {0, 2}
        assert part.opposes == {1}
        part = agent_partition(dinner_profile, MR, MR)
        assert part.incomparables == {0, 1, 2}
        assert part.prefers == part.opposes == frozenset()


class TestNoWinProfile:
    def test_majority_beats_pareto(self, nowin_profile):
        assert majority_dominates(nowin_profile, FR, MR)
        assert not pareto_dominates(nowin_profile, FR, MR)

    def test_no_majority_optimal_outcome(self, nowin_profile):
        assert exists_majority_optimal(nowin_profile) == (False, None)
        assert exists_majority_optimum(nowin_profile) == (False, None)
        for o in range(4):
            assert not is_majority_optimal(nowin_profile, o)
            assert not is_majority_optimum(nowin_profile, o)

    def test_pareto_optimal_everywhere(self, nowin_profile):
        # The four orders disagree so thoroughly that nothing is Pareto
        # dominated.
        for o in range(4):
            assert is_pareto_optimal(nowin_profile, o)

    @pytest.mark.parametrize("outcome", [9, -1])
    def test_out_of_range_outcomes_are_refused(self, nowin_profile, outcome):
        # No shortcut (equal outcomes, comparing optima) may answer before
        # the range check.
        for query in (pareto_dominates, majority_dominates, agent_partition):
            with pytest.raises(ValueError, match="out of range"):
                query(nowin_profile, outcome, outcome)
        with pytest.raises(ValueError, match="out of range"):
            is_pareto_optimum(nowin_profile, outcome)


class TestParetoGadgetProfiles:
    def test_satisfiable_formula_breaks_optimality(self):
        gadget = m_ipo(CnfFormula(num_vars=1, clauses=((1,),)))
        assert not is_pareto_optimal(gadget.profile, 0)

    def test_unsatisfiable_formula_keeps_optimality(self):
        gadget = m_ipo(CnfFormula(num_vars=1, clauses=((1,), (-1,))))
        assert is_pareto_optimal(gadget.profile, 0)

    def test_budget_is_honored(self):
        gadget = m_ipo(CnfFormula(num_vars=1, clauses=((1,), (-1,))))
        # With two agents a majority is unanimity, so both queries search.
        for query in (is_pareto_optimal, is_majority_optimal):
            for budget in (1, 10):
                with pytest.raises(StateBudgetExceeded) as info:
                    query(gadget.profile, 0, max_states=budget)
                assert info.value.budget == budget
                assert info.value.visited == budget + 1


class TestDefinitions:
    def test_pareto_optimal_matches_definition(self, monkeypatch):
        """Unshuffled orders, so every dependency component is one feature
        and the flip vote must answer without a search."""

        def no_search(*args, **kwargs):
            raise AssertionError("searched an O-legal profile")

        monkeypatch.setattr(voting, "expand", no_search)
        rng = random.Random(43)
        for _ in range(25):
            profile = random_profile(rng, rng.randint(2, 6), rng.randint(1, 3))
            assert len(profile.components) == profile.n
            size = 1 << profile.n
            for alpha in range(size):
                expected = not any(
                    pareto_dominates(profile, beta, alpha)
                    for beta in range(size)
                )
                assert is_pareto_optimal(profile, alpha) == expected

    def test_pareto_optimal_matches_closure_intersection(self):
        """Shuffled orders, so agents need not share a topological order
        and the movable-feature cut differs from agent to agent."""
        check_pareto_against_closures(random.Random(73), 40, shuffle=True)

    def test_nearly_o_legal_pareto_matches_closure_intersection(self):
        """One adjacent pair swapped per agent: small components beside
        singletons, so the search runs inside a component."""
        profiles = check_pareto_against_closures(random.Random(75), 60, swap=True)
        assert any(has_small_tangle(p) for p in profiles)

    def test_majority_dominates_matches_vote_count(self):
        rng = random.Random(47)
        for _ in range(25):
            profile = random_profile(rng, rng.randint(2, 5), rng.randint(1, 5))
            size = 1 << profile.n
            alpha, beta = rng.randrange(size), rng.randrange(size)
            votes = sum(
                dominates(a, beta, alpha).holds for a in profile.agents
            )
            expected = alpha != beta and votes > profile.m // 2
            assert majority_dominates(profile, beta, alpha) == expected

    def test_pareto_implies_majority(self):
        rng = random.Random(53)
        for _ in range(40):
            profile = random_profile(rng, rng.randint(2, 5), rng.randint(1, 4))
            size = 1 << profile.n
            alpha, beta = rng.randrange(size), rng.randrange(size)
            if pareto_dominates(profile, beta, alpha):
                assert majority_dominates(profile, beta, alpha)

    def test_single_agent_majority_is_dominance(self):
        rng = random.Random(59)
        for _ in range(20):
            net = random_net(rng, rng.randint(2, 5))
            profile = MCPNet(agents=(net,))
            size = 1 << net.n
            alpha, beta = rng.randrange(size), rng.randrange(size)
            assert majority_dominates(profile, beta, alpha) == (
                alpha != beta and dominates(net, beta, alpha).holds
            )

    def test_two_agent_majority_is_pareto(self):
        rng = random.Random(61)
        for _ in range(20):
            profile = random_profile(rng, rng.randint(2, 4), 2)
            size = 1 << profile.n
            for alpha in range(size):
                for beta in range(size):
                    assert majority_dominates(
                        profile, beta, alpha
                    ) == pareto_dominates(profile, beta, alpha)

    def test_optimum_implies_optimal(self):
        rng = random.Random(67)
        for _ in range(15):
            net = random_net(rng, rng.randint(2, 6))
            profile = MCPNet(agents=(net,) * rng.randint(1, 4))
            opt = forward_sweep_optimum(net)
            assert exists_pareto_optimum(profile) == (True, opt)
            assert is_pareto_optimum(profile, opt)
            assert is_pareto_optimal(profile, opt)
            assert is_majority_optimum(profile, opt)
            assert is_majority_optimal(profile, opt)
            assert exists_majority_optimum(profile) == (True, opt)

    def test_partition_covers_agents(self):
        rng = random.Random(71)
        for _ in range(30):
            profile = random_profile(rng, rng.randint(2, 5), rng.randint(1, 5))
            size = 1 << profile.n
            alpha, beta = rng.randrange(size), rng.randrange(size)
            part = agent_partition(profile, alpha, beta)
            everyone = part.prefers | part.opposes | part.incomparables
            assert everyone == set(range(profile.m))
            assert not part.prefers & part.opposes
            assert not part.prefers & part.incomparables
            assert not part.opposes & part.incomparables


def has_small_tangle(profile):
    """A component of 2 to 4 features beside at least one other."""
    sizes = [c.bit_count() for c in profile.components]
    return len(sizes) > 1 and 2 <= max(sizes) <= 4


def check_pareto_against_closures(rng, count, **family):
    profiles = []
    for _ in range(count):
        profile = random_profile(rng, rng.randint(1, 7), rng.randint(2, 5), **family)
        closures = [closure(build_graph(net)) for net in profile.agents]
        for alpha in range(1 << profile.n):
            common = -1
            for clo in closures:
                common &= clo.reach[alpha]
            assert is_pareto_optimal(profile, alpha) == (common == 0)
        profiles.append(profile)
    return profiles


def check_majority_queries_against_oracle(rng, **family):
    profiles = []
    for k in range(36):
        n, m = rng.randint(1, 7), 1 + k % 6
        profile = random_profile(rng, n, m, **family)
        if k % 2:
            # A majority of identical agents plants a majority optimum.
            base = profile.agents[0]
            agents = (base,) * (m // 2 + 1) + profile.agents[m // 2 + 1:]
            profile = MCPNet(agents=agents)
        beaten_by = majority_dominators(profile)
        size = 1 << n
        optimal = [a for a in range(size) if beaten_by[a] == 0]
        optimum = [
            a
            for a in range(size)
            if all((beaten_by[b] >> a) & 1 for b in range(size) if b != a)
        ]
        for a in range(size):
            assert is_majority_optimal(profile, a) == (a in optimal)
            assert is_majority_optimum(profile, a) == (a in optimum)
        for found, exists in (
            (optimal, exists_majority_optimal),
            (optimum, exists_majority_optimum),
        ):
            expected = (True, found[0]) if found else (False, None)
            assert exists(profile) == expected
        profiles.append(profile)
    return profiles


class TestMajorityModes:
    def test_all_four_queries_match_oracle_vote_count(self):
        # Agents without a shared topological order, so that the flip
        # pre-test alone cannot settle is_majority_optimal.
        check_majority_queries_against_oracle(random.Random(73), shuffle=True)

    def test_o_legal_queries_match_oracle_vote_count(self):
        # Agents sharing the canonical order: every component is one
        # feature, so the pre-test and the sequential vote decide.
        check_majority_queries_against_oracle(random.Random(71))

    def test_nearly_o_legal_queries_match_oracle_vote_count(self):
        # One adjacent pair swapped per agent: small components beside
        # singletons, so the component searches and scans decide.
        profiles = check_majority_queries_against_oracle(random.Random(77), swap=True)
        assert any(has_small_tangle(p) for p in profiles)

    def test_majority_optimum_vote_count_past_size_cutoff(self):
        # Near misses: every one-flip neighbour loses to alpha by majority,
        # so the flip pre-test passes, and the votes over all other outcomes
        # add up to enough to pass the set-size cutoff, yet some outcome
        # gets m // 2 votes or fewer. Only the per-outcome count rejects
        # these.
        rng = random.Random(89)
        near_misses = 0
        for k in range(200):
            # Near misses turn up at odd m far more often than at even m.
            n, m = rng.randint(2, 5), 3 + 2 * (k % 2)
            profile = random_profile(rng, n, m, shuffle=k % 4 >= 2)
            closures = [closure(build_graph(net)) for net in profile.agents]
            size, t = 1 << n, m // 2
            for a in range(size):
                votes = {
                    b: sum(c.dominates(a, b) for c in closures)
                    for b in range(size)
                    if b != a
                }
                optimum = all(v > t for v in votes.values())
                assert is_majority_optimum(profile, a) == optimum
                neighbours_lose = all(votes[a ^ (1 << j)] > t for j in range(n))
                missing = sum(m - v for v in votes.values())
                near_misses += (
                    not optimum
                    and neighbours_lose
                    and missing <= (m - t - 1) * (size - 1)
                )
        assert near_misses >= 10

    def test_search_decides_past_flip_pretest(self, pareto_paradox_profile):
        # At 00 agent 0 may only raise X and agent 1 only Y, so no single
        # flip wins a majority, yet each then raises the other feature and
        # both prefer 11. The third agent's optimum is 00.
        third = net_from_tables([CPTable("X", (), {(): 0}), CPTable("Y", (), {(): 0})])
        profile = MCPNet(agents=pareto_paradox_profile.agents + (third,))
        assert majority_dominators(profile)[0b00] == 1 << 0b11
        assert not is_majority_optimal(profile, 0b00)

    def test_witness_is_lowest_in_canonical_order(self):
        rng = random.Random(79)
        for _ in range(40):
            profile = random_profile(rng, rng.randint(2, 4), rng.randint(1, 3))
            size = 1 << profile.n
            ok, witness = exists_majority_optimal(profile)
            qualifying = [
                o for o in range(size) if is_majority_optimal(profile, o)
            ]
            if ok:
                assert witness == qualifying[0]
            else:
                assert qualifying == []

    def test_witness_can_sit_above_zero(self):
        rng = random.Random(79)
        net = random_net(rng, 1)
        while forward_sweep_optimum(net) == 0:
            net = random_net(rng, 1)
        profile = MCPNet(agents=(net,))
        assert exists_majority_optimal(profile) == (True, 1)
        assert exists_majority_optimum(profile) == (True, 1)

    def test_tie_on_a_lone_feature_leaves_no_optimum(self):
        # The profile is one one-feature component, so no final check runs:
        # the vote itself must see that neither value wins a majority.
        agents = tuple(net_from_tables([CPTable("X", (), {(): v})]) for v in (0, 1))
        profile = MCPNet(agents=agents)
        assert majority_dominators(profile) == [0, 0]
        assert exists_majority_optimum(profile) == (False, None)
        assert exists_majority_optimal(profile) == (True, 0)

    def test_size_gate(self):
        rng = random.Random(89)
        wide = random_profile(rng, 25, 2)
        with pytest.raises(InstanceTooLarge):
            exists_majority_optimal(wide)
        # exists_majority_optimum scans each component's assignments, so
        # only a component past the bound is refused.
        tangled = random_profile(random.Random(91), 25, 2, shuffle=True)
        for profile in (wide, tangled):
            assert max(c.bit_count() for c in profile.components) <= 24
            found, winner = exists_majority_optimum(profile)
            assert found == (winner is not None)
            if found:
                assert is_majority_optimum(profile, winner)
        assert len(wide.components) == 25 > len(tangled.components) > 1
        # Two agents chaining 25 features in opposite directions: one
        # component of all 25.
        names = [f"X{i}" for i in range(25)]

        def chain(order):
            tables = {order[0]: CPTable(order[0], (), {(): 1})}
            for parent, x in zip(order, order[1:]):
                tables[x] = CPTable(x, (parent,), {(0,): 1, (1,): 0})
            return net_from_tables([tables[x] for x in names])

        cycle = MCPNet(agents=(chain(names), chain(names[::-1])))
        assert cycle.components == ((1 << 25) - 1,)
        with pytest.raises(InstanceTooLarge):
            exists_majority_optimum(cycle)
        # is_* enumerate nothing, so 30 features are answered directly.
        n, shared = 30, rng.randrange(1 << 30)
        agents = []
        for net in (random_net(rng, n) for _ in range(3)):
            tables = []
            for j, name in enumerate(net.features):
                table = net.tables[name]
                cond = tuple(value_at(shared, n, net.index(p)) for p in table.parents)
                rows = {**table.rows, cond: value_at(shared, n, j)}
                tables.append(CPTable(name, table.parents, rows))
            agents.append(net_from_tables(tables))
        profile = MCPNet(agents=agents)
        assert all(forward_sweep_optimum(net) == shared for net in agents)
        assert is_majority_optimal(profile, shared)
        assert not is_majority_optimal(profile, shared ^ 1)
        assert not is_majority_optimum(profile, shared ^ 1)

    def test_paradox_needs_the_o_legality_check(self, paradox_profile):
        profile = paradox_profile
        # Agent 1 puts X1 first, agent 2 puts X2 first, so the two features
        # form one component, which is scanned as a whole.
        assert [net.topo_order for net in profile.agents[1:]] == [(0, 1), (1, 0)]
        assert profile.components == (0b11,)
        # A vote along agent 0's order raises X1 (agents 1 and 2) and then
        # X2 (agents 0 and 2), yet 01 beats every other outcome.
        winner = 0
        for j in profile.agents[0].topo_order:
            raise_votes = sum(
                winner & net.rules[j][0] in net.rules[j][2] for net in profile.agents
            )
            if raise_votes > profile.m // 2:
                winner |= profile.agents[0].rules[j][1]
        assert winner == 0b11
        beaten_by = majority_dominators(profile)
        assert [(row >> 0b01) & 1 for row in beaten_by] == [1, 0, 1, 1]
        assert is_majority_optimum(profile, 0b01)
        assert exists_majority_optimum(profile) == (True, 0b01)
        assert exists_majority_optimal(profile) == (True, 0b01)

    def test_unanimous_flip_vote_needs_the_component_search(self, pareto_paradox_profile):
        # The smallest profile whose two features form one component: no
        # flip at 00 is unanimous, yet both agents prefer 11, so only the
        # search inside the component refutes.
        profile = pareto_paradox_profile
        assert profile.components == (0b11,)
        assert max(voting._flip_votes(profile, 0b00)[0]) == 1
        assert pareto_dominates(profile, 0b11, 0b00)
        assert not is_pareto_optimal(profile, 0b00)
        assert not is_majority_optimal(profile, 0b00)

    def test_agents_over_differing_features_are_refused(self):
        # Agents over 3 and 5 features: no query may answer for them.
        rng = random.Random(101)
        with pytest.raises(ValueError, match="differs from agent 0"):
            MCPNet(agents=(random_net(rng, 3), random_net(rng, 5)))

    def test_outcome_range_checked(self, dinner_profile):
        with pytest.raises(ValueError):
            is_pareto_optimal(dinner_profile, 4)
        with pytest.raises(ValueError):
            is_majority_optimal(dinner_profile, -1)
        with pytest.raises(ValueError):
            is_majority_optimum(dinner_profile, 4)
