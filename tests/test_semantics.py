import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpnets import (
    CPNet,
    CPTable,
    FlipSequence,
    StateBudgetExceeded,
    build_graph,
    closure,
    dominates,
    forward_sweep_optimum,
    improving_flips,
    incomparable,
    is_optimal,
    ordering_query,
    reach_set,
    replay,
)
from cpnets.semantics import movable, reverse_reach_set
from helpers import random_net, reference_witnesses


def two_independent_ones():
    """Two parentless features, both preferring 1: 01 and 10 are unordered."""
    return CPNet(
        features=("A", "B"),
        tables={
            "A": CPTable("A", (), {(): 1}),
            "B": CPTable("B", (), {(): 1}),
        },
    )

MR, MW, FR, FW = 0b00, 0b01, 0b10, 0b11


class TestDinner:
    """The two-feature dinner net orders outcomes 00 > 01 > 11 > 10."""

    def test_improving_flips_exact(self, dinner_net):
        assert improving_flips(dinner_net, MR) == []
        assert improving_flips(dinner_net, MW) == [("Wine", MR)]
        assert improving_flips(dinner_net, FR) == [("Main", MR), ("Wine", FW)]
        assert improving_flips(dinner_net, FW) == [("Main", MW)]

    def test_optimum(self, dinner_net):
        assert forward_sweep_optimum(dinner_net) == MR
        assert is_optimal(dinner_net, MR)
        for o in (MW, FR, FW):
            assert not is_optimal(dinner_net, o)

    def test_total_order(self, dinner_net):
        order = [MR, MW, FW, FR]
        for i, hi in enumerate(order):
            for lo in order[i + 1:]:
                assert dominates(dinner_net, hi, lo).holds
                assert not dominates(dinner_net, lo, hi).holds

    def test_witness_is_shortest(self, dinner_net):
        ans = dominates(dinner_net, MR, FR)
        assert ans.holds
        assert ans.witness == FlipSequence(
            start=FR, end=MR, steps=(("Main", 1, 0),)
        )
        ans = dominates(dinner_net, MR, FW)
        assert [s[0] for s in ans.witness.steps] == ["Main", "Wine"]
        assert replay(dinner_net, ans.witness)

    def test_reach_sets(self, dinner_net):
        assert reach_set(dinner_net, MR) == {MR}
        assert reach_set(dinner_net, FR) == {FR, MR, FW, MW}
        assert reverse_reach_set(dinner_net, FR) == {FR}
        assert reverse_reach_set(dinner_net, MR) == {FR, MR, FW, MW}

    def test_reverse_reach_set_mirrors_reach_set(self):
        rng = random.Random(31)
        for _ in range(20):
            net = random_net(rng, rng.randint(1, 6))
            size = 1 << net.n
            below = [reverse_reach_set(net, a) for a in range(size)]
            for b in range(size):
                assert reach_set(net, b) == {a for a in range(size) if b in below[a]}

    def test_visited_is_reported(self, dinner_net):
        ans = dominates(dinner_net, FR, MR)
        assert not ans.holds
        assert ans.visited == 1


class TestDominance:
    def test_irreflexive(self, dinner_net):
        for o in range(4):
            ans = dominates(dinner_net, o, o)
            assert not ans.holds and ans.witness is None

    def test_outcome_range_checked(self, dinner_net):
        with pytest.raises(ValueError):
            dominates(dinner_net, 4, 0)
        with pytest.raises(ValueError):
            improving_flips(dinner_net, -1)

    def test_budget_exceeded(self):
        # Find a net where the optimum is reachable from some outcome but
        # not in one flip; a budget of 1 must then trip before the answer.
        rng = random.Random(3)
        for _ in range(40):
            net = random_net(rng, 8)
            target = forward_sweep_optimum(net)
            worst = target ^ ((1 << 8) - 1)
            if len(reach_set(net, worst)) < 6:
                continue
            if target in {s for _, s in improving_flips(net, worst)}:
                continue
            with pytest.raises(StateBudgetExceeded) as info:
                dominates(net, target, worst, max_states=1)
            assert info.value.budget == 1
            assert info.value.visited == 2
            return
        pytest.fail("no test net with a deep enough chain")

    def test_incomparable_requires_distinct(self, dinner_net):
        with pytest.raises(ValueError):
            incomparable(dinner_net, MR, MR)

    def test_incomparable_pair(self):
        net = two_independent_ones()
        assert incomparable(net, 0b01, 0b10)
        assert not incomparable(net, 0b11, 0b01)

    def test_ordering_query(self, dinner_net):
        assert ordering_query(dinner_net, MR, MW)
        assert not ordering_query(dinner_net, MW, MR)
        # An incomparable pair can be ranked either way.
        net = two_independent_ones()
        assert ordering_query(net, 0b01, 0b10)
        assert ordering_query(net, 0b10, 0b01)


class TestPrunedSearch:
    def test_ordering_test_needs_all_ancestors(self):
        """Chain X1 -> X0 -> X2. X2 differs between 110 and 101 while its
        parent X0 agrees and 110 holds X2's preferred value, yet 101
        dominates 110 by flipping X0 away and back: a test that looked at
        parents only would refute this pair."""
        net = CPNet(
            features=("X0", "X1", "X2"),
            tables={
                "X1": CPTable("X1", (), {(): 0}),
                "X0": CPTable("X0", ("X1",), {(0,): 1, (1,): 0}),
                "X2": CPTable("X2", ("X0",), {(0,): 1, (1,): 0}),
            },
        )
        ans = dominates(net, 0b101, 0b110)
        assert ans.holds
        assert ans.witness.steps == (
            ("X0", 1, 0), ("X1", 1, 0), ("X2", 0, 1), ("X0", 0, 1),
        )
        assert replay(net, ans.witness)
        assert not dominates(net, 0b110, 0b101).holds

    def test_answers_and_witnesses_match_unpruned_search(self):
        """Every ordered pair of random nets, parents drawn along shuffled
        orders: answers agree with the oracle closure and witnesses with a
        plain breadth-first search over the oracle's arcs."""
        rng = random.Random(37)
        for n in (1, 2, 3, 4, 5, 5, 6, 6, 7, 7, 8, 8):
            net = random_net(rng, n, shuffle=True)
            graph = build_graph(net)
            clo = closure(graph)
            for alpha in range(1 << n):
                witnesses = reference_witnesses(net, graph, alpha)
                for beta in range(1 << n):
                    ans = dominates(net, beta, alpha)
                    assert ans.holds == clo.dominates(beta, alpha)
                    assert ans.witness == witnesses.get(beta)

    def test_refuted_start_visits_one_state(self, dinner_net):
        # Main differs and has no ancestors, and 01 already holds meat, so
        # the search ends before expanding 01's improving flip to 00.
        ans = dominates(dinner_net, FW, MW)
        assert not ans.holds and ans.visited == 1

    def test_movable_covers_every_reached_flip(self):
        rng = random.Random(41)
        for _ in range(30):
            net = random_net(rng, rng.randint(1, 7), shuffle=True)
            for alpha in range(1 << net.n):
                flipped = 0
                for s in reach_set(net, alpha):
                    flipped |= s ^ alpha
                assert flipped & ~movable(net, alpha) == 0


class TestReplay:
    def test_rejects_tampered_steps(self, dinner_net):
        ans = dominates(dinner_net, MR, FW)
        seq = ans.witness
        assert replay(dinner_net, seq)
        wrong_end = FlipSequence(seq.start, seq.end ^ 1, seq.steps)
        assert not replay(dinner_net, wrong_end)
        flipped = FlipSequence(
            seq.start, seq.end, tuple(reversed(seq.steps))
        )
        assert not replay(dinner_net, flipped)
        bad_name = FlipSequence(
            seq.start, seq.end, (("Ghost", 1, 0),) + seq.steps[1:]
        )
        assert not replay(dinner_net, bad_name)

    def test_rejects_non_improving_step(self, dinner_net):
        seq = FlipSequence(start=MR, end=FR, steps=(("Main", 0, 1),))
        assert not replay(dinner_net, seq)


class TestRandomNets:
    def test_optimum_is_unique_sink(self):
        rng = random.Random(17)
        for _ in range(40):
            net = random_net(rng, rng.randint(1, 8))
            opt = forward_sweep_optimum(net)
            assert is_optimal(net, opt)
            sinks = [
                o for o in range(1 << net.n) if not improving_flips(net, o)
            ]
            assert sinks == [opt]

    def test_witnesses_replay(self):
        rng = random.Random(29)
        for _ in range(30):
            net = random_net(rng, rng.randint(2, 7))
            size = 1 << net.n
            alpha, beta = rng.randrange(size), rng.randrange(size)
            ans = dominates(net, beta, alpha)
            if ans.holds:
                assert replay(net, ans.witness)
                assert ans.witness.start == alpha
                assert ans.witness.end == beta

    def test_flips_match_oracle_arcs(self):
        rng = random.Random(31)
        for _ in range(25):
            net = random_net(rng, rng.randint(1, 6))
            graph = build_graph(net)
            for o in range(1 << net.n):
                assert graph.arcs[o] == [s for _, s in improving_flips(net, o)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=2, max_value=5),
)
def test_dominance_agrees_with_closure(seed, n):
    rng = random.Random(seed)
    net = random_net(rng, n)
    clo = closure(build_graph(net))
    size = 1 << n
    alpha = rng.randrange(size)
    beta = rng.randrange(size)
    engine = dominates(net, beta, alpha).holds
    assert engine == clo.dominates(beta, alpha)
