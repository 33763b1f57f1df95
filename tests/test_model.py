import random
from dataclasses import FrozenInstanceError
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpnets import (
    CPNet,
    CPTable,
    CnfFormula,
    CycleError,
    MCPNet,
    MAX_PARENTS,
    feature_mask,
    indegree,
    m_ipo,
    m_nowin,
    net_from_json,
    net_from_tables,
    net_to_json,
    outcome_str,
    parse_outcome,
    profile_from_json,
    profile_to_json,
    validate_net,
    validate_profile,
    value_at,
)
from helpers import random_net, random_profile


def make_net(tables):
    return CPNet(
        features=tuple(tables),
        tables={
            name: CPTable(feature=name, parents=tuple(ps), rows=dict(rows))
            for name, (ps, rows) in tables.items()
        },
    )


class TestValidation:
    def test_dinner_fixture_is_valid(self, dinner_net):
        assert validate_net(dinner_net) == []

    def test_empty_net(self):
        net = CPNet(features=(), tables={})
        assert validate_net(net) == ["net has no features"]

    def test_duplicate_feature_name(self):
        net = CPNet(
            features=("A", "A"),
            tables={"A": CPTable("A", (), {(): 0})},
        )
        assert any("duplicate feature" in p for p in validate_net(net))

    def test_duplicate_feature_reports_its_table_once(self):
        net = CPNet(("A", "A"), {"A": CPTable("A", ("Z",), {(0,): 1, (1,): 0})})
        assert validate_net(net) == [
            "duplicate feature name 'A'",
            "'A' lists unknown parent 'Z'",
        ]

    def test_missing_table(self):
        net = CPNet(
            features=("A", "B"),
            tables={"A": CPTable("A", (), {(): 0})},
        )
        assert any("no CP table" in p for p in validate_net(net))

    def test_table_for_unknown_feature(self):
        net = CPNet(
            features=("A",),
            tables={
                "A": CPTable("A", (), {(): 0}),
                "Ghost": CPTable("Ghost", (), {(): 1}),
            },
        )
        assert any("unknown feature" in p for p in validate_net(net))

    def test_table_name_mismatch(self):
        net = CPNet(
            features=("A",),
            tables={"A": CPTable("B", (), {(): 0})},
        )
        assert any("describes" in p for p in validate_net(net))

    def test_unknown_parent(self):
        net = make_net({"A": (("Z",), {(0,): 0, (1,): 1})})
        assert any("unknown parent" in p for p in validate_net(net))

    def test_duplicate_parent(self):
        net = make_net({
            "A": ((), {(): 0}),
            "B": (("A", "A"), {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 1}),
        })
        assert any("duplicate parent" in p for p in validate_net(net))

    def test_parent_limit(self):
        names = tuple(f"P{i}" for i in range(MAX_PARENTS + 1))
        tables = {name: CPTable(name, (), {(): 0}) for name in names}
        tables["Last"] = CPTable("Last", names, {})
        net = CPNet(features=names + ("Last",), tables=tables)
        assert any("limit" in p for p in validate_net(net))

    def test_wrong_row_count(self):
        net = make_net({
            "A": ((), {(): 0}),
            "B": (("A",), {(0,): 0}),
        })
        assert any("rows, needs" in p for p in validate_net(net))

    # No net below can come out of net_from_json: its JSON would not read
    # back, so validate_net must name the fault instead of accepting it.
    @pytest.mark.parametrize(
        "parents, rows, found",
        [
            (("A",), {(0, 1): 0, (1,): 1}, "(0, 1)"),
            (("A",), {(0,): 0, (True,): 1.0}, "(True,)"),
            ((), {0: 1}, "0"),
            ((), {"": 1}, "''"),
        ],
        ids=["wrong-width", "bool-value", "int-key", "empty-string-key"],
    )
    def test_malformed_condition(self, parents, rows, found):
        net = make_net({"A": ((), {(): 0}), "B": (parents, rows)})
        assert validate_net(net) == [f"'B' table has malformed condition {found}"]

    @pytest.mark.parametrize("pref", [2, True, 1.0], ids=["two", "bool", "float"])
    def test_bad_preference_value(self, pref):
        net = make_net({"A": ((), {(): pref})})
        assert validate_net(net) == [
            f"'A' table prefers {pref!r} (must be the int 0 or 1)"
        ]

    def test_feature_name_must_be_a_string(self):
        net = net_from_tables([CPTable(3, (), {(): 1})])
        assert validate_net(net) == ["feature name must be a string, got 3"]
        # An unhashable name is reported before anything hashes the names.
        net = CPNet(features=("A", ["B"], 4), tables={})
        assert validate_net(net) == [
            "feature name must be a string, got ['B']",
            "feature name must be a string, got 4",
        ]

    def test_unhashable_parent_is_unknown(self):
        net = make_net({"A": (([1],), {(0,): 0, (1,): 1})})
        assert validate_net(net) == ["'A' lists unknown parent [1]"]

    def test_cycle_is_reported(self):
        net = make_net({
            "A": (("B",), {(0,): 0, (1,): 1}),
            "B": (("A",), {(0,): 0, (1,): 1}),
        })
        assert any("cycle" in p for p in validate_net(net))

    def test_self_loop_is_a_cycle(self):
        net = make_net({"A": (("A",), {(0,): 0, (1,): 1})})
        assert any("cycle" in p for p in validate_net(net))

    def test_profile_violations_name_their_agent(self):
        good = make_net({"A": ((), {(): 0})})
        cyclic = make_net({"A": (("A",), {(0,): 0, (1,): 1})})
        assert validate_profile(MCPNet(agents=(good, cyclic))) == [
            "agent 1: dependency cycle through features ['A']"
        ]

    def test_random_nets_are_valid(self):
        rng = random.Random(7)
        for _ in range(50):
            assert validate_net(random_net(rng, rng.randint(1, 8))) == []


def names_in_order(net):
    return [net.features[j] for j in net.topo_order]


class TestTopologicalOrder:
    def test_dinner(self, dinner_net):
        assert names_in_order(dinner_net) == ["Main", "Wine"]

    def test_ties_follow_canonical_order(self):
        net = make_net({
            "C": ((), {(): 0}),
            "A": ((), {(): 0}),
            "B": ((), {(): 0}),
        })
        assert names_in_order(net) == ["C", "A", "B"]

    def test_parents_first(self):
        net = make_net({
            "Child": (("Root",), {(0,): 0, (1,): 1}),
            "Root": ((), {(): 0}),
        })
        assert names_in_order(net) == ["Root", "Child"]

    def test_cycle_raises(self):
        net = make_net({
            "A": (("B",), {(0,): 0, (1,): 1}),
            "B": (("A",), {(0,): 0, (1,): 1}),
        })
        with pytest.raises(CycleError):
            net.topo_order

    def test_random_nets_respect_parents(self):
        rng = random.Random(11)
        for _ in range(30):
            net = random_net(rng, rng.randint(1, 10))
            order = names_in_order(net)
            pos = {name: i for i, name in enumerate(order)}
            for name in net.features:
                for p in net.parents(name):
                    assert pos[p] < pos[name]

    def test_order_is_cached_indices(self):
        net = make_net({
            "Child": (("Root",), {(0,): 0, (1,): 1}),
            "Root": ((), {(): 0}),
        })
        assert net.topo_order == (1, 0)
        assert net.topo_order is net.topo_order

    def test_ancestor_masks(self):
        # Chain A -> B -> C plus a free D: C's ancestors are A and B.
        net = make_net({
            "A": ((), {(): 0}),
            "B": (("A",), {(0,): 0, (1,): 1}),
            "C": (("B",), {(0,): 0, (1,): 1}),
            "D": ((), {(): 1}),
        })
        assert net.ancestors == (0, net.mask("A"), net.mask("A", "B"), 0)
        rng = random.Random(13)
        for _ in range(30):
            net = random_net(rng, rng.randint(1, 10), shuffle=True)
            for j, name in enumerate(net.features):
                above, todo = set(), list(net.parents(name))
                while todo:
                    p = todo.pop()
                    if p not in above:
                        above.add(p)
                        todo.extend(net.parents(p))
                assert net.ancestors[j] == net.mask(*above)


def topological_in_every_agent(profile, order):
    pos = {j: k for k, j in enumerate(order)}
    return all(
        pos[net.index(p)] < pos[j]
        for net in profile.agents
        for j, name in enumerate(net.features)
        for p in net.parents(name)
    )


def members(profile, comp):
    return [j for j in range(profile.n) if comp & feature_mask(profile.n, j)]


def union_reach(profile):
    """reach[i]: the features with a path from i in the union of the
    agents' dependency graphs, i itself included, by plain search."""
    children = {j: set() for j in range(profile.n)}
    for net in profile.agents:
        for j, name in enumerate(net.features):
            for p in net.parents(name):
                children[net.index(p)].add(j)
    reach = []
    for i in range(profile.n):
        seen, todo = {i}, [i]
        while todo:
            for c in children[todo.pop()] - seen:
                seen.add(c)
                todo.append(c)
        reach.append(seen)
    return reach


class TestComponents:
    def test_unshuffled_random_profiles_are_all_singletons(self):
        rng = random.Random(17)
        for _ in range(30):
            profile = random_profile(rng, rng.randint(1, 10), rng.randint(1, 5))
            order = [members(profile, c) for c in profile.components]
            assert all(len(c) == 1 for c in order)
            assert topological_in_every_agent(profile, [c[0] for c in order])

    def test_profiles_ordering_features_both_ways_have_a_larger_one(
        self, dinner_profile
    ):
        phi = CnfFormula(num_vars=1, clauses=((1,),))
        for profile in (dinner_profile, m_nowin(), m_ipo(phi).profile):
            assert max(c.bit_count() for c in profile.components) > 1

    def test_edge_in_one_agent_only(self):
        free = {"A": ((), {(): 0}), "B": ((), {(): 1})}
        for child, parent, order in (("B", "A", (0, 1)), ("A", "B", (1, 0))):
            edge = {**free, child: ((parent,), {(0,): 0, (1,): 1})}
            profile = MCPNet(agents=(make_net(edge), make_net(free)))
            assert profile.components == tuple(
                feature_mask(2, j) for j in order
            )
            assert profile.components is profile.components

    def test_mutual_reachability_classes_listed_parents_first(self):
        rng = random.Random(23)
        sizes = set()
        for k in range(150):
            profile = random_profile(
                rng, rng.randint(1, 9), rng.randint(1, 4),
                shuffle=k % 3 == 1, swap=k % 3 == 2,
            )
            comps = [members(profile, c) for c in profile.components]
            assert sorted(j for c in comps for j in c) == list(range(profile.n))
            reach = union_reach(profile)
            for c in comps:
                for i in c:
                    assert set(c) == {j for j in reach[i] if i in reach[j]}
            where = {j: k for k, c in enumerate(comps) for j in c}
            for net in profile.agents:
                for j, name in enumerate(net.features):
                    for p in net.parents(name):
                        assert where[net.index(p)] <= where[j]
            sizes.update(len(c) for c in comps)
        assert {1, 2, 3} <= sizes

    def test_singletons_exactly_when_some_order_fits_every_agent(self):
        # Shuffled agents need not share an order; check against every
        # permutation of the features.
        rng = random.Random(19)
        seen = set()
        for _ in range(200):
            n = rng.randint(1, 4)
            profile = random_profile(rng, n, rng.randint(1, 4), shuffle=True)
            comps = profile.components
            fits = any(
                topological_in_every_agent(profile, p)
                for p in permutations(range(n))
            )
            assert (len(comps) == n) == fits
            if fits:
                order = [members(profile, c)[0] for c in comps]
                assert topological_in_every_agent(profile, order)
            seen.add(fits)
        assert seen == {True, False}


class TestOutcomes:
    def test_parse_and_format_roundtrip(self):
        assert parse_outcome("0110", 4) == 6
        assert outcome_str(6, 4) == "0110"
        assert parse_outcome("00", 2) == 0
        assert outcome_str(0, 2) == "00"

    def test_parse_rejects_bad_input(self):
        with pytest.raises(ValueError):
            parse_outcome("01", 3)
        with pytest.raises(ValueError):
            parse_outcome("0a1", 3)

    def test_first_feature_is_high_bit(self):
        assert feature_mask(3, 0) == 0b100
        assert feature_mask(3, 2) == 0b001
        net = make_net({name: ((), {(): 0}) for name in "ABC"})
        assert net.mask("A") == 0b100
        assert net.mask("C", "A") == 0b101
        assert net.mask() == 0
        assert value_at(0b100, 3, 0) == 1
        assert value_at(0b100, 3, 2) == 0

    def test_indegree_is_max_parent_count(self, dinner_net):
        assert indegree(dinner_net) == 1
        net = make_net({"A": ((), {(): 0})})
        assert indegree(net) == 0


class TestJson:
    def test_dinner_roundtrip(self, dinner_net):
        again = net_from_json(net_to_json(dinner_net))
        assert again == dinner_net

    def test_values_key_is_ignored_by_model(self, dinner_raw, dinner_net):
        assert net_from_json(dinner_raw) == dinner_net

    def test_rejects_non_object(self):
        with pytest.raises(ValueError):
            net_from_json([1, 2])

    @pytest.mark.parametrize(
        "parse, raw, message",
        [
            (net_from_json, {"features": "AB"}, "'features' must be a list"),
            (profile_from_json, [{"features": []}], "must be an object"),
            (profile_from_json, {"agents": {"0": {}}}, "'agents' must be a list"),
        ],
        ids=["net-features-string", "profile-list", "profile-agents-object"],
    )
    def test_rejects_wrong_containers(self, parse, raw, message):
        with pytest.raises(ValueError, match=message):
            parse(raw)

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            net_from_json({"features": [{"name": "A"}]})

    @pytest.mark.parametrize(
        "value", [0.5, 1.0, "1", True], ids=["half", "float", "string", "bool"]
    )
    def test_rejects_non_bit_prefer(self, value):
        raw = {"features": [{"name": "A", "parents": [], "cpt": [{"cond": [], "prefer": value}]}]}
        with pytest.raises(ValueError):
            net_from_json(raw)

    @pytest.mark.parametrize(
        "value", [0.0, "0", False], ids=["float", "string", "bool"]
    )
    def test_rejects_non_bit_cond(self, value):
        raw = {
            "features": [
                {"name": "A", "parents": [], "cpt": [{"cond": [], "prefer": 0}]},
                {
                    "name": "B",
                    "parents": ["A"],
                    "cpt": [
                        {"cond": [value], "prefer": 0},
                        {"cond": [1], "prefer": 1},
                    ],
                },
            ]
        }
        with pytest.raises(ValueError):
            net_from_json(raw)

    def test_rejects_non_string_name(self):
        raw = {"features": [{"name": ["A"], "parents": [], "cpt": [{"cond": [], "prefer": 0}]}]}
        with pytest.raises(ValueError):
            net_from_json(raw)

    def test_rejects_string_parents(self):
        raw = {
            "features": [
                {"name": "A", "parents": [], "cpt": [{"cond": [], "prefer": 0}]},
                {"name": "B", "parents": [], "cpt": [{"cond": [], "prefer": 0}]},
                {
                    "name": "C",
                    "parents": "AB",
                    "cpt": [{"cond": [a, b], "prefer": 0} for a in (0, 1) for b in (0, 1)],
                },
            ]
        }
        with pytest.raises(ValueError):
            net_from_json(raw)

    def test_rejects_repeated_condition(self):
        raw = {
            "features": [
                {
                    "name": "A",
                    "parents": [],
                    "cpt": [
                        {"cond": [], "prefer": 0},
                        {"cond": [], "prefer": 1},
                    ],
                }
            ]
        }
        with pytest.raises(ValueError):
            net_from_json(raw)

    def test_profile_roundtrip(self, dinner_profile):
        again = profile_from_json(profile_to_json(dinner_profile))
        assert again == dinner_profile

    def test_profile_rejects_empty_agents(self):
        with pytest.raises(ValueError):
            profile_from_json({"agents": []})
        with pytest.raises(ValueError, match="no agents"):
            MCPNet(agents=())

    def test_random_roundtrips(self):
        rng = random.Random(23)
        for _ in range(40):
            net = random_net(rng, rng.randint(1, 9))
            assert net_from_json(net_to_json(net)) == net


@st.composite
def small_nets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=10**9))
    return random_net(random.Random(seed), n)


@settings(max_examples=60, deadline=None)
@given(small_nets())
def test_json_roundtrip_property(net):
    assert net_from_json(net_to_json(net)) == net


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_profile_universe_mismatch_is_flagged(seed):
    rng = random.Random(seed)
    good = random_profile(rng, 3, 2)
    assert validate_profile(good) == []
    other = random_net(rng, 3, ["Y1", "Y2", "Y3"])
    with pytest.raises(ValueError, match="differs from agent 0"):
        MCPNet(agents=(good.agents[0], other))


def test_nets_tables_and_profiles_are_frozen():
    rows = {(0,): 0, (1,): 1}
    tables = {"A": CPTable("A", (), {(): 1}), "B": CPTable("B", ("A",), rows)}
    net = CPNet(features=("A", "B"), tables=tables)
    profile = MCPNet(agents=(net,))
    before = net_to_json(net)
    with pytest.raises(TypeError):
        net.tables["A"] = CPTable("A", (), {(): 0})
    with pytest.raises(TypeError):
        net.tables["B"].rows[(0,)] = 1
    with pytest.raises(FrozenInstanceError):
        net.features = ("B", "A")
    with pytest.raises(FrozenInstanceError):
        profile.agents = ()
    tables["A"] = CPTable("A", (), {(): 0})
    rows[(0,)] = 1
    assert net_to_json(net) == before
