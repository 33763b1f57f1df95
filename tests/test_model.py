import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpnets import (
    CPNet,
    CPTable,
    CycleError,
    MCPNet,
    MAX_PARENTS,
    feature_mask,
    indegree,
    net_from_json,
    net_from_tables,
    net_to_json,
    outcome_str,
    parse_outcome,
    profile_from_json,
    profile_to_json,
    topological_order,
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

    def test_malformed_condition(self):
        net = make_net({
            "A": ((), {(): 0}),
            "B": (("A",), {(0, 1): 0, (1,): 1}),
        })
        assert any("malformed condition" in p for p in validate_net(net))

    def test_bad_preference_value(self):
        net = make_net({"A": ((), {(): 2})})
        assert any("must be 0 or 1" in p for p in validate_net(net))

    def test_cycle_is_reported(self):
        net = make_net({
            "A": (("B",), {(0,): 0, (1,): 1}),
            "B": (("A",), {(0,): 0, (1,): 1}),
        })
        assert any("cycle" in p for p in validate_net(net))

    def test_self_loop_is_a_cycle(self):
        net = make_net({"A": (("A",), {(0,): 0, (1,): 1})})
        assert any("cycle" in p for p in validate_net(net))

    def test_random_nets_are_valid(self):
        rng = random.Random(7)
        for _ in range(50):
            assert validate_net(random_net(rng, rng.randint(1, 8))) == []


class TestTopologicalOrder:
    def test_dinner(self, dinner_net):
        assert topological_order(dinner_net) == ["Main", "Wine"]

    def test_ties_follow_canonical_order(self):
        net = make_net({
            "C": ((), {(): 0}),
            "A": ((), {(): 0}),
            "B": ((), {(): 0}),
        })
        assert topological_order(net) == ["C", "A", "B"]

    def test_parents_first(self):
        net = make_net({
            "Child": (("Root",), {(0,): 0, (1,): 1}),
            "Root": ((), {(): 0}),
        })
        assert topological_order(net) == ["Root", "Child"]

    def test_cycle_raises(self):
        net = make_net({
            "A": (("B",), {(0,): 0, (1,): 1}),
            "B": (("A",), {(0,): 0, (1,): 1}),
        })
        with pytest.raises(CycleError):
            topological_order(net)

    def test_random_nets_respect_parents(self):
        rng = random.Random(11)
        for _ in range(30):
            net = random_net(rng, rng.randint(1, 10))
            order = topological_order(net)
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
