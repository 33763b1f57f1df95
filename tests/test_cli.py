import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cpnets
from cpnets import (
    CnfFormula,
    forward_sweep_optimum,
    formula_net,
    net_from_json,
    net_to_json,
    outcome_str,
    parse_dimacs,
    profile_from_json,
    profile_to_json,
)
from cpnets import cli
from cpnets.cli import main
from helpers import majority_dominators, random_net, random_profile, run_capped


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def _pyramid_net(build, m):
    """The net `cpnets gadget hc|hd -m M` prints: M parentless inputs
    S_1..S_M that prefer 1, then the pyramid over them."""
    inputs = [f"S_{i}" for i in range(1, m + 1)]
    fragment = build(inputs)
    return cpnets.net_from_tables(
        [cpnets.CPTable(name, (), {(): 1}) for name in inputs]
        + [fragment.tables[name] for name in fragment.features]
    )


@pytest.fixture()
def profile_path(tmp_path, dinner_profile):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile_to_json(dinner_profile)))
    return str(path)


@pytest.fixture()
def cnf_path(tmp_path):
    path = tmp_path / "phi.cnf"
    path.write_text("p cnf 2 2\n1 -2 0\n2 0\n")
    return str(path)


@pytest.fixture()
def qbf_path(tmp_path):
    path = tmp_path / "phi.qdimacs"
    path.write_text("p cnf 2 1\ne 1 0\na 2 0\n1 2 0\n")
    return str(path)


class TestValidate:
    def test_valid_net(self, capsys, dinner_path):
        code, payload = run_json(capsys, "validate", dinner_path)
        assert code == 0
        assert payload == {"answer": True, "violations": []}

    def test_invalid_net_still_answers(self, capsys, tmp_path):
        raw = {
            "features": [
                {
                    "name": "A",
                    "parents": ["A"],
                    "cpt": [{"cond": [0], "prefer": 0}, {"cond": [1], "prefer": 1}],
                }
            ]
        }
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(raw))
        code, payload = run_json(capsys, "validate", str(path))
        assert code == 0
        assert payload["answer"] is False
        assert payload["violations"]

    def test_malformed_json_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, payload = run_json(capsys, "validate", str(path))
        assert code == 2
        assert "error" in payload

    @pytest.mark.parametrize(
        "entry",
        [
            {"name": "A", "parents": [], "cpt": [{"cond": [], "prefer": 0.5}]},
            {"name": ["A"], "parents": [], "cpt": [{"cond": [], "prefer": 0}]},
            {"name": "B", "parents": "A", "cpt": [{"cond": [0], "prefer": 0}]},
        ],
        ids=["float-prefer", "list-name", "string-parents"],
    )
    def test_malformed_entry_is_exit_2(self, capsys, tmp_path, entry):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"features": [entry]}))
        code, payload = run_json(capsys, "optimum", str(path))
        assert code == 2
        assert "error" in payload

    def test_deeply_nested_json_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, payload = run_json(capsys, "optimum", str(path))
        assert code == 2
        assert "error" in payload

    def test_missing_file_is_exit_2(self, capsys, tmp_path):
        code, payload = run_json(capsys, "validate", str(tmp_path / "nope.json"))
        assert code == 2
        assert "error" in payload


class TestNetQueries:
    def test_optimum(self, capsys, dinner_path):
        code, payload = run_json(capsys, "optimum", dinner_path)
        assert code == 0
        assert payload == {"answer": "00"}

    def test_optimum_prints_the_forward_sweep(self, capsys, tmp_path):
        rng = random.Random(20)
        path = tmp_path / "net.json"
        for _ in range(20):
            net = random_net(rng, rng.randint(1, 8))
            path.write_text(json.dumps(net_to_json(net)))
            code, payload = run_json(capsys, "optimum", str(path))
            assert code == 0
            assert payload == {
                "answer": outcome_str(forward_sweep_optimum(net), net.n)
            }

    def test_is_optimal(self, capsys, dinner_path):
        code, payload = run_json(capsys, "is-optimal", dinner_path, "00")
        assert (code, payload["answer"]) == (0, True)
        code, payload = run_json(capsys, "is-optimal", dinner_path, "01")
        assert (code, payload["answer"]) == (0, False)

    def test_dominates_with_stats(self, capsys, dinner_path):
        code, payload = run_json(capsys, "dominates", dinner_path, "00", "10")
        assert code == 0
        assert payload["answer"] is True
        assert isinstance(payload["stats"]["visited"], int)
        assert payload["stats"]["ms"] >= 0
        assert "witness" not in payload

    def test_dominates_witness(self, capsys, dinner_path):
        code, payload = run_json(
            capsys, "dominates", dinner_path, "00", "10", "--witness"
        )
        assert code == 0
        assert payload["witness"] == {
            "start": "10",
            "end": "00",
            "steps": [{"feature": "Main", "from": 1, "to": 0}],
        }

    def test_false_answer_has_no_witness(self, capsys, dinner_path):
        code, payload = run_json(
            capsys, "dominates", dinner_path, "10", "00", "--witness"
        )
        assert code == 0
        assert payload["answer"] is False
        assert "witness" not in payload

    def test_budget_is_exit_3(self, capsys, dinner_path):
        code, payload = run_json(
            capsys, "dominates", dinner_path, "00", "11", "--max-states", "1"
        )
        assert code == 3
        assert "state budget" in payload["error"]

    def test_bad_outcome_is_exit_2(self, capsys, dinner_path):
        code, payload = run_json(capsys, "dominates", dinner_path, "000", "10")
        assert code == 2
        assert "error" in payload

    def test_incomparable(self, capsys, dinner_path):
        code, payload = run_json(capsys, "incomparable", dinner_path, "00", "01")
        assert (code, payload["answer"]) == (0, False)


class TestNamedOutcomes:
    def test_named_values(self, capsys, dinner_path):
        code, payload = run_json(
            capsys,
            "dominates",
            dinner_path,
            "Main=m,Wine=r",
            "Main=f,Wine=r",
            "--named",
        )
        assert (code, payload["answer"]) == (0, True)

    def test_digits_always_work(self, capsys, dinner_path):
        code, payload = run_json(
            capsys, "is-optimal", dinner_path, "Main=0,Wine=0", "--named"
        )
        assert (code, payload["answer"]) == (0, True)

    @pytest.mark.parametrize(
        "values, error",
        [
            (["1", "0"], "a digit in 'values' may name only its own value"),
            (["yes", "0"], "a digit in 'values' may name only its own value"),
            (["1", "no"], "a digit in 'values' may name only its own value"),
            (["yes"], "malformed 'values' list"),
            (["yes", 1], "malformed 'values' list"),
        ],
        ids=["swapped-digits", "zero-names-one", "one-names-zero", "one-name", "int-name"],
    )
    def test_bad_value_names_are_exit_2(self, capsys, tmp_path, values, error):
        # A prefers 1, so A=1 is optimal: a name must never make it mean 0.
        raw = {
            "features": [
                {"name": "A", "values": values, "parents": [], "cpt": [{"cond": [], "prefer": 1}]}
            ]
        }
        path = tmp_path / "named.json"
        path.write_text(json.dumps(raw))
        code, payload = run_json(capsys, "is-optimal", str(path), "A=1", "--named")
        assert code == 2
        assert error in payload["error"]

    def test_digit_may_name_its_own_value(self, capsys, tmp_path):
        raw = {
            "features": [
                {"name": "A", "values": ["0", "yes"], "parents": [], "cpt": [{"cond": [], "prefer": 1}]}
            ]
        }
        path = tmp_path / "named.json"
        path.write_text(json.dumps(raw))
        for text in ("A=1", "A=yes"):
            code, payload = run_json(capsys, "is-optimal", str(path), text, "--named")
            assert (code, payload["answer"]) == (0, True)

    def test_unknown_value(self, capsys, dinner_path):
        code, payload = run_json(
            capsys, "is-optimal", dinner_path, "Main=tofu,Wine=r", "--named"
        )
        assert code == 2
        assert "tofu" in payload["error"]

    def test_missing_feature(self, capsys, dinner_path):
        code, payload = run_json(
            capsys, "is-optimal", dinner_path, "Main=m", "--named"
        )
        assert code == 2

    def test_duplicate_feature(self, capsys, dinner_path):
        code, payload = run_json(
            capsys, "is-optimal", dinner_path, "Main=m,Main=f,Wine=r", "--named"
        )
        assert code == 2

    def test_unknown_feature(self, capsys, dinner_path):
        code, payload = run_json(
            capsys, "is-optimal", dinner_path, "Main=m,Wine=r,Dessert=1", "--named"
        )
        assert code == 2


def _named_profile(lists):
    """Agents over one feature A that prefers 1; agent i carries lists[i]
    as A's 'values', or no 'values' key where lists[i] is None."""
    agents = []
    for values in lists:
        entry = {"name": "A", "parents": [], "cpt": [{"cond": [], "prefer": 1}]}
        if values is not None:
            entry["values"] = values
        agents.append({"features": [entry]})
    return {"agents": agents}


class TestVotingCommands:
    def test_pareto_dominates(self, capsys, profile_path):
        code, payload = run_json(
            capsys, "pareto", "dominates", profile_path, "00", "10"
        )
        assert (code, payload["answer"]) == (0, True)

    def test_pareto_is_optimal(self, capsys, profile_path):
        code, payload = run_json(
            capsys, "pareto", "is-optimal", profile_path, "01"
        )
        assert (code, payload["answer"]) == (0, True)

    def test_pareto_is_optimum(self, capsys, profile_path):
        code, payload = run_json(
            capsys, "pareto", "is-optimum", profile_path, "00"
        )
        assert (code, payload["answer"]) == (0, False)

    def test_pareto_exists_optimal(self, capsys, profile_path):
        code, payload = run_json(
            capsys, "pareto", "exists-optimal", profile_path
        )
        assert code == 0
        assert payload == {"answer": True, "witness": "00"}

    def test_pareto_exists_optimum(self, capsys, profile_path):
        code, payload = run_json(
            capsys, "pareto", "exists-optimum", profile_path
        )
        assert code == 0
        assert payload == {"answer": False, "witness": None}

    def test_majority_exists_optimum(self, capsys, profile_path):
        code, payload = run_json(
            capsys, "majority", "exists-optimum", profile_path
        )
        assert code == 0
        assert payload == {"answer": True, "witness": "00"}

    def test_majority_queries_over_two_components(self, capsys, components_path):
        # The singleton X3 is voted on, the {X1, X2} component scanned, and
        # the candidate checked once as a whole; the oracle agrees.
        profile = profile_from_json(json.loads(Path(components_path).read_text()))
        assert [c.bit_count() for c in profile.components] == [1, 2]
        beaten_by = majority_dominators(profile)
        assert beaten_by[0b011] == 0
        assert all(beaten_by[b] >> 0b011 & 1 for b in range(8) if b != 0b011)
        code, payload = run_json(capsys, "majority", "exists-optimum", components_path)
        assert (code, payload) == (0, {"answer": True, "witness": "011"})
        for alpha in range(8):
            code, payload = run_json(
                capsys, "majority", "is-optimal", components_path, format(alpha, "03b")
            )
            assert (code, payload) == (0, {"answer": beaten_by[alpha] == 0})

    def test_majority_exists_optimum_past_a_sequential_paradox(self, capsys, paradox_path):
        code, payload = run_json(capsys, "majority", "exists-optimum", paradox_path)
        assert code == 0
        assert payload == {"answer": True, "witness": "01"}

    def test_majority_dominates(self, capsys, profile_path):
        code, payload = run_json(
            capsys, "majority", "dominates", profile_path, "00", "01"
        )
        assert (code, payload["answer"]) == (0, True)

    def test_agents_over_differing_features_is_exit_2(self, capsys, tmp_path):
        rng = random.Random(101)
        agents = [net_to_json(random_net(rng, n)) for n in (3, 5)]
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"agents": agents}))
        code, payload = run_json(capsys, "majority", "is-optimal", str(path), "111")
        assert code == 2
        assert "differs from agent 0" in payload["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["majority", "exists-optimum", "{profile}", "--named"],
            ["pareto", "is-optimum", "{profile}", "00", "--max-states", "5"],
        ],
        ids=["named-without-outcome", "budget-without-search"],
    )
    def test_flag_the_query_does_not_take_is_exit_2(self, capsys, profile_path, argv):
        argv = [word.format(profile=profile_path) for word in argv]
        code, payload = run_json(capsys, *argv)
        assert code == 2
        assert "unrecognized arguments" in payload["error"]

    def test_named_outcome_on_profile_query(self, capsys, profile_path):
        code, payload = run_json(
            capsys, "pareto", "is-optimal", profile_path, "Main=0,Wine=1", "--named"
        )
        assert (code, payload["answer"]) == (0, True)

    def test_invalid_profile_is_exit_2(self, capsys, tmp_path):
        cyclic = {
            "name": "A",
            "parents": ["A"],
            "cpt": [{"cond": [0], "prefer": 0}, {"cond": [1], "prefer": 1}],
        }
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps({"agents": [{"features": [cyclic]}]}))
        code, payload = run_json(capsys, "majority", "is-optimal", str(path), "0")
        assert code == 2
        assert payload["error"] == (
            "invalid profile: agent 0: dependency cycle through features ['A']"
        )

    @pytest.mark.parametrize(
        "lists, error",
        [
            (
                [["no", "yes"], ["1", "0"], ["x"]],
                "agent 1: feature 'A': a digit in 'values' may name only its own value",
            ),
            (
                [["1", "0"], ["no", "yes"], ["x"]],
                "agent 0: feature 'A': a digit in 'values' may name only its own value",
            ),
            (
                [["no", "yes"], ["no", "yes"], ["x"]],
                "agent 2: feature 'A' has a malformed 'values' list",
            ),
            (
                [["no", "yes"], ["off", "on"], ["no", "yes"]],
                "agent 1 names the values of feature 'A' differently from agent 0",
            ),
            (
                [["no", "yes"], None, ["no", "yes"]],
                "agent 1 names the values of feature 'A' differently from agent 0",
            ),
            (
                [None, None, ["no", "yes"]],
                "agent 2 names the values of feature 'A' differently from agent 0",
            ),
        ],
        ids=[
            "bad-list-past-agent-0",
            "bad-list-on-agent-0",
            "short-list-past-agent-0",
            "other-names",
            "one-agent-unnamed",
            "agent-0-unnamed",
        ],
    )
    def test_agents_naming_values_apart_is_exit_2(self, capsys, tmp_path, lists, error):
        path = tmp_path / "named.json"
        path.write_text(json.dumps(_named_profile(lists)))
        code, payload = run_json(
            capsys, "pareto", "is-optimal", str(path), "A=yes", "--named"
        )
        assert code == 2
        assert payload["error"] == error

    def test_agents_naming_values_alike(self, capsys, tmp_path):
        path = tmp_path / "named.json"
        path.write_text(json.dumps(_named_profile([["no", "yes"]] * 3)))
        for text in ("A=yes", "A=1"):
            code, payload = run_json(
                capsys, "pareto", "is-optimal", str(path), text, "--named"
            )
            assert (code, payload["answer"]) == (0, True)

    def test_majority_exists_gate(self, capsys, tmp_path):
        wide = random_profile(random.Random(97), 25, 2)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(profile_to_json(wide)))
        code, payload = run_json(capsys, "majority", "exists-optimal", str(path))
        assert code == 3
        assert "error" in payload


class TestGadgetCommand:
    def test_nowin_profile_roundtrip(self, capsys, tmp_path):
        code, payload = run_json(capsys, "gadget", "m-nowin")
        assert code == 0
        profile = profile_from_json(payload)
        assert profile.m == 4
        saved = tmp_path / "nowin.json"
        saved.write_text(json.dumps(payload))
        code, payload = run_json(
            capsys, "majority", "exists-optimal", str(saved)
        )
        assert code == 0
        assert payload == {"answer": False, "witness": None}

    def test_formula_net_matches_library(self, capsys, cnf_path):
        code, payload = run_json(capsys, "gadget", "formula-net", "--cnf", cnf_path)
        assert code == 0
        with open(cnf_path) as fh:
            expected = formula_net(parse_dimacs(fh.read())).net
        assert payload == net_to_json(expected)

    @pytest.mark.parametrize(
        "kind, argv, build",
        [
            ("formula-net", ["--cnf", "{cnf}"], lambda c, q: cpnets.formula_net(c).net),
            (
                "summarized",
                ["--cnf", "{cnf}"],
                lambda c, q: cpnets.summarized_formula_net(c).net,
            ),
            ("hc", ["-m", "5"], lambda c, q: _pyramid_net(cpnets.h_c, 5)),
            ("hd", ["-m", "4"], lambda c, q: _pyramid_net(cpnets.h_d, 4)),
            (
                "direct",
                ["--outcome", "101"],
                lambda c, q: cpnets.direct_net(0b101, ("X1", "X2", "X3")),
            ),
            ("m-ipo", ["--cnf", "{cnf}"], lambda c, q: cpnets.m_ipo(c).profile),
            ("m-eml", ["--qbf", "{qbf}"], lambda c, q: cpnets.m_eml(q).profile),
            ("m-imm", ["--qbf", "{qbf}"], lambda c, q: cpnets.m_imm(q).profile),
            ("m-nowin", [], lambda c, q: cpnets.m_nowin()),
        ],
    )
    def test_every_kind_prints_the_library_gadget(
        self, capsys, cnf_path, qbf_path, kind, argv, build
    ):
        """stdout is the library builder's JSON, byte for byte."""
        argv = [word.format(cnf=cnf_path, qbf=qbf_path) for word in argv]
        code, out = run(capsys, "gadget", kind, *argv)
        assert code == 0
        built = build(
            parse_dimacs(Path(cnf_path).read_text()),
            cpnets.parse_qdimacs(Path(qbf_path).read_text()),
        )
        to_json = profile_to_json if isinstance(built, cpnets.MCPNet) else net_to_json
        assert out == json.dumps(to_json(built), indent=2) + "\n"

    @pytest.mark.parametrize(
        "kind, option",
        [(kind, option) for kind, (option, _) in cli.GADGETS.items() if option],
    )
    def test_missing_input_names_its_option(self, capsys, kind, option):
        code, payload = run_json(capsys, "gadget", kind)
        assert code == 2
        assert payload == {"error": f"gadget {kind} needs {option}"}

    def test_formula_net_requires_cnf(self, capsys):
        code, payload = run_json(capsys, "gadget", "formula-net")
        assert code == 2

    def test_hc_synthesizes_inputs(self, capsys):
        code, payload = run_json(capsys, "gadget", "hc", "-m", "5")
        assert code == 0
        net = net_from_json(payload)
        assert net.features[:5] == ("S_1", "S_2", "S_3", "S_4", "S_5")
        assert forward_sweep_optimum(net) == (1 << net.n) - 1

    def test_hd_needs_m(self, capsys):
        code, payload = run_json(capsys, "gadget", "hd")
        assert code == 2

    def test_direct(self, capsys):
        code, payload = run_json(capsys, "gadget", "direct", "--outcome", "101")
        assert code == 0
        net = net_from_json(payload)
        assert forward_sweep_optimum(net) == 0b101

    def test_direct_rejects_junk(self, capsys):
        code, payload = run_json(capsys, "gadget", "direct", "--outcome", "abc")
        assert code == 2

    def test_m_imm_from_file(self, capsys, qbf_path):
        code, payload = run_json(capsys, "gadget", "m-imm", "--qbf", qbf_path)
        assert code == 0
        profile = profile_from_json(payload)
        assert profile.m == 3

    def test_generated_net_flows_into_queries(self, capsys, tmp_path):
        path = tmp_path / "one.cnf"
        path.write_text("p cnf 1 1\n1 0\n")
        code, payload = run_json(capsys, "gadget", "formula-net", "--cnf", str(path))
        assert code == 0
        saved = tmp_path / "fnet.json"
        saved.write_text(json.dumps(payload))
        built = formula_net(CnfFormula(num_vars=1, clauses=((1,),)))
        beta = format(built.beta_bar(), f"0{built.net.n}b")
        code, payload = run_json(
            capsys, "dominates", str(saved), beta, "0" * built.net.n
        )
        assert (code, payload["answer"]) == (0, True)


class TestOracleCommands:
    def test_graph_json(self, capsys, dinner_path):
        code, payload = run_json(capsys, "oracle", "graph", dinner_path)
        assert code == 0
        assert payload == {
            "arcs": {
                "00": [],
                "01": ["00"],
                "10": ["00", "11"],
                "11": ["01"],
            }
        }

    def test_graph_dot(self, capsys, dinner_path):
        code, out = run(capsys, "oracle", "graph", dinner_path, "--dot")
        assert code == 0
        assert out.startswith("digraph preference {")
        assert '"01" -> "00";' in out

    def test_graph_bound_is_exit_3(self, capsys, dinner_path):
        code, payload = run_json(
            capsys, "oracle", "graph", dinner_path, "--oracle-bound", "1"
        )
        assert code == 3

    def test_closure(self, capsys, dinner_path):
        code, payload = run_json(capsys, "oracle", "closure", dinner_path)
        assert code == 0
        assert payload == {
            "reach": {
                "00": [],
                "01": ["00"],
                "10": ["00", "01", "11"],
                "11": ["00", "01"],
            }
        }

    def test_check(self, capsys, dinner_path):
        code, payload = run_json(capsys, "oracle", "check", dinner_path)
        assert code == 0
        assert payload == {"answer": True, "pairs": 12}

    @pytest.mark.parametrize(
        "edit, detail",
        [
            # 00 is the optimum: an engine that also reaches 11 from it,
            # or that never reaches 00, disagrees with the closure.
            (lambda reached: reached | {0b11}, "disagreement on 11 above 00"),
            (lambda reached: reached - {0b00}, "disagreement on 00 above 01"),
            # 11 reaches 01 and 00; swapping 00 for 10 keeps the count, so
            # only the membership test catches it.
            (
                lambda reached: reached ^ {0b00, 0b10} if len(reached) == 3 else reached,
                "disagreement on 00 above 11",
            ),
        ],
    )
    def test_check_names_disagreement(
        self, capsys, dinner_path, monkeypatch, edit, detail
    ):
        reach_set = cpnets.semantics.reach_set
        monkeypatch.setattr(
            cpnets.semantics,
            "reach_set",
            lambda net, alpha: edit(reach_set(net, alpha)),
        )
        code, payload = run_json(capsys, "oracle", "check", dinner_path)
        assert code == 0
        assert payload == {"answer": False, "detail": detail}

    def test_verify_default_nowin(self, capsys):
        code, payload = run_json(
            capsys, "oracle", "verify", "--lemma", "theorem_nowin"
        )
        assert code == 0
        assert payload == {"answer": True, "checked": 4, "detail": "pass"}

    def test_verify_lemma7_needs_profile(self, capsys):
        code, payload = run_json(capsys, "oracle", "verify", "--lemma", "lemma7")
        assert code == 2

    def test_verify_lemma7(self, capsys, profile_path):
        code, payload = run_json(
            capsys, "oracle", "verify", "--lemma", "lemma7",
            "--profile", profile_path,
        )
        assert code == 0
        assert payload["answer"] is True
        assert payload["checked"] == 4

    def test_verify_formula_tag(self, capsys, cnf_path):
        code, payload = run_json(
            capsys, "oracle", "verify", "--lemma", "corollary1", "--cnf", cnf_path
        )
        assert code == 0
        assert payload == {"answer": True, "checked": 1, "detail": "pass"}

    def test_verify_unknown_tag(self, capsys):
        code, payload = run_json(capsys, "oracle", "verify", "--lemma", "lemma99")
        assert code == 2
        assert "lemma99" in payload["error"]

    def test_verify_missing_cnf(self, capsys):
        code, payload = run_json(capsys, "oracle", "verify", "--lemma", "lemma1")
        assert code == 2


# A valid value for each input option of `gadget` and `oracle verify`. An
# option the chosen gadget or claim does not read is refused, so each
# (id, argv) row below would otherwise be answered with exit code 0.
_INPUTS = {
    "--cnf": "{cnf}",
    "--qbf": "{qbf}",
    "--outcome": "101",
    "-m": "3",
    "--profile": "{profile}",
}


def _given(option):
    return [option, _INPUTS[option]] if option else []


_UNREAD_OPTIONS = [
    (
        f"gadget-{kind}-{other.lstrip('-')}",
        ["gadget", kind, *_given(option), *_given(other)],
    )
    for kind, (option, _) in cli.GADGETS.items()
    for other in ("--cnf", "--qbf", "--outcome", "-m")
    if other != option
] + [
    (
        f"verify-{tag}-{other}",
        [
            "oracle", "verify", "--lemma", tag,
            *_given(None if default else f"--{kind}"), *_given(f"--{other}"),
        ],
    )
    for tag, (kind, _, default) in cpnets.oracle.CLAIMS.items()
    for other in ("cnf", "profile")
    if other != kind
]


@pytest.mark.parametrize(
    "argv",
    [
        ["no-such-command"],
        ["dominates", "{net}", "00"],
        ["dominates", "{net}", "00", "10", "--max-states", "abc"],
        ["optimum", "{net}", "--witness"],
        ["dominates", "{net}", "00", "11", "--max-states", "-1"],
        ["dominates", "{net}", "00", "11", "--max-states", "0"],
        ["oracle", "graph", "{net}", "--oracle-bound", "-2"],
        ["gadget", "hc", "-m", "0"],
        ["is-optimal", "{net}", "Main", "--named"],
        ["oracle", "check", "{net}", "--max-states", "5"],
        ["oracle", "verify", "--lemma", "theorem_nowin", "--max-states", "5"],
        ["optimum", "{net}", "--named"],
        ["optimum", "{net}", "--max-states", "5"],
        *(argv for _, argv in _UNREAD_OPTIONS),
    ],
    ids=[
        "unknown-command",
        "missing-argument",
        "bad-int",
        "foreign-flag",
        "negative-budget",
        "zero-budget",
        "negative-oracle-bound",
        "zero-pyramid-inputs",
        "named-chunk-without-equals",
        "oracle-check-max-states",
        "oracle-verify-max-states",
        "optimum-named",
        "optimum-max-states",
        *(name for name, _ in _UNREAD_OPTIONS),
    ],
)
def test_usage_errors_are_json_exit_2(
    capsys, dinner_path, cnf_path, qbf_path, profile_path, argv
):
    paths = dict(net=dinner_path, cnf=cnf_path, qbf=qbf_path, profile=profile_path)
    argv = [word.format(**paths) for word in argv]
    code, payload = run_json(capsys, *argv)
    assert code == 2
    assert payload["error"]


def test_cached_parser_answers_like_a_fresh_process(
    capsys, dinner_path, profile_path
):
    """The parser is built once per process. A usage error on it must not
    change how later calls parse: each answer equals a new process's."""
    calls = [
        ["dominates", dinner_path, "00"],
        ["incomparable", dinner_path, "01", "10", "--max-states", "9"],
        ["pareto", "is-optimal", profile_path, "01"],
        ["majority", "dominates", profile_path, "00", "10"],
        ["pareto", "exists-optimum", profile_path],
        ["optimum", dinner_path],
    ]
    run(capsys, "pareto", "exists-optimum", profile_path, "--named")
    env = {**os.environ, "PYTHONPATH": str(Path(cpnets.__file__).parents[1])}
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "cpnets", *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout)


def test_module_entry_point(dinner_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cpnets", "optimum", dinner_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"answer": "00"}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["00", "10", "--witness"], 0),
        (["00", "11", "--max-states", "1"], 3),
        (["000", "10"], 2),
    ],
)
def test_closed_stdout_exits_quietly(dinner_path, argv, code):
    """A reader that leaves early, as in `cpnets ... | head`, costs no
    traceback: the exit code stays the query's and stderr stays empty,
    also through the flush of buffered stdout at interpreter shutdown."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cpnets.__file__).parents[1])
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cpnets", "dominates", dinner_path, *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, "")


HUGE_CNF = "p cnf 99999999999 1\n1 0\n"
HUGE_QBF = "p cnf 99999999999 1\ne 1 0\na 2 0\n1 2 0\n"


@pytest.mark.parametrize(
    "argv, text",
    [
        (["gadget", "formula-net", "--cnf"], HUGE_CNF),
        (["oracle", "verify", "--lemma", "corollary2", "--cnf"], HUGE_CNF),
        (["gadget", "m-eml", "--qbf"], HUGE_QBF),
    ],
    ids=["formula-net", "corollary2", "m-eml"],
)
def test_huge_declared_variable_count_is_bad_input(tmp_path, argv, text):
    """A header that declares billions of variables is refused before
    anything is sized by it, inside a 1.5 GB address space."""
    path = tmp_path / "huge"
    path.write_text(text)
    proc = run_capped("-m", "cpnets", *argv, str(path))
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout)["error"]


_json_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
)
_json = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_names = st.sampled_from(["A", "B"])
_bits = st.sampled_from([0, 1]) | _json
_rows = st.fixed_dictionaries(
    {"cond": st.lists(_bits, max_size=2) | _json, "prefer": _bits}
)
_entries = st.fixed_dictionaries(
    {
        "name": _names | _json,
        "parents": st.lists(_names, max_size=2) | _json,
        "cpt": st.lists(_rows, max_size=4) | _json,
    }
) | _json


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(_entries, min_size=1, max_size=3))
def test_cli_survives_malformed_entries(entries):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/net.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"features": entries}, fh)
        for argv in (["optimum", path], ["dominates", path, "1", "0"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            assert code in (0, 2, 3)
            json.loads(out.getvalue())
