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
    parse_dimacs,
    profile_from_json,
    profile_to_json,
)
from cpnets.cli import main
from helpers import random_net, random_profile


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


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


@pytest.mark.parametrize(
    "argv",
    [
        ["no-such-command"],
        ["dominates", "{net}", "00"],
        ["dominates", "{net}", "00", "10", "--max-states", "abc"],
        ["optimum", "{net}", "--witness"],
    ],
    ids=["unknown-command", "missing-argument", "bad-int", "foreign-flag"],
)
def test_usage_errors_are_json_exit_2(capsys, dinner_path, argv):
    argv = [word.format(net=dinner_path) for word in argv]
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
