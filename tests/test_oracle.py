import ast
import dataclasses
import inspect
import random

import pytest

import cpnets.oracle
from cpnets import (
    LEMMA_TAGS,
    SAT_BOUND,
    CnfFormula,
    CycleError,
    ExtendedPreferenceGraph,
    InstanceTooLarge,
    MCPNet,
    Qbf2Formula,
    build_graph,
    closure,
    dominates,
    formula_net,
    forward_sweep_optimum,
    improving_flips,
    m_nowin,
    net_from_tables,
    outcome_str,
    qbf2_enumerate,
    reach_set,
    sat_enumerate,
    sinks,
    summarized_formula_net,
    to_dot,
    verify_lemma,
)
from cpnets.oracle import _best_first, _flip_sets, _sweep
from helpers import (
    formula_family,
    majority_dominators,
    random_formula,
    random_net,
    random_profile,
    run_capped,
)


class TestGraph:
    def test_dinner_arcs(self, dinner_net):
        graph = build_graph(dinner_net)
        assert graph.arcs == [[], [0b00], [0b00, 0b11], [0b01]]

    def test_sinks_is_the_optimum(self):
        rng = random.Random(5)
        for _ in range(30):
            net = random_net(rng, rng.randint(1, 8))
            graph = build_graph(net)
            assert sinks(graph) == [forward_sweep_optimum(net)]

    def test_bound(self):
        net = random_net(random.Random(1), 5)
        with pytest.raises(InstanceTooLarge):
            build_graph(net, bound=4)

    def test_arcs_are_the_engine_flips(self):
        rng = random.Random(23)
        for k in range(40):
            net = random_net(rng, rng.randint(1, 10), shuffle=bool(k % 2))
            graph = build_graph(net)
            for u in range(1 << net.n):
                assert graph.arcs[u] == [v for _, v in improving_flips(net, u)]

    def test_dot_output(self, dinner_net):
        text = to_dot(build_graph(dinner_net))
        assert text.startswith("digraph preference {")
        assert text.rstrip().endswith("}")
        for label in ("00", "01", "10", "11"):
            assert f'"{label}";' in text
        assert '"01" -> "00";' in text
        assert '"10" -> "11";' in text
        assert '"00" ->' not in text


class TestClosure:
    def test_dinner_total_order(self, dinner_net):
        clo = closure(build_graph(dinner_net))
        # 00 > 01 > 11 > 10: each outcome is dominated by everything above it.
        assert clo.reach == [0b0000, 0b0001, 0b1011, 0b0011]

    def test_matches_engine_reach(self):
        rng = random.Random(13)
        for _ in range(25):
            net = random_net(rng, rng.randint(1, 7))
            clo = closure(build_graph(net))
            for alpha in range(1 << net.n):
                expected = reach_set(net, alpha) - {alpha}
                got = {
                    beta
                    for beta in range(1 << net.n)
                    if clo.dominates(beta, alpha)
                }
                assert got == expected

    def test_transitive(self):
        rng = random.Random(19)
        for _ in range(15):
            net = random_net(rng, rng.randint(2, 6))
            clo = closure(build_graph(net))
            size = 1 << net.n
            for a in range(size):
                r = clo.reach[a]
                for b in range(size):
                    if (r >> b) & 1:
                        assert clo.reach[b] & ~r == 0

    def test_incomparable(self, dinner_net):
        clo = closure(build_graph(dinner_net))
        assert not clo.incomparable(0b00, 0b10)
        with pytest.raises(ValueError):
            clo.incomparable(1, 1)

    def test_cyclic_graph_is_refused(self, dinner_net):
        graph = ExtendedPreferenceGraph(dinner_net, [[1], [0], [], []])
        with pytest.raises(CycleError, match="improving flips cycle"):
            closure(graph)

    def test_arc_against_the_order_is_refused(self, dinner_net):
        # 00 is the dinner net's best outcome, so an arc from it to 01
        # points later in the order although the graph is acyclic.
        graph = ExtendedPreferenceGraph(dinner_net, [[1], [], [], []])
        with pytest.raises(CycleError, match="improving flips cycle"):
            closure(graph)

    def test_other_value_first_is_refused(self):
        """A net with one feature's rows negated orders that feature's
        other value first; its order under the true net's arcs must raise
        rather than return rows."""
        rng = random.Random(43)
        for k in range(20):
            net = random_net(rng, rng.randint(1, 7), shuffle=bool(k % 2))
            arcs = build_graph(net).arcs
            for name in net.features:
                negated = {cond: 1 - v for cond, v in net.tables[name].rows.items()}
                mutant = net_from_tables([
                    dataclasses.replace(net.tables[f], rows=negated) if f == name
                    else net.tables[f]
                    for f in net.features
                ])
                with pytest.raises(CycleError, match="improving flips cycle"):
                    closure(ExtendedPreferenceGraph(mutant, arcs))

    def test_every_arc_points_earlier(self):
        rng = random.Random(47)
        for _ in range(40):
            net = random_net(rng, rng.randint(1, 8), shuffle=True)
            order = _best_first(net)
            assert sorted(order) == list(range(1 << net.n))
            position = {u: k for k, u in enumerate(order)}
            for u, arcs in enumerate(build_graph(net).arcs):
                assert all(position[v] < position[u] for v in arcs)

    @pytest.mark.parametrize("beta, alpha", [(9, 0), (0, 9), (9, 9), (-1, 0), (0, -1)])
    def test_out_of_range_outcomes_are_refused(self, beta, alpha):
        clo = closure(build_graph(m_nowin().agents[0]))
        with pytest.raises(ValueError, match="out of range"):
            clo.dominates(beta, alpha)


class TestSweeps:
    """The forward sweep from an outcome is its closure row; the backward
    sweep is its closure column."""

    def check(self, net, starts):
        sets = _flip_sets(net, net.n)
        reach = closure(build_graph(net)).reach
        for start in starts:
            column = sum(1 << a for a, row in enumerate(reach) if (row >> start) & 1)
            assert _sweep(sets, start, True) == reach[start]
            assert _sweep(sets, start, False) == column

    def test_random_nets(self):
        rng = random.Random(29)
        for k in range(30):
            net = random_net(rng, rng.randint(1, 7), shuffle=bool(k % 2))
            self.check(net, range(1 << net.n))

    def test_formula_gadgets(self):
        rng = random.Random(31)
        for phi in (
            CnfFormula(2, ((1, -2), (2,))),
            CnfFormula(2, ((1,), (-1,))),
            CnfFormula(3, ((1, 2, -3),)),
        ):
            for built in (formula_net(phi), summarized_formula_net(phi)):
                starts = {built.beta_bar(), built.alpha(), built.alpha({1: True})}
                starts.update(rng.sample(range(1 << built.net.n), 20))
                self.check(built.net, starts)

    def test_bound(self):
        net = random_net(random.Random(3), 5)
        with pytest.raises(InstanceTooLarge):
            _flip_sets(net, 4)


def test_oracle_is_independent_of_the_engine():
    """The oracle checks the engine, so apart from lemma5, which runs the
    engine's Pareto query on purpose, it neither imports nor names the
    engine modules and never reads a net's compiled flip rules."""
    tree = ast.parse(inspect.getsource(cpnets.oracle))
    engine = {"semantics", "voting"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            assert node.attr not in ("rules", "worsening_rules"), node.lineno
        if isinstance(node, ast.Name):
            assert node.id not in engine, node.lineno
    allowed = {"_verify_lemma5": {"voting"}}
    for stmt in tree.body:
        name = stmt.name if isinstance(stmt, ast.FunctionDef) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.ImportFrom):
                named = {(node.module or "").rpartition(".")[2]}
                named |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                named = {alias.name.rpartition(".")[2] for alias in node.names}
            else:
                continue
            assert not named & (engine - allowed.get(name, set())), (name, node.lineno)


class TestSatEnumerate:
    def test_basic_truth(self):
        phi = CnfFormula(num_vars=2, clauses=((1,), (-2,)))
        assert sat_enumerate(phi)
        assert sat_enumerate(phi, {1: True, 2: False})
        assert not sat_enumerate(phi, {1: False})
        assert not sat_enumerate(phi, {2: True})

    def test_contradiction(self):
        phi = CnfFormula(num_vars=1, clauses=((1,), (-1,)))
        assert not sat_enumerate(phi)

    def test_tautology_clause(self):
        phi = CnfFormula(num_vars=1, clauses=((1, -1),))
        assert sat_enumerate(phi)
        assert sat_enumerate(phi, {1: False})

    def test_unknown_variable_rejected(self):
        phi = CnfFormula(num_vars=2, clauses=((1, 2),))
        with pytest.raises(ValueError):
            sat_enumerate(phi, {3: True})

    def test_bound(self):
        # Only unassigned variables count: two past SAT_BOUND are refused,
        # and with two assigned the formula holds at the first completion.
        phi = CnfFormula(num_vars=SAT_BOUND + 2, clauses=((1, 2, 3),))
        with pytest.raises(InstanceTooLarge):
            sat_enumerate(phi)
        assert sat_enumerate(phi, {1: True, 2: True})

    def test_bound_is_checked_before_listing_variables(self):
        proc = run_capped(
            "-c",
            "from cpnets import CnfFormula, InstanceTooLarge, sat_enumerate\n"
            "try:\n"
            "    sat_enumerate(CnfFormula(99999999999, ((1,),)), {1: True})\n"
            "except InstanceTooLarge as exc:\n"
            "    print(exc)\n",
        )
        assert (proc.returncode, proc.stdout) == (
            0,
            "99999999998 unassigned variables; enumeration is capped at 24\n",
        ), proc.stderr

    def test_agrees_with_brute_force(self):
        rng = random.Random(37)
        for _ in range(60):
            phi = random_formula(rng, max_vars=4, max_clauses=3)
            expected = any(
                all(
                    any(
                        (lit > 0) == bool((bits >> (abs(lit) - 1)) & 1)
                        for lit in clause
                    )
                    for clause in phi.clauses
                )
                for bits in range(1 << phi.num_vars)
            )
            assert sat_enumerate(phi) == expected


class TestQbf2Enumerate:
    def test_tautology_matrix_is_false(self):
        formula = Qbf2Formula(
            exists_vars=(1,), forall_vars=(2,),
            matrix=CnfFormula(num_vars=2, clauses=((1, -1),)),
        )
        assert not qbf2_enumerate(formula)

    def test_empty_exists_block(self):
        formula = Qbf2Formula(
            exists_vars=(), forall_vars=(1,),
            matrix=CnfFormula(num_vars=1, clauses=((1,),)),
        )
        assert not qbf2_enumerate(formula)

    def test_exists_can_break_matrix(self):
        formula = Qbf2Formula(
            exists_vars=(1,), forall_vars=(2,),
            matrix=CnfFormula(num_vars=2, clauses=((1,),)),
        )
        assert qbf2_enumerate(formula)

    def test_forall_can_rescue_matrix(self):
        # Matrix (x1 or y1) is satisfiable whatever x1 does.
        formula = Qbf2Formula(
            exists_vars=(1,), forall_vars=(2,),
            matrix=CnfFormula(num_vars=2, clauses=((1, 2),)),
        )
        assert not qbf2_enumerate(formula)

    def test_bound(self):
        n = SAT_BOUND + 1
        formula = Qbf2Formula(
            exists_vars=tuple(range(1, n + 1)), forall_vars=(n + 1,),
            matrix=CnfFormula(num_vars=n + 1, clauses=((1, 2),)),
        )
        with pytest.raises(InstanceTooLarge):
            qbf2_enumerate(formula)


class TestVerifyLemma:
    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            verify_lemma("lemma99")

    @pytest.mark.parametrize(
        "tag, kind",
        [
            ("corollary1", "cnf"),
            ("lemma1", "cnf"),
            ("corollary2", "cnf"),
            ("lemma5", "cnf"),
            ("lemma7", "profile"),
        ],
    )
    def test_missing_instance_names_its_kind(self, tag, kind):
        with pytest.raises(ValueError, match=f"{tag} needs a {kind} instance"):
            verify_lemma(tag)

    @pytest.mark.parametrize("tag", LEMMA_TAGS)
    def test_wrong_kind_is_refused(self, tag):
        kind = cpnets.oracle.CLAIMS[tag][0]
        wrong = m_nowin() if kind == "cnf" else CnfFormula(1, ((1,),))
        with pytest.raises(ValueError, match=f"{tag} needs a {kind} instance"):
            verify_lemma(tag, wrong)

    def test_formula_tags_pass_on_small_family(self):
        for phi in formula_family(2, max_clauses=1):
            for tag in ("corollary1", "lemma1", "corollary2"):
                report = verify_lemma(tag, phi)
                assert report.ok, (tag, phi, report.detail)
                assert report.detail == "pass"
        report = verify_lemma("lemma1", CnfFormula(2, ((1, -2), (2,))))
        assert report.checked == 9

    def test_lemma5_both_polarities(self):
        sat = CnfFormula(num_vars=2, clauses=((1, 2),))
        unsat = CnfFormula(num_vars=1, clauses=((1,), (-1,)))
        assert verify_lemma("lemma5", sat).ok
        assert verify_lemma("lemma5", unsat).ok

    def test_lemma7_on_random_profiles(self):
        rng = random.Random(41)
        for _ in range(20):
            profile = random_profile(rng, rng.randint(2, 6), rng.randint(1, 4))
            report = verify_lemma("lemma7", profile)
            assert report.ok, report.detail
            assert report.checked == 1 << profile.n

    def test_theorem_nowin_default_instance(self):
        report = verify_lemma("theorem_nowin")
        assert report.ok
        assert report.checked == 4

    def test_theorem_nowin_counterexample_path(self, dinner_profile):
        # The dinner profile has a majority optimal outcome, so the claim
        # that every outcome is majority-dominated must fail on it.
        report = verify_lemma("theorem_nowin", dinner_profile)
        assert not report.ok
        assert "00" in report.detail

    def test_theorem_nowin_first_failure_is_the_first_undominated(self):
        rng = random.Random(53)
        for k in range(60):
            profile = random_profile(
                rng, rng.randint(1, 6), rng.randint(1, 6), shuffle=bool(k % 2)
            )
            rows = majority_dominators(profile)
            report = verify_lemma("theorem_nowin", profile)
            if all(rows):
                assert (report.ok, report.checked) == (True, 1 << profile.n)
                continue
            alpha = rows.index(0)
            assert (report.ok, report.checked) == (False, alpha + 1)
            assert report.detail == (
                f"{outcome_str(alpha, profile.n)} is not majority-dominated by anything"
            )

    def test_nowin_engine_agrees(self, nowin_profile):
        # Three of the four agents put 10 above 00; the engine and the
        # oracle closures must agree on each vote.
        engine_votes = [
            dominates(agent, 0b10, 0b00).holds
            for agent in nowin_profile.agents
        ]
        oracle_votes = [
            closure(build_graph(agent)).dominates(0b10, 0b00)
            for agent in nowin_profile.agents
        ]
        assert engine_votes == oracle_votes == [True, True, False, True]


SAT_THEN_UNSAT = CnfFormula(2, ((1, -2), (2,)))
UNSAT = CnfFormula(1, ((1,), (-1,)))


class TestClaimFailures:
    """The failure reports of the pair claims and lemma7, pinned by
    breaking the enumeration or the graph the claims compare against."""

    @staticmethod
    def negate_sat(monkeypatch, when=lambda sigma: True):
        real = cpnets.oracle.sat_enumerate

        def negated(phi, sigma=None):
            return real(phi, sigma) != when(dict(sigma or {}))

        monkeypatch.setattr(cpnets.oracle, "sat_enumerate", negated)

    @pytest.mark.parametrize(
        "tag, phi, detail",
        [
            ("lemma1", SAT_THEN_UNSAT, "sigma={}: 111100101 should not dominate 000000000"),
            ("corollary1", SAT_THEN_UNSAT, "111100101 should not dominate 000000000"),
            ("corollary2", SAT_THEN_UNSAT, "000000000011 should not dominate 000000000000"),
            ("lemma1", UNSAT, "sigma={}: 110101 should dominate 000000"),
            ("corollary1", UNSAT, "110101 should dominate 000000"),
            ("corollary2", UNSAT, "000000011 should dominate 000000000"),
        ],
    )
    def test_pair_claims_under_negated_sat(self, monkeypatch, tag, phi, detail):
        self.negate_sat(monkeypatch)
        report = verify_lemma(tag, phi)
        assert (report.ok, report.checked, report.detail) == (False, 1, detail)

    def test_lemma1_names_the_first_failing_assignment(self, monkeypatch):
        self.negate_sat(monkeypatch, when=lambda sigma: sigma == {2: False})
        report = verify_lemma("lemma1", SAT_THEN_UNSAT)
        assert (report.ok, report.checked, report.detail) == (
            False,
            3,
            "sigma={2: False}: 111100101 should dominate 000100000",
        )

    @pytest.mark.parametrize(
        "tag, detail",
        [
            ("lemma1", "sigma={}: 000000000 unexpectedly dominates 111100101"),
            ("corollary1", "000000000 unexpectedly dominates 111100101"),
            ("corollary2", "000000000000 unexpectedly dominates 000000000011"),
        ],
    )
    def test_reverse_dominance_is_reported(self, monkeypatch, tag, detail):
        # Swapping the sweep directions makes alpha dominate beta_bar; with
        # the answer negated too, the first test passes and the second fails.
        self.negate_sat(monkeypatch)
        real = cpnets.oracle._sweep
        monkeypatch.setattr(
            cpnets.oracle, "_sweep", lambda sets, start, forward: real(sets, start, not forward)
        )
        report = verify_lemma(tag, SAT_THEN_UNSAT)
        assert (report.ok, report.checked, report.detail) == (False, 1, detail)

    @pytest.mark.parametrize(
        "phi, verb",
        [(SAT_THEN_UNSAT, "should be"), (UNSAT, "should not be")],
        ids=["sat", "unsat"],
    )
    def test_lemma5_under_negated_sat(self, monkeypatch, phi, verb):
        self.negate_sat(monkeypatch)
        report = verify_lemma("lemma5", phi)
        assert (report.ok, report.checked, report.detail) == (
            False,
            1,
            f"all-zero outcome {verb} Pareto optimal in the two-agent profile",
        )

    @pytest.mark.parametrize(
        "tops, agents, checked, detail",
        [
            ([0, 1], 4, 0, "agent 0 has 2 flip-free outcomes"),
            ([0], 1, 4, "Pareto optimum set ['11'] but individual optima give ['00']"),
            ([0], 4, 4, "Pareto optimum set [] but individual optima give ['00']"),
        ],
    )
    def test_lemma7_failures(self, monkeypatch, tops, agents, checked, detail):
        monkeypatch.setattr(cpnets.oracle, "sinks", lambda graph: list(tops))
        profile = MCPNet(agents=m_nowin().agents[:agents])
        report = verify_lemma("lemma7", profile)
        assert (report.ok, report.checked, report.detail) == (False, checked, detail)
