import pytest

from cpnets import (
    CnfFormula,
    Qbf2Formula,
    build_graph,
    check_formula,
    check_qbf,
    closure,
    direct_net,
    dominates,
    encode_assignment,
    forward_sweep_optimum,
    formula_net,
    h_c,
    h_d,
    incomparable,
    m_eml,
    m_imm,
    m_ipo,
    net_from_tables,
    parse_dimacs,
    parse_qdimacs,
    summarized_formula_net,
    validate_net,
    validate_profile,
)
from cpnets import CPTable
from helpers import run_capped


def bits(net, *names):
    n = net.n
    out = 0
    for name in names:
        out |= 1 << (n - 1 - net.index(name))
    return out


class TestFormulaChecks:
    def test_rejects_degenerate_formulas(self):
        with pytest.raises(ValueError):
            check_formula(CnfFormula(num_vars=0, clauses=((1,),)))
        with pytest.raises(ValueError):
            check_formula(CnfFormula(num_vars=1, clauses=()))
        with pytest.raises(ValueError):
            check_formula(CnfFormula(num_vars=4, clauses=((1, 2, 3, 4),)))
        with pytest.raises(ValueError):
            check_formula(CnfFormula(num_vars=2, clauses=((0,),)))
        with pytest.raises(ValueError):
            check_formula(CnfFormula(num_vars=2, clauses=((3,),)))

    def test_rejects_bad_quantifier_blocks(self):
        matrix = CnfFormula(num_vars=2, clauses=((1, 2),))
        with pytest.raises(ValueError):
            check_qbf(Qbf2Formula((1, 1), (2,), matrix))
        with pytest.raises(ValueError):
            check_qbf(Qbf2Formula((1,), (1, 2), matrix))
        with pytest.raises(ValueError):
            check_qbf(Qbf2Formula((1,), (), matrix))
        check_qbf(Qbf2Formula((1,), (2,), matrix))


class TestFormulaNet:
    PHI = CnfFormula(num_vars=2, clauses=((1, -2), (2,)))

    def test_feature_layout(self):
        built = formula_net(self.PHI)
        assert built.net.features == (
            "V1^T", "V1^F", "V2^T", "V2^F",
            "P_1_1", "P_1_2", "D_1", "P_2_1", "D_2",
        )
        assert built.var_features == (("V1^T", "V1^F"), ("V2^T", "V2^F"))
        assert built.literal_features == (("P_1_1", "P_1_2"), ("P_2_1",))
        assert built.clause_features == ("D_1", "D_2")
        assert validate_net(built.net) == []

    def test_tables(self):
        net = formula_net(self.PHI).net
        for name in ("V1^T", "V1^F", "V2^T", "V2^F"):
            assert net.tables[name].parents == ()
            assert net.tables[name].rows == {(): 1}
        lit = net.tables["P_1_1"]
        assert lit.parents == ("V1^T", "V1^F")
        assert lit.rows == {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 0}
        neg = net.tables["P_1_2"]
        assert neg.parents == ("V2^T", "V2^F")
        assert neg.rows[(0, 1)] == 1
        assert sum(neg.rows.values()) == 1
        d1 = net.tables["D_1"]
        assert d1.parents == ("P_1_1", "P_1_2")
        assert d1.rows == {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}
        d2 = net.tables["D_2"]
        assert d2.parents == ("P_2_1",)
        assert d2.rows == {(0,): 0, (1,): 1}

    def test_special_outcomes(self):
        built = formula_net(self.PHI)
        net = built.net
        assert built.alpha() == 0
        assert built.alpha({1: True, 2: False}) == bits(net, "V1^T", "V2^F")
        assert built.beta_bar() == bits(
            net, "V1^T", "V1^F", "V2^T", "V2^F", "D_1", "D_2"
        )

    def test_encode_assignment_rejects_unknown_variable(self):
        built = formula_net(self.PHI)
        with pytest.raises(ValueError):
            encode_assignment({3: True}, built)

    def test_dominance_tracks_satisfiability(self):
        built = formula_net(self.PHI)
        # The formula is satisfiable, so beta_bar dominates the empty
        # assignment outcome.
        assert dominates(built.net, built.beta_bar(), built.alpha()).holds
        # Fixing x1 false and x2 true falsifies clause 1; the pair becomes
        # incomparable.
        blocked = built.alpha({1: False, 2: True})
        assert incomparable(built.net, built.beta_bar(), blocked)


class TestPyramids:
    def inputs(self, m):
        return [f"S_{i}" for i in range(1, m + 1)]

    def host(self, fragment, m, pinned_zero=()):
        tables = [
            CPTable(s, (), {(): 0 if s in pinned_zero else 1})
            for s in self.inputs(m)
        ]
        tables.extend(fragment.tables[name] for name in fragment.features)
        return net_from_tables(tables)

    def test_single_input(self):
        frag = h_c(["S_1"])
        assert frag.features == ("A_1",)
        assert frag.apex == "A_1"
        assert frag.tables["A_1"].parents == ("S_1",)
        assert frag.tables["A_1"].rows == {(0,): 0, (1,): 1}

    def test_two_inputs(self):
        frag = h_c(self.inputs(2))
        assert frag.features == ("A_1",)
        assert frag.tables["A_1"].parents == ("S_1", "S_2")
        assert frag.tables["A_1"].rows[(1, 1)] == 1
        assert sum(frag.tables["A_1"].rows.values()) == 1

    def test_three_inputs_make_one_triple(self):
        frag = h_c(self.inputs(3))
        assert frag.features == ("A_1",)
        assert frag.tables["A_1"].parents == ("S_1", "S_2", "S_3")

    def test_nine_inputs_layering(self):
        frag = h_c(self.inputs(9))
        parents = {name: frag.tables[name].parents for name in frag.features}
        assert parents == {
            "A_1": ("S_1", "S_2"),
            "A_2": ("S_3", "S_4"),
            "A_3": ("S_5", "S_6"),
            "A_4": ("S_7", "S_8", "S_9"),
            "A_5": ("A_1", "A_2"),
            "A_6": ("A_3", "A_4"),
            "A_7": ("A_5", "A_6"),
        }
        assert frag.apex == "A_7"

    def test_fewer_fresh_features_than_inputs(self):
        for m in range(3, 33):
            assert len(h_c(self.inputs(m)).features) < m
            assert len(h_d(self.inputs(m)).features) < m

    def test_conjunctive_and_disjunctive_semantics(self):
        for m in (1, 2, 3, 5, 8):
            for pinned in ((), ("S_1",)):
                conj = h_c(self.inputs(m))
                disj = h_d(self.inputs(m))
                conj_net = self.host(conj, m, pinned)
                disj_net = self.host(disj, m, pinned)
                opt_c = forward_sweep_optimum(conj_net)
                opt_d = forward_sweep_optimum(disj_net)
                apex_c = bits(conj_net, conj.apex)
                apex_d = bits(disj_net, disj.apex)
                all_up = not pinned
                some_up = m > 1 or not pinned
                assert bool(opt_c & apex_c) == all_up
                assert bool(opt_d & apex_d) == some_up

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            h_c([])


class TestDirectNet:
    def test_tables_point_at_alpha(self):
        net = direct_net(0b101, ["X", "Y", "Z"])
        assert [net.tables[f].rows[()] for f in net.features] == [1, 0, 1]
        assert forward_sweep_optimum(net) == 0b101
        assert validate_net(net) == []

    def test_dominance_is_disagreement_containment(self):
        alpha = 0b0110
        net = direct_net(alpha, ["A", "B", "C", "D"])
        clo = closure(build_graph(net))
        for a in range(16):
            for b in range(16):
                if a == b:
                    continue
                da, db = a ^ alpha, b ^ alpha
                expected = (db & ~da) == 0 and db != da
                assert clo.dominates(b, a) == expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            direct_net(0, [])
        with pytest.raises(ValueError):
            direct_net(8, ["A", "B", "C"])


class TestSummarizedNet:
    def test_structure(self):
        built = summarized_formula_net(CnfFormula(num_vars=1, clauses=((1,),)))
        net = built.net
        assert net.features == (
            "V1^T", "V1^F", "P_1_1", "D_1", "A_1", "U1", "U2"
        )
        for name in ("V1^T", "V1^F"):
            assert net.tables[name].parents == ("U1",)
            assert net.tables[name].rows == {(0,): 1, (1,): 0}
        lit = net.tables["P_1_1"]
        assert lit.parents == ("U1", "V1^T", "V1^F")
        assert lit.rows[(0, 1, 0)] == 1
        assert sum(lit.rows.values()) == 1
        assert net.tables["D_1"].parents == ("P_1_1",)
        assert net.tables["A_1"].parents == ("D_1",)
        assert net.tables["U1"].parents == ()
        assert net.tables["U1"].rows == {(): 1}
        assert net.tables["U2"].parents == ("A_1",)
        assert net.tables["U2"].rows == {(1,): 1, (0,): 0}
        assert validate_net(net) == []
        assert built.beta_bar() == bits(net, "U1", "U2")

    def test_negative_literal_rows(self):
        built = summarized_formula_net(CnfFormula(num_vars=1, clauses=((-1,),)))
        lit = built.net.tables["P_1_1"]
        assert lit.rows[(0, 0, 1)] == 1
        assert sum(lit.rows.values()) == 1

    def test_dominance_tracks_satisfiability(self):
        sat = summarized_formula_net(CnfFormula(num_vars=1, clauses=((1,),)))
        assert dominates(sat.net, sat.beta_bar(), sat.alpha()).holds
        unsat = summarized_formula_net(
            CnfFormula(num_vars=1, clauses=((1,), (-1,)))
        )
        assert incomparable(unsat.net, unsat.beta_bar(), unsat.alpha())

    def test_rejects_wrong_name_count(self):
        with pytest.raises(ValueError):
            summarized_formula_net(
                CnfFormula(num_vars=2, clauses=((1, 2),)),
                var_names=(("A", "B"),),
            )


class TestMIpo:
    def test_structure(self):
        gadget = m_ipo(CnfFormula(num_vars=1, clauses=((1,),)))
        profile = gadget.profile
        assert profile.m == 2
        assert validate_profile(profile) == []
        assert profile.features == (
            "V1^T^a", "V1^F^a", "P_1_1^a", "D_1^a",
            "V1^T^b", "V1^F^b", "P_1_1^b", "D_1^b",
            "A_1",
        )
        one, two = profile.agents
        # Agent 1 watches copy a and gates copy b's variables on the apex.
        assert one.tables["A_1"].parents == ("D_1^a",)
        assert one.tables["V1^T^b"].parents == ("A_1",)
        assert one.tables["V1^T^b"].rows == {(1,): 1, (0,): 0}
        assert one.tables["V1^T^a"].parents == ()
        assert one.tables["V1^T^a"].rows == {(): 1}
        # Agent 2 mirrors the roles.
        assert two.tables["A_1"].parents == ("D_1^b",)
        assert two.tables["V1^T^a"].parents == ("A_1",)
        assert two.tables["V1^F^b"].parents == ()

    def test_var_feature_bookkeeping(self):
        gadget = m_ipo(CnfFormula(num_vars=2, clauses=((1, -2),)))
        assert gadget.var_features_a == (
            ("V1^T^a", "V1^F^a"), ("V2^T^a", "V2^F^a")
        )
        assert gadget.clause_features_b == ("D_1^b",)
        assert gadget.apex == gadget.hc_features[-1]


class TestMNoWin:
    # Each agent's order over (A, B), best first:
    #   agent 0: 11 10 00 01, agent 1: 10 00 01 11,
    #   agent 2: 00 01 11 10, agent 3: 01 11 10 00.
    EXPECTED_REACH = [
        [0b1100, 0b1101, 0b1000, 0b0000],
        [0b0100, 0b0101, 0b0000, 0b0111],
        [0b0000, 0b0001, 0b1011, 0b0011],
        [0b1110, 0b0000, 0b1010, 0b0010],
    ]

    def test_exact_total_orders(self, nowin_profile):
        assert nowin_profile.m == 4
        assert validate_profile(nowin_profile) == []
        for agent, expected in zip(nowin_profile.agents, self.EXPECTED_REACH):
            assert closure(build_graph(agent)).reach == expected

    def test_every_outcome_loses_a_majority_vote(self, nowin_profile):
        closures = [
            closure(build_graph(a)) for a in nowin_profile.agents
        ]
        for alpha in range(4):
            assert any(
                sum(c.dominates(beta, alpha) for c in closures) >= 3
                for beta in range(4)
                if beta != alpha
            )


TINY_QBF = Qbf2Formula(
    exists_vars=(1,),
    forall_vars=(2,),
    matrix=CnfFormula(num_vars=2, clauses=((1, 2),)),
)


class TestMEml:
    def test_universe_and_validity(self):
        gadget = m_eml(TINY_QBF)
        assert gadget.profile.m == 6
        assert validate_profile(gadget.profile) == []
        assert gadget.net.features == (
            "V1^T", "V1^F", "W1^T", "W1^F", "V1'",
            "P_1_1", "P_1_2", "D_1", "A_1",
            "B_1", "B_2", "B_3", "B_4",
            "U1", "U2",
        )

    def test_agent_tables(self):
        gadget = m_eml(TINY_QBF)
        n1, n2, n3, n4, n5, n6 = gadget.profile.agents
        # Agent 1: the summarized net with primes and pyramid B pinned low.
        assert n1.tables["U1"].parents == ()
        assert n1.tables["U1"].rows == {(): 1}
        assert n1.tables["V1'"].rows == {(): 0}
        assert n1.tables["B_4"].rows == {(): 0}
        assert n1.tables["V1^T"].parents == ("U1",)
        # Agent 2 swaps the roles of U1 and U2 everywhere.
        assert n2.tables["U2"].parents == ()
        assert n2.tables["U2"].rows == {(): 1}
        assert n2.tables["U1"].parents == ("A_1",)
        assert n2.tables["V1^T"].parents == ("U2",)
        # Agents 3 and 4 are the same watcher.
        assert n3 == n4
        assert n3.tables["V1'"].parents == ("V1^T", "V1^F")
        assert n3.tables["V1'"].rows[(1, 1)] == 1
        assert sum(n3.tables["V1'"].rows.values()) == 1
        assert n3.tables["W1^T"].rows == {(): 0}
        assert n3.tables["B_3"].parents == ("P_1_2", "D_1", "A_1")
        assert n3.tables["U1"].parents == ("B_4",)
        assert n3.tables["U2"].parents == ("U1",)
        # Agent 5 raises U1 then U2.
        assert n5.tables["U1"].rows == {(): 1}
        assert n5.tables["U2"].parents == ("U1",)
        assert n5.tables["V1^T"].rows == {(): 0}
        # Agent 6 prefers U2 high and everything else low once U2 is up.
        assert n6.tables["U2"].parents == ()
        assert n6.tables["U2"].rows == {(): 1}
        assert n6.tables["U1"].parents == ("U2",)
        assert n6.tables["U1"].rows == {(1,): 0, (0,): 1}

    def test_individual_optima(self):
        gadget = m_eml(TINY_QBF)
        net = gadget.net
        u1, u2 = bits(net, "U1"), bits(net, "U2")
        optima = [forward_sweep_optimum(a) for a in gadget.profile.agents]
        assert optima == [u1, u2, 0, 0, u1 | u2, u2]

    def test_outcome_helpers(self):
        gadget = m_eml(TINY_QBF)
        assert gadget.alpha_bar() == bits(gadget.net, "U1", "U2")
        assert gadget.beta_sigma({1: True}) == bits(gadget.net, "V1^T")
        assert gadget.beta_sigma({1: False}) == bits(gadget.net, "V1^F")
        with pytest.raises(ValueError):
            gadget.beta_sigma({2: True})


class TestMImm:
    def test_structure(self):
        gadget = m_imm(TINY_QBF)
        assert gadget.profile.m == 3
        assert validate_profile(gadget.profile) == []
        reference = m_eml(TINY_QBF)
        assert gadget.profile.agents[0] == reference.profile.agents[0]
        assert gadget.profile.agents[2] == reference.profile.agents[2]
        # The middle agent is the edgeless net aimed at alpha_bar.
        middle = gadget.profile.agents[1]
        expected = direct_net(gadget.alpha_bar(), gadget.net.features)
        assert middle == expected
        assert forward_sweep_optimum(middle) == gadget.alpha_bar()

    def test_outcome_helpers_shared_with_m_eml(self):
        gadget = m_imm(TINY_QBF)
        assert gadget.alpha_bar() == bits(gadget.net, "U1", "U2")
        assert gadget.beta_sigma({1: True}) == bits(gadget.net, "V1^T")
        with pytest.raises(ValueError):
            gadget.beta_sigma({2: False})


class TestDimacs:
    def test_parse_basic(self):
        text = """c a small instance
p cnf 3 2
1 -3 0
% another comment style
2 3 -1 0
"""
        phi = parse_dimacs(text)
        assert phi == CnfFormula(num_vars=3, clauses=((1, -3), (2, 3, -1)))

    def test_trailing_clause_without_zero(self):
        phi = parse_dimacs("p cnf 2 2\n1 0\n-2")
        assert phi.clauses == ((1,), (-2,))

    def test_clause_split_across_lines(self):
        phi = parse_dimacs("p cnf 3 1\n1\n2 3 0")
        assert phi.clauses == ((1, 2, 3),)

    def test_missing_header(self):
        with pytest.raises(ValueError):
            parse_dimacs("1 2 0")

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_dimacs("p sat 3 1\n1 0")

    def test_oversized_clause_rejected(self):
        with pytest.raises(ValueError):
            parse_dimacs("p cnf 4 1\n1 2 3 4 0")

    @pytest.mark.parametrize("declared", [3, 99999999999])
    def test_header_may_not_declare_unused_variables(self, declared):
        with pytest.raises(ValueError, match="no clause uses a variable above 2"):
            parse_dimacs(f"p cnf {declared} 1\n1 -2 0")


class TestQdimacs:
    def test_parse_basic(self):
        text = """p cnf 3 2
e 1 0
a 2 3 0
1 2 0
-1 3 0
"""
        formula = parse_qdimacs(text)
        assert formula.exists_vars == (1,)
        assert formula.forall_vars == (2, 3)
        assert formula.matrix == CnfFormula(
            num_vars=3, clauses=((1, 2), (-1, 3))
        )

    def test_header_is_optional(self):
        formula = parse_qdimacs("e 1 0\na 2 0\n1 -2 0")
        assert formula.matrix.num_vars == 2

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(ValueError):
            parse_qdimacs("e 1 0\na 1 2 0\n1 2 0")

    def test_blocks_must_cover_matrix(self):
        with pytest.raises(ValueError):
            parse_qdimacs("p cnf 2 1\ne 1 0\n1 2 0")

    @pytest.mark.parametrize(
        "exists, forall, num_vars",
        [
            ((1,), (2,), 3),
            ((1,), (3,), 2),
            ((0,), (2,), 2),
            ((1, 2), (3,), 2),
        ],
    )
    def test_partition_is_counted(self, exists, forall, num_vars):
        matrix = CnfFormula(num_vars=num_vars, clauses=((1, 2),))
        with pytest.raises(ValueError, match="partition"):
            check_qbf(Qbf2Formula(exists, forall, matrix))

    def test_partition_of_a_huge_count_is_refused_fast(self):
        proc = run_capped(
            "-c",
            "from cpnets import CnfFormula, Qbf2Formula, check_qbf\n"
            "try:\n"
            "    check_qbf(Qbf2Formula((1,), (2,), CnfFormula(99999999999, ((1, 2),))))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n",
        )
        assert (proc.returncode, proc.stdout) == (
            0,
            "the blocks must partition the matrix variables\n",
        ), proc.stderr
