"""Generators for nets and profiles whose preference structure tracks
Boolean satisfiability.

The constructions here are used by the verification oracle and the test
suite. The common convention throughout: value 1 of a feature is the
"raised" value that encodes progress (a satisfied literal, a satisfied
clause, a fired gate), and the interesting dominance questions compare
outcomes that differ in which features are raised.

Naming: variable pairs "V1^T"/"V1^F" (or "W1^T"/"W1^F" for the
universally quantified block), literal features "P_j_k" (clause j,
position k), clause features "D_j", pyramid features "A_5"/"B_3",
copy suffixes "^a"/"^b", gate features "U1"/"U2".

Both formula nets share one variable, literal and clause layer; the
summarized net gates it on U1 and is a FormulaNet with a pyramid and two
gates added. m_imm returns an MImm, which is an MEml with the same fields
and outcome helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Mapping, Sequence

from .model import CPNet, CPTable, MCPNet, check_outcome, net_from_tables, value_at

PartialAssignment = Mapping[int, bool]

# The table of a feature that prefers whatever value its one parent has.
_FOLLOW = {(1,): 1, (0,): 0}

# The gate features of the summarized net and the quantified profiles.
U1, U2 = "U1", "U2"


@dataclass
class CnfFormula:
    """CNF with clauses of one to three literals.

    Literals are nonzero ints: +i for variable i, -i for its negation,
    with 1 <= i <= num_vars.
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]


@dataclass
class Qbf2Formula:
    """Two-block quantified formula: exists X, for all Y, not matrix(X, Y).

    The blocks partition the matrix variables 1..num_vars.
    """

    exists_vars: tuple[int, ...]
    forall_vars: tuple[int, ...]
    matrix: CnfFormula


def check_formula(phi: CnfFormula) -> None:
    if phi.num_vars < 1:
        raise ValueError("formula needs at least one variable")
    if not phi.clauses:
        raise ValueError("formula needs at least one clause")
    for j, clause in enumerate(phi.clauses, start=1):
        if not 1 <= len(clause) <= 3:
            raise ValueError(f"clause {j} must have 1 to 3 literals")
        for lit in clause:
            if lit == 0 or abs(lit) > phi.num_vars:
                raise ValueError(f"clause {j} has out-of-range literal {lit}")


def check_qbf(formula: Qbf2Formula) -> None:
    exists, forall = set(formula.exists_vars), set(formula.forall_vars)
    if len(exists) != len(formula.exists_vars) or len(forall) != len(
        formula.forall_vars
    ):
        raise ValueError("a quantifier block repeats a variable")
    if exists & forall:
        raise ValueError("the quantifier blocks overlap")
    check_formula(formula.matrix)
    # Counted, not listed: the disjoint blocks cover 1..n exactly when
    # they hold n variables, each in range.
    n = formula.matrix.num_vars
    if len(exists) + len(forall) != n or not all(1 <= v <= n for v in exists | forall):
        raise ValueError("the blocks must partition the matrix variables")


# ---------------------------------------------------------------------------
# Formula nets
# ---------------------------------------------------------------------------


@dataclass
class FormulaNet:
    """A net whose dominance relation between alpha() and beta_bar()
    coincides with satisfiability of the generating formula.

    Per variable x_i two parentless features V_i^T / V_i^F that always
    prefer 1; per literal occurrence a feature raised only under the parent
    pattern encoding "this literal is satisfied"; per clause a feature
    raised as soon as one of its literal features is raised.
    """

    net: CPNet
    var_features: tuple[tuple[str, str], ...]
    literal_features: tuple[tuple[str, ...], ...]
    clause_features: tuple[str, ...]

    def alpha(self, sigma: PartialAssignment | None = None) -> int:
        """Outcome encoding an assignment on the variable pairs, all other
        features 0. With no argument: the all-zero outcome."""
        return encode_assignment(sigma or {}, self)

    def beta_bar(self) -> int:
        """Outcome with exactly the variable and clause features raised."""
        pairs = (name for pair in self.var_features for name in pair)
        return self.net.mask(*pairs, *self.clause_features)


def _rows(width: int, raise_when: Callable[[tuple], bool]) -> dict[tuple, int]:
    """The full table over `width` parents: prefer 1 exactly where
    raise_when holds of the parent values."""
    return {
        cond: (1 if raise_when(cond) else 0) for cond in product((0, 1), repeat=width)
    }


def _formula_layers(
    phi: CnfFormula, var_names: Sequence[tuple[str, str]], gates: tuple[str, ...] = ()
) -> tuple[list[CPTable], tuple[tuple[str, ...], ...], tuple[str, ...]]:
    """Tables of the variable pairs, then per clause its literal features
    P_j_k and its clause feature D_j; returns them with the literal and
    clause feature tuples. Variable and literal features rise only while
    every gate parent is 0."""
    closed = (0,) * len(gates)
    var_rows = _rows(len(gates), lambda cond: cond == closed)
    tables = [CPTable(name, gates, var_rows) for pair in var_names for name in pair]
    # A literal rises over (V^T, V^F) = (1, 0), or (0, 1) when negated.
    literal_rows = {
        want: _rows(len(gates) + 2, lambda cond: cond == closed + want)
        for want in ((1, 0), (0, 1))
    }
    literal_features = []
    for j, clause in enumerate(phi.clauses, start=1):
        names = tuple(f"P_{j}_{k}" for k in range(1, len(clause) + 1))
        for name, lit in zip(names, clause):
            parents = (*gates, *var_names[abs(lit) - 1])
            rows = literal_rows[(1, 0) if lit > 0 else (0, 1)]
            tables.append(CPTable(name, parents, rows))
        literal_features.append(names)
        tables.append(CPTable(f"D_{j}", names, _rows(len(names), any)))
    clause_features = tuple(f"D_{j}" for j in range(1, len(phi.clauses) + 1))
    return tables, tuple(literal_features), clause_features


def _var_pairs(letter: str, count: int) -> tuple[tuple[str, str], ...]:
    """The name pairs (letter{i}^T, letter{i}^F) for i = 1..count."""
    return tuple((f"{letter}{i}^T", f"{letter}{i}^F") for i in range(1, count + 1))


def formula_net(phi: CnfFormula) -> FormulaNet:
    check_formula(phi)
    var_features = _var_pairs("V", phi.num_vars)
    tables, literal_features, clause_features = _formula_layers(phi, var_features)
    return FormulaNet(
        net=net_from_tables(tables),
        var_features=var_features,
        literal_features=literal_features,
        clause_features=clause_features,
    )


def encode_assignment(sigma: PartialAssignment, context) -> int:
    """Outcome with the variable pairs of `context` set per sigma.

    true -> (1, 0) on (V^T, V^F), false -> (0, 1), unassigned -> (0, 0);
    every feature outside the variable pairs is 0. The context is any
    object with .net and .var_features (FormulaNet, SummarizedNet, or a
    profile wrapper).
    """
    pairs = context.var_features
    raised = []
    for var, val in sigma.items():
        if not 1 <= var <= len(pairs):
            raise ValueError(f"assignment mentions unknown variable {var}")
        raised.append(pairs[var - 1][0 if val else 1])
    return context.net.mask(*raised)


# ---------------------------------------------------------------------------
# Interconnecting pyramids
# ---------------------------------------------------------------------------


@dataclass
class NetFragment:
    """A set of fresh features wired over existing input features.

    features are in layer order ending at the apex; tables may reference
    the inputs as parents. Merge into a net by adding these tables to the
    host's.
    """

    features: tuple[str, ...]
    tables: dict[str, CPTable]
    apex: str


def _layer_groups(layer: Sequence[str]) -> list[Sequence[str]]:
    k = len(layer)
    if k == 1:
        return [layer]
    if k % 2 == 0:
        return [layer[i : i + 2] for i in range(0, k, 2)]
    head = [layer[i : i + 2] for i in range(0, k - 3, 2)]
    head.append(layer[-3:])
    return head


def _pyramid(
    inputs: Sequence[str], prefix: str, raise_when: Callable[[tuple], bool]
) -> NetFragment:
    if not inputs:
        raise ValueError("interconnecting net needs at least one input")
    order: list[str] = []
    tables: dict[str, CPTable] = {}
    current = list(inputs)
    counter = 0
    while True:
        next_layer = []
        for group in _layer_groups(current):
            counter += 1
            name = f"{prefix}_{counter}"
            tables[name] = CPTable(name, tuple(group), _rows(len(group), raise_when))
            order.append(name)
            next_layer.append(name)
        current = next_layer
        if len(current) == 1:
            return NetFragment(tuple(order), tables, apex=current[0])


def h_c(inputs: Sequence[str], prefix: str = "A") -> NetFragment:
    """Conjunctive pyramid: the apex can rise only once every input is 1.

    Layered pairwise left to right; an odd layer of three or more ends in
    one triple, so no feature ever has more than three parents and at most
    one feature per layer has three. For three or more inputs the fragment
    has fewer fresh features than inputs; one input yields a single-parent
    apex, two yield a two-parent apex.
    """
    return _pyramid(inputs, prefix, all)


def h_d(inputs: Sequence[str], prefix: str = "A") -> NetFragment:
    """Disjunctive pyramid: same shape as h_c, apex rises when at least
    one input is 1."""
    return _pyramid(inputs, prefix, any)


# ---------------------------------------------------------------------------
# Direct nets
# ---------------------------------------------------------------------------


def direct_net(alpha: int, features: Sequence[str]) -> CPNet:
    """Edgeless net whose unique optimum is alpha: every feature
    unconditionally prefers its value in alpha, so any outcome is dominated
    by every outcome strictly closer to alpha (same disagreements minus at
    least one)."""
    feats = tuple(features)
    if not feats:
        raise ValueError("direct net needs at least one feature")
    n = len(feats)
    net = net_from_tables(
        [
            CPTable(name, (), {(): value_at(alpha, n, i)})
            for i, name in enumerate(feats)
        ]
    )
    check_outcome(net, alpha)
    return net


# ---------------------------------------------------------------------------
# Summarized formula nets
# ---------------------------------------------------------------------------


@dataclass
class SummarizedNet(FormulaNet):
    """Formula net variant with two gate features.

    U1 is parentless and prefers 1; while U1 is 0 the variable and literal
    features behave as in the plain formula net, and once U1 is 1 they are
    frozen low. U2 hangs under the apex of a conjunctive pyramid over the
    clause features. Dominance of beta_bar() (only U1, U2 raised) over
    alpha() summarizes satisfiability in a net whose interesting flips are
    funneled through two features.
    """

    hc_features: tuple[str, ...]
    apex: str
    u1 = U1
    u2 = U2

    def beta_bar(self) -> int:
        """Outcome raising exactly U1 and U2."""
        return self.net.mask(U1, U2)


def summarized_formula_net(
    phi: CnfFormula,
    var_names: Sequence[tuple[str, str]] | None = None,
) -> SummarizedNet:
    check_formula(phi)
    if var_names is None:
        var_names = _var_pairs("V", phi.num_vars)
    if len(var_names) != phi.num_vars:
        raise ValueError("need one name pair per variable")
    tables, literal_features, clause_features = _formula_layers(phi, var_names, (U1,))
    frag = h_c(clause_features, prefix="A")
    tables.extend(frag.tables[name] for name in frag.features)
    tables.append(CPTable(U1, (), {(): 1}))
    tables.append(CPTable(U2, (frag.apex,), _FOLLOW))
    return SummarizedNet(
        net=net_from_tables(tables),
        var_features=tuple(var_names),
        literal_features=literal_features,
        clause_features=clause_features,
        hc_features=frag.features,
        apex=frag.apex,
    )


# ---------------------------------------------------------------------------
# Two-agent profile for Pareto-optimality questions
# ---------------------------------------------------------------------------


@dataclass
class MIpo:
    """Two agents over two formula-net copies joined by a conjunctive
    pyramid. In agent 1 the pyramid watches copy a's clause features and
    its apex gates copy b's variable features; agent 2 mirrors the roles.
    The all-zero outcome is Pareto optimal exactly when the formula is
    unsatisfiable."""

    profile: MCPNet
    var_features_a: tuple[tuple[str, str], ...]
    var_features_b: tuple[tuple[str, str], ...]
    clause_features_a: tuple[str, ...]
    clause_features_b: tuple[str, ...]
    hc_features: tuple[str, ...]
    apex: str

    @property
    def net(self) -> CPNet:
        return self.profile.agents[0]


def _renamed(
    tables: Mapping[str, CPTable], rename: Callable[[str], str]
) -> dict[str, CPTable]:
    """The tables with every feature and parent name passed through rename."""
    return {
        rename(name): CPTable(rename(name), tuple(map(rename, t.parents)), t.rows)
        for name, t in tables.items()
    }


def _suffixed(f: FormulaNet, suffix: str) -> FormulaNet:
    def r(s: str) -> str:
        return s + suffix

    return FormulaNet(
        net=CPNet(tuple(map(r, f.net.features)), _renamed(f.net.tables, r)),
        var_features=tuple((r(a), r(b)) for a, b in f.var_features),
        literal_features=tuple(tuple(map(r, c)) for c in f.literal_features),
        clause_features=tuple(map(r, f.clause_features)),
    )


def m_ipo(phi: CnfFormula) -> MIpo:
    base = formula_net(phi)
    copy_a, copy_b = _suffixed(base, "^a"), _suffixed(base, "^b")
    agent_tables = []
    for watched, gated in ((copy_a, copy_b), (copy_b, copy_a)):
        # Both pyramids get the same names A_1.., so one universe fits both.
        frag = h_c(watched.clause_features)
        tables = {**copy_a.net.tables, **copy_b.net.tables, **frag.tables}
        for name in (name for pair in gated.var_features for name in pair):
            tables[name] = CPTable(name, (frag.apex,), _FOLLOW)
        agent_tables.append(tables)
    universe = copy_a.net.features + copy_b.net.features + frag.features
    return MIpo(
        profile=MCPNet(agents=tuple(CPNet(universe, t) for t in agent_tables)),
        var_features_a=copy_a.var_features,
        var_features_b=copy_b.var_features,
        clause_features_a=copy_a.clause_features,
        clause_features_b=copy_b.clause_features,
        hc_features=frag.features,
        apex=frag.apex,
    )


# ---------------------------------------------------------------------------
# Fixed four-agent paradox profile
# ---------------------------------------------------------------------------


def m_nowin() -> MCPNet:
    """Four single-edge nets over features (A, B) inducing the total orders

        agent 0: 11 > 10 > 00 > 01
        agent 1: 10 > 00 > 01 > 11
        agent 2: 00 > 01 > 11 > 10
        agent 3: 01 > 11 > 10 > 00

    Every outcome is majority-dominated by some other outcome, so the
    profile has no majority optimal (and hence no majority optimum)
    outcome.
    """
    a_high, a_low, b_high, b_low = (
        CPTable(name, (), {(): v}) for name in "AB" for v in (1, 0)
    )
    a_against_b = CPTable("A", ("B",), {(0,): 1, (1,): 0})
    b_follows_a = CPTable("B", ("A",), _FOLLOW)
    agents = (
        (a_high, b_follows_a),
        (a_against_b, b_low),
        (a_low, b_follows_a),
        (a_against_b, b_high),
    )
    return MCPNet(agents=tuple(map(net_from_tables, agents)))


# ---------------------------------------------------------------------------
# Quantified-formula profiles
# ---------------------------------------------------------------------------


def _low(names: Sequence[str]) -> dict[str, CPTable]:
    """One table per name, pinned low: parentless, prefer 0."""
    return {name: CPTable(name, (), {(): 0}) for name in names}


def _quantified(
    formula: Qbf2Formula,
) -> tuple[
    tuple[str, ...], tuple[tuple[str, str], ...], dict[str, CPTable], dict[str, CPTable]
]:
    """The universe both quantified profiles share, ending in U1 and U2;
    the variable pairs, V for the exists block and W for the forall block;
    and two table sets. The flat tables are the summarized net with every
    prime V_i' and pyramid-B feature pinned low. In the watcher tables
    everything prefers 0 except that each prime rises over a fully raised
    variable pair, the disjunctive pyramid B watches the primes and the
    rest of the machinery, and U1/U2 chain off its apex."""
    check_qbf(formula)
    pairs = dict(zip(formula.exists_vars, _var_pairs("V", len(formula.exists_vars))))
    pairs.update(zip(formula.forall_vars, _var_pairs("W", len(formula.forall_vars))))
    names = tuple(pairs[v] for v in range(1, formula.matrix.num_vars + 1))
    summary = summarized_formula_net(formula.matrix, var_names=names)
    primes = tuple(f"V{i}'" for i in range(1, len(formula.exists_vars) + 1))
    w_flat = tuple(
        name for v in formula.forall_vars for name in names[v - 1]
    )
    lit_flat = tuple(p for c in summary.literal_features for p in c)
    watched = (
        primes
        + w_flat
        + lit_flat
        + summary.clause_features
        + summary.hc_features
    )
    b_fragment = h_d(watched, prefix="B")
    var_flat = tuple(name for pair in names for name in pair)
    universe = (
        var_flat
        + primes
        + lit_flat
        + summary.clause_features
        + summary.hc_features
        + b_fragment.features
        + (U1, U2)
    )
    flat = {**summary.net.tables, **_low(primes + b_fragment.features)}
    watcher = _low(universe)
    for prime, v in zip(primes, formula.exists_vars):
        watcher[prime] = CPTable(prime, names[v - 1], _rows(2, all))
    watcher.update(b_fragment.tables)
    watcher[U1] = CPTable(U1, (b_fragment.apex,), _FOLLOW)
    watcher[U2] = CPTable(U2, (U1,), _FOLLOW)
    return universe, names, flat, watcher


@dataclass
class MEml:
    """Six agents over the shared quantified-formula universe; a majority
    optimal outcome exists exactly when some choice for the existential
    block falsifies the matrix under every universal completion."""

    profile: MCPNet
    var_features: tuple[tuple[str, str], ...]
    exists_vars: tuple[int, ...]
    u1 = U1
    u2 = U2

    @property
    def net(self) -> CPNet:
        return self.profile.agents[0]

    def alpha_bar(self) -> int:
        return self.net.mask(U1, U2)

    def beta_sigma(self, sigma: PartialAssignment) -> int:
        allowed = set(self.exists_vars)
        if any(v not in allowed for v in sigma):
            raise ValueError("assignment must stay within the exists block")
        return encode_assignment(sigma, self)


class MImm(MEml):
    """Three agents over the shared quantified-formula universe; the only
    possible majority optimum is alpha_bar(), and it is one exactly when
    the quantified formula is not valid."""


def m_eml(formula: Qbf2Formula) -> MEml:
    universe, var_features, flat, watcher = _quantified(formula)
    swap = {U1: U2, U2: U1}
    n2 = _renamed(flat, lambda s: swap.get(s, s))

    n5 = _low(universe)
    n5[U1] = CPTable(U1, (), {(): 1})
    n5[U2] = CPTable(U2, (U1,), _FOLLOW)

    n6: dict[str, CPTable] = {
        name: CPTable(name, (U2,), {(1,): 0, (0,): 1})
        for name in universe
        if name != U2
    }
    n6[U2] = CPTable(U2, (), {(): 1})

    agents = tuple(
        CPNet(universe, t) for t in (flat, n2, watcher, watcher, n5, n6)
    )
    return MEml(
        profile=MCPNet(agents=agents),
        var_features=var_features,
        exists_vars=formula.exists_vars,
    )


def m_imm(formula: Qbf2Formula) -> MImm:
    universe, var_features, flat, watcher = _quantified(formula)
    flat_net = CPNet(universe, flat)
    agents = (
        flat_net,
        direct_net(flat_net.mask(U1, U2), universe),
        CPNet(universe, watcher),
    )
    return MImm(
        profile=MCPNet(agents=agents),
        var_features=var_features,
        exists_vars=formula.exists_vars,
    )


# ---------------------------------------------------------------------------
# DIMACS-style input
# ---------------------------------------------------------------------------


def _read_dimacs(
    text: str, blocks: str = ""
) -> tuple[int | None, dict[str, list[int]], tuple[tuple[int, ...], ...]]:
    """Tokenize DIMACS-style text: the variable count of the 'p cnf' header
    (None without one), the variables listed on each quantifier line whose
    letter is in `blocks`, and the clauses, each ended by 0. Lines starting
    with 'c' or '%' are comments."""
    num_vars = None
    quantified: dict[str, list[int]] = {letter: [] for letter in blocks}
    tokens: list[int] = []
    for line in text.splitlines():
        s = line.strip()
        if not s or s.startswith(("c", "%")):
            continue
        if s.startswith("p"):
            parts = s.split()
            if len(parts) < 4 or parts[1] != "cnf":
                raise ValueError(f"bad header line: {s!r}")
            num_vars = int(parts[2])
        elif s[0] in quantified:
            quantified[s[0]].extend(int(t) for t in s.split()[1:] if t != "0")
        else:
            tokens.extend(int(tok) for tok in s.split())
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for tok in tokens:
        if tok:
            current.append(tok)
        elif current:
            clauses.append(tuple(current))
            current = []
    if current:
        clauses.append(tuple(current))
    return num_vars, quantified, tuple(clauses)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse conjunctive-normal-form text: a 'p cnf <vars> <clauses>'
    header, then whitespace-separated literals with 0 ending each clause.
    The header may not declare more variables than the clauses use: unused
    trailing variables would only add free feature pairs to every gadget."""
    num_vars, _, clauses = _read_dimacs(text)
    if num_vars is None:
        raise ValueError("missing 'p cnf' header")
    phi = CnfFormula(num_vars=num_vars, clauses=clauses)
    check_formula(phi)
    used = max(abs(lit) for clause in clauses for lit in clause)
    if num_vars > used:
        raise ValueError(
            f"header declares {num_vars} variables, "
            f"but no clause uses a variable above {used}"
        )
    return phi


def parse_qdimacs(text: str) -> Qbf2Formula:
    """Parse two-block quantified input: an 'e <vars> 0' line, an
    'a <vars> 0' line, then clauses as in plain DIMACS."""
    num_vars, blocks, clauses = _read_dimacs(text, "ea")
    exists, forall = blocks["e"], blocks["a"]
    if num_vars is None:
        num_vars = len(exists) + len(forall)
    formula = Qbf2Formula(
        exists_vars=tuple(exists),
        forall_vars=tuple(forall),
        matrix=CnfFormula(num_vars=num_vars, clauses=clauses),
    )
    check_qbf(formula)
    return formula
