"""Exhaustive reference procedures over explicit preference graphs.

Everything here is derived from per-feature flip sets read directly from
the table rows, so the oracle is an independent check on the incremental
engine in semantics.py rather than a restatement of it. A flip set is one
2**n-bit int per feature: bit u is set when flipping that feature improves
outcome u. Each table row contributes the outcomes that match its parent
condition and hold the feature at its less preferred value. The explicit
graph reads its arcs from the flip sets. Its closure finishes rows in the
net's lexicographic order, best first, and refuses as cyclic a graph with
an arc that does not point earlier. The pair claims (lemma1 and both
corollaries) instead sweep whole frontiers of outcomes through the flip
sets, one level per step, and never build a graph or a closure. Sizes are
capped hard: these routines materialize sets over all 2**n outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import compress, count, product
from typing import Iterator

from .errors import CycleError, InstanceTooLarge
from .gadgets import (
    CnfFormula,
    PartialAssignment,
    Qbf2Formula,
    check_formula,
    check_qbf,
    formula_net,
    m_ipo,
    m_nowin,
    summarized_formula_net,
)
from .model import CPNet, MCPNet, check_outcome, feature_mask, outcome_str

ORACLE_BOUND = 14
SAT_BOUND = 24

# One feature's flip set with its bit and its value masks:
# (own bit, outcomes where the feature is 0, where it is 1, improving flips).
FlipSet = tuple[int, int, int, int]

_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


@dataclass
class ExtendedPreferenceGraph:
    """Explicit improving-flip graph.

    arcs[worse] lists every outcome that is one improving flip better, so
    arcs point from dominated toward dominating along single flips.
    """

    net: CPNet
    arcs: list[list[int]]

    @property
    def n(self) -> int:
        return self.net.n


def _flip_sets(net: CPNet, bound: int) -> list[FlipSet]:
    """One FlipSet per feature, in canonical order, read from the table
    rows: each row ANDs the value masks of its parent condition with the
    mask where the feature holds its less preferred value, and a feature's
    rows are OR-ed together."""
    n = net.n
    if n > bound:
        raise InstanceTooLarge(
            f"net has {n} features; the explicit graph is capped at {bound}"
        )
    size = 1 << n
    full = (1 << size) - 1
    values = []
    for i in range(n):
        # Outcomes in which feature i is 1: blocks of own zeros then own
        # ones, doubled until they cover all outcomes.
        own = feature_mask(n, i)
        ones, width = ((1 << own) - 1) << own, 2 * own
        while width < size:
            ones |= ones << width
            width *= 2
        values.append((full ^ ones, ones))
    sets = []
    for i, name in enumerate(net.features):
        table = net.tables[name]
        parents = [net.index(p) for p in table.parents]
        flips = 0
        for cond in product((0, 1), repeat=len(parents)):
            row = values[i][1 - table.rows[cond]]
            for p, v in zip(parents, cond):
                row &= values[p][v]
            flips |= row
        sets.append((feature_mask(n, i), *values[i], flips))
    return sets


def members(mask: int) -> Iterator[int]:
    """The outcomes in a bitmask, ascending."""
    return compress(count(), bin(mask)[:1:-1].encode().translate(_DIGITS))


def build_graph(net: CPNet, bound: int = ORACLE_BOUND) -> ExtendedPreferenceGraph:
    """Materialize the improving-flip graph from the flip sets. Features
    are walked in canonical order, so each outcome lists its arcs in that
    order."""
    arcs: list[list[int]] = [[] for _ in range(1 << net.n)]
    for own, _, _, flips in _flip_sets(net, bound):
        for u in members(flips):
            arcs[u].append(u ^ own)
    return ExtendedPreferenceGraph(net=net, arcs=arcs)


def _sweep(sets: list[FlipSet], start: int, forward: bool) -> int:
    """Bitmask of the outcomes reachable from start by one or more
    improving flips (forward), or of those from which start is so reachable
    (backward). Each step advances the whole frontier: flipping a feature
    maps a set S to ((S & zero) << own) | ((S & one) >> own), applied to
    S & flips going forward and AND-ed with flips going backward."""
    reached = 0
    frontier = 1 << start
    while frontier:
        step = 0
        for own, zero, one, flips in sets:
            if forward:
                s = frontier & flips
                step |= ((s & zero) << own) | ((s & one) >> own)
            else:
                step |= (((frontier & zero) << own) | ((frontier & one) >> own)) & flips
        frontier = step & ~reached
        reached |= frontier
    return reached


def sinks(graph: ExtendedPreferenceGraph) -> list[int]:
    """Outcomes with no improving flip. A valid acyclic net has exactly
    one, its optimum."""
    return [u for u in range(1 << graph.n) if not graph.arcs[u]]


def to_dot(graph: ExtendedPreferenceGraph) -> str:
    """Graphviz text for the improving-flip graph, nodes labeled with
    outcome bitstrings, arcs pointing from worse to better."""
    n = graph.n
    lines = ["digraph preference {"]
    for u in range(1 << n):
        lines.append(f'  "{outcome_str(u, n)}";')
    for u in range(1 << n):
        for v in graph.arcs[u]:
            lines.append(f'  "{outcome_str(u, n)}" -> "{outcome_str(v, n)}";')
    lines.append("}")
    return "\n".join(lines)


@dataclass
class DominanceClosure:
    """Reachability closure of an improving-flip graph.

    reach[alpha] is a bitmask over outcomes: bit beta is set exactly when
    beta is reachable from alpha by one or more improving flips, i.e. when
    beta dominates alpha.
    """

    n: int
    reach: list[int]

    def dominates(self, beta: int, alpha: int) -> bool:
        check_outcome(self, beta)
        check_outcome(self, alpha)
        return bool((self.reach[alpha] >> beta) & 1)

    def incomparable(self, alpha: int, beta: int) -> bool:
        if alpha == beta:
            raise ValueError("incomparability is defined on distinct outcomes")
        return not (self.dominates(alpha, beta) or self.dominates(beta, alpha))


def _best_first(net: CPNet) -> list[int]:
    """The net's outcomes best first: features parents first, each one's
    value preferred under its parents (by its flip set) before its other
    value. Every improving flip lands earlier: at the first feature where
    the two outcomes differ, both share the parents, and the flip moves it
    to its preferred value."""
    sets, order = _flip_sets(net, net.n), [0]
    for i in net.topo_order:
        own, _, _, flips = sets[i]
        bit = bin(flips | 1 << (1 << net.n))[:2:-1]  # bit[u] is bit u of flips
        order = [
            w for u in order for w in ((u | own, u) if bit[u] == "1" else (u, u | own))
        ]
    return order


def closure(graph: ExtendedPreferenceGraph) -> DominanceClosure:
    """Transitive reachability along the net's _best_first order: OR each
    successor's reflexive row into a reflexive row, and clear the self
    bits at the end. A row is read only once it is finished, so an arc
    that does not point earlier in the order (as on a cycle) raises
    CycleError instead of giving a wrong row."""
    size = 1 << graph.n
    reach, order = [None] * size, _best_first(graph.net)
    try:
        for u in order:
            acc = 1 << u
            for v in graph.arcs[u]:
                acc |= reach[v]
            reach[u] = acc
    except TypeError:
        raise CycleError(
            "improving flips cycle; closure needs an acyclic graph"
        ) from None
    for u in range(size):
        reach[u] ^= 1 << u
    return DominanceClosure(n=graph.n, reach=reach)


# ---------------------------------------------------------------------------
# Formula enumeration
# ---------------------------------------------------------------------------


def sat_enumerate(phi: CnfFormula, sigma: PartialAssignment | None = None) -> bool:
    """True when some total assignment extending sigma satisfies phi,
    by trying every completion of the unassigned variables. Refuses more
    than SAT_BOUND unassigned variables."""
    check_formula(phi)
    fixed = dict(sigma) if sigma else {}
    for var in fixed:
        if not 1 <= var <= phi.num_vars:
            raise ValueError(f"assignment mentions unknown variable {var}")
    unassigned = phi.num_vars - len(fixed)
    if unassigned > SAT_BOUND:
        raise InstanceTooLarge(
            f"{unassigned} unassigned variables; enumeration is capped at {SAT_BOUND}"
        )
    free = [v for v in range(1, phi.num_vars + 1) if v not in fixed]
    values = dict(fixed)
    for bits in range(1 << len(free)):
        for i, v in enumerate(free):
            values[v] = bool((bits >> i) & 1)
        if all(
            any((lit > 0) == values[abs(lit)] for lit in clause)
            for clause in phi.clauses
        ):
            return True
    return False


def qbf2_enumerate(formula: Qbf2Formula) -> bool:
    """Decide exists X for all Y not matrix(X, Y): true when some
    assignment to the exists block leaves the matrix unsatisfiable no
    matter how the forall block is completed. Refuses an exists block of
    more than SAT_BOUND variables."""
    check_qbf(formula)
    xs = list(formula.exists_vars)
    if len(xs) > SAT_BOUND:
        raise InstanceTooLarge(
            f"{len(xs)} exists variables; enumeration is capped at {SAT_BOUND}"
        )
    for bits in range(1 << len(xs)):
        sigma = {v: bool((bits >> i) & 1) for i, v in enumerate(xs)}
        if not sat_enumerate(formula.matrix, sigma):
            return True
    return False


# ---------------------------------------------------------------------------
# Lemma verification
# ---------------------------------------------------------------------------

@dataclass
class LemmaReport:
    tag: str
    ok: bool
    checked: int
    detail: str = ""


def _verify_pairs(build, every_sigma: bool, phi: CnfFormula, bound: int):
    """The formula-net claims: in build(phi), beta_bar dominates
    alpha(sigma) exactly when phi is satisfiable under sigma, and
    alpha(sigma) never dominates beta_bar, so the negative case is
    incomparability, not reverse dominance. lemma1 checks every partial
    assignment sigma, the corollaries only the empty one. One sweep each
    way from beta_bar answers every sigma: forward gives the outcomes that
    dominate beta_bar, backward those it dominates."""
    built = build(phi)
    beta, show = built.beta_bar(), partial(outcome_str, n=built.net.n)
    sets = _flip_sets(built.net, bound)
    above, below = _sweep(sets, beta, True), _sweep(sets, beta, False)
    choices = product((None, True, False), repeat=phi.num_vars if every_sigma else 0)
    for checked, choice in enumerate(choices, start=1):
        sigma = {v: val for v, val in enumerate(choice, start=1) if val is not None}
        alpha, expected = built.alpha(sigma), sat_enumerate(phi, sigma)
        if bool((below >> alpha) & 1) != expected:
            verb = "should dominate" if expected else "should not dominate"
            failure = f"{show(beta)} {verb} {show(alpha)}"
        elif (above >> alpha) & 1:
            failure = f"{show(alpha)} unexpectedly dominates {show(beta)}"
        else:
            continue
        return checked, f"sigma={sigma}: {failure}" if every_sigma else failure
    return checked, None


def _verify_lemma5(phi: CnfFormula, bound: int):
    """The engine's Pareto search under its own default budget: the
    gadget is not an explicit graph, so bound does not apply."""
    from .voting import is_pareto_optimal

    gadget = m_ipo(phi)
    expected = not sat_enumerate(phi)
    actual = is_pareto_optimal(gadget.profile, 0)
    if actual == expected:
        return 1, None
    verb = "should be" if expected else "should not be"
    return 1, f"all-zero outcome {verb} Pareto optimal in the two-agent profile"


def _verify_lemma7(profile: MCPNet, bound: int):
    graphs = [build_graph(agent, bound) for agent in profile.agents]
    optima = []
    for i, graph in enumerate(graphs):
        tops = sinks(graph)
        if len(tops) != 1:
            return 0, f"agent {i} has {len(tops)} flip-free outcomes"
        optima.append(tops[0])
    # The definition-level Pareto optimum set: alpha qualifies when every
    # other outcome reaches alpha in every agent's closure.
    n = profile.n
    size = 1 << n
    actual = (1 << size) - 1
    for graph in graphs:
        for beta, row in enumerate(closure(graph).reach):
            actual &= row | (1 << beta)
    expected = 1 << optima[0] if len(set(optima)) == 1 else 0
    if actual == expected:
        return size, None
    have = [outcome_str(o, n) for o in members(actual)]
    want = [outcome_str(o, n) for o in members(expected)]
    return size, f"Pareto optimum set {have} but individual optima give {want}"


def _verify_theorem_nowin(profile: MCPNet, bound: int):
    """Every outcome is majority-dominated: counting the agents' closure
    rows of alpha in bit planes, plane j holds the outcomes that at least j
    agents prefer to alpha, and plane m // 2 + 1 must not be empty."""
    rows = [closure(build_graph(agent, bound)).reach for agent in profile.agents]
    need = profile.m // 2 + 1
    for alpha, column in enumerate(zip(*rows)):
        planes = [-1] + [0] * need
        for row in column:
            for j in range(need, 0, -1):
                planes[j] |= planes[j - 1] & row
        if not planes[need]:
            show = outcome_str(alpha, profile.n)
            return alpha + 1, f"{show} is not majority-dominated by anything"
    return 1 << profile.n, None


# Claim tag -> (the instance kind it takes, "cnf" for a CnfFormula or
# "profile" for an MCPNet; its check; a builder for the default instance, or
# None when the instance is required). A check takes (instance, bound) and
# returns the cases checked and a failure message or None.
CLAIMS = {
    "corollary1": ("cnf", partial(_verify_pairs, formula_net, False), None),
    "lemma1": ("cnf", partial(_verify_pairs, formula_net, True), None),
    "corollary2": ("cnf", partial(_verify_pairs, summarized_formula_net, False), None),
    "lemma5": ("cnf", _verify_lemma5, None),
    "lemma7": ("profile", _verify_lemma7, None),
    "theorem_nowin": ("profile", _verify_theorem_nowin, m_nowin),
}
LEMMA_TAGS = tuple(CLAIMS)
_INSTANCE_TYPES = {"cnf": CnfFormula, "profile": MCPNet}


def verify_lemma(tag: str, instance=None, *, bound: int = ORACLE_BOUND) -> LemmaReport:
    """Check one of the package's satisfiability-to-preference claims on a
    concrete instance against pure enumeration.

    Formula tags take a CnfFormula (corollary1, lemma1, corollary2,
    lemma5); lemma7 takes any acyclic profile; theorem_nowin takes a
    profile and defaults to the fixed four-agent one. Raises ValueError
    for an unknown tag or an instance that is missing or of the wrong kind.
    """
    if tag not in CLAIMS:
        raise ValueError(
            f"unknown lemma tag {tag!r}; known tags: {', '.join(LEMMA_TAGS)}"
        )
    kind, check, default = CLAIMS[tag]
    if instance is None and default is not None:
        instance = default()
    if not isinstance(instance, _INSTANCE_TYPES[kind]):
        raise ValueError(f"{tag} needs a {kind} instance")
    checked, failure = check(instance, bound)
    return LemmaReport(
        tag=tag, ok=failure is None, checked=checked, detail=failure or "pass"
    )
