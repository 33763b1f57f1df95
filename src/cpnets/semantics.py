"""Single-agent semantics: improving flips, dominance search, optimality.

Dominance between outcomes is witnessed by a sequence of improving flips.
The search runs breadth first from the dominated outcome over the implicit
flip graph, so a returned witness always has the fewest possible steps. The
relation induced on outcomes is a strict partial order; equal outcomes never
dominate each other.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import StateBudgetExceeded
from .model import CPNet, MCPNet, topological_order, value_at

DEFAULT_MAX_STATES = 1 << 24


@dataclass
class FlipSequence:
    """Ordered improving-flip witness from start to end.

    Each step is (feature name, value before, value after), improving at
    the moment it is applied. Validated by replay().
    """

    start: int
    end: int
    steps: tuple[tuple[str, int, int], ...]


@dataclass
class DominanceAnswer:
    holds: bool
    witness: FlipSequence | None = None
    visited: int = 0


def flip_rules(net: CPNet) -> list[tuple[int, int, frozenset[int]]]:
    """Compile the net into per-feature flip tests.

    For feature j the triple is (relevant mask, own bit, triggers): a flip
    of j improves outcome o exactly when (o & relevant) is a trigger, and
    the flipped outcome is o ^ own. A trigger packs one table row's parent
    values together with the feature sitting at the less preferred value.
    The compiled list is cached on the net, which is immutable.
    """
    cached = getattr(net, "_flip_rules", None)
    if cached is not None:
        return cached
    n = net.n
    rules = []
    for j, name in enumerate(net.features):
        table = net.tables[name]
        own = 1 << (n - 1 - j)
        parent_bits = [1 << (n - 1 - net.index(p)) for p in table.parents]
        relevant = own
        for b in parent_bits:
            relevant |= b
        triggers = set()
        for cond, pref in table.rows.items():
            pattern = own if pref == 0 else 0
            for bit, v in zip(parent_bits, cond):
                if v:
                    pattern |= bit
            triggers.add(pattern)
        rules.append((relevant, own, frozenset(triggers)))
    net._flip_rules = rules
    return rules


def worsening_rules(net: CPNet) -> list[tuple[int, int, frozenset[int]]]:
    """The mirror of flip_rules: each trigger is an improving one with the
    feature at its preferred value, so it marks a worsening flip. Cached."""
    cached = getattr(net, "_worsening_rules", None)
    if cached is None:
        cached = net._worsening_rules = [
            (relevant, own, frozenset(t ^ own for t in triggers))
            for relevant, own, triggers in flip_rules(net)
        ]
    return cached


def check_outcome(net: CPNet | MCPNet, outcome: int) -> None:
    """Raise ValueError unless the outcome names one of the 2**n outcomes."""
    if not 0 <= outcome < (1 << net.n):
        raise ValueError(
            f"outcome {outcome} out of range for {net.n} features"
        )


def improving_flips(net: CPNet, outcome: int) -> list[tuple[str, int]]:
    """All single improving flips at an outcome, in canonical feature order.

    Returns (feature name, flipped outcome) pairs; these are exactly the
    outcome's out-neighbors in the preference graph.
    """
    check_outcome(net, outcome)
    flips = []
    for j, (relevant, own, triggers) in enumerate(flip_rules(net)):
        if outcome & relevant in triggers:
            flips.append((net.features[j], outcome ^ own))
    return flips


def is_optimal(net: CPNet, outcome: int) -> bool:
    """True when no improving flip exists at the outcome."""
    check_outcome(net, outcome)
    return all(
        outcome & relevant not in triggers
        for relevant, _, triggers in flip_rules(net)
    )


def forward_sweep_optimum(net: CPNet) -> int:
    """The unique optimum of an acyclic net.

    Walks features parents-first, giving each its preferred value under the
    already chosen parent values.
    """
    n = net.n
    out = 0
    for name in topological_order(net):
        table = net.tables[name]
        cond = tuple(value_at(out, n, net.index(p)) for p in table.parents)
        if table.rows[cond]:
            out |= 1 << (n - 1 - net.index(name))
    return out


def reach_set(
    net: CPNet, alpha: int, max_states: int = DEFAULT_MAX_STATES
) -> set[int]:
    """Every outcome reachable from alpha by improving flips, alpha included.

    Raises StateBudgetExceeded once more than max_states outcomes have been
    visited.
    """
    check_outcome(net, alpha)
    return _search(flip_rules(net), alpha, max_states)


def reverse_reach_set(
    net: CPNet, alpha: int, max_states: int = DEFAULT_MAX_STATES
) -> set[int]:
    """Every outcome reachable from alpha by worsening flips, alpha
    included: the outcomes alpha dominates. Same budget as reach_set."""
    check_outcome(net, alpha)
    return _search(worsening_rules(net), alpha, max_states)


def _search(rules, alpha: int, max_states: int) -> set[int]:
    seen = {alpha}
    queue = deque((alpha,))
    while queue:
        o = queue.popleft()
        for relevant, own, triggers in rules:
            if o & relevant in triggers:
                s = o ^ own
                if s not in seen:
                    seen.add(s)
                    if len(seen) > max_states:
                        raise StateBudgetExceeded(len(seen), max_states)
                    queue.append(s)
    return seen


def dominates(
    net: CPNet,
    beta: int,
    alpha: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> DominanceAnswer:
    """Does beta dominate alpha, i.e. is beta flip-reachable from alpha?

    Breadth-first search from alpha; the witness, when one exists, is a
    shortest flip sequence, with frontier ties broken by canonical feature
    index. dominates(net, x, x) is False: the order is strict.
    """
    check_outcome(net, alpha)
    check_outcome(net, beta)
    if alpha == beta:
        return DominanceAnswer(False, None, 1)
    rules = flip_rules(net)
    prev: dict[int, tuple[int, int] | None] = {alpha: None}
    queue = deque((alpha,))
    while queue:
        o = queue.popleft()
        for j, (relevant, own, triggers) in enumerate(rules):
            if o & relevant in triggers:
                s = o ^ own
                if s in prev:
                    continue
                prev[s] = (o, j)
                if s == beta:
                    return DominanceAnswer(
                        True, _assemble_witness(net, prev, alpha, beta), len(prev)
                    )
                if len(prev) > max_states:
                    raise StateBudgetExceeded(len(prev), max_states)
                queue.append(s)
    return DominanceAnswer(False, None, len(prev))


def _assemble_witness(
    net: CPNet,
    prev: dict[int, tuple[int, int] | None],
    alpha: int,
    beta: int,
) -> FlipSequence:
    n = net.n
    steps = []
    o = beta
    while o != alpha:
        back = prev[o]
        assert back is not None
        before, j = back
        v = value_at(before, n, j)
        steps.append((net.features[j], v, 1 - v))
        o = before
    steps.reverse()
    return FlipSequence(start=alpha, end=beta, steps=tuple(steps))


def replay(net: CPNet, seq: FlipSequence) -> bool:
    """Check a witness: each step must be improving when applied, and the
    walk must go from seq.start to seq.end."""
    n = net.n
    rules = flip_rules(net)
    o = seq.start
    for name, before, after in seq.steps:
        if name not in net.tables:
            return False
        j = net.index(name)
        if value_at(o, n, j) != before or after != 1 - before:
            return False
        relevant, own, triggers = rules[j]
        if o & relevant not in triggers:
            return False
        o ^= own
    return o == seq.end


def incomparable(
    net: CPNet,
    alpha: int,
    beta: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> bool:
    """Neither outcome dominates the other. Distinct outcomes only."""
    if alpha == beta:
        raise ValueError("incomparability is defined on distinct outcomes")
    return (
        not dominates(net, alpha, beta, max_states).holds
        and not dominates(net, beta, alpha, max_states).holds
    )


def ordering_query(
    net: CPNet,
    alpha: int,
    beta: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> bool:
    """Can some ranking consistent with the net place alpha above beta?

    Holds exactly when beta does not dominate alpha.
    """
    return not dominates(net, beta, alpha, max_states).holds
