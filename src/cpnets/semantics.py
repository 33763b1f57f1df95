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
from .model import CPNet, FlipRule, check_outcome, topological_order

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


def flip_rules(net: CPNet) -> tuple[FlipRule, ...]:
    """The net's compiled flip tests; see CPNet.rules."""
    return net.rules


def improving_flips(net: CPNet, outcome: int) -> list[tuple[str, int]]:
    """All single improving flips at an outcome, in canonical feature order.

    Returns (feature name, flipped outcome) pairs; these are exactly the
    outcome's out-neighbors in the preference graph.
    """
    check_outcome(net, outcome)
    flips = []
    for j, (relevant, own, triggers) in enumerate(net.rules):
        if outcome & relevant in triggers:
            flips.append((net.features[j], outcome ^ own))
    return flips


def is_optimal(net: CPNet, outcome: int) -> bool:
    """True when no improving flip exists at the outcome."""
    check_outcome(net, outcome)
    return all(
        outcome & relevant not in triggers
        for relevant, _, triggers in net.rules
    )


def forward_sweep_optimum(net: CPNet) -> int:
    """The unique optimum of an acyclic net.

    Walks features parents-first, giving each its preferred value under the
    already chosen parent values.
    """
    out = 0
    for name in topological_order(net):
        relevant, own, triggers = net.rules[net.index(name)]
        if out & relevant in triggers:
            out |= own
    return out


def reach_set(
    net: CPNet, alpha: int, max_states: int = DEFAULT_MAX_STATES
) -> set[int]:
    """Every outcome reachable from alpha by improving flips, alpha included.

    Raises StateBudgetExceeded once more than max_states outcomes have been
    visited.
    """
    check_outcome(net, alpha)
    return _search(net.rules, alpha, max_states)


def reverse_reach_set(
    net: CPNet, alpha: int, max_states: int = DEFAULT_MAX_STATES
) -> set[int]:
    """Every outcome reachable from alpha by worsening flips, alpha
    included: the outcomes alpha dominates. Same budget as reach_set."""
    check_outcome(net, alpha)
    return _search(net.worsening_rules, alpha, max_states)


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
    rules = net.rules
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
    steps = []
    o = beta
    while o != alpha:
        back = prev[o]
        assert back is not None
        before, j = back
        v = 1 if before & net.rules[j][1] else 0
        steps.append((net.features[j], v, 1 - v))
        o = before
    steps.reverse()
    return FlipSequence(start=alpha, end=beta, steps=tuple(steps))


def replay(net: CPNet, seq: FlipSequence) -> bool:
    """Check a witness: each step must be improving when applied, and the
    walk must go from seq.start to seq.end."""
    o = seq.start
    for name, before, after in seq.steps:
        if name not in net.tables:
            return False
        relevant, own, triggers = net.rules[net.index(name)]
        if (1 if o & own else 0) != before or after != 1 - before:
            return False
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
