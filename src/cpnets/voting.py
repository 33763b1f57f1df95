"""Group preference over profiles of nets sharing one feature universe.

Two aggregation rules: Pareto (every agent strictly prefers) and majority
(strictly more than half do). For each rule an outcome is optimal when
nothing beats it and an optimum when it beats everything else.

Both optimal queries ask one question, whether some outcome wins at least
need agents over alpha (need is m for Pareto, m // 2 + 1 for majority),
and answer it with one algorithm, _unbeaten: a flip vote that rejects most
outcomes without any search, then, unless that vote is complete, one
pruned reachability search per agent, interleaved and stopped at the first
winner. is_majority_optimum runs one backward search per agent and counts
votes per reached outcome, holding one agent's set at a time. Every count
is bounded only by max_states (Rossi, Venable & Walsh, AAAI 2004, for the
semantics).

When the agents share a topological order (the profile is O-legal,
MCPNet.common_order), sequential voting has no paradox (Lang & Xia,
Math. Soc. Sci. 57, 2009). There the flip vote alone decides both optimal
queries, and exists_majority_optimum checks only the sequential majority
winner. Only exists_majority_optimal, and exists_majority_optimum on a
profile without a common order, enumerate all 2**n outcomes, so only they
are gated by feature count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import InstanceTooLarge
from .model import CPNet, MCPNet, check_outcome
from .semantics import (
    DEFAULT_MAX_STATES,
    dominates,
    expand,
    forward_sweep_optimum,
    movable,
    relevant_rules,
    reverse_reach_set,
)

ENUMERATION_BOUND = 24


@dataclass
class AgentPartition:
    """How the agents split over an ordered outcome pair (alpha, beta):
    indices preferring alpha, preferring beta, and finding the pair
    incomparable. On alpha == beta everyone lands in incomparables."""

    prefers: frozenset[int]
    opposes: frozenset[int]
    incomparables: frozenset[int]


def agent_partition(
    profile: MCPNet,
    alpha: int,
    beta: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> AgentPartition:
    check_outcome(profile, alpha)
    check_outcome(profile, beta)
    prefers, opposes, neither = set(), set(), set()
    for i, net in enumerate(profile.agents):
        if alpha == beta:
            neither.add(i)
        elif dominates(net, alpha, beta, max_states).holds:
            prefers.add(i)
        elif dominates(net, beta, alpha, max_states).holds:
            opposes.add(i)
        else:
            neither.add(i)
    return AgentPartition(
        prefers=frozenset(prefers),
        opposes=frozenset(opposes),
        incomparables=frozenset(neither),
    )


def pareto_dominates(
    profile: MCPNet,
    beta: int,
    alpha: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> bool:
    """True when every agent strictly prefers beta to alpha."""
    return _vote(profile, beta, alpha, max_states, profile.m)


def majority_dominates(
    profile: MCPNet,
    beta: int,
    alpha: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> bool:
    """True when strictly more than half the agents prefer beta to alpha.

    Stops as soon as the vote is decided either way.
    """
    return _vote(profile, beta, alpha, max_states, profile.m // 2 + 1)


def _vote(
    profile: MCPNet, beta: int, alpha: int, max_states: int, need: int
) -> bool:
    """At least need agents strictly prefer beta to alpha. Asks them in
    order and stops once the count is decided."""
    check_outcome(profile, beta)
    check_outcome(profile, alpha)
    if alpha == beta:
        return False
    votes, left = 0, profile.m
    for net in profile.agents:
        if votes >= need or votes + left < need:
            break
        votes += dominates(net, beta, alpha, max_states).holds
        left -= 1
    return votes >= need


def _unbeaten(profile: MCPNet, alpha: int, need: int, max_states: int) -> bool:
    """No outcome wins at least need agents over alpha.

    An agent prefers exactly the outcomes flip-reachable from alpha in its
    net, and only an agent with an improving flip at alpha (a mover)
    prefers any. A flip vote of need or more means the one-flip neighbour
    wins; fewer than need movers means nothing can.

    With a common order (MCPNet.common_order) the flip vote alone decides,
    because it is complete there. Take any beta and the first feature f,
    in the common order, where beta differs from alpha. Project an agent's
    improving path from alpha to beta onto f and the features before it:
    that set is closed under ancestors in every agent, so the projection is
    an improving path of its own. The features before f end where they
    began, and an acyclic net has no improving cycle, so none of them
    flips; f's parents keep alpha's values and f flips once, improving at
    alpha. So need votes for beta are need votes for the one-flip
    neighbour of alpha at f.

    Otherwise a winner differs from alpha only on features that need of
    the movers can flip (semantics.movable), so each mover flips only those
    features and their ancestors in its own net. The movers' searches are
    interleaved one semantics.expand level each in turn, and stop at the
    first outcome found in need of them, which keeps satisfiable gadget
    profiles from expanding the full product space. Each search honors
    max_states, so memory grows with the outcomes reached, never with 2**n.
    """
    check_outcome(profile, alpha)
    top, movers = _flip_votes(profile, alpha)
    if top >= need:
        return False
    if len(movers) < need or profile.common_order is not None:
        return True
    masks = [movable(net, alpha) for net in movers]
    keep = sum(
        1 << b for b in range(profile.n) if sum(k >> b & 1 for k in masks) >= need
    )
    if not keep:
        return True
    rules = [[rule for _, rule in relevant_rules(net, keep)] for net in movers]
    prevs, frontiers = [{alpha: alpha} for _ in movers], [[alpha] for _ in movers]
    while any(frontiers):
        for i, cut in enumerate(rules):
            frontiers[i] = expand(
                cut, frontiers[i], prevs[i], max_states, goal=(need, prevs)
            )
            if frontiers[i] is None:
                return False
    return True


def _flip_votes(profile: MCPNet, alpha: int) -> tuple[int, list[CPNet]]:
    """The most agents agreeing on one improving flip at alpha, and the
    agents with any improving flip there.

    An acyclic net orders outcomes one flip apart by that feature's table
    row (Boutilier et al., JAIR 2004), so each agent prefers either the
    neighbour or alpha. A count of need or more means the neighbour wins
    need agents over alpha; above (m - 1) // 2, alpha cannot beat it."""
    votes = [0] * profile.n
    movers = []
    for net in profile.agents:
        moves = False
        for j, (relevant, _, triggers) in enumerate(net.rules):
            if alpha & relevant in triggers:
                votes[j] += 1
                moves = True
        if moves:
            movers.append(net)
    return max(votes), movers


# ---------------------------------------------------------------------------
# Pareto optimality
# ---------------------------------------------------------------------------


def is_pareto_optimal(
    profile: MCPNet,
    alpha: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> bool:
    """No outcome Pareto-dominates alpha; see _unbeaten."""
    return _unbeaten(profile, alpha, profile.m, max_states)


def exists_pareto_optimal(profile: MCPNet) -> tuple[bool, int]:
    """Always (True, witness): agent 1's optimum is never Pareto-dominated,
    because nothing dominates it for agent 1."""
    return True, forward_sweep_optimum(profile.agents[0])


def is_pareto_optimum(profile: MCPNet, alpha: int) -> bool:
    """alpha Pareto-dominates every other outcome exactly when it is the
    optimum of every agent, since each agent's optimum dominates all
    outcomes in that agent's net and nothing else does."""
    check_outcome(profile, alpha)
    return all(forward_sweep_optimum(net) == alpha for net in profile.agents)


def exists_pareto_optimum(profile: MCPNet) -> tuple[bool, int | None]:
    optima = [forward_sweep_optimum(net) for net in profile.agents]
    if all(o == optima[0] for o in optima):
        return True, optima[0]
    return False, None


# ---------------------------------------------------------------------------
# Majority optimality
# ---------------------------------------------------------------------------


def is_majority_optimal(
    profile: MCPNet,
    alpha: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> bool:
    """No outcome majority-dominates alpha; see _unbeaten."""
    return _unbeaten(profile, alpha, profile.m // 2 + 1, max_states)


def is_majority_optimum(
    profile: MCPNet,
    alpha: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> bool:
    """alpha majority-dominates every other outcome.

    An agent prefers alpha to exactly the outcomes in its backward search
    over worsening flips. Each of the 2**n - 1 others needs m // 2 + 1
    such votes, so the running total of set sizes rules out most
    candidates part way through. Votes are counted per reached outcome as
    each set arrives, so only one agent's set is held at a time.
    """
    check_outcome(profile, alpha)
    m, t = profile.m, profile.m // 2
    if _flip_votes(profile, alpha)[0] > (m - 1) // 2:
        return False
    size = 1 << profile.n
    others = size - 1
    missing = 0
    votes: Counter[int] = Counter()
    for net in profile.agents:
        below = reverse_reach_set(net, alpha, max_states)
        missing += others - (len(below) - 1)
        if missing > (m - t - 1) * others:
            return False
        votes.update(below)
    return all(votes[o] > t for o in range(size))


def _first_outcome(profile: MCPNet, test, max_states: int) -> tuple[bool, int | None]:
    if profile.n > ENUMERATION_BOUND:
        raise InstanceTooLarge(
            f"majority optimality enumerates 2**{profile.n} outcomes; "
            f"refusing beyond 2**{ENUMERATION_BOUND}"
        )
    for alpha in range(1 << profile.n):
        if test(profile, alpha, max_states):
            return True, alpha
    return False, None


def exists_majority_optimal(
    profile: MCPNet,
    max_states: int = DEFAULT_MAX_STATES,
) -> tuple[bool, int | None]:
    """First majority-optimal outcome in canonical order, if any."""
    return _first_outcome(profile, is_majority_optimal, max_states)


def exists_majority_optimum(
    profile: MCPNet,
    max_states: int = DEFAULT_MAX_STATES,
) -> tuple[bool, int | None]:
    """The majority optimum, if one exists. At most one outcome can
    qualify: two would have to majority-dominate each other, and the
    preferring coalitions are disjoint.

    With a common order the only candidate is the sequential majority
    winner, checked by one is_majority_optimum call. A majority optimum
    beats each of its one-flip neighbours, so at every feature a strict
    majority prefers its value given its parents' values. The parents come
    earlier in the common order, so by induction along it the optimum
    equals the vote's winner. Any tie-break works, because a tie rules out
    a strict majority. Without a common order this enumerates all 2**n
    outcomes.
    """
    order = profile.common_order
    if order is None:
        return _first_outcome(profile, is_majority_optimum, max_states)
    winner = _sequential_winner(profile, order)
    if is_majority_optimum(profile, winner, max_states):
        return True, winner
    return False, None


def _sequential_winner(profile: MCPNet, order: tuple[int, ...]) -> int:
    """Feature-by-feature majority vote along order: each feature is raised
    when more than m // 2 agents prefer 1 given the values already chosen.
    Unvoted features read 0, so order must list each feature's parents
    before it for the vote to be sequential voting."""
    t = profile.m // 2
    winner = 0
    for j in order:
        raise_votes = 0
        for net in profile.agents:
            relevant, own, triggers = net.rules[j]
            raise_votes += winner & relevant in triggers
        if raise_votes > t:
            winner |= own
    return winner
