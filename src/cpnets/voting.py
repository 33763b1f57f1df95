"""Group preference over profiles of nets sharing one feature universe.

Two aggregation rules: Pareto (every agent strictly prefers) and majority
(strictly more than half do). For each rule an outcome is optimal when
nothing beats it and an optimum when it beats everything else.

Both optimal queries ask one question, whether some outcome wins at least
need agents over alpha (need is m for Pareto, m // 2 + 1 for majority),
and answer it with one algorithm, _unbeaten: a flip vote that rejects most
outcomes without any search, then one pruned reachability search per
agent inside each dependency component of more than one feature,
interleaved and stopped at the first winner. is_majority_optimum runs one
backward search per agent and counts votes per reached outcome, holding
one agent's set at a time. Every count is bounded only by max_states
(Rossi, Venable & Walsh, AAAI 2004, for the semantics).

Voting works one component of the profile at a time (MCPNet.components;
Xia, Conitzer & Lang, AAAI 2008). On an O-legal profile every component
is one feature: the flip vote alone decides both optimal queries, and
exists_majority_optimum is sequential voting (Lang & Xia, Math. Soc. Sci.
57, 2009). Only the exists_majority_* queries enumerate, all 2**n
outcomes or each component's assignments, so only they are gated by size.
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

    Otherwise take any beta and the first component C (MCPNet.components)
    where it differs from alpha, and let E be the components before C.
    Project an agent's improving path from alpha to beta onto E and C:
    that set is closed under ancestors in every agent, so the projection
    is an improving path of its own. E's features end where they began,
    and an acyclic net has no improving cycle, so none of them flips. So
    every agent preferring beta prefers alpha with C set to beta's values,
    by flips inside C. A one-feature C gives the flip vote's neighbour, so
    only larger components are searched; an O-legal profile has none.

    Within C a winner differs from alpha only on features that need of
    the movers can flip (semantics.movable), so each mover flips only
    those and their ancestors in C. The movers' searches are
    interleaved one semantics.expand level each in turn, and stop at the
    first outcome found in need of them, which keeps satisfiable gadget
    profiles from expanding the full product space. Each search honors
    max_states, so memory grows with the outcomes reached, never with 2**n.
    """
    check_outcome(profile, alpha)
    votes, movers = _flip_votes(profile, alpha)
    if max(votes) >= need:
        return False
    if len(movers) < need:
        return True
    comps = profile.components
    if len(comps) == len(votes):  # all one-feature components
        return True
    masks = [movable(net, alpha) for net in movers]
    keep = sum(
        1 << b for b in range(profile.n) if sum(k >> b & 1 for k in masks) >= need
    )
    for comp in comps:
        if not comp & (comp - 1) or not keep & comp:
            continue
        rules = [
            [rule for _, rule in relevant_rules(net, keep & comp) if rule[1] & comp]
            for net in movers
        ]
        prevs, frontiers = [{alpha: alpha} for _ in movers], [[alpha] for _ in movers]
        while any(frontiers):
            for i, cut in enumerate(rules):
                frontiers[i] = expand(
                    cut, frontiers[i], prevs[i], max_states, goal=(need, prevs)
                )
                if frontiers[i] is None:
                    return False
    return True


def _flip_votes(profile: MCPNet, alpha: int) -> tuple[list[int], list[CPNet]]:
    """Per feature, in canonical order, the agents for which flipping it
    improves alpha, and the agents with any improving flip there.

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
    return votes, movers


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
    """Always (True, witness): agent 0's optimum is never Pareto-dominated,
    because nothing dominates it for agent 0."""
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
    """alpha majority-dominates every other outcome; see _beats_all."""
    check_outcome(profile, alpha)
    return _beats_all(profile, alpha, (1 << profile.n) - 1, max_states)


def _beats_all(profile: MCPNet, alpha: int, within: int, max_states: int) -> bool:
    """alpha majority-dominates every other outcome that differs from it
    only on within: all features, or one component, whose own flips reach
    every such outcome an agent ranks below alpha (see _unbeaten).

    An agent's backward search over within's worsening flips finds the
    outcomes it ranks below alpha. Each of the 2**|within| - 1 others needs
    m // 2 + 1 such votes, so the running total of set sizes rules out
    most candidates part way through. Votes are counted per reached
    outcome as each set arrives, so only one agent's set is held at a time.
    """
    m, t, n = profile.m, profile.m // 2, profile.n
    votes = _flip_votes(profile, alpha)[0]
    if within != (1 << n) - 1:
        votes = [v for j, v in enumerate(votes) if within >> (n - 1 - j) & 1]
    if max(votes) > (m - 1) // 2:
        return False
    others = (1 << within.bit_count()) - 1
    missing = 0
    votes: Counter[int] = Counter()
    for net in profile.agents:
        below = reverse_reach_set(net, alpha, max_states, within)
        missing += others - (len(below) - 1)
        if missing > (m - t - 1) * others:
            return False
        votes.update(below)
    return sum(v > t for v in votes.values()) > others


def _gate(features: int) -> None:
    if features > ENUMERATION_BOUND:
        raise InstanceTooLarge(
            f"majority optimality enumerates 2**{features} outcomes; "
            f"refusing beyond 2**{ENUMERATION_BOUND}"
        )


def exists_majority_optimal(
    profile: MCPNet,
    max_states: int = DEFAULT_MAX_STATES,
) -> tuple[bool, int | None]:
    """First majority-optimal outcome in canonical order, if any."""
    _gate(profile.n)
    for alpha in range(1 << profile.n):
        if is_majority_optimal(profile, alpha, max_states):
            return True, alpha
    return False, None


def exists_majority_optimum(
    profile: MCPNet,
    max_states: int = DEFAULT_MAX_STATES,
) -> tuple[bool, int | None]:
    """The majority optimum, if one exists. At most one outcome can
    qualify: two would have to majority-dominate each other, and the
    preferring coalitions are disjoint.

    Restricted to a component, given the components before it, a majority
    optimum beats every other assignment of it. So the only candidate is
    built one component at a time, parents first: a one-feature component
    takes the strict majority's value, sequential voting's step, and a
    larger one the one of its 2**|C| assignments that passes _beats_all.
    One is_majority_optimum call checks the candidate unless the profile
    is one component. Raises InstanceTooLarge past ENUMERATION_BOUND
    features in a component.
    """
    comps = profile.components
    _gate(max(map(int.bit_count, comps)))
    n, t = profile.n, profile.m // 2
    winner = 0
    for comp in comps:
        if comp & (comp - 1):
            y = 0
            while not _beats_all(profile, winner | y, comp, max_states):
                y = (y - comp) & comp
                if not y:
                    return False, None
            winner |= y
        else:
            j, up = n - comp.bit_length(), 0
            for net in profile.agents:
                relevant, _, triggers = net.rules[j]
                up += winner & relevant in triggers
            if up > t:
                winner |= comp
            elif profile.m - up <= t:
                return False, None
    if len(comps) > 1 and not is_majority_optimum(profile, winner, max_states):
        return False, None
    return True, winner
