"""Group preference over profiles of nets sharing one feature universe.

Two aggregation rules: Pareto (every agent strictly prefers) and majority
(strictly more than half do). For each rule an outcome is optimal when
nothing beats it and an optimum when it beats everything else.

Majority optimality of one outcome is read off one reachability search
per agent, forward for optimal and backward for optimum, after a flip-vote
pre-test that rejects most outcomes without any search. Only the exists_*
queries enumerate all 2**n outcomes, so only they are gated by feature
count (Rossi, Venable & Walsh, AAAI 2004, for the semantics).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import InstanceTooLarge, StateBudgetExceeded
from .model import CPNet, MCPNet, check_outcome
from .semantics import (
    DEFAULT_MAX_STATES,
    dominates,
    forward_sweep_optimum,
    movable,
    reach_set,
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
    check_outcome(profile, beta)
    check_outcome(profile, alpha)
    if alpha == beta:
        return False
    return all(
        dominates(net, beta, alpha, max_states).holds for net in profile.agents
    )


def majority_dominates(
    profile: MCPNet,
    beta: int,
    alpha: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> bool:
    """True when strictly more than half the agents prefer beta to alpha.

    Stops as soon as the vote is decided either way.
    """
    check_outcome(profile, beta)
    check_outcome(profile, alpha)
    if alpha == beta:
        return False
    need = profile.m // 2 + 1
    votes = 0
    remaining = profile.m
    for net in profile.agents:
        if dominates(net, beta, alpha, max_states).holds:
            votes += 1
            if votes >= need:
                return True
        remaining -= 1
        if votes + remaining < need:
            return False
    return False


# ---------------------------------------------------------------------------
# Pareto optimality
# ---------------------------------------------------------------------------


def is_pareto_optimal(
    profile: MCPNet,
    alpha: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> bool:
    """No outcome Pareto-dominates alpha.

    A Pareto dominator is exactly an outcome flip-reachable from alpha in
    every agent's net, so this runs one reachability search per agent and
    asks whether the intersection holds anything besides alpha. A
    dominator differs from alpha only on features every agent can move
    (semantics.movable): when no feature is movable for all, alpha is
    optimal without a search; otherwise each agent flips only those
    features and their ancestors in its own net. The searches are
    interleaved level by level and stop at the first outcome seen by all
    agents, which keeps satisfiable gadget profiles from expanding the
    full product space. Each per-agent search honors max_states.
    """
    agents = profile.agents
    check_outcome(profile, alpha)
    common = -1
    for net in agents:
        common &= movable(net, alpha)
        if not common:
            return True
    rules = [
        [rule for _, rule in relevant_rules(net, common)] for net in agents
    ]
    seen: list[set[int]] = [{alpha} for _ in agents]
    frontier: list[list[int]] = [[alpha] for _ in agents]
    while any(frontier):
        for i in range(len(agents)):
            fresh: list[int] = []
            mine = seen[i]
            for state in frontier[i]:
                for relevant, own, triggers in rules[i]:
                    if state & relevant in triggers:
                        nxt = state ^ own
                        if nxt in mine:
                            continue
                        mine.add(nxt)
                        if len(mine) > max_states:
                            raise StateBudgetExceeded(len(mine), max_states)
                        fresh.append(nxt)
                        if all(nxt in s for s in seen):
                            return False
            frontier[i] = fresh
    return True


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


def _threshold_mask(values: list[int], t: int, full: int) -> int:
    """Bit positions where more than t of the given masks have the bit set.

    Counts all positions at once with bit-plane addition, then compares the
    per-position counter against t from the high plane down.
    """
    planes: list[int] = []
    for v in values:
        carry = v
        k = 0
        while carry:
            if k == len(planes):
                planes.append(0)
            carry, planes[k] = planes[k] & carry, planes[k] ^ carry
            k += 1
    if t >> len(planes):
        return 0
    gt, eq = 0, full
    for k in range(len(planes) - 1, -1, -1):
        if (t >> k) & 1:
            eq &= planes[k]
        else:
            gt |= eq & planes[k]
            eq &= ~planes[k]
    return gt


def _flip_votes(profile: MCPNet, alpha: int) -> tuple[int, list[CPNet]]:
    """The most agents agreeing on one improving flip at alpha, and the
    agents with any improving flip there.

    An acyclic net orders outcomes one flip apart by that feature's table
    row (Boutilier et al., JAIR 2004), so each agent prefers either the
    neighbour or alpha. A count above m // 2 means the neighbour
    majority-beats alpha; above (m - 1) // 2, alpha cannot beat it."""
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


def _bitmask(outcomes: set[int], n: int) -> int:
    buf = bytearray(((1 << n) + 7) >> 3)
    for o in outcomes:
        buf[o >> 3] |= 1 << (o & 7)
    return int.from_bytes(buf, "little")


def is_majority_optimal(
    profile: MCPNet,
    alpha: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> bool:
    """No outcome majority-dominates alpha.

    An agent prefers exactly the outcomes in its forward reach set from
    alpha, which is {alpha} unless it has an improving flip there. One
    search per such agent and a vote count decide; one set is alive at a
    time, so memory grows with the outcomes reached, never with 2**n.
    """
    check_outcome(profile, alpha)
    t = profile.m // 2
    top, movers = _flip_votes(profile, alpha)
    if top > t:
        return False
    if len(movers) <= t:
        return True
    votes: Counter[int] = Counter()
    for net in movers:
        votes.update(reach_set(net, alpha, max_states))
    del votes[alpha]
    return all(v <= t for v in votes.values())


def is_majority_optimum(
    profile: MCPNet,
    alpha: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> bool:
    """alpha majority-dominates every other outcome.

    An agent prefers alpha to exactly the outcomes in its backward search
    over worsening flips. Each of the 2**n - 1 others needs m // 2 + 1
    such votes, so the set sizes, held until then, rule out most
    candidates before any 2**n-bit mask is built.
    """
    check_outcome(profile, alpha)
    m, t = profile.m, profile.m // 2
    if _flip_votes(profile, alpha)[0] > (m - 1) // 2:
        return False
    others = (1 << profile.n) - 1
    missing = 0
    beaten = []
    for net in profile.agents:
        below = reverse_reach_set(net, alpha, max_states)
        missing += others - (len(below) - 1)
        if missing > (m - t - 1) * others:
            return False
        beaten.append(below)
    masks = [_bitmask(below, profile.n) for below in beaten]
    full = (1 << (others + 1)) - 1
    return _threshold_mask(masks, t, full) == full


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
    preferring coalitions are disjoint."""
    return _first_outcome(profile, is_majority_optimum, max_states)
