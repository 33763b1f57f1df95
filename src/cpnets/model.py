"""Data model for acyclic binary CP-nets and multi-agent profiles.

Every feature is binary with values 0 and 1. The canonical feature order is
the insertion order at construction time, and an outcome is a plain int whose
binary rendering follows that order: feature 0 occupies the most significant
bit, so the bitstring "10" over features (A, B) means A=1, B=0 and equals the
int 2. Enumerating ``range(2 ** n)`` therefore walks outcomes in canonical
lexicographic order. Feature bits come from ``feature_mask``, ``value_at``
and ``CPNet.mask`` alone.

A CP table stores one preferred value per complete parent assignment; tables
are always fully materialized (2^|parents| rows). Tables, nets and profiles
are frozen: rows and tables are read-only copies of what was passed in.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import CycleError

MAX_PARENTS = 20

FlipRule = tuple[int, int, frozenset[int]]


@dataclass(frozen=True, slots=True)
class CPTable:
    """Conditional preference table of one feature.

    rows maps each parent assignment (a tuple of 0/1 values, in parent
    order) to the preferred value of the feature under that assignment.
    Slotted because tables are the most numerous objects a net holds.
    """

    feature: str
    parents: tuple[str, ...]
    rows: Mapping[tuple[int, ...], int]

    def __post_init__(self):
        object.__setattr__(self, "rows", MappingProxyType(dict(self.rows)))


@dataclass(frozen=True)
class CPNet:
    """A CP-net: an ordered feature tuple plus one CPTable per feature.

    The edge set is implied by the tables (parent -> feature). The compiled
    flip rules are built on first use, so a malformed net can still be
    built and handed to validate_net.
    """

    features: tuple[str, ...]
    tables: Mapping[str, CPTable]

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        object.__setattr__(self, "tables", MappingProxyType(dict(self.tables)))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.features)}

    @property
    def n(self) -> int:
        return len(self.features)

    def index(self, name: str) -> int:
        return self._index[name]

    def mask(self, *names: str) -> int:
        """The bits of the named features, OR-ed together."""
        out = 0
        for name in names:
            out |= feature_mask(self.n, self._index[name])
        return out

    def parents(self, name: str) -> tuple[str, ...]:
        return self.tables[name].parents

    @property
    def edges(self) -> set[tuple[str, str]]:
        return {(p, t.feature) for t in self.tables.values() for p in t.parents}

    @cached_property
    def topo_order(self) -> tuple[int, ...]:
        """Parents-first feature indices, ties broken by canonical index.

        Raises CycleError on a dependency cycle; a parent that is not a
        feature never becomes ready, so it reads as one too.
        """
        children: list[list[int]] = [[] for _ in self.features]
        pending = []
        for j, name in enumerate(self.features):
            table = self.tables.get(name)
            parents = table.parents if table else ()
            pending.append(len(parents))
            for p in parents:
                if p in self._index:
                    children[self._index[p]].append(j)
        ready = [j for j, k in enumerate(pending) if k == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            j = heapq.heappop(ready)
            order.append(j)
            for child in children[j]:
                pending[child] -= 1
                if pending[child] == 0:
                    heapq.heappush(ready, child)
        if len(order) != self.n:
            stuck = sorted(
                name for name, k in zip(self.features, pending) if k > 0
            )
            raise CycleError(f"dependency cycle through features {stuck}")
        return tuple(order)

    @cached_property
    def ancestors(self) -> tuple[int, ...]:
        """Per feature, in canonical order, the bits of all its ancestors."""
        anc = [0] * self.n
        for j in self.topo_order:
            for p in self.tables[self.features[j]].parents:
                i = self._index[p]
                anc[j] |= anc[i] | feature_mask(self.n, i)
        return tuple(anc)

    @cached_property
    def rules(self) -> tuple[FlipRule, ...]:
        """Per-feature flip tests, in canonical feature order.

        For feature j the triple is (relevant mask, own bit, triggers): a
        flip of j improves outcome o exactly when (o & relevant) is a
        trigger, and the flipped outcome is o ^ own. A trigger packs one
        table row's parent values together with the feature sitting at the
        less preferred value.
        """
        rules = []
        for j, name in enumerate(self.features):
            table = self.tables[name]
            own = feature_mask(self.n, j)
            parent_bits = [self.mask(p) for p in table.parents]
            relevant = own | self.mask(*table.parents)
            triggers = set()
            for cond, pref in table.rows.items():
                pattern = own if pref == 0 else 0
                for bit, v in zip(parent_bits, cond):
                    if v:
                        pattern |= bit
                triggers.add(pattern)
            rules.append((relevant, own, frozenset(triggers)))
        return tuple(rules)

    @cached_property
    def worsening_rules(self) -> tuple[FlipRule, ...]:
        """The mirror of rules: each trigger is an improving one with the
        feature at its preferred value, so it marks a worsening flip."""
        return tuple(
            (relevant, own, frozenset(t ^ own for t in triggers))
            for relevant, own, triggers in self.rules
        )


@dataclass(frozen=True)
class MCPNet:
    """A profile of m CP-nets over one shared feature universe.

    Raises ValueError for no agents, or for an agent whose feature tuple
    differs from agent 0's.
    """

    agents: tuple[CPNet, ...]

    def __post_init__(self):
        agents = tuple(self.agents)
        object.__setattr__(self, "agents", agents)
        if not agents:
            raise ValueError("profile has no agents")
        for i, agent in enumerate(agents):
            if agent.features != agents[0].features:
                raise ValueError(f"agent {i} feature list differs from agent 0")

    @property
    def m(self) -> int:
        return len(self.agents)

    @property
    def n(self) -> int:
        return self.agents[0].n

    @property
    def features(self) -> tuple[str, ...]:
        return self.agents[0].features


def net_from_tables(tables: Sequence[CPTable]) -> CPNet:
    """Build a net whose canonical feature order is the table order."""
    return CPNet(
        features=tuple(t.feature for t in tables),
        tables={t.feature: t for t in tables},
    )


def feature_mask(n: int, index: int) -> int:
    """Bit mask of the feature at the given canonical index."""
    return 1 << (n - 1 - index)


def value_at(outcome: int, n: int, index: int) -> int:
    return (outcome >> (n - 1 - index)) & 1


def parse_outcome(text: str, n: int) -> int:
    if len(text) != n or any(c not in "01" for c in text):
        raise ValueError(
            f"outcome must be a bitstring of length {n}, got {text!r}"
        )
    return int(text, 2)


def check_outcome(net: CPNet | MCPNet, outcome: int) -> None:
    """Raise ValueError unless the outcome names one of the 2**n outcomes."""
    if not 0 <= outcome < (1 << net.n):
        raise ValueError(
            f"outcome {outcome} out of range for {net.n} features"
        )


def outcome_str(outcome: int, n: int) -> str:
    return format(outcome, f"0{n}b")


def validate_net(net: CPNet) -> list[str]:
    """Check every structural invariant; returns a list of violations.

    An empty list means the net is valid. Violations are data, not faults:
    nothing is raised here.
    """
    problems: list[str] = []
    if not net.features:
        problems.append("net has no features")
        return problems

    counts = Counter(net.features)
    for name, k in counts.items():
        if k > 1:
            problems.append(f"duplicate feature name {name!r}")
    known = set(net.features)

    missing = known - set(net.tables)
    for name in sorted(missing):
        problems.append(f"feature {name!r} has no CP table")
    extra = set(net.tables) - known
    for name in sorted(extra):
        problems.append(f"table for unknown feature {name!r}")

    for name in net.features:
        table = net.tables.get(name)
        if table is None:
            continue
        if table.feature != name:
            problems.append(
                f"table stored under {name!r} describes {table.feature!r}"
            )
        bad_parent = False
        for p in table.parents:
            if p not in known:
                problems.append(f"{name!r} lists unknown parent {p!r}")
                bad_parent = True
        if len(set(table.parents)) != len(table.parents):
            problems.append(f"{name!r} lists a duplicate parent")
            bad_parent = True
        if len(table.parents) > MAX_PARENTS:
            problems.append(
                f"{name!r} has {len(table.parents)} parents "
                f"(limit {MAX_PARENTS})"
            )
            bad_parent = True
        if bad_parent:
            continue
        want = 1 << len(table.parents)
        if len(table.rows) != want:
            problems.append(
                f"{name!r} table has {len(table.rows)} rows, needs {want}"
            )
        for cond, pref in table.rows.items():
            if len(cond) != len(table.parents) or any(
                v not in (0, 1) for v in cond
            ):
                problems.append(f"{name!r} table has malformed condition {cond!r}")
                break
            if pref not in (0, 1):
                problems.append(
                    f"{name!r} table prefers {pref!r} (must be 0 or 1)"
                )
                break

    if not problems:
        try:
            topological_order(net)
        except CycleError as exc:
            problems.append(str(exc))
    return problems


def topological_order(net: CPNet) -> list[str]:
    """Parents-first feature order, ties broken by canonical index."""
    return [net.features[j] for j in net.topo_order]


def indegree(net: CPNet) -> int:
    """Largest parent count over all features."""
    return max(len(net.tables[name].parents) for name in net.features)


def validate_profile(profile: MCPNet) -> list[str]:
    """Every agent's violations, prefixed with its index. The shared
    universe is checked when the profile is built."""
    return [
        f"agent {i}: {issue}"
        for i, agent in enumerate(profile.agents)
        for issue in validate_net(agent)
    ]


# ---------------------------------------------------------------------------
# JSON serialization. The wire format is the one consumed by the CLI:
# {"features": [{"name": ..., "parents": [...],
#                "cpt": [{"cond": [...], "prefer": 0|1}, ...]}, ...]}
# Profiles are {"agents": [<net>, ...]}. A feature may carry an optional
# "values": [name_for_0, name_for_1] pair; the model ignores it (the CLI
# uses it for --named outcome input).
# ---------------------------------------------------------------------------


def net_to_json(net: CPNet) -> dict:
    out = []
    for name in net.features:
        table = net.tables[name]
        out.append(
            {
                "name": name,
                "parents": list(table.parents),
                "cpt": [
                    {"cond": list(cond), "prefer": table.rows[cond]}
                    for cond in sorted(table.rows)
                ],
            }
        )
    return {"features": out}


def _bit(value, what: str) -> int:
    if type(value) is not int or value not in (0, 1):
        raise ValueError(f"{what} must be the int 0 or 1, got {value!r}")
    return value


def net_from_json(data: Mapping) -> CPNet:
    """Strict parse: names are strings, parents lists of names, cond and
    prefer values the int 0 or 1. Anything else raises ValueError."""
    if not isinstance(data, Mapping) or "features" not in data:
        raise ValueError("net JSON must be an object with a 'features' list")
    raw = data["features"]
    if not isinstance(raw, list):
        raise ValueError("'features' must be a list")
    tables = []
    for entry in raw:
        try:
            name, parents, cpt = entry["name"], entry["parents"], entry["cpt"]
            if not isinstance(name, str):
                raise ValueError(f"feature name must be a string, got {name!r}")
            if not isinstance(parents, list) or not all(
                isinstance(p, str) for p in parents
            ):
                raise ValueError(f"feature {name!r}: 'parents' must be a list of names")
            rows = {}
            for row in cpt:
                cond = tuple(_bit(v, "cond value") for v in row["cond"])
                rows[cond] = _bit(row["prefer"], "prefer")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed feature entry: {entry!r}") from exc
        if len(rows) != len(cpt):
            raise ValueError(f"feature {name!r} repeats a cpt condition")
        tables.append(CPTable(feature=name, parents=tuple(parents), rows=rows))
    return net_from_tables(tables)


def profile_to_json(profile: MCPNet) -> dict:
    return {"agents": [net_to_json(a) for a in profile.agents]}


def profile_from_json(data: Mapping) -> MCPNet:
    if not isinstance(data, Mapping) or "agents" not in data:
        raise ValueError("profile JSON must be an object with an 'agents' list")
    agents = data["agents"]
    if not isinstance(agents, list):
        raise ValueError("'agents' must be a list")
    return MCPNet(agents=tuple(net_from_json(a) for a in agents))
