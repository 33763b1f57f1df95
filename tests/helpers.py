"""Shared generators for randomized and exhaustive test inputs."""

import os
import resource
import subprocess
import sys
from collections import deque
from itertools import combinations
from pathlib import Path

import cpnets
from cpnets import (
    CPTable,
    CnfFormula,
    FlipSequence,
    MCPNet,
    build_graph,
    closure,
    net_from_tables,
)


def random_net(rng, n, names=None, shuffle=False):
    """Build a random acyclic net over ``n`` binary features.

    Parents of each feature are drawn from the features before it, so the
    insertion order is already a topological order. With ``shuffle`` they
    are drawn along a random order instead, so nets of one profile need not
    share a topological order. Indegree stays at most 3.
    """
    if names is None:
        names = [f"X{i}" for i in range(1, n + 1)]
    order = list(names)
    if shuffle:
        rng.shuffle(order)
    tables = {}
    for i, name in enumerate(order):
        k = rng.randint(0, min(3, i))
        parents = tuple(rng.sample(order[:i], k))
        rows = {cond: rng.randint(0, 1) for cond in _conds(k)}
        tables[name] = CPTable(feature=name, parents=parents, rows=rows)
    return net_from_tables([tables[name] for name in names])


def _conds(k):
    if k == 0:
        return [()]
    return [tuple((c >> (k - 1 - j)) & 1 for j in range(k)) for c in range(1 << k)]


def random_profile(rng, n, m, names=None, shuffle=False):
    if names is None:
        names = [f"X{i}" for i in range(1, n + 1)]
    return MCPNet(
        agents=tuple(random_net(rng, n, names, shuffle) for _ in range(m))
    )


def majority_dominators(profile):
    """rows[alpha] is the bitmask of outcomes that strictly more than half
    the agents prefer to alpha, counted vote by vote over oracle closures."""
    closures = [closure(build_graph(net)) for net in profile.agents]
    size = 1 << profile.n
    rows = []
    for alpha in range(size):
        mask = 0
        for beta in range(size):
            votes = sum(c.dominates(beta, alpha) for c in closures)
            if votes > profile.m // 2:
                mask |= 1 << beta
        rows.append(mask)
    return rows


def reference_witnesses(net, graph, alpha):
    """Plain breadth-first search over the oracle graph's arcs from alpha,
    with no pruning: {beta: shortest witness} for every outcome alpha
    reaches. Arcs come in canonical feature order, so ties break as in
    the engine's search."""
    prev = {alpha: None}
    queue = deque((alpha,))
    while queue:
        o = queue.popleft()
        for s in graph.arcs[o]:
            if s not in prev:
                prev[s] = o
                queue.append(s)
    found = {}
    for beta in prev:
        if beta == alpha:
            continue
        steps = []
        o = beta
        while o != alpha:
            before = prev[o]
            j = net.n - (before ^ o).bit_length()
            v = (before >> (net.n - 1 - j)) & 1
            steps.append((net.features[j], v, 1 - v))
            o = before
        found[beta] = FlipSequence(alpha, beta, tuple(reversed(steps)))
    return found


def clause_pool(num_vars):
    """Every clause with 1 to 3 distinct literals over ``num_vars`` variables.

    Literals are signed 1-based indices. Clauses holding both a variable and
    its negation are kept; they are satisfiable tautologies and legal inputs.
    """
    literals = [s * v for v in range(1, num_vars + 1) for s in (1, -1)]
    pool = []
    for size in (1, 2, 3):
        if size > len(literals):
            break
        pool.extend(combinations(literals, size))
    return pool


def formula_family(max_vars, max_clauses=2):
    """All small formulas: for each n up to ``max_vars``, every clause set
    of size 1..``max_clauses`` drawn from the full clause pool on n vars."""
    family = []
    for n in range(1, max_vars + 1):
        pool = clause_pool(n)
        for size in range(1, max_clauses + 1):
            for clauses in combinations(pool, size):
                family.append(CnfFormula(num_vars=n, clauses=clauses))
    return family


def random_formula(rng, max_vars=4, max_clauses=3):
    n = rng.randint(1, max_vars)
    pool = clause_pool(n)
    k = rng.randint(1, min(max_clauses, len(pool)))
    return CnfFormula(num_vars=n, clauses=tuple(rng.sample(pool, k)))


def run_capped(*args, limit=3 << 29):
    """Run the interpreter with `args` in a child whose address space is
    capped at `limit` bytes (1.5 GB by default), so input that asks for
    huge allocations fails fast in the child instead of filling memory."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cpnets.__file__).parents[1])},
        preexec_fn=cap,
        timeout=60,
    )
