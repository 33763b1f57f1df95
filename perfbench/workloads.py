"""Seeded inputs and operations for the four benchmark workloads.

Each workload function turns a seed into a list of rounds. A round is a
fixed mix of operations, so every complete round puts the same kinds and
sizes of query in front of the package and only the random content
changes with the seed. The timed loop runs whole rounds, closed loop, one
at a time.

An operation carries its own correctness check. The check computes its
reference lazily, after the timed phase, from code other than the code
path being timed: oracle closures, satisfiability enumeration, or for
oracle operations the search engine.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Any, Callable

from cpnets import cli, gadgets, model, oracle, semantics, voting
from tracing import MAJORITY_QUERIES

# The seed's closure/pair crossover in voting; kept here so the path label
# stays defined if the package drops the constant.
CLOSURE_BOUND = 14
# One fixed search budget per workload. Formula sizes are chosen so that
# the seed code answers every query within it.
ENGINE_MAX_STATES = 1 << 20
FORMULA_MAX_STATES = 1 << 20
# Pool sizes: enough rounds for about twice the seed code's throughput
# in a 20-second run; past that the pool is reused.
ENGINE_POOL = 1000
FORMULA_POOL = 80
MAJORITY_POOL = 16
ORACLE_POOL = 120


class SetupError(RuntimeError):
    """Generated input that the package rejects: a harness bug."""


@dataclass
class Op:
    """One request. run(tracer) returns the answer; check(answer) returns
    None or a mismatch description of keep(answer), the part of the answer
    held until the check runs. A profile query names its agents and the
    outcomes their searches start from, so that a budget failure can be
    traced to an agent index."""

    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any], str | None]
    agents: tuple = ()
    starts: tuple = ()
    keep: Callable[[Any], Any] = lambda answer: answer


# ---------------------------------------------------------------------------
# Random nets. A spec is [(name, parent names, rows)], parents drawn from
# earlier features so the order is topological; indegree at most 3.
# ---------------------------------------------------------------------------


def _bit(outcome: int, n: int, index: int) -> int:
    return (outcome >> (n - 1 - index)) & 1


def random_spec(rng: random.Random, names, optimum: int | None = None):
    """Random acyclic net spec. With ``optimum`` given, the row selected by
    that outcome's parent values prefers its own value at every feature,
    so the outcome is the net's optimum."""
    n = len(names)
    spec = []
    for i, name in enumerate(names):
        parents = sorted(rng.sample(range(i), rng.randint(0, min(3, i))))
        rows = {c: rng.randint(0, 1) for c in product((0, 1), repeat=len(parents))}
        if optimum is not None:
            rows[tuple(_bit(optimum, n, p) for p in parents)] = _bit(optimum, n, i)
        spec.append((name, tuple(names[p] for p in parents), rows))
    return spec


def spec_json(spec) -> dict:
    return {
        "features": [
            {
                "name": name,
                "parents": list(parents),
                "cpt": [{"cond": list(c), "prefer": v} for c, v in rows.items()],
            }
            for name, parents, rows in spec
        ]
    }


def build_net(tr, spec):
    tables = [model.CPTable(name, parents, dict(rows)) for name, parents, rows in spec]
    return tr.call("model.net_from_tables", model.net_from_tables, tables)


def checked(tr, fn_name: str, obj):
    problems = tr.call(f"model.{fn_name}", getattr(model, fn_name), obj)
    if problems:
        raise SetupError(f"generated input is invalid: {problems}")
    return obj


def names_for(n: int) -> list[str]:
    return [f"X{i}" for i in range(1, n + 1)]


def outcome(o: int, n: int) -> str:
    return format(o, f"0{n}b")


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


class Oracle:
    """Oracle closures, built once per net when a check first needs them."""

    def __init__(self):
        self._cache: dict[int, tuple] = {}

    def closure(self, net):
        hit = self._cache.get(id(net))
        if hit is None:
            clo = oracle.closure(oracle.build_graph(net, bound=net.n))
            hit = self._cache[id(net)] = (net, clo)
        return hit[1]

    def dominates(self, net, beta: int, alpha: int) -> bool:
        return self.closure(net).dominates(beta, alpha)

    def reach(self, net, alpha: int) -> set[int]:
        row = self.closure(net).reach[alpha]
        return {alpha} | {o for o in range(1 << net.n) if (row >> o) & 1}

    def optimum(self, net) -> int:
        (best,) = [o for o, row in enumerate(self.closure(net).reach) if row == 0]
        return best

    def majority_dominators(self, profile, alpha: int) -> int:
        """Outcomes that more than half the agents prefer to alpha, counted
        from the closures: the union over every strict-majority coalition
        of the outcomes the whole coalition prefers."""
        rows = [self.closure(a).reach[alpha] for a in profile.agents]
        out = 0
        for coalition in combinations(rows, len(rows) // 2 + 1):
            acc = -1
            for row in coalition:
                acc &= row
            out |= acc
        return out

    def majority(self, profile, kind: str, alpha: int | None):
        beaten_by = self._majority_rows(profile)
        size = len(beaten_by)

        def optimum(a):
            return all((beaten_by[b] >> a) & 1 for b in range(size) if b != a)

        if kind == "is_majority_optimal":
            return beaten_by[alpha] == 0
        if kind == "is_majority_optimum":
            return optimum(alpha)
        test = (lambda a: beaten_by[a] == 0) if kind == "exists_majority_optimal" else optimum
        found = next((a for a in range(size) if test(a)), None)
        return found is not None, found

    def _majority_rows(self, profile) -> list[int]:
        hit = self._cache.get(id(profile))
        if hit is None:
            rows = [self.majority_dominators(profile, a) for a in range(1 << profile.n)]
            hit = self._cache[id(profile)] = (profile, rows)
        return hit[1]


def table_flips(net, o: int) -> list[int]:
    """Outcomes one improving flip above o, read straight from the CP table
    rows: o with any one feature set to the value its row prefers."""
    n = net.n
    better = []
    for i, name in enumerate(net.features):
        table = net.tables[name]
        cond = tuple(_bit(o, n, net.features.index(p)) for p in table.parents)
        if table.rows[cond] != _bit(o, n, i):
            better.append(o ^ (1 << (n - 1 - i)))
    return better


def flip_free(net, o: int) -> bool:
    return not table_flips(net, o)


def expect(actual, wanted, what: str) -> str | None:
    if actual != wanted:
        return f"{what}: got {actual!r}, reference says {wanted!r}"
    return None


def witness_problem(net, answer, beta: int, alpha: int) -> str | None:
    if not answer.holds:
        return None
    w = answer.witness
    if w is None or (w.start, w.end) != (alpha, beta) or not semantics.replay(net, w):
        return "witness does not replay from alpha to beta"
    return None


# ---------------------------------------------------------------------------
# Calls through the tracer
# ---------------------------------------------------------------------------


def compile_fresh(tr, nets) -> None:
    """Traced runs only: compile flip rules of fresh nets in their own span,
    so compilation shows apart from the first query."""
    flip_rules = getattr(semantics, "flip_rules", None)
    if tr.enabled and flip_rules is not None:
        for net in nets:
            tr.call("semantics.flip_rules", flip_rules, net)


def dominance(tr, net, beta, alpha, max_states):
    answer = tr.call("semantics.dominates", semantics.dominates, net, beta, alpha, max_states)
    tr.count("semantics.visited", answer.visited)
    return answer


class CliFailure(RuntimeError):
    """The CLI answered with a non-zero exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(f"cpnets exited {code}: {message}")
        self.code = code


def run_cli(tr, argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tr.call("cli.main", cli.main, argv)
    payload = json.loads(buf.getvalue())
    if code != 0:
        raise CliFailure(code, payload.get("error", ""))
    return payload


# ---------------------------------------------------------------------------
# engine-mix: many short queries on fresh nets, a share through the CLI
# ---------------------------------------------------------------------------

# CLI command -> (command words, input file, library query it answers).
# Each round sends the next two commands in this order.
CLI_QUERIES = {
    "dominates": (["dominates"], "net", "dominates"),
    "incomparable": (["incomparable"], "net", "incomparable"),
    "is-optimal": (["is-optimal"], "net", "is_optimal"),
    "optimum": (["optimum"], "net", "forward_sweep_optimum"),
    "pareto-dominates": (["pareto", "dominates"], "profile", "pareto_dominates"),
    "majority-dominates": (["majority", "dominates"], "profile", "majority_dominates"),
    "pareto-is-optimal": (["pareto", "is-optimal"], "profile", "is_pareto_optimal"),
}


def write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data))


def engine_mix(
    seed: int, tr, work_dir: str, pool: int = ENGINE_POOL, max_states=ENGINE_MAX_STATES
):
    rng = random.Random(f"engine-mix:{seed}")
    ref = Oracle()
    rounds = []
    for r in range(pool):
        n, m = 10 + r % 7, 3 + r % 3
        names = names_for(n)
        net_spec = spec_json(random_spec(rng, names))
        net = tr.call("model.net_from_json", model.net_from_json, net_spec)
        checked(tr, "validate_net", net)
        agents = tuple(build_net(tr, random_spec(rng, names)) for _ in range(m))
        profile = checked(tr, "validate_profile", model.MCPNet(agents=agents))
        a, b = rng.sample(range(1 << n), 2)
        files = {
            "net": os.path.join(work_dir, f"net-{r}.json"),
            "profile": os.path.join(work_dir, f"profile-{r}.json"),
        }
        rotation = list(CLI_QUERIES)
        commands = [rotation[(2 * r + k) % len(rotation)] for k in (0, 1)]
        inputs = {CLI_QUERIES[c][1] for c in commands}
        if "net" in inputs:
            write_json(files["net"], net_spec)
        if "profile" in inputs:
            write_json(files["profile"], model.profile_to_json(profile))
        # A seeded subset of the rounds with n <= 12 is checked against
        # oracle closures; every witness is replayed.
        oracle_checked = n <= 12 and (r // 7) % 12 == 0
        refs = _engine_references(ref, net, profile, a, b)
        round_ops = _engine_round(refs, net, profile, a, b, oracle_checked, max_states)
        for command in commands:
            round_ops.append(_cli_op(refs, net, a, b, files, command, oracle_checked, max_states))
        rounds.append(round_ops)
    return rounds


def _engine_references(ref, net, profile, a, b) -> dict:
    """Oracle answers for every engine-mix query, by query kind, computed
    only when a check asks for them."""

    def partition():
        sides = ([], [], [])
        for i, agent in enumerate(profile.agents):
            if ref.dominates(agent, a, b):
                sides[0].append(i)
            elif ref.dominates(agent, b, a):
                sides[1].append(i)
            else:
                sides[2].append(i)
        return tuple(frozenset(side) for side in sides)

    def pareto_optimal():
        acc = -1
        for agent in profile.agents:
            acc &= ref.closure(agent).reach[a]
        return acc == 0

    return {
        "dominates": lambda: ref.dominates(net, b, a),
        "incomparable": lambda: not ref.dominates(net, a, b) and not ref.dominates(net, b, a),
        "ordering_query": lambda: not ref.dominates(net, b, a),
        "reach_set": lambda: ref.reach(net, a),
        "is_optimal": lambda: ref.optimum(net) == a,
        "forward_sweep_optimum": lambda: ref.optimum(net),
        "majority_dominates": lambda: bool((ref.majority_dominators(profile, a) >> b) & 1),
        "pareto_dominates": lambda: all(ref.dominates(x, b, a) for x in profile.agents),
        "agent_partition": partition,
        "is_pareto_optimal": pareto_optimal,
    }


def _engine_round(refs, net, profile, a, b, oracle_checked, max_states) -> list[Op]:
    def against(kind, shape=lambda answer: answer):
        if not oracle_checked:
            return lambda answer: None
        return lambda answer: expect(shape(answer), refs[kind](), kind)

    def query(layer, kind, fn, *args, searches=(), shape=lambda answer: answer):
        call = lambda t: t.call(f"{layer}.{kind}", fn, *args)  # noqa: E731
        agents = profile.agents if searches else ()
        return Op(kind, call, against(kind, shape), agents, searches)

    def first_net_query(t):
        compile_fresh(t, (net,))
        return dominance(t, net, b, a, max_states)

    def check_dominates(answer):
        return witness_problem(net, answer, b, a) or against("dominates")(answer.holds)

    def reach(t):
        seen = t.call("semantics.reach_set", semantics.reach_set, net, a, max_states)
        t.count("semantics.visited", len(seen))
        return seen

    def optimal(x):
        return Op(
            "is_optimal",
            lambda t: t.call("semantics.is_optimal", semantics.is_optimal, net, x),
            lambda ans: expect(ans, flip_free(net, x), "is_optimal"),
        )

    def flips(t):
        return t.call("semantics.improving_flips", semantics.improving_flips, net, a)

    def check_flips(answer):
        return expect(sorted(s for _, s in answer), sorted(table_flips(net, a)), "improving_flips")

    def check_optimum(answer):
        if not flip_free(net, answer):
            return "forward_sweep_optimum is not flip-free"
        return against("forward_sweep_optimum")(answer)

    def first_profile_query(t):
        compile_fresh(t, profile.agents)
        return t.call(
            "voting.majority_dominates", voting.majority_dominates, profile, b, a, max_states
        )

    return [
        Op("dominates", first_net_query, check_dominates),
        query("semantics", "incomparable", semantics.incomparable, net, a, b, max_states),
        query("semantics", "ordering_query", semantics.ordering_query, net, a, b, max_states),
        Op("reach_set", reach, against("reach_set"),
           keep=lambda ans: ans if oracle_checked else None),
        optimal(a),
        optimal(b),
        Op("improving_flips", flips, check_flips),
        Op(
            "forward_sweep_optimum",
            lambda t: t.call(
                "semantics.forward_sweep_optimum", semantics.forward_sweep_optimum, net
            ),
            check_optimum,
        ),
        Op("majority_dominates", first_profile_query, against("majority_dominates"),
           profile.agents, (a,)),
        query("voting", "pareto_dominates", voting.pareto_dominates, profile, b, a,
              max_states, searches=(a,)),
        query("voting", "agent_partition", voting.agent_partition, profile, a, b, max_states,
              searches=(a, b), shape=lambda ans: (ans.prefers, ans.opposes, ans.incomparables)),
        query("voting", "is_pareto_optimal", voting.is_pareto_optimal, profile, a,
              max_states, searches=(a,)),
    ]


def _cli_op(refs, net, a, b, files, command, oracle_checked, max_states) -> Op:
    words, file_kind, kind = CLI_QUERIES[command]
    n = net.n
    sa, sb = outcome(a, n), outcome(b, n)
    outcomes = {
        "dominates": [sb, sa, "--witness"],
        "incomparable": [sa, sb],
        "is_optimal": [sa],
        "forward_sweep_optimum": [],
        "pareto_dominates": [sb, sa],
        "majority_dominates": [sb, sa],
        "is_pareto_optimal": [sa],
    }[kind]
    budget = ["--max-states", str(max_states)]
    if kind in ("is_optimal", "forward_sweep_optimum"):
        budget = []
    argv = [*words, files[file_kind], *outcomes, *budget]

    def check(payload):
        answer = payload["answer"]
        if kind == "dominates" and answer:
            w = payload["witness"]
            steps = tuple((s["feature"], s["from"], s["to"]) for s in w["steps"])
            seq = semantics.FlipSequence(int(w["start"], 2), int(w["end"], 2), steps)
            if (seq.start, seq.end) != (a, b) or not semantics.replay(net, seq):
                return "cli witness does not replay from alpha to beta"
        if not oracle_checked:
            return None
        wanted = refs[kind]()
        if kind == "forward_sweep_optimum":
            wanted = outcome(wanted, n)
        return expect(answer, wanted, f"cli {command}")

    return Op(f"cli.{command}", lambda t: run_cli(t, argv), check)


# ---------------------------------------------------------------------------
# formula-search: few deep searches on formula gadgets
# ---------------------------------------------------------------------------

# Exact feature counts for each gadget. Search cost roughly doubles with
# each feature, so fixed sizes keep every round's cost alike. At these
# sizes the seed code stays far inside FORMULA_MAX_STATES.
FORMULA_NET_FEATURES = 18
SUMMARIZED_FEATURES = 18
M_IPO_FEATURES = 27


def clause_pool(num_vars: int) -> list[tuple[int, ...]]:
    """Every clause of 1 to 3 distinct literals over the variables."""
    literals = [s * v for v in range(1, num_vars + 1) for s in (1, -1)]
    return [c for size in (1, 2, 3) for c in combinations(literals, size)]


def gadget(tr, kind: str, instance):
    built = tr.call(f"gadgets.{kind}", getattr(gadgets, kind), instance)
    tr.count("gadgets.features", built.profile.n if kind == "m_ipo" else built.net.n)
    return built


def random_formula(rng, tr, kind: str, features: int, pyramid: dict):
    """Draw 3-4 variable, 3-8 clause formulas until the gadget of the given
    kind has exactly `features` features; returns the formula and gadget.

    The gadget size is predicted from the formula first, so only formulas
    that should fit are built: a formula net has two features per variable
    plus one per literal and per clause; the summarized net adds U1, U2
    and a pyramid over the clauses; m_ipo has two formula-net copies and
    one pyramid.
    """
    for _ in range(100_000):
        num_vars = rng.choice((3, 4))
        clauses = tuple(rng.sample(clause_pool(num_vars), rng.randint(3, 8)))
        k = len(clauses)
        if k not in pyramid:
            pyramid[k] = len(gadgets.h_c([f"D_{j}" for j in range(k)]).features)
        plain = 2 * num_vars + sum(len(c) + 1 for c in clauses)
        predicted = {
            "formula_net": plain,
            "summarized_formula_net": plain + 2 + pyramid[k],
            "m_ipo": 2 * plain + pyramid[k],
        }[kind]
        if predicted != features:
            continue
        phi = gadgets.CnfFormula(num_vars=num_vars, clauses=clauses)
        built = gadget(tr, kind, phi)
        if (built.profile if kind == "m_ipo" else built.net).n == features:
            return phi, built
    raise SetupError(f"no {kind} gadget with {features} features drawn")


def formula_search(
    seed: int, tr, work_dir: str, pool: int = FORMULA_POOL, max_states=FORMULA_MAX_STATES
):
    del work_dir
    rng = random.Random(f"formula-search:{seed}")
    sat_cache: dict = {}

    def sat(phi, sigma=None):
        key = (id(phi), tuple(sorted((sigma or {}).items())))
        if key not in sat_cache:
            sat_cache[key] = (phi, oracle.sat_enumerate(phi, sigma))
        return sat_cache[key][1]

    # Per round: two formula nets, one more search on the last from a
    # partial assignment, three summarized nets and two m_ipo profiles. The
    # median request is then a summarized-net search.
    pyramid: dict[int, int] = {}
    rounds = []
    for _ in range(pool):
        ops = []
        for _ in range(2):
            phi, built = random_formula(rng, tr, "formula_net", FORMULA_NET_FEATURES, pyramid)
            ops.append(_formula_dominance(built, phi, None, sat, max_states, fresh=True))
        sigma = {v: rng.random() < 0.5 for v in rng.sample(range(1, phi.num_vars + 1), 2)}
        ops.append(_formula_dominance(built, phi, sigma, sat, max_states, fresh=False))
        for _ in range(3):
            phi, built = random_formula(
                rng, tr, "summarized_formula_net", SUMMARIZED_FEATURES, pyramid
            )
            ops.append(_formula_dominance(built, phi, None, sat, max_states, fresh=True))
        for _ in range(2):
            phi, built = random_formula(rng, tr, "m_ipo", M_IPO_FEATURES, pyramid)
            ops.append(
                Op(
                    "m_ipo.is_pareto_optimal",
                    _pareto_zero(built.profile, max_states),
                    lambda ans, phi=phi: expect(ans, not sat(phi), "is_pareto_optimal(m_ipo, 0)"),
                    built.profile.agents,
                    (0,),
                )
            )
        rounds.append(ops)
    return rounds


def _pareto_zero(profile, max_states):
    def run(t):
        compile_fresh(t, profile.agents)
        return t.call("voting.is_pareto_optimal", voting.is_pareto_optimal, profile, 0, max_states)

    return run


def _formula_dominance(built, phi, sigma, sat, max_states, fresh: bool):
    net, beta = built.net, built.beta_bar()
    alpha = built.alpha(sigma)

    def run(t):
        if fresh:
            compile_fresh(t, (net,))
        return dominance(t, net, beta, alpha, max_states)

    def check(answer):
        return witness_problem(net, answer, beta, alpha) or expect(
            answer.holds, sat(phi, sigma), "beta_bar dominates alpha iff satisfiable"
        )

    kind = type(built).__name__ + (".dominates_sigma" if sigma else ".dominates")
    return Op(kind, run, check)


# ---------------------------------------------------------------------------
# majority-optimality: the four majority queries on both sides of the
# closure/pair crossover
# ---------------------------------------------------------------------------

# (n, m, profiles, queries per profile) on the closure path in every
# round, m = None cycling through 3-5: many cheap requests at small n, one
# each at the expensive n = 10 and 11. Fixed m keeps like requests alike,
# so the median request sits inside the n = 7 group.
CLOSURE_MIX = (
    (6, 5, 3, 4),
    (7, 4, 3, 4),
    (8, 3, 2, 4),
    (9, None, 2, 1),
    (10, 3, 1, 1),
    (11, 3, 1, 1),
)


def majority_optimality(seed: int, tr, work_dir: str, pool: int = MAJORITY_POOL, max_states=None):
    del work_dir, max_states
    rng = random.Random(f"majority-optimality:{seed}")
    ref = Oracle()
    rounds = []
    for r in range(pool):
        ops = []
        # Closure path. Every query rebuilds all closure rows, so its cost
        # is set by n and m, not by the query kind.
        for n, m, profiles, queries in CLOSURE_MIX:
            for i in range(profiles):
                profile = _profile(tr, rng, n, m or 3 + (r + i) % 3)
                for q in range(queries):
                    kind = MAJORITY_QUERIES[(r + i + q) % 4]
                    ops.append(_majority_op(ref, profile, kind, rng.randrange(1 << n)))
        # Pair path: a strict majority of the agents, listed first, shares
        # one planted optimum, so is_majority_optimal there is true and the
        # seed code answers it with one tiny search per outcome and agent.
        n, m = 15 + r % 2, 3 + r % 3
        o = rng.randrange(1 << n)
        names = names_for(n)
        agents = tuple(
            build_net(tr, random_spec(rng, names, o if i <= m // 2 else None))
            for i in range(m)
        )
        profile = checked(tr, "validate_profile", model.MCPNet(agents=agents))
        alpha = rng.choice([x for x in rng.sample(range(1 << n), 2) if x != o])
        ops.append(_planted_op(profile, "is_majority_optimal", o, o))
        ops.append(_planted_op(profile, "is_majority_optimum", alpha, o))
        rounds.append(ops)
    return rounds


def _profile(tr, rng, n, m):
    names = names_for(n)
    agents = tuple(build_net(tr, random_spec(rng, names)) for _ in range(m))
    return checked(tr, "validate_profile", model.MCPNet(agents=agents))


def _path(profile) -> str:
    return "closure" if profile.n <= CLOSURE_BOUND else "pair"


def _majority_call(profile, kind, alpha):
    fn = getattr(voting, kind)
    args = (profile,) if kind.startswith("exists") else (profile, alpha)
    name = f"voting.{kind}.{_path(profile)}"

    def run(t):
        compile_fresh(t, profile.agents)
        return t.call(name, fn, *args)

    return run


def _majority_op(ref, profile, kind, alpha):
    return Op(
        f"{kind}.{_path(profile)}",
        _majority_call(profile, kind, alpha),
        lambda ans: expect(ans, ref.majority(profile, kind, alpha), kind),
    )


def _planted_op(profile, kind, alpha, planted):
    def check(ans):
        agree = sum(flip_free(agent, planted) for agent in profile.agents)
        if agree <= profile.m // 2:
            return "planted optimum is not flip-free for a majority"
        # Nothing beats the planted outcome for a majority, so it is
        # majority-optimal, and no other outcome majority-dominates it.
        return expect(ans, alpha == planted, kind)

    return Op(f"{kind}.{_path(profile)}", _majority_call(profile, kind, alpha), check)


# ---------------------------------------------------------------------------
# oracle-check: lemma checks over the small formula family, explicit graphs
# ---------------------------------------------------------------------------

LEMMA_FORMULA_TAGS = ("lemma1", "corollary1", "corollary2", "lemma5")
LEMMA_FEATURES = 13


def small_family() -> list:
    """Every formula of at most 3 variables and 1-2 clauses."""
    family = []
    for num_vars in (1, 2, 3):
        pool = clause_pool(num_vars)
        for size in (1, 2):
            for clauses in combinations(pool, size):
                family.append(gadgets.CnfFormula(num_vars=num_vars, clauses=clauses))
    return family


def oracle_check(seed: int, tr, work_dir: str, pool: int = ORACLE_POOL, max_states=None):
    del work_dir, max_states
    rng = random.Random(f"oracle-check:{seed}")
    # The family's run time is dominated by its largest members, and a
    # fixed size keeps rounds alike: the formula claims run on formulas
    # whose gadget has LEMMA_FEATURES features.
    family = small_family()
    plain = [phi for phi in family if gadget(tr, "formula_net", phi).net.n == LEMMA_FEATURES]
    summarized = [
        phi
        for phi in family
        if gadget(tr, "summarized_formula_net", phi).net.n == LEMMA_FEATURES
    ]
    rounds = []
    for r in range(pool):
        phi = rng.choice(plain)
        ops = [
            _lemma_op(tag, rng.choice(summarized) if tag == "corollary2" else phi)
            for tag in LEMMA_FORMULA_TAGS
        ]
        lemma7_profile = _profile(tr, rng, 8, 3)
        ops.append(_lemma_op("lemma7", lemma7_profile))
        ops.append(_lemma_op("theorem_nowin", None))
        sigma = {v: rng.random() < 0.5 for v in rng.sample(range(1, phi.num_vars + 1), 1)}
        ops.append(_sat_op(phi, sigma))
        for n in (12, 13, 14):
            net = checked(tr, "validate_net", build_net(tr, random_spec(rng, names_for(n))))
            ops.extend(_graph_ops(net, rng.sample(range(1 << n), 16)))
        rounds.append(ops)
    return rounds


def _lemma_op(tag, instance):
    # lemma1 checks every partial assignment, lemma7 every outcome, and
    # theorem_nowin every outcome of the fixed two-feature profile.
    if tag == "lemma1":
        want = 3**instance.num_vars
    elif tag == "lemma7":
        want = 1 << instance.n
    elif tag == "theorem_nowin":
        want = 4
    else:
        want = 1

    def check(report):
        return expect((report.ok, report.checked), (True, want), f"verify_lemma {tag}")

    return Op(
        f"verify_lemma.{tag}",
        lambda t: t.call("oracle.verify_lemma", oracle.verify_lemma, tag, instance),
        check,
    )


def _sat_op(phi, sigma):
    def check(answer):
        built = gadgets.formula_net(phi)
        reference = semantics.dominates(built.net, built.beta_bar(), built.alpha(sigma)).holds
        return expect(answer, reference, "sat_enumerate against formula-net dominance")

    return Op(
        "sat_enumerate",
        lambda t: t.call("oracle.sat_enumerate", oracle.sat_enumerate, phi, sigma),
        check,
    )


def _graph_ops(net, sample):
    """build_graph then closure on the same net; both checked against the
    search engine on a seeded sample of outcomes."""
    state = {}

    def build(t):
        graph = state["graph"] = t.call("oracle.build_graph", oracle.build_graph, net)
        if t.enabled:
            t.count("oracle.arcs", sum(map(len, graph.arcs)))
        return graph

    def check_graph(arcs):
        want = [sorted(s for _, s in semantics.improving_flips(net, o)) for o in sample]
        return expect(arcs, want, "arcs of sampled outcomes")

    def check_closure(rows):
        want = [sum(1 << s for s in semantics.reach_set(net, o)) & ~(1 << o) for o in sample[:4]]
        return expect(rows, want, "closure rows of sampled outcomes")

    return [
        Op("build_graph", build, check_graph, keep=lambda g: [sorted(g.arcs[o]) for o in sample]),
        Op(
            "closure",
            lambda t: t.call("oracle.closure", oracle.closure, state.pop("graph")),
            check_closure,
            keep=lambda clo: [clo.reach[o] for o in sample[:4]],
        ),
    ]


WORKLOADS = {
    "engine-mix": engine_mix,
    "formula-search": formula_search,
    "majority-optimality": majority_optimality,
    "oracle-check": oracle_check,
}
