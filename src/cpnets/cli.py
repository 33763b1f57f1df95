"""Command-line surface: validation, queries, gadget generation, oracle runs.

Answers are JSON objects on stdout (the oracle graph command can emit raw
DOT text instead). Exit codes: 0 when the query was answered, even with a
false answer; 2 for invalid input, usage errors included; 3 when an
instance exceeds a size gate or a search exceeds its state budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import time

from . import gadgets, oracle, semantics, voting
from .errors import CycleError, InstanceTooLarge, StateBudgetExceeded
from .model import (
    CPNet,
    CPTable,
    net_from_json,
    net_from_tables,
    net_to_json,
    outcome_str,
    parse_outcome,
    profile_from_json,
    profile_to_json,
    validate_net,
    validate_profile,
)
from .semantics import DEFAULT_MAX_STATES


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nests too deeply") from None


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _value_names(raw) -> dict[str, tuple[str, str]]:
    """Optional per-feature display names: a two-element 'values' list on a
    feature entry names its 0 and 1 values for --named parsing."""
    names: dict[str, tuple[str, str]] = {}
    if not isinstance(raw, dict):
        return names
    for entry in raw.get("features", []):
        if not isinstance(entry, dict) or "values" not in entry:
            continue
        pair = entry["values"]
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, str) for v in pair)
            or pair[0] == pair[1]
        ):
            raise ValueError(
                f"feature {entry.get('name')!r} has a malformed 'values' list"
            )
        names[entry["name"]] = (pair[0], pair[1])
    return names


def _load_net(path: str, check: bool = True):
    raw = _read_json(path)
    net = net_from_json(raw)
    if check:
        problems = validate_net(net)
        if problems:
            raise ValueError("invalid net: " + "; ".join(problems))
    return net, _value_names(raw)


def _load_profile(path: str):
    raw = _read_json(path)
    profile = profile_from_json(raw)
    problems = validate_profile(profile)
    if problems:
        raise ValueError("invalid profile: " + "; ".join(problems))
    values = _value_names(raw["agents"][0])
    return profile, values


def _outcome_arg(
    text: str, net: CPNet, values: dict[str, tuple[str, str]], named: bool
) -> int:
    if not named:
        return parse_outcome(text, net.n)
    assignments: dict[str, str] = {}
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ValueError(
                f"named outcomes use Feature=value pairs, got {chunk!r}"
            )
        key, value = chunk.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in assignments:
            raise ValueError(f"feature {key!r} assigned twice")
        assignments[key] = value
    raised = []
    for name in net.features:
        if name not in assignments:
            raise ValueError(f"missing value for feature {name!r}")
        value = assignments.pop(name)
        pair = values.get(name)
        if pair is not None and value in pair:
            bit = pair.index(value)
        elif value in ("0", "1"):
            bit = int(value)
        else:
            raise ValueError(f"unknown value {value!r} for feature {name!r}")
        if bit:
            raised.append(name)
    if assignments:
        raise ValueError(
            "unknown features: " + ", ".join(sorted(assignments))
        )
    return net.mask(*raised)


def _witness_json(seq, n: int) -> dict:
    return {
        "start": outcome_str(seq.start, n),
        "end": outcome_str(seq.end, n),
        "steps": [
            {"feature": name, "from": before, "to": after}
            for name, before, after in seq.steps
        ],
    }


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> dict:
    net, _ = _load_net(args.net, check=False)
    problems = validate_net(net)
    return {"answer": not problems, "violations": problems}


def _cmd_optimum(args) -> dict:
    net, _ = _load_net(args.net)
    best = semantics.forward_sweep_optimum(net)
    return {"answer": outcome_str(best, net.n)}


def _cmd_dominates(args) -> dict:
    net, values = _load_net(args.net)
    beta = _outcome_arg(args.beta, net, values, args.named)
    alpha = _outcome_arg(args.alpha, net, values, args.named)
    started = time.perf_counter()
    answer = semantics.dominates(net, beta, alpha, args.max_states)
    elapsed = (time.perf_counter() - started) * 1000.0
    payload = {
        "answer": answer.holds,
        "stats": {"visited": answer.visited, "ms": round(elapsed, 3)},
    }
    if args.witness and answer.holds:
        payload["witness"] = _witness_json(answer.witness, net.n)
    return payload


# Command words -> (input kind, outcome arguments in call order, library
# function, whether it searches). The input kind names the positional file
# argument, "net" or "profile". A searching function takes max_states last;
# the function answers with a bool or an (answer, outcome or None) pair.
QUERIES = {
    ("is-optimal",): ("net", ("outcome",), semantics.is_optimal, False),
    ("incomparable",): ("net", ("a", "b"), semantics.incomparable, True),
    ("pareto", "dominates"):
        ("profile", ("beta", "alpha"), voting.pareto_dominates, True),
    ("pareto", "is-optimal"):
        ("profile", ("outcome",), voting.is_pareto_optimal, True),
    ("pareto", "is-optimum"):
        ("profile", ("outcome",), voting.is_pareto_optimum, False),
    ("pareto", "exists-optimal"):
        ("profile", (), voting.exists_pareto_optimal, False),
    ("pareto", "exists-optimum"):
        ("profile", (), voting.exists_pareto_optimum, False),
    ("majority", "dominates"):
        ("profile", ("beta", "alpha"), voting.majority_dominates, True),
    ("majority", "is-optimal"):
        ("profile", ("outcome",), voting.is_majority_optimal, True),
    ("majority", "is-optimum"):
        ("profile", ("outcome",), voting.is_majority_optimum, True),
    ("majority", "exists-optimal"):
        ("profile", (), voting.exists_majority_optimal, True),
    ("majority", "exists-optimum"):
        ("profile", (), voting.exists_majority_optimum, True),
}


def _cmd_query(args) -> dict:
    kind, outcomes, fn, searches = QUERIES[args.words]
    load = _load_net if kind == "net" else _load_profile
    target, values = load(getattr(args, kind))
    base = target if kind == "net" else target.agents[0]
    points = [
        _outcome_arg(getattr(args, name), base, values, args.named)
        for name in outcomes
    ]
    budget = (args.max_states,) if searches else ()
    result = fn(target, *points, *budget)
    if isinstance(result, bool):
        return {"answer": result}
    ok, witness = result
    return {
        "answer": ok,
        "witness": None if witness is None else outcome_str(witness, target.n),
    }


def _cmd_gadget(args) -> dict:
    kind = args.kind

    def cnf() -> gadgets.CnfFormula:
        if not args.cnf:
            raise ValueError(f"gadget {kind} needs --cnf")
        return gadgets.parse_dimacs(_read_text(args.cnf))

    def qbf() -> gadgets.Qbf2Formula:
        if not args.qbf:
            raise ValueError(f"gadget {kind} needs --qbf")
        return gadgets.parse_qdimacs(_read_text(args.qbf))

    if kind == "formula-net":
        return net_to_json(gadgets.formula_net(cnf()).net)
    if kind == "summarized":
        return net_to_json(gadgets.summarized_formula_net(cnf()).net)
    if kind in ("hc", "hd"):
        if args.m is None or args.m < 1:
            raise ValueError(f"gadget {kind} needs -m N with N >= 1")
        inputs = [f"S_{i}" for i in range(1, args.m + 1)]
        build = gadgets.h_c if kind == "hc" else gadgets.h_d
        fragment = build(inputs)
        tables = [CPTable(name, (), {(): 1}) for name in inputs] + [
            fragment.tables[name] for name in fragment.features
        ]
        return net_to_json(net_from_tables(tables))
    if kind == "direct":
        if not args.outcome:
            raise ValueError("gadget direct needs --outcome bits")
        bits = args.outcome
        if not bits or any(c not in "01" for c in bits):
            raise ValueError("--outcome must be a nonempty bitstring")
        features = [f"X{i}" for i in range(1, len(bits) + 1)]
        return net_to_json(gadgets.direct_net(int(bits, 2), features))
    if kind == "m-ipo":
        return profile_to_json(gadgets.m_ipo(cnf()).profile)
    if kind == "m-eml":
        return profile_to_json(gadgets.m_eml(qbf()).profile)
    if kind == "m-imm":
        return profile_to_json(gadgets.m_imm(qbf()).profile)
    return profile_to_json(gadgets.m_nowin())


def _cmd_oracle_graph(args):
    net, _ = _load_net(args.net)
    graph = oracle.build_graph(net, args.oracle_bound)
    if args.dot:
        return oracle.to_dot(graph)
    n = net.n
    return {
        "arcs": {
            outcome_str(u, n): [outcome_str(v, n) for v in graph.arcs[u]]
            for u in range(1 << n)
        }
    }


def _cmd_oracle_closure(args) -> dict:
    net, _ = _load_net(args.net)
    clo = oracle.closure(oracle.build_graph(net, args.oracle_bound))
    n = net.n
    reach = {}
    for alpha in range(1 << n):
        row = clo.reach[alpha]
        better = []
        while row:
            low = row & -row
            better.append(outcome_str(low.bit_length() - 1, n))
            row ^= low
        reach[outcome_str(alpha, n)] = better
    return {"reach": reach}


def _cmd_oracle_check(args) -> dict:
    """Compare the search engine against the explicit closure on every
    ordered outcome pair."""
    net, _ = _load_net(args.net)
    clo = oracle.closure(oracle.build_graph(net, args.oracle_bound))
    n = net.n
    for alpha in range(1 << n):
        mask = 0
        for s in semantics.reach_set(net, alpha, args.max_states):
            mask |= 1 << s
        mask &= ~(1 << alpha)
        if mask != clo.reach[alpha]:
            return {
                "answer": False,
                "detail": f"disagreement on outcomes above {outcome_str(alpha, n)}",
            }
    size = 1 << n
    return {"answer": True, "pairs": size * (size - 1)}


def _cmd_oracle_verify(args) -> dict:
    kind = oracle.CLAIMS[args.lemma][0]
    path = getattr(args, kind)
    if path is None:
        instance = None
    elif kind == "cnf":
        instance = gadgets.parse_dimacs(_read_text(path))
    else:
        instance, _ = _load_profile(path)
    report = oracle.verify_lemma(
        args.lemma,
        instance,
        bound=args.oracle_bound,
        max_states=args.max_states,
    )
    return {"answer": report.ok, "checked": report.checked, "detail": report.detail}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_max_states(p: argparse.ArgumentParser, default: int = DEFAULT_MAX_STATES):
    p.add_argument(
        "--max-states",
        type=int,
        default=default,
        help="abort any flip search visiting more than this many outcomes",
    )


def _add_named(p: argparse.ArgumentParser):
    p.add_argument(
        "--named",
        action="store_true",
        help="read outcomes as Feature=value lists instead of bitstrings",
    )


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, so main answers them as bad input."""

    def error(self, message: str):
        raise ValueError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process: parse_args leaves the parser unchanged."""
    parser = _Parser(
        prog="cpnets",
        description="Preference reasoning over conditional preference nets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a net's structural invariants")
    p.add_argument("net")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("optimum", help="the unique optimum of an acyclic net")
    p.add_argument("net")
    p.set_defaults(handler=_cmd_optimum)

    p = sub.add_parser("dominates", help="does beta dominate alpha")
    p.add_argument("net")
    p.add_argument("beta")
    p.add_argument("alpha")
    p.add_argument("--witness", action="store_true", help="include a flip sequence")
    _add_named(p)
    _add_max_states(p)
    p.set_defaults(handler=_cmd_dominates)

    groups = {(): sub}
    for words, (kind, outcomes, _, searches) in QUERIES.items():
        group, name = words[:-1], words[-1]
        if group not in groups:
            gp = sub.add_parser(group[0], help=f"{group[0]} voting queries")
            groups[group] = gp.add_subparsers(dest="query", required=True)
        q = groups[group].add_parser(name)
        q.add_argument(kind)
        for outcome in outcomes:
            q.add_argument(outcome)
        if outcomes:
            _add_named(q)
        if searches:
            _add_max_states(q)
        q.set_defaults(handler=_cmd_query, words=words)

    p = sub.add_parser("gadget", help="generate nets and profiles from formulas")
    p.add_argument(
        "kind",
        choices=(
            "formula-net",
            "summarized",
            "hc",
            "hd",
            "direct",
            "m-ipo",
            "m-eml",
            "m-imm",
            "m-nowin",
        ),
    )
    p.add_argument("--cnf", help="DIMACS file for formula gadgets")
    p.add_argument("--qbf", help="two-block QDIMACS-style file")
    p.add_argument("--outcome", help="bitstring for the direct gadget")
    p.add_argument("-m", type=int, help="input count for hc/hd")
    p.set_defaults(handler=_cmd_gadget)

    op = sub.add_parser("oracle", help="explicit-graph reference procedures")
    oq = op.add_subparsers(dest="query", required=True)

    p = oq.add_parser("graph", help="materialize the improving-flip graph")
    p.add_argument("net")
    p.add_argument("--dot", action="store_true", help="emit DOT text")
    p.add_argument("--oracle-bound", type=int, default=oracle.ORACLE_BOUND)
    p.set_defaults(handler=_cmd_oracle_graph)

    p = oq.add_parser("closure", help="full dominance relation of a net")
    p.add_argument("net")
    p.add_argument("--oracle-bound", type=int, default=oracle.ORACLE_BOUND)
    p.set_defaults(handler=_cmd_oracle_closure)

    p = oq.add_parser("check", help="engine vs closure on all ordered pairs")
    p.add_argument("net")
    p.add_argument("--oracle-bound", type=int, default=oracle.ORACLE_BOUND)
    _add_max_states(p)
    p.set_defaults(handler=_cmd_oracle_check)

    p = oq.add_parser("verify", help="check a named claim on an instance")
    p.add_argument("--lemma", required=True, choices=oracle.LEMMA_TAGS)
    p.add_argument("--cnf", help="DIMACS file for formula claims")
    p.add_argument("--profile", help="profile JSON for profile claims")
    p.add_argument("--oracle-bound", type=int, default=oracle.ORACLE_BOUND)
    _add_max_states(p, default=oracle.VERIFY_MAX_STATES)
    p.set_defaults(handler=_cmd_oracle_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        payload = args.handler(args)
    except (StateBudgetExceeded, InstanceTooLarge) as exc:
        print(json.dumps({"error": str(exc)}))
        return 3
    except (ValueError, CycleError, OSError) as exc:
        print(json.dumps({"error": str(exc)}))
        return 2
    if isinstance(payload, str):
        print(payload)
    else:
        print(json.dumps(payload, indent=2))
    return 0
