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
import os
import sys
import time

from . import gadgets, oracle, semantics, voting
from .errors import CycleError, InstanceTooLarge, StateBudgetExceeded
from .model import (
    CPNet,
    CPTable,
    MCPNet,
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
    feature entry names its 0 and 1 values for --named parsing. The raw
    JSON has already passed net_from_json. A digit may name only its own
    value, so "0" and "1" keep meaning 0 and 1."""
    names: dict[str, tuple[str, str]] = {}
    for entry in raw["features"]:
        if "values" not in entry:
            continue
        pair = entry["values"]
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, str) for v in pair)
            or pair[0] == pair[1]
        ):
            raise ValueError(
                f"feature {entry['name']!r} has a malformed 'values' list"
            )
        if pair[0] == "1" or pair[1] == "0":
            raise ValueError(
                f"feature {entry['name']!r}: a digit in 'values' may name "
                "only its own value"
            )
        names[entry["name"]] = (pair[0], pair[1])
    return names


def _load(kind: str, path: str):
    """Read, parse and validate a "net" or "profile" file; returns it with
    the value names of its features. Every agent of a profile must name
    each feature's values alike, or leave the feature unnamed alike."""
    raw = _read_json(path)
    if kind == "net":
        target = net_from_json(raw)
        problems = validate_net(target)
    else:
        target = profile_from_json(raw)
        problems = validate_profile(target)
    if problems:
        raise ValueError(f"invalid {kind}: " + "; ".join(problems))
    if kind == "net":
        return target, _value_names(raw)
    names = []
    for i, agent in enumerate(raw["agents"]):
        try:
            names.append(_value_names(agent))
        except ValueError as exc:
            raise ValueError(f"agent {i}: {exc}") from None
    for i, other in enumerate(names[1:], 1):
        for name in target.features:
            if other.get(name) != names[0].get(name):
                raise ValueError(
                    f"agent {i} names the values of feature {name!r} "
                    "differently from agent 0"
                )
    return target, names[0]


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
    problems = validate_net(net_from_json(_read_json(args.net)))
    return {"answer": not problems, "violations": problems}


def _cmd_dominates(args) -> dict:
    net, values = _load("net", args.net)
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
# the function answers with a bool, an outcome, or an (answer, outcome or
# None) pair.
QUERIES = {
    ("optimum",): ("net", (), semantics.forward_sweep_optimum, False),
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
    target, values = _load(kind, getattr(args, kind))
    base = target if kind == "net" else target.agents[0]
    points = [
        _outcome_arg(getattr(args, name), base, values, args.named)
        for name in outcomes
    ]
    budget = (args.max_states,) if searches else ()
    result = fn(target, *points, *budget)
    if isinstance(result, bool):
        return {"answer": result}
    if isinstance(result, int):
        return {"answer": outcome_str(result, target.n)}
    ok, witness = result
    return {
        "answer": ok,
        "witness": None if witness is None else outcome_str(witness, target.n),
    }


def _read_cnf(path: str) -> gadgets.CnfFormula:
    return gadgets.parse_dimacs(_read_text(path))


def _read_qbf(path: str) -> gadgets.Qbf2Formula:
    return gadgets.parse_qdimacs(_read_text(path))


def _pyramid(build, m: int) -> CPNet:
    """hc or hd over m inputs S_1..S_m that are parentless and prefer 1."""
    inputs = [CPTable(f"S_{i}", (), {(): 1}) for i in range(1, m + 1)]
    fragment = build([table.feature for table in inputs])
    return net_from_tables(inputs + [fragment.tables[f] for f in fragment.features])


def _direct(bits: str) -> CPNet:
    features = [f"X{i}" for i in range(1, len(bits) + 1)]
    return gadgets.direct_net(parse_outcome(bits, len(bits)), features)


# Gadget kind -> (the option it reads, or None; its builder, which takes
# that option's value and returns a CPNet or an MCPNet).
GADGETS = {
    "formula-net": ("--cnf", lambda p: gadgets.formula_net(_read_cnf(p)).net),
    "summarized": ("--cnf", lambda p: gadgets.summarized_formula_net(_read_cnf(p)).net),
    "hc": ("-m", functools.partial(_pyramid, gadgets.h_c)),
    "hd": ("-m", functools.partial(_pyramid, gadgets.h_d)),
    "direct": ("--outcome", _direct),
    "m-ipo": ("--cnf", lambda p: gadgets.m_ipo(_read_cnf(p)).profile),
    "m-eml": ("--qbf", lambda p: gadgets.m_eml(_read_qbf(p)).profile),
    "m-imm": ("--qbf", lambda p: gadgets.m_imm(_read_qbf(p)).profile),
    "m-nowin": (None, lambda _: gadgets.m_nowin()),
}


def _refuse_unread(what: str, args, options, read) -> None:
    """Passing an option the command does not read is a usage error."""
    for option in options:
        if option != read and getattr(args, option.lstrip("-")) is not None:
            raise ValueError(f"{what} does not take {option}")


def _cmd_gadget(args) -> dict:
    option, build = GADGETS[args.kind]
    value = option and getattr(args, option.lstrip("-"))
    if option and not value:
        raise ValueError(f"gadget {args.kind} needs {option}")
    options = [other for other, _ in GADGETS.values() if other]
    _refuse_unread(f"gadget {args.kind}", args, options, option)
    built = build(value)
    return profile_to_json(built) if isinstance(built, MCPNet) else net_to_json(built)


def _cmd_oracle_graph(args):
    net, _ = _load("net", args.net)
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
    net, _ = _load("net", args.net)
    clo = oracle.closure(oracle.build_graph(net, args.oracle_bound))
    n = net.n
    return {
        "reach": {
            outcome_str(alpha, n): [
                outcome_str(u, n) for u in oracle.members(clo.reach[alpha])
            ]
            for alpha in range(1 << n)
        }
    }


def _cmd_oracle_check(args) -> dict:
    """Compare the search engine against the explicit closure on every
    ordered outcome pair: a row agrees when the engine reaches as many
    outcomes as the closure holds and each of them is in it."""
    net, _ = _load("net", args.net)
    clo = oracle.closure(oracle.build_graph(net, args.oracle_bound))
    n = net.n
    for alpha, row in enumerate(clo.reach):
        engine = semantics.reach_set(net, alpha)
        engine.discard(alpha)
        if len(engine) != row.bit_count() or any(
            not (row >> u) & 1 for u in engine
        ):
            wrong = engine.symmetric_difference(oracle.members(row))
            return {
                "answer": False,
                "detail": f"disagreement on {outcome_str(min(wrong), n)} "
                f"above {outcome_str(alpha, n)}",
            }
    size = 1 << n
    return {"answer": True, "pairs": size * (size - 1)}


def _cmd_oracle_verify(args) -> dict:
    kind = oracle.CLAIMS[args.lemma][0]
    options = [f"--{other}" for other, _, _ in oracle.CLAIMS.values()]
    _refuse_unread(f"oracle verify --lemma {args.lemma}", args, options, f"--{kind}")
    path = getattr(args, kind)
    if path is None:
        instance = None
    elif kind == "cnf":
        instance = _read_cnf(path)
    else:
        instance, _ = _load("profile", path)
    report = oracle.verify_lemma(args.lemma, instance, bound=args.oracle_bound)
    return {"answer": report.ok, "checked": report.checked, "detail": report.detail}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _bound(text: str) -> int:
    """A budget or size bound: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an int of at least 1, got {text!r}")
    return value


def _add_max_states(p: argparse.ArgumentParser):
    p.add_argument(
        "--max-states",
        type=_bound,
        default=DEFAULT_MAX_STATES,
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
    p.add_argument("kind", choices=GADGETS)
    p.add_argument("--cnf", help="DIMACS file for formula gadgets")
    p.add_argument("--qbf", help="two-block QDIMACS-style file")
    p.add_argument("--outcome", help="bitstring for the direct gadget")
    p.add_argument("-m", type=_bound, help="input count for hc/hd")
    p.set_defaults(handler=_cmd_gadget)

    op = sub.add_parser("oracle", help="explicit-graph reference procedures")
    oq = op.add_subparsers(dest="query", required=True)

    p = oq.add_parser("graph", help="materialize the improving-flip graph")
    p.add_argument("net")
    p.add_argument("--dot", action="store_true", help="emit DOT text")
    p.add_argument("--oracle-bound", type=_bound, default=oracle.ORACLE_BOUND)
    p.set_defaults(handler=_cmd_oracle_graph)

    p = oq.add_parser("closure", help="full dominance relation of a net")
    p.add_argument("net")
    p.add_argument("--oracle-bound", type=_bound, default=oracle.ORACLE_BOUND)
    p.set_defaults(handler=_cmd_oracle_closure)

    p = oq.add_parser("check", help="engine vs closure on all ordered pairs")
    p.add_argument("net")
    p.add_argument("--oracle-bound", type=_bound, default=oracle.ORACLE_BOUND)
    p.set_defaults(handler=_cmd_oracle_check)

    p = oq.add_parser("verify", help="check a named claim on an instance")
    p.add_argument("--lemma", required=True, choices=oracle.LEMMA_TAGS)
    p.add_argument("--cnf", help="DIMACS file for formula claims")
    p.add_argument("--profile", help="profile JSON for profile claims")
    p.add_argument("--oracle-bound", type=_bound, default=oracle.ORACLE_BOUND)
    p.set_defaults(handler=_cmd_oracle_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        payload = args.handler(args)
        text = payload if isinstance(payload, str) else json.dumps(payload, indent=2)
        code = 0
    except (StateBudgetExceeded, InstanceTooLarge) as exc:
        text, code = json.dumps({"error": str(exc)}), 3
    except (ValueError, CycleError, OSError) as exc:
        text, code = json.dumps({"error": str(exc)}), 2
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does. The unwritten
        # text stays buffered, so point stdout at devnull, or the flush at
        # interpreter shutdown fails again and exits 120.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code
