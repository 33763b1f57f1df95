"""Command-line surface: validation, queries, gadget generation, oracle runs.

Answers are JSON objects on stdout (the oracle graph command can emit raw
DOT text instead). Exit codes: 0 when the query was answered, even with a
false answer; 2 for invalid input; 3 when an instance exceeds a size gate
or a search exceeds its state budget.
"""

from __future__ import annotations

import argparse
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


def _cmd_is_optimal(args) -> dict:
    net, values = _load_net(args.net)
    alpha = _outcome_arg(args.outcome, net, values, args.named)
    return {"answer": semantics.is_optimal(net, alpha)}


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


def _cmd_incomparable(args) -> dict:
    net, values = _load_net(args.net)
    a = _outcome_arg(args.a, net, values, args.named)
    b = _outcome_arg(args.b, net, values, args.named)
    return {"answer": semantics.incomparable(net, a, b, args.max_states)}


def _cmd_pareto(args) -> dict:
    profile, values = _load_profile(args.profile)
    base = profile.agents[0]
    if args.query == "dominates":
        beta = _outcome_arg(args.beta, base, values, args.named)
        alpha = _outcome_arg(args.alpha, base, values, args.named)
        return {
            "answer": voting.pareto_dominates(
                profile, beta, alpha, args.max_states
            )
        }
    if args.query == "is-optimal":
        alpha = _outcome_arg(args.outcome, base, values, args.named)
        return {
            "answer": voting.is_pareto_optimal(profile, alpha, args.max_states)
        }
    if args.query == "is-optimum":
        alpha = _outcome_arg(args.outcome, base, values, args.named)
        return {"answer": voting.is_pareto_optimum(profile, alpha)}
    if args.query == "exists-optimal":
        ok, witness = voting.exists_pareto_optimal(profile)
        return {"answer": ok, "witness": outcome_str(witness, profile.n)}
    ok, witness = voting.exists_pareto_optimum(profile)
    return {
        "answer": ok,
        "witness": None if witness is None else outcome_str(witness, profile.n),
    }


def _cmd_majority(args) -> dict:
    profile, values = _load_profile(args.profile)
    base = profile.agents[0]
    if args.query == "dominates":
        beta = _outcome_arg(args.beta, base, values, args.named)
        alpha = _outcome_arg(args.alpha, base, values, args.named)
        return {
            "answer": voting.majority_dominates(
                profile, beta, alpha, args.max_states
            )
        }
    if args.query == "is-optimal":
        alpha = _outcome_arg(args.outcome, base, values, args.named)
        return {"answer": voting.is_majority_optimal(profile, alpha, args.max_states)}
    if args.query == "is-optimum":
        alpha = _outcome_arg(args.outcome, base, values, args.named)
        return {"answer": voting.is_majority_optimum(profile, alpha, args.max_states)}
    if args.query == "exists-optimal":
        ok, witness = voting.exists_majority_optimal(profile, args.max_states)
    else:
        ok, witness = voting.exists_majority_optimum(profile, args.max_states)
    return {
        "answer": ok,
        "witness": None if witness is None else outcome_str(witness, profile.n),
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
    formula_tags = ("corollary1", "lemma1", "corollary2", "lemma5")
    if args.lemma in formula_tags:
        if not args.cnf:
            raise ValueError(f"--lemma {args.lemma} needs --cnf")
        instance = gadgets.parse_dimacs(_read_text(args.cnf))
    elif args.lemma == "lemma7":
        if not args.profile:
            raise ValueError("--lemma lemma7 needs --profile")
        instance, _ = _load_profile(args.profile)
    elif args.lemma == "theorem_nowin":
        instance = _load_profile(args.profile)[0] if args.profile else None
    else:
        raise ValueError(
            f"unknown lemma tag {args.lemma!r}; known tags: "
            + ", ".join(oracle.LEMMA_TAGS)
        )
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    p = sub.add_parser("is-optimal", help="does the outcome lack improving flips")
    p.add_argument("net")
    p.add_argument("outcome")
    _add_named(p)
    p.set_defaults(handler=_cmd_is_optimal)

    p = sub.add_parser("dominates", help="does beta dominate alpha")
    p.add_argument("net")
    p.add_argument("beta")
    p.add_argument("alpha")
    p.add_argument("--witness", action="store_true", help="include a flip sequence")
    _add_named(p)
    _add_max_states(p)
    p.set_defaults(handler=_cmd_dominates)

    p = sub.add_parser("incomparable", help="is neither outcome dominant")
    p.add_argument("net")
    p.add_argument("a")
    p.add_argument("b")
    _add_named(p)
    _add_max_states(p)
    p.set_defaults(handler=_cmd_incomparable)

    for group, handler in (("pareto", _cmd_pareto), ("majority", _cmd_majority)):
        gp = sub.add_parser(group, help=f"{group} voting queries")
        gq = gp.add_subparsers(dest="query", required=True)
        for query in (
            "dominates",
            "is-optimal",
            "is-optimum",
            "exists-optimal",
            "exists-optimum",
        ):
            q = gq.add_parser(query)
            q.add_argument("profile")
            if query == "dominates":
                q.add_argument("beta")
                q.add_argument("alpha")
            elif query.startswith("is-"):
                q.add_argument("outcome")
            _add_named(q)
            if group == "majority" or query in ("dominates", "is-optimal"):
                _add_max_states(q)
            q.set_defaults(handler=handler)

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
    p.add_argument("--lemma", required=True)
    p.add_argument("--cnf", help="DIMACS file for formula claims")
    p.add_argument("--profile", help="profile JSON for profile claims")
    p.add_argument("--oracle-bound", type=int, default=oracle.ORACLE_BOUND)
    _add_max_states(p, default=1 << 22)
    p.set_defaults(handler=_cmd_oracle_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
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
