"""Benchmark for cpnets: seeded, closed-loop workloads, one client each.

Run from the repository root:

    python3 perfbench/run.py --workload engine-mix --seed 1 --seconds 20 --trace 0

With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs a
fixed number of rounds twice, untraced and then traced, and prints the
per-layer metrics. The last line of stdout is one JSON object. Any wrong
answer makes the exit code 1; a missing package makes it 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

from tracing import NullTracer, Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 3
# Fixed rounds per traced pass, about a quarter of a 20-second run at the
# seed commit, so traced counts are the same for every run of a seed.
TRACE_ROUNDS = {
    "engine-mix": 120,
    "formula-search": 10,
    "majority-optimality": 2,
    "oracle-check": 6,
}
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
CLI_REPEATS = 3


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least 10 samples beyond it."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def settle() -> None:
    """Move everything built so far out of the collector's reach. The input
    pool holds millions of objects; without this, full collections during
    the timed phase would charge their scan of the pool to whichever
    request triggered them."""
    gc.collect()
    gc.freeze()


def run_rounds(rounds, tracer, deadline=None, max_rounds=None):
    """Closed loop over whole rounds until the deadline or the round limit.
    Returns [(round, op, answer, error, seconds)] and the wall time."""
    records = []
    r = 0
    began = perf_counter()
    while True:
        for j, op in enumerate(rounds[r % len(rounds)]):
            tracer.begin_request(f"{r}.{j}")
            t0 = perf_counter()
            try:
                answer, error = op.run(tracer), None
            except Exception as exc:  # counted as a failed operation
                answer, error = None, exc
            elapsed = perf_counter() - t0
            tracer.end_request()
            records.append((r, j, None if error else op.keep(answer), error, elapsed))
        r += 1
        if max_rounds is not None and r >= max_rounds:
            break
        if deadline is not None and perf_counter() >= deadline:
            break
    return records, perf_counter() - began


def classify(error) -> str:
    from cpnets import InstanceTooLarge, StateBudgetExceeded
    from workloads import CliFailure

    if isinstance(error, StateBudgetExceeded) or (
        isinstance(error, CliFailure) and "budget" in str(error)
    ):
        return "budget_exceeded"
    if isinstance(error, InstanceTooLarge) or (
        isinstance(error, CliFailure) and error.code == 3
    ):
        return "too_large"
    return "error"


def failing_agent(op, error):
    """First agent whose own search from the query's outcomes runs out of
    the same budget; None for single-net queries."""
    from cpnets import StateBudgetExceeded, reach_set

    if not isinstance(error, StateBudgetExceeded):
        return None
    for i, agent in enumerate(op.agents):
        try:
            for start in op.starts:
                reach_set(agent, start, error.budget)
        except StateBudgetExceeded:
            return i
    return None


def failures(rounds, records) -> list[dict]:
    out = []
    for r, j, _, error, _ in records:
        if error is None:
            continue
        op = rounds[r % len(rounds)][j]
        out.append(
            {
                "request": f"{r}.{j}",
                "kind": op.kind,
                "agent": failing_agent(op, error),
                "class": classify(error),
                "error": f"{type(error).__name__}: {error}",
            }
        )
    return out


def gate(rounds, records) -> tuple[int, list[str]]:
    """Check every answered operation; returns (checked, mismatches)."""
    mismatches = []
    checked = 0
    for r, j, answer, error, _ in records:
        if error is not None:
            continue
        op = rounds[r % len(rounds)][j]
        try:
            problem = op.check(answer)
        except Exception as exc:  # a reference that cannot be built fails the check
            problem = f"check raised {type(exc).__name__}: {exc}"
        checked += 1
        if problem:
            mismatches.append(f"request {r}.{j} {op.kind}: {problem}")
    return checked, mismatches


def build(workload, seed, tracer, work_dir, pool=None):
    from workloads import WORKLOADS

    os.makedirs(work_dir, exist_ok=True)
    kwargs = {} if pool is None else {"pool": pool}
    return WORKLOADS[workload](seed, tracer, work_dir, **kwargs)


def end_to_end(records, wall: float, setup_s: float, rss_mb: float) -> dict:
    lat = sorted(rec[4] for rec in records)
    n = len(lat)
    tail_p = tail_percentile(n)
    failed = sum(1 for rec in records if rec[3] is not None)
    return {
        "setup_s": (setup_s, "s", ""),
        "ops_per_s": (n / wall, "1/s", f"n={n}"),
        "latency_p50_ms": (percentile(lat, 50.0) * 1e3, "ms", f"n={n}"),
        "latency_tail_ms": (
            percentile(lat, tail_p) * 1e3,
            "ms",
            f"p{tail_p:g}, n={n}, {n - int(n * tail_p / 100.0)} beyond",
        ),
        "failed_ratio": (failed / n, "ratio", f"{failed}/{n}"),
        "peak_rss_mb": (rss_mb, "MB", ""),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cli_process_ms(seed: int, work_dir: str) -> tuple[dict, list[str]]:
    """Median wall time of sequential `python -m cpnets` processes, per
    command group, one process at a time."""
    import random

    from workloads import names_for, random_spec, spec_json, write_json

    rng = random.Random(f"cli-process:{seed}")
    net = os.path.join(work_dir, "cli-net.json")
    small = os.path.join(work_dir, "cli-small.json")
    profile = os.path.join(work_dir, "cli-profile.json")
    cnf = os.path.join(work_dir, "cli-phi.cnf")
    names = names_for(12)
    write_json(net, spec_json(random_spec(rng, names)))
    write_json(small, spec_json(random_spec(rng, names_for(8))))
    write_json(profile, {"agents": [spec_json(random_spec(rng, names)) for _ in range(3)]})
    with open(cnf, "w", encoding="utf-8") as fh:
        fh.write("p cnf 3 3\n1 -2 0\n2 3 0\n-1 -3 0\n")
    a, b = (format(rng.randrange(1 << 12), "012b") for _ in range(2))
    commands = {
        "dominates": ["dominates", net, b, a, "--witness"],
        "pareto": ["pareto", "dominates", profile, b, a],
        "majority": ["majority", "dominates", profile, b, a],
        "gadget": ["gadget", "formula-net", "--cnf", cnf],
        "oracle": ["oracle", "check", small],
    }
    env = dict(os.environ, PYTHONPATH=SRC)
    out, problems = {}, []
    for group, argv in commands.items():
        times = []
        for _ in range(CLI_REPEATS):
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "cpnets", *argv],
                cwd=ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            times.append((perf_counter() - t0) * 1e3)
            try:
                payload = json.loads(proc.stdout)
            except ValueError:
                payload = None
            key = "features" if group == "gadget" else "answer"
            if proc.returncode != 0 or not isinstance(payload, dict) or key not in payload:
                problems.append(f"cpnets {group} exited {proc.returncode}: {proc.stderr}")
        out[f"cli.process_ms.{group}"] = (statistics.median(times), "ms")
    return out, problems


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit, *note) in metrics.items():
        extra = f"  ({note[0]})" if note and note[0] else ""
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:<44} {shown} {unit}{extra}")


def print_kinds(rounds, records) -> None:
    by_kind: dict[str, list[float]] = {}
    for r, j, _, _, seconds in records:
        by_kind.setdefault(rounds[r % len(rounds)][j].kind, []).append(seconds)
    print("by request kind: count, median ms")
    for kind, times in sorted(by_kind.items()):
        print(f"    {kind:<42} {len(times):>6} {statistics.median(times) * 1e3:>12.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--rounds",
        type=int,
        help="run this many rounds instead of --seconds (harness self-test)",
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cpnets", "__init__.py")):
        print(f"perfbench: cpnets sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    began = perf_counter()
    import cpnets

    import_s = perf_counter() - began
    from workloads import WORKLOADS

    if os.path.dirname(os.path.abspath(cpnets.__file__)) != os.path.join(SRC, "cpnets"):
        print(f"perfbench: imported cpnets from {cpnets.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload; choose from {', '.join(WORKLOADS)}")

    work_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.trace:
            return trace_run(args, work_dir)
        return timed_run(args, work_dir, import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def report(result: dict, mismatches: list[str], fails: list[dict], checked: int) -> int:
    for f in fails[:20]:
        print(f"failed {f['request']} {f['kind']} agent={f['agent']} {f['class']}: {f['error']}")
    for m in mismatches[:20]:
        print(f"WRONG ANSWER {m}")
    print(f"checked {checked} answers, {len(mismatches)} wrong, {len(fails)} failed")
    result["correct"] = not mismatches
    print(json.dumps(result))
    return 0 if not mismatches else 1


def timed_run(args, work_dir: str, import_s: float) -> int:
    pool = args.rounds
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        rounds = build(args.workload, args.seed, NullTracer(), work_dir, pool)
        setups.append(perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)
    settle()
    deadline = None if args.rounds else perf_counter() + args.seconds
    records, wall = run_rounds(rounds, NullTracer(), deadline, args.rounds)
    rss = peak_rss_mb()
    metrics = end_to_end(records, wall, setup_s, rss)
    rounds_run = records[-1][0] + 1
    print(
        f"workload {args.workload} seed {args.seed} nproc {os.cpu_count()} "
        f"rounds {rounds_run} (pool {len(rounds)}) ops {len(records)} "
        f"setup: import {import_s:.4f} s + median of {SETUP_REPEATS} builds"
    )
    print_table("end-to-end", metrics)
    print_kinds(rounds, records)
    fails = failures(rounds, records)
    checked, mismatches = gate(rounds, records)
    result = {
        "correct": True,
        "attempted": len(records),
        "failed": len(fails),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
            if name != "failed_ratio"
        },
    }
    return report(result, mismatches, fails, checked)


def trace_run(args, work_dir: str) -> int:
    k = args.rounds or TRACE_ROUNDS[args.workload]
    plain = build(args.workload, args.seed, NullTracer(), work_dir, k)
    settle()
    plain_records, plain_wall = run_rounds(plain, NullTracer(), max_rounds=k)

    tracer = Tracer()
    traced = build(args.workload, args.seed, tracer, work_dir, k)
    settle()
    records, wall = run_rounds(traced, tracer, max_rounds=k)
    fails = failures(traced, records)
    for layer, cls in (("semantics", "budget_exceeded"), ("voting", "too_large")):
        tracer.count(f"{layer}.{cls}", sum(f["class"] == cls for f in fails))
    metrics = layer_metrics(tracer)
    untraced_ops, traced_ops = len(plain_records) / plain_wall, len(records) / wall
    metrics["trace.overhead"] = (100.0 * (untraced_ops - traced_ops) / untraced_ops, "%")
    cli_metrics, cli_problems = cli_process_ms(args.seed, work_dir)
    metrics.update(cli_metrics)

    os.makedirs(WORK, exist_ok=True)
    trace_file = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
    tracer.dump(trace_file)
    print(
        f"workload {args.workload} seed {args.seed} nproc {os.cpu_count()} traced rounds {k} "
        f"ops {len(records)}; untraced {untraced_ops:.4g} ops/s, traced {traced_ops:.4g} ops/s; "
        f"{len(tracer.spans)} spans in {os.path.relpath(trace_file, ROOT)}"
    )
    print_table("per-layer", {name: (v, u, "") for name, (v, u) in metrics.items()})
    checked, mismatches = gate(traced, records)
    mismatches += cli_problems
    if [rec[3] is None for rec in plain_records] != [rec[3] is None for rec in records]:
        mismatches.append("untraced and traced passes fail on different requests")
    result = {
        "correct": True,
        "attempted": len(records),
        "failed": len(fails),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return report(result, mismatches, fails, checked)


if __name__ == "__main__":
    sys.exit(main())
