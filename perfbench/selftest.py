"""Fast self-test of the benchmark harness.

Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload for one round, untraced and traced, and checks that
every metric named in BENCHMARK.json is printed with its unit, that traced
counts repeat exactly, that the correctness gate trips when a reference is
corrupted, and that budget failures are counted with their query and agent.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402

COUNTS = ("model.calls", "semantics.calls", "semantics.visited", "semantics.budget_exceeded",
          "voting.too_large", "gadgets.features", "oracle.arcs")
SEED = 7


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def bench(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--rounds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    require(proc.returncode == 0, f"{workload} trace={trace} exit {proc.returncode}: {proc.stderr}")
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        counts = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            text, result = bench(workload, trace)
            require(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            require(result["correct"] and result["attempted"] >= 1, f"{workload} result {result}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            require(got == want, f"{workload} trace={trace} metrics differ: {set(got) ^ set(want)}")
            table = [line.split() for line in text.splitlines()[:-1] if line.startswith("  ")]
            printed = {(row[0], row[2]) for row in table}
            for name, unit in want.items():
                require((name, unit) in printed, f"{workload}: {name} [{unit}] not printed")
            if trace:
                counts.append({c: result["metrics"][c]["value"] for c in COUNTS})
        require(counts[0] == counts[1], f"{workload} traced counts differ: {counts}")
        print(f"ok  {workload}: metrics printed with units, traced counts repeat")


def answered(workload: str, work_dir: str, **kwargs):
    rounds = workloads.WORKLOADS[workload](SEED, NullTracer(), work_dir, pool=1, **kwargs)
    records, _ = run.run_rounds(rounds, NullTracer(), max_rounds=1)
    return rounds, records


def inverted_closure(real):
    def corrupt(graph):
        clo = real(graph)
        full = (1 << (1 << clo.n)) - 1
        return type(clo)(n=clo.n, reach=[~row & full for row in clo.reach])
    return corrupt


def check_gate(work_dir: str) -> None:
    oracle, semantics = workloads.oracle, workloads.semantics
    corruptions = {
        "engine-mix": [mock.patch.object(oracle, "closure", inverted_closure(oracle.closure))],
        "formula-search": [
            mock.patch.object(oracle, "sat_enumerate", lambda phi, sigma=None: False)
        ],
        "majority-optimality": [
            mock.patch.object(oracle, "closure", inverted_closure(oracle.closure)),
            mock.patch.object(workloads, "flip_free", lambda net, o: True),
        ],
        "oracle-check": [
            mock.patch.object(semantics, "improving_flips", lambda net, o: []),
            mock.patch.object(semantics, "reach_set", lambda net, o, *a: {o}),
        ],
    }
    for workload, patches in corruptions.items():
        checked, wrong = run.gate(*answered(workload, work_dir))
        require(checked >= 1 and not wrong, f"{workload} clean gate: {wrong}")
        # References are cached per input, so the corrupted check gets
        # inputs of its own.
        rounds, records = answered(workload, work_dir)
        for patch in patches:
            patch.start()
        try:
            _, wrong = run.gate(rounds, records)
        finally:
            mock.patch.stopall()
        require(bool(wrong), f"{workload}: gate passed a corrupted reference")
        print(f"ok  {workload}: gate trips on a corrupted reference ({len(wrong)} mismatches)")


def check_failures(work_dir: str) -> None:
    rounds, records = answered("engine-mix", work_dir, max_states=2)
    fails = run.failures(rounds, records)
    kinds = {f["kind"]: f for f in fails}
    require(all(f["class"] == "budget_exceeded" for f in fails), f"classes {fails}")
    require(kinds["dominates"]["agent"] is None, "single-net failure carries no agent")
    require(kinds["majority_dominates"]["agent"] == 0, "profile failure names agent 0")
    require("cli.dominates" in kinds or "cli.incomparable" in kinds, "cli budget failure counted")
    print(f"ok  failures: {len(fails)} of {len(records)} budget failures recorded with agents")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(run.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK, prefix="selftest-") as work_dir:
        check_gate(work_dir)
        check_failures(work_dir)
    check_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
