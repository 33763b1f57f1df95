"""In-memory spans around the harness's own calls into cpnets.

A span is (name, start, end, parent span id, request id). Names are
``<layer>.<function>``, where the layer is a cpnets module, or
``harness.request`` for the root span of one operation. Nothing here
reaches inside the package: every span wraps one public call made by the
benchmark.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

LAYERS = ("model", "semantics", "voting", "gadgets", "oracle", "cli")
MAJORITY_QUERIES = (
    "is_majority_optimal",
    "is_majority_optimum",
    "exists_majority_optimal",
    "exists_majority_optimum",
)
PAIRWISE = ("majority_dominates", "pareto_dominates", "agent_partition")


class NullTracer:
    """Tracing off: calls go straight through, counts are dropped."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, amount=1):
        pass

    def begin_request(self, request_id):
        pass

    def end_request(self):
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._request = None

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self._request)

    def count(self, name, amount=1):
        self.counts[name] += amount

    def begin_request(self, request_id):
        self._request = request_id
        self._root = len(self.spans)
        self.spans.append(None)
        self._stack.append(self._root)
        self._root_start = perf_counter()

    def end_request(self):
        end = perf_counter()
        self._stack.pop()
        self.spans[self._root] = (
            "harness.request", self._root_start, end, None, self._request
        )
        self._request = None

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "request"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )


def _sum(spans, names) -> float:
    return sum(end - start for name, start, end, _, _ in spans if name in names)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced pass, as name -> (value, unit)."""
    spans = tracer.spans
    counts = tracer.counts
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_s = Counter()
    names = Counter()
    for sid, (name, start, end, _, _) in enumerate(spans):
        self_s[name.split(".", 1)[0]] += (end - start) - child_time[sid]
        names[name] += 1
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS + ("harness",):
        out[f"{layer}.self_s"] = (self_s[layer], "s")

    model = [n for n in names if n.startswith("model.")]
    out["model.build_s"] = (_sum(spans, model), "s")
    out["model.calls"] = (sum(names[n] for n in model), "count")

    out["semantics.flip_rules_s"] = (_sum(spans, {"semantics.flip_rules"}), "s")
    queries = [
        n for n in names if n.startswith("semantics.") and n != "semantics.flip_rules"
    ]
    busy = _sum(spans, queries)
    visited = counts["semantics.visited"]
    out["semantics.calls"] = (sum(names[n] for n in queries), "count")
    out["semantics.busy_s"] = (busy, "s")
    out["semantics.visited"] = (visited, "count")
    out["semantics.visited_per_s"] = (visited / busy if busy else 0.0, "1/s")
    out["semantics.budget_exceeded"] = (counts["semantics.budget_exceeded"], "count")

    out["voting.pairwise_s"] = (_sum(spans, {f"voting.{q}" for q in PAIRWISE}), "s")
    out["voting.pareto_optimal_s"] = (_sum(spans, {"voting.is_pareto_optimal"}), "s")
    majority = {f"voting.{q}.{p}" for q in MAJORITY_QUERIES for p in ("closure", "pair")}
    out["voting.majority_optimality_s"] = (_sum(spans, majority), "s")
    for q in MAJORITY_QUERIES:
        for path in ("closure", "pair"):
            out[f"voting.{q}.{path}_s"] = (_sum(spans, {f"voting.{q}.{path}"}), "s")
    out["voting.too_large"] = (counts["voting.too_large"], "count")

    out["gadgets.build_s"] = (
        _sum(spans, [n for n in names if n.startswith("gadgets.")]),
        "s",
    )
    out["gadgets.features"] = (counts["gadgets.features"], "count")

    for fn in ("build_graph", "closure", "verify_lemma", "sat_enumerate"):
        out[f"oracle.{fn}_s"] = (_sum(spans, {f"oracle.{fn}"}), "s")
    out["oracle.arcs"] = (counts["oracle.arcs"], "count")

    out["cli.main_s"] = (_sum(spans, {"cli.main"}), "s")
    return out
