"""Spans and counts at lpadexpl's layer boundaries, taken from outside the package.

For the length of a traced run, ``install`` replaces the function references
that one lpadexpl module holds to another's public functions (for example
``explainer.build_tree`` or ``semantics.event_prob``) with wrappers that
record a span around each call, so nothing under ``src/`` changes.  A span
carries its query id, parent span, name, start and end; spans stay in memory
until ``write`` puts them in a file.  Counts are taken from the values that
cross the boundary, after the call returns, inside a ``trace.count`` span so
that counting never lands in a layer's time.

A layer's self time is the time of its spans minus the time of their child
spans.  ``metrics`` reports every figure per traced query.
"""

from __future__ import annotations

import collections
import functools
import json
import math
import time

from lpadexpl import choice_algebra, cli, explainer, grounder, semantics, slpdnf, transform
from lpadexpl.choice_algebra import BOT, Or, mentioned_instances, node_count

#: The modules under src/lpadexpl that do work, in pipeline order.
LAYERS = (
    "cli",
    "syntax",
    "grounder",
    "slpdnf",
    "choice_algebra",
    "semantics",
    "transform",
    "explainer",
)

# Span record fields.
_QUERY, _PARENT, _NAME, _START, _END, _OUTER = range(6)


class Tracer:
    """In-memory spans and counters; ``query`` tags the spans opened next."""

    def __init__(self):
        self.spans: list[list] = []
        self.query = -1
        self.counts: collections.Counter[str] = collections.Counter()
        self.maxima: collections.Counter[str] = collections.Counter()
        self._open: list[int] = []
        self._open_names: collections.Counter[str] = collections.Counter()
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        outer = self._open_names[name] == 0
        self._open_names[name] += 1
        self._open.append(len(self.spans))
        self.spans.append([self.query, parent, name, time.perf_counter(), 0.0, outer])
        return self._open[-1]

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[_END] = time.perf_counter()
        self._open.pop()
        self._open_names[span[_NAME]] -= 1

    def patch(self, module, attr: str, name: str, count=None) -> None:
        """Wrap ``module.attr`` in a span called ``name``; ``count(tracer,

        args, result)`` runs after the call, outside that span."""
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if count is not None:
                span = tracer.begin("trace.count")
                try:
                    count(tracer, args, result)
                finally:
                    tracer.end(span)
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """One JSON array per span: query, parent index, name, start, end."""
        with open(path, "w") as f:
            f.write(json.dumps(["query", "parent", "name", "start", "end"]) + "\n")
            for span in self.spans:
                f.write(json.dumps(span[:_OUTER]) + "\n")

    def metrics(self, queries: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures, each per traced query unless its unit says not."""
        inclusive: collections.Counter[str] = collections.Counter()
        calls: collections.Counter[str] = collections.Counter()
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child_time[span[_PARENT]] += span[_END] - span[_START]
        self_by_name: collections.Counter[str] = collections.Counter()
        for span, children in zip(self.spans, child_time):
            duration = span[_END] - span[_START]
            self_by_name[span[_NAME]] += duration - children
            if span[_OUTER]:
                inclusive[span[_NAME]] += duration
                calls[span[_NAME]] += 1
        self_by_layer: collections.Counter[str] = collections.Counter()
        for name, seconds in self_by_name.items():
            self_by_layer[name.split(".")[0]] += seconds

        c = self.counts

        def per_query_ms(seconds: float) -> tuple[float, str]:
            return 1000 * seconds / queries, "ms/query"

        def per_query(value: float, unit: str = "count/query") -> tuple[float, str]:
            return value / queries, unit

        def ratio(part: int, whole: int) -> tuple[float, str]:
            return (part / whole if whole else 0.0), "ratio"

        out = {
            "semantics.event_prob_ms": per_query_ms(inclusive["semantics.event_prob"]),
            "semantics.event_prob_calls": per_query(calls["semantics.event_prob"], "calls/query"),
            "semantics.mentioned_instances": (
                self.maxima["semantics.mentioned_instances"], "count"
            ),
            "semantics.assignments": per_query(c["semantics.assignments"]),
            "choice_algebra.dnf_ms": per_query_ms(inclusive["choice_algebra.dnf"]),
            "choice_algebra.dnf_calls": per_query(calls["choice_algebra.dnf"], "calls/query"),
            "choice_algebra.dnf_in_nodes": per_query(c["choice_algebra.dnf_in_nodes"]),
            "choice_algebra.dnf_out_conjuncts": per_query(c["choice_algebra.dnf_out_conjuncts"]),
            "choice_algebra.duals_ms": per_query_ms(inclusive["choice_algebra.duals"]),
            "choice_algebra.duals_out": per_query(c["choice_algebra.duals_out"]),
            "choice_algebra.gamma_ms": per_query_ms(inclusive["choice_algebra.gamma"]),
            "slpdnf.tree_ms": per_query_ms(self_by_name["slpdnf.build_tree"]),
            "slpdnf.nodes": per_query(c["slpdnf.nodes"]),
            "slpdnf.success_leaves": per_query(c["slpdnf.success_leaves"]),
            "slpdnf.subsidiary_trees": per_query(c["slpdnf.subsidiary_trees"]),
            "slpdnf.failed_leaf_ratio": ratio(c["slpdnf.failed_leaves"], c["slpdnf.leaves"]),
            "slpdnf.derivations_ms": per_query_ms(inclusive["slpdnf.derivations"]),
            "grounder.ground_ms": per_query_ms(inclusive["grounder.ground"]),
            "grounder.instances": per_query(c["grounder.instances"]),
            "grounder.derived_clauses": per_query(c["grounder.derived_clauses"]),
            "grounder.stratify_ms": per_query_ms(inclusive["grounder.stratify"]),
            "grounder.relevant_ms": per_query_ms(inclusive["grounder.relevant_subset"]),
            "grounder.relevant_kept_ratio": ratio(
                c["grounder.relevant_kept"], c["grounder.relevant_input"]
            ),
            "syntax.parse_ms": per_query_ms(
                inclusive["syntax.parse_program"] + inclusive["syntax.parse_query"]
            ),
            "syntax.clauses": per_query(c["syntax.clauses"]),
            "explainer.explain_ms": per_query_ms(self_by_name["explainer.explain"]),
            "explainer.render_ms": per_query_ms(inclusive["explainer.render"]),
            "explainer.proofs": per_query(c["explainer.proofs"]),
            "transform.prob_ms": per_query_ms(inclusive["transform.prob_via_transform"]),
            "transform.calls": per_query(calls["transform.prob_via_transform"], "calls/query"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = per_query_ms(self_by_layer[layer])
        out["trace.query_ms"] = per_query_ms(inclusive["cli.main"])
        return out


# ---------------------------------------------------------------------------
# Counts taken from the values that cross each boundary
# ---------------------------------------------------------------------------


def _count_clauses(t: Tracer, args, program) -> None:
    t.counts["syntax.clauses"] += len(program.prob_clauses) + len(program.derived_clauses)


def _count_ground(t: Tracer, args, g) -> None:
    t.counts["grounder.instances"] += len(g.instances)
    t.counts["grounder.derived_clauses"] += len(g.derived)


def _count_relevant(t: Tracer, args, kept) -> None:
    whole = args[0]
    t.counts["grounder.relevant_input"] += len(whole.instances) + len(whole.derived)
    t.counts["grounder.relevant_kept"] += len(kept.instances) + len(kept.derived)


def _walk(root) -> tuple[int, int, int, int]:
    """(nodes, leaves, failed leaves, success leaves) below ``root``."""
    nodes = leaves = failed = successes = 0
    stack = [root]
    while stack:
        node = stack.pop()
        nodes += 1
        if node.children:
            stack.extend(child for _, child in node.children)
        else:
            leaves += 1
            failed += node.marking == slpdnf.FAILED
            successes += node.marking == slpdnf.SUCCESS
    return nodes, leaves, failed, successes


def _count_tree(t: Tracer, args, tree) -> None:
    nodes, leaves, failed, successes = _walk(tree.root)
    for sub in tree.subs.values():
        n, l, f, _ = _walk(sub.root)
        nodes, leaves, failed = nodes + n, leaves + l, failed + f
    t.counts["slpdnf.nodes"] += nodes
    t.counts["slpdnf.leaves"] += leaves
    t.counts["slpdnf.failed_leaves"] += failed
    t.counts["slpdnf.success_leaves"] += successes
    t.counts["slpdnf.subsidiary_trees"] += len(tree.subs)


def _count_dnf(t: Tracer, args, result) -> None:
    t.counts["choice_algebra.dnf_in_nodes"] += node_count(args[0])
    if isinstance(result, Or):
        conjuncts = len(result.children)
    else:
        conjuncts = 0 if result == BOT else 1
    t.counts["choice_algebra.dnf_out_conjuncts"] += conjuncts


def _count_duals(t: Tracer, args, result) -> None:
    t.counts["choice_algebra.duals_out"] += len(result)


def _count_event(t: Tracer, args, result) -> None:
    e, g = args[0], args[1]
    keys = mentioned_instances(e)
    t.counts["semantics.assignments"] += math.prod(
        g.instance(cid, key).n_heads for cid, key in keys
    )
    t.maxima["semantics.mentioned_instances"] = max(
        t.maxima["semantics.mentioned_instances"], len(keys)
    )


def _count_proofs(t: Tracer, args, items) -> None:
    t.counts["explainer.proofs"] += len(items)


def install(t: Tracer) -> None:
    """Wrap every cross-module call on the CLI's paths."""
    t.patch(cli, "parse_program", "syntax.parse_program", _count_clauses)
    t.patch(cli, "parse_query", "syntax.parse_query")
    for module in (cli, explainer, transform):
        t.patch(module, "ground", "grounder.ground", _count_ground)
    t.patch(grounder, "stratify", "grounder.stratify")
    t.patch(cli, "relevant_subset", "grounder.relevant_subset", _count_relevant)
    for module in (slpdnf, explainer):
        t.patch(module, "build_tree", "slpdnf.build_tree", _count_tree)
    t.patch(explainer, "derivations", "slpdnf.derivations")
    t.patch(cli, "success_expressions", "slpdnf.success_expressions")
    t.patch(slpdnf, "dnf", "choice_algebra.dnf", _count_dnf)
    for module in (cli, choice_algebra):
        t.patch(module, "duals", "choice_algebra.duals", _count_duals)
        t.patch(module, "gamma", "choice_algebra.gamma")
    for parse in ("parse_expr_text", "parse_composite_set_text"):
        t.patch(cli, parse, "choice_algebra.parse")
    t.patch(cli, "render_composite_set", "choice_algebra.render")
    t.patch(semantics, "event_prob", "semantics.event_prob", _count_event)
    for module in (cli, transform):
        t.patch(module, "success_prob", "semantics.success_prob")
    t.patch(cli, "explain", "explainer.explain", _count_proofs)
    for render in ("render_text", "render_nl", "render_graph", "to_record"):
        t.patch(cli, render, "explainer.render")
    t.patch(cli, "prob_via_transform", "transform.prob_via_transform")
