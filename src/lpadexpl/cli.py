"""Command-line interface.

Subcommands: ``check`` (static program diagnostics), ``explain`` (ranked
proof trees in text, natural-language, graph, or JSON form), ``prob``
(query probability by engine, exhaustive oracle, or choice-fact transform),
``worlds`` (exhaustive world table), and ``duals`` (dual of a set of
composite choices, or of an expression's coverage).

Exit codes: 0 on success (including "no proofs"), 1 on usage errors,
2 on program errors (syntax, range restriction, stratification, limits).
All output is deterministic: identical inputs yield byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .choice_algebra import (
    BOT,
    DEFAULT_ASSIGNMENT_LIMIT,
    composite_set_chunks,
    disj,
    dual_sets as duals,
    gamma,
    parse_composite_set_text,
    parse_expr_text,
    render_composite,
    render_composite_set,  # noqa: F401  (perfbench/tracer.py wraps it by name)
)
from .errors import LpadError, ProgramError, StratificationError
from .explainer import explain, render_graph, render_nl, render_text, to_json, to_record
from .grounder import GroundProgram, ground, relevant_subset
from .semantics import success_prob, worlds_table
from .slpdnf import success_expressions
from .syntax import (
    Program,
    is_range_restricted,
    parse_program,
    parse_query,
    query_str,
)
from .transform import prob_via_transform


def _split_constants(text: str | None) -> list[str] | None:
    if text is None:
        return None
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise ProgramError("empty --constants list")
    return names


def _load_restriction(path: str | None) -> dict | None:
    if path is None:
        return None
    with open(path, encoding="utf-8-sig") as f:  # drops a leading byte-order mark
        try:
            return json.load(f)
        except ValueError as e:  # a decode error, of JSON or of the text
            raise ProgramError(f"restriction file {path} is not valid JSON: {e}") from None


def _parse_file(path: str) -> Program:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # drops a leading byte-order mark
    except UnicodeDecodeError as e:
        raise ProgramError(f"program file {path} is not UTF-8: {e}") from None
    return parse_program(text)


def _load(args: argparse.Namespace) -> tuple[Program, GroundProgram]:
    program = _parse_file(args.file)
    ok, violations = is_range_restricted(program)
    if not ok:
        raise ProgramError("not range-restricted: " + "; ".join(violations))
    g = ground(
        program,
        _split_constants(getattr(args, "constants", None)),
        _load_restriction(getattr(args, "restrict", None)),
    )
    g.strata  # raises StratificationError on a negative cycle
    return program, g


def _format_prob(p: float) -> str:
    return f"{p:.9f}".rstrip("0").rstrip(".")


def cmd_check(args: argparse.Namespace) -> int:
    program = _parse_file(args.file)
    lines = [
        f"probabilistic clauses: {len(program.prob_clauses)}",
        f"derived clauses: {len(program.derived_clauses)}",
        f"annotations: {len(program.annotations)}",
    ]
    failed = False
    ok, violations = is_range_restricted(program)
    if ok:
        lines.append("range-restricted: yes")
    else:
        failed = True
        lines.append("range-restricted: no")
        lines.extend(f"  {v}" for v in violations)
    try:
        strata = ground(program).strata
        lines.append(f"stratified: yes ({max(strata.values(), default=0) + 1} strata)")
    except ProgramError as e:
        failed = True
        unstratified = isinstance(e, StratificationError)  # else grounding failed
        lines.append("stratified: no" if unstratified else "stratified: not checked")
        lines.append(f"  {e}")
    lines.append("check failed" if failed else "check passed")
    print("\n".join(lines))
    return 2 if failed else 0


def cmd_explain(args: argparse.Namespace) -> int:
    program, g = _load(args)
    q = parse_query(args.query)
    if args.relevant:
        g = relevant_subset(g, q)
    items = explain(q, g, limit=args.limit)
    if args.top is not None:
        items = items[: args.top]
    if args.format == "json":
        record = {
            "query": query_str(q),
            "proofs": [
                {
                    "rank": i,
                    "probability": item.prob,
                    "tree": to_record(item.tree, args.alternatives),
                }
                for i, item in enumerate(items, 1)
            ],
        }
        print(to_json(record))
        return 0
    if not items:
        print("no proofs")
        return 0
    if args.format == "graph":
        print(render_graph([item.tree for item in items], args.alternatives), end="")
        return 0
    blocks = []
    for i, item in enumerate(items, 1):
        if args.format == "nl":
            body = render_nl(item.tree, program.annotations, args.fold_depth, args.alternatives)
        else:
            body = render_text(item.tree, args.fold_depth, args.alternatives)
        blocks.append(f"proof {i}\n{body}p = {_format_prob(item.prob)}\n")
    print("\n".join(blocks), end="")
    return 0


def cmd_prob(args: argparse.Namespace) -> int:
    _, g = _load(args)
    q = parse_query(args.query)
    if args.relevant:
        g = relevant_subset(g, q)
    if args.method == "transform":
        expr = disj(success_expressions(q, g, limit=args.limit))
        p = 0.0 if expr == BOT else prob_via_transform(expr, g, args.limit)
    else:
        p = success_prob(q, g, method=args.method, limit=args.limit)
    print(f"{p:.9f}")
    return 0


def cmd_worlds(args: argparse.Namespace) -> int:
    _, g = _load(args)
    queries = [parse_query(text) for text in args.query or []]
    total = []
    for selection, prob, truths in worlds_table(g, queries or None, args.limit):
        total.append(prob)
        row = f"p={prob:.9f}  {render_composite(selection, g)}"
        if queries:
            marks = " ".join(
                f"{query_str(q)}={'T' if t else 'F'}" for q, t in zip(queries, truths)
            )
            row += f"  [{marks}]"
        print(row)
    print(f"total = {math.fsum(total):.9f}")
    return 0


def cmd_duals(args: argparse.Namespace) -> int:
    _, g = _load(args)
    text = args.set.strip()
    if text.startswith("{"):
        ks = parse_composite_set_text(text, g)
    else:
        ks = gamma(parse_expr_text(text, g), g)
    for chunk in composite_set_chunks(duals(ks, g), g):
        sys.stdout.write(chunk)
    sys.stdout.write("\n")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with status 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """An argparse ``type`` for integers of at least ``low``."""

    def parse(text: str) -> int:
        error = argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        try:
            value = int(text)
        except ValueError:
            raise error from None
        if value < low:
            raise error
        return value

    return parse


def _add_grounding_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--constants",
        metavar="LIST",
        help="comma-separated constant pool overriding the program's own",
    )
    p.add_argument(
        "--restrict",
        metavar="FILE",
        help="JSON file restricting clause groundings"
        ' ({"c2": [{"X": "p1", "Y": "p2"}, ...], ...})',
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="lpadexpl",
        description="Explanations and exact probabilities for logic programs "
        "with annotated disjunctions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse a program and report static diagnostics")
    p.add_argument("file", help="program file (.lpad)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("explain", help="print the proofs of a query, most probable first")
    p.add_argument("file", help="program file (.lpad)")
    p.add_argument("query", help='query, e.g. "covid(p1)"')
    p.add_argument(
        "--format",
        choices=("text", "nl", "graph", "json"),
        default="text",
        help="output form (default: text)",
    )
    p.add_argument(
        "--top", type=_int_at_least(1), metavar="K", help="print only the K most probable proofs"
    )
    p.add_argument(
        "--fold-depth",
        type=_int_at_least(0),
        metavar="N",
        help="fold tree content below depth N (text and nl formats)",
    )
    p.add_argument(
        "--alternatives",
        action="store_true",
        help="append the alternative heads of each negated choice",
    )
    p.add_argument(
        "--relevant",
        action="store_true",
        help="restrict the grounding to instances relevant to the query",
    )
    p.add_argument(
        "--limit",
        type=_int_at_least(0),
        default=DEFAULT_ASSIGNMENT_LIMIT,
        help="most nodes the query's one decision diagram makes, for the whole "
        "tree and every proof's probability (default: 1000000)",
    )
    _add_grounding_flags(p)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("prob", help="print the probability of a query")
    p.add_argument("file", help="program file (.lpad)")
    p.add_argument("query", help='query, e.g. "covid(p1)"')
    p.add_argument(
        "--method",
        choices=("engine", "oracle", "transform"),
        default="engine",
        help="engine: proof-based; oracle: exhaustive world enumeration; "
        "transform: choice-fact program (default: engine)",
    )
    p.add_argument(
        "--limit",
        type=_int_at_least(0),
        default=DEFAULT_ASSIGNMENT_LIMIT,
        help="oracle: most selections enumerated; engine: most nodes the tabled "
        "decision diagram makes, for every atom and step; transform: most nodes "
        "the query's tree makes, then the engine's limit on the choice-fact "
        "program (default: 1000000 for all)",
    )
    p.add_argument(
        "--relevant",
        action="store_true",
        help="restrict the grounding to instances relevant to the query",
    )
    _add_grounding_flags(p)
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("worlds", help="enumerate all worlds with their probabilities")
    p.add_argument("file", help="program file (.lpad)")
    p.add_argument(
        "--query",
        action="append",
        metavar="Q",
        help="also report the truth of Q in each world (repeatable)",
    )
    p.add_argument(
        "--limit",
        type=_int_at_least(0),
        default=10_000,
        help="maximum number of worlds to enumerate (default: 10000)",
    )
    _add_grounding_flags(p)
    p.set_defaults(func=cmd_worlds)

    p = sub.add_parser(
        "duals",
        help="print the dual of a set of composite choices or of an expression",
    )
    p.add_argument("file", help="program file (.lpad)")
    p.add_argument(
        "set",
        help="composite-choice set like {{(c6,[p1],1)}} or a choice expression",
    )
    _add_grounding_flags(p)
    p.set_defaults(func=cmd_duals)

    return parser


#: The parser ``main`` uses, built on its first call and reused by every
#: later call in the same process; parsing leaves the parser unchanged.
_shared_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except LpadError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
