"""The four workloads: their generated inputs, query catalogues and answers.

A workload's *catalogue* is a fixed list of CLI calls.  The timed phase runs
it in whole rounds, each round in an order drawn from the seed, so every run
sees the same mix of operations and its percentiles fall inside the same
groups of calls.

``chain``, ``negation`` and ``deep`` answer from ``references.json``, recorded
once from the unchanged program (``run.py --record-references``).  ``corpus``
draws fresh programs from the seed, so its answers are worked out before the
timed phase: every call is run once and judged against the brute-force world
oracle, the choice-fact transform, or a direct count over all selections, and
the timed calls must then print exactly the same bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import families
import genprog

FORMATS = ("text", "nl", "graph", "json")
#: Probabilities are printed with 9 decimals; answers agree to within this.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``key`` names it across runs; ``kind`` is its subcommand."""

    key: str
    kind: str
    argv: tuple[str, ...]


@dataclass
class Bench:
    """A workload's inputs as written to ``workdir``."""

    workdir: Path
    ops: list[Op]
    #: The call a fresh interpreter runs for ``cli.cold_ms``.
    cold: Op
    #: corpus only: what the reference phase needs about each program.
    programs: dict[str, dict] = field(default_factory=dict)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(main, argv) -> tuple[object, str]:
    """(exit status, stdout) of one in-process CLI call; an exception's type

    name stands in for the status."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(list(argv))
        except SystemExit as e:
            rc = e.code
        except Exception as e:  # the benchmark records the failure and goes on
            rc = type(e).__name__
    return rc, out.getvalue()


def write_program(workdir: Path, name: str, program: tuple[str, dict | None]) -> tuple[str, ...]:
    """Write ``name.lpad`` (and ``name.json``); return the CLI file arguments."""
    text, restriction = program
    path = workdir / f"{name}.lpad"
    path.write_text(text)
    if restriction is None:
        return (str(path),)
    rpath = workdir / f"{name}.json"
    rpath.write_text(json.dumps(restriction))
    return (str(path), "--restrict", str(rpath))


def warm(main, ops: list[Op]) -> None:
    """Parse and ground every program once (``check``), outside the timed phase."""
    seen = set()
    for op in ops:
        path = op.argv[1]
        if path not in seen:
            seen.add(path)
            run_cli(main, ("check", path))


# ---------------------------------------------------------------------------
# Families with recorded answers
# ---------------------------------------------------------------------------


def _side_paths(name: str, files: tuple[str, ...], query: str, expr: str) -> list[Op]:
    """One call down each path the family's own calls never take: the

    choice-fact transform, --relevant grounding, and gamma on an expression.
    Made at the family's smallest size, they leave the load where the
    workload puts it, and every per-layer metric is measured on every
    workload instead of reading 0 where a layer sits idle."""
    return [
        Op(f"{name} prob transform {query}", "prob",
           ("prob", files[0], query) + files[1:] + ("--method", "transform")),
        Op(f"{name} prob relevant {query}", "prob",
           ("prob", files[0], query) + files[1:] + ("--relevant",)),
        Op(f"{name} duals {expr}", "duals", ("duals", files[0], expr) + files[1:]),
    ]


def chain_setup(workdir: Path, seed: int, tiny: bool) -> Bench:
    """covid_neg with chain(n) facts, n in {2, 3}: prob and explain on

    covid(p_i) and \\+covid(p_i) for every person.  (chain 1 would add only
    more calls as cheap as the p_n ones, and put the median of each kind
    between two groups of calls instead of inside one.)"""
    ops = []
    for n in (2,) if tiny else (2, 3):
        files = write_program(workdir, f"chain{n}", families.chain(n))
        for i in range(1, n + 1):
            for query in (f"covid(p{i})", f"\\+covid(p{i})"):
                for kind in ("prob", "explain"):
                    argv = (kind, files[0], query) + files[1:]
                    ops.append(Op(f"chain{n} {kind} {query}", kind, argv))
        if n == 2:
            expr = "(c1,[p1],1) | (c2,[p1,p2],1) & (c1,[p2],1)"
            ops += _side_paths("chain2", files, "covid(p1)", expr)
    return Bench(workdir, ops, ops[0])


def negation_setup(workdir: Path, seed: int, tiny: bool) -> Bench:
    """covid_neg with star(n) facts, n in {3, 4}: prob and explain on

    \\+covid(p1) and covid(p1), at star 4 also on \\+covid(p2) and a
    --relevant prob of \\+covid(p1), and at star 3 a prob of \\+covid(p2),
    so that each kind has an odd number of calls and its median is one
    call's time; and duals of covid(p1)'s explanation set in covid_pos with
    star(n) facts, n in {3, ..., 8}.  The cheap calls put the median of all
    calls in the middle of one call's times, star 3's prob covid(p1), rather
    than at the lower edge of the calls near 45 ms.  The three calls near
    0.6 s are a seventh of the catalogue, so p90 lies inside their times
    rather than in the gap below them."""
    ops = []
    for n in (3,) if tiny else (3, 4):
        files = write_program(workdir, f"star{n}", families.star(n))
        queries = ("\\+covid(p1)", "covid(p1)") + (("\\+covid(p2)",) if n == 4 else ())
        for query in queries:
            for kind in ("prob", "explain"):
                ops.append(Op(f"star{n} {kind} {query}", kind, (kind, files[0], query) + files[1:]))
        if n == 3:
            expr = "(c1,[p1],1) | (c2,[p1,p2],1) & (c1,[p2],1) | (c2,[p1,p3],1) & (c1,[p3],1)"
            ops += _side_paths("star3", files, "\\+covid(p1)", expr)
            ops.append(Op("star3 prob \\+covid(p2)", "prob",
                          ("prob", files[0], "\\+covid(p2)") + files[1:]))
        if n == 4:
            ops.append(Op("star4 prob relevant \\+covid(p1)", "prob",
                          ("prob", files[0], "\\+covid(p1)") + files[1:] + ("--relevant",)))
    for n in (6,) if tiny else (3, 4, 5, 6, 7, 8):
        files = write_program(workdir, f"posstar{n}", families.positive_star(n))
        sets = families.positive_star_explanations(n)
        argv = ("duals", files[0], sets) + files[1:]
        ops.append(Op(f"posstar{n} duals covid(p1)", "duals", argv))
    cold = next(op for op in ops if op.key == "star3 prob covid(p1)")
    return Bench(workdir, ops, cold)


def deep_setup(workdir: Path, seed: int, tiny: bool) -> Bench:
    """reach/1 over a link path of length n in {20, 25, ..., 40}: prob and

    explain of reach(n_k) from the start of the path and from near its end,
    the explain format rotating so all four appear.  Five sizes space the
    calls' times closely, so the medians fall among calls of similar cost;
    past n = 40 a round takes so long that a 25 s run gets too few of them
    for the medians to settle.  At n = 40 a prob of reach(n1) and a
    --relevant prob of reach(n0) join the two calls from n0: p90 then falls
    inside the times of these four similar calls rather than on a single
    call's, and the medians stay where they were."""
    ops = []
    for si, n in enumerate((20,) if tiny else range(20, 41, 5)):
        files = write_program(workdir, f"deep{n}", families.deep(n))
        for di, k in enumerate((0, n - 4)):
            query = f"reach(n{k})"
            fmt = FORMATS[(si + di) % len(FORMATS)]
            ops.append(Op(f"deep{n} prob {query}", "prob", ("prob", files[0], query)))
            argv = ("explain", files[0], query, "--format", fmt)
            ops.append(Op(f"deep{n} explain {fmt} {query}", "explain", argv))
        if n == 40:
            ops.append(Op("deep40 prob reach(n1)", "prob", ("prob", files[0], "reach(n1)")))
            ops.append(Op("deep40 prob relevant reach(n0)", "prob",
                          ("prob", files[0], "reach(n0)", "--relevant")))
        if n == 30:  # an odd count of explain calls: the median is one call's time
            ops.append(Op("deep30 explain text reach(n15)", "explain",
                          ("explain", files[0], "reach(n15)", "--format", "text")))
        if n == 20:
            ops += _side_paths("deep20", files, "reach(n10)", "(c1,[],1)")
    cold = next(op for op in ops if op.key == "deep20 prob reach(n16)")
    return Bench(workdir, ops, cold)


def recorded_answer(reference: dict | None, rc, out: str) -> bool:
    """A call from a recorded family printed what the unchanged program printed."""
    if reference is None or rc != 0:
        return False
    if "prob" in reference:
        try:
            return abs(float(out) - reference["prob"]) <= TOLERANCE
        except ValueError:
            return False
    return digest(out) == reference["sha256"]


def record(main, ops: list[Op]) -> dict[str, dict]:
    """Answers of the current program to every call, for references.json."""
    answers = {}
    for op in ops:
        rc, out = run_cli(main, op.argv)
        if rc != 0:
            raise RuntimeError(f"{op.key}: exit status {rc}")
        answers[op.key] = {"prob": float(out)} if op.kind == "prob" else {"sha256": digest(out)}
    return answers


# ---------------------------------------------------------------------------
# corpus: seeded generated programs plus the two fixture programs
# ---------------------------------------------------------------------------

#: Enough that the slowest tenth of calls, and so p90, varies little between seeds.
CORPUS_PROGRAMS = 400
#: Share of prob calls that take the choice-fact transform route.
TRANSFORM_SHARE = 4  # one in four
#: Share of prob and explain calls that restrict the grounding first.
RELEVANT_SHARE = 3  # one in three


def _instances(text: str, restriction: dict | None) -> list[tuple]:
    """(clause id, values, head probabilities incl. none) of every ground instance."""
    from lpadexpl.grounder import ground
    from lpadexpl.syntax import parse_program

    g = ground(parse_program(text), None, restriction)
    return [(inst.cid, inst.var_values, inst.probs) for inst in g.instances]


def _random_expr(rng: random.Random, instances) -> tuple[str, list]:
    """A choice expression in the CLI's syntax, and its disjuncts as

    [(clause id, values, head index), ...] lists.

    Desk-sized: one to three conjunctions of one or two atomic choices, so
    the duals' hitting product has at most 6^3 picks.  No literal is negated:
    under a negation gamma calls duals on the complement, and duals
    materialises the whole hitting product first -- the 3-literal expression
    (c4,[],3) | ~(c4,[],3) & ~(c2,[],1) on genprog seed 29724 reached 30
    million picks and a MemoryError.  That growth is what the negation
    workload's positive-star duals and the frontier probe measure."""
    if not instances:
        return "top", [[]]
    disjuncts = []
    for _ in range(rng.randint(1, 3)):
        lits = []
        for _ in range(rng.randint(1, 2)):
            cid, values, probs = rng.choice(instances)
            lits.append((cid, values, rng.randint(1, len(probs))))
        disjuncts.append(lits)
    text = " | ".join(
        " & ".join(f"({cid},[{','.join(vals)}],{i})" for cid, vals, i in lits) for lits in disjuncts
    )
    return text, disjuncts


def corpus_setup(workdir: Path, seed: int, tiny: bool) -> Bench:
    """Seeded genprog programs and the two fixture programs, each asked a

    fixed mix of check, prob (a fixed share by transform), explain in the
    four formats, and duals of a seeded expression; a seeded share of prob
    and explain calls use --relevant."""
    rng = random.Random(seed)
    count = 5 if tiny else CORPUS_PROGRAMS
    gen_seeds = rng.sample(range(1_000_000), count)
    formats = [FORMATS[i % len(FORMATS)] for i in range(count)]
    rng.shuffle(formats)
    relevant_prob = set(rng.sample(range(count), count // RELEVANT_SHARE))
    relevant_explain = set(rng.sample(range(count), count // RELEVANT_SHARE))
    transform = set(rng.sample(range(count), count // TRANSFORM_SHARE))

    bench = Bench(workdir, [], None)
    ops = bench.ops

    def add_program(name: str, text: str, restriction: dict | None) -> tuple[str, ...]:
        files = write_program(workdir, name, (text, restriction))
        instances = _instances(text, restriction)
        expr, disjuncts = _random_expr(rng, instances)
        bench.programs[name] = {"text": text, "restriction": restriction, "instances": instances,
                                "disjuncts": disjuncts}
        ops.append(Op(f"{name} check", "check", ("check", files[0])))
        ops.append(Op(f"{name} duals {expr}", "duals", ("duals", files[0], expr) + files[1:]))
        return files

    def add_prob(name: str, files, query: str, method: str, relevant: bool) -> None:
        flags = ("--relevant",) if relevant else ()
        if method == "transform":
            flags += ("--method", "transform")
        key = f"{name} prob {method}{' relevant' if relevant else ''} {query}"
        ops.append(Op(key, "prob", ("prob", files[0], query) + files[1:] + flags))

    def add_explain(name: str, files, query: str, fmt: str, relevant: bool) -> None:
        flags = ("--relevant",) if relevant else ()
        key = f"{name} explain {fmt}{' relevant' if relevant else ''} {query}"
        argv = ("explain", files[0], query, "--format", fmt) + files[1:] + flags
        ops.append(Op(key, "explain", argv))

    fixtures = (
        ("covid_neg", families.COVID_NEG_RULES, families.RESTRICT_MIN,
         ("covid(p1)", "\\+covid(p1)")),
        ("covid_pos", families.COVID_POS_RULES, families.RESTRICT_C2, ("covid(p1)",)),
    )
    for name, rules, restriction, queries in fixtures:
        files = add_program(name, rules + families.FIXTURE_FACTS, restriction)
        for query in queries:
            add_prob(name, files, query, "engine", False)
            add_prob(name, files, query, "transform", False)
            for fmt in FORMATS:
                add_explain(name, files, query, fmt, False)
    bench.cold = next(op for op in ops if op.kind == "prob")

    for j, gen_seed in enumerate(gen_seeds):
        name = f"gen{gen_seed}"
        text, query = genprog.generate(gen_seed)
        files = add_program(name, text, None)
        method = "transform" if j in transform else "engine"
        add_prob(name, files, query, method, j in relevant_prob)
        add_explain(name, files, query, formats[j], j in relevant_explain)
    return bench


def _selections(instances):
    """Every selection as ({(cid, values): head index}, probability)."""
    axes = [range(1, len(probs) + 1) for _, _, probs in instances]
    for combo in itertools.product(*axes):
        chosen = {(cid, vals): i for (cid, vals, _), i in zip(instances, combo)}
        yield chosen, math.prod(probs[i - 1] for (_, _, probs), i in zip(instances, combo))


_COMPOSITE = re.compile(r"\{([^{}]*)\}")
_TRIPLE = re.compile(r"\(([^,()]+),\[([^\]]*)\],(\d+)\)")


def _dual_mass_ok(program: dict, out: str) -> bool:
    """The printed duals cover exactly the selections the expression does not:

    their mass is 1 - P(expression), both summed over all selections."""
    text = out.strip()
    if not (text.startswith("{") and text.endswith("}")):
        return False
    composites = [
        [(cid, tuple(v for v in vals.split(",") if v), int(i))
         for cid, vals, i in _TRIPLE.findall(body)]
        for body in _COMPOSITE.findall(text[1:-1])
    ]
    expr_mass = dual_mass = 0.0
    for chosen, p in _selections(program["instances"]):
        if any(all(chosen[(cid, vals)] == i for cid, vals, i in lits)
               for lits in program["disjuncts"]):
            expr_mass += p
        if any(all(chosen[(cid, vals)] == i for cid, vals, i in k) for k in composites):
            dual_mass += p
    return abs(dual_mass - (1.0 - expr_mass)) <= TOLERANCE


def _proof_probs(kind_format: str, out: str) -> list[float] | None:
    """The proof probabilities an explain call printed (None for graphs)."""
    if kind_format == "json":
        return [proof["probability"] for proof in json.loads(out)["proofs"]]
    if kind_format == "graph":
        return None
    return [float(m) for m in re.findall(r"^p = (\S+)$", out, re.M)]


def corpus_references(main, bench: Bench) -> dict[str, dict]:
    """Run every call once and judge it independently of the engine.

    prob must match the brute-force oracle and the choice-fact transform;
    explain must print proofs exactly when the query has mass, none more
    probable than the query; duals must cover exactly the complement; check
    must pass.  A call that passes is expected to print the same bytes again;
    one that fails is recorded as failing, so each of its timed runs counts
    as a failure."""
    from lpadexpl.choice_algebra import disj
    from lpadexpl.grounder import ground
    from lpadexpl.semantics import success_prob
    from lpadexpl.slpdnf import success_expressions
    from lpadexpl.syntax import parse_program, parse_query
    from lpadexpl.transform import prob_via_transform

    truth: dict[tuple[str, str], tuple[float, float]] = {}
    refs = {}
    for op in bench.ops:
        name = op.key.split(" ", 1)[0]
        program = bench.programs[name]
        rc, out = run_cli(main, op.argv)
        ok = rc == 0
        if ok and op.kind in ("prob", "explain"):
            query = op.argv[2]
            if (name, query) not in truth:
                g = ground(parse_program(program["text"]), None, program["restriction"])
                q = parse_query(query)
                truth[(name, query)] = (
                    success_prob(q, g, method="oracle"),
                    prob_via_transform(disj(success_expressions(q, g)), g),
                )
            oracle, transformed = truth[(name, query)]
            if op.kind == "prob":
                p = float(out)
                ok = abs(p - oracle) <= TOLERANCE and abs(p - transformed) <= TOLERANCE
            else:
                fmt = op.argv[op.argv.index("--format") + 1]
                probs = _proof_probs(fmt, out)
                if oracle == 0.0:
                    ok = out.startswith("no proofs") or probs == []
                elif probs is None:
                    ok = out.startswith("digraph")
                else:
                    ok = bool(probs) and max(probs) <= oracle + TOLERANCE
        elif ok and op.kind == "duals":
            ok = _dual_mass_ok(program, out)
        elif ok and op.kind == "check":
            ok = "check passed" in out
        refs[op.key] = {"sha256": digest(out)} if ok else {"wrong": True}
    return refs


WORKLOADS = {
    "chain": chain_setup,
    "negation": negation_setup,
    "deep": deep_setup,
    "corpus": corpus_setup,
}
RECORDED = ("chain", "negation", "deep")
