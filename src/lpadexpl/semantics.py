"""Exact probability semantics by world enumeration and by event evaluation.

A *selection* picks one head for every probabilistic ground instance; its
*world* keeps the chosen heads (a ``none`` head contributes nothing) plus all
derived clauses, and its probability is the product of the chosen heads'
annotations.  Queries are checked in a world bottom-up, stratum by stratum —
deliberately independent of the resolution engine, so the two can be compared.

``success_prob`` offers both routes: ``oracle`` sums the probabilities of the
worlds satisfying the query; ``engine`` evaluates the disjunction of the
resolution tree's success-leaf expressions with ``event_prob``.  That is a
Shannon expansion of the expression's DNF over the instances it mentions
(independence marginalizes out the rest), memoised on the residual
conjuncts: in effect an ordered multi-valued decision diagram, as PITA
builds for LPADs (Riguzzi & Swift, TPLP 2011).  Its ``limit`` bounds the
conjuncts the diagram holds; the enumerations bound selections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .choice_algebra import (
    DEFAULT_ASSIGNMENT_LIMIT,
    AtomicChoice,
    ChoiceExpr,
    Not,
    assignments_over,
    disj,
    dnf_sets,
)
from .errors import EnumerationLimitError, ProgramError
from .grounder import GroundProgram, ThetaKey
from .slpdnf import DEFAULT_DEPTH_LIMIT, Derivation, success_expressions
from .syntax import Atom, Clause, NONE_PREDICATE, Query, is_ground_query, query_str

#: A selection as a value: one atomic choice per instance.
Selection = frozenset[AtomicChoice]


def enumerate_selections(
    g: GroundProgram, limit: int = DEFAULT_ASSIGNMENT_LIMIT
):
    """Yield every selection (instance order, ascending head index)."""
    message = "{count} selections exceed the enumeration limit {limit}"
    return (selection for selection, _ in _weighted_selections(g, limit, message))


def _weighted_selections(g: GroundProgram, limit: int, message: str):
    """Yield every selection with its probability, in the order of

    ``enumerate_selections``; past ``limit`` selections, raise
    EnumerationLimitError with ``message`` formatted by count and limit."""
    insts = g.instances
    for assignment in assignments_over(insts, limit, message):
        selection = frozenset(
            AtomicChoice(cid, key, i) for (cid, key), i in assignment.items()
        )
        probs = (inst.prob(i) for inst, i in zip(insts, assignment.values()))
        yield selection, math.prod(probs)


@dataclass(slots=True)
class World:
    """A ground normal program induced by one selection."""

    clauses: tuple[Clause, ...]
    selection: Selection
    strata: dict[tuple[str, int], int]
    _model: set[Atom] | None = None

    def model(self) -> set[Atom]:
        if self._model is None:
            self._model = _least_model(self.clauses, self.strata)
        return self._model


def world_of(selection: Selection, g: GroundProgram) -> World:
    chosen: dict[tuple[str, ThetaKey], int] = {}
    for ac in selection:
        chosen[(ac.cid, ac.key)] = ac.index
    clauses: list[Clause] = []
    for inst in g.instances:
        index = chosen.get((inst.cid, inst.key))
        if index is None:
            raise EnumerationLimitError(
                f"selection does not cover instance {inst.cid} {inst.values_str()}"
            )
        head = inst.head_atom(index)
        if head.predicate != NONE_PREDICATE:
            clauses.append(Clause(head, inst.body))
    clauses.extend(g.derived)
    return World(tuple(clauses), selection, g.strata)


def world_prob(selection: Selection, g: GroundProgram) -> float:
    p = 1.0
    for ac in selection:
        p *= g.instance(ac.cid, ac.key).prob(ac.index)
    return p


def _least_model(clauses: tuple[Clause, ...], strata: dict[tuple[str, int], int]) -> set[Atom]:
    """Bottom-up evaluation, one stratum at a time.

    Within a stratum, positive dependencies iterate to a fixpoint; negative
    body literals always refer to strictly lower strata, already final.
    """
    true: set[Atom] = set()
    by_stratum: dict[int, list[Clause]] = {}
    for c in clauses:
        by_stratum.setdefault(strata.get(c.head.pred, 0), []).append(c)
    for level in sorted(by_stratum):
        changed = True
        while changed:
            changed = False
            for c in by_stratum[level]:
                if c.head in true:
                    continue
                if all(
                    (lit.atom in true) == lit.positive for lit in c.body
                ):
                    true.add(c.head)
                    changed = True
    return true


def model_check(w: World, q: Query) -> bool:
    """Truth of a ground query in a world (independent of the engine)."""
    model = w.model()
    return all((lit.atom in model) == lit.positive for lit in q)


def _require_ground(q: Query, stage: str) -> None:
    """``model_check`` looks atoms up in the model, so a query with

    variables would read as false in every world."""
    if not is_ground_query(q):
        raise ProgramError(f"{stage}: query {query_str(q)} is not ground")


# ---------------------------------------------------------------------------
# Probabilities
# ---------------------------------------------------------------------------


def event_prob(
    e: ChoiceExpr, g: GroundProgram, limit: int = DEFAULT_ASSIGNMENT_LIMIT
) -> float:
    """The probability mass of the worlds satisfying an expression.

    Shannon expansion of ``dnf_sets(e)`` over the instances its literals
    mention, in (clause id, θ) order, memoised on the residual: the
    conjuncts still to satisfy, as a frozenset of literal frozensets.  The
    memo is in effect an ordered multi-valued decision diagram.  A node is
    ``fsum(p_i · P(residual_i))`` over its instance's heads; ⊥ (no conjunct)
    is exactly 0.0 and ⊤ (the empty conjunct) exactly 1.0.  Raises
    EnumerationLimitError once the memo holds more than ``limit`` conjuncts.
    """
    sets = dnf_sets(e)
    # Literals are numbered in (instance, head index, sign) order, so the
    # smallest number in a conjunct is a literal of its first instance.
    described = sorted({_describe(lit): lit for c in sets for lit in c}.items())
    number = {lit: n for n, (_, lit) in enumerate(described)}
    order = list(dict.fromkeys(inst for (inst, _, _), _ in described))
    rank = {inst: r for r, inst in enumerate(order)}
    probs = [g.instance(cid, key).probs for cid, key in order]
    #: literal number -> (instance rank, head index, positive)
    table = [(rank[inst], i, positive) for (inst, i, positive), _ in described]
    root = frozenset(frozenset(number[lit] for lit in c) for c in sets)

    # Every conjunct that can occur in a residual, split at its first
    # instance v: (v, the heads of v its literals allow, the conjunct
    # without v's literals).
    splits: dict[frozenset, tuple[int, set[int], frozenset]] = {}
    for c in root:
        while c and c not in splits:
            v = table[min(c)][0]
            allowed = set(range(1, len(probs[v]) + 1))
            rest = []
            for n in c:
                r, i, positive = table[n]
                if r != v:
                    rest.append(n)
                elif positive:
                    allowed &= {i}
                else:
                    allowed.discard(i)
            splits[c] = (v, allowed, frozenset(rest))
            c = splits[c][2]

    top = frozenset([frozenset()])
    memo: dict[frozenset, float] = {frozenset(): 0.0, top: 1.0}
    held = 0
    stack: list = [(root, None)]
    while stack:
        residual, branches = stack.pop()
        if branches is not None:
            memo[residual] = math.fsum(p * memo[child] for p, child in branches)
            continue
        if residual in memo:
            continue
        held += len(residual)
        if held > limit:
            raise EnumerationLimitError(
                f"event_prob: {held} conjuncts in the decision diagram exceed "
                f"the limit {limit} (--limit)"
            )
        parts = [splits[c] for c in residual]
        v = min(map(itemgetter(0), parts))
        # Conjuncts that do not mention v pass to every child unchanged.
        kept = frozenset(c for c, part in zip(residual, parts) if part[0] != v)
        rests: list[list[frozenset]] = [[] for _ in probs[v]]
        for u, allowed, rest in parts:
            if u == v:
                for i in allowed:
                    rests[i - 1].append(rest)
        branches = [
            (p, kept.union(r) if all(r) else top) for p, r in zip(probs[v], rests)
        ]
        stack.append((residual, branches))
        stack.extend((child, None) for _, child in branches if child not in memo)
    return memo[root]


def _describe(lit: ChoiceExpr) -> tuple[tuple[str, ThetaKey], int, bool]:
    """(instance, head index, positive) of a literal α or ¬α."""
    atom = lit.child if isinstance(lit, Not) else lit
    return (atom.cid, atom.key), atom.index, atom is lit


def derivation_prob(
    d: Derivation, g: GroundProgram, limit: int = DEFAULT_ASSIGNMENT_LIMIT
) -> float:
    """The probability of one proof: the mass of its leaf expression."""
    return event_prob(d.expr, g, limit)


def success_prob(
    q: Query,
    g: GroundProgram,
    method: str = "engine",
    limit: int | None = None,
    depth_limit: int = DEFAULT_DEPTH_LIMIT,
) -> float:
    """The probability that a query holds.

    ``engine`` (default) evaluates the disjunction of the resolution tree's
    success-leaf expressions; ``oracle`` enumerates every selection and sums
    the satisfying worlds' probabilities, and raises ProgramError on a query
    that is not ground.  The two agree to within 1e-9.
    """
    limit = DEFAULT_ASSIGNMENT_LIMIT if limit is None else limit
    if method == "engine":
        exprs = success_expressions(q, g, depth_limit)
        if not exprs:
            return 0.0
        return event_prob(disj(exprs), g, limit)
    if method == "oracle":
        _require_ground(q, "oracle")
        message = "oracle: {count} selections exceed the enumeration limit {limit} (--limit)"
        weighted = _weighted_selections(g, limit, message)
        return math.fsum(p for s, p in weighted if model_check(world_of(s, g), q))
    raise ValueError(f"unknown method {method!r} (expected 'engine' or 'oracle')")


def worlds_table(
    g: GroundProgram,
    queries: list[Query] | None = None,
    limit: int = 10_000,
):
    """Rows of (selection, probability, query truth values), in selection

    order, for the CLI's world listing; the queries must be ground."""
    queries = queries or []
    for q in queries:
        _require_ground(q, "worlds")
    message = "worlds: {count} worlds exceed the limit {limit} (--limit)"
    for selection, p in _weighted_selections(g, limit, message):
        w = world_of(selection, g)
        yield selection, p, [model_check(w, q) for q in queries]
