"""Exact probability semantics by world enumeration and by event evaluation.

A *selection* picks one head for every probabilistic ground instance; its
*world* keeps the chosen heads (a ``none`` head contributes nothing) plus all
derived clauses, and its probability is the product of the chosen heads'
annotations.  Queries are checked in a world bottom-up, stratum by stratum —
deliberately independent of the resolution engine, so the two can be compared.

``success_prob`` offers both routes: ``oracle`` sums the probabilities of the
worlds satisfying the query; ``engine`` sums, in one pass, the query's
reduced ordered multi-valued decision diagram, which tests only the
instances the query's proofs mention (independence marginalizes out the
rest).  ``slpdnf.query_diagram`` builds that diagram from one tabled diagram
per ground atom, as PITA does for LPADs (Riguzzi & Swift, TPLP 2011),
without the resolution tree or any DNF; a positive cycle is its least
fixpoint, as in the worlds' least models, so no depth limit applies.
``limit`` bounds the nodes the diagram makes, the table's intermediate ones
included; the enumerations bound selections.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .choice_algebra import DEFAULT_ASSIGNMENT_LIMIT, AtomicChoice, ChoiceExpr, Diagram, conj
from .errors import EnumerationLimitError, ProgramError
from .grounder import GroundProgram, ThetaKey
from .slpdnf import query_diagram
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
    """Yield every selection with its probability, the last instance's head

    varying fastest; past ``limit`` selections, raise EnumerationLimitError
    with ``message`` formatted by count and limit before yielding any."""
    insts = g.instances
    count = math.prod(inst.n_heads for inst in insts)
    if count > limit:
        raise EnumerationLimitError(message.format(count=count, limit=limit))
    for heads in itertools.product(*(range(1, inst.n_heads + 1) for inst in insts)):
        selection = frozenset(AtomicChoice(inst.cid, inst.key, i) for inst, i in zip(insts, heads))
        yield selection, math.prod(inst.prob(i) for inst, i in zip(insts, heads))


@dataclass(slots=True)
class World:
    """A ground normal program induced by one selection."""

    clauses: tuple[Clause, ...]
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
    return World(tuple(clauses), g.strata)


def world_prob(selection: Selection, g: GroundProgram) -> float:
    return event_prob(conj(selection), g)


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
    """The probability mass of the worlds satisfying an expression: one pass

    over its ``Diagram``, in which ⊥ is exactly 0.0 and ⊤ exactly 1.0.
    Raises EnumerationLimitError once the diagram holds more than ``limit``
    nodes."""
    diagram = Diagram(g, limit, "event_prob")
    return diagram.prob(diagram.compile(e))


def success_prob(
    q: Query,
    g: GroundProgram,
    method: str = "engine",
    limit: int = DEFAULT_ASSIGNMENT_LIMIT,
) -> float:
    """The probability that a query holds.

    ``engine`` (default) sums the query's tabled decision diagram; ``oracle``
    enumerates every selection and sums the satisfying worlds' probabilities,
    and raises ProgramError on a query that is not ground.  The two agree to
    within 1e-9.
    """
    if method == "engine":
        diagram = Diagram(g, limit, "walk")
        return diagram.prob(query_diagram(q, g, diagram))
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
