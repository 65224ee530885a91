"""Reduction onto bodiless choice clauses.

``trp`` maps a ground program to a program of *choice facts*: per ground
instance one annotated-disjunction fact over fresh ``ch`` atoms — head ``i``
of instance ``(c, θ)`` becomes ``ch(c, θvals, i)`` where ``θvals`` is the
list of θ's values in clause-variable order.  Only explicit heads get a
``ch`` atom; the implicit ``none`` mass stays implicit, exactly as in the
source clause.

``trc`` maps a choice expression to a plain query over those ``ch`` atoms
plus auxiliary derived clauses: ⊤ ↦ the empty query, an atomic choice ↦ its
``ch`` literal (a none-indexed choice, having no ``ch`` atom, becomes the
negated explicit ``ch`` atoms of its instance), ∧ ↦ the concatenated
queries, ¬ of an explicit-head choice ↦ the negated ``ch`` literal.  Each ⊥,
∨ and other ¬ gets one fresh ``aux`` predicate: ⊥ one fact, which the query
negates, ∨ one clause per disjunct, ¬ one clause whose head the query
negates.  So the expression's probability can be recomputed by running the
ordinary machinery on the transformed program — ``prob_via_transform`` does
exactly that, on the expression as given, and agrees with ``event_prob``.
"""

from __future__ import annotations

from itertools import count

from .choice_algebra import (
    BOT,
    DEFAULT_ASSIGNMENT_LIMIT,
    And,
    AtomicChoice,
    ChoiceExpr,
    Not,
    Or,
)
from .grounder import GroundProbClause, GroundProgram, ground
from .semantics import success_prob
from .syntax import (
    Atom,
    Clause,
    Constant,
    Literal,
    ProbClause,
    Program,
    Query,
)

CH_PREDICATE = "ch"
AUX_PREFIX = "aux"


# ---------------------------------------------------------------------------
# trp: ground program -> choice facts
# ---------------------------------------------------------------------------


def _ch_atom(inst: GroundProbClause, index: int) -> Atom:
    return Atom(
        CH_PREDICATE,
        (Constant(inst.cid), Constant(inst.values_str()), Constant(str(index))),
    )


def trp(g: GroundProgram) -> Program:
    """The choice-fact program: one bodiless probabilistic clause per

    instance, over ``ch`` atoms carrying (clause id, θ values, head index).
    """
    clauses: list[ProbClause] = []
    for n, inst in enumerate(g.instances, start=1):
        heads = [
            (_ch_atom(inst, i), inst.prob(i)) for i in range(1, inst.n_explicit + 1)
        ]
        heads += inst.heads[inst.n_explicit :]  # the parser's ``none`` head, if any
        clauses.append(ProbClause(f"c{n}", tuple(heads), (), inst.n_explicit))
    return Program(tuple(clauses), (), ())


# ---------------------------------------------------------------------------
# trc: choice expression -> query over ch atoms
# ---------------------------------------------------------------------------


def trc(e: ChoiceExpr, g: GroundProgram) -> tuple[tuple[Clause, ...], Query]:
    """Auxiliary derived clauses plus the plain query over ``ch`` atoms that

    holds exactly in the worlds of ``e``.  Every predicate it names is
    defined: ⊥, the empty ∨, is the negation of a fresh fact."""
    clauses: list[Clause] = []
    names = count(1)

    def fresh() -> Atom:
        return Atom(f"{AUX_PREFIX}{next(names)}")

    def query(e: ChoiceExpr) -> Query:
        if e == BOT:
            head = fresh()
            clauses.append(Clause(head, ()))
            return (Literal(False, head),)
        if isinstance(e, AtomicChoice):
            inst = g.instance(e.cid, e.key)
            if e.index <= inst.n_explicit:
                return (Literal(True, _ch_atom(inst, e.index)),)
            # The implicit none head has no ch atom: it holds exactly when no
            # explicit head was chosen.
            return tuple(
                Literal(False, _ch_atom(inst, i)) for i in range(1, inst.n_explicit + 1)
            )
        if isinstance(e, And):
            return tuple(lit for c in e.children for lit in query(c))
        if isinstance(e, Or):
            head = fresh()
            for c in e.children:
                clauses.append(Clause(head, query(c)))
            return (Literal(True, head),)
        if isinstance(e, Not):
            child = e.child
            if (
                isinstance(child, AtomicChoice)
                and child.index <= g.instance(child.cid, child.key).n_explicit
            ):
                return (query(child)[0].negate(),)
            head = fresh()
            clauses.append(Clause(head, query(child)))
            return (Literal(False, head),)
        raise TypeError(f"not a choice expression: {e!r}")

    q = query(e)  # fills clauses
    return tuple(clauses), q


# ---------------------------------------------------------------------------
# Probability via the transformed program
# ---------------------------------------------------------------------------


def prob_via_transform(
    e: ChoiceExpr, g: GroundProgram, limit: int = DEFAULT_ASSIGNMENT_LIMIT
) -> float:
    """The expression's probability, recomputed by resolution over the

    choice-fact program — an independent route that must agree with
    ``event_prob``.  ``limit`` bounds the engine's decision diagram, as in
    ``success_prob``."""
    program = trp(g)
    aux, query = trc(e, g)
    combined = Program(program.prob_clauses, aux, ())
    return success_prob(query, ground(combined), method="engine", limit=limit)

