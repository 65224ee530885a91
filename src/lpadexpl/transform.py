"""Reduction onto bodiless choice clauses.

``trp`` maps a ground program to a program of *choice facts*: per ground
instance one annotated-disjunction fact over fresh ``ch`` atoms — head ``i``
of instance ``(c, θ)`` becomes ``ch(c, θvals, i)`` where ``θvals`` is the
list of θ's values in clause-variable order.  Only explicit heads get a
``ch`` atom; the implicit ``none`` mass stays implicit, exactly as in the
source clause.

``trc`` maps a choice expression to a goal over those ``ch`` atoms:
⊤ ↦ true, ⊥ ↦ false, atomic choices to ``ch`` literals (a none-indexed
choice, having no ``ch`` atom, becomes the conjunction of the negated
explicit ``ch`` atoms of its instance), ¬ ↦ negation, ∧ ↦ conjunction,
∨ ↦ disjunction.  ``desugar`` flattens such a goal to a plain query plus
auxiliary derived clauses (one fresh predicate per disjunction, compound
negation, or unit), so the expression's probability can be recomputed by
running the ordinary machinery on the transformed program —
``prob_via_transform`` does exactly that, on the expression's ``dnf``, and
agrees with ``event_prob``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .choice_algebra import BOT, TOP, And, AtomicChoice, ChoiceExpr, Not, Or, dnf
from .grounder import GroundProbClause, GroundProgram, ground
from .semantics import success_prob
from .syntax import (
    Atom,
    Clause,
    Constant,
    Literal,
    NONE_PREDICATE,
    PROB_SUM_TOLERANCE,
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
        total = sum(p for _, p in heads)
        if 1 - total > PROB_SUM_TOLERANCE:
            heads.append((Atom(NONE_PREDICATE), 1 - total))
        clauses.append(ProbClause(f"c{n}", tuple(heads), (), inst.n_explicit))
    return Program(tuple(clauses), (), ())


# ---------------------------------------------------------------------------
# trc: choice expression -> goal over ch atoms
# ---------------------------------------------------------------------------


class Goal:
    """A query with disjunction: literals closed under not/and/or plus units."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class GTrue(Goal):
    pass


@dataclass(frozen=True, slots=True)
class GFalse(Goal):
    pass


@dataclass(frozen=True, slots=True)
class GLit(Goal):
    literal: Literal


@dataclass(frozen=True, slots=True)
class GNot(Goal):
    child: Goal


@dataclass(frozen=True, slots=True)
class GAnd(Goal):
    children: tuple[Goal, ...]


@dataclass(frozen=True, slots=True)
class GOr(Goal):
    children: tuple[Goal, ...]


def trc(e: ChoiceExpr, g: GroundProgram) -> Goal:
    if e == TOP:
        return GTrue()
    if e == BOT:
        return GFalse()
    if isinstance(e, AtomicChoice):
        inst = g.instance(e.cid, e.key)
        if e.index <= inst.n_explicit:
            return GLit(Literal(True, _ch_atom(inst, e.index)))
        # The implicit none head has no ch atom: it holds exactly when no
        # explicit head was chosen.
        negs = tuple(
            GLit(Literal(False, _ch_atom(inst, i)))
            for i in range(1, inst.n_explicit + 1)
        )
        return negs[0] if len(negs) == 1 else GAnd(negs)
    if isinstance(e, Not):
        return GNot(trc(e.child, g))
    if isinstance(e, And):
        return GAnd(tuple(trc(c, g) for c in e.children))
    if isinstance(e, Or):
        return GOr(tuple(trc(c, g) for c in e.children))
    raise TypeError(f"not a choice expression: {e!r}")


def render_goal(goal: Goal) -> str:
    """Concrete text: ``,`` for and, ``;`` for or, ``\\+`` for not,

    parenthesizing nested disjunctions and compound negations."""
    if isinstance(goal, GTrue):
        return "true"
    if isinstance(goal, GFalse):
        return "false"
    if isinstance(goal, GLit):
        return goal.literal.to_source()
    if isinstance(goal, GNot):
        inner = render_goal(goal.child)
        if isinstance(goal.child, GLit) and goal.child.literal.positive:
            return f"\\+{inner}"
        return f"\\+({inner})"
    if isinstance(goal, GAnd):
        return ",".join(
            f"({render_goal(c)})" if isinstance(c, GOr) else render_goal(c)
            for c in goal.children
        )
    if isinstance(goal, GOr):
        return "; ".join(render_goal(c) for c in goal.children)
    raise TypeError(f"not a goal: {goal!r}")


# ---------------------------------------------------------------------------
# Desugaring goals to plain queries
# ---------------------------------------------------------------------------


class _Desugarer:
    def __init__(self):
        self.clauses: list[Clause] = []
        self.counter = 0

    def fresh(self) -> Atom:
        self.counter += 1
        return Atom(f"{AUX_PREFIX}{self.counter}")

    def to_query(self, goal: Goal) -> Query:
        if isinstance(goal, GTrue):
            return ()
        if isinstance(goal, GFalse):
            # A fresh predicate with no clauses fails finitely.
            return (Literal(True, self.fresh()),)
        if isinstance(goal, GLit):
            return (goal.literal,)
        if isinstance(goal, GAnd):
            out: list[Literal] = []
            for c in goal.children:
                out.extend(self.to_query(c))
            return tuple(out)
        if isinstance(goal, GOr):
            head = self.fresh()
            for c in goal.children:
                self.clauses.append(Clause(head, self.to_query(c)))
            return (Literal(True, head),)
        if isinstance(goal, GNot):
            child = goal.child
            if isinstance(child, GLit) and child.literal.positive:
                return (child.literal.negate(),)
            head = self.fresh()
            self.clauses.append(Clause(head, self.to_query(child)))
            return (Literal(False, head),)
        raise TypeError(f"not a goal: {goal!r}")


def desugar(goal: Goal) -> tuple[tuple[Clause, ...], Query]:
    """Auxiliary derived clauses plus the equivalent plain query."""
    d = _Desugarer()
    q = d.to_query(goal)
    return tuple(d.clauses), q


# ---------------------------------------------------------------------------
# Probability via the transformed program
# ---------------------------------------------------------------------------


def prob_via_transform(
    e: ChoiceExpr, g: GroundProgram, limit: int | None = None
) -> float:
    """The expression's probability, recomputed by resolution over the

    choice-fact program — an independent route that must agree with
    ``event_prob``.  It runs on the expression's ``dnf``: the CLI's
    disjunction of success expressions is only absorbed, but a large negated
    expression can exceed ``CONJOIN_LIMIT`` and raise EnumerationLimitError.
    ``limit`` bounds the engine's decision diagram, as in ``success_prob``."""
    # dnf removes every embedded ⊤/⊥; only a wholly-⊥ goal is left to
    # special-case (the query for `false` would otherwise put a clauseless
    # fresh predicate in the root query).
    e = dnf(e)
    if e == BOT:
        return 0.0
    program = trp(g)
    aux, query = desugar(trc(e, g))
    combined = Program(program.prob_clauses, aux, ())
    return success_prob(query, ground(combined), method="engine", limit=limit)


def print_transform(g: GroundProgram) -> str:
    """The choice-fact program as source text (debugging / inspection)."""
    from .syntax import print_program

    return print_program(trp(g))
