"""Brute-force reference implementations for cross-checking the library.

Everything here recomputes results from first principles: selections are
enumerated outright, derived clauses are ground by the full product over the
constant pool (independently of the grounder's pruning), worlds are evaluated
by a naive stratified fixpoint written independently of the library's model
code, and coverage/complement properties are checked selection by selection.  Intentionally slow and
simple — these functions define what the fast code must agree with.
"""

from __future__ import annotations

import itertools
import math

from lpadexpl.choice_algebra import (
    BOT,
    TOP,
    And,
    AtomicChoice,
    Not,
    Or,
    conj,
    disj,
    mentioned_instances,
    render_composite,
)
from lpadexpl.grounder import GroundProgram, ThetaKey
from lpadexpl.syntax import (
    Atom,
    Clause,
    Constant,
    Query,
    Substitution,
    Variable,
    apply_atom,
    apply_query,
)


def theta_key(theta: Substitution) -> ThetaKey:
    """θ as an instance's ``key``: name pairs sorted by variable name."""
    return tuple(sorted((v.name, t.name) for v, t in theta.items()))


def is_dnf(e) -> bool:
    """Whether ``e`` is ⊥, ⊤, or a disjunction of conjunctions of literals."""

    def is_literal(x) -> bool:
        return isinstance(x, AtomicChoice) or isinstance(x, Not) and isinstance(x.child, AtomicChoice)

    def is_conjunct(x) -> bool:
        return is_literal(x) or (isinstance(x, And) and all(map(is_literal, x.children)))

    if e == BOT or e == TOP:
        return True
    if isinstance(e, Or):
        return all(is_conjunct(c) for c in e.children)
    return is_conjunct(e)


def eval_expr(e, assignment: dict[tuple[str, ThetaKey], int]) -> bool:
    """Truth of an expression under a head assignment for its instances."""
    if e == BOT or e == TOP:
        return e == TOP
    if isinstance(e, AtomicChoice):
        return assignment[e.inst] == e.index
    if isinstance(e, Not):
        return not eval_expr(e.child, assignment)
    if isinstance(e, And):
        return all(eval_expr(c, assignment) for c in e.children)
    if isinstance(e, Or):
        return any(eval_expr(c, assignment) for c in e.children)
    raise TypeError(f"not a choice expression: {e!r}")


def composite_set_text(ks, g: GroundProgram) -> str:
    """The text of a composite-choice set by definition: each set rendered by

    ``render_composite``, the sets ordered by their sorted atomic choices' sort keys."""
    ordered = sorted(ks, key=lambda k: tuple(sorted(ac.sort_key() for ac in k)))
    return "{" + ",".join(render_composite(k, g) for k in ordered) + "}"


def all_selections(g: GroundProgram):
    """Every total selection (one atomic choice per instance), index order."""
    axes = [
        [AtomicChoice(inst.cid, inst.key, i) for i in range(1, inst.n_heads + 1)]
        for inst in g.instances
    ]
    for combo in itertools.product(*axes):
        yield frozenset(combo)


def selection_prob(selection, g: GroundProgram) -> float:
    chosen = {(ac.cid, ac.key): ac.index for ac in selection}
    p = 1.0
    for inst in g.instances:
        p *= inst.prob(chosen[(inst.cid, inst.key)])
    return p


def total_world_prob(g: GroundProgram) -> float:
    """The summed probability of every selection — 1.0 up to rounding.

    Every world's probability is computed as the product of its chosen heads'
    annotations and summed, rather than relying on per-instance
    normalization.  It streams the product of the head probabilities: on the
    7,962,624 worlds of the c2-restricted negation fixture, building each
    selection and calling ``selection_prob`` is about 30 times slower.
    """
    axes = [inst.probs for inst in g.instances]
    return math.fsum(math.prod(ps) for ps in itertools.product(*axes))


def event_prob_by_enumeration(e, g: GroundProgram) -> float:
    """An expression's probability by visiting every head assignment of the

    instances it mentions, in (clause id, θ) order, and summing the
    products of the satisfying ones' head probabilities."""
    insts = sorted(
        (g.instance(cid, key) for cid, key in mentioned_instances(e)),
        key=lambda inst: (inst.cid, inst.key),
    )
    keys = [(inst.cid, inst.key) for inst in insts]
    terms = []
    for heads in itertools.product(*(range(1, inst.n_heads + 1) for inst in insts)):
        if eval_expr(e, dict(zip(keys, heads))):
            terms.append(math.prod(inst.prob(i) for inst, i in zip(insts, heads)))
    return math.fsum(terms)


def full_grounding(g: GroundProgram) -> list[Clause]:
    """The source's derived clauses over ``g.constants`` by the full product,

    whether their bodies can hold or not: what ``g.derived`` is a pruned,
    order-keeping subsequence of."""
    clauses = []
    for c in g.source.derived_clauses:
        variables = sorted(
            {t for a in [c.head] + [lit.atom for lit in c.body] for t in a.args
             if isinstance(t, Variable)},
            key=lambda v: v.name,
        )
        for values in itertools.product(g.constants, repeat=len(variables)):
            theta = {v: Constant(name) for v, name in zip(variables, values)}
            clauses.append(Clause(apply_atom(theta, c.head), apply_query(theta, c.body)))
    return clauses


def world_clauses(selection, g: GroundProgram, derived: list[Clause]) -> list[Clause]:
    """The normal ground program of a selection: each chosen explicit head

    keeps its instance's body; 'none' picks contribute nothing.  ``derived``
    is ``full_grounding(g)``."""
    chosen = {(ac.cid, ac.key): ac.index for ac in selection}
    clauses = []
    for inst in g.instances:
        i = chosen[(inst.cid, inst.key)]
        head = inst.head_atom(i)
        if head.predicate != "none":
            clauses.append(Clause(head, inst.body))
    clauses.extend(derived)
    return clauses


def predicate_levels(g: GroundProgram) -> dict[tuple[str, int], int]:
    """Stratification by iterative relaxation over the predicate graph

    (every potential world clause counted, whichever heads get chosen)."""
    rules: list[tuple[tuple[str, int], Query]] = [
        (c.head.pred, c.body) for c in full_grounding(g)
    ]
    for inst in g.instances:
        for i in range(1, inst.n_heads + 1):
            head = inst.head_atom(i)
            if head.predicate != "none":
                rules.append((head.pred, inst.body))
    level: dict[tuple[str, int], int] = {}
    for head, body in rules:
        level.setdefault(head, 0)
        for lit in body:
            level.setdefault(lit.atom.pred, 0)
    for _ in range(len(level) + 1):
        changed = False
        for head, body in rules:
            for lit in body:
                need = level[lit.atom.pred] + (0 if lit.positive else 1)
                if need > level[head]:
                    level[head] = need
                    changed = True
        if not changed:
            return level
    raise AssertionError("program is not stratified")


def least_model(clauses: list[Clause], level: dict[tuple[str, int], int]) -> set[Atom]:
    model: set[Atom] = set()
    top = max(level.values(), default=0)
    for stratum in range(top + 1):
        layer = [c for c in clauses if level[c.head.pred] == stratum]
        while True:
            added = False
            for c in layer:
                if c.head in model:
                    continue
                if all((lit.atom in model) == lit.positive for lit in c.body):
                    model.add(c.head)
                    added = True
            if not added:
                break
    return model


def holds(model: set[Atom], q: Query) -> bool:
    return all((lit.atom in model) == lit.positive for lit in q)


def satisfying_selections(q: Query, g: GroundProgram) -> list[frozenset]:
    level = predicate_levels(g)
    derived = full_grounding(g)
    return [
        s
        for s in all_selections(g)
        if holds(least_model(world_clauses(s, g, derived), level), q)
    ]


def query_prob(q: Query, g: GroundProgram) -> float:
    return math.fsum(selection_prob(s, g) for s in satisfying_selections(q, g))


def covers(ks, selection) -> bool:
    """True when some composite choice in ks is part of the selection."""
    return any(kappa <= selection for kappa in ks)


def coverage(ks, g: GroundProgram) -> set[frozenset]:
    return {s for s in all_selections(g) if covers(ks, s)}


def complement_coverage(ks, g: GroundProgram) -> set[frozenset]:
    return {s for s in all_selections(g) if not covers(ks, s)}


def extensions(conjuncts, g: GroundProgram) -> set[tuple[int, ...]]:
    """The selections satisfying some conjunct of literals (α or ¬α), as

    head-index tuples in ``g.instances`` order: each conjunct's allowed heads
    per instance, expanded in full.  ``coverage`` of a composite-choice set
    built from the sets' side, for programs too large to scan selection by
    selection."""
    out = set()
    for conjunct in conjuncts:
        allowed = {(inst.cid, inst.key): set(range(1, inst.n_heads + 1)) for inst in g.instances}
        for lit in conjunct:
            if isinstance(lit, Not):
                allowed[(lit.child.cid, lit.child.key)].discard(lit.child.index)
            else:
                allowed[(lit.cid, lit.key)] &= {lit.index}
        out.update(itertools.product(*(sorted(allowed[(i.cid, i.key)]) for i in g.instances)))
    return out


def conjuncts(e) -> list[tuple]:
    """The conjuncts of a DNF as tuples of literals."""
    if e in (TOP, BOT):
        return [()] if e == TOP else []
    return [c.children if isinstance(c, And) else (c,) for c in (e.children if isinstance(e, Or) else (e,))]


def dnf_reference(e):
    """dnf by its definition: push ¬ to the leaves, expand the full product

    of literal sets, drop the inconsistent ones (two heads of one instance,
    or α with ¬α), drop ¬α' where another head α of its instance is chosen,
    and keep the subset-minimal sets.  Returns the same canonical form as
    ``choice_algebra.dnf``."""
    sets = {n for s in _literal_sets(e, False) if (n := _normalised(s)) is not None}
    return disj(conj(s) for s in sets if not any(m < s for m in sets))


def _literal_sets(e, negated: bool) -> list[frozenset]:
    """The raw DNF of ``e`` (of ``¬e`` when ``negated``) as literal sets."""
    if e in (TOP, BOT):
        return [frozenset()] if (e == TOP) != negated else []
    if isinstance(e, AtomicChoice):
        return [frozenset([Not(e) if negated else e])]
    if isinstance(e, Not):
        return _literal_sets(e.child, not negated)
    parts = [_literal_sets(c, negated) for c in e.children]
    if isinstance(e, And) != negated:
        return [frozenset().union(*pick) for pick in itertools.product(*parts)]
    return [s for part in parts for s in part]


def _normalised(lits: frozenset):
    """``lits`` without redundant negations, or None when inconsistent."""
    chosen = {}
    for lit in lits:
        if isinstance(lit, AtomicChoice):
            if chosen.setdefault((lit.cid, lit.key), lit.index) != lit.index:
                return None
    kept = set()
    for lit in lits:
        if isinstance(lit, Not):
            index = chosen.get((lit.child.cid, lit.child.key))
            if index == lit.child.index:
                return None
            if index is not None:
                continue
        kept.add(lit)
    return frozenset(kept)
