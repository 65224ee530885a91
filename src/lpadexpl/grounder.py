"""Grounding, relevance filtering, and stratification.

Grounding instantiates every probabilistic clause over a constant pool (by
default the constants mentioned in the program), optionally restricted per
clause id to an explicit list of substitutions.  Each probabilistic ground
instance is the unit of random choice downstream: an instance with heads
``h1..hn`` (the implicit ``none`` included) independently takes exactly one
head index.

Derived clauses are grounded bottom-up, only over the atoms that can be true:
starting from the facts and from the explicit heads of every instance, a
clause instance is kept when each atom of its positive body can be true, and
its head then can be too.  Negative literals are ignored, so the kept
clauses over-approximate those that can fire in some world, and no world
loses a true atom.  This is semi-naive evaluation as in Datalog engines
(Ullman, 1988) and ProbLog's grounder (Kimmig et al., TPLP 2011).

Stratification is checked at the predicate level, on the source clauses: the
dependency graph must not contain a cycle through negation.  The resulting
stratum map drives bottom-up world evaluation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import ProgramError, StratificationError
from .syntax import (
    Atom,
    Clause,
    Constant,
    NONE_PREDICATE,
    ProbClause,
    Program,
    Query,
    Substitution,
    Variable,
    apply_atom,
    apply_query,
    apply_term,
    clause_vars,
    is_ground_atom,
    mgu,
)

#: θ as a hashable canonical value: variable/constant name pairs sorted by
#: variable name.
ThetaKey = tuple[tuple[str, str], ...]


def theta_key(theta: Substitution) -> ThetaKey:
    return tuple(sorted((v.name, t.name) for v, t in theta.items()))


@dataclass(frozen=True, slots=True)
class GroundProbClause:
    """One ground instance of a probabilistic clause.

    ``var_order``/``var_values`` record the source clause's variables in
    first-occurrence order and the constants θ maps them to — the external
    identity of the instance (rendered like ``(c2,[p1,p2],i)``).
    """

    cid: str
    key: ThetaKey
    var_order: tuple[str, ...]
    var_values: tuple[str, ...]
    heads: tuple[tuple[Atom, float], ...]
    n_explicit: int
    body: Query

    @property
    def n_heads(self) -> int:
        return len(self.heads)

    @property
    def probs(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.heads)

    def head_atom(self, index: int) -> Atom:
        """The head atom for a 1-based head index."""
        return self.heads[index - 1][0]

    def prob(self, index: int) -> float:
        return self.heads[index - 1][1]

    def values_str(self) -> str:
        return "[" + ",".join(self.var_values) + "]"


#: One clause a goal can resolve with: its head, its body, the instance or
#: derived clause it comes from, and the 1-based index of the instance's
#: explicit head (0 for a derived clause).
Resolvent = tuple[Atom, Query, GroundProbClause | Clause, int]


class GroundProgram:
    """A ground program: probabilistic instances plus the ground derived

    clauses whose positive bodies can hold."""

    def __init__(
        self,
        instances: tuple[GroundProbClause, ...],
        derived: tuple[Clause, ...],
        constants: tuple[str, ...],
        source: Program,
    ):
        self.instances = instances
        self.derived = derived
        self.constants = constants
        self.source = source
        self._by_key = {(inst.cid, inst.key): inst for inst in instances}

    def instance(self, cid: str, key: ThetaKey) -> GroundProbClause:
        try:
            return self._by_key[(cid, key)]
        except KeyError:
            raise ProgramError(f"no ground instance {cid} with {dict(key)}") from None

    def instance_by_values(self, cid: str, values: tuple[str, ...]) -> GroundProbClause:
        for inst in self.instances:
            if inst.cid == cid and inst.var_values == values:
                return inst
        raise ProgramError(
            f"no ground instance {cid} with values [{','.join(values)}]"
        )

    @cached_property
    def by_head(self) -> dict[Atom, list[Resolvent]]:
        """``resolvents`` of each ground head atom."""
        index: dict[Atom, list[Resolvent]] = {}
        for entry in self._resolvents():
            index.setdefault(entry[0], []).append(entry)
        return index

    @cached_property
    def _by_predicate(self) -> dict[tuple[str, int], list[Resolvent]]:
        """``resolvents`` of each predicate."""
        index: dict[tuple[str, int], list[Resolvent]] = {}
        for entry in self._resolvents():
            index.setdefault(entry[0].pred, []).append(entry)
        return index

    def _resolvents(self):
        for inst in self.instances:
            for i in range(1, inst.n_explicit + 1):
                yield inst.head_atom(i), inst.body, inst, i
        for c in self.derived:
            yield c.head, c.body, c, 0

    def resolvents(self, atom: Atom) -> list[Resolvent]:
        """What a goal ``atom`` can resolve with: the clauses whose head equals

        it when it is ground, else every clause of its predicate.  Explicit
        heads of instances come in instance order, each instance's heads
        ascending, then derived clauses in their order; a predicate heads
        clauses of one kind only."""
        if is_ground_atom(atom):
            return self.by_head.get(atom, [])
        return self._by_predicate.get(atom.pred, [])

    @cached_property
    def strata(self) -> dict[tuple[str, int], int]:
        """Predicate → stratum map; raises StratificationError on failure."""
        return stratify(self)

    def selection_count(self) -> int:
        n = 1
        for inst in self.instances:
            n *= inst.n_heads
        return n


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------


def ground(
    p: Program,
    constants: list[str] | None = None,
    restriction: dict[str, list[dict[str, str]]] | None = None,
    possible: tuple[Atom, ...] = (),
) -> GroundProgram:
    """Ground ``p`` over a constant pool.

    ``constants`` defaults to the constants mentioned in the program; a
    constant listed twice counts once.  Probabilistic clauses ground over
    the whole pool, except that ``restriction`` maps clause ids to the exact
    substitutions to instantiate (each must bind precisely the clause's
    variables).  A derived clause keeps the instances over the pool whose
    positive body atoms can all be true (see the module docstring), taking
    the atoms in ``possible`` as possible too; a variable that no positive
    body literal binds ranges over the whole pool.  Instances and derived
    clauses are ordered by source clause, then lexicographically by θ.
    """
    pool = sorted(set(constants)) if constants is not None else p.constants()
    if restriction:
        known = {c.cid for c in p.prob_clauses}
        for cid in restriction:
            if cid not in known:
                raise ProgramError(f"restriction names unknown clause id {cid!r}")

    instances: list[GroundProbClause] = []
    for c in p.prob_clauses:
        var_order = tuple(v.name for v in clause_vars(c))
        for theta in _substitutions_for(c, pool, restriction):
            key = theta_key(theta)
            theta_map = dict(key)
            instances.append(
                GroundProbClause(
                    cid=c.cid,
                    key=key,
                    var_order=var_order,
                    var_values=tuple(theta_map[v] for v in var_order),
                    heads=tuple((apply_atom(theta, a), prob) for a, prob in c.heads),
                    n_explicit=c.n_explicit,
                    body=apply_query(theta, c.body),
                )
            )

    heads = [inst.head_atom(i) for inst in instances for i in range(1, inst.n_explicit + 1)]
    derived = _ground_derived(p.derived_clauses, heads + list(possible), pool)
    return GroundProgram(tuple(instances), derived, tuple(pool), p)


def _no_constants(variables) -> ProgramError:
    return ProgramError(
        f"cannot ground clause with variables "
        f"({', '.join(v.name for v in variables)}): no constants"
    )


def _ground_derived(
    clauses: tuple[Clause, ...], heads: list[Atom], pool: list[str]
) -> tuple[Clause, ...]:
    """The instances of ``clauses`` over ``pool`` whose positive body atoms

    can all be true, starting from ``heads`` and the facts.

    Semi-naive: each atom that becomes possible is joined only against the
    clauses whose positive body mentions its predicate, at the position it
    fills.  The rest of that body is looked up among the atoms known so far,
    through an index on the arguments bound at that point, so a clause
    instance is found once the last of its body atoms is known.
    """
    if not clauses:
        return ()
    values = [Constant(name) for name in pool]
    in_pool = set(pool)
    #: per clause: its variables by name, those no positive literal binds,
    #: and its positive body atoms
    rules = []
    #: predicate -> (clause number, body position) of each positive literal
    triggers: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for n, c in enumerate(clauses):
        variables = clause_vars(c)
        if variables and not pool:
            raise _no_constants(variables)
        positive = [lit.atom for lit in c.body if lit.positive]
        bound = {t for a in positive for t in a.args if isinstance(t, Variable)}
        ordered = sorted(variables, key=lambda v: v.name)
        rules.append((ordered, [v for v in ordered if v not in bound], positive))
        for i, a in enumerate(positive):
            triggers.setdefault(a.pred, []).append((n, i))

    #: per clause: the kept instances by the constant names of their θ
    found: list[dict[tuple[str, ...], Clause]] = [{} for _ in clauses]
    # Only atoms that some positive body mentions can make a clause fire.
    possible = {a for a in heads if a.pred in triggers}
    agenda = list(possible)
    by_pred: dict[tuple[str, int], list[Atom]] = {}
    #: predicate -> bound argument positions -> their values -> known atoms
    index: dict[tuple[str, int], dict[tuple[int, ...], dict[tuple, list[Atom]]]] = {}

    def fire(n: int, theta: Substitution) -> None:
        """Keep clause ``n`` under ``theta`` extended over its free variables."""
        ordered, free, _ = rules[n]
        for combo in itertools.product(values, repeat=len(free)) if free else ((),):
            full = {**theta, **dict(zip(free, combo))} if free else theta
            row = tuple(full[v].name for v in ordered)
            if row in found[n]:
                continue
            c = clauses[n]
            if full:
                c = Clause(apply_atom(full, c.head), apply_query(full, c.body))
            found[n][row] = c
            if c.head not in possible and c.head.pred in triggers:
                possible.add(c.head)
                agenda.append(c.head)

    def lookup(pattern: Atom, theta: Substitution) -> list[Atom]:
        """The known atoms that agree with ``pattern`` where θ binds it."""
        key = tuple(
            k for k, t in enumerate(pattern.args) if not isinstance(t, Variable) or t in theta
        )
        by_key = index.setdefault(pattern.pred, {})
        if key not in by_key:
            by_key[key] = {}
            for a in by_pred.get(pattern.pred, ()):
                by_key[key].setdefault(tuple(a.args[k] for k in key), []).append(a)
        return by_key[key].get(tuple(apply_term(theta, pattern.args[k]) for k in key), [])

    for n, (_, _, positive) in enumerate(rules):
        if not positive:
            fire(n, {})
    while agenda:
        atom = agenda.pop()
        pred = atom.pred
        by_pred.setdefault(pred, []).append(atom)
        for key, by_value in index.get(pred, {}).items():
            by_value.setdefault(tuple(atom.args[k] for k in key), []).append(atom)
        for n, i in triggers[pred]:
            positive = rules[n][2]
            theta = _match(positive[i], atom, {}, in_pool)
            stack = [] if theta is None else [(0, theta)]
            while stack:
                j, theta = stack.pop()
                if j == i:
                    j += 1
                if j == len(positive):
                    fire(n, theta)
                    continue
                for candidate in lookup(positive[j], theta):
                    extended = _match(positive[j], candidate, theta, in_pool)
                    if extended is not None:
                        stack.append((j + 1, extended))

    # The full product's order: by clause, then by θ, that is by the names
    # θ maps the clause's variables to, since the pool is sorted.
    return tuple(clause for kept in found for _, clause in sorted(kept.items()))


def _match(
    pattern: Atom, atom: Atom, theta: Substitution, in_pool: set[str]
) -> Substitution | None:
    """``theta`` extended so that it maps ``pattern`` onto the ground ``atom``

    of the same predicate, binding variables to constants named in
    ``in_pool`` only; None when there is no such extension."""
    out = theta
    for t, value in zip(pattern.args, atom.args):
        if isinstance(t, Variable):
            bound = out.get(t)
            if bound is None:
                if value.name not in in_pool:
                    return None
                if out is theta:
                    out = dict(theta)
                out[t] = value
            elif bound != value:
                return None
        elif t != value:
            return None
    return out


def _substitutions_for(
    c: ProbClause,
    pool: list[str],
    restriction: dict[str, list[dict[str, str]]] | None,
):
    variables = clause_vars(c)
    if restriction is not None and c.cid in restriction:
        names = {v.name for v in variables}
        for entry in restriction[c.cid]:
            if set(entry) != names:
                raise ProgramError(
                    f"restriction for {c.cid} must bind exactly "
                    f"{{{', '.join(sorted(names))}}}, got {{{', '.join(sorted(entry))}}}"
                )
            yield {Variable(v): Constant(t) for v, t in entry.items()}
        return
    if not variables:
        yield {}
        return
    if not pool:
        raise _no_constants(variables)
    ordered = sorted(variables, key=lambda v: v.name)
    for combo in itertools.product(pool, repeat=len(ordered)):
        yield {v: Constant(name) for v, name in zip(ordered, combo)}


# ---------------------------------------------------------------------------
# Relevance
# ---------------------------------------------------------------------------


def relevant_subset(g: GroundProgram, q: Query) -> GroundProgram:
    """The sub-program that can influence ``q``.

    Atom-level closure: starting from the query's atoms (a non-ground literal
    seeds every ground head it unifies with), a clause is relevant when its
    head — any explicit head, for probabilistic instances — is a relevant
    atom, and a relevant clause makes all its body atoms relevant (through
    negation too).  Resolution of ``q`` only ever touches relevant clauses,
    so inference over the subset builds the same tree.  A worklist over
    ``g.resolvents`` visits each relevant atom once.
    """
    relevant: set[Atom] = set()
    agenda: list[Atom] = []

    def mark(atom: Atom) -> None:
        if atom not in relevant:
            relevant.add(atom)
            agenda.append(atom)

    for lit in q:
        for head, *_ in g.resolvents(lit.atom):
            if mgu(lit.atom, head) is not None:
                mark(head)

    kept: set[int] = set()  # ids of the kept instances and clauses
    while agenda:
        for _, body, source, _ in g.resolvents(agenda.pop()):
            if id(source) not in kept:
                kept.add(id(source))
                for lit in body:
                    mark(lit.atom)

    return GroundProgram(
        tuple(inst for inst in g.instances if id(inst) in kept),
        tuple(c for c in g.derived if id(c) in kept),
        g.constants,
        g.source,
    )


# ---------------------------------------------------------------------------
# Stratification
# ---------------------------------------------------------------------------


def stratify(g: GroundProgram) -> dict[tuple[str, int], int]:
    """Assign each predicate a stratum so that clauses only depend positively

    on their own stratum and negatively on strictly lower ones.  The edges
    come from the ground instances and from the source's derived clauses,
    so the answer does not depend on which derived instances the grounding
    kept.  Raises :class:`StratificationError` (carrying the offending
    cycle) when the predicate dependency graph has a cycle through negation.
    """
    preds: set[tuple[str, int]] = set()
    pos_edges: set[tuple[tuple[str, int], tuple[str, int]]] = set()
    neg_edges: set[tuple[tuple[str, int], tuple[str, int]]] = set()

    def add_clause(heads: list[Atom], body: Query) -> None:
        head_preds = [a.pred for a in heads if a.predicate != NONE_PREDICATE]
        preds.update(head_preds)
        for lit in body:
            preds.add(lit.atom.pred)
            for hp in head_preds:
                edge = (lit.atom.pred, hp)
                (pos_edges if lit.positive else neg_edges).add(edge)

    # Every instance of a clause has its predicates, so one instance per
    # clause id gives its edges; a clause without instances adds none.
    for inst in {inst.cid: inst for inst in g.instances}.values():
        add_clause([a for a, _ in inst.heads], inst.body)
    for c in g.source.derived_clauses:
        add_clause([c.head], c.body)

    # Dependency graph: edge b -> h when h's clause mentions b in its body.
    successors: dict[tuple[str, int], set[tuple[str, int]]] = {p: set() for p in preds}
    for b, h in pos_edges | neg_edges:
        successors[b].add(h)

    sccs = _tarjan(preds, successors)
    scc_of = {p: i for i, scc in enumerate(sccs) for p in scc}

    for b, h in neg_edges:
        if scc_of[b] == scc_of[h]:
            raise StratificationError(_negative_cycle(b, h, sccs[scc_of[b]], successors))

    # Body predicates by head, so each edge is visited once below.
    pos_into: dict[tuple[str, int], list[tuple[str, int]]] = {}
    neg_into: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for edges, into in ((pos_edges, pos_into), (neg_edges, neg_into)):
        for b, h in edges:
            into.setdefault(h, []).append(b)

    # Tarjan yields SCCs in reverse topological order; process dependencies
    # first and push each predicate above its negated dependencies.
    strata: dict[tuple[str, int], int] = {}
    for scc in reversed(sccs):
        level = 0
        for p in scc:
            for b in pos_into.get(p, ()):
                if scc_of[b] != scc_of[p]:
                    level = max(level, strata[b])
            for b in neg_into.get(p, ()):
                level = max(level, strata[b] + 1)
        for p in scc:
            strata[p] = level
    return strata


def _tarjan(
    nodes: set[tuple[str, int]],
    successors: dict[tuple[str, int], set[tuple[str, int]]],
) -> list[list[tuple[str, int]]]:
    """Strongly connected components, iteratively, in reverse topological order."""
    index: dict[tuple[str, int], int] = {}
    lowlink: dict[tuple[str, int], int] = {}
    on_stack: set[tuple[str, int]] = set()
    stack: list[tuple[str, int]] = []
    sccs: list[list[tuple[str, int]]] = []
    counter = itertools.count()

    for root in sorted(nodes):
        if root in index:
            continue
        work = [(root, iter(sorted(successors[root])))]
        index[root] = lowlink[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = lowlink[succ] = next(counter)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(successors[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(sorted(scc))
    return sccs


def _negative_cycle(
    b: tuple[str, int],
    h: tuple[str, int],
    scc: list[tuple[str, int]],
    successors: dict[tuple[str, int], set[tuple[str, int]]],
) -> list[str]:
    """A predicate path h -> ... -> b inside the SCC, closed by the negative

    edge b -> h, rendered as names."""
    members = set(scc)
    parents: dict[tuple[str, int], tuple[str, int]] = {}
    frontier = [h]
    seen = {h}
    while frontier:
        node = frontier.pop(0)
        if node == b:
            break
        for succ in sorted(successors[node]):
            if succ in members and succ not in seen:
                seen.add(succ)
                parents[succ] = node
                frontier.append(succ)
    path = [b]
    while path[-1] != h:
        path.append(parents.get(path[-1], h))
    path.reverse()  # h ... b
    return [p[0] for p in path] + [h[0]]
