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

Each source clause is compiled once per call into a template over a frame,
a list holding its variables in sorted-name order and then its constants:
every atom argument is a frame position, and the variables' constants, in
slot order, are θ's sort key.  A probabilistic clause fills the frame from
each restriction entry or each row of the pool's product.  A derived clause
with variables gets a join plan per positive body atom, fixed in advance as
Datalog engines compile rules (e.g. Soufflé, Jordan et al., CAV 2016): the
ops that match a triggering atom into the frame, then, per other positive
body atom, the index to look it up in (keyed by the arguments bound by
then) and the ops that bind the rest.  A ground derived clause waits for its
positive body atoms, and a ground fact is kept as it is.

Stratification is checked at the predicate level, on the source clauses: the
dependency graph must not contain a cycle through negation.  The resulting
stratum map drives bottom-up world evaluation.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from .errors import ProgramError, StratificationError
from .syntax import (
    Atom,
    Clause,
    Constant,
    Literal,
    NONE_PREDICATE,
    ProbClause,
    Program,
    Query,
    Term,
    Variable,
    clause_vars,
    is_ground_atom,
    mgu,
)

#: θ as a hashable canonical value: variable/constant name pairs sorted by
#: variable name.
ThetaKey = tuple[tuple[str, str], ...]


class GroundProbClause(NamedTuple):
    """One ground instance of a probabilistic clause.

    ``var_values`` records the constants θ maps the source clause's
    variables to, in first-occurrence order — the external identity of the
    instance (rendered like ``(c2,[p1,p2],i)``).  A named tuple, so that the
    grounder builds one with a single positional call.
    """

    cid: str
    key: ThetaKey
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
) -> GroundProgram:
    """Ground ``p`` over a constant pool.

    ``constants`` defaults to the constants mentioned in the program; a
    constant listed twice counts once.  Probabilistic clauses ground over
    the whole pool, except that ``restriction`` maps clause ids to the exact
    substitutions to instantiate (each must bind precisely the clause's
    variables to constant names; an entry listed twice counts once).  A
    derived clause keeps the instances over the pool whose positive body
    atoms can all be true (see the module docstring); a variable that no
    positive body literal binds ranges over the whole pool.  Instances and
    derived clauses are ordered by source clause, then lexicographically
    by θ.
    """
    pool = sorted(set(constants)) if constants is not None else p.constants()
    if restriction is not None:
        _check_restriction(restriction, {c.cid for c in p.prob_clauses})
    values = [Constant(name) for name in pool]
    instances: list[GroundProbClause] = []
    for c in p.prob_clauses:
        instances += _ground_prob(c, values, restriction)
    heads = [inst.head_atom(i) for inst in instances for i in range(1, inst.n_explicit + 1)]
    derived = _ground_derived(p.derived_clauses, heads, values)
    return GroundProgram(tuple(instances), derived, tuple(pool), p)


def _check_restriction(restriction, known: set[str]) -> None:
    """Raise ProgramError unless ``restriction`` maps ids of ``known``

    clauses to lists of objects with string values."""
    if not isinstance(restriction, dict):
        raise ProgramError("restriction must be an object mapping clause ids to lists")
    for cid, entries in restriction.items():
        if cid not in known:
            raise ProgramError(f"restriction names unknown clause id {cid!r}")
        if not isinstance(entries, list) or not all(
            isinstance(entry, dict) and all(isinstance(v, str) for v in entry.values())
            for entry in entries
        ):
            raise ProgramError(f"restriction for {cid} must be a list of objects with string values")


def _no_constants(variables) -> ProgramError:
    return ProgramError(
        f"cannot ground clause with variables "
        f"({', '.join(v.name for v in variables)}): no constants"
    )


def _reader(positions: tuple[int, ...]) -> Callable[[list], tuple]:
    """``frame -> tuple(frame[k] for k in positions)`` (``itemgetter`` gives

    a tuple from two positions on)."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (k,) = positions
        return lambda frame: (frame[k],)
    return lambda frame: ()


class _Frame:
    """A source clause's variables and constants laid out in one list, the

    frame its instances are filled in.  The variables take slots
    ``0 .. width-1`` in sorted-name order, so that the constants θ maps them
    to, in slot order, are θ's sort key; the clause's constants follow, so
    that every argument of every atom is a frame position."""

    def __init__(self, names: list[str]):
        self.width = len(names)
        self.cells: list[Constant | None] = [None] * self.width
        self.position: dict[Term, int] = {Variable(n): k for k, n in enumerate(names)}

    def args(self, atom: Atom) -> tuple[int, ...]:
        """The frame positions of ``atom``'s arguments."""
        position = self.position
        for t in atom.args:
            if t not in position:
                position[t] = len(self.cells)
                self.cells.append(t)
        return tuple([position[t] for t in atom.args])

    def template(self, atom: Atom) -> tuple[str, Callable[[list], tuple]]:
        """``atom``'s predicate and the reader of its arguments from a frame."""
        return atom.predicate, _reader(self.args(atom))


def _ground_prob(
    c: ProbClause,
    values: list[Constant],
    restriction: dict[str, list[dict[str, str]]] | None,
) -> list[GroundProbClause]:
    """``c``'s instances: one per distinct restriction entry, if ``restriction``

    names ``c``, else one per row of the product of the pool over its
    variables."""
    variables = clause_vars(c)  # in first-occurrence order
    names = sorted(v.name for v in variables)
    if restriction is not None and c.cid in restriction:
        rows = {}  # a dict, so that an entry listed twice counts once
        for entry in restriction[c.cid]:
            if set(entry) != set(names):
                raise ProgramError(
                    f"restriction for {c.cid} must bind exactly "
                    f"{{{', '.join(names)}}}, got {{{', '.join(sorted(entry))}}}"
                )
            rows[tuple([Constant(entry[name]) for name in names])] = None
    elif not names:
        rows = [()]
    elif not values:
        raise _no_constants(variables)
    else:
        rows = itertools.product(values, repeat=len(names))
    if not names:
        return [GroundProbClause(c.cid, (), (), c.heads, c.n_explicit, c.body) for _ in rows]
    frame = _Frame(names)
    width, cells = frame.width, frame.cells
    heads = [(frame.template(a), prob) for a, prob in c.heads]
    body = [(lit.positive, frame.template(lit.atom)) for lit in c.body]
    order = [frame.position[v] for v in variables]
    out = []
    for row in rows:
        cells[:width] = row
        out.append(GroundProbClause(
            c.cid,
            tuple(zip(names, [t.name for t in row])),
            tuple([cells[k].name for k in order]),
            tuple([(Atom(pred, read(cells)), prob) for (pred, read), prob in heads]),
            c.n_explicit,
            tuple([Literal(positive, Atom(pred, read(cells))) for positive, (pred, read) in body]),
        ))
    return out


#: How a join reads one argument of a known atom: the argument's position,
#: its frame position, and whether it binds that slot (else it must be the
#: constant already there).
_Op = tuple[int, int, bool]


class _Rule:
    """A derived clause compiled for the join of ``_ground_derived``.

    ``plans`` holds, per positive body atom ``i``, what an atom of its
    predicate triggers: the ops that match that atom into the frame, then,
    for each other positive body atom ``j`` in body order, a step: the index
    of the known atoms to look up (keyed by the arguments that are constants
    or bound by then), the reader of that key from the frame, and the ops
    that match the rest.  ``matched`` holds the positive body atoms as the
    join finds them; ``free`` the slots no positive body atom binds."""

    __slots__ = ("cells", "width", "head", "parts", "free", "matched", "plans", "found")

    def __init__(self, c: Clause, names: list[str], indexes: dict):
        frame = _Frame(names)
        positive = [lit.atom for lit in c.body if lit.positive]
        positions = [frame.args(a) for a in positive]
        self.head = frame.template(c.head)
        #: per body literal, a positive one's place in ``matched`` or a
        #: negative one's template; None when the body is all positive
        self.parts = None
        if len(positive) < len(c.body):
            k = itertools.count()
            self.parts = [next(k) if lit.positive else frame.template(lit.atom) for lit in c.body]
        self.cells, self.width = frame.cells, frame.width
        bound = {k for args in positions for k in args}
        self.free = [k for k in range(self.width) if k not in bound]
        self.matched: list[Atom | None] = [None] * len(positive)
        self.found: dict[tuple[Constant, ...], Clause] = {}
        self.plans = []
        for i, atom in enumerate(positive):
            bound = set()
            ops = self._ops(enumerate(positions[i]), bound)
            steps = [
                self._step(j, positive[j].pred, args, bound, indexes)
                for j, args in enumerate(positions)
                if j != i
            ]
            self.plans.append((atom.pred, i, ops, steps))

    def _ops(self, args, bound: set[int]) -> list[_Op]:
        """The ops for (position, frame position) pairs; a variable's first

        occurrence that is not in ``bound`` binds it, into ``bound``."""
        ops = []
        for p, k in args:
            ops.append((p, k, k < self.width and k not in bound))
            bound.add(k)
        return ops

    def _step(self, j: int, pred, args: tuple[int, ...], bound: set[int], indexes: dict):
        """The step that finds positive body atom ``j``, when ``bound`` holds

        the slots the atoms before it bind."""
        key, read, rest = [], [], []
        for p, k in enumerate(args):
            if k >= self.width or k in bound:
                key.append(p)
                read.append(k)
            else:
                rest.append((p, k))
        by_key = indexes.setdefault(pred, {})
        key = tuple(key)
        if key not in by_key:
            by_key[key] = (itemgetter(*key) if key else None, {})
        return j, by_key[key][1], itemgetter(*read) if read else None, self._ops(rest, bound)


def _ground_derived(
    clauses: tuple[Clause, ...], heads: list[Atom], values: list[Constant]
) -> tuple[Clause, ...]:
    """The instances of ``clauses`` over the pool ``values`` whose positive

    body atoms can all be true, starting from ``heads`` and the facts.

    Semi-naive: each atom that becomes possible triggers the join plans of
    the positive body atoms of its predicate.  A plan matches that atom into
    the clause's frame, then looks up each other positive body atom among
    the atoms known so far, through an index on the arguments bound at that
    point, so a clause instance is found once the last of its body atoms is
    known.  A ground clause is kept once its positive body atoms are all
    possible, a ground fact at once.
    """
    if not clauses:
        return ()
    in_pool = set(values)
    #: predicate -> argument positions -> (their reader, their values -> known atoms)
    indexes: dict[tuple[str, int], dict[tuple[int, ...], tuple]] = {}
    #: per clause: its kept instances by the constants of their θ
    found: list[dict[tuple[Constant, ...], Clause]] = []
    rules: list[_Rule] = []
    #: the heads of the ground clauses kept as they are
    kept_heads: list[Atom] = []
    #: positive body atom -> the ground clauses that wait for it, each as
    #: [its positive body atoms not yet possible, the clause, its kept instances]
    waiting: dict[Atom, list[list]] = {}
    for c in clauses:
        variables = clause_vars(c)
        if variables:
            if not values:
                raise _no_constants(variables)
            rule = _Rule(c, sorted(v.name for v in variables), indexes)
            found.append(rule.found)
            rules.append(rule)
            continue
        found.append({})
        atoms = {lit.atom for lit in c.body if lit.positive}
        if not atoms:
            found[-1][()] = c
            kept_heads.append(c.head)
        entry = [len(atoms), c, found[-1]]
        for atom in atoms:
            waiting.setdefault(atom, []).append(entry)
    #: predicate -> (rule, plan) of each positive body literal
    triggers: dict[tuple[str, int], list] = {}
    for rule in rules:
        for pred, *plan in rule.plans:
            triggers.setdefault(pred, []).append((rule, *plan))
    #: the positive literal of each known atom, for the bodies
    literal: dict[Atom, Literal] = {}
    # Only atoms that some positive body mentions can make a clause fire.
    agenda = [a for a in dict.fromkeys(heads + kept_heads) if a.pred in triggers or a in waiting]
    possible = set(agenda)

    def add(atom: Atom) -> None:
        if atom not in possible and (atom.pred in triggers or atom in waiting):
            possible.add(atom)
            agenda.append(atom)

    def fire(rule: _Rule) -> None:
        """Keep ``rule``'s instances under its filled frame, extended over

        its free slots."""
        cells, free = rule.cells, rule.free
        for combo in itertools.product(values, repeat=len(free)) if free else ((),):
            for k, value in zip(free, combo):
                cells[k] = value
            row = tuple(cells[: rule.width])
            if row in rule.found:
                continue
            pred, read = rule.head
            head = Atom(pred, read(cells))
            if rule.parts is None:
                body = tuple([literal[a] for a in rule.matched])
            else:
                body = tuple([
                    literal[rule.matched[x]] if x.__class__ is int else Literal(False, Atom(x[0], x[1](cells)))
                    for x in rule.parts
                ])
            rule.found[row] = Clause(head, body)
            add(head)

    def join(rule: _Rule, j: int, ops: list[_Op], candidates, steps: list, s: int) -> None:
        """Match each of ``candidates`` as positive body atom ``j`` by ``ops``,

        then ``steps[s:]``, firing ``rule`` for each way to match them all."""
        cells = rule.cells
        for atom in candidates:
            args = atom.args
            for p, k, binds in ops:
                value = args[p]
                if binds:
                    if value not in in_pool:
                        break
                    cells[k] = value
                elif cells[k] is not value:
                    break
            else:
                rule.matched[j] = atom
                if s == len(steps):
                    fire(rule)
                else:
                    j2, by_value, read, ops2 = steps[s]
                    found_atoms = by_value.get(read(cells) if read else None, ())
                    join(rule, j2, ops2, found_atoms, steps, s + 1)

    for rule in rules:
        if not rule.plans:
            fire(rule)
    while agenda:
        atom = agenda.pop()
        for entry in waiting.pop(atom, ()):
            entry[0] -= 1
            if not entry[0]:
                c = entry[2][()] = entry[1]
                add(c.head)
        if atom.pred not in triggers:
            continue
        literal[atom] = Literal(True, atom)
        for get, by_value in indexes.get(atom.pred, {}).values():
            by_value.setdefault(get(atom.args) if get else None, []).append(atom)
        for rule, i, ops, steps in triggers[atom.pred]:
            join(rule, i, ops, (atom,), steps, 0)

    # The full product's order: by clause, then by θ, that is by the names
    # θ maps the clause's variables to, since the pool is sorted.
    return tuple(
        clause
        for kept in found
        for _, clause in sorted(kept.items(), key=lambda item: [v.name for v in item[0]])
    )


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

    for b, h in sorted(neg_edges):  # sorted, so the cycle named is the same every run
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
