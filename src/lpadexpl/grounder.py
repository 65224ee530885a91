"""Grounding, relevance filtering, and stratification.

Grounding instantiates every clause over a constant pool (by default the
constants mentioned in the program), optionally restricted per clause id to an
explicit list of substitutions.  Each probabilistic ground instance is the
unit of random choice downstream: an instance with heads ``h1..hn`` (the
implicit ``none`` included) independently takes exactly one head index.

Stratification is checked at the predicate level: the dependency graph must
not contain a cycle through negation.  The resulting stratum map drives
bottom-up world evaluation.
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
    Literal,
    NONE_PREDICATE,
    ProbClause,
    Program,
    Query,
    Substitution,
    Variable,
    apply_atom,
    apply_query,
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

    def theta(self) -> Substitution:
        return {Variable(v): Constant(c) for v, c in self.key}


class GroundProgram:
    """A fully ground program: probabilistic instances plus derived clauses."""

    def __init__(
        self,
        instances: tuple[GroundProbClause, ...],
        derived: tuple[Clause, ...],
        constants: tuple[str, ...],
        source: Program,
        restriction: dict[str, list[dict[str, str]]] | None = None,
    ):
        self.instances = instances
        self.derived = derived
        self.constants = constants
        self.source = source
        self.restriction = restriction
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
    def prob_head_index(self) -> dict[tuple[str, int], list[tuple[GroundProbClause, int]]]:
        """Explicit heads grouped by predicate: (instance, 1-based index)."""
        index: dict[tuple[str, int], list[tuple[GroundProbClause, int]]] = {}
        for inst in self.instances:
            for i in range(1, inst.n_explicit + 1):
                index.setdefault(inst.head_atom(i).pred, []).append((inst, i))
        return index

    @cached_property
    def derived_index(self) -> dict[tuple[str, int], list[Clause]]:
        index: dict[tuple[str, int], list[Clause]] = {}
        for c in self.derived:
            index.setdefault(c.head.pred, []).append(c)
        return index

    def is_prob_pred(self, pred: tuple[str, int]) -> bool:
        return pred in self.prob_head_index or pred in self.source.prob_predicates()

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
    """Ground every clause of ``p`` over a constant pool.

    ``constants`` defaults to the constants mentioned in the program.
    ``restriction`` maps probabilistic clause ids to the exact substitutions
    to instantiate (each must bind precisely the clause's variables); clauses
    not mentioned ground fully.  Instances are ordered by source clause, then
    lexicographically by θ.
    """
    pool = sorted(constants) if constants is not None else p.constants()
    if restriction:
        known = {c.cid for c in p.prob_clauses}
        for cid in restriction:
            if cid not in known:
                raise ProgramError(f"restriction names unknown clause id {cid!r}")

    instances: list[GroundProbClause] = []
    for c in p.prob_clauses:
        for theta in _substitutions_for(c, pool, restriction):
            key = theta_key(theta)
            var_order = tuple(v.name for v in clause_vars(c))
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

    derived: list[Clause] = []
    for c in p.derived_clauses:
        for theta in _substitutions_for(c, pool, None):
            derived.append(Clause(apply_atom(theta, c.head), apply_query(theta, c.body)))

    return GroundProgram(tuple(instances), tuple(derived), tuple(pool), p, restriction)


def _substitutions_for(
    c: ProbClause | Clause,
    pool: list[str],
    restriction: dict[str, list[dict[str, str]]] | None,
):
    variables = clause_vars(c)
    if restriction is not None and isinstance(c, ProbClause) and c.cid in restriction:
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
        raise ProgramError(
            f"cannot ground clause with variables "
            f"({', '.join(v.name for v in variables)}): no constants"
        )
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
    so inference over the subset builds the same tree.
    """
    relevant: set[Atom] = set()
    for lit in q:
        if is_ground_atom(lit.atom):
            relevant.add(lit.atom)
        else:
            for inst in g.instances:
                for i in range(1, inst.n_explicit + 1):
                    if mgu(lit.atom, inst.head_atom(i)) is not None:
                        relevant.add(inst.head_atom(i))
            for c in g.derived:
                if mgu(lit.atom, c.head) is not None:
                    relevant.add(c.head)

    kept_instances: set[int] = set()
    kept_derived: set[int] = set()
    changed = True
    while changed:
        changed = False
        for idx, inst in enumerate(g.instances):
            if idx in kept_instances:
                continue
            if any(
                inst.head_atom(i) in relevant for i in range(1, inst.n_explicit + 1)
            ):
                kept_instances.add(idx)
                for lit in inst.body:
                    if lit.atom not in relevant:
                        relevant.add(lit.atom)
                changed = True
        for idx, c in enumerate(g.derived):
            if idx in kept_derived:
                continue
            if c.head in relevant:
                kept_derived.add(idx)
                for lit in c.body:
                    if lit.atom not in relevant:
                        relevant.add(lit.atom)
                changed = True

    return GroundProgram(
        tuple(inst for i, inst in enumerate(g.instances) if i in kept_instances),
        tuple(c for i, c in enumerate(g.derived) if i in kept_derived),
        g.constants,
        g.source,
        g.restriction,
    )


# ---------------------------------------------------------------------------
# Stratification
# ---------------------------------------------------------------------------


def stratify(g: GroundProgram) -> dict[tuple[str, int], int]:
    """Assign each predicate a stratum so that clauses only depend positively

    on their own stratum and negatively on strictly lower ones.  Raises
    :class:`StratificationError` (carrying the offending cycle) when the
    predicate dependency graph has a cycle through negation.
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

    for inst in g.instances:
        add_clause([a for a, _ in inst.heads], inst.body)
    for c in g.derived:
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
