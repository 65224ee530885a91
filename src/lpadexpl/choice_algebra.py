"""The algebra of choice expressions.

An *atomic choice* ``(c, θ, i)`` says: the ground instance of probabilistic
clause ``c`` under θ takes its ``i``-th head (1-based; the implicit ``none``
head counts).  A *composite choice* is a consistent set of atomic choices; a
*selection* picks a head for every instance; the worlds of a composite choice
are those of the selections extending it.

Choice expressions close atomic choices under ¬, ∧, ∨ (with ⊥ and ⊤).  The
meaning ``gamma(C)`` is a set of composite choices whose worlds are the
worlds satisfying ``C``; negation goes through ``duals`` (minimal hitting
sets of the complemented composite choices).  Up to world equivalence the
expressions form a Boolean algebra, which is what makes ``dnf``, the one
normaliser, sound.  ``Diagram`` compiles any expression to a canonical
decision diagram: ``equiv`` compares two expressions' nodes,
``semantics.event_prob`` sums one's probability over it, within a bound on
the number of nodes, and ``slpdnf.query_diagram`` and ``build_tree`` build
a query's diagram, the first from one diagram per ground atom.

Everything here is deterministic: ∧/∨ keep their children as canonically
sorted, duplicate-free tuples (so associativity, commutativity, and
idempotence hold structurally), and set-valued results are produced in a
canonical order.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass

from .errors import EnumerationLimitError, LpadError
from .grounder import GroundProgram, ThetaKey
from .syntax import NONE_PREDICATE, _HashConsed, _Parser

#: The default bound on the head assignments one enumeration may visit, and
#: on the nodes a decision diagram of ``semantics.event_prob``,
#: ``success_prob`` or ``explain`` may make.
DEFAULT_ASSIGNMENT_LIMIT = 1_000_000


class ChoiceExpr:
    """Base class for choice expressions; leaves are atomic choices."""

    __slots__ = ()

    def __str__(self) -> str:
        return _render(self, str)


@dataclass(frozen=True, slots=True)
class _Bottom(ChoiceExpr):
    """⊥: no world satisfies it."""


@dataclass(frozen=True, slots=True)
class _Top(ChoiceExpr):
    """⊤: every world satisfies it."""


BOT = _Bottom()
TOP = _Top()


@functools.cache
def _natural(text: str) -> tuple:
    """Sort key treating digit runs numerically, so c2 < c10."""
    return tuple(
        int(part) if part.isdigit() else part
        for part in re.split(r"(\d+)", text)
        if part
    )


class AtomicChoice(ChoiceExpr, _HashConsed):
    """The choice ``(cid, θ, index)``; hash-consed, so equal choices are one

    object.  ``inst`` is its instance's ``(cid, θ)``, made once."""

    __slots__ = ("cid", "key", "index", "inst")
    _fields = ("cid", "key", "index")

    def __new__(cls, cid: str, key: ThetaKey, index: int) -> "AtomicChoice":
        k = (cid, key, index)
        return cls._table.get(k) or cls._intern(k, cid, key, index, (cid, key))

    def sort_key(self) -> tuple:
        return (_natural(self.cid), self.key, self.index)

    def __str__(self) -> str:
        theta = ",".join(f"{v}/{c}" for v, c in self.key)
        return f"({self.cid},{{{theta}}},{self.index})"


@dataclass(frozen=True, slots=True)
class Not(ChoiceExpr):
    child: ChoiceExpr


@dataclass(frozen=True, slots=True)
class And(ChoiceExpr):
    children: tuple[ChoiceExpr, ...]


@dataclass(frozen=True, slots=True)
class Or(ChoiceExpr):
    children: tuple[ChoiceExpr, ...]


#: A composite choice.
CompositeChoice = frozenset[AtomicChoice]


# ---------------------------------------------------------------------------
# Canonical ordering and constructors
# ---------------------------------------------------------------------------

_KIND_RANK = {_Bottom: 0, _Top: 1, AtomicChoice: 2, Not: 3, And: 4, Or: 5}


def expr_key(e: ChoiceExpr) -> tuple:
    """Canonical total order: units, then literals by (clause id, θ, head

    index, sign), then compound nodes by kind and structure."""
    if isinstance(e, AtomicChoice):
        return (1, e.sort_key(), 0, ())
    if isinstance(e, Not) and isinstance(e.child, AtomicChoice):
        return (1, e.child.sort_key(), 1, ())
    if isinstance(e, (_Bottom, _Top)):
        return (0, _KIND_RANK[type(e)], 0, ())
    if isinstance(e, Not):
        return (2, _KIND_RANK[Not], 0, (expr_key(e.child),))
    return (2, _KIND_RANK[type(e)], 0, tuple(expr_key(c) for c in e.children))


def _flatten(cls, unit: ChoiceExpr, children) -> ChoiceExpr:
    """``conj`` (``cls`` And, ``unit`` ⊤) or ``disj`` (Or, ⊥)."""
    flat: list[ChoiceExpr] = []
    for c in children:
        if isinstance(c, cls):
            flat.extend(c.children)
        else:
            flat.append(c)
    unique = sorted(set(flat), key=expr_key)
    if not unique:
        return unit
    if len(unique) == 1:
        return unique[0]
    return cls(tuple(unique))


def conj(children) -> ChoiceExpr:
    """∧ with flattening, canonical order, and structural idempotence."""
    return _flatten(And, TOP, children)


def disj(children) -> ChoiceExpr:
    """∨ with flattening, canonical order, and structural idempotence."""
    return _flatten(Or, BOT, children)


def _subexpressions(e: ChoiceExpr):
    """Every node of the expression, with an explicit stack."""
    stack = [e]
    while stack:
        x = stack.pop()
        yield x
        if isinstance(x, Not):
            stack.append(x.child)
        elif isinstance(x, (And, Or)):
            stack.extend(x.children)


def node_count(e: ChoiceExpr) -> int:
    return sum(1 for _ in _subexpressions(e))


def mentioned_instances(e: ChoiceExpr) -> set[tuple[str, ThetaKey]]:
    """The ground instances whose choices the expression mentions."""
    return {x.inst for x in _subexpressions(e) if isinstance(x, AtomicChoice)}


# ---------------------------------------------------------------------------
# Sets of composite choices: complement, consistency, hits, mins, otimes
# ---------------------------------------------------------------------------


def complement_atomic(ac: AtomicChoice, g: GroundProgram) -> CompositeChoice:
    """All sibling choices of the same instance: {(c,θ,j) | j ≠ i}."""
    inst = g.instance(ac.cid, ac.key)
    if not 1 <= ac.index <= inst.n_heads:
        raise LpadError(
            f"atomic choice index {ac.index} out of range for {ac.cid} "
            f"(instance has {inst.n_heads} heads)"
        )
    return frozenset(
        AtomicChoice(ac.cid, ac.key, j)
        for j in range(1, inst.n_heads + 1)
        if j != ac.index
    )


def is_consistent(kappa) -> bool:
    """No two atomic choices pick different heads of the same instance."""
    return _chosen(kappa) is not None


def hits(sets) -> list[CompositeChoice]:
    """Every way of picking one element from each of the given sets.

    Returns one set per pick tuple, in deterministic order, duplicates
    preserved (picks from overlapping inputs can collapse to the same set).
    ``hits([])`` is ``[∅]``: the empty pick.
    """
    ordered = [sorted(s, key=lambda ac: ac.sort_key()) for s in sets]
    return [frozenset(pick) for pick in itertools.product(*ordered)]


def mins_set(ks) -> frozenset[CompositeChoice]:
    """The consistent, subset-minimal elements of a collection of sets."""
    consistent = sorted({k for k in ks if is_consistent(k)}, key=len)
    minimal: list[CompositeChoice] = []
    for k in consistent:
        if not any(m < k for m in minimal):
            minimal.append(k)
    return frozenset(minimal)


# ---------------------------------------------------------------------------
# The conjoin-and-absorb kernel
# ---------------------------------------------------------------------------

#: The most sets one conjoin step may hold before absorption; past it the
#: step raises EnumerationLimitError instead of exhausting memory.
CONJOIN_LIMIT = 250_000

#: The set of sets denoting ⊤: the empty conjunction alone.
_UNIT = (frozenset(),)


def _chosen(s: frozenset) -> dict[tuple[str, ThetaKey], int] | None:
    """The head each instance's atomic choices in ``s`` pick, or None when

    two of them pick different heads of one instance."""
    chosen: dict[tuple[str, ThetaKey], int] = {}
    for lit in s:
        if isinstance(lit, AtomicChoice) and chosen.setdefault(lit.inst, lit.index) != lit.index:
            return None
    return chosen


def _join(a: frozenset, chosen_a, b: frozenset, chosen_b, guarded) -> frozenset | None:
    """a ∧ b as one literal set, or None when it is inconsistent.

    Literals are atomic choices and their negations; ``chosen_a`` and
    ``chosen_b`` are the ``_chosen`` heads of the two sets.  Two heads of
    one instance, or α with ¬α, are inconsistent; a chosen head α makes ¬α'
    of the same instance redundant, and it is dropped.  Negations occur only
    when ``guarded`` (the negated instances) is non-empty.
    """
    for inst, index in chosen_b.items():
        if chosen_a.get(inst, index) != index:
            return None
    u = a | b
    if not guarded:
        return u
    redundant = []
    for lit in u:
        if isinstance(lit, Not):
            inst = lit.child.inst
            index = chosen_a.get(inst) or chosen_b.get(inst)
            if index == lit.child.index:
                return None
            if index is not None:
                redundant.append(lit)
    return u.difference(redundant) if redundant else u


def _absorb(sets, guarded) -> list[frozenset]:
    """The sets not absorbed by a strictly smaller kept one, shortest first.

    A set k ⊂ s absorbs s only when s∖k holds no chosen head of a
    ``guarded`` instance: such a head would drop a negation from a later
    join of s but not from the same join of k, so k's joins need not stay
    subsets of s's.  Equal-length sets cannot absorb each other, so each set
    is compared with the shorter kept ones only.
    """
    kept: list[frozenset] = []
    for _, group in itertools.groupby(sorted(sets, key=len), key=len):
        kept += [
            s
            for s in group
            if not any(
                k < s
                and not any(
                    isinstance(lit, AtomicChoice) and lit.inst in guarded
                    for lit in s - k
                )
                for k in kept
            )
        ]
    return kept


def _conjoin(acc, factor, op: str, guarded=frozenset()) -> list[frozenset]:
    """One kernel step: join every set of ``acc`` with every set of ``factor``

    (a DNF given as literal sets), drop the inconsistent joins, and absorb.
    Raises EnumerationLimitError once the joins pass ``CONJOIN_LIMIT``.
    """
    joined: set[frozenset] = set()
    factor = [(b, chosen) for b in factor if (chosen := _chosen(b)) is not None]
    for a in acc:
        chosen_a = _chosen(a)
        if chosen_a is None:
            continue
        for b, chosen_b in factor:
            u = _join(a, chosen_a, b, chosen_b, guarded)
            if u is not None:
                joined.add(u)
        if len(joined) > CONJOIN_LIMIT:
            raise EnumerationLimitError(
                f"{op}: {len(joined)} sets in one conjoin step exceed the "
                f"limit {CONJOIN_LIMIT}"
            )
    return _absorb(joined, guarded)


def otimes(k1, k2) -> frozenset[CompositeChoice]:
    """Pairwise unions, reduced to their consistent minimal elements."""
    return frozenset(_conjoin(k1, k2, "otimes"))


def duals(ks, g: GroundProgram) -> frozenset[CompositeChoice]:
    """The minimal composite choices covering exactly the selections *not*

    covered by ``ks``: minimal hitting sets of the elementwise complements,
    built one complement at a time.  An inconsistent set covers no world
    and is skipped.
    """
    result = _UNIT
    for k in ks:
        if not is_consistent(k):
            continue
        complement = {c for ac in k for c in complement_atomic(ac, g)}
        result = _conjoin(result, [frozenset([c]) for c in complement], "duals")
    return frozenset(result)


# ---------------------------------------------------------------------------
# Meaning: gamma
# ---------------------------------------------------------------------------


def gamma(e: ChoiceExpr, g: GroundProgram) -> frozenset[CompositeChoice]:
    """The set of composite choices denoted by an expression."""
    if isinstance(e, _Bottom):
        return frozenset()
    if isinstance(e, _Top):
        return frozenset([frozenset()])
    if isinstance(e, AtomicChoice):
        return frozenset([frozenset([e])])
    if isinstance(e, Not):
        return duals(gamma(e.child, g), g)
    if isinstance(e, And):
        result = frozenset(_UNIT)
        for c in e.children:
            result = otimes(result, gamma(c, g))
        return result
    if isinstance(e, Or):
        return otimes(_UNIT, [k for c in e.children for k in gamma(c, g)])
    raise TypeError(f"not a choice expression: {e!r}")


# ---------------------------------------------------------------------------
# Rewriting: dnf
# ---------------------------------------------------------------------------


def _negated_instances(e: ChoiceExpr, negated: bool) -> frozenset[tuple[str, ThetaKey]]:
    """Instances of the ¬α literals in the NNF of ``e`` (of ¬e when ``negated``)."""
    if isinstance(e, Not):
        return _negated_instances(e.child, not negated)
    if isinstance(e, AtomicChoice):
        return frozenset([e.inst]) if negated else frozenset()
    if isinstance(e, (And, Or)):
        return frozenset().union(*(_negated_instances(c, negated) for c in e.children))
    return frozenset()


def _literal_sets(e: ChoiceExpr, negated: bool, guarded) -> list[frozenset]:
    """The conjuncts of ``e`` (of ¬e when ``negated``) as literal sets,

    absorbed as far as ``_absorb`` allows before the final pass.  ¬ flips
    the polarity on the way down, so no negation-normal copy is built."""
    if isinstance(e, Not):
        return _literal_sets(e.child, not negated, guarded)
    if isinstance(e, AtomicChoice):
        return [frozenset([Not(e) if negated else e])]
    if isinstance(e, (_Bottom, _Top)):
        return list(_UNIT) if isinstance(e, _Top) != negated else []
    if not isinstance(e, (And, Or)):
        raise TypeError(f"not a choice expression: {e!r}")
    if isinstance(e, And) != negated:  # a conjunction under this polarity
        acc = list(_UNIT)
        for c in e.children:
            acc = _conjoin(acc, _literal_sets(c, negated, guarded), "dnf", guarded)
        return acc
    factor = [s for c in e.children for s in _literal_sets(c, negated, guarded)]
    return _conjoin(_UNIT, factor, "dnf", guarded)


def dnf(e: ChoiceExpr) -> ChoiceExpr:
    """Canonical disjunctive normal form: ⊥, ⊤, a literal, a conjunction of

    literals, or a disjunction of such conjunctions, in canonical child
    order.  Idempotent.  One walk pushes negation to the leaves and conjoins
    them with the kernel (consistency pruning, redundant negations dropped,
    absorption after each step), then absorbs once more.
    """
    sets = _absorb(_literal_sets(e, False, _negated_instances(e, False)), frozenset())
    return disj(conj(c) for c in sets)


def conjoin_dnf(e: ChoiceExpr, f: ChoiceExpr) -> ChoiceExpr:
    """``dnf(conj([e, f]))`` of two DNFs in one kernel step: their conjuncts,

    read as literal sets, are joined pairwise under both inputs' negated
    instances, then absorbed once more."""
    e_sets, f_sets = _conjunct_sets(e), _conjunct_sets(f)
    guarded = frozenset(
        lit.child.inst for s in (*e_sets, *f_sets) for lit in s if isinstance(lit, Not)
    )
    sets = _absorb(_conjoin(e_sets, f_sets, "dnf", guarded), frozenset())
    return disj(conj(c) for c in sets)


def _conjunct_sets(e: ChoiceExpr) -> list[frozenset]:
    """The conjuncts of a DNF as literal sets."""
    if isinstance(e, (_Bottom, _Top)):
        return list(_UNIT) if isinstance(e, _Top) else []
    return [
        frozenset(c.children) if isinstance(c, And) else frozenset([c])
        for c in (e.children if isinstance(e, Or) else (e,))
    ]


def _is_literal(x: ChoiceExpr) -> bool:
    """α or ¬α for an atomic choice α."""
    return isinstance(x, AtomicChoice) or isinstance(x, Not) and isinstance(x.child, AtomicChoice)


def is_dnf(e: ChoiceExpr) -> bool:
    def is_conjunct(x: ChoiceExpr) -> bool:
        return _is_literal(x) or (isinstance(x, And) and all(map(_is_literal, x.children)))

    if isinstance(e, (_Bottom, _Top)):
        return True
    if isinstance(e, Or):
        return all(is_conjunct(c) for c in e.children)
    return is_conjunct(e)


# ---------------------------------------------------------------------------
# Evaluation and the decision diagram
# ---------------------------------------------------------------------------


def eval_expr(e: ChoiceExpr, assignment: dict[tuple[str, ThetaKey], int]) -> bool:
    """Truth of an expression under a head assignment for its instances."""
    if isinstance(e, _Bottom):
        return False
    if isinstance(e, _Top):
        return True
    if isinstance(e, AtomicChoice):
        return assignment[e.inst] == e.index
    if isinstance(e, Not):
        return not eval_expr(e.child, assignment)
    if isinstance(e, And):
        return all(eval_expr(c, assignment) for c in e.children)
    if isinstance(e, Or):
        return any(eval_expr(c, assignment) for c in e.children)
    raise TypeError(f"not a choice expression: {e!r}")


#: The terminal nodes of every ``Diagram``: ⊥ and ⊤.
FALSE, TRUE = 0, 1


class Diagram:
    """A reduced ordered multi-valued decision diagram over one ground program

    (Bryant, IEEE TC 1986), as PITA builds for LPADs (Riguzzi & Swift, TPLP
    2011).  Every node other than FALSE and TRUE tests one instance, in
    ``expr_key``'s (clause id, θ) order, and has one child per head.  A
    unique table shares equal nodes, and a node whose children are all one
    child is that child, so world-equivalent expressions compile to one node.  Past ``limit`` nodes
    (by default, never), raises EnumerationLimitError naming ``stage`` and the
    ``--limit``: ``walk`` for ``slpdnf.query_diagram``'s diagram, ``tree`` for
    ``slpdnf.build_tree``'s, and ``event_prob`` for ``semantics.event_prob``'s.
    """

    def __init__(self, g: GroundProgram, limit: float = math.inf, stage: str = "diagram"):
        self.limit, self.stage = limit, stage
        #: The instances in order; a node tests an instance by its rank here.
        self.order = sorted(g.instances, key=lambda inst: (_natural(inst.cid), inst.key))
        self.rank = {(inst.cid, inst.key): r for r, inst in enumerate(self.order)}
        self.nodes: list = [None, None]  # node -> (rank, children)
        self.unique: dict[tuple, int] = {}
        self.memo: dict[tuple[bool, int, int], int] = {}  # (conjoin, a, b), a < b
        self.negations: dict[int, int] = {FALSE: TRUE, TRUE: FALSE}
        self.probs: dict[int, float] = {FALSE: 0.0, TRUE: 1.0}

    def _node(self, rank: int, children: tuple[int, ...]) -> int:
        if children.count(children[0]) == len(children):
            return children[0]
        node = self.unique.setdefault((rank, children), len(self.nodes))
        if node == len(self.nodes):
            if node - 1 > self.limit:
                raise EnumerationLimitError(
                    f"{self.stage}: {node - 1} nodes in the decision diagram exceed "
                    f"the limit {self.limit} (--limit)"
                )
            self.nodes.append((rank, children))
        return node

    def compile(self, e: ChoiceExpr, negated: bool = False) -> int:
        """The node of ``e`` (of ¬e when ``negated``): ¬ flips the polarity on

        the way down, the literals of a conjunction become one ``chain``, and
        ``apply_all`` combines the rest."""
        if isinstance(e, Not):
            return self.compile(e.child, not negated)
        if isinstance(e, (_Bottom, _Top)):
            return int(isinstance(e, _Top) != negated)
        if isinstance(e, AtomicChoice):
            return self.chain([e], negated)
        conjoin = isinstance(e, And) != negated
        literals = [c for c in e.children if conjoin and _is_literal(c)]
        nodes = [self.compile(c, negated) for c in e.children if not (conjoin and _is_literal(c))]
        if literals:
            nodes.append(self.chain(literals, negated))
        return self.apply_all(conjoin, nodes)

    def chain(self, literals, negated: bool) -> int:
        """The conjunction of literals α and ¬α (each negated when ``negated``):

        one chain through the heads each instance's literals allow, or FALSE,
        making no node, once an instance has none left."""
        allowed: dict[int, set[int]] = {}
        for lit in literals:
            ac, positive = (lit.child, negated) if isinstance(lit, Not) else (lit, not negated)
            rank = self.rank[ac.inst]
            heads = allowed.get(rank) or set(range(1, self.order[rank].n_heads + 1))
            allowed[rank] = heads = heads & {ac.index} if positive else heads - {ac.index}
            if not heads:
                return FALSE
        node = TRUE
        for rank in sorted(allowed, reverse=True):
            n, heads = self.order[rank].n_heads, allowed[rank]
            node = self._node(rank, tuple(node if i in heads else FALSE for i in range(1, n + 1)))
        return node

    def apply(self, conjoin: bool, a: int, b: int) -> int:
        """a ∧ b (a ∨ b unless ``conjoin``), memoised, with an explicit stack."""
        unit = int(conjoin)  # TRUE for ∧, FALSE for ∨; the other terminal absorbs

        def known(a: int, b: int) -> int | None:
            if a == b or b == unit:
                return a
            if a == unit:
                return b
            if a < 2 or b < 2:
                return 1 - unit
            return self.memo.get((conjoin, min(a, b), max(a, b)))

        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            if known(x, y) is not None:
                continue
            (rx, kx), (ry, ky) = self.nodes[x], self.nodes[y]
            rank = min(rx, ry)
            kx, ky = (kx if rx == rank else [x] * len(ky)), (ky if ry == rank else [y] * len(kx))
            children = [known(*pair) for pair in zip(kx, ky)]
            if None in children:
                stack += [(x, y)] + [pair for pair, c in zip(zip(kx, ky), children) if c is None]
            else:
                self.memo[(conjoin, min(x, y), max(x, y))] = self._node(rank, tuple(children))
        return known(a, b)

    def apply_all(self, conjoin: bool, nodes: list[int]) -> int:
        """The ∧ (∨ unless ``conjoin``) of ``nodes``, pairwise in a balanced tree."""
        while len(nodes) > 1:
            odd = nodes[len(nodes) // 2 * 2 :]
            nodes = [self.apply(conjoin, a, b) for a, b in zip(nodes[::2], nodes[1::2])] + odd
        return nodes[0] if nodes else int(conjoin)

    def negate(self, root: int) -> int:
        """¬root: the same diagram with its terminals swapped, memoised both

        ways, with an explicit stack."""
        memo = self.negations
        stack = [root]
        while stack:
            node = stack.pop()
            if node in memo:
                continue
            rank, children = self.nodes[node]
            if all(c in memo for c in children):
                memo[node] = negated = self._node(rank, tuple(memo[c] for c in children))
                memo[negated] = node
            else:
                stack += [node, *children]
        return memo[root]

    def prob(self, root: int) -> float:
        """The mass of a node's worlds: ``fsum(p_i · P(child_i))`` over its

        instance's heads, memoised for the diagram's lifetime, with an
        explicit stack; FALSE is exactly 0.0 and TRUE exactly 1.0."""
        memo = self.probs
        stack = [root]
        while stack:
            node = stack.pop()
            if node in memo:
                continue
            rank, children = self.nodes[node]
            if all(c in memo for c in children):
                probs = self.order[rank].probs
                memo[node] = math.fsum(p * memo[c] for p, c in zip(probs, children))
            else:
                stack += [node, *children]
        return memo[root]


def equiv(c1: ChoiceExpr, c2: ChoiceExpr, g: GroundProgram) -> bool:
    """World equivalence: both expressions compile to one diagram node."""
    diagram = Diagram(g)
    return diagram.compile(c1) == diagram.compile(c2)


# ---------------------------------------------------------------------------
# External text form
# ---------------------------------------------------------------------------


def render_atomic(ac: AtomicChoice, g: GroundProgram) -> str:
    inst = g.instance(ac.cid, ac.key)
    return f"({ac.cid},{inst.values_str()},{ac.index})"


def render_expr(e: ChoiceExpr, g: GroundProgram) -> str:
    """Debug syntax: ``(c2,[p1,p2],1) & ~(c3,[p1],1) | top`` (& binds

    tighter than |; ~ tightest)."""
    return _render(e, lambda ac: render_atomic(ac, g))


def _render(e: ChoiceExpr, atomic) -> str:
    """``render_expr``'s syntax, with ``atomic`` writing each atomic choice."""
    if isinstance(e, _Bottom):
        return "bot"
    if isinstance(e, _Top):
        return "top"
    if isinstance(e, AtomicChoice):
        return atomic(e)
    if isinstance(e, Not):
        inner = _render(e.child, atomic)
        return f"~({inner})" if isinstance(e.child, (And, Or)) else f"~{inner}"
    if isinstance(e, And):
        return " & ".join(
            f"({_render(c, atomic)})" if isinstance(c, Or) else _render(c, atomic)
            for c in e.children
        )
    if isinstance(e, Or):
        return " | ".join(_render(c, atomic) for c in e.children)
    raise TypeError(f"not a choice expression: {e!r}")


def render_composite(k: CompositeChoice, g: GroundProgram) -> str:
    acs = sorted(k, key=lambda ac: ac.sort_key())
    return "{" + ",".join(render_atomic(ac, g) for ac in acs) + "}"


def render_composite_set(ks, g: GroundProgram) -> str:
    """``render_composite`` of each set, the sets ordered by their sorted

    atomic choices' sort keys.  The distinct atomic choices are ranked by
    sort key and rendered once; the sets are then sorted as rank lists."""
    ks = list(ks)
    distinct = sorted({ac for k in ks for ac in k}, key=AtomicChoice.sort_key)
    rank = {ac: r for r, ac in enumerate(distinct)}
    texts = [render_atomic(ac, g) for ac in distinct]
    rows = sorted(sorted(map(rank.__getitem__, k)) for k in ks)
    return "{" + ",".join("{" + ",".join([texts[r] for r in row]) + "}" for row in rows) + "}"


#: The most ``~`` and ``(`` a choice expression may nest.
MAX_EXPR_DEPTH = 256


class _ExprParser(_Parser):
    """Parses the debug syntax for expressions and composite-choice sets

    from the program tokenizer's tokens."""

    def __init__(self, text: str, g: GroundProgram):
        super().__init__(text)
        self.g = g

    def atomic(self) -> AtomicChoice:
        """``( cid , [values] , index )``."""
        self.expect("(")
        cid = self.expect("ident").text
        self.expect(",")
        vals = tuple(v for v in self.expect("bracket").text[1:-1].split(",") if v)
        self.expect(",")
        if self.cur.kind != "number" or not self.cur.text.isdigit():
            self.fail(f"expected a head index, found {self.cur.text or 'end of input'!r}")
        inst = self.g.instance_by_values(cid, vals)
        idx = int(self.cur.text)
        if not 1 <= idx <= inst.n_heads:
            self.fail(
                f"head index {idx} out of range for {inst.cid} "
                f"(instance has {inst.n_heads} heads)"
            )
        self.advance()
        self.expect(")")
        return AtomicChoice(inst.cid, inst.key, idx)

    # expression grammar: disjunction of conjunctions of unary-negated atoms;
    # ``depth`` counts the ``~`` and grouping ``(`` around the current point
    def parse_expr(self, depth: int = 0) -> ChoiceExpr:
        parts = [self.parse_conj(depth)]
        while self.cur.kind == "|":
            self.advance()
            parts.append(self.parse_conj(depth))
        return disj(parts) if len(parts) > 1 else parts[0]

    def parse_conj(self, depth: int) -> ChoiceExpr:
        parts = [self.parse_unary(depth)]
        while self.cur.kind == "&":
            self.advance()
            parts.append(self.parse_unary(depth))
        return conj(parts) if len(parts) > 1 else parts[0]

    def parse_unary(self, depth: int) -> ChoiceExpr:
        tok, ahead = self.cur, self.tokens[self.i + 1 : self.i + 3]
        if tok.kind == "(" and [t.kind for t in ahead] == ["ident", ","]:
            return self.atomic()
        if tok.kind in ("~", "("):
            if depth == MAX_EXPR_DEPTH:
                self.fail(f"choice expression nests deeper than the limit {MAX_EXPR_DEPTH}")
            self.advance()
            if tok.kind == "~":
                return Not(self.parse_unary(depth + 1))
            inner = self.parse_expr(depth + 1)
            self.expect(")")
            return inner
        if tok.kind == "ident" and tok.text in ("top", "bot"):
            self.advance()
            return TOP if tok.text == "top" else BOT
        self.fail(f"expected a choice expression, found {tok.text or 'end of input'!r}")

    def parse_composite_set(self) -> frozenset[CompositeChoice]:
        return frozenset(self.braced(self.parse_composite))

    def parse_composite(self) -> CompositeChoice:
        return frozenset(self.braced(self.atomic))

    def braced(self, item) -> list:
        """``{}`` or ``{ item , ... , item }``."""
        self.expect("{")
        out = [] if self.cur.kind == "}" else [item()]
        while self.cur.kind == ",":
            self.advance()
            out.append(item())
        self.expect("}")
        return out

    def parse_all(self, parse, what: str):
        result = parse()
        if self.cur.kind != "eof":
            self.fail(f"trailing text in {what}: {self.cur.text!r}")
        return result


def parse_expr_text(text: str, g: GroundProgram) -> ChoiceExpr:
    p = _ExprParser(text, g)
    return p.parse_all(p.parse_expr, "choice expression")


def parse_composite_set_text(text: str, g: GroundProgram) -> frozenset[CompositeChoice]:
    p = _ExprParser(text, g)
    return p.parse_all(p.parse_composite_set, "composite-choice set")


def head_label(ac: AtomicChoice, g: GroundProgram) -> str:
    """The chosen head as text; the implicit empty head renders as 'none'."""
    atom = g.instance(ac.cid, ac.key).head_atom(ac.index)
    return NONE_PREDICATE if atom.predicate == NONE_PREDICATE else str(atom)
