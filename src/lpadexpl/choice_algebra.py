"""The algebra of choice expressions.

An *atomic choice* ``(c, θ, i)`` says: the ground instance of probabilistic
clause ``c`` under θ takes its ``i``-th head (1-based; the implicit ``none``
head counts).  A *composite choice* is a consistent set of atomic choices; a
*selection* picks a head for every instance; the worlds of a composite choice
are those of the selections extending it.

Choice expressions close atomic choices under ¬, ∧, ∨; ⊤ and ⊥ are the
empty ∧ and the empty ∨, so every walk treats them as its ∧ and ∨.  The
meaning ``gamma(C)`` is a set of composite choices whose worlds are the
worlds satisfying ``C``; negation goes through ``duals`` (minimal hitting
sets of the complemented composite choices).  Up to world equivalence the
expressions form a Boolean algebra, which is what makes ``dnf``, the one
normaliser, sound.  ``Diagram`` compiles any expression to a canonical
decision diagram: ``equiv`` compares two expressions' nodes,
``semantics.event_prob`` sums one's probability over it, within a bound on
the number of nodes, and ``slpdnf.query_diagram`` and ``build_tree`` build
a query's diagram, the first from one diagram per ground atom.

``dnf``, ``conjoin_dnf``, ``duals``, ``otimes`` and ``gamma`` share one
conjoin-and-absorb kernel over sets of literals held as Python ints: each
call builds one literal table (``_Literals``) that gives every literal α or
¬α it meets a bit, and a join or an absorption test is a few integer
operations.  ``dual_sets`` and ``render_composite_set`` read the masks
directly, so the ``duals`` subcommand builds no frozenset per set.

Everything here is deterministic: ∧/∨ keep their children as canonically
sorted, duplicate-free tuples (so associativity, commutativity, and
idempotence hold structurally), and set-valued results are produced in a
canonical order.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from collections.abc import Iterator
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

    object.  ``inst`` is its instance's ``(cid, θ)`` and ``order`` its sort
    key, both made once."""

    __slots__ = ("cid", "key", "index", "inst", "order")
    _fields = ("cid", "key", "index")

    def __new__(cls, cid: str, key: ThetaKey, index: int) -> "AtomicChoice":
        k = (cid, key, index)
        return cls._table.get(k) or cls._intern(
            k, cid, key, index, (cid, key), (_natural(cid), key, index)
        )

    def sort_key(self) -> tuple:
        return self.order

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


#: ⊤, which every world satisfies, and ⊥, which none does.
TOP, BOT = And(()), Or(())


#: A composite choice.
CompositeChoice = frozenset[AtomicChoice]


# ---------------------------------------------------------------------------
# Canonical ordering and constructors
# ---------------------------------------------------------------------------

_KIND_RANK = {Not: 3, And: 4, Or: 5}


def expr_key(e: ChoiceExpr) -> tuple:
    """Canonical total order: literals by (clause id, θ, head index, sign),

    then compound nodes, ⊤ and ⊥ among them, by kind and structure."""
    if isinstance(e, AtomicChoice):
        return (1, e.sort_key(), 0, ())
    if isinstance(e, Not) and isinstance(e.child, AtomicChoice):
        return (1, e.child.sort_key(), 1, ())
    if isinstance(e, Not):
        return (2, _KIND_RANK[Not], 0, (expr_key(e.child),))
    return (2, _KIND_RANK[type(e)], 0, tuple(expr_key(c) for c in e.children))


def _flatten(cls, children) -> ChoiceExpr:
    """``conj`` (``cls`` And) or ``disj`` (Or); none left is ⊤ or ⊥."""
    flat: list[ChoiceExpr] = []
    for c in children:
        if isinstance(c, cls):
            flat.extend(c.children)
        else:
            flat.append(c)
    unique = sorted(set(flat), key=expr_key)
    if len(unique) == 1:
        return unique[0]
    return cls(tuple(unique))


def conj(children) -> ChoiceExpr:
    """∧ with flattening, canonical order, and structural idempotence."""
    return _flatten(And, children)


def disj(children) -> ChoiceExpr:
    """∨ with flattening, canonical order, and structural idempotence."""
    return _flatten(Or, children)


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


def _leaves(e: ChoiceExpr) -> list[tuple[AtomicChoice, int]]:
    """Each atomic choice of the expression with the number of ¬ above it."""
    leaves, stack = [], [(e, 0)]
    while stack:
        x, nots = stack.pop()
        if isinstance(x, AtomicChoice):
            leaves.append((x, nots))
        elif isinstance(x, Not):
            stack.append((x.child, nots + 1))
        elif isinstance(x, (And, Or)):
            stack += [(c, nots) for c in x.children]
    return leaves


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
    return len(set(kappa)) == len({ac.inst for ac in kappa})


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
# The conjoin-and-absorb kernel, over integer bitsets
# ---------------------------------------------------------------------------

#: The most sets one conjoin step may hold before absorption; past it the
#: step raises EnumerationLimitError instead of exhausting memory.
CONJOIN_LIMIT = 250_000

_ORDER = operator.attrgetter("order")


def _literal_order(lit: ChoiceExpr) -> tuple:
    """α and ¬α in ``expr_key``'s order: by sort key, α first."""
    return (lit.child.order, 1) if lit.__class__ is Not else (lit.order, 0)


class _Literals:
    """The literal table of one kernel call: one bit per literal α or ¬α.

    Ranked by (sort key, sign), ``expr_key``'s order, the first literal
    takes the highest bit, so a set is an int whose bits read from the top
    list its literals in order, and bits below the last rank stay unused up
    to a whole byte.  ``pos[α]`` and ``neg[α]`` give α's and ¬α's
    ``(bit, conflict, drop)``: ``conflict`` holds the literals that cannot
    join it (α's instance's other heads and ¬α for α, α for ¬α) and
    ``drop`` the negations α makes redundant (¬α' for the other heads α' of
    its instance).  ``guarded`` holds the heads of every instance with a
    negation in the table.
    """

    __slots__ = ("literals", "width", "pos", "neg", "guarded")

    def __init__(self, positive, negative=()):
        negative = set(negative)
        self.literals = literals = sorted(set(positive), key=_ORDER)
        if negative:
            literals += map(Not, negative)
            literals.sort(key=_literal_order)
        self.width = width = (len(literals) + 7) // 8 * 8
        pos, neg, heads, nots = {}, {}, {}, {}  # α's and ¬α's bits; by instance
        for r, lit in enumerate(literals):
            bit = 1 << width - 1 - r
            if lit.__class__ is Not:
                neg[lit.child] = bit
                nots[lit.child.inst] = nots.get(lit.child.inst, 0) | bit
            else:
                pos[lit] = bit
                heads[lit.inst] = heads.get(lit.inst, 0) | bit
        if nots:
            self.pos = {
                ac: (b, heads[ac.inst] ^ b | neg.get(ac, 0), nots.get(ac.inst, 0) & ~neg.get(ac, 0))
                for ac, b in pos.items()
            }
        else:
            self.pos = {ac: (b, heads[ac.inst] ^ b, 0) for ac, b in pos.items()}
        self.neg = {ac: (b, pos.get(ac, 0), 0) for ac, b in neg.items()}
        self.guarded = 0
        for inst in nots:
            self.guarded |= heads.get(inst, 0)

    @classmethod
    def of(cls, sets) -> "_Literals":
        """The table of the literals in ``sets``."""
        literals = {lit for s in sets for lit in s}
        return cls(
            (lit for lit in literals if isinstance(lit, AtomicChoice)),
            (lit.child for lit in literals if isinstance(lit, Not)),
        )

    def family(self, sets) -> dict[int, tuple[int, int]]:
        """The consistent ones of ``sets`` (of literals) as
        ``{mask: (conflict, drop)}``: the kernel's form of a set of sets."""
        out = {}
        for s in sets:
            mask = conflict = drop = 0
            for lit in s:
                b, c, d = self.neg[lit.child] if lit.__class__ is Not else self.pos[lit]
                mask, conflict, drop = mask | b, conflict | c, drop | d
            if not mask & conflict:
                out[mask] = (conflict, drop)
        return out

    def members(self, mask: int) -> tuple[ChoiceExpr, ...]:
        """The literals of a mask, in rank order."""
        out = []
        while mask:
            top = mask.bit_length() - 1
            out.append(self.literals[self.width - 1 - top])
            mask ^= 1 << top
        return tuple(out)

    def order_key(self, mask: int) -> tuple[int, int]:
        """A key that sorts masks as their rank lists sort, lexicographically.

        The first rank where two lists differ is the highest differing bit.
        The list holding it comes first unless the other list ends before
        it, so the key compares the *holes* of each list (the ranks up to
        its last one that it lacks), and, when they tie, the length: the
        one list is then the other one's prefix."""
        if not mask:
            return (0, 0)
        return (((1 << self.width) - (mask & -mask)) ^ mask, mask.bit_count())

    def dnf(self, family) -> ChoiceExpr:
        """The canonical DNF of an absorbed family: literal conjuncts first,
        then conjunctions, each group by its literals' ranks, as ``disj``
        of ``conj`` orders them.  No set is ⊥, Or(()), and the empty set
        alone is ⊤, And(())."""
        masks = sorted(family, key=lambda m: (m.bit_count() > 1, self.order_key(m)))
        terms = [And(c) if len(c := self.members(m)) != 1 else c[0] for m in masks]
        return terms[0] if len(terms) == 1 else Or(tuple(terms))


#: The family denoting ⊤: the empty conjunction alone.
_UNIT: dict[int, tuple[int, int]] = {0: (0, 0)}


def _absorb(family, guarded: int) -> dict[int, tuple[int, int]]:
    """The sets not absorbed by a strictly smaller kept one.

    A set k ⊂ s absorbs s only when s∖k holds no ``guarded`` head: such a
    head would drop a negation from a later join of s but not from the same
    join of k, so k's joins need not stay subsets of s's.  Equal-length sets
    cannot absorb each other, so each set is compared with the shorter kept
    ones only.
    """
    if len(family) < 2 or len(set(map(int.bit_count, family))) < 2:
        return family
    kept: list[int] = []
    for _, group in itertools.groupby(sorted(family, key=int.bit_count), key=int.bit_count):
        kept += [
            s for s in group if not any(k & s == k and not s & ~k & guarded for k in kept)
        ]
    return {s: family[s] for s in kept}


def _conjoin(acc, factor, op: str, guarded: int = 0) -> dict[int, tuple[int, int]]:
    """One kernel step: join every set of ``acc`` with every set of ``factor``

    and absorb.  A join skips b when b meets a's conflicts; otherwise it is
    a ∪ b without the negations either side's heads make redundant.  Raises
    EnumerationLimitError once the joins pass ``CONJOIN_LIMIT``.
    """
    joined: dict[int, tuple[int, int]] = {}
    factor = factor.items()
    for a, (conflict_a, drop_a) in acc.items():
        for b, (conflict_b, drop_b) in factor:
            if not b & conflict_a:
                drop = drop_a | drop_b
                joined[(a | b) & ~drop] = (conflict_a | conflict_b, drop)
        if len(joined) > CONJOIN_LIMIT:
            raise EnumerationLimitError(
                f"{op}: {len(joined)} sets in one conjoin step exceed the "
                f"limit {CONJOIN_LIMIT}"
            )
    return _absorb(joined, guarded)


def otimes(k1, k2) -> frozenset[CompositeChoice]:
    """Pairwise unions, reduced to their consistent minimal elements."""
    k1, k2 = list(k1), list(k2)
    table = _Literals.of(k1 + k2)
    return frozenset(ChoiceSets(table, _conjoin(table.family(k1), table.family(k2), "otimes")))


def _duals(family, table: _Literals) -> dict[int, tuple[int, int]]:
    """The duals of a family whose instances have every head in ``table``:

    a set's conflicts are then the complements of its atomic choices, and
    each is conjoined in as a factor of singletons (the first is the
    result so far: joining ⊤ with it would give it back)."""
    singletons = {b: (conflict, drop) for b, conflict, drop in table.pos.values()}
    result = None
    for complement, _ in family.values():
        factor = {}
        while complement:
            b = complement & -complement
            factor[b] = singletons[b]
            complement ^= b
        result = factor if result is None else _conjoin(result, factor, "duals")
    return _UNIT if result is None else result


class ChoiceSets:
    """A set of composite choices as the kernel holds it: masks over one

    literal table.  It iterates as frozensets; ``render_composite_set``
    reads the masks without building them."""

    __slots__ = ("table", "masks")

    def __init__(self, table: _Literals, masks):
        self.table, self.masks = table, list(masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self):
        return (frozenset(self.table.members(m)) for m in self.masks)


def dual_sets(ks, g: GroundProgram) -> ChoiceSets:
    """``duals`` as masks: one table holds ``ks``' atomic choices and their

    complements, and ``family`` skips an inconsistent set, which covers no
    world."""
    ks = list(ks)
    choices = {ac for k in ks for ac in k}
    table = _Literals(choices.union(*(complement_atomic(ac, g) for ac in choices)))
    return ChoiceSets(table, _duals(table.family(ks), table))


def duals(ks, g: GroundProgram) -> frozenset[CompositeChoice]:
    """The minimal composite choices covering exactly the selections *not*

    covered by ``ks``: minimal hitting sets of the elementwise complements,
    built one complement at a time.  An inconsistent set covers no world
    and is skipped.
    """
    return frozenset(dual_sets(ks, g))


# ---------------------------------------------------------------------------
# Meaning: gamma
# ---------------------------------------------------------------------------


def gamma(e: ChoiceExpr, g: GroundProgram) -> frozenset[CompositeChoice]:
    """The set of composite choices denoted by an expression, from one

    table of its atomic choices and, under a negation, their complements."""
    choices = set()
    for ac, nots in _leaves(e):
        choices.add(ac)
        if nots:
            choices |= complement_atomic(ac, g)
    table = _Literals(choices)
    return frozenset(frozenset(table.members(m)) for m in _gamma(e, table))


def _gamma(e: ChoiceExpr, table: _Literals) -> dict[int, tuple[int, int]]:
    if isinstance(e, AtomicChoice):
        b, conflict, drop = table.pos[e]
        return {b: (conflict, drop)}
    if isinstance(e, Not):
        return _duals(_gamma(e.child, table), table)
    if isinstance(e, And):  # the first child's family starts the product
        result = None
        for c in e.children:
            family = _gamma(c, table)
            result = family if result is None else _conjoin(result, family, "otimes")
        return _UNIT if result is None else result
    if isinstance(e, Or):
        factor = {}
        for c in e.children:
            factor.update(_gamma(c, table))
        return _conjoin(_UNIT, factor, "otimes")
    raise TypeError(f"not a choice expression: {e!r}")


# ---------------------------------------------------------------------------
# Rewriting: dnf
# ---------------------------------------------------------------------------


def _literal_sets(e: ChoiceExpr, negated: bool, table: _Literals) -> dict[int, tuple[int, int]]:
    """The conjuncts of ``e`` (of ¬e when ``negated``) as a family, absorbed

    as far as ``_absorb`` allows before the final pass.  ¬ flips the
    polarity on the way down, so no negation-normal copy is built."""
    if isinstance(e, Not):
        return _literal_sets(e.child, not negated, table)
    if isinstance(e, AtomicChoice):
        b, conflict, drop = (table.neg if negated else table.pos)[e]
        return {b: (conflict, drop)}
    if not isinstance(e, (And, Or)):
        raise TypeError(f"not a choice expression: {e!r}")
    if isinstance(e, And) != negated:  # a conjunction under this polarity
        acc = _UNIT
        for c in e.children:
            acc = _conjoin(acc, _literal_sets(c, negated, table), "dnf", table.guarded)
        return acc
    factor = {}
    for c in e.children:
        factor.update(_literal_sets(c, negated, table))
    return _conjoin(_UNIT, factor, "dnf", table.guarded)


def dnf(e: ChoiceExpr) -> ChoiceExpr:
    """Canonical disjunctive normal form: ⊥, ⊤, a literal, a conjunction of

    literals, or a disjunction of such conjunctions, in canonical child
    order.  Idempotent.  One walk pushes negation to the leaves and conjoins
    them with the kernel (consistency pruning, redundant negations dropped,
    absorption after each step), then absorbs once more.
    """
    leaves = _leaves(e)  # α under an odd number of ¬ is ¬α in the NNF
    table = _Literals([ac for ac, nots in leaves if not nots % 2], [ac for ac, nots in leaves if nots % 2])
    return table.dnf(_absorb(_literal_sets(e, False, table), 0))


def conjoin_dnf(e: ChoiceExpr, f: ChoiceExpr) -> ChoiceExpr:
    """``dnf(conj([e, f]))`` of two DNFs in one kernel step: their conjuncts,

    read as sets over one table of their literals, are joined pairwise, then
    absorbed once more."""
    e_sets, f_sets = conjuncts(e), conjuncts(f)
    table = _Literals.of(e_sets + f_sets)
    joined = _conjoin(table.family(e_sets), table.family(f_sets), "dnf", table.guarded)
    return table.dnf(_absorb(joined, 0))


def conjuncts(e: ChoiceExpr) -> list[tuple[ChoiceExpr, ...]]:
    """The conjuncts of a DNF as tuples of literals: ⊤'s is the empty one,

    and ⊥ has none."""
    return [
        c.children if isinstance(c, And) else (c,)
        for c in (e.children if isinstance(e, Or) else (e,))
    ]


def _is_literal(x: ChoiceExpr) -> bool:
    """α or ¬α for an atomic choice α."""
    return isinstance(x, AtomicChoice) or isinstance(x, Not) and isinstance(x.child, AtomicChoice)


# ---------------------------------------------------------------------------
# The decision diagram
# ---------------------------------------------------------------------------


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
    """``render_expr``'s syntax, with ``atomic`` writing each atomic choice;

    ⊤ and ⊥, the empty ∧ and ∨, are ``top`` and ``bot``, never bracketed."""
    if isinstance(e, AtomicChoice):
        return atomic(e)
    if isinstance(e, (And, Or)) and not e.children:
        return "top" if isinstance(e, And) else "bot"
    if isinstance(e, Not):
        inner = _render(e.child, atomic)
        bracket = isinstance(e.child, (And, Or)) and e.child.children
        return f"~({inner})" if bracket else f"~{inner}"
    if isinstance(e, And):
        return " & ".join(
            f"({_render(c, atomic)})" if isinstance(c, Or) and c.children else _render(c, atomic)
            for c in e.children
        )
    if isinstance(e, Or):
        return " | ".join(_render(c, atomic) for c in e.children)
    raise TypeError(f"not a choice expression: {e!r}")


def render_composite(k: CompositeChoice, g: GroundProgram) -> str:
    acs = sorted(k, key=lambda ac: ac.sort_key())
    return "{" + ",".join(render_atomic(ac, g) for ac in acs) + "}"


def render_composite_set(ks, g: GroundProgram) -> str:
    """The text of ``composite_set_chunks``, joined."""
    return "".join(composite_set_chunks(ks, g))


def composite_set_chunks(ks, g: GroundProgram) -> Iterator[str]:
    """``render_composite`` of each set, the sets ordered by their sorted

    atomic choices' sort keys, in pieces of at most 4,096 sets, so
    that a caller can write the text without holding all of it.  The sets
    are read as masks over one literal table (``ChoiceSets`` already are),
    sorted by ``order_key``, and each is written from its bytes, top first:
    a byte's atomic choices are rendered once, as one text fragment per byte
    value met at that position."""
    if not isinstance(ks, ChoiceSets):
        ks = list(ks)
        table = _Literals({ac for k in ks for ac in k})
        ks = ChoiceSets(table, [sum(table.pos[ac][0] for ac in k) for k in ks])
    if not ks.masks:
        yield "{}"
        return
    table = ks.table
    present = functools.reduce(operator.or_, ks.masks)
    texts = [
        "," + render_atomic(ac, g) if present >> table.width - 1 - r & 1 else ""
        for r, ac in enumerate(table.literals)
    ]
    fragments = [_Fragments(texts[j : j + 8]) for j in range(0, table.width, 8)]
    nbytes, fragment = len(fragments), dict.__getitem__
    rows = (
        "".join(map(fragment, fragments, m.to_bytes(nbytes, "big")))[1:]
        for m in sorted(ks.masks, key=table.order_key)
    )
    opening = "{{"
    while chunk := list(itertools.islice(rows, 4096)):
        yield opening + "},{".join(chunk)
        opening = "},{"
    yield "}}"


#: The positions of each byte value's set bits, top bit first.
_BYTE_BITS = [tuple(i for i in range(8) if byte & 128 >> i) for byte in range(256)]


class _Fragments(dict):
    """The text of each byte value at one byte position: the texts, each

    with a comma before it, of the atomic choices its set bits stand for."""

    __slots__ = ("texts",)

    def __init__(self, texts: list[str]):
        self.texts = texts

    def __missing__(self, byte: int) -> str:
        text = self[byte] = "".join([self.texts[i] for i in _BYTE_BITS[byte]])
        return text


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
        cid = self.expect("ident")
        self.expect(",")
        vals = tuple(v for v in self.expect("bracket")[1:-1].split(",") if v)
        self.expect(",")
        text = self.texts[self.i]
        if self.kinds[self.i] != "number" or not text.isdigit():
            self.fail(f"expected a head index, found {text or 'end of input'!r}")
        inst = self.g.instance_by_values(cid, vals)
        idx = int(text)
        if not 1 <= idx <= inst.n_heads:
            self.fail(
                f"head index {idx} out of range for {inst.cid} "
                f"(instance has {inst.n_heads} heads)"
            )
        self.i += 1
        self.expect(")")
        return AtomicChoice(inst.cid, inst.key, idx)

    # expression grammar: disjunction of conjunctions of unary-negated atoms;
    # ``depth`` counts the ``~`` and grouping ``(`` around the current point
    def parse_expr(self, depth: int = 0) -> ChoiceExpr:
        parts = [self.parse_conj(depth)]
        while self.kinds[self.i] == "|":
            self.i += 1
            parts.append(self.parse_conj(depth))
        return disj(parts) if len(parts) > 1 else parts[0]

    def parse_conj(self, depth: int) -> ChoiceExpr:
        parts = [self.parse_unary(depth)]
        while self.kinds[self.i] == "&":
            self.i += 1
            parts.append(self.parse_unary(depth))
        return conj(parts) if len(parts) > 1 else parts[0]

    def parse_unary(self, depth: int) -> ChoiceExpr:
        i, kind, text = self.i, self.kinds[self.i], self.texts[self.i]
        if kind == "(" and self.kinds[i + 1 : i + 3] == ["ident", ","]:
            return self.atomic()
        if kind in ("~", "("):
            if depth == MAX_EXPR_DEPTH:
                self.fail(f"choice expression nests deeper than the limit {MAX_EXPR_DEPTH}")
            self.i += 1
            if kind == "~":
                return Not(self.parse_unary(depth + 1))
            inner = self.parse_expr(depth + 1)
            self.expect(")")
            return inner
        if kind == "ident" and text in ("top", "bot"):
            self.i += 1
            return TOP if text == "top" else BOT
        self.fail(f"expected a choice expression, found {text or 'end of input'!r}")

    def parse_composite_set(self) -> frozenset[CompositeChoice]:
        return frozenset(self.braced(self.parse_composite))

    def parse_composite(self) -> CompositeChoice:
        return frozenset(self.braced(self.atomic))

    def braced(self, item) -> list:
        """``{}`` or ``{ item , ... , item }``."""
        self.expect("{")
        out = [] if self.kinds[self.i] == "}" else [item()]
        while self.kinds[self.i] == ",":
            self.i += 1
            out.append(item())
        self.expect("}")
        return out

    def parse_all(self, parse, what: str):
        result = parse()
        if self.kinds[self.i] != "eof":
            self.fail(f"trailing text in {what}: {self.texts[self.i]!r}")
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
