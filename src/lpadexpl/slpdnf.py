"""The resolution engine: SLDNF-style trees whose branches carry choice

expressions.

A tree node pairs a goal (query) with the node, in the tree's one decision
diagram, of the worlds in which the branch applies; the root carries TRUE.
The leftmost literal is always selected:

* a positive atom resolves against each of its ``resolvents`` that it
  unifies with: a derived clause leaves the node unchanged, and an explicit
  head of a ground instance conjoins its atomic choice onto it, the child
  being pruned when that is FALSE;
* a ground *negative* literal ¬a spawns (or reuses) a subsidiary tree for a,
  built to completion; the node of the single child conjoins the negation of
  the subsidiary tree's ``success``, the ∨ of its success leaves' nodes.
  When that conjunction is FALSE the node fails.  Selecting a non-ground
  negative literal raises ProgramError (floundering).

An empty goal is a success leaf; a selected positive literal with no
resolution step is a failed leaf, and so is a goal that contains, as a
multiset, the goal of an ancestor that selected the same literal (the loop
check), which makes every tree finite.  The tree records each
root-to-success-leaf branch as it is built; ``success_expressions`` folds,
when asked, what each branch's edges conjoined into its leaf's expression, a
DNF.  Those expressions are exactly the explanations of the query: a world
satisfies the query iff it extends a composite choice in ``expl``.

``query_diagram`` follows the same selection rule without building the tree:
it tables one decision diagram per ground atom, filled one strongly connected
component of atoms at a time, and returns the node of the disjunction of the
success-leaf expressions.  A positive cycle, which the tree cuts by its loop
check, is solved there as its component's least fixpoint, so the table
answers every stratified query, and in the same worlds as the tree.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .choice_algebra import (
    FALSE,
    TOP,
    TRUE,
    AtomicChoice,
    ChoiceExpr,
    CompositeChoice,
    Diagram,
    Not,
    conj,
    conjoin_dnf,
    conjuncts,
    disj,
    dnf,
    gamma,
)
from .errors import DepthLimitError, ProgramError
from .grounder import GroundProgram, strongly_connected
from .syntax import (
    Atom,
    Literal,
    Query,
    Substitution,
    apply_literal,
    apply_query,
    atom_vars,
    is_ground_atom,
    is_ground_query,
    mgu,
    query_str,
    query_vars,
)

DEPTH_LIMIT = 10_000  # steps on one branch: the loop check makes trees finite, this caps output

#: Node markings.  Inner nodes stay "unmarked"; leaves get one of the rest.
UNMARKED = "unmarked"
SUCCESS = "success"
FAILED = "failed"


@dataclass(slots=True, eq=False)
class EdgeLabel:
    """What one resolution step did.

    ``kind`` is "pos" or "neg"; ``head`` and ``body`` the ground clause a
    "pos" step resolved with (None and () for "neg"); ``expr`` what the step
    conjoined: an explicit head's atomic choice, or the DNF of a "neg"
    step's atom not being provable.  A "neg" step keeps its subsidiary tree
    in ``_expr`` until ``expr`` is first read, which folds that DNF; the
    explainer reads it only when ``negates_own_heads`` is False, since the
    DNF's readable text is otherwise trivially true.  A tree shares one
    "neg" edge among all steps on its atom, so the explainer keeps its
    readable text in ``reason``, as a 1-tuple once made.
    """

    kind: str
    head: Atom | None
    body: Query
    _expr: ChoiceExpr | SlpdnfTree | None = None
    _own_heads: bool | None = field(default=None, init=False)  # once decided
    reason: tuple = field(default=(), init=False)

    @property
    def expr(self) -> ChoiceExpr | None:
        e = self._expr
        if isinstance(e, SlpdnfTree):
            not_provable = dnf(Not(disj(e.success_expressions())))
            self._expr = e = _satisfiable(not_provable, e.diagram)
        return e

    def negates_own_heads(self) -> bool:
        """Whether a "neg" step on A, its DNF unfolded, has a conjunct of

        only ¬α, each α an explicit head of A.  It does when each branch of
        the subsidiary tree starts by choosing such an α_b, which is then in
        every conjunct of the branch's DNF, and the ¬α_b leave each instance
        a head: the fold's product holds their set, and absorption and
        ``_satisfiable`` keep it or a subset.  Decided once, from the
        branches' first steps, making no diagram node; False if the DNF was
        folded first."""
        if self._own_heads is None:
            sub = self._expr
            self._own_heads = isinstance(sub, SlpdnfTree) and _own_head_negations(sub)
        return self._own_heads


def _own_head_negations(sub: SlpdnfTree) -> bool:
    """Whether each branch of ``sub`` starts with an explicit head's choice,

    and the negations of those choices leave each instance a head."""
    negated: dict[tuple, set[int]] = {}
    for d in sub.branches:
        alpha = d.edges[0].expr
        if alpha is None:
            return False
        negated.setdefault(alpha.inst, set()).add(alpha.index)
    order, rank = sub.diagram.order, sub.diagram.rank
    return all(len(heads) < order[rank[inst]].n_heads for inst, heads in negated.items())


@dataclass(slots=True)
class SlpdnfNode:
    query: Query
    #: The node, in the tree's diagram, of the worlds the branch applies in.
    node: int
    marking: str = UNMARKED
    children: list[tuple[EdgeLabel, "SlpdnfNode"]] = field(default_factory=list)


@dataclass(frozen=True, slots=True)
class Derivation:
    """One root-to-success-leaf branch: the visited nodes and the edges

    between them (``len(nodes) == len(edges) + 1``); the tree's
    ``success_expressions`` holds its DNF."""

    nodes: tuple[SlpdnfNode, ...]
    edges: tuple[EdgeLabel, ...]

    @property
    def leaf(self) -> SlpdnfNode:
        return self.nodes[-1]

    def substitution(self) -> Substitution:
        """The union of each "pos" step's unifier with its ground head."""
        sigma: Substitution = {}
        for node, edge in zip(self.nodes, self.edges):
            if edge.kind == "pos":
                sigma.update(mgu(node.query[0].atom, edge.head))
        return sigma


@dataclass(slots=True)
class SlpdnfTree:
    root: SlpdnfNode
    diagram: Diagram
    #: Subsidiary trees created while building this one, keyed by atom.
    subs: dict[Atom, "SlpdnfTree"] = field(default_factory=dict)
    #: The root-to-success-leaf branches, in left-to-right leaf order.
    branches: list[Derivation] = field(default_factory=list)
    #: The ∨ of the success leaves' nodes.
    success: int = FALSE

    def success_expressions(self) -> list[ChoiceExpr]:
        """The branches' DNFs, in left-to-right order.  Each branch folds its

        edges' factors onto the DNFs of the prefix it shares with the branch
        before it, so each edge with a success leaf below is conjoined once.
        A branch's first factor is carried as it is (⊤ before it), each
        later one takes one ``conjoin_dnf``, and ``_satisfiable`` leaves
        what a "neg" step conjoined (a "neg" edge's own DNF is already
        satisfiable)."""
        out: list[ChoiceExpr] = []
        prev: tuple[SlpdnfNode, ...] = ()
        #: exprs[k], the DNF at the previous branch's nodes[k].
        exprs: list[ChoiceExpr] = [TOP]
        for d in self.branches:
            shared = 1
            while shared < len(prev) and prev[shared] is d.nodes[shared]:
                shared += 1
            del exprs[shared:]
            expr = exprs[-1]
            for edge in d.edges[shared - 1 :]:
                factor = edge.expr
                if factor is None or expr == TOP:
                    expr = expr if factor is None else factor
                else:
                    expr = conjoin_dnf(expr, factor)
                    if edge.kind == "neg":
                        expr = _satisfiable(expr, self.diagram)
                exprs.append(expr)
            out.append(expr)
            prev = d.nodes
        return out


@dataclass(frozen=True, slots=True)
class Answer:
    """A computed answer: the query instance proved by one success leaf."""

    substitution: tuple[tuple[str, str], ...]
    expr: ChoiceExpr


def _check_known_predicates(q: Query, g: GroundProgram) -> None:
    # The grounding indexes a subset of the source's predicates.
    known = g.source.prob_predicates() | g.source.derived_predicates()
    for lit in q:
        if lit.atom.pred not in known:
            name, arity = lit.atom.pred
            raise ProgramError(f"unknown predicate {name}/{arity} in query")


def _floundering(lit: Literal) -> ProgramError:
    return ProgramError(f"floundering: negative literal {query_str((lit,))} is not ground")


def _satisfiable(e: ChoiceExpr, diagram: Diagram) -> ChoiceExpr:
    """A DNF without its conjuncts whose node is FALSE.

    ``dnf`` and ``conjoin_dnf`` keep a conjunct that negates every head of
    one instance; only negations make one, so positive steps need no pass."""
    sets = conjuncts(e)
    kept = [s for s in sets if diagram.chain(s, False) != FALSE]
    return e if len(kept) == len(sets) else disj(map(conj, kept))


class _TreeBuilder:
    def __init__(self, g: GroundProgram, limit: float):
        self.g = g
        self.diagram = Diagram(g, limit, "tree")
        self.subs: dict[Atom, SlpdnfTree] = {}
        #: Each negated atom's edge, keyed like ``subs``: it carries the
        #: normalised negation of the subsidiary tree's success expressions,
        #: folded when first read.
        self.neg_edges: dict[Atom, EdgeLabel] = {}
        g.strata  # raises StratificationError up front

    def build(self, q: Query) -> SlpdnfTree:
        _check_known_predicates(q, self.g)
        root = SlpdnfNode(q, TRUE)
        tree = SlpdnfTree(root, self.diagram, self.subs)
        self._expand(tree)
        return tree

    def _expand(self, tree: SlpdnfTree) -> None:
        # Depth-first; depth = resolution steps from this tree's root.
        stack: list[tuple[SlpdnfNode, EdgeLabel | None, int]] = [(tree.root, None, 0)]
        # The branch down to the node last popped: edges[i] leads into nodes[i].
        nodes: list[SlpdnfNode] = []
        edges: list[EdgeLabel | None] = []
        # Per literal selected on that branch: (depth, shortest goal's length so far).
        selected: defaultdict[Literal, list[tuple[int, int]]] = defaultdict(list)
        while stack:
            node, edge, depth = stack.pop()
            for gone in nodes[depth:]:
                if gone.query:
                    selected[gone.query[0]].pop()
            del nodes[depth:], edges[depth:]
            nodes.append(node)
            edges.append(edge)
            if not node.query:
                node.marking = SUCCESS
                tree.branches.append(Derivation(tuple(nodes), tuple(edges[1:])))
                continue
            if depth >= DEPTH_LIMIT:
                raise DepthLimitError(
                    f"derivation exceeded {DEPTH_LIMIT} steps at goal: {query_str(node.query)}"
                )
            lit = node.query[0]
            # The loop check (Bol, Apt & Klop, TCS 1991): a goal that contains,
            # as a multiset, the goal of an ancestor that selected the same
            # literal fails; no world's shortest refutation passes through it.
            above, n = selected[lit], len(node.query)
            shortest = above[-1][1] if above else n + 1
            looped = shortest <= n and any(
                Counter(nodes[d].query) <= Counter(node.query) for d, _ in above
            )
            above.append((depth, min(shortest, n)))
            if not looped:
                (self._step_positive if lit.positive else self._step_negative)(node, lit)
            if not node.children:
                node.marking = FAILED
            for e, child in reversed(node.children):
                stack.append((child, e, depth + 1))
        # A balanced ∨ makes a fraction of the nodes of a left-to-right one.
        tree.success = self.diagram.apply_all(False, [d.leaf.node for d in tree.branches])

    def _step_positive(self, node: SlpdnfNode, lit: Literal) -> None:
        diagram, rest = self.diagram, node.query[1:]
        # Heads are ground, so each unifier binds every variable of ``lit``:
        # the rest of the goal is substituted only when one of them occurs there.
        substitute = False
        if not lit.atom.ground:
            bound = set(atom_vars(lit.atom))
            substitute = any(t in bound for later in rest for t in later.atom.args)
        for head, body, source, i in self.g.resolvents(lit.atom):
            sigma = mgu(lit.atom, head)
            if sigma is None:
                continue
            worlds, choice = node.node, None
            if i:  # an explicit head: conjoin its atomic choice
                choice = AtomicChoice(source.cid, source.key, i)
                worlds = diagram.apply(True, worlds, diagram.chain([choice], False))
                if worlds == FALSE:
                    continue
            child_query = body + (apply_query(sigma, rest) if substitute else rest)
            edge = EdgeLabel("pos", head, body, choice)
            node.children.append((edge, SlpdnfNode(child_query, worlds)))

    def _step_negative(self, node: SlpdnfNode, lit: Literal) -> None:
        if not is_ground_atom(lit.atom):
            raise _floundering(lit)
        diagram, sub = self.diagram, self.subs.get(lit.atom)
        if sub is None:
            sub = SlpdnfTree(SlpdnfNode((lit.negate(),), TRUE), diagram)
            self._expand(sub)
            self.subs[lit.atom] = sub
            self.neg_edges[lit.atom] = EdgeLabel("neg", None, (), sub)
        worlds = diagram.apply(True, node.node, diagram.negate(sub.success))
        if worlds == FALSE:
            return  # failed: the goal's worlds all prove the negated atom
        node.children.append((self.neg_edges[lit.atom], SlpdnfNode(node.query[1:], worlds)))


def build_tree(q: Query, g: GroundProgram, limit: float = math.inf) -> SlpdnfTree:
    """Build the full tree for ``q`` (subsidiary trees included, shared by

    atom) over one decision diagram of at most ``limit`` nodes.  Requires a
    stratified ground program; raises :class:`DepthLimitError` when a
    branch exceeds ``DEPTH_LIMIT`` steps.
    """
    return _TreeBuilder(g, limit).build(q)


def query_diagram(q: Query, g: GroundProgram, diagram: Diagram) -> int:
    """The node, in ``diagram``, of the disjunction of ``q``'s success-leaf

    expressions, built without the tree: D(a), the diagram of a ground atom,
    is tabled, as in PITA (Riguzzi & Swift, TPLP 2011).  D(a) is the ∨ over
    a's clauses of the clause's choice (for an explicit head) ∧ its body, and
    D(¬a) is ¬D(a).  The table is filled one strongly connected component of
    the atoms' dependency graph at a time, dependencies first: a cyclic
    component starts from D = FALSE and recomputes its atoms until none
    changes, its least fixpoint, which is the least model's in every world.
    Stratification puts each negated atom in an earlier, final component.

    A goal conjoins its literals left to right and, as the tree prunes at ⊥,
    selects none after its conjunction is FALSE; a non-ground query literal
    takes the ∨, over the ground heads it unifies with, of D(head) ∧ the rest
    of the goal under the unifier, and a non-ground negated one flounders as
    in the tree.  Canonicity makes the node the tree's own wherever the tree
    is built within ``DEPTH_LIMIT`` steps.
    """
    g.strata  # raises StratificationError up front
    _check_known_predicates(q, g)
    by_head = g.by_head  # ``resolvents`` of a ground atom
    table: dict[Atom, int] = {}
    looped: set[Atom] = set()  # the atoms in their own clauses' bodies

    def untabled(atom: Atom) -> list[Atom]:
        """The body atoms of ``atom``'s clauses not yet tabled, in order."""
        clauses = by_head.get(atom, ())
        out = [lit.atom for _, body, _, _ in clauses for lit in body if lit.atom not in table]
        if atom in out:
            looped.add(atom)
        return out

    def node_of(atom: Atom) -> int:
        if atom not in table:
            for scc in strongly_connected([atom], untabled):
                if len(scc) == 1 and scc[0] not in looped:
                    table[scc[0]] = atom_node(scc[0])
                    continue
                table.update(dict.fromkeys(scc, FALSE))  # the least fixpoint starts at ⊥
                changed = True
                while changed:
                    changed = False
                    for member in reversed(scc):  # the deepest first
                        node = atom_node(member)
                        changed |= node != table[member]
                        table[member] = node
        return table[atom]

    def atom_node(atom: Atom) -> int:
        node = FALSE
        for _, body, source, i in by_head.get(atom, ()):
            acc = diagram.chain([AtomicChoice(source.cid, source.key, i)], False) if i else TRUE
            for lit in body:
                if acc == FALSE:
                    break
                acc = conjoin(acc, lit.positive, table[lit.atom])
            node = diagram.apply(False, node, acc)
        return node

    def conjoin(acc: int, positive: bool, node: int) -> int:
        return diagram.apply(True, acc, node if positive else diagram.negate(node))

    # The goal's branches, depth first: (the index of the next literal, the
    # bindings of the query's variables so far, the ∧ so far).
    stack: list[tuple[int, Substitution, int]] = [(0, {}, TRUE)]
    leaves: list[int] = []
    while stack:
        start, sigma, acc = stack.pop()
        for k in range(start, len(q)):
            if acc == FALSE:
                break
            lit = apply_literal(sigma, q[k])
            if is_ground_atom(lit.atom):
                acc = conjoin(acc, lit.positive, node_of(lit.atom))
                continue
            if not lit.positive:
                raise _floundering(lit)
            heads = dict.fromkeys(head for head, *_ in g.resolvents(lit.atom))
            for head in reversed(heads):
                unifier = mgu(lit.atom, head)
                if unifier is not None:  # heads are ground: the bindings stay ground
                    stack.append((k + 1, sigma | unifier, diagram.apply(True, acc, node_of(head))))
            break
        else:
            leaves.append(acc)
    return diagram.apply_all(False, leaves)


def derivations(tree: SlpdnfTree) -> list[Derivation]:
    """Root-to-success-leaf branches, in left-to-right leaf order."""
    return list(tree.branches)


def answers(q: Query, g: GroundProgram) -> list[Answer]:
    """One answer per success leaf: the steps' bindings restricted to

    the query's variables, plus the leaf expression."""
    tree = build_tree(q, g)
    qvars = {v.name for v in query_vars(q)}
    result = []
    for d, expr in zip(derivations(tree), tree.success_expressions()):
        sigma = d.substitution()
        restricted = tuple(
            sorted((v.name, t.name) for v, t in sigma.items() if v.name in qvars)
        )
        result.append(Answer(restricted, expr))
    return result


def success_expressions(q: Query, g: GroundProgram, limit: float = math.inf) -> list[ChoiceExpr]:
    return build_tree(q, g, limit).success_expressions()


def expl(q: Query, g: GroundProgram) -> frozenset[CompositeChoice]:
    """The explanations of a ground query: the union of the composite-choice

    sets of all success-leaf expressions.  A world satisfies the query iff
    its selection extends one of them.
    """
    if not is_ground_query(q):
        raise ProgramError(f"explanations require a ground query, got {query_str(q)}")
    tree = build_tree(q, g)
    out: set[CompositeChoice] = set()
    for expr in tree.success_expressions():
        out |= gamma(expr, g)
    return frozenset(out)

