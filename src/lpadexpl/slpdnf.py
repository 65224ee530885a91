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
resolution step is a failed leaf.  The tree records each root-to-success-leaf
branch as it is built; ``success_expressions`` folds, when asked, what each
branch's edges conjoined into its leaf's expression, a DNF.  Those
expressions are exactly the explanations of the query: a world satisfies the
query iff it extends a composite choice in ``expl``.

``query_diagram`` follows the same selection rule without building the tree:
it tables one decision diagram per ground atom and returns the node of the
disjunction of the success-leaf expressions.
"""

from __future__ import annotations

import math
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
    Or,
    conjoin_dnf,
    disj,
    dnf,
    gamma,
)
from .errors import DepthLimitError, ProgramError
from .grounder import GroundProgram
from .syntax import (
    Atom,
    Literal,
    Query,
    Substitution,
    apply_query,
    is_ground_atom,
    is_ground_query,
    mgu,
    query_str,
    query_vars,
)

DEFAULT_DEPTH_LIMIT = 10_000

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
    DNF's readable text is otherwise trivially true.
    """

    kind: str
    head: Atom | None
    body: Query
    _expr: ChoiceExpr | SlpdnfTree | None = None
    _own_heads: bool | None = field(default=None, init=False)  # once decided

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
        #: exprs[k], the DNF at the previous branch's nodes[k]; None is ⊤.
        exprs: list[ChoiceExpr | None] = [None]
        for d in self.branches:
            shared = 1
            while shared < len(prev) and prev[shared] is d.nodes[shared]:
                shared += 1
            del exprs[shared:]
            expr = exprs[-1]
            for edge in d.edges[shared - 1 :]:
                factor = edge.expr
                if factor is None or expr is None:
                    expr = expr if factor is None else factor
                else:
                    expr = conjoin_dnf(expr, factor)
                    if edge.kind == "neg":
                        expr = _satisfiable(expr, self.diagram)
                exprs.append(expr)
            out.append(TOP if expr is None else expr)
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
    conjuncts = e.children if isinstance(e, Or) else (e,)
    kept = [c for c in conjuncts if diagram.compile(c) != FALSE]
    return e if len(kept) == len(conjuncts) else disj(kept)


class _TreeBuilder:
    def __init__(self, g: GroundProgram, depth_limit: int, limit: float):
        self.g = g
        self.depth_limit = depth_limit
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
        while stack:
            node, edge, depth = stack.pop()
            del nodes[depth:], edges[depth:]
            nodes.append(node)
            edges.append(edge)
            if not node.query:
                node.marking = SUCCESS
                tree.branches.append(Derivation(tuple(nodes), tuple(edges[1:])))
                continue
            if depth >= self.depth_limit:
                raise DepthLimitError(
                    f"derivation exceeded {self.depth_limit} steps "
                    f"at goal: {query_str(node.query)}"
                )
            lit = node.query[0]
            if lit.positive:
                self._step_positive(node, lit)
            else:
                self._step_negative(node, lit)
            if not node.children:
                node.marking = FAILED
            for e, child in reversed(node.children):
                stack.append((child, e, depth + 1))
        # A balanced ∨ makes a fraction of the nodes of a left-to-right one.
        tree.success = self.diagram.apply_all(False, [d.leaf.node for d in tree.branches])

    def _step_positive(self, node: SlpdnfNode, lit: Literal) -> None:
        diagram, rest = self.diagram, node.query[1:]
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
            child_query = body + (apply_query(sigma, rest) if sigma else rest)
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


def build_tree(
    q: Query, g: GroundProgram, depth_limit: int = DEFAULT_DEPTH_LIMIT, limit: float = math.inf
) -> SlpdnfTree:
    """Build the full tree for ``q`` (subsidiary trees included, shared by

    atom) over one decision diagram of at most ``limit`` nodes.  Requires a
    stratified ground program; raises :class:`DepthLimitError` when a
    branch exceeds ``depth_limit`` steps.
    """
    return _TreeBuilder(g, depth_limit, limit).build(q)


class _Unfinished(Exception):
    """The tabled walk met a positive cycle or a derivation that may pass the

    depth limit; the tree decides those."""


class _TabledWalk:
    """``query_diagram``'s state.  Each atom's diagram is one generator, which

    yields the atoms it needs that are not yet tabled; ``run`` keeps the
    generators on an explicit stack and sends each one the entry it asked
    for.  A class rather than closures, so that no reference cycle keeps a
    finished walk's diagram alive until the garbage collector runs."""

    def __init__(self, g: GroundProgram, diagram: Diagram, depth_limit: int):
        self.g, self.diagram, self.depth_limit = g, diagram, depth_limit
        self.table: dict[Atom, tuple[int, int]] = {}  # atom -> (node, bound on branch steps)
        self.open_atoms: set[Atom] = set()

    def run(self, q: Query) -> int | None:
        stack = [self.goal(q, TRUE, 0)]
        value = None
        try:
            while True:
                try:
                    atom = stack[-1].send(value)
                except StopIteration as done:
                    stack.pop()
                    if not stack:
                        return done.value[0]
                    value = done.value
                    continue
                if atom in self.open_atoms or len(self.open_atoms) >= self.depth_limit:
                    return None
                self.open_atoms.add(atom)
                stack.append(self.atom(atom))
                value = None
        except _Unfinished:
            return None

    def atom(self, atom: Atom):
        diagram = self.diagram
        node, most = FALSE, 0
        for _, body, source, i in self.g.resolvents(atom):
            start = diagram.chain([AtomicChoice(source.cid, source.key, i)], False) if i else TRUE
            acc, steps = yield from self.goal(body, start, 0)
            node, most = diagram.apply(False, node, acc), max(most, steps)
        if most >= self.depth_limit:
            raise _Unfinished
        self.open_atoms.remove(atom)
        self.table[atom] = entry = (node, most + 1)
        return entry

    def goal(self, goal: Query, acc: int, depth: int):
        """(node, steps): the goal's ∧ onto ``acc``, and a bound on the

        steps of its branches; ``depth`` steps precede it on its branch."""
        g, diagram, table = self.g, self.diagram, self.table
        if depth > self.depth_limit:
            raise _Unfinished
        steps = 0
        for k, lit in enumerate(goal):
            if acc == FALSE:
                break
            if not is_ground_atom(lit.atom):
                if not lit.positive:
                    raise _floundering(lit)
                node, most = FALSE, 0
                for head in dict.fromkeys(head for head, *_ in g.resolvents(lit.atom)):
                    sigma = mgu(lit.atom, head)
                    if sigma is None:
                        continue
                    sub, sub_steps = table.get(head) or (yield head)
                    rest, rest_steps = yield from self.goal(
                        apply_query(sigma, goal[k + 1 :]),
                        diagram.apply(True, acc, sub),
                        depth + steps + sub_steps,
                    )
                    node = diagram.apply(False, node, rest)
                    most = max(most, sub_steps + rest_steps)
                return node, steps + most
            sub, sub_steps = table.get(lit.atom) or (yield lit.atom)
            if lit.positive:
                steps += sub_steps
            else:
                steps, sub = steps + 1, diagram.negate(sub)
            if depth + steps > self.depth_limit:
                raise _Unfinished
            acc = diagram.apply(True, acc, sub)
        return acc, steps


def query_diagram(
    q: Query, g: GroundProgram, diagram: Diagram, depth_limit: int = DEFAULT_DEPTH_LIMIT
) -> int | None:
    """The node, in ``diagram``, of the disjunction of ``q``'s success-leaf

    expressions, built without the tree: D(a), the diagram of a ground atom,
    is tabled, as in PITA (Riguzzi & Swift, TPLP 2011).  D(a) is the ∨ over
    a's clauses of the clause's choice (for an explicit head) ∧ its body, and
    D(¬a) is ¬D(a).  A goal conjoins its literals left to right and, as the
    tree prunes at ⊥, selects none after its conjunction is FALSE; a
    non-ground query literal takes the ∨, over the ground heads it unifies
    with, of D(head) ∧ the rest of the goal under the unifier, and a
    non-ground negated one flounders as in the tree.  Canonicity makes the
    node the tree's own.

    Returns None when the walk re-enters an atom it is still building, or
    when a tree branch might pass ``depth_limit`` steps (each atom bounds the
    steps of its branches); the tree then gives the answer or the error.
    """
    g.strata  # raises StratificationError up front
    _check_known_predicates(q, g)
    return _TabledWalk(g, diagram, depth_limit).run(q)


def derivations(tree: SlpdnfTree) -> list[Derivation]:
    """Root-to-success-leaf branches, in left-to-right leaf order."""
    return list(tree.branches)


def answers(q: Query, g: GroundProgram, depth_limit: int = DEFAULT_DEPTH_LIMIT) -> list[Answer]:
    """One answer per success leaf: the steps' bindings restricted to

    the query's variables, plus the leaf expression."""
    tree = build_tree(q, g, depth_limit)
    qvars = {v.name for v in query_vars(q)}
    result = []
    for d, expr in zip(derivations(tree), tree.success_expressions()):
        sigma = d.substitution()
        restricted = tuple(
            sorted((v.name, t.name) for v, t in sigma.items() if v.name in qvars)
        )
        result.append(Answer(restricted, expr))
    return result


def success_expressions(
    q: Query, g: GroundProgram, depth_limit: int = DEFAULT_DEPTH_LIMIT, limit: float = math.inf
) -> list[ChoiceExpr]:
    return build_tree(q, g, depth_limit, limit).success_expressions()


def expl(
    q: Query, g: GroundProgram, depth_limit: int = DEFAULT_DEPTH_LIMIT
) -> frozenset[CompositeChoice]:
    """The explanations of a ground query: the union of the composite-choice

    sets of all success-leaf expressions.  A world satisfies the query iff
    its selection extends one of them.
    """
    if not is_ground_query(q):
        raise ProgramError(f"explanations require a ground query, got {query_str(q)}")
    tree = build_tree(q, g, depth_limit)
    out: set[CompositeChoice] = set()
    for expr in tree.success_expressions():
        out |= gamma(expr, g)
    return frozenset(out)

