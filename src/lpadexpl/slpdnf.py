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
``query_expression`` walks the same table with choice expressions as its
values, E(a) shared by every caller of a; a cyclic component is unfolded
along each path instead, cut by the loop check, as equal expressions need
not be one node and no fixpoint can be detected.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .choice_algebra import (
    BOT,
    FALSE,
    TOP,
    TRUE,
    And,
    AtomicChoice,
    ChoiceExpr,
    CompositeChoice,
    Diagram,
    Not,
    Or,
    conj,
    conjoin_dnf,
    conjuncts,
    disj,
    dnf,
    gamma,
)
from .errors import DepthLimitError, EnumerationLimitError, ProgramError
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


class _Tabling:
    """The walk that ``query_diagram`` and ``query_expression`` share: a table

    of one value per ground atom, filled one strongly connected component of
    the atoms' dependency graph at a time, dependencies first, as in PITA
    (Riguzzi & Swift, TPLP 2011), and the goal's branches over it.  A
    subclass gives the values' algebra: ``true``, the accumulator a derived
    clause or a goal starts from, ``choice`` the one an explicit head starts
    from, ``conjoin`` a body literal's value onto an accumulator, ``false``
    the accumulator that prunes the rest of a goal, ``either`` the ∨ of
    accumulators, and ``solve`` the table entries of a cyclic component.
    Stratification puts each negated atom in an earlier, final component."""

    true: object
    false: object

    def __init__(self, g: GroundProgram):
        g.strata  # raises StratificationError up front
        self.g = g
        self.by_head = g.by_head  # ``resolvents`` of a ground atom
        self.table: dict[Atom, object] = {}
        self.looped: set[Atom] = set()  # the atoms in their own clauses' bodies

    def untabled(self, atom: Atom) -> list[Atom]:
        """The body atoms of ``atom``'s clauses not yet tabled, in order."""
        table = self.table
        clauses = self.by_head.get(atom, ())
        out = [lit.atom for _, body, _, _ in clauses for lit in body if lit.atom not in table]
        if atom in out:
            self.looped.add(atom)
        return out

    def lookup(self, atom: Atom):
        """The value of ``atom``, tabling what it depends on first."""
        table = self.table
        if atom not in table:
            for scc in strongly_connected([atom], self.untabled):
                if len(scc) == 1 and scc[0] not in self.looped:
                    table[scc[0]] = self.atom_value(scc[0])
                else:
                    self.solve(scc)
        return table[atom]

    def atom_value(self, atom: Atom):
        """The ∨ over ``atom``'s clauses of the clause's choice ∧ its body;

        a clause selects no literal after its accumulator is ``false``."""
        clauses = self.by_head.get(atom)
        if not clauses:
            return self.false
        choice, conjoin, true, false = self.choice, self.conjoin, self.true, self.false
        table = self.table
        accs = []
        for _, body, source, i in clauses:
            acc = choice(source, i) if i else true
            for lit in body:
                if acc == false:
                    break
                acc = conjoin(acc, lit.positive, table[lit.atom])
            accs.append(acc)
        return self.either(accs)

    def refuted(self, acc) -> bool:
        """Whether a goal's accumulator holds in no world, where ``false``

        alone does not show it."""
        return False

    def leaves(self, q: Query) -> list:
        """The accumulators of the goal's branches, depth first.  A goal

        conjoins its literals left to right and selects none after its
        accumulator is ``false``; a non-ground query literal takes, per
        ground head it unifies with, the head's value ∧ the rest of the goal
        under the unifier, and a non-ground negated one flounders as in the
        tree."""
        _check_known_predicates(q, self.g)
        conjoin, false = self.conjoin, self.false
        # Per branch: the index of the next literal, the bindings of the
        # query's variables so far, the accumulator so far.
        stack: list[tuple[int, Substitution, object]] = [(0, {}, self.true)]
        leaves = []
        while stack:
            start, sigma, acc = stack.pop()
            for k in range(start, len(q)):
                if acc == false:
                    break
                lit = apply_literal(sigma, q[k])
                if is_ground_atom(lit.atom):
                    acc = conjoin(acc, lit.positive, self.lookup(lit.atom))
                    continue
                if not lit.positive:
                    if self.refuted(acc):
                        break
                    raise _floundering(lit)
                heads = dict.fromkeys(head for head, *_ in self.g.resolvents(lit.atom))
                for head in reversed(heads):
                    unifier = mgu(lit.atom, head)
                    if unifier is not None:  # heads are ground: the bindings stay ground
                        stack.append((k + 1, sigma | unifier, conjoin(acc, True, self.lookup(head))))
                break
            else:
                leaves.append(acc)
        return leaves


class _DiagramTabling(_Tabling):
    """Values and accumulators are nodes of one ``Diagram``; a cyclic

    component starts from FALSE and recomputes its atoms until none changes,
    its least fixpoint, which is the least model's in every world."""

    true, false = TRUE, FALSE

    def __init__(self, g: GroundProgram, diagram: Diagram):
        super().__init__(g)
        self.chain, self.apply, self.negate = diagram.chain, diagram.apply, diagram.negate

    def choice(self, source, i: int) -> int:
        return self.chain([AtomicChoice(source.cid, source.key, i)], False)

    def conjoin(self, acc: int, positive: bool, node: int) -> int:
        return self.apply(True, acc, node if positive else self.negate(node))

    def either(self, accs: list[int]) -> int:
        """The ∨ of ``accs`` folded left to right (FALSE ∨ a is a)."""
        if not accs:
            return FALSE
        node, apply = accs[0], self.apply
        for acc in accs[1:]:
            node = apply(False, node, acc)
        return node

    def solve(self, scc: list[Atom]) -> None:
        table = self.table
        table.update(dict.fromkeys(scc, FALSE))  # the least fixpoint starts at ⊥
        changed = True
        while changed:
            changed = False
            for member in reversed(scc):  # the deepest first
                node = self.atom_value(member)
                changed |= node != table[member]
                table[member] = node


def query_diagram(q: Query, g: GroundProgram, diagram: Diagram) -> int:
    """The node, in ``diagram``, of the disjunction of ``q``'s success-leaf

    expressions, built without the tree: D(a), the diagram of a ground atom,
    is tabled.  D(a) is the ∨ over a's clauses of the clause's choice (for
    an explicit head) ∧ its body, and D(¬a) is ¬D(a); a positive cycle is
    its component's least fixpoint.  Canonicity makes the node the tree's
    own wherever the tree is built within ``DEPTH_LIMIT`` steps.
    """
    return diagram.apply_all(False, _DiagramTabling(g, diagram).leaves(q))


class _Pending:
    """The table entry of an atom of a cyclic component not yet unfolded."""

    __slots__ = ("atom",)

    def __init__(self, atom: Atom):
        self.atom = atom


class _ExpressionTabling(_Tabling):
    """Values are choice expressions, made of plain hash-consed ``And``,

    ``Or`` and ``Not`` nodes and never flattened; a clause's accumulator is
    the tuple of its conjuncts, ⊤ ones dropped, or ⊥ once a literal is ⊥.
    A cyclic component has no fixpoint to detect, as equal expressions need
    not be one node, so each of its atoms is tabled as ``_Pending`` and
    unfolded when first conjoined (see ``unfold``), and only then tabled."""

    true, false = (), BOT

    def __init__(self, g: GroundProgram, limit: float):
        super().__init__(g)
        self.limit = limit
        self.unfoldings = 0
        #: The component of each atom of a cyclic component.
        self.component: dict[Atom, list[Atom]] = {}
        self.diagram: Diagram | None = None  # for ``refuted``, made when needed

    def choice(self, source, i: int) -> tuple:
        return (AtomicChoice(source.cid, source.key, i),)

    def conjoin(self, acc, positive: bool, e: ChoiceExpr | _Pending):
        if e.__class__ is _Pending:
            e = self.unfold(e.atom)
        if not positive:
            e = BOT if e is TOP else TOP if e is BOT else Not(e)
        if e is BOT:
            return BOT
        return acc if e is TOP else acc + (e,)

    @staticmethod
    def close(acc) -> ChoiceExpr:
        """The conjunction an accumulator stands for."""
        if acc is BOT:
            return BOT
        return And(acc) if len(acc) > 1 else acc[0] if acc else TOP

    def either(self, accs: list) -> ChoiceExpr:
        disjuncts = tuple(e for e in map(self.close, accs) if e is not BOT)
        if TOP in disjuncts:
            return TOP
        return disjuncts[0] if len(disjuncts) == 1 else Or(disjuncts)

    def solve(self, scc: list[Atom]) -> None:
        for member in scc:
            self.table[member] = _Pending(member)
            self.component[member] = scc

    def refuted(self, acc) -> bool:
        if self.diagram is None:
            self.diagram = Diagram(self.g, self.limit, "unfold")
        return self.diagram.compile(self.close(acc)) == FALSE

    def clauses(self, atom: Atom):
        """``atom_value`` as a generator: it yields each body atom it selects

        and is sent that atom's value."""
        choice, conjoin = self.choice, self.conjoin
        accs = []
        for _, body, source, i in self.by_head.get(atom, ()):
            acc = choice(source, i) if i else ()
            for lit in body:
                if acc is BOT:
                    break
                acc = conjoin(acc, lit.positive, (yield lit.atom))
            accs.append(acc)
        return self.either(accs)

    def unfold(self, root: Atom) -> ChoiceExpr:
        """E(root) for an atom of a cyclic component, depth first with an

        explicit stack: an atom of the component on the current path is cut
        to ⊥ (the loop check of Bol, Apt & Klop, TCS 1991, which the tree
        applies too: some proof of an atom true in a world repeats no atom
        along a branch), one off it is unfolded again below it, and an
        untabled one of an earlier cyclic component is unfolded with a path
        of its own.  Only the values of unfoldings entered from outside
        their component are tabled, as only they do not depend on the path.
        Each unfolding counts against ``limit``."""
        table, component = self.table, self.component
        path: list[tuple[Atom, object]] = []  # (atom, its ``clauses``)
        on_path: set[Atom] = set()

        def enter(atom: Atom) -> None:
            self.unfoldings += 1
            if self.unfoldings > self.limit:
                raise EnumerationLimitError(
                    f"unfold: {self.unfoldings} unfoldings of atoms in cyclic components "
                    f"exceed the limit {self.limit} (--limit)"
                )
            path.append((atom, self.clauses(atom)))
            on_path.add(atom)

        enter(root)
        e = None  # what the innermost unfolding is sent next
        while True:
            atom, walk = path[-1]
            try:
                below = walk.send(e)
            except StopIteration as done:
                e = done.value
                path.pop()
                on_path.discard(atom)
                if not path or component[path[-1][0]] is not component[atom]:
                    table[atom] = e
                if not path:
                    return e
                continue
            e = table[below]
            if e.__class__ is _Pending:
                if below in on_path:
                    e = BOT  # positive: a negated atom is in an earlier component
                else:
                    enter(below)
                    e = None


def query_expression(q: Query, g: GroundProgram, limit: float = math.inf) -> ChoiceExpr:
    """E(q), a choice expression that holds in exactly the worlds of ``q``'s

    success-leaf expressions, built without the tree or any DNF: E(a), of a
    ground atom, is tabled once, shared by every expression that calls it.
    E(a) is the ∨ over a's clauses of the clause's choice (for an explicit
    head) ∧ the E of each body literal, ¬a as ``Not``, a clause being cut at
    a ⊥ literal; the goal and the table's order are ``query_diagram``'s.
    Raises EnumerationLimitError past ``limit`` unfoldings of atoms in
    cyclic components (stage ``unfold``); a floundering check may also
    compile a goal's conjunction into a diagram of at most ``limit`` nodes.
    """
    walk = _ExpressionTabling(g, limit)
    return walk.either(walk.leaves(q))


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


def success_expressions(q: Query, g: GroundProgram) -> list[ChoiceExpr]:
    return build_tree(q, g).success_expressions()


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

