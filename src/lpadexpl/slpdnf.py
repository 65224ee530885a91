"""The resolution engine: SLDNF-style trees whose branches carry choice

expressions.

A tree node pairs a goal (query) with a choice expression constraining the
worlds in which the branch applies; the root carries ⊤.  The leftmost literal
is always selected:

* a *derived* atom resolves against every matching derived clause; the
  expression is unchanged;
* a *probabilistic* atom resolves against every matching explicit head of
  every ground instance; the child conjoins the atomic choice onto the
  expression (in DNF) and is pruned when that is inconsistent;
* a ground *negative* literal ¬a spawns (or reuses) a subsidiary tree for a,
  built to completion; the expression of the single child conjoins the
  negation of the disjunction of the subsidiary tree's success-leaf
  expressions.  When that conjunction is inconsistent the node fails.
  Selecting a non-ground negative literal raises ProgramError (floundering).

An empty goal is a success leaf; a selected positive literal with no
resolution step is a failed leaf.  The success-leaf expressions are exactly
the explanations of the query: a world satisfies the query iff it extends a
composite choice in ``expl``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .choice_algebra import (
    BOT,
    TOP,
    And,
    AtomicChoice,
    ChoiceExpr,
    CompositeChoice,
    Not,
    Or,
    conj,
    disj,
    dnf,
    gamma,
)
from .errors import DepthLimitError, ProgramError
from .grounder import GroundProgram, theta_key
from .syntax import (
    Atom,
    Literal,
    Query,
    Substitution,
    apply_query,
    compose,
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


@dataclass(frozen=True, slots=True)
class EdgeLabel:
    """What one resolution step did.

    ``kind`` is "derived", "prob", or "neg"; ``sigma`` the unifier applied to
    the rest of the goal; ``choice`` the atomic choice of a "prob" step;
    ``expr`` the conjoined expression of a "neg" step.
    """

    kind: str
    sigma: tuple[tuple[str, str], ...]
    choice: AtomicChoice | None = None
    expr: ChoiceExpr | None = None


@dataclass(slots=True)
class SlpdnfNode:
    query: Query
    expr: ChoiceExpr
    marking: str = UNMARKED
    children: list[tuple[EdgeLabel, "SlpdnfNode"]] = field(default_factory=list)


@dataclass(slots=True)
class SlpdnfTree:
    root: SlpdnfNode
    #: Subsidiary trees created while building this one, keyed by atom.
    subs: dict[Atom, "SlpdnfTree"] = field(default_factory=dict)

    def success_leaves(self) -> list[SlpdnfNode]:
        """Success leaves in left-to-right order."""
        out: list[SlpdnfNode] = []
        stack = [self.root]
        while stack:
            n = stack.pop()
            if n.marking == SUCCESS:
                out.append(n)
            for _, child in reversed(n.children):
                stack.append(child)
        return out

    def success_expressions(self) -> list[ChoiceExpr]:
        return [leaf.expr for leaf in self.success_leaves()]


@dataclass(frozen=True, slots=True)
class Derivation:
    """One root-to-success-leaf branch: the visited nodes and the edges

    between them (``len(nodes) == len(edges) + 1``)."""

    nodes: tuple[SlpdnfNode, ...]
    edges: tuple[EdgeLabel, ...]

    @property
    def leaf(self) -> SlpdnfNode:
        return self.nodes[-1]

    @property
    def expr(self) -> ChoiceExpr:
        return self.leaf.expr

    def substitution(self) -> Substitution:
        """The composed unifier of all steps."""
        sigma: Substitution = {}
        for edge in self.edges:
            sigma = compose(sigma, _sigma_dict(edge))
        return sigma


def _sigma_dict(edge: EdgeLabel) -> Substitution:
    from .syntax import Constant, Variable

    return {Variable(v): Constant(c) for v, c in edge.sigma}


@dataclass(frozen=True, slots=True)
class Answer:
    """A computed answer: the query instance proved by one success leaf."""

    substitution: tuple[tuple[str, str], ...]
    expr: ChoiceExpr


class _TreeBuilder:
    def __init__(self, g: GroundProgram, depth_limit: int):
        self.g = g
        self.depth_limit = depth_limit
        self.subs: dict[Atom, SlpdnfTree] = {}
        g.strata  # raises StratificationError up front

    def build(self, q: Query) -> SlpdnfTree:
        self._check_known_predicates(q)
        root = SlpdnfNode(q, TOP)
        tree = SlpdnfTree(root, self.subs)
        self._expand(tree)
        return tree

    def _check_known_predicates(self, q: Query) -> None:
        # The grounding indexes a subset of the source's predicates.
        known = self.g.source.prob_predicates() | self.g.source.derived_predicates()
        for lit in q:
            if lit.atom.pred not in known:
                name, arity = lit.atom.pred
                raise ProgramError(f"unknown predicate {name}/{arity} in query")

    def _expand(self, tree: SlpdnfTree) -> None:
        # Depth-first; depth = resolution steps from this tree's root.
        stack: list[tuple[SlpdnfNode, int]] = [(tree.root, 0)]
        while stack:
            node, depth = stack.pop()
            if not node.query:
                node.marking = SUCCESS
                continue
            if depth >= self.depth_limit:
                raise DepthLimitError(
                    f"derivation exceeded {self.depth_limit} steps "
                    f"at goal: {query_str(node.query)}"
                )
            lit = node.query[0]
            if lit.positive:
                # A probabilistic predicate without ground instances has no
                # derived clauses either: both steps leave a failed leaf.
                if lit.atom.pred in self.g.prob_head_index:
                    self._step_prob(node, lit)
                else:
                    self._step_derived(node, lit)
            else:
                self._step_negative(node, lit)
            if not node.children:
                node.marking = FAILED
            for _, child in reversed(node.children):
                stack.append((child, depth + 1))

    def _step_derived(self, node: SlpdnfNode, lit: Literal) -> None:
        rest = node.query[1:]
        for clause in self.g.derived_for(lit.atom):
            sigma = mgu(lit.atom, clause.head)
            if sigma is None:
                continue
            child_query = clause.body + (apply_query(sigma, rest) if sigma else rest)
            edge = EdgeLabel("derived", theta_key(sigma))
            node.children.append((edge, SlpdnfNode(child_query, node.expr)))

    def _step_prob(self, node: SlpdnfNode, lit: Literal) -> None:
        rest = node.query[1:]
        for inst, i in self.g.prob_heads_for(lit.atom):
            sigma = mgu(lit.atom, inst.head_atom(i))
            if sigma is None:
                continue
            ac = AtomicChoice(inst.cid, inst.key, i)
            expr = dnf(conj([node.expr, ac]))
            if expr == BOT:
                continue
            child_query = inst.body + (apply_query(sigma, rest) if sigma else rest)
            edge = EdgeLabel("prob", theta_key(sigma), choice=ac)
            node.children.append((edge, SlpdnfNode(child_query, expr)))

    def _step_negative(self, node: SlpdnfNode, lit: Literal) -> None:
        if not is_ground_atom(lit.atom):
            raise ProgramError(
                f"floundering: negative literal {query_str((lit,))} is not ground"
            )
        sub = self.subs.get(lit.atom)
        if sub is None:
            sub = SlpdnfTree(SlpdnfNode((lit.negate(),), TOP), self.subs)
            self._expand(sub)
            self.subs[lit.atom] = sub
        not_provable = self._satisfiable(dnf(Not(disj(sub.success_expressions()))))
        expr = self._satisfiable(dnf(conj([node.expr, not_provable])))
        if expr == BOT:
            return  # failed: the goal's worlds all prove the negated atom
        edge = EdgeLabel("neg", (), expr=not_provable)
        node.children.append((edge, SlpdnfNode(node.query[1:], expr)))

    def _satisfiable(self, e: ChoiceExpr) -> ChoiceExpr:
        """A DNF without its conjuncts that negate every head of one instance.

        ``dnf`` drops the other unsatisfiable conjuncts, so what is left is ⊥
        exactly when no world satisfies it.  Only negations can leave an
        instance no head, so ``_step_prob`` needs no such pass."""
        conjuncts = e.children if isinstance(e, Or) else (e,)
        kept = []
        for c in conjuncts:
            negated = Counter(
                (lit.child.cid, lit.child.key)
                for lit in (c.children if isinstance(c, And) else (c,))
                if isinstance(lit, Not)
            )
            if all(n < self.g.instance(*inst).n_heads for inst, n in negated.items()):
                kept.append(c)
        return e if len(kept) == len(conjuncts) else disj(kept)


def build_tree(
    q: Query, g: GroundProgram, depth_limit: int = DEFAULT_DEPTH_LIMIT
) -> SlpdnfTree:
    """Build the full tree for ``q`` (subsidiary trees included, shared by

    atom).  Requires a stratified ground program; raises
    :class:`DepthLimitError` when a branch exceeds ``depth_limit`` steps.
    """
    return _TreeBuilder(g, depth_limit).build(q)


def derivations(tree: SlpdnfTree) -> list[Derivation]:
    """Root-to-success-leaf branches, in left-to-right leaf order."""
    out: list[Derivation] = []
    # The branch down to the node last popped: edges[i] leads into nodes[i].
    nodes: list[SlpdnfNode] = []
    edges: list[EdgeLabel | None] = []
    stack = [(tree.root, None, 0)]
    while stack:
        node, edge, depth = stack.pop()
        del nodes[depth:], edges[depth:]
        nodes.append(node)
        edges.append(edge)
        if node.marking == SUCCESS:
            out.append(Derivation(tuple(nodes), tuple(edges[1:])))
        for e, child in reversed(node.children):
            stack.append((child, e, depth + 1))
    return out


def answers(q: Query, g: GroundProgram, depth_limit: int = DEFAULT_DEPTH_LIMIT) -> list[Answer]:
    """One answer per success leaf: the composed substitution restricted to

    the query's variables, plus the leaf expression."""
    tree = build_tree(q, g, depth_limit)
    qvars = {v.name for v in query_vars(q)}
    result = []
    for d in derivations(tree):
        sigma = d.substitution()
        restricted = tuple(
            sorted((v.name, t.name) for v, t in sigma.items() if v.name in qvars)
        )
        result.append(Answer(restricted, d.expr))
    return result


def success_expressions(
    q: Query, g: GroundProgram, depth_limit: int = DEFAULT_DEPTH_LIMIT
) -> list[ChoiceExpr]:
    return build_tree(q, g, depth_limit).success_expressions()


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

