"""Human-readable explanations.

A successful derivation is replayed into an *and-tree*: each node is the
ground literal it proved, its children the body literals of the clause that
resolved it (facts close branches; the atomic choice of a probabilistic step
is implicit in the chosen clause head, so the edge needs no label).  A ground
negative literal gets a single closing child, with the step's choice
expression translated from atomic choices to the head atoms they pick
(``chq``), pruned of the vacuous "¬a" occurrences inside a's own
explanation — the part a reader already knows.

Three renderers share the tree: indented text (one literal per line, ``;``
between alternative reasons), natural language driven by ``%!read``
annotation templates, and a DOT graph.  Explanations are ranked by their
probability, ties keeping leaf order.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property

from .choice_algebra import (
    DEFAULT_ASSIGNMENT_LIMIT,
    AtomicChoice,
    ChoiceExpr,
    Not,
    conjuncts,
    head_label,
)
from .errors import ProgramError
# ``ground`` stays importable from here: perfbench/tracer.py wraps it by name.
from .grounder import GroundProgram, ground  # noqa: F401
from .slpdnf import Derivation, build_tree, derivations
from .syntax import (
    NONE_PREDICATE,
    Annotation,
    Atom,
    Literal,
    Program,
    Query,
    Substitution,
    apply_query,
    mgu,
    query_vars,
)

INDENT = "   "
BOX = "□"


# ---------------------------------------------------------------------------
# Readable expressions (choice expressions over head atoms)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RLit:
    """±(head atom); ``atom`` is None for the implicit 'none' head.

    ``alternatives`` lists the sibling heads of the same instance, for the
    optional alternatives display."""

    negated: bool
    atom: Atom | None
    alternatives: tuple[str, ...] = ()

    @property
    def text(self) -> str:
        return "none" if self.atom is None else str(self.atom)


@dataclass(frozen=True, slots=True)
class RAnd:
    children: tuple[RLit, ...]


@dataclass(frozen=True, slots=True)
class ROr:
    children: tuple[RAnd, ...]


#: A readable expression: trivially true, or a disjunction of conjunctions.
ReadableExpr = None | ROr

_TRIVIAL: ReadableExpr = None


def _readable_lit(negated: bool, ac: AtomicChoice, g: GroundProgram) -> RLit:
    inst = g.instance(ac.cid, ac.key)
    atom = inst.head_atom(ac.index)
    alternatives = tuple(
        head_label(AtomicChoice(ac.cid, ac.key, j), g)
        for j in range(1, inst.n_heads + 1)
        if j != ac.index
    )
    return RLit(negated, None if atom.predicate == NONE_PREDICATE else atom, alternatives)


def chq(e: ChoiceExpr, g: GroundProgram, negated_atom: Atom | None = None) -> ReadableExpr:
    """Translate a DNF choice expression to head atoms.

    Occurrences of ¬``negated_atom`` are pruned (inside the explanation of
    why ``negated_atom`` fails they carry no information); a conjunct pruned
    empty, ⊤'s among them, makes the whole expression trivially true,
    returned as None.
    """
    out: dict[RAnd, None] = {}  # first-seen order
    for literals in conjuncts(e):
        lits: list[RLit] = []
        for lit in literals:
            negated = isinstance(lit, Not)
            ac = lit.child if negated else lit
            if not isinstance(ac, AtomicChoice):
                raise ProgramError(f"expression is not in normal form: {lit}")
            rlit = _readable_lit(negated, ac, g)
            if negated and rlit.atom is not None and rlit.atom == negated_atom:
                continue
            lits.append(rlit)
        if not lits:
            return _TRIVIAL
        out[RAnd(tuple(lits))] = None
    return ROr(tuple(out))


# ---------------------------------------------------------------------------
# And-trees
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class AndTree:
    """A proof tree node; ``literal`` is None for the closing □ of a

    negative literal, whose parent carries the readable expression."""

    literal: Literal | None
    children: list["AndTree"] = field(default_factory=list)
    expr: ReadableExpr = None
    has_expr: bool = False

    def visible_children(self) -> list["AndTree"]:
        return [c for c in self.children if c.literal is not None]


def and_tree(d: Derivation, g: GroundProgram) -> AndTree:
    """Replay a derivation into a proof tree of ground literals.

    Each "pos" step's ground clause gives its node's children.  A goal of
    one positive literal is the root, as the first step's head; any other
    goal gets a display root ``main(v1,…)`` (``main_k`` when the program
    uses ``main``), whose arguments are the values the derivation gives the
    goal's variables, in first-occurrence order, and whose children are the
    goal's literals under those values.
    """
    goal = d.nodes[0].query
    if len(goal) == 1 and goal[0].positive:
        root = AndTree(Literal(True, d.edges[0].head) if d.edges else goal[0])
        pending: list[AndTree] = [root]  # the open literals, leftmost last
    else:
        sigma = d.substitution()
        values = tuple(sigma.get(v, v) for v in query_vars(goal))
        root = AndTree(Literal(True, Atom(_display_name(g.source), values)))
        root.children = [AndTree(lit) for lit in apply_query(sigma, goal)]
        pending = root.children[::-1]
    if not all(node.literal.atom.ground for node in pending):
        raise ProgramError("internal error: derivation does not ground its goals")
    for edge in d.edges:
        node = pending.pop()
        if edge.kind == "pos":
            children = [AndTree(body_lit) for body_lit in edge.body]
            node.children = children
            pending += reversed(children)
        else:  # negative literal: closing child plus readable expression
            node.children = [AndTree(None)]
            if not edge.reason:  # made once per edge, for every proof through it
                # With a conjunct of ¬α, α a head of the atom, chq prunes it empty.
                trivial = edge.negates_own_heads()
                edge.reason = (_TRIVIAL if trivial else chq(edge.expr, g, node.literal.atom),)
            node.expr = edge.reason[0]
            node.has_expr = True
    return root


def _display_name(p: Program) -> str:
    """``main``, or the first ``main_k`` that names no predicate of ``p``."""
    taken = {name for name, _ in p.prob_predicates() | p.derived_predicates()}
    name, k = "main", 0
    while name in taken:
        k += 1
        name = f"main_{k}"
    return name


@dataclass(frozen=True)
class Explanation:
    """A proof and its probability; its AND-tree is built when first read."""

    prob: float
    derivation: Derivation
    g: GroundProgram

    @cached_property
    def tree(self) -> AndTree:
        return and_tree(self.derivation, self.g)


def explain(q: Query, g: GroundProgram, limit: int = DEFAULT_ASSIGNMENT_LIMIT) -> list[Explanation]:
    """All proofs of ``q`` with their probabilities, most probable first

    (ties keep left-to-right proof order, after a display-rooted goal's
    grouping by instance).  Each probability is the mass of
    a leaf's node in the tree's one diagram, of at most ``limit`` nodes."""
    tree = build_tree(q, g, limit)
    ds = derivations(tree)
    names = sorted(query_vars(q), key=lambda v: v.name)
    if names and (len(q) != 1 or not q[0].positive):
        # A display-rooted goal's proofs come grouped by its instance: by
        # the values of its variables, taken in sorted-name order.
        ds.sort(key=lambda d: [t.name for t in map(d.substitution().__getitem__, names)])
    items = [Explanation(tree.diagram.prob(d.leaf.node), d, g) for d in ds]
    return sorted(items, key=lambda e: e.prob, reverse=True)


# ---------------------------------------------------------------------------
# Annotation matching
# ---------------------------------------------------------------------------


def _fill(template: str, sigma: Substitution) -> str:
    out = template
    for v, t in sigma.items():
        out = re.sub(rf"\b{re.escape(v.name)}\b", t.name, out)
    return out


def phrase_for(lit: Literal, annotations: tuple[Annotation, ...]) -> str:
    """The display phrase for a ground literal: the first matching annotation

    of the same sign; else, for negative literals, "not " plus the first
    positive match; else the literal's syntax."""
    tries = [(lit.positive, "")] + ([] if lit.positive else [(True, "not ")])
    for positive, prefix in tries:
        for ann in annotations:
            if ann.pattern.positive == positive:
                sigma = mgu(ann.pattern.atom, lit.atom)
                if sigma is not None:
                    return prefix + _fill(ann.template, sigma)
    return str(lit)


def _rlit_phrase(r: RLit, annotations: tuple[Annotation, ...]) -> str:
    if r.atom is None:
        return "none"
    return phrase_for(Literal(not r.negated, r.atom), annotations)


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------


def _alts_suffix(r: RLit, alternatives: bool) -> str:
    if alternatives and r.negated and r.alternatives:
        return " {" + ", ".join(r.alternatives) + "}"
    return ""


def render_text(
    tree: AndTree,
    depth_limit: int | None = None,
    alternatives: bool = False,
) -> str:
    """Indented text: one literal per line, three spaces per level, a lone

    ``;`` between the alternative reasons of a negative literal.  With a
    depth limit, nodes at the cut with hidden content end in " ..."."""
    lines: list[str] = []
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        visible = node.visible_children()
        hidden = bool(visible) or node.expr is not None
        folded = depth_limit is not None and depth >= depth_limit and hidden
        lines.append(INDENT * depth + str(node.literal) + (" ..." if folded else ""))
        if folded:
            continue
        if node.expr is not None:
            for i, conj_ in enumerate(node.expr.children):
                if i:
                    lines.append(INDENT * (depth + 1) + ";")
                for r in conj_.children:
                    text = ("¬" if r.negated else "") + r.text
                    lines.append(INDENT * (depth + 1) + text + _alts_suffix(r, alternatives))
        stack.extend((child, depth + 1) for child in reversed(visible))
    return "\n".join(lines) + "\n"


def render_nl(
    tree: AndTree,
    annotations: tuple[Annotation, ...],
    depth_limit: int | None = None,
    alternatives: bool = False,
) -> str:
    """Natural language: each node becomes a phrase line; nodes with visible

    content end in " because", non-first siblings start with "and ", and the
    alternative reasons of a negative literal are joined by "or because"."""
    lines: list[str] = []
    stack = [(tree, 0, False)]
    while stack:
        node, depth, follows_sibling = stack.pop()
        visible = node.visible_children()
        hidden = bool(visible) or node.expr is not None
        folded = depth_limit is not None and depth >= depth_limit and hidden
        phrase = phrase_for(node.literal, annotations)
        prefix = "and " if follows_sibling else ""
        if folded:
            lines.append(INDENT * depth + prefix + phrase + " ...")
            continue
        suffix = " because" if hidden else ""
        lines.append(INDENT * depth + prefix + phrase + suffix)
        if node.expr is not None:
            for i, conj_ in enumerate(node.expr.children):
                if i:
                    lines.append(INDENT * (depth + 1) + "or because")
                for j, r in enumerate(conj_.children):
                    text = ("and " if j else "") + _rlit_phrase(r, annotations)
                    lines.append(INDENT * (depth + 1) + text + _alts_suffix(r, alternatives))
        stack.extend(
            (child, depth + 1, j > 0) for j, child in reversed(list(enumerate(visible)))
        )
    return "\n".join(lines) + "\n"


def _expr_inline(e: ReadableExpr, alternatives: bool = False) -> str:
    parts = []
    for conj_ in e.children:
        lits = [
            ("¬" if r.negated else "") + r.text + _alts_suffix(r, alternatives)
            for r in conj_.children
        ]
        joined = " ∧ ".join(lits)
        parts.append(f"({joined})" if len(lits) > 1 and len(e.children) > 1 else joined)
    return " ∨ ".join(parts)


def render_graph(trees: list[AndTree] | AndTree, alternatives: bool = False) -> str:
    """A DOT digraph; several trees render as disconnected components.

    Node ids follow preorder; the closing node of a negative literal is □,
    its edge labeled with the readable expression (omitted when trivial).
    """
    if isinstance(trees, AndTree):
        trees = [trees]
    decls: list[str] = []
    edges: list[str] = []

    def escape(text: str) -> str:
        return text.replace("\\", "\\\\").replace('"', '\\"')

    for t in trees:
        # (parent, parent's id, node) in preorder; a node's edge from its
        # parent is emitted when the node is numbered.
        stack: list[tuple[AndTree | None, int, AndTree]] = [(None, -1, t)]
        while stack:
            parent, pid, node = stack.pop()
            nid = len(decls)
            label = BOX if node.literal is None else str(node.literal)
            decls.append(f'  n{nid} [label="{escape(label)}"];')
            if parent is not None:
                if node.literal is None and parent.expr is not None:
                    expr_text = escape(_expr_inline(parent.expr, alternatives))
                    edges.append(f'  n{pid} -> n{nid} [label="{expr_text}"];')
                else:
                    edges.append(f"  n{pid} -> n{nid};")
            stack.extend((node, nid, child) for child in reversed(node.children))
    return "digraph proof {\n" + "\n".join(decls + edges) + "\n}\n"


def to_record(tree: AndTree, alternatives: bool = False) -> dict:
    """A JSON-ready nested record of one proof tree."""

    def node_record(node: AndTree) -> dict:
        record: dict = {"literal": BOX if node.literal is None else str(node.literal)}
        if node.has_expr:
            record["expression"] = _expr_record(node.expr, alternatives)
        record["children"] = []
        return record

    root = node_record(tree)
    stack = [(tree, root)]
    while stack:
        node, record = stack.pop()
        for child in node.children:
            record["children"].append(node_record(child))
            stack.append((child, record["children"][-1]))
    return root


_json_scalar = json.JSONEncoder(ensure_ascii=False).encode


def to_json(value) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)`` for a value of

    dicts with string keys, lists and scalars, written without recursion."""
    parts: list[str] = []
    # Pending work, last first: text to write, or a (value, depth) to encode.
    stack: list = [(value, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        v, depth = item
        if isinstance(v, dict) and v:
            entries, brackets = [(_json_scalar(k) + ": ", x) for k, x in v.items()], "{}"
        elif isinstance(v, (list, tuple)) and v:
            entries, brackets = [("", x) for x in v], "[]"
        else:
            parts.append(_json_scalar(v))
            continue
        parts.append(brackets[0])
        stack.append("\n" + "  " * depth + brackets[1])
        indent = "\n" + "  " * (depth + 1)
        for k in reversed(range(len(entries))):
            key, x = entries[k]
            stack += [(x, depth + 1), ("," if k else "") + indent + key]
    return "".join(parts)


def _expr_record(e: ReadableExpr, alternatives: bool) -> dict:
    if e is None:
        return {"op": "true"}
    return {
        "op": "or",
        "args": [
            {
                "op": "and",
                "args": [_rlit_record(r, alternatives) for r in conj_.children],
            }
            for conj_ in e.children
        ],
    }


def _rlit_record(r: RLit, alternatives: bool) -> dict:
    record: dict = {"op": "lit", "text": r.text, "negated": r.negated}
    if alternatives and r.negated:
        record["alternatives"] = list(r.alternatives)
    return record
