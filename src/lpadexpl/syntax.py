"""Abstract syntax, unification, and concrete syntax for annotated-disjunction

logic programs.

A program is a set of clauses over function-free terms (constants and
variables only).  Two clause kinds exist:

* *probabilistic* clauses ``h1:p1; ...; hn:pn :- body.`` — at most one head
  holds, head ``i`` with probability ``pi``.  When the annotations sum to less
  than one, the remainder goes to an implicit extra head ``none`` meaning
  "no head is produced"; it is materialized here as a real head atom so the
  choice structure is total, but it never appears in source text or output.
* *derived* (normal) clauses ``h :- body.`` including facts ``h.``

A predicate may head probabilistic clauses or derived clauses, never both.
Negation in bodies is written ``\\+``.  ``%!read`` directives attach
natural-language templates to literal patterns for the explanation renderer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import LpadSyntaxError, ProgramError

PROB_SUM_TOLERANCE = 1e-9

NONE_PREDICATE = "none"


# ---------------------------------------------------------------------------
# Terms, atoms, literals
# ---------------------------------------------------------------------------


class _HashConsed:
    """A read-only value class with one shared object per value.

    Each subclass keeps a table from its field values to the one object
    holding them, and its constructor returns that object, so ``==`` and
    ``hash`` are object identity and run in C (hash-consing: Goto 1974;
    Filliâtre & Conchon, ML 2006).  ``_fields`` names the fields, which
    ``repr`` shows as a dataclass would and pickling rebuilds through the
    table; further slots hold values derived from them.  The tables are
    never cleared: a value lives as long as the process.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _table: dict

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._table = {}

    @classmethod
    def _intern(cls, key, *values):
        """The shared object for ``key``, made with its slots filled in order

        by ``values`` unless the table holds one (``setdefault`` is one C
        call, so two threads cannot both record an object for a key)."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(self, name, value)
        return cls._table.setdefault(key, self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Constant(_HashConsed):
    __slots__ = _fields = ("name",)

    def __new__(cls, name: str) -> "Constant":
        return cls._table.get(name) or cls._intern(name, name)

    def __str__(self) -> str:
        return self.name


class Variable(_HashConsed):
    __slots__ = _fields = ("name",)

    def __new__(cls, name: str) -> "Variable":
        return cls._table.get(name) or cls._intern(name, name)

    def __str__(self) -> str:
        return self.name


Term = Constant | Variable


class Atom(_HashConsed):
    __slots__ = ("predicate", "args", "pred", "ground")
    _fields = ("predicate", "args")

    def __new__(cls, predicate: str, args: tuple[Term, ...] = ()) -> "Atom":
        key = (predicate, args)
        return cls._table.get(key) or cls._intern(
            key, predicate, args, (predicate, len(args)), all(isinstance(t, Constant) for t in args)
        )

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(str(a) for a in self.args)})"


class Literal(_HashConsed):
    __slots__ = _fields = ("positive", "atom")

    def __new__(cls, positive: bool, atom: Atom) -> "Literal":
        key = (positive, atom)
        return cls._table.get(key) or cls._intern(key, positive, atom)

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"¬{self.atom}"

    def to_source(self) -> str:
        return str(self.atom) if self.positive else f"\\+{self.atom}"

    def negate(self) -> "Literal":
        return Literal(not self.positive, self.atom)


#: A query/body: literals resolved left to right.
Query = tuple[Literal, ...]


def query_str(q: Query) -> str:
    return ", ".join(lit.to_source() for lit in q)


# ---------------------------------------------------------------------------
# Clauses and programs
# ---------------------------------------------------------------------------


class Clause(_HashConsed):
    """A derived clause ``head :- body`` (a fact when the body is empty)."""

    __slots__ = _fields = ("head", "body")

    def __new__(cls, head: Atom, body: Query = ()) -> "Clause":
        key = (head, body)
        return cls._table.get(key) or cls._intern(key, head, body)

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {query_str(self.body)}."


@dataclass(frozen=True, slots=True)
class ProbClause:
    """A probabilistic clause.

    ``heads`` lists every head with its probability, *including* the implicit
    ``none`` head when the explicit annotations sum to less than one;
    ``n_explicit`` counts the heads that were written in the source.  Head
    indices are 1-based throughout the package.
    """

    cid: str
    heads: tuple[tuple[Atom, float], ...]
    body: Query = ()
    n_explicit: int = 0

    @property
    def explicit_heads(self) -> tuple[tuple[Atom, float], ...]:
        return self.heads[: self.n_explicit]

    def __str__(self) -> str:
        hs = "; ".join(f"{a}:{format_prob(p)}" for a, p in self.explicit_heads)
        if not self.body:
            return f"{hs}."
        return f"{hs} :- {query_str(self.body)}."


@dataclass(frozen=True, slots=True)
class Annotation:
    """A ``%!read`` directive: a literal pattern plus a phrase template.

    Template placeholders are the pattern's variable names, replaced as whole
    words when the pattern matches a ground literal.
    """

    pattern: Literal
    template: str

    def to_source(self) -> str:
        escaped = self.template.replace("\\", "\\\\").replace('"', '\\"')
        return f'%!read {self.pattern.to_source()} as: "{escaped}"'


@dataclass(frozen=True, slots=True)
class Program:
    prob_clauses: tuple[ProbClause, ...] = ()
    derived_clauses: tuple[Clause, ...] = ()
    annotations: tuple[Annotation, ...] = ()

    def prob_predicates(self) -> set[tuple[str, int]]:
        return {
            h.pred
            for c in self.prob_clauses
            for h, _ in c.explicit_heads
        }

    def derived_predicates(self) -> set[tuple[str, int]]:
        return {c.head.pred for c in self.derived_clauses}

    def constants(self) -> list[str]:
        """Every constant mentioned anywhere, sorted by name."""
        atoms = [a for c in self.prob_clauses for a, _ in c.heads]
        atoms += [c.head for c in self.derived_clauses]
        atoms += [lit.atom for c in self.prob_clauses + self.derived_clauses for lit in c.body]
        return sorted({t.name for a in atoms for t in a.args if isinstance(t, Constant)})


# ---------------------------------------------------------------------------
# Variables, substitutions, unification
# ---------------------------------------------------------------------------

#: Substitutions map variables to terms.  Treated as immutable.
Substitution = dict[Variable, Term]


def atom_vars(a: Atom) -> tuple[Variable, ...]:
    """Variables of ``a`` in first-occurrence order, without duplicates."""
    seen: dict[Variable, None] = {}
    for t in a.args:
        if isinstance(t, Variable):
            seen.setdefault(t)
    return tuple(seen)


def query_vars(q: Query) -> tuple[Variable, ...]:
    seen: dict[Variable, None] = {}
    for lit in q:
        for v in atom_vars(lit.atom):
            seen.setdefault(v)
    return tuple(seen)


def clause_vars(c: Clause | ProbClause) -> tuple[Variable, ...]:
    """Variables of a clause in first-occurrence order (heads, then body).

    This order is what parametrizes a clause's ground instances: an instance
    is identified by the tuple of constants these variables map to.
    """
    seen: dict[Variable, None] = {}
    if isinstance(c, ProbClause):
        for a, _ in c.heads:
            for v in atom_vars(a):
                seen.setdefault(v)
    else:
        for v in atom_vars(c.head):
            seen.setdefault(v)
    for v in query_vars(c.body):
        seen.setdefault(v)
    return tuple(seen)


def apply_term(s: Substitution, t: Term) -> Term:
    if isinstance(t, Variable):
        return s.get(t, t)
    return t


def apply_atom(s: Substitution, a: Atom) -> Atom:
    if not a.args:
        return a
    return Atom(a.predicate, tuple(apply_term(s, t) for t in a.args))


def apply_literal(s: Substitution, lit: Literal) -> Literal:
    return Literal(lit.positive, apply_atom(s, lit.atom))


def apply_query(s: Substitution, q: Query) -> Query:
    return tuple(apply_literal(s, lit) for lit in q)


def is_ground_atom(a: Atom) -> bool:
    return a.ground


def is_ground_query(q: Query) -> bool:
    return all(is_ground_atom(lit.atom) for lit in q)


def mgu(a1: Atom, a2: Atom) -> Substitution | None:
    """Most general unifier of two atoms, or None when they don't unify.

    Function-free unification: walk each argument pair to its current
    representative and bind variables to constants or to each other.  The
    result is idempotent and binds only variables of the inputs.
    """
    if a1.predicate != a2.predicate or len(a1.args) != len(a2.args):
        return None
    bind: dict[Variable, Term] = {}

    def walk(t: Term) -> Term:
        while isinstance(t, Variable) and t in bind:
            t = bind[t]
        return t

    for t1, t2 in zip(a1.args, a2.args):
        r1, r2 = walk(t1), walk(t2)
        if r1 == r2:
            continue
        if isinstance(r1, Variable):
            bind[r1] = r2
        elif isinstance(r2, Variable):
            bind[r2] = r1
        else:
            return None
    return {v: walk(t) for v, t in bind.items() if walk(t) != v}


# ---------------------------------------------------------------------------
# Range restriction
# ---------------------------------------------------------------------------


def is_range_restricted(p: Program) -> tuple[bool, list[str]]:
    """Check that every head variable occurs in a positive body literal.

    Returns ``(ok, violations)`` where each violation names the clause and
    the offending variables.
    """
    violations: list[str] = []
    for c in p.prob_clauses:
        pos_vars = _positive_body_vars(c.body)
        for a, _ in c.explicit_heads:
            missing = [v.name for v in atom_vars(a) if v not in pos_vars]
            if missing:
                violations.append(
                    f"clause {c.cid}: head {a} uses {', '.join(missing)} "
                    "not bound by a positive body literal"
                )
    for c in p.derived_clauses:
        if c.head.ground:
            continue
        pos_vars = _positive_body_vars(c.body)
        missing = [v.name for v in atom_vars(c.head) if v not in pos_vars]
        if missing:
            violations.append(
                f"clause for {c.head.predicate}/{len(c.head.args)}: "
                f"head uses {', '.join(missing)} "
                "not bound by a positive body literal"
            )
    return (not violations, violations)


def _positive_body_vars(q: Query) -> set[Variable]:
    out: set[Variable] = set()
    for lit in q:
        if lit.positive:
            out.update(atom_vars(lit.atom))
    return out


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

#: One match per token: the whitespace and comments before it, then its
#: text, empty at the end of the input.  A character that starts no token
#: matches alone, and so do an unterminated bracket or string and a
#: backslash without ``+``.  The most frequent tokens come first.
_TOKEN_RE = re.compile(
    r"""
    (\s*(?:%(?!!read)[^\n]*\s*)*)
    (
      [A-Za-z_][A-Za-z0-9_]*
    | [(),.;&|~{}]
    | :-?
    | \d+(?:\.\d+)?(?:[eE][+-]?\d+)?
    | \[[A-Za-z0-9_,]*\]
    | "(?:[^"\\\n]|\\.)*"
    | %!read\w*
    | \\\+
    | .
    | \Z
    )
    """,
    re.VERBOSE,
)

#: The kind of each token whose text fixes its kind; a punctuation token's
#: kind is its text.
_KIND_OF_TEXT = {c: c for c in "().,;:~&|{}"} | {
    ":-": "neck",
    "\\+": "negation",
    "": "eof",
    "[": "error",
    '"': "error",
    "\\": "error",
}

#: The kind of any other token, by its first character.
_KIND_OF_FIRST = (
    dict.fromkeys("abcdefghijklmnopqrstuvwxyz", "ident")
    | dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ_", "var")
    | dict.fromkeys("0123456789", "number")
    | {"[": "bracket", '"': "string", "%": "read"}
)

#: The kinds of the tokens that are constants.
_CONSTANT_KINDS = frozenset(("ident", "number", "bracket"))


class _Parser:
    """A recursive-descent parser over the tokens of ``text``.

    The tokens are three parallel sequences: ``kinds``, ``texts``, and
    ``gaps``, the whitespace and comments before each token.  ``i`` indexes
    the current token.  The input ends at the first token of kind ``eof``,
    whose text is empty."""

    def __init__(self, text: str):
        self.text = text
        self.gaps, self.texts = zip(*_TOKEN_RE.findall(text))
        kinds = [_KIND_OF_TEXT.get(t) or _KIND_OF_FIRST.get(t[0], "error") for t in self.texts]
        self.kinds = kinds
        if "error" in kinds:
            self.i = kinds.index("error")
            self.fail(f"unexpected character {self.texts[self.i]!r}")
        self.i = 0

    def expect(self, kind: str) -> str:
        i = self.i
        if self.kinds[i] != kind:
            self.fail(f"expected {kind!r}, found {self.texts[i] or 'end of input'!r}")
        self.i = i + 1
        return self.texts[i]

    def fail(self, message: str):
        """Raise a syntax error at the current token."""
        offset = sum(map(len, self.gaps[: self.i + 1])) + sum(map(len, self.texts[: self.i]))
        line = self.text.count("\n", 0, offset) + 1
        raise LpadSyntaxError(message, line, offset - self.text.rfind("\n", 0, offset))

    def same_line(self, a: int, b: int) -> bool:
        """Whether token ``b`` is on the line of the earlier token ``a``."""
        return not any("\n" in gap for gap in self.gaps[a + 1 : b + 1])

    # -- grammar ------------------------------------------------------------

    def parse_program(self) -> Program:
        prob: list[ProbClause] = []
        derived: list[Clause] = []
        annotations: list[Annotation] = []
        kinds = self.kinds
        while kinds[self.i] != "eof":
            if kinds[self.i] == "read":
                annotations.append(self.parse_directive())
                continue
            self.parse_clause(prob, derived)
        program = Program(tuple(prob), tuple(derived), tuple(annotations))
        _validate(program)
        return program

    def parse_directive(self) -> Annotation:
        """``%!read <literal> as: "<template>"``, all on the line of ``%!read``."""
        kinds, texts = self.kinds, self.texts
        keyword = self.i
        self.i += 1
        if texts[keyword] == "%!read":
            pattern = self.parse_literal()
            if texts[self.i] == "as" and kinds[self.i + 1] == ":":
                self.i += 2
                template = self.i
                if kinds[template] == "string" and self.same_line(keyword, template):
                    self.i += 1
                    if kinds[self.i] == "eof" or not self.same_line(keyword, self.i):
                        text = texts[template][1:-1].replace('\\"', '"').replace("\\\\", "\\")
                        return Annotation(pattern, text)
        self.fail('malformed %!read directive (expected, on one line: %!read <literal> as: "...")')

    def parse_clause(self, prob: list[ProbClause], derived: list[Clause]) -> None:
        first = self.i
        head = self.parse_atom()
        kinds = self.kinds
        if kinds[self.i] == ":":
            self.i += 1
            heads = [(head, self.parse_prob())]
            while kinds[self.i] == ";":
                self.i += 1
                a = self.parse_atom()
                self.expect(":")
                heads.append((a, self.parse_prob()))
            body = self.parse_optional_body()
            cid = f"c{len(prob) + 1}"
            total = sum(p for _, p in heads)
            if total > 1 + PROB_SUM_TOLERANCE:
                self.i = first
                self.fail(f"head probabilities of clause {cid} sum to {total!r} > 1")
            n_explicit = len(heads)
            if 1 - total > PROB_SUM_TOLERANCE:
                heads.append((Atom(NONE_PREDICATE), 1 - total))
            prob.append(ProbClause(cid, tuple(heads), body, n_explicit))
        elif kinds[self.i] == ";":
            self.fail("disjunctive heads require probability annotations")
        else:
            derived.append(Clause(head, self.parse_optional_body()))

    def parse_prob(self) -> float:
        """A probability: the number syntax has no sign, so it is never negative."""
        return float(self.expect("number"))

    def parse_optional_body(self) -> Query:
        kinds = self.kinds
        if kinds[self.i] == ".":
            self.i += 1
            return ()
        self.expect("neck")
        lits = [self.parse_literal()]
        while kinds[self.i] == ",":
            self.i += 1
            lits.append(self.parse_literal())
        self.expect(".")
        return tuple(lits)

    def parse_literal(self) -> Literal:
        if self.kinds[self.i] == "negation":
            self.i += 1
            return Literal(False, self.parse_atom())
        return Literal(True, self.parse_atom())

    def parse_atom(self) -> Atom:
        """A predicate name and, in parentheses, its comma-separated terms."""
        kinds, texts, i = self.kinds, self.texts, self.i
        if kinds[i] != "ident":
            self.fail(f"expected a predicate name, found {texts[i] or 'end of input'!r}")
        if kinds[i + 1] != "(":
            self.i = i + 1
            return Atom(texts[i])
        args: list[Term] = []
        k = i + 2
        while True:
            kind = kinds[k]
            if kind == "var":
                args.append(Variable(texts[k]))
            elif kind in _CONSTANT_KINDS:
                args.append(Constant(texts[k]))
            else:
                self.i = k
                self.fail(f"expected a term, found {texts[k] or 'end of input'!r}")
            k += 1
            if kinds[k] != ",":
                break
            k += 1
        self.i = k
        self.expect(")")
        return Atom(texts[i], tuple(args))


def _validate(p: Program) -> None:
    for c in p.prob_clauses:
        if NONE_PREDICATE in [a.predicate for a, _ in c.explicit_heads] or _mentions_none(c.body):
            raise ProgramError(f"clause {c.cid}: predicate {NONE_PREDICATE!r} is reserved")
    for c in p.derived_clauses:
        if c.head.predicate == NONE_PREDICATE or (c.body and _mentions_none(c.body)):
            raise ProgramError(f"clause {c}: predicate {NONE_PREDICATE!r} is reserved")
    overlap = {
        f"{name}/{arity}"
        for name, arity in p.prob_predicates() & p.derived_predicates()
    }
    if overlap:
        raise ProgramError(
            "predicates head both probabilistic and derived clauses: "
            + ", ".join(sorted(overlap))
        )


def _mentions_none(q: Query) -> bool:
    return any(lit.atom.predicate == NONE_PREDICATE for lit in q)


def parse_program(text: str) -> Program:
    """Parse program source into a :class:`Program`.

    Probabilistic clauses get ids ``c1, c2, ...`` in source order.  Raises
    :class:`LpadSyntaxError` with a source position on bad syntax and
    :class:`ProgramError` on structural problems (reserved predicate,
    probability sums, mixed predicate kinds).
    """
    return _Parser(text).parse_program()


def parse_query(text: str) -> Query:
    """Parse a comma-separated literal conjunction (optional trailing dot)."""
    p = _Parser(text)
    lits = [p.parse_literal()]
    while p.kinds[p.i] == ",":
        p.i += 1
        lits.append(p.parse_literal())
    if p.kinds[p.i] == ".":
        p.i += 1
    if p.kinds[p.i] != "eof":
        p.fail("trailing text after query")
    if _mentions_none(lits):
        raise ProgramError(f"predicate {NONE_PREDICATE!r} is reserved")
    return tuple(lits)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def format_prob(p: float) -> str:
    """Shortest float literal that round-trips (repr of a Python float)."""
    return repr(p)


def print_program(p: Program) -> str:
    """Render a program as parseable source.

    Output order: ``%!read`` directives, probabilistic clauses (id order),
    derived clauses.  Implicit ``none`` heads are omitted, so parsing the
    output reproduces the program structurally.
    """
    lines = [a.to_source() for a in p.annotations]
    if lines and (p.prob_clauses or p.derived_clauses):
        lines.append("")
    lines.extend(str(c) for c in p.prob_clauses)
    lines.extend(str(c) for c in p.derived_clauses)
    return "\n".join(lines) + "\n"
