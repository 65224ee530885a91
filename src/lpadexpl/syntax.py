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


@dataclass(frozen=True, slots=True)
class Constant:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return self.name


Term = Constant | Variable


@dataclass(frozen=True, slots=True)
class Atom:
    predicate: str
    args: tuple[Term, ...] = ()

    @property
    def pred(self) -> tuple[str, int]:
        return (self.predicate, len(self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(str(a) for a in self.args)})"


@dataclass(frozen=True, slots=True)
class Literal:
    positive: bool
    atom: Atom

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


@dataclass(frozen=True, slots=True)
class Clause:
    """A derived clause ``head :- body`` (a fact when the body is empty)."""

    head: Atom
    body: Query = ()

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
        names: set[str] = set()
        for c in self.prob_clauses:
            for a, _ in c.heads:
                names.update(t.name for t in a.args if isinstance(t, Constant))
            _collect_query_constants(c.body, names)
        for c in self.derived_clauses:
            names.update(t.name for t in c.head.args if isinstance(t, Constant))
            _collect_query_constants(c.body, names)
        return sorted(names)


def _collect_query_constants(q: Query, into: set[str]) -> None:
    for lit in q:
        into.update(t.name for t in lit.atom.args if isinstance(t, Constant))


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


def compose(s1: Substitution, s2: Substitution) -> Substitution:
    """The substitution equivalent to applying ``s1`` and then ``s2``."""
    out: Substitution = {}
    for v, t in s1.items():
        t2 = apply_term(s2, t)
        if t2 != v:
            out[v] = t2
    for v, t in s2.items():
        if v not in s1 and t != v:
            out[v] = t
    return out


def is_ground_atom(a: Atom) -> bool:
    return all(isinstance(t, Constant) for t in a.args)


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

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<read>%!read\w*)
    | (?P<comment>%[^\n]*)
    | (?P<neck>:-)
    | (?P<negation>\\\+)
    | (?P<number>\d+\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
    | (?P<bracket>\[[A-Za-z0-9_,]*\])
    | (?P<ident>[a-z][A-Za-z0-9_]*)
    | (?P<var>[A-Z_][A-Za-z0-9_]*)
    | (?P<string>"(?:[^"\\\n]|\\.)*")
    | (?P<punct>[().,;:~&|{}])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LpadSyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        tok_text = m.group()
        if kind not in ("ws", "comment"):
            col = m.start() - line_start + 1
            if kind == "punct":
                kind = tok_text
            tokens.append(_Token(kind, tok_text, line, col))
        newlines = tok_text.count("\n")
        if newlines:
            line += newlines
            line_start = m.start() + tok_text.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        t = self.cur
        self.i += 1
        return t

    def expect(self, kind: str) -> _Token:
        if self.cur.kind != kind:
            self.fail(f"expected {kind!r}, found {self.cur.text or 'end of input'!r}")
        return self.advance()

    def fail(self, message: str):
        raise LpadSyntaxError(message, self.cur.line, self.cur.column)

    # -- grammar ------------------------------------------------------------

    def parse_program(self) -> Program:
        prob: list[ProbClause] = []
        derived: list[Clause] = []
        annotations: list[Annotation] = []
        while self.cur.kind != "eof":
            if self.cur.kind == "read":
                annotations.append(self.parse_directive())
                continue
            self.parse_clause(prob, derived)
        program = Program(tuple(prob), tuple(derived), tuple(annotations))
        _validate(program)
        return program

    def parse_directive(self) -> Annotation:
        """``%!read <literal> as: "<template>"``, all on the line of ``%!read``."""
        keyword = self.advance()
        if keyword.text == "%!read":
            pattern = self.parse_literal()
            if self.cur.text == "as" and self.tokens[self.i + 1].kind == ":":
                self.i += 2
                template = self.cur
                if template.kind == "string" and template.line == keyword.line:
                    self.advance()
                    if self.cur.kind == "eof" or self.cur.line != keyword.line:
                        text = template.text[1:-1].replace('\\"', '"').replace("\\\\", "\\")
                        return Annotation(pattern, text)
        self.fail('malformed %!read directive (expected, on one line: %!read <literal> as: "...")')

    def parse_clause(self, prob: list[ProbClause], derived: list[Clause]) -> None:
        first_tok = self.cur
        head = self.parse_atom()
        if self.cur.kind == ":":
            heads = [(head, self.parse_annotation_prob())]
            while self.cur.kind == ";":
                self.advance()
                a = self.parse_atom()
                self.expect(":")
                heads.append((a, self.parse_prob()))
            body = self.parse_optional_body()
            cid = f"c{len(prob) + 1}"
            prob.append(_make_prob_clause(cid, heads, body, first_tok))
        elif self.cur.kind == ";":
            self.fail("disjunctive heads require probability annotations")
        else:
            body = self.parse_optional_body()
            derived.append(Clause(head, body))

    def parse_annotation_prob(self) -> float:
        self.expect(":")
        return self.parse_prob()

    def parse_prob(self) -> float:
        tok = self.expect("number")
        return float(tok.text)

    def parse_optional_body(self) -> Query:
        if self.cur.kind == ".":
            self.advance()
            return ()
        self.expect("neck")
        lits = [self.parse_literal()]
        while self.cur.kind == ",":
            self.advance()
            lits.append(self.parse_literal())
        self.expect(".")
        return tuple(lits)

    def parse_literal(self) -> Literal:
        if self.cur.kind == "negation":
            self.advance()
            return Literal(False, self.parse_atom())
        return Literal(True, self.parse_atom())

    def parse_atom(self) -> Atom:
        tok = self.cur
        if tok.kind != "ident":
            self.fail(f"expected a predicate name, found {tok.text or 'end of input'!r}")
        self.advance()
        args: list[Term] = []
        if self.cur.kind == "(":
            self.advance()
            args.append(self.parse_term())
            while self.cur.kind == ",":
                self.advance()
                args.append(self.parse_term())
            self.expect(")")
        return Atom(tok.text, tuple(args))

    def parse_term(self) -> Term:
        tok = self.cur
        if tok.kind in ("ident", "number", "bracket"):
            self.advance()
            return Constant(tok.text)
        if tok.kind == "var":
            self.advance()
            return Variable(tok.text)
        self.fail(f"expected a term, found {tok.text or 'end of input'!r}")
        raise AssertionError("unreachable")


def _make_prob_clause(
    cid: str,
    heads: list[tuple[Atom, float]],
    body: Query,
    tok: _Token,
) -> ProbClause:
    total = sum(p for _, p in heads)
    if any(p < 0 for _, p in heads):
        raise LpadSyntaxError(
            f"negative probability in clause {cid}", tok.line, tok.column
        )
    if total > 1 + PROB_SUM_TOLERANCE:
        raise LpadSyntaxError(
            f"head probabilities of clause {cid} sum to {total!r} > 1",
            tok.line,
            tok.column,
        )
    n_explicit = len(heads)
    all_heads = list(heads)
    if 1 - total > PROB_SUM_TOLERANCE:
        all_heads.append((Atom(NONE_PREDICATE), 1 - total))
    return ProbClause(cid, tuple(all_heads), body, n_explicit)


def _validate(p: Program) -> None:
    for c in p.prob_clauses:
        for a, _ in c.explicit_heads:
            if a.predicate == NONE_PREDICATE:
                raise ProgramError(
                    f"clause {c.cid}: predicate {NONE_PREDICATE!r} is reserved"
                )
        _check_reserved(c.body, c.cid)
    for c in p.derived_clauses:
        if c.head.predicate == NONE_PREDICATE:
            raise ProgramError(f"clause {c}: predicate {NONE_PREDICATE!r} is reserved")
        _check_reserved(c.body, str(c))
    overlap = {
        f"{name}/{arity}"
        for name, arity in p.prob_predicates() & p.derived_predicates()
    }
    if overlap:
        raise ProgramError(
            "predicates head both probabilistic and derived clauses: "
            + ", ".join(sorted(overlap))
        )


def _check_reserved(q: Query, where: str) -> None:
    for lit in q:
        if lit.atom.predicate == NONE_PREDICATE:
            raise ProgramError(f"clause {where}: predicate {NONE_PREDICATE!r} is reserved")


def parse_program(text: str) -> Program:
    """Parse program source into a :class:`Program`.

    Probabilistic clauses get ids ``c1, c2, ...`` in source order.  Raises
    :class:`LpadSyntaxError` with a source position on bad syntax and
    :class:`ProgramError` on structural problems (reserved predicate,
    probability sums, mixed predicate kinds).
    """
    return _Parser(_tokenize(text)).parse_program()


def parse_query(text: str) -> Query:
    """Parse a comma-separated literal conjunction (optional trailing dot)."""
    p = _Parser(_tokenize(text))
    lits = [p.parse_literal()]
    while p.cur.kind == ",":
        p.advance()
        lits.append(p.parse_literal())
    if p.cur.kind == ".":
        p.advance()
    if p.cur.kind != "eof":
        p.fail("trailing text after query")
    for lit in lits:
        if lit.atom.predicate == NONE_PREDICATE:
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
