import pickle

import pytest

from lpadexpl.choice_algebra import parse_composite_set_text, parse_expr_text
from lpadexpl.errors import LpadSyntaxError, ProgramError
from lpadexpl.syntax import (
    Atom,
    Clause,
    Constant,
    Literal,
    Variable,
    apply_query,
    is_ground_atom,
    is_range_restricted,
    mgu,
    parse_program,
    parse_query,
    print_program,
    query_str,
)

from conftest import fixture_text


def test_parse_covid_programs():
    p = parse_program(fixture_text("covid_pos.lpad"))
    assert len(p.prob_clauses) == 2
    assert len(p.derived_clauses) == 6
    assert len(p.annotations) == 3
    n = parse_program(fixture_text("covid_neg.lpad"))
    assert len(n.prob_clauses) == 6
    assert len(n.derived_clauses) == 8
    assert len(n.annotations) == 8
    assert [c.cid for c in n.prob_clauses] == ["c1", "c2", "c3", "c4", "c5", "c6"]


def test_implicit_none_head():
    p = parse_program("covid(X):0.4; flu(X):0.3 :- contact(X).\ncontact(a).\n")
    c = p.prob_clauses[0]
    assert c.n_explicit == 2
    assert len(c.heads) == 3
    assert c.heads[2][0] == Atom("none")
    assert c.heads[2][1] == pytest.approx(0.3)
    # at most the explicit heads are printed back
    assert "none" not in print_program(p)


def test_no_none_head_when_probabilities_sum_to_one():
    p = parse_program("a:0.5; b:0.5.\n")
    c = p.prob_clauses[0]
    assert c.n_explicit == 2
    assert len(c.heads) == 2


def test_head_probability_errors():
    with pytest.raises(LpadSyntaxError):
        parse_program("a:0.7; b:0.5.\n")
    with pytest.raises(LpadSyntaxError):
        parse_program("a:-0.1.\n")


def test_reserved_none_predicate_rejected():
    with pytest.raises(ProgramError):
        parse_program("none:0.5.\n")
    with pytest.raises(ProgramError):
        parse_program("p :- none.\n")
    with pytest.raises(ProgramError):
        parse_query("none")


def test_predicate_heads_only_one_clause_kind():
    with pytest.raises(ProgramError):
        parse_program("p(a):0.5.\np(b).\n")


def test_parse_query_forms():
    q = parse_query("covid(p1), \\+flu(p2).")
    assert len(q) == 2
    assert q[0].positive and q[0].atom == Atom("covid", (Constant("p1"),))
    assert not q[1].positive
    assert parse_query("covid(p1)") == parse_query("covid(p1).")
    assert query_str(q) == "covid(p1), \\+flu(p2)"


def test_syntax_error_reports_position():
    with pytest.raises(LpadSyntaxError) as e:
        parse_program("p :- q(\n")
    assert "line" in str(e.value) and "column" in str(e.value)


def _parse_with(kind: str, text: str, g):
    if kind == "program":
        return parse_program(text)
    if kind == "query":
        return parse_query(text)
    if kind == "expr":
        return parse_expr_text(text, g)
    return parse_composite_set_text(text, g)


@pytest.mark.parametrize(
    "kind, text, position, message",
    [
        ("program", "% a comment line\np(a) :- q(a) $ r.\n", (2, 14),
         "unexpected character '$'"),
        ("program", "p :- q(\n", (2, 1), "expected a term, found 'end of input'"),
        ("program", "p :- q(", (1, 8), "expected a term, found 'end of input'"),
        ("program", "p(a).\r\nq(b).\r\n  r(c) @.\r\n", (3, 8), "unexpected character '@'"),
        ("program", "p(a).\r\nq(b) :- \r\n  r(c) r.\r\n", (3, 8), "expected '.', found 'r'"),
        ("program", '%!read young(A)\n as: "A is young"\nyoung(a):0.2.\n', (2, 6),
         'malformed %!read directive (expected, on one line: %!read <literal> as: "...")'),
        ("program", "a:0.5.\nb:0.2.\nc: -0.1.\n", (3, 4), "unexpected character '-'"),
        ("program", "a:0.5.\nb:0.2.\n  c:0.7; d:0.6.\n", (3, 3),
         "head probabilities of clause c3 sum to 1.2999999999999998 > 1"),
        ("program", "p(a).\nq; r.\n", (2, 2), "disjunctive heads require probability annotations"),
        ("query", "covid(p1),\n", (2, 1), "expected a predicate name, found 'end of input'"),
        ("query", "covid(p1). x", (1, 12), "trailing text after query"),
        ("expr", "(c1,[p1],1) &\n (c1,[p1],7)", (2, 11),
         "head index 7 out of range for c1 (instance has 2 heads)"),
        ("expr", "(c1,[p1],1) #", (1, 13), "unexpected character '#'"),
        ("set", "{{(c1,[p1],1)},{(c1,[p1],x)}}", (1, 26), "expected a head index, found 'x'"),
        ("set", "{{(c1,[p1],1)}}\n}", (2, 1), "trailing text in composite-choice set: '}'"),
    ],
)
def test_syntax_error_positions(kind, text, position, message, neg_ground_full):
    with pytest.raises(LpadSyntaxError) as e:
        _parse_with(kind, text, neg_ground_full)
    assert (e.value.line, e.value.column) == position
    assert str(e.value) == f"line {position[0]}, column {position[1]}: {message}"


def test_roundtrip_through_printer():
    p = parse_program(fixture_text("covid_neg.lpad"))
    again = parse_program(print_program(p))
    assert again.prob_clauses == p.prob_clauses
    assert again.derived_clauses == p.derived_clauses
    assert again.annotations == p.annotations


def test_malformed_directive_reports_position():
    with pytest.raises(LpadSyntaxError) as e:
        parse_program('young(a):0.2.\n%!read young(A) "A is young"\n')
    assert (e.value.line, e.value.column) == (2, 17)
    assert "malformed %!read directive" in str(e.value)
    # Every token of a directive sits on the line of %!read, and nothing
    # follows the template there.
    with pytest.raises(LpadSyntaxError) as e:
        parse_program('%!read young(A) as:\n"A is young"\n')
    assert (e.value.line, e.value.column) == (2, 1)
    with pytest.raises(LpadSyntaxError) as e:
        parse_program('%!read young(A) as: "A is young" young(a):0.2.\n')
    assert (e.value.line, e.value.column) == (1, 34)


def test_annotation_parsing():
    p = parse_program('%!read \\+young(A) as: "A is not young"\nyoung(a):0.2.\n')
    ann = p.annotations[0]
    assert not ann.pattern.positive
    assert ann.pattern.atom.predicate == "young"
    assert ann.template == "A is not young"


def test_mgu_basic():
    X, Y = Variable("X"), Variable("Y")
    s = mgu(Atom("p", (X, Constant("b"))), Atom("p", (Constant("a"), Y)))
    assert s == {X: Constant("a"), Y: Constant("b")}
    assert mgu(Atom("p", (X, X)), Atom("p", (Constant("a"), Constant("b")))) is None
    assert mgu(Atom("p", (X,)), Atom("q", (X,))) is None
    assert mgu(Atom("p", (X,)), Atom("p", (Y,))) in ({X: Y}, {Y: X})


def test_mgu_is_idempotent_on_chained_variables():
    X, Y = Variable("X"), Variable("Y")
    s = mgu(Atom("p", (X, Y)), Atom("p", (Y, Constant("a"))))
    assert apply_query(s, parse_query("p(X,Y)")) == parse_query("p(a,a)")


def test_atoms_know_they_are_ground():
    X, a = Variable("X"), Constant("a")
    for atom, ground in ((Atom("p"), True), (Atom("p", (a, a)), True), (Atom("p", (a, X)), False)):
        assert atom.ground is ground and is_ground_atom(atom) is ground
        assert pickle.loads(pickle.dumps(atom)).ground is ground


def test_range_restriction():
    ok, violations = is_range_restricted(parse_program(fixture_text("covid_neg.lpad")))
    assert ok and violations == []
    ok, violations = is_range_restricted(parse_program("p(X) :- q(Y).\nq(a).\n"))
    assert not ok and "X" in violations[0]
    # a negative literal does not bind head variables
    ok, _ = is_range_restricted(parse_program("p(X) :- \\+q(X).\nq(a).\n"))
    assert not ok
    ok, _ = is_range_restricted(parse_program("p(X):0.5 :- \\+q(X), r(X).\nr(a).\nq(a).\n"))
    assert ok


def test_literal_rendering():
    lit = parse_query("\\+flu(p2)")[0]
    assert str(lit) == "¬flu(p2)"
    assert lit.to_source() == "\\+flu(p2)"
    assert lit.negate().positive


def test_terms_and_atoms_are_hash_consed():
    assert Constant("a") is Constant("a")
    assert Constant("a") != Variable("a")
    atom = Atom("p", (Constant("a"),))
    assert parse_query("p(a)")[0].atom is atom
    assert Atom("none") is Atom("none", ())
    assert repr(atom) == "Atom(predicate='p', args=(Constant(name='a'),))"
    literal = Literal(False, atom)
    assert parse_query("\\+p(a)")[0] is literal
    assert Literal(positive=False, atom=atom) is literal and literal.negate() is Literal(True, atom)
    assert repr(literal) == "Literal(positive=False, atom=Atom(predicate='p', args=(Constant(name='a'),)))"
    clause = Clause(Atom("q"), (literal,))
    assert parse_program("q :- \\+p(a).\n").derived_clauses[0] is clause
    assert Clause(head=Atom("q"), body=(literal,)) is clause
    assert Clause(Atom("q")) is Clause(Atom("q"), ())
    assert repr(clause) == f"Clause(head=Atom(predicate='q', args=()), body=({literal!r},))"
    for value in (Constant("a"), Variable("X"), atom, literal, clause):
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        assert pickle.loads(pickle.dumps(value)) is value
