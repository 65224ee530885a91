import random

import pytest

from lpadexpl.choice_algebra import (
    BOT,
    TOP,
    AtomicChoice,
    Diagram,
    Not,
    complement_atomic,
    conj,
    disj,
    dnf,
    duals,
    equiv,
    eval_expr,
    gamma,
    hits,
    is_consistent,
    is_dnf,
    mins_set,
    otimes,
    parse_composite_set_text,
    parse_expr_text,
    render_composite_set,
    render_expr,
)
from lpadexpl.errors import LpadError
from lpadexpl.grounder import ground
from lpadexpl.slpdnf import success_expressions
from lpadexpl.syntax import parse_program, parse_query

import genprog
import oracles


def ac(g, cid, values, index):
    inst = g.instance_by_values(cid, tuple(values))
    return AtomicChoice(cid, inst.key, index)


def cs(text, g):
    return parse_composite_set_text(text, g)


def test_atomic_choice_rendering(neg_ground):
    a = ac(neg_ground, "c2", ("p1", "p2"), 1)
    assert str(a) == "(c2,{X/p1,Y/p2},1)"


def test_expression_str_parenthesises_like_render_expr(neg_ground):
    a = ac(neg_ground, "c1", ["p1"], 1)
    b = ac(neg_ground, "c4", ["p1"], 1)
    assert str(Not(conj([a, b]))) == "~((c1,{X/p1},1) & (c4,{X/p1},1))"
    assert str(conj([Not(a), b])) == "~(c1,{X/p1},1) & (c4,{X/p1},1)"
    assert str(conj([a, Not(disj([a, b]))])) == (
        "(c1,{X/p1},1) & ~((c1,{X/p1},1) | (c4,{X/p1},1))"
    )


def test_complement_of_atomic_choice(neg_ground):
    a = ac(neg_ground, "c6", ("p1",), 1)
    comp = complement_atomic(a, neg_ground)
    assert comp == frozenset(
        {ac(neg_ground, "c6", ("p1",), 2), ac(neg_ground, "c6", ("p1",), 3)}
    )
    with pytest.raises(LpadError):
        complement_atomic(AtomicChoice("c6", a.key, 9), neg_ground)


def test_duals_of_singleton(neg_ground):
    k1 = cs("{{(c6,[p1],1)}}", neg_ground)
    assert render_composite_set(duals(k1, neg_ground), neg_ground) == (
        "{{(c6,[p1],2)},{(c6,[p1],3)}}"
    )


def test_duals_of_two_composites(neg_ground):
    k2 = cs("{{(c5,[p1],1),(c6,[p1],2)},{(c5,[p1],1),(c6,[p1],3)}}", neg_ground)
    assert render_composite_set(duals(k2, neg_ground), neg_ground) == (
        "{{(c5,[p1],2)},{(c6,[p1],1)}}"
    )


def test_duals_of_empty_set_cover_everything(neg_ground):
    assert duals(frozenset(), neg_ground) == frozenset({frozenset()})
    assert render_composite_set(duals(frozenset(), neg_ground), neg_ground) == "{{}}"


def test_hits_keeps_raw_tuples(neg_ground):
    k2 = cs("{{(c5,[p1],1),(c6,[p1],2)},{(c5,[p1],1),(c6,[p1],3)}}", neg_ground)
    complements = [
        frozenset().union(*(complement_atomic(a, neg_ground) for a in kappa))
        for kappa in sorted(k2, key=len)
    ]
    raw = hits(complements)
    assert len(raw) == 9  # one pick per complement pair, duplicates kept
    assert mins_set(raw) == duals(k2, neg_ground)


def test_hits_trivial_cases(neg_ground):
    a, b = ac(neg_ground, "c6", ("p1",), 1), ac(neg_ground, "c6", ("p1",), 2)
    assert hits([]) == [frozenset()]
    assert set(hits([{a, b}])) == {frozenset({a}), frozenset({b})}


def test_mins_drops_supersets_and_inconsistent(neg_ground):
    a1 = ac(neg_ground, "c6", ("p1",), 1)
    a2 = ac(neg_ground, "c6", ("p1",), 2)
    b = ac(neg_ground, "c5", ("p1",), 1)
    assert not is_consistent(frozenset({a1, a2}))
    ks = [frozenset({a1, a2}), frozenset({b}), frozenset({b, a1})]
    assert mins_set(ks) == frozenset({frozenset({b})})


def test_otimes(neg_ground):
    k = cs("{{(c4,[p1],1)}}", neg_ground)
    d = cs("{{(c5,[p1],2)},{(c6,[p1],1)}}", neg_ground)
    assert otimes(k, d) == cs(
        "{{(c4,[p1],1),(c5,[p1],2)},{(c4,[p1],1),(c6,[p1],1)}}", neg_ground
    )


def test_gamma_units(neg_ground):
    assert gamma(BOT, neg_ground) == frozenset()
    assert gamma(TOP, neg_ground) == frozenset({frozenset()})


def test_gamma_of_conjunction_with_negation(neg_ground):
    e = parse_expr_text("(c5,[p1],1) & ~(c6,[p1],1)", neg_ground)
    assert gamma(e, neg_ground) == cs(
        "{{(c5,[p1],1),(c6,[p1],2)},{(c5,[p1],1),(c6,[p1],3)}}", neg_ground
    )


def test_dnf_units(neg_ground):
    a = ac(neg_ground, "c6", ("p1",), 1)
    assert dnf(conj([a, TOP])) == a
    assert dnf(conj([a, BOT])) == BOT
    assert dnf(disj([a, TOP])) == TOP
    assert dnf(disj([a, BOT])) == a


def test_dnf_same_instance_conflicts(neg_ground):
    a1 = ac(neg_ground, "c6", ("p1",), 1)
    a2 = ac(neg_ground, "c6", ("p1",), 2)
    assert dnf(conj([a1, a2])) == BOT
    # choosing index 1 already implies index 2 was not chosen
    assert dnf(conj([a1, Not(a2)])) == a1
    assert dnf(conj([a1, Not(a1)])) == BOT


def test_dnf_absorption(neg_ground):
    a = ac(neg_ground, "c5", ("p1",), 1)
    b = ac(neg_ground, "c6", ("p1",), 1)
    assert dnf(disj([a, conj([a, b])])) == a


def test_dnf_shape_and_soundness(neg_ground):
    a = ac(neg_ground, "c3", ("p1",), 1)
    b = ac(neg_ground, "c4", ("p1",), 1)
    c = ac(neg_ground, "c5", ("p1",), 1)
    e = conj([disj([a, b]), c])
    d = dnf(e)
    assert is_dnf(d)
    assert equiv(e, d, neg_ground)
    assert d == dnf(d)


def test_dnf_double_negation_and_de_morgan(neg_ground):
    a = ac(neg_ground, "c3", ("p1",), 1)
    b = ac(neg_ground, "c4", ("p1",), 1)
    assert dnf(Not(Not(a))) == a
    assert equiv(dnf(Not(conj([a, b]))), disj([Not(a), Not(b)]), neg_ground)
    assert equiv(dnf(Not(disj([a, b]))), conj([Not(a), Not(b)]), neg_ground)


def test_dnf_prunes_inconsistent_conjuncts(neg_ground):
    a1 = ac(neg_ground, "c6", ("p1",), 1)
    a2 = ac(neg_ground, "c6", ("p1",), 2)
    b = ac(neg_ground, "c5", ("p1",), 1)
    assert dnf(conj([disj([a1, a2]), conj([a1, b])])) == conj([a1, b])


def test_dnf_keeps_conjuncts_absorbed_before_a_later_join(neg_ground_full):
    # {¬(c2,[p1,p2],3)} ⊂ {¬(c2,[p1,p2],3), (c2,[p3,p3],2)} part-way through,
    # but after joining ¬(c2,[p3,p3],1) the chosen head drops that negation
    # from the superset only, so neither result contains the other.
    g = neg_ground_full
    e = parse_expr_text(
        "~((c2,[p1,p2],3) & (c1,[p3],1) | (c2,[p1,p2],3) & ~(c2,[p3,p3],2)"
        " | (c6,[p3],3) & (c2,[p3,p3],1))",
        g,
    )
    assert render_expr(dnf(e), g) == (
        "~(c1,[p3],1) & (c2,[p3,p3],2) | ~(c2,[p1,p2],3) & ~(c2,[p3,p3],1)"
        " | ~(c2,[p1,p2],3) & (c2,[p3,p3],2) | ~(c2,[p1,p2],3) & ~(c6,[p3],3)"
    )


def test_dnf_of_negated_units():
    assert dnf(Not(TOP)) == BOT
    assert dnf(Not(BOT)) == TOP


def test_diagram_is_canonical_on_generated_programs():
    """On genprog seeds 0-199, every success expression, their ∨ and its ¬

    compile to the same node as their DNFs."""
    for seed in range(200):
        text, query_text = genprog.generate(seed)
        g = ground(parse_program(text))
        exprs = success_expressions(parse_query(query_text), g)
        diagram = Diagram(g)
        for e in exprs + [disj(exprs), Not(disj(exprs))]:
            assert diagram.compile(e) == diagram.compile(dnf(e)), (seed, str(e))


def test_equiv_tautology(neg_ground):
    a = ac(neg_ground, "c6", ("p1",), 1)
    assert equiv(disj([a, Not(a)]), TOP, neg_ground)
    assert not equiv(a, TOP, neg_ground)


def test_equiv_answers_past_the_head_assignment_frontier():
    # 11 instances of four heads (three explicit and none): 4**11 assignments,
    # more than an enumeration within 10**6 could visit.
    people = "".join(f"person(p{n}).\n" for n in range(1, 12))
    g = ground(parse_program("h(X):0.2; i(X):0.2; j(X):0.2 :- person(X).\n" + people))
    firsts = [AtomicChoice(inst.cid, inst.key, 1) for inst in g.instances]
    e = disj(firsts)
    assert equiv(e, e, g)
    assert equiv(e, Not(conj(Not(a) for a in firsts)), g)
    assert not equiv(e, disj(firsts[1:]), g)
    assert equiv(conj([e, Not(firsts[0])]), conj([disj(firsts[1:]), Not(firsts[0])]), g)


def test_eval_expr(neg_ground):
    a = ac(neg_ground, "c6", ("p1",), 1)
    b = ac(neg_ground, "c5", ("p1",), 1)
    e = conj([b, Not(a)])
    key_a, key_b = (a.cid, a.key), (b.cid, b.key)
    assert eval_expr(e, {key_a: 2, key_b: 1})
    assert not eval_expr(e, {key_a: 1, key_b: 1})
    assert not eval_expr(e, {key_a: 2, key_b: 2})


def test_expression_parsing_roundtrip(neg_ground):
    text = "(c3,[p1],1) & ~(c4,[p1],1) | ~((c5,[p1],1) & (c6,[p1],2))"
    e = parse_expr_text(text, neg_ground)
    again = parse_expr_text(render_expr(e, neg_ground), neg_ground)
    assert again == e


def test_composite_set_parsing_roundtrip(neg_ground):
    text = "{{(c5,[p1],2)},{(c6,[p1],1)}}"
    ks = cs(text, neg_ground)
    assert render_composite_set(ks, neg_ground) == text
    assert cs("{}", neg_ground) == frozenset()
    assert cs("{{}}", neg_ground) == frozenset({frozenset()})


@pytest.mark.parametrize("seed", range(20))
def test_composite_set_rendering_matches_its_definition(neg_ground_full, seed):
    # Twelve clauses, so that natural order (c2 < c10) decides some ties.
    twelve = ground(parse_program("".join(f"a{i}:0.5; b{i}:0.3.\n" for i in range(1, 13))))
    rng = random.Random(seed)
    for g in (neg_ground_full, twelve):
        choices = [
            AtomicChoice(inst.cid, inst.key, index)
            for inst in g.instances
            for index in range(1, inst.n_heads + 1)
        ]
        ks = {frozenset(rng.sample(choices, rng.randint(0, 6))) for _ in range(rng.randint(0, 40))}
        assert render_composite_set(ks, g) == oracles.composite_set_text(ks, g)


def test_duals_complement_property_on_fixture(neg_ground_min):
    g = neg_ground_min
    k = cs("{{(c3,[p1],1)},{(c4,[p1],1),(c5,[p1],2)}}", g)
    d = duals(k, g)
    assert oracles.coverage(d, g) == oracles.complement_coverage(k, g)


def test_gamma_matches_dnf_coverage(neg_ground_min):
    g = neg_ground_min
    e = parse_expr_text(
        "~((c3,[p1],1) | (c4,[p1],1) & ~(c5,[p1],1))", g
    )
    cover_gamma = oracles.coverage(gamma(e, g), g)
    cover_dnf = oracles.coverage(gamma(dnf(e), g), g)
    assert cover_gamma == cover_dnf
