"""Reduction to choice facts: trp, trc, and the probability route."""

import pytest

from lpadexpl.choice_algebra import (
    BOT,
    TOP,
    And,
    AtomicChoice,
    Not,
    conj,
    disj,
    dnf,
    render_expr,
)
from lpadexpl.grounder import ground
from lpadexpl.semantics import event_prob, success_prob
from lpadexpl.slpdnf import build_tree, success_expressions
from lpadexpl.syntax import parse_program, parse_query, print_program, query_str
from lpadexpl.transform import prob_via_transform, trc, trp

import genprog


def ac(g, cid, values, index):
    inst = g.instance_by_values(cid, tuple(values))
    return AtomicChoice(inst.cid, inst.key, index)


def negation_path_expr(g):
    exprs = build_tree(parse_query("covid(p1)"), g).success_expressions()
    return dnf(exprs[1])


def translation(e, g):
    """``trc``'s output as (query text, [aux clause text])."""
    aux, query = trc(e, g)
    return query_str(query), [str(c) for c in aux]


def test_trp_prints_one_choice_fact_per_instance(neg_ground_min):
    assert print_program(trp(neg_ground_min)) == (
        "ch(c1,[p1],1):0.9.\n"
        "ch(c1,[p2],1):0.9.\n"
        "ch(c2,[p1,p2],1):0.4; ch(c2,[p1,p2],2):0.3.\n"
        "ch(c3,[p1],1):0.3; ch(c3,[p1],2):0.4; ch(c3,[p1],3):0.1.\n"
        "ch(c4,[p1],1):0.8.\n"
        "ch(c5,[p1],1):0.6.\n"
        "ch(c6,[p1],1):0.2; ch(c6,[p1],2):0.5.\n"
    )


def test_trp_preserves_head_probabilities(neg_ground_min):
    program = trp(neg_ground_min)
    assert len(program.prob_clauses) == 7
    by_first_head = {str(c.heads[0][0]): c for c in program.prob_clauses}
    c3 = by_first_head["ch(c3,[p1],1)"]
    assert [p for _, p in c3.heads] == pytest.approx([0.3, 0.4, 0.1, 0.2])
    assert c3.n_explicit == 3  # the none head stays implicit
    assert all(not c.body for c in program.prob_clauses)


def test_trc_units(neg_ground_min):
    assert translation(TOP, neg_ground_min) == ("", [])
    # the negation of a fresh fact fails
    assert translation(BOT, neg_ground_min) == ("\\+aux1", ["aux1."])


def test_trc_explicit_head_becomes_one_ch_literal(neg_ground_min):
    e = ac(neg_ground_min, "c5", ["p1"], 1)
    assert translation(e, neg_ground_min) == ("ch(c5,[p1],1)", [])


def test_trc_none_head_negates_all_explicit_ch_atoms(neg_ground_min):
    e = ac(neg_ground_min, "c3", ["p1"], 4)
    assert translation(e, neg_ground_min) == (
        "\\+ch(c3,[p1],1), \\+ch(c3,[p1],2), \\+ch(c3,[p1],3)",
        [],
    )
    # with a single explicit head the query is one literal
    single = ac(neg_ground_min, "c4", ["p1"], 2)
    assert translation(single, neg_ground_min) == ("\\+ch(c4,[p1],1)", [])


def test_trc_compound_negation_gets_an_aux_clause(neg_ground_min):
    e = Not(conj([ac(neg_ground_min, "c1", ["p1"], 1), ac(neg_ground_min, "c4", ["p1"], 1)]))
    assert translation(e, neg_ground_min) == (
        "\\+aux1",
        ["aux1 :- ch(c1,[p1],1), ch(c4,[p1],1)."],
    )


def test_trc_disjunction_makes_one_aux_predicate(neg_ground_min):
    e = negation_path_expr(neg_ground_min)
    assert render_expr(e, neg_ground_min) == (
        "(c1,[p2],1) & (c2,[p1,p2],1) & ~(c3,[p1],1) & ~(c4,[p1],1)"
        " | (c1,[p2],1) & (c2,[p1,p2],1) & ~(c3,[p1],1) & (c5,[p1],1) & ~(c6,[p1],1)"
    )
    assert translation(e, neg_ground_min) == (
        "aux1",
        [
            "aux1 :- ch(c1,[p2],1), ch(c2,[p1,p2],1), \\+ch(c3,[p1],1), \\+ch(c4,[p1],1).",
            "aux1 :- ch(c1,[p2],1), ch(c2,[p1,p2],1), \\+ch(c3,[p1],1), ch(c5,[p1],1),"
            " \\+ch(c6,[p1],1).",
        ],
    )


def test_trc_nested_aux_clauses_precede_their_callers(neg_ground_min):
    # an aux predicate is named before its body is translated, so an outer
    # one gets the lower number while the inner clauses are emitted first
    g = neg_ground_min
    inner = disj([ac(g, "c5", ["p1"], 1), ac(g, "c6", ["p1"], 2)])
    e = disj([Not(inner), ac(g, "c3", ["p1"], 2)])
    assert translation(e, g) == (
        "aux1",
        [
            "aux1 :- ch(c3,[p1],2).",
            "aux3 :- ch(c5,[p1],1).",
            "aux3 :- ch(c6,[p1],2).",
            "aux2 :- aux3.",
            "aux1 :- \\+aux2.",
        ],
    )


def test_prob_via_transform_units(neg_ground_min):
    assert prob_via_transform(TOP, neg_ground_min) == 1.0
    assert prob_via_transform(BOT, neg_ground_min) == 0.0
    # an embedded ⊥ is translated in place
    a = ac(neg_ground_min, "c1", ["p1"], 1)
    assert prob_via_transform(And((BOT, a)), neg_ground_min) == 0.0


def test_prob_via_transform_pinned_values(neg_ground_min):
    g = neg_ground_min
    exprs = build_tree(parse_query("covid(p1)"), g).success_expressions()
    assert prob_via_transform(disj(exprs), g) == pytest.approx(0.9147168, abs=1e-9)
    assert prob_via_transform(negation_path_expr(g), g) == pytest.approx(
        0.147168, abs=1e-9
    )


def test_prob_via_transform_agrees_with_event_prob(neg_ground_min):
    g = neg_ground_min
    cases = [
        ac(g, "c5", ["p1"], 1),
        ac(g, "c3", ["p1"], 4),
        Not(conj([ac(g, "c1", ["p1"], 1), ac(g, "c4", ["p1"], 1)])),
        disj([ac(g, "c6", ["p1"], 2), conj([ac(g, "c5", ["p1"], 1), Not(ac(g, "c3", ["p1"], 2))])]),
        # a negated none head is translated through an auxiliary clause
        Not(ac(g, "c3", ["p1"], 4)),
        Not(ac(g, "c4", ["p1"], 2)),
    ]
    for e in cases:
        assert prob_via_transform(e, g) == pytest.approx(
            event_prob(e, g), abs=1e-9
        )


def test_prob_via_transform_translates_a_negation_without_expanding_it():
    # The DNF of this negation has 2^20 conjuncts; trc writes 21 aux clauses.
    g = ground(parse_program("".join(f"a{i}:0.{i % 9 + 1}.\nb{i}:0.5.\n" for i in range(20))))
    pairs = [conj([ac(g, f"c{2 * i + 1}", [], 1), ac(g, f"c{2 * i + 2}", [], 1)]) for i in range(20)]
    e = Not(disj(pairs))
    assert prob_via_transform(e, g) == event_prob(e, g)


@pytest.mark.parametrize("full_heads", [False, True])
def test_three_routes_agree_on_random_programs(full_heads):
    """On genprog seeds 0-499: the engine, the choice-fact transform of the

    success expressions and the world oracle give the same probability."""
    for seed in range(500):
        text, query_text = genprog.generate(seed, full_heads=full_heads)
        g = ground(parse_program(text))
        q = parse_query(query_text)
        engine = success_prob(q, g)
        transformed = prob_via_transform(disj(success_expressions(q, g)), g)
        oracle = success_prob(q, g, method="oracle")
        assert transformed == pytest.approx(engine, abs=1e-9), seed
        assert oracle == pytest.approx(engine, abs=1e-9), seed
