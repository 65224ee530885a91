"""Reduction to choice facts: trp, trc, desugaring, and the probability route."""

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
from lpadexpl.semantics import event_prob
from lpadexpl.slpdnf import build_tree
from lpadexpl.syntax import parse_query
from lpadexpl.transform import (
    GAnd,
    GLit,
    GOr,
    desugar,
    print_transform,
    prob_via_transform,
    render_goal,
    trc,
    trp,
)


def ac(g, cid, values, index):
    inst = g.instance_by_values(cid, tuple(values))
    return AtomicChoice(inst.cid, inst.key, index)


def negation_path_expr(g):
    exprs = build_tree(parse_query("covid(p1)"), g).success_expressions()
    return dnf(exprs[1])


def test_print_transform_one_choice_fact_per_instance(neg_ground_min):
    assert print_transform(neg_ground_min) == (
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


def test_trc_units_render_as_true_and_false(neg_ground_min):
    assert render_goal(trc(TOP, neg_ground_min)) == "true"
    assert render_goal(trc(BOT, neg_ground_min)) == "false"


def test_trc_explicit_head_becomes_one_ch_literal(neg_ground_min):
    goal = trc(ac(neg_ground_min, "c5", ["p1"], 1), neg_ground_min)
    assert isinstance(goal, GLit)
    assert render_goal(goal) == "ch(c5,[p1],1)"


def test_trc_none_head_negates_all_explicit_ch_atoms(neg_ground_min):
    goal = trc(ac(neg_ground_min, "c3", ["p1"], 4), neg_ground_min)
    assert isinstance(goal, GAnd)
    assert (
        render_goal(goal) == "\\+ch(c3,[p1],1),\\+ch(c3,[p1],2),\\+ch(c3,[p1],3)"
    )
    # with a single explicit head the conjunction collapses to one literal
    single = trc(ac(neg_ground_min, "c4", ["p1"], 2), neg_ground_min)
    assert render_goal(single) == "\\+ch(c4,[p1],1)"


def test_trc_of_the_negation_path_explanation(neg_ground_min):
    e = negation_path_expr(neg_ground_min)
    assert render_expr(e, neg_ground_min) == (
        "(c1,[p2],1) & (c2,[p1,p2],1) & ~(c3,[p1],1) & ~(c4,[p1],1)"
        " | (c1,[p2],1) & (c2,[p1,p2],1) & ~(c3,[p1],1) & (c5,[p1],1) & ~(c6,[p1],1)"
    )
    assert render_goal(trc(e, neg_ground_min)) == (
        "ch(c1,[p2],1),ch(c2,[p1,p2],1),\\+ch(c3,[p1],1),\\+ch(c4,[p1],1)"
        "; ch(c1,[p2],1),ch(c2,[p1,p2],1),\\+ch(c3,[p1],1),ch(c5,[p1],1),\\+ch(c6,[p1],1)"
    )


def test_trc_compound_negation_parenthesized(neg_ground_min):
    e = Not(conj([ac(neg_ground_min, "c1", ["p1"], 1), ac(neg_ground_min, "c4", ["p1"], 1)]))
    assert render_goal(trc(e, neg_ground_min)) == "\\+(ch(c1,[p1],1),ch(c4,[p1],1))"


def test_desugar_disjunction_makes_one_aux_predicate(neg_ground_min):
    goal = trc(negation_path_expr(neg_ground_min), neg_ground_min)
    assert isinstance(goal, GOr)
    aux, query = desugar(goal)
    assert len(aux) == 2
    assert {str(c.head) for c in aux} == {"aux1"}
    assert [str(lit) for lit in query] == ["aux1"]
    assert len(aux[0].body) == 4 and len(aux[1].body) == 5


def test_desugar_literal_and_conjunction_pass_through(neg_ground_min):
    lit_goal = trc(ac(neg_ground_min, "c5", ["p1"], 1), neg_ground_min)
    aux, query = desugar(lit_goal)
    assert aux == () and [str(l) for l in query] == ["ch(c5,[p1],1)"]
    and_goal = trc(ac(neg_ground_min, "c3", ["p1"], 4), neg_ground_min)
    aux, query = desugar(and_goal)
    assert aux == () and len(query) == 3


def test_prob_via_transform_units(neg_ground_min):
    assert prob_via_transform(TOP, neg_ground_min) == 1.0
    assert prob_via_transform(BOT, neg_ground_min) == 0.0
    # an embedded unit is propagated away before transforming
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
        # a negated none head desugars through an auxiliary clause
        Not(ac(g, "c3", ["p1"], 4)),
        Not(ac(g, "c4", ["p1"], 2)),
    ]
    for e in cases:
        assert prob_via_transform(e, g) == pytest.approx(
            event_prob(e, g), abs=1e-9
        )
