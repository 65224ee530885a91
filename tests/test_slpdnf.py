import math

import pytest

from lpadexpl.choice_algebra import gamma, render_expr
from lpadexpl.errors import DepthLimitError, ProgramError
from lpadexpl.grounder import ground
from lpadexpl.semantics import success_prob
from lpadexpl.slpdnf import (
    FAILED,
    SUCCESS,
    answers,
    build_tree,
    derivations,
    expl,
    success_expressions,
)
from lpadexpl.syntax import Literal, parse_program, parse_query

import oracles


def walk(node):
    yield node
    for _, child in node.children:
        yield from walk(child)


def find_goal(tree, literal_text):
    lit = parse_query(literal_text.replace("¬", "\\+"))[0]
    for node in walk(tree.root):
        if node.query and node.query[0] == lit:
            return node
    raise AssertionError(f"no node selects {literal_text}")


def test_expl_covid_pos(pos_ground):
    ks = expl(parse_query("covid(p1)"), pos_ground)
    rendered = {
        tuple(sorted(str(a) for a in kappa)) for kappa in ks
    }
    assert rendered == {
        ("(c1,{X/p1},1)",),
        ("(c1,{X/p2},1)", "(c2,{X/p1,Y/p2},1)"),
    }


def test_success_expressions_covid_neg(neg_ground):
    exprs = success_expressions(parse_query("covid(p1)"), neg_ground)
    assert len(exprs) == 2
    assert render_expr(exprs[0], neg_ground) == "(c1,[p1],1)"
    assert render_expr(exprs[1], neg_ground) == (
        "(c1,[p2],1) & (c2,[p1,p2],1) & ~(c3,[p1],1) & ~(c4,[p1],1)"
        " | (c1,[p2],1) & (c2,[p1,p2],1) & ~(c3,[p1],1) & (c5,[p1],1) & ~(c6,[p1],1)"
    )
    assert [len(gamma(e, neg_ground)) for e in exprs] == [1, 9]


def test_negative_literal_spawns_single_child_with_expression(neg_ground):
    tree = build_tree(parse_query("covid(p1)"), neg_ground)
    node = find_goal(tree, "¬protected(p1)")
    assert len(node.children) == 1
    edge, child = node.children[0]
    assert edge.kind == "neg"
    assert render_expr(edge.expr, neg_ground) == (
        "~(c3,[p1],1) & ~(c4,[p1],1) | ~(c3,[p1],1) & (c5,[p1],1) & ~(c6,[p1],1)"
    )


def test_subsidiary_trees_are_cached_per_atom(neg_ground):
    # ¬protected(p1) is reached twice; its subsidiary tree (and the nested
    # ones for vulnerable/young) is built once and reused
    tree = build_tree(parse_query("covid(p1), covid(p1)"), neg_ground)
    assert {str(a) for a in tree.subs} == {
        "protected(p1)",
        "vulnerable(p1)",
        "young(p1)",
    }


def test_probabilistic_branching_order(pos_ground):
    tree = build_tree(parse_query("covid(p1)"), pos_ground)
    labels = [edge.choice for edge, _ in tree.root.children]
    assert [str(a) for a in labels] == [
        "(c1,{X/p1},1)",
        "(c2,{X/p1,Y/p1},1)",
        "(c2,{X/p1,Y/p2},1)",
        "(c2,{X/p1,Y/p3},1)",
    ]


def test_failed_markings():
    g = ground(parse_program("q(a).\n"))
    tree = build_tree(parse_query("q(b)"), g)
    assert tree.root.marking == FAILED
    assert answers(parse_query("q(b)"), g) == []


def test_success_marking_and_answers(pos_ground):
    ans = answers(parse_query("covid(X)"), pos_ground)
    assert [a.substitution for a in ans] == [
        (("X", "p1"),),
        (("X", "p2"),),
        (("X", "p1"),),
    ]


def test_empty_query_succeeds(pos_ground):
    tree = build_tree((), pos_ground)
    assert tree.root.marking == SUCCESS
    assert expl((), pos_ground) == frozenset({frozenset()})


def test_nonground_negative_literal_flounders():
    # clause bodies are fully ground after grounding, so the only way to
    # select a nonground negative literal is to ask for one directly
    g = ground(parse_program("r(a):0.5.\n"))
    with pytest.raises(ProgramError, match=r"negative literal \\\+r\(X\) is not ground"):
        build_tree(parse_query("\\+r(X)"), g)


def test_nonground_goal_skips_heads_that_do_not_unify():
    # q(a,c) and r(a,c) do not unify with the goals q(X,b) and r(Y,b)
    g = ground(parse_program("r(a,c):0.3.\nr(d,b):0.6.\nr(e,b):0.5.\nq(X,Y) :- r(X,Y).\n"))
    instances = [parse_query(f"q({x},b), r({y},b)") for x in "de" for y in "de"]
    worlds = {s for q in instances for s in oracles.satisfying_selections(q, g)}
    expected = math.fsum(oracles.selection_prob(s, g) for s in worlds)
    assert expected == pytest.approx(0.8)
    assert success_prob(parse_query("q(X,b), r(Y,b)"), g) == pytest.approx(expected, abs=1e-9)


def test_unknown_predicate_in_query_rejected(pos_ground):
    with pytest.raises(ProgramError):
        build_tree(parse_query("mystery(p1)"), pos_ground)


def test_negation_of_undefined_predicate_succeeds():
    g = ground(parse_program("p :- \\+q.\nq :- r(a).\nr(a):0.5.\n"))
    # r(a) can hold, so q can hold; but an undefined body atom simply fails
    g2 = ground(parse_program("p :- \\+missing.\nmissing :- r(a), \\+r(a).\nr(a):0.5.\n"))
    assert expl(parse_query("p"), g2) == frozenset({frozenset()})


def test_depth_limit():
    g = ground(parse_program("loop(X) :- loop(X).\nloop(a).\n"))
    with pytest.raises(DepthLimitError):
        build_tree(parse_query("loop(a)"), g, depth_limit=50)


def test_derivation_substitution(pos_ground):
    tree = build_tree(parse_query("covid(X)"), pos_ground)
    second = derivations(tree)[2]
    sigma = second.substitution()
    applied = {v.name: t.name for v, t in sigma.items()}
    assert applied["X"] == "p1"


def test_expl_requires_ground_query(pos_ground):
    with pytest.raises(ProgramError):
        expl(parse_query("covid(X)"), pos_ground)
