import gc
import math

import pytest

from lpadexpl import slpdnf
from lpadexpl.choice_algebra import FALSE, Diagram, Or, conj, conjoin_dnf, disj, dnf, gamma, render_expr
from lpadexpl.errors import DepthLimitError, ProgramError
from lpadexpl.grounder import ground
from lpadexpl.semantics import event_prob, success_prob
from lpadexpl.slpdnf import (
    FAILED,
    SUCCESS,
    answers,
    build_tree,
    derivations,
    expl,
    query_diagram,
    success_expressions,
)
from lpadexpl.syntax import Literal, parse_program, parse_query

from conftest import load_families
import genprog
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


def test_the_fold_drops_the_conjuncts_no_world_satisfies():
    # ¬b is ¬f(1) ∨ h and ¬c is ¬f(2).  f has no head besides f(1) and f(2),
    # so the conjunct ¬f(1) ∧ ¬f(2) denotes no world and goes.
    g = ground(parse_program(
        "f(1):0.5; f(2):0.5.\nh:0.5.\nb :- f(1), \\+h.\nc :- f(2).\na :- \\+b, \\+c.\n"
    ))
    exprs = success_expressions(parse_query("a"), g)
    assert [render_expr(e, g) for e in exprs] == ["~(c1,[],2) & (c2,[],1)"]
    assert_table_is_tree(parse_query("a"), g, "a")


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
    labels = [edge.expr for edge, _ in tree.root.children]
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


def test_answers_of_a_conjunctive_query_join_bindings_from_every_step(pos_ground):
    # contact(X,Y) binds both variables at the first step; covid(X) binds X
    # at the first step and contact(X,Y) binds Y at a later one.
    both = (("X", "p1"), ("Y", "p2"))
    ans = answers(parse_query("contact(X,Y), covid(Y)"), pos_ground)
    assert [(a.substitution, render_expr(a.expr, pos_ground)) for a in ans] == [
        (both, "(c1,[p2],1)")
    ]
    q = parse_query("covid(X), contact(X,Y)")
    ans = answers(q, pos_ground)
    assert [(a.substitution, render_expr(a.expr, pos_ground)) for a in ans] == [
        (both, "(c1,[p1],1)"),
        (both, "(c1,[p2],1) & (c2,[p1,p2],1)"),
    ]
    grounded = parse_query("covid(p1), contact(p1,p2)")
    assert [a.expr for a in ans] == success_expressions(grounded, pos_ground)


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


# ---------------------------------------------------------------------------
# The tabled walk against the tree
# ---------------------------------------------------------------------------


def test_build_tree_leaves_no_cyclic_garbage():
    # Only the returned tree holds the subsidiary trees: a subsidiary tree
    # that held them too would make a cycle for the collector to find.
    text, restriction = load_families().star(4)
    g = ground(parse_program(text), restriction=restriction)
    q = parse_query("\\+covid(p1)")
    gc.collect()
    gc.disable()
    try:
        tree = build_tree(q, g)
        del tree
        assert gc.collect() == 0
    finally:
        gc.enable()


def assert_table_is_tree(q, g, label):
    """One diagram holds the walk's node and the node compiled from the

    tree's success expressions; canonicity makes them one node.  In the
    tree's own diagram, the tree's ``success`` is that node too, each leaf's
    node is its derivation's folded expression compiled, its mass is that
    expression's event_prob, bit for bit, and no conjunct of the expression
    is FALSE."""
    diagram = Diagram(g)
    node = query_diagram(q, g, diagram)
    assert node is not None, label
    tree = build_tree(q, g)
    success = disj(tree.success_expressions())
    assert node == diagram.compile(success), label
    assert tree.success == tree.diagram.compile(success), label
    for d, expr in zip(derivations(tree), tree.success_expressions(), strict=True):
        assert d.leaf.node == tree.diagram.compile(expr), label
        assert tree.diagram.prob(d.leaf.node) == event_prob(expr, g), label
        conjuncts = expr.children if isinstance(expr, Or) else (expr,)
        assert FALSE not in map(tree.diagram.compile, conjuncts), label


def fixture_queries(g):
    """Every ground atom with a clause, and its negation, and each predicate

    of those atoms with fresh variables."""
    atoms = list(g.by_head)
    texts = {str(a) for a in atoms} | {f"\\+{a}" for a in atoms}
    for name, arity in {a.pred for a in atoms}:
        args = ",".join(f"V{i}" for i in range(arity))
        texts.add(f"{name}({args})" if arity else name)
    return sorted(texts)


def test_the_table_is_the_tree_on_the_fixtures(pos_ground, neg_ground, neg_ground_full, neg_ground_min):
    for g in (pos_ground, neg_ground, neg_ground_full, neg_ground_min):
        for text in fixture_queries(g):
            assert_table_is_tree(parse_query(text), g, text)
    g = neg_ground
    for text in ["covid(X), \\+protected(X)", "contact(X,Y), covid(Y), \\+covid(X)", "covid(p1), covid(p2)"]:
        assert_table_is_tree(parse_query(text), g, text)


def test_the_table_is_the_tree_on_the_families():
    families = load_families()
    cases = [(families.deep(n), "reach(n0)") for n in (5, 50)]
    for n in range(2, 7):
        cases += [(families.positive_star(n), "covid(p1)")]
        for family in (families.chain, families.star):
            cases += [(family(n), "covid(p1)"), (family(n), "\\+covid(p1)")]
    for (text, restriction), query in cases:
        g = ground(parse_program(text), restriction=restriction)
        assert_table_is_tree(parse_query(query), g, (text.count("\n"), query))


@pytest.mark.parametrize("full_heads", [False, True])
def test_the_table_is_the_tree_on_random_programs(full_heads):
    for seed in range(500):
        text, query_text = genprog.generate(seed, full_heads=full_heads)
        assert_table_is_tree(parse_query(query_text), ground(parse_program(text)), seed)


def test_the_walk_leaves_cycles_and_deep_branches_to_the_tree():
    cycle = ground(parse_program("c(1):0.5; c(2):0.5.\np :- c(1), q.\nq :- c(2), p.\nq :- c(1).\n"))
    assert query_diagram(parse_query("p"), cycle, Diagram(cycle)) is None
    assert success_prob(parse_query("p"), cycle) == 0.5
    chain = ground(parse_program("".join(f"s{i} :- s{i + 1}.\n" for i in range(60)) + "s60:0.7.\n"))
    # s0's branch selects 61 nonempty goals: s0 .. s60.
    assert query_diagram(parse_query("s0"), chain, Diagram(chain), depth_limit=60) is None
    assert query_diagram(parse_query("s0"), chain, Diagram(chain), depth_limit=61) is not None
    with pytest.raises(DepthLimitError):
        success_prob(parse_query("s0"), chain, depth_limit=60)
    assert success_prob(parse_query("s0"), chain, depth_limit=61) == 0.7
    # A flat body is deep too: p's branch selects p, then f0 .. f59.
    facts = [f"f{i}" for i in range(60)]
    wide = ground(parse_program(f"p :- {', '.join(facts)}.\n" + "".join(f"{f}:0.5.\n" for f in facts)))
    assert query_diagram(parse_query("p"), wide, Diagram(wide), depth_limit=60) is None
    assert query_diagram(parse_query("p"), wide, Diagram(wide), depth_limit=61) is not None
    with pytest.raises(DepthLimitError):
        success_prob(parse_query("p"), wide, depth_limit=60)
    # A conjunction passes the limit too: where the rest of the goal after a
    # non-ground literal starts past it (s30(a), s0(X)), and at a later
    # ground literal (s0(a), s30(a)); the tree then raises.
    rules = "".join(f"s{i}(X) :- s{i + 1}(X).\n" for i in range(60))
    tall = ground(parse_program("r(a).\nr(b).\n" + rules + "s60(X):0.7 :- r(X).\n"))
    for query in ("s30(a), s0(X)", "s0(a), s30(a)"):
        assert query_diagram(parse_query(query), tall, Diagram(tall), depth_limit=92) is None
        for prob in (success_prob, build_tree):
            with pytest.raises(DepthLimitError, match="exceeded 92 steps"):
                prob(parse_query(query), tall, depth_limit=92)


def test_the_walk_flounders_and_rejects_unknown_predicates_as_the_tree_does():
    g = ground(parse_program("r(a):0.5.\np(a).\n"))
    with pytest.raises(ProgramError, match=r"^floundering: negative literal \\\+r\(X\) is not ground$"):
        query_diagram(parse_query("p(Y), \\+r(X)"), g, Diagram(g))
    with pytest.raises(ProgramError, match=r"^unknown predicate mystery/1 in query$"):
        query_diagram(parse_query("mystery(a)"), g, Diagram(g))


def test_every_conjoin_of_the_tree_is_the_dnf_of_the_conjunction(monkeypatch):
    # Folding a derivation's factors conjoins two DNFs with conjoin_dnf; each
    # call must give what normalising the whole conjunction gives.
    # success_expressions folds every success leaf of the tree.
    calls, mismatches = [], []

    def checked(e, f):
        out = conjoin_dnf(e, f)
        calls.append((e, f))
        if out != dnf(conj([e, f])):
            mismatches.append((e, f, out))
        return out

    monkeypatch.setattr(slpdnf, "conjoin_dnf", checked)
    families = load_families()
    programs = [family(n) for family, n in [
        (families.chain, 4), (families.chain, 6), (families.star, 5), (families.star, 6),
        (families.positive_star, 5),
    ]]
    for text, restriction in programs:
        g = ground(parse_program(text), restriction=restriction)
        for query in ("covid(p1)", "\\+covid(p1)"):
            build_tree(parse_query(query), g).success_expressions()
    family_calls = len(calls)
    for full_heads in (False, True):
        for seed in range(500):
            text, query_text = genprog.generate(seed, full_heads=full_heads)
            build_tree(parse_query(query_text), ground(parse_program(text))).success_expressions()
    assert family_calls > 100 and len(calls) > family_calls
    assert mismatches == []


def test_a_negated_atoms_dnf_is_folded_when_its_edge_is_first_read(monkeypatch):
    folded = []

    def counted(e):
        folded.append(e)
        return dnf(e)

    monkeypatch.setattr(slpdnf, "dnf", counted)
    g = ground(parse_program("a:0.5.\nb:0.5.\nq :- a.\np :- b, \\+q.\n"))
    tree = build_tree(parse_query("p"), g)
    assert folded == []
    (edge, _), = find_goal(tree, "¬q").children
    expr = edge.expr
    assert len(folded) == 1 and render_expr(expr, g) == "~(c1,[],1)"
    assert edge.expr is expr
    assert [render_expr(e, g) for e in tree.success_expressions()] == ["~(c1,[],1) & (c2,[],1)"]
    assert len(folded) == 1


def ladder(n):
    """``edge(si,ti+1):0.5`` for s, t in {a, b}: ``reach(a0)`` has 2^(n-1) proofs."""
    edges = "".join(
        f"edge({s}{i},{t}{i + 1}):0.5.\n" for i in range(n) for s in "ab" for t in "ab"
    )
    return f"reach(X) :- goal(X).\nreach(X) :- edge(X,Y), reach(Y).\ngoal(a{n}).\n{edges}"


def test_success_expressions_skip_edges_with_no_success_below(monkeypatch):
    # p's first clause chooses a and c, then fails at \+q: nothing reads
    # that branch's DNF, so only c is conjoined onto b, the first factor of
    # the other branch, which is carried as it is.
    calls = []

    def counted(e, f):
        calls.append((e, f))
        return conjoin_dnf(e, f)

    g = ground(parse_program("a:0.5.\nb:0.5.\nc:0.5.\nq.\np :- a, c, \\+q.\np :- b, c.\n"))
    tree = build_tree(parse_query("p"), g)
    assert [node.marking for node in walk(tree.root) if not node.children] == [FAILED, SUCCESS]
    monkeypatch.setattr(slpdnf, "conjoin_dnf", counted)
    assert [render_expr(e, g) for e in tree.success_expressions()] == ["(c2,[],1) & (c3,[],1)"]
    assert [(render_expr(e, g), render_expr(f, g)) for e, f in calls] == [("(c2,[],1)", "(c3,[],1)")]
    calls.clear()
    assert build_tree(parse_query("a, \\+q"), g).success_expressions() == []
    assert calls == []


def test_success_expressions_conjoin_once_per_edge_factor(monkeypatch):
    # One pass from the root: derivations that share a prefix share its
    # conjoins, so no edge's factor is conjoined twice.
    calls = []

    def counted(e, f):
        calls.append((e, f))
        return conjoin_dnf(e, f)

    g = ground(parse_program(ladder(6)))
    tree = build_tree(parse_query("reach(a0)"), g)
    factors, stack = 0, [tree.root]
    while stack:
        node = stack.pop()
        factors += sum(edge.expr is not None for edge, _ in node.children)
        stack += [child for _, child in node.children]
    monkeypatch.setattr(slpdnf, "conjoin_dnf", counted)
    exprs = tree.success_expressions()
    assert len(exprs) == 2**5
    assert 0 < len(calls) <= factors
