"""Proof trees, readable expressions, annotation phrasing, and renderers."""

import json
import random

import pytest

from lpadexpl import explainer, slpdnf
from lpadexpl.choice_algebra import TRUE, AtomicChoice, Diagram, Not, conj
from lpadexpl.cli import main
from lpadexpl.errors import ProgramError
from lpadexpl.explainer import (
    RAnd,
    RLit,
    ROr,
    and_tree,
    chq,
    explain,
    phrase_for,
    render_graph,
    render_nl,
    render_text,
    to_json,
    to_record,
)
from lpadexpl.grounder import ground, relevant_subset
from lpadexpl.slpdnf import Derivation, SlpdnfNode, build_tree, derivations
from lpadexpl.syntax import (
    Atom,
    Literal,
    apply_query,
    is_ground_query,
    parse_program,
    parse_query,
    query_vars,
)

import genprog
from conftest import golden_text, load_families


def ac(g, cid, values, index):
    inst = g.instance_by_values(cid, tuple(values))
    return AtomicChoice(inst.cid, inst.key, index)


def the_atom(text):
    return parse_query(text)[0].atom


@pytest.fixture(scope="module")
def neg_proofs(neg_ground):
    return explain(parse_query("covid(p1)"), neg_ground)


# ---------------------------------------------------------------------------
# Golden renderings of the negation-path proof
# ---------------------------------------------------------------------------


def test_text_rendering_matches_golden(neg_proofs):
    assert render_text(neg_proofs[1].tree) == golden_text("text_proof2.txt")


def test_nl_rendering_matches_golden(neg_proofs, neg_program):
    out = render_nl(neg_proofs[1].tree, neg_program.annotations)
    assert out == golden_text("nl_proof2.txt")


def test_graph_rendering_matches_golden(neg_proofs):
    assert render_graph(neg_proofs[1].tree) == golden_text("graph_proof2.txt")


def test_text_rendering_folded_matches_golden(neg_proofs):
    out = render_text(neg_proofs[1].tree, depth_limit=1)
    assert out == golden_text("text_proof2_folded.txt")


def test_text_rendering_with_alternatives_matches_golden(neg_proofs):
    out = render_text(neg_proofs[1].tree, alternatives=True)
    assert out == golden_text("text_proof2_alts.txt")


def test_nl_rendering_with_alternatives_matches_golden(neg_proofs, neg_program):
    out = render_nl(neg_proofs[1].tree, neg_program.annotations, alternatives=True)
    assert out == golden_text("nl_proof2_alts.txt")


def test_text_rendering_of_the_direct_proof(neg_proofs):
    assert render_text(neg_proofs[0].tree) == golden_text("text_proof1.txt")


# ---------------------------------------------------------------------------
# explain: ordering, wrapping, edge cases
# ---------------------------------------------------------------------------


def test_explanations_sorted_most_probable_first(neg_proofs):
    assert [e.prob for e in neg_proofs] == pytest.approx(
        [0.9, 0.147168], abs=1e-12
    )


def test_explain_without_negation(pos_ground):
    proofs = explain(parse_query("covid(p1)"), pos_ground)
    assert [e.prob for e in proofs] == pytest.approx([0.9, 0.36], abs=1e-12)


def test_explain_nonground_query_covers_all_answers(neg_ground):
    proofs = explain(parse_query("covid(X)"), neg_ground)
    assert [str(e.tree.literal) for e in proofs] == [
        "covid(p1)",
        "covid(p2)",
        "covid(p1)",
    ]
    assert [e.prob for e in proofs] == pytest.approx(
        [0.9, 0.9, 0.147168], abs=1e-12
    )


def test_explain_wraps_conjunctive_queries(neg_ground):
    proofs = explain(parse_query("covid(p1), covid(p2)"), neg_ground)
    assert [str(e.tree.literal) for e in proofs] == ["main", "main"]
    assert [e.prob for e in proofs] == pytest.approx([0.81, 0.147168], abs=1e-12)
    first_children = [str(c.literal) for c in proofs[0].tree.visible_children()]
    assert first_children == ["covid(p1)", "covid(p2)"]


def test_explain_wraps_negative_queries(neg_ground):
    proofs = explain(parse_query("\\+covid(p3)"), neg_ground)
    assert len(proofs) == 1
    assert proofs[0].prob == 1.0
    # covid(p3) has no proofs, so the reason is trivially true and the
    # negated literal renders as a bare leaf
    assert render_text(proofs[0].tree) == "main\n   ¬covid(p3)\n"


def test_explain_of_a_negation_agrees_on_the_relevant_subset():
    g = ground(parse_program("f(a):0.5.\nf(b):0.4.\nh(X) :- f(X).\n"))
    q = parse_query("\\+h(a)")
    pruned = relevant_subset(g, q)
    assert len(pruned.instances) < len(g.instances)
    assert [e.prob for e in explain(q, pruned)] == [e.prob for e in explain(q, g)]


def test_explain_orders_a_display_rooted_goal_by_its_values():
    # The tree binds Y first, b before a; the proofs, all of probability
    # 0.5, come in the order of the values of X then Y, sorted by name.
    g = ground(parse_program("f(b):0.5.\nf(a):0.5.\ng(a).\ng(b).\n"))
    proofs = explain(parse_query("f(Y), g(X)"), g)
    assert [str(e.tree.literal) for e in proofs] == ["main(a,a)", "main(b,a)", "main(a,b)", "main(b,b)"]
    assert [str(c.literal) for c in proofs[1].tree.children] == ["f(b)", "g(a)"]
    assert [e.prob for e in proofs] == [0.5] * 4


def test_explain_wrapper_avoids_taken_names():
    g = ground(parse_program("f(a):0.5.\nmain :- f(a).\n"))
    proofs = explain(parse_query("main, main"), g)
    assert proofs and proofs[0].tree.literal.atom.predicate == "main_1"


def test_explain_of_a_fact(pos_ground):
    proofs = explain(parse_query("pcr(p1)"), pos_ground)
    assert len(proofs) == 1
    assert proofs[0].prob == 1.0
    assert render_text(proofs[0].tree) == "pcr(p1)\n"


def test_explain_unprovable_query_is_empty(pos_ground):
    assert explain(parse_query("covid(p9)"), pos_ground) == []


def test_equal_probability_ties_keep_proof_order():
    g = ground(parse_program("p(a):0.5 :- f(a).\np(a):0.5 :- h(a).\nf(a).\nh(a).\n"))
    proofs = explain(parse_query("p(a)"), g)
    assert [e.prob for e in proofs] == pytest.approx([0.5, 0.5])
    # Each proof's one probabilistic step names its clause.
    cids = [
        next(edge.expr.cid for edge in e.derivation.edges if edge.expr is not None)
        for e in proofs
    ]
    assert cids == ["c1", "c2"]


def test_explain_makes_one_diagram(monkeypatch):
    # The tree's diagram gives every proof its probability.
    text, restriction = load_families().star(4)
    g = ground(parse_program(text), restriction=restriction)
    made = []
    init = Diagram.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Diagram, "__init__", counting_init)
    proofs = explain(parse_query("covid(p1)"), g)
    assert len(proofs) > 1
    assert len(made) == 1


def test_explain_top_builds_the_printed_trees_only(monkeypatch, capsys, tmp_path):
    # Only the AND-tree of the one printed proof is built.
    text, restriction = load_families().star(4)
    (tmp_path / "star.lpad").write_text(text)
    (tmp_path / "star.json").write_text(json.dumps(restriction))
    built = []

    def counting_and_tree(d, g):
        built.append(d)
        return and_tree(d, g)

    monkeypatch.setattr(explainer, "and_tree", counting_and_tree)
    argv = ["explain", str(tmp_path / "star.lpad"), "covid(p1)"]
    argv += ["--restrict", str(tmp_path / "star.json")]
    assert main(argv + ["--top", "1"]) == 0
    assert capsys.readouterr().out.count("proof ") == 1
    assert len(built) == 1
    built.clear()
    assert main(argv) == 0
    proofs = capsys.readouterr().out.count("proof ")
    assert proofs > 1 and len(built) == proofs


def test_explain_top_folds_the_printed_negations_only(monkeypatch, capsys, tmp_path):
    # A negated atom's DNF is folded when a printed proof reads it: --top 1
    # prints p's proof through \+c, so the DNF of \+b is never made.
    program = tmp_path / "two.lpad"
    program.write_text("a:0.6.\nb:0.5.\nc:0.5.\np :- a, \\+b.\np :- \\+c.\n")
    folded, dnf = [], slpdnf.dnf

    def counting_dnf(e):
        folded.append(e)
        return dnf(e)

    monkeypatch.setattr(slpdnf, "dnf", counting_dnf)
    assert main(["explain", str(program), "p", "--top", "1"]) == 0
    assert capsys.readouterr().out.count("proof ") == 1
    assert len(folded) == 1
    folded.clear()
    assert main(["explain", str(program), "p"]) == 0
    assert capsys.readouterr().out.count("proof ") == 2
    assert len(folded) == 2


def test_a_clause_stated_twice_gives_two_resolvents_and_two_proofs(capsys, tmp_path):
    # The two statements are one hash-consed clause, and still two clauses
    # of the program.
    program = tmp_path / "twice.lpad"
    program.write_text("q:0.5.\np :- q.\np :- q.\n")
    g = ground(parse_program(program.read_text()))
    assert len(g.derived) == 2 and g.derived[0] is g.derived[1]
    assert len(g.resolvents(the_atom("p"))) == 2
    assert len(relevant_subset(g, parse_query("p")).derived) == 2
    proofs = explain(parse_query("p"), g)
    assert [e.prob for e in proofs] == pytest.approx([0.5, 0.5])
    assert main(["explain", str(program), "p"]) == 0
    assert capsys.readouterr().out.count("proof ") == 2


def test_fully_pruned_reason_is_trivially_true():
    g = ground(parse_program("f(a):0.3.\nq :- \\+f(a).\n"))
    proofs = explain(parse_query("q"), g)
    assert len(proofs) == 1
    assert proofs[0].prob == pytest.approx(0.7, abs=1e-12)
    node = proofs[0].tree.children[0]
    assert node.has_expr and node.expr is None
    assert render_text(proofs[0].tree) == "q\n   ¬f(a)\n"


# ---------------------------------------------------------------------------
# Tree construction
# ---------------------------------------------------------------------------


def test_and_tree_shapes(pos_ground):
    tree = build_tree(parse_query("covid(p1)"), pos_ground)
    ds = derivations(tree)
    direct = and_tree(ds[0], pos_ground)
    assert str(direct.literal) == "covid(p1)"
    assert [str(c.literal) for c in direct.children] == ["pcr(p1)"]
    indirect = next(
        and_tree(d, pos_ground)
        for d in ds
        if len(and_tree(d, pos_ground).children) == 2
    )
    assert [str(c.literal) for c in indirect.children] == [
        "contact(p1,p2)",
        "covid(p2)",
    ]
    assert [str(c.literal) for c in indirect.children[1].children] == ["pcr(p2)"]


def test_and_tree_grounds_every_literal(pos_ground):
    tree = build_tree(parse_query("covid(X)"), pos_ground)
    for d in derivations(tree):
        assert any(not is_ground_query(n.query) for n in d.nodes)
        stack, literals = [and_tree(d, pos_ground)], []
        while stack:
            node = stack.pop()
            literals += [node.literal] if node.literal is not None else []
            stack += node.children
        assert literals and all(is_ground_query((lit,)) for lit in literals)
    assert str(and_tree(derivations(tree)[0], pos_ground).literal) == "covid(p1)"


def assert_proof_is_ground_clauses(e, label):
    """``assert_nodes_are_ground_clauses`` on ``e``'s tree; for a goal other

    than one positive literal, on each child of the display root, which
    must be ``main`` over the goal's values with the goal under them as its
    children."""
    goal, tree = e.derivation.nodes[0].query, e.tree
    if len(goal) == 1 and goal[0].positive:
        return assert_nodes_are_ground_clauses(tree, e.g, label)
    sigma = e.derivation.substitution()
    assert tree.literal == Literal(True, Atom("main", tuple(sigma[v] for v in query_vars(goal))))
    assert tuple(child.literal for child in tree.children) == apply_query(sigma, goal), label
    return sum(assert_nodes_are_ground_clauses(child, e.g, label) for child in tree.children)


def assert_nodes_are_ground_clauses(tree, g, label):
    """Every positive node is the head of a ground instance or derived

    clause of ``g`` with its children's literals as that clause's body; a
    negative node's only child is the closing □.  Returns the number of
    negative nodes."""
    clauses = {(c.head, c.body) for c in g.derived}
    for inst in g.instances:
        clauses |= {(inst.head_atom(i), inst.body) for i in range(1, inst.n_explicit + 1)}
    stack, negative = [tree], 0
    while stack:
        node = stack.pop()
        if node.literal.positive:
            body = tuple(child.literal for child in node.children)
            assert (node.literal.atom, body) in clauses, (label, str(node.literal))
            stack += node.children
        else:
            assert [child.literal for child in node.children] == [None], (label, str(node.literal))
            negative += 1
    return negative


def test_and_tree_nodes_are_ground_clauses_of_the_program():
    families = load_families()
    cases = [
        (families.chain(3), ("covid(p1)", "\\+covid(p1)", "covid(X)")),
        (families.star(3), ("covid(p1)", "\\+covid(p1)")),
        (families.positive_star(4), ("covid(p1)", "covid(X), contact(X,Y)")),
        (families.deep(6), ("reach(n0)", "reach(X)")),
    ]
    cases += [((text, None), (query, "\\+" + query)) for text, query in map(genprog.generate, range(200))]
    proofs = negative = 0
    for (text, restriction), queries in cases:
        g = ground(parse_program(text), restriction=restriction)
        for query in queries:
            for e in explain(parse_query(query), g):
                negative += assert_proof_is_ground_clauses(e, f"{query}\n{text}")
                proofs += 1
    assert proofs > 100 and negative > 20, (proofs, negative)


def test_and_tree_rejects_a_derivation_that_leaves_a_variable(pos_ground):
    d = Derivation((SlpdnfNode(parse_query("covid(X)"), TRUE),), ())
    with pytest.raises(ProgramError, match="does not ground its goals"):
        and_tree(d, pos_ground)


def test_and_tree_gives_a_conjunctive_goal_a_display_root(pos_ground):
    tree = build_tree(parse_query("pcr(X), covid(X)"), pos_ground)
    root = and_tree(derivations(tree)[0], pos_ground)
    assert str(root.literal) == "main(p1)"
    assert [str(c.literal) for c in root.children] == ["pcr(p1)", "covid(p1)"]
    assert root.children[0].children == []
    assert [str(c.literal) for c in root.children[1].children] == ["pcr(p1)"]
    tree = build_tree(parse_query("pcr(p1), pcr(p2)"), pos_ground)
    assert render_text(and_tree(derivations(tree)[0], pos_ground)) == "main\n   pcr(p1)\n   pcr(p2)\n"


# ---------------------------------------------------------------------------
# chq: readable expressions
# ---------------------------------------------------------------------------


def test_chq_translates_choices_to_head_atoms(neg_ground_min):
    g = neg_ground_min
    e = conj([Not(ac(g, "c3", ["p1"], 1)), Not(ac(g, "c4", ["p1"], 1))])
    out = chq(e, g)
    assert isinstance(out, ROr) and len(out.children) == 1
    texts = [("¬" if r.negated else "") + r.text for r in out.children[0].children]
    assert texts == ["¬ffp2(p1)", "¬vaccinated(p1)"]


def test_chq_prunes_the_negated_atom(neg_ground_min):
    g = neg_ground_min
    e = conj([Not(ac(g, "c3", ["p1"], 1)), Not(ac(g, "c4", ["p1"], 1))])
    out = chq(e, g, negated_atom=the_atom("ffp2(p1)"))
    assert out == ROr(
        (RAnd((RLit(True, the_atom("vaccinated(p1)"), ("none",)),)),)
    )


def test_chq_emptied_conjunct_makes_the_whole_expression_trivial(neg_ground_min):
    g = neg_ground_min
    e = Not(ac(g, "c3", ["p1"], 1))
    assert chq(e, g, negated_atom=the_atom("ffp2(p1)")) is None


def test_chq_renders_the_implicit_none_head(neg_ground_min):
    g = neg_ground_min
    out = chq(ac(g, "c4", ["p1"], 2), g)
    r = out.children[0].children[0]
    assert r.atom is None and r.text == "none" and not r.negated
    assert r.alternatives == ("vaccinated(p1)",)


def test_chq_alternatives_list_sibling_heads(neg_ground_min):
    g = neg_ground_min
    out = chq(Not(ac(g, "c3", ["p1"], 1)), g)
    r = out.children[0].children[0]
    assert r.alternatives == ("surgical(p1)", "cloth(p1)", "none")


def test_chq_rejects_non_normal_form(neg_ground_min):
    g = neg_ground_min
    e = Not(conj([ac(g, "c3", ["p1"], 1), ac(g, "c4", ["p1"], 1)]))
    with pytest.raises(ProgramError):
        chq(e, g)


# ---------------------------------------------------------------------------
# Annotation phrasing
# ---------------------------------------------------------------------------


def test_phrase_for_positive_and_negative_annotations(neg_program):
    anns = neg_program.annotations
    assert phrase_for(parse_query("covid(p2)")[0], anns) == "p2 has covid-19"
    assert (
        phrase_for(parse_query("contact(p1,p2)")[0], anns)
        == "p1 had contact with p2"
    )
    assert (
        phrase_for(parse_query("\\+protected(p1)")[0], anns)
        == "p1 was not protected"
    )


def test_phrase_for_negative_falls_back_to_not_plus_positive(neg_program):
    anns = neg_program.annotations
    assert (
        phrase_for(parse_query("\\+vulnerable(p1)")[0], anns)
        == "not p1 is vulnerable"
    )
    assert (
        phrase_for(parse_query("\\+contact(p1,p2)")[0], anns)
        == "not p1 had contact with p2"
    )


def test_phrase_for_without_any_annotation_uses_the_literal(neg_program):
    anns = neg_program.annotations
    assert phrase_for(parse_query("surgical(p1)")[0], anns) == "surgical(p1)"
    assert phrase_for(parse_query("\\+surgical(p1)")[0], anns) == "¬surgical(p1)"


def test_phrase_for_first_matching_annotation_wins():
    p = parse_program(
        '%!read f(A) as: "first A"\n%!read f(A) as: "second A"\nf(x):0.5.\n'
    )
    assert phrase_for(parse_query("f(x)")[0], p.annotations) == "first x"


def test_phrase_for_requires_consistent_bindings():
    p = parse_program('%!read p(A,A) as: "A twice"\np(a,a).\np(a,b).\n')
    assert phrase_for(parse_query("p(a,a)")[0], p.annotations) == "a twice"
    assert phrase_for(parse_query("p(a,b)")[0], p.annotations) == "p(a,b)"


def test_phrase_substitution_replaces_whole_words_only():
    p = parse_program('%!read f(A) as: "A CAT scAn of A"\nf(x):0.5.\n')
    assert phrase_for(parse_query("f(x)")[0], p.annotations) == "x CAT scAn of x"


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def test_to_record_shape(neg_proofs):
    record = to_record(neg_proofs[1].tree)
    assert record["literal"] == "covid(p1)"
    assert [c["literal"] for c in record["children"]] == [
        "contact(p1,p2)",
        "covid(p2)",
        "¬protected(p1)",
    ]
    neg_node = record["children"][2]
    assert neg_node["children"][0]["literal"] == "□"
    expr = neg_node["expression"]
    assert expr["op"] == "or"
    assert [len(a["args"]) for a in expr["args"]] == [2, 3]
    first = expr["args"][0]["args"][0]
    assert first == {"op": "lit", "text": "ffp2(p1)", "negated": True}


def test_to_record_with_alternatives(neg_proofs):
    record = to_record(neg_proofs[1].tree, alternatives=True)
    first = record["children"][2]["expression"]["args"][0]["args"][0]
    assert first["alternatives"] == ["surgical(p1)", "cloth(p1)", "none"]


def test_trivial_expression_records_as_true():
    g = ground(parse_program("f(a):0.3.\nq :- \\+f(a).\n"))
    record = to_record(explain(parse_query("q"), g)[0].tree)
    assert record["children"][0]["expression"] == {"op": "true"}


def random_json_value(rng, depth):
    kind = rng.random()
    if depth == 0 or kind < 0.35:
        return rng.choice(
            [None, True, False, 0, -7, 2**70, 0.1, 1e300, -0.0, "", 'a"b\\c\n', "¬é□", "\x01"]
        )
    if kind < 0.65:
        keys = ["literal", "", "ü", 'q"k', "k1", "k2"]
        return {rng.choice(keys): random_json_value(rng, depth - 1) for _ in range(rng.randint(0, 4))}
    return [random_json_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]


def test_to_json_matches_json_dumps(neg_proofs):
    rng = random.Random(11)
    for _ in range(2000):
        value = random_json_value(rng, rng.randint(0, 6))
        assert to_json(value) == json.dumps(value, indent=2, ensure_ascii=False)
    for alternatives in (False, True):
        record = {
            "query": "covid(p1)",
            "proofs": [
                {"rank": i, "probability": e.prob, "tree": to_record(e.tree, alternatives)}
                for i, e in enumerate(neg_proofs, 1)
            ],
        }
        assert to_json(record) == json.dumps(record, indent=2, ensure_ascii=False)
