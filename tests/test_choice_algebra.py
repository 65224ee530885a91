import pickle
import random
from operator import itemgetter

import pytest

from lpadexpl.choice_algebra import (
    BOT,
    TOP,
    And,
    AtomicChoice,
    Diagram,
    Not,
    Or,
    complement_atomic,
    conj,
    conjoin_dnf,
    disj,
    dnf,
    dual_sets,
    duals,
    equiv,
    gamma,
    hits,
    is_consistent,
    mins_set,
    otimes,
    parse_composite_set_text,
    parse_expr_text,
    render_atomic,
    render_composite_set,
    render_expr,
)
from lpadexpl.errors import LpadError
from lpadexpl.grounder import ground
from lpadexpl.semantics import event_prob
from lpadexpl.slpdnf import success_expressions
from lpadexpl.syntax import parse_program, parse_query

from conftest import load_families
import genprog
import oracles
from oracles import eval_expr, is_dnf


def ac(g, cid, values, index):
    inst = g.instance_by_values(cid, tuple(values))
    return AtomicChoice(cid, inst.key, index)


def cs(text, g):
    return parse_composite_set_text(text, g)


def test_atomic_choice_rendering(neg_ground):
    a = ac(neg_ground, "c2", ("p1", "p2"), 1)
    assert str(a) == "(c2,{X/p1,Y/p2},1)"


def test_atomic_choices_are_hash_consed(neg_ground):
    (parsed,) = next(iter(cs("{{(c1,[p1],2)}}", neg_ground)))
    (complement,) = complement_atomic(ac(neg_ground, "c1", ["p1"], 1), neg_ground)
    assert parsed is complement
    assert repr(parsed) == "AtomicChoice(cid='c1', key=(('X', 'p1'),), index=2)"
    with pytest.raises(AttributeError):
        parsed.index = 1
    assert pickle.loads(pickle.dumps(parsed)) is parsed


def test_not_and_or_are_hash_consed(neg_ground):
    a = ac(neg_ground, "c1", ["p1"], 1)
    b = ac(neg_ground, "c4", ["p1"], 1)
    assert And((a, b)) is And((a, b)) and Or((a, b)) is Or((a, b))
    assert And((a, b)) is not Or((a, b))
    assert Not(a) is Not(a)
    assert TOP is And(()) and BOT is Or(())
    assert conj([TOP, a]) is a and disj([BOT, a]) is a
    assert conj([b, Not(a)]) is And((Not(a), b))


def test_not_and_or_keep_the_value_protocol(neg_ground):
    a = ac(neg_ground, "c1", ["p1"], 1)
    e = Or((Not(And((a, TOP))), BOT))
    assert repr(TOP) == "And(children=())" and repr(BOT) == "Or(children=())"
    assert repr(Not(a)) == f"Not(child={a!r})"
    for x in (TOP, BOT, Not(a), e):
        assert pickle.loads(pickle.dumps(x)) is x
    with pytest.raises(AttributeError):
        e.children = ()
    with pytest.raises(AttributeError):
        Not(a).child = TOP
    with pytest.raises(AttributeError):
        TOP.order = ()


def test_a_deep_expression_raises_no_recursion_error(neg_ground):
    """``==`` and ``hash`` are identity and a node's key is made from its
    children's, so a 3,000-deep expression builds, compares and hashes."""
    a = ac(neg_ground, "c1", ["p1"], 1)
    b = ac(neg_ground, "c4", ["p1"], 1)

    def deep(leaf):
        e = leaf
        for _ in range(1500):  # two levels a step
            e = Not(conj([e, b]))
        return e

    e = deep(a)
    depth, x = 1, e
    while not isinstance(x, AtomicChoice):  # a compound child sorts last
        x, depth = x.child if isinstance(x, Not) else x.children[-1], depth + 1
    assert depth == 3001
    assert deep(a) == e and hash(deep(a)) == hash(e) and deep(b) != e
    assert conj([e, a]) is And((a, e)) and conj([a, e, a]) is conj([e, a])
    assert disj([e, Not(b)]) is Or((Not(b), e)) and disj([e, e]) is e
    assert len({e, deep(a), deep(b)}) == 2


def test_atomic_choice_carries_its_instance(neg_ground):
    a = ac(neg_ground, "c2", ("p1", "p2"), 1)
    assert a.inst == ("c2", a.key)
    with pytest.raises(AttributeError):
        a.inst = ("c1", a.key)


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


def test_duals_skips_inconsistent_composite_choices(neg_ground):
    both = cs("{{(c1,[p1],1),(c1,[p1],2)}}", neg_ground)
    assert duals(both, neg_ground) == frozenset({frozenset()})
    assert duals(both | cs("{{(c6,[p1],1)}}", neg_ground), neg_ground) == duals(
        cs("{{(c6,[p1],1)}}", neg_ground), neg_ground
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


def test_units_are_the_empty_conjunction_and_disjunction(neg_ground):
    x = ac(neg_ground, "c6", ("p1",), 1)
    assert TOP == And(())
    assert BOT == Or(())
    assert conj([TOP, x]) == x
    assert disj([BOT, x]) == x
    assert render_expr(conj([x, BOT]), neg_ground) == "(c6,[p1],1) & bot"
    assert str(Not(TOP)) == "~top"


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


def test_diagram_negation_swaps_the_terminals():
    """On genprog seeds 0-199, ``negate`` gives the node of the negated

    expression, and negating twice gives the node back."""
    for seed in range(200):
        text, query_text = genprog.generate(seed)
        g = ground(parse_program(text))
        e = disj(success_expressions(parse_query(query_text), g))
        diagram = Diagram(g)
        node = diagram.compile(e)
        assert diagram.negate(node) == diagram.compile(Not(e)), seed
        assert diagram.negate(diagram.negate(node)) == node, seed


def recursive_compile(diagram, e, negated=False):
    """The recursive ``Diagram.compile`` that the explicit stack replaced."""
    if isinstance(e, Not):
        return recursive_compile(diagram, e.child, not negated)
    if isinstance(e, AtomicChoice):
        return diagram.chain([e], negated)
    conjoin = isinstance(e, And) != negated

    def literal(c):
        return isinstance(c, AtomicChoice) or isinstance(c, Not) and isinstance(c.child, AtomicChoice)

    literals = [c for c in e.children if conjoin and literal(c)]
    nodes = [recursive_compile(diagram, c, negated) for c in e.children if not (conjoin and literal(c))]
    if literals:
        nodes.append(diagram.chain(literals, negated))
    return diagram.apply_all(conjoin, nodes)


def test_compile_makes_the_recursive_walks_nodes_in_its_order(neg_ground_min):
    """On 300 seeded raw DAGs, shared nodes among them, ``compile`` returns

    the recursive walk's node and makes the same nodes in the same order, so
    every ``--limit`` boundary stays where it was."""
    g = neg_ground_min
    atoms = [AtomicChoice(i.cid, i.key, h) for i in g.instances for h in range(1, i.n_heads + 1)]
    rng = random.Random(29)
    for n in range(300):
        pool = atoms + [TOP, BOT]
        for _ in range(rng.randrange(1, 9)):
            op = rng.randrange(3)
            if op == 0:
                pool.append(Not(rng.choice(pool)))
            else:
                kids = tuple(rng.choice(pool[-8:] + atoms) for _ in range(rng.randrange(1, 4)))
                pool.append((And if op == 1 else Or)(kids))
        reference, diagram = Diagram(g), Diagram(g)
        for negated in (False, True):
            assert diagram.compile(pool[-1], negated) == recursive_compile(reference, pool[-1], negated), n
            assert diagram.nodes == reference.nodes, n


def test_a_10000_deep_expression_goes_through_event_prob(neg_ground):
    a = ac(neg_ground, "c1", ("p1",), 1)
    b = ac(neg_ground, "c4", ("p1",), 1)
    e = a
    for _ in range(5000):  # two levels a step: ¬(e ∧ b) twice is a ∨ ¬b
        e = Not(conj([e, b]))
    p = event_prob(e, neg_ground)
    assert p == event_prob(disj([a, Not(b)]), neg_ground)


def test_a_shared_dag_compiles_once_per_node():
    """60 levels, each naming the one below twice: 2^60 nodes as a tree."""
    g = ground(parse_program("a:0.5.\n" + "".join(f"x{i}:0.3.\ny{i}:0.4.\n" for i in range(60))))
    a, *xy = [AtomicChoice(inst.cid, inst.key, 1) for inst in g.instances]
    e, flat = a, [a]
    for x, y in zip(xy[::2], xy[1::2]):
        e = Or((And((e, x)), And((e, y))))
        flat.append(disj([x, y]))
    diagram = Diagram(g)
    node, flat_node = diagram.compile(e), diagram.compile(conj(flat))
    assert node == flat_node  # (a repr of e, on failure, would never end)
    p, flat_p = event_prob(e, g), event_prob(conj(flat), g)
    assert p == flat_p == pytest.approx(0.5 * 0.58**60, rel=1e-12)


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


def _rendered_by_sort_key_lists(ks, g):
    """The composite-set text as it was written before ranking: each set's

    (sort key, text) entries sorted by key, then the sets by their key lists."""
    seen = {}
    rows = []
    for k in ks:
        entries = []
        for a in k:
            entry = seen.get(a)
            if entry is None:
                entry = seen[a] = (a.order, render_atomic(a, g))
            entries.append(entry)
        entries.sort(key=itemgetter(0))
        rows.append(entries)
    rows.sort(key=lambda entries: [key for key, _ in entries])
    sets = ("{" + ",".join([text for _, text in entries]) + "}" for entries in rows)
    return "{" + ",".join(sets) + "}"


def test_composite_set_rendering_keeps_the_sort_key_order():
    # Twelve clause ids, so that c2 < c10 decides; a set that is a prefix of
    # another sorts first; the empty set and the empty composite choice.
    twelve = ground(parse_program("".join(f"a{i}:0.5; b{i}:0.3.\n" for i in range(1, 13))))
    c = {(i, j): AtomicChoice(f"c{i}", (), j) for i in range(1, 13) for j in (1, 2, 3)}
    ks = {
        frozenset([c[10, 1]]),
        frozenset([c[2, 1]]),
        frozenset([c[2, 1], c[10, 1]]),
        frozenset([c[2, 1], c[10, 1], c[12, 3]]),
        frozenset([c[1, 2], c[10, 1]]),
        frozenset([c[2, 2], c[3, 1], c[9, 3], c[11, 1]]),
        frozenset(),
    }
    text = render_composite_set(ks, twelve)
    assert text == _rendered_by_sort_key_lists(ks, twelve)
    assert text == (
        "{{},{(c1,[],2),(c10,[],1)},{(c2,[],1)},{(c2,[],1),(c10,[],1)},"
        "{(c2,[],1),(c10,[],1),(c12,[],3)},{(c2,[],2),(c3,[],1),(c9,[],3),(c11,[],1)},"
        "{(c10,[],1)}}"
    )
    assert render_composite_set(frozenset(), twelve) == _rendered_by_sort_key_lists([], twelve) == "{}"
    assert render_composite_set({frozenset()}, twelve) == "{{}}"


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


# ---------------------------------------------------------------------------
# The kernel against brute force
# ---------------------------------------------------------------------------


def as_tuples(selections, g):
    """Selections (sets of atomic choices) as head-index tuples in instance order."""
    position = {(inst.cid, inst.key): r for r, inst in enumerate(g.instances)}
    out = set()
    for s in selections:
        row = [0] * len(position)
        for a in s:
            row[position[a.inst]] = a.index
        out.add(tuple(row))
    return out


@pytest.mark.parametrize("n", range(2, 8))
def test_kernel_agrees_with_brute_force_coverage_on_positive_star(n):
    families = load_families()
    text, restriction = families.positive_star(n)
    g = ground(parse_program(text), restriction=restriction)
    ks = cs(families.positive_star_explanations(n), g)
    covered = oracles.extensions(ks, g)
    if n <= 5:  # the extension oracle is the selection scan's coverage
        assert covered == as_tuples(oracles.coverage(ks, g), g)
    missed = oracles.extensions([()], g) - covered
    d = duals(ks, g)
    assert oracles.extensions(d, g) == missed
    assert mins_set(d) == d
    rendered = render_composite_set(d, g)
    assert render_composite_set(dual_sets(ks, g), g) == rendered == oracles.composite_set_text(d, g)
    e = disj(conj(k) for k in ks)
    assert gamma(e, g) == ks
    assert gamma(Not(e), g) == d
    assert oracles.extensions(oracles.conjuncts(dnf(Not(e))), g) == missed
    first = sorted(ks, key=lambda k: sorted(a.order for a in k))[: len(ks) // 2 + 1]
    e1, e2 = disj(conj(k) for k in first), disj(conj(k) for k in ks - set(first))
    assert otimes(gamma(Not(e1), g), gamma(Not(e2), g)) == d
    both = conjoin_dnf(dnf(Not(e1)), dnf(Not(e2)))
    assert oracles.extensions(oracles.conjuncts(both), g) == missed


@pytest.mark.parametrize("full_heads", [False, True])
def test_kernel_agrees_with_brute_force_coverage_on_generated_negations(full_heads):
    # Each success expression and its negation: the negations, and the
    # success expressions of programs with \+, take dnf's and conjoin_dnf's
    # guarded-absorption path.
    checked = negated = 0
    for seed in range(300):
        text, query = genprog.generate(seed, full_heads=full_heads)
        g = ground(parse_program(text))
        exprs = success_expressions(parse_query(query), g)[:2]
        if not exprs:
            continue
        worlds = [(s, {a.inst: a.index for a in s}) for s in oracles.all_selections(g)]

        def models(x):
            return {s for s, assignment in worlds if eval_expr(x, assignment)}

        everything = {s for s, _ in worlds}
        exprs += [Not(e) for e in exprs]
        for a in exprs:
            assert models(dnf(a)) == models(a)
            assert dnf(a) == oracles.dnf_reference(a)
            assert oracles.coverage(gamma(a, g), g) == models(a)
            assert oracles.coverage(duals(gamma(a, g), g), g) == everything - models(a)
            for b in exprs:
                expected = models(a) - models(b)
                assert models(conjoin_dnf(dnf(a), dnf(Not(b)))) == expected
                assert oracles.coverage(otimes(gamma(a, g), gamma(Not(b), g)), g) == expected
            checked += 1
            negated += "~" in render_expr(dnf(a), g)
    assert checked > 200 and negated > 100


def test_the_kernel_skips_an_inconsistent_input_set(neg_ground):
    g = neg_ground
    a1, a2 = ac(g, "c6", ("p1",), 1), ac(g, "c6", ("p1",), 2)
    b = ac(g, "c5", ("p1",), 1)
    both, single = frozenset({a1, a2}), frozenset({b})
    assert otimes([both, single], [frozenset()]) == frozenset({single})
    assert otimes([frozenset()], [both]) == frozenset()
    assert duals([both, single], g) == duals([single], g)
    # A conjunct holding two heads of one instance, or α with ¬α.
    for bad in (conj([a1, a2]), conj([a1, Not(a1)])):
        assert conjoin_dnf(disj([bad, b]), TOP) == b
        assert conjoin_dnf(TOP, disj([bad, b])) == b
        assert conjoin_dnf(bad, TOP) == BOT


def test_composite_set_rendering_puts_a_set_before_its_supersets(neg_ground):
    # Exact lexicographic order of the sorted choices: {c3} before {c3, c5},
    # and both before {c4, c6}.  Ordered by descending mask (the first choice
    # on the highest bit), {c3, c5} would come before {c3}.
    text = (
        "{{(c3,[p1],1)},{(c3,[p1],1),(c5,[p1],2)},{(c3,[p1],1),(c5,[p1],2),(c6,[p1],1)},"
        "{(c4,[p1],1),(c6,[p1],1)},{(c5,[p1],1)}}"
    )
    ks = cs(text, neg_ground)
    assert render_composite_set(ks, neg_ground) == text == oracles.composite_set_text(ks, neg_ground)
