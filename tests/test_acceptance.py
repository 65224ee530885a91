"""Acceptance gate: nine end-to-end criteria over the fixture programs,
random stratified programs, and the algebra property suites.

Each test is named ``test_criterion_<n>``; the terminal summary hook in
conftest.py prints one PASS/FAIL line per criterion.
"""

import random
import time

import pytest

from lpadexpl.choice_algebra import (
    BOT,
    TOP,
    And,
    AtomicChoice,
    Not,
    Or,
    conj,
    conjoin_dnf,
    disj,
    dnf,
    duals,
    equiv,
    gamma,
    hits,
    mins_set,
)
from lpadexpl.explainer import render_nl, render_text
from lpadexpl.grounder import ground
from lpadexpl.semantics import event_prob, success_prob
from lpadexpl.slpdnf import build_tree, expl
from lpadexpl.syntax import parse_program, parse_query

from conftest import golden_text
import genprog
import oracles


def ac(g, cid, values, index):
    inst = g.instance_by_values(cid, tuple(values))
    return AtomicChoice(inst.cid, inst.key, index)


# A six-instance grounding of the negation fixture: small enough for
# exhaustive selection enumeration (288 selections) in the property suites.
SIX_INSTANCE_RESTRICTION = {
    "c1": [{"X": "p1"}],
    "c2": [{"X": "p1", "Y": "p2"}],
    "c3": [{"X": "p1"}],
    "c4": [{"X": "p1"}],
    "c5": [{"X": "p1"}],
    "c6": [{"X": "p1"}],
}


@pytest.fixture(scope="module")
def arena(neg_program):
    g = ground(neg_program, restriction=SIX_INSTANCE_RESTRICTION)
    assert len(g.instances) == 6 and g.selection_count() == 288
    return g


def arena_atoms(g):
    return [
        AtomicChoice(inst.cid, inst.key, i)
        for inst in g.instances
        for i in range(1, inst.n_heads + 1)
    ]


def random_expr(rng, atoms, depth):
    """A random raw expression tree (no smart-constructor normalization)."""
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.05:
            return TOP
        if r < 0.10:
            return BOT
        return rng.choice(atoms)
    op = rng.randrange(3)
    if op == 0:
        return Not(random_expr(rng, atoms, depth - 1))
    kids = (random_expr(rng, atoms, depth - 1), random_expr(rng, atoms, depth - 1))
    return And(kids) if op == 1 else Or(kids)


def random_composite(rng, atoms, max_atoms):
    picks = {}
    for a in rng.sample(atoms, rng.randint(1, max_atoms)):
        picks[(a.cid, a.key)] = a
    return frozenset(picks.values())


def random_composite_set(rng, atoms, lo, hi, max_atoms=3):
    return frozenset(
        random_composite(rng, atoms, max_atoms) for _ in range(rng.randint(lo, hi))
    )


def test_criterion_1(pos_ground):
    """The two proofs of covid(p1) in the positive program: exact explanation

    set, derivation probabilities 0.9 / 0.36, success probability 0.936."""
    t0 = time.perf_counter()
    q = parse_query("covid(p1)")
    expected = frozenset(
        {
            frozenset({ac(pos_ground, "c1", ("p1",), 1)}),
            frozenset(
                {
                    ac(pos_ground, "c2", ("p1", "p2"), 1),
                    ac(pos_ground, "c1", ("p2",), 1),
                }
            ),
        }
    )
    assert expl(q, pos_ground) == expected
    tree = build_tree(q, pos_ground)
    probs = sorted(
        (event_prob(e, pos_ground) for e in tree.success_expressions()), reverse=True
    )
    assert probs == pytest.approx([0.9, 0.36], abs=1e-9)
    assert success_prob(q, pos_ground) == pytest.approx(0.936, abs=1e-9)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2(neg_ground):
    """The failed-negation node for protected(p1): exactly one child, edge

    expression equivalent to (¬ffp2 ∧ ¬vaccinated) ∨ (¬ffp2 ∧ vulnerable ∧
    ¬young) over the X/p1 instances, and 9 composite choices in γ of the
    second proof's expression."""
    t0 = time.perf_counter()
    g = neg_ground
    tree = build_tree(parse_query("covid(p1)"), g)

    def walk(n):
        yield n
        for _, child in n.children:
            yield from walk(child)

    neg_nodes = [
        n
        for n in walk(tree.root)
        if n.query and str(n.query[0]) == "¬protected(p1)"
    ]
    assert len(neg_nodes) == 1
    node = neg_nodes[0]
    assert len(node.children) == 1
    edge, _ = node.children[0]
    assert edge.kind == "neg"
    expected = disj(
        [
            conj([Not(ac(g, "c3", ("p1",), 1)), Not(ac(g, "c4", ("p1",), 1))]),
            conj(
                [
                    Not(ac(g, "c3", ("p1",), 1)),
                    ac(g, "c5", ("p1",), 1),
                    Not(ac(g, "c6", ("p1",), 1)),
                ]
            ),
        ]
    )
    assert equiv(edge.expr, expected, g)
    exprs = tree.success_expressions()
    assert len(gamma(exprs[1], g)) == 9
    assert time.perf_counter() - t0 < 1.0


def test_criterion_3(neg_ground):
    """duals of the vulnerability example sets, exactly."""
    t0 = time.perf_counter()
    g = neg_ground
    k1 = frozenset({frozenset({ac(g, "c6", ("p1",), 1)})})
    assert duals(k1, g) == frozenset(
        {
            frozenset({ac(g, "c6", ("p1",), 2)}),
            frozenset({ac(g, "c6", ("p1",), 3)}),
        }
    )
    k2 = frozenset(
        {
            frozenset({ac(g, "c5", ("p1",), 1), ac(g, "c6", ("p1",), 2)}),
            frozenset({ac(g, "c5", ("p1",), 1), ac(g, "c6", ("p1",), 3)}),
        }
    )
    assert duals(k2, g) == frozenset(
        {
            frozenset({ac(g, "c5", ("p1",), 2)}),
            frozenset({ac(g, "c6", ("p1",), 1)}),
        }
    )
    assert time.perf_counter() - t0 < 0.1


def test_criterion_4(neg_ground):
    """Probabilities of the negation fixture's proofs: 0.9 and 0.147168;

    success probability 0.9147168; the choice-fact transform agrees with
    both within 1e-9."""
    from lpadexpl.transform import prob_via_transform

    t0 = time.perf_counter()
    g = neg_ground
    q = parse_query("covid(p1)")
    tree = build_tree(q, g)
    exprs = tree.success_expressions()
    probs = sorted((event_prob(e, g) for e in exprs), reverse=True)
    assert probs == pytest.approx([0.9, 0.147168], abs=1e-9)
    p = success_prob(q, g)
    assert p == pytest.approx(0.9147168, abs=1e-9)
    for e in exprs:
        assert prob_via_transform(e, g) == pytest.approx(
            event_prob(e, g), abs=1e-9
        )
    assert prob_via_transform(disj(exprs), g) == pytest.approx(
        p, abs=1e-9
    )
    assert time.perf_counter() - t0 < 1.0


def test_criterion_5():
    """On 200 random stratified programs, a selection's world satisfies the

    query exactly when some explanation is contained in the selection —
    zero counterexamples."""
    t0 = time.perf_counter()
    for seed in range(200):
        text, query_text = genprog.generate(seed)
        program = parse_program(text)
        g = ground(program)
        q = parse_query(query_text)
        ks = expl(q, g)
        assert oracles.coverage(ks, g) == set(
            oracles.satisfying_selections(q, g)
        ), f"counterexample at seed {seed}:\n{text}query: {query_text}"
    assert time.perf_counter() - t0 < 60.0


def test_criterion_6(arena):
    """Algebra property suites, each on ≥ 500 random cases over a

    six-instance grounding: Boolean axioms, double negation and De Morgan,
    dnf soundness and idempotence, the duals complement property, the
    mins∘hits product identity, and γ/dnf coherence."""
    t0 = time.perf_counter()
    g = arena
    atoms = arena_atoms(g)
    selections = list(oracles.all_selections(g))

    # Boolean-algebra axioms
    rng = random.Random(61)
    for _ in range(500):
        e1 = random_expr(rng, atoms, 2)
        e2 = random_expr(rng, atoms, 2)
        e3 = random_expr(rng, atoms, 2)
        assert equiv(And((e1, e2)), And((e2, e1)), g)
        assert equiv(Or((e1, e2)), Or((e2, e1)), g)
        assert equiv(And((e1, And((e2, e3)))), And((And((e1, e2)), e3)), g)
        assert equiv(Or((e1, Or((e2, e3)))), Or((Or((e1, e2)), e3)), g)
        assert equiv(Or((e1, And((e1, e2)))), e1, g)
        assert equiv(And((e1, Or((e1, e2)))), e1, g)
        assert equiv(And((e1, TOP)), e1, g)
        assert equiv(Or((e1, BOT)), e1, g)
        assert equiv(
            And((e1, Or((e2, e3)))), Or((And((e1, e2)), And((e1, e3)))), g
        )
        assert equiv(
            Or((e1, And((e2, e3)))), And((Or((e1, e2)), Or((e1, e3)))), g
        )
        assert equiv(Or((e1, Not(e1))), TOP, g)
        assert equiv(And((e1, Not(e1))), BOT, g)

    # Double negation and De Morgan
    rng = random.Random(62)
    for _ in range(500):
        e1 = random_expr(rng, atoms, 2)
        e2 = random_expr(rng, atoms, 2)
        assert equiv(Not(Not(e1)), e1, g)
        assert equiv(Not(Or((e1, e2))), And((Not(e1), Not(e2))), g)
        assert equiv(Not(And((e1, e2))), Or((Not(e1), Not(e2))), g)

    # dnf soundness and idempotence
    rng = random.Random(63)
    for _ in range(500):
        e = random_expr(rng, atoms, 2)
        d = dnf(e)
        assert equiv(d, e, g)
        assert dnf(d) == d

    # duals complement property: exactly one side covers each selection
    rng = random.Random(64)
    for _ in range(500):
        ks = random_composite_set(rng, atoms, 0, 3)
        dual = duals(ks, g)
        for s in selections:
            assert oracles.covers(ks, s) != oracles.covers(dual, s)

    # mins∘hits over the full pairwise-union product equals the union form
    rng = random.Random(65)
    for _ in range(500):
        k1 = random_composite_set(rng, atoms, 0, 2, max_atoms=2)
        k2 = random_composite_set(rng, atoms, 0, 2, max_atoms=2)
        product = [a | b for a in k1 for b in k2]
        left = mins_set(hits(product))
        right = mins_set(hits(list(k1)) + hits(list(k2)))
        assert left == right

    # γ/dnf coherence: identical covered selections
    rng = random.Random(66)
    for _ in range(500):
        e = random_expr(rng, atoms, 2)
        g1 = gamma(e, g)
        g2 = gamma(dnf(e), g)
        if g1 != g2:
            assert oracles.coverage(g1, g) == oracles.coverage(g2, g)

    assert time.perf_counter() - t0 < 60.0


def test_dnf_matches_reference(arena):
    """dnf, which absorbs after every conjoin step, equals the definition:

    the full product with consistency and normalisation, then minimal.
    About one case in 300 needs dnf's final absorption pass, hence 2000."""
    atoms = arena_atoms(arena)
    rng = random.Random(67)
    for _ in range(2000):
        e = random_expr(rng, atoms, 3)
        assert dnf(e) == oracles.dnf_reference(e), e


def test_the_order_slot_is_the_reference_key(arena):
    """Each node's ``order`` slot, made from its children's when it is
    built, is the recursive reference key on 2,000 seeded raw expressions,
    so sorting by either gives one order; ``conj`` and ``disj`` keep it."""
    atoms = arena_atoms(arena)
    rng = random.Random(70)
    exprs = [random_expr(rng, atoms, 3) for _ in range(2000)]
    for e in exprs:
        assert e.order == oracles.expr_key(e), e
    assert sorted(set(exprs), key=lambda e: e.order) == sorted(set(exprs), key=oracles.expr_key)
    for e, f in zip(exprs[::2], exprs[1::2]):
        for x in (conj([e, f]), disj([e, f])):
            if isinstance(x, (And, Or)) and x not in (e, f):  # a node it made
                assert list(x.children) == sorted(x.children, key=oracles.expr_key), x


def test_conjoin_dnf_is_the_dnf_of_the_conjunction(arena):
    """conjoin_dnf, one kernel step over two DNFs, equals dnf of their

    conjunction on 3,000 seeded pairs of normalised expressions with
    negations.  About one pair in 110 needs its final absorption pass."""
    atoms = arena_atoms(arena)
    rng = random.Random(69)
    for _ in range(3000):
        e, f = dnf(random_expr(rng, atoms, 3)), dnf(random_expr(rng, atoms, 3))
        assert conjoin_dnf(e, f) == dnf(conj([e, f])), (e, f)


def test_event_prob_matches_enumeration(arena):
    """The decision diagram gives every head assignment's mass: on 2,000

    seeded raw expressions with negations, event_prob is within 1e-9 of
    enumerating the mentioned instances' assignments."""
    atoms = arena_atoms(arena)
    rng = random.Random(68)
    for _ in range(2000):
        e = random_expr(rng, atoms, 3)
        assert event_prob(e, arena) == pytest.approx(
            oracles.event_prob_by_enumeration(e, arena), abs=1e-9
        ), e


def test_criterion_7(pos_ground, neg_ground, neg_ground_min):
    """World probabilities sum to 1 ± 1e-9 on every fixture grounding and on

    random programs; ⊤ and ⊥ have probability exactly 1 and 0."""
    for g in (pos_ground, neg_ground, neg_ground_min):
        assert oracles.total_world_prob(g) == pytest.approx(1.0, abs=1e-9)
        assert event_prob(TOP, g) == 1.0
        assert event_prob(BOT, g) == 0.0
    for seed in range(30):
        text, _ = genprog.generate(seed)
        g = ground(parse_program(text))
        assert oracles.total_world_prob(g) == pytest.approx(1.0, abs=1e-9)


def test_criterion_8(neg_ground, neg_program):
    """The text and natural-language renderings of the second covid(p1)

    proof match the frozen golden files byte for byte."""
    from lpadexpl.explainer import explain

    proofs = explain(parse_query("covid(p1)"), neg_ground)
    assert render_text(proofs[1].tree) == golden_text("text_proof2.txt")
    assert (
        render_nl(proofs[1].tree, neg_program.annotations)
        == golden_text("nl_proof2.txt")
    )


def test_criterion_9(neg_ground_min):
    """Negating the disjunction of the three ways of being protected and

    normalizing yields exactly the dual set of those three composite
    choices — 9 composite choices, covering precisely the selections not
    covered by the original three."""
    g = neg_ground_min
    k_pro = frozenset(
        {
            frozenset({ac(g, "c3", ("p1",), 1)}),
            frozenset({ac(g, "c4", ("p1",), 1), ac(g, "c5", ("p1",), 2)}),
            frozenset({ac(g, "c4", ("p1",), 1), ac(g, "c6", ("p1",), 1)}),
        }
    )
    dual = duals(k_pro, g)
    assert len(dual) == 9
    e = disj([conj(sorted(k, key=str)) for k in sorted(k_pro, key=str)])
    via_dnf = gamma(dnf(Not(e)), g)
    assert via_dnf == dual
    assert oracles.coverage(via_dnf, g) == oracles.complement_coverage(k_pro, g)
