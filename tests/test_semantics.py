"""World enumeration, model checking, and the two probability routes."""

import math

import pytest

from lpadexpl.choice_algebra import BOT, TOP, AtomicChoice, Not, conj, disj, equiv
from lpadexpl.errors import EnumerationLimitError
from lpadexpl.explainer import explain
from lpadexpl.grounder import ground
from lpadexpl.semantics import (
    derivation_prob,
    enumerate_selections,
    event_prob,
    model_check,
    success_prob,
    world_of,
    world_prob,
    worlds_table,
)
from lpadexpl.slpdnf import build_tree, derivations, success_expressions
from lpadexpl.syntax import parse_program, parse_query

from conftest import load_restriction
import genprog
import oracles


def ac(g, cid, values, index):
    inst = g.instance_by_values(cid, tuple(values))
    return AtomicChoice(inst.cid, inst.key, index)


def all_first_heads(g):
    return frozenset(AtomicChoice(i.cid, i.key, 1) for i in g.instances)


def test_world_of_keeps_chosen_heads_and_derived(neg_ground_min):
    g = neg_ground_min
    w = world_of(all_first_heads(g), g)
    heads = {str(c.head) for c in w.clauses}
    assert "covid(p1)" in heads  # from the pcr clause, head index 1
    assert "young(p1)" in heads  # first head of the age clause
    assert "adult(p1)" not in heads  # second head, not chosen
    # all derived clauses ride along unconditionally
    assert len(w.clauses) == 7 + len(g.derived)


def test_model_check_in_the_all_first_heads_world(neg_ground_min):
    g = neg_ground_min
    w = world_of(all_first_heads(g), g)
    model = {str(a) for a in w.model()}
    assert "covid(p1)" in model and "covid(p2)" in model
    assert "ffp2(p1)" in model and "protected(p1)" in model
    # young(p1) was chosen, so the vulnerable clause's body fails
    assert "vulnerable(p1)" not in model
    assert model_check(w, parse_query("covid(p1), \\+vulnerable(p1)"))
    assert not model_check(w, parse_query("\\+protected(p1)"))


def test_world_prob_of_all_first_heads(neg_ground_min):
    p = world_prob(all_first_heads(neg_ground_min), neg_ground_min)
    assert p == pytest.approx(0.0093312, abs=1e-12)


def test_world_of_rejects_incomplete_selection(neg_ground_min):
    partial = frozenset(list(all_first_heads(neg_ground_min))[:3])
    with pytest.raises(EnumerationLimitError):
        world_of(partial, neg_ground_min)


def test_event_prob_units_are_exact(pos_ground):
    assert event_prob(TOP, pos_ground) == 1.0
    assert event_prob(BOT, pos_ground) == 0.0


def test_event_prob_of_atomic_and_negated(pos_ground):
    alpha = ac(pos_ground, "c1", ["p1"], 1)
    assert event_prob(alpha, pos_ground) == pytest.approx(0.9, abs=1e-12)
    assert event_prob(Not(alpha), pos_ground) == pytest.approx(0.1, abs=1e-12)
    both = conj([alpha, ac(pos_ground, "c2", ["p1", "p2"], 1)])
    assert event_prob(both, pos_ground) == pytest.approx(0.36, abs=1e-12)


def test_event_prob_respects_assignment_limit(pos_ground):
    alpha = ac(pos_ground, "c1", ["p1"], 1)
    both = conj([alpha, ac(pos_ground, "c2", ["p1", "p2"], 1)])
    message = r"^event_prob: 2 nodes in the decision diagram exceed the limit 1 \(--limit\)$"
    with pytest.raises(EnumerationLimitError, match=message):
        event_prob(both, pos_ground, limit=1)
    # The diagram is one chain: a node for c1 above a node for c2.
    assert event_prob(both, pos_ground, limit=2) == pytest.approx(0.36, abs=1e-12)


def test_event_prob_of_thousands_of_independent_facts():
    # A 3,000-node chain, and ∨s folded over 3,000 one-node diagrams: both
    # far deeper than the interpreter's recursion limit.
    g = ground(parse_program("".join(f"f{i}:0.9995.\n" for i in range(3000))))
    facts = [AtomicChoice(inst.cid, inst.key, 1) for inst in g.instances]
    all_hold = math.prod(inst.prob(1) for inst in g.instances)
    assert event_prob(conj(facts), g) == pytest.approx(all_hold, rel=1e-9)
    assert event_prob(disj(facts), g) == pytest.approx(1.0, abs=1e-12)
    not_all = Not(conj(facts))
    assert event_prob(not_all, g) == pytest.approx(1 - all_hold, rel=1e-9)
    assert equiv(not_all, disj(Not(f) for f in facts), g)


def test_event_prob_matches_enumeration_on_generated_programs():
    """On genprog seeds 0-199, the engine's success_prob and every

    derivation's derivation_prob are within 1e-9 of enumerating head
    assignments."""
    for seed in range(200):
        text, query_text = genprog.generate(seed)
        g = ground(parse_program(text))
        q = parse_query(query_text)
        expected = oracles.event_prob_by_enumeration(
            disj(success_expressions(q, g)), g
        )
        assert success_prob(q, g) == pytest.approx(expected, abs=1e-9), seed
        for d in derivations(build_tree(q, g)):
            assert derivation_prob(d, g) == pytest.approx(
                oracles.event_prob_by_enumeration(d.expr, g), abs=1e-9
            ), seed


def test_no_proof_has_probability_zero():
    """On genprog seeds 0-1999 with some heads summing to 1, so that negating

    every head of an instance denotes no world: every proof ``explain``
    returns has a positive probability, and the engine matches the oracle."""
    proofs = 0
    for seed in range(2000):
        text, query_text = genprog.generate(seed, full_heads=True)
        g = ground(parse_program(text))
        q = parse_query(query_text)
        items = explain(q, g)
        assert all(item.prob > 0 for item in items), seed
        proofs += len(items)
        assert success_prob(q, g) == pytest.approx(
            success_prob(q, g, method="oracle"), abs=1e-9
        ), seed
    assert proofs > 1000


def test_derivation_probs_without_negation(pos_ground):
    tree = build_tree(parse_query("covid(p1)"), pos_ground)
    probs = sorted(
        (derivation_prob(d, pos_ground) for d in derivations(tree)), reverse=True
    )
    assert probs == pytest.approx([0.9, 0.36], abs=1e-12)


def test_derivation_probs_with_negation(neg_ground):
    tree = build_tree(parse_query("covid(p1)"), neg_ground)
    probs = sorted(
        (derivation_prob(d, neg_ground) for d in derivations(tree)), reverse=True
    )
    assert probs == pytest.approx([0.9, 0.147168], abs=1e-12)


def test_success_prob_pinned_values(pos_ground, neg_ground_min):
    q = parse_query("covid(p1)")
    assert success_prob(q, pos_ground) == pytest.approx(0.936, abs=1e-12)
    assert success_prob(q, neg_ground_min) == pytest.approx(0.9147168, abs=1e-12)


def test_success_prob_engine_matches_oracle_method(pos_program, neg_ground_min):
    g = ground(pos_program, restriction=load_restriction("restrict_c2.json"))
    assert g.selection_count() == 72
    for text in ["covid(p1)", "covid(p2)", "flu(p1)", "\\+covid(p3)"]:
        q = parse_query(text)
        assert success_prob(q, g, "engine") == pytest.approx(
            success_prob(q, g, "oracle"), abs=1e-9
        )
    q = parse_query("covid(p1)")
    assert success_prob(q, neg_ground_min, "engine") == pytest.approx(
        success_prob(q, neg_ground_min, "oracle"), abs=1e-9
    )


def test_success_prob_oracle_matches_independent_oracle(neg_ground_min):
    q = parse_query("covid(p1)")
    assert success_prob(q, neg_ground_min, "oracle") == pytest.approx(
        oracles.query_prob(q, neg_ground_min), abs=1e-12
    )


def test_success_prob_unknown_method_rejected(pos_ground):
    with pytest.raises(ValueError):
        success_prob(parse_query("covid(p1)"), pos_ground, "guess")


def test_success_prob_of_fact_and_of_unprovable_query(pos_ground):
    assert success_prob(parse_query("pcr(p1)"), pos_ground) == 1.0
    assert success_prob(parse_query("\\+covid(p3)"), pos_ground) == 1.0
    assert success_prob(parse_query("covid(p9)"), pos_ground) == 0.0


def test_enumerate_selections_count_and_shape(neg_ground_min):
    sels = list(enumerate_selections(neg_ground_min))
    assert len(sels) == 576
    assert all(len(s) == 7 for s in sels)
    assert len(set(sels)) == 576


def test_enumerate_selections_limit(neg_ground_min):
    with pytest.raises(EnumerationLimitError):
        list(enumerate_selections(neg_ground_min, limit=100))


def test_total_world_prob_sums_to_one(pos_ground, neg_ground_min):
    assert oracles.total_world_prob(pos_ground) == pytest.approx(1.0, abs=1e-9)
    assert oracles.total_world_prob(neg_ground_min) == pytest.approx(1.0, abs=1e-9)


def test_worlds_table_rows_and_total(neg_ground_min):
    q = parse_query("covid(p1)")
    rows = list(worlds_table(neg_ground_min, [q]))
    assert len(rows) == 576
    first_selection, first_p, first_truths = rows[0]
    assert first_selection == all_first_heads(neg_ground_min)
    assert first_p == pytest.approx(0.0093312, abs=1e-12)
    assert first_truths == [True]
    assert math.fsum(p for _, p, _ in rows) == pytest.approx(1.0, abs=1e-9)
    covered = math.fsum(p for _, p, truths in rows if truths[0])
    assert covered == pytest.approx(0.9147168, abs=1e-9)


def test_worlds_table_limit(neg_ground_min):
    with pytest.raises(EnumerationLimitError):
        list(worlds_table(neg_ground_min, None, limit=10))
