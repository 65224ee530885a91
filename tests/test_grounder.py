import itertools
import random

import pytest

from lpadexpl.cli import main
from lpadexpl.errors import ProgramError, StratificationError
from lpadexpl.grounder import GroundProbClause, ground, relevant_subset, stratify
from lpadexpl.semantics import success_prob
from lpadexpl.syntax import (
    Atom,
    Clause,
    Constant,
    Variable,
    apply_atom,
    apply_query,
    clause_vars,
    is_ground_atom,
    mgu,
    parse_program,
    parse_query,
)

from conftest import FIXTURES, fixture_text, load_restriction
import genprog
import oracles
from oracles import theta_key


def test_ground_covid_pos(pos_ground):
    g = pos_ground
    assert len(g.instances) == 12  # 3 for c1, 9 for c2
    assert len(g.derived) == 6
    assert g.constants == ("p1", "p2", "p3")
    assert g.selection_count() == 157_464


def test_instances_in_clause_then_lexicographic_order(pos_ground):
    cids = [inst.cid for inst in pos_ground.instances]
    assert cids == ["c1"] * 3 + ["c2"] * 9
    c1_keys = [inst.key for inst in pos_ground.instances[:3]]
    assert c1_keys == [
        (("X", "p1"),),
        (("X", "p2"),),
        (("X", "p3"),),
    ]


def test_theta_key_sorted_by_variable_name():
    key = theta_key({Variable("Y"): Constant("p2"), Variable("X"): Constant("p1")})
    assert key == (("X", "p1"), ("Y", "p2"))


def test_instance_lookup(pos_ground):
    inst = pos_ground.instance("c2", (("X", "p1"), ("Y", "p2")))
    assert inst.n_explicit == 2
    assert inst.n_heads == 3  # covid, flu, implicit none
    assert str(inst.head_atom(1)) == "covid(p1)"
    assert inst.prob(3) == pytest.approx(0.3)
    assert inst.values_str() == "[p1,p2]"
    with pytest.raises(ProgramError):
        pos_ground.instance("c9", ())


def test_restriction_limits_instances(neg_ground):
    by_cid = {}
    for inst in neg_ground.instances:
        by_cid[inst.cid] = by_cid.get(inst.cid, 0) + 1
    assert by_cid["c2"] == 2
    assert by_cid["c1"] == 3  # unrestricted clauses keep all groundings
    assert neg_ground.selection_count() == 7_962_624


def test_minimal_restriction(neg_ground_min):
    assert len(neg_ground_min.instances) == 7
    assert neg_ground_min.selection_count() == 576


def test_restriction_validation(neg_program):
    with pytest.raises(ProgramError):
        ground(neg_program, restriction={"c99": [{"X": "p1"}]})
    with pytest.raises(ProgramError):
        ground(neg_program, restriction={"c1": [{"Z": "p1"}]})


def test_constants_override(pos_program):
    g = ground(pos_program, constants=["p1", "p2"])
    assert len(g.instances) == 2 + 4


def test_derived_clauses_fully_ground(neg_ground_full):
    assert len(neg_ground_full.derived) == 12  # 2 rules x 3 constants + 6 facts
    assert all(not_vars_free(c) for c in neg_ground_full.derived)


def not_vars_free(clause):
    from lpadexpl.syntax import clause_vars

    return clause_vars(clause) == ()


def test_relevant_subset_keeps_reachable_instances(neg_ground_full):
    rs = relevant_subset(neg_ground_full, parse_query("covid(p1)"))
    assert len(rs.instances) == 24  # contagion chains reach every instance
    rs2 = relevant_subset(neg_ground_full, parse_query("pcr(p1)"))
    assert len(rs2.instances) == 0
    assert len(rs2.derived) == 1


def test_strata_follow_negation(neg_ground_full):
    strata = neg_ground_full.strata
    assert strata[("young", 1)] < strata[("vulnerable", 1)]
    assert strata[("vulnerable", 1)] < strata[("protected", 1)]
    assert strata[("protected", 1)] < strata[("covid", 1)]
    assert max(strata.values()) == 3


def test_positive_recursion_is_stratified():
    p = parse_program(
        "edge(a,b).\nedge(b,c).\n"
        "path(X,Y) :- edge(X,Y).\n"
        "path(X,Y) :- edge(X,Z), path(Z,Y).\n"
    )
    strata = stratify(ground(p))
    assert strata[("path", 2)] == strata[("edge", 2)] == 0


def test_negative_cycle_detected():
    g = ground(parse_program("p :- \\+q.\nq :- \\+p.\n"))
    with pytest.raises(StratificationError) as e:
        stratify(g)
    assert "negative cycle" in str(e.value)


def test_negative_self_loop_detected():
    g = ground(parse_program("p :- \\+p.\n"))
    with pytest.raises(StratificationError) as e:
        stratify(g)
    assert "p -> p" in str(e.value)


# ---------------------------------------------------------------------------
# Derived clauses are ground over the atoms that can be true
# ---------------------------------------------------------------------------


def deep(n):
    """A link path n0 -> ... -> nn with one probabilistic goal at its end."""
    lines = ["reach(X) :- goal(X).", "reach(X) :- link(X,Y), reach(Y).", f"goal(n{n}):0.7."]
    lines += [f"link(n{i},n{i + 1})." for i in range(n)]
    return parse_program("\n".join(lines) + "\n")


def test_deep_grounds_only_the_clauses_that_can_fire():
    # goal(nn) gives reach(nn); each link then gives one reach clause.
    for n in (1, 5, 40):
        assert len(ground(deep(n)).derived) == 2 * n + 1
    g = ground(deep(40))
    assert g.constants == tuple(sorted(f"n{i}" for i in range(41)))
    assert [str(c) for c in g.derived[:2]] == ["reach(n40) :- goal(n40).", "reach(n0) :- link(n0,n1), reach(n1)."]


def test_deep_1000_answers():
    g = ground(deep(1000))
    assert len(g.derived) == 2001
    assert success_prob(parse_query("reach(n0)"), g) == pytest.approx(0.7, abs=1e-12)


def _positive_model(g, clauses):
    """The least model of ``clauses`` with negative literals dropped, over the

    explicit heads of every instance taken as facts (naive iteration)."""
    model = {inst.head_atom(i) for inst in g.instances for i in range(1, inst.n_explicit + 1)}
    changed = True
    while changed:
        changed = False
        for c in clauses:
            if c.head not in model and all(lit.atom in model for lit in c.body if lit.positive):
                model.add(c.head)
                changed = True
    return model


def _pruned_full_grounding(g):
    full = oracles.full_grounding(g)
    model = _positive_model(g, full)
    return [c for c in full if all(lit.atom in model for lit in c.body if lit.positive)]


def test_derived_is_the_full_grounding_filtered_in_order():
    grounds = [
        ground(parse_program(fixture_text(name)), restriction=load_restriction(r) if r else None)
        for name, restrictions in (
            ("covid_pos.lpad", (None, "restrict_c2.json")),
            ("covid_neg.lpad", (None, "restrict_c2.json", "restrict_min.json")),
        )
        for r in restrictions
    ]
    # Atoms outside the pool bind no variable, as the full product never
    # put them there: r(c) :- q(c) is no instance over {a, b}.
    grounds.append(ground(parse_program("r(X) :- q(X).\nq(c).\nq2(a):0.5.\nq(X) :- q2(X).\n"), ["a", "b"]))
    for full_heads in (False, True):
        for seed in range(200):
            text, _ = genprog.generate(seed, full_heads=full_heads)
            grounds.append(ground(parse_program(text)))
    dropped = 0
    for g in grounds:
        assert list(g.derived) == _pruned_full_grounding(g)
        dropped += len(oracles.full_grounding(g)) - len(g.derived)
    assert dropped > 0


def test_a_join_binds_no_variable_outside_the_pool():
    # g(b) is joined last, and looks up e(X,b): e(d,b) binds X to d, which
    # the pool leaves out, so r(d)'s clause is no instance.
    p = parse_program("g(b).\ne(d,b).\ne(a,b).\nr(X) :- g(Y), e(X,Y).\n")
    assert [str(c) for c in ground(p, ["a", "b"]).derived] == [
        "g(b).", "e(d,b).", "e(a,b).", "r(a) :- g(b), e(a,b).",
    ]
    assert len(ground(p).derived) == 5


def test_unbound_variables_range_over_the_pool():
    g = ground(parse_program("r(X) :- \\+q(X).\nq(a).\nt(b):0.5.\n"))
    assert [str(c) for c in g.derived] == ["r(a) :- \\+q(a).", "r(b) :- \\+q(b).", "q(a)."]
    g = ground(parse_program("s(X,Y) :- \\+t.\nt:0.5.\n"), constants=["b", "a"])
    assert [str(c.head) for c in g.derived] == ["s(a,a)", "s(a,b)", "s(b,a)", "s(b,b)"]


def test_a_constant_listed_twice_counts_once(capsys):
    # Listed twice, p1 used to give two instances with one key, and the
    # oracle then failed with an IndexError.
    g = ground(parse_program(fixture_text("covid_pos.lpad")), constants=["p1", "p1", "p2"])
    assert g.constants == ("p1", "p2")
    assert len(g.instances) == 2 + 4
    for method in ("engine", "oracle", "transform"):
        argv = ["prob", str(FIXTURES / "covid_pos.lpad"), "covid(p1)", "--method", method]
        assert main(argv + ["--constants", "p1,p1,p2"]) == 0
        assert capsys.readouterr().out == "0.936000000\n"


def test_negated_body_atoms_do_not_prune():
    # Negation is ignored: missing's clause stays although it cannot fire.
    g = ground(parse_program("p :- \\+missing.\nmissing :- r(a), \\+r(a).\nr(a):0.5.\n"))
    assert [str(c) for c in g.derived] == ["p :- \\+missing.", "missing :- r(a), \\+r(a)."]


def test_no_constants_error_is_unchanged():
    with pytest.raises(ProgramError) as e:
        ground(parse_program("p(X) :- q.\nq.\n"))
    assert str(e.value) == "cannot ground clause with variables (X): no constants"


def test_strata_do_not_depend_on_the_pruning(capsys, tmp_path):
    cycle = tmp_path / "cycle.lpad"
    cycle.write_text("p :- missing, \\+p.\n")
    assert ground(parse_program(cycle.read_text())).derived == ()
    assert main(["check", str(cycle)]) == 2
    out = capsys.readouterr().out
    assert "stratified: no\n" in out
    assert "negative cycle p -> p" in out


def test_clauses_that_cannot_fire_no_longer_reach_the_depth_limit(capsys, tmp_path):
    # p :- p, q cannot fire, since q needs r(b) and only r(a) can hold; the
    # grounding drops it, so p has no clause and fails instead of recursing
    # until the depth limit.
    program = tmp_path / "never.lpad"
    program.write_text("p :- p, q.\nq :- r(b).\nr(a):0.5.\n")
    assert main(["prob", str(program), "p"]) == 0
    assert capsys.readouterr().out == "0.000000000\n"


def test_ground_goals_resolve_through_the_head_index():
    g = ground(deep(3))
    reach = parse_query("reach(n1)")[0].atom
    clauses = [str(c) for _, _, c, _ in g.resolvents(reach)]
    assert clauses == ["reach(n1) :- link(n1,n2), reach(n2)."]
    assert len(g.resolvents(parse_query("reach(X)")[0].atom)) == 4
    goal = parse_query("goal(n3)")[0].atom
    assert [(inst.cid, i) for _, _, inst, i in g.resolvents(goal)] == [("c1", 1)]
    assert g.resolvents(parse_query("goal(n0)")[0].atom) == []


def test_resolvents_come_instance_by_instance():
    g = ground(parse_program(
        "a(X):0.5; b(X):0.5 :- q(X).\na(X):0.5 :- q(X).\na(v):0.5; a(u):0.5.\nq(u).\nq(v).\n"
    ))

    def entries(text):
        atom = parse_query(text)[0].atom
        return [(str(head), source.cid, i) for head, _, source, i in g.resolvents(atom)]

    assert entries("a(X)") == [
        ("a(u)", "c1", 1), ("a(v)", "c1", 1), ("a(u)", "c2", 1), ("a(v)", "c2", 1),
        ("a(v)", "c3", 1), ("a(u)", "c3", 2),
    ]
    assert entries("a(u)") == [("a(u)", "c1", 1), ("a(u)", "c2", 1), ("a(u)", "c3", 2)]
    q = parse_query("q(X)")[0].atom
    assert [(str(head), i) for head, _, _, i in g.resolvents(q)] == [("q(u)", 0), ("q(v)", 0)]


def _relevant_by_passes(g, q):
    """relevant_subset by its definition: repeat passes over every instance

    and clause until no relevant atom is added."""
    heads = [(inst, inst.head_atom(i)) for inst in g.instances for i in range(1, inst.n_explicit + 1)]
    relevant = set()
    for lit in q:
        if is_ground_atom(lit.atom):
            relevant.add(lit.atom)
        else:
            relevant |= {a for _, a in heads if mgu(lit.atom, a) is not None}
            relevant |= {c.head for c in g.derived if mgu(lit.atom, c.head) is not None}
    kept = []
    while True:
        new = [inst for inst, a in heads if a in relevant and inst not in kept]
        new += [c for c in g.derived if c.head in relevant and c not in kept]
        if not new:
            return kept
        for c in new:
            kept.append(c)
            relevant |= {lit.atom for lit in c.body}


def test_relevant_subset_is_the_closure_in_order():
    cases = [(ground(deep(30)), parse_query("reach(n0)")), (ground(deep(30)), parse_query("reach(X)"))]
    reverse = "reach(X) :- goal(X).\nreach(X) :- link(X,Y), reach(Y).\ngoal(n0):0.7.\n"
    reverse += "".join(f"link(n{i + 1},n{i}).\n" for i in range(30))
    cases.append((ground(parse_program(reverse)), parse_query("reach(n30)")))
    pairs = ground(parse_program("r(a,c):0.3.\nr(d,b):0.6.\nq(X,Y) :- r(X,Y).\n"))
    cases.append((pairs, parse_query("r(X,b)")))  # a non-ground probabilistic literal
    for seed in range(200):
        text, query = genprog.generate(seed)
        cases.append((ground(parse_program(text)), parse_query(query)))
    for g, q in cases:
        rs = relevant_subset(g, q)
        kept = _relevant_by_passes(g, q)
        assert list(rs.instances) == [inst for inst in g.instances if inst in kept]
        assert list(rs.derived) == [c for c in g.derived if c in kept]


# ---------------------------------------------------------------------------
# The compiled joins over atoms of arity 2 and 3
# ---------------------------------------------------------------------------

_VARIABLES = ("X", "Y", "Z")


def wide_program(seed):
    """A seeded program over atoms of arity 0-3, for the joins that genprog

    (arity at most 1, the one variable X) does not reach: repeated
    variables, constants among variables, bodies of up to three atoms,
    recursion, and variables that only the head or a negative literal
    binds.  Returns the program text, a restriction (or None) and a
    constant pool (or None); a pool leaves out the program constant ``d``
    and adds ``e``, which the program does not mention."""
    rng = random.Random(seed)
    consts = ["a", "b", "c", "d"][: rng.randint(2, 4)]

    def atom(name, arity, var_share=0.7):
        if arity == 0:
            return name
        args = [rng.choice(_VARIABLES) if rng.random() < var_share else rng.choice(consts)
                for _ in range(arity)]
        return f"{name}({','.join(args)})"

    lines = []
    base = [("e", 2), ("f", 3), ("g", 1)]
    for name, arity in base:
        lines += [atom(name, arity, var_share=0) + "." for _ in range(rng.randint(1, 4))]
    # Probabilistic facts, and clauses whose heads take a base atom's variables.
    prob = []
    for k in range(rng.randint(1, 2)):
        name, arity = f"q{k}", rng.randint(1, 3)
        if rng.random() < 0.4:
            lines.append(f"{atom(name, arity, var_share=0)}:0.5.")
        else:
            body = parse_query(atom(*rng.choice(base)))[0].atom
            names = [t.name for t in body.args if isinstance(t, Variable)] or consts
            args = ",".join(rng.choice(names) for _ in range(arity))
            lines.append(f"{name}({args}):0.4; {name}_alt({args}):0.3 :- {body}.")
        prob.append((name, arity))
    derived = [(f"r{k}", rng.randint(0, 3)) for k in range(3)]
    for name, arity in derived:
        for _ in range(rng.randint(1, 2)):
            body = [
                ("\\+" if rng.random() < 0.25 else "") + atom(*rng.choice(base + prob + derived))
                for _ in range(rng.randint(1, 3))
            ]
            lines.append(f"{atom(name, arity)} :- {', '.join(body)}.")
    text = "\n".join(lines) + "\n"

    restriction = None
    with_variables = [c for c in parse_program(text).prob_clauses if clause_vars(c)]
    if with_variables and rng.random() < 0.5:
        c = rng.choice(with_variables)
        names = sorted(v.name for v in clause_vars(c))
        rows = list(itertools.product(consts, repeat=len(names)))
        rows = rng.sample(rows, rng.randint(1, len(rows)))
        restriction = {c.cid: [dict(zip(names, row)) for row in rows]}
    constants = None
    if rng.random() < 0.5:
        constants = [x for x in consts if x != "d"] + ["e"]
        rng.shuffle(constants)
    return text, restriction, constants


def _instances_by_substitution(p, pool, restriction):
    """``ground``'s instances by their definition: each θ a dict, applied to

    the clause's atoms."""
    out = []
    for c in p.prob_clauses:
        variables = clause_vars(c)
        ordered = sorted(variables, key=lambda v: v.name)
        if restriction and c.cid in restriction:
            thetas = [{Variable(v): Constant(t) for v, t in entry.items()} for entry in restriction[c.cid]]
        else:
            thetas = [
                {v: Constant(name) for v, name in zip(ordered, combo)}
                for combo in itertools.product(pool, repeat=len(ordered))
            ]
        for theta in thetas:
            out.append(GroundProbClause(
                c.cid,
                theta_key(theta),
                tuple(theta[v].name for v in variables),
                tuple((apply_atom(theta, a), prob) for a, prob in c.heads),
                c.n_explicit,
                apply_query(theta, c.body),
            ))
    return out


def _join_features(c):
    """Which of the joins that genprog does not reach a source clause needs."""
    positive = [lit.atom for lit in c.body if lit.positive]
    bound = {t for a in positive for t in a.args if isinstance(t, Variable)}
    return {
        "repeated variable": any(len(set(a.args)) < len(a.args) for a in positive),
        "constant among variables": any(
            {type(t) for t in a.args} == {Variable, Constant} for a in positive
        ),
        "three body atoms": len(positive) == 3,
        "recursion": any(a.pred == c.head.pred for a in positive),
        "unbound variable": bool(set(clause_vars(c)) - bound),
    }


def test_compiled_joins_agree_with_the_full_grounding_on_wide_programs():
    # Each feature counts the programs whose grounding keeps an instance of a
    # clause with it, so that every kind of join is checked on real output.
    kept = dict.fromkeys(_join_features(Clause(Atom("p"))), 0)
    kept.update({"pool leaves out d": 0, "restriction": 0})
    for seed in range(300):
        text, restriction, constants = wide_program(seed)
        p = parse_program(text)
        g = ground(p, constants, restriction)
        assert list(g.instances) == _instances_by_substitution(p, list(g.constants), restriction)
        assert list(g.derived) == _pruned_full_grounding(g)
        heads = {c.head.pred for c in g.derived}
        for c in p.derived_clauses:
            if c.body and c.head.pred in heads:
                for feature, present in _join_features(c).items():
                    kept[feature] += present
        kept["pool leaves out d"] += bool(constants) and "d" in p.constants() and bool(heads)
        kept["restriction"] += restriction is not None and bool(heads)
    assert min(kept.values()) > 0, kept
