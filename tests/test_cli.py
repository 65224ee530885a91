"""The command-line interface: outputs, formats, and exit codes."""

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lpadexpl.__main__
from lpadexpl import transform
from lpadexpl.choice_algebra import (
    CONJOIN_LIMIT,
    MAX_EXPR_DEPTH,
    gamma,
    parse_composite_set_text,
    parse_expr_text,
)
from lpadexpl.cli import build_parser, main
from lpadexpl.grounder import ground
from lpadexpl.syntax import parse_program

from conftest import FIXTURES, golden_text
import genprog
import oracles

ROOT = Path(__file__).resolve().parent.parent

POS = str(FIXTURES / "covid_pos.lpad")
NEG = str(FIXTURES / "covid_neg.lpad")
RC2 = str(FIXTURES / "restrict_c2.json")
RMIN = str(FIXTURES / "restrict_min.json")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_reports_static_diagnostics(capsys):
    code, out, _ = run(capsys, ["check", NEG])
    assert code == 0
    assert out == (
        "probabilistic clauses: 6\n"
        "derived clauses: 8\n"
        "annotations: 8\n"
        "range-restricted: yes\n"
        "stratified: yes (4 strata)\n"
        "check passed\n"
    )


def test_check_fails_on_range_violation(capsys, tmp_path):
    bad = tmp_path / "bad.lpad"
    bad.write_text("f(a):0.5.\nq(X) :- \\+f(X).\n")
    code, out, _ = run(capsys, ["check", str(bad)])
    assert code == 2
    assert "range-restricted: no" in out
    assert out.endswith("check failed\n")


def test_check_fails_on_negative_cycle(capsys, tmp_path):
    bad = tmp_path / "cycle.lpad"
    bad.write_text("p :- \\+q.\nq :- \\+p.\n")
    code, out, _ = run(capsys, ["check", str(bad)])
    assert code == 2
    assert "stratified: no" in out
    assert out.endswith("check failed\n")


def test_negative_cycle_message_is_the_same_under_every_hash_seed(tmp_path):
    # Set and dict order of strings changes with the hash seed; each child
    # process takes its own seed, so only an order-free check prints one text.
    bad = tmp_path / "cycle.lpad"
    bad.write_text("p :- \\+q.\nq :- \\+p.\n")
    package_root = str(Path(lpadexpl.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    for argv in (["check", str(bad)], ["prob", str(bad), "p"]):
        results = set()
        for seed in range(6):
            env["PYTHONHASHSEED"] = str(seed)
            result = subprocess.run(
                [sys.executable, "-m", "lpadexpl", *argv], capture_output=True, timeout=60, env=env
            )
            results.add((result.returncode, result.stdout, result.stderr))
        assert len(results) == 1, results
        code, out, err = results.pop()
        assert code == 2
        assert b"negative cycle q -> p -> q\n" in out + err


# ---------------------------------------------------------------------------
# prob
# ---------------------------------------------------------------------------


def test_prob_prints_nine_decimals(capsys):
    code, out, _ = run(capsys, ["prob", POS, "covid(p1)"])
    assert (code, out) == (0, "0.936000000\n")


def test_prob_methods_agree_on_the_restricted_program(capsys, tmp_path):
    # An entry listed twice counts once, as a repeated --constants name does.
    restriction = json.loads(Path(RMIN).read_text())
    restriction["c2"] *= 2
    doubled = tmp_path / "doubled.json"
    doubled.write_text(json.dumps(restriction))
    g = ground(parse_program(Path(NEG).read_text()), restriction=restriction)
    keys = [(inst.cid, inst.key) for inst in g.instances]
    assert len(keys) == len(set(keys)) == 7
    for path in (RMIN, str(doubled)):
        results = {}
        for method in ("engine", "oracle", "transform"):
            code, out, _ = run(
                capsys,
                ["prob", NEG, "covid(p1)", "--restrict", path, "--method", method],
            )
            assert code == 0
            results[method] = out
        assert set(results.values()) == {"0.914716800\n"}, path


def test_prob_of_a_negative_query(capsys):
    code, out, _ = run(capsys, ["prob", POS, "\\+covid(p3)"])
    assert (code, out) == (0, "1.000000000\n")


def test_prob_with_constants_override_and_relevant(capsys):
    code, out, _ = run(capsys, ["prob", POS, "covid(p1)", "--constants", "p1,p2"])
    assert (code, out) == (0, "0.936000000\n")
    code, out, _ = run(capsys, ["prob", POS, "covid(p1)", "--relevant"])
    assert (code, out) == (0, "0.936000000\n")


def test_prob_respects_enumeration_limit(capsys):
    code, _, err = run(
        capsys, ["prob", NEG, "covid(p1)", "--method", "oracle", "--limit", "100"]
    )
    assert code == 2
    assert err.startswith("error:")


def test_transform_of_a_query_with_no_proof_builds_no_program(capsys, monkeypatch):
    # covid(p3) has no proof: its success expressions join to ⊥, whose
    # probability is 0 without grounding a choice-fact program.
    calls = []
    monkeypatch.setattr(transform, "ground", lambda *a, **k: calls.append(a))
    code, out, _ = run(capsys, ["prob", NEG, "covid(p3)", "--method", "transform"])
    assert (code, out, calls) == (0, "0.000000000\n", [])
    code, out, _ = run(capsys, ["prob", NEG, "covid(p3)", "--method", "engine"])
    assert (code, out) == (0, "0.000000000\n")


def test_prob_limit_zero_exits_two(capsys):
    for method in ("engine", "oracle", "transform"):
        code, out, err = run(
            capsys, ["prob", NEG, "covid(p1)", "--method", method, "--limit", "0"]
        )
        assert (code, out) == (2, ""), method
        assert "limit 0 (--limit)" in err, method


def test_explain_limit(capsys):
    argv = ["explain", NEG, "covid(p1)", "--restrict", RC2]
    code, out, err = run(capsys, argv + ["--limit", "12"])
    assert (code, out) == (2, "")
    assert err == (
        "error: tree: 13 nodes in the decision diagram exceed the limit 12 (--limit)\n"
    )
    # The query's one diagram has 26 nodes.  The default is the one prob
    # uses: the output without the flag is the output with it.
    default = run(capsys, argv)
    assert default[0] == 0 and default[1].startswith("proof 1\n")
    assert run(capsys, argv + ["--limit", "25"])[0] == 2
    assert run(capsys, argv + ["--limit", "26"]) == default
    assert run(capsys, argv + ["--limit", "1000000"]) == default


def test_limit_errors_name_their_stage(capsys):
    code, _, err = run(capsys, ["prob", NEG, "covid(p1)", "--method", "oracle", "--limit", "0"])
    assert (code, err) == (
        2,
        "error: oracle: 17414258688 selections exceed the enumeration limit 0 (--limit)\n",
    )
    code, _, err = run(capsys, ["worlds", NEG, "--limit", "3"])
    assert (code, err) == (2, "error: worlds: 17414258688 worlds exceed the limit 3 (--limit)\n")
    code, _, err = run(capsys, ["prob", NEG, "covid(p1)", "--limit", "5"])
    assert (code, err) == (
        2,
        "error: walk: 6 nodes in the decision diagram exceed the limit 5 (--limit)\n",
    )
    code, _, err = run(capsys, ["explain", NEG, "covid(p1)", "--limit", "5"])
    assert (code, err) == (
        2,
        "error: tree: 6 nodes in the decision diagram exceed the limit 5 (--limit)\n",
    )
    # transform builds the query's tree first, within the same --limit.
    code, _, err = run(capsys, ["prob", NEG, "covid(p1)", "--method", "transform", "--limit", "5"])
    assert (code, err) == (
        2,
        "error: tree: 6 nodes in the decision diagram exceed the limit 5 (--limit)\n",
    )


def test_oracle_rejects_a_non_ground_query(capsys, tmp_path):
    # The oracle checks atoms in each world's model, so a variable would
    # read as false everywhere: it refuses instead of printing 0.
    program = tmp_path / "r.lpad"
    program.write_text("r(a,c):0.3. r(d,b):0.6. r(e,b):0.5. q(X,Y) :- r(X,Y).\n")
    path = str(program)
    for query in ("q(X,b)", "\\+q(X,b)"):
        code, out, err = run(capsys, ["prob", path, query, "--method", "oracle"])
        assert (code, out, err) == (2, "", f"error: oracle: query {query} is not ground\n")
    code, out, err = run(capsys, ["worlds", path, "--query", "q(X,b)"])
    assert (code, out, err) == (2, "", "error: worlds: query q(X,b) is not ground\n")
    for method in ("engine", "transform"):
        assert run(capsys, ["prob", path, "q(X,b)", "--method", method])[:2] == (
            0,
            "0.800000000\n",
        ), method
    for method in ("engine", "oracle"):
        assert run(capsys, ["prob", path, "q(d,b)", "--method", method])[:2] == (
            0,
            "0.600000000\n",
        ), method
    code, out, _ = run(capsys, ["worlds", path, "--query", "q(d,b)"])
    assert code == 0 and out.count("[q(d,b)=T]") == 4


def test_a_floundering_query_exits_two(capsys, tmp_path):
    # Selecting a negative literal that is not ground would flounder: the
    # engine and the transform refuse it, as the oracle does, instead of
    # reading "no proof" as probability 0.
    program = tmp_path / "r.lpad"
    program.write_text("r(a,c):0.3. r(d,b):0.6. r(e,b):0.5. q(X,Y) :- r(X,Y).\n")
    for method in ("engine", "transform"):
        code, out, err = run(capsys, ["prob", str(program), "\\+q(X,b)", "--method", method])
        assert (code, out, err) == (
            2,
            "",
            "error: floundering: negative literal \\+q(X,b) is not ground\n",
        ), method


@pytest.mark.parametrize(
    "query, message",
    [
        ("\\+covid(X)", "floundering: negative literal \\+covid(X) is not ground"),
        ("covid(X), \\+covid(Y)", "floundering: negative literal \\+covid(Y) is not ground"),
        ("\\+covid(X), covid(X)", "floundering: negative literal \\+covid(X) is not ground"),
        ("\\+foo(p1)", "unknown predicate foo/1 in query"),
        ("covid(p1), \\+foo(p1)", "unknown predicate foo/1 in query"),
    ],
)
def test_explain_and_prob_reject_the_same_queries(capsys, query, message):
    for argv in (["prob", NEG, query], ["explain", NEG, query]):
        assert run(capsys, argv) == (2, "", f"error: {message}\n"), argv


def ladder(n: int) -> str:
    """Two rungs per level, a and b; each of the four edges from level i to

    level i+1 is an independent fact of probability 0.5, and a_n is the goal."""
    lines = ["reach(X) :- goal(X).", "reach(X) :- edge(X,Y), reach(Y).", f"goal(a{n})."]
    lines += [f"edge({s}{i},{t}{i + 1}):0.5." for i in range(n) for s in "ab" for t in "ab"]
    return "\n".join(lines) + "\n"


def ladder_reach_prob(n: int) -> float:
    """P(reach(a0)) on ``ladder(n)``, by a Markov chain over the set of rungs

    reachable from a0 at each level (independent of the engine)."""
    edges = [(s, t) for s in "ab" for t in "ab"]
    dist = {frozenset("a"): 1.0}
    for _ in range(n):
        step: dict[frozenset, float] = {}
        for reached, p in dist.items():
            # each of the 16 equally likely sets of edges out of this level
            for present in range(16):
                nxt = frozenset(
                    t for k, (s, t) in enumerate(edges) if present >> k & 1 and s in reached
                )
                step[nxt] = step.get(nxt, 0.0) + p / 16
        dist = step
    return sum(p for reached, p in dist.items() if "a" in reached)


def test_prob_on_a_ladder_of_4096_proofs(capsys, tmp_path):
    # 48 probabilistic facts and 4,096 proofs of reach(a0).
    program = tmp_path / "ladder12.lpad"
    program.write_text(ladder(12))
    code, out, err = run(capsys, ["prob", str(program), "reach(a0)"])
    assert (code, out, err) == (0, "0.076766298\n", "")
    assert f"{ladder_reach_prob(12):.9f}\n" == out


def test_prob_on_a_ladder_of_40_levels_within_a_small_limit(capsys, tmp_path):
    # The diagram tests instances in natural clause-id order (c2 before c10),
    # so it stays small: ladder 40's walk makes 617 nodes.
    program = tmp_path / "ladder40.lpad"
    program.write_text(ladder(40))
    code, out, err = run(capsys, ["prob", str(program), "reach(a0)", "--limit", "1000"])
    assert (code, out, err) == (0, "0.000563500\n", "")
    assert f"{ladder_reach_prob(40):.9f}\n" == out


def test_a_non_ground_goal_resolves_instance_by_instance(capsys, tmp_path):
    # a(u) and a(v) each head an instance of c1, of c2 and of c3; the proofs
    # come instance by instance, each instance's heads ascending.
    program = tmp_path / "order.lpad"
    program.write_text(
        "a(X):0.5; b(X):0.5 :- q(X).\na(X):0.5 :- q(X).\na(v):0.5; a(u):0.5.\nq(u).\nq(v).\n"
    )
    code, out, err = run(capsys, ["explain", str(program), "a(X)"])
    proofs = [block.splitlines() for block in out.split("\n\n")]
    assert (code, err) == (0, "")
    assert proofs == [
        ["proof 1", "a(u)", "   q(u)", "p = 0.5"],
        ["proof 2", "a(v)", "   q(v)", "p = 0.5"],
        ["proof 3", "a(u)", "   q(u)", "p = 0.5"],
        ["proof 4", "a(v)", "   q(v)", "p = 0.5"],
        ["proof 5", "a(v)", "p = 0.5"],
        ["proof 6", "a(u)", "p = 0.5"],
    ]


def test_probabilistic_predicates_without_ground_instances(capsys, tmp_path):
    # Restricting both clauses of covid_pos to no instances leaves covid and
    # flu with no ground heads: their goals fail, but they stay known.
    empty = tmp_path / "empty.json"
    empty.write_text('{"c1": [], "c2": []}')
    restrict = ["--restrict", str(empty)]
    assert run(capsys, ["prob", POS, "covid(p1)"] + restrict)[:2] == (0, "0.000000000\n")
    assert run(capsys, ["explain", POS, "covid(p1)"] + restrict)[:2] == (0, "no proofs\n")
    assert run(capsys, ["prob", POS, "\\+flu(p1)"] + restrict)[:2] == (0, "1.000000000\n")
    code, _, err = run(capsys, ["prob", POS, "nosuch(p1)"] + restrict)
    assert (code, err) == (2, "error: unknown predicate nosuch/1 in query\n")


def test_no_world_negates_every_head(capsys, tmp_path):
    # a and b are the only heads of one instance, so no world has neither.
    two = tmp_path / "two.lpad"
    two.write_text("a:0.5; b:0.5.\nq :- \\+a, \\+b.\n")
    assert run(capsys, ["explain", str(two), "q"])[:2] == (0, "no proofs\n")
    code, out, _ = run(capsys, ["explain", str(two), "q", "--format", "json"])
    assert (code, json.loads(out)["proofs"]) == (0, [])
    for method in ("engine", "oracle", "transform"):
        code, out, _ = run(capsys, ["prob", str(two), "q", "--method", method])
        assert (code, out) == (0, "0.000000000\n"), method
    three = tmp_path / "three.lpad"
    three.write_text("a:0.2; b:0.3; c:0.5.\nq :- \\+a, \\+b.\nr :- \\+a, \\+b, \\+c.\n")
    code, out, _ = run(capsys, ["explain", str(three), "q"])
    assert (code, out) == (0, "proof 1\nq\n   ¬a\n   ¬b\np = 0.5\n")
    assert run(capsys, ["explain", str(three), "r"])[:2] == (0, "no proofs\n")


def covid_chain(tmp_path, n):
    """The negation fixture's rules with chain facts: pcr(pn), contact(pi,pi+1)

    for i < n, person(p1..pn), and c2 restricted to the chain pairs; returns
    the CLI's file arguments."""
    rules = Path(NEG).read_text().split("\npcr(p1).")[0]
    facts = [f"pcr(p{n})."] + [f"contact(p{i},p{i + 1})." for i in range(1, n)]
    facts += [f"person(p{i})." for i in range(1, n + 1)]
    program = tmp_path / f"chain{n}.lpad"
    program.write_text(rules + "\n" + "\n".join(facts) + "\n")
    restriction = tmp_path / f"chain{n}.json"
    pairs = [{"X": f"p{i}", "Y": f"p{i + 1}"} for i in range(1, n)]
    restriction.write_text(json.dumps({"c2": pairs}))
    return [str(program), "--restrict", str(restriction)]


def test_prob_past_the_enumeration_frontier(capsys, tmp_path):
    # 2.6e15 head assignments over the mentioned instances; the decision
    # diagram answers under the default limits.
    files = covid_chain(tmp_path, 8)
    code, out, _ = run(capsys, ["prob", files[0], "covid(p1)"] + files[1:])
    assert (code, out) == (0, "0.000002813\n")
    code, out, err = run(
        capsys, ["prob", files[0], "covid(p1)"] + files[1:] + ["--limit", "100"]
    )
    assert (code, out) == (2, "")
    assert "exceed the limit 100 (--limit)" in err


def test_prob_of_chain_ten_within_ten_thousand_nodes(capsys, tmp_path):
    # The tabled walk needs fewer nodes than compiling the tree's success
    # expressions, which passes 10,000.
    files = covid_chain(tmp_path, 10)
    code, out, _ = run(
        capsys, ["prob", files[0], "covid(p1)"] + files[1:] + ["--limit", "10000"]
    )
    assert (code, out) == (0, "0.000000075\n")


def test_prob_through_a_guarded_cycle(capsys, tmp_path):
    # p and q form a cycle: the table takes its least fixpoint, and the tree,
    # which the transform builds, prunes it at the inconsistent choice c(2)
    # after c(1).
    cycle = tmp_path / "cycle.lpad"
    cycle.write_text("c(1):0.5; c(2):0.5.\np :- c(1), q.\nq :- c(2), p.\nq :- c(1).\n")
    for method in ("engine", "oracle", "transform"):
        code, out, _ = run(capsys, ["prob", str(cycle), "p", "--method", method])
        assert (code, out) == (0, "0.500000000\n"), method


def test_prob_of_an_unguarded_cycle_is_its_least_fixpoint(capsys, tmp_path):
    # The table takes loop(a)'s least fixpoint, as the oracle's least model
    # does; the tree, which the transform builds, prunes the goal loop(a)
    # below loop(a) by its loop check.
    loop = tmp_path / "loop.lpad"
    loop.write_text("loop(X) :- loop(X).\nloop(a).\n")
    for method in ("engine", "oracle", "transform"):
        code, out, _ = run(capsys, ["prob", str(loop), "loop(a)", "--method", method])
        assert (code, out) == (0, "1.000000000\n"), method


def test_a_cycle_that_calls_its_head_twice_has_a_tree(capsys, tmp_path):
    # d1_2's first clause doubles its goal on each pass round the cycle;
    # the loop check prunes the goal d1_2, d1_2 below d1_2.
    program = tmp_path / "d.lpad"
    program.write_text("p1_1(a):0.5.\nd1_2 :- d1_2, d1_2.\nd1_2 :- p1_1(a), p1_1(a).\n")
    assert run(capsys, ["explain", str(program), "d1_2"]) == (
        0, "proof 1\nd1_2\n   p1_1(a)\n   p1_1(a)\np = 0.5\n", ""
    )
    for method in ("engine", "oracle", "transform"):
        assert run(capsys, ["prob", str(program), "d1_2", "--method", method]) == (
            0, "0.500000000\n", ""
        ), method


def test_prob_of_a_long_conjunctive_query(capsys, tmp_path):
    # Each non-ground literal branches the goal; the branches are kept on a
    # list, so 1,200 of them stay off the interpreter's stack.
    program = tmp_path / "q.lpad"
    program.write_text("q(a):0.5.\n")
    query = ", ".join(f"q(X{i})" for i in range(1200))
    assert run(capsys, ["prob", str(program), query]) == (0, "0.500000000\n", "")


def long_derived_chain(tmp_path):
    # Deeper than the interpreter's recursion limit, well inside the depth limit.
    chain = tmp_path / "chain.lpad"
    steps = "".join(f"s{i} :- s{i + 1}.\n" for i in range(3000))
    chain.write_text(steps + "s3000:0.7.\n")
    return str(chain)


def test_prob_of_a_long_derived_chain(capsys, tmp_path):
    chain = long_derived_chain(tmp_path)
    for method in ("engine", "transform"):
        code, out, _ = run(capsys, ["prob", chain, "s0", "--method", method])
        assert (code, out) == (0, "0.700000000\n"), method


def test_explain_of_a_long_derived_chain(capsys, tmp_path):
    chain = long_derived_chain(tmp_path)
    code, out, _ = run(capsys, ["explain", chain, "s0", "--format", "text"])
    assert code == 0
    assert out.startswith("proof 1\ns0\n   s1\n")
    assert out.endswith("\n" + "   " * 3000 + "s3000\np = 0.7\n")
    code, out, _ = run(capsys, ["explain", chain, "s0", "--format", "nl"])
    assert code == 0
    assert out.startswith("proof 1\ns0 because\n   s1 because\n")
    assert out.endswith("\n" + "   " * 3000 + "s3000\np = 0.7\n")
    code, out, _ = run(capsys, ["explain", chain, "s0", "--format", "graph"])
    assert code == 0
    assert out.startswith('digraph proof {\n  n0 [label="s0"];\n')
    assert out.endswith('n3000 [label="s3000"];\n  n0 -> n1;\n' + "".join(
        f"  n{i} -> n{i + 1};\n" for i in range(1, 3000)
    ) + "}\n")


def test_explain_json_of_a_long_derived_chain(capsys, tmp_path):
    chain = long_derived_chain(tmp_path)
    code, out, _ = run(capsys, ["explain", chain, "s0", "--format", "json"])
    assert code == 0
    # Too deep for json.loads: check the text around the innermost record.
    assert out.startswith('{\n  "query": "s0",\n  "proofs": [\n    {\n      "rank": 1,\n')
    assert '"probability": 0.7,' in out
    assert [out.count(f'"literal": "s{i}"') for i in (0, 1500, 3000)] == [1, 1, 1]
    indent = "  " * (4 + 2 * 3000)
    innermost = f'{indent}"literal": "s3000",\n{indent}"children": []\n'
    assert innermost in out
    assert out.endswith("}\n    }\n  ]\n}\n")


def test_a_chain_past_the_depth_limit_has_a_probability_but_no_tree(capsys, tmp_path):
    chain = tmp_path / "chain.lpad"
    chain.write_text("".join(f"s{i} :- s{i + 1}.\n" for i in range(10001)) + "s10001:0.7.\n")
    code, out, _ = run(capsys, ["prob", str(chain), "s0"])
    assert (code, out) == (0, "0.700000000\n")
    explain = ["explain", str(chain), "s0"]
    transform = ["prob", str(chain), "s0", "--method", "transform"]
    for argv in (explain, transform):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err == "error: derivation exceeded 10000 steps at goal: s10000\n"


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------


def test_explain_text_blocks(capsys):
    code, out, _ = run(capsys, ["explain", NEG, "covid(p1)", "--restrict", RC2])
    assert code == 0
    assert out == (
        "proof 1\ncovid(p1)\n   pcr(p1)\np = 0.9\n"
        "\n"
        "proof 2\n" + golden_text("text_proof2.txt") + "p = 0.147168\n"
    )


def test_explain_top_one(capsys):
    code, out, _ = run(
        capsys, ["explain", NEG, "covid(p1)", "--restrict", RC2, "--top", "1"]
    )
    assert (code, out) == (0, "proof 1\ncovid(p1)\n   pcr(p1)\np = 0.9\n")


@pytest.mark.parametrize(
    "argv",
    [["explain", NEG, "covid(p1)"], ["prob", NEG, "covid(p1)"], ["worlds", NEG]],
    ids=lambda argv: argv[0],
)
def test_a_negative_limit_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--limit", "-5"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"lpadexpl {argv[0]}: error: argument --limit: must be an integer >= 0, got '-5'\n"
    )


@pytest.mark.parametrize(
    "option, value, low",
    [
        ("--top", "0", 1),
        ("--top", "-1", 1),
        ("--top", "two", 1),
        ("--fold-depth", "-1", 0),
        ("--fold-depth", "1.5", 0),
    ],
)
def test_explain_counts_out_of_range_are_usage_errors(capsys, option, value, low):
    with pytest.raises(SystemExit) as exc:
        main(["explain", NEG, "covid(p1)", "--restrict", RC2, option, value])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"lpadexpl explain: error: argument {option}: must be an integer >= {low}, "
        f"got '{value}'\n"
    )


def test_explain_fold_depth_zero_folds_below_the_root(capsys):
    code, out, _ = run(
        capsys, ["explain", NEG, "covid(p1)", "--restrict", RC2, "--fold-depth", "0"]
    )
    assert (code, out.count("proof ")) == (0, 2)
    assert "covid(p1) ..." in out


def test_explain_nl_blocks(capsys):
    code, out, _ = run(
        capsys, ["explain", NEG, "covid(p1)", "--restrict", RC2, "--format", "nl"]
    )
    assert code == 0
    assert out == (
        "proof 1\np1 has covid-19 because\n   the pcr test of p1 was positive\np = 0.9\n"
        "\n"
        "proof 2\n" + golden_text("nl_proof2.txt") + "p = 0.147168\n"
    )


def test_explain_graph_single_proof(capsys):
    code, out, _ = run(
        capsys,
        ["explain", NEG, "covid(p1)", "--restrict", RC2, "--format", "graph", "--top", "1"],
    )
    assert code == 0
    assert out == (
        "digraph proof {\n"
        '  n0 [label="covid(p1)"];\n'
        '  n1 [label="pcr(p1)"];\n'
        "  n0 -> n1;\n"
        "}\n"
    )


def test_explain_graph_of_one_tree_matches_golden(capsys):
    code, out, _ = run(
        capsys, ["explain", NEG, "covid(p1)", "--restrict", RC2, "--format", "graph"]
    )
    assert code == 0
    # two proofs render as disconnected components; the second one, shifted
    # by the two nodes of the first, is the golden single-tree graph
    assert out.startswith("digraph proof {\n")
    golden = golden_text("graph_proof2.txt")
    for line in golden.splitlines()[1:-1]:
        shifted = line
        for old, new in [("n5", "n7"), ("n4", "n6"), ("n3", "n5"), ("n2", "n4"), ("n1", "n3"), ("n0", "n2")]:
            shifted = shifted.replace(old, new)
        assert shifted in out


def test_explain_json_schema(capsys):
    code, out, _ = run(
        capsys, ["explain", NEG, "covid(p1)", "--restrict", RC2, "--format", "json"]
    )
    assert code == 0
    record = json.loads(out)
    assert record["query"] == "covid(p1)"
    assert [p["rank"] for p in record["proofs"]] == [1, 2]
    assert record["proofs"][0]["probability"] == pytest.approx(0.9)
    assert record["proofs"][1]["probability"] == pytest.approx(0.147168)
    assert record["proofs"][0]["tree"]["literal"] == "covid(p1)"
    tree2 = record["proofs"][1]["tree"]
    assert [c["literal"] for c in tree2["children"]] == [
        "contact(p1,p2)",
        "covid(p2)",
        "¬protected(p1)",
    ]


def test_explain_no_proofs(capsys):
    code, out, _ = run(capsys, ["explain", POS, "covid(p9)"])
    assert (code, out) == (0, "no proofs\n")
    code, out, _ = run(capsys, ["explain", POS, "covid(p9)", "--format", "json"])
    assert code == 0
    assert json.loads(out)["proofs"] == []


def test_explain_folded(capsys):
    code, out, _ = run(
        capsys,
        ["explain", NEG, "covid(p1)", "--restrict", RC2, "--fold-depth", "1", "--top", "2"],
    )
    assert code == 0
    assert "covid(p2) ..." in out
    assert "¬protected(p1) ..." in out
    code, out, _ = run(
        capsys,
        ["explain", NEG, "covid(p1)", "--restrict", RC2, "--fold-depth", "1", "--format", "nl"],
    )
    assert code == 0
    assert "\n   and p2 has covid-19 ...\n   and p1 was not protected ...\n" in out


def test_explain_alternatives(capsys):
    code, out, _ = run(
        capsys,
        ["explain", NEG, "covid(p1)", "--restrict", RC2, "--alternatives"],
    )
    assert code == 0
    assert "¬ffp2(p1) {surgical(p1), cloth(p1), none}" in out


@pytest.mark.parametrize("fmt", ["text", "nl", "graph", "json"])
@pytest.mark.parametrize("program", [POS, NEG])
def test_explain_relevant_output_equals_plain_explain(capsys, program, fmt):
    plain = run(capsys, ["explain", program, "covid(p1)", "--format", fmt])
    relevant = run(capsys, ["explain", program, "covid(p1)", "--format", fmt, "--relevant"])
    assert plain[0] == 0 and plain[1]
    assert relevant == plain


def test_explain_output_is_deterministic(capsys):
    argv = ["explain", NEG, "covid(p1)", "--restrict", RC2, "--format", "nl"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


# ---------------------------------------------------------------------------
# worlds
# ---------------------------------------------------------------------------


def test_worlds_rows_and_total(capsys):
    code, out, _ = run(
        capsys, ["worlds", NEG, "--restrict", RMIN, "--query", "covid(p1)"]
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 577
    assert lines[0] == (
        "p=0.009331200  "
        "{(c1,[p1],1),(c1,[p2],1),(c2,[p1,p2],1),(c3,[p1],1),"
        "(c4,[p1],1),(c5,[p1],1),(c6,[p1],1)}  [covid(p1)=T]"
    )
    assert lines[-1] == "total = 1.000000000"


def test_worlds_without_queries_has_no_marks(capsys):
    code, out, _ = run(capsys, ["worlds", NEG, "--restrict", RMIN])
    assert code == 0
    assert out.splitlines()[0].endswith("}")


def test_worlds_limit(capsys):
    code, _, err = run(capsys, ["worlds", NEG, "--restrict", RC2])
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------


def test_duals_of_a_singleton_set(capsys):
    code, out, _ = run(
        capsys, ["duals", NEG, "--restrict", RMIN, "{{(c6,[p1],1)}}"]
    )
    assert (code, out) == (0, "{{(c6,[p1],2)},{(c6,[p1],3)}}\n")


def test_duals_of_a_two_choice_composite(capsys):
    code, out, _ = run(
        capsys, ["duals", NEG, "--restrict", RMIN, "{{(c5,[p1],1),(c6,[p1],2)}}"]
    )
    assert (code, out) == (0, "{{(c5,[p1],2)},{(c6,[p1],1)},{(c6,[p1],3)}}\n")


def test_duals_of_the_empty_set(capsys):
    code, out, _ = run(capsys, ["duals", NEG, "--restrict", RMIN, "{}"])
    assert (code, out) == (0, "{{}}\n")


def test_duals_of_an_expression(capsys):
    code, out, _ = run(
        capsys, ["duals", NEG, "--restrict", RMIN, "(c5,[p1],1) & ~(c6,[p1],1)"]
    )
    assert (code, out) == (0, "{{(c5,[p1],2)},{(c6,[p1],1)}}\n")


@pytest.mark.parametrize(
    "text, out",
    [
        ("top", "{}"),
        ("bot", "{{}}"),
        ("~top", "{{}}"),
        ("(c1,[p1],1) | top", "{}"),
        ("(c1,[p1],1) & bot", "{{}}"),
    ],
)
def test_duals_of_the_units(capsys, text, out):
    # Nothing is left outside ⊤, and everything outside ⊥.
    assert run(capsys, ["duals", NEG, text]) == (0, out + "\n", "")


def test_duals_skips_an_inconsistent_composite_choice(capsys):
    # Two heads of one instance cover no world, so nothing is left to
    # complement: the set and the equivalent expression both give {{}}.
    for text in ["{{(c1,[p1],1),(c1,[p1],2)}}", "(c1,[p1],1) & (c1,[p1],2)"]:
        code, out, _ = run(capsys, ["duals", NEG, text])
        assert (code, out) == (0, "{{}}\n"), text
    code, out, _ = run(capsys, ["duals", NEG, "{{(c1,[p1],1),(c1,[p1],2)},{(c1,[p1],1)}}"])
    assert (code, out) == (0, "{{(c1,[p1],2)}}\n")


def test_duals_input_errors_carry_positions(capsys):
    for text in ["(", "(c1", "~", "&", "{", "{{", "(c1,[],", "top |", ""]:
        code, out, err = run(capsys, ["duals", NEG, "--restrict", RMIN, text])
        assert (code, out) == (2, ""), text
        assert err.startswith("error: line 1, column "), text
    # A well-formed choice that names no ground instance has no position.
    for text in ["(c1,[p9],1)", "{{(c1,[p9],1)}}"]:
        code, out, err = run(capsys, ["duals", NEG, text])
        assert (code, out, err) == (2, "", "error: no ground instance c1 with values [p9]\n"), text


def test_duals_nesting_is_bounded(capsys):
    atom = "(c5,[p1],1)"
    for depth, answer in [(MAX_EXPR_DEPTH, 0), (MAX_EXPR_DEPTH + 1, 2), (3000, 2)]:
        for text in ["~" * depth + atom, "(" * depth + atom + ")" * depth]:
            code, out, err = run(capsys, ["duals", NEG, "--restrict", RMIN, text])
            assert code == answer, (depth, text[:1])
            if answer == 0:
                assert out == "{{(c5,[p1],2)}}\n"
            else:
                assert err == (
                    f"error: line 1, column {MAX_EXPR_DEPTH + 1}: choice expression "
                    f"nests deeper than the limit {MAX_EXPR_DEPTH}\n"
                )


def test_duals_of_a_seeded_expression_finishes(capsys, tmp_path):
    # The hitting product over the complements of this expression's ten
    # composite choices has 30,233,088 picks; absorbing after each
    # complement keeps every step small.
    text, _ = genprog.generate(29724)
    program = tmp_path / "seed29724.lpad"
    program.write_text(text)
    expr = "(c4,[],3) | ~(c4,[],3) & ~(c2,[],1)"
    t0 = time.perf_counter()
    code, out, _ = run(capsys, ["duals", str(program), expr])
    assert time.perf_counter() - t0 < 5.0
    assert code == 0
    g = ground(parse_program(text))
    answer = parse_composite_set_text(out, g)
    ks = gamma(parse_expr_text(expr, g), g)
    assert oracles.coverage(answer, g) == oracles.complement_coverage(ks, g)


def test_duals_past_the_conjoin_limit_exits_two(capsys, tmp_path):
    # covid(p1)'s explanations in a 14-person contact star: the duals number
    # 3^13, more than one conjoin step may hold.
    n = 14
    program = tmp_path / "star.lpad"
    program.write_text(
        "covid(X):0.9 :- pcr(X).\n"
        "covid(X):0.4; flu(X):0.3 :- contact(X,Y), covid(Y).\n"
        + "".join(f"pcr(p{i}).\ncontact(p1,p{i}).\n" for i in range(2, n + 1))
    )
    restriction = tmp_path / "star.json"
    restriction.write_text(
        json.dumps({"c2": [{"X": "p1", "Y": f"p{i}"} for i in range(2, n + 1)]})
    )
    sets = "{{(c1,[p1],1)}," + ",".join(
        f"{{(c2,[p1,p{i}],1),(c1,[p{i}],1)}}" for i in range(2, n + 1)
    ) + "}"
    code, out, err = run(
        capsys, ["duals", str(program), sets, "--restrict", str(restriction)]
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: duals: ")
    assert f"exceed the limit {CONJOIN_LIMIT}" in err


# ---------------------------------------------------------------------------
# Errors and exit codes
# ---------------------------------------------------------------------------


def test_usage_errors_exit_one(capsys):
    for argv in [["explain"], ["bogus"], []]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "usage:" in err


def outcome(capsys, argv):
    """(exit status, stdout, stderr) of one in-process call, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_calls_do_not_depend_on_earlier_calls(capsys, tmp_path):
    two = tmp_path / "two.lpad"
    two.write_text("a:0.5.\nb:0.4.\n")
    explain = ["explain", NEG, "covid(p1)", "--restrict", RC2]
    calls = [
        ["check", NEG],
        explain + ["--top", "1", "--format", "nl", "--fold-depth", "1", "--alternatives"],
        explain,
        ["worlds", str(two), "--query", "a", "--query", "b"],
        ["worlds", str(two)],
        ["prob", NEG, "covid(p1)", "--restrict", RMIN, "--method", "oracle", "--relevant"],
        explain + ["--top", "0"],
        ["prob", NEG, "covid(p1)", "--restrict", RC2],
        ["duals", POS, "{{(c1,[p1],1)}}", "--constants", "p1,p2"],
        explain + ["--format", "json", "--limit", "1000"],
        ["prob", NEG, "covid(p1)", "--method", "bogus"],
        ["explain", POS, "covid(p1)", "--format", "graph"],
        ["duals", POS, "(c1,[p1],1)"],
    ]
    forward = [outcome(capsys, argv) for argv in calls]
    backward = [outcome(capsys, argv) for argv in reversed(calls)]
    assert forward == backward[::-1]
    assert [code for code, _, _ in forward] == [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0]
    assert forward[2][1].count("proof ") == 2
    assert forward[3][1] != forward[4][1]


def test_main_builds_its_parser_once(capsys, monkeypatch):
    assert main(["check", NEG]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["check", NEG]) == 0
    assert built == []
    build_parser()
    assert built  # the counter sees the parsers a build makes


def test_syntax_error_exits_two(capsys, tmp_path):
    bad = tmp_path / "broken.lpad"
    bad.write_text("covid(p1\n")
    code, _, err = run(capsys, ["check", str(bad)])
    assert code == 2
    assert err.startswith("error:")
    assert "line" in err


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, ["prob", "/nonexistent.lpad", "q"])
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [["check"], ["prob", "p(a)"], ["explain", "p(a)"], ["worlds"], ["duals", "{}"]],
    ids=lambda argv: argv[0],
)
def test_a_program_file_that_is_not_utf8_exits_two(capsys, tmp_path, argv):
    bad = tmp_path / "bad.lpad"
    bad.write_bytes(b"p(a).\n\xff\xfe q.\n")
    code, out, err = run(capsys, [argv[0], str(bad), *argv[1:]])
    assert (code, out) == (2, "")
    assert err == (
        f"error: program file {bad} is not UTF-8: 'utf-8' codec can't decode "
        "byte 0xff in position 6: invalid start byte\n"
    )
    # A UTF-8 file that starts with a byte-order mark reads as without it.
    plain, bom = tmp_path / "plain.lpad", tmp_path / "bom.lpad"
    plain.write_bytes(b"p(a).\n")
    bom.write_bytes(b"\xef\xbb\xbfp(a).\n")
    expected = run(capsys, [argv[0], str(plain), *argv[1:]])
    assert expected[0] == 0
    assert run(capsys, [argv[0], str(bom), *argv[1:]]) == expected
    # So does a restriction file, for the subcommands that read one.
    if argv[0] in ("prob", "explain", "duals"):
        args = [argv[0], NEG, *(["covid(p1)"] if argv[0] in ("prob", "explain") else argv[1:])]
        for name, mark in (("plain.json", b""), ("bom.json", b"\xef\xbb\xbf")):
            (tmp_path / name).write_bytes(mark + b'{"c2": [{"X": "p1", "Y": "p2"}]}\n')
        expected = run(capsys, [*args, "--restrict", str(tmp_path / "plain.json")])
        assert expected[0] == 0
        assert run(capsys, [*args, "--restrict", str(tmp_path / "bom.json")]) == expected


@pytest.mark.parametrize(
    "text, argv, out, err",
    [
        (
            "p(X):0.5 :- q(X).\nq(X) :- r(X).\n",
            ["prob", "p(a)"],
            "",
            "error: cannot ground clause with variables (X): no constants\n",
        ),
        (
            "p(X):0.5.\nq(a).\n",
            ["check"],
            "probabilistic clauses: 1\nderived clauses: 1\nannotations: 0\n"
            "range-restricted: no\n"
            "  clause c1: head p(X) uses X not bound by a positive body literal\n"
            "stratified: yes (1 strata)\ncheck failed\n",
            "",
        ),
        ("none :- a.\n", ["check"], "", "error: clause none :- a.: predicate 'none' is reserved\n"),
        (
            "p(X) :- q.\nq.\n",
            ["check"],
            "probabilistic clauses: 0\nderived clauses: 2\nannotations: 0\n"
            "range-restricted: no\n"
            "  clause for p/1: head uses X not bound by a positive body literal\n"
            "stratified: not checked\n"
            "  cannot ground clause with variables (X): no constants\ncheck failed\n",
            "",
        ),
    ],
    ids=["no-constants", "unbound-head-variable", "reserved-none-head", "check-without-constants"],
)
def test_program_errors_exit_two(capsys, tmp_path, text, argv, out, err):
    bad = tmp_path / "bad.lpad"
    bad.write_text(text)
    assert run(capsys, [argv[0], str(bad), *argv[1:]]) == (2, out, err)


def test_non_range_restricted_program_rejected_outside_check(capsys, tmp_path):
    bad = tmp_path / "bad.lpad"
    bad.write_text("f(a):0.5.\nq(X) :- \\+f(X).\n")
    code, _, err = run(capsys, ["prob", str(bad), "q(a)"])
    assert code == 2
    assert "not range-restricted" in err


def test_empty_constants_list_exits_two(capsys):
    code, _, err = run(capsys, ["prob", POS, "covid(p1)", "--constants", ""])
    assert code == 2
    assert err == "error: empty --constants list\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"c99": []}', "restriction names unknown clause id 'c99'"),
        ('{"c2": [', "restriction file {} is not valid JSON: Expecting value: line 1 column 9 (char 8)"),
        ("[]", "restriction must be an object mapping clause ids to lists"),
        ('{"c2": {"X": "p1"}}', "restriction for c2 must be a list of objects with string values"),
        ('{"c2": [1]}', "restriction for c2 must be a list of objects with string values"),
        ('{"c2": [{"X": 1, "Y": "p2"}]}', "restriction for c2 must be a list of objects with string values"),
    ],
)
def test_bad_restriction_exits_two(capsys, tmp_path, text, message):
    # One error line on every subcommand that grounds, never a traceback.
    r = tmp_path / "r.json"
    r.write_text(text)
    for argv in (["prob", NEG, "covid(p1)"], ["worlds", NEG], ["explain", NEG, "covid(p1)"]):
        code, out, err = run(capsys, argv + ["--restrict", str(r)])
        assert (code, out, err) == (2, "", f"error: {message.format(r)}\n"), argv


def declared_scripts() -> dict[str, str]:
    """The ``[project.scripts]`` table of ``pyproject.toml``, read line by line
    so that the same code runs on every supported Python (3.10 has no tomllib)."""
    scripts, in_table = {}, False
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table and "=" in line:
            name, target = (part.strip() for part in line.split("=", 1))
            scripts[name] = target.strip("\"'")
    return scripts


def test_installed_script_runs():
    # The console script exists only after an install; from a checkout the
    # same entry point runs as ``python -m lpadexpl``. Either way the child
    # imports the package this process imported, whatever the working directory.
    script = shutil.which("lpadexpl")
    command = [script] if script else [sys.executable, "-m", "lpadexpl"]
    package_root = str(Path(lpadexpl.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        command + ["prob", POS, "covid(p1)"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout == "0.936000000\n"
    # ``-m`` bypasses the script declaration, so check that it names the
    # function ``python -m lpadexpl`` calls.
    module, _, attr = declared_scripts()["lpadexpl"].partition(":")
    assert getattr(importlib.import_module(module), attr) is lpadexpl.__main__.entry


def test_cli_import_leaves_numpy_out():
    package_root = str(Path(lpadexpl.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, lpadexpl.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert (result.returncode, result.stdout) == (0, "False\n")
