"""Program families the benchmark generates.

The covid rules are frozen copies of the clauses in the repository's two
fixture programs, with the facts left out, so that the workloads do not change
when the test fixtures do.  Each family function returns a program text and a
grounding restriction (or None), ready to be written as ``.lpad`` and
``.json`` files.
"""

from __future__ import annotations

COVID_NEG_RULES = """\
%!read covid(A) as: "A has covid-19"
%!read contact(A,B) as: "A had contact with B"
%!read pcr(A) as: "the pcr test of A was positive"
%!read \\+protected(A) as: "A was not protected"
%!read \\+ffp2(A) as: "A didn't wear an ffp2 mask"
%!read \\+vaccinated(A) as: "A was not vaccinated"
%!read vulnerable(A) as: "A is vulnerable"
%!read \\+young(A) as: "A is not young"

covid(X):0.9 :- pcr(X).
covid(X):0.4; flu(X):0.3 :- contact(X,Y), covid(Y), \\+protected(X).
ffp2(X):0.3; surgical(X):0.4; cloth(X):0.1 :- person(X).
vaccinated(X):0.8 :- person(X).
vulnerable(X):0.6 :- person(X), \\+young(X).
young(X):0.2; adult(X):0.5 :- person(X).

protected(X) :- ffp2(X).
protected(X) :- vaccinated(X), \\+vulnerable(X).
"""

COVID_POS_RULES = """\
%!read covid(A) as: "A has covid-19"
%!read contact(A,B) as: "A had contact with B"
%!read pcr(A) as: "the pcr test of A was positive"

covid(X):0.9 :- pcr(X).
covid(X):0.4; flu(X):0.3 :- contact(X,Y), covid(Y).
"""

#: The facts of both fixture programs, and the fixtures' two restrictions.
FIXTURE_FACTS = """
pcr(p1).
pcr(p2).
contact(p1,p2).
person(p1).
person(p2).
person(p3).
"""
RESTRICT_MIN = {
    "c1": [{"X": "p1"}, {"X": "p2"}],
    "c2": [{"X": "p1", "Y": "p2"}],
    "c3": [{"X": "p1"}],
    "c4": [{"X": "p1"}],
    "c5": [{"X": "p1"}],
    "c6": [{"X": "p1"}],
}
RESTRICT_C2 = {"c2": [{"X": "p1", "Y": "p2"}, {"X": "p2", "Y": "p3"}]}


def _people(n: int) -> list[str]:
    return [f"p{i}" for i in range(1, n + 1)]


def chain(n: int, rules: str = COVID_NEG_RULES) -> tuple[str, dict]:
    """pcr(pn), contact(pi,pi+1) for i<n, person(p1..pn); c2 on the chain pairs."""
    facts = [f"pcr(p{n})."]
    facts += [f"contact(p{i},p{i + 1})." for i in range(1, n)]
    facts += [f"person({p})." for p in _people(n)]
    restriction = {"c2": [{"X": f"p{i}", "Y": f"p{i + 1}"} for i in range(1, n)]}
    return rules + "\n" + "\n".join(facts) + "\n", restriction


def star(n: int, rules: str = COVID_NEG_RULES) -> tuple[str, dict]:
    """pcr(pi), contact(p1,pi) for i=2..n, person(p1..pn); c2 on (p1,pi)."""
    facts = [f"pcr(p{i})." for i in range(2, n + 1)]
    facts += [f"contact(p1,p{i})." for i in range(2, n + 1)]
    facts += [f"person({p})." for p in _people(n)]
    restriction = {"c2": [{"X": "p1", "Y": f"p{i}"} for i in range(2, n + 1)]}
    return rules + "\n" + "\n".join(facts) + "\n", restriction


def positive_star(n: int) -> tuple[str, dict]:
    return star(n, COVID_POS_RULES)


def positive_star_explanations(n: int) -> str:
    """The explanation set of covid(p1) in ``positive_star(n)``, as a

    composite-choice set: p1's own pcr, or contact with pi and pi's pcr."""
    sets = ["{(c1,[p1],1)}"]
    sets += [f"{{(c2,[p1,p{i}],1),(c1,[p{i}],1)}}" for i in range(2, n + 1)]
    return "{" + ",".join(sets) + "}"


def deep(n: int) -> tuple[str, None]:
    """A link path n0 -> ... -> nn with one probabilistic goal at its end.

    The recursive derived clause grounds to (n+1)^2 reach clauses."""
    lines = [
        "reach(X) :- goal(X).",
        "reach(X) :- link(X,Y), reach(Y).",
        f"goal(n{n}):0.7.",
    ]
    lines += [f"link(n{i},n{i + 1})." for i in range(n)]
    return "\n".join(lines) + "\n", None
