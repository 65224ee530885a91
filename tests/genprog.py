"""Seeded generator of small stratified programs and ground queries.

Clause bodies only use predicates from strictly lower layers, so every
generated program is stratified by construction; negative body literals
always follow a positive literal that binds their variable, so derivations
never flounder.  Budgets keep exhaustive selection enumeration cheap:
at most 6 probabilistic instances, 4 heads per clause, 3 constants, and
512 selections overall.  With ``full_heads``, some clauses' head
probabilities sum to 1, so that those instances have no ``none`` head and
negating all their heads denotes no world.  With ``cycles``, more derived
clauses are drawn; one may add a clause to a derived predicate of its layer
and call, positively only, the predicates its layer already has, its own
head among them when that has a clause; the query asks for derived
predicates.  Positive cycles then appear, and the programs stay stratified.
"""

from __future__ import annotations

import random

MAX_INSTANCES = 6
MAX_SELECTIONS = 512
MAX_LAYERS = 3

_PROB_CHOICES = (0.1, 0.2, 0.25, 0.3, 0.4, 0.5)


class _Gen:
    def __init__(self, seed: int, full_heads: bool, cycles: bool):
        self.rng = random.Random(seed)
        self.full_heads = full_heads
        self.cycles = cycles
        self.constants = ["a", "b", "c"][: self.rng.randint(1, 3)]
        # predicates by layer: (name, arity)
        self.layers: list[list[tuple[str, int]]] = [[] for _ in range(MAX_LAYERS + 1)]
        self.lines: list[str] = []
        self.n_instances = 0
        self.n_selections = 1
        self.counter = 0

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def term_for(self, var_ok: bool) -> str:
        if var_ok and self.rng.random() < 0.6:
            return "X"
        return self.rng.choice(self.constants)

    def atom_text(self, name: str, arity: int, var_ok: bool) -> tuple[str, bool]:
        if arity == 0:
            return name, False
        term = self.term_for(var_ok)
        return f"{name}({term})", term == "X"

    def body_literals(self, layer: int, need_var: bool, own=()) -> list[str] | None:
        """1–2 body literals from layers below ``layer`` or, positive only,

        from ``own``; the first is positive, and binds X from below when
        ``need_var``."""
        below = [p for lv in range(layer) for p in self.layers[lv]]
        pool = below + list(own)
        if not pool:
            return None
        lits: list[str] = []
        if need_var:
            unary = [p for p in below if p[1] == 1]
            if not unary:
                return None
            name, _ = self.rng.choice(unary)
            lits.append(f"{name}(X)")
        else:
            name, arity = self.rng.choice(pool)
            text, _ = self.atom_text(name, arity, var_ok=False)
            lits.append(text)
        if self.rng.random() < 0.6:
            name, arity = self.rng.choice(pool)
            text, _ = self.atom_text(name, arity, var_ok=need_var)
            if self.rng.random() < 0.5 and (name, arity) not in own:
                text = "\\+" + text
            lits.append(text)
        return lits

    def add_prob_clause(self) -> None:
        layer = self.rng.choice([0, 0, 1, 2])
        n_heads = self.rng.randint(1, 3)
        arity = self.rng.choice([0, 1])
        name = self.fresh(f"p{layer}_")

        head_atom, has_var = (
            self.atom_text(name, arity, var_ok=True) if arity else (name, False)
        )
        body = None
        if layer > 0:
            body = self.body_literals(layer, need_var=has_var)
            if body is None and has_var:
                head_atom, has_var = f"{name}({self.rng.choice(self.constants)})", False
                body = self.body_literals(layer, need_var=False)
        elif has_var:
            # layer 0 has nothing below to bind X: ground the head
            head_atom, has_var = f"{name}({self.rng.choice(self.constants)})", False

        instances = len(self.constants) if has_var else 1
        selections_here = (n_heads + 1) ** instances  # worst case with a none head
        if (
            self.n_instances + instances > MAX_INSTANCES
            or self.n_selections * selections_here > MAX_SELECTIONS
        ):
            return
        probs = []
        budget = 1.0
        for _ in range(n_heads):
            p = self.rng.choice([v for v in _PROB_CHOICES if v <= budget - 0.05] or [0.05])
            probs.append(p)
            budget -= p
        # Draw only in this mode, so that the default keeps every seed's program.
        if self.full_heads and self.rng.random() < 0.5:
            probs[-1] = round(1 - sum(probs[:-1]), 2)
        # distinct head predicates per alternative
        names = [name] + [self.fresh(f"p{layer}_") for _ in probs[1:]]
        arg = head_atom[head_atom.index("(") :] if arity else ""
        heads = [f"{n}{arg}:{p}" for n, p in zip(names, probs)]
        for n in names:
            self.layers[layer].append((n, arity))
        clause = "; ".join(heads)
        if body:
            clause += " :- " + ", ".join(body)
        self.lines.append(clause + ".")
        self.n_instances += instances
        self.n_selections *= selections_here

    def add_derived_clause(self) -> None:
        layer = self.rng.randint(1, MAX_LAYERS)
        arity = self.rng.choice([0, 1])
        name = self.fresh(f"d{layer}_")
        # Draw only in this mode, so that the default keeps every seed's program.
        derived = [p for p in self.layers[layer] if p[0].startswith("d")]
        if self.cycles and derived and self.rng.random() < 0.7:
            name, arity = self.rng.choice(derived)  # another clause for it
        head_atom, has_var = (
            self.atom_text(name, arity, var_ok=True) if arity else (name, False)
        )
        key = (name, arity)
        # The body may call the layer's predicates: a new head's own first
        # clause does not, so that a cycle through it has a way out.
        own = list(self.layers[layer]) if self.cycles else ()
        body = self.body_literals(layer, need_var=has_var, own=own)
        if body is None:
            if not has_var:
                self.lines.append(f"{head_atom}.")  # plain fact
                self.layers[layer].append(key)
            return
        if own and self.rng.random() < 0.5:  # one more call into the layer
            text, _ = self.atom_text(*self.rng.choice(own), var_ok=has_var)
            body.append(text)
        if key not in self.layers[layer]:
            self.layers[layer].append(key)
        self.lines.append(f"{head_atom} :- {', '.join(body)}.")

    def query(self) -> str:
        pool = [p for lv in self.layers for p in lv]
        if self.cycles:  # ask for what the cycles define
            pool = [p for p in pool if p[0].startswith("d")] or pool
        lits = []
        for _ in range(self.rng.randint(1, 2)):
            name, arity = self.rng.choice(pool)
            text, _ = self.atom_text(name, arity, var_ok=False)
            if lits and self.rng.random() < 0.3:
                text = "\\+" + text
            lits.append(text)
        return ", ".join(lits)


def generate(seed: int, full_heads: bool = False, cycles: bool = False) -> tuple[str, str]:
    """A (program text, ground query text) pair for the given seed."""
    gen = _Gen(seed, full_heads, cycles)
    for _ in range(gen.rng.randint(1, 4)):
        gen.add_prob_clause()
    for _ in range(gen.rng.randint(0, 3) + 4 * cycles):
        gen.add_derived_clause()
    return "\n".join(gen.lines) + "\n", gen.query()
