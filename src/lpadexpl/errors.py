"""Exception types shared across the package.

Every anticipated failure raises a subclass of :class:`LpadError`, so callers
(and the CLI) can distinguish problems with the *program* from bugs in the
library.  The CLI maps any ``LpadError`` to exit code 2.
"""


class LpadError(Exception):
    """Base class for all errors raised on malformed input or blown limits."""


class LpadSyntaxError(LpadError):
    """A parse error, carrying the 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ProgramError(LpadError):
    """A structurally invalid program (bad probabilities, mixed predicates,

    range-restriction or stratification violations, unknown clause ids)."""


class StratificationError(ProgramError):
    """The predicate dependency graph has a cycle through negation.

    ``cycle`` lists the predicates along the offending cycle, ending where it
    started (e.g. ``["p", "p"]`` for a direct self-dependency).
    """

    def __init__(self, cycle: list[str]):
        super().__init__("not stratified: negative cycle " + " -> ".join(cycle))
        self.cycle = cycle


class EnumerationLimitError(LpadError):
    """A computation would pass its size bound: the selections one

    enumeration visits, the nodes of a decision diagram, the sets of one
    conjoin step, or the unfoldings of atoms in cyclic components."""


class DepthLimitError(LpadError):
    """A derivation branch exceeded the resolution-depth limit."""
