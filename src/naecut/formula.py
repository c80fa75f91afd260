"""CNF data model, DIMACS parsing, NAE semantics, and incidence graphs."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import FormatError
from .graphs import Graph
from .textio import ints, read_header, records

# Total truth assignment, variable index -> value.
Assignment = dict[int, bool]


@dataclass(frozen=True)
class Clause:
    """An ordered disjunction of 2 or 3 literals over distinct variables.

    A literal is a signed DIMACS integer: x for variable x, -x for its
    complement; 0 is never a literal.
    """

    literals: tuple[int, ...]

    def __post_init__(self):
        if 0 in self.literals:
            raise ValueError("0 is reserved as the clause terminator")
        if len(self.literals) not in (2, 3):
            raise ValueError(f"clause length must be 2 or 3, got {len(self.literals)}")
        variables = self.variables()
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable in clause {self.literals}")

    @staticmethod
    def from_signed(*lits: int) -> "Clause":
        return Clause(lits)

    def variables(self) -> tuple[int, ...]:
        return tuple(abs(x) for x in self.literals)


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula over variables 1..num_vars; the clause list may be empty."""

    num_vars: int
    clauses: tuple[Clause, ...] = ()

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("variable count must be non-negative")
        for clause in self.clauses:
            for x in clause.variables():
                if x > self.num_vars:
                    raise ValueError(
                        f"variable {x} exceeds declared count {self.num_vars}"
                    )

    @staticmethod
    def from_ints(num_vars: int, clause_lists) -> "CnfFormula":
        return CnfFormula(
            num_vars, tuple(Clause.from_signed(*lits) for lits in clause_lists)
        )


def parse_cnf(text: str | bytes) -> CnfFormula:
    """Parse DIMACS CNF: `c` comments, one `p cnf <n> <m>` header, 0-terminated clauses."""
    header = None
    clause_lists: list[list[int]] = []
    current: list[int] = []
    for line, tokens in records(text):
        if line.startswith("p"):
            if header is not None:
                raise FormatError("duplicate 'p cnf' header")
            header = read_header(tokens, "cnf", line)
        elif header is None:
            raise FormatError("clause data before 'p cnf' header")
        else:
            for lit in ints(tokens, "clause line", line):
                if lit:
                    current.append(lit)
                else:
                    clause_lists.append(current)
                    current = []
    if header is None:
        raise FormatError("missing 'p cnf' header")
    num_vars, num_clauses = header
    try:
        f = CnfFormula.from_ints(num_vars, clause_lists)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    if current:
        raise FormatError("unterminated clause at end of input")
    if len(f.clauses) != num_clauses:
        raise FormatError(
            f"header promises {num_clauses} clauses, found {len(f.clauses)}"
        )
    return f


def emit_cnf(f: CnfFormula) -> str:
    """Emit DIMACS text with LF line endings; parse_cnf(emit_cnf(f)) == f."""
    lines = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    for clause in f.clauses:
        lines.append(" ".join(str(x) for x in clause.literals) + " 0")
    return "\n".join(lines) + "\n"


def is_monotone_3sat(f: CnfFormula) -> bool:
    """True iff every clause has exactly three literals, all unnegated."""
    return all(
        len(cl.literals) == 3 and min(cl.literals) > 0
        for cl in f.clauses
    )


def nae_fault(f: CnfFormula, assignment: Assignment) -> str | None:
    """Name the first clause whose literals all take one value, or None."""
    for x in range(1, f.num_vars + 1):
        if x not in assignment:
            raise ValueError(f"assignment is missing variable {x}")
    for i, clause in enumerate(f.clauses, start=1):
        values = [assignment[abs(x)] == (x > 0) for x in clause.literals]
        if all(values) or not any(values):
            lits = " ".join(map(str, clause.literals))
            return f"clause {i} ({lits}) has all-equal values"
    return None


def nae_satisfies(f: CnfFormula, assignment: Assignment) -> bool:
    """True iff no clause gets all-equal literal values (2-clauses: values differ)."""
    return nae_fault(f, assignment) is None


def complement_assignment(assignment: Assignment) -> Assignment:
    return {x: not v for x, v in assignment.items()}


def occurrence_counts(f: CnfFormula) -> dict[int, int]:
    """Clause-membership count per variable, including zeroes for unused ones."""
    counts = {x: 0 for x in range(1, f.num_vars + 1)}
    for clause in f.clauses:
        for x in clause.variables():
            counts[x] += 1
    return counts


def incidence_graph(f: CnfFormula, variant: str) -> Graph:
    """Co-occurrence graph of a monotone 3-SAT formula.

    Variant "A": one vertex per variable, an edge between two variables iff
    they share a clause.  Variant "B": variant A plus one vertex per clause,
    adjacent to that clause's three variable vertices.

    Vertex x is variable x, and in variant B vertex n + j is clause j
    (1-based), where n is the variable count.
    """
    if variant not in ("A", "B"):
        raise ValueError(f"variant must be 'A' or 'B', got {variant!r}")
    if not is_monotone_3sat(f):
        raise ValueError("incidence graph requires monotone 3-SAT input")
    n = f.num_vars
    # The constructor dedupes, so shared pairs are simply listed again.
    edges = [e for clause in f.clauses for e in itertools.combinations(clause.variables(), 2)]
    if variant == "A":
        return Graph(n, edges)
    for j, clause in enumerate(f.clauses, start=1):
        edges.extend((x, n + j) for x in clause.variables())
    return Graph(n + len(f.clauses), edges)
