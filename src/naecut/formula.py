"""CNF formulas as tuples of literal tuples, DIMACS text, NAE semantics, incidence graphs."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import FormatError
from .graphs import Graph
from .textio import ints, read_header, records

# Total truth assignment, variable index -> value.
Assignment = dict[int, bool]


class Clause(tuple):
    """A clause as CnfFormula stores it: a tuple of signed literals.

    `variables()` serves the benchmark's workloads; library code reads the
    tuple itself.
    """

    __slots__ = ()

    def variables(self) -> tuple[int, ...]:
        return tuple(map(abs, self))


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula over variables 1..num_vars; the clause list may be empty.

    `clauses` takes any sequence of literal sequences and is stored as a
    tuple of tuples.  A literal is a signed DIMACS integer: x for variable
    x, -x for its complement.  Each clause has 2 or 3 literals over distinct
    variables; this is the one place that checks it.  The clauses are
    checked in order, each for a 0, then its length, then a repeated
    variable; then the count, then the first variable above it.
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        clauses = tuple(map(Clause, self.clauses))
        object.__setattr__(self, "clauses", clauses)
        for clause in clauses:
            variables = set(map(abs, clause))
            if 0 in variables:
                raise ValueError("0 is reserved as the clause terminator")
            if len(clause) not in (2, 3):
                raise ValueError(f"clause length must be 2 or 3, got {len(clause)}")
            if len(variables) != len(clause):
                raise ValueError(f"duplicate variable in clause {clause}")
        if self.num_vars < 0:
            raise ValueError("variable count must be non-negative")
        if max(map(abs, itertools.chain.from_iterable(clauses)), default=0) > self.num_vars:
            x = next(x for cl in clauses for x in map(abs, cl) if x > self.num_vars)
            raise ValueError(f"variable {x} exceeds declared count {self.num_vars}")


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
        f = CnfFormula(num_vars, clause_lists)
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
        lines.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"


def is_monotone_3sat(f: CnfFormula) -> bool:
    """True iff every clause has exactly three literals, all unnegated."""
    return all(len(cl) == 3 and min(cl) > 0 for cl in f.clauses)


def require_variables(assignment: Assignment, variables) -> None:
    """Raise ValueError naming the first of `variables` the assignment lacks."""
    for x in variables:
        if x not in assignment:
            raise ValueError(f"assignment is missing variable {x}")


def nae_fault(f: CnfFormula, assignment: Assignment) -> str | None:
    """Name the first clause whose literals all take one value, or None."""
    require_variables(assignment, range(1, f.num_vars + 1))
    for i, clause in enumerate(f.clauses, start=1):
        values = [assignment[abs(x)] == (x > 0) for x in clause]
        if all(values) or not any(values):
            lits = " ".join(map(str, clause))
            return f"clause {i} ({lits}) has all-equal values"
    return None


def nae_satisfies(f: CnfFormula, assignment: Assignment) -> bool:
    """True iff nae_fault finds nothing; serves the benchmark's workloads."""
    return nae_fault(f, assignment) is None


def occurrence_counts(f: CnfFormula) -> dict[int, int]:
    """Clause-membership count per variable, including zeroes for unused ones."""
    counts = {x: 0 for x in range(1, f.num_vars + 1)}
    for clause in f.clauses:
        for x in clause:
            counts[abs(x)] += 1
    return counts


def incidence_graph(f: CnfFormula) -> Graph:
    """Co-occurrence graph of a monotone 3-SAT formula.

    Vertex x is variable x; two variables are adjacent iff they share a clause.
    """
    if not is_monotone_3sat(f):
        raise ValueError("incidence graph requires monotone 3-SAT input")
    # The constructor dedupes, so shared pairs are simply listed again.
    edges = [e for clause in f.clauses for e in itertools.combinations(clause, 2)]
    return Graph(f.num_vars, edges)
