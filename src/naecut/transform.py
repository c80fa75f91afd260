"""Occurrence splitting: rewrite repeated variables into chained copies.

A variable occurring in k > 1 clauses is replaced by k copies, one per
occurrence, tied together by k-1 two-literal clauses (y_i v -y_{i+1}).
Under not-all-equal semantics such a 2-clause holds exactly when both
variables take the same value, so the copies are forced equal and
satisfiability is preserved in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormatError
from .formula import (
    Assignment,
    Clause,
    CnfFormula,
    is_monotone_3sat,
    occurrence_counts,
)
from .textio import ints, lines


@dataclass(frozen=True)
class TransformMap:
    """Links original variables to their per-occurrence copies."""

    num_original_vars: int
    num_output_vars: int
    replacements: dict[int, tuple[int, ...]]

    def copies_of(self, var: int) -> tuple[int, ...]:
        return self.replacements[var]

    def equality_clause_count(self) -> int:
        return sum(len(copies) - 1 for copies in self.replacements.values())

    def is_identity(self) -> bool:
        return all(len(copies) == 1 for copies in self.replacements.values())


def split_repeated_variables(f: CnfFormula) -> tuple[CnfFormula, TransformMap]:
    """Split every repeated variable of a monotone 3-SAT formula.

    Occurrences are ordered by (clause index, position in clause).  The first
    copy keeps the original index; further copies take fresh indices starting
    at num_vars + 1, allocated per original variable in increasing order.
    Rewritten clauses come first, in input order, followed by the equality
    chains grouped by original variable.  Unused variables are kept as
    isolated variables so indices stay stable.
    """
    if not is_monotone_3sat(f):
        raise ValueError("transform requires monotone 3-SAT input")
    counts = occurrence_counts(f)
    n = f.num_vars

    replacements: dict[int, tuple[int, ...]] = {}
    next_fresh = n + 1
    for x in range(1, n + 1):
        k = counts[x]
        if k <= 1:
            replacements[x] = (x,)
        else:
            replacements[x] = (x,) + tuple(range(next_fresh, next_fresh + k - 1))
            next_fresh += k - 1

    cursor = {x: 0 for x in range(1, n + 1)}
    prime: list[Clause] = []
    for clause in f.clauses:
        lits = []
        for x in clause.literals:
            j = cursor[x]
            cursor[x] += 1
            lits.append(replacements[x][j])
        prime.append(Clause(tuple(lits)))

    equality: list[Clause] = []
    for x in range(1, n + 1):
        copies = replacements[x]
        for i in range(len(copies) - 1):
            equality.append(Clause((copies[i], -copies[i + 1])))

    out = CnfFormula(next_fresh - 1, tuple(prime + equality))
    tm = TransformMap(n, next_fresh - 1, replacements)
    return out, tm


@dataclass(frozen=True)
class PropertyReport:
    """The six structural properties of a split formula."""

    clause_shapes: bool
    occurrence_bound: bool
    pair_cooccurrence: bool
    triple_clause_membership: bool
    low_occurrence_polarity: bool
    thrice_occurrence_polarity: bool

    def all_hold(self) -> bool:
        return all(self.as_tuple())

    def as_tuple(self) -> tuple[bool, ...]:
        return (
            self.clause_shapes,
            self.occurrence_bound,
            self.pair_cooccurrence,
            self.triple_clause_membership,
            self.low_occurrence_polarity,
            self.thrice_occurrence_polarity,
        )

    def failures(self) -> list[str]:
        names = (
            "clause_shapes",
            "occurrence_bound",
            "pair_cooccurrence",
            "triple_clause_membership",
            "low_occurrence_polarity",
            "thrice_occurrence_polarity",
        )
        return [name for name, ok in zip(names, self.as_tuple()) if not ok]


def check_properties(f: CnfFormula) -> PropertyReport:
    """Evaluate the six structural properties of a formula.

    1. every clause is three unnegated literals, or one unnegated and one
       negated literal;
    2. every variable occurs at most three times;
    3. any two variables share at most one clause;
    4. every occurring variable is in exactly one 3-literal clause;
    5. a variable occurring once or twice has an unnegated occurrence;
    6. a variable occurring three times has exactly one negated occurrence.
    """
    counts = occurrence_counts(f)
    negated = {x: 0 for x in range(1, f.num_vars + 1)}
    triple_membership = {x: 0 for x in range(1, f.num_vars + 1)}
    pair_uses: dict[tuple[int, int], int] = {}

    shapes_ok = True
    for clause in f.clauses:
        neg = sum(1 for x in clause.literals if x < 0)
        if len(clause.literals) == 3:
            if neg != 0:
                shapes_ok = False
        else:
            if neg != 1:
                shapes_ok = False
        for x in clause.literals:
            if x < 0:
                negated[-x] += 1
            if len(clause.literals) == 3:
                triple_membership[abs(x)] += 1
        variables = sorted(clause.variables())
        for i in range(len(variables)):
            for j in range(i + 1, len(variables)):
                pair = (variables[i], variables[j])
                pair_uses[pair] = pair_uses.get(pair, 0) + 1

    occurrence_ok = all(c <= 3 for c in counts.values())
    pairs_ok = all(c <= 1 for c in pair_uses.values())
    triple_ok = all(
        triple_membership[x] == 1 for x in counts if counts[x] >= 1
    )
    low_ok = all(
        negated[x] < counts[x] for x in counts if counts[x] in (1, 2)
    )
    thrice_ok = all(negated[x] == 1 for x in counts if counts[x] == 3)

    return PropertyReport(
        clause_shapes=shapes_ok,
        occurrence_bound=occurrence_ok,
        pair_cooccurrence=pairs_ok,
        triple_clause_membership=triple_ok,
        low_occurrence_polarity=low_ok,
        thrice_occurrence_polarity=thrice_ok,
    )


def lift_assignment(tm: TransformMap, assignment: Assignment) -> Assignment:
    """Extend an assignment of the original formula to all copies."""
    out: Assignment = {}
    for x in range(1, tm.num_original_vars + 1):
        if x not in assignment:
            raise ValueError(f"assignment is missing variable {x}")
        for y in tm.replacements[x]:
            out[y] = assignment[x]
    return out


def project_assignment(tm: TransformMap, assignment: Assignment) -> Assignment:
    """Collapse an assignment of the split formula back to the original variables.

    Every replacement list must be constant under the assignment; a mixed
    list means the equality chain is violated and the assignment is not a
    valid witness for the split formula.
    """
    out: Assignment = {}
    for x in range(1, tm.num_original_vars + 1):
        values = set()
        for y in tm.replacements[x]:
            if y not in assignment:
                raise ValueError(f"assignment is missing variable {y}")
            values.add(assignment[y])
        if len(values) != 1:
            raise ValueError(
                f"equality chain violated: copies of variable {x} disagree"
            )
        out[x] = values.pop()
    return out


def emit_transform_map(tm: TransformMap) -> str:
    """One `map <orig> <y1> <y2> ...` line per original variable."""
    lines = []
    for x in range(1, tm.num_original_vars + 1):
        copies = " ".join(str(y) for y in tm.replacements[x])
        lines.append(f"map {x} {copies}")
    return "\n".join(lines) + "\n"


def transform_map_comments(tm: TransformMap) -> str:
    """The map serialized as DIMACS comment lines, for embedding in CNF output."""
    return "".join(f"c {line}\n" for line in emit_transform_map(tm).splitlines())


def parse_transform_map(text: str | bytes) -> TransformMap:
    """Read `map ...` lines, bare or embedded as `c map ...` DIMACS comments."""
    replacements: dict[int, tuple[int, ...]] = {}
    for line in lines(text):
        if line.startswith("c "):
            line = line[2:].strip()
        if not line.startswith("map "):
            continue
        parts = line.split()
        if len(parts) < 3:
            raise FormatError(f"malformed map line: {line!r}")
        x, *copies = ints(parts[1:], "map line", line)
        if x in replacements:
            raise FormatError(f"variable {x} mapped twice")
        if copies[0] != x:
            raise FormatError(f"first copy of variable {x} must be {x} itself")
        replacements[x] = tuple(copies)
    if not replacements:
        raise FormatError("no map lines found")
    n = max(replacements)
    if sorted(replacements) != list(range(1, n + 1)):
        raise FormatError("map lines must cover variables 1..n")
    all_copies = [y for copies in replacements.values() for y in copies]
    if len(set(all_copies)) != len(all_copies):
        raise FormatError("replacement lists overlap")
    return TransformMap(n, max(all_copies), replacements)
