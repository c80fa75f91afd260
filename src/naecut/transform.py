"""Occurrence splitting: rewrite repeated variables into chained copies.

A variable occurring in k > 1 clauses is replaced by k copies, one per
occurrence, tied together by k-1 two-literal clauses (y_i v -y_{i+1}).
Under not-all-equal semantics such a 2-clause holds exactly when both
variables take the same value, so the copies are forced equal and
satisfiability is preserved in both directions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

from .errors import FormatError
from .formula import (
    Assignment,
    CnfFormula,
    is_monotone_3sat,
    occurrence_counts,
    require_variables,
)
from .textio import MAX_COUNT, decoded, ints


# Original variable x -> its per-occurrence copies, x itself first.
TransformMap = dict[int, tuple[int, ...]]


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

    tm: TransformMap = {}
    next_fresh = n + 1
    for x in range(1, n + 1):
        extra = max(counts[x] - 1, 0)
        tm[x] = (x, *range(next_fresh, next_fresh + extra))
        next_fresh += extra

    copies_left = {x: iter(copies) for x, copies in tm.items()}
    prime = [[next(copies_left[x]) for x in clause] for clause in f.clauses]
    equality = [(y, -z) for copies in tm.values() for y, z in itertools.pairwise(copies)]
    return CnfFormula(next_fresh - 1, prime + equality), tm


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
        return not self.failures()

    def failures(self) -> list[str]:
        return [fld.name for fld in fields(self) if not getattr(self, fld.name)]


def check_properties(f: CnfFormula) -> PropertyReport:
    """Evaluate the six structural properties of a formula in one pass.

    1. every clause is three unnegated literals, or one unnegated and one
       negated literal;
    2. every variable occurs at most three times;
    3. any two variables share at most one clause;
    4. every occurring variable is in exactly one 3-literal clause;
    5. a variable occurring once or twice has an unnegated occurrence;
    6. a variable occurring three times has exactly one negated occurrence.
    """
    occurrences = [0] * (f.num_vars + 1)
    negated = [0] * (f.num_vars + 1)
    triples = [0] * (f.num_vars + 1)
    pairs: set[tuple[int, int]] = set()
    shapes_ok = pairs_ok = True
    for clause in f.clauses:
        variables = sorted(map(abs, clause))
        negs = [-x for x in clause if x < 0]
        is_triple = len(variables) == 3
        shapes_ok = shapes_ok and len(negs) == (0 if is_triple else 1)
        for x in variables:
            occurrences[x] += 1
            if is_triple:
                triples[x] += 1
        for x in negs:
            negated[x] += 1
        for pair in itertools.combinations(variables, 2):
            pairs_ok = pairs_ok and pair not in pairs
            pairs.add(pair)

    used = [x for x in range(1, f.num_vars + 1) if occurrences[x]]
    return PropertyReport(
        clause_shapes=shapes_ok,
        occurrence_bound=all(occurrences[x] <= 3 for x in used),
        pair_cooccurrence=pairs_ok,
        triple_clause_membership=all(triples[x] == 1 for x in used),
        low_occurrence_polarity=all(
            negated[x] < occurrences[x] for x in used if occurrences[x] <= 2
        ),
        thrice_occurrence_polarity=all(negated[x] == 1 for x in used if occurrences[x] == 3),
    )


def lift_assignment(tm: TransformMap, assignment: Assignment) -> Assignment:
    """Extend an assignment of the original formula to all copies."""
    originals = range(1, len(tm) + 1)
    require_variables(assignment, originals)
    return {y: assignment[x] for x in originals for y in tm[x]}


def chain_fault(tm: TransformMap, assignment: Assignment) -> str | None:
    """Name the first variable whose copies disagree, breaking its equality chain, or None."""
    originals = range(1, len(tm) + 1)
    require_variables(assignment, (y for x in originals for y in tm[x]))
    for x in originals:
        if len({assignment[y] for y in tm[x]}) != 1:
            return f"equality chain violated: copies of variable {x} disagree"
    return None


def project_assignment(tm: TransformMap, assignment: Assignment) -> Assignment:
    """Collapse an assignment of the split formula back to the original variables.

    Raises ValueError with chain_fault's text when an equality chain is broken.
    """
    fault = chain_fault(tm, assignment)
    if fault is not None:
        raise ValueError(fault)
    return {x: assignment[x] for x in range(1, len(tm) + 1)}


def emit_transform_map(tm: TransformMap) -> str:
    """One `map <orig> <y1> <y2> ...` line per original variable."""
    rows = [f"map {x} {' '.join(map(str, tm[x]))}" for x in range(1, len(tm) + 1)]
    return "\n".join(rows) + "\n"


def transform_map_comments(tm: TransformMap) -> str:
    """The map serialized as DIMACS comment lines, for embedding in CNF output."""
    return "".join(f"c {line}\n" for line in emit_transform_map(tm).splitlines())


def parse_transform_map(text: str | bytes) -> TransformMap:
    """Read the lines whose first token is `map`, or `c` then `map` (a DIMACS comment)."""
    tm: TransformMap = {}
    for raw in decoded(text).splitlines():
        line = raw.strip()
        if not line or line[0] not in "cm":  # not a map line; spares splitting CNF clause lines
            continue
        tokens = line.split()
        if tokens[0] == "c":
            tokens, line = tokens[1:], line[1:].lstrip()
        if tokens[:1] != ["map"]:
            continue
        if len(tokens) < 3:
            raise FormatError(f"malformed map line: {line!r}")
        x, *copies = ints(tokens[1:], "map line", line)
        for y in copies:
            if not 1 <= y <= MAX_COUNT:
                raise FormatError(f"copy {y} of variable {x} out of range 1..{MAX_COUNT}")
        if x in tm:
            raise FormatError(f"variable {x} mapped twice")
        if copies[0] != x:
            raise FormatError(f"first copy of variable {x} must be {x} itself")
        tm[x] = tuple(copies)
    # Each key is its own first copy, so positive: the keys are 1..n iff n is their maximum.
    if max(tm, default=0) != len(tm):
        raise FormatError("map lines must cover variables 1..n")
    all_copies = [y for copies in tm.values() for y in copies]
    if len(set(all_copies)) != len(all_copies):
        raise FormatError("replacement lists overlap")
    return tm
