import random
import re
from dataclasses import fields

import pytest

from naecut import (
    CnfFormula,
    PropertyReport,
    FormatError,
    brute_force_nae,
    check_properties,
    emit_transform_map,
    exhaustive_budget,
    generate_instance,
    lift_assignment,
    occurrence_counts,
    parse_transform_map,
    project_assignment,
    split_repeated_variables,
    transform_map_comments,
)
from naecut.formula import nae_fault
from naecut.transform import chain_fault


def test_split_leaves_repeat_free_formula_unchanged():
    f = CnfFormula(3, [[1, 2, 3]])
    out, tm = split_repeated_variables(f)
    assert out == f
    assert tm == {1: (1,), 2: (2,), 3: (3,)}


def test_split_two_occurrences():
    f = CnfFormula(5, [[1, 2, 3], [1, 4, 5]])
    out, tm = split_repeated_variables(f)
    assert out.num_vars == 6
    assert list(out.clauses) == [(1, 2, 3), (6, 4, 5), (1, -6)]
    assert tm == {1: (1, 6), 2: (2,), 3: (3,), 4: (4,), 5: (5,)}


def test_split_two_repeated_variables():
    f = CnfFormula(4, [[1, 2, 3], [1, 2, 4]])
    out, tm = split_repeated_variables(f)
    assert out.num_vars == 6
    assert list(out.clauses) == [
        (1, 2, 3),
        (5, 6, 4),
        (1, -5),
        (2, -6),
    ]
    assert tm == {1: (1, 5), 2: (2, 6), 3: (3,), 4: (4,)}


def test_split_rejects_non_monotone_input():
    with pytest.raises(ValueError):
        split_repeated_variables(CnfFormula(2, [[1, -2]]))


def test_split_map_invariants_and_size_formula():
    for seed in range(60):
        f = generate_instance(seed, 4 + seed % 9, 1 + seed % 14)
        counts = occurrence_counts(f)
        out, tm = split_repeated_variables(f)
        copies = [y for lst in tm.values() for y in lst]
        assert len(copies) == len(set(copies))
        assert sorted(copies) == list(range(1, out.num_vars + 1))
        extra = sum(max(k - 1, 0) for k in counts.values())
        assert sum(len(lst) - 1 for lst in tm.values()) == extra
        assert len(out.clauses) == len(f.clauses) + extra
        assert out.num_vars == sum(max(k, 1) for k in counts.values())


def test_properties_hold_on_split_outputs():
    for seed in range(200):
        f = generate_instance(seed, 3 + seed % 12, 1 + seed % 16)
        out, _ = split_repeated_variables(f)
        report = check_properties(out)
        assert report.all_hold(), report.failures()


def test_properties_pair_cooccurrence_violation():
    f = CnfFormula(4, [[1, 2, 3], [1, 2, 4]])
    report = check_properties(f)
    assert not report.pair_cooccurrence


def test_properties_lone_two_clause_violates_triple_membership():
    f = CnfFormula(2, [[1, -2]])
    report = check_properties(f)
    assert not report.triple_clause_membership


def reference_check_properties(f):
    """The multi-pass check that the one-pass `check_properties` replaced; the reference."""
    counts = occurrence_counts(f)
    negated = {x: 0 for x in range(1, f.num_vars + 1)}
    triple_membership = {x: 0 for x in range(1, f.num_vars + 1)}
    pair_uses = {}
    shapes_ok = True
    for clause in f.clauses:
        neg = sum(1 for x in clause if x < 0)
        if len(clause) == 3:
            if neg != 0:
                shapes_ok = False
        else:
            if neg != 1:
                shapes_ok = False
        for x in clause:
            if x < 0:
                negated[-x] += 1
            if len(clause) == 3:
                triple_membership[abs(x)] += 1
        variables = sorted(map(abs, clause))
        for i in range(len(variables)):
            for j in range(i + 1, len(variables)):
                pair = (variables[i], variables[j])
                pair_uses[pair] = pair_uses.get(pair, 0) + 1
    return PropertyReport(
        clause_shapes=shapes_ok,
        occurrence_bound=all(c <= 3 for c in counts.values()),
        pair_cooccurrence=all(c <= 1 for c in pair_uses.values()),
        triple_clause_membership=all(triple_membership[x] == 1 for x in counts if counts[x] >= 1),
        low_occurrence_polarity=all(negated[x] < counts[x] for x in counts if counts[x] in (1, 2)),
        thrice_occurrence_polarity=all(negated[x] == 1 for x in counts if counts[x] == 3),
    )


def random_signed_formula(rng):
    """2-8 variables, 1-8 clauses of 2 or 3 signed literals over distinct variables."""
    n = rng.randint(2, 8)
    clauses = []
    for _ in range(rng.randint(1, 8)):
        variables = rng.sample(range(1, n + 1), rng.choice((2, 3)) if n >= 3 else 2)
        clauses.append([x if rng.random() < 0.6 else -x for x in variables])
    return CnfFormula(n, clauses)


def test_check_properties_matches_the_reference():
    rng = random.Random(9)
    formulas = [random_signed_formula(rng) for _ in range(1800)]
    formulas += [
        split_repeated_variables(generate_instance(seed, 3 + seed % 9, 1 + seed % 12))[0]
        for seed in range(200)
    ]
    seen = set()
    for f in formulas:
        report = check_properties(f)
        assert report == reference_check_properties(f), f
        flags = {fld.name: getattr(report, fld.name) for fld in fields(report)}
        assert report.failures() == [name for name, ok in flags.items() if not ok]
        assert report.all_hold() == all(flags.values())
        seen.update(flags.items())
    assert seen == {(fld.name, ok) for fld in fields(PropertyReport) for ok in (True, False)}


def test_lift_identity_map():
    f = CnfFormula(3, [[1, 2, 3]])
    _, tm = split_repeated_variables(f)
    a = {1: True, 2: False, 3: False}
    assert lift_assignment(tm, a) == a


def test_lift_copies_share_the_original_value():
    f = CnfFormula(5, [[1, 2, 3], [1, 4, 5]])
    _, tm = split_repeated_variables(f)
    lifted = lift_assignment(tm, {1: True, 2: False, 3: False, 4: True, 5: False})
    assert lifted[1] is True and lifted[6] is True


def test_lift_preserves_satisfaction():
    checked = 0
    for seed in range(200):
        f = generate_instance(seed, 3 + seed % 10, 1 + seed % 12)
        witness = brute_force_nae(f, exhaustive_budget(f.num_vars))
        if witness is None:
            continue
        out, tm = split_repeated_variables(f)
        assert nae_fault(out, lift_assignment(tm, witness)) is None
        checked += 1
    assert checked >= 150


def test_project_forced_values_and_chain_violation():
    f = CnfFormula(5, [[1, 2, 3], [1, 4, 5]])
    _, tm = split_repeated_variables(f)
    base = {2: False, 3: True, 4: False, 5: True}
    assert project_assignment(tm, {**base, 1: False, 6: False})[1] is False
    assert chain_fault(tm, {**base, 1: False, 6: False}) is None
    broken = {**base, 1: True, 6: False}
    message = "equality chain violated: copies of variable 1 disagree"
    assert chain_fault(tm, broken) == message
    with pytest.raises(ValueError, match=message):
        project_assignment(tm, broken)


def test_lift_then_project_is_identity():
    for seed in range(60):
        f = generate_instance(seed, 4 + seed % 8, 2 + seed % 10)
        witness = brute_force_nae(f, exhaustive_budget(f.num_vars))
        if witness is None:
            continue
        _, tm = split_repeated_variables(f)
        assert project_assignment(tm, lift_assignment(tm, witness)) == witness


def test_split_preserves_satisfiability_both_ways():
    for seed in range(120):
        f = generate_instance(seed, 3 + seed % 10, 1 + seed % 18)
        out, _ = split_repeated_variables(f)
        sat_in = brute_force_nae(f, exhaustive_budget(f.num_vars)) is not None
        sat_out = brute_force_nae(out, exhaustive_budget(out.num_vars)) is not None
        assert sat_in == sat_out


def test_map_serialization_roundtrip():
    f = CnfFormula(5, [[1, 2, 3], [1, 4, 5]])
    _, tm = split_repeated_variables(f)
    text = emit_transform_map(tm)
    assert text.splitlines()[0] == "map 1 1 6"
    assert parse_transform_map(text) == tm
    # The same lines embedded as DIMACS comments parse identically.
    assert parse_transform_map(transform_map_comments(tm)) == tm
    # Only `map` lines count, bare or after a `c` token; CNF lines and other comments are skipped.
    text = "p cnf 3 2\r\n1 2 3 0\r\nc note\r\n\r\nc map 1 1 3\r\n  map 2 2\r\n"
    assert parse_transform_map(text) == parse_transform_map(text.encode()) == {1: (1, 3), 2: (2,)}
    # The 0-variable map is empty and reads back; so does a text without `map` lines.
    _, tm = split_repeated_variables(CnfFormula(0, []))
    assert emit_transform_map(tm) == "\n"
    assert parse_transform_map("\n") == parse_transform_map("no map lines here\n") == tm


def test_map_parse_errors():
    for text, message in (
        ("map 1 1\nmap 1 1\n", "variable 1 mapped twice"),
        ("map 1 2\n", "first copy of variable 1 must be 1 itself"),
        ("map 1\n", "malformed map line: 'map 1'"),  # no copies
        ("map 1 x\n", "malformed map line: 'map 1 x'"),  # non-integer
        ("c map 1 1 2\nc map 2 2\n", "replacement lists overlap"),
        ("map 2 2\n", "map lines must cover variables 1..n"),
        ("map 1 1\nmap 3 3\n", "map lines must cover variables 1..n"),
    ):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            parse_transform_map(text)


def test_map_line_kind_is_its_first_token():
    # A map line's first token is `map`, or `c` and then `map`, whatever whitespace follows.
    tm = {1: (1, 4), 2: (2,), 3: (3,)}
    for first in ("map\t1 1 4", "c\tmap 1 1 4", "c  map 1 1 4", "  map 1 1 4", "c map\t1\t1\t4"):
        assert parse_transform_map(f"{first}\nmap 2 2\nc map 3 3\n") == tm
    # Other first tokens are skipped, however they start.
    assert parse_transform_map("mapx 1 1\ncmap 1 1\nc mapx 1 1\nc c map 1 1\nc\n") == {}
    for text in ("map\n", "c map\n", "c\tmap\n", "map 1 1\nmap\t \n"):
        with pytest.raises(FormatError, match=r"^malformed map line: 'map'$"):
            parse_transform_map(text)
    # Messages name the line without its leading `c` token.
    with pytest.raises(FormatError, match=r"^malformed map line: 'map 1 x'$"):
        parse_transform_map("c\tmap 1 x\n")
    with pytest.raises(FormatError, match=r"^malformed map line: 'map 1'$"):
        parse_transform_map("c  map 1\n")


def test_map_messages_do_not_depend_on_line_order():
    ordered = "map 1 1 4\nmap 2 2\nmap 3 3 5\n"
    shuffled = "map 3 3 5\nmap 1 1 4\nmap 2 2\n"
    assert parse_transform_map(ordered) == parse_transform_map(shuffled)
    assert emit_transform_map(parse_transform_map(shuffled)) == ordered
    for text in (ordered, shuffled):
        tm = parse_transform_map(text)
        with pytest.raises(ValueError, match=r"^assignment is missing variable 1$"):
            lift_assignment(tm, {2: True})
        with pytest.raises(ValueError, match=r"^assignment is missing variable 4$"):
            chain_fault(tm, {1: True, 2: True, 3: True})
        broken = {1: True, 4: False, 2: True, 3: True, 5: False}
        assert chain_fault(tm, broken) == "equality chain violated: copies of variable 1 disagree"
        with pytest.raises(ValueError, match=r"copies of variable 1 disagree$"):
            project_assignment(tm, broken)


def test_map_copies_must_name_variables_in_range():
    # A copy names a variable: 1..MAX_COUNT, like every count of the text formats.
    from naecut.textio import MAX_COUNT

    for text, copy in (
        ("map 1 1 -2\nmap 2 2\n", -2),
        ("map 1 1\nmap 2 2 0\n", 0),
        (f"map 1 1 {MAX_COUNT + 1}\n", MAX_COUNT + 1),
    ):
        with pytest.raises(FormatError, match=rf"^copy {copy} of variable \d out of range"):
            parse_transform_map(text)
    assert parse_transform_map(f"map 1 1 {MAX_COUNT}\n") == {1: (1, MAX_COUNT)}
