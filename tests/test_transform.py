import random
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
    nae_satisfies,
    occurrence_counts,
    parse_transform_map,
    project_assignment,
    split_repeated_variables,
    transform_map_comments,
)
from naecut.transform import chain_fault


def test_split_leaves_repeat_free_formula_unchanged():
    f = CnfFormula.from_ints(3, [[1, 2, 3]])
    out, tm = split_repeated_variables(f)
    assert out == f
    assert tm.replacements == {1: (1,), 2: (2,), 3: (3,)}


def test_split_two_occurrences():
    f = CnfFormula.from_ints(5, [[1, 2, 3], [1, 4, 5]])
    out, tm = split_repeated_variables(f)
    assert out.num_vars == 6
    assert [cl.literals for cl in out.clauses] == [(1, 2, 3), (6, 4, 5), (1, -6)]
    assert tm.replacements == {1: (1, 6), 2: (2,), 3: (3,), 4: (4,), 5: (5,)}


def test_split_two_repeated_variables():
    f = CnfFormula.from_ints(4, [[1, 2, 3], [1, 2, 4]])
    out, tm = split_repeated_variables(f)
    assert out.num_vars == 6
    assert [cl.literals for cl in out.clauses] == [
        (1, 2, 3),
        (5, 6, 4),
        (1, -5),
        (2, -6),
    ]
    assert tm.replacements == {1: (1, 5), 2: (2, 6), 3: (3,), 4: (4,)}


def test_split_rejects_non_monotone_input():
    with pytest.raises(ValueError):
        split_repeated_variables(CnfFormula.from_ints(2, [[1, -2]]))


def test_split_map_invariants_and_size_formula():
    for seed in range(60):
        f = generate_instance(seed, 4 + seed % 9, 1 + seed % 14)
        counts = occurrence_counts(f)
        out, tm = split_repeated_variables(f)
        copies = [y for lst in tm.replacements.values() for y in lst]
        assert len(copies) == len(set(copies))
        assert sorted(copies) == list(range(1, out.num_vars + 1))
        extra = sum(max(k - 1, 0) for k in counts.values())
        assert sum(len(lst) - 1 for lst in tm.replacements.values()) == extra
        assert len(out.clauses) == len(f.clauses) + extra
        assert out.num_vars == sum(max(k, 1) for k in counts.values())


def test_properties_hold_on_split_outputs():
    for seed in range(200):
        f = generate_instance(seed, 3 + seed % 12, 1 + seed % 16)
        out, _ = split_repeated_variables(f)
        report = check_properties(out)
        assert report.all_hold(), report.failures()


def test_properties_pair_cooccurrence_violation():
    f = CnfFormula.from_ints(4, [[1, 2, 3], [1, 2, 4]])
    report = check_properties(f)
    assert not report.pair_cooccurrence


def test_properties_lone_two_clause_violates_triple_membership():
    f = CnfFormula.from_ints(2, [[1, -2]])
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
    return CnfFormula.from_ints(n, clauses)


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
    f = CnfFormula.from_ints(3, [[1, 2, 3]])
    _, tm = split_repeated_variables(f)
    a = {1: True, 2: False, 3: False}
    assert lift_assignment(tm, a) == a


def test_lift_copies_share_the_original_value():
    f = CnfFormula.from_ints(5, [[1, 2, 3], [1, 4, 5]])
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
        assert nae_satisfies(out, lift_assignment(tm, witness))
        checked += 1
    assert checked >= 150


def test_project_forced_values_and_chain_violation():
    f = CnfFormula.from_ints(5, [[1, 2, 3], [1, 4, 5]])
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
    f = CnfFormula.from_ints(5, [[1, 2, 3], [1, 4, 5]])
    _, tm = split_repeated_variables(f)
    text = emit_transform_map(tm)
    assert text.splitlines()[0] == "map 1 1 6"
    parsed = parse_transform_map(text)
    assert parsed.replacements == tm.replacements
    # The same lines embedded as DIMACS comments parse identically.
    assert parse_transform_map(transform_map_comments(tm)).replacements == tm.replacements
    # Only `map` lines count, bare or after `c `; CNF lines and other comments are skipped.
    text = "p cnf 3 2\r\n1 2 3 0\r\nc note\r\n\r\nc map 1 1 3\r\n  map 2 2\r\n"
    tm = parse_transform_map(text)
    assert tm.replacements == {1: (1, 3), 2: (2,)}
    assert (tm.num_original_vars, tm.num_output_vars) == (2, 3)
    assert parse_transform_map(text.encode()).replacements == tm.replacements
    # The 0-variable map is empty and reads back; so does a text without `map` lines.
    _, tm = split_repeated_variables(CnfFormula.from_ints(0, []))
    assert emit_transform_map(tm) == "\n"
    assert parse_transform_map("\n") == parse_transform_map("no map lines here\n") == tm


def test_map_parse_errors():
    with pytest.raises(FormatError):
        parse_transform_map("map 1 1\nmap 1 1\n")
    with pytest.raises(FormatError):
        parse_transform_map("map 1 2\n")
    for text in (
        "map 1\n",  # no copies
        "map 1 x\n",  # non-integer
        "c map 1 1 2\nc map 2 2\n",  # copies overlap
        "map 2 2\n",  # does not cover 1..n
    ):
        with pytest.raises(FormatError):
            parse_transform_map(text)


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
    tm = parse_transform_map(f"map 1 1 {MAX_COUNT}\n")
    assert tm.num_output_vars == MAX_COUNT
