import random

import pytest

from naecut import (
    Clause,
    CnfFormula,
    FormatError,
    complement_assignment,
    emit_cnf,
    enumerate_triangles,
    generate_instance,
    incidence_graph,
    is_monotone_3sat,
    nae_satisfies,
    occurrence_counts,
    parse_cnf,
    split_repeated_variables,
)
from naecut.formula import nae_fault


def test_parse_smallest_monotone_instance():
    f = parse_cnf("p cnf 3 1\n1 2 3 0")
    assert f.num_vars == 3
    assert len(f.clauses) == 1
    assert f.clauses[0].literals == (1, 2, 3)


def test_parse_two_clause_shape():
    f = parse_cnf("p cnf 2 1\n1 -2 0")
    assert f.clauses[0].literals == (1, -2)


def test_parse_rejects_duplicate_variable_in_clause():
    with pytest.raises(FormatError):
        parse_cnf("p cnf 3 1\n1 1 2 0")


def test_parse_accepts_comments_and_crlf():
    f = parse_cnf("c comment\r\np cnf 3 1\r\n1 2 3 0\r\nc trailing\r\n")
    assert f == parse_cnf("p cnf 3 1\n1 2 3 0\n")
    # Bytes are decoded as UTF-8, and a clause may span lines.
    assert f == parse_cnf(b"p cnf 3 1\n\n1 2\n  3 0\n")


def test_parse_error_cases():
    with pytest.raises(FormatError):
        parse_cnf("1 2 3 0")  # no header
    with pytest.raises(FormatError):
        parse_cnf("p cnf x 1\n1 2 3 0")  # bad header
    with pytest.raises(FormatError):
        parse_cnf("p cnf 3 1\n1 2 4 0")  # variable out of range
    with pytest.raises(FormatError):
        parse_cnf("p cnf 3 1\n1 2 3")  # unterminated clause
    with pytest.raises(FormatError):
        parse_cnf("p cnf 4 1\n1 2 3 4 0")  # clause too long
    with pytest.raises(FormatError):
        parse_cnf("p cnf 3 2\n1 2 3 0")  # clause count mismatch
    with pytest.raises(FormatError):
        parse_cnf("p cnf 3 1\np cnf 3 1\n1 2 3 0")  # duplicate header
    for text in (
        "p cnf 3 1\n1 2 x 0",  # non-integer token
        "p cnf 3 1\n1 2 -4 0",  # negative literal out of range
        "p cnf 3 1\n1 0",  # clause too short
        "p cnf 3 1\n1 -1 2 0",  # variable repeated with both signs
        "p cnf 3\n1 2 3 0",  # header arity
        "p dnf 3 1\n1 2 3 0",  # header tag
        "p cnf -3 1\n1 2 3 0",  # negative header
        "1 2 3 0\np cnf 3 1",  # clause before header
        b"p cnf 3 1\n1 2 \xff 0\n",  # bytes that are not UTF-8
        "",  # empty input
    ):
        with pytest.raises(FormatError):
            parse_cnf(text)


def test_emit_single_clause():
    f = CnfFormula.from_ints(3, [[1, 2, 3]])
    assert emit_cnf(f) == "p cnf 3 1\n1 2 3 0\n"


def test_emit_empty_formula():
    assert emit_cnf(CnfFormula(0)) == "p cnf 0 0\n"


def test_emit_of_transform_output_contains_negated_literal():
    f = CnfFormula.from_ints(5, [[1, 2, 3], [1, 4, 5]])
    out, _ = split_repeated_variables(f)
    assert "-" in emit_cnf(out)


def test_parse_emit_roundtrip_on_generated_corpus():
    for seed in range(30):
        f = generate_instance(seed, 4 + seed % 8, 1 + seed % 10)
        assert parse_cnf(emit_cnf(f)) == f


def test_is_monotone_3sat():
    assert is_monotone_3sat(CnfFormula.from_ints(3, [[1, 2, 3]]))
    assert not is_monotone_3sat(CnfFormula.from_ints(2, [[1, -2]]))
    out, _ = split_repeated_variables(CnfFormula.from_ints(5, [[1, 2, 3], [1, 4, 5]]))
    assert not is_monotone_3sat(out)


def test_nae_semantics_three_clause():
    f = CnfFormula.from_ints(3, [[1, 2, 3]])
    assert nae_satisfies(f, {1: True, 2: True, 3: False})
    assert not nae_satisfies(f, {1: True, 2: True, 3: True})
    assert not nae_satisfies(f, {1: False, 2: False, 3: False})


def test_nae_semantics_two_clause():
    # (x1 v -x2): literal values must differ, so x1 and x2 must be equal.
    f = CnfFormula.from_ints(2, [[1, -2]])
    assert nae_satisfies(f, {1: True, 2: True})
    assert not nae_satisfies(f, {1: True, 2: False})


def test_nae_requires_total_assignment():
    f = CnfFormula.from_ints(3, [[1, 2, 3]])
    with pytest.raises(ValueError):
        nae_satisfies(f, {1: True, 2: False})


def test_nae_fault_matches_a_naive_scan():
    rng = random.Random(3)
    found = set()
    for _ in range(600):
        n = rng.randint(3, 7)
        picks = [rng.sample(range(1, n + 1), rng.choice((2, 3))) for _ in range(rng.randint(1, 6))]
        clauses = [[x if rng.random() < 0.5 else -x for x in pick] for pick in picks]
        f = CnfFormula.from_ints(n, clauses)
        a = {x: rng.random() < 0.5 for x in range(1, n + 1)}
        naive = None
        for i, lits in enumerate(clauses, start=1):
            if len({a[abs(x)] == (x > 0) for x in lits}) == 1:
                naive = f"clause {i} ({' '.join(map(str, lits))}) has all-equal values"
                break
        assert nae_fault(f, a) == naive
        assert nae_satisfies(f, a) == (naive is None)
        found.add(naive is None)
        del a[n]
        with pytest.raises(ValueError, match=f"missing variable {n}"):
            nae_fault(f, a)
    assert found == {True, False}


def test_nae_is_self_complementary():
    rng = random.Random(5)
    for seed in range(40):
        f = generate_instance(seed, 5, 4)
        a = {x: rng.random() < 0.5 for x in range(1, 6)}
        assert nae_satisfies(f, a) == nae_satisfies(f, complement_assignment(a))


def test_incidence_variant_a_is_k3():
    f = CnfFormula.from_ints(3, [[1, 2, 3]])
    g = incidence_graph(f, "A")
    assert g.num_vertices == 3
    assert g.edges == frozenset({(1, 2), (1, 3), (2, 3)})


def test_incidence_variant_b_is_k4():
    f = CnfFormula.from_ints(3, [[1, 2, 3]])
    g = incidence_graph(f, "B")
    assert g.num_vertices == 4
    assert len(g.edges) == 6
    assert g.adj[4] == (1, 2, 3)


def test_incidence_two_triangles_sharing_a_vertex():
    f = CnfFormula.from_ints(5, [[1, 2, 3], [1, 4, 5]])
    g = incidence_graph(f, "A")
    assert g.num_vertices == 5
    assert len(g.edges) == 6
    assert enumerate_triangles(g) == [(1, 2, 3), (1, 4, 5)]


def test_incidence_rejects_non_monotone_input():
    f = CnfFormula.from_ints(2, [[1, -2]])
    with pytest.raises(ValueError):
        incidence_graph(f, "A")


def test_incidence_edge_bound_and_clause_triangles():
    for seed in range(20):
        f = generate_instance(seed, 6, 8)
        g = incidence_graph(f, "A")
        assert len(g.edges) <= 3 * len(f.clauses)
        triangles = set(enumerate_triangles(g))
        for clause in f.clauses:
            assert tuple(sorted(clause.variables())) in triangles


def test_occurrence_counts():
    assert occurrence_counts(CnfFormula.from_ints(3, [[1, 2, 3]])) == {1: 1, 2: 1, 3: 1}
    f = CnfFormula.from_ints(5, [[1, 2, 3], [1, 4, 5]])
    assert occurrence_counts(f) == {1: 2, 2: 1, 3: 1, 4: 1, 5: 1}
    out, _ = split_repeated_variables(f)
    assert all(c <= 3 for c in occurrence_counts(out).values())


def test_literal_and_clause_invariants():
    with pytest.raises(ValueError):
        Clause.from_signed(1, 0, 2)
    with pytest.raises(ValueError):
        Clause.from_signed(1, 2, 3, 4)
    with pytest.raises(ValueError):
        Clause.from_signed(1, -1)
    with pytest.raises(ValueError):
        CnfFormula.from_ints(2, [[1, 2, 3]])
