import random

import pytest

from naecut import (
    CnfFormula,
    FormatError,
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
    assert f.clauses[0] == (1, 2, 3)


def test_parse_two_clause_shape():
    f = parse_cnf("p cnf 2 1\n1 -2 0")
    assert f.clauses[0] == (1, -2)


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
    f = CnfFormula(3, [[1, 2, 3]])
    assert emit_cnf(f) == "p cnf 3 1\n1 2 3 0\n"


def test_emit_empty_formula():
    assert emit_cnf(CnfFormula(0)) == "p cnf 0 0\n"


def test_emit_of_transform_output_contains_negated_literal():
    f = CnfFormula(5, [[1, 2, 3], [1, 4, 5]])
    out, _ = split_repeated_variables(f)
    assert "-" in emit_cnf(out)


def test_parse_emit_roundtrip_on_generated_corpus():
    for seed in range(30):
        f = generate_instance(seed, 4 + seed % 8, 1 + seed % 10)
        assert parse_cnf(emit_cnf(f)) == f


def test_is_monotone_3sat():
    assert is_monotone_3sat(CnfFormula(3, [[1, 2, 3]]))
    assert not is_monotone_3sat(CnfFormula(2, [[1, -2]]))
    out, _ = split_repeated_variables(CnfFormula(5, [[1, 2, 3], [1, 4, 5]]))
    assert not is_monotone_3sat(out)


def test_nae_semantics_three_clause():
    f = CnfFormula(3, [[1, 2, 3]])
    assert nae_fault(f, {1: True, 2: True, 3: False}) is None
    assert nae_fault(f, {1: True, 2: True, 3: True}) == "clause 1 (1 2 3) has all-equal values"
    assert nae_fault(f, {1: False, 2: False, 3: False}) == "clause 1 (1 2 3) has all-equal values"


def test_nae_semantics_two_clause():
    # (x1 v -x2): literal values must differ, so x1 and x2 must be equal.
    f = CnfFormula(2, [[1, -2]])
    assert nae_fault(f, {1: True, 2: True}) is None
    assert nae_fault(f, {1: True, 2: False}) == "clause 1 (1 -2) has all-equal values"


def test_nae_requires_total_assignment():
    f = CnfFormula(3, [[1, 2, 3]])
    with pytest.raises(ValueError, match="^assignment is missing variable 3$"):
        nae_fault(f, {1: True, 2: False})


def test_nae_fault_matches_a_naive_scan():
    rng = random.Random(3)
    found = set()
    for _ in range(600):
        n = rng.randint(3, 7)
        picks = [rng.sample(range(1, n + 1), rng.choice((2, 3))) for _ in range(rng.randint(1, 6))]
        clauses = [[x if rng.random() < 0.5 else -x for x in pick] for pick in picks]
        f = CnfFormula(n, clauses)
        a = {x: rng.random() < 0.5 for x in range(1, n + 1)}
        naive = None
        for i, lits in enumerate(clauses, start=1):
            if len({a[abs(x)] == (x > 0) for x in lits}) == 1:
                naive = f"clause {i} ({' '.join(map(str, lits))}) has all-equal values"
                break
        assert nae_fault(f, a) == naive
        # nae_satisfies stays only as this shim, for the benchmark's workloads.
        assert nae_satisfies(f, a) == (nae_fault(f, a) is None)
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
        assert nae_fault(f, a) == nae_fault(f, {x: not v for x, v in a.items()})


def test_incidence_variant_a_is_k3():
    f = CnfFormula(3, [[1, 2, 3]])
    g = incidence_graph(f)
    assert g.num_vertices == 3
    assert g.sorted_edges() == [(1, 2), (1, 3), (2, 3)]


def test_incidence_two_triangles_sharing_a_vertex():
    f = CnfFormula(5, [[1, 2, 3], [1, 4, 5]])
    g = incidence_graph(f)
    assert g.num_vertices == 5
    assert g.num_edges == 6
    assert enumerate_triangles(g) == [(1, 2, 3), (1, 4, 5)]


def test_incidence_rejects_non_monotone_input():
    f = CnfFormula(2, [[1, -2]])
    with pytest.raises(ValueError):
        incidence_graph(f)


def test_incidence_edge_bound_and_clause_triangles():
    for seed in range(20):
        f = generate_instance(seed, 6, 8)
        g = incidence_graph(f)
        assert g.num_edges <= 3 * len(f.clauses)
        triangles = set(enumerate_triangles(g))
        for clause in f.clauses:
            assert tuple(sorted(map(abs, clause))) in triangles


def test_occurrence_counts():
    assert occurrence_counts(CnfFormula(3, [[1, 2, 3]])) == {1: 1, 2: 1, 3: 1}
    f = CnfFormula(5, [[1, 2, 3], [1, 4, 5]])
    assert occurrence_counts(f) == {1: 2, 2: 1, 3: 1, 4: 1, 5: 1}
    out, _ = split_repeated_variables(f)
    assert all(c <= 3 for c in occurrence_counts(out).values())


def test_literal_and_clause_invariants():
    with pytest.raises(ValueError):
        CnfFormula(9, [(1, 0, 2)])
    with pytest.raises(ValueError):
        CnfFormula(9, [(1, 2, 3, 4)])
    with pytest.raises(ValueError):
        CnfFormula(9, [(1, -1)])
    with pytest.raises(ValueError):
        CnfFormula(2, [[1, 2, 3]])
    # Any sequence of literal sequences goes in; tuples come out.
    f = CnfFormula(3, [[1, -2, 3], (2, -1)])
    assert f.clauses == ((1, -2, 3), (2, -1))
    assert f.clauses[0].variables() == (1, 2, 3)


@pytest.mark.parametrize(
    "lits, message",
    [
        ((1, 0, 2), "0 is reserved as the clause terminator"),
        ((0, 1, 1, 2), "0 is reserved as the clause terminator"),  # before length and duplicate
        ((1, 0), "0 is reserved as the clause terminator"),
        ((1, 2, 3, 4), "clause length must be 2 or 3, got 4"),
        ((1, 1, 2, 2), "clause length must be 2 or 3, got 4"),  # length before duplicate
        ((5,), "clause length must be 2 or 3, got 1"),
        ((), "clause length must be 2 or 3, got 0"),
        ((1, -1), "duplicate variable in clause (1, -1)"),
        ((2, 3, -2), "duplicate variable in clause (2, 3, -2)"),
    ],
)
def test_clause_messages_and_their_precedence(lits, message):
    with pytest.raises(ValueError) as exc:
        CnfFormula(9, [lits])
    assert str(exc.value) == message


def test_formula_names_the_first_variable_over_its_count():
    # In clause order, then literal order, whatever the largest variable is.
    for clauses, x in (
        ([[1, 2, 3], [1, -9, 4], [7, 2, 3]], 9),
        ([[1, 2, 3], [-5, 2, 3], [-6, 9, 1]], 5),
        ([[2, -4, 6]], 4),
    ):
        with pytest.raises(ValueError) as exc:
            CnfFormula(3, clauses)
        assert str(exc.value) == f"variable {x} exceeds declared count 3"
    with pytest.raises(ValueError, match="^variable count must be non-negative$"):
        CnfFormula(-1, [[1, 2, 3]])
    assert CnfFormula(3, [[-3, 1, 2]]).num_vars == 3
    # Every clause's shape is checked before the count and the bound.
    for num_vars, clauses in ((3, [[1, 2, 9], [1, 1, 2]]), (-1, [[1, 1, 2]])):
        with pytest.raises(ValueError) as exc:
            CnfFormula(num_vars, clauses)
        assert str(exc.value) == "duplicate variable in clause (1, 1, 2)"
    assert CnfFormula(0).clauses == ()
