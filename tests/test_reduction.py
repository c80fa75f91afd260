import itertools
import random
import re

import pytest

from naecut import (
    CnfFormula,
    Cut,
    FormatError,
    Graph,
    assignment_to_cut,
    brute_force_nae,
    build_graph,
    canonical_gadget,
    construct_5_colouring,
    cut_from_vertex_assignment,
    cut_to_assignment,
    emit_cnf,
    emit_colouring,
    emit_cut_witness,
    emit_graph,
    emit_nae_witness,
    emit_reduction_map,
    emit_transform_map,
    enumerate_triangles,
    exhaustive_budget,
    extract_nae,
    gadget_certify,
    generate_instance,
    incidence_graph,
    lift_assignment,
    max_degree,
    occurrence_counts,
    parse_cnf,
    parse_colouring,
    parse_cut_witness,
    parse_graph,
    parse_nae_witness,
    parse_reduction_map,
    parse_transform_map,
    split_repeated_variables,
    transform_map_comments,
)
from naecut.formula import nae_fault
from naecut.graphs import colouring_fault, cut_fault

from helpers import complete_graph


def split_example():
    f = CnfFormula(5, [[1, 2, 3], [1, 4, 5]])
    return split_repeated_variables(f)[0]


def test_build_single_clause_is_k3():
    g, rm = build_graph(CnfFormula(3, [[1, 2, 3]]))
    assert g == complete_graph(3)
    assert rm.clause_triangle == {1: (1, 2, 3)}
    assert rm.clause_gadget == {}


def test_build_with_one_gadget():
    # Split of {(1,2,3),(1,4,5)}: two triangles plus one gadget joining 1 and 6.
    g, rm = build_graph(split_example())
    assert g.num_vertices == 9
    assert g.num_edges == 6 + 9
    triangles = enumerate_triangles(g)
    assert len(triangles) == 2 + 7
    assert rm.clause_gadget[3] == (1, 6, 7, 8, 9)
    assert not g.has_edge(1, 6)


def test_build_rejects_property_violations():
    with pytest.raises(ValueError):
        build_graph(CnfFormula(4, [[1, 2, 3], [1, 2, 4]]))


def test_triangle_membership_counts():
    for seed in range(40):
        f = generate_instance(seed, 4 + seed % 9, 2 + seed % 12)
        out, _ = split_repeated_variables(f)
        g, rm = build_graph(out)
        triangles = enumerate_triangles(g)
        for vx in range(1, rm.num_variables + 1):
            assert sum(1 for t in triangles if vx in t) <= 7
        for gd in rm.clause_gadget.values():
            for v in gd[2:]:
                assert sum(1 for t in triangles if v in t) == 5


def test_every_triangle_is_a_clause_triangle_or_inside_one_gadget():
    for seed in range(40):
        f = generate_instance(seed, 4 + seed % 9, 2 + seed % 12)
        out, _ = split_repeated_variables(f)
        g, rm = build_graph(out)
        clause_triangles = set(rm.clause_triangle.values())
        gadget_vertex_sets = [frozenset(gd) for gd in rm.clause_gadget.values()]
        for tri in enumerate_triangles(g):
            inside_gadget = any(set(tri) <= vs for vs in gadget_vertex_sets)
            assert tri in clause_triangles or inside_gadget


def test_reduction_map_graph_rebuilds_from_the_parsed_map():
    g, rm = build_graph(split_example())
    # Clauses (1 2 3), (6 4 5), (1 -6): two triangles and the gadget x=1, y=6, face {7, 8, 9}.
    assert g.sorted_edges() == [
        (1, 2), (1, 3), (1, 7), (1, 8), (1, 9), (2, 3), (4, 5), (4, 6),
        (5, 6), (6, 7), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9),
    ]
    assert g.num_vertices == 9
    assert parse_reduction_map(emit_reduction_map(rm)).graph == g


def test_reduction_map_serialization_roundtrip():
    g, rm = build_graph(split_example())
    text = emit_reduction_map(rm)
    parsed = parse_reduction_map(text)
    assert parsed == rm
    assert parsed.graph == g
    assert parsed.num_vertices == g.num_vertices
    assert emit_reduction_map(parsed) == text
    for seed in range(8):
        split, _ = split_repeated_variables(generate_instance(seed, 4 + seed, 3 + 2 * seed))
        text = emit_reduction_map(build_graph(split)[1])
        assert emit_reduction_map(parse_reduction_map(text)) == text
    # The 0-variable map is empty and reads back.
    rm = build_graph(CnfFormula(0, []))[1]
    assert emit_reduction_map(rm) == "\n"
    assert parse_reduction_map("\n") == parse_reduction_map("") == rm


def test_reduction_map_parse_errors():
    for text, message in (
        ("var 1 1\nedge 1 2\n", "unrecognized map line: 'edge 1 2'"),
        ("var 1\n", "malformed var line: 'var 1'"),
        ("var 1 1\ntri 1 1 2\n", "malformed tri line: 'tri 1 1 2'"),
        ("var 1 1\ngad 1 1 2 3 4\n", "malformed gad line: 'gad 1 1 2 3 4'"),
        ("var 1 1\nvar 1 2\n", "variable 1 mapped twice"),
        ("var 1 2\n", "var lines must be 'var x x' for x = 1..1"),  # variable x is vertex x
        ("var 1 1\nvar 2 1\n", "var lines must be 'var x x' for x = 1..2"),
        ("var 1 1\nvar 3 3\n", "var lines must be 'var x x' for x = 1..2"),  # gap
        ("var 2 2\n", "var lines must be 'var x x' for x = 1..1"),  # variables start at 1
        ("var 1 1\ntri 1 1 2 3\ntri 1 1 2 3\n", "clause 1 mapped twice"),
        ("var 1 1\ngad 1 1 2 3 4 5\ngad 1 1 2 3 4 5\n", "clause 1 mapped twice"),
        ("var 1 x\n", "malformed var line: 'var 1 x'"),
        (b"var 1 1\ntri 1 1 2 \xff\n", "input is not UTF-8: "),
    ):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}"):
            parse_reduction_map(text)


# Triangle (1, 2, 7) names vertex 7, which is no variable; the gadget has apex 9.
UNWRITTEN_MAP = "var 1 1\nvar 2 2\ntri 1 1 2 7\ngad 2 9 2 3 4 5\n"


def test_reduction_map_ids_are_those_a_reduction_writes():
    # Triangle vertices and gadget apexes are variables 1..n, each variable in at most
    # one triangle, and the gadgets' faces take the next three ids above n in clause-id
    # order; the check runs after every line is read, so a `var` line may come last.
    for text, message in (
        (  # the face skips vertex 4
            "var 1 1\nvar 2 2\nvar 3 3\ntri 1 1 2 3\ngad 2 1 2 5 6 7\n",
            "clause 2 puts vertex 5 inside its gadget, not 4",
        ),
        (  # two gadgets on one face
            "var 1 1\nvar 2 2\nvar 3 3\ngad 1 1 2 4 5 6\ngad 2 2 3 4 5 6\n",
            "clause 2 puts vertex 4 inside its gadget, not 7",
        ),
        (  # faces numbered in file order, not in clause-id order
            "var 1 1\nvar 2 2\ngad 2 1 2 3 4 5\ngad 1 1 2 6 7 8\n",
            "clause 1 puts vertex 6 inside its gadget, not 3",
        ),
        (
            "var 1 1\nvar 2 2\nvar 3 3\nvar 4 4\ntri 1 1 2 3\ntri 2 2 3 4\n",
            "clause 2 names variable 2, already in a triangle",
        ),
        ("var 1 1\nvar 2 2\nvar 3 3\ntri 1 1 2 2\n", "clause 1 names variable 2, already in a triangle"),
        ("var 1 1\nvar 2 2\nvar 3 3\ntri 1 1 2 3\ngad 1 1 2 4 5 6\n", "clause 1 mapped twice"),
        (UNWRITTEN_MAP, "clause 1 names vertex 7, not a variable 1..2"),
        ("tri 1 1 2 7\nvar 1 1\nvar 2 2\n", "clause 1 names vertex 7, not a variable 1..2"),
        ("var 1 1\nvar 2 2\ngad 2 9 2 3 4 5\n", "clause 2 names vertex 9, not a variable 1..2"),
        ("var 1 1\nvar 2 2\ngad 2 1 0 3 4 5\n", "clause 2 names vertex 0, not a variable 1..2"),
        ("var 1 1\nvar 2 2\ngad 3 1 2 3 2 5\n", "clause 3 puts vertex 2 inside its gadget, not above 2"),
        ("var 1 1\nvar 2 2\ngad 3 1 2 3 4 -5\n", "clause 3 puts vertex -5 inside its gadget, not above 2"),
        ("tri 1 1 2 3\n", "clause 1 names vertex 1, not a variable 1..0"),
        (  # a 2-clause has two distinct variables; in emitter order, then reordered
            "var 1 1\nvar 2 2\nvar 3 3\nvar 4 4\ntri 1 2 3 4\ngad 2 1 1 5 6 7\n",
            "clause 2 names variable 1 as both apexes",
        ),
        ("gad 2 1 1 5 6 7\nvar 1 1\nvar 2 2\nvar 3 3\nvar 4 4\ntri 1 2 3 4\n", "clause 2 names variable 1 as both apexes"),
    ):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            parse_reduction_map(text)
    # A map that keeps the rule reads back whatever the order of its lines.
    rm = parse_reduction_map("gad 2 1 2 3 4 5\nvar 1 1\nvar 2 2\n")
    assert (rm.num_variables, rm.num_vertices) == (2, 5)


def test_reduction_map_vertex_limit(monkeypatch):
    # Two variables and three gadgets describe 11 vertices, in emitter order and shuffled.
    ordered = "var 1 1\nvar 2 2\ngad 1 1 2 3 4 5\ngad 2 1 2 6 7 8\ngad 3 2 1 9 10 11\n"
    shuffled = "gad 3 2 1 9 10 11\nvar 2 2\ngad 1 1 2 3 4 5\nvar 1 1\ngad 2 1 2 6 7 8\n"
    monkeypatch.setattr("naecut.reduction.MAX_COUNT", 11)
    assert parse_reduction_map(ordered) == parse_reduction_map(shuffled)
    assert parse_reduction_map(ordered).num_vertices == 11
    monkeypatch.setattr("naecut.reduction.MAX_COUNT", 10)
    for text in (ordered, shuffled):
        with pytest.raises(FormatError, match="^vertex id 11 exceeds the limit of 10$"):
            parse_reduction_map(text)


def _mutated_map(text, rng):
    """The map with one id shifted by 1..3 either way, and sometimes two lines swapped."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    tokens = lines[i].split()
    j = rng.randrange(1, len(tokens))
    tokens[j] = str(int(tokens[j]) + rng.choice((-3, -2, -1, 1, 2, 3)))
    lines[i] = " ".join(tokens)
    if rng.random() < 0.3:
        a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[a], lines[b] = lines[b], lines[a]
    return "\n".join(lines) + "\n"


def test_a_reduction_map_that_parses_gets_its_colouring():
    rng = random.Random(0)
    parsed = 0
    for seed in range(60):
        split, _ = split_repeated_variables(generate_instance(seed, 4 + seed % 7, 3 + seed % 9))
        text = emit_reduction_map(build_graph(split)[1])
        for _ in range(150):
            try:
                rm = parse_reduction_map(_mutated_map(text, rng))
            except ValueError:  # FormatError included
                continue
            construct_5_colouring(rm.graph, rm)
            parsed += 1
    assert parsed > 500  # a swap or a shift that keeps the map well-formed


def test_text_formats_roundtrip_on_reduction_outputs():
    """Every emitter's text, also with a comment and CRLF, parses back to its object."""

    def variants(text):
        return (text, "c note\r\n" + text.replace("\n", "\r\n"), text.encode())

    formulas = [CnfFormula(0, [])]
    formulas += [generate_instance(seed, 4 + seed, 3 + 2 * seed) for seed in range(8)]
    for f in formulas:
        split, tm = split_repeated_variables(f)
        g, rm = build_graph(split)
        colouring = construct_5_colouring(g, rm)
        witness = brute_force_nae(f, exhaustive_budget(f.num_vars))
        cut = None
        lifted = None
        if witness is not None:
            lifted = lift_assignment(tm, witness)
            # The 0-variable formula's graph has no vertex, so no cut.
            cut = assignment_to_cut(split, rm, lifted) if f.num_vars else None
        for text in variants(emit_cnf(split)):
            assert parse_cnf(text) == split
        for text in variants(emit_transform_map(tm)):
            assert parse_transform_map(text) == tm
        for text in variants(transform_map_comments(tm)):
            assert parse_transform_map(text) == tm
        for text in variants(emit_graph(g)):
            assert parse_graph(text) == g
        for text in variants(emit_reduction_map(rm)):
            assert parse_reduction_map(text) == rm
        for text in variants(emit_colouring(colouring)):
            assert parse_colouring(text) == colouring
        for text in variants(emit_nae_witness(lifted)):
            assert parse_nae_witness(text, split.num_vars) == lifted
        for text in variants(emit_cut_witness(cut)):
            assert parse_cut_witness(text, g.num_vertices) == cut


def test_colouring_single_triangle():
    g, rm = build_graph(CnfFormula(3, [[1, 2, 3]]))
    c = construct_5_colouring(g, rm)
    assert c.colours == {1: 1, 2: 2, 3: 3}
    assert c.k == 3


def test_colouring_gadget_avoids_endpoint_colours():
    # Triangles (1,2,3) and (4,5,6) take colours 1,2,3 by ascending id, so the
    # gadget joining 1 and 6 sees endpoint colours {1, 3}.
    g, rm = build_graph(split_example())
    c = construct_5_colouring(g, rm)
    x, y, *face = rm.clause_gadget[3]
    assert {c.colours[x], c.colours[y]} == {1, 3}
    assert {c.colours[v] for v in face} == {2, 4, 5}
    assert colouring_fault(g, c) is None


def test_colouring_endpoint_pair_one_two_forces_top_three():
    # Split of {(1,2,3),(1,2,4)}: first gadget joins vertex 1 (colour 1) to
    # copy 5, the middle of triangle (4,5,6) (colour 2).
    f = CnfFormula(4, [[1, 2, 3], [1, 2, 4]])
    out, _ = split_repeated_variables(f)
    g, rm = build_graph(out)
    c = construct_5_colouring(g, rm)
    x, y, *face = rm.clause_gadget[3]
    assert (c.colours[x], c.colours[y]) == (1, 2)
    assert {c.colours[v] for v in face} == {3, 4, 5}
    assert colouring_fault(g, c) is None and c.k == 5


def test_colouring_equal_endpoint_colours():
    # Variable 1 occurs three times; its second and third copies both sit
    # last in their triangles, so the chain's second gadget sees equal
    # endpoint colours and its internals take the three smallest others.
    f = CnfFormula(7, [[1, 2, 3], [4, 1, 5], [6, 7, 1]])
    out, _ = split_repeated_variables(f)
    g, rm = build_graph(out)
    c = construct_5_colouring(g, rm)
    x, y, *face = rm.clause_gadget[5]
    assert c.colours[x] == c.colours[y] == 3
    assert {c.colours[v] for v in face} == {1, 2, 4}
    assert colouring_fault(g, c) is None and c.k <= 5


def test_construct_5_colouring_refuses_a_graph_the_map_does_not_describe():
    # Both triangles give their smallest vertex colour 1; an extra edge joins them.
    g, rm = build_graph(CnfFormula(6, [[1, 2, 3], [4, 5, 6]]))
    g_plus_edge = Graph(g.num_vertices, g.sorted_edges() + [(1, 4)])
    with pytest.raises(AssertionError, match="^constructed colouring is improper; graph is not"):
        construct_5_colouring(g_plus_edge, rm)


def test_assignment_to_cut_single_triangle():
    f = CnfFormula(3, [[1, 2, 3]])
    g, rm = build_graph(f)
    cut = assignment_to_cut(f, rm, {1: True, 2: True, 3: False})
    assert cut == Cut(frozenset({1, 2}), frozenset({3}))


def test_assignment_to_cut_places_gadget_internals():
    f = split_example()
    g, rm = build_graph(f)
    a = {1: True, 2: False, 3: False, 4: False, 5: False, 6: True}
    cut = assignment_to_cut(f, rm, a)
    gadget = rm.clause_gadget[3]
    assert set(gadget[:3]) <= cut.side_a
    assert set(gadget[3:]) <= cut.side_b
    assert cut_fault(g, cut) is None


def test_assignment_to_cut_rejects_non_witness():
    f = CnfFormula(3, [[1, 2, 3]])
    _, rm = build_graph(f)
    with pytest.raises(
        ValueError,
        match=r"^assignment does not NAE-satisfy the formula: clause 1 \(1 2 3\) has all-equal values$",
    ):
        assignment_to_cut(f, rm, {1: True, 2: True, 3: True})


def test_assignment_to_cut_checks_its_own_cut(monkeypatch):
    f = CnfFormula(3, [[1, 2, 3]])
    _, rm = build_graph(f)
    monkeypatch.setattr("naecut.reduction.cut_fault", lambda g, cut: "stand-in")
    with pytest.raises(AssertionError, match="^induced cut is not triangle-free; reduction structure"):
        assignment_to_cut(f, rm, {1: True, 2: True, 3: False})


def test_assignment_to_cut_rejects_a_one_sided_cut():
    # Without clauses every assignment is a witness, but a constant one cuts nothing.
    f = CnfFormula(3)
    _, rm = build_graph(f)
    with pytest.raises(ValueError, match="^assignment sends every vertex to one side; "):
        assignment_to_cut(f, rm, {1: True, 2: True, 3: True})
    cut = assignment_to_cut(f, rm, {1: True, 2: False, 3: True})
    assert cut == Cut(frozenset({1, 3}), frozenset({2}))


def test_assignment_to_cut_property_sweep():
    checked = 0
    for seed in range(200):
        f = generate_instance(seed, 3 + seed % 11, 1 + seed % 14)
        out, _ = split_repeated_variables(f)
        witness = brute_force_nae(out, exhaustive_budget(out.num_vars))
        if witness is None:
            continue
        g, rm = build_graph(out)
        cut = assignment_to_cut(out, rm, witness)
        assert cut_fault(g, cut) is None
        checked += 1
    assert checked >= 120


def test_cut_to_assignment_single_triangle():
    f = CnfFormula(3, [[1, 2, 3]])
    _, rm = build_graph(f)
    a = cut_to_assignment(rm, Cut(frozenset({1}), frozenset({2, 3})))
    assert a == {1: True, 2: False, 3: False}
    assert nae_fault(f, a) is None


def test_cut_to_assignment_rejects_bad_cut():
    f = CnfFormula(3, [[1, 2, 3]])
    _, rm = build_graph(f)
    bad_cut = "^cut is not a triangle-free cut of the reduction graph: "
    with pytest.raises(ValueError, match=bad_cut + "one side of the cut is empty$"):
        cut_to_assignment(rm, Cut(frozenset({1, 2, 3}), frozenset()))
    _, rm = build_graph(CnfFormula(4, [[1, 2, 3]]))
    with pytest.raises(ValueError, match=bad_cut + "monochromatic triangle 1 2 3$"):
        cut_to_assignment(rm, Cut(frozenset({4}), frozenset({1, 2, 3})))


def test_canonical_gadget_is_the_map_gadget_on_one_to_five():
    g, gadget = canonical_gadget()
    assert gadget == (1, 2, 3, 4, 5)
    assert g.sorted_edges() == [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]


def test_gadget_cuts_keep_endpoints_together_exhaustively():
    g, (x, y, *_) = canonical_gadget()
    for bits in itertools.product((False, True), repeat=5):
        side_a = frozenset(v for v, b in zip(range(1, 6), bits) if b)
        cut = Cut(side_a, frozenset(range(1, 6)) - side_a)
        if cut_fault(g, cut) is None:
            assert (x in side_a) == (y in side_a)


def test_the_graph_is_built_once_per_map(monkeypatch):
    builds = []
    build = Graph.__init__
    monkeypatch.setattr(Graph, "__init__", lambda g, n, edges=(): builds.append(n) or build(g, n, edges))
    f = split_example()
    g, rm = build_graph(f)
    witness = brute_force_nae(f, exhaustive_budget(f.num_vars))
    cut = assignment_to_cut(f, rm, witness)
    assert cut_to_assignment(rm, cut) == witness
    assert builds == [9]
    assert g is rm.graph


def test_cut_assignment_roundtrip():
    for seed in range(60):
        f = generate_instance(seed, 3 + seed % 10, 1 + seed % 12)
        out, _ = split_repeated_variables(f)
        witness = brute_force_nae(out, exhaustive_budget(out.num_vars))
        if witness is None:
            continue
        _, rm = build_graph(out)
        cut = assignment_to_cut(out, rm, witness)
        assert cut_to_assignment(rm, cut) == witness


def test_extract_nae_k3_and_triangle_free():
    f, vertex_var = extract_nae(complete_graph(3))
    assert f.num_vars == 3
    assert list(f.clauses) == [(1, 2, 3)]
    assert vertex_var == {1: 1, 2: 2, 3: 3}
    empty, _ = extract_nae(Graph(4, [(1, 2), (3, 4)]))
    assert empty.clauses == ()


def test_extract_nae_gadget():
    g, (x, *_) = canonical_gadget()
    f, _ = extract_nae(g)
    assert len(f.clauses) == 7
    assert occurrence_counts(f)[x] == 3


def test_extract_nae_matches_bipartition_semantics():
    # An assignment NAE-satisfies the extracted formula iff the induced
    # bipartition has no monochromatic triangle, for every assignment.
    import random

    rng = random.Random(9)
    for seed in range(25):
        n = 4 + seed % 6
        edges = [
            e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.6
        ]
        g = Graph(n, edges)
        f, _ = extract_nae(g)
        triangles = enumerate_triangles(g)
        for bits in itertools.product((False, True), repeat=n):
            a = {v: bits[v - 1] for v in range(1, n + 1)}
            mono = any(a[u] == a[v] == a[w] for u, v, w in triangles)
            assert (nae_fault(f, a) is None) == (not mono)


def test_extract_incidence_is_subgraph_of_source():
    for seed in range(20):
        f = generate_instance(seed, 4 + seed % 8, 2 + seed % 10)
        out, _ = split_repeated_variables(f)
        g, _ = build_graph(out)
        extracted, _ = extract_nae(g)
        inc = incidence_graph(extracted)
        assert set(inc.sorted_edges()) <= set(g.sorted_edges())


def test_cut_from_vertex_assignment_rebalances():
    g = Graph(3, [(1, 2)])  # triangle-free, all vertices movable
    cut = cut_from_vertex_assignment(g, {1: False, 2: False, 3: False})
    assert cut.side_a == frozenset({1})
    assert cut_fault(g, cut) is None
    with pytest.raises(ValueError):
        cut_from_vertex_assignment(complete_graph(3), {1: True, 2: True, 3: True})
    with pytest.raises(ValueError, match="^a cut needs at least two vertices$"):
        cut_from_vertex_assignment(Graph(1), {1: True})
    k3_and_lone_vertex = Graph(4, [(1, 2), (1, 3), (2, 3)])
    with pytest.raises(ValueError, match="^assignment leaves a monochromatic triangle 1 2 3$"):
        cut_from_vertex_assignment(k3_and_lone_vertex, {1: True, 2: True, 3: True, 4: False})


def test_gadget_certificate_passes():
    g, (x, y, *_) = canonical_gadget()
    report = gadget_certify(g, x, y)
    assert report.endpoints_together_in_every_cut
    assert report.triangle_free_cut_exists
    assert report.endpoint_colour_pairs_extend
    assert report.endpoints_nonadjacent_degree_three
    assert report.all_ok()


def test_gadget_certificate_mutations():
    g, (x, y, a, b, _) = canonical_gadget()
    with_xy = Graph(5, g.sorted_edges() + [(x, y)])
    assert not gadget_certify(with_xy, x, y).endpoints_nonadjacent_degree_three
    without_ab = Graph(5, [e for e in g.sorted_edges() if e != (a, b)])
    assert not gadget_certify(without_ab, x, y).endpoints_together_in_every_cut
    with pytest.raises(ValueError, match="expects a graph on 5 vertices"):
        gadget_certify(complete_graph(4), 1, 2)
