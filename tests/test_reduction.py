import itertools

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
    complete_graph,
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
    graph_from_reduction_map,
    incidence_graph,
    lift_assignment,
    max_degree,
    nae_satisfies,
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
    verify_colouring,
    verify_cut_triangle_free,
)


def split_example():
    f = CnfFormula.from_ints(5, [[1, 2, 3], [1, 4, 5]])
    return split_repeated_variables(f)[0]


def test_build_single_clause_is_k3():
    g, rm = build_graph(CnfFormula.from_ints(3, [[1, 2, 3]]))
    assert g == complete_graph(3)
    assert rm.clause_triangle == {1: (1, 2, 3)}
    assert rm.clause_gadget == {}


def test_build_with_one_gadget():
    # Split of {(1,2,3),(1,4,5)}: two triangles plus one gadget joining 1 and 6.
    g, rm = build_graph(split_example())
    assert g.num_vertices == 9
    assert len(g.edges) == 6 + 9
    triangles = enumerate_triangles(g)
    assert len(triangles) == 2 + 7
    gadget = rm.clause_gadget[3]
    assert (gadget.x, gadget.y) == (1, 6)
    assert gadget.internal_vertices() == (7, 8, 9)
    assert not g.has_edge(1, 6)


def test_build_rejects_property_violations():
    with pytest.raises(ValueError):
        build_graph(CnfFormula.from_ints(4, [[1, 2, 3], [1, 2, 4]]))


def test_triangle_membership_counts():
    for seed in range(40):
        f = generate_instance(seed, 4 + seed % 9, 2 + seed % 12)
        out, _ = split_repeated_variables(f)
        g, rm = build_graph(out)
        triangles = enumerate_triangles(g)
        for vx in range(1, rm.num_variables + 1):
            assert sum(1 for t in triangles if vx in t) <= 7
        for gadget in rm.clause_gadget.values():
            for v in gadget.internal_vertices():
                assert sum(1 for t in triangles if v in t) == 5


def test_every_triangle_is_a_clause_triangle_or_inside_one_gadget():
    for seed in range(40):
        f = generate_instance(seed, 4 + seed % 9, 2 + seed % 12)
        out, _ = split_repeated_variables(f)
        g, rm = build_graph(out)
        clause_triangles = set(rm.clause_triangle.values())
        gadget_vertex_sets = [
            frozenset(gadget.vertices()) for gadget in rm.clause_gadget.values()
        ]
        for tri in enumerate_triangles(g):
            inside_gadget = any(set(tri) <= vs for vs in gadget_vertex_sets)
            assert tri in clause_triangles or inside_gadget


def test_graph_from_reduction_map_rebuilds():
    g, rm = build_graph(split_example())
    # Clauses (1 2 3), (6 4 5), (1 -6): two triangles and the gadget x=1, y=6, face {7, 8, 9}.
    assert g.sorted_edges() == [
        (1, 2), (1, 3), (1, 7), (1, 8), (1, 9), (2, 3), (4, 5), (4, 6),
        (5, 6), (6, 7), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9),
    ]
    assert g.num_vertices == 9
    assert graph_from_reduction_map(parse_reduction_map(emit_reduction_map(rm))) == g


def test_reduction_map_serialization_roundtrip():
    g, rm = build_graph(split_example())
    text = emit_reduction_map(rm)
    parsed = parse_reduction_map(text)
    assert parsed == rm
    assert graph_from_reduction_map(parsed) == g
    assert emit_reduction_map(parsed) == text
    for seed in range(8):
        split, _ = split_repeated_variables(generate_instance(seed, 4 + seed, 3 + 2 * seed))
        text = emit_reduction_map(build_graph(split)[1])
        assert emit_reduction_map(parse_reduction_map(text)) == text


def test_reduction_map_parse_errors():
    for text in (
        "var 1 1\nedge 1 2\n",  # unknown map line
        "var 1\n",  # var arity
        "var 1 1\ntri 1 1 2\n",  # tri arity
        "var 1 1\ngad 1 1 2 3 4\n",  # gad arity
        "var 1 1\nvar 1 2\n",  # variable mapped twice
        "var 1 2\n",  # variable x is vertex x
        "var 1 1\nvar 2 1\n",  # variable x is vertex x
        "var 1 1\nvar 3 3\n",  # gap in the variables
        "var 2 2\n",  # variables start at 1
        "var 1 1\ntri 1 1 2 3\ntri 1 1 2 3\n",  # clause mapped twice
        "var 1 1\ngad 1 1 2 3 4 5\ngad 1 1 2 3 4 5\n",  # clause mapped twice
        "tri 1 1 2 3\n",  # no var lines
        "var 1 x\n",  # non-integer
        b"var 1 1\ntri 1 1 2 \xff\n",  # bytes that are not UTF-8
        "",
    ):
        with pytest.raises(FormatError):
            parse_reduction_map(text)


def test_text_formats_roundtrip_on_reduction_outputs():
    """Every emitter's text, also with a comment and CRLF, parses back to its object."""

    def variants(text):
        return (text, "c note\r\n" + text.replace("\n", "\r\n"), text.encode())

    for seed in range(8):
        f = generate_instance(seed, 4 + seed, 3 + 2 * seed)
        split, tm = split_repeated_variables(f)
        g, rm = build_graph(split)
        colouring = construct_5_colouring(g, rm)
        witness = brute_force_nae(f, exhaustive_budget(f.num_vars))
        cut = None
        lifted = None
        if witness is not None:
            lifted = lift_assignment(tm, witness)
            cut = assignment_to_cut(split, rm, lifted)
        for text in variants(emit_cnf(split)):
            assert parse_cnf(text) == split
        for text in variants(emit_transform_map(tm)):
            assert parse_transform_map(text).replacements == tm.replacements
        for text in variants(transform_map_comments(tm)):
            assert parse_transform_map(text).replacements == tm.replacements
        for text in variants(emit_graph(g)):
            assert parse_graph(text) == g
        for text in variants(emit_reduction_map(rm)):
            assert parse_reduction_map(text) == rm
        for text in variants(emit_colouring(colouring)):
            assert parse_colouring(text) == colouring
        for text in variants(emit_nae_witness(lifted)):
            assert parse_nae_witness(text) == lifted
        for text in variants(emit_cut_witness(cut)):
            assert parse_cut_witness(text, g.num_vertices) == cut


def test_colouring_single_triangle():
    g, rm = build_graph(CnfFormula.from_ints(3, [[1, 2, 3]]))
    c = construct_5_colouring(g, rm)
    assert c.colours == {1: 1, 2: 2, 3: 3}
    assert c.k == 3


def test_colouring_gadget_avoids_endpoint_colours():
    # Triangles (1,2,3) and (4,5,6) take colours 1,2,3 by ascending id, so the
    # gadget joining 1 and 6 sees endpoint colours {1, 3}.
    g, rm = build_graph(split_example())
    c = construct_5_colouring(g, rm)
    gadget = rm.clause_gadget[3]
    assert {c.colours[gadget.x], c.colours[gadget.y]} == {1, 3}
    assert {c.colours[v] for v in gadget.internal_vertices()} == {2, 4, 5}
    assert verify_colouring(g, c)


def test_colouring_endpoint_pair_one_two_forces_top_three():
    # Split of {(1,2,3),(1,2,4)}: first gadget joins vertex 1 (colour 1) to
    # copy 5, the middle of triangle (4,5,6) (colour 2).
    f = CnfFormula.from_ints(4, [[1, 2, 3], [1, 2, 4]])
    out, _ = split_repeated_variables(f)
    g, rm = build_graph(out)
    c = construct_5_colouring(g, rm)
    gadget = rm.clause_gadget[3]
    assert (c.colours[gadget.x], c.colours[gadget.y]) == (1, 2)
    assert {c.colours[v] for v in gadget.internal_vertices()} == {3, 4, 5}
    assert verify_colouring(g, c) and c.k == 5


def test_colouring_equal_endpoint_colours():
    # Variable 1 occurs three times; its second and third copies both sit
    # last in their triangles, so the chain's second gadget sees equal
    # endpoint colours and its internals take the three smallest others.
    f = CnfFormula.from_ints(7, [[1, 2, 3], [4, 1, 5], [6, 7, 1]])
    out, _ = split_repeated_variables(f)
    g, rm = build_graph(out)
    c = construct_5_colouring(g, rm)
    gadget = rm.clause_gadget[5]
    assert c.colours[gadget.x] == c.colours[gadget.y] == 3
    assert {c.colours[v] for v in gadget.internal_vertices()} == {1, 2, 4}
    assert verify_colouring(g, c) and c.k <= 5


def test_assignment_to_cut_single_triangle():
    f = CnfFormula.from_ints(3, [[1, 2, 3]])
    g, rm = build_graph(f)
    cut = assignment_to_cut(f, rm, {1: True, 2: True, 3: False})
    assert cut == Cut(frozenset({1, 2}), frozenset({3}))


def test_assignment_to_cut_places_gadget_internals():
    f = split_example()
    g, rm = build_graph(f)
    a = {1: True, 2: False, 3: False, 4: False, 5: False, 6: True}
    cut = assignment_to_cut(f, rm, a)
    gadget = rm.clause_gadget[3]
    assert {gadget.x, gadget.y, gadget.a} <= cut.side_a
    assert {gadget.b, gadget.c} <= cut.side_b
    assert verify_cut_triangle_free(g, cut)


def test_assignment_to_cut_rejects_non_witness():
    f = CnfFormula.from_ints(3, [[1, 2, 3]])
    _, rm = build_graph(f)
    with pytest.raises(ValueError):
        assignment_to_cut(f, rm, {1: True, 2: True, 3: True})


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
        assert verify_cut_triangle_free(g, cut)
        checked += 1
    assert checked >= 120


def test_cut_to_assignment_single_triangle():
    f = CnfFormula.from_ints(3, [[1, 2, 3]])
    _, rm = build_graph(f)
    a = cut_to_assignment(rm, Cut(frozenset({1}), frozenset({2, 3})))
    assert a == {1: True, 2: False, 3: False}
    assert nae_satisfies(f, a)


def test_cut_to_assignment_rejects_bad_cut():
    f = CnfFormula.from_ints(3, [[1, 2, 3]])
    _, rm = build_graph(f)
    with pytest.raises(ValueError):
        cut_to_assignment(rm, Cut(frozenset({1, 2, 3}), frozenset()))


def test_gadget_cuts_keep_endpoints_together_exhaustively():
    g, gadget = canonical_gadget()
    for bits in itertools.product((False, True), repeat=5):
        side_a = frozenset(v for v, b in zip(range(1, 6), bits) if b)
        cut = Cut(side_a, frozenset(range(1, 6)) - side_a)
        if verify_cut_triangle_free(g, cut):
            assert (gadget.x in side_a) == (gadget.y in side_a)


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
    assert [cl.literals for cl in f.clauses] == [(1, 2, 3)]
    assert vertex_var == {1: 1, 2: 2, 3: 3}
    empty, _ = extract_nae(Graph(4, [(1, 2), (3, 4)]))
    assert empty.clauses == ()


def test_extract_nae_gadget():
    g, gadget = canonical_gadget()
    f, _ = extract_nae(g)
    assert len(f.clauses) == 7
    assert occurrence_counts(f)[gadget.x] == 3


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
            assert nae_satisfies(f, a) == (not mono)


def test_extract_incidence_is_subgraph_of_source():
    for seed in range(20):
        f = generate_instance(seed, 4 + seed % 8, 2 + seed % 10)
        out, _ = split_repeated_variables(f)
        g, _ = build_graph(out)
        extracted, _ = extract_nae(g)
        inc = incidence_graph(extracted, "A")
        assert inc.edges <= g.edges


def test_cut_from_vertex_assignment_rebalances():
    g = Graph(3, [(1, 2)])  # triangle-free, all vertices movable
    cut = cut_from_vertex_assignment(g, {1: False, 2: False, 3: False})
    assert cut.side_a == frozenset({1})
    assert verify_cut_triangle_free(g, cut)
    with pytest.raises(ValueError):
        cut_from_vertex_assignment(complete_graph(3), {1: True, 2: True, 3: True})
    with pytest.raises(ValueError, match="^a cut needs at least two vertices$"):
        cut_from_vertex_assignment(Graph(1), {1: True})
    k3_and_lone_vertex = Graph(4, [(1, 2), (1, 3), (2, 3)])
    with pytest.raises(ValueError, match="^assignment leaves a monochromatic triangle$"):
        cut_from_vertex_assignment(k3_and_lone_vertex, {1: True, 2: True, 3: True, 4: False})


def test_gadget_certificate_passes():
    g, gadget = canonical_gadget()
    report = gadget_certify(g, gadget.x, gadget.y)
    assert report.endpoints_together_in_every_cut
    assert report.triangle_free_cut_exists
    assert report.endpoint_colour_pairs_extend
    assert report.endpoints_nonadjacent_degree_three
    assert report.all_ok()


def test_gadget_certificate_mutations():
    g, gadget = canonical_gadget()
    with_xy = g.with_edge(gadget.x, gadget.y)
    assert not gadget_certify(with_xy, gadget.x, gadget.y).endpoints_nonadjacent_degree_three
    without_ab = g.without_edge(gadget.a, gadget.b)
    assert not gadget_certify(without_ab, gadget.x, gadget.y).endpoints_together_in_every_cut
