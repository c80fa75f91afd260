import itertools
import random

import pytest

from naecut import (
    BudgetExceeded,
    CnfFormula,
    Colouring,
    Cut,
    FormatError,
    Graph,
    SearchBudget,
    assignment_from_4colouring,
    brute_force_cut,
    brute_force_nae,
    canonical_gadget,
    complete_graph,
    cut_from_4colouring,
    emit_cut_witness,
    emit_nae_witness,
    enumerate_triangles,
    exhaustive_budget,
    find_k_colouring,
    generate_instance,
    incidence_graph,
    nae_satisfies,
    parse_cut_witness,
    parse_nae_witness,
    split_repeated_variables,
    verify_cut_triangle_free,
)


# Independent enumeration oracles: straight product scans with inline clause
# and triangle evaluation, no shared code with the search engine.

def naive_nae_smallest(f):
    for bits in itertools.product((False, True), repeat=f.num_vars):
        a = {i + 1: bits[i] for i in range(f.num_vars)}
        ok = True
        for cl in f.clauses:
            vals = [a[abs(x)] == (x > 0) for x in cl.literals]
            if all(vals) or not any(vals):
                ok = False
                break
        if ok:
            return a
    return None


def naive_cut_smallest(g):
    n = g.num_vertices
    if n <= 1:
        return None
    triangles = [
        t
        for t in itertools.combinations(range(1, n + 1), 3)
        if g.has_edge(t[0], t[1]) and g.has_edge(t[0], t[2]) and g.has_edge(t[1], t[2])
    ]
    for bits in itertools.product((False, True), repeat=n - 1):
        side = {1: False}
        side.update({i + 2: bits[i] for i in range(n - 1)})
        side_a = frozenset(v for v in side if side[v])
        if not side_a:
            continue
        if any(side[u] == side[v] == side[w] for u, v, w in triangles):
            continue
        return Cut(side_a, frozenset(v for v in side if not side[v]))
    return None


def chronological_smallest(n, groups):
    """Lex-min NAE model over 1..n by index-order search, False first, with unit propagation."""

    def propagate(a):
        changed = True
        while changed:
            changed = False
            for g in groups:
                free = [x for x in g if abs(x) not in a]
                values = {a[abs(x)] == (x > 0) for x in g if abs(x) in a}
                if len(values) == 1 and len(free) <= 1:
                    if not free:
                        return None
                    a[abs(free[0])] = (free[0] > 0) != values.pop()
                    changed = True
        return a

    def search(a, v):
        if propagate(a) is None:
            return None
        while v in a:
            v += 1
        if v > n:
            return a
        for value in (False, True):
            found = search({**a, v: value}, v + 1)
            if found is not None:
                return found
        return None

    return search({}, 1)


def random_signed_formula(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    clauses = []
    for _ in range(rng.randint(0, 12)):
        size = rng.choice((2, 3))
        if n < size:
            continue
        vs = rng.sample(range(1, n + 1), size)
        clauses.append([v if rng.random() < 0.7 else -v for v in vs])
    return CnfFormula.from_ints(n, clauses)


def random_graph(seed, n, p=0.5):
    rng = random.Random(seed)
    edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p]
    return Graph(n, edges)


def test_nae_smallest_witness_single_clause():
    f = CnfFormula.from_ints(3, [[1, 2, 3]])
    assert brute_force_nae(f) == {1: False, 2: False, 3: True}


def test_nae_vacuous_formula():
    assert brute_force_nae(CnfFormula(2)) == {1: False, 2: False}
    assert brute_force_nae(CnfFormula(0)) == {}


def test_nae_known_unsatisfiable_instance():
    # All ten triples over five variables: every 2-colouring of five elements
    # leaves three on one side, so some clause comes out all-equal.
    f = CnfFormula.from_ints(5, list(itertools.combinations(range(1, 6), 3)))
    assert brute_force_nae(f) is None


def test_nae_agrees_with_enumeration_oracle():
    for seed in range(250):
        f = random_signed_formula(seed)
        assert brute_force_nae(f) == naive_nae_smallest(f)


def test_engine_activity_rescale_keeps_the_witness():
    # Starting the activity increment at the rescale threshold makes the
    # first conflict rescale every activity; the witnesses must not change.
    from naecut.solvers import _NaeEngine

    formulas = [random_signed_formula(seed) for seed in range(200)]
    # Few small formulas reach a conflict above level 0, where the rescale runs.
    formulas += [generate_instance(seed, 12, 30) for seed in range(40)]
    rescaled = 0
    for f in formulas:
        engine = _NaeEngine(f.num_vars, [cl.literals for cl in f.clauses])
        engine.inc = 1e100
        result = engine.solve(2**30)
        got = None if result is None else {x: bool(result[x]) for x in range(1, f.num_vars + 1)}
        assert got == brute_force_nae(f)
        rescaled += engine.inc < 1e100
    assert rescaled >= 50


def test_nae_budget_precheck_and_distinction():
    f = CnfFormula.from_ints(6, [[1, 2, 3]])
    with pytest.raises(BudgetExceeded):
        brute_force_nae(f, SearchBudget(max_states=32))


def test_cut_k3():
    cut = brute_force_cut(complete_graph(3))
    assert sorted(map(len, (cut.side_a, cut.side_b))) == [1, 2]
    assert verify_cut_triangle_free(complete_graph(3), cut)


def test_cut_complete_graph_boundary():
    # Bipartitions of K_n keep a side of >= 3 mutually adjacent vertices from
    # n = 5 on, so K4 is the largest complete graph with a triangle-free cut.
    assert brute_force_cut(complete_graph(4)) is not None
    assert brute_force_cut(complete_graph(5)) is None
    assert brute_force_cut(complete_graph(6)) is None


def test_cut_gadget_keeps_endpoints_together():
    g, gadget = canonical_gadget()
    cut = brute_force_cut(g)
    assert cut is not None
    assert (gadget.x in cut.side_a) == (gadget.y in cut.side_a)


def test_cut_tiny_graphs_have_no_partition():
    assert brute_force_cut(Graph(1)) is None
    assert brute_force_cut(Graph(0)) is None


def test_cut_agrees_with_enumeration_oracle():
    for seed in range(250):
        g = random_graph(seed, 2 + seed % 8)
        assert brute_force_cut(g) == naive_cut_smallest(g)


def test_cut_budget_precheck():
    with pytest.raises(BudgetExceeded):
        brute_force_cut(complete_graph(10), SearchBudget(max_states=256))


def test_search_node_cap_is_a_loud_failure():
    # The engine counts decisions against the budget, and the error says how
    # deep the search got.  Variable 1 is pinned False before the search;
    # deciding 2 False propagates 3 True, so the decisions are 2, 4, 5, 6, 7
    # at levels 1..5, and the sixth decision is over the cap.
    from naecut.solvers import _NaeEngine

    engine = _NaeEngine(10, [(1, 2, 3)])
    with pytest.raises(
        BudgetExceeded, match=r"^search exceeded 5 states; deepest decision level 5$"
    ):
        engine.solve(5)


def test_budget_exceeded_after_the_first_model_propagates():
    # Decisions are counted across the first solve and every solve of the
    # lex-min phase; a cap reached in the later solves raises instead of
    # returning None or a model that is not yet the smallest.
    from naecut.solvers import _NaeEngine

    f = generate_instance(0, 40, 84)
    groups = [cl.literals for cl in f.clauses]
    full = _NaeEngine(40, groups)
    assert full.solve(10**9) is not None
    assert full.solves > 1
    lex_phase_caps = 0
    for cap in range(full.decisions):
        engine = _NaeEngine(40, groups)
        with pytest.raises(BudgetExceeded):
            engine.solve(cap)
        lex_phase_caps += engine.solves > 1
    assert lex_phase_caps > 0


# Deep inputs: the search keeps its decisions on an explicit stack, so a
# witness thousands of decisions deep is found, not lost to RecursionError.

def test_nae_deep_formula_has_witness():
    witness = brute_force_nae(CnfFormula.from_ints(3000, [[1, 2, 3]]), exhaustive_budget(3000))
    assert witness == {x: x == 3 for x in range(1, 3001)}


def test_cut_on_large_reduction_graph():
    from naecut import build_graph

    for n, vertices in ((256, 3856), (800, 12040)):
        split, _ = split_repeated_variables(generate_instance(0, n, round(1.5 * n)))
        g, _ = build_graph(split)
        assert g.num_vertices == vertices
        cut = brute_force_cut(g, exhaustive_budget(g.num_vertices))
        assert cut is not None
        assert verify_cut_triangle_free(g, cut)


def _traced_peak(num_vars, groups):
    import tracemalloc

    from naecut.solvers import _NaeEngine

    tracemalloc.start()
    try:
        engine = _NaeEngine(num_vars, groups)
        engine.solve(2**30)
        return tracemalloc.get_traced_memory()[1], engine
    finally:
        tracemalloc.stop()


def test_engine_peak_memory():
    # The engine stores each triangle once, as one list of shared literal
    # codes.  On a formula that takes 440 conflicts to refute, the peak
    # stays bounded because the decision heap is rebuilt before it outgrows
    # 2n entries (without that it reads about 6,300 bytes per clause).
    from naecut import build_graph

    split, _ = split_repeated_variables(generate_instance(0, 256, 384))
    g, _ = build_graph(split)
    triangles = enumerate_triangles(g)
    assert len(triangles) == 6684
    peak, _ = _traced_peak(g.num_vertices, triangles)
    assert peak < 520 * len(triangles)
    f = generate_instance(3, 100, 210)
    peak, engine = _traced_peak(100, [cl.literals for cl in f.clauses])
    assert engine.conflicts > 400
    assert peak < 2000 * len(f.clauses)


# Gadget-dense graphs: glued tetrahedra are where the engine adds apex
# equalities, so its answers must still match plain enumeration there.

def _tetrahedra(n, face, apexes, extra=()):
    edges = set(extra)
    edges.update(itertools.combinations(face, 2))
    edges.update((x, v) for x in apexes for v in face)
    return Graph(n, edges)


def _random_glued_tetrahedra(seed):
    # Start from a triangle; each step puts an apex, new or existing, on a
    # random triangle of the graph so far, and sometimes adds a stray edge.
    rng = random.Random(seed)
    n = rng.randint(5, 12)
    edges = {(1, 2), (1, 3), (2, 3)}
    used = 3
    for _ in range(rng.randint(2, 7)):
        face = rng.choice(_triangles_of(n, edges))
        if used < n and rng.random() < 0.7:
            used += 1
            x = used
        else:
            choices = [v for v in range(1, used + 1) if v not in face]
            if not choices:
                continue
            x = rng.choice(choices)
        edges.update((min(x, v), max(x, v)) for v in face)
        if rng.random() < 0.2:
            u, v = rng.sample(range(1, used + 1), 2)
            edges.add((min(u, v), max(u, v)))
    return Graph(n, edges)


def _triangles_of(n, edges):
    return [
        t
        for t in itertools.combinations(range(1, n + 1), 3)
        if {(t[0], t[1]), (t[0], t[2]), (t[1], t[2])} <= edges
    ]


def _gadget_dense_graphs():
    from naecut import Gadget

    k5 = list(itertools.combinations(range(1, 6), 2))
    k6 = list(itertools.combinations(range(1, 7), 2))
    chain2 = Gadget(1, 2, 4, 5, 6).edge_list() + Gadget(2, 3, 7, 8, 9).edge_list()
    chain3 = chain2 + Gadget(3, 10, 11, 12, 4).edge_list()
    graphs = [_tetrahedra(3 + k, (1, 2, 3), range(4, 4 + k)) for k in (2, 3, 4)]
    graphs += [
        # two faces sharing the apex 4, each with a second apex
        _tetrahedra(9, (1, 2, 3), (4, 8), extra=_tetrahedra(9, (5, 6, 7), (4, 9)).edges),
        # the shared apex lies on the other face
        _tetrahedra(8, (1, 2, 3), (4, 5), extra=_tetrahedra(8, (4, 6, 7), (8,)).edges),
        Graph(9, chain2),
        Graph(9, chain2 + [(1, 3), (1, 7), (3, 7)]),
        Graph(12, chain3),
        Graph(12, chain3 + [(1, 10), (1, 11), (10, 11)]),
        Graph(6, k5 + [(1, 6), (2, 6), (3, 6)]),
        Graph(8, k5 + [(4, 6), (5, 6), (4, 7), (5, 7), (6, 7), (6, 8), (7, 8), (4, 8)]),
        Graph(9, k6 + [(x, v) for x in (7, 8, 9) for v in (4, 5, 6)]),
        complete_graph(5).without_edge(1, 2),
        _tetrahedra(7, (1, 2, 3), (4, 5), extra=[(4, 6), (5, 6), (4, 7), (5, 7), (6, 7)]),
    ]
    graphs += [_random_glued_tetrahedra(seed) for seed in range(80)]
    return graphs


def test_gadget_dense_graphs_agree_with_enumeration_oracles():
    from naecut import extract_nae

    graphs = _gadget_dense_graphs()
    found = 0
    for g in graphs:
        assert brute_force_cut(g) == naive_cut_smallest(g)
        f, _ = extract_nae(g)
        witness = brute_force_nae(f)
        assert witness == naive_nae_smallest(f)
        found += witness is not None
    assert 0 < found < len(graphs)


def test_learning_engine_agrees_with_chronological_oracle(monkeypatch):
    # 20-40 variables with signed 2- and 3-literal groups near the threshold:
    # large enough that the engine learns clauses, small enough for a
    # search that shares no code with it.
    from naecut import solvers

    engines = []

    class Recorded(solvers._NaeEngine):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)

    monkeypatch.setattr(solvers, "_NaeEngine", Recorded)
    found = 0
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(20, 40)
        clauses = []
        for _ in range(round(n * rng.uniform(1.3, 1.9))):
            vs = rng.sample(range(1, n + 1), rng.choice((2, 3, 3, 3, 3)))
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        f = CnfFormula.from_ints(n, clauses)
        witness = brute_force_nae(f, exhaustive_budget(n))
        assert witness == chronological_smallest(n, [cl.literals for cl in f.clauses])
        found += witness is not None
    assert 0 < found < 200
    for g in _gadget_dense_graphs():
        model = chronological_smallest(g.num_vertices, enumerate_triangles(g))
        expected = None
        if model is not None:
            side_a = frozenset(v for v in model if model[v])
            expected = Cut(side_a, frozenset(model) - side_a)
        assert brute_force_cut(g) == expected
    assert sum(e.conflicts for e in engines) > 0
    assert sum(e.learned for e in engines) > 0


def test_apex_equalities_need_four_positive_groups():
    # {4,1,2}, {4,1,3}, {4,2,3} and the same for 5 make 4 and 5 apexes of
    # {1,2,3}; the engine equates them only when all of those groups and the
    # face are positive groups.
    from naecut.solvers import _apex_equalities

    apex_groups = [[x, a, b] for x in (4, 5) for a, b in ((1, 2), (1, 3), (2, 3))]
    assert _apex_equalities(5, [[1, 2, 3]] + apex_groups) == [(4, -5)]
    for face in ([1, 2, -3], [-1, 2, 3], [1, -2, -3]):
        assert _apex_equalities(5, [face] + apex_groups) == []
        f = CnfFormula.from_ints(5, [face] + apex_groups)
        assert brute_force_nae(f) == naive_nae_smallest(f)
    # Without {5,2,3}, 1=F, 2=3=T leaves 5 free, so 4 != 5 is satisfiable.
    partial = [[1, 2, 3]] + apex_groups[:5] + [[4, 5]]
    assert _apex_equalities(5, partial) == []
    f = CnfFormula.from_ints(5, partial)
    assert brute_force_nae(f) == naive_nae_smallest(f) == {1: False, 2: True, 3: True, 4: False, 5: True}
    for seed in range(200):
        rng = random.Random(seed)
        clauses = [
            [v if rng.random() < 0.8 else -v for v in cl]
            for cl in [[1, 2, 3]] + apex_groups + [[5, 6, 7], [1, 6, 7], [4, 5]]
            if rng.random() < 0.85
        ]
        f = CnfFormula.from_ints(7, clauses)
        assert brute_force_nae(f) == naive_nae_smallest(f)


def test_extraction_cut_oracle_agreement():
    # Over pipeline graphs and raw random graphs alike (all on >= 2 vertices),
    # cut existence matches NAE satisfiability of the extracted formula, and
    # the rebalancing rule turns every extracted witness into a valid cut.
    from naecut import build_graph, cut_from_vertex_assignment, extract_nae

    for seed in range(500):
        if seed % 2:
            g = random_graph(seed, 2 + seed % 9)
        else:
            f = generate_instance(seed, 3 + seed % 5, 1 + seed % 6)
            out, _ = split_repeated_variables(f)
            g, _ = build_graph(out)
        cut = brute_force_cut(g, exhaustive_budget(g.num_vertices))
        witness = brute_force_nae(extract_nae(g)[0], exhaustive_budget(g.num_vertices))
        assert (cut is None) == (witness is None)
        if witness is not None:
            rebalanced = cut_from_vertex_assignment(g, witness)
            assert verify_cut_triangle_free(g, rebalanced)


def test_assignment_from_4colouring_triangle():
    f = CnfFormula.from_ints(3, [[1, 2, 3]])
    a = assignment_from_4colouring(f, Colouring({1: 1, 2: 2, 3: 3}, 3))
    assert a == {1: True, 2: True, 3: False}
    assert nae_satisfies(f, a)


def test_assignment_from_4colouring_rejects_five_colours():
    f = CnfFormula.from_ints(3, [[1, 2, 3]])
    with pytest.raises(ValueError):
        assignment_from_4colouring(f, Colouring({1: 1, 2: 2, 3: 5}, 5))
    with pytest.raises(ValueError):
        assignment_from_4colouring(f, Colouring({1: 1, 2: 1, 3: 2}, 4))


def test_assignment_from_4colouring_property_sweep():
    found = 0
    seed = 0
    while found < 100 and seed < 3000:
        seed += 1
        try:
            f = generate_instance(seed, 5 + seed % 6, 2 + seed % 5, distinct_pairs=True)
        except ValueError:
            continue
        g = incidence_graph(f, "A")
        colouring = find_k_colouring(g, 4)
        if colouring is None:
            continue
        witness = assignment_from_4colouring(f, colouring)
        assert nae_satisfies(f, witness)
        found += 1
    assert found == 100


def test_cut_from_4colouring_triangle():
    g = complete_graph(3)
    cut = cut_from_4colouring(g, Colouring({1: 1, 2: 2, 3: 3}, 3))
    assert cut == Cut(frozenset({1, 2}), frozenset({3}))


def test_cut_from_4colouring_bipartite():
    g = Graph(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
    cut = cut_from_4colouring(g, Colouring({1: 1, 2: 1, 3: 2, 4: 2}, 2))
    assert verify_cut_triangle_free(g, cut)


def test_cut_from_4colouring_rebalances_empty_side():
    g = Graph(3, [(1, 2), (2, 3)])
    cut = cut_from_4colouring(g, Colouring({1: 1, 2: 2, 3: 1}, 2))
    assert cut.side_b == frozenset({1})
    assert verify_cut_triangle_free(g, cut)
    # Only colours 3 and 4: every vertex starts on side B and vertex 1 moves to A.
    cut = cut_from_4colouring(g, Colouring({1: 3, 2: 4, 3: 3}, 4))
    assert cut == Cut(frozenset({1}), frozenset({2, 3}))


def test_cut_from_4colouring_rejects_improper():
    with pytest.raises(ValueError):
        cut_from_4colouring(complete_graph(3), Colouring({1: 1, 2: 1, 3: 2}, 4))


def test_generator_single_possible_clause():
    f = generate_instance(1, 3, 1)
    assert [cl.literals for cl in f.clauses] == [(1, 2, 3)]


def test_generator_is_deterministic():
    a = generate_instance(42, 10, 12)
    b = generate_instance(42, 10, 12)
    assert a == b
    assert a != generate_instance(43, 10, 12)


def test_generator_distinct_pairs():
    f = generate_instance(7, 10, 8, distinct_pairs=True)
    pairs = set()
    for cl in f.clauses:
        for p in itertools.combinations(sorted(cl.variables()), 2):
            assert p not in pairs
            pairs.add(p)


def test_generator_distinct_pairs_infeasible():
    # 3 variables admit a single pairwise-distinct clause.
    with pytest.raises(ValueError):
        generate_instance(1, 3, 2, distinct_pairs=True)


def test_generator_feeds_the_pipeline():
    from naecut import check_properties

    f = generate_instance(7, 10, 12)
    out, _ = split_repeated_variables(f)
    assert check_properties(out).all_hold()


def test_witness_text_roundtrip():
    witness = {1: False, 2: False, 3: True}
    text = emit_nae_witness(witness)
    assert text == "s NAE-SATISFIABLE\nv -1 -2 3 0\n"
    assert parse_nae_witness(text) == witness
    assert parse_nae_witness(emit_nae_witness(None)) is None

    cut = Cut(frozenset({3}), frozenset({1, 2}))
    text = emit_cut_witness(cut)
    assert text == "s CUT-FOUND\nv 3 0\n"
    assert parse_cut_witness(text, 3) == cut
    assert parse_cut_witness(emit_cut_witness(None), 3) is None

    # Comments, CRLF, bytes and lines other than `s`/`v` are accepted.
    assert parse_nae_witness("c x\r\no 7\r\ns NAE-SATISFIABLE\r\nv -1 -2\r\nv 3 0\r\n") == witness
    assert parse_nae_witness(b"s NAE-SATISFIABLE\nv -1 -2 3 0\n") == witness
    assert parse_cut_witness("c x\r\no 7\r\ns CUT-FOUND\r\n\r\nv 3 0\r\n", 3) == cut
    assert parse_cut_witness(b"s CUT-FOUND\nv 0\n", 3) == Cut(frozenset(), frozenset({1, 2, 3}))


def test_witness_parse_error_cases():
    for text in (
        "v 1 0\n",  # missing status line
        "s MAYBE\nv 1 0\n",  # unknown status line
        "s NAE-SATISFIABLE\n",  # no `v` line
        "s NAE-SATISFIABLE\nv 0\n",  # empty `v` line
        "s NAE-SATISFIABLE\nv 1 2 -1 0\n",  # conflicting values
        b"s NAE-SATISFIABLE\nv 1 \xff 0\n",  # bytes that are not UTF-8
        "",
    ):
        with pytest.raises(FormatError):
            parse_nae_witness(text)
    for text in (
        "v 1 0\n",  # missing status line
        "s MAYBE\nv 1 0\n",  # unknown status line
        "s CUT-FOUND\nv 1 4 0\n",  # vertex out of range
        "s CUT-FOUND\nv -1 0\n",  # negative vertex
        b"s CUT-FOUND\nv \xff 0\n",  # bytes that are not UTF-8
        "",
    ):
        with pytest.raises(FormatError):
            parse_cut_witness(text, 3)


def test_witness_parsers_reject_non_integer_tokens():
    with pytest.raises(FormatError):
        parse_nae_witness("s NAE-SATISFIABLE\nv 1 x 0\n")
    with pytest.raises(FormatError):
        parse_cut_witness("s CUT-FOUND\nv 1 x 0\n", 3)


def test_returned_witnesses_are_always_valid():
    for seed in range(80):
        f = generate_instance(seed, 3 + seed % 9, 1 + seed % 10)
        witness = brute_force_nae(f, exhaustive_budget(f.num_vars))
        if witness is not None:
            assert nae_satisfies(f, witness)
        g = random_graph(seed, 3 + seed % 7)
        cut = brute_force_cut(g)
        if cut is not None:
            assert verify_cut_triangle_free(g, cut)
