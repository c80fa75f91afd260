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
    # The engine counts branch nodes against the budget while searching.
    from naecut.solvers import _NaeEngine

    engine = _NaeEngine(10, [])
    with pytest.raises(BudgetExceeded):
        engine.solve(require_some_true=True, max_nodes=5)


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
