import itertools
import random
import tracemalloc

import pytest

from naecut import (
    BudgetExceeded,
    CnfFormula,
    Colouring,
    Cut,
    FormatError,
    Graph,
    SearchBudget,
    assignment_to_cut,
    build_graph,
    canonical_gadget,
    emit_colouring,
    emit_graph,
    enumerate_triangles,
    find_k_colouring,
    generate_instance,
    lift_assignment,
    max_degree,
    parse_colouring,
    parse_graph,
    split_repeated_variables,
    verify_cut_triangle_free,
)
from naecut.graphs import colouring_fault, cut_fault

from helpers import complete_graph, edge_list, random_graph


def naive_triangles(g):
    return [
        (u, v, w)
        for u, v, w in itertools.combinations(range(1, g.num_vertices + 1), 3)
        if g.has_edge(u, v) and g.has_edge(u, w) and g.has_edge(v, w)
    ]


def random_cut(rng, n):
    side_a = frozenset(v for v in range(1, n + 1) if rng.random() < 0.5)
    return Cut(side_a, frozenset(range(1, n + 1)) - side_a)


def test_graph_constructor_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 4)])
    with pytest.raises(ValueError, match="^vertex count must be non-negative$"):
        Graph(-1)
    # The first bad edge in input order is the one reported.
    with pytest.raises(ValueError, match=r"^edge \(1,4\) out of range 1\.\.3$"):
        Graph(3, [(1, 2), (1, 4), (2, 2), (0, 1)])
    with pytest.raises(ValueError, match="^self-loop at vertex 2$"):
        Graph(3, [(2, 1), (2, 2), (1, 4)])
    with pytest.raises(ValueError, match=r"^edge \(0,1\) out of range 1\.\.3$"):
        Graph(3, [(1, 2), (2, 1), (0, 1), (3, 3)])


def test_graph_constructor_rejects_pairs_of_other_lengths():
    for edges in ([(1, 2), (2, 3, 1)], [(2, 3, 1), (1, 2)], [(1, 2), (3,)], [(1, 2, 3)]):
        with pytest.raises(ValueError):
            Graph(3, edges)
        with pytest.raises(ValueError):
            Graph(3, iter(edges))


def reference_adjacency(n, edges):
    """Each edge checked and placed in input order; the builder's reference."""
    adj = [set() for _ in range(n + 1)]
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u},{v}) out of range 1..{n}")
        adj[u].add(v)
        adj[v].add(u)
    return [tuple(sorted(row)) for row in adj]


def built_or_error(build, n, edges):
    try:
        return build(n, edges)
    except ValueError as exc:
        return str(exc)


def test_pair_builder_matches_the_edge_loop():
    rng = random.Random(0)
    for _ in range(3000):
        n = rng.randint(0, 9)
        ids = [rng.randint(1, n) if n and rng.random() < 0.95 else rng.choice((0, n + 1)) for _ in range(24)]
        edges = list(zip(ids[: rng.randint(0, 12)], ids[12:]))  # loops, duplicates, ids out of range
        us, vs = [u for u, _ in edges], [v for _, v in edges]
        expected = built_or_error(reference_adjacency, n, edges)
        assert built_or_error(lambda n, e: Graph(n, zip(us, vs)).adj, n, edges) == expected
        assert built_or_error(lambda n, e: Graph(n, e).adj, n, edges) == expected
        assert built_or_error(lambda n, e: Graph(n, iter(e)).adj, n, edges) == expected


def test_adjacency_is_the_one_representation():
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randint(2, 14)
        pairs = [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(0, 3 * n))]
        # Duplicates in both orientations.
        edges = pairs + [(v, u) for u, v in pairs[::2]] + pairs[1::3]
        normal = sorted({(min(e), max(e)) for e in edges})
        g = Graph(n, edges)
        assert len(g.adj) == n + 1 and g.adj[0] == ()
        for v in range(1, n + 1):
            row = g.adj[v]
            assert type(row) is tuple and list(row) == sorted(set(row))
            assert all(v in g.adj[w] for w in row)
        assert edge_list(g) == normal
        # Graph.edges stays for the benchmark's tracer; it is the edge list as a set.
        assert g.edges == frozenset(edge_list(g))
        assert g.num_edges == len(normal)
        for u, v in itertools.product(range(0, n + 2), repeat=2):
            assert g.has_edge(u, v) == g.has_edge(v, u) == ((min(u, v), max(u, v)) in normal)
        shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        rng.shuffle(shuffled)
        h = Graph(n, shuffled)
        assert h == g
        with pytest.raises(TypeError):
            hash(g)
        assert Graph(n + 1, edges) != g


def test_graph_holds_each_edge_once_per_endpoint():
    split, _ = split_repeated_variables(generate_instance(0, 256, 384))
    g, _ = build_graph(split)
    edges = edge_list(g)
    tracemalloc.start()
    try:
        h = Graph(g.num_vertices, edges)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h == g
    # Two tuple slots per edge plus a row header per vertex come to about 36 bytes per edge.
    assert held / len(edges) < 100, f"{held / len(edges):.1f} bytes held per edge"


def test_parse_k3():
    g = parse_graph("p edge 3 3\ne 1 2\ne 1 3\ne 2 3")
    assert g == complete_graph(3)
    # Comments, blank lines, CRLF, reversed endpoints and bytes are accepted.
    text = "c k3\r\np edge 3 3\r\n\r\ne 2 1\r\nc mid\r\ne 1 3\r\ne 3 2\r\n"
    assert parse_graph(text) == g
    assert parse_graph(text.encode()) == g


def test_parse_rejects_self_loop():
    with pytest.raises(FormatError):
        parse_graph("p edge 2 1\ne 1 1")


def test_parse_error_cases():
    with pytest.raises(FormatError):
        parse_graph("e 1 2")  # edge before header
    with pytest.raises(FormatError):
        parse_graph("p edge 3 2\ne 1 2")  # count mismatch
    with pytest.raises(FormatError):
        parse_graph("p edge 3 2\ne 1 2\ne 2 1")  # duplicate after normalization
    with pytest.raises(FormatError):
        parse_graph("p edge 2 1\ne 1 3")  # out of range
    for text in (
        "p edge 2 1\ne 0 1",  # vertex 0
        "p edge 2 1\ne 1 x",  # non-integer vertex
        "p edge 2 1\ne 1",  # edge line arity
        "p edge 2 1\np edge 2 1\ne 1 2",  # duplicate header
        "p col 2 1\ne 1 2",  # header tag
        "p edge 2\ne 1 2",  # header arity
        "p edge -2 0",  # negative header
        "p edge 2 1\nx 1 2",  # unrecognized line
        b"p edge 2 1\ne 1 \xff\n",  # bytes that are not UTF-8
        "",  # empty input
    ):
        with pytest.raises(FormatError):
            parse_graph(text)
    # The exact message; an int error is reported before a later unrecognized line.
    for text in ("p edge 2 1\ne 1 x", "p edge 2 1\ne 1 x\nx 1 2"):
        with pytest.raises(FormatError, match=r"^malformed edge line: 'e 1 x'$"):
            parse_graph(text)


def test_graph_roundtrip_normalizes():
    gadget_graph, _ = canonical_gadget()
    text = emit_graph(gadget_graph)
    assert parse_graph(text) == gadget_graph
    assert emit_graph(parse_graph(text)) == text


def test_triangles_k3_and_trees():
    assert enumerate_triangles(complete_graph(3)) == [(1, 2, 3)]
    path = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    assert enumerate_triangles(path) == []


def test_gadget_has_seven_triangles():
    g, gadget = canonical_gadget()
    triangles = enumerate_triangles(g)
    assert len(triangles) == 7
    assert triangles == naive_triangles(g)
    for v in gadget[2:]:
        assert sum(1 for t in triangles if v in t) == 5
    for v in gadget[:2]:
        assert sum(1 for t in triangles if v in t) == 3


def test_triangle_enumeration_matches_naive_oracle():
    for seed in range(60):
        g = random_graph(seed, 3 + seed % 10)
        assert enumerate_triangles(g) == naive_triangles(g)
    # Dense graphs, and the same graphs with isolated vertices before and after.
    for seed in range(20):
        n = 4 + seed % 10
        dense = random_graph(seed, n, p=0.9)
        padded = Graph(n + 6, [(u + 3, v + 3) for u, v in edge_list(dense)])
        for g in (dense, padded, complete_graph(n), Graph(n)):
            assert enumerate_triangles(g) == naive_triangles(g)


def test_monochromatic_triangle_matches_naive_scan():
    cases = []
    for seed in range(80):
        rng = random.Random(seed)
        n = 3 + seed % 11
        g = random_graph(seed, n, p=rng.choice((0.3, 0.6, 0.9)))
        cases.append((g, [random_cut(rng, n)]))
    # Random cuts rarely split every triangle 2:1.  The valid cut of a reduction
    # graph does, and each single-vertex flip of it leaves few same-side pairs.
    for seed, n in ((0, 6), (1, 8), (2, 10), (3, 12)):
        rng = random.Random(seed)
        planted = {x: rng.random() < 0.5 for x in range(1, n + 1)}
        clauses = generate_instance(seed, n, n * 3 // 2).clauses
        kept = tuple(c for c in clauses if len({planted[x] for x in map(abs, c)}) == 2)
        split, tm = split_repeated_variables(CnfFormula(n, kept))
        g, rm = build_graph(split)
        cut = assignment_to_cut(split, rm, lift_assignment(tm, planted))
        flips = [Cut(cut.side_a ^ {v}, cut.side_b ^ {v}) for v in range(1, g.num_vertices + 1)]
        cases.append((g, [cut, *flips]))
    found = set()
    for g, cuts in cases:
        triangles = naive_triangles(g)
        for cut in cuts:
            expected = next((t for t in triangles if len({v in cut.side_a for v in t}) == 1), None)
            # cut_fault names an empty side first, then the first monochromatic triangle.
            if not cut.side_a or not cut.side_b:
                fault = "one side of the cut is empty"
            elif expected is not None:
                fault = f"monochromatic triangle {expected[0]} {expected[1]} {expected[2]}"
            else:
                fault = None
            assert cut_fault(g, cut) == cut_fault(g, Cut(cut.side_b, cut.side_a)) == fault
            # verify_cut_triangle_free stays only as this shim, for the benchmark's workloads.
            assert verify_cut_triangle_free(g, cut) == (cut_fault(g, cut) is None)
            found.add(fault and fault.split()[0])
            if cut.side_a and len(cut.side_b) > 1:
                v = min(cut.side_b)
                not_a_partition = f"sides do not partition the vertices 1..{g.num_vertices}"
                assert cut_fault(g, Cut(cut.side_a, cut.side_b - {v})) == not_a_partition
                assert cut_fault(g, Cut(cut.side_a | {v}, cut.side_b)) == not_a_partition
    assert found == {None, "one", "monochromatic"}


def test_colouring_fault_matches_a_naive_scan():
    found = set()
    for seed in range(200):
        rng = random.Random(seed)
        n = 2 + seed % 9
        g = random_graph(seed, n, p=rng.choice((0.2, 0.4, 0.7)))
        k = rng.randint(2, 4)
        # Mostly colours in 1..k; sometimes a vertex is left out or gets k + 1,
        # or a vertex the graph lacks is coloured.
        colours = {}
        for v in range(1, n + 1):
            if rng.random() < 0.9:
                colours[v] = rng.randint(1, k) if rng.random() < 0.9 else k + 1
        for v in (-1, 0, n + 1, n + 7):
            if rng.random() < 0.1:
                colours[v] = rng.randint(1, k)
        c = Colouring(colours, k)
        expected = next(
            (f"edge {u} {v} is monochromatic" for u, v in edge_list(g)
             if u in colours and colours[u] == colours.get(v)),
            None,
        )
        if expected is None and any(colours.get(v) not in range(1, k + 1) for v in range(1, n + 1)):
            expected = "colouring is partial or uses colours outside 1..k"
        outside = sorted(v for v in colours if v not in range(1, n + 1))
        if expected is None and outside:
            expected = f"vertex {outside[0]} out of range 1..{n}"
        assert colouring_fault(g, c) == expected
        found.add(expected and expected.split()[0])
    assert found == {None, "edge", "colouring", "vertex"}


def test_max_degree():
    assert max_degree(complete_graph(3)) == 2
    gadget_graph, _ = canonical_gadget()
    assert max_degree(gadget_graph) == 4
    assert max_degree(Graph(4)) == 0


def test_colouring_k3():
    c = find_k_colouring(complete_graph(3), 3)
    assert c is not None
    assert c.colours == {1: 1, 2: 2, 3: 3}
    assert find_k_colouring(complete_graph(3), 2) is None


def test_colouring_complete_graph_boundaries():
    for k in range(1, 7):
        assert find_k_colouring(complete_graph(k), k) is not None
        assert find_k_colouring(complete_graph(k + 1), k) is None


def test_colouring_budget_is_a_loud_failure():
    with pytest.raises(BudgetExceeded):
        find_k_colouring(complete_graph(8), 7, SearchBudget(max_states=10))
    with pytest.raises(ValueError, match="^colour count must be at least 1$"):
        find_k_colouring(complete_graph(1), 0)


def test_colouring_fault_on_k3():
    g = complete_graph(3)
    partial = "colouring is partial or uses colours outside 1..k"
    assert colouring_fault(g, Colouring({1: 1, 2: 2, 3: 3}, 3)) is None
    assert colouring_fault(g, Colouring({1: 1, 2: 1, 3: 3}, 3)) == "edge 1 2 is monochromatic"
    assert colouring_fault(g, Colouring({1: 1, 2: 2}, 3)) == partial
    assert colouring_fault(g, Colouring({1: 1, 2: 2, 3: 4}, 3)) == partial


def test_colouring_certificate_roundtrip():
    c = Colouring({1: 1, 2: 2, 3: 3}, 3)
    text = emit_colouring(c)
    assert text == "k 3\n1 1\n2 2\n3 3\n"
    assert parse_colouring(text) == c
    with pytest.raises(FormatError):
        parse_colouring("1 1\n")
    with pytest.raises(FormatError):
        parse_colouring("k 3\n1 1\n1 2\n")
    assert parse_colouring("c note\r\nk 3\r\n\r\n1 1\r\n2 2\r\n3 3\r\n") == c
    for text in ("k 3\nk 3\n1 1\n", "k\n1 1\n", "k x\n", "k 3\n1 1 1\n", "k 3\n1 x\n", ""):
        with pytest.raises(FormatError):
            parse_colouring(text)
    for text in ("k 3\n1 x\n", "k 3\n1 x\n1 2 3\n"):
        with pytest.raises(FormatError, match=r"^malformed colour line: '1 x'$"):
            parse_colouring(text)


def test_cut_verification_on_k3():
    g = complete_graph(3)
    assert cut_fault(g, Cut(frozenset({1}), frozenset({2, 3}))) is None
    assert cut_fault(g, Cut(frozenset({1, 2, 3}), frozenset())) == "one side of the cut is empty"


def test_cut_verification_rejects_non_partitions():
    g = complete_graph(3)
    not_a_partition = "sides do not partition the vertices 1..3"
    assert cut_fault(g, Cut(frozenset({1}), frozenset({2}))) == not_a_partition
    assert cut_fault(g, Cut(frozenset({1, 2}), frozenset({2, 3}))) == not_a_partition


def test_cut_verification_gadget_endpoint_side():
    g, gadget = canonical_gadget()
    cut = Cut(frozenset(gadget[:3]), frozenset(gadget[3:]))
    assert cut_fault(g, cut) is None


def test_cut_verification_is_side_symmetric():
    for seed in range(40):
        g = random_graph(seed, 6)
        cut = random_cut(random.Random(seed + 1000), 6)
        assert cut_fault(g, cut) == cut_fault(g, Cut(cut.side_b, cut.side_a))
