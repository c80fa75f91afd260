import contextlib
import hashlib
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
    cut_from_4colouring,
    emit_cnf,
    emit_cut_witness,
    emit_nae_witness,
    enumerate_triangles,
    exhaustive_budget,
    find_k_colouring,
    generate_instance,
    incidence_graph,
    parse_cut_witness,
    parse_nae_witness,
    split_repeated_variables,
)
from naecut.formula import nae_fault
from naecut.graphs import cut_fault
from naecut.solvers import _NaeEngine

from helpers import complete_graph, edge_list, random_graph


# Independent enumeration oracles: straight product scans with inline clause
# and triangle evaluation, no shared code with the search engine.

def naive_nae_smallest(f):
    for bits in itertools.product((False, True), repeat=f.num_vars):
        a = {i + 1: bits[i] for i in range(f.num_vars)}
        ok = True
        for cl in f.clauses:
            vals = [a[abs(x)] == (x > 0) for x in cl]
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
    return CnfFormula(n, clauses)


def test_nae_smallest_witness_single_clause():
    f = CnfFormula(3, [[1, 2, 3]])
    assert brute_force_nae(f) == {1: False, 2: False, 3: True}


def test_nae_vacuous_formula():
    assert brute_force_nae(CnfFormula(2)) == {1: False, 2: False}
    assert brute_force_nae(CnfFormula(0)) == {}


def test_nae_known_unsatisfiable_instance():
    # All ten triples over five variables: every 2-colouring of five elements
    # leaves three on one side, so some clause comes out all-equal.
    f = CnfFormula(5, list(itertools.combinations(range(1, 6), 3)))
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
    # Few small formulas reach a conflict above level 0, where the rescale
    # runs, and the presolve decides almost every signed one without a
    # conflict; the 2-group-free formulas below keep the rescale exercised.
    formulas += [generate_instance(seed, 12, 30) for seed in range(80)]
    rescaled = 0
    for f in formulas:
        engine = _NaeEngine(f.num_vars, [sorted(c, key=abs) for c in f.clauses])
        engine.inc = 1e100
        result = engine.solve(2**30)
        got = None if result is None else {x: bool(result[x]) for x in range(1, f.num_vars + 1)}
        assert got == brute_force_nae(f)
        rescaled += engine.inc < 1e100
    assert rescaled >= 50


def test_nae_budget_precheck_and_distinction():
    # The up-front check counts 2^n candidate assignments: a budget of exactly
    # that many passes it, one state less does not.
    f = CnfFormula(6, [[1, 2, 3]])
    assert brute_force_nae(f, SearchBudget(max_states=64)) is not None
    for cap in (63, 32):
        message = f"^2\\^6 candidate assignments exceed the budget of {cap} states$"
        with pytest.raises(BudgetExceeded, match=message):
            brute_force_nae(f, SearchBudget(max_states=cap))


def test_cut_k3():
    cut = brute_force_cut(complete_graph(3))
    assert sorted(map(len, (cut.side_a, cut.side_b))) == [1, 2]
    assert cut_fault(complete_graph(3), cut) is None


def test_cut_complete_graph_boundary():
    # Bipartitions of K_n keep a side of >= 3 mutually adjacent vertices from
    # n = 5 on, so K4 is the largest complete graph with a triangle-free cut.
    assert brute_force_cut(complete_graph(4)) is not None
    assert brute_force_cut(complete_graph(5)) is None
    assert brute_force_cut(complete_graph(6)) is None


def test_cut_gadget_keeps_endpoints_together():
    g, (x, y, *_) = canonical_gadget()
    cut = brute_force_cut(g)
    assert cut is not None
    assert (x in cut.side_a) == (y in cut.side_a)


def test_cut_tiny_graphs_have_no_partition():
    assert brute_force_cut(Graph(1)) is None
    assert brute_force_cut(Graph(0)) is None


def test_cut_agrees_with_enumeration_oracle():
    for seed in range(250):
        g = random_graph(seed, 2 + seed % 8)
        assert brute_force_cut(g) == naive_cut_smallest(g)


def test_cut_budget_precheck():
    # Vertex 1 is pinned, so the check counts 2^(n-1) candidate cuts.
    assert brute_force_cut(complete_graph(10), SearchBudget(max_states=512)) is None
    assert brute_force_cut(complete_graph(4), SearchBudget(max_states=8)) is not None
    for n, cap in ((10, 511), (10, 256), (4, 7)):
        message = f"^2\\^{n - 1} candidate cuts exceed the budget of {cap} states$"
        with pytest.raises(BudgetExceeded, match=message):
            brute_force_cut(complete_graph(n), SearchBudget(max_states=cap))


def test_search_node_cap_is_a_loud_failure():
    # The engine counts decisions against the budget, and the error says how
    # far the search got.  Variable 1 is pinned False before the search;
    # deciding 2 False propagates 3 True, so the decisions are 2, 4, 5, 6, 7
    # at levels 1..5 without a conflict, and the sixth decision is over the
    # cap, still in the search for a first model.
    from naecut.solvers import _NaeEngine

    engine = _NaeEngine(10, [(1, 2, 3)])
    with pytest.raises(
        BudgetExceeded,
        match=r"^search exceeded 5 states; deepest decision level 5; "
        r"0 conflicts; first model not found$",
    ):
        engine.solve(5)


def test_budget_exceeded_after_the_first_model_propagates():
    # Decisions are counted across the first solve and every solve of the
    # lex-min phase; a cap reached in the later solves raises instead of
    # returning None or a model that is not yet the smallest.
    from naecut.solvers import _NaeEngine

    f = generate_instance(0, 40, 84)
    groups = f.clauses
    full = _NaeEngine(40, groups)
    assert full.solve(10**9) is not None
    assert full.solves > 1
    lex_phase_caps = 0
    for cap in range(full.decisions):
        engine = _NaeEngine(40, groups)
        with pytest.raises(BudgetExceeded) as raised:
            engine.solve(cap)
        lex_phase_caps += engine.solves > 1
        # The message tells a hard first model from a long lex-min phase.
        assert engine.solves == 1 or 1 <= engine.fixed < engine.n
        progress = (
            "first model not found"
            if engine.solves == 1
            else f"lex-min phase had fixed {engine.fixed} of {engine.n} search variables"
        )
        assert str(raised.value) == (
            f"search exceeded {cap} states; deepest decision level {engine.max_depth}; "
            f"{engine.conflicts} conflicts; {progress}"
        )
    assert lex_phase_caps > 0


# Deep inputs: the search keeps its decisions on an explicit stack, so a
# witness thousands of decisions deep is found, not lost to RecursionError.

def test_nae_deep_formula_has_witness():
    witness = brute_force_nae(CnfFormula(3000, [[1, 2, 3]]), exhaustive_budget(3000))
    assert witness == {x: x == 3 for x in range(1, 3001)}


def _reduction_graph(seed, n):
    from naecut import build_graph

    f = generate_instance(seed, n, round(1.5 * n))
    split, _ = split_repeated_variables(f)
    g, _ = build_graph(split)
    return f, g


def _check_cut_against_formula(f, g):
    # Every formula passed here is satisfiable (m = 1.5n is well below the
    # NAE threshold).  Variable x is vertex x and every copy equals its
    # original, so the smallest cut restricted to vertices 1..n is the
    # smallest NAE witness of the original formula.
    cut = brute_force_cut(g, exhaustive_budget(g.num_vertices))
    witness = brute_force_nae(f, exhaustive_budget(f.num_vars))
    assert cut is not None
    assert witness is not None
    assert cut_fault(g, cut) is None
    assert {x: x in cut.side_a for x in range(1, f.num_vars + 1)} == witness


def test_cut_on_large_reduction_graph():
    for n, vertices in ((256, 3856), (800, 12040), (1024, 15400)):
        f, g = _reduction_graph(0, n)
        assert g.num_vertices == vertices
        _check_cut_against_formula(f, g)


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
    # The engine stores each presolved group once, as one tuple of literal
    # codes, and lists it six times, under both codes of each of its three
    # variables.  The presolve takes a reduction graph down to its formula's
    # groups first, so the graph reads about 71 bytes per triangle.  On a
    # formula that takes 658 conflicts to refute (about 1,040 bytes per
    # clause in a fresh process), the peak stays bounded because the
    # decision heap is rebuilt before it outgrows 2n entries (without that
    # it reads about 4,100 bytes per clause).
    from naecut import build_graph

    split, _ = split_repeated_variables(generate_instance(0, 256, 384))
    g, _ = build_graph(split)
    triangles = enumerate_triangles(g)
    assert len(triangles) == 6684
    peak, _ = _traced_peak(g.num_vertices, triangles)
    assert peak < 520 * len(triangles)
    f = generate_instance(1, 120, 252)
    peak, engine = _traced_peak(120, f.clauses)
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
    k5 = list(itertools.combinations(range(1, 6), 2))
    k6 = list(itertools.combinations(range(1, 7), 2))
    chain2 = _tetrahedra(9, (4, 5, 6), (1, 2), extra=edge_list(_tetrahedra(9, (7, 8, 9), (2, 3))))
    chain3 = _tetrahedra(12, (11, 12, 4), (3, 10), extra=edge_list(chain2))
    graphs = [_tetrahedra(3 + k, (1, 2, 3), range(4, 4 + k)) for k in (2, 3, 4)]
    graphs += [
        # two faces sharing the apex 4, each with a second apex
        _tetrahedra(9, (1, 2, 3), (4, 8), extra=edge_list(_tetrahedra(9, (5, 6, 7), (4, 9)))),
        # the shared apex lies on the other face
        _tetrahedra(8, (1, 2, 3), (4, 5), extra=edge_list(_tetrahedra(8, (4, 6, 7), (8,)))),
        chain2,
        Graph(9, edge_list(chain2) + [(1, 3), (1, 7), (3, 7)]),
        chain3,
        Graph(12, edge_list(chain3) + [(1, 10), (1, 11), (10, 11)]),
        Graph(6, k5 + [(1, 6), (2, 6), (3, 6)]),
        Graph(8, k5 + [(4, 6), (5, 6), (4, 7), (5, 7), (6, 7), (6, 8), (7, 8), (4, 8)]),
        Graph(9, k6 + [(x, v) for x in (7, 8, 9) for v in (4, 5, 6)]),
        Graph(5, k5[1:]),  # K5 without the edge (1, 2)
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


@contextlib.contextmanager
def _built_engines():
    """Every `_NaeEngine` built inside the block, in order, each keeping the groups it was given."""
    from naecut import solvers

    built = []

    class Recorded(solvers._NaeEngine):
        def __init__(self, num_vars, groups):
            self.given = list(groups)
            super().__init__(num_vars, self.given)
            built.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "_NaeEngine", Recorded)
        yield built


def test_learning_engine_agrees_with_chronological_oracle():
    # 20-40 variables with signed 2- and 3-literal groups near the threshold:
    # large enough that the engine learns clauses, small enough for a
    # search that shares no code with it.
    found = 0
    with _built_engines() as engines:
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(20, 40)
            clauses = []
            for _ in range(round(n * rng.uniform(1.3, 1.9))):
                vs = rng.sample(range(1, n + 1), rng.choice((2, 3, 3, 3, 3)))
                clauses.append([v if rng.random() < 0.5 else -v for v in vs])
            f = CnfFormula(n, clauses)
            witness = brute_force_nae(f, exhaustive_budget(n))
            assert witness == chronological_smallest(n, f.clauses)
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


def _assert_fixpoint(engine):
    # Nothing left to propagate: no group is all-equal or has two equal
    # values with its third free, and no learned clause is false or unit.
    val = engine.val
    for g in {e[2] for es in engine.occ for e in es}:
        values = [val[c] for c in g]
        assigned = [x for x in values if x is not None]
        assert len(assigned) < 2 or len(set(assigned)) == 2, (g, values)
    for cl in {id(cl): cl for ws in engine.cwatch for cl in ws}.values():
        values = [val[c] for c in cl]
        assert True in values or values.count(None) >= 2, (cl, values)


def test_propagation_reaches_a_fixpoint_on_every_group():
    # Every time propagation ends without a conflict, on formulas that
    # learn clauses, gadget-dense graphs and presolved signed groups, the
    # occurrence lists must have checked every group a new value touched.
    from naecut.solvers import _NaeEngine

    graphs = _gadget_dense_graphs() + [_reduction_graph(1, n)[1] for n in (16, 40)]
    inputs = [(g.num_vertices, enumerate_triangles(g)) for g in graphs]
    for seed in range(40):
        f = generate_instance(seed, 30, 63)
        inputs.append((30, f.clauses))
        rng = random.Random(seed)
        # A few 2-groups merge variables, so the presolved groups carry
        # complemented literals besides the random signs.
        signed = [[v if rng.random() < 0.6 else -v for v in cl] for cl in f.clauses[:55]]
        inputs.append((30, signed + [sorted(rng.sample(range(1, 31), 2)) for _ in range(4)]))
    checks = conflicts = negative = 0
    for n, groups in inputs:
        engine = _NaeEngine(n, groups)
        propagate = engine._propagate

        def checked():
            nonlocal checks
            confl = propagate()
            if confl is None:
                _assert_fixpoint(engine)
                checks += 1
            return confl

        engine._propagate = checked
        engine.solve(2**30)
        conflicts += engine.conflicts
        negative += any(c & 1 for es in engine.occ for e in es for c in e[2])
        _assert_listed_under_each_literal(engine)
    assert checks > 1000 and conflicts > 300 and negative >= 30


def _assert_listed_under_each_literal(engine):
    # Each group sits twice under each of its variables, once per polarity,
    # with its other two codes as read from that side.
    listed = {}
    for p, es in enumerate(engine.occ):
        for x, y, g in es:
            listed.setdefault(g, []).append((p, x, y))
    for g, entries in listed.items():
        a, b, c = g
        expected = [(a, b, c), (b, a, c), (c, a, b)]
        expected += [(p ^ 1, x ^ 1, y ^ 1) for p, x, y in expected]
        assert sorted(entries) == sorted(expected), g


def _recording_engine(num_vars, groups):
    """An engine that records each decision literal, and the activities and
    increment at the start of each solve."""
    from naecut.solvers import _NaeEngine

    engine = _NaeEngine(num_vars, groups)
    decide, search = engine._decide, engine._search
    engine.decided, engine.starts = [], []

    def recorded_decide(lit):
        opened = decide(lit)
        if opened:
            engine.decided.append(engine.trail[-1])
        return opened

    def recorded_search(assume):
        engine.starts.append((list(engine.activity), engine.inc))
        return search(assume)

    engine._decide, engine._search = recorded_decide, recorded_search
    return engine


def test_first_search_decides_the_most_frequent_variable_first():
    # Variable 5 lies in four groups, more than any other, so the first
    # search decides it (False) before the smaller free variables 2, 3, 4.
    groups = [(1, -2, 3), (2, -5, 6), (-3, 4, 5), (4, -5, 6), (2, 5, -6)]
    engine = _recording_engine(6, groups)
    assert engine.lits == list(range(7))  # the presolve renumbers nothing
    model = engine.solve(2**30)
    assert engine.starts[0] == ([0.0, 1.0, 3.0, 2.0, 2.0, 4.0, 3.0], 1.0)
    assert engine.decided[0] == 2 * 5 + 1
    f = CnfFormula(6, groups)
    assert {x: model[x] for x in range(1, 7)} == naive_nae_smallest(f)


def test_lex_min_phase_starts_from_zero_activity():
    # The first search starts from the occurrence counts; its activities
    # are dropped before the lex-min solves, so those decide in index order.
    f = generate_instance(0, 100, 210)
    engine = _recording_engine(100, f.clauses)
    assert engine.solve(2**30) is not None
    assert engine.solves == len(engine.starts) > 2 and engine.conflicts > 0
    assert engine.starts[0] == ([float(len(engine.occ[2 * v])) for v in range(101)], 1.0)
    assert engine.starts[1] == ([0.0] * 101, 1.0)


_COUNTERS = ("decisions", "propagations", "conflicts", "learned", "solves", "max_depth")


def _searched(num_vars, groups):
    """(model, search counters, merged, eliminated) of one engine solve."""
    from naecut.solvers import _NaeEngine

    engine = _NaeEngine(num_vars, groups)
    model = engine.solve(2**30)
    return model, tuple(getattr(engine, k) for k in _COUNTERS), engine.merged, engine.eliminated


def _nae_searched(num_vars, clauses):
    """(witness, search counters, merged, eliminated) of brute_force_nae, read from the engine it builds."""
    with _built_engines() as built:
        witness = brute_force_nae(CnfFormula(num_vars, clauses), exhaustive_budget(num_vars))
    (engine,) = built
    return witness, tuple(getattr(engine, k) for k in _COUNTERS), engine.merged, engine.eliminated


def test_engine_counts_repeat_exactly():
    # The counters are plain attributes: the same formula gives the same
    # counts, and every trail literal the search processed is a propagation.
    f = generate_instance(3, 100, 210)
    groups = f.clauses

    def counts():
        model, counters, _, _ = _searched(100, groups)
        assert model is None
        return counters

    first = counts()
    assert first == counts()
    decisions, propagations, conflicts = first[:3]
    assert propagations > decisions > 0 and conflicts > 0


# Search counters (decisions, propagations, conflicts, learned, solves,
# max_depth) and "no model" of generate_instance(seed, n, round(2.1 * n)),
# near the NAE threshold, by (n, seed).
_PINNED_SEARCHES = {
    (100, 0): ((342, 7086, 280, 276, 6, 17), False),
    (100, 1): ((223, 3663, 146, 143, 6, 21), False),
    (100, 2): ((149, 3314, 131, 125, 1, 11), True),
    (100, 3): ((314, 7460, 286, 278, 1, 12), True),
    (110, 1): ((487, 11317, 385, 383, 7, 24), False),
    (110, 4): ((821, 17922, 683, 676, 8, 15), False),
    (120, 0): ((617, 14203, 506, 501, 6, 13), False),
    (120, 1): ((745, 20274, 658, 650, 1, 12), True),
}


def test_the_search_is_pinned_step_for_step():
    # A change to how the engine stores or reads its groups must leave the
    # search itself alone: the same decisions, propagations, conflicts and
    # learned clauses as the engine these counts were read from.  The
    # reduction graph of (100, 1) runs its formula's search.
    from naecut import build_graph

    for (n, seed), expected in _PINNED_SEARCHES.items():
        model, counters, _, _ = _searched(n, generate_instance(seed, n, round(2.1 * n)).clauses)
        assert (counters, model is None) == expected, (n, seed)
    g, _ = build_graph(split_repeated_variables(generate_instance(1, 100, 210))[0])
    model, counters, _, _ = _searched(g.num_vertices, enumerate_triangles(g))
    assert (counters, model is None) == _PINNED_SEARCHES[100, 1]


# The engine's seam: `_learn` keeps each learned clause and `_fix` makes
# each level-0 fact.  An engine that logs both, and a unit propagator that
# shares no code with it, check every lemma and every answer.

class _Logged(_NaeEngine):
    def __init__(self, num_vars, groups):
        self.log = []
        super().__init__(num_vars, groups)

    def _learn(self, clause):
        self.log.append(("learn", list(clause)))
        super()._learn(clause)

    def _fix(self, lit):
        self.log.append(("fix", lit))
        super()._fix(lit)


def _free_if_unit(clause, true):
    """[] if every literal of the clause is False, [x] if x is its only free
    literal and none is True, otherwise None."""
    free = []
    for c in clause:
        if c in true:
            return None
        if c ^ 1 not in true:
            if free:
                return None
            free.append(c)
    return free


class _UnitPropagator:
    """Clauses of literal codes (2v: v True, 2v+1: v False); a fact is a unit clause.

    `true` holds the codes unit propagation derives from the clauses, and
    `refuted` says whether it reaches a conflict.
    """

    def __init__(self, num_codes, clauses):
        self.occ = [[] for _ in range(num_codes)]
        self.true = set()
        self.refuted = False
        for clause in clauses:
            self.add(clause)

    def _extend(self, true, queue):
        """Add to `true` what the literals in queue propagate to; False at a conflict."""
        for lit in queue:
            if lit ^ 1 in true:
                return False
            if lit not in true:
                true.add(lit)
                for clause in self.occ[lit ^ 1]:
                    free = _free_if_unit(clause, true)
                    if free == []:
                        return False
                    queue += free or []
        return True

    def rup(self, clause):
        """Whether the clause's negation propagates to a conflict."""
        return self.refuted or not self._extend(set(self.true), [c ^ 1 for c in clause])

    def add(self, clause):
        for c in clause:
            self.occ[c].append(clause)
        free = _free_if_unit(clause, self.true)
        if free is not None:
            self.refuted = self.refuted or not (free and self._extend(self.true, free))


def _audit(engine):
    """Replay a logged solve over the search variables by unit propagation.

    Returns the lemmas that are not RUP over the groups (two clauses each),
    the earlier lemmas and the facts fixed before them; the variables that
    end True yet are not RUP under the values that the pin and the lex-min
    phase fixed before them; and the propagator after the last fact.
    """
    groups = {e[2] for es in engine.occ for e in es}
    check = _UnitPropagator(len(engine.val), [c for g in groups for c in (g, [x ^ 1 for x in g])])
    rejected, unproven = [], []

    def unproven_true(first, last):
        return [v for v in range(first, last + 1) if engine.val[2 * v] and not check.rup([2 * v])]

    start = 1  # the first variable whose final value is not yet checked
    previous = None
    for kind, x in engine.log:
        if kind == "learn":
            if not check.rup(x):
                rejected.append(x)
            check.add(x)
        elif previous != ("learn", [x]):  # not a unit lemma's own fact
            unproven += unproven_true(start, x >> 1)
            start = (x >> 1) + 1
            check.add([x])
        previous = kind, x
    return rejected, unproven + unproven_true(start, engine.n), check


def test_every_lemma_and_answer_checks_by_unit_propagation():
    # Above 40 variables this is the one check of the engine's "no" and
    # "smallest" answers that shares no search code with it.  Each lemma is
    # RUP; a "no" ends in a conflict from the facts and lemmas alone; each
    # variable a model sets True is RUP under the values fixed before it,
    # so no smaller model exists.  A model's facts propagate to all of it,
    # which shows, again by unit propagation alone, that it is a model.
    # The pin and the lex-min phase fix only False values; a True value
    # reaches level 0 by a lemma or by propagation.
    from naecut import build_graph

    inputs = [(n, generate_instance(seed, n, round(2.1 * n)).clauses) for n, seed in _PINNED_SEARCHES]
    g, _ = build_graph(split_repeated_variables(generate_instance(1, 100, 210))[0])
    inputs.append((g.num_vertices, enumerate_triangles(g)))
    fixes = 0
    for num_vars, groups in inputs:
        engine = _Logged(num_vars, groups)
        model = engine.solve(2**30)
        rejected, unproven, check = _audit(engine)
        assert (rejected, unproven, check.refuted) == ([], [], model is None), num_vars
        if model is not None:
            assert check.true == set(engine.trail) and len(check.true) == engine.n
        steps = list(zip([None, *engine.log], engine.log))
        loop_fixes = [x for before, (kind, x) in steps if kind == "fix" and before != ("learn", [x])]
        assert all(x & 1 for x in loop_fixes), num_vars
        fixes += len(loop_fixes)
    assert fixes > 50


def test_the_audit_rejects_weakened_lemmas_and_a_larger_model():
    class Weakened(_Logged):
        def _learn(self, clause):
            super()._learn(clause[:-1] if len(clause) >= 3 else clause)

    for seed in range(4):
        engine = Weakened(100, generate_instance(seed, 100, 210).clauses)
        engine.solve(2**30)
        assert _audit(engine)[0], seed

    class Flipped(_Logged):
        # Fixes variable 25 True where the lex-min phase fixes it False.
        def _fix(self, lit):
            super()._fix(50 if lit == 51 and self.fixed == 24 else lit)

    engine = Flipped(100, generate_instance(1, 100, 210).clauses)
    engine.solve(2**30)
    assert _audit(engine)[1][:1] == [25]


def test_only_learn_and_fix_add_clauses_and_level_0_facts():
    # After a solve every trail entry is at level 0.  Those without a
    # reason are exactly the literals passed to `_fix`, in order, and the
    # watched clauses are exactly those of two or more literals passed to
    # `_learn`, each counted once in `learned`.
    inputs = [(n, generate_instance(s, n, round(2.1 * n)).clauses) for n, s in ((100, 0), (100, 2), (110, 1))]
    inputs += [(g.num_vertices, enumerate_triangles(g)) for g in _gadget_dense_graphs()]
    learned = 0
    for num_vars, groups in inputs:
        engine = _Logged(num_vars, groups)
        engine.solve(2**30)
        assert not engine.lim
        fixed = [x for kind, x in engine.log if kind == "fix"]
        assert [p for p in engine.trail if engine.reason[p >> 1] is None] == fixed
        kept = sorted(sorted(x) for kind, x in engine.log if kind == "learn" and len(x) > 1)
        watched = {id(cl): cl for ws in engine.cwatch for cl in ws}.values()
        assert sorted(map(sorted, watched)) == kept and len(kept) == engine.learned
        learned += engine.learned
    assert learned > 500


def test_a_reduction_graph_and_its_formula_run_one_search():
    # The presolve leaves a reduction graph exactly its formula's 3-groups,
    # and the search sees them in one canonical order, so the graph and the
    # formula run one search: the reduction's equivalence (arXiv 1003.3704)
    # step for step, with equal counters and equal bits on 1..n.
    from naecut import build_graph

    answers = set()
    for r in (1.5, 2.1):
        for n in (30, 60, 100):
            for seed in range(6):
                f = generate_instance(seed, n, round(r * n))
                g, _ = build_graph(split_repeated_variables(f)[0])
                model, counters, _, _ = _searched(n, f.clauses)
                graph_model, graph_counters, _, _ = _searched(g.num_vertices, enumerate_triangles(g))
                assert graph_counters == counters, (r, n, seed)
                assert (graph_model is None) == (model is None)
                if model is not None:
                    assert graph_model[1 : n + 1] == model[1 : n + 1]
                cut = brute_force_cut(g, exhaustive_budget(g.num_vertices))
                witness = brute_force_nae(f, exhaustive_budget(n))
                assert (cut is None) == (witness is None)
                if cut is not None:
                    assert {x: x in cut.side_a for x in range(1, n + 1)} == witness
                answers.add(witness is None)
    assert answers == {False, True}


def test_the_oracles_hand_the_engine_groups_in_variable_order():
    # The presolve reads a group's last entry as its largest variable and a
    # positive 3-group as its face, so every group reaches the engine with
    # strictly increasing variables: brute_force_nae orders each clause, and
    # triangle enumeration lists each triangle's vertices in order.
    rng = random.Random(5)
    f = generate_instance(5, 60, 126)
    clauses = [[v if rng.random() < 0.6 else -v for v in rng.sample(cl, 3)] for cl in f.clauses]
    assert any(list(map(abs, cl)) != sorted(map(abs, cl)) for cl in clauses)
    _, g = _reduction_graph(5, 16)
    with _built_engines() as built:
        brute_force_nae(CnfFormula(60, clauses), exhaustive_budget(60))
        brute_force_cut(g, exhaustive_budget(g.num_vertices))
    assert [len(engine.given) for engine in built] == [126, len(enumerate_triangles(g))]
    for engine in built:
        for group in engine.given:
            variables = list(map(abs, group))
            assert all(u < v for u, v in zip(variables, variables[1:])), group


def test_the_search_depends_only_on_the_set_of_groups():
    # Shuffling the groups gives the engine the same model and the same
    # counters, presolve counts included.  Shuffling the literals inside
    # each clause too gives brute_force_nae the same witness, and the engine
    # it builds the same counters.  No shuffle repeats a group: a repeated
    # gadget group refuses the peel.
    inputs = []
    for seed in range(4):
        f = generate_instance(seed, 40, 84)
        inputs.append((40, f.clauses))
        rng = random.Random(seed)
        signed = [[v if rng.random() < 0.6 else -v for v in cl] for cl in f.clauses[:70]]
        pairs = {tuple(sorted(rng.sample(range(1, 41), 2))) for _ in range(5)}
        inputs.append((40, signed + [[x, -y if rng.random() < 0.5 else y] for x, y in pairs]))
        g = _reduction_graph(seed, 12 + 8 * seed)[1]
        inputs.append((g.num_vertices, enumerate_triangles(g)))
    rng = random.Random(2026)
    answers = set()
    eliminated = 0
    for n, groups in inputs:
        expected = _searched(n, groups)
        model = expected[0]
        witness = None if model is None else {x: model[x] for x in range(1, n + 1)}
        assert _nae_searched(n, groups) == (witness, *expected[1:])
        for _ in range(3):
            assert _searched(n, rng.sample(groups, len(groups))) == expected
            shuffled = [rng.sample(list(g), len(g)) for g in groups]
            rng.shuffle(shuffled)
            assert _nae_searched(n, shuffled) == (witness, *expected[1:])
        answers.add(model is None)
        eliminated += expected[3]
    assert answers == {False, True} and eliminated > 0


def test_apex_equalities_need_four_positive_groups():
    # {1,2,4}, {1,3,4}, {2,3,4} and the same for 5 make 4 and 5 apexes of
    # {1,2,3}; the engine equates them only when all of those groups and the
    # face are positive groups.
    from naecut.solvers import _apex_equalities

    apex_groups = [[a, b, x] for x in (4, 5) for a, b in ((1, 2), (1, 3), (2, 3))]
    assert _apex_equalities(5, [[1, 2, 3]] + apex_groups) == [(4, -5)]
    for face in ([1, 2, -3], [-1, 2, 3], [1, -2, -3]):
        assert _apex_equalities(5, [face] + apex_groups) == []
        f = CnfFormula(5, [face] + apex_groups)
        assert brute_force_nae(f) == naive_nae_smallest(f)
    # Without {5,2,3}, 1=F, 2=3=T leaves 5 free, so 4 != 5 is satisfiable.
    partial = [[1, 2, 3]] + apex_groups[:5] + [[4, 5]]
    assert _apex_equalities(5, partial) == []
    f = CnfFormula(5, partial)
    assert brute_force_nae(f) == naive_nae_smallest(f) == {1: False, 2: True, 3: True, 4: False, 5: True}
    for seed in range(200):
        rng = random.Random(seed)
        clauses = [
            [v if rng.random() < 0.8 else -v for v in cl]
            for cl in [[1, 2, 3]] + apex_groups + [[5, 6, 7], [1, 6, 7], [4, 5]]
            if rng.random() < 0.85
        ]
        f = CnfFormula(7, clauses)
        assert brute_force_nae(f) == naive_nae_smallest(f)


def test_apex_equalities_keep_a_renumbered_reduction_graph_tractable():
    # Numbered backwards, a reduction graph has no gadget interior on top,
    # so nothing peels and only the apex scan can equate each gadget's two
    # apexes.  With it the search takes about 1,100 decisions; without it
    # about 59,000, over the budget.  The engine is built directly, since
    # brute_force_cut's 2^n check refuses a graph this size at that budget.
    from naecut import build_graph
    from naecut.solvers import _NaeEngine

    split, _ = split_repeated_variables(generate_instance(0, 64, 96))
    g, rm = build_graph(split)
    n = g.num_vertices
    reversed_g = Graph(n, [(n + 1 - u, n + 1 - v) for u, v in edge_list(g)])
    engine = _NaeEngine(n, enumerate_triangles(reversed_g))
    assert engine.merged == len(rm.clause_gadget) == 225
    assert engine.eliminated == 0
    model = engine.solve(5_000)
    assert model is not None
    assert cut_fault(reversed_g, Cut.from_side_a((v for v in range(1, n + 1) if model[v]), n)) is None


def test_presolve_leaves_the_original_variables_of_a_reduction_graph():
    # Peeling the gadget interiors and merging the copy chains leaves one
    # search variable per variable of the formula the graph was built from.
    from naecut.solvers import _NaeEngine

    for seed in (3, 4, 5):
        for n in (16, 64, 200):
            f, g = _reduction_graph(seed, n)
            engine = _NaeEngine(g.num_vertices, enumerate_triangles(g))
            assert engine.n == n
            assert engine.merged + engine.eliminated == g.num_vertices - n
            assert engine.eliminated > 0
            _check_cut_against_formula(f, g)


def _gadget_groups(x, y, a, b, c):
    return [(a, b, c)] + [(z, u, w) for z in (x, y) for u, w in ((a, b), (a, c), (b, c))]


def test_presolve_peels_only_trailing_gadget_interiors():
    from naecut.solvers import _NaeEngine, _presolve

    def peeled(n, groups):
        return _NaeEngine(n, groups).eliminated

    def flipped(groups, k, i):
        return [[-v if (j, m) == (k, i) else v for m, v in enumerate(g)] for j, g in enumerate(groups)]

    gadget = _gadget_groups(1, 2, 3, 4, 5)
    assert peeled(5, gadget) == 3
    refused = [flipped(gadget, k, i) for k in (0, 1, 6) for i in range(3)]  # a signed face or apex group
    refused += [[[-v if v == 1 else v for v in g] for g in gadget]]  # an apex signed in all its groups
    refused += [gadget + [(1, 3)], gadget + [(1, 4, 5)], gadget + [(2, -5)]]  # one extra group
    refused += [gadget[:6] + gadget]  # a group twice
    for groups in refused:
        assert peeled(5, groups) == 0
        f = CnfFormula(5, groups)
        assert brute_force_nae(f) == naive_nae_smallest(f)
    # The apexes 4, 5 of the peeled interior 6, 7, 8 keep the 2-group (4, -5),
    # so the interior 3, 4, 5 below has an eighth group and stays.
    nested = gadget + _gadget_groups(4, 5, 6, 7, 8)
    assert peeled(8, nested) == 3
    f = CnfFormula(8, nested)
    assert brute_force_nae(f) == naive_nae_smallest(f)

    chain = _tetrahedra(9, (4, 5, 6), (1, 2), extra=edge_list(_tetrahedra(9, (7, 8, 9), (2, 3))))
    graphs = [
        # faces with three and four apexes below them
        _tetrahedra(3 + k, (k + 1, k + 2, k + 3), range(1, k + 1)) for k in (3, 4)
    ] + [
        # a gadget whose interior is not the highest-indexed
        _tetrahedra(6, (3, 4, 5), (1, 2)),
        _tetrahedra(6, (3, 4, 5), (1, 6)),
        # an interior with an extra triangle through the apexes
        _tetrahedra(5, (3, 4, 5), (1, 2), extra=[(1, 2)]),
        # two gadgets sharing the apex 2, the other apex of one lying in
        # the other's interior
        _tetrahedra(8, (6, 7, 8), (1, 2), extra=edge_list(_tetrahedra(8, (3, 4, 5), (2, 8)))),
    ]
    for g in graphs:
        assert peeled(g.num_vertices, enumerate_triangles(g)) == 0
        assert brute_force_cut(g) == naive_cut_smallest(g)
    # Two gadgets sharing the apex 2 both peel when their interiors are on top.
    engine = _NaeEngine(9, enumerate_triangles(chain))
    assert (engine.n, engine.merged, engine.eliminated) == (1, 2, 6)
    assert brute_force_cut(chain) == naive_cut_smallest(chain)

    # Groups out of the order triangle enumeration lists them in peel as
    # the lexicographic list does, and so do clauses with their literals
    # permuted too, through brute_force_nae.
    rng = random.Random(0)
    _, g = _reduction_graph(3, 16)
    for n, groups in ((5, gadget), (g.num_vertices, enumerate_triangles(g))):
        shuffled = rng.sample(groups, len(groups))
        assert shuffled != groups
        assert _presolve(n, shuffled) == _presolve(n, groups)
        assert peeled(n, shuffled) == peeled(n, groups) > 0
        permuted = [tuple(rng.sample(grp, 3)) for grp in shuffled]
        assert _nae_searched(n, permuted)[3] == peeled(n, groups)


@pytest.mark.parametrize(
    "side_a", [{3, 4, 5}, set()], ids=["one triangle monochromatic", "one side empty"]
)
def test_cut_oracle_refuses_an_invalid_engine_model(monkeypatch, side_a):
    # brute_force_cut checks the engine's model against every triangle of
    # the graph: side A {3, 4, 5} leaves only the face 3 4 5 on one side.
    from naecut import solvers

    g, _ = canonical_gadget()
    monkeypatch.setattr(solvers._NaeEngine, "solve", lambda self, max_states: [v in side_a for v in range(6)])
    with pytest.raises(AssertionError, match="search returned an invalid cut"):
        brute_force_cut(g)


def test_nae_oracle_refuses_a_non_satisfying_engine_model(monkeypatch):
    # brute_force_nae checks the engine's model against the formula: all False
    # leaves the clause 1 2 3 all-equal.
    from naecut import solvers

    monkeypatch.setattr(solvers._NaeEngine, "solve", lambda self, max_states: [False] * 4)
    with pytest.raises(AssertionError, match="^search returned a non-satisfying assignment$"):
        brute_force_nae(CnfFormula(3, [[1, 2, 3]]))


def test_presolve_collapses_repeated_literals_and_refutes():
    from naecut.solvers import _NaeEngine

    for groups in (
        [(1, -2), (2, -3), (1, 2, 3)],  # 1 = 2 = 3 leaves the 3-group one literal
        [(1, -2), (1, 2)],  # 1 = 2 and 1 != 2
        [(1, -2), (3, -4), (1, 3, 2), (2, 4, 5), (1, 3, 5)],  # (1, 3, 1) makes 1 != 3
    ):
        f = CnfFormula(5, groups)
        assert brute_force_nae(f) == naive_nae_smallest(f)
    for groups in ([(1, -2), (2, -3), (1, 2, 3)], [(1, -2), (1, 2)]):
        engine = _NaeEngine(3, groups)
        assert engine.solve(10) is None
        assert engine.decisions == 0


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
            assert cut_fault(g, rebalanced) is None


def test_assignment_from_4colouring_triangle():
    f = CnfFormula(3, [[1, 2, 3]])
    a = assignment_from_4colouring(f, Colouring({1: 1, 2: 2, 3: 3}, 3))
    assert a == {1: True, 2: True, 3: False}
    assert nae_fault(f, a) is None


def test_assignment_from_4colouring_rejects_five_colours():
    f = CnfFormula(3, [[1, 2, 3]])
    with pytest.raises(ValueError):
        assignment_from_4colouring(f, Colouring({1: 1, 2: 2, 3: 5}, 5))
    with pytest.raises(
        ValueError, match="^not a proper colouring of the incidence graph: edge 1 2 is monochromatic$"
    ):
        assignment_from_4colouring(f, Colouring({1: 1, 2: 1, 3: 2}, 4))
    with pytest.raises(ValueError, match="requires monotone 3-SAT input"):
        assignment_from_4colouring(CnfFormula(2, [[1, -2]]), Colouring({1: 1, 2: 2}, 2))


def test_assignment_from_4colouring_property_sweep():
    found = 0
    seed = 0
    while found < 100 and seed < 3000:
        seed += 1
        f = generate_instance(seed, 5 + seed % 6, 2 + seed % 5)
        g = incidence_graph(f)
        colouring = find_k_colouring(g, 4)
        if colouring is None:
            continue
        witness = assignment_from_4colouring(f, colouring)
        assert nae_fault(f, witness) is None
        found += 1
    assert found == 100


def test_assignment_from_4colouring_checks_its_witness(monkeypatch):
    f = CnfFormula(3, [[1, 2, 3]])
    monkeypatch.setattr("naecut.solvers.nae_fault", lambda f, assignment: "stand-in")
    with pytest.raises(AssertionError, match="^two-colour-class split failed to satisfy the formula$"):
        assignment_from_4colouring(f, Colouring({1: 1, 2: 2, 3: 3}, 3))


def test_cut_from_4colouring_triangle():
    g = complete_graph(3)
    cut = cut_from_4colouring(g, Colouring({1: 1, 2: 2, 3: 3}, 3))
    assert cut == Cut(frozenset({1, 2}), frozenset({3}))


def test_cut_from_4colouring_bipartite():
    g = Graph(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
    cut = cut_from_4colouring(g, Colouring({1: 1, 2: 1, 3: 2, 4: 2}, 2))
    assert cut_fault(g, cut) is None


def test_cut_from_4colouring_rebalances_empty_side():
    g = Graph(3, [(1, 2), (2, 3)])
    cut = cut_from_4colouring(g, Colouring({1: 1, 2: 2, 3: 1}, 2))
    assert cut.side_b == frozenset({1})
    assert cut_fault(g, cut) is None
    # Only colours 3 and 4: every vertex starts on side B and vertex 1 moves to A.
    cut = cut_from_4colouring(g, Colouring({1: 3, 2: 4, 3: 3}, 4))
    assert cut == Cut(frozenset({1}), frozenset({2, 3}))


def test_cut_from_4colouring_rejects_improper():
    with pytest.raises(ValueError, match="^not a proper colouring of the graph: edge 1 2 is monochromatic$"):
        cut_from_4colouring(complete_graph(3), Colouring({1: 1, 2: 1, 3: 2}, 4))
    with pytest.raises(ValueError, match="^expected at most 4 colours, got 5$"):
        cut_from_4colouring(complete_graph(3), Colouring({1: 1, 2: 2, 3: 3}, 5))


def test_generator_single_possible_clause():
    f = generate_instance(1, 3, 1)
    assert list(f.clauses) == [(1, 2, 3)]


def test_generator_is_deterministic():
    a = generate_instance(42, 10, 12)
    b = generate_instance(42, 10, 12)
    assert a == b
    assert a != generate_instance(43, 10, 12)
    # Pinned output: a rewrite that shifts the random stream changes these.
    for args, digest in (
        ((3828074685, 12, 6), "44f3dfb014fcd160"),  # the first sweep trial
        ((5, 140, 294), "28c9696a39eae5aa"),
        ((2, 512, 768), "5fbb890ca0b9822e"),
        ((0, 5000, 7500), "cca6028a5ff940c8"),
    ):
        text = emit_cnf(generate_instance(*args))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, args


def test_witness_bytes_are_pinned():
    # The lex-min witness is unique, so a change to the search heuristics
    # must leave these bytes as they are; any change here is a wrong answer.
    def short(text):
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    for (seed, n), digest in (
        ((0, 100), "f738dd4d89faa044"),
        ((4, 110), "1e720b458185841a"),
        ((2, 130), "e5007944029dd125"),
        ((2, 140), "2313483fd3c441c4"),
        ((3, 100), "95e48c067f800115"),  # s NAE-UNSATISFIABLE
        ((1, 120), "95e48c067f800115"),
    ):
        f = generate_instance(seed, n, round(2.1 * n))
        assert short(emit_nae_witness(brute_force_nae(f, exhaustive_budget(n)))) == digest, (seed, n)
    _, g = _reduction_graph(0, 512)
    cut = brute_force_cut(g, exhaustive_budget(g.num_vertices))
    assert short(emit_cut_witness(cut)) == "a95bb4781ad52ce2"


def test_generator_rejects_impossible_sizes():
    with pytest.raises(ValueError, match="^need at least three variables$"):
        generate_instance(1, 2, 1)
    with pytest.raises(ValueError, match="^clause count must be non-negative$"):
        generate_instance(1, 3, -1)


def test_generator_feeds_the_pipeline():
    from naecut import check_properties

    f = generate_instance(7, 10, 12)
    out, _ = split_repeated_variables(f)
    assert check_properties(out).all_hold()


def test_witness_text_roundtrip():
    witness = {1: False, 2: False, 3: True}
    text = emit_nae_witness(witness)
    assert text == "s NAE-SATISFIABLE\nv -1 -2 3 0\n"
    assert parse_nae_witness(text, 3) == witness
    assert parse_nae_witness(emit_nae_witness(None), 3) is None

    cut = Cut(frozenset({3}), frozenset({1, 2}))
    text = emit_cut_witness(cut)
    assert text == "s CUT-FOUND\nv 3 0\n"
    assert parse_cut_witness(text, 3) == cut
    assert parse_cut_witness(emit_cut_witness(None), 3) is None

    # Comments, CRLF, bytes and lines other than `s`/`v` are accepted.  A line's
    # kind is its first token, exactly `s` or `v`: `v1 ...` and `values ...`
    # are ignored like any other line, and a tab may follow `s`.
    for nae_text, cut_text in (
        (
            "c x\r\no 7\r\ns NAE-SATISFIABLE\r\nv -1 -2\r\nv 3 0\r\n",
            "c x\r\no 7\r\ns CUT-FOUND\r\n\r\nv 3 0\r\n",
        ),
        (b"s NAE-SATISFIABLE\nv -1 -2 3 0\n", b"s CUT-FOUND\nv 3 0\n"),
        ("s NAE-SATISFIABLE\nvalues follow\nv -1 -2 3 0\n", "s CUT-FOUND\nvalues follow\nv 3 0\n"),
        ("s NAE-SATISFIABLE\nv1 1 1 0\nv -1 -2 3 0\n", "s CUT-FOUND\nv1 1 2 0\nv 3 0\n"),
        ("s\tNAE-SATISFIABLE\nv -1 -2 3 0\n", "s\tCUT-FOUND\nv 3 0\n"),
    ):
        assert parse_nae_witness(nae_text, 3) == witness
        assert parse_cut_witness(cut_text, 3) == cut
    assert parse_cut_witness("s CUT-FOUND\nv3 0\n", 3) == Cut(frozenset(), frozenset({1, 2, 3}))
    assert parse_cut_witness(b"s CUT-FOUND\nv 0\n", 3) == Cut(frozenset(), frozenset({1, 2, 3}))
    # The empty witness is written `v 0` like an empty side; without a `v` line it reads the same.
    assert emit_nae_witness({}) == "s NAE-SATISFIABLE\nv 0\n"
    assert parse_nae_witness("s NAE-SATISFIABLE\nv 0\n", 0) == parse_nae_witness("s NAE-SATISFIABLE\n", 0) == {}


def test_nae_witness_must_assign_exactly_the_variables():
    # The missing variable is named first, then the largest one beyond num_vars.
    with pytest.raises(ValueError, match="^assignment is missing variable 2$"):
        parse_nae_witness("s NAE-SATISFIABLE\nv 1 -3 9 0\n", 3)
    with pytest.raises(FormatError, match=r"^variable 99 out of range 1\.\.4$"):
        parse_nae_witness("s NAE-SATISFIABLE\nv -1 -2 3 -4 99 5 0\n", 4)
    with pytest.raises(FormatError, match=r"^variable 1 out of range 1\.\.0$"):
        parse_nae_witness("s NAE-SATISFIABLE\nv 1 0\n", 0)
    # A `v1 ...` line carries no values, so the witness it seems to hold is missing.
    with pytest.raises(ValueError, match="^assignment is missing variable 1$"):
        parse_nae_witness("s NAE-SATISFIABLE\nv1 2 -3 0\n", 3)
    # An unsatisfiable witness assigns nothing, whatever its `v` lines say.
    assert parse_nae_witness("s NAE-UNSATISFIABLE\nv 7 0\n", 3) is None


def test_witness_parse_error_cases():
    for text in (
        "v 1 0\n",  # missing status line
        "s MAYBE\nv 1 0\n",  # unknown status line
        "s NAE-SATISFIABLE\nv 1 2 -1 0\n",  # conflicting values
        b"s NAE-SATISFIABLE\nv 1 \xff 0\n",  # bytes that are not UTF-8
        "",
    ):
        with pytest.raises(FormatError):
            parse_nae_witness(text, 3)
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
        parse_nae_witness("s NAE-SATISFIABLE\nv 1 x 0\n", 3)
    with pytest.raises(FormatError):
        parse_cut_witness("s CUT-FOUND\nv 1 x 0\n", 3)


def test_returned_witnesses_are_always_valid():
    for seed in range(80):
        f = generate_instance(seed, 3 + seed % 9, 1 + seed % 10)
        witness = brute_force_nae(f, exhaustive_budget(f.num_vars))
        if witness is not None:
            assert nae_fault(f, witness) is None
        g = random_graph(seed, 3 + seed % 7)
        cut = brute_force_cut(g)
        if cut is not None:
            assert cut_fault(g, cut) is None
