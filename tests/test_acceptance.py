"""End-to-end acceptance sweeps.

Each test prints one `acceptance <criterion>: PASS/FAIL` line (visible with
`pytest -s` or in captured output).  The sweep corpus is seeded and fixed,
so every run works on the same 200 instances.
"""

import itertools
import random
import time

import pytest

from naecut import (
    brute_force_cut,
    brute_force_nae,
    build_graph,
    canonical_gadget,
    check_properties,
    Cut,
    construct_5_colouring,
    cut_from_4colouring,
    cut_from_vertex_assignment,
    emit_cut_witness,
    emit_nae_witness,
    enumerate_triangles,
    exhaustive_budget,
    extract_nae,
    find_k_colouring,
    gadget_certify,
    generate_instance,
    Graph,
    incidence_graph,
    lift_assignment,
    max_degree,
    occurrence_counts,
    project_assignment,
    split_repeated_variables,
)
from naecut.formula import nae_fault
from naecut.graphs import colouring_fault, cut_fault

from helpers import complete_graph, edge_list

SWEEP_SEED = 402280
SWEEP_TRIALS = 200
FASTPATH_SEED = 402281
FASTPATH_TRIALS = 100


def _randbelow(rng, bound):
    bits = bound.bit_length()
    r = rng.getrandbits(bits)
    while r >= bound:
        r = rng.getrandbits(bits)
    return r


def _build_sweep():
    """The 200-instance corpus with all per-instance artifacts, plus the
    wall-clock time spent on the formula-to-cut leg alone."""
    master = random.Random(SWEEP_SEED)
    records = []
    cut_leg_seconds = 0.0
    for _ in range(SWEEP_TRIALS):
        n = 3 + _randbelow(master, 12)       # n in [3, 14]
        m = 1 + _randbelow(master, 20)       # m in [1, 20]
        seed = master.getrandbits(32)
        f = generate_instance(seed, n, m)

        start = time.monotonic()
        witness = brute_force_nae(f, exhaustive_budget(f.num_vars))
        split, tm = split_repeated_variables(f)
        g, rm = build_graph(split)
        cut = brute_force_cut(g, exhaustive_budget(g.num_vertices))
        cut_leg_seconds += time.monotonic() - start

        extracted, _ = extract_nae(g)
        extracted_witness = brute_force_nae(
            extracted, exhaustive_budget(extracted.num_vars)
        )
        records.append(
            {
                "seed": seed,
                "n": n,
                "m": m,
                "f": f,
                "witness": witness,
                "split": split,
                "tm": tm,
                "g": g,
                "rm": rm,
                "cut": cut,
                "extracted": extracted,
                "extracted_witness": extracted_witness,
            }
        )
    return records, cut_leg_seconds


@pytest.fixture(scope="module")
def sweep():
    return _build_sweep()


def _report(name, ok):
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_formula_to_cut_equivalence(sweep):
    records, seconds = sweep
    agree = sum(
        1 for r in records if (r["witness"] is None) == (r["cut"] is None)
    )
    ok = agree == SWEEP_TRIALS and seconds < 60.0
    assert _report(
        f"1 formula<->cut equivalence {agree}/{SWEEP_TRIALS} in {seconds:.1f}s", ok
    )


def test_criterion_2_extraction_equivalence(sweep):
    records, _ = sweep
    agree = 0
    for r in records:
        if (r["witness"] is None) != (r["extracted_witness"] is None):
            continue
        if r["extracted_witness"] is not None:
            cut = cut_from_vertex_assignment(r["g"], r["extracted_witness"])
            if cut_fault(r["g"], cut) is not None:
                continue
        agree += 1
    ok = agree == SWEEP_TRIALS
    assert _report(f"2 extraction equivalence {agree}/{SWEEP_TRIALS}", ok)


def test_criterion_3_structural_guarantees(sweep):
    records, _ = sweep
    violations = 0
    for r in records:
        g, rm = r["g"], r["rm"]
        if max_degree(g) > 8:
            violations += 1
        colouring = construct_5_colouring(g, rm)
        if colouring_fault(g, colouring) is not None or colouring.k > 5:
            violations += 1
        if any(c > 7 for c in occurrence_counts(r["extracted"]).values()):
            violations += 1
        triangles = enumerate_triangles(g)
        for gd in rm.clause_gadget.values():
            for v in gd[2:]:
                if sum(1 for t in triangles if v in t) != 5:
                    violations += 1
    ok = violations == 0
    assert _report(f"3 structural guarantees ({violations} violations)", ok)


def test_criterion_4_transform_contract(sweep):
    records, _ = sweep
    properties_ok = sum(1 for r in records if check_properties(r["split"]).all_hold())
    roundtrip_ok = True
    for r in records:
        if r["witness"] is None:
            continue
        lifted = lift_assignment(r["tm"], r["witness"])
        if nae_fault(r["split"], lifted) is not None:
            roundtrip_ok = False
        if project_assignment(r["tm"], lifted) != r["witness"]:
            roundtrip_ok = False
    ok = properties_ok == SWEEP_TRIALS and roundtrip_ok
    assert _report(
        f"4 transform contract {properties_ok}/{SWEEP_TRIALS}, lift/project ok={roundtrip_ok}",
        ok,
    )


def test_criterion_5_gadget_certification():
    g, (x, y, a, b, _) = canonical_gadget()
    certificate = gadget_certify(g, x, y)
    with_xy = gadget_certify(Graph(5, edge_list(g) + [(x, y)]), x, y)
    without_ab = gadget_certify(Graph(5, [e for e in edge_list(g) if e != (a, b)]), x, y)
    ok = (
        certificate.all_ok()
        and not with_xy.endpoints_nonadjacent_degree_three
        and not without_ab.endpoints_together_in_every_cut
    )
    assert _report("5 gadget certification and mutations", ok)


def _fastpath_corpus():
    """100 seeded instances whose incidence graph is 4-colourable."""
    master = random.Random(FASTPATH_SEED)
    found = []
    while len(found) < FASTPATH_TRIALS:
        n = 5 + _randbelow(master, 6)        # n in [5, 10]
        m = 1 + _randbelow(master, 5)        # m in [1, 5]
        seed = master.getrandbits(32)
        f = generate_instance(seed, n, m)
        g = incidence_graph(f)
        colouring = find_k_colouring(g, 4)
        if colouring is None:
            continue
        found.append((f, g, colouring))
    return found


def test_criterion_6_four_colouring_fast_paths():
    from naecut import assignment_from_4colouring

    valid = 0
    for f, g, colouring in _fastpath_corpus():
        witness = assignment_from_4colouring(f, colouring)
        cut = cut_from_4colouring(g, colouring)
        if nae_fault(f, witness) is None and cut_fault(g, cut) is None:
            valid += 1
    ok = valid == FASTPATH_TRIALS
    assert _report(f"6 four-colouring fast paths {valid}/{FASTPATH_TRIALS}", ok)


def test_criterion_7a_k6_has_no_triangle_free_cut():
    start = time.monotonic()
    cut = brute_force_cut(complete_graph(6), exhaustive_budget(6))
    elapsed = time.monotonic() - start
    ok = cut is None and elapsed < 1.0
    assert _report(f"7a K6 no cut in {elapsed:.3f}s", ok)


def _first_cut_by_enumeration(g):
    """Lexicographically first triangle-free cut of g by plain enumeration:
    vertex 1 on side B, side bits of vertices 2..n in order, side B first."""
    n = g.num_vertices
    for bits in itertools.product((False, True), repeat=n - 1):
        side_a = frozenset(v for v, bit in zip(range(2, n + 1), bits) if bit)
        cut = Cut(side_a, frozenset(range(1, n + 1)) - side_a)
        if cut_fault(g, cut) is None:
            return cut
    return None


def test_criterion_7b_k5_cut_found():
    # Every bipartition of K5 leaves three mutually adjacent vertices on one
    # side, so K5 has no triangle-free cut, while K5 minus any one edge has one.
    k5 = complete_graph(5)
    edges = edge_list(k5)
    graphs = [k5] + [Graph(5, [e for e in edges if e != drop]) for drop in edges]
    start = time.monotonic()
    cuts = [brute_force_cut(g, exhaustive_budget(5)) for g in graphs]
    elapsed = time.monotonic() - start
    expected = [_first_cut_by_enumeration(g) for g in graphs]
    ok = (
        cuts == expected
        and expected[0] is None
        and expected[-1] == Cut(frozenset({3, 4, 5}), frozenset({1, 2}))
        and all(
            cut is not None and cut_fault(g, cut) is None
            for g, cut in zip(graphs[1:], cuts[1:])
        )
        and elapsed < 1.0
    )
    assert _report(
        f"7b K5 boundary: K5 no cut, K5-e cut found for "
        f"{sum(c is not None for c in cuts[1:])}/{len(graphs) - 1} edges "
        f"in {elapsed:.3f}s",
        ok,
    )


def test_criterion_8_determinism(sweep):
    records, _ = sweep

    def witness_blob(rs):
        parts = []
        for r in rs:
            parts.append(emit_nae_witness(r["witness"]))
            parts.append(emit_cut_witness(r["cut"]))
            parts.append(emit_nae_witness(r["extracted_witness"]))
        parts.append(emit_cut_witness(brute_force_cut(complete_graph(6), exhaustive_budget(6))))
        parts.append(emit_cut_witness(brute_force_cut(complete_graph(5), exhaustive_budget(5))))
        for f, g, colouring in _fastpath_corpus()[:10]:
            from naecut import assignment_from_4colouring

            parts.append(emit_nae_witness(assignment_from_4colouring(f, colouring)))
            parts.append(emit_cut_witness(cut_from_4colouring(g, colouring)))
        return "".join(parts).encode()

    first = witness_blob(records)
    rerun_records, _ = _build_sweep()
    second = witness_blob(rerun_records)
    ok = first == second
    assert _report(f"8 determinism ({len(first)} witness bytes)", ok)


def test_sweep_covers_the_required_ranges(sweep):
    records, _ = sweep
    ns = {r["n"] for r in records}
    ms = {r["m"] for r in records}
    assert min(ns) == 3 and max(ns) == 14
    assert min(ms) == 1 and max(ms) == 20
    assert any(r["witness"] is None for r in records)
    assert any(r["witness"] is not None for r in records)
