import ast
import gc
import itertools
import random
import re
import resource
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import naecut
from naecut import (
    BudgetExceeded,
    CnfFormula,
    FormatError,
    Graph,
    PropertyReport,
    assignment_to_cut,
    brute_force_cut,
    build_graph,
    canonical_gadget,
    construct_5_colouring,
    emit_cnf,
    emit_colouring,
    emit_cut_witness,
    emit_graph,
    emit_nae_witness,
    emit_reduction_map,
    emit_transform_map,
    generate_instance,
    lift_assignment,
    parse_colouring,
    parse_cnf,
    parse_cut_witness,
    parse_graph,
    parse_nae_witness,
    parse_reduction_map,
    split_repeated_variables,
)
from naecut import cli
from naecut.cli import main
from naecut.formula import nae_fault
from naecut.graphs import colouring_fault, cut_fault
from naecut.textio import MAX_COUNT

from helpers import complete_graph, edge_list

K3_CNF = "p cnf 3 1\n1 2 3 0\n"
SPLIT_CNF = "p cnf 5 2\n1 2 3 0\n1 4 5 0\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_transform_golden_output(tmp_path, capsys):
    src = tmp_path / "in.cnf"
    src.write_text(SPLIT_CNF)
    out = tmp_path / "out.cnf"
    map_file = tmp_path / "map.txt"
    code, _ = run(capsys, "transform", str(src), "-o", str(out), "--map", str(map_file))
    assert code == 0
    assert out.read_text() == (
        "p cnf 6 3\n1 2 3 0\n6 4 5 0\n1 -6 0\n"
        "c map 1 1 6\nc map 2 2\nc map 3 3\nc map 4 4\nc map 5 5\n"
    )
    assert map_file.read_text().splitlines()[0] == "map 1 1 6"


def test_transform_identity_to_stdout(tmp_path, capsys):
    src = tmp_path / "in.cnf"
    src.write_text(K3_CNF)
    code, out = run(capsys, "transform", str(src))
    assert code == 0
    assert out.startswith("p cnf 3 1\n1 2 3 0\n")


def test_transform_rejects_non_monotone(tmp_path, capsys):
    src = tmp_path / "in.cnf"
    src.write_text("p cnf 2 1\n1 -2 0\n")
    code, _ = run(capsys, "transform", str(src))
    assert code == 2


def test_reduce_single_clause_report(tmp_path, capsys):
    src = tmp_path / "in.cnf"
    src.write_text(K3_CNF)
    code, out = run(capsys, "reduce", str(src))
    assert code == 0
    assert "vertices 3" in out
    assert "max degree 2" in out
    assert "colours 3" in out


def test_reduce_writes_graph_and_map(tmp_path, capsys):
    src = tmp_path / "in.cnf"
    src.write_text(SPLIT_CNF)
    graph_file = tmp_path / "out.graph"
    map_file = tmp_path / "rmap.txt"
    code, out = run(
        capsys, "reduce", str(src), "-o", str(graph_file), "--map", str(map_file)
    )
    assert code == 0
    assert "vertices 9" in out and "edges 15" in out and "triangles 9" in out
    assert "max degree" in out and "colours" in out
    assert graph_file.read_text().startswith("p edge 9 15\n")
    assert "gad 3 1 6 7 8 9" in map_file.read_text()


def test_reduce_bounds_over_random_instances(tmp_path, capsys):
    for seed in (3, 5, 11):
        src = tmp_path / f"in{seed}.cnf"
        src.write_text(emit_cnf(generate_instance(seed, 9, 11)))
        code, out = run(capsys, "reduce", str(src))
        assert code == 0
        assert int(re.search(r"max degree (\d+)", out).group(1)) <= 8
        assert int(re.search(r"colours (\d+)", out).group(1)) <= 5


def test_reduce_non_monotone_input_requires_properties(tmp_path, capsys):
    # A non-monotone input is not split, so it must already have the split properties.
    src = tmp_path / "in.cnf"
    src.write_text("p cnf 4 2\n1 2 3 0\n1 -4 0\n")
    code, _ = run(capsys, "reduce", str(src))
    assert code == 2


def test_reduce_accepts_split_input(tmp_path, capsys):
    src = tmp_path / "in.cnf"
    src.write_text("p cnf 6 3\n1 2 3 0\n6 4 5 0\n1 -6 0\n")
    code, out = run(capsys, "reduce", str(src))
    assert code == 0
    assert "vertices 9" in out


def test_solve_nae_satisfiable(tmp_path, capsys):
    src = tmp_path / "in.cnf"
    src.write_text(K3_CNF)
    witness_file = tmp_path / "wit.txt"
    code, out = run(capsys, "solve-nae", str(src), "-o", str(witness_file))
    assert code == 0
    assert out == "s NAE-SATISFIABLE\nv -1 -2 3 0\n"
    assert witness_file.read_text() == out


def test_solve_nae_unsatisfiable(tmp_path, capsys):
    import itertools

    clauses = "".join(
        f"{a} {b} {c} 0\n" for a, b, c in itertools.combinations(range(1, 6), 3)
    )
    src = tmp_path / "in.cnf"
    src.write_text(f"p cnf 5 10\n{clauses}")
    code, out = run(capsys, "solve-nae", str(src))
    assert code == 1
    assert out == "s NAE-UNSATISFIABLE\n"


def test_empty_nae_witness_round_trips(tmp_path, capsys):
    # The formula without variables has the empty witness, written `v 0`
    # like an empty cut side; it verifies there and nowhere with variables.
    src = tmp_path / "empty.cnf"
    src.write_text("p cnf 0 0\n")
    witness_file = tmp_path / "wit.txt"
    assert run(capsys, "solve-nae", str(src), "-o", str(witness_file)) == (0, "s NAE-SATISFIABLE\nv 0\n")
    assert run(capsys, "verify", "assignment", str(src), str(witness_file)) == (0, "valid assignment\n")
    src.write_text(K3_CNF)
    assert main(["verify", "assignment", str(src), str(witness_file)]) == 2
    assert capsys.readouterr() == ("", "error: assignment is missing variable 1\n")


def test_solve_cut_found_and_not_found(tmp_path, capsys):
    k3 = tmp_path / "k3.graph"
    k3.write_text("p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    code, out = run(capsys, "solve-cut", str(k3))
    assert code == 0
    assert out == "s CUT-FOUND\nv 3 0\n"

    k6_edges = [(u, v) for u in range(1, 7) for v in range(u + 1, 7)]
    k6 = tmp_path / "k6.graph"
    k6.write_text(
        "p edge 6 15\n" + "".join(f"e {u} {v}\n" for u, v in k6_edges)
    )
    code, out = run(capsys, "solve-cut", str(k6))
    assert code == 1
    assert out == "s NO-CUT\n"


def test_solve_budget_exceeded_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NAE_REDUCE_BUDGET", "4")
    src = tmp_path / "in.cnf"
    src.write_text(K3_CNF)
    code, _ = run(capsys, "solve-nae", str(src))
    assert code == 3


@pytest.mark.parametrize(
    "command, size, budget, code, expected",
    [
        ("solve-nae", 24, None, 0, "s NAE-SATISFIABLE\nv -1 "),
        ("solve-nae", 25, None, 3, "error: 2^25 candidate assignments exceed the budget of 16777216 states\n"),
        ("solve-nae", 25, "33554432", 0, "s NAE-SATISFIABLE\nv -1 "),
        ("solve-cut", 25, None, 0, "s CUT-FOUND\nv 25 0\n"),
        ("solve-cut", 26, None, 3, "error: 2^25 candidate cuts exceed the budget of 16777216 states\n"),
    ],
)
def test_default_budget_refuses_25_variables_and_26_vertices_up_front(
    tmp_path, capsys, monkeypatch, command, size, budget, code, expected
):
    # The default budget is 2^24 states: 2^n assignments, or 2^(n-1) cuts with
    # vertex 1 pinned, are checked against it before any search.
    if budget is not None:
        monkeypatch.setenv("NAE_REDUCE_BUDGET", budget)
    if command == "solve-nae":
        src = tmp_path / "in.cnf"
        src.write_text(emit_cnf(generate_instance(0, size, size)))
    else:
        src = _path_graph(tmp_path, size)
    assert main([command, str(src)]) == code
    captured = capsys.readouterr()
    assert (captured.out if code == 0 else captured.err).startswith(expected)
    assert (captured.err if code == 0 else captured.out) == ""


def test_color_command(tmp_path, capsys):
    k3 = tmp_path / "k3.graph"
    k3.write_text("p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    code, out = run(capsys, "color", str(k3), "-k", "3")
    assert code == 0
    assert out == "s COLOURING-FOUND\nk 3\n1 1\n2 2\n3 3\n"
    code, out = run(capsys, "color", str(k3), "-k", "2")
    assert code == 1
    assert out == "s NO-COLOURING\n"


def test_color_budget(tmp_path, capsys):
    k8 = tmp_path / "k8.graph"
    k8.write_text(emit_graph(complete_graph(8)))
    code, out = run(capsys, "color", str(k8), "-k", "7", "--budget", "10")
    assert (code, out) == (3, "")
    # A non-positive budget is a usage error, as for NAE_REDUCE_BUDGET.
    assert run(capsys, "color", str(k8), "-k", "7", "--budget", "0")[0] == 2


def _path_graph(tmp_path, n):
    path = tmp_path / f"path{n}.graph"
    path.write_text(f"p edge {n} {n - 1}\n" + "".join(f"e {v} {v + 1}\n" for v in range(1, n)))
    return path


def test_internal_error_exits_4_not_no(tmp_path, capsys, monkeypatch):
    # A crash is not an answer: it must not be reported as "no colouring".
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("naecut.cli.find_k_colouring", crash)
    code = main(["color", str(_path_graph(tmp_path, 3)), "-k", "2"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "error: internal error: RuntimeError: boom\n"


# Deep inputs: both searches keep their state on an explicit stack, so a
# 3000-vertex path gets its answer instead of a RecursionError.

def test_color_long_path(tmp_path, capsys):
    code, out = run(capsys, "color", str(_path_graph(tmp_path, 3000)), "-k", "2")
    assert code == 0
    assert out == "s COLOURING-FOUND\nk 2\n" + "".join(f"{v} {2 - v % 2}\n" for v in range(1, 3001))


def test_solve_cut_long_path(tmp_path, capsys, monkeypatch):
    # No triangles, so the smallest cut puts only the last vertex on side A.
    monkeypatch.setenv("NAE_REDUCE_BUDGET", str(2**3000))
    code, out = run(capsys, "solve-cut", str(_path_graph(tmp_path, 3000)))
    assert code == 0
    assert out == "s CUT-FOUND\nv 3000 0\n"


def test_triangles_command(tmp_path, capsys):
    k3 = tmp_path / "k3.graph"
    k3.write_text("p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    code, out = run(capsys, "triangles", str(k3))
    assert code == 0
    assert out == "triangles 1\nt 1 2 3\n"


def test_verify_assignment(tmp_path, capsys):
    src = tmp_path / "f.cnf"
    src.write_text(K3_CNF)
    good = tmp_path / "good.txt"
    good.write_text("s NAE-SATISFIABLE\nv -1 -2 3 0\n")
    assert run(capsys, "verify", "assignment", str(src), str(good))[0] == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("s NAE-SATISFIABLE\nv 1 2 3 0\n")
    code, out = run(capsys, "verify", "assignment", str(src), str(bad))
    assert code == 1
    assert out == "invalid: clause 1 (1 2 3) has all-equal values\n"
    # The first all-equal clause is named, and a witness missing a variable is a format error.
    src.write_text("p cnf 4 2\n1 2 3 0\n2 3 4 0\n")
    bad.write_text("s NAE-SATISFIABLE\nv 1 -2 -3 -4 0\n")
    assert run(capsys, "verify", "assignment", str(src), str(bad)) == (
        1,
        "invalid: clause 2 (2 3 4) has all-equal values\n",
    )
    bad.write_text("s NAE-SATISFIABLE\nv 1 -2 -3 0\n")
    assert run(capsys, "verify", "assignment", str(src), str(bad)) == (2, "")
    # So is one naming a variable the formula lacks.
    bad.write_text("s NAE-SATISFIABLE\nv -1 -2 3 -4 99 0\n")
    assert main(["verify", "assignment", str(src), str(bad)]) == 2
    assert capsys.readouterr() == ("", "error: variable 99 out of range 1..4\n")


def test_verify_assignment_equality_clause_violation(tmp_path, capsys):
    src = tmp_path / "f.cnf"
    src.write_text("p cnf 6 3\n1 2 3 0\n6 4 5 0\n1 -6 0\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("s NAE-SATISFIABLE\nv 1 -2 -3 -4 5 -6 0\n")
    code, out = run(capsys, "verify", "assignment", str(src), str(bad))
    assert code == 1
    assert "clause 3" in out


def test_verify_cut_prints_offending_triangle(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    graph.write_text(
        "p edge 5 6\ne 1 2\ne 1 3\ne 2 3\ne 1 4\ne 1 5\ne 4 5\n"
    )
    good = tmp_path / "good.txt"
    good.write_text("s CUT-FOUND\nv 1 0\n")
    assert run(capsys, "verify", "cut", str(graph), str(good))[0] == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("s CUT-FOUND\nv 1 2 3 0\n")
    code, out = run(capsys, "verify", "cut", str(graph), str(bad))
    assert code == 1
    assert "monochromatic triangle 1 2 3" in out


def test_verify_cut_cross_checks_assignment_via_map(tmp_path, capsys):
    src = tmp_path / "in.cnf"
    src.write_text(SPLIT_CNF)
    cnf2 = tmp_path / "split.cnf"
    graph_file = tmp_path / "g.graph"
    map_file = tmp_path / "rmap.txt"
    assert run(capsys, "transform", str(src), "-o", str(cnf2))[0] == 0
    assert run(
        capsys, "reduce", str(cnf2), "-o", str(graph_file), "--map", str(map_file),
    )[0] == 0
    wit_file = tmp_path / "wit.txt"
    assert run(capsys, "solve-nae", str(cnf2), "-o", str(wit_file))[0] == 0
    cut_file = tmp_path / "cut.txt"
    assert run(capsys, "solve-cut", str(graph_file), "-o", str(cut_file))[0] == 0
    code, _ = run(
        capsys, "verify", "cut", str(graph_file), str(cut_file),
        "--map", str(map_file), "--assignment", str(wit_file),
    )
    assert code == 0
    # Without --assignment the map is only checked to describe the graph.
    argv = ("verify", "cut", str(graph_file), str(cut_file), "--map", str(map_file))
    assert run(capsys, *argv) == (0, "valid cut\n")

    # The map of another formula's graph is a format error.
    k3 = tmp_path / "k3.cnf"
    k3.write_text(K3_CNF)
    other_map = tmp_path / "k3.rmap"
    assert run(capsys, "reduce", str(k3), "--map", str(other_map))[0] == 0
    assert main(["verify", "cut", str(graph_file), str(cut_file), "--map", str(other_map)]) == 2
    assert "reduction map does not describe this graph" in capsys.readouterr().err

    # An assignment with variable 1 flipped disagrees with the cut there alone.
    wit = parse_nae_witness(wit_file.read_text(), 6)
    flipped = tmp_path / "flipped.txt"
    flipped.write_text(emit_nae_witness({**wit, 1: not wit[1]}))
    code, out = run(
        capsys, "verify", "cut", str(graph_file), str(cut_file),
        "--map", str(map_file), "--assignment", str(flipped),
    )
    assert code == 1
    assert out == "invalid: cut disagrees with assignment on variables [1]\n"

    # The map does not excuse a monochromatic triangle: clause 1 2 3 is one.
    mono = tmp_path / "mono.txt"
    mono.write_text("s CUT-FOUND\nv 1 2 3 0\n")
    code, out = run(
        capsys, "verify", "cut", str(graph_file), str(mono),
        "--map", str(map_file), "--assignment", str(wit_file),
    )
    assert code == 1
    assert out == "invalid: monochromatic triangle 1 2 3\n"


def test_verify_coloring(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    graph.write_text("p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    cert = tmp_path / "c.txt"
    cert.write_text("k 3\n1 1\n2 2\n3 3\n")
    assert run(capsys, "verify", "coloring", str(graph), str(cert))[0] == 0
    cert.write_text("k 3\n1 1\n2 1\n3 3\n")
    code, out = run(capsys, "verify", "coloring", str(graph), str(cert))
    assert code == 1
    assert out == "invalid: edge 1 2 is monochromatic\n"
    graph.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    # Vertices 1 and 2 are uncoloured: edge 1 2 is not monochromatic.
    cert.write_text("k 3\n3 1\n")
    assert run(capsys, "verify", "coloring", str(graph), str(cert)) == (
        1,
        "invalid: colouring is partial or uses colours outside 1..k\n",
    )
    # A partial colouring with a real monochromatic edge still names that edge.
    cert.write_text("k 3\n2 1\n3 1\n")
    assert run(capsys, "verify", "coloring", str(graph), str(cert)) == (
        1,
        "invalid: edge 2 3 is monochromatic\n",
    )
    # A proper colouring that also colours vertices the path lacks is invalid.
    cert.write_text("k 2\n1 1\n2 2\n3 1\n99 7\n0 5\n")
    assert run(capsys, "verify", "coloring", str(graph), str(cert)) == (
        1,
        "invalid: vertex 0 out of range 1..3\n",
    )


def test_verify_assignment_through_the_transform_map(tmp_path, capsys):
    src = tmp_path / "in.cnf"
    src.write_text(SPLIT_CNF)
    split = tmp_path / "split.cnf"
    map_file = tmp_path / "tmap.txt"
    assert run(capsys, "transform", str(src), "-o", str(split), "--map", str(map_file))[0] == 0
    wit = tmp_path / "wit.txt"
    wit.write_text("s NAE-SATISFIABLE\nv -1 -2 3 -4 5 -6 0\n")
    argv = ("verify", "assignment", str(split), str(wit), "--map", str(map_file))
    assert run(capsys, *argv) == (0, "valid assignment\n")
    # Variable 1 and its copy 6 disagree: the chain is named before any clause.
    wit.write_text("s NAE-SATISFIABLE\nv -1 -2 3 -4 5 6 0\n")
    assert run(capsys, *argv) == (
        1,
        "invalid: equality chain violated: copies of variable 1 disagree\n",
    )


def test_verify_assignment_reads_a_tab_separated_map(tmp_path, capsys, monkeypatch):
    # A map line is one whose first token is `map`, or `c` and then `map`.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.cnf").write_text(SPLIT_CNF)
    assert run(capsys, "transform", "in.cnf", "-o", "split.cnf", "--map", "tmap.txt")[0] == 0
    (tmp_path / "wit.txt").write_text("s NAE-SATISFIABLE\nv -1 -2 3 -4 5 -6 0\n")
    tabbed = (tmp_path / "tmap.txt").read_text().replace(" ", "\t")
    (tmp_path / "tab.txt").write_text(tabbed)
    (tmp_path / "ctab.txt").write_text("".join(f"c\t{line}\n" for line in tabbed.splitlines()))
    for tmap in ("tab.txt", "ctab.txt"):
        argv = ("verify", "assignment", "split.cnf", "wit.txt", "--map", tmap)
        assert run(capsys, *argv) == (0, "valid assignment\n")


@pytest.mark.parametrize(
    "cnf, tmap, witness",
    [
        # The map names a copy, 9, that the formula does not have.
        (K3_CNF, "map 1 1 9\nmap 2 2\nmap 3 3\n", "v -1 -2 3 0"),
        # The map's copies leave out variable 4 of the formula.
        ("p cnf 5 1\n1 2 3 0\n", "map 1 1 5\nmap 2 2\nmap 3 3\n", "v -1 -2 3 4 -5 0"),
    ],
    ids=["extra copy", "gap"],
)
def test_verify_assignment_rejects_a_map_that_does_not_describe_the_formula(
    tmp_path, capsys, monkeypatch, cnf, tmap, witness
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.cnf").write_text(cnf)
    (tmp_path / "tmap.txt").write_text(tmap)
    (tmp_path / "wit.txt").write_text(f"s NAE-SATISFIABLE\n{witness}\n")
    assert main(["verify", "assignment", "f.cnf", "wit.txt", "--map", "tmap.txt"]) == 2
    assert capsys.readouterr() == ("", "error: transform map does not describe this formula\n")


def test_verify_rejects_certificates_that_carry_no_witness(tmp_path, capsys):
    src = tmp_path / "f.cnf"
    src.write_text(K3_CNF)
    unsat = tmp_path / "unsat.txt"
    unsat.write_text("s NAE-UNSATISFIABLE\n")
    assert main(["verify", "assignment", str(src), str(unsat)]) == 2
    assert capsys.readouterr().err == "error: certificate carries no assignment\n"
    graph = tmp_path / "k3.graph"
    graph.write_text("p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    no_cut = tmp_path / "nocut.txt"
    no_cut.write_text("s NO-CUT\n")
    assert main(["verify", "cut", str(graph), str(no_cut)]) == 2
    assert capsys.readouterr().err == "error: certificate carries no cut\n"
    # A cross-check against an assignment that is not there is a format error too.
    rmap = tmp_path / "k3.rmap"
    assert run(capsys, "reduce", str(src), "-o", str(graph), "--map", str(rmap))[0] == 0
    cut = tmp_path / "cut.txt"
    cut.write_text("s CUT-FOUND\nv 3 0\n")
    argv = ["verify", "cut", str(graph), str(cut), "--map", str(rmap), "--assignment", str(unsat)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: assignment certificate carries no assignment\n")


def test_verify_cut_refuses_a_map_no_reduction_writes(tmp_path, capsys, monkeypatch):
    # The map's triangle names vertex 7 and its gadget apex 9, neither a variable
    # 1..2.  Its own graph, that graph's smallest cut and the witness read off the
    # cut once made `verify cut` print `valid cut`.
    monkeypatch.chdir(tmp_path)
    gadget = [(9, 3), (9, 4), (9, 5), (2, 3), (2, 4), (2, 5), (3, 4), (4, 5), (3, 5)]
    g = Graph(9, [(1, 2), (1, 7), (2, 7), *gadget])
    cut = brute_force_cut(g)
    (tmp_path / "g.col").write_text(emit_graph(g))
    (tmp_path / "cut.txt").write_text(emit_cut_witness(cut))
    (tmp_path / "w.txt").write_text(emit_nae_witness({x: x in cut.side_a for x in (1, 2)}))
    (tmp_path / "m.txt").write_text("var 1 1\nvar 2 2\ntri 1 1 2 7\ngad 2 9 2 3 4 5\n")
    assert main(["verify", "cut", "g.col", "cut.txt", "--map", "m.txt", "--assignment", "w.txt"]) == 2
    assert capsys.readouterr() == ("", "error: clause 1 names vertex 7, not a variable 1..2\n")


def test_verify_cut_refuses_a_gadget_face_that_skips_an_id(tmp_path, capsys, monkeypatch):
    # The face {6, 7, 8} skips vertex 5; the map describes its own graph and the cut
    # is valid, but no reduction numbers a gadget so.
    monkeypatch.chdir(tmp_path)
    gadget = [(3, 6), (3, 7), (3, 8), (4, 6), (4, 7), (4, 8), (6, 7), (7, 8), (6, 8)]
    g = Graph(8, [(1, 2), (1, 3), (2, 3), *gadget])
    (tmp_path / "g.col").write_text(emit_graph(g))
    (tmp_path / "cut.txt").write_text(emit_cut_witness(brute_force_cut(g)))
    (tmp_path / "m.txt").write_text("var 1 1\nvar 2 2\nvar 3 3\nvar 4 4\ntri 1 1 2 3\ngad 2 3 4 6 7 8\n")
    assert main(["verify", "cut", "g.col", "cut.txt", "--map", "m.txt"]) == 2
    assert capsys.readouterr() == ("", "error: clause 2 puts vertex 6 inside its gadget, not 5\n")


def test_input_that_is_not_utf8_is_a_format_error(tmp_path, capsys):
    src = tmp_path / "in.cnf"
    src.write_bytes(b"p cnf 3 1\n1 2 3 0\nc \xff\n")
    assert main(["solve-nae", str(src)]) == 2
    out, err = capsys.readouterr()
    assert (out, err.startswith("error: input is not UTF-8: ")) == ("", True), err


def test_color_writes_the_certificate(tmp_path, capsys):
    k3 = tmp_path / "k3.graph"
    k3.write_text("p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    cert = tmp_path / "c.txt"
    code, out = run(capsys, "color", str(k3), "-k", "3", "-o", str(cert))
    assert code == 0
    assert cert.read_text() == "k 3\n1 1\n2 2\n3 3\n"
    assert out == "s COLOURING-FOUND\n" + cert.read_text()


def test_budget_variable_must_be_an_integer(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NAE_REDUCE_BUDGET", "abc")
    src = tmp_path / "in.cnf"
    src.write_text(K3_CNF)
    assert main(["solve-nae", str(src)]) == 2
    assert capsys.readouterr() == (
        "",
        "error: NAE_REDUCE_BUDGET must be a positive integer, got 'abc'\n",
    )


@pytest.mark.parametrize(
    "kind, cert, expected",
    [
        ("assignment", "s NAE-SATISFIABLE\nvalues follow\nv -1 -2 3 0\n", (0, "valid assignment\n")),
        ("assignment", "s\tNAE-SATISFIABLE\nv -1 -2 3 0\n", (0, "valid assignment\n")),
        ("assignment", "s NAE-SATISFIABLE\nv1 2 -3 0\n", (2, "error: assignment is missing variable 1\n")),
        ("cut", "s CUT-FOUND\nvalues follow\nv 3 0\n", (0, "valid cut\n")),
        ("cut", "s\tCUT-FOUND\nv 3 0\n", (0, "valid cut\n")),
        ("cut", "s CUT-FOUND\nv3 0\n", (1, "invalid: one side of the cut is empty\n")),
    ],
    ids=["nae values line", "nae tab", "nae v1 line", "cut values line", "cut tab", "cut v3 line"],
)
def test_verify_reads_a_witness_line_by_its_first_token(tmp_path, capsys, monkeypatch, kind, cert, expected):
    # Only a first token of exactly `s` or `v` makes a status or value line.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k3.cnf").write_text(K3_CNF)
    (tmp_path / "k3.graph").write_text("p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    (tmp_path / "cert.txt").write_text(cert)
    code = main(["verify", kind, "k3.cnf" if kind == "assignment" else "k3.graph", "cert.txt"])
    out, err = capsys.readouterr()
    assert (code, out + err) == expected


def test_zero_variable_maps_read_back(tmp_path, capsys, monkeypatch):
    # The formula without variables has empty maps; they describe it and nothing larger.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "z.cnf").write_text("p cnf 0 0\n")
    assert run(capsys, "transform", "z.cnf", "-o", "s0.cnf", "--map", "m0.txt")[0] == 0
    assert run(capsys, "reduce", "z.cnf", "--map", "r0.txt")[0] == 0
    assert (tmp_path / "m0.txt").read_text() == (tmp_path / "r0.txt").read_text() == "\n"
    assert run(capsys, "solve-nae", "s0.cnf", "-o", "w0.txt")[0] == 0
    argv = ["verify", "assignment", "s0.cnf", "w0.txt", "--map", "m0.txt"]
    assert run(capsys, *argv) == (0, "valid assignment\n")
    (tmp_path / "k3.cnf").write_text(K3_CNF)
    assert run(capsys, "solve-nae", "k3.cnf", "-o", "w.txt")[0] == 0
    assert main(["verify", "assignment", "k3.cnf", "w.txt", "--map", "m0.txt"]) == 2
    assert capsys.readouterr() == ("", "error: transform map does not describe this formula\n")
    assert run(capsys, "reduce", "k3.cnf", "-o", "k3.graph")[0] == 0
    assert run(capsys, "solve-cut", "k3.graph", "-o", "cut.txt")[0] == 0
    assert main(["verify", "cut", "k3.graph", "cut.txt", "--map", "r0.txt"]) == 2
    assert capsys.readouterr() == ("", "error: reduction map does not describe this graph\n")


def test_verify_rejects_malformed_certificate(tmp_path, capsys):
    src = tmp_path / "f.cnf"
    src.write_text(K3_CNF)
    cert = tmp_path / "c.txt"
    cert.write_text("garbage\n")
    assert run(capsys, "verify", "assignment", str(src), str(cert))[0] == 2
    cert.write_text("s NAE-SATISFIABLE\nv 1 x 0\n")
    assert run(capsys, "verify", "assignment", str(src), str(cert))[0] == 2


def test_roundtrip_all_pass(capsys):
    code, out = run(
        capsys, "roundtrip", "--seed", "5", "-n", "10", "-m", "8", "--trials", "12"
    )
    assert code == 0
    assert "trials 12 passed 12 failed 0" in out


def test_roundtrip_zero_trials(capsys):
    code, out = run(capsys, "roundtrip", "--seed", "1", "-n", "5", "-m", "3", "--trials", "0")
    assert code == 0
    assert "trials 0 passed 0 failed 0" in out


def test_roundtrip_rejects_a_negative_trial_count(capsys):
    assert main(["roundtrip", "-n", "5", "-m", "3", "--trials", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: trial count must be non-negative\n")


def test_roundtrip_break_gadget_detects_failures(capsys, monkeypatch):
    # n=4, m=6 guarantees repeated variables and therefore gadgets; trial 3
    # (one clause, no repeated variable) has no gadget to break.
    argv = ["roundtrip", "--seed", "5", "-n", "4", "-m", "6", "--trials", "6"]
    assert run(capsys, *argv) == (0, (
        "trial 0 seed 1539898300 n 4 m 6 ok\n"
        "trial 1 seed 3332716663 n 3 m 4 ok\n"
        "trial 2 seed 222708024 n 3 m 6 ok\n"
        "trial 3 seed 1596840319 n 3 m 1 ok\n"
        "trial 4 seed 1635342798 n 4 m 2 ok\n"
        "trial 5 seed 1070867289 n 3 m 5 ok\n"
        "trials 6 passed 6 failed 0\n"
    ))

    # Without edge (a, b) a gadget's interior lies in too few triangles, and
    # the cut found on the broken graph is no triangle-free cut of the real one.
    def build_broken_graph(f):
        g, rm = build_graph(f)
        drop = {gd[2:4] for gd in rm.clause_gadget.values()}
        return Graph(g.num_vertices, [e for e in edge_list(g) if e not in drop]), rm

    monkeypatch.setattr(cli, "build_graph", build_broken_graph)
    assert run(capsys, *argv) == (1, (
        "trial 0 seed 1539898300 n 4 m 6 FAIL gadget-triangles,cut-witness\n"
        "trial 1 seed 3332716663 n 3 m 4 FAIL gadget-triangles,cut-witness\n"
        "trial 2 seed 222708024 n 3 m 6 FAIL gadget-triangles,cut-witness\n"
        "trial 3 seed 1596840319 n 3 m 1 ok\n"
        "trial 4 seed 1635342798 n 4 m 2 FAIL gadget-triangles,cut-witness\n"
        "trial 5 seed 1070867289 n 3 m 5 FAIL gadget-triangles,cut-witness\n"
        "trials 6 passed 1 failed 5\n"
    ))
    # `roundtrip` has no option that breaks gadgets.
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--break-gadget"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --break-gadget" in capsys.readouterr().err


@pytest.mark.parametrize("command, noun", [("solve-nae", "cnf"), ("solve-cut", "graph")])
def test_solve_usage_names_its_input(capsys, command, noun):
    usage = f"usage: naecut {command} [-h] [-o OUTPUT] {noun}\n"
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"{usage}naecut {command}: error: the following arguments are required: {noun}\n"
    )
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"{usage}\npositional arguments:\n  {noun}\n")


@pytest.mark.parametrize(
    "command, oracle, text, expected",
    [
        ("solve-nae", "brute_force_nae", K3_CNF, "s NAE-UNSATISFIABLE\n"),
        ("solve-cut", "brute_force_cut", "p edge 2 0\n", "s NO-CUT\n"),
    ],
)
def test_solve_calls_the_oracle_bound_at_call_time(
    tmp_path, capsys, monkeypatch, command, oracle, text, expected
):
    # A tracer wraps a library function by rebinding its name on naecut.cli, so the
    # solve command must look the oracle up when it runs, not when it is defined.
    src = tmp_path / "in.txt"
    src.write_text(text)
    monkeypatch.setattr(cli, oracle, lambda obj, budget: None)
    assert run(capsys, command, str(src)) == (1, expected)


def _nth_call(n, result):
    """A stand-in whose n-th call returns `result`; its other calls run the real function."""
    def stand_in(real):
        calls = itertools.count(1)
        return lambda *args: result if next(calls) == n else real(*args)
    return stand_in


def _always(result):
    return lambda real: lambda *args: result


def _raise_value_error(*args):
    raise ValueError("stand-in")


# Failure label -> (the name in naecut.cli to replace, a stand-in made from the real one).
# Each stand-in breaks one check of a trial whose formula, split formula and extracted
# formula are all NAE-satisfiable and whose graph has gadgets, so no other check fails.
_TRIAL_FAULTS = {
    "split-properties": ("check_properties", _always(PropertyReport(False, *[True] * 5))),
    "split-equivalence": ("brute_force_nae", _nth_call(2, None)),
    "lifted-witness": ("nae_fault", _nth_call(1, "stand-in")),
    "lift-project-roundtrip": ("project_assignment", _always({})),
    "degree-bound": ("max_degree", _always(9)),
    "colour-bound": ("construct_5_colouring", _always(SimpleNamespace(k=6))),
    "gadget-triangles": ("occurrence_counts", lambda real: lambda f: dict.fromkeys(real(f), 4)),
    "cut-equivalence": ("brute_force_cut", _always(None)),
    "cut-witness": ("nae_fault", _nth_call(2, "stand-in")),
    "extraction-equivalence": ("brute_force_nae", _nth_call(3, None)),
    "extraction-cut": ("cut_from_vertex_assignment", lambda real: _raise_value_error),
    "extraction-occurrences": ("occurrence_counts", lambda real: lambda f: {**real(f), 1: 8}),
}


@pytest.mark.parametrize("label", _TRIAL_FAULTS)
def test_roundtrip_names_each_failed_check(capsys, monkeypatch, label):
    name, stand_in = _TRIAL_FAULTS[label]
    monkeypatch.setattr(cli, name, stand_in(getattr(cli, name)))
    argv = ["roundtrip", "--seed", "0", "-n", "6", "-m", "4", "--trials", "1"]
    assert run(capsys, *argv) == (1, (
        f"trial 0 seed 173879092 n 6 m 4 FAIL {label}\n"
        "trials 1 passed 0 failed 1\n"
    ))


def test_exit_code_2_on_missing_file(capsys):
    assert run(capsys, "solve-nae", "/nonexistent/x.cnf")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "assignment", "split.cnf", "wit.txt"],
        ["verify", "assignment", "split.cnf", "wit.txt", "--map", "tmap.txt"],
        ["verify", "cut", "g.graph", "cut.txt", "--map", "rmap.txt", "--assignment", "wit.txt"],
    ],
    ids=["assignment", "assignment --map", "cut --map --assignment"],
)
def test_witness_missing_a_variable_is_exit_2_on_every_path(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.cnf").write_text(SPLIT_CNF)
    assert run(capsys, "transform", "in.cnf", "-o", "split.cnf", "--map", "tmap.txt")[0] == 0
    assert run(capsys, "reduce", "split.cnf", "-o", "g.graph", "--map", "rmap.txt")[0] == 0
    assert run(capsys, "solve-cut", "g.graph", "-o", "cut.txt")[0] == 0
    # A witness of the original formula: it lacks variable 6, the split copy of variable 1.
    (tmp_path / "wit.txt").write_text("s NAE-SATISFIABLE\nv -1 -2 3 -4 5 0\n")
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: assignment is missing variable 6\n")
    # With variable 6 the witness fits; naming variable 99 as well, it does
    # not, as a cut naming a vertex outside the graph does not.
    (tmp_path / "wit.txt").write_text("s NAE-SATISFIABLE\nv -1 -2 3 -4 5 -6 0\n")
    assert main(argv) == 0
    capsys.readouterr()
    (tmp_path / "wit.txt").write_text("s NAE-SATISFIABLE\nv -1 -2 3 -4 5 -6 99 0\n")
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: variable 99 out of range 1..6\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cut", "graph", "cut", "--assignment", "absent"], "verify cut reads --assignment only with --map"),
        (["coloring", "graph", "col", "--map", "absent"], "verify coloring does not read --map"),
        (["coloring", "graph", "col", "--assignment", "absent"], "verify coloring does not read --assignment"),
        (["assignment", "split", "wit_split", "--assignment", "absent"],
         "verify assignment does not read --assignment"),
    ],
    ids=["cut --assignment", "coloring --map", "coloring --assignment", "assignment --assignment"],
)
def test_verify_refuses_an_option_its_kind_never_reads(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    for name, data in _planted_inputs(5, 6).items():
        (tmp_path / name).write_bytes(data)
    # Without the option the certificate is valid; with it, the option is
    # named before any file is read, so its missing file is never opened.
    noun = {"coloring": "colouring"}.get(argv[0], argv[0])
    assert run(capsys, "verify", *argv[:3]) == (0, f"valid {noun}\n")
    assert main(["verify", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _run_process(argv, cwd, address_space=None):
    """Run `python -S -m naecut.cli` as a script would: no site-packages, naecut from source."""
    env = {"PYTHONPATH": str(Path(naecut.__file__).parents[1])}
    cap = None if address_space is None else (
        lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
    )
    return subprocess.run(
        [sys.executable, "-S", "-m", "naecut.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap,
    )


def test_the_process_exit_code_is_the_verdict(tmp_path):
    # Under -S only the standard library is importable, so this also pins that
    # naecut needs nothing else.
    (tmp_path / "in.cnf").write_text(K3_CNF)
    (tmp_path / "bad.txt").write_text("s NAE-SATISFIABLE\nv 1 2 3 0\n")
    done = _run_process(["solve-nae", "in.cnf"], tmp_path)
    assert (done.returncode, done.stdout) == (0, "s NAE-SATISFIABLE\nv -1 -2 3 0\n")
    done = _run_process(["verify", "assignment", "in.cnf", "bad.txt"], tmp_path)
    assert (done.returncode, done.stdout) == (1, "invalid: clause 1 (1 2 3) has all-equal values\n")
    done = _run_process(["solve-nae", "missing.cnf"], tmp_path)
    assert done.returncode == 2 and done.stderr.startswith("error: ")


def test_the_package_imports_only_the_standard_library():
    # `dependencies = []` in pyproject.toml: every absolute import in the
    # package names a standard-library module.
    paths = sorted(Path(naecut.__file__).parent.glob("*.py"))
    imported = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    assert len(paths) >= 9 and {"argparse", "heapq"} <= imported
    assert imported <= sys.stdlib_module_names, imported - sys.stdlib_module_names


@pytest.mark.parametrize(
    "argv, files, message",
    [
        (["triangles", "big.graph"], {"big.graph": f"p edge {MAX_COUNT + 1} 0\n"},
         f"header count {MAX_COUNT + 1} exceeds the limit of {MAX_COUNT}"),
        (["transform", "big.cnf"], {"big.cnf": f"p cnf {MAX_COUNT + 1} 1\n1 2 3 0\n"},
         f"header count {MAX_COUNT + 1} exceeds the limit of {MAX_COUNT}"),
        (
            ["verify", "cut", "gadget.graph", "cut.txt", "--map", "big.rmap"],
            {
                "gadget.graph": emit_graph(canonical_gadget()[0]),
                "cut.txt": "s CUT-FOUND\nv 1 2 3 0\n",
                "big.rmap": f"var 1 1\nvar 2 2\ngad 1 1 2 3 4 {MAX_COUNT + 1}\n",
            },
            # The face breaks the numbering rule before its id meets the limit.
            f"clause 1 puts vertex {MAX_COUNT + 1} inside its gadget, not 5",
        ),
    ],
    ids=["graph header", "cnf header", "reduction map id"],
)
def test_input_over_the_size_limit_is_exit_2_in_bounded_memory(tmp_path, argv, files, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    done = _run_process(argv, tmp_path, address_space=600_000 * 1024)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "counts, code, err",
    [
        (["-n", "100000000", "-m", "1"], 2,
         f"error: roundtrip count 100000000 exceeds the limit of {MAX_COUNT}\n"),
        (["-n", "5", "-m", "100000000"], 2,
         f"error: roundtrip count 100000000 exceeds the limit of {MAX_COUNT}\n"),
        # Within the limit, the trial's 794,773 clauses still exhaust the address space.
        (["-n", "5", "-m", "1000000"], 4, "error: internal error: MemoryError\n"),
    ],
    ids=["variables over the limit", "clauses over the limit", "out of memory"],
)
def test_roundtrip_counts_are_capped_and_running_out_of_memory_is_exit_4(
    tmp_path, counts, code, err
):
    argv = ["roundtrip", *counts, "--trials", "1"]
    done = _run_process(argv, tmp_path, address_space=600_000 * 1024)
    assert (done.returncode, done.stdout, done.stderr) == (code, "", err)


def test_byte_identical_reruns(tmp_path, capsys):
    src = tmp_path / "in.cnf"
    src.write_text(SPLIT_CNF)
    outputs = []
    for _ in range(2):
        code, out = run(capsys, "solve-nae", str(src))
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


# Bounded mutation fuzzer: seeded edits of valid inputs, over all ten command
# shapes, must end in a verdict or a clean error (exit 0-3), never a crash.

def _planted_inputs(n, m):
    """Valid files for every command, from a formula a planted assignment NAE-satisfies."""
    rng = random.Random(f"planted {n} {m}")
    planted = {x: bool(rng.getrandbits(1)) for x in range(1, n + 1)}
    kept = [c for c in generate_instance(0, n, m).clauses if len({planted[x] for x in map(abs, c)}) == 2]
    f = CnfFormula(n, tuple(kept))
    split, tm = split_repeated_variables(f)
    g, rm = build_graph(split)
    lifted = lift_assignment(tm, planted)
    texts = {
        "cnf": emit_cnf(f),
        "split": emit_cnf(split),
        "tmap": emit_transform_map(tm),
        "graph": emit_graph(g),
        "rmap": emit_reduction_map(rm),
        "wit_split": emit_nae_witness(lifted),
        "cut": emit_cut_witness(assignment_to_cut(split, rm, lifted)),
        "col": emit_colouring(construct_5_colouring(g, rm)),
    }
    return {name: text.encode() for name, text in texts.items()}


def _path_inputs(n):
    return {
        "graph": (f"p edge {n} {n - 1}\n" + "".join(f"e {v} {v + 1}\n" for v in range(1, n))).encode(),
        "cut": f"s CUT-FOUND\nv {n} 0\n".encode(),
        "col": ("k 2\n" + "".join(f"{v} {2 - v % 2}\n" for v in range(1, n + 1))).encode(),
    }


# Shape -> (files a corpus needs for it, function from the file paths p to argv).
_SHAPES = {
    "transform": (("cnf",), lambda p, rng: ["transform", p["cnf"], "-o", p["out"], "--map", p["out2"]]),
    "reduce": (("cnf",), lambda p, rng: ["reduce", p["cnf"], "-o", p["out"], "--map", p["out2"]]),
    "solve-nae": (("cnf",), lambda p, rng: ["solve-nae", p["cnf"]]),
    "solve-cut": (("graph",), lambda p, rng: ["solve-cut", p["graph"], "-o", p["out"]]),
    "color": (
        ("graph",),
        lambda p, rng: ["color", p["graph"], "-k", rng.choice("235"), "--budget", "5000"],
    ),
    "triangles": (("graph",), lambda p, rng: ["triangles", p["graph"]]),
    "verify assignment": (
        ("split", "wit_split", "tmap"),
        lambda p, rng: ["verify", "assignment", p["split"], p["wit_split"], "--map", p["tmap"]],
    ),
    "verify cut": (
        ("graph", "cut"),
        lambda p, rng: ["verify", "cut", p["graph"], p["cut"]]
        + (["--map", p["rmap"], "--assignment", p["wit_split"]] if "rmap" in p else []),
    ),
    "verify coloring": (("graph", "col"), lambda p, rng: ["verify", "coloring", p["graph"], p["col"]]),
}

_EDIT_BYTES = b"0123456789 -\n\rcpekvs\xff"
_EDIT_TOKENS = (b"0", b"-1", b"1", b"2", b"3", b"x", b"", str(MAX_COUNT + 1).encode(), b"100000000")


def _mutate(data: bytes, rng: random.Random) -> bytes:
    """One to three byte, line or token edits."""
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(3)
        if kind == 0:  # insert or overwrite one byte
            i = rng.randrange(len(data) + 1)
            data = data[:i] + bytes([rng.choice(_EDIT_BYTES)]) + data[i + rng.randrange(2):]
        elif kind == 1:  # drop, repeat or swap lines
            lines = data.split(b"\n")
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            op = rng.randrange(3)
            if op == 0:
                del lines[i]
            elif op == 1:
                lines.insert(i, lines[j])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            data = b"\n".join(lines)
        else:  # replace an integer token by a boundary value or its neighbour
            tokens = list(re.finditer(rb"-?\d+", data))
            if tokens:
                t = rng.choice(tokens)
                value = int(t.group())
                new = rng.choice(_EDIT_TOKENS + (str(value + 1).encode(), str(value - 1).encode()))
                data = data[: t.start()] + new + data[t.end():]
    return data


def _roundtrip_argv(rng):
    args = {"--seed": str(rng.randrange(100)), "-n": "6", "-m": "5", "--trials": "2"}
    key = rng.choice(list(args))
    args[key] = rng.choice(("-1", "0", "1", "2", "3", "4", "x", ""))
    return ["roundtrip"] + [tok for pair in args.items() for tok in pair]


def test_cli_survives_mutated_inputs(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NAE_REDUCE_BUDGET", str(2**30))
    corpora = {
        "small": _planted_inputs(5, 6),
        "n256": _planted_inputs(256, 384),
        "path3000": _path_inputs(3000),
    }
    cases = [
        (shape, corpus)
        for shape, (needs, _) in _SHAPES.items()
        for corpus, files in corpora.items()
        if all(name in files for name in needs)
    ]
    rng = random.Random(20261018)
    codes = set()
    for trial in range(150):
        if trial % 10 == 9:
            shape, corpus, argv = "roundtrip", "-", _roundtrip_argv(rng)
        else:
            shape, corpus = rng.choice(cases)
            files = corpora[corpus]
            _, build = _SHAPES[shape]
            paths = {"out": str(tmp_path / "out"), "out2": str(tmp_path / "out2")}
            for name, data in files.items():
                paths[name] = str(tmp_path / name)
                (tmp_path / name).write_bytes(data)
            argv = build(paths, rng)
            target = rng.choice([name for name in files if paths[name] in argv])
            (tmp_path / target).write_bytes(_mutate(files[target], rng))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a mutated option value
            code = exc.code
        err = capsys.readouterr().err
        where = f"trial {trial}: {shape} on {corpus}, argv {argv}"
        assert code in (0, 1, 2, 3), f"{where}: exit {code}, stderr {err[-300:]!r}"
        assert "Traceback" not in err and "internal error" not in err, f"{where}: {err[-300:]!r}"
        codes.add(code)
    assert codes >= {0, 1, 2, 3}


# `verify cut --map` checks the map against the graph by its vertex count, its
# edge count and each of its edges, without building the map's graph.

def _map_check_inputs(tmp_path):
    """The planted (5, 6) map, graph and cut; the cut and its assignment are
    written to tmp_path."""
    files = _planted_inputs(5, 6)
    for name in ("cut", "wit_split"):
        (tmp_path / name).write_bytes(files[name])
    g = parse_graph(files["graph"])
    return files["rmap"], g, parse_cut_witness(files["cut"], g.num_vertices)


def _changed_graph(g, cut, change, rng) -> bytes:
    """g with an isolated vertex added, an edge added across the cut, or an edge
    moved across it, as text; each keeps the cut valid."""
    n, edges = g.num_vertices, edge_list(g)
    if change == "isolated":
        return emit_graph(Graph(n + 1, edges)).encode()
    if change == "moved edge":
        edges.remove(rng.choice(edges))
    across = [(u, v) for u in sorted(cut.side_a) for v in sorted(cut.side_b) if not g.has_edge(u, v)]
    return emit_graph(Graph(n, edges + [rng.choice(across)])).encode()


def _verify_cut_map(tmp_path, capsys, graph: bytes, rmap: bytes):
    (tmp_path / "g.col").write_bytes(graph)
    (tmp_path / "m.txt").write_bytes(rmap)
    code = main(["verify", "cut", "g.col", "cut", "--map", "m.txt", "--assignment", "wit_split"])
    return (code, *capsys.readouterr())


def test_verify_cut_refuses_a_map_of_another_graph(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rmap, g, cut = _map_check_inputs(tmp_path)
    graph = emit_graph(g).encode()
    assert _verify_cut_map(tmp_path, capsys, graph, rmap) == (0, "valid cut\n", "")
    lines = rmap.decode().splitlines(keepends=True)
    tri = [i for i, line in enumerate(lines) if line.startswith("tri ")]
    gad = [i for i, line in enumerate(lines) if line.startswith("gad ")]
    # Every variable is in a triangle, so a triangle edge moves by swapping the
    # last vertices of two triangles; a gadget's apex y moves to another variable.
    moved_tri = list(lines)
    first, second = (lines[i].split() for i in tri[:2])
    first[-1], second[-1] = second[-1], first[-1]
    moved_tri[tri[0]], moved_tri[tri[1]] = (" ".join(t) + "\n" for t in (first, second))
    moved_gad = list(lines)
    kind, ci, x, y, *face = lines[gad[0]].split()
    y = next(str(z) for z in range(1, 99) if str(z) not in (x, y))
    moved_gad[gad[0]] = " ".join((kind, ci, x, y, *face)) + "\n"
    for moved in (moved_tri, moved_gad):
        rm = parse_reduction_map("".join(moved))
        assert rm.num_vertices == g.num_vertices and rm.graph.num_edges == g.num_edges
        assert rm.graph != g
    rng = random.Random(0)
    refused = (2, "", "error: reduction map does not describe this graph\n")
    for graph, m in (
        (graph, "".join(moved_tri).encode()),
        (graph, "".join(moved_gad).encode()),
        *((_changed_graph(g, cut, change, rng), rmap) for change in ("isolated", "extra edge", "moved edge")),
    ):
        assert _verify_cut_map(tmp_path, capsys, graph, m) == refused


def _mutate_map(rmap: bytes, rng: random.Random) -> bytes:
    """One to three edits of the ids on `tri` and `gad` lines, most of which keep
    the map well formed, or one of the fuzzer's byte edits."""
    if rng.random() < 0.1:
        return _mutate(rmap, rng)
    lines = [line.split() for line in rmap.decode().splitlines()]
    n = sum(line[0] == "var" for line in lines)
    tri = [line for line in lines if line[0] == "tri"]
    gad = [line for line in lines if line[0] == "gad"]
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(5)
        if edit == 0:  # a triangle's vertices permuted: the same graph
            line = rng.choice(tri)
            line[2:] = rng.sample(line[2:], 3)
        elif edit == 1:  # a gadget's apexes swapped: the same graph
            line = rng.choice(gad)
            line[2], line[3] = line[3], line[2]
        elif edit == 2:  # a vertex swapped between two triangles
            (a, b), i, j = rng.sample(tri, 2), rng.randrange(2, 5), rng.randrange(2, 5)
            a[i], b[j] = b[j], a[i]
        elif edit == 3:  # an apex moved to any variable, or apexes swapped between gadgets
            a, b = rng.choice(gad), rng.choice(gad)
            a[rng.randrange(2, 4)] = str(rng.randint(1, n)) if rng.random() < 0.7 else b[rng.randrange(2, 4)]
        else:  # any id set to any value near the vertex range
            line = rng.choice(tri + gad)
            line[rng.randrange(2, len(line))] = str(rng.randint(0, int(gad[-1][-1]) + 1))
    return "".join(" ".join(line) + "\n" for line in lines).encode()


def test_verify_cut_map_check_agrees_with_building_the_maps_graph(tmp_path, capsys, monkeypatch):
    # Seeded differential against the rule the check replaced, kept here: a map
    # describes the graph exactly when the graph it builds equals it.  The
    # verdict line or the error message must match on every mutated map.
    monkeypatch.chdir(tmp_path)
    rmap, g, cut = _map_check_inputs(tmp_path)
    graph = emit_graph(g).encode()
    args = SimpleNamespace(kind="cut", object="g.col", certificate="cut", map="m.txt", assignment="wit_split")

    def verdict():
        try:
            code = cli.cmd_verify(args)
        except FormatError as exc:
            return 2, f"error: {exc}"
        return code, capsys.readouterr().out

    rng = random.Random(20261022)
    seen = {}
    for trial in range(2000):
        change = rng.choice(("none", "none", "isolated", "extra edge", "moved edge"))
        mutated = _mutate_map(rmap, rng)
        (tmp_path / "g.col").write_bytes(graph if change == "none" else _changed_graph(g, cut, change, rng))
        (tmp_path / "m.txt").write_bytes(mutated)
        checked = verdict()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_describes", lambda rm, g: rm.graph == g)
            assert verdict() == checked, (trial, change, mutated)
        key = checked[0], "does not describe" in checked[1]
        seen[key] = seen.get(key, 0) + 1
    # Accepted maps, refused maps and other format errors all occur often.
    assert min(seen[0, False], seen[2, True], seen[2, False]) >= 100, seen


def _library_fault(kind, obj, cert):
    """The fault the library names for a certificate, as `verify` must print it."""
    if kind == "assignment":
        f = parse_cnf(obj)
        witness = parse_nae_witness(cert, f.num_vars)
        if witness is None:
            raise FormatError("certificate carries no assignment")
        return nae_fault(f, witness)
    g = parse_graph(obj)
    if kind == "coloring":
        return colouring_fault(g, parse_colouring(cert))
    cut = parse_cut_witness(cert, g.num_vertices)
    if cut is None:
        raise FormatError("certificate carries no cut")
    return cut_fault(g, cut)


def test_verify_prints_the_library_fault(tmp_path, capsys):
    # On mutated certificates `verify` prints exactly `valid <kind>` or
    # `invalid: ` and the library's fault, so it keeps no rule of its own.
    files = _planted_inputs(5, 6)
    kinds = {"assignment": ("split", "wit_split"), "cut": ("graph", "cut"), "coloring": ("graph", "col")}
    nouns = {"assignment": "assignment", "cut": "cut", "coloring": "colouring"}
    rng = random.Random(5)
    codes = set()
    for trial in range(200):
        kind = rng.choice(sorted(kinds))
        obj, cert = kinds[kind]
        data = files[cert] if trial < 3 else _mutate(files[cert], rng)
        if kind == "assignment" and rng.random() < 0.5:
            # A flipped literal keeps the certificate well formed but may break a clause.
            t = rng.choice(list(re.finditer(rb"-?[1-9]\d*", files[cert])))
            flipped = str(-int(t.group())).encode()
            data = files[cert][: t.start()] + flipped + files[cert][t.end():]
        (tmp_path / obj).write_bytes(files[obj])
        (tmp_path / cert).write_bytes(data)
        code, out = run(capsys, "verify", kind, str(tmp_path / obj), str(tmp_path / cert))
        try:
            fault = _library_fault(kind, files[obj].decode(), data.decode())
        except ValueError:  # FormatError included: the CLI reports it as exit 2
            assert (code, out) == (2, ""), f"trial {trial}: {kind} {data!r}"
        else:
            expected = (0, f"valid {nouns[kind]}\n") if fault is None else (1, f"invalid: {fault}\n")
            assert (code, out) == expected, f"trial {trial}: {kind} {data!r}"
        codes.add((kind, code))
    assert codes == {(kind, code) for kind in kinds for code in (0, 1, 2)}


# main() pauses the cyclic collector while the command runs.

def _stand_in_command(outcome, seen):
    """A command that records whether the collector runs, then returns or raises `outcome`."""
    def command(args):
        seen.append(gc.isenabled())
        if isinstance(outcome, int):
            return outcome
        raise outcome("stand-in")
    return command


@pytest.mark.parametrize(
    "outcome, code",
    [(0, 0), (1, 1), (FormatError, 2), (BudgetExceeded, 3), (RuntimeError, 4), (MemoryError, 4)],
    ids=["yes", "no", "format error", "budget", "internal error", "out of memory"],
)
def test_a_command_runs_with_the_collector_paused_and_its_exit_restores_it(
    capsys, monkeypatch, outcome, code
):
    seen = []
    monkeypatch.setattr(cli, "cmd_triangles", _stand_in_command(outcome, seen))
    assert gc.isenabled()
    assert main(["triangles", "any.graph"]) == code
    assert gc.isenabled()
    # A caller that paused the collector itself finds it still paused.
    gc.disable()
    try:
        assert main(["triangles", "any.graph"]) == code
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False, False]


def test_the_collector_is_back_after_a_usage_exit_or_an_interrupt(capsys, monkeypatch):
    with pytest.raises(SystemExit):
        main(["triangles"])
    assert gc.isenabled()
    monkeypatch.setattr(cli, "cmd_triangles", _stand_in_command(KeyboardInterrupt, []))
    with pytest.raises(KeyboardInterrupt):
        main(["triangles", "any.graph"])
    assert gc.isenabled()


def _cyclic_garbage(call) -> int:
    """The number of objects only the cyclic collector frees once call() has run."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


# (argv, NAE_REDUCE_BUDGET or None, exit code): every command, the invalid verify
# forms, one format error and one budget overrun.
_COMMAND_RUNS = [
    (["transform", "cnf", "-o", "out", "--map", "out2"], None, 0),
    (["reduce", "cnf", "-o", "out", "--map", "out2"], None, 0),
    (["solve-nae", "cnf", "-o", "out"], None, 0),
    (["solve-cut", "graph", "-o", "out"], str(2**40), 0),
    (["color", "graph", "-k", "5"], None, 0),
    (["triangles", "graph"], None, 0),
    (["verify", "assignment", "split", "wit_split", "--map", "tmap"], None, 0),
    (["verify", "assignment", "split", "all_true"], None, 1),
    (["verify", "cut", "graph", "cut", "--map", "rmap", "--assignment", "wit_split"], None, 0),
    (["verify", "cut", "graph", "one_side"], None, 1),
    (["verify", "coloring", "graph", "col"], None, 0),
    (["verify", "coloring", "graph", "one_colour"], None, 1),
    (["roundtrip", "-n", "8", "-m", "10", "--trials", "20"], None, 0),
    (["solve-cut", "cnf"], None, 2),
    (["solve-nae", "cnf"], "4", 3),
]


@pytest.mark.parametrize(
    "argv, budget, code", _COMMAND_RUNS, ids=[" ".join(case[0]) for case in _COMMAND_RUNS]
)
def test_no_command_builds_reference_cycles(tmp_path, capsys, monkeypatch, argv, budget, code):
    # The premise of main's collector pause: a command leaves no cyclic garbage
    # beyond the argument parser's own, so reference counting frees all it builds.
    monkeypatch.chdir(tmp_path)
    files = _planted_inputs(5, 6)
    num_vars = parse_cnf(files["split"]).num_vars
    num_vertices = parse_graph(files["graph"]).num_vertices
    files["all_true"] = f"s NAE-SATISFIABLE\nv {' '.join(map(str, range(1, num_vars + 1)))} 0\n".encode()
    files["one_side"] = b"s CUT-FOUND\nv 0\n"
    files["one_colour"] = ("k 1\n" + "".join(f"{v} 1\n" for v in range(1, num_vertices + 1))).encode()
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    if budget is not None:
        monkeypatch.setenv("NAE_REDUCE_BUDGET", budget)
    assert main(argv) == code  # also warms up any one-time caches
    command = _cyclic_garbage(lambda: main(argv))
    parser_only = _cyclic_garbage(lambda: cli._build_parser().parse_args(argv))
    assert command == parser_only > 0
