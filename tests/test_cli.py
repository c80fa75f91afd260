import random
import re

from naecut import (
    CnfFormula,
    FormatError,
    assignment_to_cut,
    build_graph,
    complete_graph,
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
    split_repeated_variables,
)
from naecut.cli import main
from naecut.formula import nae_fault
from naecut.graphs import colouring_fault, cut_fault

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


def test_reduce_skip_transform_requires_properties(tmp_path, capsys):
    # A non-monotone input is not split, so it must already have the split properties.
    src = tmp_path / "in.cnf"
    src.write_text("p cnf 4 2\n1 2 3 0\n1 -4 0\n")
    code, _ = run(capsys, "reduce", str(src))
    assert code == 2


def test_reduce_skip_transform_accepts_split_input(tmp_path, capsys):
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

    # The map of another formula's graph is a format error.
    k3 = tmp_path / "k3.cnf"
    k3.write_text(K3_CNF)
    other_map = tmp_path / "k3.rmap"
    assert run(capsys, "reduce", str(k3), "--map", str(other_map))[0] == 0
    assert main(["verify", "cut", str(graph_file), str(cut_file), "--map", str(other_map)]) == 2
    assert "reduction map does not describe this graph" in capsys.readouterr().err

    # An assignment with variable 1 flipped disagrees with the cut there alone.
    wit = parse_nae_witness(wit_file.read_text())
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


def test_roundtrip_break_gadget_detects_failures(capsys):
    # n=4, m=6 guarantees repeated variables and therefore gadgets; trial 3
    # (one clause, no repeated variable) has no gadget to break.
    argv = ["roundtrip", "--seed", "5", "-n", "4", "-m", "6", "--trials", "6"]
    assert run(capsys, *argv, "--break-gadget") == (1, (
        "trial 0 seed 1539898300 n 4 m 6 FAIL gadget-triangles\n"
        "trial 1 seed 3332716663 n 3 m 4 FAIL gadget-triangles\n"
        "trial 2 seed 222708024 n 3 m 6 FAIL gadget-triangles\n"
        "trial 3 seed 1596840319 n 3 m 1 ok\n"
        "trial 4 seed 1635342798 n 4 m 2 FAIL gadget-triangles\n"
        "trial 5 seed 1070867289 n 3 m 5 FAIL gadget-triangles\n"
        "trials 6 passed 1 failed 5\n"
    ))
    assert run(capsys, *argv) == (0, (
        "trial 0 seed 1539898300 n 4 m 6 ok\n"
        "trial 1 seed 3332716663 n 3 m 4 ok\n"
        "trial 2 seed 222708024 n 3 m 6 ok\n"
        "trial 3 seed 1596840319 n 3 m 1 ok\n"
        "trial 4 seed 1635342798 n 4 m 2 ok\n"
        "trial 5 seed 1070867289 n 3 m 5 ok\n"
        "trials 6 passed 6 failed 0\n"
    ))


def test_exit_code_2_on_missing_file(capsys):
    assert run(capsys, "solve-nae", "/nonexistent/x.cnf")[0] == 2


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
    kept = [c for c in generate_instance(0, n, m).clauses if len({planted[x] for x in c.variables()}) == 2]
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
# Small values only: a huge header count makes the parsers allocate storage
# for that many vertices or variables before they read another line.
_EDIT_TOKENS = (b"0", b"-1", b"1", b"2", b"3", b"x", b"")


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
    argv = ["roundtrip"] + [tok for pair in args.items() for tok in pair]
    return argv + (["--break-gadget"] if rng.random() < 0.3 else [])


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


def _library_fault(kind, obj, cert):
    """The fault the library names for a certificate, as `verify` must print it."""
    if kind == "assignment":
        witness = parse_nae_witness(cert)
        if witness is None:
            raise FormatError("certificate carries no assignment")
        return nae_fault(parse_cnf(obj), witness)
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
