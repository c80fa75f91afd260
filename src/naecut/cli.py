"""Command line front end.

Exit codes: 0 yes/valid, 1 no/unsat/invalid, 2 usage or format error,
3 budget exceeded, 4 internal error.  Machine-readable output lines are
prefixed `s`/`v`.
"""

from __future__ import annotations

import argparse
import gc
import os
import random
import sys

from .errors import BudgetExceeded, FormatError, SearchBudget
from .formula import (
    Assignment,
    emit_cnf,
    is_monotone_3sat,
    nae_fault,
    occurrence_counts,
    parse_cnf,
)
from .graphs import (
    colouring_fault,
    cut_fault,
    emit_colouring,
    emit_graph,
    enumerate_triangles,
    find_k_colouring,
    max_degree,
    parse_colouring,
    parse_graph,
)
from .reduction import (
    build_graph,
    construct_5_colouring,
    cut_from_vertex_assignment,
    cut_to_assignment,
    emit_reduction_map,
    extract_nae,
    parse_reduction_map,
)
from .solvers import (
    brute_force_cut,
    brute_force_nae,
    emit_cut_witness,
    emit_nae_witness,
    exhaustive_budget,
    generate_instance,
    parse_cut_witness,
    parse_nae_witness,
    randbelow,
)
from .textio import MAX_COUNT
from .transform import (
    chain_fault,
    check_properties,
    emit_transform_map,
    lift_assignment,
    parse_transform_map,
    project_assignment,
    split_repeated_variables,
    transform_map_comments,
)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _budget_from_env() -> SearchBudget:
    raw = os.environ.get("NAE_REDUCE_BUDGET")
    if raw is None:
        return SearchBudget()
    try:
        return SearchBudget(max_states=int(raw))
    except ValueError:
        raise FormatError(f"NAE_REDUCE_BUDGET must be a positive integer, got {raw!r}") from None


def cmd_transform(args) -> int:
    f = parse_cnf(_read(args.cnf))
    out, tm = split_repeated_variables(f)
    text = emit_cnf(out) + transform_map_comments(tm)
    if args.output:
        _write(args.output, text)
    else:
        print(text, end="")
    if args.map:
        _write(args.map, emit_transform_map(tm))
    return 0


def cmd_reduce(args) -> int:
    f = parse_cnf(_read(args.cnf))
    # Only a monotone formula is split; build_graph checks the split properties.
    g, rm = build_graph(split_repeated_variables(f)[0] if is_monotone_3sat(f) else f)
    colouring = construct_5_colouring(g, rm)
    print(f"vertices {g.num_vertices}")
    print(f"edges {g.num_edges}")
    print(f"triangles {len(enumerate_triangles(g))}")
    print(f"max degree {max_degree(g)}")
    print(f"colours {colouring.k}")
    if args.output:
        _write(args.output, emit_graph(g))
    if args.map:
        _write(args.map, emit_reduction_map(rm))
    return 0


def cmd_solve(args) -> int:
    # Built on each call: the benchmark's tracer rebinds this module's library names.
    read, solve, emit = {
        "solve-nae": (parse_cnf, brute_force_nae, emit_nae_witness),
        "solve-cut": (parse_graph, brute_force_cut, emit_cut_witness),
    }[args.command]
    witness = solve(read(_read(args.input)), _budget_from_env())
    text = emit(witness)
    print(text, end="")
    if args.output:
        _write(args.output, text)
    return 0 if witness is not None else 1


def cmd_color(args) -> int:
    g = parse_graph(_read(args.graph))
    colouring = find_k_colouring(g, args.k, SearchBudget(max_states=args.budget))
    if colouring is None:
        print("s NO-COLOURING")
        return 1
    print("s COLOURING-FOUND")
    text = emit_colouring(colouring)
    print(text, end="")
    if args.output:
        _write(args.output, text)
    return 0


def cmd_triangles(args) -> int:
    g = parse_graph(_read(args.graph))
    triangles = enumerate_triangles(g)
    body = "".join(["t %d %d %d\n" % t for t in triangles])
    sys.stdout.write(f"triangles {len(triangles)}\n{body}")
    return 0


def _read_assignment(path: str, num_vars: int, noun: str) -> Assignment:
    """The NAE witness in `path`; ValueError (exit 2) unless it is over exactly 1..num_vars."""
    witness = parse_nae_witness(_read(path), num_vars)
    if witness is None:
        raise FormatError(f"{noun} carries no assignment")
    return witness


def _assignment_fault(args) -> str | None:
    if args.assignment:
        raise FormatError("verify assignment does not read --assignment")
    f = parse_cnf(_read(args.object))
    witness = _read_assignment(args.certificate, f.num_vars, "certificate")
    if args.map:
        tm = parse_transform_map(_read(args.map))
        if {y for copies in tm.values() for y in copies} != set(range(1, f.num_vars + 1)):
            raise FormatError("transform map does not describe this formula")
        fault = chain_fault(tm, witness)
        if fault is not None:
            return fault
    return nae_fault(f, witness)


def _describes(rm, g) -> bool:
    """Whether g is the map's graph, rm.graph, without building it.

    parse_reduction_map's rules make the map's edges distinct: no variable
    is in two triangles, apexes are two variables and each face is three
    fresh ids.  So g is that graph when it has its vertex and edge counts
    and every edge of rm.edge_columns().  Each edge is looked up in the row
    of a triangle or face vertex, which no other map line names, so no row
    of g is read more than four times.
    """
    us, vs = rm.edge_columns()
    return (
        g.num_vertices == rm.num_vertices
        and g.num_edges == len(us)
        and all(map(g.has_edge, us, vs))
    )


def _cut_fault(args) -> str | None:
    if args.assignment and not args.map:
        raise FormatError("verify cut reads --assignment only with --map")
    g = parse_graph(_read(args.object))
    cut = parse_cut_witness(_read(args.certificate), g.num_vertices)
    if cut is None:
        raise FormatError("certificate carries no cut")
    fault = cut_fault(g, cut)
    if fault is not None or not args.map:
        return fault
    rm = parse_reduction_map(_read(args.map))
    if not _describes(rm, g):
        raise FormatError("reduction map does not describe this graph")
    if not args.assignment:
        return None
    # Variable x is true iff it is on side A, as in cut_to_assignment, whose cut
    # check would repeat cut_fault on g, which is the map's graph.
    stated = _read_assignment(args.assignment, rm.num_variables, "assignment certificate")
    side_a = cut.side_a
    mismatched = [x for x in range(1, rm.num_variables + 1) if stated[x] != (x in side_a)]
    return f"cut disagrees with assignment on variables {mismatched}" if mismatched else None


def _colouring_fault(args) -> str | None:
    if args.map or args.assignment:
        raise FormatError(f"verify coloring does not read --{'map' if args.map else 'assignment'}")
    g = parse_graph(_read(args.object))
    return colouring_fault(g, parse_colouring(_read(args.certificate)))


# Certificate kind -> (the noun a valid certificate is reported as, its fault finder).
_VERIFIERS = {
    "assignment": ("assignment", _assignment_fault),
    "cut": ("cut", _cut_fault),
    "coloring": ("colouring", _colouring_fault),
}


def cmd_verify(args) -> int:
    noun, find_fault = _VERIFIERS[args.kind]
    fault = find_fault(args)
    print(f"valid {noun}" if fault is None else f"invalid: {fault}")
    return 0 if fault is None else 1


def _roundtrip_trial(f) -> list[str]:
    """Run one end-to-end trial; returns the list of failed checks."""
    problems = []
    split, tm = split_repeated_variables(f)
    if not check_properties(split).all_hold():
        problems.append("split-properties")

    wit = brute_force_nae(f, exhaustive_budget(f.num_vars))
    wit_split = brute_force_nae(split, exhaustive_budget(split.num_vars))
    if (wit is None) != (wit_split is None):
        problems.append("split-equivalence")
    if wit is not None:
        lifted = lift_assignment(tm, wit)
        if nae_fault(split, lifted) is not None:
            problems.append("lifted-witness")
        if project_assignment(tm, lifted) != wit:
            problems.append("lift-project-roundtrip")

    g, rm = build_graph(split)
    if max_degree(g) > 8:
        problems.append("degree-bound")
    colouring = construct_5_colouring(g, rm)
    if colouring.k > 5:
        problems.append("colour-bound")
    extracted, _ = extract_nae(g)
    # extracted's clauses are g's triangles, so its occurrence counts are triangle counts.
    per_vertex = occurrence_counts(extracted)
    internal = [v for gd in rm.clause_gadget.values() for v in gd[2:]]
    if any(per_vertex[v] != 5 for v in internal):
        problems.append("gadget-triangles")

    cut = brute_force_cut(g, exhaustive_budget(g.num_vertices))
    if (cut is not None) != (wit is not None):
        problems.append("cut-equivalence")
    if cut is not None:
        try:
            if nae_fault(split, cut_to_assignment(rm, cut)) is not None:
                problems.append("cut-witness")
        except ValueError:
            problems.append("cut-witness")

    wit_extracted = brute_force_nae(extracted, exhaustive_budget(extracted.num_vars))
    if (wit_extracted is None) != (wit is None):
        problems.append("extraction-equivalence")
    if wit_extracted is not None and extracted.num_vars >= 2:
        try:
            cut_from_vertex_assignment(g, wit_extracted)
        except ValueError:
            problems.append("extraction-cut")
    if any(c > 7 for c in per_vertex.values()):
        problems.append("extraction-occurrences")
    return problems


def cmd_roundtrip(args) -> int:
    if args.trials < 0:
        raise FormatError("trial count must be non-negative")
    if args.trials > 0 and (args.num_vars < 3 or args.num_clauses < 1):
        raise FormatError("need at least 3 variables and 1 clause")
    count = max(args.num_vars, args.num_clauses)
    if count > MAX_COUNT:
        raise FormatError(f"roundtrip count {count} exceeds the limit of {MAX_COUNT}")
    rng = random.Random(args.seed)
    failed = 0
    for t in range(args.trials):
        n = 3 + randbelow(rng, args.num_vars - 2)
        m = 1 + randbelow(rng, args.num_clauses)
        instance_seed = rng.getrandbits(32)
        f = generate_instance(instance_seed, n, m)
        problems = _roundtrip_trial(f)
        if problems:
            failed += 1
            print(f"trial {t} seed {instance_seed} n {n} m {m} FAIL {','.join(problems)}")
        else:
            print(f"trial {t} seed {instance_seed} n {n} m {m} ok")
    print(f"trials {args.trials} passed {args.trials - failed} failed {failed}")
    return 0 if failed == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="naecut",
        description="Monotone NAE-3SAT to triangle-free cut reduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="split repeated variables of a monotone 3-CNF")
    p.add_argument("cnf")
    p.add_argument("-o", "--output")
    p.add_argument("--map")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("reduce", help="build the reduction graph of a formula")
    p.add_argument("cnf")
    p.add_argument("-o", "--output")
    p.add_argument("--map")
    p.set_defaults(func=cmd_reduce)

    for command, noun, witness in (
        ("solve-nae", "cnf", "NAE assignment"),
        ("solve-cut", "graph", "triangle-free cut"),
    ):
        help_line = f"exact conflict-driven search for the lexicographically smallest {witness}"
        p = sub.add_parser(command, help=help_line)
        p.add_argument("input", metavar=noun)
        p.add_argument("-o", "--output")
        p.set_defaults(func=cmd_solve)

    p = sub.add_parser("color", help="search for a proper k-colouring")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-o", "--output")
    p.add_argument("--budget", type=int, default=SearchBudget().max_states)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("triangles", help="list the triangles of a graph")
    p.add_argument("graph")
    p.set_defaults(func=cmd_triangles)

    p = sub.add_parser("verify", help="check a certificate against its object")
    p.add_argument("kind", choices=tuple(_VERIFIERS))
    p.add_argument("object")
    p.add_argument("certificate")
    p.add_argument("--map")
    p.add_argument("--assignment")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("roundtrip", help="run seeded end-to-end equivalence trials")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-n", "--num-vars", type=int, required=True)
    p.add_argument("-m", "--num-clauses", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_roundtrip)

    return parser


def main(argv=None) -> int:
    """Run the command `argv` names and return its exit code.

    The command runs with Python's cyclic garbage collector paused, and the
    collector's state from before the call is restored however the command
    ends.  Everything a command builds is acyclic and freed by reference
    counting (`test_no_command_builds_reference_cycles`), so the pause only
    saves the collector's rescans of the live graph rows.  Library calls
    never touch the collector: the process owner sets global state.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # Reported below: until this block ends, the exception's traceback keeps
        # the failed call's frames, and their data, alive.
        pass
    except Exception as exc:
        # A crash is not an answer: exit 1 is reserved for a real "no".
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    finally:
        if collecting:
            gc.enable()
    print("error: internal error: MemoryError", file=sys.stderr)
    return 4


if __name__ == "__main__":
    sys.exit(main())
