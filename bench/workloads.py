"""The four benchmark workloads, built on naecut's public API only.

Each workload's setup turns a corpus seed into a list of jobs.  A job is
one instance submitted to the library (or one CLI command); its `run`
returns the verdict, the problems its output checks found, and a digest
of its witness bytes that must match the seed code's reference digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Result:
    outcome: str  # "sat" (yes, witness found, exit 0) or "unsat" (no, exit 1)
    digest: str
    problems: list[str] = field(default_factory=list)


@dataclass
class Job:
    id: str
    run: Callable  # run(nc, cli, tracer) -> Result
    group: int  # corpus seed the job belongs to
    n: int  # variables of the input formula
    clauses: int  # input clauses the job carries
    stage: int = 0  # stages run in order; jobs within a stage are shuffled
    sizes: dict = field(default_factory=dict)
    instance: str = ""  # jobs naming one instance share one latency; default: the job alone


@dataclass
class Workload:
    name: str
    key: str  # names the corpus in reference.json
    limit_s: float  # per-instance wall-clock limit
    stop_on_timeout: bool  # a timeout ends the rest of its group as timeouts
    setup: Callable  # setup(nc, workdir) -> list[Job]


def digest(*parts: str | bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
    return h.hexdigest()[:16]


def randbelow(rng: random.Random, bound: int) -> int:
    """The rejection sampler `naecut roundtrip` draws instance sizes with."""
    bits = bound.bit_length()
    r = rng.getrandbits(bits)
    while r >= bound:
        r = rng.getrandbits(bits)
    return r


# --- sweep ---------------------------------------------------------------

def sweep_corpus(seed: int, trials: int, max_vars: int, max_clauses: int):
    """(n, m, instance seed) triples, as `naecut roundtrip` draws them."""
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        n = 3 + randbelow(rng, max_vars - 2)
        m = 1 + randbelow(rng, max_clauses)
        out.append((n, m, rng.getrandbits(32)))
    return out


def _roundtrip(f, sizes):
    """Every roundtrip check on one formula; verdicts must agree across oracles."""

    def run(nc, cli, tracer):
        with tracer.role("input_formula"):
            wit = nc.brute_force_nae(f, nc.exhaustive_budget(f.num_vars))
        split, tm = nc.split_repeated_variables(f)
        g, rm = nc.build_graph(split)
        colouring = nc.construct_5_colouring(g, rm)
        triangles = nc.enumerate_triangles(g)
        cut = nc.brute_force_cut(g, nc.exhaustive_budget(g.num_vertices))
        extracted, _ = nc.extract_nae(g)
        with tracer.role("extracted"):
            wit_x = nc.brute_force_nae(extracted, nc.exhaustive_budget(extracted.num_vars))
        problems = []
        if not nc.check_properties(split).all_hold():
            problems.append("split-properties")
        if colouring.k > 5:
            problems.append("colour-bound")
        if not (wit is None) == (cut is None) == (wit_x is None):
            problems.append("verdicts-disagree")
        if wit is not None:
            if not nc.nae_satisfies(f, wit):
                problems.append("nae-witness")
            induced = nc.assignment_to_cut(split, rm, nc.lift_assignment(tm, wit))
            if not nc.verify_cut_triangle_free(g, induced):
                problems.append("assignment-to-cut")
        if cut is not None:
            if not nc.verify_cut_triangle_free(g, cut):
                problems.append("cut-witness")
            back = nc.project_assignment(tm, nc.cut_to_assignment(rm, cut))
            if not nc.nae_satisfies(f, back):
                problems.append("cut-to-assignment")
        if wit_x is not None and not nc.nae_satisfies(extracted, wit_x):
            problems.append("extracted-witness")
        sizes.update(vertices=g.num_vertices, triangles=len(triangles))
        return Result(
            "unsat" if wit is None else "sat",
            digest(nc.emit_nae_witness(wit), nc.emit_cut_witness(cut), nc.emit_nae_witness(wit_x)),
            problems,
        )

    return run


def sweep(seed: int = 402280, trials: int = 200, max_vars: int = 14, max_clauses: int = 20):
    def setup(nc, workdir):
        jobs = []
        for t, (n, m, s) in enumerate(sweep_corpus(seed, trials, max_vars, max_clauses)):
            sizes = {"vars": n}
            run = _roundtrip(nc.generate_instance(s, n, m), sizes)
            jobs.append(Job(f"t{t}", run, seed, n, m, sizes=sizes))
        return jobs

    key = f"sweep seed={seed} trials={trials} n<={max_vars} m<={max_clauses}"
    return Workload("sweep", key, 10.0, False, setup)


# --- nae_threshold -------------------------------------------------------

def _solve_nae(f):
    def run(nc, cli, tracer):
        with tracer.role("input_formula"):
            wit = nc.brute_force_nae(f, nc.exhaustive_budget(f.num_vars))
        problems = [] if wit is None or nc.nae_satisfies(f, wit) else ["nae-witness"]
        return Result("unsat" if wit is None else "sat", digest(nc.emit_nae_witness(wit)), problems)

    return run


def nae_threshold(seed: int = 0, sizes=(100, 110, 120, 130, 140), seeds: int = 6):
    def setup(nc, workdir):
        jobs = []
        for n in sizes:
            for s in range(seed, seed + seeds):
                f = nc.generate_instance(s, n, round(2.1 * n))
                jobs.append(Job(f"n{n}-s{s}", _solve_nae(f), s, n, len(f.clauses), sizes={"vars": n}))
        return jobs

    key = f"nae_threshold seeds={seed}..{seed + seeds - 1} n={','.join(map(str, sizes))} m=2.1n"
    return Workload("nae_threshold", key, 10.0, False, setup)


# --- cut_ladder ----------------------------------------------------------

def _solve_cut(g):
    def run(nc, cli, tracer):
        cut = nc.brute_force_cut(g, nc.exhaustive_budget(g.num_vertices))
        problems = [] if cut is None or nc.verify_cut_triangle_free(g, cut) else ["cut-witness"]
        return Result("unsat" if cut is None else "sat", digest(nc.emit_cut_witness(cut)), problems)

    return run


def cut_ladder(seed: int = 0, sizes=(16, 32, 64, 128, 256, 512), seeds: int = 3, limit_s: float = 5.0):
    def setup(nc, workdir):
        jobs = []
        for s in range(seed, seed + seeds):
            for stage, n in enumerate(sizes):
                f = nc.generate_instance(s, n, round(1.5 * n))
                split, _ = nc.split_repeated_variables(f)
                g, _ = nc.build_graph(split)
                sizes_ = {"vars": n, "vertices": g.num_vertices, "triangles": len(nc.enumerate_triangles(g))}
                jobs.append(Job(f"n{n}-s{s}", _solve_cut(g), s, n, len(f.clauses), stage, sizes_))
        return jobs

    key = f"cut_ladder seeds={seed}..{seed + seeds - 1} n={','.join(map(str, sizes))} m=1.5n"
    return Workload("cut_ladder", key, limit_s, True, setup)


# --- reduce_large --------------------------------------------------------

def _cli(argv, expect, outputs=(), sizes=None):
    """A job running `naecut <argv>` in-process; its digest covers stdout and `outputs`."""

    def run(nc, cli, tracer):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        if code == 3:
            raise nc.BudgetExceeded(err.getvalue().strip())
        problems = [] if code == expect else [f"exit {code}, expected {expect}: {err.getvalue().strip()[:200]}"]
        files = []
        for path in outputs:
            with open(path, "rb") as fh:
                files.append(fh.read())
        if sizes is not None:
            for line in out.getvalue().splitlines():
                key, _, value = line.rpartition(" ")
                if key in ("vertices", "triangles"):
                    sizes[key] = int(value)
        return Result("sat" if code == 0 else "unsat", digest(out.getvalue(), *files), problems)

    return run


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _certificates(planted, formula, p):
    """Write the valid certificates and one corrupted assignment and cut."""

    def run(nc, cli, tracer):
        tm = nc.parse_transform_map(_read(p["tmap"]))
        split = nc.parse_cnf(_read(p["split"]))
        rm = nc.parse_reduction_map(_read(p["rmap"]))
        g = nc.parse_graph(_read(p["graph"]))
        lifted = nc.lift_assignment(tm, planted)
        cut = nc.assignment_to_cut(split, rm, lifted)
        colouring = nc.construct_5_colouring(g, rm)
        # A NAE-satisfied 3-clause splits 2:1, so flipping the minority
        # literal makes it all-equal; likewise for a clause triangle's cut.
        first = formula.clauses[0].variables()
        lone = next(x for x in first if sum(planted[y] == planted[x] for y in first) == 1)
        bad_assignment = {x: (not v if x == lone else v) for x, v in planted.items()}
        tri = rm.clause_triangle[min(rm.clause_triangle)]
        v = next(u for u in tri if sum((w in cut.side_a) == (u in cut.side_a) for w in tri) == 1)
        if v in cut.side_a:
            bad_cut = nc.Cut(cut.side_a - {v}, cut.side_b | {v})
        else:
            bad_cut = nc.Cut(cut.side_a | {v}, cut.side_b - {v})
        texts = {
            "wit": nc.emit_nae_witness(planted),
            "wit_split": nc.emit_nae_witness(lifted),
            "cut": nc.emit_cut_witness(cut),
            "col": nc.emit_colouring(colouring),
            "bad_wit": nc.emit_nae_witness(bad_assignment),
            "bad_cut": nc.emit_cut_witness(bad_cut),
        }
        for name, text in texts.items():
            _write(p[name], text)
        return Result("sat", digest(*texts.values()))

    return run


def planted_formula(nc, seed: int, n: int, m: int):
    """generate_instance(seed, n, m) cut down to the clauses a seeded assignment NAE-satisfies."""
    rng = random.Random(f"planted assignment {seed}")
    planted = {x: bool(rng.getrandbits(1)) for x in range(1, n + 1)}
    f = nc.generate_instance(seed, n, m)
    kept = tuple(c for c in f.clauses if len({planted[x] for x in c.variables()}) == 2)
    return nc.CnfFormula(n, kept), planted


def reduce_large(seed: int = 0, n: int = 5000, m: int = 7500):
    files = ("in.cnf", "split.cnf", "tmap.txt", "graph.col", "rmap.txt", "wit.txt",
             "wit_split.txt", "cut.txt", "col.txt", "bad_wit.txt", "bad_cut.txt")

    def setup(nc, workdir):
        p = {name.split(".")[0]: os.path.join(workdir, name) for name in files}
        formula, planted = planted_formula(nc, seed, n, m)
        _write(p["in"], nc.emit_cnf(formula))
        sizes = {"vars": n}
        # The planted formula is one instance: its latency is the whole pipeline's.
        mk = lambda job_id, run, stage=3: Job(job_id, run, seed, n, 0, stage, sizes, "planted")  # noqa: E731
        jobs = [
            mk("transform", _cli(["transform", p["in"], "-o", p["split"], "--map", p["tmap"]], 0, [p["split"], p["tmap"]]), 0),
            mk("reduce", _cli(["reduce", p["in"], "-o", p["graph"], "--map", p["rmap"]], 0, [p["graph"], p["rmap"]], sizes), 1),
            mk("certificates", _certificates(planted, formula, p), 2),
            mk("verify_assignment", _cli(["verify", "assignment", p["in"], p["wit"]], 0)),
            mk("verify_assignment_map", _cli(["verify", "assignment", p["split"], p["wit_split"], "--map", p["tmap"]], 0)),
            mk("verify_cut_map", _cli(["verify", "cut", p["graph"], p["cut"], "--map", p["rmap"], "--assignment", p["wit_split"]], 0)),
            mk("verify_coloring", _cli(["verify", "coloring", p["graph"], p["col"]], 0)),
            mk("triangles", _cli(["triangles", p["graph"]], 0)),
            mk("reject_cut", _cli(["verify", "cut", p["graph"], p["bad_cut"]], 1)),
            mk("reject_assignment", _cli(["verify", "assignment", p["in"], p["bad_wit"]], 1)),
        ]
        jobs[0].clauses = len(formula.clauses)
        return jobs

    key = f"reduce_large seed={seed} n={n} m={m}"
    return Workload("reduce_large", key, 30.0, True, setup)


WORKLOADS = {
    "sweep": sweep,
    "nae_threshold": nae_threshold,
    "reduce_large": reduce_large,
    "cut_ladder": cut_ladder,
}
