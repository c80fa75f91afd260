"""Formula-to-graph construction and certificate translation.

Each 3-clause of a split formula becomes a triangle on its variable
vertices; each 2-clause (x v -y) becomes a five-vertex gadget: two
tetrahedra sharing the internal face {a, b, c}, with apexes x and y.  The
gadget has exactly seven triangles, leaves x and y non-adjacent with
degree 3, and admits a triangle-free cut only with x and y on the same
side.  The resulting graph has a triangle-free cut iff the formula is
NAE-satisfiable, stays 5-colourable, and has maximum degree 8.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import cached_property

from .errors import FormatError
from .formula import Assignment, CnfFormula, nae_fault, require_variables
from .graphs import Colouring, Cut, Graph, colouring_fault, cut_fault, enumerate_triangles
from .textio import MAX_COUNT, columns, decoded, ints, records
from .transform import check_properties


@dataclass(frozen=True)
class ReductionMap:
    """Provenance linking formula elements to graph elements (1-based clause ids).

    Variable x is vertex x; the map records only the clause structures.  Each
    table maps a clause id to the ids after it on its map line:
    `clause_triangle[ci]` is the triangle (v1, v2, v3) of `tri ci v1 v2 v3`, and
    `clause_gadget[ci]` is (x, y, a, b, c) of `gad ci x y a b c`, a gadget with
    apexes x, y over the shared face {a, b, c}.  The tables are not changed after
    construction: the vertex count and the graph are derived from them, the graph
    once, on first use.
    """

    num_variables: int
    clause_triangle: dict[int, tuple[int, int, int]]
    clause_gadget: dict[int, tuple[int, int, int, int, int]]

    @property
    def num_vertices(self) -> int:
        return self.num_variables + 3 * len(self.clause_gadget)

    def edge_columns(self) -> tuple[list[int], list[int]]:
        """The map's edges as columns (us, vs): three per `tri` line, then nine
        per `gad` line, each gadget edge listed from its face vertex."""
        us: list[int] = []
        vs: list[int] = []
        for v1, v2, v3 in self.clause_triangle.values():
            us += (v1, v1, v2)
            vs += (v2, v3, v3)
        for x, y, a, b, c in self.clause_gadget.values():
            us += (a, a, a, a, b, b, b, c, c)
            vs += (x, y, b, c, x, y, c, x, y)
        return us, vs

    @cached_property
    def graph(self) -> Graph:
        """The reduction graph of edge_columns(), built on first use."""
        return Graph(self.num_vertices, zip(*self.edge_columns()))


def build_graph(f: CnfFormula) -> tuple[Graph, ReductionMap]:
    """Build the reduction graph of a formula satisfying the split properties.

    Vertex ids: variables first (1..num_vars), then three fresh internal
    vertices per 2-clause, in clause order.
    """
    report = check_properties(f)
    if not report.all_hold():
        raise ValueError(
            "input violates the split-formula properties: "
            + ", ".join(report.failures())
        )
    clause_triangle: dict[int, tuple[int, int, int]] = {}
    clause_gadget: dict[int, tuple[int, int, int, int, int]] = {}
    next_vertex = f.num_vars + 1
    # The properties make a 3-clause unnegated and a 2-clause one literal of each sign.
    for ci, clause in enumerate(f.clauses, start=1):
        if len(clause) == 3:
            clause_triangle[ci] = tuple(sorted(clause))
        else:
            neg, pos = sorted(clause)
            clause_gadget[ci] = (pos, -neg, next_vertex, next_vertex + 1, next_vertex + 2)
            next_vertex += 3
    rm = ReductionMap(f.num_vars, clause_triangle, clause_gadget)
    return rm.graph, rm


def construct_5_colouring(g: Graph, rm: ReductionMap) -> Colouring:
    """Explicit proper colouring of a reduction graph with at most 5 colours.

    Variables start at colour 1, and each clause triangle's vertices get 1, 2, 3
    in map order; each gadget's face takes the three smallest colours of 1..5
    not used by its apexes.  No colour depends on the order of the clauses.
    """
    colours = dict.fromkeys(range(1, rm.num_variables + 1), 1)
    for v1, v2, v3 in rm.clause_triangle.values():
        colours[v1], colours[v2], colours[v3] = 1, 2, 3
    for x, y, a, b, c in rm.clause_gadget.values():
        used = {colours[x], colours[y]}
        free = [colour for colour in range(1, 6) if colour not in used]
        colours[a], colours[b], colours[c] = free[:3]
    k = max(colours.values(), default=0)
    colouring = Colouring(colours, k)
    if colouring_fault(g, colouring) is not None:
        raise AssertionError("constructed colouring is improper; graph is not a reduction output")
    return colouring


def assignment_to_cut(f: CnfFormula, rm: ReductionMap, assignment: Assignment) -> Cut:
    """Turn a NAE witness of the formula into a triangle-free cut of its graph.

    Variable vertices follow their truth value (true on side A).  Each
    gadget's endpoints land on one side because the 2-clause is satisfied;
    internal vertex a joins them and b, c go to the other side, which cuts
    all seven gadget triangles.
    """
    fault = nae_fault(f, assignment)
    if fault is not None:
        raise ValueError(f"assignment does not NAE-satisfy the formula: {fault}")
    side_a = {x for x in range(1, rm.num_variables + 1) if assignment[x]}
    for x, _, a, b, c in rm.clause_gadget.values():
        if x in side_a:
            side_a.add(a)
        else:
            side_a.update((b, c))
    cut = Cut.from_side_a(side_a, rm.num_vertices)
    if not cut.side_a or not cut.side_b:
        raise ValueError(
            "assignment sends every vertex to one side; "
            "a formula without 3-clauses has no induced cut"
        )
    if cut_fault(rm.graph, cut) is not None:
        raise AssertionError("induced cut is not triangle-free; reduction structure broken")
    return cut


def cut_to_assignment(rm: ReductionMap, cut: Cut) -> Assignment:
    """Read a NAE witness off a triangle-free cut: variable true iff on side A."""
    fault = cut_fault(rm.graph, cut)
    if fault is not None:
        raise ValueError(f"cut is not a triangle-free cut of the reduction graph: {fault}")
    return {x: (x in cut.side_a) for x in range(1, rm.num_variables + 1)}


def extract_nae(g: Graph) -> tuple[CnfFormula, dict[int, int]]:
    """Monotone 3-CNF with one variable per vertex and one clause per triangle."""
    vertex_var = {v: v for v in range(1, g.num_vertices + 1)}
    return CnfFormula(g.num_vertices, enumerate_triangles(g)), vertex_var


def cut_from_vertex_assignment(g: Graph, assignment: Assignment) -> Cut:
    """Cut induced by a per-vertex truth assignment, rebalanced if one-sided.

    If every vertex lands on one side, a vertex lying in no triangle is moved
    to the empty side; moving a lone vertex can never create a triangle.
    """
    n = g.num_vertices
    if n < 2:
        raise ValueError("a cut needs at least two vertices")
    require_variables(assignment, range(1, n + 1))
    side_a = {v for v in range(1, n + 1) if assignment[v]}
    if len(side_a) in (0, n):
        covered = {v for tri in enumerate_triangles(g) for v in tri}
        movable = [v for v in range(1, n + 1) if v not in covered]
        if not movable:
            raise ValueError("every vertex lies in a triangle; cannot rebalance the empty side")
        side_a ^= {min(movable)}
    cut = Cut.from_side_a(side_a, n)
    fault = cut_fault(g, cut)
    if fault is not None:
        raise ValueError(f"assignment leaves a {fault}")
    return cut


def canonical_gadget() -> tuple[Graph, tuple[int, int, int, int, int]]:
    """The reference gadget's graph on vertices 1..5 and its map tuple (x, y, a, b, c):
    apexes 1, 2 over the face {3, 4, 5}."""
    gadget = (1, 2, 3, 4, 5)
    return ReductionMap(2, {}, {1: gadget}).graph, gadget


@dataclass(frozen=True)
class GadgetCertificate:
    """Exhaustive check results for a candidate gadget graph."""

    endpoints_together_in_every_cut: bool
    triangle_free_cut_exists: bool
    endpoint_colour_pairs_extend: bool
    endpoints_nonadjacent_degree_three: bool

    def all_ok(self) -> bool:
        return all(getattr(self, fld.name) for fld in fields(self))


def gadget_certify(g: Graph, x: int, y: int) -> GadgetCertificate:
    """Certify the four gadget properties by exhaustive enumeration.

    Over all 2^5 bipartitions: every triangle-free cut keeps x and y
    together, and at least one triangle-free cut exists.  Over all 25
    ordered endpoint colour pairs from 1..5: a proper 5-colouring extending
    the pair exists.  Finally x and y are non-adjacent, both of degree 3.
    """
    if g.num_vertices != 5:
        raise ValueError("gadget certification expects a graph on 5 vertices")
    vertices = frozenset(range(1, 6))
    if x == y or not {x, y} <= vertices:
        raise ValueError(f"gadget endpoints must be two distinct vertices of 1..5, got {x} and {y}")
    others = sorted(vertices - {x, y})

    subsets = [frozenset(s) for r in range(6) for s in itertools.combinations(vertices, r)]
    cut_sides = [a for a in subsets if cut_fault(g, Cut.from_side_a(a, 5)) is None]
    together = all((x in a) == (y in a) for a in cut_sides)
    cut_exists = bool(cut_sides)

    pairs_extend = all(
        any(
            colouring_fault(g, Colouring({**dict(zip(others, combo)), x: cx, y: cy}, 5)) is None
            for combo in itertools.product(range(1, 6), repeat=len(others))
        )
        for cx in range(1, 6)
        for cy in range(1, 6)
    )

    endpoints_ok = (
        not g.has_edge(x, y) and len(g.adj[x]) == 3 and len(g.adj[y]) == 3
    )
    return GadgetCertificate(
        endpoints_together_in_every_cut=together,
        triangle_free_cut_exists=cut_exists,
        endpoint_colour_pairs_extend=pairs_extend,
        endpoints_nonadjacent_degree_three=endpoints_ok,
    )


def emit_reduction_map(rm: ReductionMap) -> str:
    """Text form: `var`, `tri` and `gad` lines, consumed by the CLI verifier."""
    lines = []
    for x in range(1, rm.num_variables + 1):
        lines.append(f"var {x} {x}")
    for ci in sorted(rm.clause_triangle):
        v1, v2, v3 = rm.clause_triangle[ci]
        lines.append(f"tri {ci} {v1} {v2} {v3}")
    for ci in sorted(rm.clause_gadget):
        x, y, a, b, c = rm.clause_gadget[ci]
        lines.append(f"gad {ci} {x} {y} {a} {b} {c}")
    return "\n".join(lines) + "\n"


def parse_reduction_map(text: str | bytes) -> ReductionMap:
    """Read the `var`, `tri` and `gad` lines written by emit_reduction_map.

    The `var` lines must be exactly `var x x` for x = 1..n.
    """
    text = decoded(text)
    variables, clause_triangle, clause_gadget = _emitted_tables(text) or _map_lines(text)
    n = len(variables)
    if variables != {x: x for x in range(1, n + 1)}:
        raise FormatError(f"var lines must be 'var x x' for x = 1..{n}")
    # As build_graph writes them: each variable in at most one triangle, gadget apexes
    # variables, and each gadget's face the next three ids above n, in clause-id order.
    in_triangle: set[int] = set()
    for ci in sorted(clause_triangle):
        if ci in clause_gadget:
            raise FormatError(f"clause {ci} mapped twice")
        for v in clause_triangle[ci]:
            if not 1 <= v <= n:
                raise FormatError(f"clause {ci} names vertex {v}, not a variable 1..{n}")
            if v in in_triangle:
                raise FormatError(f"clause {ci} names variable {v}, already in a triangle")
            in_triangle.add(v)
    num_vertices = n
    for ci in sorted(clause_gadget):
        x, y, *face = clause_gadget[ci]
        for v in (x, y):
            if not 1 <= v <= n:
                raise FormatError(f"clause {ci} names vertex {v}, not a variable 1..{n}")
        if x == y:
            raise FormatError(f"clause {ci} names variable {x} as both apexes")
        for v in face:
            if v <= n:
                raise FormatError(f"clause {ci} puts vertex {v} inside its gadget, not above {n}")
            num_vertices += 1
            if v != num_vertices:
                raise FormatError(f"clause {ci} puts vertex {v} inside its gadget, not {num_vertices}")
    if num_vertices > MAX_COUNT:
        raise FormatError(f"vertex id {num_vertices} exceeds the limit of {MAX_COUNT}")
    return ReductionMap(n, clause_triangle, clause_gadget)


def _emitted_tables(text: str):
    """The var, tri and gad tables of a text in emit_reduction_map's form, each id on
    one line; None for any other text."""
    gad_at = text.find("\ngad ") + 1 or len(text)
    tri_at = text.find("\ntri ", 0, gad_at) + 1 or gad_at
    var = columns(text, 0, tri_at, "var", 2)
    tri = columns(text, tri_at, gad_at, "tri", 4)
    gad = columns(text, gad_at, len(text), "gad", 6)
    if var is None or tri is None or gad is None:
        return None
    tables = (
        dict(zip(var[0], var[1])),
        dict(zip(tri[0], zip(*tri[1:]))),
        dict(zip(gad[0], zip(*gad[1:]))),
    )
    # A repeated id is left to the line reader, which names its line.
    return tables if list(map(len, tables)) == [len(var[0]), len(tri[0]), len(gad[0])] else None


def _map_lines(text: str):
    """The var, tri and gad tables of any text, read line by line; FormatError names
    the first line that is malformed or repeats an id."""
    variables: dict[int, int] = {}
    clause_triangle: dict[int, tuple[int, int, int]] = {}
    clause_gadget: dict[int, tuple[int, int, int, int, int]] = {}
    # kind -> (table, tokens per line, what the key names, value builder)
    schema = {
        "var": (variables, 3, "variable", lambda values: values[0]),
        "tri": (clause_triangle, 5, "clause", tuple),
        "gad": (clause_gadget, 7, "clause", tuple),
    }
    for line, tokens in records(text):
        kind = tokens[0]
        if kind not in schema:
            raise FormatError(f"unrecognized map line: {line!r}")
        table, arity, noun, build = schema[kind]
        if len(tokens) != arity:
            raise FormatError(f"malformed {kind} line: {line!r}")
        key, *values = ints(tokens[1:], f"{kind} line", line)
        if key in table:
            raise FormatError(f"{noun} {key} mapped twice")
        table[key] = build(values)
    return variables, clause_triangle, clause_gadget
