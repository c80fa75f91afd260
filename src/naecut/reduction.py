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

from .errors import FormatError
from .formula import Assignment, Clause, CnfFormula, nae_satisfies
from .graphs import (
    Colouring,
    Cut,
    Graph,
    enumerate_triangles,
    verify_colouring,
    verify_cut_triangle_free,
)
from .textio import ints, records
from .transform import check_properties


@dataclass(frozen=True)
class Gadget:
    """Glued-tetrahedra gadget: apexes x, y over the shared face {a, b, c}."""

    x: int
    y: int
    a: int
    b: int
    c: int

    def internal_vertices(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def vertices(self) -> tuple[int, ...]:
        return (self.x, self.y, self.a, self.b, self.c)

    def edge_list(self) -> list[tuple[int, int]]:
        x, y, a, b, c = self.x, self.y, self.a, self.b, self.c
        return [(x, a), (x, b), (x, c), (y, a), (y, b), (y, c), (a, b), (b, c), (a, c)]


@dataclass(frozen=True)
class ReductionMap:
    """Provenance linking formula elements to graph elements (1-based clause ids).

    Variable x is vertex x; the map records only the clause structures.
    """

    num_variables: int
    num_vertices: int
    clause_triangle: dict[int, tuple[int, int, int]]
    clause_gadget: dict[int, Gadget]


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
    clause_gadget: dict[int, Gadget] = {}
    next_vertex = f.num_vars + 1
    # The properties make a 3-clause unnegated and a 2-clause one literal of each sign.
    for ci, clause in enumerate(f.clauses, start=1):
        if len(clause.literals) == 3:
            clause_triangle[ci] = tuple(sorted(clause.literals))
        else:
            neg, pos = sorted(clause.literals)
            clause_gadget[ci] = Gadget(pos, -neg, next_vertex, next_vertex + 1, next_vertex + 2)
            next_vertex += 3
    rm = ReductionMap(f.num_vars, next_vertex - 1, clause_triangle, clause_gadget)
    return graph_from_reduction_map(rm), rm


def graph_from_reduction_map(rm: ReductionMap) -> Graph:
    """Rebuild the reduction graph from its map alone."""
    edges: list[tuple[int, int]] = []
    for v1, v2, v3 in rm.clause_triangle.values():
        edges.extend([(v1, v2), (v1, v3), (v2, v3)])
    for gadget in rm.clause_gadget.values():
        edges.extend(gadget.edge_list())
    return Graph(rm.num_vertices, edges)


def construct_5_colouring(g: Graph, rm: ReductionMap) -> Colouring:
    """Explicit proper colouring of a reduction graph with at most 5 colours.

    Clause triangles get colours 1, 2, 3 by ascending vertex id; variable
    vertices outside any triangle get colour 1; each gadget's internal trio
    takes the three smallest colours of 1..5 not used by its endpoints.
    """
    colours: dict[int, int] = {}
    for ci in sorted(rm.clause_triangle):
        v1, v2, v3 = rm.clause_triangle[ci]
        colours[v1], colours[v2], colours[v3] = 1, 2, 3
    for x in range(1, rm.num_variables + 1):
        if x not in colours:
            colours[x] = 1
    for ci in sorted(rm.clause_gadget):
        gadget = rm.clause_gadget[ci]
        used = {colours[gadget.x], colours[gadget.y]}
        free = [c for c in range(1, 6) if c not in used]
        colours[gadget.a], colours[gadget.b], colours[gadget.c] = free[:3]
    k = max(colours.values(), default=0)
    colouring = Colouring(colours, k)
    if not verify_colouring(g, colouring):
        raise AssertionError("constructed colouring is improper; graph is not a reduction output")
    return colouring


def assignment_to_cut(f: CnfFormula, rm: ReductionMap, assignment: Assignment) -> Cut:
    """Turn a NAE witness of the formula into a triangle-free cut of its graph.

    Variable vertices follow their truth value (true on side A).  Each
    gadget's endpoints land on one side because the 2-clause is satisfied;
    internal vertex a joins them and b, c go to the other side, which cuts
    all seven gadget triangles.
    """
    if not nae_satisfies(f, assignment):
        raise ValueError("assignment does not NAE-satisfy the formula")
    side_a: set[int] = set()
    side_b: set[int] = set()
    for x in range(1, rm.num_variables + 1):
        (side_a if assignment[x] else side_b).add(x)
    for ci in sorted(rm.clause_gadget):
        gadget = rm.clause_gadget[ci]
        if gadget.x in side_a:
            side_a.add(gadget.a)
            side_b.update((gadget.b, gadget.c))
        else:
            side_b.add(gadget.a)
            side_a.update((gadget.b, gadget.c))
    if not side_a or not side_b:
        raise ValueError(
            "assignment sends every vertex to one side; "
            "a formula without 3-clauses has no induced cut"
        )
    cut = Cut(frozenset(side_a), frozenset(side_b))
    if not verify_cut_triangle_free(graph_from_reduction_map(rm), cut):
        raise AssertionError("induced cut is not triangle-free; reduction structure broken")
    return cut


def cut_to_assignment(rm: ReductionMap, cut: Cut) -> Assignment:
    """Read a NAE witness off a triangle-free cut: variable true iff on side A."""
    g = graph_from_reduction_map(rm)
    if not verify_cut_triangle_free(g, cut):
        raise ValueError("cut is not a triangle-free cut of the reduction graph")
    return {x: (x in cut.side_a) for x in range(1, rm.num_variables + 1)}


def extract_nae(g: Graph) -> tuple[CnfFormula, dict[int, int]]:
    """Monotone 3-CNF with one variable per vertex and one clause per triangle."""
    clauses = tuple(
        Clause.from_signed(u, v, w) for u, v, w in enumerate_triangles(g)
    )
    vertex_var = {v: v for v in range(1, g.num_vertices + 1)}
    return CnfFormula(g.num_vertices, clauses), vertex_var


def cut_from_vertex_assignment(g: Graph, assignment: Assignment) -> Cut:
    """Cut induced by a per-vertex truth assignment, rebalanced if one-sided.

    If every vertex lands on one side, a vertex lying in no triangle is moved
    to the empty side; moving a lone vertex can never create a triangle.
    """
    n = g.num_vertices
    if n < 2:
        raise ValueError("a cut needs at least two vertices")
    side_a = {v for v in range(1, n + 1) if assignment[v]}
    side_b = {v for v in range(1, n + 1) if not assignment[v]}
    if not side_a or not side_b:
        covered = {v for tri in enumerate_triangles(g) for v in tri}
        movable = [v for v in range(1, n + 1) if v not in covered]
        if not movable:
            raise ValueError("every vertex lies in a triangle; cannot rebalance the empty side")
        v = min(movable)
        if side_a:
            side_a.discard(v)
            side_b.add(v)
        else:
            side_b.discard(v)
            side_a.add(v)
    cut = Cut(frozenset(side_a), frozenset(side_b))
    if not verify_cut_triangle_free(g, cut):
        raise ValueError("assignment leaves a monochromatic triangle")
    return cut


def canonical_gadget() -> tuple[Graph, Gadget]:
    """The reference gadget on vertices 1..5 with x=1, y=2, face {3, 4, 5}."""
    gadget = Gadget(1, 2, 3, 4, 5)
    return Graph(5, gadget.edge_list()), gadget


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
    others = sorted(vertices - {x, y})

    subsets = [frozenset(s) for r in range(6) for s in itertools.combinations(vertices, r)]
    cut_sides = [a for a in subsets if verify_cut_triangle_free(g, Cut(a, vertices - a))]
    together = all((x in a) == (y in a) for a in cut_sides)
    cut_exists = bool(cut_sides)

    pairs_extend = True
    for cx in range(1, 6):
        for cy in range(1, 6):
            found = False
            for combo in itertools.product(range(1, 6), repeat=len(others)):
                colours = dict(zip(others, combo))
                colours[x] = cx
                colours[y] = cy
                if verify_colouring(g, Colouring(colours, 5)):
                    found = True
                    break
            if not found:
                pairs_extend = False

    endpoints_ok = (
        not g.has_edge(x, y) and g.degree(x) == 3 and g.degree(y) == 3
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
        gadget = rm.clause_gadget[ci]
        lines.append(f"gad {ci} {gadget.x} {gadget.y} {gadget.a} {gadget.b} {gadget.c}")
    return "\n".join(lines) + "\n"


def parse_reduction_map(text: str | bytes) -> ReductionMap:
    """Read the `var`, `tri` and `gad` lines written by emit_reduction_map.

    The `var` lines must be exactly `var x x` for x = 1..n.
    """
    variables: dict[int, int] = {}
    clause_triangle: dict[int, tuple[int, int, int]] = {}
    clause_gadget: dict[int, Gadget] = {}
    # kind -> (table, tokens per line, what the key names, value builder)
    schema = {
        "var": (variables, 3, "variable", lambda values: values[0]),
        "tri": (clause_triangle, 5, "clause", tuple),
        "gad": (clause_gadget, 7, "clause", lambda values: Gadget(*values)),
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
    n = len(variables)
    if not n:
        raise FormatError("no var lines found")
    if variables != {x: x for x in range(1, n + 1)}:
        raise FormatError(f"var lines must be 'var x x' for x = 1..{n}")
    ids = [n]
    ids += [v for tri in clause_triangle.values() for v in tri]
    ids += [v for gadget in clause_gadget.values() for v in gadget.vertices()]
    return ReductionMap(
        num_variables=n,
        num_vertices=max(ids),
        clause_triangle=clause_triangle,
        clause_gadget=clause_gadget,
    )
