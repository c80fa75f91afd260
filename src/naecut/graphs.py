"""Simple undirected graphs: triangles, degrees, exact colouring, cut checks.

A graph is held as sorted adjacency tuples, which every reader walks directly.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass

from .errors import BudgetExceeded, FormatError, SearchBudget
from .textio import ints, read_header, records


class Graph:
    """Undirected simple graph on vertices 1..num_vertices, immutable.

    `adj` is a list: `adj[v]` is the sorted tuple of v's neighbours and `adj[0]`
    is empty, so `adj.values()` and set operators such as `&` do not apply.  It
    is the only stored edge data; the frozenset `edges` is rebuilt from it.
    """

    __slots__ = ("num_vertices", "adj")

    def __init__(self, num_vertices: int, edges=()):
        if num_vertices < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [[] for _ in range(num_vertices + 1)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= num_vertices and 1 <= v <= num_vertices):
                raise ValueError(f"edge ({u},{v}) out of range 1..{num_vertices}")
            adj[u].append(v)
            adj[v].append(u)
        for row in adj:
            row.sort()
            if len(set(row)) != len(row):
                row[:] = sorted(set(row))
        self.num_vertices = num_vertices
        self.adj = list(map(tuple, adj))

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.sorted_edges())

    @property
    def num_edges(self) -> int:
        return sum(map(len, self.adj)) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return 1 <= u <= self.num_vertices and v in self.adj[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def sorted_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, row in enumerate(self.adj) for v in row if v > u]

    def with_edge(self, u: int, v: int) -> "Graph":
        return Graph(self.num_vertices, self.sorted_edges() + [(u, v)])

    def without_edge(self, u: int, v: int) -> "Graph":
        drop = ((u, v), (v, u))
        return Graph(self.num_vertices, [e for e in self.sorted_edges() if e not in drop])

    def __eq__(self, other):
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self):
        return hash(tuple(self.adj))

    def __repr__(self):
        return f"Graph({self.num_vertices} vertices, {self.num_edges} edges)"


@dataclass(frozen=True)
class Cut:
    """A bipartition of the vertex set; validity is checked by the verifier."""

    side_a: frozenset[int]
    side_b: frozenset[int]

    def swapped(self) -> "Cut":
        return Cut(self.side_b, self.side_a)


@dataclass(frozen=True)
class Colouring:
    """Vertex -> colour map using colours 1..k."""

    colours: dict[int, int]
    k: int


def complete_graph(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(1, n + 1), 2))


def parse_graph(text: str | bytes) -> Graph:
    """Parse a DIMACS-col style graph: `p edge <n> <m>` header, `e <u> <v>` lines."""
    header = None
    edges: list[tuple[int, int]] = []
    for line, tokens in records(text):
        if tokens[0] == "e":
            if header is None:
                raise FormatError("edge line before 'p edge' header")
            if len(tokens) != 3:
                raise FormatError(f"malformed edge line: {line!r}")
            try:
                edges.append((int(tokens[1]), int(tokens[2])))
            except ValueError:
                raise FormatError(f"malformed edge line: {line!r}") from None
        elif tokens[0] == "p":
            if header is not None:
                raise FormatError("duplicate 'p edge' header")
            header = read_header(tokens, "edge", line)
        else:
            raise FormatError(f"unrecognized line: {line!r}")
    if header is None:
        raise FormatError("missing 'p edge' header")
    try:
        g = Graph(header[0], edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    if g.num_edges != len(edges):
        raise FormatError(f"duplicate edge: {len(edges)} edge lines name {g.num_edges} edges")
    if len(edges) != header[1]:
        raise FormatError(f"header promises {header[1]} edges, found {len(edges)}")
    return g


def emit_graph(g: Graph) -> str:
    body = "".join(f"e {u} {v}\n" for u, v in g.sorted_edges())
    return f"p edge {g.num_vertices} {g.num_edges}\n{body}"


def parse_colouring(text: str | bytes) -> Colouring:
    """Parse a colouring certificate: `k <k>` header, then `<vertex> <colour>` lines."""
    k = None
    colours: dict[int, int] = {}
    for line, tokens in records(text):
        if tokens[0] == "k":
            if k is not None:
                raise FormatError("duplicate 'k' header")
            if len(tokens) != 2:
                raise FormatError(f"malformed colour header: {line!r}")
            (k,) = ints(tokens[1:], "colour header", line)
        elif k is None:
            raise FormatError("colour line before 'k' header")
        elif len(tokens) != 2:
            raise FormatError(f"malformed colour line: {line!r}")
        else:
            try:
                v, c = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise FormatError(f"malformed colour line: {line!r}") from None
            if v in colours:
                raise FormatError(f"vertex {v} coloured twice")
            colours[v] = c
    if k is None:
        raise FormatError("missing 'k' header")
    return Colouring(colours, k)


def emit_colouring(c: Colouring) -> str:
    lines = [f"k {c.k}"]
    lines.extend(f"{v} {c.colours[v]}" for v in sorted(c.colours))
    return "\n".join(lines) + "\n"


def _triangles(g: Graph, side: frozenset[int] | None = None):
    """Each triangle (u, v, w) in lexicographic order: u < v < w, w in adj[v] and adj[u].

    Given `side`, only the triangles whose three vertices are all in it or all
    outside it: each u then walks only its higher neighbours on its own side.
    """
    adj = g.adj
    for u, row in enumerate(adj):
        i = bisect_right(row, u)
        if len(row) - i < 2:
            continue
        higher = row[i:]
        if side is not None:
            in_side = u in side
            higher = [v for v in higher if (v in side) == in_side]
        common = set(higher)
        for v in higher:
            for w in adj[v]:
                if w > v and w in common:
                    yield (u, v, w)


def enumerate_triangles(g: Graph) -> list[tuple[int, int, int]]:
    """All 3-cliques of g as sorted triples (u < v < w), in lexicographic order."""
    return list(_triangles(g))


def max_degree(g: Graph) -> int:
    return max(map(len, g.adj))


def find_k_colouring(g: Graph, k: int, budget: SearchBudget | None = None) -> Colouring | None:
    """Exact backtracking search for a proper k-colouring.

    Vertices are processed in id order and colours tried in increasing order,
    with vertex 1 pinned to colour 1 (a safe symmetry break), so the result is
    deterministic.  Raises BudgetExceeded after `budget.max_states` attempted
    assignments; that is distinct from returning None (no colouring exists).
    """
    if k < 1:
        raise ValueError("colour count must be at least 1")
    max_nodes = (budget or SearchBudget()).max_states
    n = g.num_vertices
    colours: dict[int, int] = {}
    nodes = 0
    # Vertices 1..v-1 are coloured; c is the next colour to try at v.  A
    # dead end pops v-1's colour and resumes after it, so no recursion.
    v, c = 1, 1
    while v <= n:
        limit = 1 if v == 1 else k
        while c <= limit:
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExceeded(f"colouring search exceeded {max_nodes} nodes")
            if all(colours.get(u) != c for u in g.adj[v]):
                break
            c += 1
        if c <= limit:
            colours[v] = c
            v, c = v + 1, 1
        elif v == 1:
            return None
        else:
            v -= 1
            c = colours.pop(v) + 1
    return Colouring(colours, k)


def colouring_fault(g: Graph, c: Colouring) -> str | None:
    """Name the first monochromatic edge, else a partial or out-of-range colouring; or None."""
    colours = c.colours
    for u, row in enumerate(g.adj):
        cu = colours.get(u)
        if cu is not None:
            for v in row:
                if v > u and colours.get(v) == cu:
                    return f"edge {u} {v} is monochromatic"
    if not all(1 <= colours.get(v, 0) <= c.k for v in range(1, g.num_vertices + 1)):
        return "colouring is partial or uses colours outside 1..k"
    return None


def verify_colouring(g: Graph, c: Colouring) -> bool:
    """True iff c is a total proper colouring of g with colours in 1..k."""
    return colouring_fault(g, c) is None


def find_monochromatic_triangle(g: Graph, cut: Cut) -> tuple[int, int, int] | None:
    """Lexicographically first triangle inside one side of the cut; stops at the first hit."""
    return next(_triangles(g, cut.side_a), None)


def cut_fault(g: Graph, cut: Cut) -> str | None:
    """Name an empty side, a non-partition or the first monochromatic triangle; or None."""
    a, b = cut.side_a, cut.side_b
    if not a or not b:
        return "one side of the cut is empty"
    if a & b or a | b != frozenset(range(1, g.num_vertices + 1)):
        return f"sides do not partition the vertices 1..{g.num_vertices}"
    bad = find_monochromatic_triangle(g, cut)
    return None if bad is None else "monochromatic triangle {} {} {}".format(*bad)


def verify_cut_triangle_free(g: Graph, cut: Cut) -> bool:
    """True iff cut is a partition of V into two non-empty, triangle-free sides."""
    return cut_fault(g, cut) is None
