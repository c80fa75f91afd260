"""Simple undirected graphs: triangles, degrees, exact colouring, cut checks.

A graph is held as sorted adjacency tuples, which every reader walks directly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import filterfalse

from .errors import BudgetExceeded, FormatError, SearchBudget
from .textio import MAX_COUNT, columns, decoded, ints, read_header, records


class Graph:
    """Undirected simple graph on vertices 1..num_vertices, immutable.

    `adj` is a list: `adj[v]` is the sorted tuple of v's neighbours and `adj[0]`
    is empty.  It is the only stored edge data; the frozenset `edges` is
    rebuilt from it.  The rows share one int object per vertex, so a parsed
    graph keeps no int per edge end.
    """

    __slots__ = ("num_vertices", "adj")

    def __init__(self, num_vertices: int, edges=()):
        """The graph with the given (u, v) pairs as edges; duplicates are dropped silently.

        ValueError names the first self-loop or out-of-range edge in input order.
        """
        n = num_vertices
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        ids = list(range(n + 1))
        adj = [[] for _ in ids]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) out of range 1..{n}")
            adj[u].append(ids[v])
            adj[v].append(ids[u])
        # Each row becomes its tuple in place, so the lists go one at a time.
        for u, row in enumerate(adj):
            row.sort()
            if len(set(row)) != len(row):
                row = sorted(set(row))
            adj[u] = tuple(row)
        self.num_vertices, self.adj = n, adj

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset([(u, v) for u, row in enumerate(self.adj) for v in row if v > u])

    @property
    def num_edges(self) -> int:
        return sum(map(len, self.adj)) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return 1 <= u <= self.num_vertices and v in self.adj[u]

    def __eq__(self, other):
        return isinstance(other, Graph) and self.adj == other.adj

    def __repr__(self):
        return f"Graph({self.num_vertices} vertices, {self.num_edges} edges)"


@dataclass(frozen=True)
class Cut:
    """A bipartition of the vertex set; validity is checked by the verifier."""

    side_a: frozenset[int]
    side_b: frozenset[int]

    @staticmethod
    def from_side_a(side_a, num_vertices: int) -> "Cut":
        """The cut with the given side A; side B is the rest of 1..num_vertices."""
        side_a = frozenset(side_a)
        return Cut(side_a, frozenset(filterfalse(side_a.__contains__, range(1, num_vertices + 1))))


@dataclass(frozen=True)
class Colouring:
    """Vertex -> colour map using colours 1..k."""

    colours: dict[int, int]
    k: int


def parse_graph(text: str | bytes) -> Graph:
    """Parse a DIMACS-col style graph: `p edge <n> <m>` header, `e <u> <v>` lines."""
    text = decoded(text)
    (n, m), us, vs = _emitted_edges(text) or _edge_lines(text)
    try:
        g = Graph(n, zip(us, vs))
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    if g.num_edges != len(us):
        raise FormatError(f"duplicate edge: {len(us)} edge lines name {g.num_edges} edges")
    if len(us) != m:
        raise FormatError(f"header promises {m} edges, found {len(us)}")
    return g


def _emitted_edges(text: str):
    """The header counts and edge columns of a text in emit_graph's form, counts
    within MAX_COUNT; None for any other text."""
    cut = text.find("\n") + 1
    head = columns(text, 0, cut, "p edge", 2)
    if head is None or len(head[0]) != 1 or max(head[0] + head[1]) > MAX_COUNT:
        return None
    edges = columns(text, cut, len(text), "e", 2)
    return None if edges is None else ((head[0][0], head[1][0]), *edges)


def _edge_lines(text: str):
    """The header counts and edge columns of any text, read line by line; FormatError
    names the first line that is not a header or an edge."""
    header = None
    us: list[int] = []
    vs: list[int] = []
    for line, tokens in records(text):
        if tokens[0] == "e":
            if header is None:
                raise FormatError("edge line before 'p edge' header")
            if len(tokens) != 3:
                raise FormatError(f"malformed edge line: {line!r}")
            u, v = ints(tokens[1:], "edge line", line)
            us.append(u)
            vs.append(v)
        elif tokens[0] == "p":
            if header is not None:
                raise FormatError("duplicate 'p edge' header")
            header = read_header(tokens, "edge", line)
        else:
            raise FormatError(f"unrecognized line: {line!r}")
    if header is None:
        raise FormatError("missing 'p edge' header")
    return header, us, vs


def emit_graph(g: Graph) -> str:
    body = "".join([f"e {u} {v}\n" for u, row in enumerate(g.adj) for v in row if v > u])
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
    """Name the first monochromatic edge, else a partial or out-of-range colouring,
    else the smallest coloured vertex the graph lacks; or None."""
    colours, n = c.colours, g.num_vertices
    for u, row in enumerate(g.adj):
        cu = colours.get(u)
        if cu is not None:
            for v in row:
                if v > u and colours.get(v) == cu:
                    return f"edge {u} {v} is monochromatic"
    if not all(1 <= colours.get(v, 0) <= c.k for v in range(1, n + 1)):
        return "colouring is partial or uses colours outside 1..k"
    if len(colours) > n:
        return f"vertex {min(v for v in colours if not 1 <= v <= n)} out of range 1..{n}"
    return None


def cut_fault(g: Graph, cut: Cut) -> str | None:
    """Name an empty side, a non-partition or the lexicographically first
    monochromatic triangle; or None."""
    a, b = cut.side_a, cut.side_b
    if not a or not b:
        return "one side of the cut is empty"
    # Disjoint sides of n ids in all, each within 1..n, cover 1..n exactly.
    n = g.num_vertices
    if len(a) + len(b) != n or not a.isdisjoint(b) or not (
        1 <= min(min(a), min(b)) and max(max(a), max(b)) <= n
    ):
        return f"sides do not partition the vertices 1..{n}"
    bad = next(_triangles(g, cut.side_a), None)
    return None if bad is None else "monochromatic triangle {} {} {}".format(*bad)


def verify_cut_triangle_free(g: Graph, cut: Cut) -> bool:
    """True iff cut_fault finds nothing; serves the benchmark's workloads."""
    return cut_fault(g, cut) is None
