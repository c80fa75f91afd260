"""Graphs that several test files build, and their edge list."""

import itertools
import random

from naecut import Graph


def complete_graph(n):
    """K_n on the vertices 1..n."""
    return Graph(n, itertools.combinations(range(1, n + 1), 2))


def random_graph(seed, n, p=0.5):
    """G(n, p) on the vertices 1..n, seeded."""
    rng = random.Random(seed)
    edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p]
    return Graph(n, edges)


def edge_list(g):
    """The (u, v) edges of g with u < v, in increasing order."""
    return [(u, v) for u, row in enumerate(g.adj) for v in row if v > u]
