"""Graphs that several test files build."""

import itertools

from naecut import Graph


def complete_graph(n):
    """K_n on the vertices 1..n."""
    return Graph(n, itertools.combinations(range(1, n + 1), 2))
