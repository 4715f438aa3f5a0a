"""The census of small graphs: every connected loopless multigraph with
every vertex degree at least 2 (the graphs validate_graph accepts) on at
most five vertices and seven lines, once up to isomorphism.

A class's key is the least sorted edge list, each edge a (u, v) pair of
vertex indices with u < v, over the V! relabellings of its vertices. Only
labellings whose degrees do not increase along the vertex order are keyed,
and every class has one. Each class is given as the graph of its key, on
vertices a, b, c, ..., line i + 1 running from edge i's u to its v.
"""

from __future__ import annotations

import itertools

from matsum import graph as gr
from matsum.graph import MatsubaraGraph

_NAMES = "abcdefghij"


def census(max_vertices: int = 5,
           max_lines: int = 7) -> dict[tuple[int, int], list[MatsubaraGraph]]:
    """The classes by (V, I), each list in ascending key order."""
    out = {}
    for v in range(2, max_vertices + 1):
        pairs = list(itertools.combinations(range(v), 2))
        relabellings = list(itertools.permutations(range(v)))
        for lines in range(v, max_lines + 1):
            keys = set()
            for edges in itertools.combinations_with_replacement(pairs, lines):
                degree = [0] * v
                for a, b in edges:
                    degree[a] += 1
                    degree[b] += 1
                if degree[-1] < 2 or any(x < y for x, y in zip(degree, degree[1:])):
                    continue
                if gr._reach(1, [1 << a | 1 << b for a, b in edges]) != (1 << v) - 1:
                    continue
                keys.add(min(tuple(sorted((min(p[a], p[b]), max(p[a], p[b])) for a, b in edges))
                             for p in relabellings))
            out[v, lines] = [gr.make_graph(_NAMES[:v], [(i + 1, _NAMES[a], _NAMES[b])
                                                         for i, (a, b) in enumerate(key)])
                             for key in sorted(keys)]
    return out
