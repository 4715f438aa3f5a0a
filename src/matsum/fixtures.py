"""Reference graphs and the seeded random-graph corpus.

g2: two vertices joined by two parallel lines, both oriented b -> a.
g3: the same with three parallel lines.
g4: four vertices a, b, c, d; a square a-b-c-d with the chord b-d. Line 5
    runs down the chord b -> d and the remaining lines run b -> a, d -> a,
    c -> b, c -> d, so the vertex constraints read
    n1 + n2 = N_a, n3 - n1 - n5 = N_b, -n3 - n4 = N_c.
"""

from __future__ import annotations

import numpy as np

from .graph import MatsubaraGraph, make_graph


def g2() -> MatsubaraGraph:
    return make_graph(["a", "b"], [(1, "b", "a"), (2, "b", "a")])


def g3() -> MatsubaraGraph:
    return make_graph(["a", "b"], [(1, "b", "a"), (2, "b", "a"), (3, "b", "a")])


def g4() -> MatsubaraGraph:
    return make_graph(
        ["a", "b", "c", "d"],
        [(1, "b", "a"), (2, "d", "a"), (3, "c", "b"), (4, "c", "d"), (5, "b", "d")],
    )


_NAMES = "abcdefghij"


def random_graph(
    rng: np.random.Generator, max_vertices: int = 5, max_lines: int = 7
) -> MatsubaraGraph:
    """Seeded random connected multigraph with minimum degree 2, no loops.

    Builds a random spanning tree, tops it up with random chords, and retries
    until every vertex has degree >= 2.
    """
    while True:
        nv = int(rng.integers(2, max_vertices + 1))
        nl = int(rng.integers(nv, max_lines + 1))
        vertices = list(_NAMES[:nv])
        edges: list[tuple[int, str, str]] = []
        for k in range(1, nv):
            other = int(rng.integers(0, k))
            pair = [vertices[other], vertices[k]]
            rng.shuffle(pair)
            edges.append((len(edges) + 1, pair[0], pair[1]))
        while len(edges) < nl:
            a, b = rng.choice(nv, size=2, replace=False)
            pair = [vertices[int(a)], vertices[int(b)]]
            edges.append((len(edges) + 1, pair[0], pair[1]))
        degree = {v: 0 for v in vertices}
        for _, t, h in edges:
            degree[t] += 1
            degree[h] += 1
        if min(degree.values()) >= 2:
            return make_graph(vertices, edges)
