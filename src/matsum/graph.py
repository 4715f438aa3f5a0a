"""Oriented connected multigraphs indexing Matsubara sums, and their combinatorics.

A valid graph has no self-loops, minimum vertex degree 2, and is connected.
Every line carries a positive symbol q_i and a summation variable n_i; every
vertex carries an integer symbol N_v. The last vertex in input order is the
root: its N is eliminated through sum(N_v) = 0.

All types are immutable and all operations are pure functions, so everything
here is safe to use concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

#: Hard cap on line count; subset enumeration is exponential in I.
MAX_LINES = 16

LineSubset = tuple[int, ...]


class GraphError(ValueError):
    """Base class for graph validation and lookup failures."""


class SelfLoop(GraphError):
    def __init__(self, line_id: int):
        super().__init__(f"line {line_id} joins a vertex to itself")
        self.line_id = line_id


class DegreeBelowTwo(GraphError):
    def __init__(self, vertex: str, degree: int):
        super().__init__(f"vertex {vertex!r} has degree {degree} < 2")
        self.vertex = vertex
        self.degree = degree


class Disconnected(GraphError):
    pass


class DuplicateId(GraphError):
    pass


class UnknownVertex(GraphError):
    pass


class UnknownLine(GraphError):
    pass


class GraphTooLarge(GraphError):
    pass


class MalformedGraph(GraphError):
    """The description does not have the documented JSON shape."""


@dataclass(frozen=True)
class Line:
    id: int
    tail: str
    head: str


@dataclass(frozen=True)
class MatsubaraGraph:
    """Validated oriented multigraph. Construct via validate_graph/make_graph."""

    vertices: tuple[str, ...]
    lines: tuple[Line, ...]
    _line_by_id: dict[int, Line] = field(repr=False, compare=False, hash=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "_line_by_id", {ln.id: ln for ln in self.lines})

    @property
    def root(self) -> str:
        return self.vertices[-1]

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_lines(self) -> int:
        return len(self.lines)

    @property
    def line_ids(self) -> tuple[int, ...]:
        return tuple(ln.id for ln in self.lines)

    def line(self, line_id: int) -> Line:
        try:
            return self._line_by_id[line_id]
        except KeyError:
            raise UnknownLine(f"no line with id {line_id}") from None


class _UnionFind:
    def __init__(self, items: Iterable[str]):
        self.parent = {x: x for x in items}

    def find(self, x: str) -> str:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _connected(vertices: Sequence[str], lines: Iterable[Line]) -> bool:
    if not vertices:
        return False
    uf = _UnionFind(vertices)
    components = len(vertices)
    for ln in lines:
        if uf.union(ln.tail, ln.head):
            components -= 1
    return components == 1


def validate_graph(raw: dict) -> MatsubaraGraph:
    """Validate a raw description {"vertices": [...], "edges": [{"id", "from", "to"}...]}.

    Vertex order in the array fixes the N-symbol order; the last vertex is the
    root. Vertex names are strings; edge ids must be unique positive integers
    (not booleans). Raises a GraphError subclass naming the first offending
    element.
    """
    if not isinstance(raw, dict):
        raise MalformedGraph(f"graph description must be an object, not {type(raw).__name__}")
    vertices = _array(raw, "vertices")
    edges = _array(raw, "edges")
    if not vertices:
        raise Disconnected("graph has no vertices")
    seen_v: set[str] = set()
    for v in vertices:
        if not isinstance(v, str):
            raise MalformedGraph(f"vertex name {v!r} is not a string")
        if v in seen_v:
            raise DuplicateId(f"vertex {v!r} listed twice")
        seen_v.add(v)

    lines: list[Line] = []
    seen_ids: set[int] = set()
    for e in edges:
        if not isinstance(e, dict) or not {"id", "from", "to"} <= e.keys():
            raise MalformedGraph(f"edge {e!r} is not an object with id, from and to")
        lid, tail, head = e["id"], e["from"], e["to"]
        if not isinstance(lid, int) or isinstance(lid, bool) or lid <= 0:
            raise DuplicateId(f"edge id {lid!r} is not a positive integer")
        if lid in seen_ids:
            raise DuplicateId(f"edge id {lid} listed twice")
        seen_ids.add(lid)
        for v in (tail, head):
            if not isinstance(v, str) or v not in seen_v:
                raise UnknownVertex(f"edge {lid} references unknown vertex {v!r}")
        if tail == head:
            raise SelfLoop(lid)
        lines.append(Line(lid, tail, head))

    if len(lines) > MAX_LINES:
        raise GraphTooLarge(f"{len(lines)} lines exceeds the supported cap of {MAX_LINES}")

    degree = {v: 0 for v in vertices}
    for ln in lines:
        degree[ln.tail] += 1
        degree[ln.head] += 1
    for v in vertices:  # first offender in input order
        if degree[v] < 2:
            raise DegreeBelowTwo(v, degree[v])

    if not _connected(vertices, lines):
        raise Disconnected("graph is not connected")

    lines.sort(key=lambda ln: ln.id)
    return MatsubaraGraph(tuple(vertices), tuple(lines))


def _array(raw: dict, key: str) -> list:
    value = raw.get(key, [])
    if not isinstance(value, (list, tuple)):
        raise MalformedGraph(f"{key!r} must be an array, not {type(value).__name__}")
    return list(value)


def make_graph(vertices: Sequence[str], edges: Sequence[tuple[int, str, str]]) -> MatsubaraGraph:
    """Convenience constructor from (id, tail, head) triples."""
    return validate_graph({
        "vertices": list(vertices),
        "edges": [{"id": i, "from": t, "to": h} for i, t, h in edges],
    })


def incidence_sign(graph: MatsubaraGraph, vertex: str, line_id: int) -> int:
    """+1 if the line is oriented into the vertex, -1 if away, 0 if not incident."""
    if vertex not in graph.vertices:
        raise UnknownVertex(f"no vertex {vertex!r}")
    ln = graph.line(line_id)
    if ln.head == vertex:
        return 1
    if ln.tail == vertex:
        return -1
    return 0


def cycle_rank(graph: MatsubaraGraph) -> int:
    """Number of independent cycles, L = I - V + 1."""
    return graph.num_lines - graph.num_vertices + 1


def enumerate_spanning_trees(graph: MatsubaraGraph) -> list[LineSubset]:
    """All spanning trees, as sorted line-id tuples in lexicographic order.

    Backtracking over lines sorted by id: at each step either take the next
    acyclic line or skip it, pruning branches that cannot reach V-1 lines.
    """
    lines = graph.lines
    target = graph.num_vertices - 1
    trees: list[LineSubset] = []

    def extend(start: int, chosen: list[int], uf: _UnionFind):
        if len(chosen) == target:
            # target acyclic lines on V vertices leave exactly one component
            trees.append(tuple(chosen))
            return
        for pos in range(start, len(lines)):
            if len(chosen) + (len(lines) - pos) < target:
                break
            ln = lines[pos]
            saved = dict(uf.parent)
            if not uf.union(ln.tail, ln.head):
                continue  # would close a cycle
            chosen.append(ln.id)
            extend(pos + 1, chosen, uf)
            chosen.pop()
            uf.parent = saved

    extend(0, [], _UnionFind(graph.vertices))
    return trees


def count_spanning_trees(graph: MatsubaraGraph) -> int:
    """Spanning-tree count by the matrix-tree theorem (exact integer arithmetic).

    Determinant of the root-reduced multigraph Laplacian via fraction-free
    (Bareiss) elimination; independent cross-check for the enumerator.
    """
    idx = {v: i for i, v in enumerate(graph.vertices)}
    n = graph.num_vertices
    lap = [[0] * n for _ in range(n)]
    for ln in graph.lines:
        a, b = idx[ln.tail], idx[ln.head]
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    # drop the root row/column
    m = [row[: n - 1] for row in lap[: n - 1]]
    size = n - 1
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for r in range(k + 1, size):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[size - 1][size - 1]


def is_cutset(graph: MatsubaraGraph, subset: Iterable[int]) -> bool:
    """True iff removing the given lines disconnects the graph."""
    removed = set(subset)
    for lid in removed:
        graph.line(lid)  # id check
    remaining = [ln for ln in graph.lines if ln.id not in removed]
    return not _connected(graph.vertices, remaining)


def bonds(graph: MatsubaraGraph) -> list[tuple[frozenset[str], LineSubset]]:
    """Every bond (a cut whose two sides are both connected) once, as
    (side, crossing lines): the side is the one without the root, the lines
    are sorted. Bonds are exactly the fundamental cuts of spanning trees.
    Deterministic order, by the side's vertex bitmask in vertex order.
    """
    bit = {v: 1 << i for i, v in enumerate(graph.vertices)}
    adjacent = {b: 0 for b in bit.values()}
    for ln in graph.lines:
        adjacent[bit[ln.tail]] |= bit[ln.head]
        adjacent[bit[ln.head]] |= bit[ln.tail]

    def connected(mask: int) -> bool:
        seen = frontier = mask & -mask
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reach |= adjacent[low]
            frontier = reach & mask & ~seen
            seen |= frontier
        return seen == mask

    every = (1 << graph.num_vertices) - 1
    out = []
    for mask in range(1, 1 << (graph.num_vertices - 1)):  # root bit clear
        if connected(mask) and connected(every ^ mask):
            out.append((
                frozenset(v for v in graph.vertices if bit[v] & mask),
                tuple(ln.id for ln in graph.lines
                      if bool(bit[ln.tail] & mask) != bool(bit[ln.head] & mask)),
            ))
    return out


def line_subsets(ids: Iterable[int], max_size: int | None = None) -> Iterator[LineSubset]:
    """Each subset of the line ids of size 0..max_size (default: all) once.

    Deterministic order: by size, then lexicographic on sorted line ids.
    """
    ids = sorted(ids)
    if len(ids) > MAX_LINES:
        raise GraphTooLarge(f"subset enumeration capped at {MAX_LINES} lines")
    for size in range(len(ids) + 1 if max_size is None else max_size + 1):
        yield from itertools.combinations(ids, size)


def non_cutset_subsets(graph: MatsubaraGraph, max_size: int) -> list[LineSubset]:
    """All line subsets of size 0..max_size that do not disconnect the graph,
    by size, then lexicographic on sorted line ids."""
    return [s for s in line_subsets(graph.line_ids, max_size) if not is_cutset(graph, s)]


def cutset_subsets(graph: MatsubaraGraph, max_size: int) -> list[LineSubset]:
    """All line subsets of size 1..max_size that disconnect the graph, in the
    order of non_cutset_subsets."""
    return [s for s in line_subsets(graph.line_ids, max_size) if is_cutset(graph, s)]


def fundamental_cutset(
    graph: MatsubaraGraph, tree: Iterable[int], tree_line: int
) -> tuple[frozenset[str], dict[int, int]]:
    """Cut defined by removing one tree line from a spanning tree.

    Returns (side, crossing): `side` is the vertex set of the component the
    tree line points into, and `crossing` maps each line with exactly one
    endpoint in `side` to +1 if oriented into the side and -1 otherwise.
    The tree line itself always appears with sign +1.
    """
    tree_ids = set(tree)
    if tree_line not in tree_ids:
        raise UnknownLine(f"line {tree_line} is not in the tree")
    uf = _UnionFind(graph.vertices)
    for lid in tree_ids:
        if lid == tree_line:
            continue
        ln = graph.line(lid)
        uf.union(ln.tail, ln.head)
    head = graph.line(tree_line).head
    side = frozenset(v for v in graph.vertices if uf.find(v) == uf.find(head))
    crossing: dict[int, int] = {}
    for ln in graph.lines:
        head_in, tail_in = ln.head in side, ln.tail in side
        if head_in != tail_in:
            crossing[ln.id] = 1 if head_in else -1
    return side, crossing


def fundamental_cycle(
    graph: MatsubaraGraph, tree: Iterable[int], nontree_line: int
) -> list[tuple[int, int]]:
    """Unique cycle closed by adding one non-tree line to a spanning tree.

    The cycle is walked in the direction of the non-tree line; each member
    is reported as (line_id, sign) with sign +1 when the line is traversed
    along its own orientation. The non-tree line always carries +1.
    """
    tree_ids = set(tree)
    if nontree_line in tree_ids:
        raise UnknownLine(f"line {nontree_line} belongs to the tree")
    chord = graph.line(nontree_line)
    # adjacency restricted to tree lines
    adj: dict[str, list[Line]] = {v: [] for v in graph.vertices}
    for lid in sorted(tree_ids):
        ln = graph.line(lid)
        adj[ln.tail].append(ln)
        adj[ln.head].append(ln)
    # unique tree path from chord.head back to chord.tail (DFS)
    path: list[tuple[Line, int]] = []

    def dfs(v: str, prev_line: int | None) -> bool:
        if v == chord.tail:
            return True
        for ln in adj[v]:
            if ln.id == prev_line:
                continue
            nxt = ln.head if ln.tail == v else ln.tail
            path.append((ln, +1 if ln.tail == v else -1))
            if dfs(nxt, ln.id):
                return True
            path.pop()
        return False

    if not dfs(chord.head, None):
        raise GraphError(f"tree {sorted(tree_ids)} does not connect line {nontree_line}")
    return [(nontree_line, 1)] + [(ln.id, sign) for ln, sign in path]
