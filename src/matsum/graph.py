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
    _bit: dict[str, int] = field(repr=False, compare=False, hash=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "_line_by_id", {ln.id: ln for ln in self.lines})
        object.__setattr__(self, "_bit", {v: 1 << i for i, v in enumerate(self.vertices)})

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

    def _pairs(self, lines: Iterable[Line]) -> list[int]:
        """The endpoint bitmask of each line, for _reach."""
        return [self._bit[ln.tail] | self._bit[ln.head] for ln in lines]


def _reach(start: int, pairs: Iterable[int]) -> int:
    """Bitmask of the vertices that the lines with endpoint bitmasks `pairs`
    join to the vertices of bitmask `start` (the graph's vertex order)."""
    reach, pending = start, list(pairs)
    while pending:
        rest = []
        for pair in pending:
            if pair & reach:
                reach |= pair
            else:
                rest.append(pair)
        if len(rest) == len(pending):
            break
        pending = rest
    return reach


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

    lines.sort(key=lambda ln: ln.id)
    graph = MatsubaraGraph(tuple(vertices), tuple(lines))
    if _reach(1, graph._pairs(lines)) != (1 << len(vertices)) - 1:
        raise Disconnected("graph is not connected")
    return graph


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


def cycle_rank(graph: MatsubaraGraph) -> int:
    """Number of independent cycles, L = I - V + 1."""
    return graph.num_lines - graph.num_vertices + 1


def enumerate_spanning_trees(graph: MatsubaraGraph) -> list[LineSubset]:
    """All spanning trees, as sorted line-id tuples in lexicographic order.

    Backtracking over lines sorted by id: at each step either take the next
    line whose endpoints the chosen lines do not yet join, or skip it,
    pruning branches that cannot reach V-1 lines.
    """
    lines, pairs = graph.lines, graph._pairs(graph.lines)
    target = graph.num_vertices - 1
    trees: list[LineSubset] = []

    def extend(start: int, chosen: list[int], joined: list[int]):
        if len(chosen) == target:
            # target acyclic lines on V vertices leave exactly one component
            trees.append(tuple(chosen))
            return
        for pos in range(start, len(lines)):
            if len(chosen) + (len(lines) - pos) < target:
                break
            low = pairs[pos] & -pairs[pos]
            if _reach(low, joined) & pairs[pos] != low:
                continue  # would close a cycle
            extend(pos + 1, chosen + [lines[pos].id], joined + [pairs[pos]])

    extend(0, [], [])
    return trees


def is_cutset(graph: MatsubaraGraph, subset: Iterable[int]) -> bool:
    """True iff removing the given lines disconnects the graph."""
    removed = set(subset)
    for lid in removed:
        graph.line(lid)  # id check
    kept = graph._pairs(ln for ln in graph.lines if ln.id not in removed)
    return _reach(1, kept) != (1 << graph.num_vertices) - 1


def bonds(graph: MatsubaraGraph) -> list[tuple[frozenset[str], LineSubset]]:
    """Every bond (a cut whose two sides are both connected) once, as
    (side, crossing lines): the side is the one without the root, the lines
    are sorted. Bonds are exactly the fundamental cuts of spanning trees.
    Deterministic order, by the side's vertex bitmask in vertex order.
    """
    pairs = graph._pairs(graph.lines)

    def connected(mask: int) -> bool:
        return _reach(mask & -mask, (p for p in pairs if p & mask == p)) == mask

    every = (1 << graph.num_vertices) - 1
    return [(frozenset(v for v, b in graph._bit.items() if b & mask),
             tuple(ln.id for ln, p in zip(graph.lines, pairs) if p & mask not in (0, p)))
            for mask in range(1, 1 << (graph.num_vertices - 1))  # root bit clear
            if connected(mask) and connected(every ^ mask)]


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
    others = graph._pairs([graph.line(lid) for lid in tree_ids if lid != tree_line])
    bit = graph._bit
    mask = _reach(bit[graph.line(tree_line).head], others)
    crossing: dict[int, int] = {}
    for ln in graph.lines:
        head_in = bool(bit[ln.head] & mask)
        if head_in != bool(bit[ln.tail] & mask):
            crossing[ln.id] = 1 if head_in else -1
    return frozenset(v for v, b in bit.items() if b & mask), crossing
