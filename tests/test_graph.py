"""Graph validation, incidence, trees, cuts, and cycles."""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from matsum import fixtures
from matsum import graph as gr

from conftest import cycle_graph, graph_to_dict
from reference import count_spanning_trees, fundamental_cycle, incidence_sign


def test_validate_g2(g2):
    assert g2.num_vertices == 2
    assert g2.num_lines == 2
    assert g2.root == "b"


def test_validate_rejects_self_loop():
    with pytest.raises(gr.SelfLoop):
        gr.validate_graph({"vertices": ["a"],
                           "edges": [{"id": 1, "from": "a", "to": "a"}]})


def test_validate_rejects_degree_below_two():
    with pytest.raises(gr.DegreeBelowTwo) as info:
        gr.make_graph(["a", "b", "c"], [(1, "a", "b"), (2, "b", "c")])
    assert info.value.vertex == "a"  # first offender in input order


def test_validate_rejects_disconnected():
    with pytest.raises(gr.Disconnected):
        gr.make_graph(["a", "b", "c", "d"],
                      [(1, "a", "b"), (2, "b", "a"), (3, "c", "d"), (4, "d", "c")])
    with pytest.raises(gr.Disconnected):
        gr.validate_graph({"vertices": [], "edges": []})


def test_validate_rejects_duplicate_ids():
    with pytest.raises(gr.DuplicateId):
        gr.make_graph(["a", "b"], [(1, "a", "b"), (1, "b", "a")])
    with pytest.raises(gr.DuplicateId):
        gr.validate_graph({"vertices": ["a", "a"], "edges": []})


def test_validate_rejects_unknown_vertex():
    with pytest.raises(gr.UnknownVertex):
        gr.make_graph(["a", "b"], [(1, "a", "b"), (2, "b", "z")])


def test_validate_rejects_too_many_lines():
    edges = [(i, "a", "b") for i in range(1, 18)]
    with pytest.raises(gr.GraphTooLarge):
        gr.make_graph(["a", "b"], edges)
    with pytest.raises(gr.GraphTooLarge):
        list(gr.line_subsets(range(1, 18)))


def test_validate_rejects_boolean_edge_id():
    with pytest.raises(gr.GraphError):
        gr.validate_graph({"vertices": ["a", "b"],
                           "edges": [{"id": True, "from": "a", "to": "b"},
                                     {"id": 2, "from": "b", "to": "a"}]})


def test_validate_rejects_non_string_vertex_names():
    with pytest.raises(gr.MalformedGraph):
        gr.validate_graph({"vertices": [1, 2],
                           "edges": [{"id": 1, "from": 1, "to": 2},
                                     {"id": 2, "from": 2, "to": 1}]})


def test_validate_rejects_string_vertex_or_edge_list():
    edges = [{"id": 1, "from": "a", "to": "b"}, {"id": 2, "from": "b", "to": "a"}]
    with pytest.raises(gr.MalformedGraph):
        gr.validate_graph({"vertices": "ab", "edges": edges})
    with pytest.raises(gr.MalformedGraph):
        gr.validate_graph({"vertices": ["a", "b"], "edges": "12"})


def test_validate_rejects_non_object_top_level():
    for raw in ([1], "ab", 3, None):
        with pytest.raises(gr.MalformedGraph):
            gr.validate_graph(raw)


def test_validate_rejects_malformed_edges():
    for edge in (1, ["a", "b"], {"id": 1, "from": "a"}):
        with pytest.raises(gr.MalformedGraph):
            gr.validate_graph({"vertices": ["a", "b"], "edges": [edge]})


def test_incidence_signs_g4(g4):
    assert incidence_sign(g4, "a", 1) == 1
    assert incidence_sign(g4, "b", 5) == -1
    assert incidence_sign(g4, "a", 5) == 0
    with pytest.raises(gr.UnknownVertex):
        incidence_sign(g4, "z", 1)
    with pytest.raises(gr.UnknownLine):
        incidence_sign(g4, "a", 99)


def test_incidence_sums_to_zero(g2, g3, g4):
    for g in (g2, g3, g4):
        for ln in g.lines:
            assert sum(incidence_sign(g, v, ln.id) for v in g.vertices) == 0


def test_cycle_rank(g2, g3, g4):
    assert gr.cycle_rank(g2) == 1
    assert gr.cycle_rank(g3) == 2
    assert gr.cycle_rank(g4) == 2


def test_spanning_trees_fixtures(g2, g3, g4):
    assert gr.enumerate_spanning_trees(g2) == [(1,), (2,)]
    assert gr.enumerate_spanning_trees(g3) == [(1,), (2,), (3,)]
    trees4 = gr.enumerate_spanning_trees(g4)
    assert len(trees4) == 8
    assert trees4 == sorted(trees4)  # lexicographic
    for t in trees4:
        assert len(t) == 3


def test_tree_counts_match(g2, g3, g4):
    for g in (g2, g3, g4):
        assert count_spanning_trees(g) == len(gr.enumerate_spanning_trees(g))


def test_tree_counts_match_random_corpus():
    rng = np.random.default_rng(2024)
    graphs = [fixtures.random_graph(rng, max_vertices=6, max_lines=9) for _ in range(100)]
    # up to the size cap: the fixture files, 16 parallel lines, and the
    # 9-ring with 7 seeded chords (9 vertices, 16 lines)
    repo = Path(__file__).resolve().parent.parent
    graphs += [gr.validate_graph(json.loads(path.read_text()))
               for path in sorted((repo / "fixtures").glob("*.json"))]
    graphs.append(gr.make_graph(["a", "b"], [(i, "a", "b") for i in range(1, gr.MAX_LINES + 1)]))
    ring, rng = cycle_graph(9), np.random.default_rng(1)
    chords = [rng.choice(9, size=2, replace=False) for _ in range(7)]
    graphs.append(gr.make_graph(ring.vertices, [(ln.id, ln.tail, ln.head) for ln in ring.lines] + [
        (10 + i, f"v{a}", f"v{b}") for i, (a, b) in enumerate(chords)]))
    assert graphs[-1].num_lines == gr.MAX_LINES
    for g in graphs:
        trees = gr.enumerate_spanning_trees(g)
        assert count_spanning_trees(g) == len(trees)
        assert trees == sorted(trees)
        rank = gr.cycle_rank(g)
        for t in trees:
            assert len(t) == g.num_vertices - 1
            assert g.num_lines - len(t) == rank
            assert not gr.is_cutset(g, set(g.line_ids) - set(t))


def _bfs_component(graph, start, removed):
    # independent connectivity oracle (a vertex-name BFS, not the library's
    # bitmask reach): the vertices the lines not in `removed` join to `start`
    adj = {v: [] for v in graph.vertices}
    for ln in graph.lines:
        if ln.id in removed:
            continue
        adj[ln.tail].append(ln.head)
        adj[ln.head].append(ln.tail)
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _bfs_connected(graph, removed):
    return len(_bfs_component(graph, graph.vertices[0], removed)) == graph.num_vertices


def test_is_cutset_fixtures(g2, g4):
    assert gr.is_cutset(g4, {1, 2})
    assert gr.is_cutset(g4, {3, 4})
    assert not gr.is_cutset(g4, {5})
    assert not gr.is_cutset(g2, {1})
    assert gr.is_cutset(g2, {1, 2})


def test_is_cutset_against_bfs():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = fixtures.random_graph(rng, max_vertices=5, max_lines=6)
        ids = sorted(g.line_ids)
        for size in range(0, min(3, len(ids)) + 1):
            for combo in itertools.combinations(ids, size):
                assert gr.is_cutset(g, combo) == (not _bfs_connected(g, set(combo)))


def test_non_cutset_subsets_counts(g2, g3, g4):
    assert len(gr.non_cutset_subsets(g4, 2)) == 14
    assert len(gr.non_cutset_subsets(g3, 2)) == 7
    assert gr.non_cutset_subsets(g2, 1) == [(), (1,), (2,)]


def test_cutset_and_non_cutset_subsets_partition_all_subsets():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = fixtures.random_graph(rng, max_vertices=5, max_lines=7)
        ids = sorted(g.line_ids)
        every = [c for size in range(4) for c in itertools.combinations(ids, size)]
        cuts = gr.cutset_subsets(g, 3)
        assert cuts == [c for c in every if not _bfs_connected(g, set(c))]
        assert sorted(cuts + gr.non_cutset_subsets(g, 3)) == sorted(every)


def test_non_cutset_subsets_properties(g4):
    subsets = gr.non_cutset_subsets(g4, gr.cycle_rank(g4))
    for s in subsets:
        assert len(s) <= gr.cycle_rank(g4)
        assert not gr.is_cutset(g4, s)


def test_fundamental_cutset_g2(g2):
    side, crossing = gr.fundamental_cutset(g2, (1,), 1)
    assert side == {"a"}
    assert crossing == {1: 1, 2: 1}


def test_fundamental_cutset_g3(g3):
    _, crossing = gr.fundamental_cutset(g3, (1,), 1)
    assert crossing == {1: 1, 2: 1, 3: 1}


def test_fundamental_cutset_g4(g4):
    side, crossing = gr.fundamental_cutset(g4, (2, 3, 4), 3)
    assert side == {"b"}
    assert crossing == {3: 1, 1: -1, 5: -1}
    with pytest.raises(gr.UnknownLine):
        gr.fundamental_cutset(g4, (2, 3, 4), 1)   # line 1 is not in the tree


def test_fundamental_cycle_parallel_pair(g2):
    # walking the cycle along line 1 traverses line 2 against its arrow
    assert fundamental_cycle(g2, (2,), 1) == [(1, 1), (2, -1)]


def test_fundamental_cycle_g3(g3):
    assert fundamental_cycle(g3, (3,), 1) == [(1, 1), (3, -1)]


def test_fundamental_cycle_g4(g4):
    assert fundamental_cycle(g4, (2, 3, 4), 5) == [(5, 1), (4, -1), (3, 1)]
    assert fundamental_cycle(g4, (2, 3, 4), 1) == [(1, 1), (2, -1), (4, -1), (3, 1)]


def test_fundamental_cycle_properties():
    rng = np.random.default_rng(99)
    for _ in range(25):
        g = fixtures.random_graph(rng, max_vertices=5, max_lines=7)
        for tree in gr.enumerate_spanning_trees(g)[:4]:
            for lid in set(g.line_ids) - set(tree):
                cycle = fundamental_cycle(g, tree, lid)
                assert cycle[0] == (lid, 1)
                assert all(member in tree for member, _ in cycle[1:])
                assert all(sign in (-1, 1) for _, sign in cycle)


def test_graph_json_roundtrip(g4, tmp_path):
    import json

    raw = graph_to_dict(g4)
    again = gr.validate_graph(json.loads(json.dumps(raw)))
    assert again == g4


def test_bonds_are_the_distinct_fundamental_cuts_of_spanning_trees():
    rng = np.random.default_rng(13)
    for g in [fixtures.g2(), fixtures.g3(), fixtures.g4()] + [
            fixtures.random_graph(rng, 5, 7) for _ in range(10)]:
        cuts = set()
        for tree in gr.enumerate_spanning_trees(g):
            for j in tree:
                side, crossing = gr.fundamental_cutset(g, tree, j)
                if g.root in side:
                    side = frozenset(g.vertices) - side
                cuts.add((side, tuple(sorted(crossing))))
        bonds = gr.bonds(g)
        assert len(bonds) == len(set(bonds))
        assert set(bonds) == cuts


def _reference_graphs():
    """G2-G4, the 8-cycle, 16 parallel lines, a triangle of 15 lines, K6
    plus one parallel line, and seeded multigraphs of up to 8 vertices and
    16 lines."""
    ring = [f"v{i}" for i in range(8)]
    k6 = list(itertools.combinations("abcdef", 2)) + [("a", "b")]
    rng = np.random.default_rng(5)
    return [fixtures.g2(), fixtures.g3(), fixtures.g4(),
            gr.make_graph(ring, [(i + 1, ring[i], ring[(i + 1) % 8]) for i in range(8)]),
            gr.make_graph(["a", "b"], [(i, "ab"[i % 2], "ba"[i % 2]) for i in range(1, 17)]),
            gr.make_graph(["a", "b", "c"], [(i, "abc"[i % 3], "bca"[i % 3])
                                            for i in range(1, 16)]),
            gr.make_graph(list("abcdef"), [(i + 1, t, h) for i, (t, h) in enumerate(k6)]),
            ] + [fixtures.random_graph(rng, 8, 16) for _ in range(20)]


@pytest.mark.parametrize("index", range(27))
def test_trees_bonds_and_fundamental_cuts_against_bfs(index):
    g = _reference_graphs()[index]
    ids = set(g.line_ids)
    # the spanning trees: the (V-1)-subsets whose lines connect the graph
    trees = gr.enumerate_spanning_trees(g)
    assert trees == [t for t in itertools.combinations(sorted(ids), g.num_vertices - 1)
                     if _bfs_connected(g, ids - set(t))]
    # the bonds: root-free sides that, with their complements, induce
    # connected subgraphs, in bitmask order, with the lines crossing them
    expected = []
    for mask in range(1, 1 << (g.num_vertices - 1)):
        side = {v for i, v in enumerate(g.vertices) if mask >> i & 1}
        if all(_bfs_component(g, min(part), {ln.id for ln in g.lines
                                             if not {ln.tail, ln.head} <= part}) == part
               for part in (side, set(g.vertices) - side)):
            expected.append((side, tuple(ln.id for ln in g.lines
                                         if (ln.tail in side) != (ln.head in side))))
    assert gr.bonds(g) == expected
    # a fundamental cut's side: the tree line's head's component in the
    # rest of the tree
    for tree in trees:
        for j in tree:
            side, crossing = gr.fundamental_cutset(g, tree, j)
            assert side == _bfs_component(g, g.line(j).head, ids - set(tree) | {j})
            assert crossing == {ln.id: 1 if ln.head in side else -1 for ln in g.lines
                                if (ln.tail in side) != (ln.head in side)}
