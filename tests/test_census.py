"""The census of small graphs (census.py): its classes, and the tree stage
and both sum routes on every one of them."""

from __future__ import annotations

import pytest

from matsum import engine

from census import census
from conftest import check_tree_stage

#: Classes by (V, I): at most five vertices and seven lines, every degree
#: at least 2, connected, no self-loops.
CLASSES = {
    (2, 2): 1, (2, 3): 1, (2, 4): 1, (2, 5): 1, (2, 6): 1, (2, 7): 1,
    (3, 3): 1, (3, 4): 2, (3, 5): 3, (3, 6): 5, (3, 7): 6,
    (4, 4): 1, (4, 5): 4, (4, 6): 12, (4, 7): 23,
    (5, 5): 1, (5, 6): 7, (5, 7): 27,
}


@pytest.fixture(scope="module")
def found():
    return census()


@pytest.fixture(scope="module")
def classes(found):
    return [g for graphs in found.values() for g in graphs]


def test_census_counts_the_classes(found):
    assert {key: len(graphs) for key, graphs in found.items()} == CLASSES
    assert sum(CLASSES.values()) == 98
    for (v, lines), graphs in found.items():
        assert all((g.num_vertices, g.num_lines) == (v, lines) for g in graphs)


def test_batched_tree_stage_is_the_per_tree_solver_on_the_census(classes):
    for g in classes:
        for hierarchy in (None, sorted(g.line_ids)[::-1]):
            check_tree_stage(g, hierarchy)


def test_routes_agree_on_the_census(classes):
    for g in classes:
        assert engine.matsubara_sum(g) == engine.matsubara_sum(g, "direct"), g
