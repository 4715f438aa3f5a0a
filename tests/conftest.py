"""Shared fixtures: reference graphs and independent transcriptions of their
known closed-form evaluations, built directly through the expression API."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from matsum import engine, fixtures
from matsum import expressions as ex
from matsum import graph as gr
from matsum.graph import MatsubaraGraph, make_graph, validate_graph

import reference
from reference import make_term

# Property tests run a fixed, bounded set of examples, so every run of the
# suite checks the same cases; pipeline builds vary too much for a deadline.
settings.register_profile("matsum", derandomize=True, max_examples=40,
                          deadline=None, database=None)
settings.load_profile("matsum")


@pytest.fixture(scope="session")
def g2():
    return fixtures.g2()


@pytest.fixture(scope="session")
def g3():
    return fixtures.g3()


@pytest.fixture(scope="session")
def g4():
    return fixtures.g4()


def graph_to_dict(graph: MatsubaraGraph) -> dict:
    """The graph description validate_graph reads, as a JSON-ready dict."""
    return {
        "vertices": list(graph.vertices),
        "edges": [{"id": ln.id, "from": ln.tail, "to": ln.head} for ln in graph.lines],
    }


def cycle_graph(n: int):
    """n vertices in a ring, line i from v{i-1} to v{i mod n}."""
    names = [f"v{i}" for i in range(n)]
    return make_graph(names, [(i + 1, names[i], names[(i + 1) % n]) for i in range(n)])


def stress_graph() -> MatsubaraGraph:
    """The benchmark's stress graph: the first draw of
    random_graph(default_rng(3), 4, 8) with 8 lines (cycle rank 6)."""
    rng = np.random.default_rng(3)
    g = fixtures.random_graph(rng, 4, 8)
    while g.num_lines != 8:
        g = fixtures.random_graph(rng, 4, 8)
    return g


def corpus() -> list[MatsubaraGraph]:
    """The 53-graph corpus: G2-G4, then 50 draws of
    random_graph(default_rng(20260810), 5, 7)."""
    rng = np.random.default_rng(20260810)
    return [fixtures.g2(), fixtures.g3(), fixtures.g4()] + [
        fixtures.random_graph(rng, 5, 7) for _ in range(50)]


def fixture_graphs() -> list[MatsubaraGraph]:
    """The graphs of fixtures/*.json, by file name."""
    root = Path(__file__).resolve().parent.parent
    return [validate_graph(json.loads(path.read_text()))
            for path in sorted((root / "fixtures").glob("*.json"))]


def check_tree_stage(graph: MatsubaraGraph, hierarchy=None) -> None:
    """Assert that the batched tree stage is the per-tree reference under
    the hierarchy: every tree's TreeSolution, by the batch and by
    solve_tree, and the packed tree products (interned product list,
    product column and coefficients)."""
    trees = gr.enumerate_spanning_trees(graph)
    solutions = [reference.solve_tree(graph, tree, hierarchy) for tree in trees]
    batch = engine._solve_trees(graph, trees, engine._hierarchy_ranks(graph, hierarchy))
    assert batch.solutions() == solutions
    assert [engine.solve_tree(graph, tree, hierarchy) for tree in trees] == solutions
    arrangement, total = engine._tree_products(batch)
    expected, terms = reference.tree_products(graph, solutions)
    assert arrangement.products == expected.products
    assert [column.tolist() for column in total] == [column.tolist() for column in terms]


def form(n_pairs, q_pairs):
    """Canonical linear form from (vertex, coeff) and (line, coeff) pairs;
    returns (form, sign) with the normalization sign to fold into a coeff."""
    return ex.normalize_form(n_pairs, q_pairs)


def _term(sign, pi_power, nlines, kernels, raw_forms):
    coeff = Fraction(sign, 2**nlines)
    dens = []
    for n_pairs, q_pairs in raw_forms:
        f, s = form(n_pairs, q_pairs)
        coeff *= s
        dens.append(f)
    return make_term(coeff, pi_power, {i: -1 for i in range(1, nlines + 1)},
                     kernels, dens)


def reference_integral_g2() -> ex.Expression:
    """(2 pi / (2q1 2q2)) [ 1/(iN + q1 + q2) - 1/(iN - q1 - q2) ]."""
    plus = ([("a", 1)], [(1, 1), (2, 1)])
    minus = ([("a", 1)], [(1, -1), (2, -1)])
    return ex.Expression([
        _term(+1, 1, 2, (), [plus]),
        _term(-1, 1, 2, (), [minus]),
    ])


def reference_sum_g2() -> ex.Expression:
    """The four-group closed form of the two-line sum:

    (2 pi/(2q1 2q2)) [ (1+n1+n2)/(iN+q1+q2) + (n1-n2)/(iN-q1+q2)
                       - (n1-n2)/(iN+q1-q2) - (1+n1+n2)/(iN-q1-q2) ]
    """
    groups = [
        (+1, ([("a", 1)], [(1, 1), (2, 1)])),
        (-1, ([("a", 1)], [(1, -1), (2, -1)])),
    ]
    terms = []
    for sign, raw in groups:
        for kern in ((), (1,), (2,)):
            terms.append(_term(sign, 1, 2, kern, [raw]))
    anti_groups = [
        (+1, ([("a", 1)], [(1, -1), (2, 1)])),
        (-1, ([("a", 1)], [(1, 1), (2, -1)])),
    ]
    for sign, raw in anti_groups:
        terms.append(_term(sign, 1, 2, (1,), [raw]))
        terms.append(_term(-sign, 1, 2, (2,), [raw]))
    return ex.Expression(terms)


def reference_integral_g3() -> ex.Expression:
    """((2 pi)^2/(2q1 2q2 2q3)) [ 1/(iN + q1+q2+q3) - 1/(iN - q1-q2-q3) ]."""
    plus = ([("a", 1)], [(1, 1), (2, 1), (3, 1)])
    minus = ([("a", 1)], [(1, -1), (2, -1), (3, -1)])
    return ex.Expression([
        _term(+1, 2, 3, (), [plus]),
        _term(-1, 2, 3, (), [minus]),
    ])


# the 12 distinct linear forms of the direct-integration reference for the
# four-vertex fixture, and its 20 signed denominator triples
_G4_FORMS = {
    1: ({"a": 1}, {1: 1, 2: 1}),
    2: ({"a": 1, "b": 1}, {2: 1, 3: 1, 5: 1}),
    3: ({"a": 1, "b": 1, "c": 1}, {2: 1, 4: 1, 5: 1}),
    4: ({"b": 1}, {1: 1, 3: 1, 5: 1}),
    5: ({"a": 1}, {1: -1, 2: -1}),
    6: ({"b": 1, "c": 1}, {1: 1, 4: 1, 5: 1}),
    7: ({"c": 1}, {3: -1, 4: -1}),
    8: ({"a": 1, "b": 1, "c": 1}, {2: -1, 4: -1, 5: -1}),
    9: ({"b": 1, "c": 1}, {1: -1, 4: -1, 5: -1}),
    10: ({"a": 1, "b": 1}, {2: -1, 3: -1, 5: -1}),
    11: ({"c": 1}, {3: 1, 4: 1}),
    12: ({"b": 1}, {1: -1, 3: -1, 5: -1}),
}
_G4_TRIPLES = [
    (+1, 1, 2, 3), (+1, 4, 2, 3), (-1, 5, 4, 6), (+1, 4, 6, 3),
    (-1, 5, 7, 8), (+1, 1, 7, 9), (-1, 7, 9, 8), (-1, 1, 7, 2),
    (+1, 5, 7, 4), (-1, 7, 4, 2), (+1, 5, 11, 10), (-1, 1, 11, 12),
    (+1, 11, 12, 10), (+1, 1, 11, 3), (-1, 5, 11, 6), (+1, 11, 6, 3),
    (-1, 5, 10, 8), (-1, 12, 10, 8), (+1, 1, 12, 9), (-1, 12, 9, 8),
]
_VORDER = ["a", "b", "c"]


def reference_integral_g4() -> ex.Expression:
    """The 20-term direct-integration reference, as a canonical Expression."""
    terms = []
    for sign, *ids in _G4_TRIPLES:
        raw = []
        for d in ids:
            nmap, qmap = _G4_FORMS[d]
            raw.append(([(v, nmap.get(v, 0)) for v in _VORDER],
                        sorted(qmap.items())))
        terms.append(_term(sign, 2, 5, (), raw))
    return ex.Expression(terms)


def reference_integral_g4_value(q_values, n_values) -> complex:
    """Plain complex-arithmetic transcription of the same 20-term form."""
    def dval(d):
        nmap, qmap = _G4_FORMS[d]
        return sum(1j * c * n_values[v] for v, c in nmap.items()) + sum(
            c * q_values[l] for l, c in qmap.items()
        )

    pref = (2 * math.pi) ** 2 / math.prod(2 * q_values[l] for l in range(1, 6))
    return pref * sum(s / (dval(a) * dval(b) * dval(c))
                      for s, a, b, c in _G4_TRIPLES)
