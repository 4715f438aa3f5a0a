"""Pipeline: constraint solving, regulator signs, closed forms, operators."""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from matsum import engine, fixtures
from matsum import expressions as ex
from matsum import graph as gr

from conftest import (
    reference_integral_g2,
    reference_integral_g3,
    reference_integral_g4,
    reference_integral_g4_value,
    reference_sum_g2,
)


# ---------------------------------------------------------------------------
# constraint solving
# ---------------------------------------------------------------------------

def test_solve_tree_g2(g2):
    sol = engine.solve_tree(g2, (1,))
    assert sol.omega[1].n_part == (("a", 1),)
    assert sol.omega[1].line_part == ((2, -1),)  # n1 = N - n2


def test_solve_tree_g3(g3):
    sol = engine.solve_tree(g3, (1,))
    assert sol.omega[1].n_part == (("a", 1),)
    assert sol.omega[1].line_part == ((2, -1), (3, -1))  # n1 = N - n2 - n3


def test_solve_tree_g4_last_tree(g4):
    sol = engine.solve_tree(g4, (2, 3, 4))
    om = sol.omega
    assert om[2].n_part == (("a", 1),) and om[2].line_part == ((1, -1),)
    assert om[3].n_part == (("b", 1),) and om[3].line_part == ((1, 1), (5, 1))
    assert om[4].n_part == (("b", -1), ("c", -1))
    assert om[4].line_part == ((1, -1), (5, -1))


def test_solution_satisfies_all_vertex_constraints():
    # substituting the solved tree variables back must satisfy T_v = N_v
    # identically; check on random integer assignments of the free data
    rng = np.random.default_rng(31)
    for _ in range(15):
        g = fixtures.random_graph(rng, 5, 7)
        non_root = g.vertices[:-1]
        for tree in gr.enumerate_spanning_trees(g)[:3]:
            sol = engine.solve_tree(g, tree)
            n_of = {v: int(rng.integers(-5, 6)) for v in non_root}
            n_of[g.root] = -sum(n_of.values())
            line_val = {l: int(rng.integers(-7, 8))
                        for l in set(g.line_ids) - set(tree)}
            for j in tree:
                om = sol.omega[j]
                line_val[j] = sum(a * n_of[v] for v, a in om.n_part) + sum(
                    b * line_val[l] for l, b in om.line_part
                )
            for v in g.vertices:
                t_v = sum(gr.incidence_sign(g, v, ln.id) * line_val[ln.id]
                          for ln in g.lines)
                assert t_v == n_of[v]


# ---------------------------------------------------------------------------
# regulator signs
# ---------------------------------------------------------------------------

def test_epsilon_g2_default(g2):
    assert engine.epsilon_signs(g2, (2,)) == {1: 1}
    assert engine.epsilon_signs(g2, (1,)) == {2: -1}


def test_epsilon_g2_reversed_hierarchy(g2):
    assert engine.epsilon_signs(g2, (2,), hierarchy=[2, 1]) == {1: -1}


def test_epsilon_top_ranked_line_always_positive():
    # a free line that outranks its whole cycle keeps its own +1 sign
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = fixtures.random_graph(rng, 5, 7)
        tree = gr.enumerate_spanning_trees(g)[0]
        free = sorted(set(g.line_ids) - set(tree))
        for lid in free:
            hierarchy = [lid] + [x for x in sorted(g.line_ids) if x != lid]
            eps = engine.epsilon_signs(g, tree, hierarchy)
            assert eps[lid] == 1


def test_epsilon_g4(g4):
    assert engine.epsilon_signs(g4, (2, 3, 4)) == {1: 1, 5: 1}


def test_epsilon_rejects_bad_hierarchy(g2):
    with pytest.raises(gr.GraphError):
        engine.epsilon_signs(g2, (1,), hierarchy=[1, 1])


# ---------------------------------------------------------------------------
# integral evaluation
# ---------------------------------------------------------------------------

def test_tree_integral_g2(g2):
    sol = engine.solve_tree(g2, (1,))
    e = engine.tree_integral(g2, sol)
    # (2pi/(2q1 2q2)) [ 1/(q1+q2-iN) - 1/(q2-q1-iN) ]
    f1, s1 = ex.normalize_form([("a", -1)], [(1, 1), (2, 1)])
    f2, s2 = ex.normalize_form([("a", -1)], [(1, -1), (2, 1)])
    expected = ex.Expression.from_terms([
        ex.make_term(Fraction(1, 4) * s1, 1, {1: -1, 2: -1}, (), [f1]),
        ex.make_term(Fraction(-1, 4) * s2, 1, {1: -1, 2: -1}, (), [f2]),
    ])
    assert e == expected


def test_tree_integral_term_count_is_two_to_the_v_minus_one(g2, g3, g4):
    for g in (g2, g3, g4):
        for tree in gr.enumerate_spanning_trees(g):
            e = engine.tree_integral(g, engine.solve_tree(g, tree))
            assert len(e) == 2 ** (g.num_vertices - 1)


def test_matsubara_integral_g2_matches_reference(g2):
    assert engine.matsubara_integral(g2) == reference_integral_g2()


def test_matsubara_integral_g3_matches_reference(g3):
    assert engine.matsubara_integral(g3) == reference_integral_g3()


def test_matsubara_integral_g4_value_matches_reference(g4):
    e = engine.matsubara_integral(g4)
    rng = np.random.default_rng(8)
    for _ in range(5):
        q = {i: float(rng.uniform(0.3, 3.0)) for i in range(1, 6)}
        n = {v: int(rng.integers(-3, 4)) for v in "abc"}
        mine = ex.eval_numeric(e, q, n)
        ref = reference_integral_g4_value(q, n)
        assert mine.real == pytest.approx(ref.real, rel=1e-12)
        assert abs(mine.imag) < 1e-12


def test_matsubara_integral_g4_is_not_merge_reducible(g4):
    # the spanning-tree decomposition of the four-vertex fixture yields 64
    # distinct denominator products; the 20-term direct-integration reference
    # is a different (numerically equal) basis that key-merge canonicalization
    # cannot reach
    e = engine.matsubara_integral(g4)
    assert len(e) == 64
    assert len(reference_integral_g4()) == 20


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def test_operator_full_sizes(g2, g3, g4):
    assert len(engine.operator_full(g2)) == 4
    assert len(engine.operator_full(g3)) == 8
    assert len(engine.operator_full(g4)) == 32


def test_operator_reduced_contents(g2, g3, g4):
    assert engine.operator_reduced(g2).subsets == ((), (1,), (2,))
    assert engine.operator_reduced(g3).subsets == (
        (), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)
    )
    spec4 = engine.operator_reduced(g4)
    assert len(spec4) == 14
    pairs = {s for s in spec4.subsets if len(s) == 2}
    assert (1, 2) not in pairs and (3, 4) not in pairs
    assert len(pairs) == 8


def test_apply_operator_identity_and_empty(g2):
    e = reference_integral_g2()
    assert engine.apply_operator(engine.OperatorSpec(((),)), e) == e
    assert engine.apply_operator(engine.OperatorSpec(()), e).is_empty()


def test_apply_operator_reproduces_reference_sum(g2):
    out = engine.apply_operator(engine.operator_reduced(g2), reference_integral_g2())
    assert out == reference_sum_g2()


def test_matsubara_sum_methods_agree_on_fixtures(g2, g3, g4):
    for g in (g2, g3, g4):
        assert engine.matsubara_sum(g, "operator") == engine.matsubara_sum(g, "direct")


def test_full_equals_reduced_on_fixtures(g2, g3, g4):
    for g in (g2, g3, g4):
        e = engine.matsubara_integral(g)
        assert engine.apply_operator(engine.operator_full(g), e) == \
            engine.apply_operator(engine.operator_reduced(g), e)


def test_kernel_degree_bounded_by_cycle_rank(g2, g3, g4):
    for g in (g2, g3, g4):
        s = engine.matsubara_sum(g)
        assert all(len(t.kernels) <= gr.cycle_rank(g) for t in s.terms)


def test_sum_numeric_against_brute_force_g3(g3):
    from matsum import oracles

    s = engine.matsubara_sum(g3)
    q = {1: 0.7, 2: 1.1, 3: 1.6}
    n = {"a": 1}
    sym = ex.eval_numeric(s, q, n)
    brute = oracles.brute_force_sum(g3, n, q, 500)
    assert sym.real == pytest.approx(brute.value, rel=1e-3)


def test_sum_realness():
    rng = np.random.default_rng(17)
    for g in (fixtures.g2(), fixtures.g3(), fixtures.g4()):
        s = engine.matsubara_sum(g)
        for _ in range(5):
            q = {lid: float(rng.uniform(0.3, 3.0)) for lid in g.line_ids}
            n = {v: int(rng.integers(-3, 4)) for v in g.vertices[:-1]}
            v = ex.eval_numeric(s, q, n)
            assert abs(v.imag) <= 1e-10 * abs(v.real) + 1e-12


def test_denominator_coefficients_stay_unit_on_corpus():
    rng = np.random.default_rng(23)
    for _ in range(20):
        g = fixtures.random_graph(rng, 5, 7)
        for e in (engine.matsubara_integral(g), engine.matsubara_sum(g)):
            for t in e.terms:
                for f in t.denominators:
                    assert all(c in (-1, 1) for _, c in f.q)


# ---------------------------------------------------------------------------
# packed operator kernel
# ---------------------------------------------------------------------------

def _reference_operator(spec, e):
    """The operator folded subset by subset through the public term algebra:
    each subset's image extends the memoized image of its prefix, and the
    images are summed pairwise with ex.add."""
    images = {(): e}

    def image(subset):
        if subset not in images:
            part = image(subset[:-1])
            if not part.is_empty():
                lid = subset[-1]
                part = ex.kernel_multiply(ex.reflection_difference(part, lid), lid)
            images[subset] = part
        return images[subset]

    parts = [image(tuple(sorted(subset))) for subset in spec.subsets] or [ex.EMPTY]
    while len(parts) > 1:
        parts = [ex.add(*parts[k:k + 2]) if k + 1 < len(parts) else parts[k]
                 for k in range(0, len(parts), 2)]
    return parts[0]


def _kernel_graphs():
    rng = np.random.default_rng(20260810)
    return [fixtures.g2(), fixtures.g3(), fixtures.g4()] + [
        fixtures.random_graph(rng, 5, 7) for _ in range(10)
    ]


@pytest.mark.parametrize("index", range(13))
def test_operator_routes_match_subset_by_subset_reference(index):
    g = _kernel_graphs()[index]
    integral = engine.matsubara_integral(g)
    reduced = _reference_operator(engine.operator_reduced(g), integral)
    assert engine.apply_operator(engine.operator_reduced(g), integral) == reduced
    full = _reference_operator(engine.operator_full(g), integral)
    assert engine.apply_operator(engine.operator_full(g), integral) == full
    assert engine.matsubara_sum(g, "direct") == reduced


def test_apply_operator_carries_kernels_and_rejects_reflecting_them(g2):
    e = ex.kernel_multiply(reference_integral_g2(), 1)
    with pytest.raises(ex.KernelReflection):
        engine.apply_operator(engine.OperatorSpec(((1,),)), e)
    with pytest.raises(ex.KernelReflection):
        engine.apply_operator(engine.OperatorSpec(((), (2,), (1, 2))), e)
    spec = engine.OperatorSpec(((), (2,)))
    assert engine.apply_operator(spec, e) == _reference_operator(spec, e)
    # the cutset {1, 2} annihilates the terms before line 3's kernel is reached
    e3 = ex.kernel_multiply(reference_integral_g2(), 3)
    assert engine.apply_operator(engine.OperatorSpec(((1, 2, 3),)), e3).is_empty()


#: Term count and sha256 of the JSON render of the rank-6 stress sum
#: (random_graph(default_rng(3), 4, 8), redrawn until it has 8 lines), as
#: the Fraction-based walk before the packed kernel produced it.
STRESS_SUM_TERMS = 39586
STRESS_SUM_JSON_SHA256 = "6abe2eeb64556b9748c7f745cf86612cc94c84a302a6e7acb943301f9d811382"


def test_stress_sum_is_byte_identical():
    rng = np.random.default_rng(3)
    g = fixtures.random_graph(rng, 4, 8)
    while g.num_lines != 8:
        g = fixtures.random_graph(rng, 4, 8)
    s = engine.matsubara_sum(g)
    assert len(s) == STRESS_SUM_TERMS
    digest = hashlib.sha256(ex.render(s, "json").encode("utf-8")).hexdigest()
    assert digest == STRESS_SUM_JSON_SHA256


# ---------------------------------------------------------------------------
# annihilation
# ---------------------------------------------------------------------------

def test_annihilator_g2(g2):
    e = engine.matsubara_integral(g2)
    assert engine.annihilator_check(g2, (1, 2), e)


def test_annihilator_g3(g3):
    e = engine.matsubara_integral(g3)
    assert engine.annihilator_check(g3, (1, 2, 3), e)


def test_annihilator_g4(g4):
    e = engine.matsubara_integral(g4)
    assert engine.annihilator_check(g4, (1, 2), e)
    assert engine.annihilator_check(g4, (3, 4), e)
    assert not engine.annihilator_check(g4, (1, 5), e)


def test_annihilator_every_tree_line_kills_its_tree_contribution(g4):
    # each tree factor carries a reflection pair in its own line, so the
    # reflection difference in any tree line annihilates that contribution
    for tree in gr.enumerate_spanning_trees(g4):
        e = engine.tree_integral(g4, engine.solve_tree(g4, tree))
        for j in tree:
            assert engine.annihilator_check(g4, (j,), e)


# ---------------------------------------------------------------------------
# hierarchy behavior
# ---------------------------------------------------------------------------

def test_hierarchy_independence_two_vertex_fixtures(g2, g3):
    rng = np.random.default_rng(41)
    for g in (g2, g3):
        base_i = engine.matsubara_integral(g)
        base_s = engine.matsubara_sum(g)
        for _ in range(5):
            h = [int(x) for x in rng.permutation(sorted(g.line_ids))]
            assert engine.matsubara_integral(g, hierarchy=h) == base_i
            assert engine.matsubara_sum(g, hierarchy=h) == base_s


def test_hierarchy_changes_g4_form_but_not_value(g4):
    # distinct regulator hierarchies give distinct (equally valid) spanning-
    # tree decompositions of the four-vertex integral; the values coincide
    h = [5, 3, 4, 2, 1]
    a = engine.matsubara_integral(g4)
    b = engine.matsubara_integral(g4, hierarchy=h)
    assert a != b
    q = {i: 0.4 + 0.3 * i for i in range(1, 6)}
    n = {"a": 1, "b": -2, "c": 1}
    va = ex.eval_numeric(a, q, n)
    vb = ex.eval_numeric(b, q, n)
    assert va.real == pytest.approx(vb.real, rel=1e-12)


# ---------------------------------------------------------------------------
# operator rendering
# ---------------------------------------------------------------------------

def test_render_operator(g2):
    spec = engine.operator_reduced(g2)
    text = engine.render_operator(spec, "text")
    assert text == "1 + nbe(q1)(1 - R1) + nbe(q2)(1 - R2)"
    import json

    data = json.loads(engine.render_operator(spec, "json"))
    assert data == {"subsets": [[], [1], [2]]}
