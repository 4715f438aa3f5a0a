"""Pipeline: constraint solving, regulator signs, closed forms, operators."""

from __future__ import annotations

import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from matsum import engine, fixtures
from matsum import expressions as ex
from matsum import graph as gr

from conftest import (
    corpus,
    cycle_graph,
    reference_integral_g2,
    reference_integral_g3,
    reference_integral_g4,
    reference_integral_g4_value,
    reference_sum_g2,
    stress_graph,
)
import reference
from reference import incidence_sign, kernel_multiply, make_term, reflection_difference


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


def test_solve_tree_rejects_lines_that_are_not_a_spanning_tree(g4):
    # too few lines, a cycle, one line too many, an unknown line
    for lines in ((1, 2), (1, 2, 5), (1, 2, 3, 4), (1, 3, 99)):
        with pytest.raises(gr.GraphError):
            engine.solve_tree(g4, lines)


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
                t_v = sum(incidence_sign(g, v, ln.id) * line_val[ln.id]
                          for ln in g.lines)
                assert t_v == n_of[v]


# ---------------------------------------------------------------------------
# regulator signs
# ---------------------------------------------------------------------------

def test_epsilon_g2_default(g2):
    assert engine.solve_tree(g2, (2,)).epsilon == {1: 1}
    assert engine.solve_tree(g2, (1,)).epsilon == {2: -1}


def test_epsilon_g2_reversed_hierarchy(g2):
    assert engine.solve_tree(g2, (2,), hierarchy=[2, 1]).epsilon == {1: -1}


def test_epsilon_top_ranked_line_always_positive():
    # a free line that outranks its whole cycle keeps its own +1 sign
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = fixtures.random_graph(rng, 5, 7)
        tree = gr.enumerate_spanning_trees(g)[0]
        free = sorted(set(g.line_ids) - set(tree))
        for lid in free:
            hierarchy = [lid] + [x for x in sorted(g.line_ids) if x != lid]
            eps = engine.solve_tree(g, tree, hierarchy).epsilon
            assert eps[lid] == 1


def test_epsilon_g4(g4):
    assert engine.solve_tree(g4, (2, 3, 4)).epsilon == {1: 1, 5: 1}


def test_epsilon_rejects_bad_hierarchy(g2):
    with pytest.raises(gr.GraphError):
        engine.solve_tree(g2, (1,), hierarchy=[1, 1]).epsilon


def _trees_and_hierarchies():
    """Every spanning tree of G2, G3, G4 and seeded random multigraphs, under
    the default, reversed and one seeded hierarchy."""
    rng = np.random.default_rng(5)
    graphs = [fixtures.g2(), fixtures.g3(), fixtures.g4()] + [
        fixtures.random_graph(rng, 5, 8) for _ in range(12)]
    for g in graphs:
        ids = sorted(g.line_ids)
        for hierarchy in (None, ids[::-1], [int(x) for x in rng.permutation(ids)]):
            for tree in gr.enumerate_spanning_trees(g):
                yield g, tree, hierarchy


def test_epsilon_from_cuts_is_the_top_ranked_cycle_sign():
    # the signs come from the fundamental cuts; the reference walks each
    # fundamental cycle by DFS
    for g, tree, hierarchy in _trees_and_hierarchies():
        assert engine.solve_tree(g, tree, hierarchy).epsilon == reference.epsilon_signs(
            g, tree, hierarchy)


def test_tree_product_in_cut_ids_is_the_reflected_normalized_product():
    for g, tree, hierarchy in _trees_and_hierarchies():
        sol = engine.solve_tree(g, tree, hierarchy)
        assert engine.tree_product(g, sol) == reference.tree_product(g, sol)


# ---------------------------------------------------------------------------
# integral evaluation
# ---------------------------------------------------------------------------

def test_tree_integral_g2(g2):
    sol = engine.solve_tree(g2, (1,))
    e = engine.tree_integral(g2, sol)
    # (2pi/(2q1 2q2)) [ 1/(q1+q2-iN) - 1/(q2-q1-iN) ]
    f1, s1 = ex.normalize_form([("a", -1)], [(1, 1), (2, 1)])
    f2, s2 = ex.normalize_form([("a", -1)], [(1, -1), (2, 1)])
    expected = ex.Expression([
        make_term(Fraction(1, 4) * s1, 1, {1: -1, 2: -1}, (), [f1]),
        make_term(Fraction(-1, 4) * s2, 1, {1: -1, 2: -1}, (), [f2]),
    ])
    assert e == expected


def _raw_integral(g, hierarchy=None):
    """The tree-basis assembly: the unnormalized tree products, summed."""
    return ex.Expression(
        t for tree in gr.enumerate_spanning_trees(g)
        for t in engine.tree_product(g, engine.solve_tree(g, tree, hierarchy)).terms)


def test_tree_integral_term_count_is_two_to_the_v_minus_one(g2, g3, g4):
    for g in (g2, g3, g4):
        for tree in gr.enumerate_spanning_trees(g):
            sol = engine.solve_tree(g, tree)
            raw = engine.tree_product(g, sol)
            assert len(raw) == 2 ** (g.num_vertices - 1)
            nf = engine.tree_integral(g, sol)
            assert nf == engine.normal_form(g, raw)
            assert engine.normal_form(g, nf) == nf


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
    # cannot reach, but both have the same normal form
    raw = _raw_integral(g4)
    assert len(raw) == 64
    assert len(reference_integral_g4()) == 20
    e = engine.matsubara_integral(g4)
    assert len(e) == 20
    assert e == engine.normal_form(g4, reference_integral_g4())
    assert e == engine.normal_form(g4, raw)


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
    assert engine.apply_operator(engine.OperatorSpec(((),), g2), e) == e
    assert engine.apply_operator(engine.OperatorSpec((), g2), e).is_empty()


def test_apply_operator_reproduces_reference_sum(g2):
    out = engine.apply_operator(engine.operator_reduced(g2), reference_integral_g2())
    assert out == reference_sum_g2()


def test_matsubara_sum_methods_agree_on_fixtures(g2, g3, g4):
    for g in (g2, g3, g4):
        assert engine.matsubara_sum(g, "operator") == engine.matsubara_sum(g, "direct")


def test_matsubara_sum_rejects_an_unknown_method(g2):
    with pytest.raises(ValueError, match="unknown method 'xyz'"):
        engine.matsubara_sum(g2, "xyz")


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
                part = kernel_multiply(reflection_difference(part, lid), lid)
            images[subset] = part
        return images[subset]

    parts = [image(tuple(sorted(subset))) for subset in spec.subsets] or [ex.EMPTY]
    while len(parts) > 1:
        parts = [ex.add(*parts[k:k + 2]) if k + 1 < len(parts) else parts[k]
                 for k in range(0, len(parts), 2)]
    return parts[0]


@pytest.mark.parametrize("index", range(13))
def test_operator_routes_match_subset_by_subset_reference(index):
    g = corpus()[index]
    # the reference walks the raw tree-basis assembly as it is
    raw = _raw_integral(g)
    reduced = _reference_operator(engine.operator_reduced(g), raw)
    full = _reference_operator(engine.operator_full(g), raw)
    normal = engine.normal_form(g, reduced)
    assert engine.normal_form(g, full) == normal
    # the packed walk gives its normal form, from the raw assembly and from
    # the normal integral alike
    for e in (raw, engine.matsubara_integral(g)):
        assert engine.apply_operator(engine.operator_reduced(g), e) == normal
        assert engine.apply_operator(engine.operator_full(g), e) == normal
    assert engine.matsubara_sum(g, "direct") == normal


def test_apply_operator_carries_kernels_and_rejects_reflecting_them(g2, g4):
    e = kernel_multiply(reference_integral_g2(), 1)
    with pytest.raises(ex.KernelReflection):
        engine.apply_operator(engine.OperatorSpec(((1,),), g2), e)
    with pytest.raises(ex.KernelReflection):
        engine.apply_operator(engine.OperatorSpec(((), (2,), (1, 2)), g2), e)
    spec = engine.OperatorSpec(((), (2,)), g2)
    assert engine.apply_operator(spec, e) == engine.normal_form(g2, _reference_operator(spec, e))
    # the cutset {1, 2} of G4 annihilates the terms before line 3's kernel
    # is reached
    e3 = kernel_multiply(engine.matsubara_integral(g4), 3)
    assert engine.apply_operator(engine.OperatorSpec(((1, 2, 3),), g4), e3).is_empty()


def test_apply_operator_rejects_a_spec_its_graph_cannot_have(g2):
    e = engine.matsubara_integral(g2)
    for subsets in (((99,),), ((), (1, 99))):
        with pytest.raises(gr.UnknownLine, match="99"):
            engine.apply_operator(engine.OperatorSpec(subsets, g2), e)
    with pytest.raises(gr.UnknownLine):
        engine.annihilator_check(g2, (1, 99), e)
    # a subset listed twice, compared after sorting
    for subsets in (((), ()), ((1, 2), (2, 1)), ((1,), (2,), (1,))):
        with pytest.raises(ValueError, match="listed twice"):
            engine.apply_operator(engine.OperatorSpec(subsets, g2), e)


def test_operator_on_mixed_heads_and_even_q_exponents(g4):
    # R_l's sign is the parity of q_l in each term's head: spread the
    # integral's terms over four heads, two of them even in some q's
    heads = [(2, ((1, -1), (2, -1), (3, -1), (4, -1), (5, -1))), (2, ((1, -2), (3, 1))),
             (2, ()), (1, ((2, -1), (5, 2)))]
    e = ex.Expression([t._replace(pi_power=heads[i % 4][0], q_exponents=heads[i % 4][1])
                       for i, t in enumerate(engine.matsubara_integral(g4).terms)])
    assert len(e.heads) == 4
    for spec in (engine.operator_reduced(g4), engine.operator_full(g4),
                 engine.OperatorSpec(((), (2,), (1, 3), (2, 4, 5), (1, 2, 3, 4, 5)), g4)):
        assert engine.apply_operator(spec, e) == engine.normal_form(
            g4, _reference_operator(spec, e))


def test_random_operators_match_the_subset_by_subset_reference(g4):
    # random subset lists on G4 and random graphs, on inputs spread over
    # heads other than (2 pi)^L / prod q, half of them carrying a kernel
    rng = np.random.default_rng(20261019)
    for g in [g4] + [fixtures.random_graph(rng, 5, 7) for _ in range(5)]:
        lines = list(g.line_ids)
        heads = [(gr.cycle_rank(g), tuple((lid, -1) for lid in lines)),
                 (2, ((lines[0], -2), (lines[2 % len(lines)], 1))), (2, ())]
        carried = int(rng.choice(lines))
        e = ex.Expression([t._replace(pi_power=heads[i % 3][0], q_exponents=heads[i % 3][1],
                                      kernels=(carried,) if i % 2 else ())
                           for i, t in enumerate(engine.matsubara_integral(g).terms)])
        free = [lid for lid in lines if lid != carried]
        subsets = tuple({tuple(sorted(rng.choice(free, size=k, replace=False).tolist()))
                         for k in rng.integers(0, len(free) + 1, size=6)})
        spec = engine.OperatorSpec(subsets, g)
        assert engine.apply_operator(spec, e) == engine.normal_form(
            g, _reference_operator(spec, e))
        # reflecting the carried kernel is refused, also past a prefix
        for refused in ((carried,), tuple(sorted((free[0], carried)))):
            with pytest.raises(ex.KernelReflection, match=f"line {carried}"):
                engine.apply_operator(engine.OperatorSpec(subsets + (refused,), g), e)
    # products of zero to three forms, some repeated, outside the pipeline's
    # shape of V - 1 distinct forms
    forms = engine._Arrangement(g4).forms
    e = ex.Expression([make_term(1, 1, {1: -1, 2: 1}, (), forms[:2]),
                       make_term(Fraction(-1, 3), 0, {}, (), [forms[5], forms[5], forms[30]]),
                       make_term(2, 0, {3: 1}, (), [forms[12]]), make_term(3, 0, {}, (), [])])
    for spec in (engine.operator_reduced(g4), engine.OperatorSpec(((2,), (1, 3, 5)), g4)):
        assert engine.apply_operator(spec, e) == engine.normal_form(
            g4, _reference_operator(spec, e))


def _scaled(e, factor):
    return ex.Expression(t._replace(coeff=t.coeff * factor) for t in e.terms)


def test_coefficients_past_int64_stay_exact(g4):
    # inputs scaled by k > 2^63, which no int64 column holds, and by 1/3:
    # every result is the unscaled one times the factor, exactly
    k = 3 ** 45
    assert k > 2 ** 63
    stress = stress_graph()
    tree = gr.enumerate_spanning_trees(stress)[0]
    cases = [(g4, engine.matsubara_integral(g4)),
             (stress, engine.tree_product(stress, engine.solve_tree(stress, tree)))]
    for g, e in cases:
        images = [engine.apply_operator(spec, e)
                  for spec in (engine.operator_reduced(g), engine.operator_full(g))]
        normal = engine.normal_form(g, e)
        for factor in (k, Fraction(1, 3)):
            big = _scaled(e, factor)
            for spec, image in zip((engine.operator_reduced(g), engine.operator_full(g)),
                                   images):
                scaled = engine.apply_operator(spec, big)
                assert scaled == _scaled(image, factor)
                if factor == k:
                    assert max(abs(c) for c in scaled.numerators) > 2 ** 63 * scaled.scale
            assert engine.normal_form(g, big) == _scaled(normal, factor)


def test_int64_columns_switch_to_exact_objects_before_they_overflow():
    # int64 sums and products wrap silently, and a wrapped sum is still
    # right whenever the true one fits; the guard must act before any value
    # can pass int64
    near = 2 ** 62 + 1
    ids = np.zeros(3, dtype=np.int64)
    (_, coeff) = ex._merge((ids, np.full(3, near)), (1,))
    assert coeff.tolist() == [3 * near]
    assert ex._exact(np.array([near, -1]), 2).tolist() == [near, -1]
    assert ex._exact(np.array([near, -1]), 2).dtype == object
    assert ex._exact(np.array([near, -1]), 1).dtype == np.int64
    assert ex._column([2 ** 63 - 1, -(2 ** 63 - 1)]).dtype == np.int64
    for values in ([2 ** 63], [-(2 ** 63)], [1, Fraction(1, 3)]):
        assert ex._column(values).tolist() == values
    # ids whose combined key would pass int64 are numbered first
    wide = 2 ** 40
    merged = ex._merge((np.array([wide - 1, 0, wide - 1]), np.array([wide - 2] * 3),
                        np.array([1, 2, 3])), (wide, wide))
    assert [column.tolist() for column in merged] == [[0, wide - 1], [wide - 2] * 2, [2, 4]]


def test_merge_drops_zero_rows_and_sums_mixed_objects_exactly():
    # zero rows drop whether or not any ids repeat
    for ids, coeff in (([4], [0]), ([3, 1, 2], [5, 0, -7])):
        merged = ex._merge((np.array(ids), np.array(coeff)), (5,))
        assert [column.tolist() for column in merged] == [
            sorted(i for i, c in zip(ids, coeff) if c),
            [c for _, c in sorted(zip(ids, coeff)) if c]]
    # ints and Fractions in one object column sum exactly, and sums that
    # cancel drop
    coeff = ex._column([2 ** 70, Fraction(1, 3), -(2 ** 70), Fraction(2, 3), 1, Fraction(-1, 2)])
    assert coeff.dtype == object
    ids, total = ex._merge((np.array([1, 0, 1, 0, 2, 2]), coeff), (3,))
    assert ids.tolist() == [0, 2] and total.tolist() == [1, Fraction(1, 2)]


def test_no_product_is_searched_for_a_broken_circuit_twice(g4, monkeypatch):
    # the memo keeps each searched product's rewrite rows: once a call has
    # searched a product, it rewrites the product through them
    integral = engine.matsubara_integral(g4)
    searched: list[int] = []
    search = engine._Arrangement._broken_circuits
    monkeypatch.setattr(engine._Arrangement, "_broken_circuits",
                        lambda self, products: searched.extend(products)
                        or search(self, products))
    for call in (lambda: engine.matsubara_sum(g4), lambda: engine.matsubara_sum(g4, "direct"),
                 lambda: engine.apply_operator(engine.operator_full(g4), integral)):
        searched.clear()
        call()
        assert searched and len(searched) == len(set(searched))


#: Term count and sha256 of the JSON render of the rank-6 stress sum
#: (random_graph(default_rng(3), 4, 8), redrawn until it has 8 lines) in the
#: tree basis: the reduced operator on the raw tree-product assembly, as the
#: Fraction-based walk before the packed kernel produced it and as the
#: subset-by-subset reference produces it. The JSON digests are of the
#: one-object-per-term schema that tests/reference.py writes.
STRESS_SUM_TERMS = 39586
STRESS_SUM_JSON_SHA256 = "6abe2eeb64556b9748c7f745cf86612cc94c84a302a6e7acb943301f9d811382"
#: The same for the normal form of that sum, matsubara_sum's output.
STRESS_NORMAL_SUM_TERMS = 28590
STRESS_NORMAL_SUM_JSON_SHA256 = "dad16e9455843cdeadd6797803d4d74b17f1195840931c2ebfa61114ad7b2d77"
#: sha256 of its text and latex renders, and the repr of its value at the
#: three points drawn from default_rng(31) below, all as the term-by-term
#: renderer and evaluator gave them.
STRESS_NORMAL_SUM_TEXT_SHA256 = "e1eae88a1dbd883d18bcc6ac890704eb40a21961934052940aea34ec12e16182"
STRESS_NORMAL_SUM_LATEX_SHA256 = "45a63f5d7542b536877990c5bd0336c3c97cc0bf4fd8dc67a42020eabba1e652"
STRESS_NORMAL_SUM_VALUES = (
    "(21.234630812077505+0j)",
    "(10.459523661552641+1.8648277366750676e-17j)",
    "(1.8019627001100758-6.723324018831009e-21j)",
)


def test_stress_sum_is_byte_identical():
    g = stress_graph()
    raw = _reference_operator(engine.operator_reduced(g), _raw_integral(g))
    assert len(raw) == STRESS_SUM_TERMS
    digest = hashlib.sha256(reference.render(raw, "json").encode("utf-8")).hexdigest()
    assert digest == STRESS_SUM_JSON_SHA256
    s = engine.matsubara_sum(g)
    assert engine.normal_form(g, raw) == s
    assert len(s) == STRESS_NORMAL_SUM_TERMS
    for render, fmt, pinned in ((reference.render, "json", STRESS_NORMAL_SUM_JSON_SHA256),
                                (ex.render, "text", STRESS_NORMAL_SUM_TEXT_SHA256),
                                (ex.render, "latex", STRESS_NORMAL_SUM_LATEX_SHA256)):
        assert hashlib.sha256(render(s, fmt).encode("utf-8")).hexdigest() == pinned, fmt
    assert ex.parse_expression(ex.render(s, "json")) == s
    # the two sums are the same function
    rng = np.random.default_rng(31)
    for pinned in STRESS_NORMAL_SUM_VALUES:
        q = {lid: float(rng.uniform(0.5, 2.0)) for lid in g.line_ids}
        n = {v: int(rng.integers(-3, 4)) for v in g.vertices[:-1]}
        value = ex.eval_numeric(s, q, n)
        assert repr(value) == pinned
        assert value == pytest.approx(ex.eval_numeric(raw, q, n), rel=1e-9)


def test_hot_paths_stay_on_the_packed_tables(g4, monkeypatch):
    # building, rendering, parsing, comparing and evaluating a sum read the
    # expression's tables; none of them builds Term tuples or Fractions
    q, n = {i: 0.4 + 0.3 * i for i in range(1, 6)}, {"a": 1, "b": -2, "c": 1}
    expected = engine.matsubara_sum(g4)
    renders = {fmt: reference.render(expected, fmt) for fmt in ("text", "latex")}
    renders["json"] = ex.render(expected, "json")
    value = reference.eval_numeric(expected, q, n)

    def refuse(*args, **kwargs):
        raise AssertionError("a per-term object was built")

    monkeypatch.setattr(ex.Expression, "terms", property(refuse))
    monkeypatch.setattr(ex, "Term", refuse)
    monkeypatch.setattr(ex, "Fraction", refuse)
    s = engine.matsubara_sum(g4)
    for fmt, text in renders.items():
        assert ex.render(s, fmt) == text
    assert ex.parse_expression(renders["json"]) == s
    assert s == expected and s == engine.matsubara_sum(g4, "direct")
    assert repr(ex.eval_numeric(s, q, n)) == repr(value)


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

def test_cut_forms_of_g4(g4):
    forms = engine._Arrangement(g4).forms
    assert len(gr.bonds(g4)) == 6
    assert len(forms) == len(set(forms)) == 40
    same_sign = [len({c for _, c in f.q}) == 1 for f in forms]
    assert same_sign == sorted(same_sign, reverse=True)
    for e in (engine.matsubara_integral(g4), engine.matsubara_sum(g4)):
        assert {f for t in e.terms for f in t.denominators} <= set(forms)
    # the normal integral uses same-sign forms only
    integral = engine.matsubara_integral(g4)
    assert all(len({c for _, c in f.q}) == 1 for t in integral.terms for f in t.denominators)


def test_reflection_of_a_cut_form_is_a_bit_flip():
    # the engine reflects cut-form ids without renormalizing; every cut form
    # leads with +N(S), so the reference flip of any form gives the same form
    # with sign +1
    for g in corpus()[:13]:
        arrangement = engine._Arrangement(g)
        forms = engine._Arrangement(g).forms
        products = arrangement.intern(np.arange(len(forms))[:, None])
        # R_l's sign on a group is -1 iff q_l is odd in its head
        group = arrangement.group(((0, ()), ()))
        odd, _ = arrangement.parities()
        for lid in g.line_ids:
            line = arrangement.line_position[lid]
            images = arrangement.reflect(np.full(len(products), line), products)
            assert not odd[group, line]
            for form, image in zip(forms, images.tolist()):
                flipped, sign = reference._flip_form(form, lid)
                assert sign == 1
                assert arrangement.products[image] == (forms.index(flipped),)


def test_exact_search_gives_the_same_normal_form(monkeypatch):
    # the batched float search and the exact Fraction search are independent
    # implementations of the same rewriting; any broken circuit either one
    # missed would leave a different form
    graphs = [fixtures.g4()] + corpus()[3:7]
    expected = [(engine.matsubara_integral(g), engine.matsubara_sum(g)) for g in graphs]
    # a triangle with 2, 2 and 12 parallel lines: 3 bonds, but 32,784 cut
    # forms; its products fit one batch per round, as batches are sized by
    # the bonds the search spans
    names = "ab" * 2 + "bc" * 2 + "ca" * 12
    wide = gr.make_graph(["a", "b", "c"], [(k // 2 + 1, names[k], names[k + 1])
                                           for k in range(0, len(names), 2)])
    batches = []
    search = engine._Arrangement._bond_search
    monkeypatch.setattr(engine._Arrangement, "_bond_search",
                        lambda self, group: batches.append(len(group)) or search(self, group))
    wide_integral = engine.matsubara_integral(wide)
    assert len(engine._Arrangement(wide).forms) == 32784 and len(batches) == 2
    monkeypatch.setattr(engine._Arrangement, "_bond_search",
                        lambda self, group: (engine._NO_REWRITES, group))
    for g, (integral, total) in zip(graphs, expected):
        assert engine.matsubara_integral(g) == integral
        assert engine.normal_form(g, _raw_integral(g)) == integral
        assert engine.matsubara_sum(g) == total
    assert engine.matsubara_integral(wide) == wide_integral


def test_cycle_integral_has_the_central_binomial_count_in_normal_form():
    # an n-cycle's tree basis has n * 2^(n-1) terms; its normal form has
    # C(2(n-1), n-1), fewer up to n = 5 and more from n = 6 on
    for n in range(3, 8):
        g = cycle_graph(n)
        assert len(_raw_integral(g)) == n * 2 ** (n - 1)
        assert len(engine.matsubara_integral(g)) == math.comb(2 * (n - 1), n - 1)


def test_normal_form_past_its_budget_is_refused(monkeypatch):
    g = cycle_graph(8)      # its integral rewrites about 25k products
    monkeypatch.setattr(engine, "MAX_REDUCED_PRODUCTS", 5000)
    with pytest.raises(engine.NormalFormTooLarge, match="more than 5000"):
        engine.matsubara_integral(g)
    for method in ("operator", "direct"):
        with pytest.raises(gr.GraphTooLarge):
            engine.matsubara_sum(g, method)
    # a smaller cycle stays within the budget
    assert len(engine.matsubara_integral(cycle_graph(6))) == 252
    # the budget counts products exactly: the integrals of the 4-, 5- and
    # 6-cycles rewrite 74, 339 and 1,470 products, and pass at that budget
    for n, count in ((4, 74), (5, 339), (6, 1470)):
        monkeypatch.setattr(engine, "MAX_REDUCED_PRODUCTS", count)
        assert len(engine.matsubara_integral(cycle_graph(n))) == math.comb(2 * (n - 1), n - 1)
        monkeypatch.setattr(engine, "MAX_REDUCED_PRODUCTS", count - 1)
        with pytest.raises(engine.NormalFormTooLarge, match=f"more than {count - 1}"):
            engine.matsubara_integral(cycle_graph(n))
    # a refused normalization (at the budget of 1,469 the loop leaves)
    # searches nothing past the budget and keeps only complete memo
    # entries, so the same arrangement then reduces in full
    g = cycle_graph(6)
    arrangement, total = engine._tree_products(
        g, [engine.solve_tree(g, tree) for tree in gr.enumerate_spanning_trees(g)])
    with pytest.raises(engine.NormalFormTooLarge):
        arrangement.normalize_all(total)
    monkeypatch.setattr(engine, "MAX_REDUCED_PRODUCTS", 1470)
    assert (arrangement.freeze(arrangement.normalize_all(total), 2 ** g.num_lines)
            == engine.matsubara_integral(g))


def test_the_memo_holds_one_rewrite_per_searched_product(monkeypatch):
    # the memo keeps exactly the rows _broken_circuits returns: each
    # searched product's (child, a_D) rows, none for an nbc product, and
    # length -1 for a product not searched
    g = cycle_graph(6)
    trees = [engine.solve_tree(g, tree) for tree in gr.enumerate_spanning_trees(g)]
    searched, returned = [], []
    search = engine._Arrangement._broken_circuits

    def recorded(self, products):
        searched.extend(products.tolist())
        returned.append(search(self, products))
        return returned[-1]

    monkeypatch.setattr(engine._Arrangement, "_broken_circuits", recorded)
    arrangement, total = engine._tree_products(g, trees)
    nf = arrangement.normalize_all(total)
    rows: dict[int, list] = {product: [] for product in searched}
    for parent, child, a in returned:
        for product, row in zip(parent.tolist(), zip(child.tolist(), a.tolist())):
            rows[product].append(row)
    assert arrangement._size == sum(map(len, rows.values())) == 1664
    memo = arrangement._memo[:len(arrangement.products)]
    assert np.flatnonzero(memo[:, 1] >= 0).tolist() == sorted(searched)
    for product, expected in rows.items():
        start, length = memo[product].tolist()
        assert list(zip(arrangement._child[start:start + length].tolist(),
                        arrangement._a[start:start + length].tolist())) == expected
    assert (memo[nf.product, 1] == 0).all()
    # a refusal searches nothing past the budget and leaves only complete
    # entries, so a rerun on the same arrangement searches no product twice
    monkeypatch.setattr(engine, "MAX_REDUCED_PRODUCTS", 1469)
    arrangement, total = engine._tree_products(g, trees)
    searched.clear()
    with pytest.raises(engine.NormalFormTooLarge):
        arrangement.normalize_all(total)
    assert 0 < len(searched) == (arrangement._memo[:, 1] >= 0).sum() < 1469
    monkeypatch.setattr(engine, "MAX_REDUCED_PRODUCTS", 1470)
    again = arrangement.normalize_all(total)
    assert len(searched) == len(set(searched)) == 1470
    assert [column.tolist() for column in again] == [column.tolist() for column in nf]


#: Products searched for a broken circuit (the arrangement's count when it
#: freezes its result) by matsubara_sum's operator and direct routes and by
#: matsubara_integral, as measured; a pin may only go down.
SEARCHED_PRODUCTS = {"G4": (232, 208, 90), "stress": (581, 592, 57),
                     "8-ring": (85_008, 53_224, 25_268)}
#: Rows entering each _Arrangement.normalize call (the tree products', then
#: the walk's levels') of matsubara_sum's operator and direct routes, call
#: by call, as measured; a pin may only go down.
NORMALIZED_ROWS = {
    "G4": ((64, 200, 512), (64, 384, 404)),
    "stress": ((84, 96, 716, 3088, 8120, 12748, 9684),
               (84, 1224, 6286, 17028, 25758, 20722, 6924)),
    "8-ring": ((1024, 54912), (1024, 32768)),
}
#: normalize, _search and _bond_search calls over the 53 graphs of
#: acceptance criterion 6, by the operator and the direct route.
CORPUS_CALLS = {"operator": (212, 413, 250), "direct": (212, 413, 244)}


#: Cut forms built (arrangement[rank]) by matsubara_integral on two
#: vertices joined by 16 lines, whose one bond has 65,536 forms, as
#: measured; a pin may only go down.
WIDE_BOND_FORMS_BUILT = 2


def test_a_wide_bond_builds_only_the_forms_it_reads(monkeypatch):
    melon = gr.make_graph(["a", "b"], [(lid, "b", "a") for lid in range(1, 17)])
    built: list[int] = []
    form = engine._Arrangement.__getitem__
    monkeypatch.setattr(engine._Arrangement, "__getitem__", lambda self, rank:
                        built.append(rank) or form(self, rank))
    integral = engine.matsubara_integral(melon)
    assert len(built) <= WIDE_BOND_FORMS_BUILT
    assert engine._Arrangement(melon).form_count == 1 << 16
    # (2 pi)^15 / prod 2q_l times 1/(iN_a + sum q) - 1/(iN_a - sum q)
    lines = tuple(range(1, 17))
    assert integral == ex.Expression([
        make_term(Fraction(sign, 1 << 16), 15, {l: -1 for l in lines}, (),
                  [ex.LinearForm((("a", 1),), tuple((l, sign) for l in lines))])
        for sign in (1, -1)])


def test_engine_work_stays_within_its_pins(g4, monkeypatch):
    searched: list[int] = []
    rows: list[int] = []
    freeze, normalize = engine._Arrangement.freeze, engine._Arrangement.normalize
    monkeypatch.setattr(engine._Arrangement, "freeze", lambda self, terms, scale:
                        searched.append(self._count) or freeze(self, terms, scale))
    monkeypatch.setattr(engine._Arrangement, "normalize", lambda self, key, *args:
                        rows.append(len(key)) or normalize(self, key, *args))
    stress = stress_graph()
    for name, g in (("G4", g4), ("stress", stress), ("8-ring", cycle_graph(8))):
        searched.clear()
        for route, pins in zip(("operator", "direct"), NORMALIZED_ROWS[name]):
            rows.clear()
            engine.matsubara_sum(g, route)
            assert len(rows) == len(pins) and all(
                n <= pin for n, pin in zip(rows, pins)), (name, route, rows)
        engine.matsubara_integral(g)
        assert len(searched) == 3 and all(
            0 < n <= pin for n, pin in zip(searched, SEARCHED_PRODUCTS[name])), (name, searched)

    calls = dict.fromkeys(("normalize", "_search", "_bond_search"), 0)
    for method in calls:
        def counted(self, *args, _method=getattr(engine._Arrangement, method), _name=method):
            calls[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(engine._Arrangement, method, counted)
    graphs = corpus()
    for route, pins in CORPUS_CALLS.items():
        calls.update(dict.fromkeys(calls, 0))
        for g in graphs:
            engine.matsubara_sum(g, route)
        assert all(0 < n <= pin for n, pin in zip(calls.values(), pins)), (route, calls)


def test_a_walk_with_roots_returns_the_direct_sum_in_normal_form(g4):
    # one operator per tree, each tree's rows rooted at its own: the walk
    # merges the raw levels and normalizes their total once
    for g in (g4, fixtures.random_graph(np.random.default_rng(7), 5, 7)):
        trees = gr.enumerate_spanning_trees(g)
        arrangement, products = engine._tree_products(
            g, [engine.solve_tree(g, tree) for tree in trees])
        roots = np.arange(len(trees)).repeat(len(products.coeff) // len(trees))
        forest = [gr.line_subsets(set(g.line_ids) - set(tree)) for tree in trees]
        result = engine._walk(arrangement, forest, products, roots)
        assert (arrangement.freeze(result, 2 ** g.num_lines)
                == engine.matsubara_sum(g, "direct"))
        assert not arrangement._search(result.product).any()


def triangle_225():
    """The triangle with 2, 2 and 5 parallel lines (81,922 sum terms)."""
    return gr.make_graph(["a", "b", "c"], [
        (i + 1, u, v) for i, (u, v) in enumerate([("a", "b")] * 2 + [("b", "c")] * 2
                                                 + [("c", "a")] * 5)])


def test_the_direct_route_holds_no_more_than_its_result_needs():
    # the 2/2/5 triangle: each level's finished rows join the walk's
    # result regrouped once, so the direct route's traced peak stays within
    # 2.5x the operator route's (3.3x while the walk held them all until
    # it returned)
    triangle = triangle_225()
    sums, peaks = {}, {}
    for method in ("operator", "direct"):
        tracemalloc.start()
        try:
            sums[method] = engine.matsubara_sum(triangle, method)
            peaks[method] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert sums["direct"] == sums["operator"]
    assert len(sums["direct"]) == 81922
    assert peaks["direct"] <= 2.5 * peaks["operator"], peaks


def test_parsing_a_large_sum_holds_a_few_times_its_text():
    # the 2/2/5 triangle's sum as JSON (1.49 MB): its table is read from
    # the text as integer columns, so parsing it peaks at about 6.7x the
    # text's length (13.8x while json.loads built a list per row)
    text = ex.render(engine.matsubara_sum(triangle_225()), "json")
    tracemalloc.start()
    try:
        parsed = ex.parse_expression(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(parsed) == 81922
    assert peak <= 9 * len(text), peak / len(text)


def test_thermal_operator_past_its_term_budget_is_refused(monkeypatch, g4):
    integral = engine.matsubara_integral(g4)
    full = len(engine.matsubara_sum(g4))
    monkeypatch.setattr(engine, "MAX_TERMS", full // 2)
    for method in ("operator", "direct"):
        with pytest.raises(engine.TooManyTerms, match=f"more than {full // 2} terms"):
            engine.matsubara_sum(g4, method)
    with pytest.raises(gr.GraphTooLarge):
        engine.apply_operator(engine.operator_full(g4), integral)
    # the integral does not walk, and a budget of more terms passes
    assert engine.matsubara_integral(g4) == integral
    monkeypatch.setattr(engine, "MAX_TERMS", 4 * full)
    assert len(engine.matsubara_sum(g4)) == full


def test_levels_past_the_term_budget_are_built_in_chunks(monkeypatch):
    # at a budget of the 6-ring's own sum size (2,300 terms), a level of
    # either route expands to more rows than the budget before merging: it
    # is built in chunks, and the results do not change
    ring = cycle_graph(6)
    expected = {method: engine.matsubara_sum(ring, method) for method in ("operator", "direct")}
    budget, slices = len(expected["operator"]), engine._slices
    for method, total in expected.items():
        chunks = []
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_slices", lambda sizes, limit: chunks.append(
                sum(sizes) > limit) or slices(sizes, limit))
            patch.setattr(engine, "MAX_TERMS", budget)
            assert engine.matsubara_sum(ring, method) == total
            # the budget counts the merged rows held: one row fewer is refused
            patch.setattr(engine, "MAX_TERMS", budget - 1)
            with pytest.raises(engine.TooManyTerms):
                engine.matsubara_sum(ring, method)
        assert any(chunks), method


def test_every_memo_expansion_keeps_to_the_term_budget(monkeypatch):
    # every pass of normalize expands rows through the rewrite memo in
    # chunks: at a budget of 16 rows no expansion passes it unless it
    # rewrites a single term, and the integrals of the 5- and 6-rings do
    # not change
    expected = {n: engine.matsubara_integral(cycle_graph(n)) for n in (5, 6)}
    expansions = []
    rewrite = engine._Arrangement.rewrite
    monkeypatch.setattr(engine._Arrangement, "rewrite", lambda self, start, length, coeff: (
        expansions.append((len(length), int(length.sum()))) or rewrite(self, start, length, coeff)))
    monkeypatch.setattr(engine, "MAX_TERMS", 16)
    for n, integral in expected.items():
        assert engine.matsubara_integral(cycle_graph(n)) == integral
    assert all(rows <= 16 or terms == 1 for terms, rows in expansions)
    assert sum(rows for _, rows in expansions) > 16


def test_normal_form_rejects_a_denominator_that_is_not_a_cut_form(g4):
    # no bond cuts 1 and 3 alone; i(N_a + N_c) + q1 + q2 + q3 + q4 crosses
    # the lines at a and c, but a and c are not adjacent, so {a, c} is the
    # side of no bond; i N_a + q1 + q2 - q3 is over the bond {a}, which
    # line 3 does not cross
    for n_part, q_part in (([("a", 1)], [(1, 1), (3, 1)]),
                           ([("a", 1), ("c", 1)], [(1, 1), (2, 1), (3, 1), (4, 1)]),
                           ([("a", 1)], [(1, 1), (2, 1), (3, -1)])):
        form, _ = ex.normalize_form(n_part, q_part)
        e = ex.Expression([make_term(1, 0, {}, (), [form])])
        with pytest.raises(engine.NotACutForm):
            engine.normal_form(g4, e)
        for spec in (engine.operator_reduced(g4), engine.OperatorSpec((), g4)):
            with pytest.raises(engine.NotACutForm):
                engine.apply_operator(spec, e)
        with pytest.raises(engine.NotACutForm):
            engine.annihilator_check(g4, (1, 2), e)


def test_normal_form_of_repeated_and_dependent_denominators(g4, monkeypatch):
    # products outside the pipeline's shape: a squared form, two forms of
    # one 3-line bond, three of them (still independent), and five of them,
    # which are dependent; the exact search handles them
    forms = engine._Arrangement(g4).forms
    by_n: dict = {}
    for f in forms:
        by_n.setdefault(f.n, []).append(f)
    bond = next(fs for fs in by_n.values() if len(fs) == 8)
    other = next(fs for n, fs in by_n.items() if n != bond[0].n)
    terms = [
        make_term(1, 0, {}, (), [bond[0], bond[0], other[0]]),
        make_term(Fraction(1, 3), 0, {}, (), [bond[1], bond[2], other[1]]),
        make_term(-2, 0, {}, (), [bond[3], bond[4], bond[5]]),
        make_term(1, 0, {}, (), [bond[6], other[2]]),
        make_term(3, 0, {}, (), bond[:5]),
        make_term(5, 0, {}, (), []),
    ]
    e = ex.Expression(terms)
    nf = engine.normal_form(g4, e)
    assert engine.normal_form(g4, nf) == nf
    rng = np.random.default_rng(12)
    for _ in range(5):
        q = {i: float(rng.uniform(0.3, 3.0)) for i in range(1, 6)}
        n = {v: int(rng.integers(-3, 4)) for v in "abc"}
        assert ex.eval_numeric(nf, q, n) == pytest.approx(ex.eval_numeric(e, q, n), rel=1e-9)
    # a product of the pipeline's shape whose relation is not integral: on
    # K4 the lowest broken circuit of these three forms is
    # H = i(N_a+N_b+N_c) - q3 - q5 - q6 = (D1 + D2 + D3) / 2, which the
    # batched search finds but cannot round, so it hands the product to
    # the exact search
    k4 = gr.make_graph("abcd", [(i + 1, u, v) for i, (u, v)
                                in enumerate(itertools.combinations("abcd", 2))])
    e = ex.Expression([make_term(1, 0, {}, (), [
        ex.LinearForm((("a", 1), ("b", 1)), ((2, -1), (3, -1), (4, -1), (5, -1))),
        ex.LinearForm((("a", 1), ("c", 1)), ((1, 1), (3, -1), (4, 1), (6, -1))),
        ex.LinearForm((("b", 1), ("c", 1)), ((1, -1), (2, 1), (5, -1), (6, -1)))])])
    exact: list[int] = []
    rewrite = engine._Arrangement._exact_rewrite
    monkeypatch.setattr(engine._Arrangement, "_exact_rewrite", lambda self, products:
                        exact.extend(products.tolist()) or rewrite(self, products))
    nf = engine.normal_form(k4, e)
    assert len(exact) == 1
    assert [t.coeff for t in nf.terms] == [Fraction(1, 2)] * 3
    monkeypatch.setattr(engine._Arrangement, "_bond_search",
                        lambda self, group: (engine._NO_REWRITES, group))
    assert engine.normal_form(k4, e) == nf
    for _ in range(5):
        q = {i: float(rng.uniform(0.3, 3.0)) for i in range(1, 7)}
        n = {v: int(rng.integers(-3, 4)) for v in "abc"}
        assert ex.eval_numeric(nf, q, n) == pytest.approx(ex.eval_numeric(e, q, n), rel=1e-9)


def test_exact_search_alone_gives_the_normal_form_of_random_products(monkeypatch):
    # random products of 0 to V+1 cut forms, repeats allowed, so with
    # repeated, dependent and singular supports; and one expression whose
    # only product of V-1 forms has two forms of one bond, so the batched
    # search declines its whole batch and inverts an empty stack
    rng = np.random.default_rng(20261019)
    k4 = gr.make_graph("abcd", [(i + 1, u, v) for i, (u, v)
                                in enumerate(itertools.combinations("abcd", 2))])
    graphs = [fixtures.g4(), k4] + [fixtures.random_graph(np.random.default_rng(s), 5, 7)
                                    for s in (0, 7)]
    search, batches = engine._Arrangement._bond_search, []

    def recorded(self, group):
        rewrites, declined = search(self, group)
        batches.append((len(group), len(declined)))
        return rewrites, declined

    for g in graphs:
        forms, v = engine._Arrangement(g).forms, g.num_vertices
        random_terms = ex.Expression([
            make_term(Fraction(int(rng.choice([-3, -1, 1, 2])), int(rng.integers(1, 4))), 0, {},
                      (), [forms[i] for i in rng.integers(0, len(forms), rng.integers(0, v + 2))])
            for _ in range(30)])
        twin = next(f for f in forms[1:] if f.n == forms[0].n)
        singular = ex.Expression([
            make_term(1, 0, {}, (), [forms[0], twin] + list(forms[-(v - 3):] if v > 3 else [])),
            make_term(-2, 0, {}, (), forms[1:v + 1])])
        for e in (random_terms, singular):
            monkeypatch.setattr(engine._Arrangement, "_bond_search", recorded)
            batches.clear()
            nf = engine.normal_form(g, e)
            assert engine.normal_form(g, nf) == nf
            monkeypatch.setattr(engine._Arrangement, "_bond_search",
                                lambda self, group: (engine._NO_REWRITES, group))
            assert engine.normal_form(g, e) == nf
            for _ in range(3):
                q = {lid: float(rng.uniform(0.3, 3.0)) for lid in g.line_ids}
                n = {u: int(rng.integers(-3, 4)) for u in g.vertices[:-1]}
                assert ex.eval_numeric(nf, q, n) == pytest.approx(ex.eval_numeric(e, q, n),
                                                                  rel=1e-9)
        assert batches[0] == (1, 1)


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
    # tree decompositions of the four-vertex integral; the values coincide,
    # and so do their normal forms
    h = [5, 3, 4, 2, 1]
    a = _raw_integral(g4)
    b = _raw_integral(g4, hierarchy=h)
    assert a != b
    q = {i: 0.4 + 0.3 * i for i in range(1, 6)}
    n = {"a": 1, "b": -2, "c": 1}
    va = ex.eval_numeric(a, q, n)
    vb = ex.eval_numeric(b, q, n)
    assert va.real == pytest.approx(vb.real, rel=1e-12)
    assert engine.normal_form(g4, a) == engine.normal_form(g4, b)
    assert engine.matsubara_integral(g4) == engine.matsubara_integral(g4, hierarchy=h)


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
    assert engine.render_operator(spec, "latex") == (
        "1 + n_B(q_{1})\\big(1 - \\hat{R}_{1}\\big) + n_B(q_{2})\\big(1 - \\hat{R}_{2}\\big)")
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        engine.render_operator(spec, "xml")
