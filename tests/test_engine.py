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
    cycle_graph,
    reference_integral_g2,
    reference_integral_g3,
    reference_integral_g4,
    reference_integral_g4_value,
    reference_sum_g2,
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


def _kernel_graphs():
    rng = np.random.default_rng(20260810)
    return [fixtures.g2(), fixtures.g3(), fixtures.g4()] + [
        fixtures.random_graph(rng, 5, 7) for _ in range(10)
    ]


@pytest.mark.parametrize("index", range(13))
def test_operator_routes_match_subset_by_subset_reference(index):
    g = _kernel_graphs()[index]
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


def test_apply_operator_carries_kernels_and_rejects_reflecting_them(g2):
    e = kernel_multiply(reference_integral_g2(), 1)
    with pytest.raises(ex.KernelReflection):
        engine.apply_operator(engine.OperatorSpec(((1,),), g2), e)
    with pytest.raises(ex.KernelReflection):
        engine.apply_operator(engine.OperatorSpec(((), (2,), (1, 2)), g2), e)
    spec = engine.OperatorSpec(((), (2,)), g2)
    assert engine.apply_operator(spec, e) == engine.normal_form(g2, _reference_operator(spec, e))
    # the cutset {1, 2} annihilates the terms before line 3's kernel is reached
    e3 = kernel_multiply(reference_integral_g2(), 3)
    assert engine.apply_operator(engine.OperatorSpec(((1, 2, 3),), g2), e3).is_empty()


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
    rng = np.random.default_rng(3)
    g = fixtures.random_graph(rng, 4, 8)
    while g.num_lines != 8:
        g = fixtures.random_graph(rng, 4, 8)
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
    forms = engine.cut_forms(g4)
    assert len(gr.bonds(g4)) == 6
    assert len(forms) == len(set(forms)) == 40
    same_sign = [len({c for _, c in f.q}) == 1 for f in forms]
    assert same_sign == sorted(same_sign, reverse=True)
    for e in (engine.matsubara_integral(g4), engine.matsubara_sum(g4)):
        assert {f for t in e.terms for f in t.denominators} <= set(forms)
    # the normal integral uses same-sign forms only
    integral = engine.matsubara_integral(g4)
    assert all(len({c for _, c in f.q}) == 1 for t in integral.terms for f in t.denominators)


def test_reflection_of_a_cut_form_is_a_bit_flip(g2, g3, g4):
    # the engine reflects cut-form ids without renormalizing; every cut form
    # leads with +N(S), so the reference flip of any form gives the same form
    # with sign +1
    rng = np.random.default_rng(20260810)
    for g in [g2, g3, g4] + [fixtures.random_graph(rng, 5, 7) for _ in range(10)]:
        packed = engine._Packed(1, g)
        head = packed.head(0, ())
        for rank, form in enumerate(engine.cut_forms(g)):
            shape = packed.shape(head, (rank,))
            for lid in g.line_ids:
                flipped, sign = reference._flip_form(form, lid)
                image, engine_sign = packed.reflection(lid)[shape]
                assert (sign, engine_sign) == (1, 1)
                assert packed.shapes[image] == (head, (packed.form(flipped),))


def test_exact_search_gives_the_same_normal_form(monkeypatch):
    # the batched float search and the exact Fraction search are independent
    # implementations of the same rewriting; any broken circuit either one
    # missed would leave a different form
    graphs = [fixtures.g4()] + _kernel_graphs()[3:7]
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
    assert len(engine.cut_forms(wide)) == 32784 and len(batches) == 2
    monkeypatch.setattr(engine._Arrangement, "_bond_search",
                        lambda self, group: {p: self._exact_rewrite(p) for p in group})
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


def test_normal_form_rejects_a_denominator_that_is_not_a_cut_form(g4):
    form, _ = ex.normalize_form([("a", 1)], [(1, 1), (3, 1)])   # no bond cuts 1 and 3 alone
    e = ex.Expression([make_term(1, 0, {}, (), [form])])
    with pytest.raises(engine.NotACutForm):
        engine.normal_form(g4, e)


def test_normal_form_of_repeated_and_dependent_denominators(g4):
    # products outside the pipeline's shape: a squared form, two forms of
    # one bond, and a dependent triple; the exact search handles them
    forms = engine.cut_forms(g4)
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
