"""Numeric oracles: kernel, lattice sums, quadrature, identity residuals."""

from __future__ import annotations

import json
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from matsum import engine, fixtures, oracles
from matsum import expressions as ex
from matsum import graph as gr
from matsum.kernels import ZeroArgument, nbe

from reference import (constrained_box_sum, reference_quadrature_integral, single_sum,
                       whole_box_sum)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def test_nbe_reference_value():
    ref = float(1 / mpmath.expm1(2 * mpmath.pi))  # 1/(e^{2 pi} - 1)
    assert nbe(1.0) == pytest.approx(ref, rel=1e-15)
    assert nbe(1.0) == pytest.approx(1.87093659866064e-3, rel=1e-14)


def test_nbe_reflection_identity():
    for z in (0.25, 1.0, 3.0):
        assert nbe(z) + nbe(-z) + 1 == pytest.approx(0.0, abs=1e-14)


def test_nbe_sign_decomposition():
    # nbe(q) = -step(-q) + sign(q) * nbe(|q|)
    for q in (0.3, 2.7):
        assert nbe(q) == pytest.approx(nbe(abs(q)), abs=1e-16)
        assert nbe(-q) == pytest.approx(-1.0 - nbe(abs(q)), abs=1e-16)


def test_nbe_large_argument_underflows_cleanly():
    assert nbe(50.0) == pytest.approx(0.0, abs=1e-130)
    assert nbe(120.0) == 0.0  # beyond double exp range, no overflow
    assert nbe(-50.0) == pytest.approx(-1.0, abs=1e-130)
    assert not math.isnan(nbe(500.0)) and nbe(500.0) == 0.0


def test_nbe_zero_raises():
    with pytest.raises(ZeroArgument):
        nbe(0.0)


# ---------------------------------------------------------------------------
# lattice sums
# ---------------------------------------------------------------------------

def test_single_sum_machinery_check():
    # sum_n 1/(n^2+1) -> pi coth(pi)
    val = single_sum(1.0, 100_000)
    target = math.pi / math.tanh(math.pi)
    assert val == pytest.approx(target, abs=1e-4)


def test_brute_force_g2_equal_masses():
    # sum_n 1/(n^2+1)^2 = (pi/2)(coth pi + pi/sinh^2 pi)
    target = (math.pi / 2) * (
        math.cosh(math.pi) / math.sinh(math.pi) + math.pi / math.sinh(math.pi) ** 2
    )
    res = oracles.brute_force_sum(fixtures.g2(), {"a": 0}, {1: 1.0, 2: 1.0}, 10_000)
    assert res.value == pytest.approx(target, rel=1e-10)
    assert res.convergence < 1e-9


def test_brute_force_convergence_shrinks(g3):
    n, q = {"a": 1}, {1: 0.8, 2: 1.2, 3: 1.7}
    diffs = [oracles.brute_force_sum(g3, n, q, m).convergence
             for m in (40, 80, 160, 320)]
    assert all(a > b for a, b in zip(diffs, diffs[1:]))


def test_brute_force_fills_a_bridge_line_across_the_grid():
    # line 3 is a bridge: its variable is fixed by the N's alone
    g = gr.make_graph(["a", "b", "c", "d"], [(1, "a", "b"), (2, "b", "a"), (3, "b", "c"),
                                             (4, "c", "d"), (5, "d", "c")])
    n, q = {"a": 1, "b": 0, "c": -1}, {lid: 0.5 + 0.2 * lid for lid in g.line_ids}
    res = oracles.brute_force_sum(g, n, q, 400)
    closed = ex.eval_numeric(engine.matsubara_sum(g), q, n).real
    assert res.value == pytest.approx(closed, rel=1e-6)


def test_brute_force_rejects_tiny_cutoff(g2):
    with pytest.raises(ValueError):
        oracles.brute_force_sum(g2, {"a": 0}, {1: 1.0, 2: 1.0}, 5)


def _bridge_graph():
    return gr.make_graph(["a", "b", "c", "d"], [(1, "a", "b"), (2, "b", "a"), (3, "b", "c"),
                                                (4, "c", "d"), (5, "d", "c")])


def _rank3_graph():
    return gr.make_graph(["a", "b", "c"], [(1, "a", "b"), (2, "b", "a"), (3, "b", "c"),
                                           (4, "c", "b"), (5, "c", "a")])


@pytest.mark.parametrize("make_graph, cutoffs", [
    pytest.param(fixtures.g2, (10, 37, 1000, 50_000), id="g2"),
    pytest.param(fixtures.g3, (10, 37, 1000), id="g3"),
    pytest.param(fixtures.g4, (10, 37, 1000), id="g4"),
    pytest.param(_bridge_graph, (10, 37, 1000), id="bridge"),
    pytest.param(_rank3_graph, (10, 37, 40), id="rank3"),
])
def test_brute_force_slabs_match_the_whole_box(make_graph, cutoffs):
    # cutoffs 50000 (rank 1), 1000 (rank 2) and 37 (rank 3) split the box
    # into slabs of unequal size, and the half-cutoff edges fall inside slabs
    g = make_graph()
    rng = np.random.default_rng(gr.cycle_rank(g) * 100 + g.num_lines)
    for cutoff in cutoffs:
        n = {v: int(rng.integers(-3, 4)) for v in g.vertices[:-1]}
        q = {lid: float(rng.uniform(0.3, 3.0)) for lid in g.line_ids}
        res = oracles.brute_force_sum(g, n, q, cutoff)
        ref = whole_box_sum(g, n, q, cutoff)
        assert res.value == pytest.approx(ref.value, rel=1e-14, abs=0)
        assert res.half_value == pytest.approx(ref.half_value, rel=1e-14, abs=0)
        assert oracles.brute_force_sum(g, n, q, cutoff) == res


def test_brute_force_is_pinned(g4):
    # the slab sums, each a product taken in line-id order, are added by
    # math.fsum, so value and half value repeat bit for bit
    res = oracles.brute_force_sum(g4, {"a": 1, "b": -2, "c": 1},
                                  {1: 0.7, 2: 1.1, 3: 1.6, 4: 0.9, 5: 2.3}, 1000)
    assert (repr(res.value), repr(res.half_value)) == ("0.1888753804060822",
                                                       "0.18887538040605092")


def test_brute_force_memory_is_one_slab(g4):
    n, q = {"a": 1, "b": -2, "c": 1}, {1: 0.7, 2: 1.1, 3: 1.6, 4: 0.9, 5: 2.3}
    tracemalloc.start()
    try:
        oracles.brute_force_sum(g4, n, q, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole (2*1000+1)^2 box at once would take about 275 MB
    assert peak < 8_000_000


def test_constrained_box_sum_vanishes_without_balance(g2):
    # constraints are unsatisfiable when the vertex integers do not sum to 0
    q = {1: 1.0, 2: 1.0}
    assert constrained_box_sum(g2, {"a": 3, "b": 0}, q, 6) == 0.0
    assert constrained_box_sum(g2, {"a": 1, "b": 2}, q, 6) == 0.0


def test_constrained_box_sum_matches_solved_iteration(g2, g3):
    # independent cross-check of the constraint solver: iterate all variables
    # on a small box with explicit delta checks, against the solved iteration
    # restricted to the same box
    import itertools

    for g in (g2, g3):
        q = {lid: 0.5 + 0.4 * lid for lid in g.line_ids}
        n = {"a": 1}
        full_n = {"a": 1, "b": -1}
        box = 4
        boxed = constrained_box_sum(g, full_n, q, box)
        sol = engine.solve_tree(g, gr.enumerate_spanning_trees(g)[0])
        free = sorted(set(g.line_ids) - set(sol.tree))
        total = 0.0
        for values in itertools.product(range(-box, box + 1), repeat=len(free)):
            by_line = dict(zip(free, values))
            for j in sol.tree:
                om = sol.omega[j]
                by_line[j] = sum(a * n[v] for v, a in om.n_part) + sum(
                    b * by_line[l] for l, b in om.line_part
                )
            if any(abs(by_line[j]) > box for j in sol.tree):
                continue
            total += math.prod(
                1.0 / (by_line[lid] ** 2 + q[lid] ** 2) for lid in g.line_ids
            )
        assert boxed == pytest.approx(total, rel=1e-13)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_quadrature_g2(g2):
    res = oracles.quadrature_integral(g2, {"a": 1}, {1: 1.0, 2: 1.0}, 1e-12)
    assert res.value == pytest.approx(2 * math.pi / 5, abs=1e-10)


def test_quadrature_g3(g3):
    res = oracles.quadrature_integral(g3, {"a": 0}, {1: 1.0, 2: 1.0, 3: 1.0}, 1e-9)
    assert res.value == pytest.approx(math.pi**2 / 3, rel=1e-8)


def test_quadrature_matches_symbolic_g4(g4):
    q = {1: 0.7, 2: 1.1, 3: 1.6, 4: 0.9, 5: 2.3}
    n = {"a": 1, "b": -2, "c": 1}
    sym = ex.eval_numeric(engine.matsubara_integral(g4), q, n)
    res = oracles.quadrature_integral(g4, n, q, 1e-8)
    assert sym.real == pytest.approx(res.value, rel=1e-6)


def _rank2_graph(seed):
    """The first draw of random_graph(default_rng(seed), 4, 6) with at least
    three vertices and cycle rank 2."""
    rng = np.random.default_rng(seed)
    while True:
        g = fixtures.random_graph(rng, 4, 6)
        if g.num_vertices >= 3 and gr.cycle_rank(g) == 2:
            return g


@pytest.mark.parametrize("make_graph, n, q, tolerance, pinned", [
    pytest.param(fixtures.g2, {"a": 1}, {1: 0.7, 2: 1.1}, 1e-10,
                 (1.7320714213616846, 4.524672235175254e-11), id="g2"),
    pytest.param(fixtures.g3, {"a": 2}, {1: 0.7, 2: 1.1, 3: 1.6}, 1e-8,
                 (1.7504848723262192, 1.2433060813933595e-10), id="g3"),
    pytest.param(fixtures.g4, {"a": 1, "b": -2, "c": 1},
                 {1: 0.7, 2: 1.1, 3: 1.6, 4: 0.9, 5: 2.3}, 1e-8,
                 (0.18328357180744126, 2.057148197602977e-09), id="g4"),
    pytest.param(lambda: _rank2_graph(1), {"a": -1, "b": 0}, {1: 0.8, 2: 1.1, 3: 1.4, 4: 1.7},
                 1e-8, (0.6106562256743123, 5.531510694421799e-10), id="rank2_seed1"),
    pytest.param(lambda: _rank2_graph(2), {"a": -1, "b": 0}, {1: 0.8, 2: 1.1, 3: 1.4, 4: 1.7},
                 1e-8, (0.5622839877599121, 1.6962190271522808e-12), id="rank2_seed2"),
    pytest.param(_bridge_graph, {"a": 1, "b": 0, "c": -1},
                 {1: 0.7, 2: 1.1, 3: 1.6, 4: 0.9, 5: 2.3}, 1e-8,
                 (0.23075193257251128, 9.742132024703754e-09), id="bridge"),
])
def test_quadrature_is_pinned(make_graph, n, q, tolerance, pinned):
    # every integrate.quad call of the nested passes is fixed (bounds,
    # tolerances, limit), so value and error estimate repeat bit for bit
    res = oracles.quadrature_integral(make_graph(), n, q, tolerance)
    assert (repr(res.value), repr(res.error_estimate)) == tuple(map(repr, pinned))


def _random_draw(seed, index):
    """The index-th rank <= 2 draw of random_graph(default_rng(seed), 4, 6),
    with a point drawn from the same generator after each graph."""
    rng = np.random.default_rng(seed)
    while True:
        g = fixtures.random_graph(rng, 4, 6)
        if gr.cycle_rank(g) > 2:
            continue
        q = {lid: float(rng.uniform(0.3, 3.0)) for lid in g.line_ids}
        n = {v: int(rng.integers(-3, 4)) for v in g.vertices[:-1]}
        if index == 0:
            return g, n, q
        index -= 1


_G4_POINT = ({"a": 1, "b": -2, "c": 1}, {1: 0.7, 2: 1.1, 3: 1.6, 4: 0.9, 5: 2.3})
_RANK2_POINT = ({"a": -1, "b": 0}, {1: 0.8, 2: 1.1, 3: 1.4, 4: 1.7})


@pytest.mark.parametrize("case, tolerance, warns", [
    pytest.param(lambda: (fixtures.g2(), {"a": 1}, {1: 0.7, 2: 1.1}), 1e-10, False, id="g2"),
    pytest.param(lambda: (fixtures.g3(), {"a": 2}, {1: 0.7, 2: 1.1, 3: 1.6}), 1e-8, False,
                 id="g3"),
    pytest.param(lambda: (fixtures.g4(), *_G4_POINT), 1e-8, False, id="g4"),
    pytest.param(lambda: (_bridge_graph(), {"a": 1, "b": 0, "c": -1}, _G4_POINT[1]), 1e-8,
                 False, id="bridge"),
    pytest.param(lambda: (_rank2_graph(1), *_RANK2_POINT), 1e-8, False,
                 id="rank2_seed1"),
    pytest.param(lambda: (_rank2_graph(2), *_RANK2_POINT), 1e-8, False,
                 id="rank2_seed2"),
    *[pytest.param(lambda k=k: _random_draw(0, k), 1e-8, False,
                   id=f"draw0_{k}") for k in range(4)],
    # 107 IntegrationWarnings: the adaptive passes give up on some inner axes
    pytest.param(lambda: _random_draw(5, 2), 1e-13, True, id="draw5_2"),
])
def test_quadrature_matches_the_reference_integrand_bit_for_bit(case, tolerance, warns):
    # the integrand planned per outer point takes every quad call down the
    # same path as the generic integrand: same floats, same SciPy warnings
    g, n, q = case()
    results, messages = [], []
    for quadrature in (reference_quadrature_integral, oracles.quadrature_integral):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = quadrature(g, n, q, tolerance)
        results.append((repr(res.value), repr(res.error_estimate)))
        messages.append([(w.category, str(w.message)) for w in caught])
    assert results[0] == results[1]
    assert messages[0] == messages[1]
    assert bool(messages[0]) == warns


def test_quadrature_rank_too_high():
    g = gr.make_graph(["a", "b"],
                      [(1, "b", "a"), (2, "b", "a"), (3, "b", "a"), (4, "b", "a")])
    with pytest.raises(oracles.RankTooHigh):
        oracles.quadrature_integral(g, {"a": 0}, {i: 1.0 for i in range(1, 5)})
    with pytest.raises(oracles.RankTooHigh):
        oracles.verify_integral(g, 1, 1e-6)


# ---------------------------------------------------------------------------
# verification protocol
# ---------------------------------------------------------------------------

def test_verify_sum_g2():
    reports = oracles.verify_sum(fixtures.g2(), 20, 10_000, 1e-6, seed=3)
    assert len(reports) == 20
    assert all(r.passed for r in reports)


def test_random_point_redraws_degenerate_points_and_gives_up_after_100(g2, monkeypatch):
    # G2's sum has the form i*N_a - q1 + q2, which vanishes at q1 = q2, N_a = 0
    s = engine.matsubara_sum(g2)
    degenerate, regular = ({1: 1.0, 2: 1.0}, {"a": 0}), ({1: 1.0, 2: 2.0}, {"a": 0})
    draws = iter([degenerate, regular])
    monkeypatch.setattr(oracles, "_draw", lambda graph, rng: next(draws))
    q, n, value = oracles._random_point(g2, s, np.random.default_rng(0))
    assert (q, n) == regular and value == ex.eval_numeric(s, q, n)
    count = []
    monkeypatch.setattr(oracles, "_draw", lambda graph, rng: count.append(1) or degenerate)
    with pytest.raises(RuntimeError):
        oracles._random_point(g2, s, np.random.default_rng(0))
    assert len(count) == 100


def test_verify_integral_g2():
    reports = oracles.verify_integral(fixtures.g2(), 20, 1e-9, seed=3)
    assert all(r.passed for r in reports)


def test_verify_report_json_shape():
    report = oracles.verify_sum(fixtures.g2(), 1, 200, 1e-4, seed=1)[0]
    data = json.loads(report.to_json())
    assert set(data) == {"q", "n", "symbolic", "oracle", "abs_error",
                         "rel_error", "convergence", "tolerance", "pass"}
    assert data["pass"] is True


def test_verify_pass_rule():
    r = oracles._make_report(1.0, 1.0 + 5e-7, 0.0, 1e-6, {}, {})
    assert r.passed
    r = oracles._make_report(1.0, 1.1, 0.0, 1e-6, {}, {})
    assert not r.passed
    # small oracle values switch to the absolute-error criterion
    r = oracles._make_report(1e-9, 5e-8, 0.0, 1e-6, {}, {})
    assert r.passed


def test_verify_sum_label_equivariance(g3):
    # relabeling the lines must not change the pass/fail pattern
    relabeled = gr.make_graph(["a", "b"], [(3, "b", "a"), (1, "b", "a"), (2, "b", "a")])
    base = oracles.verify_sum(g3, 6, 300, 1e-3, seed=9)
    perm = oracles.verify_sum(relabeled, 6, 300, 1e-3, seed=9)
    assert [r.passed for r in base] == [r.passed for r in perm]


# ---------------------------------------------------------------------------
# tree-decomposition identity
# ---------------------------------------------------------------------------

def test_gaudin_identity_g3(g3):
    residual = oracles.check_gaudin_identity(
        g3, {1: 1.0, 2: 2.0, 3: 3.0}, {1: 1, 2: 1, 3: -2}, claimed_n={"a": 0}
    )
    assert residual < 1e-13


def test_gaudin_identity_g2(g2):
    residual = oracles.check_gaudin_identity(
        g2, {1: 1.0, 2: 1.0}, {1: 2, 2: -2}, claimed_n={"a": 0}
    )
    assert residual < 1e-13


def test_gaudin_identity_constraint_violated(g3):
    with pytest.raises(oracles.ConstraintViolated):
        oracles.check_gaudin_identity(
            g3, {1: 1.0, 2: 2.0, 3: 3.0}, {1: 1, 2: 1, 3: 1}, claimed_n={"a": 0}
        )


def test_gaudin_identity_random_tuples(g4):
    rng = np.random.default_rng(77)
    sol = engine.solve_tree(g4, gr.enumerate_spanning_trees(g4)[0])
    free = sorted(set(g4.line_ids) - set(sol.tree))
    for _ in range(10):
        q = {lid: float(rng.uniform(0.3, 3.0)) for lid in g4.line_ids}
        n = {v: int(rng.integers(-3, 4)) for v in g4.vertices[:-1]}
        tup = {l: int(rng.integers(-5, 6)) for l in free}
        for j in sol.tree:
            om = sol.omega[j]
            tup[j] = sum(a * n[v] for v, a in om.n_part) + sum(
                b * tup[l] for l, b in om.line_part
            )
        assert oracles.check_gaudin_identity(g4, q, tup, claimed_n=n) < 1e-12
