"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 4 and 10 ask for
more than key-merge canonicalization of the spanning-tree basis can give;
the pipeline meets them by returning the no-broken-circuit normal form over
the graph's cut arrangement (see the test bodies). Their assertions, and the
messages they fail with, are kept as first stated.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest

from matsum import engine, oracles
from matsum import expressions as ex
from matsum import graph as gr

from conftest import (
    corpus,
    reference_integral_g2,
    reference_integral_g4,
    reference_integral_g4_value,
    reference_sum_g2,
)

SEED = 20260810


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_g2_integral(g2):
    t0 = time.perf_counter()
    e = engine.matsubara_integral(g2)
    form_ok = e == reference_integral_g2()
    reports = oracles.verify_integral(g2, 20, 1e-9, seed=SEED)
    numeric_ok = all(r.passed for r in reports)
    elapsed = time.perf_counter() - t0
    ok = form_ok and numeric_ok and elapsed < 1.0
    _report(1, ok, f"G2 integral: two-term closed form {'==' if form_ok else '!='} "
                   f"reference; {sum(r.passed for r in reports)}/20 quadrature "
                   f"trials within 1e-9; {elapsed:.2f}s (< 1s)")
    assert form_ok and numeric_ok
    assert elapsed < 1.0


def test_criterion_2_g2_sum(g2):
    t0 = time.perf_counter()
    s = engine.apply_operator(engine.operator_reduced(g2),
                              engine.matsubara_integral(g2))
    form_ok = s == reference_sum_g2()
    reports = oracles.verify_sum(g2, 20, 10_000, 1e-6, seed=SEED)
    numeric_ok = all(r.passed for r in reports)
    elapsed = time.perf_counter() - t0
    ok = form_ok and numeric_ok and elapsed < 5.0
    _report(2, ok, f"G2 sum: four-group closed form {'==' if form_ok else '!='} "
                   f"reference; {sum(r.passed for r in reports)}/20 brute-force "
                   f"trials (M=10^4) within 1e-6; {elapsed:.2f}s (< 5s)")
    assert form_ok and numeric_ok
    assert elapsed < 5.0


def test_criterion_3_tree_and_operator_counts(g2, g3, g4):
    tree_counts = tuple(len(gr.enumerate_spanning_trees(g)) for g in (g2, g3, g4))
    op_counts = tuple(len(engine.operator_reduced(g)) for g in (g2, g3, g4))
    pairs4 = {s for s in engine.operator_reduced(g4).subsets if len(s) == 2}
    pairs_ok = (1, 2) not in pairs4 and (3, 4) not in pairs4
    ok = tree_counts == (2, 3, 8) and op_counts == (3, 7, 14) and pairs_ok
    _report(3, ok, f"trees {tree_counts} == (2, 3, 8); reduced operators "
                   f"{op_counts} == (3, 7, 14); G4 pairs {{1,2}},{{3,4}} absent: "
                   f"{pairs_ok}")
    assert tree_counts == (2, 3, 8)
    assert op_counts == (3, 7, 14)
    assert pairs_ok


def test_criterion_4_g4_integral(g4):
    e = engine.matsubara_integral(g4)
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(10):
        q = {i: float(rng.uniform(0.3, 3.0)) for i in range(1, 6)}
        n = {v: int(rng.integers(-3, 4)) for v in "abc"}
        mine = ex.eval_numeric(e, q, n).real
        ref = reference_integral_g4_value(q, n).real
        worst = max(worst, abs(mine - ref) / abs(ref))
    numeric_ok = worst <= 1e-10
    count_ok = len(e) == 20
    _report(4, numeric_ok and count_ok,
            f"G4 integral: 10/10 seeded points within 1e-10 of the 20-term "
            f"reference (worst {worst:.1e}); canonical term count {len(e)} "
            f"{'==' if count_ok else '!='} 20")
    assert numeric_ok
    # The spanning-tree decomposition produces 64 distinct denominator
    # products for this graph, and no regulator sign assignment allows even
    # one cross-tree cancellation, so key-merge canonicalization alone cannot
    # reach the 20-term direct-integration basis. The normal form does: with
    # the same-sign forms first in the cut arrangement's order, the 64 tree
    # terms and the 20 reference terms rewrite to the same 20 terms.
    assert count_ok, (
        f"canonical tree-decomposition form has {len(e)} terms; the 20-term "
        f"direct-integration reference is a different basis of the same "
        f"function and is unreachable by key-merge canonicalization"
    )


def test_criterion_5_g3_g4_sum_verification(g3, g4):
    t0 = time.perf_counter()
    r3 = oracles.verify_sum(g3, 10, 500, 1e-3, seed=SEED)
    r4 = oracles.verify_sum(g4, 5, 200, 1e-3, seed=SEED)
    elapsed = time.perf_counter() - t0
    ok3, ok4 = all(r.passed for r in r3), all(r.passed for r in r4)
    ok = ok3 and ok4 and elapsed < 120.0
    _report(5, ok, f"G3 {sum(r.passed for r in r3)}/10 (M=500) and G4 "
                   f"{sum(r.passed for r in r4)}/5 (M=200) brute-force trials "
                   f"within 1e-3; {elapsed:.1f}s (< 120s)")
    assert ok3 and ok4
    assert elapsed < 120.0


def test_criterion_6_theorem_path_equivalence():
    graphs = corpus()
    for g in graphs:
        integral = engine.matsubara_integral(g)
        s_op = engine.apply_operator(engine.operator_reduced(g), integral)
        s_dir = engine.matsubara_sum(g, "direct")
        s_full = engine.apply_operator(engine.operator_full(g), integral)
        assert s_op == s_dir, f"operator != direct on {g}"
        assert s_full == s_op, f"full != reduced on {g}"
    _report(6, True, f"operator == direct and full == reduced on "
                     f"{len(graphs)} graphs (3 reference + 50 seeded random)")


def test_criterion_7_cutset_annihilation(g2, g3, g4):
    checked = 0
    for g in (g2, g3, g4):
        integral = engine.matsubara_integral(g)
        ids = sorted(g.line_ids)
        for size in range(1, min(3, len(ids)) + 1):
            for subset in itertools.combinations(ids, size):
                if gr.is_cutset(g, subset):
                    assert engine.annihilator_check(g, subset, integral), \
                        f"cutset {subset} failed to annihilate on {g}"
                    checked += 1
    _report(7, True, f"all {checked} cutsets of size <= 3 annihilate the "
                     f"integral evaluation")
    assert checked == 14  # 1 (G2) + 1 (G3) + 12 (G4)


def test_criterion_8_gaudin_identity(g2, g3, g4):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for g in (g2, g3, g4):
        sol = engine.solve_tree(g, gr.enumerate_spanning_trees(g)[0])
        free = sorted(set(g.line_ids) - set(sol.tree))
        for _ in range(20):
            q = {lid: float(rng.uniform(0.3, 3.0)) for lid in g.line_ids}
            n = {v: int(rng.integers(-3, 4)) for v in g.vertices[:-1]}
            tup = {l: int(rng.integers(-5, 6)) for l in free}
            for j in sol.tree:
                om = sol.omega[j]
                tup[j] = sum(a * n[v] for v, a in om.n_part) + sum(
                    b * tup[l] for l, b in om.line_part
                )
            worst = max(worst, oracles.check_gaudin_identity(g, q, tup, claimed_n=n))
    ok = worst < 1e-12
    _report(8, ok, f"tree-decomposition identity residual < 1e-12 on 20 "
                   f"seeded tuples per graph (worst {worst:.1e})")
    assert ok


def test_criterion_9_kernel_identities():
    grid = [0.1, 0.25, 0.5, 1.0, 1.7, 2.7, 3.3, 5.0, 10.0]
    worst = max(abs(oracles.nbe(q) + oracles.nbe(-q) + 1.0) for q in grid)
    decomp_ok = all(
        oracles.nbe(q) == pytest.approx(
            (0.0 if q > 0 else -1.0) + math.copysign(1, q) * oracles.nbe(abs(q)),
            abs=1e-14,
        )
        for q in (0.3, -0.3, 2.7, -2.7)
    )
    ok = worst <= 1e-14 and decomp_ok
    _report(9, ok, f"kernel reflection identity (worst {worst:.1e} <= 1e-14) "
                   f"and sign decomposition at +/-0.3, +/-2.7: {decomp_ok}")
    assert worst <= 1e-14
    assert decomp_ok


def test_criterion_10_hierarchy_independence(g2, g3, g4):
    rng = np.random.default_rng(SEED)
    failures = []
    for g, name in ((g2, "G2"), (g3, "G3"), (g4, "G4")):
        base_i = engine.matsubara_integral(g)
        base_s = engine.matsubara_sum(g)
        for _ in range(5):
            h = [int(x) for x in rng.permutation(sorted(g.line_ids))]
            if engine.matsubara_integral(g, hierarchy=h) != base_i:
                failures.append((name, "integral", tuple(h)))
            if engine.matsubara_sum(g, hierarchy=h) != base_s:
                failures.append((name, "sum", tuple(h)))
    ok = not failures
    _report(10, ok, "5 random regulator hierarchies give canonically identical "
                    "closed forms" if ok else
            f"hierarchy-dependent canonical forms on: "
            f"{sorted(set(f[0] for f in failures))} (values agree, forms differ)")
    # Each hierarchy fixes one valid spanning-tree decomposition. For
    # two-vertex graphs all decompositions merge to the same terms; for G4
    # they do not (no regulator sign assignment allows any cross-tree term
    # cancellation). Closed forms are therefore returned in the normal form
    # over the graph's cut arrangement, which is unique for each function,
    # so every hierarchy gives the same form.
    assert not failures, (
        f"canonical forms differ across hierarchies for {failures[:4]}; "
        f"the closed forms agree numerically but the spanning-tree basis "
        f"is hierarchy dependent beyond two-vertex graphs"
    )
