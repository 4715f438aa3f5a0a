"""Hypothesis properties of the pipeline over seeded random graphs."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from matsum import engine, fixtures
from matsum import expressions as ex
from matsum import graph as gr


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_routes_agree_and_sum_round_trips_through_json(seed):
    g = fixtures.random_graph(np.random.default_rng(seed), 4, 6)
    integral = engine.matsubara_integral(g)
    reduced = engine.apply_operator(engine.operator_reduced(g), integral)
    assert engine.apply_operator(engine.operator_full(g), integral) == reduced
    assert engine.matsubara_sum(g, "direct") == reduced
    assert ex.parse_expression(ex.render(reduced, "json")) == reduced


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_normal_form_is_hierarchy_independent_and_idempotent(seed):
    rng = np.random.default_rng(seed)
    g = fixtures.random_graph(rng, 4, 6)
    hierarchy = [int(x) for x in rng.permutation(sorted(g.line_ids))]
    integral = engine.matsubara_integral(g)
    total = engine.matsubara_sum(g)
    assert engine.matsubara_integral(g, hierarchy=hierarchy) == integral
    assert engine.matsubara_sum(g, hierarchy=hierarchy) == total
    assert engine.matsubara_sum(g, "direct", hierarchy=hierarchy) == total
    assert engine.normal_form(g, integral) == integral
    assert engine.normal_form(g, total) == total


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_sum_is_real_and_equivariant_under_line_relabelling(seed):
    rng = np.random.default_rng(seed)
    g = fixtures.random_graph(rng, 4, 6)
    relabel = dict(zip(g.line_ids, (int(x) + 1 for x in rng.permutation(g.num_lines))))
    h = gr.make_graph(g.vertices, [(relabel[ln.id], ln.tail, ln.head) for ln in g.lines])
    q = {lid: float(rng.uniform(0.3, 3.0)) for lid in g.line_ids}
    n = {v: int(rng.integers(-3, 4)) for v in g.vertices[:-1]}
    value = ex.eval_numeric(engine.matsubara_sum(g), q, n)
    relabelled = ex.eval_numeric(engine.matsubara_sum(h),
                                 {relabel[lid]: x for lid, x in q.items()}, n)
    assert abs(relabelled - value) <= 1e-9 * abs(value)
    assert abs(value.imag) <= 1e-9 * (abs(value.real) + 1)
