"""Hypothesis properties of the pipeline over seeded random graphs."""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import reference
from conftest import reference_sum_g2
from matsum import engine, fixtures
from matsum import expressions as ex
from matsum import graph as gr
from reference import make_term


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


def _scrambled(doc: dict, rng: random.Random) -> dict:
    """An expression document for the same expression that is not
    canonical: every term written three times, with coefficients c, c and
    -c, and one term with coefficient 0; every table listed twice and
    shuffled, and each index pointing at either copy of its entry."""
    coeffs = doc["coeffs"]
    rows = [[h, k, p, c + i] for h, k, p, c in doc["terms"] for i in (0, 0, len(coeffs))]
    if rows:
        rows.append(rows[0][:3] + [2 * len(coeffs)])
    doc = dict(doc, coeffs=coeffs + [str(-Fraction(c)) for c in coeffs] + ["0"])
    out, moved = {}, {}
    for name in ("forms", "heads", "kernels", "products", "coeffs"):
        entries = doc[name] * 2
        order = rng.sample(range(len(entries)), len(entries))
        out[name] = [entries[i] for i in order]
        where = {old: new for new, old in enumerate(order)}
        size = len(doc[name])
        moved[name] = lambda i, where=where, size=size: where[i + size * rng.randrange(2)]
    out["products"] = [[moved["forms"](f) for f in p] for p in out["products"]]
    out["terms"] = [[moved[name](i) for name, i in zip(("heads", "kernels", "products",
                                                        "coeffs"), row)] for row in rows]
    rng.shuffle(out["terms"])
    return out


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_json_parses_any_listing_of_the_tables_to_the_canonical_expression(seed):
    g = fixtures.random_graph(np.random.default_rng(seed), 4, 6)
    for e in (engine.matsubara_integral(g), engine.matsubara_sum(g)):
        text = ex.render(e, "json")
        assert ex.render(ex.parse_expression(text), "json") == text
        doc = _scrambled(json.loads(text), random.Random(seed))
        assert ex.from_dict(doc) == e
        assert ex.render(ex.parse_expression(json.dumps(doc)), "json") == text


def _value(evaluate, e, q, n) -> str:
    """The repr of the value, or the message of its ZeroDenominator."""
    try:
        return repr(evaluate(e, q, n))
    except ex.ZeroDenominator as exc:
        return f"ZeroDenominator: {exc}"


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_packed_consumers_match_the_term_loops(seed):
    # integral, sum, and a sum of two heads (rendered term by term), against
    # the term loops of tests/reference.py read through the Term view
    rng = np.random.default_rng(seed)
    g = fixtures.random_graph(rng, 4, 6)
    total = engine.matsubara_sum(g)
    for e in (engine.matsubara_integral(g), total, ex.add(total, reference_sum_g2())):
        for fmt in ("text", "latex"):
            assert ex.render(e, fmt) == reference.render(e, fmt)
        text = ex.render(e, "json")
        assert ex.parse_expression(text) == e
        assert reference.from_dict(json.loads(text)) == e
        lines = sorted(set(g.line_ids) | {1, 2})
        for degenerate in (False, False, True):
            # a point with equal q's and zero N's makes some forms vanish
            q = {lid: float(rng.choice([1.0, 2.0])) if degenerate
                 else float(rng.uniform(0.3, 3.0)) for lid in lines}
            n = {v: 0 if degenerate else int(rng.integers(-3, 4))
                 for v in list(g.vertices[:-1]) + ["a"]}
            assert _value(ex.eval_numeric, e, q, n) == _value(reference.eval_numeric, e, q, n)


_VERTICES, _LINES = ("a", "b"), (1, 2, 3)


@st.composite
def _term_lists(draw):
    """Four to sixteen terms over vertices a, b and lines 1-3 that reach
    every branch of the render: one head whose q exponents are all -1 (at
    times over no lines), or, one time in three, a second head besides,
    which takes the term-by-term render; products of zero to two forms of a
    small pool, so that products repeat and some are empty; kernels or
    none; coefficients of either sign, often a unit once the prefactor's
    1/2^I is taken out, so that some groups have only negative rows."""
    lines = st.lists(st.sampled_from(_LINES), unique=True, max_size=3)
    heads = [(draw(st.integers(0, 2)),
              dict.fromkeys(draw(st.sampled_from([(), (1,), (2, 3), (1, 2, 3)])), -1))]
    if draw(st.integers(0, 2)) == 0:
        heads.append((draw(st.integers(0, 2)),
                      {l: draw(st.sampled_from([-2, -1, 1])) for l in draw(lines)}))
    raw = st.tuples(st.lists(st.integers(-2, 2), min_size=2, max_size=2),
                    st.lists(st.integers(-1, 1), min_size=3, max_size=3))
    pool = [ex.normalize_form(zip(_VERTICES, n), zip(_LINES, q))
            for n, q in draw(st.lists(raw.filter(lambda f: any(f[0]) or any(f[1])),
                                      min_size=1, max_size=3))]
    terms = []
    for _ in range(draw(st.integers(4, 16))):
        pi_power, q_exponents = draw(st.sampled_from(heads))
        dens = draw(st.lists(st.sampled_from(pool), max_size=2))
        coeff = Fraction(draw(st.sampled_from([1, -1, 3, -2])),
                         draw(st.sampled_from([1, 2 ** len(q_exponents)])))
        terms.append(make_term(coeff * math.prod(sign for _, sign in dens), pi_power,
                               q_exponents, draw(lines), [f for f, _ in dens]))
    return terms


@given(_term_lists())
def test_render_matches_the_term_loop_on_random_terms(terms):
    e = ex.Expression(terms)
    for fmt in ("text", "latex"):
        assert ex.render(e, fmt) == reference.render(e, fmt)


def test_a_failing_property_does_not_stop_the_run(tmp_path):
    # when a property fails, Hypothesis's pytest plugin imports libcst, which
    # warns of a deprecation; the run must report the failure and go on
    (tmp_path / "test_pair.py").write_text(
        "from hypothesis import given\n"
        "from hypothesis import strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x != x\n\n\n"
        "def test_runs_after():\n"
        "    pass\n")
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(config), "--rootdir", str(tmp_path), "test_pair.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
