"""Canonical expression algebra: reflection, kernels, evaluation, rendering."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest

from matsum import expressions as ex

from conftest import form, reference_integral_g2, reference_sum_g2
from reference import kernel_multiply, reflect


def basic_term(coeff, kernels=(), n=(("a", 1),), q=((1, 1), (2, 1))):
    f, sign = form(list(n), list(q))
    return ex.make_term(Fraction(coeff) * sign, 1, {1: -1, 2: -1}, kernels, [f])


def basic_expr(coeff=Fraction(1, 4), kernels=()):
    return ex.Expression.from_terms([basic_term(coeff, kernels)])


def test_reflect_worked_action():
    # (2pi/(2q1 2q2)) / (iN - q1 - q2), reflected in line 1,
    # becomes -(2pi/(2q1 2q2)) / (iN + q1 - q2)
    e = ex.Expression.from_terms([basic_term(Fraction(1, 4), q=((1, -1), (2, -1)))])
    out = reflect(e, 1)
    expected = ex.Expression.from_terms(
        [basic_term(-Fraction(1, 4), q=((1, 1), (2, -1)))]
    )
    assert out == expected


def test_reflect_is_involution():
    e = basic_expr()
    assert reflect(reflect(e, 1), 1) == e


def test_reflect_independent_line_only_flips_monomial_sign():
    # no denominator contains line 2's partner; only (-1)^exponent acts
    f, sign = form([("a", 1)], [(1, 1)])
    t = ex.make_term(Fraction(1, 2) * sign, 0, {1: -1}, (), [f])
    e = ex.Expression.from_terms([t])
    out = reflect(e, 7)  # line 7 appears nowhere
    assert out == e


def test_reflections_commute():
    e = basic_expr()
    a = reflect(reflect(e, 1), 2)
    b = reflect(reflect(e, 2), 1)
    assert a == b


def test_reflect_kernel_line_raises():
    e = basic_expr(kernels=(1,))
    with pytest.raises(ex.KernelReflection):
        reflect(e, 1)


def test_kernel_multiply():
    e = basic_expr()
    k1 = kernel_multiply(e, 1)
    assert all(t.kernels == (1,) for t in k1.terms)
    k12 = kernel_multiply(k1, 2)
    k21 = kernel_multiply(kernel_multiply(e, 2), 1)
    assert k12 == k21
    with pytest.raises(ex.DuplicateKernel):
        kernel_multiply(k1, 1)


def test_add_scale_trivials():
    e = basic_expr()
    assert ex.add(ex.EMPTY, e) == e
    doubled = ex.add(e, e)
    assert len(doubled) == len(e)
    assert doubled.terms[0].coeff == 2 * e.terms[0].coeff


def test_canonicalization_is_order_insensitive():
    terms = [basic_term(Fraction(1, 4)), basic_term(Fraction(1, 3), kernels=(1,)),
             basic_term(Fraction(-1, 4), q=((1, -1), (2, 1)))]
    rng = random.Random(5)
    base = ex.Expression.from_terms(terms)
    for _ in range(10):
        shuffled = terms[:]
        rng.shuffle(shuffled)
        assert ex.Expression.from_terms(shuffled) == base
    # idempotence
    assert ex.Expression.from_terms(base.terms) == base


def test_denominator_normalization_makes_leading_coefficient_positive():
    f, sign = form([("a", -1)], [(1, 1), (2, 1)])
    assert sign == -1
    assert f.n == (("a", 1),)
    assert f.q == ((1, -1), (2, -1))
    with pytest.raises(ex.ExpressionError):
        form([], [])
    with pytest.raises(ex.ExpressionError):
        form([("a", 1)], [(1, 2)])


def test_eval_reference_integral():
    e = reference_integral_g2()
    v = ex.eval_numeric(e, {1: 1.0, 2: 1.0}, {"a": 1})
    assert v == pytest.approx(2 * math.pi / 5, rel=1e-14)
    assert abs(v.imag) < 1e-16


def test_eval_empty_is_zero():
    assert ex.eval_numeric(ex.EMPTY, {}, {}) == 0


def test_eval_zero_denominator():
    e = reference_sum_g2()
    with pytest.raises(ex.ZeroDenominator):
        ex.eval_numeric(e, {1: 1.0, 2: 1.0}, {"a": 0})


def test_eval_near_degenerate_limit():
    # at N=0, q1=q2=1 two denominators vanish; the limiting value
    # (pi/2)(coth pi + pi/sinh^2 pi) is approached from nearby points
    target = (math.pi / 2) * (
        math.cosh(math.pi) / math.sinh(math.pi) + math.pi / math.sinh(math.pi) ** 2
    )
    e = reference_sum_g2()
    v = ex.eval_numeric(e, {1: 1.0, 2: 1.0 + 1e-7}, {"a": 0})
    assert v.real == pytest.approx(target, rel=1e-6)


def test_eval_is_linear():
    e1 = basic_expr(Fraction(1, 4))
    e2 = basic_expr(Fraction(1, 3), kernels=(1,))
    q, n = {1: 0.7, 2: 1.3}, {"a": 2}
    lhs = ex.eval_numeric(ex.add(e1, e2), q, n)
    rhs = ex.eval_numeric(e1, q, n) + ex.eval_numeric(e2, q, n)
    assert lhs == pytest.approx(rhs, rel=1e-14)
    assert ex.eval_numeric(basic_expr(Fraction(3, 8)), q, n) == pytest.approx(
        1.5 * ex.eval_numeric(e1, q, n), rel=1e-14
    )


def test_render_text_reference_integral():
    text = ex.render(reference_integral_g2(), "text")
    assert text == ("(2π/(2q1·2q2))[-(1)/(i*N_a - q1 - q2)"
                    " + (1)/(i*N_a + q1 + q2)]")


def test_render_empty():
    assert ex.render(ex.EMPTY, "text") == "0"
    assert ex.render(ex.EMPTY, "latex") == "0"


def test_render_latex_contains_forms():
    tex = ex.render(reference_sum_g2(), "latex")
    assert "n_B(q_{1})" in tex
    assert "i N_{a} + q_{1} + q_{2}" in tex
    assert "\\frac" in tex


def test_json_roundtrip():
    for e in (reference_integral_g2(), reference_sum_g2(), ex.EMPTY):
        again = ex.parse_expression(ex.render(e, "json"))
        assert again == e


def test_render_deterministic():
    e = reference_sum_g2()
    assert ex.render(e, "text") == ex.render(e, "text")
    assert ex.render(e, "json") == ex.render(e, "json")


def test_json_rejects_a_form_that_is_not_sign_normalized():
    data = json.loads(ex.render(reference_integral_g2(), "json"))
    data["terms"][1]["denoms"][0] = {"n": {"a": -1}, "q": {"1": 1, "2": 1}}
    with pytest.raises(ex.ExpressionError):
        ex.from_dict(data)
    # a form repeated across terms parses to the same form each time
    data = json.loads(ex.render(reference_sum_g2(), "json"))
    forms = [t.denominators for t in ex.from_dict(data).terms]
    assert forms == [t.denominators for t in reference_sum_g2().terms]
