"""Canonical expression algebra: reflection, kernels, evaluation, rendering."""

from __future__ import annotations

import copy
import json
import math
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import reference
from matsum import engine, fixtures
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
        assert pickle.loads(pickle.dumps(e)) == e and copy.deepcopy(e) == e


def test_render_deterministic():
    e = reference_sum_g2()
    assert ex.render(e, "text") == ex.render(e, "text")
    assert ex.render(e, "json") == ex.render(e, "json")


def test_json_rejects_a_form_that_is_not_sign_normalized():
    data = json.loads(ex.render(reference_integral_g2(), "json"))
    data["forms"][1] = {"n": {"a": -1}, "q": {"1": 1, "2": 1}}
    with pytest.raises(ex.ExpressionError, match="sign-normalized"):
        ex.from_dict(data)


def test_json_of_the_per_term_schema_is_rejected():
    # documents written one object per term, before expressions were
    # written as their tables, have only the key "terms"
    old = reference.render(reference_sum_g2(), "json")
    with pytest.raises(ex.ExpressionError, match="exactly the keys 'forms', 'heads', "
                       "'kernels', 'products', 'coeffs', 'terms'"):
        ex.parse_expression(old)


def test_json_nested_too_deeply_raises_expression_error():
    with pytest.raises(ex.ExpressionError):
        ex.parse_expression("[" * 200_000)


def test_readme_expression_json_example():
    # the documented example is the G2 sum's JSON, wrapped after commas,
    # and the text form shown beside it
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## File formats"):]
    shown_text, shown_json = re.search(r"```text\n(.*?)\n```.*?```json\n(.*?)```",
                                       section, re.DOTALL).groups()
    expected = engine.matsubara_sum(fixtures.g2())
    assert ex.parse_expression(shown_json) == expected
    assert " ".join(shown_json.split()) == ex.render(expected, "json")
    assert shown_text == ex.render(expected, "text")


def _set(path, value):
    """A change to a parsed JSON expression: set the item at `path`."""
    def change(data):
        *head, last = path
        target = data
        for key in head:
            target = target[key]
        target[last] = value
    return change


def _drop(path):
    def change(data):
        *head, last = path
        target = data
        for key in head:
            target = target[key]
        del target[last]
    return change


@pytest.mark.parametrize("change", [
    # numbers that are not integers are rejected, not truncated
    pytest.param(_set(("heads", 0, "q_exp", "1"), -1.5), id="q_exp_float"),
    pytest.param(_set(("heads", 0, "two_pi_pow"), 1.7), id="two_pi_pow_float"),
    pytest.param(_set(("heads", 0, "two_pi_pow"), 1.0), id="two_pi_pow_whole_float"),
    pytest.param(_set(("forms", 0, "n", "a"), 1.9), id="n_float"),
    pytest.param(_set(("forms", 0, "q", "1"), True), id="q_bool"),
    # kernels are an array of integers
    pytest.param(_set(("kernels", 1), "12"), id="kernels_string"),
    pytest.param(_set(("kernels", 1), [True]), id="kernels_bool"),
    pytest.param(_set(("kernels", 1), [1.0]), id="kernels_float"),
    pytest.param(_set(("kernels", 1), [1, 1]), id="kernels_repeated"),
    # missing keys, extra keys and values of the wrong type
    pytest.param(_drop(("coeffs",)), id="no_coeff"),
    pytest.param(_drop(("forms", 0, "q")), id="form_without_q"),
    pytest.param(_drop(("terms",)), id="no_terms"),
    pytest.param(_set(("heads", 0, "extra"), 1), id="term_extra_key"),
    pytest.param(_set(("forms", 0, "extra"), {}), id="form_extra_key"),
    pytest.param(_set(("terms",), {}), id="terms_object"),
    pytest.param(_set(("terms", 0), []), id="term_array"),
    pytest.param(_set(("coeffs", 0), 0.25), id="coeff_number"),
    pytest.param(_set(("coeffs", 0), "1/0"), id="coeff_zero_denominator"),
    pytest.param(_set(("coeffs", 0), "one"), id="coeff_word"),
    pytest.param(_set(("heads", 0, "q_exp"), [[1, -1]]), id="q_exp_array"),
    pytest.param(_set(("heads", 0, "q_exp", "01"), -1), id="q_exp_padded_line_id"),
    pytest.param(_set(("products", 0), {"n": {}, "q": {}}), id="denoms_object"),
    pytest.param(_set(("forms", 0, "n"), [["a", 1]]), id="n_array"),
    pytest.param(_set(("forms", 0, "q", "x"), 1), id="q_not_a_line_id"),
    pytest.param(_set(("forms", 0, "q", "1"), [1]), id="q_array_value"),
    pytest.param(_set(("forms", 0), {"n": {}, "q": {}}), id="zero_form"),
    # tables and indices
    pytest.param(_set(("extra",), []), id="document_extra_key"),
    pytest.param(_drop(("heads", 0, "q_exp")), id="head_without_q_exp"),
    pytest.param(_set(("forms",), {}), id="forms_object"),
    pytest.param(_set(("terms", 0, 0), 1), id="head_index_out_of_range"),
    pytest.param(_set(("terms", 0, 3), 2), id="coeff_index_out_of_range"),
    pytest.param(_set(("terms", 0, 1), -1), id="kernels_index_negative"),
    pytest.param(_set(("terms", 0, 2), True), id="product_index_bool"),
    pytest.param(_set(("terms", 0, 2), 1.0), id="product_index_float"),
    pytest.param(_set(("terms", 0, 0), 2**70), id="head_index_huge"),
    pytest.param(_set(("terms", 0), [0, 0, 0]), id="term_row_too_short"),
    pytest.param(_set(("terms", 0), [0, 0, 0, 0, 0]), id="term_row_too_long"),
    pytest.param(_set(("terms", 0), "0000"), id="term_row_string"),
    pytest.param(_set(("products", 0), [4]), id="product_names_a_missing_form"),
    pytest.param(_set(("products", 0), [-1]), id="product_form_index_negative"),
    pytest.param(_set(("products", 0), [True]), id="product_form_index_bool"),
])
def test_json_outside_the_schema_raises_expression_error(change):
    # each change breaks one value of a valid document
    data = json.loads(ex.render(reference_sum_g2(), "json"))
    change(data)
    with pytest.raises(ex.ExpressionError):
        ex.from_dict(data)
    with pytest.raises(ex.ExpressionError):
        ex.parse_expression(json.dumps(data))


@pytest.mark.parametrize("change, error, message", [
    (_set(("kernels", 1), [1, 1]), ex.DuplicateKernel,
     "kernels[1]: term already carries the kernel of line 1"),
    (_set(("forms", 0), {"n": {}, "q": {}}), ex.ExpressionError,
     "forms[0]: denominator form is identically zero"),
    (_set(("forms", 0, "q", "1"), 2), ex.ExpressionError,
     "forms[0]: q coefficient 2 outside {-1,0,+1}"),
    (_set(("forms", 0), {"n": {"a": -1}, "q": {"1": 1, "2": 1}}), ex.ExpressionError,
     "forms[0]: denominator is not sign-normalized"),
])
def test_json_errors_name_their_table_entry(change, error, message):
    data = json.loads(ex.render(reference_sum_g2(), "json"))
    change(data)
    with pytest.raises(error) as info:
        ex.from_dict(data)
    assert str(info.value) == message
