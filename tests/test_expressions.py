"""Canonical expression algebra: reflection, kernels, evaluation, rendering."""

from __future__ import annotations

import copy
import functools
import json
import math
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import reference
from matsum import engine, fixtures
from matsum import expressions as ex

from conftest import form, reference_integral_g2, reference_sum_g2
from reference import kernel_multiply, make_term, reflect


def basic_term(coeff, kernels=(), n=(("a", 1),), q=((1, 1), (2, 1))):
    f, sign = form(list(n), list(q))
    return make_term(Fraction(coeff) * sign, 1, {1: -1, 2: -1}, kernels, [f])


def basic_expr(coeff=Fraction(1, 4), kernels=()):
    return ex.Expression([basic_term(coeff, kernels)])


def test_reflect_worked_action():
    # (2pi/(2q1 2q2)) / (iN - q1 - q2), reflected in line 1,
    # becomes -(2pi/(2q1 2q2)) / (iN + q1 - q2)
    e = ex.Expression([basic_term(Fraction(1, 4), q=((1, -1), (2, -1)))])
    out = reflect(e, 1)
    expected = ex.Expression(
        [basic_term(-Fraction(1, 4), q=((1, 1), (2, -1)))]
    )
    assert out == expected


def test_reflect_is_involution():
    e = basic_expr()
    assert reflect(reflect(e, 1), 1) == e


def test_reflect_independent_line_only_flips_monomial_sign():
    # no denominator contains line 2's partner; only (-1)^exponent acts
    f, sign = form([("a", 1)], [(1, 1)])
    t = make_term(Fraction(1, 2) * sign, 0, {1: -1}, (), [f])
    e = ex.Expression([t])
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
    base = ex.Expression(terms)
    for _ in range(10):
        shuffled = terms[:]
        rng.shuffle(shuffled)
        assert ex.Expression(shuffled) == base
    # idempotence
    assert ex.Expression(base.terms) == base


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


def _outcome(evaluate, e, q, n) -> str:
    """The repr of the value, or the type and message of what it raised."""
    try:
        return repr(evaluate(e, q, n))
    except (ex.ZeroDenominator, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


_FORMS = [
    {"n": {"a": 1}, "q": {"1": 1, "2": 1}},
    {"n": {}, "q": {"1": 1, "2": -1}},
    {"n": {"a": 1, "b": -1}, "q": {"3": 1}},
    {"n": {"b": 2}, "q": {"2": -1, "3": 1}},
    {"n": {}, "q": {"3": 1}},
]

# Two heads, products of 0 to 3 forms, kernels on some rows only, and runs
# of one (head, kernels) pair with several coefficients.
_RAGGED = {
    "forms": _FORMS,
    "heads": [{"two_pi_pow": 2, "q_exp": {"1": -1, "2": -1, "3": -1}},
              {"two_pi_pow": -1, "q_exp": {"1": 2, "3": -1}}],
    "kernels": [[], [1], [2, 3], [1, 2, 3]],
    "products": [[], [0], [1, 4], [0, 2, 3], [4], [2, 3], [0, 1]],
    "coeffs": ["1", "-3/2", "5/7", "2", "-1/3"],
    "terms": [[0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 3, 2], [0, 0, 5, 1],
              [0, 1, 2, 3], [0, 1, 6, 3], [0, 2, 0, 4], [0, 2, 3, 0], [0, 3, 4, 2],
              [1, 0, 3, 1], [1, 0, 6, 2], [1, 1, 1, 0], [1, 1, 2, 4], [1, 1, 5, 4],
              [1, 2, 4, 3], [1, 3, 0, 1], [1, 3, 3, 3], [1, 3, 6, 0]],
}

# Nine rows, each with its own coefficient and (head, kernels) pair: more
# (head, kernels, coefficient) triples than a flat table of them should hold.
_SPARSE = {
    "forms": _FORMS,
    "heads": [{"two_pi_pow": k, "q_exp": {"1": -1, "2": k - 1}} for k in range(3)],
    "kernels": [[], [2], [1, 3]],
    "products": [[0], [1, 2], [3, 4, 0]],
    "coeffs": [str(c) for c in (1, -2, 3, -4, 5, -6, 7, -8, 9)],
    "terms": [[i % 3, i // 3, (i + i // 3) % 3, i] for i in range(9)],
}


@pytest.mark.parametrize("doc", [_RAGGED, _SPARSE], ids=["ragged", "sparse"])
def test_eval_is_bit_for_bit_the_term_loop(doc):
    e = ex.from_dict(copy.deepcopy(doc))
    assert len(e) == len(doc["terms"]) and len(e.heads) == len(doc["heads"])
    loop = functools.partial(_outcome, reference.eval_numeric, e)
    packed = functools.partial(_outcome, ex.eval_numeric, e)
    rng = random.Random(11)
    for _ in range(10):
        # small q make the kernels large, so their rows carry the value
        q = {l: rng.uniform(0.02, 1.0) for l in (1, 2, 3)}
        n = {"a": rng.randint(-3, 3), "b": rng.randint(-3, 3)}
        assert packed(q, n) == loop(q, n)
    # q1 = q2 = q3 with N_b = 0: two forms vanish, and the same one is named
    vanished = loop({1: 1.5, 2: 1.5, 3: 1.5}, {"a": 1, "b": 0})
    assert vanished.startswith("ZeroDenominator: form ")
    assert packed({1: 1.5, 2: 1.5, 3: 1.5}, {"a": 1, "b": 0}) == vanished
    # q ** -1 overflows a float and raises in both
    subnormal = {1: 1e-320, 2: 1.0, 3: 1.0}
    assert loop(subnormal, {"a": 1, "b": 2}).startswith("OverflowError: ")
    assert packed(subnormal, {"a": 1, "b": 2}) == loop(subnormal, {"a": 1, "b": 2})


def test_eval_overflow_is_the_term_loops():
    # the first row has no kernel and no denominator, and its q power takes
    # it to inf + 0j; dividing it by anything, even 1 + 0j, would give NaN
    e = ex.from_dict({
        "forms": _FORMS,
        "heads": [{"two_pi_pow": 20, "q_exp": {"1": -1}}, {"two_pi_pow": 0, "q_exp": {"2": -1}}],
        "kernels": [[], [2]],
        "products": [[], [0], [1, 3]],
        "coeffs": ["1", "-1/2"],
        "terms": [[0, 0, 0, 0], [1, 0, 0, 1], [1, 0, 1, 0], [1, 1, 2, 1]],
    })
    n = {"a": 1, "b": 2}
    tiny = {1: 1e-300, 2: 1.3, 3: 0.7}
    value = reference.eval_numeric(e, tiny, n)
    assert value.real == math.inf and math.isfinite(value.imag)
    assert repr(ex.eval_numeric(e, tiny, n)) == repr(value)
    subnormal = {1: 1e-320, 2: 1.3, 3: 0.7}
    with pytest.raises(OverflowError) as loop:
        reference.eval_numeric(e, subnormal, n)
    with pytest.raises(OverflowError) as packed:
        ex.eval_numeric(e, subnormal, n)
    assert str(packed.value) == str(loop.value)
    # a vanished form in the first row and an overflowing q power in the
    # second raise what the first row raises, and the other way round
    tiny = {1: 1e-300, 2: 1e-300}
    for forms, raised in (([{"n": {}, "q": {"1": 1, "2": -1}}, {"n": {}, "q": {"1": 1, "2": 1}}],
                           "ZeroDenominator: form q1 - q2 vanished"),
                          ([{"n": {}, "q": {"1": 1, "2": 1}}, {"n": {}, "q": {"1": 1, "2": -1}}],
                           "OverflowError: ")):
        e = ex.from_dict({"forms": forms,
                          "heads": [{"two_pi_pow": 0, "q_exp": {}},
                                    {"two_pi_pow": 0, "q_exp": {"1": -2}}],
                          "kernels": [[]], "products": [[0], [1]], "coeffs": ["1"],
                          "terms": [[0, 0, 0, 0], [1, 0, 1, 0]]})
        loop = _outcome(reference.eval_numeric, e, tiny, {})
        assert loop.startswith(raised)
        assert _outcome(ex.eval_numeric, e, tiny, {}) == loop
    # a value that underflows to -0.0 sums to 0.0, as the loop's from 0j does
    e = ex.from_dict({"forms": [], "heads": [{"two_pi_pow": 0, "q_exp": {"1": 2}}],
                      "kernels": [[]], "products": [[]], "coeffs": ["-1"],
                      "terms": [[0, 0, 0, 0]]})
    assert repr(ex.eval_numeric(e, {1: 1e-200}, {})) == repr(
        reference.eval_numeric(e, {1: 1e-200}, {})) == "0j"


def test_stress_sum_evaluates_bit_for_bit():
    # the benchmark's stress graph: 8 lines, cycle rank 6, tens of thousands
    # of sum terms over a few hundred (kernels, coefficient) numerators
    rng = np.random.default_rng(3)
    g = fixtures.random_graph(rng, 4, 8)
    while g.num_lines != 8:
        g = fixtures.random_graph(rng, 4, 8)
    total = engine.matsubara_sum(g)
    assert len(total) > 20_000
    points = np.random.default_rng(20260810)
    for _ in range(3):
        q = {l: float(points.uniform(0.3, 3.0)) for l in sorted(g.line_ids)}
        n = {v: int(points.integers(-3, 4)) for v in g.vertices[:-1]}
        assert (_outcome(ex.eval_numeric, total, q, n)
                == _outcome(reference.eval_numeric, total, q, n))


def test_stress_sum_json_roundtrip_is_byte_identical():
    rng = np.random.default_rng(3)
    g = fixtures.random_graph(rng, 4, 8)
    while g.num_lines != 8:
        g = fixtures.random_graph(rng, 4, 8)
    total = engine.matsubara_sum(g)
    text = ex.render(total, "json")
    back = ex.parse_expression(text)
    assert ex.render(back, "json") == text
    assert np.array_equal(back.rows, total.rows) and back == total
    # written non-canonically, the document parses to the same expression
    assert ex.from_dict(_scrambled(json.loads(text), random.Random(1))) == total


def _merged(terms) -> tuple:
    """Terms summed over equal (head, kernels, denominators) in Fraction
    arithmetic, zeros dropped, in canonical order."""
    acc: dict[tuple, Fraction] = {}
    for t in terms:
        acc[t[1:]] = acc.get(t[1:], 0) + t.coeff
    return tuple(ex.Term(c, *key) for key, c in sorted(acc.items()) if c)


def _doc_terms(doc) -> list:
    """The terms of a JSON document's rows, one per row."""
    forms = [ex.normalize_form(fd["n"].items(), [(int(l), c) for l, c in fd["q"].items()])[0]
             for fd in doc["forms"]]
    return [make_term(Fraction(doc["coeffs"][c]), doc["heads"][h]["two_pi_pow"],
                      {int(l): x for l, x in doc["heads"][h]["q_exp"].items()},
                      doc["kernels"][k], [forms[f] for f in doc["products"][p]])
            for h, k, p, c in doc["terms"]]


def _term_loop(doc) -> tuple:
    """The canonical terms of a JSON document, read row by row."""
    return _merged(_doc_terms(doc))


def _assert_canonical(e, doc):
    """e is the document's expression, by the term loop and by the
    reference parser, and its tables hold only what its rows use."""
    assert e.terms == _term_loop(doc)
    assert e == reference.from_dict(doc)
    for column, table in ((ex.HEAD, e.heads), (ex.KERNELS, e.kernel_sets),
                          (ex.PRODUCT, e.products), (ex.COEFF, e.numerators)):
        assert sorted(set(e.rows[:, column].tolist())) == list(range(len(table)))
    assert sorted({f for product in e.products for f in product}) == list(range(len(e.forms)))
    assert list(e.numerators) == sorted(set(e.numerators)) and 0 not in e.numerators
    assert math.gcd(e.scale, *e.numerators) == 1


def _scrambled(doc, rng):
    """The same expression, written non-canonically: every table entry has
    a copy at the end (a kernel list reversed), each row uses either, the
    products list their forms shuffled, each row's coefficient is split
    over two rows (one part beyond int64), unused entries and zero rows are
    added, and the rows are shuffled."""
    doc = copy.deepcopy(doc)
    forms, heads, kernels = doc["forms"], doc["heads"], doc["kernels"]
    sizes = [len(forms), len(heads), len(kernels), len(doc["products"])]
    forms += copy.deepcopy(forms) + [{"n": {}, "q": {"9": 1}}]
    heads += copy.deepcopy(heads) + [{"two_pi_pow": 99, "q_exp": {}}]
    kernels += [ks[::-1] for ks in kernels] + [[9]]
    doc["products"] = [rng.sample(ids, len(ids)) for ids in (
        [f + sizes[0] * rng.randrange(2) for f in product]
        for product in doc["products"] * 2)] + [[len(forms) - 1]]
    coeffs, rows = doc["coeffs"], []
    for h, k, p, c in doc["terms"]:
        part = rng.choice([Fraction(2**70, 3), Fraction(-5, 7),
                           Fraction(rng.randint(-2**80, 2**80), rng.choice([1, 3, 2**40]))])
        for value in (part, Fraction(coeffs[c]) - part):
            coeffs.append(str(value))
            rows.append([h + sizes[1] * rng.randrange(2), k + sizes[2] * rng.randrange(2),
                         p + sizes[3] * rng.randrange(2), len(coeffs) - 1])
    coeffs += ["0", "-7/3"]
    rows += [[len(heads) - 1, len(kernels) - 1, len(doc["products"]) - 1, len(coeffs) - 2]]
    rng.shuffle(rows)
    doc["terms"] = rows
    return doc


def _negated(doc):
    """A copy of the document with every coefficient negated."""
    doc = copy.deepcopy(doc)
    doc["coeffs"] = [str(-Fraction(c)) for c in doc["coeffs"]]
    return doc


def _concatenated(doc, other):
    """One document with the terms of both."""
    out = copy.deepcopy(doc)
    shift = [len(doc[name]) for name in ("heads", "kernels", "products", "coeffs")]
    for name in ("forms", "heads", "kernels", "coeffs"):
        out[name] += copy.deepcopy(other[name])
    out["products"] += [[f + len(doc["forms"]) for f in product] for product in other["products"]]
    out["terms"] += [[i + s for i, s in zip(row, shift)] for row in other["terms"]]
    return out


@pytest.mark.parametrize("doc", [_RAGGED, _SPARSE], ids=["ragged", "sparse"])
def test_from_dict_canonicalizes_scrambled_documents(doc):
    expected = ex.from_dict(copy.deepcopy(doc))
    _assert_canonical(expected, doc)
    rng = random.Random(7)
    for _ in range(5):
        scrambled = _scrambled(doc, rng)
        e = ex.from_dict(scrambled)
        _assert_canonical(e, scrambled)
        assert e == expected and ex.render(e, "json") == ex.render(expected, "json")
        # the same rows, written as Terms
        assert ex.Expression(_doc_terms(scrambled)) == expected


def test_from_dict_sums_coefficients_beyond_int64():
    big = Fraction(2**70, 3)
    doc = {"forms": _FORMS[:2], "heads": [{"two_pi_pow": 1, "q_exp": {"1": -1}}],
           "kernels": [[], [1]], "products": [[0], [1], [0]],
           "coeffs": [str(big), str(-big + 1), str(big + Fraction(1, 2**66))],
           # [0, 0, 0] and [0, 0, 2] name one product; so do the next two rows
           "terms": [[0, 0, 0, 0], [0, 0, 2, 1], [0, 1, 1, 0], [0, 1, 1, 2], [0, 0, 1, 2]]}
    e = ex.from_dict(doc)
    _assert_canonical(e, doc)
    # forms[1] (no N part) comes first in LinearForm order
    assert [t.coeff for t in e.terms] == [big + Fraction(1, 2**66), 1,
                                          2 * big + Fraction(1, 2**66)]
    assert e.scale == 3 * 2**66


def test_from_dict_drops_cancelled_kernel_groups_and_heads():
    # rows that cancel every term of the kernels [2, 3] and of head 1
    doc = _concatenated(_RAGGED, _negated(_RAGGED))
    doc["terms"] = [row for i, row in enumerate(doc["terms"])
                    if i < len(_RAGGED["terms"]) or row[1] == 6 or row[0] == 3]
    e = ex.from_dict(doc)
    _assert_canonical(e, doc)
    assert (2, 3) in ex.from_dict(copy.deepcopy(_RAGGED)).kernel_sets
    assert (2, 3) not in e.kernel_sets and len(e.heads) == 1
    assert e.heads[0][0] == 2 and len(e) < len(_RAGGED["terms"])


@pytest.mark.parametrize("doc", [_RAGGED, _SPARSE], ids=["ragged", "sparse"])
def test_from_dict_of_rows_that_all_cancel_is_empty(doc):
    for cancelled in (_concatenated(doc, _negated(doc)),
                      _scrambled(_concatenated(_negated(doc), doc), random.Random(3))):
        e = ex.from_dict(cancelled)
        assert e == ex.EMPTY and e.is_empty() and e.terms == _term_loop(cancelled) == ()
        assert ex.render(e, "json") == ex.render(ex.EMPTY, "json")


def test_from_dict_sorts_the_forms_of_each_product():
    # unsorted and repeated form indices; products 0, 1 and 3 are the same
    # product of forms 0 and 2, so their rows merge. forms[1] (no N part)
    # comes first in LinearForm order
    doc = {"forms": _FORMS[:3], "heads": [{"two_pi_pow": 0, "q_exp": {"2": -2}}],
           "kernels": [[]], "products": [[2, 0], [0, 2], [1, 1, 0], [2, 0], [2, 2, 2]],
           "coeffs": ["1", "1/2", "-3/2"],
           "terms": [[0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 2, 1], [0, 0, 3, 1], [0, 0, 4, 2]]}
    e = ex.from_dict(doc)
    _assert_canonical(e, doc)
    assert len(e) == 3 and e.products == ((0, 0, 1), (1, 2), (2, 2, 2))
    assert [t.coeff for t in e.terms] == [Fraction(1, 2), 2, Fraction(-3, 2)]


@pytest.mark.parametrize("seed", range(3))
def test_add_merges_both_expressions_by_columns(seed):
    rng = random.Random(seed)
    x = ex.from_dict(_scrambled(_RAGGED, rng))
    y = ex.from_dict(_scrambled(_SPARSE, rng))
    total = ex.add(x, y)
    assert total.terms == _merged(x.terms + y.terms)
    assert total == ex.add(y, x) == ex.Expression(x.terms + y.terms)
    assert ex.add(total, ex.from_dict(_negated(_RAGGED))) == y
    assert ex.add(x, ex.from_dict(_negated(_RAGGED))) == ex.EMPTY


def test_render_text_reference_integral():
    text = ex.render(reference_integral_g2(), "text")
    assert text == ("(2π/(2q1·2q2))[-(1)/(i*N_a - q1 - q2)"
                    " + (1)/(i*N_a + q1 + q2)]")


def test_render_empty():
    assert ex.render(ex.EMPTY, "text") == "0"
    assert ex.render(ex.EMPTY, "latex") == "0"


def test_render_rejects_an_unknown_format():
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        ex.render(reference_integral_g2(), "xml")


def test_render_latex_contains_forms():
    tex = ex.render(reference_sum_g2(), "latex")
    assert "n_B(q_{1})" in tex
    assert "i N_{a} + q_{1} + q_{2}" in tex
    assert "\\frac" in tex


def test_json_roundtrip():
    for e in (reference_integral_g2(), reference_sum_g2(),
              engine.matsubara_sum(fixtures.g4()), ex.EMPTY):
        text = ex.render(e, "json")
        again = ex.parse_expression(text)
        assert again == e
        assert pickle.loads(pickle.dumps(e)) == e and copy.deepcopy(e) == e
        # the rows are written without a list per row, as json.dumps writes them
        data = json.loads(text)
        assert data["terms"] == e.rows.tolist() and text == json.dumps(data)


def test_render_deterministic():
    e = reference_sum_g2()
    assert ex.render(e, "text") == ex.render(e, "text")
    assert ex.render(e, "json") == ex.render(e, "json")


def test_expressions_are_immutable_values(g4):
    operator, direct = (engine.matsubara_sum(g4, method) for method in ("operator", "direct"))
    assert operator == direct and hash(operator) == hash(direct)
    with pytest.raises(AttributeError):
        operator.scale = 2
    with pytest.raises(AttributeError):
        del operator.scale
    assert repr(operator) == f"Expression({ex.render(operator)!r})"
    assert (operator == 1) is False


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
    # the terms table is checked by columns; a failure still names its entry
    (_set(("terms", 0, 2), True), ex.ExpressionError,
     "terms[0][2] must be an index below 4, got True"),
    (_set(("terms", 0, 0), 1), ex.ExpressionError,
     "terms[0][0] must be an index below 1, got 1"),
    (_set(("terms", 3, 1), -1), ex.ExpressionError,
     "terms[3][1] must be an index below 3, got -1"),
    (_set(("terms", 0, 0), 2**70), ex.ExpressionError,
     "terms[0][0] must be an index below 1, got 1180591620717411303424"),
    (_set(("terms", 0), [0, 0, 0]), ex.ExpressionError,
     "terms[0] must have 4 indices, got [0, 0, 0]"),
])
def test_json_errors_name_their_table_entry(change, error, message):
    data = json.loads(ex.render(reference_sum_g2(), "json"))
    change(data)
    with pytest.raises(error) as info:
        ex.from_dict(data)
    assert str(info.value) == message
