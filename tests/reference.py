"""Test-side reference implementations, independent of the packed kernel.

The term-by-term reflection algebra acts on one Expression at a time in
exact Fraction arithmetic, so the tests can fold an operator subset by
subset and compare with engine.apply_operator; it flips a line in any
sign-normalized form (_flip_form), not only in the graph's cut forms that
the engine's reflection acts on. The two lattice sums check
the numeric machinery: a one-dimensional sum with a known limit, and a
delta-checked sum over all I variables that enforces every vertex
constraint pointwise. The term loops of evaluation, rendering and JSON
read an expression through its Term view, one term at a time, as the
library did before it worked on packed tables; the JSON writer keeps the
one-object-per-term schema of that time, and the reader reads the
library's table schema term by term.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping

import numpy as np

from matsum import graph as gr
from matsum import oracles
from matsum.expressions import (
    DuplicateKernel,
    Expression,
    ExpressionError,
    KernelReflection,
    LinearForm,
    Term,
    ZeroDenominator,
    make_term,
    normalize_form,
)
from matsum.graph import MatsubaraGraph
from matsum.kernels import nbe


def _flip_form(form: LinearForm, line_id: int) -> tuple[LinearForm, int]:
    """Negate q_{line_id} in a canonical form, restoring sign normalization.

    The stored form has a positive leading coefficient, so renormalization is
    only needed when the flipped line carries that leading coefficient.
    """
    q = form.q
    for idx, (l, c) in enumerate(q):
        if l == line_id:
            break
    else:
        return form, 1
    if form.n or idx > 0:
        new_q = q[:idx] + ((line_id, -c),) + q[idx + 1 :]
        return LinearForm(form.n, new_q), 1
    # leading coefficient flipped negative: negate the whole form
    new_q = ((line_id, c),) + tuple((l2, -c2) for l2, c2 in q[1:])
    return LinearForm(form.n, new_q), -1


def reflect_term(t: Term, line_id: int) -> Term:
    """Full reflection of one term: flip the line in every denominator and
    pick up (-1)^exponent from the q-monomial."""
    if line_id in t.kernels:
        raise KernelReflection(line_id)
    coeff = t.coeff
    for l, exp in t.q_exponents:
        if l == line_id:
            if exp % 2:
                coeff = -coeff
            break
    dens = []
    for form in t.denominators:
        form, sign = _flip_form(form, line_id)
        if sign < 0:
            coeff = -coeff
        dens.append(form)
    return Term(coeff, t.pi_power, t.q_exponents, t.kernels, tuple(sorted(dens)))


def reflect(e: Expression, line_id: int) -> Expression:
    """Negate q_{line_id} everywhere. Errors if any term carries that kernel."""
    return Expression.from_terms(reflect_term(t, line_id) for t in e.terms)


def kernel_multiply(e: Expression, line_id: int) -> Expression:
    """Multiply every term by nbe(q_{line_id})."""
    new_terms = []
    for t in e.terms:
        if line_id in t.kernels:
            raise DuplicateKernel(line_id)
        new_terms.append(t._replace(kernels=tuple(sorted(t.kernels + (line_id,)))))
    return Expression.from_terms(new_terms)


def reflection_difference(e: Expression, line_id: int) -> Expression:
    """(1 - R_i) e, the reflection-difference of the whole expression."""
    def emit():
        for t in e.terms:
            yield t
            rt = reflect_term(t, line_id)
            yield rt._replace(coeff=-rt.coeff)

    return Expression.from_terms(emit())


def single_sum(q: float, cutoff: int) -> float:
    """Machinery check: sum_{|n| <= M} 1/(n^2 + q^2), which tends to
    pi*coth(pi q)/q."""
    n = np.arange(-cutoff, cutoff + 1, dtype=float)
    return float(np.sum(1.0 / (n * n + q * q)))


def constrained_box_sum(
    graph: MatsubaraGraph,
    full_n_values: Mapping[str, int],
    q_values: Mapping[int, float],
    box: int,
) -> float:
    """Direct delta-checked sum over all I variables on [-box, box]^I.

    Takes the complete N assignment (including the root) and enforces every
    vertex constraint pointwise, so it also witnesses the vanishing of the
    sum when sum_v N_v != 0. Exponential in I; keep the box small.
    """
    ids = list(graph.line_ids)
    if (2 * box + 1) ** len(ids) > oracles._MAX_LATTICE_POINTS:
        raise oracles.BoxTooLarge("box too large for a full delta-checked sum")
    axis = np.arange(-box, box + 1, dtype=np.int64)
    grids = np.meshgrid(*([axis] * len(ids)), indexing="ij")
    by_line = {lid: g for lid, g in zip(ids, grids)}
    ok = np.ones(grids[0].shape, dtype=bool)
    for v in graph.vertices:
        t_v = np.zeros(grids[0].shape, dtype=np.int64)
        for ln in graph.lines:
            s = gr.incidence_sign(graph, v, ln.id)
            if s:
                t_v = t_v + s * by_line[ln.id]
        ok &= t_v == full_n_values[v]
    summand = np.ones(grids[0].shape, dtype=float)
    for lid in ids:
        nvals = by_line[lid].astype(float)
        summand = summand / (nvals * nvals + q_values[lid] ** 2)
    return float(np.sum(summand * ok))


# ---------------------------------------------------------------------------
# term-by-term evaluation, rendering and JSON
#
# The library works on packed tables; these are the term loops it replaced,
# kept as they were, so the tests can compare values bit for bit and
# renders byte for byte.
# ---------------------------------------------------------------------------

def _form_value(form: LinearForm, q_values, n_values) -> complex:
    re = 0.0
    for l, c in form.q:
        re += c * q_values[l]
    im = 0.0
    for v, c in form.n:
        im += c * n_values[v]
    return complex(re, im)


def eval_numeric(
    e: Expression, q_values: Mapping[int, float], n_values: Mapping[str, float]
) -> complex:
    """Substitute numeric values (q > 0, integer N over non-root vertices).

    Raises ZeroDenominator when a linear form evaluates to exactly zero.
    """
    import math

    # each factor is computed once per call; the arithmetic per term, and so
    # the value, is the same as computing it afresh
    powers: dict[tuple[int, int], float] = {}
    kernels: dict[int, float] = {}
    forms: dict[LinearForm, complex] = {}
    total = 0j
    two_pi = 2.0 * math.pi
    for t in e.terms:
        val = complex(float(t.coeff) * two_pi ** t.pi_power)
        for factor in t.q_exponents:
            p = powers.get(factor)
            if p is None:
                l, exp = factor
                p = powers[factor] = q_values[l] ** exp
            val *= p
        for l in t.kernels:
            k = kernels.get(l)
            if k is None:
                k = kernels[l] = nbe(q_values[l])
            val *= k
        for form in t.denominators:
            d = forms.get(form)
            if d is None:
                d = forms[form] = _form_value(form, q_values, n_values)
                if d == 0:
                    raise ZeroDenominator(f"form {render_form(form, 'text')} vanished")
            val /= d
        total += val
    return total


def render_form(form: LinearForm, fmt: str) -> str:
    parts: list[str] = []
    for v, c in form.n:
        sym = f"i*N_{v}" if fmt == "text" else f"i N_{{{v}}}"
        parts.append(_signed(c, sym, first=not parts))
    for l, c in form.q:
        sym = f"q{l}" if fmt == "text" else f"q_{{{l}}}"
        parts.append(_signed(c, sym, first=not parts))
    return "".join(parts)


def _signed(c: int, sym: str, first: bool) -> str:
    if c == 1:
        return sym if first else f" + {sym}"
    if c == -1:
        return f"-{sym}" if first else f" - {sym}"
    mag = f"{abs(c)}*{sym}"
    if c > 0:
        return mag if first else f" + {mag}"
    return f"-{mag}" if first else f" - {mag}"


def _render_kernel_sum(group: list[Term], fmt: str, negate: bool = False) -> str:
    """Numerator like '1 + nbe(q1) - nbe(q2)' for terms sharing denominators."""
    bits: list[str] = []
    for t in sorted(group, key=lambda t: (len(t.kernels), t.kernels)):
        coeff = -t.coeff if negate else t.coeff
        kparts = [f"nbe(q{l})" if fmt == "text" else f"n_B(q_{{{l}}})" for l in t.kernels]
        pieces = []
        if abs(coeff) != 1 or not kparts:
            pieces.append(str(abs(coeff)))
        pieces.extend(kparts)
        joiner = "*" if fmt == "text" else " "
        body = joiner.join(pieces)
        if not bits:
            bits.append(body if coeff > 0 else f"-{body}")
        else:
            bits.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(bits)


def render(e: Expression, fmt: str = "text") -> str:
    """Render an expression as text, latex, or json (lossless)."""
    if fmt == "json":
        return json.dumps(to_dict(e), indent=None, separators=(", ", ": "))
    if fmt not in ("text", "latex"):
        raise ValueError(f"unknown format {fmt!r}")
    if e.is_empty():
        return "0"

    pis = {t.pi_power for t in e.terms}
    qexps = {t.q_exponents for t in e.terms}
    factored = len(pis) == 1 and len(qexps) == 1 and all(
        exp == -1 for _, exp in next(iter(qexps))
    )
    if not factored:
        return _render_plain(e, fmt)

    pi_power = next(iter(pis))
    qexp = next(iter(qexps))
    nlines = len(qexp)
    # scale coefficients so the 1/2^I of the prefactor is displayed as 2q_i
    scaled = [t._replace(coeff=t.coeff * 2 ** nlines) for t in e.terms]

    if fmt == "text":
        two_pi = "2π" if pi_power == 1 else f"(2π)^{pi_power}" if pi_power else "1"
        denom = "·".join(f"2q{l}" for l, _ in qexp)
        prefix = f"({two_pi}/({denom}))" if nlines else two_pi
    else:
        two_pi = "2\\pi" if pi_power == 1 else f"(2\\pi)^{{{pi_power}}}" if pi_power else "1"
        denom = " \\, ".join(f"2q_{{{l}}}" for l, _ in qexp)
        prefix = f"\\frac{{{two_pi}}}{{{denom}}}" if nlines else two_pi

    groups: dict[tuple, list[Term]] = {}
    for t in scaled:
        groups.setdefault(t.denominators, []).append(t)

    chunks: list[str] = []
    for dens in sorted(groups):
        neg = all(t.coeff < 0 for t in groups[dens])
        numer = _render_kernel_sum(groups[dens], fmt, negate=neg)
        if fmt == "text":
            dstr = "·".join(f"({render_form(f, fmt)})" for f in dens)
            frac = f"({numer})/{dstr}" if dstr else f"({numer})"
        else:
            dstr = "".join(f"({render_form(f, fmt)})" for f in dens)
            frac = f"\\frac{{{numer}}}{{{dstr}}}" if dstr else f"({numer})"
        if neg:
            chunks.append(f" - {frac}" if chunks else f"-{frac}")
        else:
            chunks.append(f" + {frac}" if chunks else frac)
    body = "".join(chunks)
    if fmt == "text":
        return f"{prefix}[{body}]"
    return f"{prefix}\\left[{body}\\right]"


def _render_plain(e: Expression, fmt: str) -> str:
    parts: list[str] = []
    for t in e.terms:
        bits = [str(abs(t.coeff))]
        if t.pi_power:
            bits.append("(2π)" if fmt == "text" else "(2\\pi)")
            if t.pi_power != 1:
                bits[-1] += f"^{t.pi_power}" if fmt == "text" else f"^{{{t.pi_power}}}"
        for l, exp in t.q_exponents:
            bits.append(f"q{l}^{exp}" if fmt == "text" else f"q_{{{l}}}^{{{exp}}}")
        for l in t.kernels:
            bits.append(f"nbe(q{l})" if fmt == "text" else f"n_B(q_{{{l}}})")
        for f in t.denominators:
            bits.append(f"1/({render_form(f, fmt)})")
        joiner = "·" if fmt == "text" else " \\, "
        s = joiner.join(bits)
        if not parts:
            parts.append(s if t.coeff > 0 else f"-{s}")
        else:
            parts.append(f" + {s}" if t.coeff > 0 else f" - {s}")
    return "".join(parts)


def to_dict(e: Expression) -> dict:
    """JSON-ready dict with one object per term, the schema the library
    wrote before it wrote an expression as its tables; the pinned JSON
    digests are of it. Equal forms and q monomials share one dict."""
    forms: dict[LinearForm, dict] = {}
    monomials: dict[tuple, dict] = {}

    def form_dict(f: LinearForm) -> dict:
        out = forms.get(f)
        if out is None:
            out = forms[f] = {"n": {v: c for v, c in f.n},
                              "q": {str(l): c for l, c in f.q}}
        return out

    def monomial_dict(q_exponents: tuple) -> dict:
        out = monomials.get(q_exponents)
        if out is None:
            out = monomials[q_exponents] = {str(l): exp for l, exp in q_exponents}
        return out

    return {
        "terms": [
            {
                "coeff": str(t.coeff),
                "two_pi_pow": t.pi_power,
                "q_exp": monomial_dict(t.q_exponents),
                "kernels": list(t.kernels),
                "denoms": [form_dict(f) for f in t.denominators],
            }
            for t in e.terms
        ]
    }


def _parse_form(fd: dict) -> LinearForm:
    form, sign = normalize_form(
        [(v, int(c)) for v, c in fd["n"].items()],
        [(int(l), int(c)) for l, c in fd["q"].items()],
    )
    if sign != 1:
        raise ExpressionError("denominator in JSON is not sign-normalized")
    return form


def from_dict(data: dict) -> Expression:
    """The Expression of a document in the library's JSON schema (tables
    of forms, heads, kernels, products and coefficients, and one row of
    indices per term), read term by term in Fraction arithmetic."""
    forms = [_parse_form(fd) for fd in data["forms"]]
    heads = data["heads"]
    return Expression.from_terms(
        make_term(Fraction(data["coeffs"][c]), heads[h]["two_pi_pow"],
                  {int(l): x for l, x in heads[h]["q_exp"].items()},
                  data["kernels"][k], [forms[f] for f in data["products"][p]])
        for h, k, p, c in data["terms"])
