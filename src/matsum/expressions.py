"""Canonical rational expressions in the line symbols q_i and vertex symbols N_v.

An Expression is a sum of terms

    coeff * (2 pi)^k * prod_i q_i^{e_i} * prod_{j in kernels} nbe(q_j)
          * prod 1/(i*(sum a_v N_v) + sum c_i q_i)

with exact rational coefficients. Canonical form: every denominator linear
form is sign-normalized so that its first nonzero coefficient (vertex symbols
in input order, then line symbols by id) is positive, with the sign absorbed
into the coefficient; terms with equal structure are merged; zero terms drop;
terms are stored in a fixed sorted order. Equality of canonical expressions
is therefore exact structural equality.

Everything is an immutable value and all operations are pure functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .kernels import nbe


class ExpressionError(ValueError):
    """Base class for symbolic-algebra failures."""


class KernelReflection(ExpressionError):
    def __init__(self, line_id: int):
        super().__init__(f"cannot reflect line {line_id}: a term carries its kernel")
        self.line_id = line_id


class DuplicateKernel(ExpressionError):
    def __init__(self, line_id: int):
        super().__init__(f"term already carries the kernel of line {line_id}")
        self.line_id = line_id


class ZeroDenominator(ExpressionError):
    """A denominator evaluated to zero (degenerate q/N combination)."""


class LinearForm(NamedTuple):
    """i*(sum of n coefficients times N_v) + (sum of q coefficients times q_i).

    ``n`` holds (vertex, integer) pairs in vertex input order (root excluded),
    ``q`` holds (line_id, +-1) pairs in ascending line id; zero coefficients
    are never stored and the form is never identically zero.
    """

    n: tuple[tuple[str, int], ...]
    q: tuple[tuple[int, int], ...]


def normalize_form(
    n_pairs: Iterable[tuple[str, int]], q_pairs: Iterable[tuple[int, int]]
) -> tuple[LinearForm, int]:
    """Drop zeros, enforce q coefficients in {-1,+1}, fix the overall sign.

    Returns (form, sign) where sign is -1 when the form was negated to make
    its first nonzero coefficient positive; the caller absorbs the sign into
    the term coefficient.
    """
    n = [(v, c) for v, c in n_pairs if c != 0]
    q = sorted(((l, c) for l, c in q_pairs if c != 0), key=lambda p: p[0])
    for _, c in q:
        if c not in (-1, 1):
            raise ExpressionError(f"q coefficient {c} outside {{-1,0,+1}}")
    if not n and not q:
        raise ExpressionError("denominator form is identically zero")
    lead = n[0][1] if n else q[0][1]
    sign = 1
    if lead < 0:
        sign = -1
        n = [(v, -c) for v, c in n]
        q = [(l, -c) for l, c in q]
    return LinearForm(tuple(n), tuple(q)), sign


class Term(NamedTuple):
    coeff: Fraction
    pi_power: int
    q_exponents: tuple[tuple[int, int], ...]
    kernels: tuple[int, ...]
    denominators: tuple[LinearForm, ...]

    @property
    def key(self):
        return (self.pi_power, self.q_exponents, self.kernels, self.denominators)


def make_term(
    coeff,
    pi_power: int = 0,
    q_exponents: Mapping[int, int] | None = None,
    kernels: Iterable[int] = (),
    denominators: Iterable[LinearForm] = (),
) -> Term:
    """Build a term in canonical shape (sorted, zero exponents dropped)."""
    qexp = tuple(sorted((l, e) for l, e in (q_exponents or {}).items() if e != 0))
    kern = tuple(sorted(kernels))
    if len(set(kern)) != len(kern):
        raise DuplicateKernel(next(k for i, k in enumerate(kern) if k in kern[:i]))
    dens = tuple(sorted(denominators))
    return Term(Fraction(coeff), pi_power, qexp, kern, dens)


@dataclass(frozen=True)
class Expression:
    """Canonical sum of terms."""

    terms: tuple[Term, ...] = ()

    @classmethod
    def from_terms(cls, terms: Iterable[Term]) -> "Expression":
        merged: dict[tuple, Fraction] = {}
        for t in terms:
            merged[t.key] = merged.get(t.key, Fraction(0)) + t.coeff
        out = [
            Term(c, *key)
            for key, c in merged.items()
            if c != 0
        ]
        out.sort(key=lambda t: t.key)
        return cls(tuple(out))

    def is_empty(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)


EMPTY = Expression()


def add(e1: Expression, e2: Expression) -> Expression:
    return Expression.from_terms(e1.terms + e2.terms)


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


# ---------------------------------------------------------------------------
# rendering and JSON round-trip
# ---------------------------------------------------------------------------

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
    """JSON-ready dict following the documented expression schema. Equal
    forms and q monomials share one dict."""
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
    """Inverse of to_dict. Key order inside each "n" map is significant: it
    records the vertex symbol order used by sign normalization. Each
    distinct form and coefficient is parsed once."""
    forms: dict[tuple, LinearForm] = {}
    coeffs: dict[str, Fraction] = {}
    terms = []
    for td in data["terms"]:
        dens = []
        for fd in td["denoms"]:
            key = (tuple(fd["n"].items()), tuple(fd["q"].items()))
            try:
                form = forms[key]
            except KeyError:
                form = forms[key] = _parse_form(fd)
            except TypeError:           # unhashable values: fail as parsing does
                form = _parse_form(fd)
            dens.append(form)
        try:
            coeff = coeffs[td["coeff"]]
        except KeyError:
            coeff = coeffs[td["coeff"]] = Fraction(td["coeff"])
        except TypeError:
            coeff = Fraction(td["coeff"])
        terms.append(
            make_term(
                coeff,
                int(td["two_pi_pow"]),
                {int(l): int(x) for l, x in td["q_exp"].items()},
                td["kernels"],
                dens,
            )
        )
    return Expression.from_terms(terms)


def parse_expression(text: str) -> Expression:
    return from_dict(json.loads(text))
