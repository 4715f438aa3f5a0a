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

An Expression is stored packed, as integer tables:

  * its distinct linear forms, in LinearForm order;
  * its denominator products, as sorted tuples of form ids, in sorted order;
  * its (pi power, q monomial) heads and its kernel tuples, each sorted;
  * its distinct coefficients, as ascending integer numerators over one
    positive denominator that shares no factor with all of them;
  * one row per term with the ids of its head, kernel tuple, product and
    numerator, the rows in Term.key order (head, kernels, denominators).

The tables hold only what the rows use, so equal expressions have equal
fields. A Packer interns terms into the same kinds of tables, with integer
coefficients over a common denominator, and its freeze() ranks the tables
and sorts the rows: the one merge-and-sort of the package. Every
constructor, add, JSON parsing and the engine build expressions through it.
Rendering, equality and evaluation read the tables, so each distinct factor
is formatted or evaluated once. The JSON form of an expression is its
tables (see from_dict), written by json.dumps and parsed by checking each
table entry once. Loops over the rows zip the four columns, read as
lists: no Python list is made per row, so a large expression's rows add
no work for the cyclic garbage collector. `Expression.terms` builds Term
tuples on access, for callers that read terms one at a time.

Everything is an immutable value and all operations are pure functions.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .kernels import nbe


class ExpressionError(ValueError):
    """Base class for symbolic-algebra failures."""


class KernelReflection(ExpressionError):
    def __init__(self, line_id: int):
        super().__init__(f"cannot reflect line {line_id}: a term carries its kernel")
        self.line_id = line_id


class DuplicateKernel(ExpressionError):
    def __init__(self, line_id: int, where: str = ""):
        super().__init__(f"{where}term already carries the kernel of line {line_id}")
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


#: Columns of Expression.rows: ids into heads, kernel_sets, products and
#: numerators.
HEAD, KERNELS, PRODUCT, COEFF = range(4)


class Expression:
    """Canonical sum of terms, stored packed (see the module docstring).

    Expression(terms) and Expression.from_terms(terms) canonicalize any
    iterable of Terms; `terms` gives the canonical terms back.
    """

    __slots__ = ("forms", "products", "heads", "kernel_sets", "numerators", "scale",
                 "rows")

    def __new__(cls, terms: Iterable[Term] = ()) -> "Expression":
        return cls.from_terms(terms)

    @classmethod
    def from_terms(cls, terms: Iterable[Term]) -> "Expression":
        terms = tuple(terms)
        packer = Packer(math.lcm(*(t.coeff.denominator for t in terms)))
        groups: dict[tuple, dict[int, int]] = {}
        for t in terms:
            shape = packer.shape(packer.head(t.pi_power, t.q_exponents),
                                 map(packer.form, t.denominators))
            group = groups.setdefault(t.kernels, {})
            coeff = t.coeff.numerator * (packer.scale // t.coeff.denominator)
            group[shape] = group.get(shape, 0) + coeff
        return packer.freeze(groups)

    @property
    def terms(self) -> tuple[Term, ...]:
        """The terms in canonical order, built on each access."""
        coeffs = [Fraction(c, self.scale) for c in self.numerators]
        dens = [tuple(self.forms[f] for f in product) for product in self.products]
        return tuple(Term(coeffs[c], *self.heads[h], self.kernel_sets[k], dens[p])
                     for h, k, p, c in zip(*self.rows.T.tolist()))

    def is_empty(self) -> bool:
        return not len(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def _tables(self) -> tuple:
        return (self.scale, self.numerators, self.heads, self.kernel_sets, self.forms,
                self.products)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expression):
            return NotImplemented
        return self is other or (self.rows.shape == other.rows.shape
                                 and self._tables() == other._tables()
                                 and np.array_equal(self.rows, other.rows))

    def __hash__(self) -> int:
        return hash(self._tables() + (self.rows.tobytes(),))

    def __setattr__(self, name, value):
        raise AttributeError("Expression is immutable")

    def __delattr__(self, name):
        raise AttributeError("Expression is immutable")

    def __reduce__(self):
        return _frozen, tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        return f"Expression({render(self)!r})"


def _frozen(forms, products, heads, kernel_sets, numerators, scale, rows) -> Expression:
    rows.flags.writeable = False
    e = object.__new__(Expression)
    for name, value in zip(Expression.__slots__,
                           (forms, products, heads, kernel_sets, numerators, scale, rows)):
        object.__setattr__(e, name, value)
    return e


EMPTY = _frozen((), (), (), (), (), 1, np.empty((0, 4), dtype=np.int64))


def _intern(ids: dict, items: list, value) -> int:
    i = ids.get(value)
    if i is None:
        i = ids[value] = len(items)
        items.append(value)
    return i


class Packer:
    """Interning tables for building expressions.

    Linear forms, (pi_power, q_exponents) heads and term shapes (head id,
    sorted form-id tuple) are interned to ints, in first-seen order after
    the `forms` given up front; coefficients are ints over `scale`. Packed
    terms map kernel tuple -> {shape id: coefficient}; freeze() turns them
    into the canonical Expression.
    """

    def __init__(self, scale: int = 1, forms: Iterable[LinearForm] = ()):
        self.scale = scale
        self.forms: list[LinearForm] = list(forms)
        self.heads: list[tuple] = []
        self.shapes: list[tuple[int, tuple[int, ...]]] = []
        self._form_ids: dict = {f: i for i, f in enumerate(self.forms)}
        self._head_ids: dict = {}
        self._shape_ids: dict = {}

    def form(self, form: LinearForm) -> int:
        return _intern(self._form_ids, self.forms, form)

    def head(self, pi_power: int, q_exponents: tuple) -> int:
        return _intern(self._head_ids, self.heads, (pi_power, q_exponents))

    def shape(self, head: int, form_ids: Iterable[int]) -> int:
        return _intern(self._shape_ids, self.shapes, (head, tuple(sorted(form_ids))))

    def pack(self, e: Expression, groups: dict | None = None) -> dict[tuple, dict[int, int]]:
        """The packed terms of e, added into `groups` when given; e.scale
        must divide self.scale."""
        groups = {} if groups is None else groups
        factor, rest = divmod(self.scale, e.scale)
        assert not rest, "the packer's scale is not a multiple of the expression's"
        forms = [self.form(f) for f in e.forms]
        heads = [self.head(*head) for head in e.heads]
        products = [[forms[f] for f in product] for product in e.products]
        targets = [groups.setdefault(kernels, {}) for kernels in e.kernel_sets]
        numerators = [c * factor for c in e.numerators]
        shapes: dict[tuple[int, int], int] = {}
        for h, k, p, c in zip(*e.rows.T.tolist()):
            shape = shapes.get((h, p))
            if shape is None:
                shape = shapes[h, p] = self.shape(heads[h], products[p])
            group = targets[k]
            group[shape] = group.get(shape, 0) + numerators[c]
        return groups

    def freeze(self, groups: dict[tuple, dict[int, int]]) -> Expression:
        """The canonical Expression of packed terms; zero terms drop.

        The distinct coefficients, and the forms, heads, products and kernel
        tuples the remaining terms use, are ranked once; the rows are then
        sorted by integer ranks. Coefficients may be rationals (a rewrite
        relation with a fractional coefficient); the scale absorbs them.
        """
        counts = [len(terms) for terms in groups.values()]
        coeffs = list(itertools.chain.from_iterable(t.values() for t in groups.values()))
        values = sorted(set(coeffs) - {0})
        if not values:
            return EMPTY
        index = {c: i for i, c in enumerate(values)}
        index[0] = -1
        coeff_col = np.fromiter(map(index.__getitem__, coeffs), np.int64, len(coeffs))
        shape_col = np.fromiter(itertools.chain.from_iterable(groups.values()), np.int64,
                                len(coeffs))
        kernel_col = np.repeat(np.arange(len(counts)), counts)
        kept = coeff_col >= 0
        if not kept.all():
            coeff_col, shape_col, kernel_col = coeff_col[kept], shape_col[kept], kernel_col[kept]

        used, shape_col = np.unique(shape_col, return_inverse=True)
        shapes = [self.shapes[s] for s in used.tolist()]
        form_ids = sorted({f for _, dens in shapes for f in dens}, key=self.forms.__getitem__)
        form_rank = {f: r for r, f in enumerate(form_ids)}
        head_ids = sorted({h for h, _ in shapes}, key=self.heads.__getitem__)
        head_rank = {h: r for r, h in enumerate(head_ids)}
        keyed = [tuple(sorted(form_rank[f] for f in dens)) for _, dens in shapes]
        products = sorted(set(keyed))
        product_rank = {p: r for r, p in enumerate(products)}
        kernel_sets = list(groups)
        kernel_ids = sorted(np.unique(kernel_col).tolist(), key=kernel_sets.__getitem__)
        kernel_rank = np.zeros(len(kernel_sets), dtype=np.int64)
        kernel_rank[kernel_ids] = np.arange(len(kernel_ids))

        rows = np.column_stack([
            np.array([head_rank[h] for h, _ in shapes], dtype=np.int64)[shape_col],
            kernel_rank[kernel_col],
            np.array([product_rank[p] for p in keyed], dtype=np.int64)[shape_col],
            coeff_col,
        ])
        rows = rows[np.lexsort((rows[:, PRODUCT], rows[:, KERNELS], rows[:, HEAD]))]
        common = math.lcm(*(c.denominator for c in values))
        numerators = [c.numerator * (common // c.denominator) for c in values]
        divisor = math.gcd(self.scale * common, *numerators)
        return _frozen(
            tuple(self.forms[f] for f in form_ids),
            tuple(products),
            tuple(self.heads[h] for h in head_ids),
            tuple(kernel_sets[k] for k in kernel_ids),
            tuple(c // divisor for c in numerators),
            self.scale * common // divisor,
            rows,
        )


def add(e1: Expression, e2: Expression) -> Expression:
    packer = Packer(math.lcm(e1.scale, e2.scale))
    return packer.freeze(packer.pack(e2, packer.pack(e1)))


# ---------------------------------------------------------------------------
# numeric evaluation
# ---------------------------------------------------------------------------

def _form_value(form: LinearForm, q_values, n_values) -> complex:
    re = 0.0
    for l, c in form.q:
        re += c * q_values[l]
    im = 0.0
    for v, c in form.n:
        im += c * n_values[v]
    return complex(re, im)


def _smith(d: complex) -> tuple[bool, float, float]:
    """CPython's division by d (Smith's method) as (by_imag, ratio, scale):
    x / d is ((x.real + x.imag * ratio) / scale, (x.imag - x.real * ratio) / scale)
    with ratio = d.imag / d.real when |d.real| >= |d.imag|, else
    ((x.real * ratio + x.imag) / scale, (x.imag * ratio - x.real) / scale)
    with ratio = d.real / d.imag; a NaN part of d gives NaN."""
    if abs(d.real) >= abs(d.imag):
        ratio = d.imag / d.real
        return False, ratio, d.real + d.imag * ratio
    if abs(d.imag) >= abs(d.real):
        ratio = d.real / d.imag
        return True, ratio, d.real * ratio + d.imag
    return False, math.nan, math.nan


def eval_numeric(
    e: Expression, q_values: Mapping[int, float], n_values: Mapping[str, float]
) -> complex:
    """Substitute numeric values (q > 0, integer N over non-root vertices).

    The value is bit for bit that of a term-by-term loop, as a Python
    complex. Each numerator the rows use, per (head, kernels, coefficient):
    complex(coeff * (2 pi)^k) times each q power and then each kernel in
    turn, is computed once in Python complex arithmetic. NumPy then divides
    each row's numerator by each form of its product in turn, as CPython's
    complex division does (Smith's method), and sums the rows in order.

    Raises ZeroDenominator when a linear form evaluates to exactly zero,
    naming the first such form in term order.
    """
    if e.is_empty():
        return 0j
    # factors in the order the loop meets them in a term, so that a factor
    # that cannot be computed raises as it did there
    coeffs = [c / e.scale for c in e.numerators]
    pi_powers = [(2.0 * math.pi) ** pi_power for pi_power, _ in e.heads]
    powers = [[float(q_values[l] ** exp) for l, exp in q_exponents]
              for _, q_exponents in e.heads]
    kernel_of = {l: nbe(q_values[l]) for l in sorted({l for ks in e.kernel_sets for l in ks})}
    kernels = [[kernel_of[l] for l in ks] for ks in e.kernel_sets]
    forms = [_form_value(f, q_values, n_values) for f in e.forms]
    vanished = [d == 0 for d in forms]
    if any(vanished):
        bad = np.array([any(vanished[f] for f in p) for p in e.products])
        product = e.products[int(e.rows[np.argmax(bad[e.rows[:, PRODUCT]]), PRODUCT])]
        form = e.forms[next(f for f in product if vanished[f])]
        raise ZeroDenominator(f"form {render_form(form, 'text')} vanished")
    by_imag, ratio, scale = np.array([_smith(d) for d in forms], dtype=float).reshape(-1, 3).T

    h, k, p, c = e.rows.T
    # the rows are sorted by head and kernels: number the runs of one
    # (head, kernels) pair, and mark the (run, coefficient) pairs the rows
    # use in a flat table, or by a sort where the table would be sparse
    key = h * len(e.kernel_sets) + k
    starts = np.r_[True, key[1:] != key[:-1]]
    runs = np.cumsum(starts) - 1
    key = runs * len(coeffs) + c
    size = (int(runs[-1]) + 1) * len(coeffs)
    if size > 8 * len(key):
        used, key = np.unique(key, return_inverse=True)
        spread = slice(None)
    else:
        marked = np.zeros(size, dtype=bool)
        marked[key] = True
        used = np.flatnonzero(marked)
        spread = np.cumsum(marked) - 1
    run_heads, run_kernels = h[starts].tolist(), k[starts].tolist()
    prefixes: dict[tuple[int, int], complex] = {}
    numerators = []
    for run, ci in zip(*(ids.tolist() for ids in np.divmod(used, len(coeffs)))):
        hi = run_heads[run]
        value = prefixes.get((hi, ci))
        if value is None:
            value = complex(coeffs[ci] * pi_powers[hi])
            for x in powers[hi]:
                value *= x
            prefixes[hi, ci] = value
        for x in kernels[run_kernels[run]]:
            value *= x
        numerators.append(value)
    z = np.array(numerators)[spread][key]
    re, im = z.real.copy(), z.imag.copy()

    # the products' j-th forms, -1 past a product's end
    width = max(map(len, e.products))
    table = np.array([product + (-1,) * (width - len(product)) for product in e.products])
    # overflow and NaN follow IEEE arithmetic, as in the loop, without warnings
    with np.errstate(all="ignore"):
        for column in table.T:
            # rows whose product has no j-th form are left alone
            at = slice(None) if column.min() >= 0 else np.flatnonzero(column[p] >= 0)
            flip, r, s = (part[column][p[at]] for part in (by_imag != 0, ratio, scale))
            a, b = re[at], im[at]
            re[at], im[at] = (np.where(flip, a * r + b, a + b * r) / s,
                              np.where(flip, b * r - a, b - a * r) / s)
        z.real, z.imag = re, im
        total = np.cumsum(z)[-1]
    # the loop's sum starts at 0j, which makes a total of -0.0 a 0.0
    return complex(float(total.real) + 0.0, float(total.imag) + 0.0)


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


def _ratio_str(numerator: int, denominator: int) -> str:
    """numerator/denominator in lowest terms, written as str(Fraction) does."""
    g = math.gcd(numerator, denominator)
    n, d = numerator // g, denominator // g
    return str(n) if d == 1 else f"{n}/{d}"


#: Sign prefixes of a summand: (first, negative) -> prefix.
_PREFIX = {(True, False): "", (True, True): "-", (False, False): " + ",
           (False, True): " - "}


def _kernel_bits(kernels: tuple[int, ...], fmt: str) -> list[str]:
    return [f"nbe(q{l})" if fmt == "text" else f"n_B(q_{{{l}}})" for l in kernels]


def render(e: Expression, fmt: str = "text") -> str:
    """Render an expression as text, latex, or json (lossless)."""
    if fmt == "json":
        tables = json.dumps({
            "forms": [{"n": dict(f.n), "q": {str(l): c for l, c in f.q}} for f in e.forms],
            "heads": [{"two_pi_pow": pi_power, "q_exp": {str(l): x for l, x in q_exponents}}
                      for pi_power, q_exponents in e.heads],
            "kernels": [list(ks) for ks in e.kernel_sets],
            "products": [list(product) for product in e.products],
            "coeffs": [_ratio_str(c, e.scale) for c in e.numerators],
        })
        # "terms" last, each row formatted as json.dumps writes a list of ints
        rows = ", ".join(map("[{}, {}, {}, {}]".format, *e.rows.T.tolist()))
        return f'{tables[:-1]}, "terms": [{rows}]}}'
    if fmt not in ("text", "latex"):
        raise ValueError(f"unknown format {fmt!r}")
    if e.is_empty():
        return "0"
    if len(e.heads) == 1 and all(exp == -1 for _, exp in e.heads[0][1]):
        return _render_factored(e, fmt)
    return _render_plain(e, fmt)


def _render_factored(e: Expression, fmt: str) -> str:
    """(2 pi)^L/prod 2q_i [sum over denominator products of
    (kernel sum)/(product)], for an expression with one head whose q
    exponents are all -1; coefficients are shown times 2^I, so that the
    1/2^I of the prefactor reads as the 2q_i."""
    ((pi_power, qexp),) = e.heads
    nlines = len(qexp)
    if fmt == "text":
        two_pi = "2π" if pi_power == 1 else f"(2π)^{pi_power}" if pi_power else "1"
        denom = "·".join(f"2q{l}" for l, _ in qexp)
        prefix = f"({two_pi}/({denom}))" if nlines else two_pi
    else:
        two_pi = "2\\pi" if pi_power == 1 else f"(2\\pi)^{{{pi_power}}}" if pi_power else "1"
        denom = " \\, ".join(f"2q_{{{l}}}" for l, _ in qexp)
        prefix = f"\\frac{{{two_pi}}}{{{denom}}}" if nlines else two_pi

    # each product's terms, by kernel count and then kernels; every product
    # is used, so the groups are the products in order
    rows = e.rows
    kernel_rank = np.argsort(np.argsort(
        np.array([len(ks) for ks in e.kernel_sets]), kind="stable"), kind="stable")
    order = np.lexsort((kernel_rank[rows[:, KERNELS]], rows[:, PRODUCT]))
    products, kernels, coeffs = (rows[order, col] for col in (PRODUCT, KERNELS, COEFF))
    negative = np.array([c < 0 for c in e.numerators])[coeffs]
    starts = np.flatnonzero(np.r_[True, products[1:] != products[:-1]])
    group_negative = np.logical_and.reduceat(negative, starts)
    first = np.zeros(len(order), dtype=bool)
    first[starts] = True
    # a group whose terms are all negative is shown negated
    shown_negative = negative != np.repeat(group_negative, np.diff(np.r_[starts, len(order)]))

    shown = [_ratio_str(abs(c) << nlines, e.scale) for c in e.numerators]
    unit = [abs(c) << nlines == e.scale for c in e.numerators]
    joiner = "*" if fmt == "text" else " "
    bodies: dict[tuple[int, int], str] = {}
    pieces = []
    for is_first, neg, c, k in zip(first.tolist(), shown_negative.tolist(),
                                   coeffs.tolist(), kernels.tolist()):
        body = bodies.get((c, k))
        if body is None:
            kparts = _kernel_bits(e.kernel_sets[k], fmt)
            body = bodies[c, k] = joiner.join(
                ([shown[c]] if not unit[c] or not kparts else []) + kparts)
        pieces.append(_PREFIX[is_first, neg] + body)

    form_strs = [f"({render_form(f, fmt)})" for f in e.forms]
    sep = "·" if fmt == "text" else ""
    ends = np.r_[starts[1:], len(order)].tolist()
    chunks: list[str] = []
    for product, start, end, neg in zip(e.products, starts.tolist(), ends,
                                        group_negative.tolist()):
        numer = "".join(pieces[start:end])
        dstr = sep.join(form_strs[f] for f in product)
        if not dstr:
            frac = f"({numer})"
        elif fmt == "text":
            frac = f"({numer})/{dstr}"
        else:
            frac = f"\\frac{{{numer}}}{{{dstr}}}"
        chunks.append(_PREFIX[not chunks, neg] + frac)
    body = "".join(chunks)
    if fmt == "text":
        return f"{prefix}[{body}]"
    return f"{prefix}\\left[{body}\\right]"


def _render_plain(e: Expression, fmt: str) -> str:
    """Term by term: |coeff|, (2 pi)^k, q powers, kernels and 1/(form)s
    joined, each term signed."""
    text = fmt == "text"
    joiner = "·" if text else " \\, "
    coeffs = [_ratio_str(abs(c), e.scale) for c in e.numerators]
    heads = []
    for pi_power, q_exponents in e.heads:
        bits = []
        if pi_power:
            bits.append("(2π)" if text else "(2\\pi)")
            if pi_power != 1:
                bits[-1] += f"^{pi_power}" if text else f"^{{{pi_power}}}"
        bits.extend(f"q{l}^{exp}" if text else f"q_{{{l}}}^{{{exp}}}"
                    for l, exp in q_exponents)
        heads.append("".join(joiner + b for b in bits))
    kernels = ["".join(joiner + b for b in _kernel_bits(ks, fmt)) for ks in e.kernel_sets]
    forms = [f"{joiner}1/({render_form(f, fmt)})" for f in e.forms]
    products = ["".join(forms[f] for f in product) for product in e.products]
    negative = [c < 0 for c in e.numerators]
    return "".join(
        _PREFIX[i == 0, negative[c]] + coeffs[c] + heads[h] + kernels[k] + products[p]
        for i, (h, k, p, c) in enumerate(zip(*e.rows.T.tolist())))


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _integer(value, what: str, key=None) -> int:
    if type(value) is not int:
        where = what if key is None else f"{what}[{key!r}]"
        raise ExpressionError(f"{where} must be an integer, got {value!r}")
    return value


_JSON_NAMES = {dict: "object", list: "array", str: "string"}


def _typed(value, kind: type, what: str):
    if type(value) is not kind:
        raise ExpressionError(f"{what} must be a JSON {_JSON_NAMES[kind]}, got {value!r}")
    return value


def _line_id(key, what: str) -> int:
    """A line id written as an object key: the decimal string of an int."""
    try:
        lid = int(key)
    except (TypeError, ValueError):
        lid = None
    if lid is None or str(lid) != key:
        raise ExpressionError(f"{what}: {key!r} is not a line id")
    return lid


def _parse_rational(text: str, what: str) -> tuple[int, int]:
    match = _RATIONAL.fullmatch(_typed(text, str, what))
    if match is None or match[2] is not None and int(match[2]) == 0:
        raise ExpressionError(f"{what} must be an integer or p/q, got {text!r}")
    return int(match[1]), int(match[2] or 1)


def _object(value, keys: tuple[str, ...], what: str) -> dict:
    if _typed(value, dict, what).keys() != set(keys):
        raise ExpressionError(f"{what} must have exactly the keys {', '.join(map(repr, keys))}")
    return value


def _parse_head(hd, what: str) -> tuple[int, tuple]:
    _object(hd, ("two_pi_pow", "q_exp"), what)
    pi_power, q_exp = hd["two_pi_pow"], hd["q_exp"]
    _integer(pi_power, f"{what}: two_pi_pow")
    what = f"{what}: q_exp"
    exps = sorted((_line_id(l, what), _integer(x, what, l))
                  for l, x in _typed(q_exp, dict, what).items())
    return pi_power, tuple((l, x) for l, x in exps if x)


def _parse_kernels(kernels, what: str) -> tuple[int, ...]:
    out = tuple(sorted(_integer(l, what, i) for i, l in enumerate(_typed(kernels, list, what))))
    if len(set(out)) != len(out):
        raise DuplicateKernel(next(l for i, l in enumerate(out) if l in out[:i]), f"{what}: ")
    return out


def _parse_form(fd, what: str) -> LinearForm:
    _object(fd, ("n", "q"), what)
    n_what, q_what = f"{what}: n", f"{what}: q"
    n_pairs = [(_typed(v, str, n_what), _integer(c, n_what, v))
               for v, c in _typed(fd["n"], dict, n_what).items()]
    q_pairs = [(_line_id(l, q_what), _integer(c, q_what, l))
               for l, c in _typed(fd["q"], dict, q_what).items()]
    try:
        form, sign = normalize_form(n_pairs, q_pairs)
    except ExpressionError as exc:
        raise ExpressionError(f"{what}: {exc}") from None
    if sign != 1:
        raise ExpressionError(f"{what}: denominator is not sign-normalized")
    return form


#: Keys of an expression document: its tables, in Expression order.
_TABLES = ("forms", "heads", "kernels", "products", "coeffs", "terms")


def _indices(ids, sizes: Iterable[int], what: str) -> list[int]:
    """A JSON array of indices, the j-th an integer in range(sizes[j])."""
    for j, (i, size) in enumerate(zip(_typed(ids, list, what), sizes)):
        if type(i) is not int or not 0 <= i < size:
            raise ExpressionError(f"{what}[{j}] must be an index below {size}, got {i!r}")
    return ids


def _index_rows(rows: list, sizes: tuple[int, ...]) -> np.ndarray | None:
    """rows as an int64 array when each is an array of len(sizes) integers,
    the j-th in range(sizes[j]), else None; checked in passes over the
    whole table, not row by row. Booleans and floats are not integers."""
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {len(sizes)}):
        return None
    flat = list(itertools.chain.from_iterable(rows))
    if not set(map(type, flat)) <= {int}:
        return None
    try:
        table = np.fromiter(flat, np.int64, len(flat)).reshape(-1, len(sizes))
    except OverflowError:
        return None
    return table if ((table >= 0) & (table < sizes)).all() else None


def from_dict(data: dict) -> Expression:
    """The Expression of a parsed JSON expression (see render(e, "json")).

    The document is an Expression's tables: "forms", "heads", "kernels",
    "products" (arrays of form indices), "coeffs" (integer or p/q strings)
    and "terms", whose rows are [head, kernels, product, coeff] indices.
    Key order inside each "n" map records the vertex symbol order used by
    sign normalization. Anything outside the schema raises ExpressionError:
    a missing or extra key, a wrong JSON type, a number that is not an
    integer where one is expected (booleans included), an index out of
    range, a bad coefficient, a repeated kernel, a form that is zero or not
    sign-normalized. The tables need not be canonical: repeated entries and
    rows merge and zero terms drop.
    """
    _object(data, _TABLES, "expression")
    tables = {name: enumerate(_typed(data[name], list, f"expression: {name}"))
              for name in _TABLES}
    forms = tuple(_parse_form(fd, f"forms[{i}]") for i, fd in tables["forms"])
    heads = tuple(_parse_head(hd, f"heads[{i}]") for i, hd in tables["heads"])
    kernel_sets = tuple(_parse_kernels(ks, f"kernels[{i}]") for i, ks in tables["kernels"])
    products = tuple(tuple(_indices(p, itertools.repeat(len(forms)), f"products[{i}]"))
                     for i, p in tables["products"])
    coeffs = [_parse_rational(c, f"coeffs[{i}]") for i, c in tables["coeffs"]]
    sizes = (len(heads), len(kernel_sets), len(products), len(coeffs))
    rows = _index_rows(data["terms"], sizes)
    if rows is None:
        # name the first bad entry
        for i, row in tables["terms"]:
            if len(_indices(row, sizes, f"terms[{i}]")) != len(sizes):
                raise ExpressionError(f"terms[{i}] must have {len(sizes)} indices, got {row!r}")

    # the document's tables as they stand, for the packer to merge and rank
    scale = math.lcm(*(den for _, den in coeffs))
    raw = _frozen(forms, products, heads, kernel_sets,
                  tuple(num * (scale // den) for num, den in coeffs), scale, rows)
    packer = Packer(scale)
    return packer.freeze(packer.pack(raw))


def parse_expression(text: str) -> Expression:
    """from_dict of a JSON text; text that is not JSON raises ExpressionError."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ExpressionError(f"expression is not JSON: {exc}") from None
    return from_dict(data)
