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
    numerator, the rows in (head, kernels, denominators) order.

The tables hold only what the rows use, so equal expressions have equal
fields. _canonical() builds every expression from tables that need not be
canonical and one column of ids per row field: it ranks the tables,
renumbers the columns by array gathers, sorts the rows on one integer key
and merges equal rows with exact sums. It is the one merge-and-sort of the
package: the Term constructor and the engine reach it through a Packer,
whose freeze() flattens interned terms into columns, and add and JSON
parsing call it directly. Rendering, equality and evaluation read the
tables, so each distinct factor is formatted or evaluated once. The JSON
form of an expression is its tables (see from_dict), written by json.dumps
with the rows joined from their ids' decimal strings, and parsed by
checking each table entry once and the rows by columns. Loops over the
rows zip the four columns, read as lists: no Python list is made per row,
so a large expression's rows add no work for the cyclic garbage collector.
`Expression.terms` builds Term tuples on access, for callers that read
terms one at a time.

Everything is an immutable value and all operations are pure functions.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

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


#: Columns of Expression.rows: ids into heads, kernel_sets, products and
#: numerators.
HEAD, KERNELS, PRODUCT, COEFF = range(4)


class Expression:
    """Canonical sum of terms, stored packed (see the module docstring).

    Expression(terms) canonicalizes any iterable of Terms, and `terms` gives
    the canonical terms back. The library itself builds expressions through
    _canonical(); this term-list view stays public because the benchmark's
    self-test and workloads build and read expressions through it.
    """

    __slots__ = ("forms", "products", "heads", "kernel_sets", "numerators", "scale",
                 "rows")

    def __new__(cls, terms: Iterable[Term] = ()) -> "Expression":
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
    terms map kernel tuple -> {shape id: coefficient}, merged as they are
    added; freeze() flattens them into columns for _canonical(), which ranks
    the tables and sorts the rows.
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

    def freeze(self, groups: dict[tuple, dict[int, int]]) -> Expression:
        """The canonical Expression of packed terms, by _canonical(): the
        groups flattened into kernel, shape and coefficient columns, with
        the shapes the terms use as the products. Coefficients may be
        rationals (a rewrite relation with a fractional coefficient); the
        scale absorbs them."""
        counts = [len(terms) for terms in groups.values()]
        shape_col = np.fromiter(itertools.chain.from_iterable(groups.values()), np.int64,
                                sum(counts))
        coeff_col, values = _rank(list(itertools.chain.from_iterable(
            terms.values() for terms in groups.values())))
        shape_col, shapes = _used(shape_col, self.shapes)
        heads = np.array([head for head, _ in shapes], dtype=np.int64)
        return _canonical(self.forms, self.heads, list(groups), [dens for _, dens in shapes],
                          values, self.scale, heads[shape_col],
                          np.repeat(np.arange(len(counts)), counts), shape_col, coeff_col)


def _used(column: np.ndarray, table: Sequence) -> tuple[np.ndarray, list]:
    """The entries of the table that the column uses, in table order, and
    the column renumbered to them."""
    used = np.bincount(column, minlength=len(table)) > 0
    return (used.cumsum() - 1)[column], [table[i] for i in used.nonzero()[0].tolist()]


def _rank(entries: list) -> tuple[np.ndarray, list]:
    """Each entry's rank among the distinct entries, and those in ascending
    order."""
    distinct = sorted(set(entries))
    index = {x: r for r, x in enumerate(distinct)}
    return np.fromiter(map(index.__getitem__, entries), np.int64, len(entries)), distinct


def _ranked(column: np.ndarray, table: Sequence) -> tuple[np.ndarray, list]:
    """The distinct entries the column uses, ascending, and the column
    renumbered to their ranks."""
    column, entries = _used(column, table)
    ranks, distinct = _rank(entries)
    return ranks[column], distinct


def _canonical(forms: Sequence[LinearForm], heads: Sequence[tuple],
               kernel_sets: Sequence[tuple], products: Sequence[Sequence[int]],
               values: Sequence, scale: int, head_col: np.ndarray, kernel_col: np.ndarray,
               product_col: np.ndarray, coeff_col: np.ndarray) -> Expression:
    """The canonical Expression of terms given as columns: term i is
    values[coeff_col[i]] / scale times the head heads[head_col[i]] and the
    kernels kernel_sets[kernel_col[i]], over the forms forms[f] for f in
    products[product_col[i]].

    The tables may repeat entries and hold entries no term uses; a product
    may list its forms in any order and repeat them; the values are ints
    or Fractions. The entries the terms use are ranked, table by table (a
    product by its sorted form ranks), and the columns renumbered to the
    ranks by gathers. The rows are sorted on one combined integer key;
    rows with equal (head, kernels, product) merge with exact sums of
    their values, in Python ints or Fractions. Zero terms drop, and with
    them the table entries only they used. This is the one merge-and-sort
    of the package.
    """
    if not len(coeff_col):
        return EMPTY
    h, heads = _ranked(head_col, heads)
    k, kernel_sets = _ranked(kernel_col, kernel_sets)
    product_col, products = _used(product_col, products)
    form_ids = sorted({f for product in products for f in product})
    ranks, forms = _rank([forms[f] for f in form_ids])
    form_rank = dict(zip(form_ids, ranks.tolist()))
    ranks, products = _rank([tuple(sorted(map(form_rank.__getitem__, product)))
                             for product in products])
    p = ranks[product_col]

    key = h * len(kernel_sets) + k
    if (int(key.max()) + 1) * len(products) >= 1 << 63:
        # the combined key would not fit in int64: number the (head,
        # kernels) pairs first
        key = np.unique(key, return_inverse=True)[1].reshape(-1)
    key = key * len(products) + p
    order = np.argsort(key)
    key, coeff_col = key[order], coeff_col[order]
    new = np.ones(len(key), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    starts = new.nonzero()[0]
    first, coeff = order[starts], coeff_col[starts]
    if len(starts) < len(key):
        # some keys have several rows: one summed value per key
        values = np.add.reduceat(np.array(values, dtype=object)[coeff_col], starts).tolist()
        coeff = np.arange(len(starts))
    coeff, distinct = _ranked(coeff, values)
    rows = np.column_stack([h[first], k[first], p[first], coeff])

    if 0 in distinct:
        zero = distinct.index(0)
        rows = rows[rows[:, COEFF] != zero]
        if not len(rows):
            return EMPTY
        del distinct[zero]
        rows[:, COEFF] -= rows[:, COEFF] > zero
        # drop the entries only zero terms used
        rows[:, HEAD], heads = _used(rows[:, HEAD], heads)
        rows[:, KERNELS], kernel_sets = _used(rows[:, KERNELS], kernel_sets)
        rows[:, PRODUCT], products = _used(rows[:, PRODUCT], products)
        form_ids = sorted({f for product in products for f in product})
        if len(form_ids) < len(forms):
            renumber = dict(zip(form_ids, range(len(form_ids))))
            forms = [forms[f] for f in form_ids]
            products = [tuple(map(renumber.__getitem__, product)) for product in products]

    common = math.lcm(*(c.denominator for c in distinct))
    numerators = [c.numerator * (common // c.denominator) for c in distinct]
    divisor = math.gcd(scale * common, *numerators)
    return _frozen(tuple(forms), tuple(products), tuple(heads), tuple(kernel_sets),
                   tuple(c // divisor for c in numerators), scale * common // divisor, rows)


def add(e1: Expression, e2: Expression) -> Expression:
    """e1 + e2: both expressions' tables and rows concatenated, the second's
    ids shifted past the first's, and canonicalized."""
    scale = math.lcm(e1.scale, e2.scale)
    shift = len(e1.forms)
    products = e1.products + tuple(tuple(f + shift for f in product)
                                   for product in e2.products)
    values = ([c * (scale // e1.scale) for c in e1.numerators]
              + [c * (scale // e2.scale) for c in e2.numerators])
    rows = np.vstack([e1.rows, e2.rows + [len(e1.heads), len(e1.kernel_sets),
                                          len(e1.products), len(e1.numerators)]])
    return _canonical(e1.forms + e2.forms, e1.heads + e2.heads,
                      e1.kernel_sets + e2.kernel_sets, products, values, scale, *rows.T)


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
    d = complex(re, im)
    if d == 0:
        raise ZeroDenominator(f"form {render_form(form, 'text')} vanished")
    return d


def _first_failure(e: Expression, q_values, n_values) -> Exception:
    """What eval_numeric's term loop raises: the first error among the
    factors of the first row that has one, in the loop's order."""
    def error(compute) -> Exception | None:
        try:
            compute()
        except (ArithmeticError, ZeroDenominator) as exc:
            return exc

    coeffs = [[error(lambda: c / e.scale)] for c in e.numerators]
    heads = [[error(lambda: (2.0 * math.pi) ** k)]
             + [error(lambda: float(q_values[l] ** x)) for l, x in q_exponents]
             for k, q_exponents in e.heads]
    forms = [error(lambda: _form_value(f, q_values, n_values)) for f in e.forms]
    products = [[forms[f] for f in product] for product in e.products]
    tables = (coeffs, heads, products)   # a row's factors, in the loop's order
    ids = e.rows[:, [COEFF, HEAD, PRODUCT]].T
    failed = [np.array([any(entry) for entry in table])[i] for table, i in zip(tables, ids)]
    row = int(np.argmax(failed[0] | failed[1] | failed[2]))
    return next(x for table, i in zip(tables, ids) for x in table[i[row]] if x)


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

    A factor that cannot be computed raises what the loop raises: at the
    first term with one, the OverflowError of its coefficient, (2 pi)^k or
    q powers, else ZeroDenominator naming its first form that is zero.
    """
    if e.is_empty():
        return 0j
    # factors in the order the loop meets them in a term
    try:
        coeffs = [c / e.scale for c in e.numerators]
        pi_powers = [(2.0 * math.pi) ** pi_power for pi_power, _ in e.heads]
        powers = [[float(q_values[l] ** exp) for l, exp in q_exponents]
                  for _, q_exponents in e.heads]
        forms = [_form_value(f, q_values, n_values) for f in e.forms]
    except (ArithmeticError, ZeroDenominator):
        raise _first_failure(e, q_values, n_values) from None
    kernel_of = {l: nbe(q_values[l]) for l in sorted({l for ks in e.kernel_sets for l in ks})}
    kernels = [[kernel_of[l] for l in ks] for ks in e.kernel_sets]
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
        # "terms" last, each row written as json.dumps writes a list of
        # ints, from the decimal strings of the ids gathered by columns
        digits = np.array([str(i) for i in range(int(e.rows.max(initial=0)) + 1)], dtype=object)
        rows = "], [".join(map(", ".join, zip(*(digits[ids].tolist() for ids in e.rows.T))))
        terms = f"[{rows}]" if len(e.rows) else ""
        return f'{tables[:-1]}, "terms": [{terms}]}}'
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
    if (operator.countOf(map(type, rows), list) != len(rows)
            or operator.countOf(map(len, rows), len(sizes)) != len(rows)):
        return None
    flat = list(itertools.chain.from_iterable(rows))
    if operator.countOf(map(type, flat), int) != len(flat):
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

    Each table entry is checked once and the rows by columns (see
    _index_rows); the checked tables and the rows' four columns then go to
    _canonical() as they stand, with no work per row in Python.
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

    scale = math.lcm(*(den for _, den in coeffs))
    return _canonical(forms, heads, kernel_sets, products,
                      [num * (scale // den) for num, den in coeffs], scale, *rows.T)


def parse_expression(text: str) -> Expression:
    """from_dict of a JSON text; text that is not JSON raises ExpressionError."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ExpressionError(f"expression is not JSON: {exc}") from None
    return from_dict(data)
