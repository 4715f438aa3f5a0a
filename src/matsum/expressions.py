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
canonical, one column of ids per table and one exact coefficient column:
it ranks the tables, renumbers the columns by array gathers and merges
equal rows by _merge, the one exact merge of the package (the engine's
walk and normal-form memo use it too). The Term constructor, add, JSON
parsing and the engine all call it. Rendering, equality
and evaluation read the tables, so each distinct factor is formatted or
evaluated once. Text and LaTeX are laid out as one column of token ids,
each naming a string formatted once, and joined in one pass. The JSON form of an expression is its tables (see
from_dict), written by json.dumps with the rows joined from their ids'
decimal strings, and parsed by checking each table entry once and the
rows by columns. Loops over the rows zip the four columns, read as lists:
no Python list is made per row, so a large expression's rows add no work
for the cyclic garbage collector. `Expression.terms` builds Term tuples on
access, for callers that read terms one at a time.

Everything is an immutable value and all operations are pure functions.
"""

from __future__ import annotations

import bisect
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
        # one table entry per term: its denominators, concatenated, are
        # the forms, and its product is their index range
        terms = tuple(terms)
        scale = math.lcm(*(t.coeff.denominator for t in terms))
        starts = itertools.accumulate((len(t.denominators) for t in terms), initial=0)
        ids = np.arange(len(terms))
        return _canonical([f for t in terms for f in t.denominators],
                          [(t.pi_power, t.q_exponents) for t in terms],
                          [t.kernels for t in terms],
                          [range(start, start + len(t.denominators))
                           for t, start in zip(terms, starts)], scale, ids, ids, ids,
                          _column([t.coeff.numerator * (scale // t.coeff.denominator)
                                   for t in terms]))

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


def _used(column: np.ndarray, table: Sequence) -> tuple[np.ndarray, list]:
    """The entries of the table that the column uses, in table order, and
    the column renumbered to them."""
    used = np.bincount(column, minlength=len(table)) > 0
    if used.all():
        return column, table
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


def _starts(key: np.ndarray) -> np.ndarray:
    """Where the runs of equal values of a column start, as a mask."""
    starts = np.empty(len(key), dtype=bool)
    starts[:1] = True
    np.not_equal(key[1:], key[:-1], out=starts[1:])
    return starts


def _distinct(key: np.ndarray, size: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a column, ascending, and each entry's index
    among them. Integers in range(size) are marked in a flat table of the
    range, unless it would be sparse; other columns (no size) are sorted."""
    if size is None or size > 8 * len(key):
        return np.unique(key, return_inverse=True)
    marked = np.zeros(size, dtype=bool)
    marked[key] = True
    return np.flatnonzero(marked), (np.cumsum(marked) - 1)[key]


def _canonical(forms: Sequence[LinearForm], heads: Sequence[tuple],
               kernel_sets: Sequence[tuple], products: Sequence[Sequence[int]], scale: int,
               head_col: np.ndarray, kernel_col: np.ndarray, product_col: np.ndarray,
               coeff: np.ndarray) -> Expression:
    """The canonical Expression of terms given as columns: term i is
    coeff[i] / scale times the head heads[head_col[i]] and the kernels
    kernel_sets[kernel_col[i]], over the forms forms[f] for f in
    products[product_col[i]].

    The tables may repeat entries and hold entries no term uses; a product
    may list its forms in any order and repeat them; the coefficients are
    an exact column (see _column). The entries the terms use are ranked,
    table by table (a product by its sorted form ranks), and the columns
    renumbered to the ranks by gathers; _merge then sorts the rows and
    merges equal ones. Zero terms drop, and with them the table entries
    only they used.
    """
    if not len(coeff):
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
    h, k, p, coeff = _merge((h, k, p, coeff), (len(heads), len(kernel_sets), len(products)))
    if not len(coeff):
        return EMPTY
    # drop the entries only zero terms used
    h, heads = _used(h, heads)
    k, kernel_sets = _used(k, kernel_sets)
    count = len(products)
    p, products = _used(p, products)
    if len(products) < count:
        form_ids = sorted({f for product in products for f in product})
        renumber = dict(zip(form_ids, range(len(form_ids))))
        forms = [forms[f] for f in form_ids]
        products = [tuple(map(renumber.__getitem__, product)) for product in products]
    low = int(coeff.min()) if coeff.dtype != object else 0
    if coeff.dtype != object and int(coeff.max()) - low <= _INT64_MAX:
        # int64 values whose range fits int64: ranked from the least
        distinct, c = _distinct(coeff - low, int(coeff.max()) - low + 1)
        distinct = (distinct + low).tolist()
    else:
        distinct, c = _distinct(coeff)
        distinct = distinct.tolist()
    rows = np.empty((len(coeff), 4), dtype=np.int64)
    rows[:, HEAD], rows[:, KERNELS], rows[:, PRODUCT], rows[:, COEFF] = h, k, p, c

    common = math.lcm(*(c.denominator for c in distinct))
    numerators = [c.numerator * (common // c.denominator) for c in distinct]
    divisor = math.gcd(scale * common, *numerators)
    return _frozen(tuple(forms), tuple(products), tuple(heads), tuple(kernel_sets),
                   tuple(c // divisor for c in numerators), scale * common // divisor, rows)


def _merge(columns: tuple, sizes: Sequence[int]) -> tuple:
    """Rows with equal ids merged by exact sums on one sorted integer key,
    zero rows dropped. The columns are id columns, the j-th below
    sizes[j], then an exact coefficient column (see _column)."""
    *ids, coeff = columns
    if len(coeff) > 1:
        key = ids[0]
        wide = math.prod(sizes) > _INT64_MAX
        for column, size in zip(ids[1:], sizes[1:]):
            if size == 1:   # all zero
                continue
            if wide and (int(key.max()) + 1) * size > _INT64_MAX:
                # the combined key would not fit: number the prefixes first
                key = np.unique(key, return_inverse=True)[1].reshape(-1)
            key = key * size + column
        order = key.argsort()
        key = key[order]
        starts = _starts(key)
        if starts.all():
            ids, coeff = [column[order] for column in ids], coeff[order]
        else:
            starts = np.flatnonzero(starts)
            # each sum has at most len(key) terms
            coeff = np.add.reduceat(_exact(coeff[order], len(key)), starts)
            ids = [column[order[starts]] for column in ids]
    keep = coeff != 0
    if keep.all():
        return (*ids, coeff)
    return tuple(column[keep] for column in ids) + (coeff[keep],)


_INT64_MAX = (1 << 63) - 1


def _exact(coeff: np.ndarray, factor: int) -> np.ndarray:
    """The coefficients as objects when the largest |coefficient| times
    `factor` (a multiplier, or the number of values summed) passes int64."""
    if (factor > 1 and coeff.dtype != object and len(coeff)
            and int(np.abs(coeff).max()) * factor > _INT64_MAX):
        return coeff.astype(object)
    return coeff


def _fits(values: Sequence) -> bool:
    """Whether the exact values are ints that fit int64."""
    return not values or (set(map(type, values)) == {int}
                          and -_INT64_MAX <= min(values) and max(values) <= _INT64_MAX)


def _column(values: Sequence) -> np.ndarray:
    """Exact values (ints and Fractions) as an int64 column if they are
    ints that all fit, else as objects."""
    if _fits(values):
        return np.array(values, dtype=np.int64)
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


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
    return _canonical(e1.forms + e2.forms, e1.heads + e2.heads, e1.kernel_sets + e2.kernel_sets,
                      products, scale, *rows.T[:COEFF], _column(values)[rows[:, COEFF]])


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
    """What eval_numeric's term loop raises: the first error of the first
    row that has one, its factors computed in the loop's order."""
    for h, _, p, c in e.rows.tolist():
        pi_power, q_exponents = e.heads[h]
        try:
            e.numerators[c] / e.scale
            (2.0 * math.pi) ** pi_power
            for l, x in q_exponents:
                float(q_values[l] ** x)
            for f in e.products[p]:
                _form_value(e.forms[f], q_values, n_values)
        except (ArithmeticError, ZeroDenominator) as exc:
            return exc


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
    # (head, kernels) pair, and find the (run, coefficient) pairs the rows
    # use
    key = h * len(e.kernel_sets) + k
    starts = _starts(key)
    runs = np.cumsum(starts) - 1
    used, inverse = _distinct(runs * len(coeffs) + c, (int(runs[-1]) + 1) * len(coeffs))
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
    z = np.array(numerators)[inverse]
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


#: Tokens gathered per step of _emit.
_CHUNK = 1 << 16


def _emit(strings: Sequence[str], ids: np.ndarray) -> str:
    """The strings at the ids, joined: the ids are gathered a chunk at a
    time and the output is built by one join."""
    table = np.empty(len(strings), dtype=object)
    table[:] = strings
    parts: list[str] = []
    for start in range(0, len(ids), _CHUNK):
        parts += table[ids[start:start + _CHUNK]].tolist()
    return "".join(parts)


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
    1/2^I of the prefactor reads as the 2q_i.

    Each product is a group: an opener, its rows by kernel count and then
    kernels, and a closer that writes the product. A row's token is its
    piece (first in its group, sign shown, coefficient, kernels); each
    distinct piece, opener and closer is formatted once, and the tokens
    are laid out in one id column for _emit.
    """
    ((pi_power, qexp),) = e.heads
    nlines = len(qexp)
    text = fmt == "text"
    if text:
        two_pi = "2π" if pi_power == 1 else f"(2π)^{pi_power}" if pi_power else "1"
        denom = "·".join(f"2q{l}" for l, _ in qexp)
        prefix = f"({two_pi}/({denom}))[" if nlines else f"{two_pi}["
        opener, suffix = "(", "]"
    else:
        two_pi = "2\\pi" if pi_power == 1 else f"(2\\pi)^{{{pi_power}}}" if pi_power else "1"
        denom = " \\, ".join(f"2q_{{{l}}}" for l, _ in qexp)
        prefix = (f"\\frac{{{two_pi}}}{{{denom}}}" if nlines else two_pi) + "\\left["
        opener, suffix = "\\frac{", "\\right]"

    # the rows by product, then kernel rank; every product is used, so the
    # groups are the products in order and a row's group is its product
    kernel_sets, nk, nc = e.kernel_sets, len(e.kernel_sets), len(e.numerators)
    kernel_rank = np.empty(nk, dtype=np.int64)
    kernel_rank[sorted(range(nk), key=lambda k: len(kernel_sets[k]))] = np.arange(nk)
    rows = e.rows[(e.rows[:, PRODUCT] * nk + kernel_rank[e.rows[:, KERNELS]]).argsort()]
    products, kernels, coeffs = rows[:, PRODUCT], rows[:, KERNELS], rows[:, COEFF]
    sizes = np.bincount(products, minlength=len(e.products))
    starts = sizes.cumsum() - sizes
    # the numerators ascend, so the negative ones come first; a group whose
    # rows are all negative is shown negated
    negative = coeffs < bisect.bisect_left(e.numerators, 0)
    group_negative = np.logical_and.reduceat(negative, starts)
    # a row's piece: (first in its group, sign shown, coefficient, kernels)
    span = nc * nk
    key = ((negative != group_negative[products]) * nc + coeffs) * nk + kernels
    key[starts] += 2 * span
    used, piece = _distinct(key, 4 * span)

    joiner = "*" if text else " "
    shown = [_ratio_str(abs(c) << nlines, e.scale) for c in e.numerators]
    unit = [abs(c) << nlines == e.scale for c in e.numerators]
    kernel_text: dict[int, str] = {}
    strings = []
    for u in used.tolist():
        flags, c = divmod(u, span)
        c, k = divmod(c, nk)
        body = kernel_text.get(k)
        if body is None:
            body = kernel_text[k] = joiner.join(_kernel_bits(kernel_sets[k], fmt))
        # a unit coefficient is not shown before kernels
        if not body:
            body = shown[c]
        elif not unit[c]:
            body = shown[c] + joiner + body
        strings.append(_PREFIX[flags >= 2, flags % 2 == 1] + body)

    # then the openers of the groups after the first, plain and negated,
    # and the closers; the first opener and the last closer carry the
    # prefix and the suffix
    forms = [f"({render_form(f, fmt)})" for f in e.forms]
    sep = "·" if text else ""
    close = ")/{}" if text else "}}{{{}}}"
    closers = [close.format(sep.join(forms[f] for f in product)) if product else ")"
               for product in e.products]
    closers[-1] += suffix
    first_opener = "(" if not e.products[0] or text else opener
    shift = len(strings)
    strings += [_PREFIX[False, False] + opener, _PREFIX[False, True] + opener, *closers,
                prefix + _PREFIX[True, bool(group_negative[0])] + first_opener]

    # group g's opener, rows and closer come after the 2g openers and
    # closers of the earlier groups
    group = np.arange(len(e.products))
    opens = starts + 2 * group
    ids = np.empty(len(rows) + 2 * len(group), dtype=np.int64)
    ids[np.arange(1, len(rows) + 1) + 2 * products] = piece
    ids[opens] = shift + group_negative
    ids[opens + sizes + 1] = shift + 2 + group
    ids[0] = len(strings) - 1
    return _emit(strings, ids)


def _render_plain(e: Expression, fmt: str) -> str:
    """Term by term: |coeff|, (2 pi)^k, q powers, kernels and 1/(form)s
    joined, each term signed; four tokens per row, laid out for _emit."""
    text = fmt == "text"
    joiner = "·" if text else " \\, "
    coeffs = [_PREFIX[False, c < 0] + _ratio_str(abs(c), e.scale) for c in e.numerators]
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
    strings = coeffs + heads + kernels + products
    ids = e.rows[:, [COEFF, HEAD, KERNELS, PRODUCT]] + np.cumsum(
        [0, len(coeffs), len(heads), len(kernels)])
    # the first term's sign has no separator
    c = e.numerators[e.rows[0, COEFF]]
    strings.append(_PREFIX[True, c < 0] + _ratio_str(abs(c), e.scale))
    ids[0, 0] = len(strings) - 1
    return _emit(strings, ids.ravel())


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
    values = _column([num * (scale // den) for num, den in coeffs])
    return _canonical(forms, heads, kernel_sets, products, scale, *rows.T[:COEFF],
                      values[rows[:, COEFF]])


def parse_expression(text: str) -> Expression:
    """from_dict of a JSON text; text that is not JSON raises ExpressionError."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ExpressionError(f"expression is not JSON: {exc}") from None
    return from_dict(data)
