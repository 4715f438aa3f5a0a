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
fields. _canonical() builds an expression from tables that need not be
canonical, one column of ids per table and one exact coefficient column:
it ranks the tables, renumbers the columns by array gathers and merges
equal rows by _merge, the one exact merge of the package (the engine's
walk and normal-form memo use it too). The Term constructor, add and the
engine all call it, and so does JSON parsing for a document that is not
already canonical. Rendering and equality
read the tables, so each distinct factor is formatted once. Evaluation
is planned once per expression: its first call derives integer tables
for whole-array passes over the rows and keeps them with the expression,
outside its value (see eval_rows). Text and LaTeX are laid out as one column of token ids,
each naming a string formatted once, and joined in one pass. The JSON
form of an expression is its tables (see from_dict): json.dumps writes
all but the rows, which are laid out as token ids too, three per row.
Parsing reads a table so laid out from the text as one int64 array (see
_split_terms), json.loads only the rest, checks the forms and kernel sets
by whole-table passes, each head and coefficient once and the products
and rows by columns, and keeps tables that pass one order check (see
_in_order), as those render writes do, as they stand. Loops over the
rows zip the four columns, read as lists: no Python list is made per
row, so a large expression's rows add no work for the cyclic garbage
collector. `Expression.terms` builds Term tuples
on access, for callers that read terms one at a time.

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

from .kernels import ZeroArgument, nbe


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

    The value is the tables alone. The first evaluation stores the
    expression's evaluation plan in a private slot (see eval_rows), which
    equality, hashing, pickling and rendering ignore: an evaluated
    expression and an unevaluated equal one compare and hash equal and
    pickle to the same bytes.
    """

    #: the value's fields; _plan holds the evaluation plan once built
    _FIELDS = ("forms", "products", "heads", "kernel_sets", "numerators", "scale", "rows")
    __slots__ = _FIELDS + ("_plan",)

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
        return _frozen, tuple(getattr(self, name) for name in self._FIELDS)

    def __repr__(self) -> str:
        return f"Expression({render(self)!r})"


def _frozen(forms, products, heads, kernel_sets, numerators, scale, rows) -> Expression:
    rows.flags.writeable = False
    e = object.__new__(Expression)
    for name, value in zip(Expression.__slots__,
                           (forms, products, heads, kernel_sets, numerators, scale, rows, None)):
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
    products[product_col[i]]. Only forms[f] for the f of the products the
    terms use is read, so forms may build each form when it is read.

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

class _Plan(NamedTuple):
    """What evaluating an expression does at every point, as integer tables
    (see eval_rows). Positions index the point's q and N values gathered in
    `lines` and `vertices` order."""

    lines: tuple[int, ...]
    vertices: tuple[str, ...]
    #: the distinct (vertex position, coefficient) pairs of the forms
    n_pairs: tuple[tuple[int, int], ...]
    #: each form's q terms in its term order, then its N terms, padded, as
    #: ids into a point's values: the lines' q, their -q, the n_pairs'
    #: products, then a 0.0 that pads
    terms: np.ndarray
    #: per head, (line position, exponent) for each q power
    powers: tuple[tuple[tuple[int, int], ...], ...]
    #: positions of the kernel lines
    kernel_lines: tuple[int, ...]
    #: the head and coefficient ids of each (head, coefficient) prefix
    prefix_heads: tuple[int, ...]
    prefix_coeffs: tuple[int, ...]
    #: per numerator: its prefix, then per column of the kernel table its
    #: j-th kernel's position among the kernel lines (0 where it has none)
    #: and where it has one, True when all do
    numerator_prefix: np.ndarray
    kernel_columns: tuple[tuple[np.ndarray, np.ndarray | bool], ...]
    #: per row, in row order: its numerator, then per column of the
    #: product table its j-th form (form 0 where it has none) and where its
    #: product has one, True when all do
    row_numerators: np.ndarray
    form_columns: tuple[tuple[np.ndarray, np.ndarray | bool], ...]


def _padded(lengths: np.ndarray, entries, pad: int) -> np.ndarray:
    """Rows of the given lengths as a table padded with `pad`, the rows'
    entries given in order, as ints or an int array."""
    table = np.full((len(lengths), int(lengths.max(initial=0))), pad, dtype=np.intp)
    table[np.arange(table.shape[1]) < lengths[:, None]] = (
        entries if isinstance(entries, np.ndarray)
        else np.fromiter(entries, np.intp, int(lengths.sum())))
    return table


def _lengths(rows: Sequence[Sequence]) -> np.ndarray:
    return np.fromiter(map(len, rows), np.intp, len(rows))


def _masked(table: np.ndarray, lengths: np.ndarray, ids: np.ndarray) -> tuple:
    """Each column of a table padded with a valid id at the ids, contiguous,
    with where the ids' rows reach it: True where all do, so that a full
    column runs no masked loop."""
    lengths = lengths[ids]
    return tuple((column.take(ids), True if (has := lengths > j).all() else has)
                 for j, column in enumerate(table.T.copy()))


def _build_plan(e: Expression) -> _Plan:
    """The plan of a nonempty expression."""
    q_terms, n_terms = [f.q for f in e.forms], [f.n for f in e.forms]
    q_flat = np.fromiter(itertools.chain.from_iterable(itertools.chain.from_iterable(q_terms)),
                         np.intp).reshape(-1, 2)
    kernel_lines = sorted({l for ks in e.kernel_sets for l in ks})
    lines = sorted(set(q_flat[:, 0].tolist()) | set(kernel_lines)
                   | {l for _, q_exponents in e.heads for l, _ in q_exponents})
    line_at = {l: i for i, l in enumerate(lines)}
    n_pairs = tuple(dict.fromkeys(itertools.chain.from_iterable(n_terms)))
    # each form's q terms, then its N terms, as ids into a point's values:
    # the lines' q, their -q, the N terms' values, then a 0.0 that pads
    n_ids = {pair: 2 * len(lines) + i for i, pair in enumerate(n_pairs)}
    terms = _padded(_lengths(q_terms + n_terms), np.concatenate((
        np.searchsorted(lines, q_flat[:, 0]) + (q_flat[:, 1] < 0) * len(lines),
        np.fromiter(map(n_ids.__getitem__, itertools.chain.from_iterable(n_terms)), np.intp))),
        2 * len(lines) + len(n_pairs))
    vertices = tuple(dict.fromkeys(v for v, _ in n_pairs))
    vertex_at = {v: i for i, v in enumerate(vertices)}
    kernel_at = {l: i for i, l in enumerate(kernel_lines)}

    # the rows are sorted by head and kernels: number the runs of one
    # (head, kernels) pair, and find the (run, coefficient) numerators the
    # rows use
    h, k, p, c = e.rows.T
    nc = len(e.numerators)
    starts = _starts(h * len(e.kernel_sets) + k)
    runs = np.cumsum(starts) - 1
    used, row_numerators = _distinct(runs * nc + c, (int(runs[-1]) + 1) * nc)
    run, coeff = np.divmod(used, nc)
    head, kernels = h[starts][run], k[starts][run]
    kernel_count = _lengths(e.kernel_sets)
    kernel_table = _padded(kernel_count, map(kernel_at.__getitem__,
                                             itertools.chain.from_iterable(e.kernel_sets)), 0)
    prefixes, numerator_prefix = _distinct(head * nc + coeff, len(e.heads) * nc)
    prefix_heads, prefix_coeffs = (tuple(ids.tolist()) for ids in np.divmod(prefixes, nc))

    length = _lengths(e.products)
    product_table = _padded(length, itertools.chain.from_iterable(e.products), 0)
    return _Plan(tuple(lines), vertices, tuple((vertex_at[v], c) for v, c in n_pairs), terms,
                 tuple(tuple((line_at[l], x) for l, x in q_exponents)
                       for _, q_exponents in e.heads),
                 tuple(line_at[l] for l in kernel_lines), prefix_heads, prefix_coeffs,
                 numerator_prefix, _masked(kernel_table, kernel_count, kernels),
                 row_numerators, _masked(product_table, length, p))


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
    """What the term loop raises: the first error of the first row that
    has one, its factors computed in the loop's order."""
    for h, k, p, c in e.rows.tolist():
        pi_power, q_exponents = e.heads[h]
        try:
            e.numerators[c] / e.scale
            (2.0 * math.pi) ** pi_power
            for l, x in q_exponents:
                float(q_values[l] ** x)
            for l in e.kernel_sets[k]:
                nbe(q_values[l])
            for f in e.products[p]:
                _form_value(e.forms[f], q_values, n_values)
        except (ArithmeticError, ZeroArgument, ZeroDenominator) as exc:
            return exc


def _gather(values: Mapping, keys: Sequence, what: str) -> list:
    """The values at the keys, in order; a missing one raises
    ExpressionError naming it."""
    try:
        return [values[key] for key in keys]
    except KeyError:
        missing = next(key for key in keys if key not in values)
        raise ExpressionError(f"no value for {what} {missing!r}") from None


def eval_rows(
    e: Expression, q_values: Mapping[int, float], n_values: Mapping[str, float]
) -> np.ndarray:
    """Each row's value at (q, N), in row order, as complex128; eval_numeric
    is their row_sum. Each is bit for bit that of a term-by-term loop:
    complex(coeff * (2 pi)^k) times each q power, then each kernel, in
    turn, divided by each form of its product in turn as CPython's complex
    division does (Smith's method).

    The first call builds the expression's plan (see _Plan) and keeps it
    with the expression; each call then does whole-array passes. The q and
    N values are gathered into vectors, a missing one raising
    ExpressionError. NumPy adds up the form values in each form's term
    order and finds their Smith ratios and scales; Python computes nbe per
    kernel line and, for each of the few (head, coefficient) prefixes of
    the numerators, complex(coeff * (2 pi)^k) times its q powers; NumPy
    multiplies in the numerators' kernels and divides the rows by their
    forms, one column of the padded kernel and product tables at a time,
    in row order, writing only where a numerator or row has that column.
    Building a plan twice, as threads that first evaluate one expression
    at once may, gives equal plans, so whichever is kept is right.

    A factor that cannot be computed raises what the loop raises: at the
    first row with one, the OverflowError of its coefficient, (2 pi)^k or
    q powers, else the ZeroArgument of a kernel whose q is 0, else
    ZeroDenominator naming its first form that is zero.
    """
    if e.is_empty():
        return np.zeros(0, dtype=complex)
    plan = e._plan
    if plan is None:
        plan = _build_plan(e)
        object.__setattr__(e, "_plan", plan)
    q = _gather(q_values, plan.lines, "line")
    n = _gather(n_values, plan.vertices, "vertex")
    # factors in the order the loop meets them in a term
    try:
        bases = [complex(e.numerators[c] / e.scale * (2.0 * math.pi) ** e.heads[h][0])
                 for h, c in zip(plan.prefix_heads, plan.prefix_coeffs)]
        powers = [[float(q[i] ** x) for i, x in head] for head in plan.powers]
        kernels = np.array([nbe(q[i]) for i in plan.kernel_lines], dtype=float)
        values = np.array(q, dtype=float)
        values = np.concatenate((values, -values, [float(c * n[i]) for i, c in plan.n_pairs],
                                 [0.0]))
    except (ArithmeticError, ZeroArgument):
        raise _first_failure(e, q_values, n_values) from None
    # overflow and NaN follow IEEE arithmetic, as in the loop, without warnings
    with np.errstate(all="ignore"):
        parts = np.zeros(len(plan.terms))
        for column in plan.terms.T:
            parts += values[column]
        re, im = parts[:len(e.forms)], parts[len(e.forms):]
        if ((re == 0) & (im == 0)).any():
            raise _first_failure(e, q_values, n_values)

        # x / d is ((x.real * u + x.imag * v) / s, (x.imag * u - x.real * v) / s)
        # with r = d.imag / d.real, (u, v) = (1, r) when |d.real| >= |d.imag|,
        # else r = d.real / d.imag, (u, v) = (r, 1); a NaN part of d makes
        # r and s NaN, as CPython's division does
        by_imag = np.abs(im) > np.abs(re)
        ratio = np.where(by_imag, re / im, im / re)
        scale = np.where(by_imag, re * ratio + im, re + im * ratio)
        u, v = np.where(by_imag, ratio, 1.0), np.where(by_imag, 1.0, ratio)

        prefixes = []
        for value, head in zip(bases, plan.prefix_heads):
            for x in powers[head]:
                value *= x
            prefixes.append(value)
        prefixes = np.array(prefixes, dtype=complex)
        re, im = prefixes.real[plan.numerator_prefix], prefixes.imag[plan.numerator_prefix]
        # CPython multiplies a complex by a float as by complex(x, 0.0)
        for column, has in plan.kernel_columns:
            x = kernels[column]
            a, b = re * x - im * 0.0, re * 0.0 + im * x
            np.copyto(re, a, where=has)
            np.copyto(im, b, where=has)

        a, b = re[plan.row_numerators], im[plan.row_numerators]
        # each step rounded as above, into buffers that every column
        # reuses: a fresh array per step would cost a large expression a
        # page fault per page of it at every point; a row without a j-th
        # form is left as it is
        s, x, y, t, w = np.empty((5, len(a)))
        for column, has in plan.form_columns:
            # the ids are in range, so clipping them leaves them as they are
            scale.take(column, out=s, mode="clip")
            u.take(column, out=x, mode="clip")
            v.take(column, out=y, mode="clip")
            np.multiply(a, x, out=t)
            np.multiply(b, y, out=w)
            t += w
            np.multiply(b, x, out=w)
            y *= a
            w -= y
            np.divide(t, s, out=a, where=has)
            np.divide(w, s, out=b, where=has)
    rows = np.empty(len(a), dtype=complex)
    rows.real, rows.imag = a, b
    return rows


def row_sum(rows: np.ndarray) -> complex:
    """Row values (see eval_rows) added in order from 0j, as the term loop
    adds them, as a Python complex."""
    if not len(rows):
        return 0j
    with np.errstate(all="ignore"):
        total = np.cumsum(rows)[-1]
    # the loop's sum starts at 0j, which makes a total of -0.0 a 0.0
    return complex(float(total.real) + 0.0, float(total.imag) + 0.0)


def eval_numeric(
    e: Expression, q_values: Mapping[int, float], n_values: Mapping[str, float]
) -> complex:
    """Substitute numeric values (q > 0, integer N over non-root vertices):
    the row_sum of eval_rows(e, q_values, n_values), bit for bit the value
    of a term-by-term loop, as a Python complex. A missing q or N value
    raises ExpressionError naming its line or vertex; a factor that cannot
    be computed raises what the loop raises (see eval_rows)."""
    return row_sum(eval_rows(e, q_values, n_values))


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
        # ints, in three tokens: "h, k, " per distinct (head, kernels)
        # pair, "p, " and "c], [", the first and last tokens carrying the
        # rest of the document
        head = f'{tables[:-1]}, "terms": ['
        if e.is_empty():
            return head + "]}"
        nk = len(e.kernel_sets)
        pairs, pair = _distinct(e.rows[:, HEAD] * nk + e.rows[:, KERNELS], len(e.heads) * nk)
        strings = [f"{h}, {k}, " for h, k in zip(*(ids.tolist() for ids in np.divmod(pairs, nk)))]
        strings += [f"{p}, " for p in range(len(e.products))]
        strings += [f"{c}], [" for c in range(len(e.numerators))]
        strings += [f"{head}[{strings[pair[0]]}", f"{e.rows[-1, COEFF]}]]}}"]
        ids = np.empty((len(e.rows), 3), dtype=np.int64)
        ids[:, 0] = pair
        ids[:, 1:] = e.rows[:, PRODUCT:] + [len(pairs), len(pairs) + len(e.products)]
        ids[0, 0], ids[-1, -1] = len(strings) - 2, len(strings) - 1
        return _emit(strings, ids.ravel())
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


def _flat_ints(lists: list, width: int | None = None) -> np.ndarray | None:
    """The entries of a list of arrays, concatenated into an int64 array,
    when every entry is an integer that fits and, given a width, every
    array has that many; else None. Checked in passes over the whole list,
    not array by array. Booleans and floats are not integers."""
    if (operator.countOf(map(type, lists), list) != len(lists)
            or width is not None and operator.countOf(map(len, lists), width) != len(lists)):
        return None
    flat = list(itertools.chain.from_iterable(lists))
    if operator.countOf(map(type, flat), int) != len(flat):
        return None
    try:
        return np.fromiter(flat, np.int64, len(flat))
    except OverflowError:
        return None


def _index_rows(rows: list | np.ndarray, sizes: tuple[int, ...]) -> np.ndarray | None:
    """rows as an int64 array when each is an array of len(sizes) integers,
    the j-th in range(sizes[j]), else None (see _flat_ints). An int64
    array of rows (see _split_terms) is only range-checked."""
    if type(rows) is list:
        rows = _flat_ints(rows, len(sizes))
        if rows is None:
            return None
        rows = rows.reshape(-1, len(sizes))
    return rows if ((rows >= 0) & (rows < sizes)).all() else None


def _runs_ascend(flat: list, lengths: Iterable[int]) -> bool:
    """Whether each run of the list, cut at the lengths, ascends strictly:
    every descent falls where a run starts."""
    starts = set(itertools.accumulate(lengths))
    return starts.issuperset(itertools.compress(
        itertools.count(1), map(operator.ge, flat, itertools.islice(flat, 1, None))))


def _rendered_forms(table: list) -> tuple[LinearForm, ...] | None:
    """The forms of a table whose every entry is in render's layout, else
    None: objects of exactly "n" and "q", each n mapping strings to nonzero
    integers and each q decimal line ids, ascending, to +-1, and each form
    led by a positive coefficient. Checked in passes over the whole table,
    not form by form (see _parse_form)."""
    count = len(table)
    if (operator.countOf(map(type, table), dict) != count
            or operator.countOf(map(len, table), 2) != count):
        return None
    try:
        ns = list(map(operator.itemgetter("n"), table))
        qs = list(map(operator.itemgetter("q"), table))
    except KeyError:
        return None
    if operator.countOf(map(type, ns + qs), dict) != 2 * count:
        return None
    n_keys = list(itertools.chain.from_iterable(ns))
    n_values = list(itertools.chain.from_iterable(map(dict.values, ns)))
    q_keys = list(itertools.chain.from_iterable(qs))
    q_values = list(itertools.chain.from_iterable(map(dict.values, qs)))
    if (operator.countOf(map(type, n_keys), str) != len(n_keys)
            or operator.countOf(map(type, n_values), int) != len(n_values) or 0 in n_values
            or operator.countOf(map(type, q_keys), str) != len(q_keys)
            or operator.countOf(map(type, q_values), int) != len(q_values)
            or operator.countOf(q_values, 1) + operator.countOf(q_values, -1) != len(q_values)):
        return None
    try:
        ids = {key: int(key) for key in set(q_keys)}
    except ValueError:
        return None
    q_ids = list(map(ids.__getitem__, q_keys))
    q_lengths = list(map(len, qs))
    # a form's lead: its first N coefficient, or its first q's with none
    leads = [next(iter((n or q).values())) for n, q in zip(ns, qs) if n or q]
    if (not all(map(operator.eq, map(str, ids.values()), ids))
            or not _runs_ascend(q_ids, q_lengths)
            or len(leads) != count or min(leads, default=1) < 0):
        return None
    starts = list(itertools.accumulate(q_lengths, initial=0))
    pairs = list(zip(q_ids, q_values))
    return tuple(map(LinearForm, map(tuple, map(dict.items, ns)),
                     map(tuple, map(pairs.__getitem__, map(slice, starts, starts[1:])))))


def _rendered_kernels(table: list) -> tuple[tuple[int, ...], ...] | None:
    """The kernel sets of a table whose every entry is an array of integers
    in strictly ascending order, as render writes them, else None. Checked
    in passes over the whole table (see _flat_ints and _parse_kernels)."""
    flat = _flat_ints(table)
    if flat is None or not _runs_ascend(flat.tolist(), map(len, table)):
        return None
    return tuple(map(tuple, table))


def _ascending(table: Sequence) -> bool:
    return all(map(operator.lt, table, itertools.islice(table, 1, None)))


def _in_order(forms: tuple, heads: tuple, kernel_sets: tuple, products: tuple,
              form_ids: np.ndarray, numerators: list[int], scale: int, rows: np.ndarray) -> bool:
    """Whether _canonical would return checked tables and rows as they
    stand: the rows strictly ascending in (head, kernels, product), each
    table strictly ascending, each product's form ids (concatenated in
    form_ids) non-decreasing, every entry used, and no numerator zero and
    no factor of the scale common to all. Also False when the rows'
    (head, kernels, product) key would not fit int64."""
    sizes = (len(heads), len(kernel_sets), len(products), len(numerators))
    if not (math.prod(sizes[:COEFF]) <= _INT64_MAX and _ascending(forms)
            and _ascending(heads) and _ascending(kernel_sets) and _ascending(products)
            and _ascending(numerators) and 0 not in numerators
            and math.gcd(scale, *numerators) == 1):
        return False
    h, k, p, _ = rows.T
    key = (h * sizes[KERNELS] + k) * sizes[PRODUCT] + p
    product_of = np.repeat(np.arange(len(products)), _lengths(products))
    return bool((key[1:] > key[:-1]).all()
                and (np.diff(product_of * len(forms) + form_ids) >= 0).all()
                and np.bincount(form_ids, minlength=len(forms)).all()
                and all(np.bincount(column, minlength=size).all()
                        for column, size in zip(rows.T, sizes)))


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

    Forms and kernel sets in render's layout are checked by whole-table
    passes (see _rendered_forms and _rendered_kernels), and a table not in
    it entry by entry; each head and coefficient is checked once, and the
    products and rows by columns (see _flat_ints), the rows as one int64
    array. Tables and rows already in canonical order, as render writes
    them, pass one order check (_in_order) and make the Expression as they
    stand; those of any other document, and the array's four columns, go
    to _canonical(), with no work per row in Python. parse_expression
    reads the rows of a rendered document as that array straight from its
    text.
    """
    return _from_tables(data)


def _from_tables(data: dict, rows: np.ndarray | None = None) -> Expression:
    """from_dict(data), or, given rows, from_dict of data with its empty
    "terms" table replaced by the rows of that int64 array."""
    _object(data, _TABLES, "expression")
    tables = {name: _typed(data[name], list, f"expression: {name}") for name in _TABLES}
    # a table not in render's layout is read entry by entry (an empty one
    # reads the same either way)
    forms = _rendered_forms(tables["forms"]) or tuple(
        _parse_form(fd, f"forms[{i}]") for i, fd in enumerate(tables["forms"]))
    heads = tuple(_parse_head(hd, f"heads[{i}]") for i, hd in enumerate(tables["heads"]))
    kernel_sets = _rendered_kernels(tables["kernels"]) or tuple(
        _parse_kernels(ks, f"kernels[{i}]") for i, ks in enumerate(tables["kernels"]))
    form_ids = _flat_ints(tables["products"])
    if form_ids is None or not ((form_ids >= 0) & (form_ids < len(forms))).all():
        # name the first bad entry
        for i, p in enumerate(tables["products"]):
            _indices(p, itertools.repeat(len(forms)), f"products[{i}]")
    products = tuple(map(tuple, tables["products"]))
    coeffs = [_parse_rational(c, f"coeffs[{i}]") for i, c in enumerate(tables["coeffs"])]
    sizes = (len(heads), len(kernel_sets), len(products), len(coeffs))
    terms = tables["terms"] if rows is None else rows
    rows = _index_rows(terms, sizes)
    if rows is None:
        # name the first bad entry
        for i, row in enumerate(terms if type(terms) is list else terms.tolist()):
            if len(_indices(row, sizes, f"terms[{i}]")) != len(sizes):
                raise ExpressionError(f"terms[{i}] must have {len(sizes)} indices, got {row!r}")

    scale = math.lcm(*(den for _, den in coeffs))
    values = [num * (scale // den) for num, den in coeffs]
    if _in_order(forms, heads, kernel_sets, products, form_ids, values, scale, rows):
        return _frozen(forms, products, heads, kernel_sets, tuple(values), scale, rows)
    return _canonical(forms, heads, kernel_sets, products, scale, *rows.T[:COEFF],
                      _column(values)[rows[:, COEFF]])


#: The "terms" key, and a row of its table in render's layout with the
#: digits deleted.
_TERMS_KEY = '"terms": ['
_ROW_SKELETON = b"[, , , ], "
_DIGITS = b"0123456789"
#: The rows' punctuation as spaces, which np.fromstring skips.
_SPACES = bytes.maketrans(b"[],", b"   ")
#: Ids are read up to _MAX_ID; one below it has 1 + (the powers it reaches)
#: digits.
_MAX_ID = 10 ** 18
_POWERS = 10 ** np.arange(1, 18, dtype=np.int64)


def _split_terms(text: str) -> tuple[str, np.ndarray] | None:
    """The document with an empty "terms" table, and its rows as an (n, 4)
    int64 array, when the text ends as render writes the table: the last
    '"terms": [' key, then rows "[a, b, c, d]" of non-negative integers
    with no leading zeros joined by ", ", then "]}" and JSON whitespace.
    Else None.

    Such a tail holds no '"', so the key is not inside a string unless its
    quote is escaped; and it ends the document, so the key is the top-level
    object's last, the one json.loads keeps. The rows are read by bytes:
    with the digits deleted they must be the skeleton "[, , , ], " n times,
    and the 4n values np.fromstring reads must be below 10**18 and have as
    many digits as the text, which rejects leading zeros and values too
    long to read exactly.
    """
    end = len(text)
    while end and text[end - 1] in " \t\n\r":
        end -= 1
    start = text.rfind(_TERMS_KEY, 0, end)
    if start < 1 or text[start - 1] == "\\" or not text.endswith("]}", 0, end):
        return None
    head = text[:start] + '"terms": []}'
    if end - start == len(_TERMS_KEY) + 2:
        return head, np.empty((0, 4), dtype=np.int64)
    try:
        body = text[start + len(_TERMS_KEY):end - 2].encode("ascii")
    except UnicodeEncodeError:
        return None
    skeleton = body.translate(None, _DIGITS)
    count = (len(skeleton) + 2) // len(_ROW_SKELETON)
    digits = len(body) - len(skeleton)
    if skeleton + b", " != _ROW_SKELETON * count:
        return None
    values = np.fromstring(body.translate(_SPACES), dtype=np.int64, sep=" ")
    if (len(values) != 4 * count or values.max() >= _MAX_ID
            or np.searchsorted(_POWERS, values, side="right").sum() + len(values) != digits):
        return None
    return head, values.reshape(count, 4)


def parse_expression(text: str) -> Expression:
    """from_dict of a JSON text; text that is not JSON raises ExpressionError.

    A text whose "terms" table is laid out as render writes it has the
    table read from the text as an int64 array, and only the rest parsed
    by json.loads (see _split_terms); any other text is parsed whole. Both
    give the same Expression, or raise the same error.
    """
    split = _split_terms(text) if type(text) is str else None
    if split is not None:
        try:
            data = json.loads(split[0])
        except (json.JSONDecodeError, RecursionError):
            pass    # parsed whole below, so that the error names the text
        else:
            return _from_tables(data, split[1])
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ExpressionError(f"expression is not JSON: {exc}") from None
    return from_dict(data)
