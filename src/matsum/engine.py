"""Closed-form evaluation pipeline for graph-indexed Matsubara sums.

Stages, per graph G with V vertices, I lines and cycle rank L = I - V + 1:

  1. For each spanning tree, take each tree line's fundamental cut once.
     Summing the vertex constraints over a cut's side solves for the
     tree-line variables: n_j = sum_v a_v N_v + sum_l b_l n_l over the
     non-tree lines l (solve_tree). The cuts a non-tree line crosses give its
     fundamental cycle, and the cycle's member ranked highest by a hierarchy
     of regulator magnitudes fixes its regulator sign eps_l = +-1
     (TreeSolution.epsilon).
  2. Each tree contributes (2 pi)^L * prod_k 1/(2 q_k) times the product over
     tree lines j of the reflection-difference pair of
     1/(q_j + sum_l eps_l b_l q_l - i sum_v a_v N_v)       (tree_product).
     Up to sign, that denominator is a cut form of j's fundamental bond, and
     the pair flips q_j in it alone. Summing over trees gives the integral
     evaluation (matsubara_integral).
  3. The sum evaluation follows either by applying the thermal operator
     sum over non-cutset line subsets S of prod_{i in S} nbe_i (1 - R_i)
     to the integral (operator route), or tree by tree with the operator
     restricted to non-tree lines (direct route) (matsubara_sum).

The tree products are a basis, not a normal form: different regulator
hierarchies give different, equally valid sums of them. Every result is
therefore brought to one normal form, determined by the graph alone
(normal_form). Every denominator is a cut form i*N(S) + sum_l +-q_l over
the lines crossing a bond of the graph; these forms, in a fixed order (forms
whose q's share one sign first), make up the cut arrangement, and each
product of denominators is rewritten into the arrangement's
no-broken-circuit basis (Orlik and Terao, Nagoya Math. J. 134 (1994)). The
basis is unique, so structural equality of results is equality of
functions, and it does not depend on the hierarchy or the route. Broken
circuits are found by a batched search over the bonds in floats, and the
products it cannot settle exactly go to one exact search. The normal form
can be much longer than the tree basis on long cycles, so one call
searches at most MAX_REDUCED_PRODUCTS products and raises
NormalFormTooLarge past that.

Both routes, apply_operator for any operator and tree_product share one
per-call _Arrangement, which owns the forms and their tables (built once,
with the forms), the products, the (head, kernels) groups, the memo of
broken-circuit rewrites and the reflections. Form ids are the
arrangement's ranks: tree products are built in them (looked up by bond
and sign pattern), and an input Expression is packed from its tables into
them, a form outside the arrangement raising NotACutForm. A product id
names a sorted tuple of form ranks, and packed terms are three columns
(_Terms): group id, product id and an integer coefficient over a common
denominator. R_i flips i's bit of each cut form's sign pattern; on product
ids it is a gather through the line's product-id map, filled once per new
product, and its only sign is the parity of q_i in the group's head. Each
factor nbe_i (1 - R_i) runs on the columns of a whole level of the walk.
Rows are rewritten to normal form by one fixed-point loop
(_Arrangement.normalize), each pass searching its new products in one
batch and expanding its rows one rewrite step: on a walk's input and at
every level of it, by both routes. Equal rows are merged, zeros dropped,
by the package's one exact merge (expressions._merge).
Coefficients stay exact: int64 while a bound on every product and sum of
the level fits, Python ints and Fractions in an object column otherwise.
Nothing is put in canonical order during the walk: each route freezes its
columns into an Expression once (_Arrangement.freeze). A walk holds at most
MAX_TERMS terms and raises TooManyTerms past that.

Cutset subsets of reflection-differences annihilate the integral: the
normal form of the image is empty (annihilator_check), which is what
collapses the full 2^I-term operator to the reduced one.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import expressions as ex
from . import graph as gr
from .expressions import Expression
from .graph import LineSubset, MatsubaraGraph


class OmegaForm(NamedTuple):
    """n_j = sum_v n_part[v] * N_v + sum_l line_part[l] * n_l (root eliminated)."""

    n_part: tuple[tuple[str, int], ...]
    line_part: tuple[tuple[int, int], ...]

    def value(self, n_values, line_values):
        """n_j at the given N values and values of the independent variables."""
        return sum(a * n_values[v] for v, a in self.n_part) + sum(
            b * line_values[l] for l, b in self.line_part)


class TreeSolution(NamedTuple):
    tree: LineSubset
    omega: dict[int, OmegaForm]
    epsilon: dict[int, int]


class OperatorSpec(NamedTuple):
    """Thermal operator of a graph as a list of line subsets; subset S
    stands for the summand prod_{i in S} nbe_i (1 - R_i), the empty subset
    for 1. apply_operator returns its image in normal form over the graph's
    cut arrangement."""

    subsets: tuple[LineSubset, ...]
    graph: MatsubaraGraph

    def __len__(self) -> int:
        return len(self.subsets)


def solve_tree(
    graph: MatsubaraGraph, tree: Iterable[int], hierarchy: Sequence[int] | None = None
) -> TreeSolution:
    """Solve the vertex constraints along a spanning tree and fix the
    regulator signs, both from the tree lines' fundamental cuts.

    For tree line j, summing the constraints over the side of its fundamental
    cut gives n_j = sum_{v in side} N_v - sum_{crossing l != j} sign_l n_l;
    with the root N eliminated through sum_v N_v = 0, the N-part is +-1 on
    the cut's root-free side. The fundamental cycle of a non-tree line l is
    (l, +1) and (j, -sign_l) for each tree line j whose cut l crosses; eps_l
    is the sign of its member ranked highest by the hierarchy of regulator
    magnitudes (default: ascending line id). Raises GraphError when the
    lines are not a spanning tree or the hierarchy is not a permutation of
    the line ids.
    """
    if hierarchy is not None and sorted(hierarchy) != sorted(graph.line_ids):
        raise gr.GraphError("hierarchy must be a permutation of the line ids")
    rank = {lid: pos for pos, lid in enumerate(graph.line_ids if hierarchy is None else hierarchy)}
    tree_ids = tuple(sorted(tree))
    if (len(tree_ids) != graph.num_vertices - 1
            or gr.is_cutset(graph, set(graph.line_ids) - set(tree_ids))):
        raise gr.GraphError(f"lines {list(tree_ids)} are not a spanning tree")
    omega: dict[int, OmegaForm] = {}
    cycles = {l: [(l, 1)] for l in graph.line_ids if l not in tree_ids}
    for j in tree_ids:
        side, crossing = gr.fundamental_cutset(graph, tree_ids, j)
        root_in = graph.root in side
        line_part = tuple(sorted((l, -sign) for l, sign in crossing.items() if l != j))
        omega[j] = OmegaForm(tuple((v, -1 if root_in else 1) for v in graph.vertices[:-1]
                                   if (v in side) != root_in), line_part)
        for l, b in line_part:
            cycles[l].append((j, b))
    epsilon = {l: min(cycle, key=lambda member: rank[member[0]])[1]
               for l, cycle in cycles.items()}
    return TreeSolution(tree_ids, omega, epsilon)


def tree_product(graph: MatsubaraGraph, solution: TreeSolution) -> Expression:
    """Contribution of one spanning tree to the integral, in the tree basis.

    Each tree line j supplies the denominator
    q_j + sum_l eps_l b_l q_l - i sum_v a_v N_v, substituting the regulated
    saddle i eps_l q_l for each independent variable; the reflection pair
    (1 + R_j) on the folded terms realizes the bare difference
    1/(q_j - i Omega_j) - 1/(-q_j - i Omega_j). The result has 2^(V-1)
    terms and depends on the regulator signs of the solution.
    """
    arrangement, total = _tree_products(graph, [solution])
    return arrangement.freeze(total, 2 ** graph.num_lines)


def _tree_forms(arrangement: "_Arrangement",
                solution: TreeSolution) -> tuple[int, list[int], list[int]]:
    """A tree product's base term (2 pi)^L / prod_k (2 q_k) over the tree
    lines' denominators, as its sign and the ranks of its forms, and the
    ranks of those forms with q_j flipped for their tree line j. Line j's
    denominator, with N-part a N(S) (a = +-1, S its fundamental bond's
    root-free side), is s = -a times the cut form
    i N(S) + s (q_j + sum_l eps_l b_l q_l)."""
    sign, forms, flipped = 1, [], []
    for j in solution.tree:
        om = solution.omega[j]
        s = -om.n_part[0][1]
        q = ((j, s),) + tuple((l, s * solution.epsilon[l] * b) for l, b in om.line_part)
        rank = arrangement.cut_rank(frozenset(v for v, _ in om.n_part),
                                    [l for l, c in q if c < 0])
        sign *= s
        forms.append(rank)
        flipped.append(int(arrangement.flips[arrangement.line_position[j], rank]))
    return sign, forms, flipped


def tree_integral(graph: MatsubaraGraph, solution: TreeSolution) -> Expression:
    """Contribution of one spanning tree to the integral evaluation: the
    normal form (see normal_form) of its tree_product. The contributions of
    all trees add up to matsubara_integral."""
    arrangement, total = _tree_products(graph, [solution])
    return arrangement.freeze(arrangement.normalize_all(total), 2 ** graph.num_lines)


def matsubara_integral(
    graph: MatsubaraGraph, hierarchy: Sequence[int] | None = None
) -> Expression:
    """Closed-form evaluation of the Matsubara integral: the tree products
    of all spanning trees, summed and brought to normal form once. The
    result does not depend on the regulator hierarchy."""
    arrangement, total = _tree_products(graph, [
        solve_tree(graph, tree, hierarchy) for tree in gr.enumerate_spanning_trees(graph)])
    return arrangement.freeze(arrangement.normalize_all(total), 2 ** graph.num_lines)


def _tree_products(graph: MatsubaraGraph, solutions: Sequence[TreeSolution]):
    """The packed tree products of the solutions' trees over the graph's
    cut arrangement, unmerged, 2^(V-1) rows per tree in the solutions'
    order: all in one group, of head (2 pi)^L / prod_k q_k and no kernels,
    coefficients over 2^I.

    A tree product is its base term (see _tree_forms) times (1 + R_j) for
    each tree line j. No other line's form has q_j and the head is odd in
    q_j, so (1 + R_j) pairs j's form (+1) with its q_j-flipped form (-1);
    the terms are the pairs' products, built for all trees at once."""
    arrangement = _Arrangement(graph)
    group = arrangement.group(
        ((gr.cycle_rank(graph), tuple((lid, -1) for lid in graph.line_ids)), ()))
    signs, forms, flipped = zip(*(_tree_forms(arrangement, s) for s in solutions))
    k = graph.num_vertices - 1
    # term t of a tree takes tree line j's flipped form where bit j of t is set
    bits = np.arange(1 << k)[:, None] >> np.arange(k) & 1
    ranks = np.where(bits, np.array(flipped)[:, None, :], np.array(forms)[:, None, :])
    products = arrangement.intern(np.sort(ranks, axis=2).reshape(-1, k))
    coeff = (np.array(signs)[:, None] * (1 - 2 * (bits.sum(axis=1) & 1))).reshape(-1)
    return arrangement, _Terms(np.full(len(products), group), products, coeff)


def normal_form(graph: MatsubaraGraph, e: Expression) -> Expression:
    """The normal form of an expression over the graph's cut arrangement.

    Every denominator product is rewritten into the no-broken-circuit basis
    of the arrangement (see _Arrangement), so two expressions of the graph
    are the same function iff their normal forms are equal. Normalizing
    twice changes nothing. Raises NotACutForm for a denominator that is not
    a cut form of the graph, and NormalFormTooLarge when the rewriting needs
    more than MAX_REDUCED_PRODUCTS products.
    """
    arrangement = _Arrangement(graph)
    return arrangement.freeze(arrangement.normalize_all(arrangement.pack(e)), e.scale)


# ---------------------------------------------------------------------------
# normal form: no-broken-circuit reduction over the cut arrangement
# ---------------------------------------------------------------------------

class NotACutForm(ex.ExpressionError):
    def __init__(self, form: ex.LinearForm):
        super().__init__(f"denominator {ex.render_form(form, 'text')} is not a "
                         f"cut form of the graph")
        self.form = form


#: Most denominator products one normal-form computation searches for a
#: broken circuit. On the 8-cycle's sum each takes about 400 bytes of the
#: arrangement's memory and 10 us of normalization (2-vCPU x86 host). Long
#: cycles reach it: an n-cycle's integral has C(2(n-1), n-1) terms in
#: normal form, and a 9-cycle's sum by the operator route searches 0.38M
#: products.
MAX_REDUCED_PRODUCTS = 1 << 18


class NormalFormTooLarge(gr.GraphTooLarge):
    def __init__(self):
        super().__init__(f"the normal form needs more than {MAX_REDUCED_PRODUCTS} "
                         f"reduced denominator products")


#: Most terms one walk of the thermal operator holds at once, in its
#: merged result and the level it is building; a level's rows before
#: merging, and every pass of a normalization (_Arrangement.normalize), are
#: built in chunks of at most this many. Valid graphs reach it: the
#: triangle with 2, 2 and 9 parallel lines has 7.0M sum terms, and each
#: added line roughly triples them; 2, 2 and 8 gives 2.3M terms and peaks
#: at about 490 MB, and 2, 2 and 9 is refused at about 700 MB.
MAX_TERMS = 1 << 22


class TooManyTerms(gr.GraphTooLarge):
    def __init__(self):
        super().__init__(f"the thermal operator needs more than {MAX_TERMS} terms")


#: Elements of the largest float array built at once.
_BATCH_ELEMENTS = 1 << 22

#: Least room of the per-product arrays of an _Arrangement (see _grown).
_ROOM = 256

#: The (product, child, a_D) columns of no rewrite (see _broken_circuits).
_NO_REWRITES = (np.empty(0, dtype=np.int64),) * 3


class _Terms(NamedTuple):
    """Packed terms as columns: row i is coeff[i] times the head and kernels
    of group group[i] (see _Arrangement.group) over the product product[i].
    Coefficients are exact: int64 while every value provably fits, else an
    object column of Python ints and Fractions."""

    group: np.ndarray
    product: np.ndarray
    coeff: np.ndarray


class _Arrangement:
    """The graph's cut arrangement, the rewriting of denominator products
    into its no-broken-circuit (nbc) basis, and the ids of one call's
    packed terms (_Terms) over it: forms, products and (head, kernels)
    groups.

    Forms are named by their rank in normal-form order (same-sign forms
    first, then fewer q's, then LinearForm order), and a product
    1/prod_{D in T} D by its sorted rank tuple T (repeats allowed), interned
    to an id in first-seen order. T is in normal form when its forms
    contain no broken circuit: no circuit of the arrangement with its
    smallest member H removed. Otherwise the circuit's relation
    H = sum_D a_D D rewrites it,

        1/prod_T D  ->  sum_D a_D / (H * prod_{T minus D} D),

    which replaces a member by a smaller form, so rewriting ends. The nbc
    monomials are a basis of the algebra the products span (Orlik and
    Terao), so the result does not depend on which circuit is used. A
    batched float search over the bonds rewrites the pipeline's products
    (_bond_search); what it declines, and products of other widths, go to
    the exact search (_exact_rewrite), which is also the tests' reference.

    The tables over the forms are built with them, once: the rank of each
    cut (bond, sign pattern), the flips of R_l and what the search reads.
    The memo holds the one rewrite the search finds for each product, in
    compressed sparse rows (CSR): per product id the start and length of
    its rows in two flat columns, (child product id, a_D), the length -1
    while the product is not searched and 0 when it is nbc (_search).
    Terms are brought to normal form by rewriting them one step at a time
    through it until no rewritten row is left (normalize). Lines are named
    by their position in `lines`, and per line R_l is a map of product ids
    (`images`), filled once per product it meets.
    """

    def __init__(self, graph: MatsubaraGraph):
        self.graph = graph
        self._bonds = bonds = gr.bonds(graph)
        self.lines = tuple(sorted(graph.line_ids))
        self.line_position = {lid: i for i, lid in enumerate(self.lines)}
        # the forms in normal-form order, each with its cut (bond b, sign
        # pattern): bit len(C)-1-j of the pattern is set when line C[j] of the
        # bond has -q, so the patterns 0 and 2^len(C) - 1 are the same-sign forms
        keyed = []
        for b, (side, lines) in enumerate(bonds):
            n = tuple((v, 1) for v in graph.vertices[:-1] if v in side)
            all_minus = (1 << len(lines)) - 1
            for pattern, signs in enumerate(itertools.product((1, -1), repeat=len(lines))):
                form = ex.LinearForm(n, tuple(zip(lines, signs)))
                keyed.append((0 < pattern < all_minus, len(lines), form, b, pattern))
        keyed.sort()
        _, _, self.forms, bond, pattern = zip(*keyed)
        bond, pattern = np.array(bond, dtype=np.int64), np.array(pattern, dtype=np.int64)
        self._bond_of = {side: b for b, (side, _) in enumerate(bonds)}
        # per bond its lines' weights in the sign pattern (by line position)
        # and the offset of its patterns; per pattern offset the rank
        self._weight = np.array([[1 << (len(lines) - 1 - lines.index(lid)) if lid in lines else 0
                                  for lid in self.lines] for _, lines in bonds],
                                dtype=np.int64).reshape(len(bonds), -1)
        self._offset = np.array(list(itertools.accumulate(
            (1 << len(lines) for _, lines in bonds), initial=0)))
        start, weight = self._offset[bond], self._weight[bond]
        self._form_at = np.empty(len(self.forms), dtype=np.int64)
        self._form_at[start + pattern] = np.arange(len(self.forms))
        #: by line position and rank: the rank of the form with q_l negated,
        #: its line's bit of the sign pattern flipped with no renormalization,
        #: as forms lead with +N(S); and one rank past the forms (the pad of
        #: intern) that maps to itself
        self.flips = np.empty((len(self.lines), len(self.forms) + 1), dtype=np.int64)
        self.flips[:, :-1] = self._form_at[start + (pattern ^ weight.T)]
        self.flips[:, -1] = len(self.forms)
        # the integer vectors of the forms over (non-root N's, q's)
        # (_exact_rewrite, and the check of _bond_search's relations); and
        # as floats, per bond its N-part and its lines, per rank the form's
        # N- and q-parts (_bond_search)
        bond_n = np.array([[v in side for v in graph.vertices[:-1]] for side, _ in bonds],
                          dtype=np.int64).reshape(len(bonds), -1)
        self.vectors = np.concatenate([bond_n[bond], np.where(pattern[:, None] & weight, -1,
                                                              weight > 0)], axis=1)
        self._bond_n, self._bond_lines = bond_n.astype(float), (self._weight > 0).astype(float)
        parts = self.vectors.astype(float)
        self._n, self._q = parts[:, :bond_n.shape[1]], parts[:, bond_n.shape[1]:]
        self.products: list[tuple[int, ...]] = []   # by product id
        self._product_ids: dict[tuple[int, ...], int] = {}
        # the rewrite memo, in CSR: per product id the start and length
        # (-1: not searched, 0: nbc) of its rows, the rows' (child, a_D)
        # columns (the first _size entries), the largest |a_D| while int64,
        # and the number of products searched
        self._memo = np.empty((0, 2), dtype=np.int64)
        self._child = self._a = np.empty(0, dtype=np.int64)
        self._size = self._bound = self._count = 0
        #: R_l by line position and product id, -1 where not yet met
        self.images = np.empty((len(self.lines), 0), dtype=np.int64)
        self.groups: list[tuple] = []   # (head, kernels) by group id
        self._group_ids: dict[tuple, int] = {}

    def product(self, ranks: tuple[int, ...]) -> int:
        """The id of the product of the forms with these sorted ranks."""
        product = self._product_ids.get(ranks)
        if product is None:
            product = self._product_ids[ranks] = len(self.products)
            self.products.append(ranks)
        return product

    def intern(self, rows: np.ndarray) -> np.ndarray:
        """The ids of the products whose sorted ranks are the rows, padded
        at the end with len(self.forms) (see _ranks)."""
        keys, pad = rows.tolist(), len(self.forms)
        if rows.size and rows[:, -1].max() == pad:
            keys = [row[:row.index(pad)] if row[-1] == pad else row for row in keys]
        return np.fromiter(map(self.product, map(tuple, keys)), np.int64, len(keys))

    def _ranks(self, products: list[int]) -> np.ndarray:
        """The products' sorted ranks as rows, padded at the end with
        len(self.forms), a rank past the forms that sorts last."""
        ranks = list(map(self.products.__getitem__, products))
        widths = set(map(len, ranks))
        width = max(widths, default=0)
        if len(widths) > 1:
            pad = (len(self.forms),)
            ranks = [r + pad * (width - len(r)) for r in ranks]
        return np.array(ranks, dtype=np.int64).reshape(len(ranks), width)

    def group(self, key: tuple) -> int:
        """The id of a (head, kernels) group."""
        group = self._group_ids.get(key)
        if group is None:
            group = self._group_ids[key] = len(self.groups)
            self.groups.append(key)
        return group

    def parities(self) -> tuple[np.ndarray, np.ndarray]:
        """By group id and line position: whether q_l has an odd power in
        the group's head, so that R_l has sign -1 on it, and whether the
        group carries l's kernel."""
        powers = [dict(q_exponents) for (_, q_exponents), _ in self.groups]
        odd = [[p.get(lid, 0) % 2 for lid in self.lines] for p in powers]
        carried = [[lid in kernels for lid in self.lines] for _, kernels in self.groups]
        shape = (len(self.groups), len(self.lines))
        return (np.array(odd, dtype=bool).reshape(shape),
                np.array(carried, dtype=bool).reshape(shape))

    def cut_rank(self, side: frozenset[str], minus: Iterable[int]) -> int:
        """The rank of i*N(side) + sum_l +-q_l over the bond with root-free
        side `side`, with -q on the lines `minus`."""
        b = self._bond_of[side]
        lines = self._bonds[b][1]
        pattern = sum(1 << (len(lines) - 1 - lines.index(l)) for l in minus)
        return int(self._form_at[self._offset[b] + pattern])

    def rank(self, form: ex.LinearForm) -> int:
        """The rank of a cut form; raises NotACutForm for any other form."""
        try:
            rank = self.cut_rank(frozenset(v for v, _ in form.n), [l for l, c in form.q if c < 0])
        except (KeyError, ValueError, IndexError):  # no bond has the side, or it lacks a -q line
            rank = None
        if rank is None or self.forms[rank] != form:
            raise NotACutForm(form)
        return rank

    def pack(self, e: Expression) -> _Terms:
        """The packed terms of e, with coefficients over e.scale; raises
        NotACutForm for a form of e that is not in the arrangement. The
        rows are read by columns; e's rows come in (head, kernels) order, so
        each run of equal pairs is one group."""
        forms = [self.rank(f) for f in e.forms]
        products = np.array([self.product(tuple(sorted(forms[f] for f in product)))
                             for product in e.products], dtype=np.int64)
        heads, kernels, product, coeff = e.rows.T
        new = ex._starts(heads * len(e.kernel_sets) + kernels)
        groups = np.array([self.group((e.heads[h], e.kernel_sets[k])) for h, k in
                           zip(heads[new].tolist(), kernels[new].tolist())], dtype=np.int64)
        return _Terms(groups[np.cumsum(new) - 1], products[product],
                      ex._column(e.numerators)[coeff])

    def freeze(self, terms: _Terms, scale: int) -> Expression:
        """The canonical Expression of packed terms with coefficients over
        `scale` (see _canonical). Coefficients may be rationals (a rewrite
        relation with a fractional coefficient); the scale absorbs them."""
        return ex._canonical(self.forms, [head for head, _ in self.groups],
                             [kernels for _, kernels in self.groups], self.products, scale,
                             terms.group, terms.group, terms.product, terms.coeff)

    def normalize_all(self, terms: _Terms) -> _Terms:
        """The normal form of packed terms, merged with zeros dropped."""
        return _Terms(*self.normalize(terms.group, terms.product, terms.coeff, len(self.groups)))

    def normalize(self, key: np.ndarray, product: np.ndarray, coeff: np.ndarray,
                  keys: int) -> tuple:
        """The normal form of the terms coeff[i] / product[i], as (key, nbc
        product, coefficient) columns merged by key[i] (below `keys`) and
        nbc product, zeros dropped: the rows rewritten to a fixed point.

        Each pass searches the rows' products not searched yet in one batch
        (_search), sets the nbc rows aside, expands the others one rewrite
        step through the memo and merges them by key and product, in chunks
        of rows that yield at most MAX_TERMS rows (or of one row). Every
        rewrite descends in multiset order, so the passes end; the rows set
        aside are merged once."""
        done = []
        while True:
            length = self._search(product)
            sizes, parts = (keys, len(self.products)), []
            # a row yields itself where nbc, else its memo rows
            for rows in _slices(np.maximum(length, 1), MAX_TERMS):
                k, p, c, n = key[rows], product[rows], coeff[rows], length[rows]
                nbc = n == 0
                done.append((k[nbc], p[nbc], c[nbc]))
                if not nbc.all():
                    at = ~nbc
                    i, child, c = self.rewrite(self._memo[p[at], 0], n[at], c[at])
                    parts.append(ex._merge((k[at][i], child, c), sizes))
            if not parts:
                return ex._merge(_concat(done), sizes)
            key, product, coeff = parts[0] if len(parts) == 1 else ex._merge(_concat(parts), sizes)

    def rewrite(self, start: np.ndarray, length: np.ndarray,
                coeff: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The terms coeff[i] / P_i rewritten one step, by the memo rows of
        P_i at start and length (see _search), as (i, child, coefficient)
        columns: a CSR expansion. The products are computed in int64 where
        the largest |coefficient| times the memo's largest |a_D| fits."""
        i, j = _expand(start, length)
        relation = self._a[j]
        if relation.dtype != object:
            coeff = ex._exact(coeff, self._bound)
        return i, self._child[j], coeff[i] * relation

    def reflect(self, lines: np.ndarray, products: np.ndarray) -> np.ndarray:
        """R_l of each product, l at line position lines[i]: a gather
        through the line's map of product ids. The products a map has not
        met are flipped form by form through `flips`, sorted and interned
        first, in one batch."""
        self._reserve()
        images = self.images[lines, products]
        new = images < 0
        if new.any():
            n = len(self.lines)
            product, line = np.divmod(_distinct(products[new] * n + lines[new]), n)
            flipped = self.flips[line[:, None], self._ranks(product.tolist())]
            flipped.sort(axis=1)
            self.images[line, product] = self.intern(flipped)
            images = self.images[lines, products]
        return images

    def _reserve(self) -> None:
        """Room for every product id in the per-product arrays."""
        n = len(self.products)
        if len(self._memo) < n:
            self.images = _grown(self.images, n, -1, axis=1)
            self._memo = _grown(self._memo, n, -1)

    def _search(self, products: np.ndarray) -> np.ndarray:
        """The products' memo lengths, after one search of those not searched
        yet, whose rewrites (see _broken_circuits) join the memo: (child,
        a_D) rows, none for an nbc product. Raises NormalFormTooLarge,
        searching nothing, past MAX_REDUCED_PRODUCTS searched products."""
        self._reserve()
        length = self._memo[products, 1]
        if length.min(initial=0) >= 0:
            return length
        new = _distinct(products[length < 0])
        if self._count + len(new) > MAX_REDUCED_PRODUCTS:
            raise NormalFormTooLarge()
        parent, child, a = self._broken_circuits(new)
        self._count += len(new)
        self._memo[new, 1] = 0
        if len(parent):   # a product's rows are consecutive
            first = np.flatnonzero(ex._starts(parent))
            self._memo[parent[first], 0] = self._size + first
            self._memo[parent[first], 1] = np.diff(first, append=len(parent))
            size = self._size + len(parent)
            self._child = _grown(self._child, size, 0)
            self._a = _grown(self._a, size, 0)
            if a.dtype == object:
                self._a = self._a.astype(object)
            else:
                self._bound = max(self._bound, int(np.abs(a).max()))
            self._child[self._size:size] = child
            self._a[self._size:size] = a
            self._size = size
        return self._memo[products, 1]

    def _broken_circuits(self, products: np.ndarray) -> tuple:
        """The rewrites of the products by one broken circuit each, relation
        H = sum_D a_D D, as (product, id of T - D + H, a_D) columns: one row
        per nonzero a_D, a product's rows consecutive. A product with no
        rows is in normal form.

        Products of V-1 > 1 forms are searched in batches by _bond_search;
        the products it declines and those of other widths above one go to
        _exact_rewrite in one call. One form is never a broken circuit
        (circuits have three members).
        """
        nv = self.graph.num_vertices - 1
        sizes = np.fromiter(map(len, map(self.products.__getitem__, products.tolist())),
                            np.int64, len(products))
        basis = products[(sizes > 1) & (sizes == nv)]
        rows = max(1, _BATCH_ELEMENTS // (len(self._bonds) * self.graph.num_lines))
        searched = [self._bond_search(basis[start:start + rows])
                    for start in range(0, len(basis), rows)]
        parts = [rewrites for rewrites, _ in searched]
        declined = np.concatenate([products[(sizes > 1) & (sizes != nv)]]
                                  + [rest for _, rest in searched])
        if len(declined):
            parts.append(self._exact_rewrite(declined))
        return _concat(parts) if parts else _NO_REWRITES

    def _bond_search(self, group: np.ndarray) -> tuple:
        """The rewrite columns (see _broken_circuits) of products of V-1
        forms, and the products it declines.

        Every product of the pipeline has N-parts that are a basis of the
        N-space: tree products do (fundamental cuts of a tree), and
        reflections and rewrites keep it so. Then every bond's N-part has
        unique coefficients a in that basis, and a form H of the bond lies
        in the span of the product T iff its q-part equals sum_D a_D q(D).
        That sum is computed for every bond at once; where it is a sign
        pattern on exactly the bond's lines, H is the form with that
        pattern, and it closes a broken circuit when it lies below every D
        with a_D != 0. The lowest such H is taken.

        The test is exact in floats: the N-parts are 0/1 vectors, so the
        determinant of a product's N-parts is at most 2^17 (Hadamard's bound
        for 0/1 matrices of size V-1 <= 15), and a q-sum that is not a whole
        number is at least 2^-17 away from one. Relations are rounded to
        integers and checked in integers. Products whose N-parts are not a
        basis, or whose relation is not integral, are declined.
        """
        ranks = self._ranks(group.tolist())                      # n x k
        n_parts = self._n[ranks]
        try:
            inverse = np.linalg.inv(n_parts)                     # n x k x k
            declined = group[:0]
        except np.linalg.LinAlgError:       # some N-parts are dependent
            basis = np.abs(np.linalg.det(n_parts)) > 0.5
            declined, group, ranks = group[~basis], group[basis], ranks[basis]
            inverse = np.linalg.inv(n_parts[basis])
        none = len(self.forms)
        coeffs = self._bond_n @ inverse                          # n x bonds x k
        q = coeffs @ self._q[ranks]                              # n x bonds x I
        # per bond: the form with q's sign pattern, kept where the pattern is
        # valid and the form lies below every member it relates to; a
        # member's own bond gives the member itself, which is not below it
        h = self._form_at[self._offset[:-1] + ((q < 0) * self._weight).sum(axis=2)]
        below = h < np.where(np.abs(coeffs) > 0.5, ranks[:, None, :], none).min(axis=2)
        valid = (np.abs(np.abs(q) - self._bond_lines) < 1e-6).all(axis=2)
        h = np.where(below & valid, h, none)                     # n x bonds
        b = h.argmin(axis=1)
        lowest = h[np.arange(len(group)), b]                     # lowest H of each product
        found = np.flatnonzero(lowest < none)
        b, h, members = b[found], lowest[found], ranks[found]
        a = np.rint(coeffs[found, b]).astype(np.int64)          # m x k
        exact = (np.matmul(a[:, None, :], self.vectors[members])[:, 0]
                 == self.vectors[h]).all(axis=1)
        # child j: member j replaced by H, members sorted
        k = ranks.shape[1]
        children = np.repeat(members[:, None, :], k, axis=1)
        children[:, np.arange(k), np.arange(k)] = h[:, None]
        children.sort(axis=2)
        keep = (a != 0) & exact[:, None]
        rewrites = (group[found].repeat(k)[keep.reshape(-1)], self.intern(children[keep]),
                    a[keep])
        return rewrites, np.concatenate([declined, group[found[~exact]]])

    def _exact_rewrite(self, products: np.ndarray) -> tuple:
        """_broken_circuits in exact arithmetic, product by product, for
        products of any width, with repeated or dependent members.

        The shortest suffix of a product's sorted distinct members with a
        smaller form in its span closes a broken circuit: its lowest such
        form H and H's coordinates in the suffix. That suffix is
        independent even where the members are not: the least member of the
        shortest dependent suffix is a smaller form in the span of the
        suffix after it, so the search stops there at the latest.
        """
        rows = []
        for product in products.tolist():
            ranks = self.products[product]
            support = sorted(set(ranks))
            for j in range(len(support) - 2, -1, -1):
                suffix = support[j:]
                inside = (self.vectors[:suffix[0]] @ _annihilator(self.vectors[suffix]).T
                          == 0).all(axis=1)
                if inside.any():
                    h = int(inside.argmax())
                    reduced, pivots = _eliminate(self.vectors[suffix + [h]].T.tolist(),
                                                 len(suffix))
                    for col, r in pivots.items():
                        a = Fraction(reduced[r][-1], reduced[r][col])
                        if a:
                            child = sorted(ranks + (h,))
                            child.remove(suffix[col])
                            rows.append((product, self.product(tuple(child)),
                                         a.numerator if a.denominator == 1 else a))
                    break
        parent, child, a = zip(*rows) if rows else ((), (), ())
        return np.array(parent, dtype=np.int64), np.array(child, dtype=np.int64), ex._column(a)


def _eliminate(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], dict[int, int]]:
    """Gauss-Jordan elimination in integers on the first `ncols` columns:
    the reduced rows and {pivot column: row}. Each pivot column is zero
    outside its row; rows are kept primitive (gcd 1)."""
    rows = [list(row) for row in rows]
    pivots: dict[int, int] = {}
    for col in range(ncols):
        r = next((i for i in range(len(rows)) if rows[i][col] and i not in pivots.values()), None)
        if r is None:
            continue
        pivots[col] = r
        p = rows[r]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                f = row[col]
                row = [x * p[col] - f * y for x, y in zip(row, p)]
                g = math.gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
    return rows, pivots


def _annihilator(rows: np.ndarray) -> np.ndarray:
    """Integer vectors spanning the vectors orthogonal to the independent
    integer rows, so that a vector lies in the span of the rows iff it is
    orthogonal to all of them. Exact."""
    d = rows.shape[1]
    reduced, pivots = _eliminate(rows.tolist(), d)
    scale = math.lcm(*(abs(reduced[r][col]) for col, r in pivots.items()))
    basis = []
    for free in (c for c in range(d) if c not in pivots):
        y = [0] * d
        y[free] = scale
        for col, r in pivots.items():
            y[col] = -reduced[r][free] * scale // reduced[r][col]
        basis.append(y)
    return np.array(basis, dtype=np.int64).reshape(len(basis), d)


def operator_full(graph: MatsubaraGraph) -> OperatorSpec:
    """The full thermal operator: one summand per subset of lines (2^I)."""
    return OperatorSpec(tuple(gr.line_subsets(graph.line_ids)), graph)


def operator_reduced(graph: MatsubaraGraph) -> OperatorSpec:
    """Reduced thermal operator: subsets up to the cycle rank, cutsets excluded."""
    return OperatorSpec(tuple(gr.non_cutset_subsets(graph, gr.cycle_rank(graph))), graph)


class _Forest(NamedTuple):
    """The prefix tries of operators' subsets, lines in ascending order, as
    arrays over their nodes (roots first): the lines on the path to each
    node, whether a subset ends there, and its edges' start and count in
    the edge columns, which hold each edge's child node and line position."""

    path: list[tuple[int, ...]]
    leaf: np.ndarray
    start: np.ndarray
    count: np.ndarray
    child: np.ndarray
    line: np.ndarray


def _forest(operators: Sequence[Iterable[LineSubset]], line_position: dict) -> _Forest:
    """The forest of the operators' tries, the i-th rooted at node i."""
    path: list[tuple[int, ...]] = [() for _ in operators]
    children: list[dict[int, int]] = [{} for _ in operators]
    leaf = [False] * len(operators)
    for root, subsets in enumerate(operators):
        nodes = {(): root}   # a node of this trie by its path

        def node(key: tuple[int, ...]) -> int:
            n = nodes.get(key)
            if n is None:
                n = nodes[key] = len(path)
                path.append(key)
                children.append({})
                leaf.append(False)
                children[node(key[:-1])][key[-1]] = n
            return n

        for subset in subsets:
            leaf[node(tuple(sorted(subset)))] = True
    count = np.fromiter(map(len, children), np.int64, len(children))
    child, line = np.array([(child, line_position[lid]) for node in children
                            for lid, child in node.items()], dtype=np.int64).reshape(-1, 2).T
    return _Forest(path, np.array(leaf), count.cumsum() - count, count, child, line)


def _walk(arrangement: _Arrangement, operators: Sequence[Iterable[LineSubset]],
          terms: _Terms, roots: np.ndarray | None = None) -> _Terms:
    """Apply operators to packed terms and return the normal form over the
    cut arrangement of the sum of their images; each operator is a list of
    subsets, and row i of the terms is acted on by operator roots[i]
    (default: the first).

    Level by level over the prefix tries of the subsets (_forest), each row
    of a level carrying its node and its input group: the kernels a row has
    gained are the lines on its node's path. Each edge applies
    nbe_l (1 - R_l) to the rows of its parent, on columns: R_l is a gather
    (_Arrangement.reflect), signed by the input group's head. The rows at
    the end of a subset go to the result, in the group of their head and
    kernels. The input, keyed by (root node, input group), and each level's
    kept and reflected rows, keyed by (node, input group), are brought to
    normal form by one call of _Arrangement.normalize each, so terms that
    cancel only as functions (cutset branches on a normal-form integral)
    drop too, and equal rows merge with zeros dropped. A level is built in
    chunks of at most MAX_TERMS kept and reflected rows before merging, and
    the merged result and the level being built together hold at most
    MAX_TERMS rows, else TooManyTerms.
    """
    forest = _forest(operators, arrangement.line_position)
    odd, carried = arrangement.parities()
    # (1 - R_l) keeps a term and adds its image times -(R_l's sign), which
    # is -1 where q_l is odd in the head
    reflected_sign = np.where(odd, 1, -1)
    carries = carried.any()
    sizes = (len(forest.leaf), len(odd), 0)   # node, input group, product
    keys = sizes[0] * sizes[1]   # rows are keyed by (node, input group)
    if roots is None:
        roots = np.zeros(len(terms.coeff), dtype=np.int64)
    key, product, coeff = arrangement.normalize(roots * sizes[1] + terms.group, terms.product,
                                                terms.coeff, keys)
    node, group = np.divmod(key, sizes[1])

    def finished(parts: list[tuple]) -> _Terms:
        """The rows at subsets' ends in the groups of their heads and
        kernels, merged. A level's rows come sorted by node and input
        group, so equal (node, input group) pairs are runs."""
        node, group, product, coeff = _concat(parts)
        new = ex._starts(node) | ex._starts(group)
        ids = [arrangement.group((head, tuple(sorted(kernels + forest.path[n]))))
               for (head, kernels), n in zip(map(arrangement.groups.__getitem__,
                                                 group[new].tolist()), node[new].tolist())]
        terms = _Terms(np.array(ids, dtype=np.int64)[new.cumsum() - 1], product, coeff)
        # the rows are unique by (node, input group, product), so by
        # (group, product) unless two pairs give one group
        if len(set(ids)) == len(ids):
            return terms
        return _Terms(*ex._merge(terms, (len(arrangement.groups), len(arrangement.products))))

    def add(part: tuple) -> None:
        """Add a merged part to the level being built; the rows held are
        counted exactly when an upper bound passes the budget."""
        nonlocal level
        level.append(part)
        if _rows(result) + _rows(level) > MAX_TERMS:
            # count the level merged, and the result by group
            level = [ex._merge(_concat(level), sizes)]
            if len(finished(result).coeff) + _rows(level) > MAX_TERMS:
                raise TooManyTerms()

    result = [(node[:0], group[:0], product[:0], coeff[:0])]
    while len(node):
        leaf = forest.leaf[node]
        result.append((node[leaf], group[leaf], product[leaf], coeff[leaf]))
        level: list[tuple] = []
        count = forest.count[node]
        if not count.any():
            break
        for rows in _slices(2 * count, MAX_TERMS):
            parent, edge = _expand(forest.start[node[rows]], count[rows])
            g, p, c = group[rows][parent], product[rows][parent], coeff[rows][parent]
            line, child = forest.line[edge], forest.child[edge]
            if carries and carried[g, line].any():
                raise ex.KernelReflection(arrangement.lines[line[carried[g, line].argmax()]])
            reflected = c * reflected_sign[g, line]
            image = arrangement.reflect(line, p)
            # the kept and the reflected rows
            key, p, c = arrangement.normalize(np.tile(child * sizes[1] + g, 2),
                                              np.concatenate([p, image]),
                                              np.concatenate([c, reflected]), keys)
            sizes = sizes[:2] + (len(arrangement.products),)
            add((*np.divmod(key, sizes[1]), p, c))
        node, group, product, coeff = (level[0] if len(level) == 1
                                       else ex._merge(_concat(level), sizes))
    return finished(result)


def _rows(parts: list) -> int:
    return sum(len(part[-1]) for part in parts)


def _concat(parts: Sequence[tuple]) -> tuple:
    """Tuples of columns joined column by column."""
    if len(parts) == 1:
        return tuple(parts[0])
    return tuple(map(np.concatenate, zip(*parts)))


def _expand(start: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of a CSR expansion, start[i] + k for k < count[i], as
    (i, entry) columns."""
    i = np.arange(len(count)).repeat(count)
    return i, np.arange(len(i)) + (start + count - count.cumsum())[i]


def _slices(sizes: np.ndarray, limit: int) -> list[slice]:
    """Consecutive slices of rows whose sizes sum to at most `limit`, each
    of one row at least; one slice when they all fit."""
    if sizes.sum() <= limit:
        return [slice(None)]
    ends, start, out = sizes.cumsum(), 0, []
    while start < len(ends):
        base = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + limit, side="right")))
        out.append(slice(start, stop))
        start = stop
    return out


def _grown(array: np.ndarray, size: int, fill, axis: int = 0) -> np.ndarray:
    """The array with at least `size` entries along the axis, padded with
    `fill` by doubling, to _ROOM entries at least."""
    have = array.shape[axis]
    if have >= size:
        return array
    shape = list(array.shape)
    shape[axis] = max(size, 2 * have, _ROOM) - have
    padding = np.empty(shape, dtype=array.dtype)
    padding.fill(fill)
    return np.concatenate([array, padding], axis=axis)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of an integer column, ascending."""
    values = np.sort(values)
    return values[ex._starts(values)]


def apply_operator(spec: OperatorSpec, e: Expression) -> Expression:
    """Apply a thermal operator to an expression.

    The expression is packed once (see _Arrangement). Factors for distinct
    lines commute; within each subset they are applied in ascending line
    order, and subsets sharing a prefix share the intermediate terms (level
    by level over the prefix trie, see _walk). Each factor nbe_l (1 - R_l)
    runs on the columns of a whole level: R_l is a gather through a map of
    product ids, and terms that cancel are dropped at each level. The input
    and every level are kept in normal form over the cut arrangement of the
    spec's graph, so cutset branches die early and the result is the normal
    form. The subsets' results are summed into one packed total, which is
    frozen into an Expression once. An empty subset list gives the empty
    expression. Raises UnknownLine for a line the graph lacks, ValueError
    for a subset listed twice, and KernelReflection for reflecting a line
    whose kernel a term already carries.
    """
    seen: set[LineSubset] = set()
    for subset in map(tuple, map(sorted, spec.subsets)):
        for lid in subset:
            spec.graph.line(lid)  # id check
        if subset in seen:
            raise ValueError(f"operator subset {list(subset)} is listed twice")
        seen.add(subset)
    arrangement = _Arrangement(spec.graph)
    return arrangement.freeze(_walk(arrangement, [spec.subsets], arrangement.pack(e)), e.scale)


def matsubara_sum(
    graph: MatsubaraGraph,
    method: str = "operator",
    hierarchy: Sequence[int] | None = None,
) -> Expression:
    """Closed-form evaluation of the Matsubara sum, in normal form.

    method="operator": reduced thermal operator applied to the integral,
                       as apply_operator(operator_reduced(graph),
                       matsubara_integral(graph)) does it.
    method="direct":   each tree product gets the operator of all
                       subsets of its non-tree lines,
                       prod_l (1 + nbe_l (1 - R_l)); all trees are walked
                       at once, their rows in normal form at every level.
    Each call packs the tree products once over the graph's cut
    arrangement; the result does not depend on the route or the regulator
    hierarchy.
    """
    if method not in ("operator", "direct"):
        raise ValueError(f"unknown method {method!r}")
    trees = gr.enumerate_spanning_trees(graph)
    arrangement, products = _tree_products(
        graph, [solve_tree(graph, tree, hierarchy) for tree in trees])
    if method == "operator":
        operators, roots = [operator_reduced(graph).subsets], None
    else:   # tree t's rows are acted on by the subsets of its non-tree lines
        operators = [gr.line_subsets(set(graph.line_ids) - set(tree)) for tree in trees]
        roots = np.arange(len(trees)).repeat(len(products.coeff) // len(trees))
    return arrangement.freeze(_walk(arrangement, operators, products, roots),
                              2 ** graph.num_lines)


def annihilator_check(
    graph: MatsubaraGraph, subset: Iterable[int], e: Expression
) -> bool:
    """True iff prod_{i in subset} (1 - R_i) maps e to zero: the image under
    the one-subset operator, whose kernels do not affect emptiness, has an
    empty normal form over the graph's cut arrangement. Raises UnknownLine
    for a line the graph lacks.

    For any cutset of the graph this holds on the integral evaluation; for
    non-cutsets it generally does not.
    """
    lines = tuple(sorted(set(subset)))
    return apply_operator(OperatorSpec((lines,), graph), e).is_empty()


def render_operator(spec: OperatorSpec, fmt: str = "text") -> str:
    """Render an operator listing in text, latex, or json."""
    if fmt == "json":
        import json

        return json.dumps({"subsets": [list(s) for s in spec.subsets]})
    if fmt not in ("text", "latex"):
        raise ValueError(f"unknown format {fmt!r}")
    chunks = []
    for subset in spec.subsets:
        if not subset:
            chunks.append("1")
            continue
        if fmt == "text":
            chunks.append("·".join(f"nbe(q{l})(1 - R{l})" for l in subset))
        else:
            chunks.append(
                " ".join(f"n_B(q_{{{l}}})\\big(1 - \\hat{{R}}_{{{l}}}\\big)" for l in subset)
            )
    return " + ".join(chunks) if chunks else "0"
