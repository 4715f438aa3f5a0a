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
functions, and it does not depend on the hierarchy or the route. The
normal form can be much longer than the tree basis on long cycles, so one
call rewrites at most MAX_REDUCED_PRODUCTS products and raises
NormalFormTooLarge past that.

Both routes, apply_operator for any operator and tree_product share one
per-call _Arrangement, which owns the forms, the products, the normal-form
memo and the reflections. Form ids are the arrangement's ranks: tree
products are built in them (looked up by bond and sign pattern), and an
input Expression is packed from its tables into them, a form outside the
arrangement raising NotACutForm. A product id names a sorted tuple of
form ranks, and packed terms map (head, kernels) -> {product id: integer
coefficient over a common denominator}. R_i flips i's bit of each cut
form's sign pattern, a memoized map of product ids; its only sign is the
parity of q_i in the group's head. Each factor nbe_i (1 - R_i) is dict
arithmetic, with cancelled terms dropped at once, and each level of the
walk is brought to normal form with its new products reduced in one
batch. Nothing is sorted during the walk: each route freezes its packed
result into an Expression once (_Arrangement.freeze), which ranks the
tables and sorts the rows on one integer key. A walk holds at most
MAX_TERMS terms and raises TooManyTerms past that.

Cutset subsets of reflection-differences annihilate the integral: the
normal form of the image is empty (annihilator_check), which is what
collapses the full 2^I-term operator to the reduced one.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
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
    arrangement, _, total = _tree_products(graph, [solution])
    return arrangement.freeze(total, 2 ** graph.num_lines)


def _pack_tree_product(arrangement: "_Arrangement", solution: TreeSolution) -> dict[int, int]:
    """The terms {product id: coefficient over 2^I} of a tree product: the
    base term (2 pi)^L / prod_k (2 q_k) over the tree lines' denominators,
    then (1 + R_j) for each tree line j. Line j's denominator, with N-part a N(S)
    (a = +-1, S its fundamental bond's root-free side), is s = -a times the
    cut form i N(S) + s (q_j + sum_l eps_l b_l q_l). No other line's form
    has q_j and the head is odd in q_j, so (1 + R_j) pairs j's form (+1)
    with its q_j-flipped form (-1); the terms are the pairs' products."""
    sign, pairs = 1, []
    for j in solution.tree:
        om = solution.omega[j]
        s = -om.n_part[0][1]
        q = ((j, s),) + tuple((l, s * solution.epsilon[l] * b) for l, b in om.line_part)
        rank = arrangement.cut_rank(frozenset(v for v, _ in om.n_part),
                                    [l for l, c in q if c < 0])
        sign *= s
        pairs.append(((rank, 1), (arrangement.flip(rank, j), -1)))
    return {arrangement.product(tuple(sorted(r for r, _ in choice))):
            math.prod(c for _, c in choice) * sign for choice in itertools.product(*pairs)}


def tree_integral(graph: MatsubaraGraph, solution: TreeSolution) -> Expression:
    """Contribution of one spanning tree to the integral evaluation: the
    normal form (see normal_form) of its tree_product. The contributions of
    all trees add up to matsubara_integral."""
    arrangement, _, total = _tree_products(graph, [solution])
    return arrangement.freeze(arrangement.normalize_all(total), 2 ** graph.num_lines)


def matsubara_integral(
    graph: MatsubaraGraph, hierarchy: Sequence[int] | None = None
) -> Expression:
    """Closed-form evaluation of the Matsubara integral: the tree products
    of all spanning trees, summed and brought to normal form once. The
    result does not depend on the regulator hierarchy."""
    arrangement, _, total = _tree_products(graph, [
        solve_tree(graph, tree, hierarchy) for tree in gr.enumerate_spanning_trees(graph)])
    return arrangement.freeze(arrangement.normalize_all(total), 2 ** graph.num_lines)


def _tree_products(graph: MatsubaraGraph, solutions: Sequence[TreeSolution]):
    """The packed tree products of the solutions' trees over the graph's
    cut arrangement, and their sum: one group each, of head (2 pi)^L /
    prod_k q_k and no kernels."""
    arrangement = _Arrangement(graph)
    key = ((gr.cycle_rank(graph), tuple((lid, -1) for lid in graph.line_ids)), ())
    parts = [_pack_tree_product(arrangement, solution) for solution in solutions]
    total: Counter[int] = Counter()
    for part in parts:
        total.update(part)
    return arrangement, [{key: part} for part in parts], {key: total}


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

def cut_forms(graph: MatsubaraGraph) -> tuple[ex.LinearForm, ...]:
    """The cut arrangement of the graph, in normal-form order: forms whose
    q coefficients share one sign first, then forms with fewer q's, then
    LinearForm order.

    A bond of the graph with root-free side S and crossing lines C
    contributes the 2^|C| forms i*N(S) + sum_{l in C} +-q_l, already
    sign-normalized since N(S) leads with +1. Every denominator of every
    integral and sum evaluation of the graph is one of them: the tree lines
    of a spanning tree cut it along bonds, and reflections only flip signs.
    """
    return _Arrangement(graph).forms


class NotACutForm(ex.ExpressionError):
    def __init__(self, form: ex.LinearForm):
        super().__init__(f"denominator {ex.render_form(form, 'text')} is not a "
                         f"cut form of the graph")
        self.form = form


#: Most denominator products one normal-form computation rewrites (about
#: 1 kB of memory and 40 us each). Long cycles reach it: an n-cycle's
#: integral has C(2(n-1), n-1) terms in normal form, and a 9-cycle's sum
#: needs 0.54M products.
MAX_REDUCED_PRODUCTS = 1 << 18


class NormalFormTooLarge(gr.GraphTooLarge):
    def __init__(self):
        super().__init__(f"the normal form needs more than {MAX_REDUCED_PRODUCTS} "
                         f"reduced denominator products")


#: Most terms one walk of the thermal operator holds at once, in its
#: packed total and the level it is building. Valid graphs reach it: the
#: triangle with 2, 2 and 9 parallel lines has 7.0M sum terms, and each
#: added line roughly triples them; 2, 2 and 8 gives 2.3M terms and peaks
#: at about 600 MB.
MAX_TERMS = 1 << 22


class TooManyTerms(gr.GraphTooLarge):
    def __init__(self):
        super().__init__(f"the thermal operator needs more than {MAX_TERMS} terms")


#: Elements of the largest float array built at once.
_BATCH_ELEMENTS = 1 << 22


class _Arrangement:
    """The graph's cut arrangement, the rewriting of denominator products
    into its no-broken-circuit (nbc) basis, and the packed terms of one
    call over it, (head, kernels) -> {product id: coefficient}.

    Forms are named by their rank in normal-form order, and a product
    1/prod_{D in T} D by its sorted rank tuple T (repeats allowed), interned
    to an id in first-seen order. T is in normal form when its forms
    contain no broken circuit: no circuit of the arrangement with its
    smallest member H removed. Otherwise the circuit's relation
    H = sum_D a_D D rewrites it,

        1/prod_T D  ->  sum_D a_D / (H * prod_{T minus D} D),

    which replaces a member by a smaller form, so rewriting ends. The nbc
    monomials are a basis of the algebra the products span (Orlik and
    Terao), so the result does not depend on which circuit is used.
    """

    def __init__(self, graph: MatsubaraGraph):
        self.graph = graph
        self._bonds = gr.bonds(graph)
        # the forms in cut_forms order, each with its cut (bond b, sign
        # pattern): bit len(C)-1-j of the pattern is set when line C[j] of the
        # bond has -q, so the patterns 0 and 2^len(C) - 1 are the same-sign forms
        keyed = []
        for b, (side, lines) in enumerate(self._bonds):
            n = tuple((v, 1) for v in graph.vertices[:-1] if v in side)
            all_minus = (1 << len(lines)) - 1
            for pattern, signs in enumerate(itertools.product((1, -1), repeat=len(lines))):
                form = ex.LinearForm(n, tuple(zip(lines, signs)))
                keyed.append((0 < pattern < all_minus, len(lines), form, b, pattern))
        keyed.sort()
        self.forms = tuple(form for _, _, form, _, _ in keyed)
        self._cuts = [(b, pattern) for _, _, _, b, pattern in keyed]   # by rank
        self._rank = {cut: rank for rank, cut in enumerate(self._cuts)}
        self._bond_of = {side: b for b, (side, _) in enumerate(self._bonds)}
        self.vectors: np.ndarray | None = None   # built on first search
        self.products: list[tuple[int, ...]] = []   # by product id
        self._product_ids: dict[tuple[int, ...], int] = {}
        #: product id -> ((nbc product id, coefficient), ...), None for an
        #: nbc product: the one normal-form memo
        self.reduced: dict[int, tuple | None] = {}
        self._reflections: dict[int, _Reflection] = {}

    def product(self, ranks: tuple[int, ...]) -> int:
        """The id of the product of the forms with these sorted ranks."""
        product = self._product_ids.get(ranks)
        if product is None:
            product = self._product_ids[ranks] = len(self.products)
            self.products.append(ranks)
        return product

    def cut_rank(self, side: frozenset[str], minus: Iterable[int]) -> int:
        """The rank of i*N(side) + sum_l +-q_l over the bond with root-free
        side `side`, with -q on the lines `minus`."""
        b = self._bond_of[side]
        lines = self._bonds[b][1]
        return self._rank[b, sum(1 << (len(lines) - 1 - lines.index(l)) for l in minus)]

    def rank(self, form: ex.LinearForm) -> int:
        """The rank of a cut form; raises NotACutForm for any other form."""
        try:
            rank = self.cut_rank(frozenset(v for v, _ in form.n), [l for l, c in form.q if c < 0])
        except (KeyError, ValueError):  # no bond has the side, or it lacks a -q line
            rank = None
        if rank is None or self.forms[rank] != form:
            raise NotACutForm(form)
        return rank

    def flip(self, rank: int, line_id: int) -> int:
        """The rank of the form with q_{line_id} negated: the line's bit of
        the pattern flipped, with no renormalization, as forms lead with +N(S)."""
        b, pattern = self._cuts[rank]
        lines = self._bonds[b][1]
        if line_id not in lines:
            return rank
        return self._rank[b, pattern ^ (1 << (len(lines) - 1 - lines.index(line_id)))]

    def pack(self, e: Expression) -> dict[tuple, dict[int, int]]:
        """The packed terms of e, with coefficients over e.scale; raises
        NotACutForm for a form of e that is not in the arrangement."""
        forms = [self.rank(f) for f in e.forms]
        products = [self.product(tuple(sorted(forms[f] for f in product)))
                    for product in e.products]
        heads, kernel_sets, numerators = e.heads, e.kernel_sets, e.numerators
        groups: dict[tuple, dict[int, int]] = {}
        targets: dict[tuple[int, int], dict[int, int]] = {}
        for h, k, p, c in zip(*e.rows.T.tolist()):
            group = targets.get((h, k))
            if group is None:
                group = targets[h, k] = groups[heads[h], kernel_sets[k]] = {}
            p = products[p]
            group[p] = group.get(p, 0) + numerators[c]
        return groups

    def freeze(self, groups: dict[tuple, dict[int, int]], scale: int) -> Expression:
        """The canonical Expression of packed terms with coefficients over
        `scale`, by _canonical(): the groups flattened into group, product
        and coefficient columns. Coefficients may be rationals (a rewrite
        relation with a fractional coefficient); the scale absorbs them."""
        counts = [len(terms) for terms in groups.values()]
        product_col = np.fromiter(itertools.chain.from_iterable(groups.values()), np.int64,
                                  sum(counts))
        coeff_col, values = ex._rank(list(itertools.chain.from_iterable(
            terms.values() for terms in groups.values())))
        group_col = np.repeat(np.arange(len(counts)), counts)
        return ex._canonical(self.forms, [head for head, _ in groups],
                             [kernels for _, kernels in groups], self.products, values,
                             scale, group_col, group_col, product_col, coeff_col)

    def reflection(self, line_id: int) -> "_Reflection":
        if line_id not in self._reflections:
            self._reflections[line_id] = _Reflection(self, line_id)
        return self._reflections[line_id]

    def normalize_all(self, groups: dict[tuple, dict[int, int]]) -> dict[tuple, dict[int, int]]:
        """The normal form of packed terms, zeros and vanished groups
        dropped; the products are reduced in one batch."""
        self.reduce_all(p for terms in groups.values() for p in terms)
        reduced, out = self.reduced, {}
        for key, terms in groups.items():
            acc: dict[int, int] = {}
            get = acc.get
            for p, c in terms.items():
                images = reduced[p]
                if images is None:
                    acc[p] = get(p, 0) + c
                else:
                    for image, a in images:
                        acc[image] = get(image, 0) + a * c
            acc = {p: c for p, c in acc.items() if c}
            if acc:
                out[key] = acc
        return out

    def _build_tables(self) -> None:
        """Integer vectors of the forms over (non-root N's, q's), and the
        bond tables of _bond_search: per bond its N-part, its lines, and the
        rank of the form with each sign pattern."""
        graph, bonds = self.graph, self._bonds
        line_index = {lid: i for i, lid in enumerate(sorted(graph.line_ids))}
        self._bond_n = np.array([[float(v in side) for v in graph.vertices[:-1]]
                                 for side, _ in bonds]).reshape(len(bonds), -1)
        self._bond_lines = np.zeros((len(bonds), graph.num_lines))
        self._weight = np.zeros((len(bonds), graph.num_lines), dtype=np.int64)
        for b, (_, lines) in enumerate(bonds):
            for j, lid in enumerate(lines):
                self._bond_lines[b, line_index[lid]] = 1
                self._weight[b, line_index[lid]] = 1 << (len(lines) - 1 - j)
        self._offset = np.cumsum([0] + [1 << len(lines) for _, lines in bonds])
        self._form_at = np.array([self._rank[b, pattern] for b, (_, lines) in enumerate(bonds)
                                  for pattern in range(1 << len(lines))])
        self._bond, pattern = np.array(self._cuts).T
        self._n = self._bond_n[self._bond]
        self._q = self._bond_lines[self._bond] * (
            1 - 2 * ((pattern[:, None] & self._weight[self._bond]) > 0))
        self.vectors = np.rint(np.hstack([self._n, self._q])).astype(np.int64)

    def reduce_all(self, products: Iterable[int]) -> None:
        """Fill `reduced` for the products and everything they rewrite into.

        Broken circuits are searched for all pending products at once; the
        rewritten products, interned as they are found, form the next round.
        Rewritten products are then assembled in increasing multiset order,
        in which every rewrite descends. Raises NormalFormTooLarge before a
        round would take the products past MAX_REDUCED_PRODUCTS.
        """
        reduced = self.reduced
        steps: dict[int, tuple] = {}
        todo = {p for p in products if p not in reduced}
        while todo:
            if len(reduced) + len(steps) + len(todo) > MAX_REDUCED_PRODUCTS:
                raise NormalFormTooLarge()
            pending = set()
            for product, children in self._broken_circuits(list(todo)).items():
                if children is None:
                    reduced[product] = None
                    continue
                steps[product] = children
                pending.update(child for child, _ in children)
            todo = {p for p in pending if p not in reduced and p not in steps}
        for product in sorted(steps, key=lambda p: self.products[p][::-1]):
            acc: dict[int, int] = {}
            for child, a in steps[product]:
                for monomial, c in reduced[child] or ((child, 1),):
                    acc[monomial] = acc.get(monomial, 0) + a * c
            reduced[product] = tuple((m, c) for m, c in acc.items() if c)

    def _broken_circuits(self, products: list[int]) -> dict:
        """product id -> None if it is in normal form; else the rewrite by
        one broken circuit, relation H = sum_D a_D D, as ((id of T - D + H,
        a_D), ...).

        Products of V-1 > 1 forms are searched in batches by _bond_search,
        others by _exact_rewrite.
        """
        nv = self.graph.num_vertices - 1
        sizes = [len(self.products[p]) for p in products]
        if self.vectors is None and any(k != 1 for k in sizes):
            self._build_tables()
        basis = [p for p, k in zip(products, sizes) if k == nv > 1]
        # one form is never a broken circuit (circuits have three members)
        out = {p: None if k == 1 else self._exact_rewrite(p)
               for p, k in zip(products, sizes) if k != nv or nv == 1}
        rows = max(1, _BATCH_ELEMENTS // (len(self._bonds) * self.graph.num_lines))
        for start in range(0, len(basis), rows):
            out.update(self._bond_search(basis[start:start + rows]))
        return out

    def _bond_search(self, group: list[int]) -> dict:
        """_broken_circuits for products of V-1 forms.

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
        integers and checked in integers; a product whose N-parts are not a
        basis, or whose relation is not integral, goes to _exact_rewrite.
        """
        ranks = np.array([self.products[p] for p in group])     # n x k
        try:
            inverse = np.linalg.inv(self._n[ranks])              # n x k x k
        except np.linalg.LinAlgError:       # some N-parts are dependent
            basis = np.abs(np.linalg.det(self._n[ranks])) > 0.5
            out = {p: self._exact_rewrite(p) for p, ok in zip(group, basis) if not ok}
            rest = [p for p, ok in zip(group, basis) if ok]
            return out | (self._bond_search(rest) if rest else {})
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
        out: dict = dict.fromkeys(group)
        intern = self.product
        for i, kids, row, ok in zip(found.tolist(), children.tolist(), a.tolist(),
                                    exact.tolist()):
            product = group[i]
            out[product] = tuple((intern(tuple(kid)), c) for kid, c in zip(kids, row)
                                 if c) if ok else self._exact_rewrite(product)
        return out

    def _exact_rewrite(self, product: int):
        """_broken_circuits for one product, in exact arithmetic."""
        ranks = self.products[product]
        found = self._exact_broken_circuit(ranks)
        if found is None:
            return None
        h, relation = found
        return tuple((self.product(_rewrite(ranks, d, h)), a) for d, a in relation)

    def _exact_broken_circuit(self, product: tuple[int, ...]):
        """(H, relation) of a broken circuit of any product, or None, in
        exact arithmetic: a member in the span of the smaller members closes
        a circuit whose smallest member is H; else the smallest suffix of
        the members with a smaller form H in its span gives one."""
        support = sorted(set(product))
        if _annihilator(self.vectors[support]) is None:
            for m in range(1, len(support)):
                coeffs = self._solve(support[:m], support[m])
                if coeffs is not None:
                    (h, a_h), rest = coeffs[0], coeffs[1:]
                    return h, _whole(((support[m], Fraction(1) / a_h),)
                                     + tuple((d, -a / a_h) for d, a in rest))
        for j in range(len(support) - 2, -1, -1):
            below = self.vectors[:support[j]]
            inside = np.flatnonzero((below @ _annihilator(self.vectors[support[j:]]).T == 0)
                                    .all(axis=1))
            if len(inside):
                h = int(inside[0])
                return h, _whole(self._solve(support[j:], h))
        return None

    def _solve(self, members: Sequence[int], target: int):
        """((D, a_D), ...) with target = sum a_D D over the nonzero a_D, if
        target is in the span of the independent members; else None."""
        columns = self.vectors[list(members) + [target]].T.tolist()
        rows, pivots = _eliminate(columns, len(members))
        if any(row[-1] for i, row in enumerate(rows) if i not in pivots.values()):
            return None
        coeffs = {col: Fraction(rows[r][-1], rows[r][col]) for col, r in pivots.items()}
        return tuple((d, coeffs[i]) for i, d in enumerate(members) if coeffs[i])


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


def _annihilator(rows: np.ndarray) -> np.ndarray | None:
    """Integer vectors spanning the vectors orthogonal to the integer rows,
    so that a vector lies in the span of the rows iff it is orthogonal to
    all of them; None if the rows are dependent. Exact."""
    k, d = rows.shape
    reduced, pivots = _eliminate(rows.tolist(), d)
    if len(pivots) < k:
        return None
    scale = math.lcm(*(abs(reduced[r][col]) for col, r in pivots.items()))
    basis = []
    for free in (c for c in range(d) if c not in pivots):
        y = [0] * d
        y[free] = scale
        for col, r in pivots.items():
            y[col] = -reduced[r][free] * scale // reduced[r][col]
        basis.append(y)
    return np.array(basis, dtype=np.int64).reshape(len(basis), d)


def _whole(relation: tuple) -> tuple:
    """Coefficients that are whole numbers as ints."""
    return tuple((d, int(a) if a.denominator == 1 else a) for d, a in relation)


def _rewrite(product: tuple[int, ...], member: int, lower: int) -> tuple[int, ...]:
    """The sorted product with one `member` replaced by `lower`."""
    i = product.index(member)
    rest = product[:i] + product[i + 1:]
    j = bisect.bisect(rest, lower)
    return rest[:j] + (lower,) + rest[j:]


def operator_full(graph: MatsubaraGraph) -> OperatorSpec:
    """The full thermal operator: one summand per subset of lines (2^I)."""
    return OperatorSpec(tuple(gr.line_subsets(graph.line_ids)), graph)


def operator_reduced(graph: MatsubaraGraph) -> OperatorSpec:
    """Reduced thermal operator: subsets up to the cycle rank, cutsets excluded."""
    return OperatorSpec(tuple(gr.non_cutset_subsets(graph, gr.cycle_rank(graph))), graph)


class _Reflection(dict):
    """R_l on product ids: product -> the product with l's bit of each cut
    form's sign pattern flipped (see _Arrangement.flip), filled on first
    use. R_l has no other sign than the parity of q_l in the head (sign)."""

    def __init__(self, arrangement: _Arrangement, line_id: int):
        self.arrangement = arrangement
        self.line_id = line_id
        self.flips: dict[int, int] = {}  # form id -> form id'

    def sign(self, head: tuple) -> int:
        """-1 when q_l has an odd exponent in the head, else +1."""
        return -1 if dict(head[1]).get(self.line_id, 0) % 2 else 1

    def __missing__(self, product: int) -> int:
        arrangement, flips, lid = self.arrangement, self.flips, self.line_id
        flipped = []
        for form in arrangement.products[product]:
            image = flips.get(form)
            if image is None:
                image = flips[form] = arrangement.flip(form, lid)
            flipped.append(image)
        out = self[product] = arrangement.product(tuple(sorted(flipped)))
        return out


_LEAF = None


def _trie(subsets: Iterable[LineSubset]) -> dict:
    """Prefix trie of the subsets in ascending line order; _LEAF marks a subset."""
    trie: dict = {}
    for subset in subsets:
        node = trie
        for lid in sorted(subset):
            node = node.setdefault(lid, {})
        node[_LEAF] = True
    return trie


def _walk(arrangement: _Arrangement, starts: Iterable[tuple[Iterable[LineSubset], dict]],
          total: dict[tuple, dict[int, int]], normal: bool = True) -> None:
    """Apply operators to packed terms, adding the results into total; each
    start pairs the subsets of an operator with the terms it acts on.

    Level by level over the prefix tries of the subsets: each edge applies
    nbe_l (1 - R_l) to the terms of its parent, and each subset's terms
    accumulate into total. Zeros drop at every node. With `normal`, the
    input is brought to normal form over the cut arrangement and so is
    every reflected term, the new products of a level reduced in one batch,
    so terms that cancel only as functions (cutset branches on a normal-form
    integral) drop too.
    """
    level = []
    for subsets, groups in starts:
        trie = _trie(subsets)
        if normal:
            groups = arrangement.normalize_all(groups)
        level.extend((trie, terms, key) for key, terms in groups.items())
    reduced = arrangement.reduced
    while level:
        edges = []
        for node, terms, key in level:
            if _LEAF in node:
                total.setdefault(key, Counter()).update(terms)
            for lid, child in node.items():
                if lid is _LEAF:
                    continue
                if lid in key[1]:
                    raise ex.KernelReflection(lid)
                edges.append((child, terms, key, lid, arrangement.reflection(lid)))
        if normal:
            arrangement.reduce_all(reflect[p] for _, terms, _, _, reflect in edges
                                   for p in terms)
        held = sum(map(len, total.values()))
        level = []
        for child, terms, (head, kernels), lid, reflect in edges:
            sign = reflect.sign(head)
            out = dict(terms)
            get = out.get
            for p, c in terms.items():
                image = reflect[p]
                images = reduced[image] if normal else None
                if images is None:
                    out[image] = get(image, 0) - sign * c
                else:
                    for image, a in images:
                        out[image] = get(image, 0) - sign * a * c
            out = {p: c for p, c in out.items() if c}
            held += len(out)
            if held > MAX_TERMS:
                raise TooManyTerms()
            if out:
                level.append((child, out, (head, tuple(sorted(kernels + (lid,))))))


def apply_operator(spec: OperatorSpec, e: Expression) -> Expression:
    """Apply a thermal operator to an expression.

    The expression is packed once (see _Arrangement). Factors for distinct
    lines commute; within each subset they are applied in ascending line
    order, and subsets sharing a prefix share the intermediate terms (level
    by level over the prefix trie). Each factor nbe_l (1 - R_l) is dict
    arithmetic on packed terms through a memoized map of product ids; terms
    that cancel are dropped at once. The input and every level are kept in
    normal form over the cut arrangement of the spec's graph, so cutset
    branches die early and the result is the normal form. The subsets'
    results are summed into one packed total, which is frozen into an
    Expression once. An empty subset list gives the empty expression.
    Raises UnknownLine for a line the graph lacks, ValueError for a subset
    listed twice, and KernelReflection for reflecting a line whose kernel a
    term already carries.
    """
    seen: set[LineSubset] = set()
    for subset in map(tuple, map(sorted, spec.subsets)):
        for lid in subset:
            spec.graph.line(lid)  # id check
        if subset in seen:
            raise ValueError(f"operator subset {list(subset)} is listed twice")
        seen.add(subset)
    arrangement = _Arrangement(spec.graph)
    total: dict[tuple, dict[int, int]] = {}
    _walk(arrangement, [(spec.subsets, arrangement.pack(e))], total)
    return arrangement.freeze(total, e.scale)


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
                       prod_l (1 + nbe_l (1 - R_l)); every tree accumulates
                       into one packed total, brought to normal form once.
    Each call packs the tree products once over the graph's cut
    arrangement; the result does not depend on the route or the regulator
    hierarchy.
    """
    if method not in ("operator", "direct"):
        raise ValueError(f"unknown method {method!r}")
    trees = gr.enumerate_spanning_trees(graph)
    total: dict[tuple, dict[int, int]] = {}
    arrangement, parts, integral = _tree_products(
        graph, [solve_tree(graph, tree, hierarchy) for tree in trees])
    scale = 2 ** graph.num_lines
    if method == "operator":
        _walk(arrangement, [(operator_reduced(graph).subsets, integral)], total)
        return arrangement.freeze(total, scale)
    _walk(arrangement, [(gr.line_subsets(set(graph.line_ids) - set(tree)), part)
                        for tree, part in zip(trees, parts)], total, normal=False)
    return arrangement.freeze(arrangement.normalize_all(total), scale)


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
