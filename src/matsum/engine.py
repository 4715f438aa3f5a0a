"""Closed-form evaluation pipeline for graph-indexed Matsubara sums.

Stages, per graph G with V vertices, I lines and cycle rank L = I - V + 1:

  1. For each spanning tree, solve the vertex constraints for the tree-line
     variables: n_j = sum_v a_v N_v + sum_l b_l n_l over the non-tree lines l
     (solve_tree), and fix a regulator sign eps_l = +-1 per non-tree line from
     the fundamental cycle and a hierarchy of regulator magnitudes
     (epsilon_signs).
  2. Each tree contributes (2 pi)^L * prod_k 1/(2 q_k) times the product over
     tree lines j of the reflection-difference pair of
     1/(q_j + sum_l eps_l b_l q_l - i sum_v a_v N_v)       (tree_integral);
     summing over trees gives the integral evaluation (matsubara_integral).
  3. The sum evaluation follows either by applying the thermal operator
     sum over non-cutset line subsets S of prod_{i in S} nbe_i (1 - R_i)
     to the integral (operator route), or tree by tree with the operator
     restricted to non-tree lines (direct route). Both canonicalize to the
     same expression (matsubara_sum).

Both routes, and apply_operator for any operator, share one packed kernel:
the input terms are packed once into interned denominator forms, interned
(pi power, q monomial) heads and integer coefficients over a common
denominator; each factor nbe_i (1 - R_i) is then dict arithmetic through a
memoized signed permutation of term shapes, with cancelled terms dropped at
once. Nothing is sorted during the walk: the accumulated result is turned
back into a canonical Expression exactly once per route.

Cutset subsets of reflection-differences annihilate the integral
(annihilator_check), which is what collapses the full 2^I-term operator to
the reduced one.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from . import expressions as ex
from . import graph as gr
from .expressions import Expression
from .graph import LineSubset, MatsubaraGraph


class OmegaForm(NamedTuple):
    """n_j = sum_v n_part[v] * N_v + sum_l line_part[l] * n_l (root eliminated)."""

    n_part: tuple[tuple[str, int], ...]
    line_part: tuple[tuple[int, int], ...]


class TreeSolution(NamedTuple):
    tree: LineSubset
    omega: dict[int, OmegaForm]
    epsilon: dict[int, int]


class OperatorSpec(NamedTuple):
    """Thermal operator as a list of line subsets; subset S stands for the
    summand prod_{i in S} nbe_i (1 - R_i), the empty subset for 1."""

    subsets: tuple[LineSubset, ...]

    def __len__(self) -> int:
        return len(self.subsets)


def epsilon_signs(
    graph: MatsubaraGraph, tree: Iterable[int], hierarchy: Sequence[int] | None = None
) -> dict[int, int]:
    """Regulator sign for every non-tree line.

    The regulated summand attaches e^{i n_l T_l} to each independent variable,
    where T_l is the signed sum of the regulator parameters tau_k over the
    fundamental cycle of l. With the hierarchy tau_{h_1} >> tau_{h_2} >> ... > 0
    (default: ascending line id), the sign of T_l is the cycle sign of the
    highest-ranked line present in the cycle.
    """
    tree_ids = set(tree)
    if hierarchy is None:
        hierarchy = sorted(graph.line_ids)
    else:
        if sorted(hierarchy) != sorted(graph.line_ids):
            raise gr.GraphError("hierarchy must be a permutation of the line ids")
    rank = {lid: pos for pos, lid in enumerate(hierarchy)}
    eps: dict[int, int] = {}
    for lid in sorted(graph.line_ids):
        if lid in tree_ids:
            continue
        cycle = gr.fundamental_cycle(graph, tree_ids, lid)
        top_line, top_sign = min(cycle, key=lambda member: rank[member[0]])
        eps[lid] = top_sign
    return eps


def solve_tree(
    graph: MatsubaraGraph, tree: Iterable[int], hierarchy: Sequence[int] | None = None
) -> TreeSolution:
    """Solve the vertex constraints along a spanning tree.

    For tree line j, summing the constraints over the side of its fundamental
    cut gives n_j = sum_{v in side} N_v - sum_{crossing l != j} sign_l n_l;
    the root N is eliminated through sum_v N_v = 0.
    """
    tree_ids = tuple(sorted(tree))
    non_root = graph.vertices[:-1]
    omega: dict[int, OmegaForm] = {}
    for j in tree_ids:
        side, crossing = gr.fundamental_cutset(graph, tree_ids, j)
        root_in = graph.root in side
        n_part = tuple(
            (v, (1 if v in side else 0) - (1 if root_in else 0)) for v in non_root
        )
        line_part = tuple(
            sorted((l, -sign) for l, sign in crossing.items() if l != j)
        )
        omega[j] = OmegaForm(
            tuple((v, c) for v, c in n_part if c != 0), line_part
        )
    return TreeSolution(tree_ids, omega, epsilon_signs(graph, tree_ids, hierarchy))


def _folded_prefactor_term(graph: MatsubaraGraph, denominators) -> ex.Term:
    """(2 pi)^L / prod_k (2 q_k) with the given denominator forms."""
    nlines = graph.num_lines
    return ex.make_term(
        Fraction(1, 2**nlines),
        pi_power=gr.cycle_rank(graph),
        q_exponents={lid: -1 for lid in graph.line_ids},
        denominators=denominators,
    )


def tree_integral(graph: MatsubaraGraph, solution: TreeSolution) -> Expression:
    """Contribution of one spanning tree to the integral evaluation.

    Each tree line j supplies the denominator
    q_j + sum_l eps_l b_l q_l - i sum_v a_v N_v, substituting the regulated
    saddle i eps_l q_l for each independent variable; the reflection pair
    (1 + R_j) on the folded terms realizes the bare difference
    1/(q_j - i Omega_j) - 1/(-q_j - i Omega_j).
    """
    coeff_sign = 1
    dens = []
    for j in solution.tree:
        om = solution.omega[j]
        q_pairs = [(j, 1)] + [
            (l, solution.epsilon[l] * b) for l, b in om.line_part if b != 0
        ]
        n_pairs = [(v, -a) for v, a in om.n_part]
        form, sign = ex.normalize_form(n_pairs, q_pairs)
        coeff_sign *= sign
        dens.append(form)
    base = _folded_prefactor_term(graph, dens)
    e = Expression.from_terms([base._replace(coeff=base.coeff * coeff_sign)])
    for j in solution.tree:
        e = ex.reflection_pair(e, j)
    return e


def matsubara_integral(
    graph: MatsubaraGraph, hierarchy: Sequence[int] | None = None
) -> Expression:
    """Closed-form evaluation of the Matsubara integral: sum over all trees,
    canonicalized once."""
    return Expression.from_terms(
        t
        for tree in gr.enumerate_spanning_trees(graph)
        for t in tree_integral(graph, solve_tree(graph, tree, hierarchy)).terms
    )


def _all_subsets(ids: Sequence[int]) -> list[LineSubset]:
    """Every subset of `ids`, by size, then lexicographic."""
    return [c for size in range(len(ids) + 1) for c in itertools.combinations(ids, size)]


def operator_full(graph: MatsubaraGraph) -> OperatorSpec:
    """The full thermal operator: one summand per subset of lines (2^I)."""
    if graph.num_lines > gr.MAX_LINES:
        raise gr.GraphTooLarge(f"operator expansion capped at {gr.MAX_LINES} lines")
    return OperatorSpec(tuple(_all_subsets(sorted(graph.line_ids))))


def operator_reduced(graph: MatsubaraGraph) -> OperatorSpec:
    """Reduced thermal operator: subsets up to the cycle rank, cutsets excluded."""
    return OperatorSpec(tuple(gr.non_cutset_subsets(graph, gr.cycle_rank(graph))))


def _intern(ids: dict, items: list, value) -> int:
    i = ids.get(value)
    if i is None:
        i = ids[value] = len(items)
        items.append(value)
    return i


def _ranks(items: list) -> list[int]:
    """rank[i] = position of items[i] in sorted order."""
    rank = [0] * len(items)
    for r, i in enumerate(sorted(range(len(items)), key=items.__getitem__)):
        rank[i] = r
    return rank


class _Packed:
    """Interning tables shared by every term of one operator application.

    Denominator forms, (pi_power, q_exponents) heads and term shapes
    (head id, sorted form-id tuple) are interned to ints, and coefficients
    become ints over `scale`, the common denominator of the inputs. A packed
    expression maps kernel tuple -> {shape id: int coefficient}.
    """

    def __init__(self, inputs: Iterable[Expression]):
        self.scale = math.lcm(*(t.coeff.denominator for e in inputs for t in e.terms))
        self.forms: list[ex.LinearForm] = []
        self.heads: list[tuple] = []
        self.odd: list[frozenset[int]] = []  # per head: lines of odd q exponent
        self.shapes: list[tuple[int, tuple[int, ...]]] = []
        self._form_ids: dict = {}
        self._head_ids: dict = {}
        self._shape_ids: dict = {}
        self._flips: dict[tuple[int, int], tuple[int, int]] = {}
        self._reflections: dict[int, _Reflection] = {}

    def _head(self, pi_power: int, q_exponents: tuple) -> int:
        key = (pi_power, q_exponents)
        head = self._head_ids.get(key)
        if head is None:
            head = self._head_ids[key] = len(self.heads)
            self.heads.append(key)
            self.odd.append(frozenset(l for l, exp in q_exponents if exp % 2))
        return head

    def shape(self, head: int, form_ids: Iterable[int]) -> int:
        return _intern(self._shape_ids, self.shapes, (head, tuple(sorted(form_ids))))

    def pack(self, e: Expression) -> dict[tuple, dict[int, int]]:
        groups: dict[tuple, dict[int, int]] = {}
        for t in e.terms:
            shape = self.shape(
                self._head(t.pi_power, t.q_exponents),
                (_intern(self._form_ids, self.forms, f) for f in t.denominators),
            )
            group = groups.setdefault(t.kernels, {})
            coeff = t.coeff.numerator * (self.scale // t.coeff.denominator)
            group[shape] = group.get(shape, 0) + coeff
        return groups

    def flip(self, form: int, line_id: int) -> tuple[int, int]:
        """R_l on one form: (form id', +-1), memoized."""
        key = (form, line_id)
        out = self._flips.get(key)
        if out is None:
            flipped, sign = ex._flip_form(self.forms[form], line_id)
            out = self._flips[key] = (_intern(self._form_ids, self.forms, flipped), sign)
        return out

    def reflection(self, line_id: int) -> "_Reflection":
        table = self._reflections.get(line_id)
        if table is None:
            table = self._reflections[line_id] = _Reflection(self, line_id)
        return table

    def unpack(self, total: dict[tuple, dict[int, int]]) -> Expression:
        """The canonical Expression, sorted once in Term.key order: heads and
        sorted form tuples compare as their integer ranks do."""
        form_rank, head_rank = _ranks(self.forms), _ranks(self.heads)
        order, parts = [], []
        for head, dens in self.shapes:
            dens = sorted(dens, key=form_rank.__getitem__)
            order.append((head_rank[head], tuple(form_rank[f] for f in dens)))
            parts.append((self.heads[head], tuple(self.forms[f] for f in dens)))
        rows = []
        for kernels, terms in total.items():
            for shape, c in terms.items():
                if c:
                    rank, dens_rank = order[shape]
                    rows.append((rank, kernels, dens_rank, shape, c))
        rows.sort()
        fractions: dict[int, Fraction] = {}
        out = []
        for _, kernels, _, shape, c in rows:
            (pi_power, q_exponents), dens = parts[shape]
            coeff = fractions.get(c)
            if coeff is None:
                coeff = fractions[c] = Fraction(c, self.scale)
            out.append(ex.Term(coeff, pi_power, q_exponents, kernels, dens))
        return Expression(tuple(out))


class _Reflection(dict):
    """R_l as a signed permutation of term shapes: shape -> (shape', +-1),
    filled on first use from the form table and the head's q parity."""

    def __init__(self, packed: _Packed, line_id: int):
        super().__init__()
        self.packed = packed
        self.line_id = line_id

    def __missing__(self, shape: int) -> tuple[int, int]:
        p, line_id = self.packed, self.line_id
        head, dens = p.shapes[shape]
        sign = -1 if line_id in p.odd[head] else 1
        flipped = []
        for form in dens:
            form, s = p.flip(form, line_id)
            sign *= s
            flipped.append(form)
        out = self[shape] = (p.shape(head, flipped), sign)
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


def _walk(packed: _Packed, node: dict, terms: dict[int, int], kernels: tuple,
          total: dict[tuple, dict[int, int]]) -> None:
    """Depth-first over the trie: each edge applies nbe_l (1 - R_l) to the
    packed terms, dropping zeros; each subset's terms accumulate into total."""
    if _LEAF in node:
        acc = total.get(kernels)
        if acc is None:
            total[kernels] = dict(terms)
        else:
            for shape, c in terms.items():
                acc[shape] = acc.get(shape, 0) + c
    for lid, child in node.items():
        if lid is _LEAF:
            continue
        if lid in kernels:
            raise ex.KernelReflection(lid)
        reflect = packed.reflection(lid)
        out = dict(terms)
        for shape, c in terms.items():
            image, sign = reflect[shape]
            out[image] = out.get(image, 0) - sign * c
        out = {shape: c for shape, c in out.items() if c}
        if out:
            _walk(packed, child, out, tuple(sorted(kernels + (lid,))), total)


def _apply_packed(packed: _Packed, subsets: Iterable[LineSubset], e: Expression,
                  total: dict[tuple, dict[int, int]]) -> None:
    trie = _trie(subsets)
    for kernels, terms in packed.pack(e).items():
        _walk(packed, trie, terms, kernels, total)


def apply_operator(spec: OperatorSpec, e: Expression) -> Expression:
    """Apply a thermal operator to an expression.

    The expression is packed once (see _Packed). Factors for distinct lines
    commute; within each subset they are applied in ascending line order,
    and subsets sharing a prefix share the intermediate terms (depth-first
    over the prefix trie). Each factor nbe_l (1 - R_l) is dict arithmetic
    on packed terms through a memoized signed permutation of term shapes;
    terms that cancel are dropped at once, so cutset branches die early.
    The subsets' results are summed into one packed total, which is
    canonicalized once. An empty subset list gives the empty expression.
    Reflecting a line whose kernel a term already carries raises
    KernelReflection.
    """
    packed = _Packed([e])
    total: dict[tuple, dict[int, int]] = {}
    _apply_packed(packed, spec.subsets, e, total)
    return packed.unpack(total)


def matsubara_sum(
    graph: MatsubaraGraph,
    method: str = "operator",
    hierarchy: Sequence[int] | None = None,
) -> Expression:
    """Closed-form evaluation of the Matsubara sum.

    method="operator": reduced thermal operator applied to the integral.
    method="direct":   each tree contribution gets the operator of all
                       subsets of its non-tree lines,
                       prod_l (1 + nbe_l (1 - R_l)); every tree accumulates
                       into one packed total, canonicalized once.
    Both run the packed walk of apply_operator and canonicalize identically.
    """
    if method == "operator":
        return apply_operator(operator_reduced(graph), matsubara_integral(graph, hierarchy))
    if method == "direct":
        parts = [
            (tree, tree_integral(graph, solve_tree(graph, tree, hierarchy)))
            for tree in gr.enumerate_spanning_trees(graph)
        ]
        packed = _Packed(part for _, part in parts)
        total: dict[tuple, dict[int, int]] = {}
        for tree, part in parts:
            free = sorted(set(graph.line_ids) - set(tree))
            _apply_packed(packed, _all_subsets(free), part, total)
        return packed.unpack(total)
    raise ValueError(f"unknown method {method!r}")


def annihilator_check(
    graph: MatsubaraGraph, subset: Iterable[int], e: Expression
) -> bool:
    """True iff prod_{i in subset} (1 - R_i) maps e to the empty expression.

    For any cutset of the graph this holds on the integral evaluation; for
    non-cutsets it generally does not.
    """
    out = e
    for lid in sorted(set(subset)):
        graph.line(lid)  # id check
        out = ex.reflection_difference(out, lid)
        if out.is_empty():
            return True
    return out.is_empty()


def render_operator(spec: OperatorSpec, fmt: str = "text") -> str:
    """Render an operator listing in text, latex, or json."""
    if fmt == "json":
        import json

        return json.dumps({"subsets": [list(s) for s in spec.subsets]})
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
