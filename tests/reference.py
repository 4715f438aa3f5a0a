"""Test-side reference implementations, independent of the packed kernel.

Helpers that only tests call live here, not in the library: make_term
(one Term in canonical shape, for Expression(terms)), and the graph
combinatorics incidence_sign, count_spanning_trees (the matrix-tree
cross-check of the tree enumerator) and fundamental_cycle (a DFS walk).
The engine derives what it needs of these from fundamental cuts, so
epsilon_signs and tree_product below rebuild its regulator signs and tree
products the way it did before: each sign from the top-ranked member of
the DFS cycle, each tree line's form sign-normalized, and the tree lines'
reflection pairs applied to whole expressions.

The term-by-term reflection algebra acts on one Expression at a time in
exact Fraction arithmetic, so the tests can fold an operator subset by
subset and compare with engine.apply_operator; it flips a line in any
sign-normalized form (_flip_form), not only in the graph's cut forms that
the engine's reflection acts on. The two lattice sums check
the numeric machinery: a one-dimensional sum with a known limit, and a
delta-checked sum over all I variables that enforces every vertex
constraint pointwise; the whole-box sum is the lattice oracle as it was
before it summed in slabs, and reference_quadrature_integral the
quadrature oracle as it was before its integrand was planned per outer
point. The term loops of evaluation, rendering and JSON
read an expression through its Term view, one term at a time, as the
library did before it worked on packed tables; the JSON writer keeps the
one-object-per-term schema of that time, and the reader reads the
library's table schema term by term.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import integrate

from matsum import graph as gr
from matsum import oracles
from matsum.engine import TreeSolution
from matsum.expressions import (
    DuplicateKernel,
    Expression,
    ExpressionError,
    KernelReflection,
    LinearForm,
    Term,
    ZeroDenominator,
    add,
    normalize_form,
)
from matsum.graph import Line, MatsubaraGraph
from matsum.kernels import nbe


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


# ---------------------------------------------------------------------------
# graph combinatorics, and the tree stage built from DFS cycles
# ---------------------------------------------------------------------------

def incidence_sign(graph: MatsubaraGraph, vertex: str, line_id: int) -> int:
    """+1 if the line is oriented into the vertex, -1 if away, 0 if not incident."""
    if vertex not in graph.vertices:
        raise gr.UnknownVertex(f"no vertex {vertex!r}")
    ln = graph.line(line_id)
    if ln.head == vertex:
        return 1
    if ln.tail == vertex:
        return -1
    return 0


def count_spanning_trees(graph: MatsubaraGraph) -> int:
    """Spanning-tree count by the matrix-tree theorem (exact integer arithmetic).

    Determinant of the root-reduced multigraph Laplacian via fraction-free
    (Bareiss) elimination; independent cross-check for the enumerator.
    """
    idx = {v: i for i, v in enumerate(graph.vertices)}
    n = graph.num_vertices
    lap = [[0] * n for _ in range(n)]
    for ln in graph.lines:
        a, b = idx[ln.tail], idx[ln.head]
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    # drop the root row/column
    m = [row[: n - 1] for row in lap[: n - 1]]
    size = n - 1
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for r in range(k + 1, size):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[size - 1][size - 1]


def fundamental_cycle(
    graph: MatsubaraGraph, tree: Iterable[int], nontree_line: int
) -> list[tuple[int, int]]:
    """Unique cycle closed by adding one non-tree line to a spanning tree.

    The cycle is walked in the direction of the non-tree line; each member
    is reported as (line_id, sign) with sign +1 when the line is traversed
    along its own orientation. The non-tree line always carries +1.
    """
    tree_ids = set(tree)
    if nontree_line in tree_ids:
        raise gr.UnknownLine(f"line {nontree_line} belongs to the tree")
    chord = graph.line(nontree_line)
    # adjacency restricted to tree lines
    adj: dict[str, list[Line]] = {v: [] for v in graph.vertices}
    for lid in sorted(tree_ids):
        ln = graph.line(lid)
        adj[ln.tail].append(ln)
        adj[ln.head].append(ln)
    # unique tree path from chord.head back to chord.tail (DFS)
    path: list[tuple[Line, int]] = []

    def dfs(v: str, prev_line: int | None) -> bool:
        if v == chord.tail:
            return True
        for ln in adj[v]:
            if ln.id == prev_line:
                continue
            nxt = ln.head if ln.tail == v else ln.tail
            path.append((ln, +1 if ln.tail == v else -1))
            if dfs(nxt, ln.id):
                return True
            path.pop()
        return False

    if not dfs(chord.head, None):
        raise gr.GraphError(f"tree {sorted(tree_ids)} does not connect line {nontree_line}")
    return [(nontree_line, 1)] + [(ln.id, sign) for ln, sign in path]


def epsilon_signs(graph: MatsubaraGraph, tree: Iterable[int],
                  hierarchy: Sequence[int] | None = None) -> dict[int, int]:
    """Each non-tree line's regulator sign: the cycle sign of the member of
    its fundamental cycle ranked highest by the hierarchy (default:
    ascending line id)."""
    rank = {lid: pos for pos, lid in enumerate(hierarchy or sorted(graph.line_ids))}
    return {l: min(fundamental_cycle(graph, tree, l), key=lambda m: rank[m[0]])[1]
            for l in sorted(set(graph.line_ids) - set(tree))}


def tree_product(graph: MatsubaraGraph, solution: TreeSolution) -> Expression:
    """One tree's product in the tree basis: each tree line's Omega_j
    sign-normalized into 1/(q_j + sum_l eps_l b_l q_l - i Omega_j(N)) under
    the prefactor (2 pi)^L / prod_k (2 q_k), then e + R_j e per tree line."""
    coeff, dens = Fraction(1, 2 ** graph.num_lines), []
    for j in solution.tree:
        om = solution.omega[j]
        form, sign = normalize_form(
            [(v, -a) for v, a in om.n_part],
            [(j, 1)] + [(l, solution.epsilon[l] * b) for l, b in om.line_part])
        coeff *= sign
        dens.append(form)
    e = Expression([make_term(coeff, gr.cycle_rank(graph),
                              {lid: -1 for lid in graph.line_ids}, (), dens)])
    for j in solution.tree:
        e = add(e, reflect(e, j))
    return e


# ---------------------------------------------------------------------------
# term-by-term reflection algebra
# ---------------------------------------------------------------------------

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
    return Expression(reflect_term(t, line_id) for t in e.terms)


def kernel_multiply(e: Expression, line_id: int) -> Expression:
    """Multiply every term by nbe(q_{line_id})."""
    new_terms = []
    for t in e.terms:
        if line_id in t.kernels:
            raise DuplicateKernel(line_id)
        new_terms.append(t._replace(kernels=tuple(sorted(t.kernels + (line_id,)))))
    return Expression(new_terms)


def reflection_difference(e: Expression, line_id: int) -> Expression:
    """(1 - R_i) e, the reflection-difference of the whole expression."""
    def emit():
        for t in e.terms:
            yield t
            rt = reflect_term(t, line_id)
            yield rt._replace(coeff=-rt.coeff)

    return Expression(emit())


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
            s = incidence_sign(graph, v, ln.id)
            if s:
                t_v = t_v + s * by_line[ln.id]
        ok &= t_v == full_n_values[v]
    summand = np.ones(grids[0].shape, dtype=float)
    for lid in ids:
        nvals = by_line[lid].astype(float)
        summand = summand / (nvals * nvals + q_values[lid] ** 2)
    return float(np.sum(summand * ok))


def whole_box_sum(
    graph: MatsubaraGraph,
    n_values: Mapping[str, int],
    q_values: Mapping[int, float],
    cutoff: int,
) -> oracles.BruteForceResult:
    """The lattice oracle as it was before it summed in slabs: the whole
    (2M+1)^L box in memory at once, a dense int64 grid per free line and a
    boolean mask for the half-cutoff value."""
    sol, free = oracles._independent_layout(graph)
    rank = len(free)
    oracles._check_lattice_box(cutoff, rank)
    axis = np.arange(-cutoff, cutoff + 1, dtype=np.int64)
    grids = list(np.meshgrid(*([axis] * rank), indexing="ij"))
    by_line = {lid: g for lid, g in zip(free, grids)}
    for j in sol.tree:
        by_line[j] = np.broadcast_to(sol.omega[j].value(n_values, by_line), grids[0].shape)
    summand = np.ones(grids[0].shape, dtype=float)
    for lid in graph.line_ids:
        nvals = by_line[lid].astype(float)
        summand = summand / (nvals * nvals + q_values[lid] ** 2)
    half = cutoff // 2
    mask = np.ones(grids[0].shape, dtype=bool)
    for g in grids:
        mask &= np.abs(g) <= half
    return oracles.BruteForceResult(float(np.sum(summand)), float(np.sum(summand * mask)))


def reference_quadrature_integral(
    graph: MatsubaraGraph,
    n_values: Mapping[str, int],
    q_values: Mapping[int, float],
    tolerance: float = 1e-10,
) -> oracles.QuadratureResult:
    """The quadrature oracle as it was before its integrand was planned per
    outer point: the same nested integrate.quad passes over a generic
    integrand that fills in every line's value at every call."""
    sol, free = oracles._independent_layout(graph)
    rank = len(free)
    if rank > 2:
        raise oracles.RankTooHigh(f"cycle rank {rank} > 2")

    # positions in graph.line_ids order, which the divisions follow; a tree
    # line's at most two terms are added from 0 in line_part order
    order = graph.line_ids
    pos = {lid: i for i, lid in enumerate(order)}
    q_squared = [q_values[lid] ** 2 for lid in order]
    free_pos = [pos[lid] for lid in free]
    omegas = []
    for j in sol.tree:
        om = sol.omega[j]
        const = float(sum(a * n_values[v] for v, a in om.n_part))
        omegas.append((pos[j], const, [(pos[l], b) for l, b in om.line_part]))

    def integrand(xs: Sequence[float]) -> float:
        vals = [0.0] * len(order)
        for p, x in zip(free_pos, xs):
            vals[p] = x
        for p, const, line_part in omegas:
            part = 0
            for l, b in line_part:
                part += b * vals[l]
            vals[p] = const + part
        out = 1.0
        for x, q2 in zip(vals, q_squared):
            out /= x * x + q2
        return out

    def nested(outer: tuple, tol: float, epsabs: float):
        if len(outer) == rank - 1:
            def f(u: float) -> float:
                x = math.tan(u)
                return integrand(outer + (x,)) * (1.0 + x * x)
        else:
            def f(u: float) -> float:
                x = math.tan(u)
                jac = 1.0 + x * x
                return nested(outer + (x,), tol / 10.0, tol / 10.0 / max(jac, 1.0))[0] * jac
        return integrate.quad(f, -math.pi / 2, math.pi / 2, epsabs=epsabs, epsrel=tol,
                              limit=300)

    return oracles.QuadratureResult(*nested((), tolerance, tolerance))


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
    return Expression(
        make_term(Fraction(data["coeffs"][c]), heads[h]["two_pi_pow"],
                  {int(l): x for l, x in heads[h]["q_exp"].items()},
                  data["kernels"][k], [forms[f] for f in data["products"][p]])
        for h, k, p, c in data["terms"])
