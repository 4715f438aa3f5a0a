"""Test-side reference implementations, independent of the packed kernel.

The term-by-term reflection algebra acts on one Expression at a time in
exact Fraction arithmetic, so the tests can fold an operator subset by
subset and compare with engine.apply_operator. The two lattice sums check
the numeric machinery: a one-dimensional sum with a known limit, and a
delta-checked sum over all I variables that enforces every vertex
constraint pointwise.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from matsum import graph as gr
from matsum import oracles
from matsum.expressions import (
    DuplicateKernel,
    Expression,
    KernelReflection,
    Term,
    _flip_form,
)
from matsum.graph import MatsubaraGraph


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
