#!/usr/bin/env python3
"""The tree-decomposition identity, and what regulator choices do and don't change.

The rational function 1/prod_k (q_k - i n_k), restricted to summation
variables satisfying the vertex constraints, splits into one term per
spanning tree. That identity is checked here numerically to machine
precision on random constrained tuples.

The second half shows what the regulator hierarchy (which fixes a sign per
non-tree line) does and does not change. The per-tree products depend on
it: for the five-line, four-vertex graph different hierarchies give
genuinely different (equally valid) tree-basis assemblies whose values
agree to machine precision. The closed form the pipeline returns does not:
it is the normal form over the graph's cut arrangement, one expression per
function, here 20 terms for every hierarchy. For two-vertex graphs the two
already coincide.
"""

import numpy as np

from matsum import engine, fixtures, oracles
from matsum import expressions as ex
from matsum import graph as gr

g = fixtures.g4()
rng = np.random.default_rng(0)

print("== identity residuals on random constrained tuples ==")
sol = engine.solve_tree(g, gr.enumerate_spanning_trees(g)[0])
free = sorted(set(g.line_ids) - set(sol.tree))
for _ in range(5):
    q = {lid: float(rng.uniform(0.3, 3.0)) for lid in g.line_ids}
    n = {v: int(rng.integers(-3, 4)) for v in g.vertices[:-1]}
    tup = {l: int(rng.integers(-5, 6)) for l in free}
    for j in sol.tree:
        tup[j] = sol.omega[j].value(n, tup)
    residual = oracles.check_gaudin_identity(g, q, tup, claimed_n=n)
    print(f"  n = {tup}   residual = {residual:.2e}")

print()
print("== hierarchy (in)dependence of the closed form ==")
q = {i: 0.4 + 0.3 * i for i in range(1, 6)}
n = {"a": 1, "b": -2, "c": 1}


def tree_basis(graph, hierarchy=None):
    """The unnormalized tree products of all spanning trees, summed."""
    return ex.Expression(
        t for tree in gr.enumerate_spanning_trees(graph)
        for t in engine.tree_product(graph, engine.solve_tree(graph, tree, hierarchy)).terms)


base_raw, base = tree_basis(g), engine.matsubara_integral(g)
print(f"default hierarchy: tree basis {len(base_raw)} terms, normal form "
      f"{len(base)} terms, I = {ex.eval_numeric(base, q, n).real:.12g}")
for h in ([5, 4, 3, 2, 1], [2, 4, 1, 5, 3]):
    raw, other = tree_basis(g, h), engine.matsubara_integral(g, hierarchy=h)
    print(f"hierarchy {h}: tree basis identical: {raw == base_raw}, "
          f"I = {ex.eval_numeric(raw, q, n).real:.12g}; "
          f"normal form identical: {other == base}")

g2 = fixtures.g2()
base2 = engine.matsubara_integral(g2)
print(f"\ntwo-line graph, hierarchy [2, 1] identical form: "
      f"{engine.matsubara_integral(g2, hierarchy=[2, 1]) == base2}")
