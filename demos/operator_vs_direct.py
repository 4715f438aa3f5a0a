#!/usr/bin/env python3
"""The two routes from the integral to the sum agree term by term.

Route 1 (operator): apply the reduced thermal operator, a sum over the
non-cutset line subsets of size up to the cycle rank, to the full integral
evaluation.

Route 2 (direct): apply, tree by tree, the operator restricted to the
non-tree lines of that tree, and add everything up.

Both canonicalize to the identical expression; and the full 2^I-subset
operator gives the same result as the reduced one because every cutset
product of reflection differences annihilates the integral.
"""

import numpy as np

from matsum import engine, fixtures
from matsum import graph as gr

for name, g in [("G3", fixtures.g3()), ("G4", fixtures.g4())]:
    integral = engine.matsubara_integral(g)
    s_operator = engine.apply_operator(engine.operator_reduced(g), integral)
    s_direct = engine.matsubara_sum(g, "direct")
    s_full = engine.apply_operator(engine.operator_full(g), integral)
    print(f"{name}: |I| = {len(integral)} terms, |S| = {len(s_operator)} terms")
    print(f"  operator == direct : {s_operator == s_direct}")
    print(f"  full == reduced    : {s_full == s_operator}  "
          f"({len(engine.operator_full(g))} vs {len(engine.operator_reduced(g))} subsets)")

    cutsets = gr.cutset_subsets(g, 3)
    print(f"  cutsets (size<=3)  : {cutsets}")
    print(f"  all annihilate I   : "
          f"{all(engine.annihilator_check(g, c, integral) for c in cutsets)}")
    print()

print("same check on a random graph:")
rng = np.random.default_rng(5)
g = fixtures.random_graph(rng, max_vertices=4, max_lines=6)
print("  lines:", [(ln.id, f"{ln.tail}->{ln.head}") for ln in g.lines])
s_op = engine.matsubara_sum(g, "operator")
s_dir = engine.matsubara_sum(g, "direct")
print("  operator == direct :", s_op == s_dir, f" ({len(s_op)} terms)")
