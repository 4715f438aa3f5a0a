"""Closed-form evaluation of graph-indexed Matsubara sums and integrals."""

from .engine import (
    OperatorSpec,
    TreeSolution,
    annihilator_check,
    apply_operator,
    epsilon_signs,
    matsubara_integral,
    matsubara_sum,
    operator_full,
    operator_reduced,
    render_operator,
    solve_tree,
    tree_integral,
)
from .expressions import (
    Expression,
    LinearForm,
    Term,
    add,
    eval_numeric,
    kernel_multiply,
    parse_expression,
    reflect,
    render,
    scale,
)
from .graph import (
    MatsubaraGraph,
    count_spanning_trees,
    cycle_rank,
    enumerate_spanning_trees,
    fundamental_cutset,
    fundamental_cycle,
    incidence_sign,
    is_cutset,
    make_graph,
    cutset_subsets,
    non_cutset_subsets,
    validate_graph,
)
from .kernels import nbe
from .oracles import (
    VerificationReport,
    brute_force_sum,
    check_gaudin_identity,
    quadrature_integral,
    verify_integral,
    verify_sum,
)

__version__ = "0.1.0"
