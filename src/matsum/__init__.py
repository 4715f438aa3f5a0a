"""Closed-form evaluation of graph-indexed Matsubara sums and integrals."""

from .engine import (
    NormalFormTooLarge,
    NotACutForm,
    OperatorSpec,
    TreeSolution,
    annihilator_check,
    apply_operator,
    matsubara_integral,
    matsubara_sum,
    normal_form,
    operator_full,
    operator_reduced,
    render_operator,
    solve_tree,
    tree_integral,
    tree_product,
)
from .expressions import (
    Expression,
    LinearForm,
    Term,
    add,
    eval_numeric,
    parse_expression,
    render,
)
from .graph import (
    MatsubaraGraph,
    bonds,
    cycle_rank,
    enumerate_spanning_trees,
    fundamental_cutset,
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
