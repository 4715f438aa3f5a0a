"""Independent numeric ground truth for the symbolic pipeline.

Brute-force lattice sums (truncated boxes over the independent summation
variables), adaptive quadrature on the tangent-substituted axes for the
integrals (cycle rank <= 2), the Bose-Einstein kernel, Gaudin-identity
residuals, and verification reports comparing oracle values against the
evaluated closed forms.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from scipy import integrate

from . import engine as eng
from . import expressions as ex
from . import graph as gr
from .graph import MatsubaraGraph
from .kernels import ZeroArgument, nbe  # noqa: F401  (re-exported oracle ops)

logger = logging.getLogger(__name__)

_MAX_LATTICE_POINTS = 50_000_000


class RankTooHigh(ValueError):
    """Quadrature supports cycle rank <= 2 only."""


class BoxTooLarge(ValueError):
    """The lattice box holds more points than the oracle will sum."""


class ConstraintViolated(ValueError):
    """A summation-variable tuple does not satisfy the vertex constraints."""


class BruteForceResult(NamedTuple):
    value: float
    half_value: float  # same sum truncated at cutoff // 2, for convergence

    @property
    def convergence(self) -> float:
        return abs(self.value - self.half_value)


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float


def _independent_layout(graph: MatsubaraGraph):
    """First spanning tree, its solution, and the sorted non-tree lines."""
    tree = gr.enumerate_spanning_trees(graph)[0]
    sol = eng.solve_tree(graph, tree)
    free = sorted(set(graph.line_ids) - set(tree))
    return sol, free


def _line_values(sol, free, grids, n_values):
    """Value of every summation variable on the grid (integer arithmetic);
    a bridge line, which no free variable enters, is broadcast to grid shape."""
    by_line = {lid: g for lid, g in zip(free, grids)}
    for j in sol.tree:
        by_line[j] = np.broadcast_to(sol.omega[j].value(n_values, by_line), grids[0].shape)
    return by_line


def _check_lattice_box(cutoff: int, rank: int) -> None:
    if cutoff < 10:
        raise ValueError("cutoff must be at least 10")
    if (2 * cutoff + 1) ** rank > _MAX_LATTICE_POINTS:
        raise BoxTooLarge(f"lattice box (2*{cutoff}+1)^{rank} is too large")


def brute_force_sum(
    graph: MatsubaraGraph,
    n_values: Mapping[str, int],
    q_values: Mapping[int, float],
    cutoff: int,
) -> BruteForceResult:
    """Truncated lattice sum over the independent variables of the first tree.

    Iterates the L = I - V + 1 independent variables over [-M, M]^L, fills in
    the dependent variables from the solved constraints, and accumulates
    prod_i 1/(n_i^2 + q_i^2). The value truncated at M // 2 rides along for a
    convergence estimate. Summation order is fixed, so results are
    reproducible bit-for-bit per configuration.
    """
    sol, free = _independent_layout(graph)
    rank = len(free)
    _check_lattice_box(cutoff, rank)
    axis = np.arange(-cutoff, cutoff + 1, dtype=np.int64)
    grids = list(np.meshgrid(*([axis] * rank), indexing="ij"))
    by_line = _line_values(sol, free, grids, n_values)
    summand = np.ones(grids[0].shape, dtype=float)
    for lid in graph.line_ids:
        nvals = by_line[lid].astype(float)
        summand = summand / (nvals * nvals + q_values[lid] ** 2)
    half = cutoff // 2
    mask = np.ones(grids[0].shape, dtype=bool)
    for g in grids:
        mask &= np.abs(g) <= half
    return BruteForceResult(float(np.sum(summand)), float(np.sum(summand * mask)))


def quadrature_integral(
    graph: MatsubaraGraph,
    n_values: Mapping[str, int],
    q_values: Mapping[int, float],
    tolerance: float = 1e-10,
) -> QuadratureResult:
    """Adaptive quadrature of the integral over the independent variables.

    Each infinite axis is mapped through x = tan(u); the integrand decays at
    least like 1/x^4 per axis, so the substituted integrand is smooth at the
    endpoints. Supports cycle rank 1 and 2 (nested adaptive passes).
    """
    sol, free = _independent_layout(graph)
    rank = len(free)
    if rank > 2:
        raise RankTooHigh(f"cycle rank {rank} > 2")

    omegas = []
    for j in sol.tree:
        om = sol.omega[j]
        const = float(sum(a * n_values[v] for v, a in om.n_part))
        omegas.append((j, const, om.line_part))

    def integrand(xs: Sequence[float]) -> float:
        by_line = {lid: x for lid, x in zip(free, xs)}
        for j, const, line_part in omegas:
            by_line[j] = const + sum(b * by_line[l] for l, b in line_part)
        out = 1.0
        for lid in graph.line_ids:
            x = by_line[lid]
            out /= x * x + q_values[lid] ** 2
        return out

    half_pi = math.pi / 2
    if rank == 1:

        def f(u: float) -> float:
            x = math.tan(u)
            return integrand((x,)) * (1.0 + x * x)

        value, err = integrate.quad(
            f, -half_pi, half_pi, epsabs=tolerance, epsrel=tolerance, limit=300
        )
        return QuadratureResult(value, err)

    inner_tol = tolerance / 10.0

    def inner(u1: float) -> float:
        x1 = math.tan(u1)
        jac1 = 1.0 + x1 * x1

        def f(u2: float) -> float:
            x2 = math.tan(u2)
            return integrand((x1, x2)) * (1.0 + x2 * x2)

        # the outer jacobian amplifies the inner absolute error; tighten it
        val, _ = integrate.quad(
            f, -half_pi, half_pi,
            epsabs=inner_tol / max(jac1, 1.0), epsrel=inner_tol, limit=300,
        )
        return val * jac1

    value, err = integrate.quad(
        inner, -half_pi, half_pi, epsabs=tolerance, epsrel=tolerance, limit=300
    )
    return QuadratureResult(value, err)


# ---------------------------------------------------------------------------
# verification protocol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    q_values: dict[int, float]
    n_values: dict[str, int]
    symbolic: float
    oracle: float
    abs_error: float
    rel_error: float
    convergence: float
    tolerance: float
    passed: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "q": {str(k): v for k, v in sorted(self.q_values.items())},
                "n": {k: v for k, v in sorted(self.n_values.items())},
                "symbolic": self.symbolic,
                "oracle": self.oracle,
                "abs_error": self.abs_error,
                "rel_error": self.rel_error,
                "convergence": self.convergence,
                "tolerance": self.tolerance,
                "pass": self.passed,
            }
        )


def _make_report(symbolic, oracle, convergence, tolerance, q_values, n_values):
    abs_err = abs(symbolic - oracle)
    rel_err = abs_err / abs(oracle) if oracle != 0 else math.inf
    passed = rel_err <= tolerance or (abs(oracle) < 1 and abs_err <= tolerance)
    return VerificationReport(
        dict(q_values), dict(n_values), symbolic, oracle,
        abs_err, rel_err, convergence, tolerance, passed,
    )


def _random_point(graph: MatsubaraGraph, expr: ex.Expression, rng: np.random.Generator):
    """Draw (q, N) until the expression evaluates; degenerate draws redraw."""
    non_root = graph.vertices[:-1]
    for attempt in range(100):
        q_values = {lid: float(rng.uniform(0.3, 3.0)) for lid in sorted(graph.line_ids)}
        n_values = {v: int(rng.integers(-3, 4)) for v in non_root}
        try:
            value = ex.eval_numeric(expr, q_values, n_values)
        except ex.ZeroDenominator:
            logger.debug("degenerate draw (attempt %d), redrawing", attempt)
            continue
        return q_values, n_values, value
    raise RuntimeError("could not draw a non-degenerate evaluation point")


def verify_sum(
    graph: MatsubaraGraph,
    trials: int,
    cutoff: int,
    tolerance: float,
    seed: int = 0,
) -> list[VerificationReport]:
    """Compare the evaluated closed-form sum against brute force on random draws."""
    _check_lattice_box(cutoff, gr.cycle_rank(graph))
    expr = eng.matsubara_sum(graph)
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(trials):
        q_values, n_values, value = _random_point(graph, expr, rng)
        brute = brute_force_sum(graph, n_values, q_values, cutoff)
        reports.append(
            _make_report(value.real, brute.value, brute.convergence,
                         tolerance, q_values, n_values)
        )
    return reports


def verify_integral(
    graph: MatsubaraGraph,
    trials: int,
    tolerance: float,
    seed: int = 0,
) -> list[VerificationReport]:
    """Compare the evaluated closed-form integral against quadrature."""
    if gr.cycle_rank(graph) > 2:
        raise RankTooHigh(f"cycle rank {gr.cycle_rank(graph)} > 2")
    expr = eng.matsubara_integral(graph)
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(trials):
        q_values, n_values, value = _random_point(graph, expr, rng)
        quad = quadrature_integral(graph, n_values, q_values, tolerance / 10.0)
        reports.append(
            _make_report(value.real, quad.value, quad.error_estimate,
                         tolerance, q_values, n_values)
        )
    return reports


def check_gaudin_identity(
    graph: MatsubaraGraph,
    q_values: Mapping[int, float],
    n_tuple: Mapping[int, int],
    claimed_n: Mapping[str, int] | None = None,
) -> float:
    """Relative residual of the tree-decomposition identity

        prod_k 1/(q_k - i n_k) = sum_T prod_{j in T} 1/(q_j - i Omega_j(N, -i q_l))
                                        * prod_{l not in T} 1/(q_l - i n_l)

    which holds whenever the tuple n satisfies every vertex constraint.
    The N values are read off the tuple (N_v = sum_i s^v_i n_i); a claimed
    non-root assignment, when given, must match or ConstraintViolated raises.
    """
    t_values = {}
    for v in graph.vertices:
        t_values[v] = sum(
            gr.incidence_sign(graph, v, ln.id) * n_tuple[ln.id] for ln in graph.lines
        )
    if claimed_n is not None:
        non_root = graph.vertices[:-1]
        implied_root = -sum(claimed_n[v] for v in non_root)
        for v in non_root:
            if t_values[v] != claimed_n[v]:
                raise ConstraintViolated(
                    f"vertex {v!r}: tuple gives N={t_values[v]}, claimed {claimed_n[v]}"
                )
        if t_values[graph.root] != implied_root:
            raise ConstraintViolated("root constraint violated")

    lhs = 1.0 + 0j
    for ln in graph.lines:
        lhs /= q_values[ln.id] - 1j * n_tuple[ln.id]

    saddle = {lid: -1j * q_values[lid] for lid in graph.line_ids}
    rhs = 0j
    for tree in gr.enumerate_spanning_trees(graph):
        sol = eng.solve_tree(graph, tree)
        contrib = 1.0 + 0j
        for j in sol.tree:
            contrib /= q_values[j] - 1j * sol.omega[j].value(t_values, saddle)
        for l in sorted(set(graph.line_ids) - set(tree)):
            contrib /= q_values[l] - 1j * n_tuple[l]
        rhs += contrib
    return abs(lhs - rhs) / abs(lhs)
