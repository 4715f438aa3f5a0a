"""Independent numeric ground truth for the symbolic pipeline.

Brute-force lattice sums (truncated boxes over the independent summation
variables), adaptive quadrature on the tangent-substituted axes for the
integrals (cycle rank <= 2), the Bose-Einstein kernel, Gaudin-identity
residuals, and verification reports comparing oracle values against the
evaluated closed forms.

SciPy is loaded only when `quadrature_integral` runs (`matsum verify
--target integral`); importing this module or the package does not load it.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import engine as eng
from . import expressions as ex
from . import graph as gr
from .graph import MatsubaraGraph
from .kernels import ZeroArgument, nbe  # noqa: F401  (re-exported oracle ops)

logger = logging.getLogger(__name__)

_MAX_LATTICE_POINTS = 50_000_000
_SLAB_POINTS = 2 ** 16  # 512 KB of float64 per slab array, within a 1-2 MB L2 cache


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
    tree = next(gr.spanning_trees(graph))
    sol = eng.solve_tree(graph, tree)
    free = sorted(set(graph.line_ids) - set(tree))
    return sol, free


def _line_table(graph: MatsubaraGraph, n_values: Mapping[str, int],
                q_values: Mapping[int, float]):
    """(const, b, q^2) of every line, in graph.line_ids order: its variable
    is const + sum_a b[a] x_a over the free variables x_a (the sorted
    non-tree lines of the first spanning tree), with const an integer from
    the N values."""
    sol, free = _independent_layout(graph)
    lines = []
    for lid in graph.line_ids:
        om = sol.omega.get(lid, eng.OmegaForm((), ((lid, 1),)))
        part = dict(om.line_part)
        lines.append((sum(a * n_values[v] for v, a in om.n_part),
                      [part.get(l, 0) for l in free], q_values[lid] ** 2))
    return lines


def _check_lattice_box(cutoff: int, rank: int) -> None:
    if cutoff < 10:
        raise ValueError("cutoff must be at least 10")
    if (2 * cutoff + 1) ** rank > _MAX_LATTICE_POINTS:
        raise BoxTooLarge(f"lattice box (2*{cutoff}+1)^{rank} is too large")


def _reciprocals(origin: int, steps: Sequence[int], shape: tuple[int, ...],
                 q_squared: float) -> np.ndarray:
    """1/(n^2 + q^2) on a slab where n = origin + steps . i at slab index i:
    computed once on the integer range n takes, and laid over the slab by
    strides (steps[a] items along axis a)."""
    reach = [(size - 1) * step for size, step in zip(shape, steps)]
    low = origin + sum(min(0, r) for r in reach)
    n = np.arange(low, origin + sum(max(0, r) for r in reach) + 1, dtype=float)
    table = 1.0 / (n * n + q_squared)
    return np.ndarray([size if step else 1 for size, step in zip(shape, steps)], float,
                      table, (origin - low) * table.itemsize,
                      [step * table.itemsize for step in steps])


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
    convergence estimate.

    The box is summed in slabs of the leading variable, each about
    _SLAB_POINTS points (at least one row, every other axis in full). Every
    line's variable is const + sum_a b_a x_a over the free variables x_a, so
    on a slab it runs over one integer range: its reciprocals are computed
    on that range and read into the slab by strides. The product over the
    lines is the only full-size work: each slab starts as a copy of the
    first line's reciprocals (1.0 * r is r) and is multiplied by the others
    in line-id order. The slab sums are added with
    math.fsum, so results are reproducible bit-for-bit per configuration.
    _MAX_LATTICE_POINTS caps the box, and so the time; the memory is one
    slab's: at most _SLAB_POINTS points up to rank 2, and about 1.2M (one
    row at rank 5, cutoff 16) at any rank the cap admits.
    """
    rank = gr.cycle_rank(graph)
    _check_lattice_box(cutoff, rank)
    width = 2 * cutoff + 1
    rows = max(1, _SLAB_POINTS // width ** (rank - 1))
    half = cutoff // 2
    inner = (slice(cutoff - half, cutoff + half + 1),) * (rank - 1)
    lines = _line_table(graph, n_values, q_values)
    sums, half_sums = [], []
    for start in range(0, width, rows):
        shape = (min(rows, width - start),) + (width,) * (rank - 1)
        summand = None
        for const, b, q_squared in lines:
            # n at slab index 0, where x_0 = start - M and every other x_a = -M
            origin = const + b[0] * start - cutoff * sum(b)
            if summand is None:  # a copy of the first line's, as 1.0 * r is r
                summand = np.broadcast_to(_reciprocals(origin, b, shape, q_squared),
                                          shape).copy()
            else:
                summand *= _reciprocals(origin, b, shape, q_squared)
        sums.append(float(np.sum(summand)))
        lo = max(start, cutoff - half) - start
        hi = min(start + rows, cutoff + half + 1) - start
        if lo < hi:
            half_sums.append(float(np.sum(summand[(slice(lo, hi),) + inner])))
    return BruteForceResult(math.fsum(sums), math.fsum(half_sums))


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

    The integrand is planned per outer point (once at rank 1): the
    denominators n^2 + q^2 of the lines that do not depend on the innermost
    axis are computed there, so each innermost call computes tan(u), the
    lines that do depend on that axis, 1.0 divided by every denominator in
    line-id order, and the jacobian 1 + x^2. Each integrand value is the
    float that evaluating every line afresh at every call gives.
    """
    from scipy import integrate  # the package's only SciPy use, loaded here

    rank = gr.cycle_rank(graph)
    if rank > 2:
        raise RankTooHigh(f"cycle rank {rank} > 2")
    lines = _line_table(graph, n_values, q_values)

    def innermost(outer: tuple):
        """The substituted integrand along the last axis, with the earlier
        axes at `outer`. A line's value is float(const) + (its terms b_a x_a
        added from 0.0): the sum of two terms does not depend on their
        order, and 0.0 + t differs from t only in the sign of a zero, which
        the square removes."""
        # head: 1.0 divided by the fixed denominators before the first line
        # that moves with x; each such line's step carries the fixed ones after it
        head, steps, tail = 1.0, [], None
        for const, b, q_squared in lines:
            outer_part = b[0] * outer[0] if outer and b[0] else 0.0
            if b[-1]:
                tail = []
                steps.append((float(const), outer_part, b[-1], q_squared, tail))
                continue
            value = float(const) + outer_part
            if tail is None:
                head /= value * value + q_squared
            else:
                tail.append(value * value + q_squared)

        def f(u: float) -> float:
            x = math.tan(u)
            out = head
            for const, outer_part, b, q_squared, after in steps:
                value = const + (outer_part + b * x)
                out /= value * value + q_squared
                for denominator in after:
                    out /= denominator
            return out * (1.0 + x * x)
        return f

    def nested(outer: tuple, tol: float, epsabs: float):
        """(value, error) of the integral over the axes after `outer`; an
        inner axis gets a tenth of the tolerance, its absolute tolerance
        tightened by the outer jacobian, which amplifies its error."""
        if len(outer) == rank - 1:
            f = innermost(outer)
        else:
            def f(u: float) -> float:
                x = math.tan(u)
                jac = 1.0 + x * x
                return nested(outer + (x,), tol / 10.0, tol / 10.0 / max(jac, 1.0))[0] * jac
        return integrate.quad(f, -math.pi / 2, math.pi / 2, epsabs=epsabs, epsrel=tol,
                              limit=300)

    return QuadratureResult(*nested((), tolerance, tolerance))


# ---------------------------------------------------------------------------
# verification protocol
# ---------------------------------------------------------------------------

#: the VerificationReport fields its JSON writes under another name
_JSON_KEYS = {"q_values": "q", "n_values": "n", "passed": "pass"}


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
    #: the rows' summed magnitudes over their sum's (see _conditioning)
    conditioning: float

    def to_json(self) -> str:
        """The fields in order under their JSON names, q and N sorted by key."""
        return json.dumps({_JSON_KEYS.get(k, k): dict(sorted(v.items())) if isinstance(v, dict)
                           else v for k, v in vars(self).items()})


def _make_report(symbolic, oracle, convergence, tolerance, q_values, n_values,
                 conditioning):
    abs_err = abs(symbolic - oracle)
    rel_err = abs_err / abs(oracle) if oracle != 0 else math.inf
    passed = rel_err <= tolerance or (abs(oracle) < 1 and abs_err <= tolerance)
    return VerificationReport(
        dict(q_values), dict(n_values), symbolic, oracle,
        abs_err, rel_err, convergence, tolerance, passed, conditioning,
    )


def _conditioning(rows: np.ndarray, value: complex) -> float:
    """How much the float sum of an expression's rows (see
    expressions.eval_rows), `value`, can lose to cancellation: the sum of
    the rows' |value| over |value|, at least 1 up to rounding and inf when
    the value is 0. Rounding the rows alone can leave a relative error of
    about this number times the float epsilon."""
    total = np.abs(np.complex128(value))
    return float(np.abs(rows).sum() / total) if total else math.inf


def _draw(graph: MatsubaraGraph, rng: np.random.Generator):
    """One (q, N) draw: q in [0.3, 3) per line in id order, then N in
    [-3, 3] per non-root vertex."""
    q_values = {lid: float(rng.uniform(0.3, 3.0)) for lid in sorted(graph.line_ids)}
    n_values = {v: int(rng.integers(-3, 4)) for v in graph.vertices[:-1]}
    return q_values, n_values


def gaudin_draws(graph: MatsubaraGraph, trials: int, seed: int):
    """`trials` seeded (q, n tuple) draws for check_gaudin_identity: (q, N)
    as verify draws them, then n in [-5, 5] on each non-tree line of the
    first spanning tree, the tree lines' n solved from the constraints."""
    sol, free = _independent_layout(graph)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        q_values, n_values = _draw(graph, rng)
        n_tuple = {lid: int(rng.integers(-5, 6)) for lid in free}
        for j in sol.tree:
            n_tuple[j] = sol.omega[j].value(n_values, n_tuple)
        yield q_values, n_tuple


def _random_point(graph: MatsubaraGraph, expr: ex.Expression, rng: np.random.Generator):
    """Draw (q, N) until the expression evaluates, and give its rows'
    values there; degenerate draws redraw."""
    for attempt in range(100):
        q_values, n_values = _draw(graph, rng)
        try:
            rows = ex.eval_rows(expr, q_values, n_values)
        except ex.ZeroDenominator:
            logger.debug("degenerate draw (attempt %d), redrawing", attempt)
            continue
        return q_values, n_values, rows
    raise RuntimeError("could not draw a non-degenerate evaluation point")


def _trials(graph: MatsubaraGraph, expr: ex.Expression, trials: int, tolerance: float,
            seed: int, oracle) -> list[VerificationReport]:
    """One report per trial: the expression evaluated at a random point
    against oracle(n_values, q_values) -> (value, convergence), with the
    conditioning of its rows there."""
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(trials):
        q_values, n_values, rows = _random_point(graph, expr, rng)
        value = ex.row_sum(rows)
        reports.append(_make_report(value.real, *oracle(n_values, q_values), tolerance,
                                    q_values, n_values, _conditioning(rows, value)))
    return reports


def verify_sum(
    graph: MatsubaraGraph,
    trials: int,
    cutoff: int,
    tolerance: float,
    seed: int = 0,
) -> list[VerificationReport]:
    """Compare the evaluated closed-form sum against brute force on random draws."""
    _check_lattice_box(cutoff, gr.cycle_rank(graph))

    def lattice(n_values, q_values):
        brute = brute_force_sum(graph, n_values, q_values, cutoff)
        return brute.value, brute.convergence

    return _trials(graph, eng.matsubara_sum(graph), trials, tolerance, seed, lattice)


def verify_integral(
    graph: MatsubaraGraph,
    trials: int,
    tolerance: float,
    seed: int = 0,
) -> list[VerificationReport]:
    """Compare the evaluated closed-form integral against quadrature."""
    if gr.cycle_rank(graph) > 2:
        raise RankTooHigh(f"cycle rank {gr.cycle_rank(graph)} > 2")
    return _trials(graph, eng.matsubara_integral(graph), trials, tolerance, seed,
                   lambda n_values, q_values: quadrature_integral(
                       graph, n_values, q_values, tolerance / 10.0))


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
    t_values = dict.fromkeys(graph.vertices, 0)
    for ln in graph.lines:
        t_values[ln.head] += n_tuple[ln.id]
        t_values[ln.tail] -= n_tuple[ln.id]
    if claimed_n is not None:
        # the t_values sum to zero, so the root's follows from the others
        for v in graph.vertices[:-1]:
            if t_values[v] != claimed_n[v]:
                raise ConstraintViolated(
                    f"vertex {v!r}: tuple gives N={t_values[v]}, claimed {claimed_n[v]}"
                )

    lhs = 1.0 + 0j
    for ln in graph.lines:
        lhs /= q_values[ln.id] - 1j * n_tuple[ln.id]

    saddle = {lid: -1j * q_values[lid] for lid in graph.line_ids}
    rhs = 0j
    for sol in eng._solve_trees(graph, gr.enumerate_spanning_trees(graph)).solutions():
        contrib = 1.0 + 0j
        for j in sol.tree:
            contrib /= q_values[j] - 1j * sol.omega[j].value(t_values, saddle)
        for l in sorted(set(graph.line_ids) - set(sol.tree)):
            contrib /= q_values[l] - 1j * n_tuple[l]
        rhs += contrib
    return abs(lhs - rhs) / abs(lhs)
