"""Seeded inputs, closed-loop passes and metrics of the three workloads.

Every workload is a list of graphs and a pass over them, run by a single
client in a closed loop: the next graph, point or trial starts only after
the previous one has finished. A pass runs, in order,

  * the `matsum sum` path on each graph: operator-route closed form, then
    the text render;
  * the workload's check on each graph: the route check (corpus) or oracle
    trials (verify);
  * on the graph with the largest sum: further sum paths, JSON round trips
    (the stress workload's check) and evaluation at seeded points.

Untraced passes call the library's top-level functions. A traced pass runs
each operation once and breaks every top-level call into the public
functions it is made of, with a span around each; it then calls the
top-level function too and records a mismatch if the results differ.
"""

from __future__ import annotations

import math
import statistics
import time
import traceback
import warnings
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning

from matsum import engine, fixtures, oracles
from matsum import expressions as ex
from matsum import graph as gr

import checks
from spans import Tracer, span

DEFAULT_SEEDS = {"corpus": 20260810, "stress": 3, "verify": 17}

#: Lattice cutoff and agreement tolerance of the verify workload.
VERIFY_CUTOFF = 1000
VERIFY_TOLERANCE = 1e-6

#: Criterion 8 of the acceptance suite: seed and tuples per reference graph.
ACCEPTANCE_SEED = 20260810
ACCEPTANCE_GAUDIN_TRIALS = 20

#: Untraced passes repeat an operation until this much time has been spent
#: on it, so that short operations are timed by a median of many readings:
#: the sum path of each graph, of the largest sum (its builds give
#: largest_sum_s), its JSON round trip, and its evaluation at points.
SUM_MIN_SECONDS, SUM_MAX_REPS = 0.2, 50
LARGEST_MIN_SECONDS, LARGEST_MAX_BUILDS = 2.5, 10
JSON_MIN_SECONDS, JSON_MAX_REPS = 2.0, 20
EVAL_MIN_SECONDS, EVAL_MAX_POINTS = 1.0, 50


@dataclass
class VerifySpec:
    sum_trials: int = 2
    integral_trials: int = 2
    gaudin_trials: int = 10
    cutoff: int = VERIFY_CUTOFF
    tolerance: float = VERIFY_TOLERANCE


#: The check each workload runs: "routes" on every graph, "oracles" on every
#: graph, "roundtrip" (JSON round-trip equality) on the largest sum.
CHECKS = {"corpus": ("routes",), "stress": ("roundtrip",), "verify": ("oracles",)}


@dataclass
class Workload:
    name: str
    graphs: list
    points: list                    # per graph: candidate (q, N) points
    checks: tuple
    verify: VerifySpec
    gaudin: list                    # per graph: seeded (q, n tuple, N) trials
    gaudin_checked: list            # per reference graph: (graph, criterion-8 trials)
    oracle_seeds: list              # per graph: seed of verify_sum/verify_integral
    eval_points: int                # points a traced pass evaluates
    references: int                 # leading reference graphs (G2, G3, G4)


@dataclass
class Samples:
    """Timings of untraced passes, as (end time, seconds) pairs."""
    path: dict = field(default_factory=lambda: defaultdict(list))
    largest_build: list = field(default_factory=list)
    json: list = field(default_factory=list)    # (render, parse, compare) samples
    eval: list = field(default_factory=list)
    checks: list = field(default_factory=list)  # (pass, checks, [samples])
    passes: int = 0
    largest_terms: int = 0
    redraws: int = 0
    quadrature_warnings: int = 0
    gaudin_worst: float = 0.0           # worst residual of the seeded tuples
    gaudin_over_bound: int = 0          # seeded residuals at or above the bound


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def reorder_vertices(graph, rng):
    """The same graph with its vertex order (root and N-symbol order) shuffled.

    Line ids and orientations stay, because they fix the regulator
    hierarchy, and closed forms are hierarchy-dependent: relabelling lines
    changes the stress sum's term count by up to 6%.
    """
    order = list(graph.vertices)
    rng.shuffle(order)
    return gr.make_graph(order, [(ln.id, ln.tail, ln.head) for ln in graph.lines])


def draw_points(graph, rng, count):
    """Evaluation points drawn as the oracles draw theirs."""
    out = []
    for _ in range(count):
        q = {lid: float(rng.uniform(0.3, 3.0)) for lid in sorted(graph.line_ids)}
        n = {v: int(rng.integers(-3, 4)) for v in graph.vertices[:-1]}
        out.append((q, n))
    return out


def draw_gaudin_trials(graph, rng, count):
    """Integer tuples satisfying the vertex constraints, as `matsum gaudin-check`."""
    sol = engine.solve_tree(graph, gr.enumerate_spanning_trees(graph)[0])
    free = sorted(set(graph.line_ids) - set(sol.tree))
    out = []
    for _ in range(count):
        q = {lid: float(rng.uniform(0.3, 3.0)) for lid in sorted(graph.line_ids)}
        n = {v: int(rng.integers(-3, 4)) for v in graph.vertices[:-1]}
        tup = {lid: int(rng.integers(-5, 6)) for lid in free}
        for j in sol.tree:
            om = sol.omega[j]
            tup[j] = sum(a * n[v] for v, a in om.n_part) + sum(
                b * tup[l] for l, b in om.line_part
            )
        out.append((q, tup, n))
    return out


def acceptance_gaudin_trials(references):
    """The tuples of the acceptance suite's criterion 8 on the first
    `references` of G2, G3, G4, as (graph, trials) pairs."""
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    graphs = [fixtures.g2(), fixtures.g3(), fixtures.g4()][:references]
    return [(g, draw_gaudin_trials(g, rng, ACCEPTANCE_GAUDIN_TRIALS)) for g in graphs]


def corpus_graphs(draw_seed, count=50):
    """The acceptance suite's criterion-6 corpus: G2, G3, G4 and seeded draws."""
    rng = np.random.default_rng(draw_seed)
    return [fixtures.g2(), fixtures.g3(), fixtures.g4()] + [
        fixtures.random_graph(rng, 5, 7) for _ in range(count)
    ]


def stress_graph(draw_seed):
    """random_graph(default_rng(seed), 4, 8), redrawn until it has 8 lines."""
    rng = np.random.default_rng(draw_seed)
    while True:
        g = fixtures.random_graph(rng, 4, 8)
        if g.num_lines == 8:
            return g


def verify_graphs(draw_seed, count=2):
    """G2, G3, G4 and seeded rank-2 draws with at least three vertices; up
    to rank 2 the lattice box at M = 1000 stays within the oracle's cap."""
    rng = np.random.default_rng(draw_seed)
    extra = []
    while len(extra) < count:
        g = fixtures.random_graph(rng, 4, 6)
        if g.num_vertices >= 3 and gr.cycle_rank(g) == 2:
            extra.append(g)
    return [fixtures.g2(), fixtures.g3(), fixtures.g4()] + extra


def _inputs(name, graphs, rng, checks, verify, eval_points, references):
    """Points for every graph, and Gaudin trials for the leading
    `references` graphs when the workload checks oracles."""
    oracles_checked = "oracles" in checks
    gaudin = [verify.gaudin_trials if oracles_checked and k < references else 0
              for k in range(len(graphs))]
    return Workload(
        name, graphs,
        [draw_points(g, rng, 2 * max(eval_points, EVAL_MAX_POINTS)) for g in graphs],
        checks, verify,
        [draw_gaudin_trials(g, rng, n) for g, n in zip(graphs, gaudin)],
        acceptance_gaudin_trials(references) if oracles_checked else [],
        [int(s) for s in rng.integers(0, 2**31, len(graphs))],
        eval_points, references)


def make_workload(name, seed, draw_seed, graphs=None, eval_points=10,
                  verify=None, references=3):
    """Workload inputs. `draw_seed` draws the graphs; `seed` reorders their
    vertices and draws every point and trial. The first `references` graphs
    are reference graphs (G2, G3, G4 by default). `graphs` and `verify`
    replace the default inputs, for small self-test runs."""
    if graphs is None:
        graphs = {"corpus": corpus_graphs, "stress": lambda s: [stress_graph(s)],
                  "verify": verify_graphs}[name](draw_seed)
    rng = np.random.default_rng([seed, 1])
    graphs = [reorder_vertices(g, rng) for g in graphs]
    return _inputs(name, graphs, rng, CHECKS[name], verify or VerifySpec(),
                   eval_points, references)


def warmup_workload():
    """G2 through every operation and check of every workload, so that lazy
    imports and first calls are paid before timing and every layer is
    entered once."""
    return _inputs("warmup", [fixtures.g2()], np.random.default_rng([0, 2]),
                   ("routes", "oracles", "roundtrip"), VerifySpec(1, 1, 1),
                   eval_points=1, references=1)


# ---------------------------------------------------------------------------
# closed forms, top-level or composed
# ---------------------------------------------------------------------------

def _compare_top_level(tr, composed, composed_s, top_level):
    t0 = time.perf_counter()
    reference = top_level()
    tr.count("trace.top_level_s", time.perf_counter() - t0)
    tr.count("trace.composed_s", composed_s)
    if reference != composed:
        tr.count("trace.mismatches")


def build_integral(graph, tr, compare=True):
    """matsubara_integral, or its composition under a tracer; returns the
    integral and the seconds it took."""
    t0 = time.perf_counter()
    if tr is None:
        return engine.matsubara_integral(graph), time.perf_counter() - t0
    with tr.span("engine.integral"):
        with tr.span("graph.trees"):
            trees = gr.enumerate_spanning_trees(graph)
        total = ex.Expression()
        for tree in trees:
            with tr.span("engine.solve_tree"):
                sol = engine.solve_tree(graph, tree)
            with tr.span("engine.tree_integral"):
                part = engine.tree_integral(graph, sol)
            with tr.span("expressions.add"):
                merged = ex.add(total, part)
            tr.count("expressions.add.terms_in", len(total) + len(part))
            tr.count("expressions.add.terms_out", len(merged))
            total = merged
    composed_s = time.perf_counter() - t0
    tr.count("graph.trees.count", len(trees))
    tr.count("engine.integral.terms", len(total))
    if compare:
        _compare_top_level(tr, total, composed_s,
                           lambda: engine.matsubara_integral(graph))
    return total, composed_s


def build_sum(graph, tr):
    """matsubara_sum by the operator route, or its composition under a
    tracer; returns the sum and the seconds it took."""
    t0 = time.perf_counter()
    if tr is None:
        return engine.matsubara_sum(graph), time.perf_counter() - t0
    integral, _ = build_integral(graph, tr, compare=False)
    with tr.span("graph.subsets"):
        spec = engine.operator_reduced(graph)
    with tr.span("engine.apply_reduced"):
        total = engine.apply_operator(spec, integral)
    composed_s = time.perf_counter() - t0
    tr.count("graph.subsets.count", len(spec))
    tr.count("engine.apply_reduced.terms_in", len(integral))
    tr.count("engine.apply_reduced.terms_out", len(total))
    tr.count("engine.apply_reduced.expansions",
             len(integral) * sum(2 ** len(s) for s in spec.subsets))
    _compare_top_level(tr, total, composed_s, lambda: engine.matsubara_sum(graph))
    return total, composed_s


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def sum_path(graph, tr):
    """`matsum sum`: returns (sum, build seconds, build-and-render seconds)."""
    t0 = time.perf_counter()
    total, build_s = build_sum(graph, tr)
    with span(tr, "expressions.render_text"):
        ex.render(total)
    return total, build_s, time.perf_counter() - t0


def route_check(graph, reduced, tr):
    """Integral, reduced operator (the sum path's result), full operator and
    direct route, compared structurally. Returns (agree, seconds)."""
    t0 = time.perf_counter()
    integral, _ = build_integral(graph, tr)
    with span(tr, "graph.full_subsets"):
        spec = engine.operator_full(graph)
    with span(tr, "engine.apply_full"):
        full = engine.apply_operator(spec, integral)
    with span(tr, "engine.direct"):
        direct = engine.matsubara_sum(graph, "direct")
    with span(tr, "expressions.equal"):
        ok = checks.routes_agree(reduced, full, direct)
    seconds = time.perf_counter() - t0
    if tr is not None:
        tr.count("graph.full_subsets.count", len(spec))
        tr.count("engine.apply_full.terms_out", len(full))
        tr.count("engine.apply_full.expansions",
                 len(integral) * sum(2 ** len(s) for s in spec.subsets))
        tr.count("engine.direct.terms_out", len(direct))
    return ok, seconds


def json_roundtrip(total, tr):
    """Render to JSON and parse back. Returns whether the parsed sum is
    equal, and samples of the render, the parse, and the comparison."""
    t0 = time.perf_counter()
    with span(tr, "expressions.render_json"):
        text = ex.render(total, "json")
    render = _stamp(time.perf_counter() - t0)
    t0 = time.perf_counter()
    with span(tr, "expressions.parse"):
        back = ex.parse_expression(text)
    parse = _stamp(time.perf_counter() - t0)
    t0 = time.perf_counter()
    with span(tr, "expressions.equal"):
        ok = checks.roundtrip_equal(total, back)
    compare = _stamp(time.perf_counter() - t0)
    if tr is not None:
        tr.count("expressions.json_bytes", len(text.encode("utf-8")))
    return ok, (render, parse, compare)


def evaluate(total, points, wanted, tr, ledger, samples):
    """Evaluate at non-degenerate points: `wanted` of them when traced, else
    until EVAL_MIN_SECONDS have been spent (at most EVAL_MAX_POINTS). Each
    value must be real by the CLI's rule; a vanishing denominator redraws
    the point."""
    kernel_factors = sum(len(t.kernels) for t in total.terms)
    timed = []
    if tr is None:
        wanted = EVAL_MAX_POINTS
    done = 0
    for q, n in points:
        if done == wanted or (tr is None and _spent(timed) >= EVAL_MIN_SECONDS):
            break
        t0 = time.perf_counter()
        try:
            with span(tr, "expressions.eval"):
                value = ex.eval_numeric(total, q, n)
        except ex.ZeroDenominator:
            samples.redraws += 1
            if tr is not None:
                tr.count("expressions.eval.attempts")
            continue
        seconds = time.perf_counter() - t0
        done += 1
        if tr is None:
            timed.append(_stamp(seconds))
        else:
            tr.count("expressions.eval.attempts")
            tr.count("expressions.eval.points")
            tr.count("expressions.eval.term_evals", len(total))
            tr.count("kernels.nbe.calls", kernel_factors)
        ledger.check(checks.is_real(value), f"imaginary value {value!r}")
    samples.eval.extend(timed)
    if done < wanted and not timed:
        ledger.fail(f"only {done} of {wanted} points were non-degenerate")


def gaudin_trials(graph, trials, tr):
    """Tree-decomposition identity residuals. Returns (seconds, residuals)."""
    t0 = time.perf_counter()
    residuals = []
    for q, tup, n in trials:
        with span(tr, "oracles.gaudin"):
            residuals.append(oracles.check_gaudin_identity(graph, q, tup, claimed_n=n))
    if tr is not None:
        tr.count("oracles.gaudin.calls", len(trials))
    return time.perf_counter() - t0, residuals


def checked_gaudin(graph, trials, tr, ledger):
    """Criterion 8's trials: every residual must be below the bound."""
    seconds, residuals = gaudin_trials(graph, trials, tr)
    for r in residuals:
        ledger.check(checks.gaudin_holds(r), f"Gaudin residual {r} (criterion 8)")
    return seconds


def seeded_gaudin(graph, trials, tr, samples):
    """Seeded trials: residuals are recorded, not checked. Float cancellation
    among the tree terms lifts about 2% of them on G4 above the bound (up to
    3.9e-11); README.md gives the numbers."""
    seconds, residuals = gaudin_trials(graph, trials, tr)
    over = sum(not checks.gaudin_holds(r) for r in residuals)
    samples.gaudin_over_bound += over
    samples.gaudin_worst = max([samples.gaudin_worst] + residuals)
    if tr is not None:
        tr.count("oracles.gaudin.over_bound", over)
    return seconds


@contextmanager
def recorded_warnings():
    """Record SciPy's integration warnings instead of printing them."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        yield caught


def _integration_warnings(caught):
    return sum(issubclass(w.category, IntegrationWarning) for w in caught)


def report_ok(report, ledger, what):
    ok = report.passed and checks.oracle_agrees(report.symbolic, report.oracle,
                                                report.tolerance)
    ledger.check(ok, f"{what} disagrees with its oracle: {report.to_json()}")


def oracle_trials(graph, spec, seed, reference, tr, ledger, samples):
    """verify_sum on the lattice, and on reference graphs verify_integral by
    quadrature. Returns seconds (untraced) and the number of trials.

    Quadrature runs on the reference graphs only: on the seeded rank-2 graph
    with vertices a, b, c and lines b->a, a->c, c->b, c->b, verify_integral
    missed the 1e-6 tolerance (relative errors 1.0e-5 and 1.2e-5, 12-15 s
    per two trials, with SciPy warnings) on 2 of 20 seeds."""
    t0 = time.perf_counter()
    with recorded_warnings() as caught:
        sums = oracles.verify_sum(graph, spec.sum_trials, spec.cutoff,
                                  spec.tolerance, seed=seed)
        integrals = oracles.verify_integral(
            graph, spec.integral_trials, spec.tolerance, seed=seed) if reference else []
    seconds = time.perf_counter() - t0
    samples.quadrature_warnings += _integration_warnings(caught)
    for r in sums:
        report_ok(r, ledger, "sum")
    for r in integrals:
        report_ok(r, ledger, "integral")
    if tr is not None:
        _decompose_reports(graph, spec, sums, integrals, tr)
    return seconds, len(sums) + len(integrals)


def _decompose_reports(graph, spec, sums, integrals, tr):
    """Recompute each report's two sides from public functions at the point
    it records; a differing value is a mismatch."""
    total, build_s = build_sum(graph, tr)
    tr.count("oracles.build.s", build_s)
    if integrals:
        integral, build_s = build_integral(graph, tr)
        tr.count("oracles.build.s", build_s)
    rank = gr.cycle_rank(graph)
    for r in sums:
        with tr.span("expressions.eval"):
            value = ex.eval_numeric(total, r.q_values, r.n_values)
        with tr.span("oracles.lattice"):
            brute = oracles.brute_force_sum(graph, r.n_values, r.q_values, spec.cutoff)
        tr.count("oracles.lattice.calls")
        tr.count("oracles.lattice.points", (2 * spec.cutoff + 1) ** rank)
        tr.count("expressions.eval.attempts")
        tr.count("expressions.eval.points")
        tr.count("expressions.eval.term_evals", len(total))
        tr.count("kernels.nbe.calls", sum(len(t.kernels) for t in total.terms))
        if value.real != r.symbolic or brute.value != r.oracle:
            tr.count("trace.mismatches")
    for r in integrals:
        with tr.span("expressions.eval"):
            value = ex.eval_numeric(integral, r.q_values, r.n_values)
        # verify_integral asks the quadrature for a tenth of its tolerance
        with recorded_warnings() as caught, tr.span("oracles.quadrature"):
            quad = oracles.quadrature_integral(graph, r.n_values, r.q_values,
                                               spec.tolerance / 10.0)
        tr.count("oracles.quadrature.calls")
        tr.count("oracles.quadrature.warnings", _integration_warnings(caught))
        tr.count("expressions.eval.attempts")
        tr.count("expressions.eval.points")
        tr.count("expressions.eval.term_evals", len(integral))
        if value.real != r.symbolic or quad.value != r.oracle:
            tr.count("trace.mismatches")


# ---------------------------------------------------------------------------
# passes and metrics
# ---------------------------------------------------------------------------

def _guarded(ledger, what, fn, *args):
    """Run one operation; an exception is a failed operation, not a crash."""
    try:
        return fn(*args)
    except Exception:
        ledger.fail(f"{what} raised:\n{traceback.format_exc()}")
        return None


def _stamp(seconds):
    """A sample: (end time, duration), for scaling by the host speed then."""
    return (time.perf_counter(), seconds)


def _spent(stamps):
    return sum(d for _, d in stamps)


def run_pass(w: Workload, tr: Tracer | None, ledger, samples: Samples) -> None:
    """One pass over the workload. Untraced passes repeat short operations
    until enough time has been spent on them; traced passes run every
    operation once."""
    untraced = tr is None
    largest = None
    for i, graph in enumerate(w.graphs):
        if tr is not None:
            tr.item = f"{w.name}:{i}"
        first = _guarded(ledger, f"sum path of graph {i}", sum_path, graph, tr)
        if not ledger.check(first is not None, f"sum path of graph {i}"):
            continue
        total, build_s, path_s = first
        paths = [_stamp(path_s)]
        if largest is None or len(total) > len(largest[1]):
            largest = (i, total, paths[0][0], build_s)
        while untraced and len(paths) < SUM_MAX_REPS and _spent(paths) < SUM_MIN_SECONDS:
            paths.append(_stamp(sum_path(graph, None)[2]))
        samples.path[i].extend(paths)

        if "routes" in w.checks:
            out = _guarded(ledger, f"route check of graph {i}", route_check,
                           graph, total, tr)
            if out is not None:
                ledger.check(out[0], f"routes disagree on graph {i}: {graph}")
                samples.checks.append((samples.passes, 1, [_stamp(out[1])]))
        if "oracles" in w.checks:
            out = _guarded(ledger, f"oracle trials of graph {i}", oracle_trials,
                           graph, w.verify, w.oracle_seeds[i], i < w.references,
                           tr, ledger, samples)
            if out is not None:
                samples.checks.append((samples.passes, out[1], [_stamp(out[0])]))
            if i < len(w.gaudin_checked):
                out = _guarded(ledger, f"criterion-8 Gaudin trials of reference {i}",
                               checked_gaudin, *w.gaudin_checked[i], tr, ledger)
                if out is not None:
                    samples.checks.append((samples.passes, len(w.gaudin_checked[i][1]),
                                           [_stamp(out)]))
            if w.gaudin[i]:
                out = _guarded(ledger, f"Gaudin trials of graph {i}", seeded_gaudin,
                               graph, w.gaudin[i], tr, samples)
                if out is not None:
                    samples.checks.append((samples.passes, len(w.gaudin[i]), [_stamp(out)]))

    if largest is None:
        return
    i, total, built_at, build_s = largest
    if tr is not None:
        tr.item = f"{w.name}:{i}:largest"
    builds = [(built_at, build_s)]
    while untraced and len(builds) < LARGEST_MAX_BUILDS and _spent(builds) < LARGEST_MIN_SECONDS:
        _, build_s, path_s = sum_path(w.graphs[i], None)
        builds.append(_stamp(build_s))
        samples.path[i].append(_stamp(path_s))
    samples.largest_build.extend(builds)

    trips = []
    while not trips or (untraced and len(trips) < JSON_MAX_REPS
                        and sum(_spent(t[:2]) for t in trips) < JSON_MIN_SECONDS):
        out = _guarded(ledger, "JSON round trip", json_roundtrip, total, tr)
        if not ledger.check(out is not None and out[0], "JSON round trip changed the sum"):
            break
        trips.append(out[1])
        if "roundtrip" in w.checks:
            samples.checks.append((samples.passes, 1, list(out[1])))
    samples.json.extend(trips)

    _guarded(ledger, "evaluation", evaluate, total, w.points[i], w.eval_points,
             tr, ledger, samples)
    samples.largest_terms = len(total)
    samples.passes += 1


def measure(w: Workload, seconds: float, ledger) -> Samples:
    """Untraced passes until the next one would end after `seconds` (at
    least one pass)."""
    samples = Samples()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_pass(w, None, ledger, samples)
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return samples


def _nearest_rank(values, share):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _unscaled(end, seconds):
    return 1.0


def end_to_end(samples: Samples, scale=_unscaled) -> dict[str, float]:
    """End-to-end metrics from untraced samples (set-up and memory are added
    by the caller). `scale(end, seconds)` gives the factor for a sample
    taken then. Per-graph times are medians over repeats and passes."""
    def median(stamps):
        return statistics.median(d * scale(t, d) for t, d in stamps)

    per_graph = [median(samples.path[i]) for i in sorted(samples.path)]
    check_time = defaultdict(float)
    for k, _, parts in samples.checks:
        check_time[k] += sum(d * scale(t, d) for t, d in parts)
    checks_per_pass = sum(n for k, n, _ in samples.checks if k == 0)
    return {
        "sum_graphs_per_s": len(per_graph) / sum(per_graph),
        "sum_ms_p50": 1e3 * statistics.median(per_graph),
        "sum_ms_p80": 1e3 * _nearest_rank(per_graph, 0.8),
        "checks_per_s": checks_per_pass / statistics.median(check_time.values()),
        "largest_sum_s": median(samples.largest_build),
        "json_roundtrip_s": statistics.median(
            sum(d * scale(t, d) for t, d in trip[:2]) for trip in samples.json),
        "eval_points_per_s": 1.0 / median(samples.eval),
    }


def per_layer(tr: Tracer, factor: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of a traced run: self time per span name, and the
    counts recorded at the same boundaries; times are multiplied by `factor`."""
    own = tr.self_times()
    c = tr.counts
    out = {f"{name}.s": factor * own.get(name, 0.0) for name in (
        "graph.trees", "graph.subsets", "engine.solve_tree", "engine.tree_integral",
        "engine.integral", "expressions.add", "engine.apply_reduced",
        "engine.apply_full", "engine.direct", "expressions.equal",
        "expressions.render_text", "expressions.render_json", "expressions.parse",
        "expressions.eval", "oracles.lattice", "oracles.quadrature", "oracles.gaudin",
    )}
    for name in (
        "graph.trees.count", "graph.subsets.count", "graph.full_subsets.count",
        "engine.integral.terms", "engine.apply_reduced.terms_in",
        "engine.apply_reduced.terms_out", "engine.apply_full.terms_out",
        "engine.direct.terms_out", "expressions.json_bytes", "expressions.eval.points",
        "expressions.eval.term_evals", "kernels.nbe.calls", "oracles.build.s",
        "oracles.lattice.calls", "oracles.lattice.points", "oracles.quadrature.calls",
        "oracles.quadrature.warnings", "oracles.gaudin.calls", "oracles.gaudin.over_bound",
    ):
        out[name] = c.get(name, 0)
    out["expressions.add.merge_ratio"] = _ratio(c, "expressions.add.terms_out",
                                                "expressions.add.terms_in")
    out["engine.apply_reduced.survival"] = _ratio(c, "engine.apply_reduced.terms_out",
                                                  "engine.apply_reduced.expansions")
    out["engine.apply_full.survival"] = _ratio(c, "engine.apply_full.terms_out",
                                               "engine.apply_full.expansions")
    out["expressions.eval.redraws"] = 1.0 - _ratio(c, "expressions.eval.points",
                                                   "expressions.eval.attempts")
    out["oracles.build.s"] *= factor
    out["trace.overhead_s"] = factor * (c.get("trace.composed_s", 0.0)
                                        - c.get("trace.top_level_s", 0.0))
    return out


def _ratio(counts, top, bottom):
    return counts.get(top, 0) / counts[bottom] if counts.get(bottom) else 0.0
