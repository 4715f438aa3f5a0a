"""Command-line front end.

Subcommands
-----------
validate      check a graph description and report its shape
trees         list the spanning trees
cutsets       list the cutset line subsets up to a size bound
operator      print the reduced thermal operator (or the full one)
integral      closed form of the Matsubara integral
sum           closed form of the Matsubara sum
eval          numeric value of the closed form at given q / N values
verify        compare closed forms against the numeric oracles (JSON lines)
gaudin-check  residuals of the tree-decomposition identity on random tuples

Exit codes: 0 success, 1 graph validation failure or a graph too large to
evaluate, 2 verification failure, 64 usage error. Results go to stdout,
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

import numpy as np

from . import engine, expressions, graph, oracles

DEFAULT_SEED = 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(64)


def _load_graph(path: str) -> graph.MatsubaraGraph:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return graph.validate_graph(raw)


class _UsageError(Exception):
    """An option value the command cannot use; reported in one line, exit 64."""


def _items(text: str, option: str):
    """(key, value) pairs of "k1:v1,k2:v2"; each key at most once."""
    seen = set()
    for item in text.split(","):
        key, sep, val = item.partition(":")
        key, val = key.strip(), val.strip()
        if not sep or not key or not val:
            raise _UsageError(f"{option}: malformed item {item!r}, expected key:value")
        if key in seen:
            raise _UsageError(f"{option}: {key} given twice")
        seen.add(key)
        yield key, val


def _parse_q(text: str, g: graph.MatsubaraGraph) -> dict[int, float]:
    # "1:0.7,2:1.1" -> {1: 0.7, 2: 1.1}, one positive finite value per line
    out = {}
    for key, val in _items(text, "--q"):
        try:
            lid, q = int(key), float(val)
        except ValueError:
            raise _UsageError(f"--q: malformed item {key}:{val}") from None
        if lid not in g.line_ids:
            raise _UsageError(f"--q: the graph has no line {lid}")
        if not (math.isfinite(q) and q > 0):
            raise _UsageError(f"--q: q{lid} = {val} is not a positive finite number")
        out[lid] = q
    missing = sorted(set(g.line_ids) - out.keys())
    if missing:
        raise _UsageError(f"--q: no value for line {', '.join(map(str, missing))}")
    return out


def _parse_n(text: str, g: graph.MatsubaraGraph) -> dict[str, int]:
    # "a:1,b:-2" -> {"a": 1, "b": -2}, one integer per non-root vertex
    non_root = g.vertices[:-1]
    out = {}
    for key, val in _items(text, "--n"):
        if key not in non_root:
            raise _UsageError(f"--n: {key!r} is not a non-root vertex")
        try:
            out[key] = int(val)
        except ValueError:
            raise _UsageError(f"--n: N_{key} = {val} is not an integer") from None
    missing = [v for v in non_root if v not in out]
    if missing:
        raise _UsageError(f"--n: no value for vertex {', '.join(missing)}")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="matsum", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=False, numeric=False):
        p.add_argument("--graph", required=True, help="graph JSON file")
        if fmt:
            p.add_argument("--format", choices=["text", "latex", "json"], default="text")
        if numeric:
            p.add_argument("--trials", type=int, default=10)
            p.add_argument("--tol", type=float, default=1e-6)
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    common(sub.add_parser("validate", help="validate a graph description"))

    common(sub.add_parser("trees", help="list spanning trees"))

    p = sub.add_parser("cutsets", help="list cutset subsets")
    common(p)
    p.add_argument("--max-size", type=int, default=None,
                   help="largest subset size (default: cycle rank)")

    p = sub.add_parser("operator", help="print the thermal operator")
    common(p, fmt=True)
    p.add_argument("--full", action="store_true", help="all 2^I subsets")

    p = sub.add_parser("integral", help="closed form of the integral")
    common(p, fmt=True)

    p = sub.add_parser("sum", help="closed form of the sum")
    common(p, fmt=True)
    p.add_argument("--method", choices=["operator", "direct"], default="operator")

    p = sub.add_parser("eval", help="evaluate a closed form numerically")
    common(p)
    p.add_argument("--target", choices=["sum", "integral"], default="sum")
    p.add_argument("--q", required=True, help="line values, e.g. 1:0.7,2:1.1")
    p.add_argument("--n", required=True, help="non-root vertex values, e.g. a:1")

    p = sub.add_parser("verify", help="oracle verification, JSON lines")
    common(p, numeric=True)
    p.add_argument("--target", choices=["sum", "integral"], default="sum")
    p.add_argument("--cutoff", type=int, default=10_000,
                   help="lattice cutoff for the sum oracle")

    p = sub.add_parser("gaudin-check", help="tree-identity residuals")
    common(p, numeric=True)
    p.set_defaults(tol=1e-12)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        g = _load_graph(args.graph)
    except graph.GraphError as exc:
        print(f"invalid graph: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError, KeyError,
            TypeError) as exc:
        print(f"cannot read graph: {exc}", file=sys.stderr)
        return 1

    try:
        return _dispatch(args, g)
    except _UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 64
    except graph.GraphTooLarge as exc:
        print(f"graph too large: {exc}", file=sys.stderr)
        return 1


def _dispatch(args, g: graph.MatsubaraGraph) -> int:
    if args.command == "validate":
        print(f"valid Matsubara graph: V={g.num_vertices} I={g.num_lines} "
              f"L={graph.cycle_rank(g)} root={g.root}")
        return 0

    if args.command == "trees":
        trees = graph.enumerate_spanning_trees(g)
        for t in trees:
            print("{" + ",".join(str(x) for x in t) + "}")
        print(f"count: {len(trees)}")
        return 0

    if args.command == "cutsets":
        max_size = args.max_size if args.max_size is not None else graph.cycle_rank(g)
        if max_size < 1:
            raise _UsageError(f"--max-size must be at least 1, got {max_size}")
        found = graph.cutset_subsets(g, max_size)
        for c in found:
            print("{" + ",".join(str(x) for x in c) + "}")
        print(f"count: {len(found)} (sizes 1..{max_size})")
        return 0

    if args.command in ("verify", "gaudin-check"):
        if args.trials < 1:
            raise _UsageError(f"--trials must be at least 1, got {args.trials}")
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise _UsageError(f"--tol must be a positive finite number, got {args.tol}")
        if args.seed < 0:
            raise _UsageError(f"--seed must be a non-negative integer, got {args.seed}")

    if args.command == "operator":
        spec = engine.operator_full(g) if args.full else engine.operator_reduced(g)
        print(engine.render_operator(spec, args.format))
        return 0

    if args.command == "integral":
        print(expressions.render(engine.matsubara_integral(g), args.format))
        return 0

    if args.command == "sum":
        print(expressions.render(engine.matsubara_sum(g, args.method), args.format))
        return 0

    if args.command == "eval":
        q_values, n_values = _parse_q(args.q, g), _parse_n(args.n, g)
        expr = (engine.matsubara_sum(g) if args.target == "sum"
                else engine.matsubara_integral(g))
        try:
            value = expressions.eval_numeric(expr, q_values, n_values)
        except expressions.ZeroDenominator as exc:
            print(f"degenerate evaluation point: {exc}", file=sys.stderr)
            return 1
        except OverflowError as exc:    # a power of a subnormal q
            print(f"evaluation overflowed: {exc.args[-1]}", file=sys.stderr)
            return 1
        if not math.isfinite(value.real):
            print(f"evaluation overflowed: {value.real!r}", file=sys.stderr)
            return 1
        print(f"{value.real!r}")
        if abs(value.imag) > 1e-9 * (abs(value.real) + 1):
            print(f"warning: nonvanishing imaginary part {value.imag!r}",
                  file=sys.stderr)
        return 0

    if args.command == "verify":
        if args.cutoff < 10:
            raise _UsageError(f"--cutoff must be at least 10, got {args.cutoff}")
        header = {"seed": args.seed, "target": args.target, "trials": args.trials,
                  "tolerance": args.tol}
        if args.target == "sum":
            header["cutoff"] = args.cutoff
            try:
                reports = oracles.verify_sum(g, args.trials, args.cutoff, args.tol,
                                             seed=args.seed)
            except oracles.BoxTooLarge as exc:
                print(f"cannot verify sum: {exc}", file=sys.stderr)
                return 1
        else:
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    reports = oracles.verify_integral(g, args.trials, args.tol,
                                                      seed=args.seed)
            except oracles.RankTooHigh as exc:
                print(f"cannot verify integral: {exc}", file=sys.stderr)
                return 1
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: quadrature: {message}", file=sys.stderr)
        print(json.dumps(header))
        for r in reports:
            print(r.to_json())
        return 0 if all(r.passed for r in reports) else 2

    if args.command == "gaudin-check":
        rng = np.random.default_rng(args.seed)
        sol, free = oracles._independent_layout(g)
        print(json.dumps({"seed": args.seed, "trials": args.trials,
                          "tolerance": args.tol}))
        worst = 0.0
        for _ in range(args.trials):
            q_values = {lid: float(rng.uniform(0.3, 3.0)) for lid in sorted(g.line_ids)}
            n_values = {v: int(rng.integers(-3, 4)) for v in g.vertices[:-1]}
            n_tuple = {lid: int(rng.integers(-5, 6)) for lid in free}
            for j in sol.tree:
                n_tuple[j] = sol.omega[j].value(n_values, n_tuple)
            residual = oracles.check_gaudin_identity(g, q_values, n_tuple)
            worst = max(worst, residual)
            print(json.dumps({"n": {str(k): v for k, v in sorted(n_tuple.items())},
                              "residual": residual,
                              "pass": residual < args.tol}))
        return 0 if worst < args.tol else 2

    raise _UsageError(f"unknown command {args.command!r}")


def entry_point() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
