"""Fast self-test of the benchmark, on tiny inputs:

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is emitted with its
unit, untraced and traced, on every workload, and that the output checks
are not vacuous: a perturbed expression and a wrong oracle value must each
count as a failed operation. Exits 0 when all of it holds.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from matsum import engine, fixtures, oracles  # noqa: E402
from matsum import graph as gr  # noqa: E402
from matsum import expressions as ex  # noqa: E402


def tiny_workload(name):
    rng = np.random.default_rng(5)
    graphs = [fixtures.g2(), fixtures.g3()]
    while len(graphs) < 4:
        g = fixtures.random_graph(rng, 3, 4)
        if gr.cycle_rank(g) <= 2:
            graphs.append(g)
    return wl.make_workload(name, seed=1, draw_seed=0, graphs=graphs, eval_points=2,
                            verify=wl.VerifySpec(1, 1, 2, cutoff=200, tolerance=1e-3),
                            references=2)


def check_metric_names() -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
        wanted = {m["name"]: m["unit"] for m in spec[kind]}
        for name in ("corpus", "stress", "verify"):
            ledger = checks.Ledger()
            if trace:
                metrics, units, _ = run.run_traced(lambda: tiny_workload(name), ledger,
                                                   import_repeats=1)
            else:
                metrics, units, _ = run.run_untraced(lambda: tiny_workload(name), 0.01,
                                                     ledger, setup_repeats=1)
            emitted = {m: units[m] for m in metrics}
            assert emitted == wanted, (name, kind, set(emitted) ^ set(wanted))
            assert ledger.failed == 0, ledger.failures
            assert all(v == v and v != float("inf") for v in metrics.values())
            print(f"{name} {kind}: {len(metrics)} metrics with units, "
                  f"{ledger.attempted} checks passed")


def check_checks_fail() -> None:
    g = fixtures.g2()
    total = engine.matsubara_sum(g)
    last = total.terms[-1]
    perturbed = ex.Expression(total.terms[:-1] + (last._replace(coeff=last.coeff * 2),))
    ledger = checks.Ledger()

    ok, _ = wl.route_check(g, perturbed, None)
    ledger.check(ok, "route check of a perturbed sum")
    ledger.check(checks.roundtrip_equal(total, perturbed), "perturbed round trip")
    assert ledger.failed == 2, ledger.failures

    report = oracles.verify_sum(g, 1, 100, 1e-3, seed=0)[0]
    wrong = dataclasses.replace(report, oracle=report.oracle * 1.01)
    wl.report_ok(wrong, ledger, "sum with a wrong oracle value")
    ledger.check(checks.gaudin_holds(1e-9), "Gaudin residual above the bound")
    ledger.check(checks.is_real(complex(1.0, 1e-3)), "complex evaluation")
    assert ledger.failed == 5, ledger.failures
    print("a perturbed expression and a wrong oracle value count as failures")


if __name__ == "__main__":
    check_metric_names()
    check_checks_fail()
    print("selftest passed")
