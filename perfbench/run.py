"""Benchmark of the matsum pipeline: one workload, one process, closed loop.

Run from the root of a matsum checkout; the package is imported from src/:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics; --trace 1 runs one traced pass
and reports the per-layer metrics instead. Times are reported at reference
speed (see speed.py); the `notes` line also gives them as measured. The
last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}; the lines before
it give the run environment and every metric by name and unit. The exit
code is 0 when every check passed, 1 when one failed, and 2 when there is
no matsum source to benchmark.
"""

from __future__ import annotations

import os

# Pinned before NumPy loads: the benchmark and the pipeline are single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"

#: Set-up is measured this many times per run; the median is reported.
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sum_graphs_per_s": "1/s",
    "sum_ms_p50": "ms",
    "sum_ms_p80": "ms",
    "checks_per_s": "1/s",
    "largest_sum_s": "s",
    "json_roundtrip_s": "s",
    "eval_points_per_s": "1/s",
}

#: What the workload-neutral metrics are on each workload, by the names the
#: design gives them.
ALIASES = {
    "corpus": {"checks_per_s": "route_check_graphs_per_s"},
    "stress": {"largest_sum_s": "stress_sum_s"},
    "verify": {"checks_per_s": "verified_trials_per_s"},
}


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("ratio", "survival", "redraws")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["corpus", "stress", "verify"])
    p.add_argument("--seed", type=int, default=0,
                   help="reorders vertices and draws every point and trial")
    p.add_argument("--draw-seed", type=int, default=None,
                   help="draws the workload's graphs (defaults: corpus 20260810, "
                        "stress 3, verify 17)")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def fresh_import(statement: str) -> float:
    """Seconds for a new interpreter to run `statement` against src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", statement], env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


def environment(args, draw_seed) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "matsum").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
        commit = out.stdout.strip() if out.returncode == 0 else None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "draw_seed": draw_seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_untraced(make_workload, seconds, ledger, setup_repeats=SETUP_REPEATS):
    """Set up `setup_repeats` times, then measure untraced passes. Times are
    reported at reference speed; the notes carry them as measured."""
    import workloads as wl
    from speed import SpeedProbe

    setups = []
    with SpeedProbe() as probe:
        for _ in range(setup_repeats):
            t0 = time.perf_counter()
            fresh_import("import matsum")
            workload = make_workload()
            wl.run_pass(wl.warmup_workload(), None, ledger, wl.Samples())
            setups.append(time.perf_counter() - t0)
        samples = wl.measure(workload, seconds, ledger)
    # set-up is mostly a fresh interpreter, which the in-process reference
    # loop does not track; it is reported as measured
    measured = {"setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    metrics = dict(measured)
    if samples.passes:
        metrics.update(wl.end_to_end(samples, probe.factor_at))
        measured.update(wl.end_to_end(samples))
    notes = {"speed_factor": probe.factor(), "reference_loops": len(probe.samples),
             "passes": samples.passes, "largest_sum_terms": samples.largest_terms,
             "eval_redraws": samples.redraws,
             "quadrature_warnings": samples.quadrature_warnings,
             "gaudin_worst_residual": samples.gaudin_worst,
             "gaudin_over_bound": samples.gaudin_over_bound,
             "as_measured": measured}
    return metrics, END_TO_END_UNITS, notes


def run_traced(make_workload, ledger, span_file=None, import_repeats=SETUP_REPEATS):
    """One traced warm-up and one traced pass; spans go to `span_file`."""
    import workloads as wl
    from spans import Tracer
    from speed import SpeedProbe

    imports =[fresh_import("import matsum.cli") for _ in range(import_repeats)]
    workload = make_workload()
    tracer = Tracer()
    with SpeedProbe() as probe:
        wl.run_pass(wl.warmup_workload(), tracer, ledger, wl.Samples())
        wl.run_pass(workload, tracer, ledger, wl.Samples())
    mismatches = int(tracer.counts.get("trace.mismatches", 0))
    ledger.check(mismatches == 0,
                 f"{mismatches} composed results differ from their top-level call")
    factor = probe.factor()
    metrics = wl.per_layer(tracer, factor)
    metrics["cli.import.s"] = statistics.median(imports)
    notes = {"speed_factor": factor, "spans": len(tracer.spans),
             "composed_s": tracer.counts.get("trace.composed_s", 0.0),
             "top_level_s": tracer.counts.get("trace.top_level_s", 0.0)}
    if span_file is not None:
        span_file.parent.mkdir(exist_ok=True)
        tracer.write(span_file)
        notes["span_file"] = str(span_file.relative_to(ROOT))
    return metrics, {name: layer_unit(name) for name in metrics}, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "matsum" / "__init__.py").is_file():
        print(f"no matsum source under {SRC}; run from a matsum checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import matsum

    if Path(matsum.__file__).resolve().parent != SRC / "matsum":
        print(f"matsum was imported from {matsum.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import workloads as wl

    draw_seed = wl.DEFAULT_SEEDS[args.workload] if args.draw_seed is None else args.draw_seed
    print("env " + json.dumps(environment(args, draw_seed)), flush=True)
    ledger = checks.Ledger()

    def make_workload():
        return wl.make_workload(args.workload, args.seed, draw_seed)

    if args.trace:
        span_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        metrics, units, notes = run_traced(make_workload, ledger, span_file)
    else:
        metrics, units, notes = run_untraced(make_workload, args.seconds, ledger)

    aliases = ALIASES[args.workload]
    for name in sorted(metrics):
        also = f"  ({aliases[name]})" if name in aliases else ""
        print(f"metric {name} {metrics[name]:.6g} {units[name]}{also}")
    print(f"error_rate {ledger.error_rate:g} ({ledger.failed} of {ledger.attempted} "
          f"operations failed)")
    print("notes " + json.dumps(notes))
    correct = ledger.failed == 0 and set(metrics) == set(units)
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
