"""Command-line behavior: outputs, exit codes, determinism."""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from matsum import cli, engine, fixtures
from matsum import expressions as ex
from matsum import graph as gr

from conftest import cycle_graph, graph_to_dict


@pytest.fixture(scope="module")
def g2_path(tmp_path_factory):
    from matsum import fixtures

    path = tmp_path_factory.mktemp("graphs") / "g2.json"
    path.write_text(json.dumps(graph_to_dict(fixtures.g2())))
    return str(path)


@pytest.fixture(scope="module")
def g3_path(tmp_path_factory):
    from matsum import fixtures

    path = tmp_path_factory.mktemp("graphs") / "g3.json"
    path.write_text(json.dumps(graph_to_dict(fixtures.g3())))
    return str(path)


@pytest.fixture(scope="module")
def g4_path(tmp_path_factory):
    from matsum import fixtures

    path = tmp_path_factory.mktemp("graphs") / "g4.json"
    path.write_text(json.dumps(graph_to_dict(fixtures.g4())))
    return str(path)


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, g2_path):
    code, out, _ = run(capsys, "validate", "--graph", g2_path)
    assert code == 0
    assert "V=2 I=2 L=1 root=b" in out


def test_validate_bad_graph_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": ["a"],
                               "edges": [{"id": 1, "from": "a", "to": "a"}]}))
    code, out, err = run(capsys, "validate", "--graph", str(bad))
    assert code == 1
    assert "invalid graph" in err


def test_validate_array_top_level_exits_1(capsys, tmp_path):
    bad = tmp_path / "array.json"
    bad.write_text("[1]")
    code, _, err = run(capsys, "validate", "--graph", str(bad))
    assert code == 1
    assert err.startswith("invalid graph: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("content", [
    pytest.param(b"\xff\xfe{}", id="not_utf8"),
    pytest.param(b"[" * 200_000, id="nested_too_deeply"),
])
def test_unreadable_graph_exits_1(capsys, tmp_path, content):
    path = tmp_path / "graph.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "validate", "--graph", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("cannot read graph: ")
    assert len(err.strip().splitlines()) == 1


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "validate", "--graph", "/nope/missing.json")
    assert code == 1


def test_usage_error_exits_64(capsys):
    with pytest.raises(SystemExit) as info:
        cli.run(["sum"])  # missing --graph
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        cli.run(["frobnicate", "--graph", "x"])
    assert info.value.code == 64


def test_trees_listing(capsys, g4_path):
    code, out, _ = run(capsys, "trees", "--graph", g4_path)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "count: 8"
    assert lines[0] == "{1,2,3}"


def test_cutsets_listing(capsys, g4_path):
    code, out, _ = run(capsys, "cutsets", "--graph", g4_path)
    assert code == 0
    body = out.strip().splitlines()
    assert "{1,2}" in body and "{3,4}" in body
    assert body[-1] == "count: 2 (sizes 1..2)"


def test_cutsets_max_size_past_the_line_count(capsys, g2_path):
    # sizes past the number of lines add nothing and are not walked
    _, listed, _ = run(capsys, "cutsets", "--graph", g2_path, "--max-size", "2")
    code, out, _ = run(capsys, "cutsets", "--graph", g2_path, "--max-size", "1000000000000")
    assert code == 0
    assert out.splitlines()[:-1] == listed.splitlines()[:-1]
    assert out.splitlines()[-1] == "count: 1 (sizes 1..1000000000000)"


def test_operator_counts(capsys, g3_path):
    code, out, _ = run(capsys, "operator", "--graph", g3_path, "--format", "json")
    assert code == 0
    assert len(json.loads(out)["subsets"]) == 7
    code, out, _ = run(capsys, "operator", "--graph", g3_path, "--format", "json",
                       "--full")
    assert len(json.loads(out)["subsets"]) == 8


def test_sum_json_roundtrip(capsys, g2_path):
    code, out, _ = run(capsys, "sum", "--graph", g2_path, "--format", "json")
    assert code == 0
    parsed = ex.parse_expression(out)
    from matsum import engine, fixtures

    assert parsed == engine.matsubara_sum(fixtures.g2())


def test_sum_latex(capsys, g2_path):
    code, out, _ = run(capsys, "sum", "--graph", g2_path, "--format", "latex")
    assert code == 0
    assert "n_B(q_{1})" in out


def test_sum_direct_matches_operator(capsys, g3_path):
    _, out_op, _ = run(capsys, "sum", "--graph", g3_path, "--format", "json")
    _, out_dir, _ = run(capsys, "sum", "--graph", g3_path, "--format", "json",
                        "--method", "direct")
    assert out_op == out_dir


def test_eval_value(capsys, g2_path):
    code, out, _ = run(capsys, "eval", "--graph", g2_path, "--target", "integral",
                       "--q", "1:1.0,2:1.0", "--n", "a:1")
    assert code == 0
    # a plain float literal, not the repr of a NumPy scalar
    assert out == f"{float(out)!r}\n"
    assert float(out) == pytest.approx(2 * math.pi / 5, rel=1e-12)


def test_eval_degenerate_exits_1(capsys, g2_path):
    code, _, err = run(capsys, "eval", "--graph", g2_path,
                       "--q", "1:1.0,2:1.0", "--n", "a:0")
    assert code == 1
    assert "degenerate" in err


def test_verify_passes_and_is_deterministic(capsys, g3_path):
    argv = ("verify", "--graph", g3_path, "--trials", "4", "--cutoff", "300",
            "--tol", "1e-3", "--seed", "7")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical under the same seed
    lines = out1.strip().splitlines()
    header = json.loads(lines[0])
    assert header["seed"] == 7 and header["trials"] == 4
    assert len(lines) == 5
    assert all(json.loads(l)["pass"] for l in lines[1:])


def test_verify_failure_exits_2(capsys, g3_path):
    code, out, _ = run(capsys, "verify", "--graph", g3_path, "--trials", "2",
                       "--cutoff", "50", "--tol", "1e-12", "--seed", "7")
    assert code == 2


def test_verify_integral_target(capsys, g2_path):
    code, out, _ = run(capsys, "verify", "--graph", g2_path, "--target",
                       "integral", "--trials", "3", "--tol", "1e-9", "--seed", "5")
    assert code == 0
    assert all(json.loads(l)["pass"] for l in out.strip().splitlines()[1:])


def test_verify_integral_above_rank_2_exits_1(capsys, tmp_path):
    path = tmp_path / "four_lines.json"
    path.write_text(json.dumps(graph_to_dict(gr.make_graph(
        ["a", "b"], [(lid, "a", "b") for lid in range(1, 5)]))))
    code, out, err = run(capsys, "verify", "--graph", str(path), "--target", "integral")
    assert code == 1
    assert out == ""
    assert err == "cannot verify integral: cycle rank 3 > 2\n"


def test_verify_integral_reports_quadrature_warnings_in_one_line_each(capsys, g3_path):
    # on this draw SciPy warns that the G3 integral converges slowly; the
    # report still passes, and the warning is the CLI's own line, without
    # the source location SciPy's printer adds
    code, out, err = run(capsys, "verify", "--graph", g3_path, "--target", "integral",
                         "--trials", "1", "--seed", "7")
    assert code == 0
    assert all(json.loads(l)["pass"] for l in out.strip().splitlines()[1:])
    lines = err.splitlines()
    assert lines and len(set(lines)) == len(lines)
    assert all(l.startswith("warning: quadrature: ") for l in lines)
    assert "IntegrationWarning" not in err and "oracles.py" not in err


def test_gaudin_check(capsys, g4_path):
    code, out, _ = run(capsys, "gaudin-check", "--graph", g4_path,
                       "--trials", "5", "--seed", "11")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    for line in lines[1:]:
        assert json.loads(line)["residual"] < 1e-12


def assert_usage_error(result, *words):
    code, out, err = result
    assert code == 64
    assert out == ""
    assert len(err.strip().splitlines()) == 1, err
    assert err.startswith("matsum: error: ")
    for word in words:
        assert word in err


def test_eval_malformed_items_exit_64(capsys, g2_path):
    assert_usage_error(run(capsys, "eval", "--graph", g2_path,
                           "--q", "1=0.7,2:0.5", "--n", "a:1"), "--q", "1=0.7")
    assert_usage_error(run(capsys, "eval", "--graph", g2_path,
                           "--q", "1:0.7,2:0.5", "--n", "a=1"), "--n", "a=1")
    assert_usage_error(run(capsys, "eval", "--graph", g2_path,
                           "--q", "x:0.7,2:0.5", "--n", "a:1"), "--q")
    assert_usage_error(run(capsys, "eval", "--graph", g2_path,
                           "--q", "1:0.7,2:0.5", "--n", "a:1.5"), "--n")
    assert_usage_error(run(capsys, "eval", "--graph", g2_path,
                           "--q", "1:1,1:2", "--n", "a:1"), "--q: 1 given twice")


def test_eval_missing_line_or_vertex_exits_64(capsys, g2_path):
    assert_usage_error(run(capsys, "eval", "--graph", g2_path,
                           "--q", "1:0.7", "--n", "a:1"), "line 2")
    assert_usage_error(run(capsys, "eval", "--graph", g2_path,
                           "--q", "1:0.7,2:0.5,9:1.0", "--n", "a:1"), "line 9")
    assert_usage_error(run(capsys, "eval", "--graph", g2_path,
                           "--q", "1:0.7,2:0.5", "--n", "b:1"), "'b'")


def test_eval_missing_non_root_vertex_exits_64(capsys, g4_path):
    assert_usage_error(run(capsys, "eval", "--graph", g4_path,
                           "--q", "1:0.7,2:0.5,3:1.1,4:0.9,5:1.3", "--n", "a:1,c:2"),
                       "vertex b")


def test_eval_nonpositive_or_nonfinite_q_exits_64(capsys, g2_path):
    for q in ("1:-0.7,2:0.5", "1:0,2:0.5", "1:inf,2:0.5", "1:0.7,2:nan"):
        assert_usage_error(run(capsys, "eval", "--graph", g2_path,
                               "--q", q, "--n", "a:1"), "--q")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eval_overflow_exits_1(capsys, g2_path):
    code, out, err = run(capsys, "eval", "--graph", g2_path, "--target", "integral",
                         "--q", "1:1e-300,2:1e-300", "--n", "a:1")
    assert code == 1
    assert out == ""
    # one line: no NumPy warning beside it
    assert err == "evaluation overflowed: inf\n"
    # 1e-320 ** -1 overflows in Python's float power, which raises
    code, out, err = run(capsys, "eval", "--graph", g2_path,
                         "--q", "1:1e-320,2:1", "--n", "a:1")
    assert (code, out) == (1, "")
    assert err.startswith("evaluation overflowed: ") and err.count("\n") == 1


def assert_unrecognized_hierarchy(capsys, command, g2_path, hierarchy):
    with pytest.raises(SystemExit) as info:
        cli.run([command, "--graph", g2_path, "--hierarchy", hierarchy])
    assert info.value.code == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip().endswith(
        f"matsum: error: unrecognized arguments: --hierarchy {hierarchy}")


def test_hierarchy_flag(capsys, g2_path):
    # closed forms are normal forms, so no subcommand takes a hierarchy
    for command in ("operator", "integral", "sum"):
        assert_unrecognized_hierarchy(capsys, command, g2_path, "2,1")


def test_bad_hierarchy_exits_64(capsys, g2_path):
    # a value that was once rejected as a bad permutation is now simply an
    # unrecognized argument
    assert_unrecognized_hierarchy(capsys, "integral", g2_path, "x")
    for hierarchy in ("1,1", "1", "1,2,3"):
        assert_unrecognized_hierarchy(capsys, "sum", g2_path, hierarchy)


def test_trials_below_1_exits_64(capsys, g2_path):
    for command in ("verify", "gaudin-check"):
        for trials in ("0", "-3"):
            assert_usage_error(run(capsys, command, "--graph", g2_path,
                                   "--trials", trials), "--trials")


def test_negative_seed_exits_64(capsys, g2_path):
    # NumPy's generator takes only non-negative seeds
    for command, extra in (("verify", ("--cutoff", "50")), ("gaudin-check", ())):
        for seed in ("-1", "-5"):
            assert_usage_error(run(capsys, command, "--graph", g2_path, "--trials", "1",
                                   "--seed", seed, *extra),
                               f"--seed must be a non-negative integer, got {seed}")


def test_tol_not_positive_and_finite_exits_64(capsys, g2_path):
    for command in ("verify", "gaudin-check"):
        for tol in ("nan", "inf", "0", "-1e-6"):
            assert_usage_error(run(capsys, command, "--graph", g2_path,
                                   f"--tol={tol}"), "--tol")


def test_cutsets_max_size_below_1_exits_64(capsys, g4_path):
    for size in ("0", "-2"):
        assert_usage_error(run(capsys, "cutsets", "--graph", g4_path,
                               "--max-size", size), "--max-size")


def test_verify_cutoff_below_10_exits_64(capsys, g3_path):
    assert_usage_error(run(capsys, "verify", "--graph", g3_path,
                           "--cutoff", "5"), "--cutoff")


def test_verify_box_too_large_exits_1(capsys, g3_path):
    # rank 2 at the default cutoff 10000 exceeds the lattice oracle's cap
    code, out, err = run(capsys, "verify", "--graph", g3_path)
    assert code == 1
    assert out == ""
    assert err.startswith("cannot verify sum: ")
    assert len(err.strip().splitlines()) == 1


def test_graph_past_the_normal_form_budget_exits_1(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "MAX_REDUCED_PRODUCTS", 5000)
    path = tmp_path / "c8.json"
    path.write_text(json.dumps(graph_to_dict(cycle_graph(8))))
    for command in ("integral", "sum"):
        code, out, err = run(capsys, command, "--graph", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("graph too large: the normal form needs more than 5000")


def test_sum_past_the_term_budget_exits_1(capsys, g4_path, monkeypatch):
    monkeypatch.setattr(engine, "MAX_TERMS", 50)
    for method in ("operator", "direct"):
        code, out, err = run(capsys, "sum", "--graph", g4_path, "--method", method)
        assert code == 1
        assert out == ""
        assert err == "graph too large: the thermal operator needs more than 50 terms\n"


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    # K4's sum in LaTeX (151 kB) does not fit a pipe's 64 kB buffer, so the
    # writer is still printing when the reader takes one byte and closes
    names = "abcd"
    k4 = gr.make_graph(list(names), [(i + 1, a, b) for i, (a, b) in
                                     enumerate(itertools.combinations(names, 2))])
    path = tmp_path / "k4.json"
    path.write_text(json.dumps(graph_to_dict(k4)))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "matsum.cli", "sum", "--graph", str(path),
                             "--format", "latex"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(1) == b"\\"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""
