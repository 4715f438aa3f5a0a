"""Every narrative demo, and the README's library quick start, runs to
completion against the library in src/."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from matsum import eval_numeric, fixtures, matsubara_sum, render

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_0(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_readme_library_quick_start_runs(capsys):
    # the README's quick-start block, run as written
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0] == render(matsubara_sum(fixtures.g2()))
    assert float(out[1]) == eval_numeric(matsubara_sum(fixtures.g2()), {1: 1.0, 2: 2.0},
                                         {"a": 1}).real
    reports = [json.loads(line) for line in out[2:]]
    assert len(reports) == 5 and all(r["pass"] for r in reports)
