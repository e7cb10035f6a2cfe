"""Smoke test for the narrative scripts in demos/: each must run to exit 0
against the library in src/.  The README's "Quick taste" block must print
what its comments say."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "adaptive_feedback",
    "eight_photon_budget",
    "hoeffding_guarantees",
    "phaselift_reconstruction",
    "ten_photon_savings",
])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_taste_prints_what_its_comments_say(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^Quick taste:\n\n```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    code = block.group(1)
    assert "# [489, 95, 95, ...] 1249" in code and "# both ~0.016" in code
    exec(compile(code, "README.md", "exec"), {})
    plan, check = capsys.readouterr().out.splitlines()
    assert plan.startswith("[489, 95, 95, ") and plan.endswith("] 1249")
    assert [abs(float(x) - 0.016) < 1e-3 for x in check.split()] == [True, True]
