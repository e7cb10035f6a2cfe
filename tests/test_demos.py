"""Smoke test for the narrative scripts in demos/: each must run to exit 0
against the library in src/, and the feedback demo's report files must keep
their SHA-256, which pins every seeded adaptive draw.  The README's "Quick
taste" block must print what its comments say."""
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# demo -> SHA-256 of each report file it writes into demos/output
OUTPUT_DIGESTS = {
    "adaptive_feedback": {
        "adaptive_rounds.csv": "9bbfe5e81bb308a836901f9d7e30fcdde2324233585b44443c9bebb0ce779cf5",
        "adaptive_final.json": "3b1ec8eb42e3c8e3458c0532d1bfb5c9769c55564878fc1bffabcdfd5f40946c",
        "ratio_sweep.csv": "602083b68a0445cf198318e307cd5eee72e2b36d6fe912f500f9add943afb0f7",
    },
}


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
    digests = {name: hashlib.sha256((ROOT / "demos" / "output" / name).read_bytes()).hexdigest()
               for name in OUTPUT_DIGESTS.get(demo, {})}
    assert digests == OUTPUT_DIGESTS.get(demo, {})


def test_readme_quick_taste_prints_what_its_comments_say(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^Quick taste:\n\n```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    code = block.group(1)
    assert "# [489, 95, 95, ...] 1249" in code and "# both ~0.016" in code
    exec(compile(code, "README.md", "exec"), {})
    plan, check = capsys.readouterr().out.splitlines()
    assert plan.startswith("[489, 95, 95, ") and plan.endswith("] 1249")
    assert [abs(float(x) - 0.016) < 1e-3 for x in check.split()] == [True, True]
