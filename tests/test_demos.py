"""Every narrative script under demos/, and the README's Library block, runs against the
package with warnings as errors and prints its pinned output: a demo's stdout
is `tests/golden/demo_NN.txt`, NN the first two characters of its name."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"demo_{demo.name[:2]}.txt").read_text()


def test_readme_library_block_prints_documented_output():
    readme = (ROOT / "README.md").read_text()
    library = readme[readme.index("## Library") :]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "86 86\nELEMENTARY_CERTIFIED\n"
