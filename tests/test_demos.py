"""Every demo script runs to completion and prints its narrative."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import package_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 8


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script: Path):
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=package_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), "demo printed nothing"
    assert not proc.stderr, proc.stderr
    for numpy_repr in ("np.float64(", "array("):  # values print as plain floats
        assert numpy_repr not in proc.stdout
