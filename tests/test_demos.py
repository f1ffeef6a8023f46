"""Every demo script runs to completion and prints its pinned narrative.

Each demo's stdout has the sha256 pinned in ``tests/golden.json``, which
``python tests/golden.py --write`` regenerates.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from golden import DEMOS, digest, pinned, run_demo
from helpers import package_env

GOLDEN = pinned()


def test_demos_exist():
    assert len(DEMOS) >= 8


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script: Path):
    proc = run_demo(script, package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), "demo printed nothing"
    assert not proc.stderr, proc.stderr
    for numpy_repr in ("np.float64(", "array("):  # values print as plain floats
        assert numpy_repr not in proc.stdout
    assert digest(proc.stdout) == GOLDEN[script.name], "stdout differs from tests/golden.json"
