"""The sha256 of each demo's stdout, pinned in ``tests/golden.json``.

``python tests/golden.py`` runs every demo against this checkout's ``src`` and
prints each digest with ``ok`` or ``MOVED``; ``python tests/golden.py --write``
rewrites ``tests/golden.json`` from those runs. Tier-1 checks the pinned
digests in ``tests/test_demos.py``, so a change that is meant to move a demo's
output regenerates the file and says why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).with_name("golden.json")


def run_demo(script: Path, env: dict[str, str]) -> subprocess.CompletedProcess[str]:
    """Run one demo from the repository root and capture its output as text."""
    return subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def digest(stdout: str) -> str:
    """The sha256 of a demo's stdout, in hex."""
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def pinned() -> dict[str, str]:
    """The pinned digest of each demo, by file name."""
    return json.loads(GOLDEN.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite tests/golden.json")
    args = parser.parse_args()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    old = pinned() if GOLDEN.exists() else {}
    new = {}
    for script in DEMOS:
        proc = run_demo(script, env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        new[script.name] = digest(proc.stdout)
        print(new[script.name], "ok" if old.get(script.name) == new[script.name] else "MOVED",
              script.name)
    if args.write:
        GOLDEN.write_text(json.dumps(new, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
