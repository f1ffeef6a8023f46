"""Every runnable block in README.md executes and prints what it claims.

``console`` blocks are replayed command by command through ``bash -c`` from
the repository root, and stdout must match the text shown, byte for byte.
``python`` blocks must run to completion (their assertions do the checking).
``sh``/``text`` blocks are prose and are not executed.

Both run the code under test, installed or not: ``qibc`` and ``python3``
resolve to shims that exec this interpreter (``-m qibc`` for ``qibc``, the
console script's entry point), with the imported package first on
``PYTHONPATH``.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from helpers import package_env

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

_FENCE = re.compile(r"^```(\w*)\s*$")


def _blocks() -> list[tuple[str, list[str]]]:
    blocks = []
    lang: str | None = None
    body: list[str] = []
    for line in README.read_text(encoding="utf-8").splitlines():
        m = _FENCE.match(line)
        if lang is None:
            if m and m.group(1):
                lang, body = m.group(1), []
        elif line.rstrip() == "```":
            blocks.append((lang, body))
            lang = None
        else:
            body.append(line)
    return blocks


def _console_steps(body: list[str]) -> list[tuple[str, list[str]]]:
    steps: list[tuple[str, list[str]]] = []
    for line in body:
        if line.startswith("$ "):
            steps.append((line[2:], []))
        else:
            assert steps, f"console block output before any command: {line!r}"
            steps[-1][1].append(line)
    return steps


def _shim_env(bin_dir: Path) -> dict[str, str]:
    python = shlex.quote(sys.executable)
    for name, argv in (("qibc", f"{python} -m qibc"), ("python3", python)):
        shim = bin_dir / name
        shim.write_text(f'#!/bin/sh\nexec {argv} "$@"\n', encoding="utf-8")
        shim.chmod(0o755)
    env = package_env()
    env["PATH"] = os.pathsep.join(filter(None, (str(bin_dir), env.get("PATH"))))
    return env


def test_readme_blocks_run_verbatim(tmp_path):
    env = _shim_env(tmp_path)
    ran_console = 0
    ran_python = 0
    for lang, body in _blocks():
        if lang == "console":
            for cmd, expected in _console_steps(body):
                proc = subprocess.run(
                    ["bash", "-c", cmd],
                    cwd=ROOT,
                    env=env,
                    capture_output=True,
                    text=True,
                    timeout=120,
                )
                assert proc.returncode == 0, (cmd, proc.returncode, proc.stderr)
                want = "\n".join(expected)
                if want:
                    want += "\n"
                assert proc.stdout == want, (cmd, proc.stdout, want)
                ran_console += 1
        elif lang == "python":
            proc = subprocess.run(
                [sys.executable, "-"],
                input="\n".join(body),
                cwd=ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            ran_python += 1
    # the README must keep showing real, covered examples
    assert ran_console >= 10
    assert ran_python >= 1
