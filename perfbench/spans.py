"""Spans around the benchmark's calls into qibc, and call counts.

A span is ``[name, start, end, parent, task, fields]``: ``name`` is the
called function as ``layer.function`` (the layer is the qibc module), times
are ``time.perf_counter`` seconds, ``parent`` indexes the task's root span
(-1 for a root), and ``fields`` holds counts read at the call site. Spans
are recorded by the benchmark's own code around public qibc calls; nothing
in the library is edited or patched. They are kept in memory and written
once, as JSON lines, when a run ends.

Call counts inside the library (how many times ``functions.eval`` runs
during one task, say) come from :func:`count_calls`, a ``sys.setprofile``
hook that only counts. A profile hook slows every Python call in the
process, so it runs on the untimed warm-up task only.

This module imports only the standard library, so the traced CLI child
process (:func:`traced_cli`) imports nothing before qibc that a
console-script wrapper does not.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
import time
import types
from collections import Counter

#: Modules whose public functions are counted; the layer is the module name.
LAYERS = ("functions", "information", "adversary", "simulator", "circuits",
          "bounds", "cli", "serialize")

#: Environment variable of the traced CLI child: where to write its spans.
CHILD_SPANS_ENV = "PERFBENCH_SPANS"


class Tracer:
    """Records spans; one root span per task, call spans under it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._root = -1
        self.task: str | None = None

    @contextlib.contextmanager
    def task_span(self, task: str):
        self.task = task
        self._root = len(self.spans)
        self.spans.append(["task", time.perf_counter(), None, -1, task, None])
        try:
            yield
        finally:
            self.spans[self._root][2] = time.perf_counter()
            self._root = -1

    @contextlib.contextmanager
    def span(self, name: str, **fields):
        """Time the enclosed call as ``name``; the caller may add to the yielded fields."""
        rec = [name, time.perf_counter(), None, self._root, self.task, fields]
        try:
            yield fields
        finally:
            rec[2] = time.perf_counter()
            self.spans.append(rec)

    def add(self, spans: list[list]) -> None:
        """Append spans recorded by a child process under the current task."""
        for name, start, end, _, _, fields in spans:
            self.spans.append([name, start, end, self._root, self.task, fields])

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def run_fields(alg) -> dict:
    """Call-site fields of a ``simulator.run`` span."""
    kinds = Counter(g.gate for layer in alg.layers for g in layer)
    return {"nu": alg.nu, "queries": alg.num_queries, "gates": dict(kinds)}


def public_code_names() -> dict:
    """Map each public qibc function's code object to ``layer.name``."""
    names = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"qibc.{layer}")
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                names[obj.__code__] = f"{layer}.{attr}"
    return names


def count_calls(fn) -> tuple[object, Counter]:
    """Run ``fn()`` counting calls of public qibc functions, internal ones too."""
    names = public_code_names()
    counts: Counter = Counter()

    def hook(frame, event, arg):
        if event == "call":
            name = names.get(frame.f_code)
            if name is not None:
                counts[name] += 1

    sys.setprofile(hook)
    try:
        return fn(), counts
    finally:
        sys.setprofile(None)


def traced_cli() -> None:
    """CLI child: run ``qibc.cli.main`` in a span and write the span to a file."""
    from qibc.cli import main

    tracer = Tracer()
    with tracer.span("cli.main"):
        code = main()
    with open(os.environ[CHILD_SPANS_ENV], "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    sys.exit(code)
