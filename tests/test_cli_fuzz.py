"""CLI fuzzer: any argv and file contents exit 0, 2, 3 or 4, deterministically.

Each example writes its input files under a fresh temporary directory and
calls :func:`qibc.cli.main` twice in process. Neither call may raise, both
must return the same code from {0, 2, 3, 4}, and stdout must be the same
bytes. File contents are arbitrary JSON values, truncations and mutations of
small valid documents (nu <= 8), CSV rows, and bytes that are not UTF-8.
Numeric flags and comma-separated lists take edge numbers, and whole numbers
at and past the size budget of 2^20 items, which only that budget lets an
example refuse at once.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qibc import (
    algorithm_to_json,
    build_ae_mean,
    constant,
    distribution,
    distribution_to_csv,
    function_to_json,
    midpoint_algorithm,
    pwl,
    trig,
)
from qibc.cli import main
from qibc.functions import Promise

_PROMISE = Promise(1.0, 0.0, 1.0)
_FUNCTIONS = [
    function_to_json(constant(0.5, _PROMISE)),
    function_to_json(pwl(((0.0, 0.0), (0.5, 0.5), (1.0, 0.0)), _PROMISE)),
    function_to_json(trig((0.5, 0.1, 0.0))),
]
_AE = build_ae_mean(2, 2, 0.0, 1.0)  # nu = 5, dense
_ALGORITHMS = [algorithm_to_json(midpoint_algorithm(1, 2, 0.0, 1.0)), algorithm_to_json(_AE)]
_QUADRATURE = {"design": [0.25, 0.75], "weights": [0.5, 0.5]}
_CSV_ROWS = distribution_to_csv(distribution(_AE, constant(0.25))).splitlines()

#: Keys the readers know, so drawn objects reach past the unknown-key check.
_KEYS = sorted(
    {"nu", "query", "layers", "measure", "decode", "gate", "targets", "theta", "matrix",
     "m_prime", "m_double_prime", "range", "tau_rule", "scale", "offset", "kind", "family",
     "promise", "points", "value", "coefficients", "L", "design", "weights"}
)

#: Numbers at the edges of int() and float(): infinities, NaN, overflow, subnormals.
_EDGES = st.sampled_from([math.inf, -math.inf, math.nan, 10**400, 2**64, 1e-320, -1, 0.5])
_SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats() | _EDGES
    | st.sampled_from(["sin2", "H", "X", "mcx", "swap", "pwl", "midpoint", ""])
)
_JSON = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), kids, max_size=5),
    max_leaves=12,
)
_NUMBERS = st.sampled_from(["1", "0.5", "0.1", "0", "-1", "1e-300", "1e300", "nan", "inf", "x",
                            "1048577", "1" + "0" * 400])
_LISTS = st.lists(_NUMBERS, max_size=4).map(",".join)


def _slots(node):
    """Every ``(container, key)`` pair inside ``node``."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from _slots(child)


@st.composite
def _mutated(draw, docs):
    """One of ``docs`` with one or two of its nodes replaced or deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(1, 2))):
        parent, key = draw(st.sampled_from(list(_slots(doc))))
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(_EDGES | _SCALARS | _JSON)
    return doc


def _contents(docs) -> st.SearchStrategy[bytes]:
    """File bytes: a valid, mutated, truncated or arbitrary document, or raw bytes."""
    text = st.one_of(
        st.sampled_from(docs).map(json.dumps),
        _mutated(docs).map(json.dumps),
        st.tuples(st.sampled_from(docs).map(json.dumps), st.integers(0, 400)).map(
            lambda t: t[0][: t[1]]
        ),
        _JSON.map(json.dumps),
    )
    return st.one_of(
        text.map(str.encode),
        st.sampled_from(docs).map(lambda d: json.dumps(d).encode("utf-16")),
        st.binary(max_size=40),
    )


_CSV_ROW = st.sampled_from(_CSV_ROWS) | st.text("0123456789.,-enaj\n", max_size=20)
_CSV = st.one_of(
    st.lists(_CSV_ROW, max_size=8).map(lambda rows: "\n".join(rows).encode()),
    st.binary(max_size=40),
    st.just("\n".join(_CSV_ROWS).encode("utf-16")),
)


@st.composite
def _invocation(draw):
    """An argv with ``{d}`` for the example's directory, and the files to write there."""
    cmd = draw(st.sampled_from(["simulate", "verify-bound", "error", "extract", "foil", "design",
                                "meps", "complexity-table", "radius", "fooling-pair"]))
    x, y = draw(_NUMBERS), draw(_NUMBERS)
    files = {}
    if cmd in ("simulate", "verify-bound"):
        files["alg.json"] = draw(_contents(_ALGORITHMS))
    if cmd == "simulate":
        files["f.json"] = draw(_contents(_FUNCTIONS))
        argv = ["simulate", "--alg", "{d}/alg.json", "--f", "{d}/f.json"]
    elif cmd == "verify-bound":
        for i in range(draw(st.integers(0, 3))):
            files[f"family/f{i}.json"] = draw(_contents(_FUNCTIONS))
        argv = ["verify-bound", "--alg", "{d}/alg.json", "--family", "{d}/family",
                "--L", x, "--eps", y]
    elif cmd in ("error", "extract"):
        files["dist.csv"] = draw(_CSV)
        flag = "--truth" if cmd == "error" else "--eps"
        argv = [cmd, "--dist", "{d}/dist.csv", flag, x]
        if cmd == "error" and draw(st.booleans()):
            argv.append("--brute-force")
    elif cmd == "foil":
        files["quad.json"] = draw(_contents([_QUADRATURE]))
        argv = ["foil", "--quadrature", "{d}/quad.json", "--L", x]
    elif cmd == "design":
        argv = ["design", "--n", x]
    elif cmd == "meps":
        argv = ["meps", "--L", x, "--eps", y]
    elif cmd == "complexity-table":
        argv = ["complexity-table", "--L", draw(_LISTS), "--eps", draw(_LISTS), "--c", x]
    else:
        argv = [cmd, "--design", draw(_LISTS), "--L", x]
        if cmd == "radius" and draw(st.booleans()):
            argv += ["--y", draw(_LISTS)]
    return argv, files


def _call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestCliFuzz:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_invocation())
    def test_exit_code_taxonomy_and_determinism(self, invocation):
        argv, files = invocation
        with tempfile.TemporaryDirectory() as d:
            os.mkdir(os.path.join(d, "family"))
            for name, data in files.items():
                with open(os.path.join(d, name), "wb") as fh:
                    fh.write(data)
            argv = [a.format(d=d) for a in argv]
            first = _call(argv)
            second = _call(argv)
        code, out, err = first
        assert code in (0, 2, 3, 4), (argv, err)
        assert "Traceback" not in err
        assert (code == 0) == (err == ""), err
        assert second == first
