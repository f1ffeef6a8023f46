"""Deterministic serialization: 17-digit floats, stable JSON, CSV round-trips."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qibc.exceptions import ValidationError
from qibc.functions import function_from_json, promise_from_json
from qibc.serialize import (
    dumps_json,
    format_float,
    read_csv,
    render_csv,
)
from qibc.simulator import (
    _decode_from_json,
    _query_from_json,
    algorithm_from_json,
    gate_from_json,
)


class TestFormatFloat:
    @pytest.mark.parametrize(
        "value, text",
        [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (1.0, "1.0"),
            (0.5, "0.5"),
            (0.1, "0.10000000000000001"),
            (1e300, "1.0000000000000001e+300"),
            (-2.5e-10, "-2.5000000000000002e-10"),
            (123456789.0, "123456789.0"),
        ],
    )
    def test_known_values(self, value, text):
        assert format_float(value) == text

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trip_is_exact(self, x):
        assert float(format_float(x)) == x or (x == 0.0)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_output_parses_as_float_literal(self, x):
        text = format_float(x)
        assert any(ch in text for ch in ".eE")
        assert json.loads(text) == float(text)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            format_float(bad)


class TestDumpsJson:
    def test_short_containers_inline(self):
        assert dumps_json([1, 2, 3]) == "[1, 2, 3]\n"
        assert dumps_json({"a": 0.5}) == '{"a": 0.5}\n'

    def test_long_containers_wrap(self):
        doc = {"k%02d" % i: float(i) for i in range(12)}
        text = dumps_json(doc)
        assert "\n" in text
        assert json.loads(text) == doc

    def test_floats_use_17_digits(self):
        assert dumps_json({"x": 0.1}) == '{"x": 0.10000000000000001}\n'

    def test_renders_scalars_and_nesting(self):
        doc = {"a": [True, False, None], "b": {"c": [1, 0.25]}, "d": "s"}
        assert json.loads(dumps_json(doc)) == doc

    def test_deterministic(self):
        doc = {"b": [0.1, 0.2], "a": {"nested": [1e-300]}}
        assert dumps_json(doc) == dumps_json(doc)

    def test_key_after_a_multiline_value_is_checked(self):
        with pytest.raises(ValidationError) as exc:
            dumps_json({"a": ["y" * 120], 3: 1})
        assert str(exc.value) == "JSON object keys must be strings, got 3"

    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(max_size=30)
            | st.floats(allow_nan=False, allow_infinity=False),
            lambda kids: st.lists(kids, max_size=6)
            | st.dictionaries(st.text(max_size=8), kids, max_size=6),
            max_leaves=40,
        )
    )
    def test_round_trips_through_json(self, doc):
        assert json.loads(dumps_json(doc)) == doc


class TestCsv:
    def test_render_matches_hand_written(self):
        rows = [(0, 0.5, 0.25), (1, 0.5, -0.25)]
        text = render_csv(["j", "p", "phi"], rows)
        assert text == "j,p,phi\n0,0.5,0.25\n1,0.5,-0.25\n"

    def test_round_trip(self, tmp_path):
        rows = [(0, 0.1, 1e-30), (7, 0.9, -3.5)]
        path = tmp_path / "t.csv"
        path.write_text(render_csv(["j", "p", "phi"], rows), encoding="utf-8")
        header, parsed = read_csv(str(path))
        assert header == ["j", "p", "phi"]
        assert [(int(r[0]), float(r[1]), float(r[2])) for r in parsed] == rows

    def test_booleans_lowercase(self):
        assert render_csv(["ok"], [(True,), (False,)]) == "ok\ntrue\nfalse\n"


_VALID_DOCS = {
    "decode": {"scale": 1.0, "offset": 0.0},
    "gate": {"gate": "H", "targets": [0]},
    "query": {"m_prime": 1, "m_double_prime": 1, "range": [0.0, 1.0], "tau_rule": "midpoint"},
    "algorithm": {
        "nu": 1,
        "query": None,
        "layers": [[{"gate": "H", "targets": [0]}]],
        "measure": [0],
        "decode": {"scale": 1.0, "offset": 0.0},
    },
    "promise": {"L": 1.0, "range": [-1.0, 1.0]},
    "function": {
        "family": "constant",
        "value": 0.0,
        "promise": {"L": 1.0, "range": [-1.0, 1.0]},
    },
}

_READERS = {
    "decode": _decode_from_json,
    "gate": gate_from_json,
    "query": _query_from_json,
    "algorithm": algorithm_from_json,
    "promise": promise_from_json,
    "function": function_from_json,
}


class TestJsonReaderShape:
    """Each JSON reader's two shape errors, pinned byte for byte."""

    @pytest.mark.parametrize("what", sorted(_READERS))
    def test_valid_document_loads(self, what):
        _READERS[what](_VALID_DOCS[what])

    @pytest.mark.parametrize("what", sorted(_READERS))
    @pytest.mark.parametrize("node, type_name", [([1], "list"), ("x", "str"), (None, "NoneType")])
    def test_not_an_object(self, what, node, type_name):
        with pytest.raises(ValidationError) as exc:
            _READERS[what](node)
        assert str(exc.value) == f"{what} must be a JSON object, got {type_name}"

    @pytest.mark.parametrize("what", sorted(_READERS))
    def test_unknown_keys_sorted(self, what):
        doc = dict(_VALID_DOCS[what], zeta=1, alpha=2)
        with pytest.raises(ValidationError) as exc:
            _READERS[what](doc)
        assert str(exc.value) == f"unknown {what} keys: ['alpha', 'zeta']"

    def test_sin2_decode_unknown_keys_sorted(self):
        with pytest.raises(ValidationError) as exc:
            _decode_from_json({"kind": "sin2", "zeta": 1, "alpha": 2})
        assert str(exc.value) == "unknown decode keys: ['alpha', 'zeta']"

    def test_function_keys_checked_before_its_promise(self):
        doc = dict(_VALID_DOCS["function"], promise=[1], zeta=1)
        with pytest.raises(ValidationError) as exc:
            function_from_json(doc)
        assert str(exc.value) == "unknown function keys: ['zeta']"


class TestJsonReaderErrors:
    """Inside the guard: a value's own error passes through, a bad field is named short."""

    @pytest.mark.parametrize(
        "reader, node, message",
        [
            (function_from_json, {"family": "pwl", "points": [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]},
             "pwl breakpoint x-values must be strictly increasing"),
            (gate_from_json, {"gate": "swap", "targets": [0, 0]}, "duplicate targets in (0, 0)"),
            (_query_from_json, {"m_prime": 1, "m_double_prime": 1, "range": [1.0, 0.0]},
             "query range must satisfy lo < hi, got [1.0, 0.0]"),
            (promise_from_json, {"L": -1.0, "range": [0.0, 1.0]},
             "lipschitz_bound must be nonnegative, got -1.0"),
        ],
        ids=["pwl-not-increasing", "gate-duplicate-targets", "query-lo-ge-hi", "promise-negative-L"],
    )
    def test_value_error_passes_through(self, reader, node, message):
        with pytest.raises(ValidationError) as exc:
            reader(node)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "what, key",
        [("decode", "scale"), ("gate", "targets"), ("query", "m_prime"),
         ("algorithm", "nu"), ("promise", "L"), ("function", "value")],
    )
    def test_missing_field(self, what, key):
        doc = {k: v for k, v in _VALID_DOCS[what].items() if k != key}
        with pytest.raises(ValidationError) as exc:
            _READERS[what](doc)
        assert str(exc.value) == f"malformed {what}: '{key}'"

    def test_message_short_for_a_large_node(self):
        points = [[i / 1999, 0.0] for i in range(2000)]
        with pytest.raises(ValidationError) as exc:
            function_from_json({"family": "trig", "points": points})
        assert str(exc.value) == "malformed function: 'coefficients'"

    @pytest.mark.parametrize(
        "what, key, value",
        [("algorithm", "nu", 1.5), ("algorithm", "measure", [0.5]), ("gate", "targets", [0.9]),
         ("query", "m_prime", 1.5), ("query", "m_double_prime", 1.5)],
    )
    def test_fractional_integer_field_rejected(self, what, key, value):
        # int() would truncate these to a different, valid document
        with pytest.raises(ValidationError, match=r"must be (a positive int|integers)"):
            _READERS[what](dict(_VALID_DOCS[what], **{key: value}))

    def test_overflow_is_malformed(self):
        with pytest.raises(ValidationError) as exc:
            algorithm_from_json(dict(_VALID_DOCS["algorithm"], nu=math.inf))
        assert str(exc.value) == "nu must be a positive int, got inf"
