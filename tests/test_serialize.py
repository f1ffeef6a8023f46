"""Deterministic serialization: 17-digit floats, stable JSON, CSV round-trips."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qibc.serialize import (
    dumps_json,
    format_float,
    read_csv,
    render_csv,
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
