"""Canonical JSON serialization: stable key order, exact float text."""

import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mjlslab.reports import canonical_json, config_sha256, jsonable, write_trace_csv


def test_float_formatting_is_shortest_exact():
    text = canonical_json({"x": 0.1, "y": 1.0 / 3.0})
    doc = json.loads(text)
    assert doc["x"] == 0.1
    assert doc["y"] == 1.0 / 3.0


def test_non_finite_floats_become_strings():
    text = canonical_json({"a": np.inf, "b": -np.inf, "c": np.nan})
    doc = json.loads(text)
    assert doc == {"a": "inf", "b": "-inf", "c": "nan"}


def test_numpy_scalars_and_arrays():
    out = jsonable(
        {
            "i": np.int64(3),
            "f": np.float64(0.5),
            "b": np.bool_(True),
            "arr": np.array([[1.0, 2.0], [3.0, 4.0]]),
        }
    )
    assert out["i"] == 3 and isinstance(out["i"], int)
    assert out["f"] == 0.5 and isinstance(out["f"], float)
    assert out["b"] is True
    assert out["arr"] == [[1.0, 2.0], [3.0, 4.0]]


def test_dataclasses_keep_field_order():
    @dataclass
    class Thing:
        beta: int
        alpha: int

    text = canonical_json(jsonable(Thing(beta=1, alpha=2)))
    assert text.index('"beta"') < text.index('"alpha"')


def test_canonical_json_is_deterministic_text():
    doc = {"z": [1.0, 2.5], "a": {"nested": np.float64(1e-9)}}
    assert canonical_json(doc) == canonical_json(doc)
    assert canonical_json(doc).endswith("\n")


def test_tuples_serialize_as_lists():
    assert json.loads(canonical_json({"w": (1, 2, 3)}))["w"] == [1, 2, 3]


def test_config_sha256_is_over_raw_bytes():
    import hashlib

    raw = b'{"a": 1}\n'
    assert config_sha256(raw) == hashlib.sha256(raw).hexdigest()


def test_write_trace_csv(tmp_path):
    hist = np.array([[0.0, -1.0, -2.0, -3.0, -4.0], [0.0, -0.5, -1.0, -1.5, -2.0]])
    fits = np.array([-1.0, -0.5])
    path = tmp_path / "trace.csv"
    write_trace_csv(path, hist, fits, stride=2)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "trial,n,log_norm,fit"
    # strided rows plus the final step for each trial, trials 1-based
    assert lines[1].startswith("1,2,")
    assert any(line.startswith("1,5,") for line in lines)
    assert any(line.startswith("2,5,") for line in lines)


def test_trace_csv_writes_floats_as_the_reports_do(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(path, [[np.nan, -np.inf, np.inf, -0.0, 0.1 + 0.2]], [-np.inf], stride=1)
    rows = path.read_text().splitlines()[1:]
    assert [row.split(",")[2:] for row in rows] == [
        ["nan", "-inf"], ["-inf", "-inf"], ["inf", "-inf"], ["-0.0", "-inf"],
        ["0.30000000000000004", "-inf"],
    ]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
# subnormals, 17 significant digits, negative zero, integral and extreme values
@example([5e-324, 2.2250738585072009e-308, 0.1 + 0.2, 1 / 3, -0.0, 1e16, 1.7976931348623157e308])
def test_canonical_json_property_round_trips_floats(xs):
    back = json.loads(canonical_json({"x": xs[0], "xs": xs}))
    for got, want in zip([back["x"], *back["xs"]], [xs[0], *xs]):
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
