"""Tests for file formats: count-CSV round trip and replace-on-success writers."""

import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from envarsim import io as eio
from envarsim.measurement import CountRecord

count_arrays = arrays(np.int64, 36, elements=st.integers(0, 2**63 - 1)).filter(lambda c: c.any())
durations = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(counts=count_arrays, duration=durations)
def test_count_csv_round_trip(counts, duration):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.csv"
        eio.write_count_csv(path, CountRecord(counts=counts, duration_s=duration, flux_hz=0.0))
        record = eio.read_count_csv(path)
    np.testing.assert_array_equal(record.counts, counts)
    assert record.duration_s == duration


# each call fails after the writer has started writing its rows
FAILING_WRITES = {
    "write_count_csv": lambda p: eio.write_count_csv(
        p, SimpleNamespace(counts=[1, 2, "x"] + [0] * 33, duration_s=5.0)
    ),
    "write_json": lambda p: eio.write_json(p, {"a": 1, "b": object()}),
    "write_json-inf": lambda p: eio.write_json(p, {"a": float("inf")}),
    "write_report_csv": lambda p: eio.write_report_csv(p, SimpleNamespace(cells=[None])),
    "write_plot_series": lambda p: eio.write_plot_series(p, [(0.0, 1.0, 0.0), ("x", 1.0, 0.0)]),
    "write_correlation_csv": lambda p: eio.write_correlation_csv(p, [None]),
}


@pytest.mark.parametrize("writer", FAILING_WRITES)
def test_failed_write_keeps_previous_file(tmp_path, writer):
    path = tmp_path / "out.csv"
    path.write_text("previous\n")
    with pytest.raises((ValueError, TypeError, AttributeError)):
        FAILING_WRITES[writer](path)
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_write_json_refuses_nan_rather_than_write_null(tmp_path):
    with pytest.raises(ValueError):
        eio.write_json(tmp_path / "out.json", {"a": {"b": [1.0, float("nan")]}})
    assert list(tmp_path.iterdir()) == []
