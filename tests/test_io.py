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
    total = sum(int(c) for c in counts)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.csv"
        eio.write_count_csv(path, CountRecord(counts=counts, duration_s=duration, flux_hz=0.0))
        if total > eio.INT64_MAX:
            # rows that each fit int64 but whose total does not are refused
            with pytest.raises(ValueError, match=rf"counts total {total} exceeds 2\*\*63 - 1$"):
                eio.read_count_csv(path)
            return
        record = eio.read_count_csv(path)
    np.testing.assert_array_equal(record.counts, counts)
    assert record.duration_s == duration


def test_count_total_past_int64_is_refused(tmp_path):
    # numpy's int64 sum of these counts wraps to a negative total
    counts = np.ones(36, dtype=np.int64)
    counts[[5, 6]] = 2**62
    assert CountRecord(counts=counts, duration_s=5.0, flux_hz=0.0).total() < 0
    path = tmp_path / "counts.csv"
    eio.write_count_csv(path, CountRecord(counts=counts, duration_s=5.0, flux_hz=0.0))
    with pytest.raises(ValueError) as exc:
        eio.read_count_csv(path)
    assert str(exc.value) == f"{path}: counts total {2**63 + 34} exceeds 2**63 - 1"


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
