"""Tests for file formats: count-CSV round trip, each writer's bytes, replace-on-success writers and the subcommand writers' memory budgets."""

import re
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from envarsim import io as eio
from envarsim.measurement import INT64_MAX, CountRecord, tomography_projectors
from envarsim.son import CorrelationSample
from helpers import BUDGETS, default_run, layer_call, traced_mib

count_arrays = arrays(np.int64, 36, elements=st.integers(0, 2**63 - 1)).filter(lambda c: c.any())
durations = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(counts=count_arrays, duration=durations)
def test_count_csv_round_trip(counts, duration):
    total = sum(int(c) for c in counts)
    if total > INT64_MAX:
        # counts that each fit int64 but whose total does not: no record holds them
        with pytest.raises(ValueError, match=rf"^counts total {total} exceeds 2\*\*63 - 1$"):
            CountRecord(counts=counts, duration_s=duration)
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.csv"
        eio.write_count_csv(path, CountRecord(counts=counts, duration_s=duration))
        record = eio.read_count_csv(path)
    np.testing.assert_array_equal(record.counts, counts)
    assert record.duration_s == duration


def test_count_total_past_int64_is_refused(tmp_path):
    # each count fits int64, but numpy's int64 sum of them would wrap to a negative total
    counts = [2**62 if idx in (5, 6) else 1 for idx in range(36)]
    labels = tomography_projectors().flat_labels
    path = tmp_path / "counts.csv"
    rows = [",".join(eio.COUNT_CSV_HEADER)] + [f"{s},{o},{c},5.0" for (s, o), c in zip(labels, counts)]
    path.write_text("".join(row + "\n" for row in rows))
    with pytest.raises(ValueError) as exc:
        eio.read_count_csv(path)
    assert str(exc.value) == f"{path}: counts total {2**63 + 34} exceeds 2**63 - 1"


def test_a_count_past_the_interpreters_digit_limit_names_its_row(tmp_path):
    # int() refuses more than 4,300 digits with advice about sys.set_int_max_str_digits
    path = tmp_path / "counts.csv"
    eio.write_count_csv(path, CountRecord(counts=np.ones(36, dtype=np.int64), duration_s=5.0))
    lines = path.read_text().split("\n")
    lines[6] = lines[6].replace(",1,", f",{'9' * 140_000},")
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError) as exc:
        eio.read_count_csv(path)
    assert str(exc.value) == f"{path}: row 5 count {'9' * 40}… (140000 characters) is not in [0, 2**63 - 1]"


_COUNT_CSV = """\
setting_label,outcome_label,counts,duration_s
HV-HV,HH,0,1e-05
HV-HV,HV,1,1e-05
HV-HV,VH,2,1e-05
HV-HV,VV,3,1e-05
HV-DA,HD,4,1e-05
HV-DA,HA,5,1e-05
HV-DA,VD,6,1e-05
HV-DA,VA,7,1e-05
HV-RL,HR,8,1e-05
HV-RL,HL,9,1e-05
HV-RL,VR,10,1e-05
HV-RL,VL,11,1e-05
DA-HV,DH,12,1e-05
DA-HV,DV,13,1e-05
DA-HV,AH,14,1e-05
DA-HV,AV,15,1e-05
DA-DA,DD,16,1e-05
DA-DA,DA,17,1e-05
DA-DA,AD,18,1e-05
DA-DA,AA,19,1e-05
DA-RL,DR,20,1e-05
DA-RL,DL,21,1e-05
DA-RL,AR,22,1e-05
DA-RL,AL,23,1e-05
RL-HV,RH,24,1e-05
RL-HV,RV,25,1e-05
RL-HV,LH,26,1e-05
RL-HV,LV,27,1e-05
RL-DA,RD,28,1e-05
RL-DA,RA,29,1e-05
RL-DA,LD,30,1e-05
RL-DA,LA,31,1e-05
RL-RL,RR,32,1e-05
RL-RL,RL,33,1e-05
RL-RL,LR,34,1e-05
RL-RL,LL,35,1e-05
"""

_CELL = SimpleNamespace(
    axis="x", angle_deg=0.1, f_i_iii=1e-05, f_i_ii=-0.0, bc_i_iii=1.0, bc_i_ii=0.5,
    f_i_iii_theory=0.25, bc_i_iii_theory=0.75,
)

# one tiny fixed input per writer and the exact text it must write: the header,
# "\n" line ends, repr floats (0.1, 1e-05, -0.0), no quoting, and for JSON sorted
# keys, a 2-space indent and a final newline
WRITTEN_BYTES = {
    "write_count_csv": (
        lambda p: eio.write_count_csv(p, CountRecord(counts=np.arange(36), duration_s=1e-05)),
        _COUNT_CSV,
    ),
    "write_report_csv": (
        lambda p: eio.write_report_csv(p, SimpleNamespace(cells=[_CELL])),
        "axis,angle_deg,f_i_iii,f_i_ii,bc_i_iii,bc_i_ii,f_i_iii_theory,bc_i_iii_theory\n"
        "x,0.1,1e-05,-0.0,1.0,0.5,0.25,0.75\n",
    ),
    "write_plot_series": (
        lambda p: eio.write_plot_series(p, [(0.1, 1e-05, float("nan")), (-0.0, 2, 0.5)]),
        "angle_deg,value,error\n0.1,1e-05,0.0\n-0.0,2.0,0.5\n",
    ),
    "write_correlation_csv": (
        lambda p: eio.write_correlation_csv(
            p, [CorrelationSample("Z-DA", np.pi / 8, 0.1, 1e-05), CorrelationSample("X-HV", -0.0, -0.0, 0.5)]
        ),
        "combo,phi_deg,E,sigma_E\nZ-DA,22.5,0.1,1e-05\nX-HV,-0.0,-0.0,0.5\n",
    ),
    "write_json": (
        lambda p: eio.write_json(p, {"b": [0.1, 1e-05, -0.0], "a": {"d": None, "c": 1}}),
        '{\n  "a": {\n    "c": 1,\n    "d": null\n  },\n  "b": [\n    0.1,\n    1e-05,\n    -0.0\n  ]\n}\n',
    ),
}


@pytest.mark.parametrize("writer", WRITTEN_BYTES)
def test_writer_bytes_are_pinned(tmp_path, writer):
    write, expected = WRITTEN_BYTES[writer]
    path = tmp_path / "out"
    write(path)
    assert path.read_bytes() == expected.encode()
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


# each CSV writer fails while it builds its text, before the temporary file is
# opened; write_json fails while it streams into that file
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


@pytest.mark.parametrize("writer, budget", [(w, BUDGETS[w].bound) for w in ("write_simulate", "write_analyze", "write_son_fit")])
def test_one_writer_call_on_the_default_run_stays_within_its_memory_budget(tmp_path, writer, budget):
    assert traced_mib(layer_call(writer, tmp_path))[0] < budget


def _write_run(out) -> dict:
    """The default run's files, written into ``out``, a str or a Path, by the three writers: name -> bytes."""
    run = default_run()
    eio.write_simulate(out, run.grid, {})
    eio.write_analyze(out, run.report, eio.FORMATS)
    eio.write_son_fit(out, run.samples, run.result, eio.FORMATS)
    return {p.name: p.read_bytes() for p in Path(out).iterdir()}


BAD_FORMATS = {
    "empty": ((), "formats must name at least one of csv, json"),
    "xml": (("xml",), "unknown output format 'xml'"),
    "csv-and-xml": (("csv", "xml"), "unknown output format 'xml'"),
    "bare-string": ("json", "formats must be a sequence of format names, not the string 'json'"),
    "jsonx": ("jsonx", "formats must be a sequence of format names, not the string 'jsonx'"),
}


@pytest.mark.parametrize("writer", ["write_analyze", "write_son_fit"])
@pytest.mark.parametrize("formats, message", BAD_FORMATS.values(), ids=BAD_FORMATS)
def test_a_writer_refuses_bad_formats_before_it_removes_a_file(tmp_path, writer, formats, message):
    # an empty or unknown formats removed the earlier run's files and wrote nothing, and a
    # string was searched for "json" as a substring
    before = _write_run(tmp_path)
    run = default_run()
    args = {"write_analyze": (run.report,), "write_son_fit": (run.samples, run.result)}[writer]
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        getattr(eio, writer)(tmp_path, *args, formats)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_the_writers_take_out_as_a_str(tmp_path):
    # write_simulate made the directory with str.mkdir, an AttributeError
    assert _write_run(str(tmp_path / "str")) == _write_run(tmp_path / "path")
