"""Mutation property of the count files: a damaged count file is read or refused, never a traceback.

One 1-axis, 3-angle grid is simulated per module. Each example copies it,
applies one drawn mutation to one drawn count file and runs ``analyze`` on
the copy: it exits 0 (the file still reads as a record) or 3 with one
``error: malformed count file`` line naming that file, and leaves no
temporary file behind.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from envarsim.cli import main

# the bytes the mutations plant: NUL, a quote, a bare carriage return, a
# field separator and a non-ASCII byte, or any one byte
PLANTED = st.one_of(st.sampled_from([b"\x00", b'"', b"\r", b",", b"\xe9"]), st.binary(min_size=1, max_size=1))


def _lines(data: bytes) -> list[bytes]:
    return data.split(b"\n")[:-1]


def _join(lines: list[bytes]) -> bytes:
    return b"".join(line + b"\n" for line in lines)


def _index(draw, items) -> int:
    return draw(st.integers(0, len(items) - 1))


def _drop_line(draw, data):
    lines = _lines(data)
    del lines[_index(draw, lines)]
    return _join(lines)


def _duplicate_line(draw, data):
    lines = _lines(data)
    i = _index(draw, lines)
    lines.insert(i, lines[i])
    return _join(lines)


def _swap_lines(draw, data):
    lines = _lines(data)
    i, j = _index(draw, lines), _index(draw, lines)
    lines[i], lines[j] = lines[j], lines[i]
    return _join(lines)


def _replace_byte(draw, data):
    i = _index(draw, data)
    return data[:i] + draw(PLANTED) + data[i + 1 :]


def _pad_field(draw, data):
    # past the csv module's default field limit of 131,072 characters
    lines = _lines(data)
    i = _index(draw, lines)
    fields = lines[i].split(b",")
    j = _index(draw, fields)
    pad = draw(st.sampled_from([b"x", b"0", b" "]))
    fields[j] = fields[j].rjust(140_000, pad)
    lines[i] = b",".join(fields)
    return _join(lines)


MUTATIONS = {
    "drop-line": _drop_line,
    "duplicate-line": _duplicate_line,
    "swap-lines": _swap_lines,
    "replace-byte": _replace_byte,
    "crlf": lambda draw, data: data.replace(b"\n", b"\r\n"),
    "utf8-bom": lambda draw, data: b"\xef\xbb\xbf" + data,
    "utf16": lambda draw, data: data.decode("ascii").encode("utf-16"),
    "pad-field": _pad_field,
    "truncate": lambda draw, data: data[: _index(draw, data)],
}


@pytest.fixture(scope="module")
def grid(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("mutations")
    config = root / "c.json"
    config.write_text(json.dumps({"axes": ["x"], "angles_deg": [0.0, 90.0, 180.0]}))
    out = root / "grid"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert len(list(out.glob("counts_*.csv"))) == 9
    return out


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_analyze_reads_or_refuses_a_mutated_count_file(grid, data):
    name = data.draw(st.sampled_from(sorted(p.name for p in grid.glob("counts_*.csv"))), label="file")
    kind = data.draw(st.sampled_from(sorted(MUTATIONS)), label="mutation")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        shutil.copytree(grid, out)
        path = out / name
        path.write_bytes(MUTATIONS[kind](data.draw, path.read_bytes()))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["analyze", "--out", str(out)])
        err = stderr.getvalue()
        event(f"{kind} exits {code}")
        assert code in (0, 3), err
        if code == 3:
            assert err.startswith("error: malformed count file") and err.count("\n") == 1 and err.endswith("\n")
            assert str(path) in err
        assert not list(out.glob(".*.tmp"))
