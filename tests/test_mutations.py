"""Mutation properties of the CLI's inputs: a damaged input is run or refused, never a traceback.

Count files: one 1-axis, 3-angle grid is simulated per module. Each example
copies it, applies one drawn mutation to one drawn count file and runs
``analyze`` on the copy: it exits 0 (the file still reads as a record) or 3
with one ``error: malformed count file`` line naming that file, and leaves
no temporary file behind.

Config files, manifests and argv: the same property for a mutated config,
a mutated manifest or a drawn command line, with any refusal one
``error:`` line shorter than 300 bytes.
"""

import contextlib
import io
import json
import os
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


# The config, manifest and argv families. One small run is simulated per
# module; each example copies it, mutates one input and runs ``analyze`` or
# ``son-fit`` on the copy from inside it, so the default ``out_dir`` is the
# copied run and a mutation that stays valid reconstructs 6 records, not a grid.

# every config key, at values whose run the MLE reconstructs in milliseconds
SMALL_RUN = {
    "axes": ["x"],
    "angles_deg": [0.0, 180.0],
    "flux_hz": 2000.0,
    "duration_s": 1.0,
    "werner_v": 0.9,
    "drift_sigma": 0.0,
    "waveplate_error_sigma": 0.0,
    "poisson": False,
    "seed": 5,
    "out_dir": "out",
    "formats": ["csv", "json"],
}
COMMANDS = st.sampled_from(["analyze", "son-fit"])
# values of every JSON kind, and text of any characters, long or not
KINDS = st.sampled_from([None, True, False, 0, -3, 2.5, "", "x", [], {}, ["x"], {"k": 1}])
TEXT = st.one_of(st.text(max_size=8), st.text(min_size=1, max_size=3).map(lambda s: s * 50_000))
CONTROLS = st.sampled_from(["\x00", "\n", "\r", "\t", "\x1b", "\x7f", "\x85", "\u2028"])


@contextlib.contextmanager
def _inside(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory) -> Path:
    """A directory holding SMALL_RUN as ``c.json`` and its simulated run in ``out``."""
    root = tmp_path_factory.mktemp("small-run")
    (root / "c.json").write_text(json.dumps(SMALL_RUN, indent=2))
    with _inside(root), contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", "c.json"]) == 0
    return root


def _main_on_a_copy(root: Path, argv: list[str], mutate=None) -> tuple[int, str]:
    """``main(argv)`` inside a copy of ``root`` after ``mutate(copy)``, checked against the
    property: a documented code, and on failure one ``error:`` line shorter than 300 bytes;
    no temporary file left. Help exits through SystemExit(0), as argparse's does."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "run"
        shutil.copytree(root, work)
        if mutate is not None:
            mutate(work)
        stderr = io.StringIO()
        with _inside(work), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 0 and any(arg.startswith("-") for arg in argv), exc
                code = 0
        err = stderr.getvalue()
        assert code in (0, 1, 2, 3, 4), err
        if code:
            assert err.startswith("error: ") and len(err.splitlines()) == 1 and err.endswith("\n"), err[:300]
            assert len(err.encode("utf-8", "backslashreplace")) < 300, err[:300]
        assert not list(work.rglob(".*.tmp"))
        return code, err


def _paths(tree, path=()):
    """The path of every value in a parsed JSON tree; the manifest's cells, which no
    subcommand reads back, count as one value."""
    yield path
    if path == ("cells",):
        return
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for key, value in items:
        yield from _paths(value, (*path, key))


def _at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def _written_with(tree, path, text: str) -> str:
    """``tree`` as JSON text, with the value at ``path`` written as the raw ``text``."""
    marker = "@@mutated@@"

    def put(node, rest):
        if not rest:
            return marker
        if isinstance(node, dict):
            return {k: put(v, rest[1:]) if k == rest[0] else v for k, v in node.items()}
        return [put(v, rest[1:]) if i == rest[0] else v for i, v in enumerate(node)]

    return json.dumps(put(tree, path)).replace(json.dumps(marker), text, 1)


def _path_to(draw, tree, kind=object):
    return draw(st.sampled_from([p for p in _paths(tree) if isinstance(_at(tree, p), kind)]))


def _repeat_key(draw, tree):
    path = _path_to(draw, tree, dict)
    obj = _at(tree, path)
    if not obj:
        return _written_with(tree, path, '{"k": 1, "k": 2}')
    key = draw(st.sampled_from(list(obj)))
    pairs = [json.dumps(k) + ": " + json.dumps(v) for k, v in obj.items()]
    pairs.append(json.dumps(key) + ": " + json.dumps(draw(st.one_of(st.just(obj[key]), KINDS))))
    return _written_with(tree, path, "{" + ", ".join(pairs) + "}")


def _control_in_string(draw, tree):
    paths = [p for p in _paths(tree) if isinstance(_at(tree, p), str)]
    path = draw(st.sampled_from(paths))
    value = _at(tree, path)
    i = draw(st.integers(0, len(value)))
    text = value[:i] + draw(CONTROLS) + value[i:]
    # JSON-escaped, or raw, which the decoder refuses below U+0020
    raw = draw(st.booleans())
    return _written_with(tree, path, '"' + text + '"' if raw else json.dumps(text))


def _nest(draw, tree):
    path = _path_to(draw, tree)
    depth = draw(st.sampled_from([1, 2, 100_000]))
    inner = json.dumps(_at(tree, path))
    if draw(st.booleans()):
        return _written_with(tree, path, "[" * depth + inner + "]" * depth)
    return _written_with(tree, path, '{"k": ' * depth + inner + "}" * depth)


def _unknown_key(draw, tree):
    path = _path_to(draw, tree, dict)
    obj = {**_at(tree, path), draw(st.text(max_size=12)): draw(KINDS)}
    return _written_with(tree, path, json.dumps(obj))


JSON_MUTATIONS = {
    "type-swap": lambda draw, tree: _written_with(tree, _path_to(draw, tree), json.dumps(draw(KINDS))),
    "text": lambda draw, tree: _written_with(tree, _path_to(draw, tree), json.dumps(draw(TEXT))),
    "non-finite": lambda draw, tree: _written_with(
        tree, _path_to(draw, tree), draw(st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999", "-1e999"]))
    ),
    "huge": lambda draw, tree: _written_with(
        tree,
        _path_to(draw, tree),
        draw(st.sampled_from(["1" + "0" * 400, "-" + "9" * 5_000, "18446744073709551617", "1.7976931348623157e308", "5e-324"])),
    ),
    "nest": _nest,
    "unknown-key": _unknown_key,
    "repeat-key": _repeat_key,
    "control-in-string": _control_in_string,
    "bom": lambda draw, tree: "\ufeff" + json.dumps(tree),
}


def _mutated_json(draw, path: Path) -> None:
    kind = draw(st.sampled_from(sorted(JSON_MUTATIONS)), label="mutation")
    event(kind)
    path.write_text(JSON_MUTATIONS[kind](draw, json.loads(path.read_text())), encoding="utf-8")


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_a_mutated_config_is_run_or_refused(small_run, data):
    command = data.draw(COMMANDS, label="command")
    code, err = _main_on_a_copy(small_run, [command, "--config", "c.json"], lambda work: _mutated_json(data.draw, work / "c.json"))
    event(f"{command} exits {code}")
    # refused as a config (1), an out_dir the OS refuses (2) or one that names no run (3);
    # son-fit's grid cannot fix n (3)
    assert code in (1, 2, 3) or (code == 0 and command == "analyze"), err


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_a_mutated_manifest_is_run_or_refused(small_run, data):
    command = data.draw(COMMANDS, label="command")
    code, err = _main_on_a_copy(small_run, [command], lambda work: _mutated_json(data.draw, work / "out" / "manifest.json"))
    event(f"{command} exits {code}")
    assert code == 3 or (code == 0 and command == "analyze"), err


OPTION_VALUES = {
    "--config": st.one_of(st.sampled_from(["c.json", "", "missing.json", "out", "./c.json"]), TEXT),
    "--seed": st.one_of(st.sampled_from(["5", "6", "05", "", "-5", "+5", " 5", "5.0", "٥", "9" * 5_000]), TEXT),
    "--out": st.one_of(st.sampled_from(["out", "", "elsewhere", "out/", "./out", "c.json"]), TEXT),
    "--format": st.one_of(st.sampled_from(["csv", "json", "", "xml", "CSV", "ｃｓｖ"]), TEXT),
}


@st.composite
def _argument(draw) -> list[str]:
    """One option given as two words, as --name=value or with no value, or a stray word."""
    if draw(st.integers(0, 4)) == 0:
        return [draw(TEXT)]
    name = draw(st.sampled_from(sorted(OPTION_VALUES)))
    value = draw(OPTION_VALUES[name])
    form = draw(st.sampled_from(["words", "equals", "bare"]))
    return {"words": [name, value], "equals": [f"{name}={value}"], "bare": [name]}[form]


@settings(max_examples=200, deadline=None)
@given(command=COMMANDS, arguments=st.lists(_argument(), max_size=5), before=st.booleans())
def test_any_argv_is_run_or_refused(small_run, command, arguments, before):
    words = [word for argument in arguments for word in argument]
    argv = [*words[:1], command, *words[1:]] if before else [command, *words]
    code, err = _main_on_a_copy(small_run, argv)
    event(f"{command} exits {code}")
    assert code in (0, 1, 2, 3), err


# The path family. Each example names a drawn path of about 100 to 4,000 bytes, under the
# OS's PATH_MAX of 4,096, in one of the four places a refusal names it: a config file that is
# not there, an out_dir with no manifest, a run missing a count file, or a run holding an empty
# one. The path's names repeat a drawn unit of letters, wide characters, control characters
# and an undecodable byte (as its surrogate escape); each name is 16 to 60 characters, at most
# 240 bytes, under NAME_MAX.
PATH_CHARS = st.sampled_from(["d", "x", "é", "水", "😀", "\n", "\x1b", " ", "\udce9"])


@st.composite
def _long_path(draw) -> str:
    size = draw(st.integers(100, 4_000), label="bytes")
    unit = draw(st.text(PATH_CHARS, min_size=1, max_size=4))
    width = draw(st.integers(16, 60))
    name = (unit * width)[:width]
    parts, used = [], -1  # the bytes of "/".join(parts)
    while used + 1 + len(os.fsencode(name)) <= size:
        parts.append(name)
        used += 1 + len(os.fsencode(name))
    # a last name cut to the bytes that are left
    tail = "".join(c for i, c in enumerate(name) if used + 1 + len(os.fsencode(name[: i + 1])) <= size)
    return "/".join([*parts, tail] if tail else parts)


def _run_at(path: str, counts: bool):
    """Put the run in ``out`` at ``path``: its manifest alone, or with every count file and
    the first of them emptied."""

    def mutate(work: Path) -> None:
        target = work / path
        if counts:
            shutil.copytree(work / "out", target)
            (target / "counts_x_00000_I.csv").write_bytes(b"")
        else:
            target.mkdir(parents=True)
            shutil.copy(work / "out" / "manifest.json", target)

    return mutate


PATH_CASES = {
    # (the argv, its mutation, the start of the error line)
    "config-file-not-found": (lambda p: ["simulate", "--config", p], None, "config file not found: "),
    "missing-manifest": (lambda p: ["analyze", "--out", p], None, "missing manifest: "),
    "missing-stage-file": (lambda p: ["analyze", "--out", p], lambda p: _run_at(p, False), "missing stage file: "),
    "malformed-count-file": (
        lambda p: ["analyze", "--out", p],
        lambda p: _run_at(p, True),
        "malformed count file ",
    ),
}


@settings(max_examples=80, deadline=None)
@given(path=_long_path(), case=st.sampled_from(sorted(PATH_CASES)))
def test_an_error_line_bounds_the_path_it_names(small_run, path, case):
    argv, mutate, start = PATH_CASES[case]
    event(case)
    code, err = _main_on_a_copy(small_run, argv(path), mutate and mutate(path))
    assert code == 3, err
    assert err.startswith("error: " + start), err[:300]
