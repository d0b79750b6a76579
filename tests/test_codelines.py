"""Tests for the code-line count of tools/codelines.py."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("codelines", Path(__file__).resolve().parents[1] / "tools" / "codelines.py")
codelines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(codelines)

# code on lines 5, 8, 11-12, 13-14, 17 and 19: 8 lines
FIXTURE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment


def f(x):
    """A function docstring."""
    # an indented comment
    text = """a multi-line string
that is code"""
    return (text +
            os.sep)


class A:
    """A class docstring."""
    x = 1
'''


def test_counts_code_and_skips_docstrings_comments_and_blanks():
    assert codelines.code_lines(FIXTURE) == 8


def test_a_file_of_docstring_and_comments_has_no_code():
    assert codelines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
    assert codelines.code_lines("") == 0


def test_prints_each_module_the_total_and_one_json_line(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\ny = 2  # two lines\n")
    assert codelines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines[:3]] == [["b.py", "2"], ["pkg/a.py", "8"], ["total", "10"]]
    assert json.loads(lines[3]) == {"modules": {"b.py": 2, "pkg/a.py": 8}, "total": 10}


def test_a_missing_directory_exits_2(tmp_path, capsys):
    assert codelines.main([str(tmp_path / "absent")]) == 2
    assert "is not a directory" in capsys.readouterr().err
