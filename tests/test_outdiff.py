"""Tests for the tree comparison of tools/outdiff.py (the git and report runs are not exercised here)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("outdiff", Path(__file__).resolve().parents[1] / "tools" / "outdiff.py")
outdiff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(outdiff)


def _tree(root: Path, files: dict) -> Path:
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text)
    return root


def test_sorts_files_into_identical_one_sided_and_moved(tmp_path):
    old = _tree(
        tmp_path / "old",
        {
            "same.csv": "a,b\n1,2\n",
            "gone.csv": "a\n1\n",
            "moved.csv": "axis,f\nx,0.5\ny,0.25\n",
            "moved.json": json.dumps({"cells": [{"f": 1.0, "axis": "x"}, {"f": 2.0, "axis": "y"}], "n": 2}),
        },
    )
    new = _tree(
        tmp_path / "new",
        {
            "same.csv": "a,b\n1,2\n",
            "added.csv": "a\n1\n",
            "moved.csv": "axis,f\nz,0.5\ny,0.2500000000001\n",
            "moved.json": json.dumps({"cells": [{"f": 1.0, "axis": "x"}, {"f": 2.5, "axis": "y"}], "n": 2}),
        },
    )
    result = outdiff.compare_trees(old, new)
    assert result["identical"] == ["same.csv"]
    assert result["only_rev"] == ["gone.csv"] and result["only_here"] == ["added.csv"]
    csv_moves = result["differ"]["moved.csv"]
    assert csv_moves["axis"]["text"] == 1
    assert csv_moves["f"]["moved"] == 1 and csv_moves["f"]["abs"] == pytest.approx(1e-13, rel=1e-2)
    assert result["differ"]["moved.json"] == {"cells[].f": {"abs": 0.5, "rel": 0.2, "moved": 1, "text": 0}}


def test_a_changed_structure_or_nan_is_a_text_difference(tmp_path):
    old = _tree(tmp_path / "old", {"r.json": '{"a": [1, 2]}', "p.csv": "v\nnan\n1.0\n"})
    new = _tree(tmp_path / "new", {"r.json": '{"a": [1, 2, 3]}', "p.csv": "v\n0.0\nnan\n"})
    result = outdiff.compare_trees(old, new)
    assert result["differ"]["r.json"] == {"(structure)": {"abs": 0.0, "rel": 0.0, "moved": 0, "text": 1}}
    assert result["differ"]["p.csv"] == {"v": {"abs": 0.0, "rel": 0.0, "moved": 0, "text": 2}}


def test_the_matrix_covers_the_default_run_three_seeds_and_every_bundled_config():
    runs = outdiff.run_matrix()
    configs = sorted(Path(outdiff.ROOT, "configs").glob("*.json"))
    assert list(runs)[:4] == ["default", "seed-1", "seed-2", "seed-3"]
    assert [args[1] for args in list(runs.values())[4:]] == [f"configs/{c.name}" for c in configs]
