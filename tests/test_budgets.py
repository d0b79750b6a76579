"""The traced-peaks printer that CI runs on each side of a change reads ``helpers.BUDGETS`` alone."""

import re
from pathlib import Path

import helpers
from envarsim import io as eio
from helpers import BUDGETS, print_peaks

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_the_printer_prints_each_layers_peak_within_its_bound(capsys):
    print_peaks("src")
    lines = capsys.readouterr().out.splitlines()
    found = [re.fullmatch(r"src: (\w+) tracemalloc peak (\d+\.\d{3}) MiB, bound ([\d.]+)", line) for line in lines]
    assert all(found), lines
    assert [m[1] for m in found] == list(BUDGETS)
    for m in found:
        assert float(m[2]) < BUDGETS[m[1]].bound == float(m[3]), m[0]


def test_the_printer_prints_a_layer_this_tree_lacks_as_absent(monkeypatch, capsys):
    monkeypatch.setattr(helpers, "BUDGETS", {"write_son_fit": BUDGETS["write_son_fit"]})
    monkeypatch.delattr(eio, "write_son_fit")
    print_peaks("old")
    assert capsys.readouterr().out == "old: write_son_fit absent\n"


def test_the_workflow_measures_through_the_printer_alone():
    """The traced-peaks step runs this printer and holds no measurement code of its own."""
    step = WORKFLOW.read_text().split("- name: Traced peaks", 1)[1].split("- name:", 1)[0]
    assert 'python tests/helpers.py "$side"' in step
    assert not re.search(r"tracemalloc|envarsim|import", step), step
