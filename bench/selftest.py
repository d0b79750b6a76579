"""Show that every output check in checks.py can fail.

    python3 bench/selftest.py

Runs each workload's program once (about 90 s in all, most of it the
report's son fit), confirms that the clean outputs pass, then corrupts one
count, state entry or report value at a time and confirms that the check
aimed at it fails. Exits 1 if any corruption goes unnoticed.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import csv  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from worker import import_envarsim, setup_round  # noqa: E402

SEED = 1


def _edit_csv(path: Path, row: int, column: str, change) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0])
    rows[row][column] = change(rows[row][column])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _drop_csv_row(path: Path, row: int) -> None:
    lines = path.read_text().splitlines(keepends=True)
    del lines[1 + row]
    path.write_text("".join(lines))


def _edit_json(path: Path, change) -> None:
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def _on_copy(edit):
    """A corruption of a report directory, made on a copy beside it."""

    def corrupt(out: Path) -> Path:
        copy = out.with_name(out.name + "-corrupt")
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(out, copy)
        edit(copy)
        return copy

    return corrupt


def _shift_diagonal(table, amount):
    table[0][0][0] += amount


def _mix_with_identity(table):
    for i, row in enumerate(table):
        for j, entry in enumerate(row):
            entry[0] = 0.99 * entry[0] + (0.0025 if i == j else 0.0)
            entry[1] = 0.99 * entry[1]


REPORT_CASES = tuple((check, what, _on_copy(edit)) for check, what, edit in (
    ("count_files", "delete one count file", lambda d: (d / "counts_z_00000_II.csv").unlink()),
    ("count_totals", "add 2000 to one count", lambda d: _edit_csv(d / "counts_x_03000_III.csv", 0, "counts", lambda v: str(int(v) + 2000))),
    ("bc_from_counts", "add 1 to one count", lambda d: _edit_csv(d / "counts_x_03000_II.csv", 5, "counts", lambda v: str(int(v) + 1))),
    ("report_rows", "drop one report.csv row", lambda d: _drop_csv_row(d / "report.csv", 7)),
    ("states_physical", "raise one state's trace by 1e-3", lambda d: _edit_json(d / "states.json", lambda s: _shift_diagonal(s["y_06000_I"], 1e-3))),
    ("fidelity_from_states", "mix one state with 1% white noise", lambda d: _edit_json(d / "states.json", lambda s: _mix_with_identity(s["m_09000_III"]))),
    ("correlations_from_counts", "shift one E by 1e-3", lambda d: _edit_csv(d / "correlations.csv", 3, "E", lambda v: repr(float(v) + 1e-3))),
    ("son_fit", "set n to 2.3", lambda d: _edit_json(d / "son_fit.json", lambda s: s.update(n=2.3))),
    ("son_fit", "drop one combo", lambda d: _edit_json(d / "son_fit.json", lambda s: (s["per_combo"].pop(), s["per_combo_n"].pop()))),
))


def _replace_cell(report, index, **changes):
    cells = list(report.cells)
    cells[index] = dataclasses.replace(cells[index], **changes)
    return dataclasses.replace(report, cells=tuple(cells))


def _drop_cell(report, index):
    return dataclasses.replace(report, cells=report.cells[:index] + report.cells[index + 1:])


def _shift_all_cells(report, amount):
    cells = tuple(dataclasses.replace(c, f_i_iii=c.f_i_iii + amount) for c in report.cells)
    overall = dataclasses.replace(report.overall, f_i_iii_mean=report.overall.f_i_iii_mean + amount)
    return dataclasses.replace(report, cells=cells, overall=overall)


NOISELESS_CASES = (
    ("grid_complete", "drop one cell", lambda r: _drop_cell(r, 20)),
    ("envariance_restored", "set one F(I,III) to 0.9995", lambda r: _replace_cell(r, 17, f_i_iii=0.9995)),
    ("fidelity_half_angle", "lower one F(I,II) by 5e-3", lambda r: _replace_cell(r, 30, f_i_ii=r.cells[30].f_i_ii - 5e-3)),
    ("bc_singlet", "lower one BC(I,II) by 1e-4", lambda r: _replace_cell(r, 44, bc_i_ii=r.cells[44].bc_i_ii - 1e-4)),
)

CALIBRATED_CASES = (
    ("overall_means", "misreport the mean F(I,III) by 1e-4", lambda r: dataclasses.replace(r, overall=dataclasses.replace(r.overall, f_i_iii_mean=r.overall.f_i_iii_mean + 1e-4))),
    ("overall_means", "lower every F(I,III) by 0.01", lambda r: _shift_all_cells(r, -0.01)),
    ("deviation_vs_stability", "set the F deviation to 6x its stability", lambda r: dataclasses.replace(r, deviation_fidelity=6 * r.overall.stability_fidelity)),
    ("bc_werner", "lower one BC(I,II) by 0.05", lambda r: _replace_cell(r, 9, bc_i_ii=r.cells[9].bc_i_ii - 0.05)),
)


def _verdict(label: str, check: str, failures) -> bool:
    caught = any(name == check for name, _ in failures)
    print(f"{'ok  ' if caught else 'MISS'} {label}: check {check} {'fails' if caught else 'still passes'}")
    return caught


def main() -> int:
    envarsim = import_envarsim()
    ok = True
    for workload, cases in (
        ("report_default", REPORT_CASES),
        ("grid_noiseless", NOISELESS_CASES),
        ("grid_calibrated", CALIBRATED_CASES),
    ):
        run, check, scratch = setup_round(workload, SEED, envarsim)
        try:
            output = run()
            baseline = check(output)
            print(f"{'ok  ' if not baseline else 'FAIL'} {workload}: clean outputs pass {baseline}")
            ok &= not baseline
            for name, what, corrupt in cases:
                ok &= _verdict(f"{workload}: {what}", name, check(corrupt(output)))
        finally:
            if scratch is not None:
                shutil.rmtree(scratch, ignore_errors=True)
                shutil.rmtree(scratch.with_name(scratch.name + "-corrupt"), ignore_errors=True)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1

if __name__ == "__main__":
    sys.exit(main())
