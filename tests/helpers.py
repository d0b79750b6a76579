"""Random states, closed forms and oracles that only the tests use, and the memory budgets.

``BUDGETS`` maps each memory-budgeted layer to its warm call on the calibrated default run
and its tracemalloc bound. The budget tests read their call and bound from it, and the CI
prints every layer's peak on a tree's ``src`` with this file as a script:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/helpers.py src
"""

import contextlib
import functools
import importlib
import io
import itertools
import sys
import tempfile
import tracemalloc
from collections.abc import Callable
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from envarsim import ExperimentPlan, calibrated_noise, fidelity, fit_exponent, mle_reconstruct_many, simulate_grid, tomography_projectors
from envarsim.harness import assemble_report


def traced_mib(call) -> tuple[float, float]:
    """tracemalloc's peak over one warm call of ``call`` (it runs once untraced first), and what
    is still traced while its result is held, each above what was traced at the call's entry, in MiB."""
    call()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        result = call()  # noqa: F841  held while the memory is read
        held, peak = tracemalloc.get_traced_memory()
        return (peak - entry) / 2**20, (held - entry) / 2**20
    finally:
        tracemalloc.stop()


@functools.cache
def default_run():
    """The calibrated default plan and what it makes, made once: its grid, its 156 count records
    in the plan's cell order (``counts``, and by cell ``cell_counts``), its stage-II records by cell,
    their MLE results, its report, its correlation samples and its fit of n."""
    plan = ExperimentPlan(noise=calibrated_noise())
    grid = simulate_grid(plan)
    cell_counts = {cell: tuple(stage.counts for stage in stages) for cell, stages in grid.items()}
    counts = [record for records in cell_counts.values() for record in records]
    records = {cell: stages[1] for cell, stages in cell_counts.items()}
    samples, result = fit_exponent(plan.axes, plan.angles_deg, records)
    return SimpleNamespace(
        plan=plan,
        grid=grid,
        cell_counts=cell_counts,
        counts=counts,
        records=records,
        mle_results=mle_reconstruct_many(counts, tomography_projectors()),
        report=assemble_report(plan, cell_counts),
        samples=samples,
        result=result,
    )


def _envarsim(module: str, name: str):
    """``envarsim.<module>.<name>``, looked up now: AttributeError where this tree lacks it."""
    return getattr(importlib.import_module(f"envarsim.{module}"), name)


class Budget(NamedTuple):
    """A layer's warm call, made from the default run and a scratch directory, and its bounds in
    MiB on the call's traced peak and, where given, on what its result holds."""

    call: Callable[[SimpleNamespace, Path], Callable[[], object]]
    bound: float
    held: float | None = None


def _report(run: SimpleNamespace, out: Path):
    main, runs = _envarsim("cli", "main"), itertools.count()

    def report():
        # each call into its own empty directory
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["report", "--out", str(out / str(next(runs)))]) == 0

    return report


def _assemble_report_without_mle(run: SimpleNamespace, out: Path):
    harness = importlib.import_module("envarsim.harness")
    assemble, mle = harness.assemble_report, harness.mle_reconstruct_many

    def call():
        # the MLE memoized out: it returns the default run's results
        harness.mle_reconstruct_many = lambda records, projectors: run.mle_results
        try:
            return assemble(run.plan, run.cell_counts)
        finally:
            harness.mle_reconstruct_many = mle

    return call


FORMATS = ("csv", "json")  # io.FORMATS, spelled out: the table runs on trees without it too

# figures: one warm call's traced peak (and held) on numpy 2.4.6; each bound is 17-31 % above
BUDGETS = {
    # 0.919 MiB, and 0.16 MiB held by the results it returns
    "mle_reconstruct_many": Budget(
        lambda run, out: functools.partial(_envarsim("tomography", "mle_reconstruct_many"), run.counts, tomography_projectors()),
        1.2,
        held=0.3,
    ),
    # 0.596 MiB
    "simulate_grid": Budget(lambda run, out: functools.partial(_envarsim("harness", "simulate_grid"), run.plan), 0.7),
    # 0.320 MiB
    "fit_exponent": Budget(
        lambda run, out: functools.partial(_envarsim("son", "fit_exponent"), run.plan.axes, run.plan.angles_deg, run.records),
        0.4,
    ),
    # 1.020 MiB: a whole CLI report
    "report": Budget(_report, 1.3),
    # 0.441 MiB: assemble_report with the MLE memoized out (0.926 MiB with it)
    "assemble_report_without_mle": Budget(_assemble_report_without_mle, 0.55),
    # 0.415 MiB
    "write_simulate": Budget(lambda run, out: functools.partial(_envarsim("io", "write_simulate"), out, run.grid, {}), 0.53),
    # 0.413 MiB
    "write_analyze": Budget(lambda run, out: functools.partial(_envarsim("io", "write_analyze"), out, run.report, FORMATS), 0.53),
    # 0.303 MiB
    "write_son_fit": Budget(
        lambda run, out: functools.partial(_envarsim("io", "write_son_fit"), out, run.samples, run.result, FORMATS),
        0.38,
    ),
}


def layer_call(layer: str, out: Path):
    """``layer``'s warm call on the default run, writing (if it writes) into the directory ``out``."""
    return BUDGETS[layer].call(default_run(), out)


def print_peaks(label: str) -> None:
    """One line per budgeted layer: its traced peak on the envarsim imported here, each layer
    writing into an empty directory of its own, or that this tree lacks the layer."""
    run = default_run()
    with tempfile.TemporaryDirectory() as tmp:
        for layer, budget in BUDGETS.items():
            out = Path(tmp, layer)
            out.mkdir()
            try:
                call = budget.call(run, out)
            except (AttributeError, ImportError):
                print(f"{label}: {layer} absent")
                continue
            print(f"{label}: {layer} tracemalloc peak {traced_mib(call)[0]:.3f} MiB, bound {budget.bound}")


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix A A^dag / Tr(A A^dag)."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


def e_qm(theta: float) -> float:
    """Singlet correlation -cos(2*theta) of standard quantum mechanics."""
    return -float(np.cos(2 * np.asarray(theta, dtype=float)))


def value_at(curve, theta) -> np.ndarray:
    """A ``CorrelationCurve``'s E at arbitrary theta in [0, pi/2] (exact on grid nodes)."""
    return np.interp(np.asarray(theta, dtype=float), curve.theta_grid, curve.values)


def source_stability(stage1_states: list[np.ndarray]) -> float:
    """Std of fidelities between consecutive source characterizations."""
    if len(stage1_states) < 3:
        raise ValueError("need at least 3 source states for a stability estimate")
    return float(np.std(fidelity(stage1_states[:-1], stage1_states[1:]), ddof=1))


if __name__ == "__main__":
    print_peaks(sys.argv[1])
