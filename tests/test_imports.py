"""Import hygiene: numpy is the one runtime dependency, loaded no further than a run needs.

Each check runs in a fresh interpreter, because this test process has
scipy, numpy.random and numpy.polynomial loaded already (the tests use them).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import envarsim
from envarsim import son

SRC = Path(envarsim.__file__).resolve().parents[1]
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SON_QUICK = CONFIGS / "son_quick.json"
LAZY = ("numpy.random", "numpy.polynomial")

# numpy 1.x imports numpy.random and numpy.polynomial itself
numpy_2 = pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2, reason="import numpy loads both on numpy 1.x")


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=300
    )


def _loaded_after(code: str, *args: str) -> dict:
    """Which of LAZY ``code`` leaves loaded in a fresh interpreter."""
    proc = _python(code + f"\nimport json, sys\nprint(json.dumps({{m: m in sys.modules for m in {LAZY!r}}}))\n", *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_numpy_random_and_no_scipy():
    # the package loads numpy.random and numpy.polynomial only where import
    # numpy does (numpy 1.x), so a run pays for them on first use; scipy is
    # not loaded at all
    code = (
        "import json, sys\n"
        "import numpy\n"
        f"by_numpy = [m in sys.modules for m in {LAZY!r}]\n"
        "import envarsim.cli\n"
        f"by_cli = [m in sys.modules for m in {LAZY!r}]\n"
        "print(json.dumps([by_numpy, by_cli, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    by_numpy, by_cli, scipy_modules = json.loads(proc.stdout)
    assert by_cli == by_numpy
    assert scipy_modules == []


@numpy_2
def test_noise_free_runs_leave_numpy_random_unloaded(tmp_path):
    # a model that draws nothing builds no random stream
    run = (
        "from envarsim import ExperimentPlan, NoiseModel, run_experiment\n"
        "run_experiment(ExperimentPlan(axes=('x', 'm'), angles_deg=(0.0, 90.0, 180.0), noise=NoiseModel.noiseless(), seed=1))\n"
    )
    report = (
        "import sys\n"
        "from envarsim.cli import main\n"
        "assert main(['report', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
    )
    assert not _loaded_after(run)["numpy.random"]
    assert not _loaded_after(report, str(CONFIGS / "noiseless_small.json"), str(tmp_path / "out"))["numpy.random"]


@numpy_2
def test_run_experiment_leaves_numpy_polynomial_unloaded():
    # only the son fit builds the quadrature rule; a calibrated run draws, so it loads numpy.random
    code = (
        "from envarsim import ExperimentPlan, calibrated_noise, run_experiment\n"
        "run_experiment(ExperimentPlan(axes=('z',), angles_deg=(0.0, 90.0, 180.0), noise=calibrated_noise(1), seed=1))\n"
    )
    assert _loaded_after(code) == {"numpy.random": True, "numpy.polynomial": False}


def test_first_son_fit_gives_the_same_n_bits():
    # the first fit in a process builds the quadrature rule; n and its error bar
    # carry the same bits as when the rule is built up front, as import once did
    code = (
        "import json, sys\n"
        "import numpy as np\n"
        "from envarsim import son\n"
        "from envarsim.cli import load_config\n"
        "from envarsim.harness import simulate_grid\n"
        "if sys.argv[2] == 'up-front':\n"
        "    son._arc_rule()\n"
        "plan = load_config(sys.argv[1]).plan()\n"
        "grid = simulate_grid(plan)\n"
        "samples = [son.extract_correlation(grid['z', a][1].counts, combo, float(np.deg2rad(a) / 2))\n"
        "           for combo in ('Z-DA', 'Z-RL') for a in plan.angles_deg]\n"
        "result = son.son_fit(samples)\n"
        "print(json.dumps([result.n.hex(), result.n_uncertainty.hex()]))\n"
    )
    fits = {}
    for when in ("up-front", "first-fit"):
        proc = _python(code, str(SON_QUICK), when)
        assert proc.returncode == 0, proc.stderr
        fits[when] = json.loads(proc.stdout)
    assert fits["first-fit"] == fits["up-front"]
    assert abs(float.fromhex(fits["first-fit"][0]) - 2.0) < 0.01


def test_report_runs_with_scipy_blocked(tmp_path):
    # the same son_quick report, with and without scipy importable
    code = (
        "import sys\n"
        "if sys.argv[1] == 'blocked':\n"
        "    sys.modules['scipy'] = None\n"
        "from envarsim.cli import main\n"
        "sys.exit(main(['report', '--config', sys.argv[2], '--out', sys.argv[3]]))\n"
    )
    runs = {}
    for mode in ("blocked", "free"):
        proc = _python(code, mode, str(SON_QUICK), str(tmp_path / mode))
        assert proc.returncode == 0, proc.stderr
        runs[mode] = [line.replace(str(tmp_path / mode), "OUT") for line in proc.stdout.splitlines()]
    assert runs["blocked"] == runs["free"]
    files = sorted(p.relative_to(tmp_path / "free") for p in (tmp_path / "free").rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(tmp_path / "blocked") for p in (tmp_path / "blocked").rglob("*") if p.is_file())
    for name in files:
        assert (tmp_path / "blocked" / name).read_bytes() == (tmp_path / "free" / name).read_bytes()
    assert any(line.startswith("son-fit: n = ") for line in runs["blocked"])


def test_son_minimize_resolves_on_demand():
    # bench/tracing.py looks up son.minimize by name
    assert son.minimize is scipy.optimize.minimize
    assert not hasattr(son, "no_such_name")
