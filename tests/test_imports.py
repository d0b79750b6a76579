"""Import hygiene: numpy is the one runtime dependency.

Each check runs in a fresh interpreter, because this test process has
scipy loaded already (the tests use it as an oracle).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import scipy.optimize

import envarsim
from envarsim import son

SRC = Path(envarsim.__file__).resolve().parents[1]
SON_QUICK = Path(__file__).resolve().parents[1] / "configs" / "son_quick.json"


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=300
    )


def test_import_loads_numpy_random_and_no_scipy():
    # numpy.random is loaded on import so that a run's timed work does not
    # include it; scipy is not loaded at all
    code = (
        "import json, sys\n"
        "import envarsim\n"
        "after_package = 'numpy.random' in sys.modules\n"
        "import envarsim.cli\n"
        "print(json.dumps([after_package, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    numpy_random_loaded, scipy_modules = json.loads(proc.stdout)
    assert numpy_random_loaded
    assert scipy_modules == []


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
