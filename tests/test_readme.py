"""README's Library example runs, and its one import from the package root is that root's public API."""

import re
import types
from pathlib import Path

import envarsim

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    """The first python block under README's ``## Library`` heading."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_example_runs():
    exec(compile(_library_example(), f"{README}:Library", "exec"), {})


def test_the_package_root_binds_exactly_the_names_the_example_imports():
    imported = re.search(r"^from envarsim import \(([^)]*)\)", _library_example(), re.M).group(1)
    public = {
        name for name, value in vars(envarsim).items() if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {name.strip() for name in imported.split(",") if name.strip()}
