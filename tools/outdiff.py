"""Which output digits moved: `envarsim report` trees of this checkout against a git revision.

    python tools/outdiff.py REV

REV is checked out with ``git worktree add --detach`` under a temporary
directory. Both sides then run ``python -m envarsim report`` from their own
``src`` with one BLAS thread, for a fixed matrix: the default run, ``--seed``
1, 2 and 3, and every bundled config (``configs/*.json`` of this checkout;
each side reads its own copy). Every tree goes to the temporary directory,
never to a config's ``out_dir``.

The trees are compared file by file. The tool lists the files present on one
side only and the byte-identical ones. For a CSV or JSON file that differs it
gives the largest absolute and relative move per column (CSV) or per key path
(JSON, list indices dropped, so ``cells[].f_i_iii`` covers every cell), and
names every column or key whose text differs where a number is not involved.
The exit status, stdout and stderr of each run are compared too: a run that
exits nonzero on either side counts as a difference, and so does any line of
stdout or stderr found on one side only (both sides write to one path, so the
paths those lines name match).

Stdout carries a table, then one line of JSON with the whole summary. Exit
status: 0 when every run exits 0 on both sides with the same stdout and
stderr and every file is identical, 1 otherwise, 2 when git fails. Compare
on one machine: numpy may pick float64 loops per CPU, so the last bits can
differ between machines.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)


def run_matrix() -> dict[str, list[str]]:
    """Run name -> the arguments ``report`` gets besides ``--out``."""
    runs = {"default": []}
    runs.update({f"seed-{seed}": ["--seed", str(seed)] for seed in SEEDS})
    for config in sorted((ROOT / "configs").glob("*.json")):
        runs[f"config-{config.stem}"] = ["--config", str(Path("configs") / config.name)]
    return runs


def run_report(side: Path, args: list[str], out: Path, keep: Path) -> dict:
    """``report`` from ``side``'s own src and configs, with one BLAS thread, its tree moved to ``keep``."""
    env = dict(os.environ, PYTHONPATH=str(side / "src"))
    env.update({name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    proc = subprocess.run(
        [sys.executable, "-m", "envarsim", "report", *args, "--out", str(out)],
        cwd=side,
        env=env,
        capture_output=True,
        text=True,
    )
    if out.exists():
        keep.parent.mkdir(parents=True, exist_ok=True)
        out.rename(keep)
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _move(moves: dict, key: str, old, new) -> None:
    """Record one value pair under ``key``: a numeric move, or a text difference."""
    entry = moves.setdefault(key, {"abs": 0.0, "rel": 0.0, "moved": 0, "text": 0})
    x = old if isinstance(old, (int, float)) and not isinstance(old, bool) else None
    y = new if isinstance(new, (int, float)) and not isinstance(new, bool) else None
    if isinstance(old, str) and isinstance(new, str):
        x, y = _number(old), _number(new)
    if x is None or y is None or math.isnan(x) != math.isnan(y) or math.isinf(x) or math.isinf(y):
        if old != new:
            entry["text"] += 1
        return
    if x == y or (math.isnan(x) and math.isnan(y)):
        return
    diff = abs(x - y)
    entry["moved"] += 1
    entry["abs"] = max(entry["abs"], diff)
    entry["rel"] = max(entry["rel"], diff / max(abs(x), abs(y)))


def _csv_moves(old: str, new: str) -> dict:
    old_rows, new_rows = list(csv.reader(io.StringIO(old))), list(csv.reader(io.StringIO(new)))
    moves: dict = {}
    if not old_rows or not new_rows or old_rows[0] != new_rows[0] or len(old_rows) != len(new_rows):
        _move(moves, "(header or row count)", "old", "new")
        return moves
    header = old_rows[0]
    for old_row, new_row in zip(old_rows[1:], new_rows[1:]):
        if len(old_row) != len(header) or len(new_row) != len(header):
            _move(moves, "(row length)", "old", "new")
            continue
        for column, a, b in zip(header, old_row, new_row):
            _move(moves, column, a, b)
    return moves


def _leaves(value, path: str = ""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for item in value:
            yield from _leaves(item, f"{path}[]")
    else:
        yield path, value


def _json_moves(old: str, new: str) -> dict:
    moves: dict = {}
    try:
        old_leaves, new_leaves = list(_leaves(json.loads(old))), list(_leaves(json.loads(new)))
    except ValueError:
        _move(moves, "(not JSON)", "old", "new")
        return moves
    if [p for p, _ in old_leaves] != [p for p, _ in new_leaves]:
        _move(moves, "(structure)", "old", "new")
        return moves
    for (path, a), (_, b) in zip(old_leaves, new_leaves):
        _move(moves, path or "(value)", a, b)
    return moves


def compare_trees(old: Path, new: Path) -> dict:
    """One run's files: identical, on one side only, and the moves of those that differ."""
    old_files = {p.name for p in old.iterdir()} if old.is_dir() else set()
    new_files = {p.name for p in new.iterdir()} if new.is_dir() else set()
    result = {"identical": [], "only_rev": sorted(old_files - new_files), "only_here": sorted(new_files - old_files)}
    result["differ"] = {}
    for name in sorted(old_files & new_files):
        a, b = (old / name).read_bytes(), (new / name).read_bytes()
        if a == b:
            result["identical"].append(name)
            continue
        parse = _csv_moves if name.endswith(".csv") else _json_moves if name.endswith(".json") else None
        moves = parse(a.decode(), b.decode()) if parse else {"(bytes)": {"abs": 0.0, "rel": 0.0, "moved": 0, "text": 1}}
        result["differ"][name] = {key: m for key, m in moves.items() if m["moved"] or m["text"]}
    return result


def _line_diff(old: str, new: str) -> list[str] | None:
    """The lines on one side only, marked ``-`` (REV) or ``+`` (this checkout); None when the texts agree."""
    if old == new:
        return None
    # line ends kept, so a lost final newline shows as a changed line
    diff = difflib.ndiff(old.splitlines(keepends=True), new.splitlines(keepends=True))
    return [line.rstrip("\n") for line in diff if line[:1] in "-+"]


def compare_runs(old: dict, new: dict) -> dict:
    """The exit status, stdout and stderr of one run on both sides; each None where the sides agree and exit 0."""
    return {
        "exit": None if old["exit"] == new["exit"] == 0 else f"{old['exit']} -> {new['exit']}",
        "stdout": _line_diff(old["stdout"], new["stdout"]),
        "stderr": _line_diff(old["stderr"], new["stderr"]),
    }


def _identical(res: dict) -> bool:
    return not (res["differ"] or res["only_rev"] or res["only_here"]) and all(
        res[what] is None for what in ("exit", "stdout", "stderr")
    )


def _table(summary: dict) -> str:
    lines = [f"{'run':<22} {'file':<34} {'column or key':<30} {'max abs':>9} {'max rel':>9}  values moved / text"]
    for run, res in summary["runs"].items():
        for side, key in (("REV", "only_rev"), ("this checkout", "only_here")):
            for name in res[key]:
                lines.append(f"{run:<22} {name:<34} only in {side}")
        if res["exit"] is not None:
            lines.append(f"{run:<22} (exit) {res['exit']}")
        for stream in ("stdout", "stderr"):
            lines.extend(f"{run:<22} ({stream}) {line}" for line in res[stream] or ())
        for name, moves in res["differ"].items():
            ranked = sorted(moves.items(), key=lambda kv: (-kv[1]["text"], -kv[1]["abs"]))
            for key, m in ranked[:4]:
                lines.append(
                    f"{run:<22} {name:<34} {key:<30} {m['abs']:>9.2e} {m['rel']:>9.2e}  {m['moved']} / {m['text']}"
                )
            if len(ranked) > 4:
                lines.append(f"{run:<22} {name:<34} (+{len(ranked) - 4} more columns or keys)")
        lines.append(
            f"{run:<22} {len(res['identical'])} identical, {len(res['differ'])} differ, "
            f"{len(res['only_rev']) + len(res['only_here'])} on one side only"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare against, e.g. HEAD^")
    args = parser.parse_args(argv)

    tmp = Path(tempfile.mkdtemp(prefix="outdiff-"))
    worktree = tmp / "rev"
    try:
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "add", "--detach", str(worktree), args.rev],
            check=True,
            capture_output=True,
            text=True,
        )
        summary = {"rev": args.rev, "runs": {}}
        for run, run_args in run_matrix().items():
            # both sides write to one path, which their stdout names, and the tree moves on
            old = run_report(worktree, run_args, tmp / "out" / run, tmp / "trees" / "rev" / run)
            new = run_report(ROOT, run_args, tmp / "out" / run, tmp / "trees" / "here" / run)
            for side, result in (("REV", old), ("this checkout", new)):
                if result["exit"]:
                    print(f"outdiff: {run}: report in {side} exits {result['exit']}: {result['stderr']}", file=sys.stderr)
            res = compare_trees(tmp / "trees" / "rev" / run, tmp / "trees" / "here" / run)
            summary["runs"][run] = {**res, **compare_runs(old, new)}
    except subprocess.CalledProcessError as exc:
        print(f"outdiff: {' '.join(exc.cmd)} failed: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(worktree)], capture_output=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)

    print(_table(summary))
    print(json.dumps(summary, sort_keys=True))
    return 0 if all(_identical(res) for res in summary["runs"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
