"""Code lines per Python module: the lines that hold code, not comments, docstrings or blanks.

    python tools/codelines.py [DIR]

DIR defaults to ``src`` of this checkout; every ``*.py`` under it is counted.
A line counts when a token other than a comment, NL/NEWLINE or INDENT/DEDENT
starts, ends or continues on it, so every line of a multi-line string that is
part of an expression counts. A statement made of string literals alone (a
docstring) counts for none of its lines.

Stdout carries one line per module (its path relative to DIR), the total, then
one line of JSON: ``{"modules": {path: lines}, "total": lines}``.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """How many lines of ``source`` hold code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            # a logical line ends: keep its lines unless it is string literals alone
            if not all(t.type == tokenize.STRING for t in statement):
                lines.update(row for t in statement for row in range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def count_tree(root: Path) -> dict[str, int]:
    """Module path relative to ``root`` -> its code lines, for every ``*.py`` under ``root``."""
    return {path.relative_to(root).as_posix(): code_lines(path.read_text()) for path in sorted(root.rglob("*.py"))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default=str(ROOT / "src"), help="the directory to count (default: src)")
    args = parser.parse_args(argv)
    root = Path(args.dir)
    if not root.is_dir():
        print(f"codelines: {root} is not a directory", file=sys.stderr)
        return 2
    modules = count_tree(root)
    total = sum(modules.values())
    width = max([len(name) for name in modules] + [5])
    for name, lines in modules.items():
        print(f"{name:<{width}} {lines:>6}")
    print(f"{'total':<{width}} {total:>6}")
    print(json.dumps({"modules": modules, "total": total}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
