"""Print the line count of a source tree, two ways.

``wc -l`` counts every physical line of every ``.py`` file; ``ast.unparse``
counts the lines of each file's syntax tree printed back, so it ignores
comments, blank lines and formatting, though it still counts docstrings.
One line per file, then the totals:

    python3 tools/src_lines.py [ROOT]    # ROOT defaults to src

Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import sys


def count(path: pathlib.Path) -> tuple[int, int]:
    """(wc -l lines, ast.unparse lines) of one Python file."""
    text = path.read_text(encoding="utf-8")
    unparsed = ast.unparse(ast.parse(text, filename=str(path)))
    return text.count("\n"), len(unparsed.splitlines())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default="src", help="directory to count (default: src)")
    root = pathlib.Path(parser.parse_args(argv).root)
    files = sorted(root.rglob("*.py"))
    if not files:
        print(f"no .py files under {root}", file=sys.stderr)
        return 2
    totals = [0, 0]
    print(f"{'wc -l':>7} {'unparse':>7}  file")
    for path in files:
        lines = count(path)
        totals = [t + n for t, n in zip(totals, lines)]
        print(f"{lines[0]:>7} {lines[1]:>7}  {path.relative_to(root)}")
    print(f"{totals[0]:>7} {totals[1]:>7}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
