"""List the source statements that a command never executes.

Runs a command (by default the tier-1 test suite) with a line tracer in
every Python process it starts: a ``sitecustomize`` module placed first on
``PYTHONPATH`` installs ``sys.settrace`` and ``threading.settrace`` before
the process imports anything else, so subprocesses are traced too. Each
process writes the lines it ran under the traced tree when it exits.
Then every statement of the tree that no process reached is printed as
``path:line: source``, docstrings left out, followed by a count:

    python3 tools/linecov.py                                # tier-1
    python3 tools/linecov.py -- python3 -m relgen.cli gen dg15 --out /tmp/d

``src`` is put on ``PYTHONPATH`` behind the tracer, so the command
imports the traced ``src/relgen``. A process that leaves through
``os._exit`` writes nothing, and the tracer replaces any other
``sitecustomize`` on the path. Traced, tier-1 took 34 s against 20 s
untraced on a 2-vCPU host. Exits with the command's exit code, or with 2
when no traced process ran a line of ``src/relgen`` (the command never
imports relgen, or sets ``PYTHONPATH`` itself and so drops the tracer),
since every statement would then read as never executed. Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "relgen"
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
# written as the traced processes' sitecustomize.py; it loads this file and calls install()
SITECUSTOMIZE = """\
import importlib.util
_spec = importlib.util.spec_from_file_location("_linecov", {tool!r})
_linecov = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_linecov)
_linecov.install()
"""


def install() -> None:
    """Trace this process's lines under $LINECOV_SRC; write them to $LINECOV_OUT at exit."""
    prefix = os.environ["LINECOV_SRC"] + os.sep
    hits: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        seen = hits.setdefault(path, set())

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line

        return line

    def dump() -> None:
        sys.settrace(None)
        fd, _ = tempfile.mkstemp(suffix=".json", dir=os.environ["LINECOV_OUT"])
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump({path: sorted(lines) for path, lines in hits.items()}, fh)

    atexit.register(dump)
    threading.settrace(trace)
    sys.settrace(trace)


def statements(path: pathlib.Path) -> dict[int, range]:
    """Each statement's first line, mapped to the lines that run it.

    Those are the statement's own lines, with a decorated definition's
    decorators and without the bodies of a compound statement, whose
    statements are listed themselves. Docstrings are left out, and so are
    global and nonlocal, which compile to no code.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.add(first)
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in docstrings \
                or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        inner = [child.lineno for field in ("body", "orelse", "finalbody", "handlers")
                 for child in getattr(node, field, [])]
        out[start] = range(start, min(inner) if inner else node.end_lineno + 1)
    return out


def missed(src: pathlib.Path, hits: dict[str, set[int]]) -> list[tuple[pathlib.Path, int]]:
    """(file, first line) of every statement under src that no hit reaches, in file order."""
    out = []
    for path in sorted(src.rglob("*.py")):
        lines = hits.get(str(path), set())
        out += [(path, start) for start, own in sorted(statements(path).items())
                if lines.isdisjoint(own)]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", nargs="*", help="command to run after -- (default: tier-1)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        site, out = pathlib.Path(tmp, "site"), pathlib.Path(tmp, "out")
        site.mkdir()
        out.mkdir()
        tool = str(pathlib.Path(__file__).resolve())
        (site / "sitecustomize.py").write_text(SITECUSTOMIZE.format(tool=tool), encoding="utf-8")
        env = dict(os.environ, LINECOV_SRC=str(SRC), LINECOV_OUT=str(out))
        env["PYTHONPATH"] = os.pathsep.join(
            [str(site), str(SRC.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        code = subprocess.run(args.command or TIER1, env=env, cwd=ROOT).returncode
        hits: dict[str, set[int]] = {}
        for part in out.glob("*.json"):
            for path, lines in json.loads(part.read_text(encoding="utf-8")).items():
                hits.setdefault(path, set()).update(lines)
    if not any(hits.values()):
        print(f"linecov: no traced process ran a line of {os.path.relpath(SRC)}; does the "
              "command import relgen, and leave PYTHONPATH as it finds it?", file=sys.stderr)
        return 2
    never = missed(SRC, hits)
    for path, line in never:
        text = path.read_text(encoding="utf-8").splitlines()[line - 1].strip()
        print(f"{os.path.relpath(path)}:{line}: {text}")
    total = sum(len(statements(p)) for p in SRC.rglob("*.py"))
    print(f"{len(never)} of {total} statements never executed")
    return code


if __name__ == "__main__":
    sys.exit(main())
