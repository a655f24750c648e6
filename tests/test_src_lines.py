"""tools/src_lines.py: both line counts of a small tree, and the totals line."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)


def test_counts_physical_and_unparsed_lines(tmp_path, capsys):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    # 6 physical lines; unparsed, the comment, the blank line and the
    # split call are gone, leaving "import os" and "x = max(1, 2)"
    (pkg / "a.py").write_text("import os\n\n# a comment\nx = max(\n    1, 2\n)\n")
    (pkg / "b.txt").write_text("not python\n")
    assert src_lines.count(pkg / "a.py") == (6, 2)
    assert src_lines.main([str(pkg)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].split() == ["6", "2", "a.py"]
    assert out[-1].split() == ["6", "2", "total"]


def test_an_empty_tree_is_an_error(tmp_path, capsys):
    assert src_lines.main([str(tmp_path)]) == 2
    assert "no .py files" in capsys.readouterr().err
