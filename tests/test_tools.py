import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "codelines.py"


def _codelines():
    spec = importlib.util.spec_from_file_location("codelines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = '''"""Module
docstring."""
# a comment

import os  # a trailing comment leaves the line code


def f(x):
    """One-line docstring."""
    s = """an assigned string
    is code on every line"""
    return x


class C:
    """Class
    docstring."""

    y = (1,
         2)
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # import, def, s (2 lines), return, class, y (2 lines)
    assert _codelines().code_lines(SAMPLE) == 8


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert _codelines().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[0] for ln in lines] == ["8", "1", "9"]
    assert lines[-1].split()[1] == "total"
