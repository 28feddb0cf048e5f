import importlib.util
from pathlib import Path

import numpy as np

from thindisk import kernels_polar

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _codelines():
    return _tool("codelines")


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


def _fingerprint_lines(capsys, argv):
    assert _tool("fingerprint").main(argv) == 0
    return capsys.readouterr().out.splitlines()


def test_fingerprint_is_reproducible(capsys):
    first = _fingerprint_lines(capsys, ["--n", "8"])
    assert first == _fingerprint_lines(capsys, ["--n", "8"])
    names = [line.split("  ", 1)[1] for line in first]
    assert len(set(names)) == len(names)
    for name in ("polar n=8 beta0=0.7 hole_spectrum pt", "cartesian n=8 spectrum yy",
                 "pointwise eval_hole_kernel tt offsets 3",
                 "polar n=33 beta0=0.99 d2_2 analytic solve_polar_direct error_norms theta",
                 "cartesian n=16 log_spiral central-difference solve_softened_cartesian direct comp_v",
                 "polar n=16 beta0=0.7 d2 analytic polar_potential",
                 "polar n=33 beta0=0.99 log_spiral central-difference direct potential",
                 "cartesian n=33 d2 analytic write_density",
                 "polar n=16 beta0=0.7 d2_2 central-difference solve_polar write_force",
                 "cli solve polar cold and warm cache run 1 stdout",
                 "cli solve polar cold and warm cache file k.npz hole_tt",
                 "cli converge truth-N file c.csv", "cli kernels cartesian file k.npz table_xy",
                 "cli refused converge --N 16,32 --M 9e153 run 0 exit"):
        assert name in names
    assert all(len(line.split("  ", 1)[0]) == 64 for line in first)


def test_fingerprint_cli_hashes_exit_and_streams(capsys):
    # a refused run: exit 3, no stdout, one stderr line and no file written
    fingerprint = _tool("fingerprint")
    lines = set(_fingerprint_lines(capsys, ["--n", "8"]))
    case = "cli refused converge --N 16,32 --M 9e153"
    err = "numerical failure: the error norms are not finite (F_x: L1=nan  L2=nan  Linf=nan)\n"
    for part, text in (("exit", "3"), ("stdout", ""), ("stderr", err)):
        assert f"{fingerprint.digest(fingerprint._text(text))}  {case} run 0 {part}" in lines
    assert not any(line.split("  ", 1)[1].startswith(f"{case} file") for line in lines)
    # the temporary directory reads as <tmp> in what a run prints
    out = "wrote <tmp>/c.csv\n"
    assert f"{fingerprint.digest(fingerprint._text(out))}  cli converge run 0 stdout" in lines


def test_fingerprint_sees_one_ulp(capsys, monkeypatch):
    # one hole-table entry one ulp up changes that array's line and no other:
    # the tool reads tables through PolarKernelTables.hole_table, which no
    # spectrum reads, and no solve runs at the table size N=8
    before = _fingerprint_lines(capsys, ["--n", "8"])
    read = kernels_polar.PolarKernelTables.hole_table

    def bumped(self, kind):
        table = read(self, kind)
        if (self.grid.n, self.grid.beta0, kind) != (8, 0.99, "rt"):
            return table
        table = table.copy()
        table[2, 3] = np.nextafter(table[2, 3], np.inf)
        return table

    monkeypatch.setattr(kernels_polar.PolarKernelTables, "hole_table", bumped)
    after = _fingerprint_lines(capsys, ["--n", "8"])
    changed = [b.split("  ", 1)[1] for a, b in zip(before, after) if a != b]
    assert len(after) == len(before)
    assert changed == ["polar n=8 beta0=0.99 hole_table rt"]
