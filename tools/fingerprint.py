"""Print a SHA-256 fingerprint of every array that a fixed list of cases
computes, one line per named array, so that ``diff`` of two trees' outputs
shows whether a change left every result bit-identical.  Usage:

    PYTHONPATH=src python3 tools/fingerprint.py [--n N ...] > prints.txt

``--n`` sets the sizes of the kernel-table cases (default 16 33; add 512
and 1024 for production-size tables): Cartesian quadrants and spectra, the
proposed and softened Cartesian forces of two models (at 512 and 1024 the
sweep of convolve.parity_sums runs in many column blocks), and polar ring
and hole tables and spectra of all nine kinds at beta0 = 0.99 and 0.7.
The other cases run at N = 16 and 33: pointwise kernel evaluation,
``sample_density`` planes, every ``solve_*`` and its direct twin,
``polar_potential`` and its direct-summation oracle, the softened solve
and ``error_norms``, and the bytes that ``write_density`` and
``write_force`` put in a file for each sampled field and each solve (the
field-file contract).  The ``cli`` group runs a fixed list of ``thindisk``
command lines (every command but ``bench``, whose output is timings,
failing ones included), each case in a new temporary directory: it hashes
each run's exit code, stdout and stderr with that directory's path
replaced, and then every file in the directory (a kernel cache by its
arrays, since its zip members carry a time stamp).  A line hashes the
value's type, dtype, shape and bytes, so sign bits count; a case that
raises prints its exception instead.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
import warnings

import numpy as np

from thindisk import (analysis, baselines, cli, gridio, grids, kernels_cartesian, kernels_polar,
                      models, solver)

SOLVE_N = (16, 33)
BETA0 = (0.99, 0.7)
POLAR_KINDS = kernels_polar.KINDS + kernels_polar.POTENTIAL_KINDS
MODELS = (models.D2Disk(), models.D2PairDisk(), models.LogSpiralDisk())


def digest(value) -> str:
    """SHA-256 of the value's type, dtype, shape and bytes."""
    a = np.ascontiguousarray(value)
    h = hashlib.sha256(f"{type(value).__name__} {a.dtype.str} {a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def _file_bytes(write, value) -> np.ndarray:
    """The bytes that ``write(path, value)`` puts in a file, as uint8."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.txt")
        write(path, value)
        with open(path, "rb") as fh:
            return np.frombuffer(fh.read(), np.uint8)


def _cartesian_tables(n):
    t = kernels_cartesian.tabulate_cartesian_kernels(grids.build_cartesian_grid(1.0, n))
    for kind in kernels_cartesian.X_KINDS:
        yield f"table {kind}", t.tables[kind]
    for kind in kernels_cartesian.KINDS:
        yield f"spectrum {kind}", t.spectrum(kind)


def _cartesian_forces(n):
    grid = grids.build_cartesian_grid(1.0, n)
    tables = kernels_cartesian.tabulate_cartesian_kernels(grid)
    for model in (models.D2PairDisk(), models.LogSpiralDisk()):
        field = models.sample_density(model, grid)
        for name, force in (("solve_cartesian", solver.solve_cartesian(field, tables)),
                            ("solve_softened_cartesian",
                             baselines.solve_softened_cartesian(field))):
            yield f"{model.kind} {name} comp_u", force.comp_u
            yield f"{model.kind} {name} comp_v", force.comp_v


def _polar_tables(n, beta0):
    t = kernels_polar.tabulate_polar_kernels(grids.build_polar_grid(1.0, n, beta0),
                                             kinds=POLAR_KINDS)
    for kind in POLAR_KINDS:
        yield f"table {kind}", t.table(kind)
        yield f"hole_table {kind}", t.hole_table(kind)
        yield f"spectrum {kind}", t.spectrum(kind)
        yield f"hole_spectrum {kind}", t.hole_spectrum(kind)


def _pointwise():
    polar = grids.build_polar_grid(1.0, 16, 0.99)
    cart = grids.build_cartesian_grid(1.0, 16)
    offsets = [(0, 0), (3, 2), (-5, 7), (np.arange(-3, 4)[:, None], np.arange(5)[None, :])]
    for k, (di, dj) in enumerate(offsets):
        for kind in POLAR_KINDS:
            yield f"eval_polar_kernel {kind} offsets {k}", \
                kernels_polar.eval_polar_kernel(kind, di, dj, polar)
            yield f"eval_hole_kernel {kind} offsets {k}", \
                kernels_polar.eval_hole_kernel(kind, np.abs(di) + 1, dj, polar)
        for kind in kernels_cartesian.KINDS:
            yield f"eval_cartesian_kernel {kind} offsets {k}", \
                kernels_cartesian.eval_cartesian_kernel(kind, di, dj, cart)


def _solves(grid):
    polar = grid.coords == "polar"
    tables = (kernels_polar.tabulate_polar_kernels(grid, kinds=POLAR_KINDS) if polar
              else kernels_cartesian.tabulate_cartesian_kernels(grid))
    for model in MODELS:
        exact = analysis._analytic_force(model, grid) if hasattr(model, "force_xy") else None
        for slopes in ("analytic", "central-difference"):
            field = models.sample_density(model, grid, slopes=slopes)
            case = f"{model.kind} {slopes}"
            for name, plane in field.planes().items():
                yield f"{case} sample {name}", plane
            yield f"{case} write_density", _file_bytes(gridio.write_density, field)
            if polar:
                yield f"{case} polar_potential", solver.polar_potential(field, tables)
                yield f"{case} direct potential", \
                    -solver.assemble(solver.POTENTIAL_TERMS, field, tables, "direct")[0]
                solves = (solver.solve_polar, solver.solve_polar_direct)
            else:
                solves = (solver.solve_cartesian, solver.solve_cartesian_direct)
            forces = {s.__name__: s(field, tables) for s in solves}
            if not polar:
                forces.update({f"solve_softened_cartesian {m}":
                               baselines.solve_softened_cartesian(field, method=m)
                               for m in ("fft", "direct")})
            for name, force in forces.items():
                yield f"{case} {name} comp_u", force.comp_u
                yield f"{case} {name} comp_v", force.comp_v
                yield f"{case} {name} write_force", _file_bytes(gridio.write_force, force)
                if exact is not None:
                    for comp, norms in analysis.error_norms(force, exact).items():
                        yield f"{case} {name} error_norms {comp}", np.array(norms)


# (case, argv lists run in order in one directory); "{d}" is the directory,
# which holds "density.txt", a sampled N=16 D2 field with slopes
CLI_CASES = [
    ("solve model", [["solve", "--N", "16", "--out", "{d}/f.txt"]]),
    ("solve polar model", [["solve", "--coords", "polar", "--N", "16", "--out", "{d}/f.txt"]]),
    ("solve input", [["solve", "--input", "{d}/density.txt", "--out", "{d}/f.txt"]]),
    ("solve softening", [["solve", "--N", "16", "--method", "softening", "--out", "{d}/f.txt"]]),
    ("solve repulsive", [["solve", "--N", "16", "--model", "d2_2", "--sign", "repulsive",
                          "--out", "{d}/f.txt"]]),
    *((f"solve {coords} cold and warm cache",
       [["solve", "--coords", coords, "--N", "16", "--kernel-cache", "{d}/k.npz",
         "--out", f"{{d}}/{name}.txt"] for name in ("cold", "warm")])
      for coords in ("cartesian", "polar")),
    ("converge", [["converge", "--N", "8,16", "--out", "{d}/c.csv"]]),
    ("converge reference", [["converge", "--N", "8,16", "--row-convention", "reference",
                             "--out", "{d}/c.csv"]]),
    ("converge polar", [["converge", "--coords", "polar", "--N", "16,32", "--out", "{d}/c.csv"]]),
    ("converge softening", [["converge", "--N", "8,16", "--method", "softening"]]),
    ("converge truth-N", [["converge", "--model", "log-spiral", "--N", "8,16", "--truth-N", "32",
                           "--out", "{d}/c.csv"]]),
    *((f"kernels {coords}", [["kernels", "--coords", coords, "--N", "16", "--out", "{d}/k.npz"]])
      for coords in ("cartesian", "polar")),
    ("singular-study", [["singular-study", "--k-min", "2", "--k-max", "6"]]),
    ("kalnajs", [["kalnajs", "--N", "64", "--n-alpha", "128", "--points", "8",
                  "--out", "{d}/phi.csv"]]),
    # refused inputs and numerical failures
    *((f"refused {' '.join(argv)}", [[*argv, "--out", "{d}/out.txt"]]) for argv in (
        ["solve", "--N", "16", "--M", "9e153"],
        ["solve", "--N", "16", "--M", "1e153"],
        ["converge", "--N", "16,32", "--M", "9e153"],
        ["converge", "--N", "16,32", "--M", "9e153", "--coords", "polar"],
        ["converge", "--N", "16,32", "--M", "1e153"],
        ["solve", "--N", "16", "--alpha", "1e-160"],
        ["solve", "--N", "16", "--alpha", "1e-160", "--model", "d2_2"],
        ["converge", "--N", "16,32", "--alpha", "1e-160"],
        ["solve", "--N", "16", "--alpha", "1e-200"],
        ["solve", "--N", "16", "--alpha", "1e110"],
        ["solve", "--N", "16", "--method", "softening", "--epsilon", "1e-300"],
        ["solve", "--N", "16", "--method", "softening", "--epsilon", "1e-170"],
        ["solve", "--alpha", "inf", "--N", "16"],
        ["solve", "--N", "16", "--sigma0", "1e308"],
        ["kalnajs", "--N", "64", "--n-alpha", "128", "--points", "4", "--u-min=-1e308"],
        ["kalnajs", "--N", "64", "--n-alpha", "128", "--points", "4", "--alpha-max", "1e308"],
        ["kalnajs", "--N", "64", "--n-alpha", "128", "--points", "4", "--u-min=-1e308",
         "--alpha-max", "1e-300"],
        ["kalnajs", "--N", "64", "--n-alpha", "128", "--points", "4", "--u-min=-1e-300",
         "--alpha-max", "1e308"],
        ["kernels", "--coords", "polar", "--N", "64", "--beta0", "0.001"])),
]


def _text(text: str) -> np.ndarray:
    return np.frombuffer(text.encode(), np.uint8)


def _run_cli(argv, tmp):
    """(exit, stdout, stderr) of ``cli.main(argv)``, the texts with ``tmp``
    read as ``<tmp>``; a warning is one stderr line of its class and text,
    an uncaught exception the exit "raised <class>: <text>"."""
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")
        try:
            code = str(cli.main(argv))
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    err.write("".join(f"{w.category.__name__}: {w.message}\n" for w in caught))
    return [text.replace(tmp, "<tmp>") for text in (code, out.getvalue(), err.getvalue())]


def _cli(argvs):
    with tempfile.TemporaryDirectory() as tmp:
        field = models.sample_density(models.D2Disk(), grids.build_cartesian_grid(1.0, 16))
        gridio.write_density(os.path.join(tmp, "density.txt"), field)
        for step, argv in enumerate(argvs):
            texts = _run_cli([a.format(d=tmp) for a in argv], tmp)
            for part, text in zip(("exit", "stdout", "stderr"), texts):
                yield f"run {step} {part}", _text(text)
        for fname in sorted(set(os.listdir(tmp)) - {"density.txt"}):
            path = os.path.join(tmp, fname)
            if fname.endswith(".npz"):
                with np.load(path) as data:
                    for key in sorted(data.files):
                        yield f"file {fname} {key}", data[key]
            else:
                with open(path, "rb") as fh:
                    yield f"file {fname}", np.frombuffer(fh.read(), np.uint8)


def cases(table_ns):
    """(group, generator of (name, value)) for every case, in print order."""
    for n in table_ns:
        yield f"cartesian n={n}", lambda n=n: _cartesian_tables(n)
        yield f"cartesian forces n={n}", lambda n=n: _cartesian_forces(n)
        for beta0 in BETA0:
            yield f"polar n={n} beta0={beta0}", lambda n=n, b=beta0: _polar_tables(n, b)
    yield "pointwise", _pointwise
    for n in SOLVE_N:
        yield f"cartesian n={n}", lambda n=n: _solves(grids.build_cartesian_grid(1.0, n))
        for beta0 in BETA0:
            yield f"polar n={n} beta0={beta0}", \
                lambda n=n, b=beta0: _solves(grids.build_polar_grid(1.0, n, b))
    for name, argvs in CLI_CASES:
        yield f"cli {name}", lambda argvs=argvs: _cli(argvs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, nargs="+", default=[16, 33],
                        help="kernel-table sizes (default: 16 33)")
    args = parser.parse_args(argv)
    for group, items in cases(args.n):
        try:
            for name, value in items():
                print(f"{digest(value)}  {group} {name}")
        except Exception as exc:    # a refused case is part of the fingerprint
            print(f"{type(exc).__name__}: {exc}  {group}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
