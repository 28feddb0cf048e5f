"""Print a SHA-256 fingerprint of every array that a fixed list of cases
computes, one line per named array, so that ``diff`` of two trees' outputs
shows whether a change left every result bit-identical.  Usage:

    PYTHONPATH=src python3 tools/fingerprint.py [--n N ...] > prints.txt

``--n`` sets the sizes of the kernel-table cases (default 16 33; add 512
for production-size tables): Cartesian quadrants and spectra, and polar
ring and hole tables and spectra of all nine kinds at beta0 = 0.99 and 0.7.
The other cases run at N = 16 and 33: pointwise kernel evaluation,
``sample_density`` planes, every ``solve_*`` and its direct twin,
``polar_potential`` and its direct-summation oracle, the softened solve
and ``error_norms``, and the bytes that ``write_density`` and
``write_force`` put in a file for each sampled field and each solve (the
field-file contract).  A line hashes the value's type, dtype, shape and
bytes, so sign bits count; a case that raises prints its exception
instead.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

import numpy as np

from thindisk import (analysis, baselines, gridio, grids, kernels_cartesian, kernels_polar,
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


def cases(table_ns):
    """(group, generator of (name, value)) for every case, in print order."""
    for n in table_ns:
        yield f"cartesian n={n}", lambda n=n: _cartesian_tables(n)
        for beta0 in BETA0:
            yield f"polar n={n} beta0={beta0}", lambda n=n, b=beta0: _polar_tables(n, b)
    yield "pointwise", _pointwise
    for n in SOLVE_N:
        yield f"cartesian n={n}", lambda n=n: _solves(grids.build_cartesian_grid(1.0, n))
        for beta0 in BETA0:
            yield f"polar n={n} beta0={beta0}", \
                lambda n=n, b=beta0: _solves(grids.build_polar_grid(1.0, n, b))


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
