"""Seeded inputs, the correctness gate and the four benchmark workloads.

Every step's density is a mixture of 2-4 shifted ``D2Disk``s drawn from
the run's seed.  Its exact force is the superposition of the shifted
``D2Disk.force_xy``, so every solve the library returns is checked against
an analytic answer.  The library only ever receives the generated model
(as a ``CallableModel`` with analytic gradient) or a generated density file.

Workloads call the library through module attributes (``solver.solve_cartesian``,
``cli.main``...) so that the wrappers installed by ``tracing`` see them.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

from thindisk import analysis, cli, grids, models, solver
from thindisk import kernels_cartesian, kernels_polar

EXTENT = 1.0            # Cartesian half-width and polar outer radius
MARGIN = 0.95           # disks stay inside this fraction of the domain
ALPHA_RANGE = (0.12, 0.30)
SIGMA0_RANGE = (0.5, 2.0)


# ---------------------------------------------------------------------------
# seeded inputs

@dataclass(frozen=True)
class Mixture:
    """Superposition of D2 disks centred at ``centres``."""

    disks: tuple
    centres: tuple

    def _parts(self, method: str, x, y) -> list:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return [getattr(d, method)(x - cx, y - cy) for d, (cx, cy) in zip(self.disks, self.centres)]

    def density(self, x, y):
        return sum(self._parts("density", x, y))

    def gradient(self, x, y):
        parts = self._parts("density_gradient", x, y)
        return sum(p[0] for p in parts), sum(p[1] for p in parts)

    def force_xy(self, x, y):
        parts = self._parts("force_xy", x, y)
        return sum(p[0] for p in parts), sum(p[1] for p in parts)

    def model(self):
        return models.CallableModel(self.density, self.gradient)


def disk_count(step: int) -> int:
    """2, 3 or 4 disks, cycling with the step number.  Sampling cost grows
    with the count, so each pass gets the same mix of cheap and costly
    densities whatever the seed, and step times measure the library rather
    than the draw."""
    return 2 + step % 3


def make_mixture(rng: np.random.Generator, coords: str, count: int) -> Mixture:
    """``count`` disks with random centres, alpha and sigma0, all inside the domain."""
    disks, centres = [], []
    for _ in range(count):
        alpha = float(rng.uniform(*ALPHA_RANGE))
        sigma0 = float(rng.uniform(*SIGMA0_RANGE))
        reach = MARGIN * EXTENT - alpha
        if coords == "cartesian":
            cx, cy = (float(v) for v in rng.uniform(-reach, reach, size=2))
        else:
            r = reach * math.sqrt(float(rng.uniform()))
            th = float(rng.uniform(0.0, 2.0 * math.pi))
            cx, cy = r * math.cos(th), r * math.sin(th)
        disks.append(models.D2Disk(alpha=alpha, sigma0=sigma0))
        centres.append((cx, cy))
    return Mixture(tuple(disks), tuple(centres))


# ---------------------------------------------------------------------------
# correctness gate

def rel_l1(comp_u, comp_v, exact_u, exact_v, weights) -> float:
    """Area-weighted relative L1 error of a two-component force field;
    infinite when the field holds a non-finite value."""
    if not (np.all(np.isfinite(comp_u)) and np.all(np.isfinite(comp_v))):
        return math.inf
    num = np.sum(weights * (np.abs(comp_u - exact_u) + np.abs(comp_v - exact_v)))
    den = np.sum(weights * (np.abs(exact_u) + np.abs(exact_v)))
    return float(num / den)


@dataclass
class Check:
    err: float
    problem: str = ""

    @property
    def ok(self) -> bool:
        return not self.problem


def gate(err: float, tol: float) -> Check:
    if not math.isfinite(err):
        return Check(err, "non-finite force")
    if err > tol:
        return Check(err, f"err_rel_l1 {err:.3e} above tolerance {tol:.1e}")
    return Check(err)


class CartesianReference:
    """Exact Cartesian force of a mixture at a grid's cell centres."""

    def __init__(self, grid):
        self.X, self.Y = grid.center_mesh()
        self.weights = grid.cell_area

    def check(self, mix: Mixture, comp_u, comp_v, tol: float) -> Check:
        ex, ey = mix.force_xy(self.X, self.Y)
        return gate(rel_l1(comp_u, comp_v, ex, ey, self.weights), tol)


class PolarReference:
    """Exact (F_r, F_theta) of a mixture at a polar grid's cell centres."""

    def __init__(self, grid):
        R, T = grid.center_mesh()
        self.cos, self.sin = np.cos(T), np.sin(T)
        self.X, self.Y = R * self.cos, R * self.sin
        self.weights = grid.cell_areas()[:, None]

    def check(self, mix: Mixture, comp_u, comp_v, tol: float) -> Check:
        fx, fy = mix.force_xy(self.X, self.Y)
        er = fx * self.cos + fy * self.sin
        et = -fx * self.sin + fy * self.cos
        return gate(rel_l1(comp_u, comp_v, er, et, self.weights), tol)


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """A workload runs in passes: one timed ``setup``, then ``steps_per_pass``
    timed ``run_step`` calls.  ``make_input`` and ``check`` run outside the
    timers and outside the trace's root spans.  ``tol`` is the gate's
    err_rel_l1 tolerance; ``threads`` the thread count passed to the library."""

    name = ""
    threads = 1
    steps_per_pass = 1
    tol = 0.0

    def __init__(self, workdir):
        self.workdir = workdir

    def close(self):
        pass


class CartSteps(Workload):
    """Time-stepping on one fixed Cartesian grid: sample, then solve."""

    name = "cart-steps"
    n = 512
    threads = 2
    steps_per_pass = 8
    tol = 1e-3

    def __init__(self, workdir):
        super().__init__(workdir)
        self.grid = grids.build_cartesian_grid(EXTENT, self.n)
        self.reference = CartesianReference(self.grid)

    def setup(self):
        grid = grids.build_cartesian_grid(EXTENT, self.n)
        tables = kernels_cartesian.tabulate_cartesian_kernels(grid, threads=self.threads)
        for kind in kernels_cartesian.KINDS:
            tables.spectrum(kind)
        return grid, tables

    def make_input(self, state, rng, step):
        return make_mixture(rng, "cartesian", disk_count(step))

    def run_step(self, state, mix):
        grid, tables = state
        field = models.sample_density(mix.model(), grid)
        return solver.solve_cartesian(field, tables)

    def check(self, state, mix, force) -> Check:
        return self.reference.check(mix, force.comp_u, force.comp_v, self.tol)


class PolarSteps(Workload):
    """The same loop on a logarithmic polar grid."""

    name = "polar-steps"
    n = 512
    beta0 = 0.99
    threads = 2
    steps_per_pass = 10
    tol = 5e-2

    def __init__(self, workdir):
        super().__init__(workdir)
        self.grid = grids.build_polar_grid(EXTENT, self.n, self.beta0)
        self.reference = PolarReference(self.grid)

    def setup(self):
        grid = grids.build_polar_grid(EXTENT, self.n, self.beta0)
        tables = kernels_polar.tabulate_polar_kernels(grid, threads=self.threads)
        for kind in kernels_polar.KINDS:
            tables.spectrum(kind)
            tables.hole_spectrum(kind)
        return grid, tables

    def make_input(self, state, rng, step):
        return make_mixture(rng, "polar", disk_count(step))

    def run_step(self, state, mix):
        grid, tables = state
        field = models.sample_density(mix.model(), grid)
        return solver.solve_polar(field, tables)

    def check(self, state, mix, force) -> Check:
        return self.reference.check(mix, force.comp_u, force.comp_v, self.tol)


SWEEP_N = (128, 256, 512, 1024)
# the bands the acceptance tests hold pairwise L1 orders to
ORDER_BANDS = {"proposed": (1.7, 2.0), "softening": (0.9, 1.05)}


class RefineSweep(Workload):
    """The paper's convergence study, proposed method then softening, at the
    library's default threads=1."""

    name = "refine-sweep"
    tol = 2e-3
    model = models.D2Disk()

    def setup(self):
        # exact-force L1 norms per row, the denominators of err_rel_l1
        norms = {}
        for n in SWEEP_N:
            grid = grids.build_cartesian_grid(EXTENT, n)
            fx, fy = self.model.force_xy(*grid.center_mesh())
            norms[n] = float(np.sum(np.abs(fx)) + np.sum(np.abs(fy))) * grid.cell_area
        return norms

    def make_input(self, state, rng, step):
        return self.model

    def run_step(self, state, model):
        return {method: analysis.run_convergence(model, list(SWEEP_N), coords="cartesian",
                                                 method=method)
                for method in ORDER_BANDS}

    def check(self, norms, model, reports) -> Check:
        problems = []
        for method, (lo, hi) in ORDER_BANDS.items():
            rep = reports[method]
            for comp in rep.components:
                for o in rep.orders(comp)[1:]:
                    if not lo <= o <= hi:
                        problems.append(f"{method} {comp} order {o:.3f} outside [{lo}, {hi}]")
        rep = reports["proposed"]
        errs = [(rep.norms["x"][i][0] + rep.norms["y"][i][0]) / norms[n]
                for i, n in enumerate(rep.n_values)]
        check = gate(max(errs) if all(map(math.isfinite, errs)) else math.inf, self.tol)
        problems += [check.problem] if check.problem else []
        return Check(check.err, "; ".join(problems))


# The "thindisk v1" field files are written and parsed here with numpy rather
# than with thindisk.gridio, so the gate does not trust the reader it checks.
HEADER = "thindisk v1\ncart {n} {extent:.17g}\n"


def write_density_file(path, n, values, slope_x, slope_y) -> None:
    """Cartesian density file with slopes; rows iterate y, values within a row x."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(HEADER.format(n=n, extent=EXTENT))
        np.savetxt(fh, values.T, fmt="%.17g", delimiter=",")
        fh.write("slopes\n")
        np.savetxt(fh, np.vstack([slope_x.T, slope_y.T]), fmt="%.17g", delimiter=",")


def read_force_file(path, n):
    """(Fx, Fy) from a Cartesian force file; ValueError if it is malformed."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline() + fh.readline()
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header != HEADER.format(n=n, extent=EXTENT) or data.shape != (2 * n, n):
        raise ValueError(f"unexpected force file: header {header!r}, shape {data.shape}")
    return data[:n].T, data[n:].T


class FileSteps(Workload):
    """File-coupled solves through the command line with a kernel cache."""

    name = "file-steps"
    n = 256
    threads = 2
    steps_per_pass = 10
    tol = 3e-3

    def __init__(self, workdir):
        super().__init__(workdir)
        os.makedirs(workdir, exist_ok=True)
        self.cache = os.path.join(workdir, "kernels.npz")
        self.density = os.path.join(workdir, "density.txt")
        self.force = os.path.join(workdir, "force.txt")
        self.grid = grids.build_cartesian_grid(EXTENT, self.n)
        self.reference = CartesianReference(self.grid)
        self.output = ""

    def _cli(self, argv) -> int:
        """cli.main with its printed lines kept off the benchmark's stdout."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
        self.output = out.getvalue()
        return code

    def setup(self):
        code = self._cli(["kernels", "--coords", "cartesian", "--N", str(self.n),
                          "--M", repr(EXTENT), "--threads", str(self.threads),
                          "--out", self.cache])
        if code:
            raise RuntimeError(f"thindisk kernels exited {code}: {self.output[-200:]}")
        return self.cache

    def make_input(self, state, rng, step):
        mix = make_mixture(rng, "cartesian", disk_count(step))
        X, Y = self.reference.X, self.reference.Y
        write_density_file(self.density, self.n, mix.density(X, Y), *mix.gradient(X, Y))
        if os.path.exists(self.force):
            os.remove(self.force)
        return mix

    def run_step(self, state, mix):
        return self._cli(["solve", "--input", self.density, "--kernel-cache", state,
                          "--out", self.force, "--threads", str(self.threads)])

    def check(self, state, mix, code) -> Check:
        if code:
            return Check(math.inf, f"thindisk solve exited {code}: {self.output[-200:]}")
        comp_u, comp_v = read_force_file(self.force, self.n)
        return self.reference.check(mix, comp_u, comp_v, self.tol)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CartSteps, PolarSteps, RefineSweep, FileSteps)}
