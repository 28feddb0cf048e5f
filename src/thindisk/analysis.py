"""Error norms, convergence studies, and the singular-quadrature probe.

Norms are discrete p-norms with true cell-area weights.  The convergence
driver also offers a "reference" row convention that reproduces the
tabulation of the reference results frozen into the acceptance tests: those
tables weight cells by (2*dx)^2 rather than dx^2, and their Cartesian rows
correspond to solves at twice the labeled resolution (the polar rows are at
the labeled resolution).  Orders of accuracy are unaffected by the weight
factor; the Cartesian relabeling shifts which solve pair a row's order
compares.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .baselines import SofteningConfig, solve_softened_cartesian
from .grids import CartesianGrid, PolarGrid, build_cartesian_grid, build_polar_grid
from .kernels_cartesian import tabulate_cartesian_kernels
from .kernels_polar import tabulate_polar_kernels
from .models import DensityField, sample_density
from .solver import ForceField, solve_cartesian, solve_polar


def array_norms(diff: np.ndarray, grid: CartesianGrid | PolarGrid):
    """(L1, L2, Linf) of a cell-centered difference field with area weights."""
    diff = np.abs(np.asarray(diff, dtype=float))
    if diff.shape != (grid.n, grid.n):
        raise ValueError(f"difference field shape {diff.shape} does not match grid n={grid.n}")
    if grid.coords == "cartesian":
        w = grid.cell_area
        e1 = float(np.sum(diff) * w)
        e2 = float(np.sqrt(np.sum(diff**2) * w))
    else:
        w = grid.cell_areas()[:, None]
        e1 = float(np.sum(diff * w))
        e2 = float(np.sqrt(np.sum(diff**2 * w)))
    return e1, e2, float(diff.max())


def error_norms(numeric: ForceField, exact: ForceField, grid=None):
    """Per-component (L1, L2, Linf) between two force fields.

    Returns {"x": ..., "y": ..., "R": ...} on Cartesian grids and
    {"r": ..., "theta": ...} on polar grids.
    """
    if grid is None:
        grid = numeric.grid
    if numeric.grid != grid or exact.grid != grid:
        raise ValueError("force fields live on different grids")
    if numeric.sign_convention != exact.sign_convention:
        raise ValueError("sign conventions differ between the two fields")
    if grid.coords == "cartesian":
        return {
            "x": array_norms(numeric.comp_u - exact.comp_u, grid),
            "y": array_norms(numeric.comp_v - exact.comp_v, grid),
            "R": array_norms(numeric.radial() - exact.radial(), grid),
        }
    return {
        "r": array_norms(numeric.comp_u - exact.comp_u, grid),
        "theta": array_norms(numeric.comp_v - exact.comp_v, grid),
    }


def order_of_accuracy(e_coarse: float, e_fine: float) -> float:
    """log2 of the error ratio under one grid doubling."""
    if not (e_coarse > 0 and e_fine > 0):
        raise ValueError("orders need strictly positive errors")
    return float(np.log2(e_coarse / e_fine))


def restrict_fine_to_coarse(fine: ForceField) -> ForceField:
    """Average the four children of each coarse cell of a 2n Cartesian field."""
    return restrict_closest4(fine, fine.grid.n // 2)


def _restriction_factor(n_fine: int, n_target: int) -> int:
    """n_fine / n_target, which must be a power of two of at least 2."""
    ratio, rem = divmod(n_fine, n_target)
    if rem or ratio & (ratio - 1) or ratio < 2:
        raise ValueError(f"{n_fine} is not a power-of-two multiple of {n_target}")
    return ratio


def restrict_closest4(fine: ForceField, n_target: int) -> ForceField:
    """Average, per coarse cell, the four fine values nearest its center.

    Every coarse center lands on a fine-grid corner, so the four nearest
    fine centers surround it symmetrically; at refinement factor 2 this is
    exactly the four-children mean of restrict_fine_to_coarse.
    """
    grid = fine.grid
    if grid.coords != "cartesian":
        raise ValueError("restriction is defined for Cartesian fields")
    ratio = _restriction_factor(grid.n, n_target)
    lo = np.arange(n_target) * ratio + ratio // 2 - 1
    hi = lo + 1

    def down(a):
        return 0.25 * (a[lo][:, lo] + a[hi][:, lo] + a[lo][:, hi] + a[hi][:, hi])

    coarse = build_cartesian_grid(grid.half_width, n_target)
    return ForceField(coarse, down(fine.comp_u), down(fine.comp_v),
                      sign_convention=fine.sign_convention,
                      slope_source=fine.slope_source)


@dataclass
class ConvergenceReport:
    """Per-resolution error norms and pairwise orders for one study."""

    method: str
    model: str
    coords: str
    components: list
    n_values: list
    # norms[comp] is a list of (E1, E2, Einf) tuples aligned with n_values
    norms: dict
    metadata: dict = field(default_factory=dict)

    def orders(self, component: str, p: int = 1):
        """Pairwise orders for consecutive doubled resolutions; index p in
        {1, 2, 3} picks the norm (3 = max norm).  Entries are None on the
        first row and wherever the resolution step is not a doubling."""
        col = [row[p - 1] for row in self.norms[component]]
        out = [None]
        for i, (a, b) in enumerate(zip(col[:-1], col[1:])):
            if self.n_values[i + 1] == 2 * self.n_values[i]:
                out.append(order_of_accuracy(a, b))
            else:
                out.append(None)
        return out

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# method = {self.method}\n")
        buf.write(f"# model = {self.model}\n")
        buf.write(f"# coords = {self.coords}\n")
        for k in sorted(self.metadata):
            buf.write(f"# {k} = {self.metadata[k]}\n")
        cols = ["N"]
        for c in self.components:
            cols += [f"{c}_E1", f"{c}_E2", f"{c}_Einf", f"{c}_O1", f"{c}_O2", f"{c}_Oinf"]
        buf.write(",".join(cols) + "\n")
        ords = {c: [self.orders(c, p) for p in (1, 2, 3)] for c in self.components}
        for i, n in enumerate(self.n_values):
            row = [str(n)]
            for c in self.components:
                e1, e2, ei = self.norms[c][i]
                row += [f"{e1:.17g}", f"{e2:.17g}", f"{ei:.17g}"]
                for p in range(3):
                    o = ords[c][p][i]
                    row.append("" if o is None else f"{o:.17g}")
            buf.write(",".join(row) + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ConvergenceReport":
        meta = {}
        lines = [ln for ln in text.splitlines() if ln.strip()]
        body = []
        for ln in lines:
            if ln.startswith("#"):
                k, _, v = ln[1:].partition("=")
                meta[k.strip()] = v.strip()
            else:
                body.append(ln)
        header = body[0].split(",")
        comps = []
        for name in header[1:]:
            c = name.rsplit("_", 1)[0]
            if c not in comps:
                comps.append(c)
        n_values = []
        norms = {c: [] for c in comps}
        for ln in body[1:]:
            parts = ln.split(",")
            n_values.append(int(parts[0]))
            for ci, c in enumerate(comps):
                base = 1 + 6 * ci
                norms[c].append(tuple(float(parts[base + k]) for k in range(3)))
        method = meta.pop("method", "")
        model = meta.pop("model", "")
        coords = meta.pop("coords", "")
        return cls(method=method, model=model, coords=coords, components=comps,
                   n_values=n_values, norms=norms, metadata=meta)


def _proposed_cartesian(model, n, half_width, slope_mode):
    grid = build_cartesian_grid(half_width, n)
    fld = sample_density(model, grid, slopes=slope_mode)
    tables = tabulate_cartesian_kernels(grid)
    return grid, solve_cartesian(fld, tables)


def _analytic_force(model, grid) -> ForceField:
    """The model's analytic force at the cell centers: (Fx, Fy) on Cartesian
    grids, projected to (Fr, Ftheta) on polar grids."""
    if grid.coords == "cartesian":
        X, Y = grid.center_mesh()
        fx, fy = model.force_xy(X, Y)
        return ForceField(grid, np.asarray(fx, float), np.asarray(fy, float))
    Rg, Tg = grid.center_mesh()
    fx, fy = model.force_xy(Rg * np.cos(Tg), Rg * np.sin(Tg))
    return ForceField(grid, fx * np.cos(Tg) + fy * np.sin(Tg),
                      -fx * np.sin(Tg) + fy * np.cos(Tg))


def run_convergence(model, n_values, coords="cartesian", method="proposed",
                    half_width=1.0, beta0=0.99, slope_mode="auto",
                    row_convention="plain") -> ConvergenceReport:
    """Sweep resolutions against the model's analytic force.

    row_convention "reference" reproduces the frozen reference tables: cell
    weights doubled in linear size (scales L1 by 4 and L2 by 2) and, in
    Cartesian coordinates, each labeled row solved at twice its label.
    """
    if row_convention not in ("plain", "reference"):
        raise ValueError(f"unknown row convention {row_convention!r}")
    scale = (4.0, 2.0, 1.0) if row_convention == "reference" else (1.0, 1.0, 1.0)

    if coords == "cartesian":
        components = ["x", "y", "R"]
    elif coords == "polar":
        components = ["r", "theta"]
    else:
        raise ValueError(f"unknown coordinate system {coords!r}")

    norms = {c: [] for c in components}
    for n in n_values:
        if coords == "cartesian":
            n_solve = 2 * n if row_convention == "reference" else n
            if method == "proposed":
                grid, num = _proposed_cartesian(model, n_solve, half_width, slope_mode)
            elif method == "softening":
                grid = build_cartesian_grid(half_width, n_solve)
                fld = sample_density(model, grid, slopes=slope_mode)
                num = solve_softened_cartesian(fld, SofteningConfig(grid.dx))
            else:
                raise ValueError(f"unknown method {method!r}")
        else:
            if method != "proposed":
                raise ValueError("polar sweeps support the proposed method only")
            grid = build_polar_grid(half_width, n, beta0)
            fld = sample_density(model, grid, slopes=slope_mode)
            num = solve_polar(fld, tabulate_polar_kernels(grid))
        res = error_norms(num, _analytic_force(model, grid), grid)
        for c in components:
            e1, e2, ei = res[c]
            norms[c].append((e1 * scale[0], e2 * scale[1], ei * scale[2]))

    return ConvergenceReport(
        method=method, model=getattr(model, "kind", type(model).__name__),
        coords=coords, components=components, n_values=list(n_values), norms=norms,
        metadata={"half_width": half_width, "beta0": beta0 if coords == "polar" else "",
                  "slope_mode": slope_mode, "row_convention": row_convention,
                  "sign_convention": "attractive"})


def run_self_convergence(model, n_values, truth_n, half_width=1.0,
                         slope_mode="auto") -> ConvergenceReport:
    """Cartesian sweep measured against a fine-grid solve restricted down.

    The fine reference is brought to each coarse grid by the closest-four
    average, so coarse rows compare against local fine values rather than a
    fully homogenized block mean.
    """
    for n in n_values:
        _restriction_factor(truth_n, n)
    _, truth = _proposed_cartesian(model, truth_n, half_width, slope_mode)
    components = ["x", "y", "R"]
    norms = {c: [] for c in components}
    for n in n_values:
        grid, num = _proposed_cartesian(model, n, half_width, slope_mode)
        ref = restrict_closest4(truth, n)
        res = error_norms(num, ref, grid)
        for c in components:
            norms[c].append(res[c])
    return ConvergenceReport(
        method="proposed-self", model=getattr(model, "kind", type(model).__name__),
        coords="cartesian", components=components, n_values=list(n_values), norms=norms,
        metadata={"half_width": half_width, "truth_n": truth_n,
                  "slope_mode": slope_mode, "sign_convention": "attractive"})


def _exact_log_integral(a: float) -> float:
    """Integral of log(1 - cos(t)) over [-a, a], singular part split out.

    Over [0, a] the integrand equals log(2) + 2*log(sin(t/2)); the log(sin)
    piece integrates to x*(log x - 1) plus a smooth remainder handled by
    adaptive quadrature.
    """
    x = 0.5 * a
    smooth, _ = quad(lambda t: np.log(np.sinc(t / np.pi)) if t else 0.0, 0.0, x, limit=200)
    log_sin = x * (np.log(x) - 1.0) + smooth
    return 2.0 * (a * np.log(2.0) + 4.0 * log_sin)


def singular_trapezoid_study(k_values) -> list:
    """Two-node trapezoid error for the log-singular integrand.

    For each k, integrates log(1 - cos(theta)) exactly over
    [-2**-k, 2**-k] and subtracts the single-interval trapezoid value;
    returns rows (k, E_k, order), order None on the first row.
    """
    k_values = list(k_values)
    if any(k < 2 for k in k_values):
        raise ValueError("k must be at least 2")
    rows = []
    prev = None
    for k in k_values:
        a = 2.0 ** (-k)
        exact = _exact_log_integral(a)
        trap = 2.0 * a * np.log(1.0 - np.cos(a))
        err = abs(exact - trap)
        order = None if prev is None else order_of_accuracy(prev, err)
        rows.append((k, err, order))
        prev = err
    return rows
