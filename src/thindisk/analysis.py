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

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .baselines import SofteningConfig, solve_softened_cartesian
from .grids import CartesianGrid, PolarGrid, build_cartesian_grid, build_grid, grid_type
from .kernels_cartesian import KINDS as CARTESIAN_KINDS, tabulate_cartesian_kernels
from .kernels_polar import KINDS as POLAR_KINDS, tabulate_polar_kernels
from .models import DensityField, polar_points, sample_density, to_polar
from .solver import ForceField, solve_cartesian, solve_polar


def csv_text(header, rows) -> str:
    """CSV lines: floats as %.17g (a bit-exact round trip), None as an empty field."""
    def cell(v):
        if v is None:
            return ""
        return f"{v:.17g}" if isinstance(v, (float, np.floating)) else str(v)
    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])


def _require_rows(values, what: str) -> None:
    """ValueError unless a sweep has at least one row: an empty one would
    write a header-only report."""
    if len(values) == 0:
        raise ValueError(f"need at least one {what}")


def kernel_family(grid) -> tuple:
    """The force kernels of the grid's geometry: (tabulator, FFT solver,
    kernel kinds).  The functions are read from this module's globals at
    each call, so a wrapper set on them here sees every use."""
    if grid.coords == "cartesian":
        return tabulate_cartesian_kernels, solve_cartesian, CARTESIAN_KINDS
    return tabulate_polar_kernels, solve_polar, POLAR_KINDS


def tabulate_kernels(grid):
    """The force kernel tables for the grid's geometry."""
    return kernel_family(grid)[0](grid)


def solve_field(field: DensityField, method: str = "proposed", tables=None,
                epsilon: float | None = None) -> ForceField:
    """The attractive force of ``field`` by "proposed" (tabulating kernels
    only when ``tables`` is None; ``epsilon`` raises ValueError) or
    "softening" (``epsilon`` defaults to one cell; baselines rejects polar
    grids)."""
    if method == "softening":
        return solve_softened_cartesian(
            field, None if epsilon is None else SofteningConfig(epsilon))
    if method != "proposed":
        raise ValueError(f"unknown method {method!r}")
    if epsilon is not None:
        raise ValueError("epsilon is the softening length; the proposed method takes none")
    solve = kernel_family(field.grid)[1]
    return solve(field, tabulate_kernels(field.grid) if tables is None else tables)


def array_norms(diff: np.ndarray, grid: CartesianGrid | PolarGrid):
    """(L1, L2, Linf) of a cell-centered difference field with area weights.

    L2 squares the field scaled by its maximum, so it overflows only where
    the norm itself does."""
    diff = np.abs(np.asarray(diff, dtype=float))
    if diff.shape != (grid.n, grid.n):
        raise ValueError(f"difference field shape {diff.shape} does not match grid n={grid.n}")
    if grid.coords == "cartesian":
        w = grid.cell_area
        e1 = float(np.sum(diff) * w)
    else:
        w = grid.cell_areas()[:, None]
        e1 = float(np.sum(diff * w))
    peak = float(diff.max())
    unit = peak if 0.0 < peak < np.inf else 1.0
    diff /= unit
    np.square(diff, out=diff)
    diff *= w
    return e1, unit * float(np.sqrt(np.sum(diff))), peak


def error_norms(numeric: ForceField, exact: ForceField, grid=None):
    """Per-component (L1, L2, Linf) between two force fields.

    Keyed by ``grid.components``: {"x": ..., "y": ..., "R": ...} on
    Cartesian grids and {"r": ..., "theta": ...} on polar grids.
    """
    grid = numeric.grid if grid is None else grid
    if numeric.grid != grid or exact.grid != grid:
        raise ValueError("force fields live on different grids")
    # a polar grid names two components, so it never forms the projection;
    # a Cartesian one forms its center radii once for both fields
    R = grid.center_radii() if grid.coords == "cartesian" else None
    parts = (attrgetter("comp_u"), attrgetter("comp_v"), lambda f: f.radial(R))
    return {c: array_norms(p(numeric) - p(exact), grid) for c, p in zip(grid.components, parts)}


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
    return ForceField(coarse, down(fine.comp_u), down(fine.comp_v))


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
        col, ns = [row[p - 1] for row in self.norms[component]], self.n_values
        return [None] + [order_of_accuracy(a, b) if n_b == 2 * n_a else None
                         for a, b, n_a, n_b in zip(col, col[1:], ns, ns[1:])]

    def to_csv(self) -> str:
        meta = [("method", self.method), ("model", self.model), ("coords", self.coords),
                *sorted(self.metadata.items())]
        cols = ["N"]
        for c in self.components:
            cols += [f"{c}_E1", f"{c}_E2", f"{c}_Einf", f"{c}_O1", f"{c}_O2", f"{c}_Oinf"]
        ords = {c: [self.orders(c, p) for p in (1, 2, 3)] for c in self.components}
        rows = [[n] + [v for c in self.components
                       for v in (*self.norms[c][i], *(o[i] for o in ords[c]))]
                for i, n in enumerate(self.n_values)]
        return "".join(f"# {k} = {v}\n" for k, v in meta) + csv_text(cols, rows)

    @classmethod
    def from_csv(cls, text: str) -> "ConvergenceReport":
        meta, body = {}, []
        for ln in text.splitlines():
            if ln.startswith("#"):
                k, _, v = ln[1:].partition("=")
                meta[k.strip()] = v.strip()
            elif ln.strip():
                body.append(ln.split(","))
        header, *rows = body
        comps = list(dict.fromkeys(name.rsplit("_", 1)[0] for name in header[1:]))
        norms = {c: [tuple(float(v) for v in row[1 + 6 * ci:4 + 6 * ci]) for row in rows]
                 for ci, c in enumerate(comps)}
        return cls(method=meta.pop("method", ""), model=meta.pop("model", ""),
                   coords=meta.pop("coords", ""), components=comps,
                   n_values=[int(row[0]) for row in rows], norms=norms, metadata=meta)


def _analytic_force(model, grid) -> ForceField:
    """The model's analytic force at the cell centers: (Fx, Fy) on Cartesian
    grids, projected to (Fr, Ftheta) on polar grids."""
    if grid.coords == "cartesian":
        fx, fy = model.force_xy(*grid.center_mesh())
        return ForceField(grid, np.asarray(fx, float), np.asarray(fy, float))
    _, X, Y, cos, sin = polar_points(grid)
    return ForceField(grid, *to_polar(*model.force_xy(X[1:], Y[1:]), cos, sin))


def norm_line(component: str, norms) -> str:
    """One component's (L1, L2, Linf) as ``thindisk solve`` prints it."""
    e1, e2, ei = norms
    return f"F_{component}: L1={e1:.4e}  L2={e2:.4e}  Linf={ei:.4e}"


def analytic_error_norms(numeric: ForceField, model) -> dict:
    """``error_norms`` of ``numeric`` against the model's analytic force on
    its grid.  A force past the double range shows only in the norms, so
    the overflow warnings are silenced and FloatingPointError names the
    first component whose norms are not finite."""
    with np.errstate(all="ignore"):
        norms = error_norms(numeric, _analytic_force(model, numeric.grid))
    for comp, values in norms.items():
        if not np.isfinite(values).all():
            raise FloatingPointError(f"the error norms are not finite ({norm_line(comp, values)})")
    return norms


def _report(method, model, grid_cls, n_values, rows, metadata, scale=(1.0, 1.0, 1.0)):
    """A ConvergenceReport of one ``error_norms`` result per row on grids of
    class ``grid_cls``, each norm times its ``scale`` entry."""
    components = list(grid_cls.components)
    norms = {c: [tuple(e * f for e, f in zip(row[c], scale)) for row in rows] for c in components}
    return ConvergenceReport(
        method=method, model=getattr(model, "kind", type(model).__name__), coords=grid_cls.coords,
        components=components, n_values=list(n_values), norms=norms,
        metadata={**metadata, "sign_convention": "attractive"})


def run_convergence(model, n_values, coords="cartesian", method="proposed",
                    half_width=1.0, beta0=0.99, slope_mode="auto",
                    row_convention="plain") -> ConvergenceReport:
    """Sweep resolutions against the model's analytic force.

    row_convention "reference" reproduces the frozen reference tables: cell
    weights doubled in linear size (scales L1 by 4 and L2 by 2) and, in
    Cartesian coordinates, each labeled row solved at twice its label.  A
    model without ``force_xy`` or an empty ``n_values`` raises ValueError
    before any solve; a row whose norms are not finite raises
    FloatingPointError (see ``analytic_error_norms``).
    """
    _require_rows(n_values, "resolution N")
    if row_convention not in ("plain", "reference"):
        raise ValueError(f"unknown row convention {row_convention!r}")
    grid_cls = grid_type(coords)
    if not hasattr(model, "force_xy"):
        raise ValueError(f"model {getattr(model, 'kind', type(model).__name__)!r} has no "
                         "analytic force; measure it against a fine-grid solve with "
                         "run_self_convergence (thindisk converge --truth-N)")
    reference = row_convention == "reference"
    # the reference tables solve each Cartesian row at twice its labeled N
    factor = 2 if reference and coords == "cartesian" else 1
    rows = []
    for n in n_values:
        grid = build_grid(coords, half_width, factor * n, beta0)
        num = solve_field(sample_density(model, grid, slopes=slope_mode), method)
        rows.append(analytic_error_norms(num, model))
    return _report(method, model, grid_cls, n_values, rows,
                   {"half_width": half_width, "beta0": beta0 if coords == "polar" else "",
                    "slope_mode": slope_mode, "row_convention": row_convention},
                   scale=(4.0, 2.0, 1.0) if reference else (1.0, 1.0, 1.0))


def run_self_convergence(model, n_values, truth_n, half_width=1.0,
                         slope_mode="auto") -> ConvergenceReport:
    """Cartesian sweep measured against a fine-grid solve restricted down.

    The fine reference is brought to each coarse grid by the closest-four
    average, so coarse rows compare against local fine values rather than a
    fully homogenized block mean.  An empty ``n_values`` raises ValueError
    before the fine solve.
    """
    _require_rows(n_values, "resolution N")
    for n in n_values:
        _restriction_factor(truth_n, n)

    def solve(n):
        return solve_field(sample_density(model, build_cartesian_grid(half_width, n),
                                          slopes=slope_mode))

    truth = solve(truth_n)
    rows = [error_norms(solve(n), restrict_closest4(truth, n)) for n in n_values]
    return _report("proposed-self", model, CartesianGrid, n_values, rows,
                   {"half_width": half_width, "truth_n": truth_n, "slope_mode": slope_mode})


def _exact_log_integral(a: float) -> float:
    """Integral of log(1 - cos(t)) over [-a, a], singular part split out.

    Over [0, a] the integrand equals log(2) + 2*log(sin(t/2)); the log(sin)
    piece integrates to x*(log x - 1) plus a smooth remainder handled by
    adaptive quadrature.
    """
    from scipy.integrate import quad
    x = 0.5 * a
    smooth, _ = quad(lambda t: np.log(np.sinc(t / np.pi)) if t else 0.0, 0.0, x, limit=200)
    log_sin = x * (np.log(x) - 1.0) + smooth
    return 2.0 * (a * np.log(2.0) + 4.0 * log_sin)


def singular_trapezoid_study(k_values) -> list:
    """Two-node trapezoid error for the log-singular integrand.

    For each k, integrates log(1 - cos(theta)) exactly over
    [-2**-k, 2**-k] and subtracts the single-interval trapezoid value;
    returns rows (k, E_k, order), order None on the first row.  Beyond
    k = 26 the integrand's 1 - cos rounds to 0: FloatingPointError.
    """
    k_values = list(k_values)
    _require_rows(k_values, "k")
    if any(k < 2 for k in k_values):
        raise ValueError("k must be at least 2")
    rows = []
    prev = None
    for k in k_values:
        a = 2.0 ** (-k)
        gap = 1.0 - np.cos(a)
        if gap == 0.0:
            raise FloatingPointError(f"1 - cos(2**-{k}) rounds to 0 in double precision "
                                     "(k must be at most 26)")
        exact = _exact_log_integral(a)
        trap = 2.0 * a * np.log(gap)
        err = abs(exact - trap)
        order = None if prev is None else order_of_accuracy(prev, err)
        rows.append((k, err, order))
        prev = err
    return rows
