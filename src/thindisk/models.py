"""Analytic disk models and gridded density fields.

Models evaluate surface density (and, where available, analytic first
partials, potential and in-plane force) as functions of Cartesian position.
``sample_density`` projects any model onto a grid, producing the cell-center
values and slope pairs the solvers consume. The gravitational constant is
fixed to 1 throughout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import CartesianGrid, PolarGrid

G = 1.0


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class D2Disk:
    """Finite disk with density sigma0*(1 - R^2/alpha^2)^(3/2) inside R < alpha.

    Density, potential on the midplane and radial force all have closed
    forms; the potential/force pair is continuous (and once differentiable
    for the potential) across the rim R = alpha.
    """

    alpha: float = 0.25
    sigma0: float = 1.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not self.sigma0 > 0:
            raise ValueError(f"sigma0 must be positive, got {self.sigma0}")

    kind = "d2"
    has_analytic_slopes = True

    @property
    def mass(self) -> float:
        return 2.0 * np.pi * self.sigma0 * self.alpha**2 / 5.0

    def density(self, x, y) -> np.ndarray:
        r2 = _as_array(x) ** 2 + _as_array(y) ** 2
        w = np.maximum(1.0 - r2 / self.alpha**2, 0.0)
        return self.sigma0 * w**1.5

    def density_gradient(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        x = _as_array(x)
        y = _as_array(y)
        w = np.maximum(1.0 - (x * x + y * y) / self.alpha**2, 0.0)
        c = -3.0 * self.sigma0 * np.sqrt(w) / self.alpha**2
        return c * x, c * y

    def radial_force(self, r) -> np.ndarray:
        """In-plane radial force (attractive, so negative for 0 < R)."""
        r = np.atleast_1d(_as_array(r))
        if np.any(r < 0):
            raise ValueError("radius must be non-negative")
        a, s0 = self.alpha, self.sigma0
        out = np.empty_like(r)
        inner = r <= a
        ri = r[inner]
        out[inner] = -3 * np.pi**2 * s0 * G * ri * (4 * a**2 - 3 * ri**2) / (16 * a**3)
        ro = r[~inner]
        out[~inner] = (
            -3 * np.pi * s0 * G / (8 * a**3)
            * (
                ro * (4 * a**2 - 3 * ro**2) * np.arcsin(a / ro)
                - a * (2 * a**2 - 3 * ro**2) * np.sqrt(1.0 - a**2 / ro**2)
            )
        )
        return out

    def potential(self, r) -> np.ndarray:
        """Midplane potential; tends to -mass/R far away and to a negative
        constant at the center."""
        r = np.atleast_1d(_as_array(r))
        if np.any(r < 0):
            raise ValueError("radius must be non-negative")
        a, s0 = self.alpha, self.sigma0
        out = np.empty_like(r)
        inner = r <= a
        ri = r[inner]
        out[inner] = (
            -3 * np.pi**2 * s0 * G / (64 * a**3)
            * (8 * a**4 - 8 * a**2 * ri**2 + 3 * ri**4)
        )
        ro = r[~inner]
        out[~inner] = (
            -3 * np.pi * s0 * G / (32 * a**3)
            * (
                (8 * a**4 - 8 * a**2 * ro**2 + 3 * ro**4) * np.arcsin(a / ro)
                + 3 * a * (2 * a**2 - ro**2) * np.sqrt(ro**2 - a**2)
            )
        )
        return out

    def force_xy(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        x = _as_array(x)
        y = _as_array(y)
        r = np.hypot(x, y)
        fr_over_r = np.where(r > 0, self.radial_force(np.maximum(r, 1e-300)) / np.maximum(r, 1e-300), 0.0)
        return fr_over_r * x, fr_over_r * y


@dataclass(frozen=True)
class D2PairDisk:
    """Two superposed D2 disks shifted to (+offset, 0) and (-offset, 0)."""

    alpha: float = 0.25
    sigma0: float = 1.0
    offset: float = 0.25

    kind = "d2_2"
    has_analytic_slopes = True

    def _superpose(self, part, x, y):
        """Sum of ``part(disk, x - dx0, y)`` over the two shifted disks.  It
        starts from 0.0, so it reads +0.0 where both parts are -0.0."""
        d = D2Disk(self.alpha, self.sigma0)
        total = 0.0
        for dx0 in (self.offset, -self.offset):
            total = total + np.asarray(part(d, _as_array(x) - dx0, y))
        return total

    def density(self, x, y) -> np.ndarray:
        return self._superpose(D2Disk.density, x, y)

    def density_gradient(self, x, y):
        return tuple(self._superpose(D2Disk.density_gradient, x, y))

    def force_xy(self, x, y):
        return tuple(self._superpose(D2Disk.force_xy, x, y))


@dataclass(frozen=True)
class LogSpiralDisk:
    """Gaussian-enveloped two-armed spiral, exp(-2 r^2)*(2 + cos(2 theta + 16 r)).

    No analytic force is known; convergence studies use a fine-grid solve
    restricted to coarser grids as the reference.
    """

    kind = "log_spiral"
    has_analytic_slopes = True

    def density(self, x, y) -> np.ndarray:
        x = _as_array(x)
        y = _as_array(y)
        r = np.hypot(x, y)
        th = np.arctan2(y, x)
        return np.exp(-2.0 * r * r) * (2.0 + np.cos(2.0 * th + 16.0 * r))

    def density_gradient(self, x, y):
        x = _as_array(x)
        y = _as_array(y)
        r = np.hypot(x, y)
        th = np.arctan2(y, x)
        phase = 2.0 * th + 16.0 * r
        env = np.exp(-2.0 * r * r)
        # d/dr and d/dtheta of the closed form, then the chain rule
        dr = env * (-4.0 * r * (2.0 + np.cos(phase)) - 16.0 * np.sin(phase))
        dth = -2.0 * env * np.sin(phase)
        with np.errstate(invalid="ignore", divide="ignore"):
            gx = np.where(r > 0, dr * x / r - dth * y / (r * r), 0.0)
            gy = np.where(r > 0, dr * y / r + dth * x / (r * r), 0.0)
        return gx, gy


class CallableModel:
    """Adapter turning a plain density function into a model.

    ``gradient`` is optional; without it, sampling falls back to
    central-difference slopes.
    """

    kind = "user"

    def __init__(self, density, gradient=None):
        self._density = density
        self._gradient = gradient
        self.has_analytic_slopes = gradient is not None

    def density(self, x, y):
        return np.asarray(self._density(_as_array(x), _as_array(y)), dtype=float)

    def density_gradient(self, x, y):
        if self._gradient is None:
            raise ValueError("model has no analytic gradient")
        gx, gy = self._gradient(_as_array(x), _as_array(y))
        return np.asarray(gx, dtype=float), np.asarray(gy, dtype=float)


@dataclass(frozen=True)
class DensityField:
    """Cell-center density values plus per-cell slope pairs on one grid.

    ``values``/``slope_u``/``slope_v`` have shape (n, n) with the first axis
    along x (Cartesian) or r (polar) and the second along y or theta.  Slopes
    are the first partials with respect to the grid's own coordinates
    (d/dx, d/dy) or (d/dr, d/dtheta).  Polar fields additionally carry the
    hole-cell ring (length n) sampled at the hole's representative radius.
    """

    grid: CartesianGrid | PolarGrid
    values: np.ndarray
    slope_u: np.ndarray
    slope_v: np.ndarray
    slope_source: str = "analytic"
    hole_values: np.ndarray | None = None
    hole_slope_u: np.ndarray | None = None
    hole_slope_v: np.ndarray | None = None

    def __post_init__(self):
        n = self.grid.n
        for name in ("values", "slope_u", "slope_v"):
            a = getattr(self, name)
            if a.shape != (n, n):
                raise ValueError(f"{name} must have shape ({n}, {n}), got {a.shape}")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} holds a non-finite value")
        if self.grid.coords == "polar":
            for name in ("hole_values", "hole_slope_u", "hole_slope_v"):
                a = getattr(self, name)
                if a is None or a.shape != (n,):
                    raise ValueError(f"polar field needs {name} of shape ({n},)")
                if not np.all(np.isfinite(a)):
                    raise ValueError(f"{name} holds a non-finite value")

    def scaled(self, factor: float) -> "DensityField":
        """Field with every value and slope multiplied by ``factor``."""
        def s(a):
            return None if a is None else factor * a
        return DensityField(
            grid=self.grid,
            values=factor * self.values,
            slope_u=factor * self.slope_u,
            slope_v=factor * self.slope_v,
            slope_source=self.slope_source,
            hole_values=s(self.hole_values),
            hole_slope_u=s(self.hole_slope_u),
            hole_slope_v=s(self.hole_slope_v),
        )


def eval_density(model, x, y) -> np.ndarray:
    """Surface density of ``model`` at the given position(s)."""
    return model.density(x, y)


def central_difference_slopes(values: np.ndarray, coord1: np.ndarray, coord2: np.ndarray):
    """Second-order slopes of gridded values along both axes.

    Interior cells use centered differences; boundary cells use one-sided
    three-point stencils of the same order.  Spacings may be non-uniform
    (as on the logarithmic radial axis).
    """

    def d_axis(v, c, axis):
        # difference form (weights multiply v-increments), so constants give
        # exact zeros and quadratics are differentiated exactly
        v = np.moveaxis(v, axis, 0)
        out = np.empty_like(v)
        h1 = (c[1:-1] - c[:-2])[:, None]
        h2 = (c[2:] - c[1:-1])[:, None]
        out[1:-1] = (h2 / (h1 * (h1 + h2)) * (v[1:-1] - v[:-2])
                     + h1 / (h2 * (h1 + h2)) * (v[2:] - v[1:-1]))
        ha = c[1] - c[0]
        hb = c[2] - c[1]
        out[0] = ((2 * ha + hb) / (ha * (ha + hb)) * (v[1] - v[0])
                  - ha / (hb * (ha + hb)) * (v[2] - v[1]))
        ha = c[-2] - c[-3]
        hb = c[-1] - c[-2]
        out[-1] = ((2 * hb + ha) / (hb * (ha + hb)) * (v[-1] - v[-2])
                   - hb / (ha * (ha + hb)) * (v[-2] - v[-3]))
        return np.moveaxis(out, 0, axis)

    return d_axis(values, coord1, 0), d_axis(values, coord2, 1)


def sample_density(model, grid: CartesianGrid | PolarGrid, slopes: str = "auto") -> DensityField:
    """Sample a model onto a grid, filling values and slope pairs.

    slopes: "auto" uses analytic partials when the model has them, otherwise
    central differences; "analytic" and "central-difference" force the mode.
    Polar sampling also fills the hole-cell ring at the representative
    radius, with the slopes rotated into (d/dr, d/dtheta) components.
    """
    if slopes == "auto":
        slopes = "analytic" if getattr(model, "has_analytic_slopes", False) else "central-difference"
    if slopes not in ("analytic", "central-difference"):
        raise ValueError(f"unknown slope mode {slopes!r}")

    if grid.coords == "cartesian":
        X, Y = grid.center_mesh()
        vals = model.density(X, Y)
        if slopes == "analytic":
            su, sv = model.density_gradient(X, Y)
        else:
            su, sv = central_difference_slopes(vals, grid.x_centers, grid.y_centers)
        return DensityField(grid, vals, np.asarray(su, float), np.asarray(sv, float),
                            slope_source=slopes)

    r, r0 = grid.r_centers[:, None], grid.hole_radius_mid
    cos, sin = np.cos(grid.theta_centers), np.sin(grid.theta_centers)
    X, Y, x0, y0 = r * cos, r * sin, r0 * cos, r0 * sin
    vals = model.density(X, Y)
    hole_vals = model.density(x0, y0)
    if slopes == "analytic":
        gx, gy = model.density_gradient(X, Y)
        su = gx * cos + gy * sin
        sv = r * (-gx * sin + gy * cos)
        g0x, g0y = model.density_gradient(x0, y0)
        h_su = g0x * cos + g0y * sin
        h_sv = r0 * (-g0x * sin + g0y * cos)
    else:
        su, sv = central_difference_slopes(vals, grid.r_centers, grid.theta_centers)
        # hole ring: reuse the innermost ring's slopes as the best available data
        h_su, h_sv = su[0].copy(), sv[0].copy()
    return DensityField(grid, vals, np.asarray(su, float), np.asarray(sv, float),
                        slope_source=slopes,
                        hole_values=np.asarray(hole_vals, float),
                        hole_slope_u=np.asarray(h_su, float),
                        hole_slope_v=np.asarray(h_sv, float))
