"""Analytic disk models and gridded density fields.

Models evaluate surface density (and, where available, analytic first
partials, potential and in-plane force) as functions of Cartesian position.
``sample_density`` projects any model onto a grid, producing the cell-center
values and slope pairs the solvers consume. The gravitational constant is
fixed to 1 throughout.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grids import CartesianGrid, PolarGrid, check_range

G = 1.0


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class D2Disk:
    """Finite disk with density sigma0*(1 - R^2/alpha^2)^(3/2) inside R < alpha.

    alpha must be positive, with a fourth power that is a finite normal
    double (about 1.22e-77 to 1.16e77): the closed forms raise it to powers
    up to the fourth.  sigma0 must be positive, and it, the slope factor
    3*sigma0/alpha**2 and the force coefficient 3*pi**2*sigma0/(16*alpha**3)
    finite normal doubles.

    Density, potential on the midplane and radial force all have closed
    forms; the potential/force pair is continuous (and once differentiable
    for the potential) across the rim R = alpha.  ``density`` and
    ``density_gradient`` evaluate their closed forms only on the support
    (R^2 < alpha^2, or R^2 NaN) once it is at most half the points: outside
    it the density is +0.0 and each gradient component is (-0.0)*x, the
    values the closed forms take there.
    """

    alpha: float = 0.25
    sigma0: float = 1.0

    def __post_init__(self):
        if not 0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        a = float(self.alpha)    # Python products, unlike ** or numpy's, overflow quietly
        check_range("alpha", self.alpha, "its fourth power", (a * a) * (a * a))
        if not 0 < self.sigma0 < np.inf:
            raise ValueError(f"sigma0 must be positive and finite, got {self.sigma0}")
        s = float(self.sigma0)
        check_range("sigma0", s, "its value, slope factor or force coefficient",
                    s, 3.0 * s / (a * a), 3.0 * np.pi**2 * s / (16.0 * (a * a) * a))

    kind = "d2"
    has_analytic_slopes = True

    @property
    def mass(self) -> float:
        return 2.0 * np.pi * self.sigma0 * self.alpha**2 / 5.0

    def _profile(self, profile, x, y, scratch=None) -> np.ndarray:
        """``profile(w)`` at the points (x, y), w = max(1 - R^2/alpha^2, 0).

        R^2 is formed in one new array of the points' broadcast shape, with
        y*y in ``scratch`` (an array of that shape, overwritten) or in a
        temporary.  When the support holds at most half the points, w and
        ``profile`` are evaluated there alone and the rest of that array
        reads ``profile(0.0)``: this skips pow(0, 1.5), libm's slow path, on
        the cells a small disk leaves empty.  On a denser support the gather
        and scatter would cost more than they save, so w is formed in that
        array at every point."""
        r2 = np.multiply(x, x, out=np.empty(np.broadcast_shapes(x.shape, y.shape)))
        r2 += np.multiply(y, y, out=scratch)
        a2 = self.alpha**2
        inside = ~(r2 >= a2)        # NaN points are inside
        if 2 * np.count_nonzero(inside) > r2.size:
            np.divide(r2, a2, out=r2)
            np.subtract(1.0, r2, out=r2)
            np.maximum(r2, 0.0, out=r2)
            # r2[()] is a scalar for 0-d points, which keeps numpy's scalar
            # pow: its last bit can differ from the array loop's
            return profile(r2[()])
        w = np.maximum(1.0 - r2[inside] / a2, 0.0)
        r2.fill(profile(0.0))
        r2[inside] = profile(w)
        return r2

    def density(self, x, y) -> np.ndarray:
        return self._profile(lambda w: self.sigma0 * w**1.5, _as_array(x), _as_array(y))

    def density_gradient(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        x, y = _as_array(x), _as_array(y)
        gy = np.empty(np.broadcast_shapes(x.shape, y.shape))
        c = self._profile(lambda w: -3.0 * self.sigma0 * np.sqrt(w) / self.alpha**2, x, y, gy)
        np.multiply(c, y, out=gy)
        # c is a new array of the points' shape, or a scalar for 0-d points
        return np.multiply(c, x, out=c) if np.ndim(c) else c * x, gy

    def radial_force(self, r) -> np.ndarray:
        """In-plane radial force (attractive, so negative for 0 < R).

        The outer closed form, -3*pi*s0*G/(8*a^3) * (r*(4*a^2 - 3*r^2)*arcsin(a/r)
        - a*(2*a^2 - 3*r^2)*sqrt(1 - a^2/r^2)), runs in place, one operation
        at a time in the order of that expression."""
        a, s0 = self.alpha, self.sigma0

        def outer(ro):
            r2 = np.square(ro)
            out, tmp = np.multiply(3, r2), np.divide(a, ro)
            np.subtract(4 * a**2, out, out=out)
            out *= ro
            out *= np.arcsin(tmp, out=tmp)
            np.subtract(2 * a**2, np.multiply(3, r2, out=tmp), out=tmp)
            tmp *= a
            tmp *= np.sqrt(np.subtract(1.0, np.divide(a**2, r2, out=r2), out=r2), out=r2)
            out -= tmp
            out *= -3 * np.pi * s0 * G / (8 * a**3)
            return out
        return self._piecewise(
            r, lambda ri: -3 * np.pi**2 * s0 * G * ri * (4 * a**2 - 3 * ri**2) / (16 * a**3),
            outer)

    def potential(self, r) -> np.ndarray:
        """Midplane potential; tends to -mass/R far away and to a negative
        constant at the center."""
        a, s0 = self.alpha, self.sigma0
        return self._piecewise(
            r, lambda ri: (-3 * np.pi**2 * s0 * G / (64 * a**3)
                           * (8 * a**4 - 8 * a**2 * ri**2 + 3 * ri**4)),
            lambda ro: -3 * np.pi * s0 * G / (32 * a**3) * (
                (8 * a**4 - 8 * a**2 * ro**2 + 3 * ro**4) * np.arcsin(a / ro)
                + 3 * a * (2 * a**2 - ro**2) * np.sqrt(ro**2 - a**2)))

    def _piecewise(self, r, inner, outer) -> np.ndarray:
        """``outer`` of every radius, a new array, then ``inner`` of the
        radii r <= alpha written over it: no gather of the many points a
        small disk leaves outside.  A negative radius raises ValueError."""
        r = np.atleast_1d(_as_array(r))
        if np.any(r < 0):
            raise ValueError("radius must be non-negative")
        with np.errstate(divide="ignore", invalid="ignore"):    # r <= alpha, overwritten
            out = outer(r)
        within = r <= self.alpha
        out[within] = inner(r[within])
        return out

    def force_xy(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """(Fx, Fy) = F_R/R * (x, y), with F_R/R read as 0 where R is 0 or
        NaN; R is floored at 1e-300, and the quotient formed in place."""
        x = _as_array(x)
        y = _as_array(y)
        r = np.atleast_1d(np.hypot(x, y))
        zero = ~(r > 0)
        np.maximum(r, 1e-300, out=r)
        fr_over_r = self.radial_force(r)
        fr_over_r /= r
        fr_over_r[zero] = 0.0
        return np.multiply(fr_over_r, x, out=r), np.multiply(fr_over_r, y, out=fr_over_r)


@dataclass(frozen=True)
class D2PairDisk:
    """Two superposed D2 disks shifted to (+offset, 0) and (-offset, 0)."""

    alpha: float = 0.25
    sigma0: float = 1.0
    offset: float = 0.25

    kind = "d2_2"
    has_analytic_slopes = True

    def __post_init__(self):
        D2Disk(self.alpha, self.sigma0)     # the same alpha and sigma0 checks
        if not -np.inf < self.offset < np.inf:
            raise ValueError(f"offset must be finite, got {self.offset}")

    def _superpose(self, part, x, y):
        """Sum of ``part(disk, x - dx0, y)`` over the two shifted disks, an
        array or a tuple of them, added into the first disk's arrays.  It
        starts from 0.0, so it reads +0.0 where both parts are -0.0."""
        d = D2Disk(self.alpha, self.sigma0)
        first, second = (part(d, _as_array(x) - dx0, y) for dx0 in (self.offset, -self.offset))

        def add(a, b):
            # 0.0 + a + b, in a unless a is a scalar or 0-d
            if np.ndim(a) == 0:
                return 0.0 + a + b
            a += 0.0
            a += b
            return a
        return tuple(map(add, first, second)) if isinstance(first, tuple) else add(first, second)

    def density(self, x, y) -> np.ndarray:
        return self._superpose(D2Disk.density, x, y)

    def density_gradient(self, x, y):
        return self._superpose(D2Disk.density_gradient, x, y)

    def force_xy(self, x, y):
        return self._superpose(D2Disk.force_xy, x, y)


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


# the per-cell arrays of a DensityField; polar fields add "hole_" + each
PLANES = ("values", "slope_u", "slope_v")


@dataclass(frozen=True)
class DensityField:
    """Cell-center density values plus per-cell slope pairs on one grid.

    ``values``/``slope_u``/``slope_v`` have shape (n, n) with the first axis
    along x (Cartesian) or r (polar) and the second along y or theta.  Slopes
    are the first partials with respect to the grid's own coordinates
    (d/dx, d/dy) or (d/dr, d/dtheta).  Polar fields additionally carry the
    hole-cell ring (length n) sampled at the hole's representative radius;
    Cartesian fields have no hole, and a hole ring given to one raises
    ValueError.
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
        n, polar = self.grid.n, self.grid.coords == "polar"
        for name in ("hole_" + p for p in PLANES if not polar):
            if getattr(self, name) is not None:
                raise ValueError(f"{name} given on a Cartesian grid, which has no hole ring")
        checks = [(p, (n, n)) for p in PLANES] + [("hole_" + p, (n,)) for p in PLANES if polar]
        for name, shape in checks:
            a = getattr(self, name)
            if a is None or a.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got "
                                 f"{None if a is None else a.shape}")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} holds a non-finite value")

    def planes(self) -> dict:
        """Each per-cell array and, on polar grids, each hole ring, by name."""
        names = [prefix + p for prefix in ("", "hole_") for p in PLANES]
        return {k: getattr(self, k) for k in names if getattr(self, k) is not None}

    def scaled(self, factor: float) -> "DensityField":
        """Field with every value and slope multiplied by ``factor``."""
        return replace(self, **{k: factor * a for k, a in self.planes().items()})


def eval_density(model, x, y) -> np.ndarray:
    """Surface density of ``model`` at the given position(s)."""
    return model.density(x, y)


def central_difference_slopes(values: np.ndarray, coord1: np.ndarray, coord2: np.ndarray):
    """Second-order slopes of gridded values along both axes.

    Interior cells use centered differences; boundary cells use one-sided
    three-point stencils of the same order.  Spacings may be non-uniform
    (as on the logarithmic radial axis).  An axis of fewer than three cells
    has no such stencil and gets zero slopes.
    """

    def d_axis(v, c, axis):
        if len(c) < 3:
            return np.zeros_like(v)
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


def polar_points(grid: PolarGrid) -> tuple:
    """(r, X, Y, cos, sin) of the polar cell centers on an (n+1) x n mesh: row
    0 is the hole ring at ``hole_radius_mid``, rows 1.. are the rings.  ``r``
    is a column and ``cos``/``sin`` are per-sector rows."""
    r = np.concatenate(([grid.hole_radius_mid], grid.r_centers))[:, None]
    cos, sin = np.cos(grid.theta_centers), np.sin(grid.theta_centers)
    return r, r * cos, r * sin, cos, sin


def to_polar(vx, vy, cos, sin) -> tuple:
    """The radial and azimuthal parts, vx*cos + vy*sin and -vx*sin + vy*cos,
    of the vector (vx, vy): two new arrays and one scratch array."""
    u = vx * cos
    v = vy * sin
    u += v
    scratch = np.multiply(vy, cos)
    np.negative(vx, out=v)
    v *= sin
    v += scratch
    return u, v


def differenced_field(grid: CartesianGrid | PolarGrid, values: np.ndarray, hole_values=None,
                      slope_pair=None) -> DensityField:
    """A field of ``values`` with their central-difference slopes, or with
    ``slope_pair`` (slope_u, slope_v) when given.  A polar field's hole ring
    holds ``hole_values`` (default: ring 0's values) and ring 0's slopes, the
    best slope data the rings offer."""
    su, sv = slope_pair or central_difference_slopes(values, *grid.center_axes)
    hole = {} if grid.coords != "polar" else dict(
        hole_values=values[0].copy() if hole_values is None else hole_values,
        hole_slope_u=su[0].copy(), hole_slope_v=sv[0].copy())
    return DensityField(grid, values, su, sv, **hole,
                        slope_source="analytic" if slope_pair else "central-difference")


def sample_density(model, grid: CartesianGrid | PolarGrid, slopes: str = "auto") -> DensityField:
    """Sample a model onto a grid, filling values and slope pairs.

    slopes: "auto" uses analytic partials when the model has them, otherwise
    central differences; "analytic" and "central-difference" force the mode.
    Polar sampling evaluates the model once on the mesh of ``polar_points``,
    which fills the hole-cell ring at its representative radius, and rotates
    the slopes into (d/dr, d/dtheta) components, scaling d/dtheta by r in
    place.  D2Disk and D2PairDisk evaluate their closed forms only on a
    sparse support (see D2Disk), so sampling a small disk costs a few cheap
    passes over the mesh and gives the arrays a dense evaluation gives.
    """
    if slopes == "auto":
        slopes = "analytic" if getattr(model, "has_analytic_slopes", False) else "central-difference"
    if slopes not in ("analytic", "central-difference"):
        raise ValueError(f"unknown slope mode {slopes!r}")

    polar = grid.coords == "polar"
    if polar:
        r, X, Y, cos, sin = polar_points(grid)
    else:
        X, Y = grid.center_mesh()
    vals = model.density(X, Y)
    hole_vals, vals = (vals[0], vals[1:]) if polar else (None, vals)
    if slopes == "central-difference":
        return differenced_field(grid, vals, hole_vals)
    su, sv = model.density_gradient(X, Y)
    if not polar:
        return DensityField(grid, vals, np.asarray(su, float), np.asarray(sv, float))
    del X, Y        # two planes fewer at the rotation, the peak of a polar sample
    su, sv = to_polar(su, sv, cos, sin)
    np.multiply(r, sv, out=sv)
    return DensityField(grid, vals, su[1:], sv[1:], hole_values=hole_vals,
                        hole_slope_u=su[0], hole_slope_v=sv[0])
