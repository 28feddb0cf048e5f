"""Uniform Cartesian and logarithmic polar grids.

Both grids are immutable after construction (arrays are marked read-only),
so they can be shared freely between kernel tables, density fields and
solvers without copying.  They compare and hash by their defining
parameters only: (half_width, n) and (outer_radius, n, beta0).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CartesianGrid:
    """Square grid of n x n cells covering [-half_width, half_width]^2.

    Cell edges are x_{i} = -M + i*dx for i = 0..n; centers sit at the
    midpoints.  dx == dy always.
    """

    half_width: float
    n: int
    dx: float = field(compare=False)
    x_edges: np.ndarray = field(repr=False, compare=False)
    x_centers: np.ndarray = field(repr=False, compare=False)

    # y discretization is identical to x on this square grid
    @property
    def y_centers(self) -> np.ndarray:
        return self.x_centers

    @property
    def coords(self) -> str:
        return "cartesian"

    @property
    def cell_area(self) -> float:
        return self.dx * self.dx

    def center_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) center coordinates, shape (n, n), x varying along axis 0."""
        return np.meshgrid(self.x_centers, self.y_centers, indexing="ij")


@dataclass(frozen=True)
class PolarGrid:
    """Logarithmic-radial, uniform-azimuthal grid on the disk of radius M.

    Radial edges follow r_{i} = ratio**(n - i) * M, so the quotient of any
    two radii depends only on the index difference; that property is what
    turns the radial force sums into convolutions.  Radial centers are
    arithmetic midpoints of the edges (not geometric means), which keeps the
    linear density expansion second order.  The innermost edge leaves a small
    uncovered hole [0, r_edges[0]] whose ring of "hole cells" is tracked
    separately; ``hole_radius_mid`` is the representative radius used when
    sampling density data on that ring.
    """

    outer_radius: float
    n: int
    beta0: float
    ratio: float = field(compare=False)
    dtheta: float = field(compare=False)
    r_edges: np.ndarray = field(repr=False, compare=False)
    r_centers: np.ndarray = field(repr=False, compare=False)
    theta_edges: np.ndarray = field(repr=False, compare=False)
    theta_centers: np.ndarray = field(repr=False, compare=False)

    @property
    def coords(self) -> str:
        return "polar"

    @property
    def hole_radius(self) -> float:
        """Radius of the innermost edge, r_{1/2} = ratio**n * M."""
        return float(self.r_edges[0])

    @property
    def hole_radius_mid(self) -> float:
        """Representative radius of the hole cells (half the hole radius)."""
        return 0.5 * self.hole_radius

    def cell_areas(self) -> np.ndarray:
        """Per-ring cell area 0.5*(r_{i+1/2}^2 - r_{i-1/2}^2)*dtheta, shape (n,)."""
        e = self.r_edges
        return 0.5 * (e[1:] ** 2 - e[:-1] ** 2) * self.dtheta

    def center_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(R, THETA) center coordinates, shape (n, n), r along axis 0."""
        return np.meshgrid(self.r_centers, self.theta_centers, indexing="ij")


def build_cartesian_grid(half_width: float, n: int) -> CartesianGrid:
    """Build the uniform n x n grid on [-half_width, half_width]^2.

    Raises ValueError for non-positive half_width or n < 2.
    """
    if not half_width > 0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    if n < 2:
        raise ValueError(f"need at least 2 zones per side, got n={n}")
    m = float(half_width)
    dx = 2.0 * m / n
    edges = -m + dx * np.arange(n + 1)
    # pin the outer edges exactly
    edges[0] = -m
    edges[-1] = m
    centers = 0.5 * (edges[:-1] + edges[1:])
    return CartesianGrid(
        half_width=m,
        n=int(n),
        dx=dx,
        x_edges=_readonly(edges),
        x_centers=_readonly(centers),
    )


def build_polar_grid(outer_radius: float, n: int, beta0: float) -> PolarGrid:
    """Build the logarithmic polar grid with n rings and n sectors.

    The radial shrink factor is ratio = beta0*(1 - dtheta) with
    dtheta = 2*pi/n, which must land in (0, 1); that requires dtheta < 1,
    i.e. n >= 7.
    """
    if not outer_radius > 0:
        raise ValueError(f"outer_radius must be positive, got {outer_radius}")
    if not 0.0 < beta0 < 1.0:
        raise ValueError(f"beta0 must lie in (0, 1), got {beta0}")
    if n < 2:
        raise ValueError(f"need at least 2 zones, got n={n}")
    dtheta = 2.0 * np.pi / n
    ratio = beta0 * (1.0 - dtheta)
    if not 0.0 < ratio < 1.0:
        raise ValueError(
            f"radial ratio beta0*(1 - 2*pi/n) = {ratio:g} is outside (0, 1); "
            f"n >= 7 is required so that 2*pi/n < 1"
        )
    m = float(outer_radius)
    r_edges = ratio ** (n - np.arange(n + 1.0)) * m
    r_centers = 0.5 * (r_edges[:-1] + r_edges[1:])
    theta_edges = dtheta * np.arange(n + 1.0)
    theta_centers = 0.5 * (theta_edges[:-1] + theta_edges[1:])
    return PolarGrid(
        outer_radius=m,
        n=int(n),
        beta0=float(beta0),
        ratio=float(ratio),
        dtheta=dtheta,
        r_edges=_readonly(r_edges),
        r_centers=_readonly(r_centers),
        theta_edges=_readonly(theta_edges),
        theta_centers=_readonly(theta_centers),
    )
