"""Comparison methods: softened direct summation and the log-spectral solver.

The softening method lumps each cell's mass at its center, sums the point
potentials with a softened distance sqrt(eps^2 + d^2), and differentiates
the gridded potential numerically; it is first-order accurate and needs no
force tables.  Its one (n+1)^2 kernel quadrant runs through the solver's
spectral recipe (solver.assemble) like any force kernel, and its forces are
attractive, like every solver's.  The log-spectral method expands an
axisymmetric density in log-radius waves, multiplies by the exact
gamma-function transfer kernel, and inverts; truncating the log-radius axis
carves a small hole out of the disk, which is the method's signature error
near the origin.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .kernels_cartesian import KernelTables
from .models import G, DensityField
from .solver import FORCE_COMPONENTS, ForceField, assemble, finite

SOFTENED_TERMS = ((0, "soft", "values"),)


def complex_gamma(z):
    """Gamma function for complex argument."""
    z = np.asarray(z, dtype=complex)
    if np.any(np.isreal(z) & (z.real <= 0) & (z.real == np.floor(z.real))):
        raise ValueError("gamma pole at a non-positive integer")
    return special.gamma(z)


def spectral_transfer_kernel(alpha, m: int = 0):
    """Positive transfer factor K(alpha, m) linking density and potential waves.

    K = Gamma((m + 1/2 + i*alpha)/2) * Gamma((m + 1/2 - i*alpha)/2)
        / (2 * Gamma((m + 3/2 + i*alpha)/2) * Gamma((m + 3/2 - i*alpha)/2)).

    The two gamma pairs are complex conjugates, so with a = (m + 1/2 + i*alpha)/2
    K = exp(2 Re(log Gamma(a) - log Gamma(a + 1/2))) / 2; the log form keeps the
    ratio finite where both gammas underflow.
    """
    if m < 0:
        raise ValueError("azimuthal mode m must be non-negative")
    alpha = np.asarray(alpha, dtype=float)
    # beyond ~1e12 the log-gamma differences cancel past double precision
    if np.any(np.abs(alpha) > 1e12) or m > 1e12:
        raise OverflowError("transfer kernel loses all precision; alpha or m out of range")
    a = (m + 0.5 + 1j * alpha) / 2
    out = 0.5 * np.exp(2.0 * (special.loggamma(a) - special.loggamma(a + 0.5)).real)
    if np.any(~np.isfinite(out)):
        raise OverflowError("transfer kernel overflowed; alpha out of range")
    return out if out.ndim else float(out)


# backwards-friendly alias matching the m, alpha naming used elsewhere
kalnajs_gamma_kernel = spectral_transfer_kernel


@dataclass(frozen=True)
class SofteningConfig:
    """Softening length for the lumped-mass potential kernel."""

    epsilon: float

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")


@dataclass(frozen=True)
class KalnajsConfig:
    """Discretization of the log-spectral solve.

    u_min truncates the log-radius axis (it stands in for -infinity, and
    carves a hole of radius exp(u_min) out of the disk); alpha_max truncates
    the spectral axis.  Defaults keep the mid-disk potential of the bundled
    test disk accurate to a few 1e-5 while leaving the near-origin
    truncation artifact visible.
    """

    u_min: float = -6.0
    alpha_max: float = 60.0
    n_alpha: int = 2048
    n_u: int = 1024
    m: int = 0

    def __post_init__(self):
        if not -np.inf < self.u_min < 0:
            raise ValueError("u_min must be negative and finite")
        if not 0 < self.alpha_max < np.inf:
            raise ValueError("alpha_max must be positive and finite")
        if self.n_alpha < 2 or self.n_u < 2:
            raise ValueError("need at least two quadrature nodes per axis")


def softened_potential(field: DensityField, cfg: SofteningConfig | None = None,
                       method: str = "fft") -> np.ndarray:
    """Potential at cell centers from softened cell-lumped point masses,
    by "fft" or "direct" summation (solver.assemble's backends)."""
    grid = field.grid
    if grid.coords != "cartesian":
        raise ValueError("softened solver runs on Cartesian grids")
    if method not in ("fft", "direct"):
        raise ValueError(f"unknown method {method!r}")
    eps = cfg.epsilon if cfg is not None else grid.dx
    # the kernel is even on both axes (PARITY["soft"]): one (n+1)^2 quadrant
    offs = np.arange(grid.n + 1) * grid.dx
    kernel = -G / np.sqrt(eps * eps + offs[:, None] ** 2 + offs[None, :] ** 2)
    # an overflowing mass is a numerical failure, not a bad DensityField
    mass = replace(field, values=finite(lambda: [field.values * grid.cell_area], "cell mass")[0])
    return assemble(SOFTENED_TERMS, mass, KernelTables(grid, {"soft": kernel}), method)[0]


def solve_softened_cartesian(field: DensityField, cfg: SofteningConfig | None = None,
                             method: str = "fft") -> ForceField:
    """Forces by differencing the softened potential on the grid.

    Differentiating the numerical potential (rather than the kernel) is what
    limits this method to first order.  Default softening is one cell, eps = dx.
    """
    grid = field.grid
    # second-order centered differences, one-sided at the boundary rows
    fx, fy = finite(lambda: np.gradient(-softened_potential(field, cfg, method=method), grid.dx,
                                        edge_order=2), *FORCE_COMPONENTS)
    return ForceField(grid, fx, fy)


def kalnajs_potential_axisym(sigma_of_r, radii, cfg: KalnajsConfig | None = None) -> np.ndarray:
    """Axisymmetric midplane potential by the log-spectral method.

    ``sigma_of_r`` maps radius arrays to surface density (supported inside
    the unit disk).  The reduced density exp(3u/2)*sigma(exp(u)) is
    transformed on u in [u_min, 0] by the trapezoid rule, multiplied by the
    transfer kernel, and inverted on alpha in [-alpha_max, alpha_max]; the
    azimuthal average folds a factor 2*pi into the inverse, leaving an
    overall -G prefactor.
    """
    cfg = cfg or KalnajsConfig()
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if radii.size == 0:
        raise ValueError("need at least one query radius")
    if not np.all((radii > 0) & (radii < np.inf)):
        raise ValueError("query radii must be positive and finite")

    u = np.linspace(cfg.u_min, 0.0, cfg.n_u)
    wu = np.full(cfg.n_u, u[1] - u[0])
    wu[0] *= 0.5
    wu[-1] *= 0.5
    reduced = np.exp(1.5 * u) * np.asarray(sigma_of_r(np.exp(u)), dtype=float)

    alpha = np.linspace(-cfg.alpha_max, cfg.alpha_max, cfg.n_alpha)
    wa = np.full(cfg.n_alpha, alpha[1] - alpha[0])
    wa[0] *= 0.5
    wa[-1] *= 0.5
    forward = np.exp(-1j * np.outer(alpha, u)) @ (reduced * wu)
    transfer = spectral_transfer_kernel(alpha, cfg.m)

    uq = np.log(radii)
    inverse = np.exp(1j * np.outer(uq, alpha)) @ (transfer * forward * wa)
    return -G * np.real(inverse) / np.sqrt(radii)
