"""Comparison methods: softened direct summation and the log-spectral solver.

The softening method lumps each cell's mass at its center, sums the point
potentials with a softened distance sqrt(eps^2 + d^2), and differentiates
the gridded potential numerically; it is first-order accurate and needs no
kernel tables.  The log-spectral method expands an axisymmetric density in
log-radius waves, multiplies by the exact gamma-function transfer kernel,
and inverts; truncating the log-radius axis carves a small hole out of the
disk, which is the method's signature error near the origin.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .convolve import accumulate, cropped_irfft2, direct_convolve, padded_rfft2, \
    parity_rfft2, wrap_offsets
from .grids import CartesianGrid
from .models import G, DensityField
from .solver import ForceField


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
        if not self.epsilon > 0:
            raise ValueError("softening length must be positive")


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
        if not self.u_min < 0:
            raise ValueError("u_min must be negative")
        if not self.alpha_max > 0:
            raise ValueError("alpha_max must be positive")
        if self.n_alpha < 2 or self.n_u < 2:
            raise ValueError("need at least two quadrature nodes per axis")


def softened_potential(field: DensityField, cfg: SofteningConfig | None = None,
                       method: str = "fft") -> np.ndarray:
    """Potential at cell centers from softened cell-lumped point masses."""
    grid: CartesianGrid = field.grid
    if grid.coords != "cartesian":
        raise ValueError("softened solver runs on Cartesian grids")
    eps = cfg.epsilon if cfg is not None else grid.dx
    n = grid.n
    if method not in ("fft", "direct"):
        raise ValueError(f"unknown method {method!r}")
    # the kernel is even on both axes: its spectrum is one real (n+1)^2 quadrant
    offs = (np.arange(n + 1) if method == "fft" else wrap_offsets(n)) * grid.dx
    kernel = -G / np.sqrt(eps * eps + offs[:, None] ** 2 + offs[None, :] ** 2)
    mass = field.values * grid.cell_area
    if method == "direct":
        return direct_convolve(kernel, mass)
    shape, accs = (2 * n, 2 * n), {}
    accumulate(accs, [(0, parity_rfft2(kernel, (1, 1)), 1)], padded_rfft2(mass, shape), False)
    return cropped_irfft2(accs[0], shape, n, n)


def solve_softened_cartesian(field: DensityField, cfg: SofteningConfig | None = None,
                             method: str = "fft",
                             sign_convention: str = "attractive") -> ForceField:
    """Forces by differencing the softened potential on the grid.

    Differentiating the numerical potential (rather than the kernel) is what
    limits this method to first order.  Default softening is one cell, eps = dx.
    """
    grid = field.grid
    with np.errstate(over="ignore", invalid="ignore"):    # require_finite reports these
        # second-order centered differences, one-sided at the boundary rows
        fx, fy = np.gradient(-softened_potential(field, cfg, method=method), grid.dx,
                             edge_order=2)
    force = ForceField(grid, fx, fy, slope_source=field.slope_source)
    return force.require_finite().as_convention(sign_convention)


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
    if np.any(radii <= 0):
        raise ValueError("query radii must be positive")

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
