"""Force-field assembly from kernel tables and density fields.

Every solver returns forces in the "attractive" convention: each component
points toward mass, as in the analytic disk models of models.py, so
numerical and analytic fields compare directly (``thindisk solve --sign
repulsive`` negates them on output).  ``assemble`` is the one spectral
recipe: a term table of (output, kernel kind, input plane, r_i factor) rows
run over a tables object's kernels by zero-padded FFT or by direct
summation, for the forces here and for baselines.softened_potential.  Note
the two polar kernel families come out of their defining integrals with
opposite orientations (the radial family is outward-positive, the
azimuthal family forward-positive); the radial flip happens here, not in
the tables.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convolve import accumulate, cropped_ifft, cropped_irfft2, direct_convolve, \
    padded_rfft2, ring_convolve_direct
from .grids import CartesianGrid, PolarGrid
from .kernels_cartesian import PARITY, KernelTables
from .kernels_polar import POTENTIAL_KINDS, PolarKernelTables, tabulate_polar_kernels
from .models import DensityField


@dataclass(frozen=True)
class ForceField:
    """Per-cell force components on one grid.

    ``comp_u``/``comp_v`` are (Fx, Fy) on Cartesian grids and (Fr, Ftheta)
    on polar grids, shape (n, n) with the same axis order as DensityField,
    attractive: each points toward mass.
    """

    grid: CartesianGrid | PolarGrid
    comp_u: np.ndarray
    comp_v: np.ndarray

    @property
    def coords(self) -> str:
        return self.grid.coords

    def radial(self) -> np.ndarray:
        """Radial projection (x*Fx + y*Fy)/R on Cartesian grids; comp_u on polar."""
        if self.coords == "polar":
            return self.comp_u
        X, Y = self.grid.center_mesh()
        return (X * self.comp_u + Y * self.comp_v) / np.hypot(X, Y)


FORCE_COMPONENTS = ("force component comp_u", "force component comp_v")


def finite(compute, *names) -> list:
    """The arrays ``compute()`` returns, computed with overflow and invalid
    warnings off; FloatingPointError naming (by ``names``) the first array
    that holds inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        arrays = compute()
    for name, a in zip(names, arrays):
        if not np.isfinite(a).all():
            raise FloatingPointError(f"{name} holds a non-finite value")
    return arrays


# Term tables: a row (output, kernel kind, input plane, r_i factor) adds [r_i *]
# conv(kind, plane) to an output; polar rows also run over the hole tables and rings.
CARTESIAN_TERMS = (
    (0, "x0", "values", False), (0, "xx", "slope_u", False), (0, "xy", "slope_v", False),
    (1, "y0", "values", False), (1, "yx", "slope_u", False), (1, "yy", "slope_v", False),
)
POLAR_TERMS = (
    (0, "r0", "values", False), (0, "rr", "slope_u", True), (0, "rt", "slope_v", False),
    (1, "t0", "values", False), (1, "tr", "slope_u", True), (1, "tt", "slope_v", False),
)
POTENTIAL_TERMS = ((0, "p0", "values", False), (0, "pr", "slope_u", True), (0, "pt", "slope_v", False))


def _direct_sums(terms, field: DensityField, tables) -> dict:
    grid = field.grid
    pad = (0,) if grid.coords == "polar" else (0, 1)
    passes = [(tables.table, "", lambda k, a: direct_convolve(k, a, pad_axes=pad))]
    if grid.coords == "polar":
        passes.append((tables.hole_table, "hole_", ring_convolve_direct))
    outs = {}
    for table, prefix, conv in passes:
        for out, kind, plane, radial in terms:
            term = conv(table(kind), getattr(field, prefix + plane))
            term = grid.r_centers[:, None] * term if radial else term
            outs[out] = outs[out] + term if out in outs else term
    return outs


def _fft_sums(terms, field: DensityField, tables) -> dict:
    grid, n = field.grid, field.grid.n
    polar = grid.coords == "polar"
    shape = (2 * n, n if polar else 2 * n)
    # Cartesian kernel spectra are stored as real quadrants; those of x0 and
    # y0 carry a factor 1j, which goes once onto the one plane they (and no
    # other kind) read
    parity = {} if polar else PARITY
    imaginary = {kind for kind, (r, c) in parity.items() if r * c < 0}
    order = sorted(dict.fromkeys(p for _, _, p, _ in terms),
                   key=lambda p: not any(r for _, _, q, r in terms if q == p))
    # the plane after which each (output, r_i factor) accumulator is complete
    last = {(o, r): p for p in order for o, _, q, r in terms if q == p}
    kernels = {kind: tables.spectrum(kind) for _, kind, _, _ in terms}
    # a hole sum is a circular theta-convolution and the r_i factor scales
    # whole rows: both commute with the theta inverse, one per polar output
    rings = {p: np.fft.rfft(getattr(field, "hole_" + p)) for p in order} if polar else {}
    accs, outs = {}, {}
    for plane in order:
        rows = [(out, kind, radial) for out, kind, q, radial in terms if q == plane]
        products = [((out, radial), kernels[kind], parity.get(kind, (1, 1))[0])
                    for out, kind, radial in rows]
        accumulate(accs, products, padded_rfft2(getattr(field, plane), shape),
                   any(kind in imaginary for _, kind, _ in rows))
        for out, radial in [k for k, p in last.items() if p == plane]:
            spec = (cropped_ifft(accs.pop((out, radial)), n) if polar
                    else cropped_irfft2(accs.pop((out, radial)), shape, n, n))
            for o, kind, q, r in terms:
                if polar and (o, r) == (out, radial):
                    spec += tables.hole_spectrum(kind) * rings[q]
            spec = grid.r_centers[:, None] * spec if radial else spec
            outs[out] = outs[out] + spec if out in outs else spec
    return {o: np.fft.irfft(s, n=n, axis=1) for o, s in outs.items()} if polar else outs


def assemble(terms, field: DensityField, tables, backend: str = "fft") -> list:
    """Run a term table; one (n, n) array per output, in output order.

    "direct" convolves term by term (the O(n^4) oracle) and sums in table
    order, plane terms before hole-ring terms.  "fft" gets the kernel
    spectra, transforms each input once (r_i-group planes first) into
    per-(output, r_i factor) accumulators, and inverts each after its last
    input: polar ones along r only, adding hole-ring products and the r_i
    factor to their theta spectra before one theta inverse per output."""
    outs = {"fft": _fft_sums, "direct": _direct_sums}[backend](terms, field, tables)
    return [outs[k] for k in sorted(outs)]


def _force(terms, field: DensityField, tables, backend: str) -> ForceField:
    if field.grid is not tables.grid and field.grid != tables.grid:
        raise ValueError("density field and kernel tables were built on different grids")
    u, v = finite(lambda: assemble(terms, field, tables, backend), *FORCE_COMPONENTS)
    if field.grid.coords == "polar":
        u = -u      # radial family orientation: its integrand is outward-positive
    return ForceField(field.grid, u, v)


def solve_cartesian(field: DensityField, tables: KernelTables) -> ForceField:
    """Both force components as three kernel convolutions each."""
    return _force(CARTESIAN_TERMS, field, tables, "fft")


def solve_cartesian_direct(field: DensityField, tables: KernelTables) -> ForceField:
    """Direct-summation twin of solve_cartesian (oracle and benchmark path)."""
    return _force(CARTESIAN_TERMS, field, tables, "direct")


def solve_polar(field: DensityField, tables: PolarKernelTables) -> ForceField:
    """Radial and azimuthal forces with ring and hole-cell contributions.

    The radial-slope terms carry an external r_i factor; the azimuthal force
    needs no 1/r_i prefactor because it cancels against the kernel's own
    scale, leaving pure offset convolutions.
    """
    return _force(POLAR_TERMS, field, tables, "fft")


def solve_polar_direct(field: DensityField, tables: PolarKernelTables) -> ForceField:
    """Direct-summation twin of solve_polar (oracle)."""
    return _force(POLAR_TERMS, field, tables, "direct")


def polar_potential(field: DensityField, tables: PolarKernelTables | None = None) -> np.ndarray:
    """In-plane potential at polar cell centers from the same kernel method.

    Uses the potential-kernel family (exact radial antiderivatives,
    two-node trapezoid in theta) with density and slope terms plus the hole
    ring; returns shape (n, n).  Tables are tabulated on demand when not
    supplied with the potential kinds included.  A result holding inf or nan
    raises FloatingPointError.
    """
    grid = field.grid
    if grid.coords != "polar":
        raise ValueError("polar_potential needs a polar density field")
    if tables is None or any(k not in tables.tables for k in POTENTIAL_KINDS):
        tables = tabulate_polar_kernels(grid, kinds=POTENTIAL_KINDS)
    r = grid.r_centers[:, None]
    return finite(lambda: [-r * assemble(POTENTIAL_TERMS, field, tables)[0]], "potential")[0]
