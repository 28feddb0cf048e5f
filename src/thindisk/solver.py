"""Force-field assembly from kernel tables and density fields.

Every solver returns forces in the "attractive" convention: each component
points toward mass, as in the analytic disk models of models.py, so
numerical and analytic fields compare directly (``thindisk solve --sign
repulsive`` negates them on output).  ``assemble`` is the one spectral
recipe: a term table of (output, kernel kind, input plane) rows run over a
tables object's kernels by zero-padded FFT or by direct summation, for the
forces here and for baselines.softened_potential.  Cartesian FFT sums run
through convolve.parity_sums: the planes' axis-1 spectra share one stacked
(planes, n, n + 1) array, and the axis-0 transforms, products and inverses
run one block of columns at a time, a block about convolve.BLOCK_ENTRIES
entries whatever n is (convolve.column_blocks), each kind's real spectrum
quadrant read transposed (KernelTables.transposed_spectrum).  So a solve
holds half the spectral memory of whole padded spectra, and the stacked
array's free keeps glibc's heap serving the next solve and density sample
without fresh pages.  Polar sums sweep whole padded spectra in row blocks
(convolve.accumulate).  A polar term carries the target radius r_i to the
power kernels_polar.RADIUS_POWER gives its kind, for the forces'
radial-slope terms and every potential term alike: the direct sum
multiplies by r_i**p, the FFT sum folds (r_i / r_src)**p into the kernel
spectra and reads the input times r_src**p.  Note the two polar kernel
families come out of their defining integrals with opposite orientations
(the radial family is outward-positive, the azimuthal family
forward-positive); the radial flip happens here, not in the tables.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convolve import accumulate, cropped_ifft, direct_convolve, finite, padded_rfft2, \
    parity_sums, ring_convolve_direct
from .grids import CartesianGrid, PolarGrid
from .kernels_cartesian import PARITY, KernelTables
from .kernels_polar import POTENTIAL_KINDS, RADIUS_POWER, PolarKernelTables, \
    tabulate_polar_kernels
from .models import DensityField


@dataclass(frozen=True)
class ForceField:
    """Per-cell force components on one grid.

    ``comp_u``/``comp_v`` are (Fx, Fy) on Cartesian grids and (Fr, Ftheta)
    on polar grids, shape (n, n) with the same axis order as DensityField,
    attractive: each points toward mass.  Another shape raises ValueError;
    the values are not checked, as a force may hold inf or nan.
    """

    grid: CartesianGrid | PolarGrid
    comp_u: np.ndarray
    comp_v: np.ndarray

    def __post_init__(self):
        shape = (self.grid.n, self.grid.n)
        for name, a in (("comp_u", self.comp_u), ("comp_v", self.comp_v)):
            if np.shape(a) != shape:
                raise ValueError(f"{name} must have shape {shape}, got {np.shape(a)}")

    @property
    def coords(self) -> str:
        return self.grid.coords

    def radial(self, R=None) -> np.ndarray:
        """Radial projection (x*Fx + y*Fy)/R on Cartesian grids, 0 at R = 0
        (the center cell of an odd grid); comp_u on polar grids.  ``R``,
        the grid's ``center_radii()``, is formed here unless given."""
        if self.coords == "polar":
            return self.comp_u
        x, y = self.grid.x_centers[:, None], self.grid.y_centers[None, :]
        R = self.grid.center_radii() if R is None else R
        return np.divide(x * self.comp_u + y * self.comp_v, R, out=np.zeros_like(R), where=R > 0)


FORCE_COMPONENTS = ("force component comp_u", "force component comp_v")

# Term tables: a row (output, kernel kind, input plane) adds conv(kind, plane) to an
# output, times r_i**RADIUS_POWER[kind]; polar rows also run over the hole tables and rings.
CARTESIAN_TERMS = (
    (0, "x0", "values"), (0, "xx", "slope_u"), (0, "xy", "slope_v"),
    (1, "y0", "values"), (1, "yx", "slope_u"), (1, "yy", "slope_v"),
)
POLAR_TERMS = (
    (0, "r0", "values"), (0, "rr", "slope_u"), (0, "rt", "slope_v"),
    (1, "t0", "values"), (1, "tr", "slope_u"), (1, "tt", "slope_v"),
)
POTENTIAL_TERMS = ((0, "p0", "values"), (0, "pr", "slope_u"), (0, "pt", "slope_v"))


def _direct_sums(terms, field: DensityField, tables) -> dict:
    grid = field.grid
    passes = [(tables.table, "", lambda k, a: direct_convolve(k, a, pad_axes=grid.padded_axes))]
    if grid.coords == "polar":
        passes.append((tables.hole_table, "hole_", ring_convolve_direct))
    outs = {}
    for table, prefix, conv in passes:
        for out, kind, plane in terms:
            p, term = RADIUS_POWER.get(kind, 0), conv(table(kind), getattr(field, prefix + plane))
            term = grid.r_centers[:, None] ** p * term if p else term
            outs[out] = outs[out] + term if out in outs else term
    return outs


def _source(field: DensityField, prefix: str, plane: str, p: int) -> np.ndarray:
    """A plane, or with prefix "hole_" a hole ring, times the source radius
    to the power p of the kinds it feeds (whose spectra hold (r_i / r_src)**p)."""
    a, grid = getattr(field, prefix + plane), field.grid
    return (grid.hole_radius_mid if prefix else grid.r_centers[:, None]) ** p * a if p else a


def _fft_sums(terms, field: DensityField, tables) -> dict:
    grid, n = field.grid, field.grid.n
    # each row reads the _source of its plane; each source is transformed once
    rows = [(out, kind, (plane, RADIUS_POWER.get(kind, 0))) for out, kind, plane in terms]
    reads = {key: [(out, kind) for out, kind, k in rows if k == key] for _, _, key in rows}
    if grid.coords != "polar":
        # Cartesian spectra, the kinds in PARITY, are real quadrants, read
        # transposed; those of x0 and y0 carry a factor 1j, which goes once
        # onto the one plane they (and no other kind) read
        return parity_sums([(_source(field, "", *key),
                             any(PARITY[kind][0] * PARITY[kind][1] < 0 for _, kind in kr),
                             [(out, tables.transposed_spectrum(kind), PARITY[kind][0])
                              for out, kind in kr]) for key, kr in reads.items()], n)
    accs = {}
    for key, kr in reads.items():
        accumulate(accs, [(out, tables.spectrum(kind)) for out, kind in kr],
                   padded_rfft2(_source(field, "", *key), (2 * n, n)))
    # a hole sum is a circular theta-convolution: it joins its output's theta
    # spectrum between the radial inverse and the one theta inverse
    rings = {key: np.fft.rfft(_source(field, "hole_", *key)) for key in reads}
    specs = {out: cropped_ifft(acc, n) for out, acc in accs.items()}
    product = np.empty_like(specs[rows[0][0]])
    for out, kind, key in rows:
        specs[out] += np.multiply(tables.hole_spectrum(kind), rings[key], out=product)
    return {out: np.fft.irfft(spec, n=n, axis=1) for out, spec in specs.items()}


def assemble(terms, field: DensityField, tables, backend: str = "fft") -> list:
    """Run a term table; one (n, n) array per output, in output order.

    "direct" convolves term by term (the O(n^4) oracle), multiplies each
    polar term by r_i**RADIUS_POWER[kind] and sums in table order, plane
    terms before hole-ring terms.  "fft" transforms each input once into one
    spectral accumulator per output and inverts each accumulator once:
    Cartesian ones a block of columns at a time (convolve.parity_sums),
    polar ones along r only, adding the hole-ring products to their theta
    spectra before one theta inverse per output.  It reads the input of a row times
    r_src**p, p = RADIUS_POWER[kind], the kernel spectra holding
    (r_i / r_src)**p.  Tables built on another grid than the field's raise
    ValueError: every solver and polar_potential run this one check."""
    if field.grid is not tables.grid and field.grid != tables.grid:
        raise ValueError("density field and kernel tables were built on different grids")
    outs = {"fft": _fft_sums, "direct": _direct_sums}[backend](terms, field, tables)
    return [outs[k] for k in sorted(outs)]


def _force(coords: str, field: DensityField, tables, backend: str) -> ForceField:
    """The force of a ``coords`` solver; a field of the other geometry, or
    tables of another grid (assemble), raise ValueError."""
    if field.grid.coords != coords:
        raise ValueError(f"a {coords} solver cannot solve a {field.grid.coords} density field")
    terms = POLAR_TERMS if coords == "polar" else CARTESIAN_TERMS
    u, v = finite(lambda: assemble(terms, field, tables, backend), *FORCE_COMPONENTS)
    if coords == "polar":
        np.negative(u, out=u)   # radial family orientation: its integrand is outward-positive
    return ForceField(field.grid, u, v)


def solve_cartesian(field: DensityField, tables: KernelTables) -> ForceField:
    """Both force components as three kernel convolutions each."""
    return _force("cartesian", field, tables, "fft")


def solve_cartesian_direct(field: DensityField, tables: KernelTables) -> ForceField:
    """Direct-summation twin of solve_cartesian (oracle and benchmark path)."""
    return _force("cartesian", field, tables, "direct")


def solve_polar(field: DensityField, tables: PolarKernelTables) -> ForceField:
    """Radial and azimuthal forces with ring and hole-cell contributions.

    The radial-slope terms carry a target-radius factor r_i, and on the
    geometric grid r_i / r_src depends on the offset alone: the kernel
    spectra hold it and the slope planes are read times r_src
    (kernels_polar.RADIUS_POWER), so every sum stays a pure offset
    convolution.  The azimuthal force needs no 1/r_i prefactor because it
    cancels against the kernel's own scale.
    """
    return _force("polar", field, tables, "fft")


def solve_polar_direct(field: DensityField, tables: PolarKernelTables) -> ForceField:
    """Direct-summation twin of solve_polar (oracle)."""
    return _force("polar", field, tables, "direct")


def polar_potential(field: DensityField, tables: PolarKernelTables | None = None) -> np.ndarray:
    """In-plane potential at polar cell centers from the same kernel method.

    Uses the potential-kernel family (exact radial antiderivatives,
    two-node trapezoid in theta) with density and slope terms plus the hole
    ring; returns shape (n, n).  Every term carries the target radius r_i
    by the forces' rule (kernels_polar.RADIUS_POWER), so the FFT sums stay
    pure offset convolutions.  Tables are tabulated on demand when not
    supplied with the potential kinds included; potential tables of another
    grid raise ValueError (assemble), as in the solvers.  The field is
    assembled scaled by 2**-e, e the binary exponent of its largest
    magnitude, and the result scaled back: powers of two scale exactly, and
    the unnormalized spectral products, which would leave the double range
    long before the potential does, stay near the kernels' own scale.  A
    result holding inf or nan raises FloatingPointError.
    """
    grid = field.grid
    if grid.coords != "polar":
        raise ValueError("polar_potential needs a polar density field")
    if tables is None or any(k not in tables.tables for k in POTENTIAL_KINDS):
        tables = tabulate_polar_kernels(grid, kinds=POTENTIAL_KINDS)
    _, e = np.frexp(max(np.abs(a).max() for a in field.planes().values()))
    unit = field.scaled(np.ldexp(1.0, -e))
    return finite(lambda: [np.ldexp(-assemble(POTENTIAL_TERMS, unit, tables)[0], e)],
                  "potential")[0]
