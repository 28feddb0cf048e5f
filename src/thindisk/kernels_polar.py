"""Polar force kernels on the logarithmic grid.

Radial-force kernels combine exact radial antiderivatives (H1, H2) with a
two-node trapezoid rule in theta; the integrand's log(1 - cos) singularity
caps that rule at first order, which is the method's accuracy limit in
polar coordinates.  Azimuthal-force kernels for the density and radial-slope
terms have exact double antiderivatives; the theta-slope kind is trapezoid
based like the radial family.  Matching "hole" kernels integrate over the
small disk [0, r_edges[0]] that the logarithmic rings never reach.

All tables are dimensionless functions of the index offsets alone.  A
kind's force or potential term carries the target radius r_i to the power
RADIUS_POWER[kind] (the potential's outer r_i included); since r_i / r_src
= ratio**-di depends on the offset alone, its spectra fold (r_i / r_src)**p
into the table (spectrum, hole_spectrum) and the solver convolves the
input plane times r_src**p.  The tables stay unscaled, and the overall
orientation sign lives in solver.py.

Tabulation forms the chord terms once on the whole lattice of radial
limits by trapezoid nodes, then evaluates each closed form, written as its
one-line expression, one block of table rows at a time.

The kind tags: "r0", "rr", "rt" build the radial force from (density,
d/dr slope, d/dtheta slope); "t0", "tr", "tt" build the azimuthal force;
"p0", "pr", "pt" are the analogous kernels for the in-plane potential.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .convolve import finite, padded_rfft2, wrap_offsets
from .grids import PolarGrid
from .kernels_cartesian import _cached, _log_plus_hypot, _point_corners

KINDS = ("r0", "rr", "rt", "t0", "tr", "tt")
POTENTIAL_KINDS = ("p0", "pr", "pt")
# the power of the target radius r_i that a kind's force or potential term
# carries; the only statement of that rule, for both backends
RADIUS_POWER = {"rr": 1, "tr": 1, "p0": 1, "pt": 1, "pr": 2}
# table rows that tabulate_polar_kernels fills per pass over the kinds
BLOCK_ROWS = 32


class SingularEvaluationError(ValueError):
    """Antiderivative evaluated at its logarithmic singularity."""


def eval_F(t, theta) -> np.ndarray:
    """Chord factor sqrt(1 + t^2 - 2 t cos(theta)) for dimensionless radius t."""
    return np.hypot(np.asarray(t, dtype=float) - np.cos(theta), np.sin(theta))


def _check_regular(t, theta):
    arg = -np.cos(theta) + np.asarray(t, float) + eval_F(t, theta)
    if np.any(arg <= 0):
        raise SingularEvaluationError(
            "antiderivative log argument vanishes (theta = 0 mod 2pi with t <= 1)")


def _chord(t, u):
    """(t, cos u, sin u, F, L) at the points (t, u), shared by every antiderivative.

    L = log(t - cos u + F) in its cancellation-free form.  Its argument
    vanishes only for u = 0 (mod 2pi) with t <= 1; trapezoid nodes sit half
    a cell away from every center, so tabulation never lands there.
    """
    t = np.asarray(t, dtype=float)
    c, s = np.cos(u), np.sin(u)
    a = t - c
    F = np.hypot(a, s)
    return t, c, s, F, _log_plus_hypot(a, s, F)


# ---------------------------------------------------------------------------
# radial, azimuthal-family and potential-family antiderivatives of the chord
# terms (t, c, s, F, L) = _chord(t, u)
#
# _h1 and _h2 are the radial antiderivatives of t*(1 - t*cos(u))/F^3 and
# t^2*(1 - t*cos(u))/F^3; eval_H1 and eval_H2 add the singularity guard.
# The printed closed forms circulating for the azimuthal kernels fail the
# quadrature oracle (see tests), so these are derived from scratch:
#   d2/du dt of _az0 = t^2 sin(u)/F^3
#   d2/du dt of _az1 = t^3 sin(u)/F^3
#   d/dt    of _az2 = sin(u) * (radial antiderivative of t^2/F^3)
#   d/dt    of _pot0 = t/F,   d/dt of _pot1 = t^2/F


def _h1(t, c, s, F, L):
    return -c * L + (2.0 * c * t - 1.0) / F


def _h2(t, c, s, F, L):
    return -((3.0 * c * c - 1.0) * L + (-6.0 * t * c * c + 3.0 * c + t * t * c + t) / F)


def eval_H1(t, theta) -> np.ndarray:
    """Radial antiderivative of t*(1 - t*cos(theta))/F^3."""
    _check_regular(t, theta)
    return _h1(*_chord(t, theta))


def eval_H2(t, theta) -> np.ndarray:
    """Radial antiderivative of t^2*(1 - t*cos(theta))/F^3."""
    _check_regular(t, theta)
    return _h2(*_chord(t, theta))


def _az0(t, c, s, F, L):
    return -(F + c * L)


def _az1(t, c, s, F, L):
    return -(0.5 * (t + 3.0 * c) * F + 0.5 * (3.0 * c * c - 1.0) * L)


def _az2(t, c, s, F, L):
    return s * L - (t * (1.0 - 2.0 * c * c) + c) / (s * F)


def _pot0(t, c, s, F, L):
    return F + c * L


def _pot1(t, c, s, F, L):
    return 0.5 * ((t + 3.0 * c) * F + (3.0 * c * c - 1.0) * L)


def _theta_nodes(dj, dtheta):
    """Trapezoid node angles relative to the target center for offset j - j'."""
    dj = np.asarray(dj)
    return (-dj + 0.5) * dtheta, (-dj - 0.5) * dtheta


def _radial_limits(di, grid: PolarGrid):
    """Dimensionless cell limits r_{i'+-1/2}/r_i as functions of di = i - i'."""
    b = grid.ratio
    tp = 2.0 * np.power(b, np.asarray(di, dtype=float)) / (1.0 + b)
    return tp, b * tp


def _assemble(kind, corners, ratio_correction, dtheta):
    """One kernel value from the antiderivatives at its cell corners.

    corners(f) returns (a - b, c - d, c, d) of f at a = (tp, up), b = (tm, up),
    c = (tp, um) and d = (tm, um): the radial limits tp > tm of the source
    cell crossed with the two trapezoid nodes.  ratio_correction is
    r_src/r_target (beta**di for ring cells, r0/r_i for hole cells); it
    multiplies the zeroth-order kernel inside the slope kinds.
    """
    def trap(f):
        ab, _, c, d = corners(f)
        return 0.5 * (ab + c - d) * dtheta

    def trap_weighted(f):
        # node weight is (thetabar - theta_src) = +-dtheta/2
        ab, cd, _, _ = corners(f)
        return 0.25 * dtheta * (ab - cd) * dtheta

    def corner(f):
        ab, cd, _, _ = corners(f)
        return ab - cd

    formulas = {
        "r0": lambda: trap(_h1),
        "rr": lambda: trap(_h2) - ratio_correction * trap(_h1),
        "rt": lambda: trap_weighted(_h1),
        "t0": lambda: corner(_az0),
        "tr": lambda: corner(_az1) - ratio_correction * corner(_az0),
        "tt": lambda: trap_weighted(_az2),
        "p0": lambda: trap(_pot0),
        "pr": lambda: trap(_pot1) - ratio_correction * trap(_pot0),
        "pt": lambda: trap_weighted(_pot0),
    }
    if kind not in formulas:
        raise ValueError(f"unknown kernel kind {kind!r}")
    return formulas[kind]()


def eval_polar_kernel(kind: str, di, dj, grid: PolarGrid) -> np.ndarray:
    """Ring-cell kernel at radial offset di = i - i', angular offset dj = j - j'."""
    corners = _point_corners(_chord, *_radial_limits(di, grid), *_theta_nodes(dj, grid.dtheta))
    corr = np.power(grid.ratio, np.asarray(di, dtype=float))
    return _assemble(kind, corners, corr, grid.dtheta)


def _hole_correction(i, grid: PolarGrid):
    """r0/r_i, the hole's representative radius over the target ring's:
    (ratio**n M / 2) / (ratio**(n - i) M (1 + ratio) / 2), free of M."""
    return grid.ratio ** np.asarray(i, dtype=float) / (1.0 + grid.ratio)


def _radius_ratios(grid: PolarGrid):
    """r_src / r_i as columns: ratio**di per wrap-layout ring-table row, and
    r_h / r_i (the hole's representative radius) per hole-table row."""
    return (np.power(grid.ratio, wrap_offsets(grid.n).astype(float))[:, None],
            _hole_correction(np.arange(1, grid.n + 1), grid)[:, None])


def eval_hole_kernel(kind: str, i, dj, grid: PolarGrid) -> np.ndarray:
    """Hole-cell kernel for absolute target ring i >= 1 and offset dj.

    Radial limits run from 0 to r_edges[0]/r_i, which is the ring limit tp
    at di = i; the slope kinds measure the radial excursion from the hole's
    representative radius.
    """
    i = np.asarray(i)
    if np.any(i < 1):
        raise ValueError("hole kernels are defined for target rings i >= 1")
    th, _ = _radial_limits(i, grid)
    corners = _point_corners(_chord, th, np.zeros_like(th), *_theta_nodes(dj, grid.dtheta))
    return _assemble(kind, corners, _hole_correction(i, grid), grid.dtheta)


@dataclass
class PolarKernelTables:
    """Ring tables in wrap layout (2n, n) plus hole tables (n, n).

    Ring entry [p, q] is the kernel at di = wrap_offsets(n)[p] (radial zero
    padding) and dj = q taken modulo n (the azimuthal axis is genuinely
    periodic).  Hole entry [i-1, q] is for absolute target ring i.
    """

    grid: PolarGrid
    tables: dict = field(repr=False)
    hole_tables: dict = field(repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    def table(self, kind: str) -> np.ndarray:
        return self.tables[kind]

    def hole_table(self, kind: str) -> np.ndarray:
        return self.hole_tables[kind]

    def _folded(self, kind: str, hole: bool) -> np.ndarray:
        """The ring or hole table, times (r_i / r_src)**RADIUS_POWER[kind]."""
        p, a = RADIUS_POWER.get(kind, 0), (self.hole_tables if hole else self.tables)[kind]
        return a / _radius_ratios(self.grid)[hole] ** p if p else a

    def spectrum(self, kind: str) -> np.ndarray:
        return _cached(self._cache, ("ring", kind),
                       lambda: padded_rfft2(self._folded(kind, False), self.tables[kind].shape))

    def hole_spectrum(self, kind: str) -> np.ndarray:
        return _cached(self._cache, ("hole", kind),
                       lambda: np.fft.rfft(self._folded(kind, True), axis=1))


def _block_corners(terms, h):
    """Corner provider over a block of lattice rows, terms = _chord's there.

    Rows :h hold the source cells' radial limits tp and rows h: their limits
    tm (one row broadcasts over all); column k is node up of cell k and um of
    cell k - 1.  corners(f) gives (a - b, c - d, c, d) as _assemble names
    them, from one evaluation of f per block.
    """
    memo = {}

    def corners(f):
        if f not in memo:
            v = f(*terms)
            d = v[:h] - v[h:]
            memo[f] = d[:, :-1], d[:, 1:], v[:h, 1:], v[h:, 1:]
        return memo[f]
    return corners


def tabulate_polar_kernels(grid: PolarGrid, kinds=KINDS, threads: int = 1) -> PolarKernelTables:
    """Tabulate the requested kinds over all offsets.

    ``kinds`` may include the potential family; force and potential tables
    share the layout and the solver picks what it needs.  _chord is formed
    once on the whole lattice of radial limits by trapezoid nodes (um at dj
    is up at dj + 1), then the tables are filled BLOCK_ROWS rows at a time
    from the lattice rows each block reads.  tm stays b*tp, which differs
    from tp at di + 1 in the last bit.  Tables are bit-identical to
    eval_polar_kernel and eval_hole_kernel; ``threads`` is ignored.  A grid
    so stretched that a table holds inf or nan raises FloatingPointError
    naming the first such kind.
    """
    n = grid.n

    def tabulate():
        tp, tm = _radial_limits(wrap_offsets(n), grid)
        t = np.concatenate([tp, tm, [0.0]])     # ring limits, then the hole's inner one
        # the chord stays whole: freeing its two lattice-sized arrays raises
        # glibc's mmap threshold above a polar solve's spectral buffers, which
        # then reuse the heap; blocked chord arrays leave every solve faulting
        t, c, s, F, L = _chord(t[:, None], _theta_nodes(np.arange(n + 1), grid.dtheta)[0][None, :])
        # a ring block reads its tp rows and their tm rows 2n..; hole limits
        # th(i) are the ring limits tp at di = i = 1..n, over the t = 0 row
        lattices = (lambda b: np.concatenate([b, b + 2 * n]), lambda b: np.append(b + 1, 4 * n))
        tables = []
        for lattice, ratio in zip(lattices, _radius_ratios(grid)):
            tables.append({k: np.empty((len(ratio), n)) for k in kinds})
            for lo in range(0, len(ratio), BLOCK_ROWS):
                block = np.arange(lo, min(lo + BLOCK_ROWS, len(ratio)))
                rows = lattice(block)
                corners = _block_corners((t[rows], c, s, F[rows], L[rows]), len(block))
                for k in kinds:
                    tables[-1][k][block] = _assemble(k, corners, ratio[block], grid.dtheta)
        return [part[k] for k in kinds for part in tables]

    arrays = finite(tabulate, *(f"{k} {part} table" for k in kinds for part in ("ring", "hole")))
    return PolarKernelTables(grid, dict(zip(kinds, arrays[::2])), dict(zip(kinds, arrays[1::2])))
