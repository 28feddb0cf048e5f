"""Closed-form Cartesian force kernels tabulated over cell offsets.

Each kernel is the integral over one source cell of the in-plane force
Green's function derivative times 1, (xbar - x_src) or (ybar - y_src); all
six have exact antiderivatives evaluated as double corner differences.  The
tables depend on the offsets (di, dj) = (i - i', j - j') only, which is what
makes the force sums convolutions.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .grids import CartesianGrid

KINDS = ("x0", "xx", "xy", "y0", "yx", "yy")
_Y_FROM_X = {"y0": "x0", "yx": "xy", "yy": "xx"}    # y-kind: x-kind with the axes swapped


def _log_plus_hypot(a, b):
    """log(a + hypot(a, b)), rewritten for a < 0 to avoid cancellation.

    For a < 0: a + hypot(a,b) = b^2/(hypot(a,b) - a).  b must be nonzero
    when a <= 0; Cartesian corners and polar trapezoid nodes sit half a
    cell off every center, so b == 0 never arises from integer offsets.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    h = np.hypot(a, b)
    pos = a > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(pos, np.log(np.where(pos, a, 1.0) + h),
                       2.0 * np.log(np.abs(b)) - np.log(h - np.where(pos, 0.0, a)))
    return out


def _point_corners(up, um, vp, vm):
    """Corner provider: fn at (up, vp), (um, vp), (up, vm) and (um, vm)."""
    return lambda fn: (fn(up, vp), fn(um, vp), fn(up, vm), fn(um, vm))


def _lattice_corners(values, plus, minus):
    """Corner provider over a lattice; values(fn) is fn on the whole lattice.

    Lattice rows ``plus``/``minus`` hold the cells' up/um; column k is vp of
    cell k and vm of cell k - 1.
    """
    def corners(fn):
        c = values(fn)
        return c[plus, :-1], c[minus, :-1], c[plus, 1:], c[minus, 1:]
    return corners


def _anti_x0(u, v):
    # integral of u/(u^2+v^2)^{3/2}
    return -_log_plus_hypot(v, u)


def _anti_xx_tail(u, v):
    # integral of u^2/(u^2+v^2)^{3/2}; the v*log factor vanishes as v -> 0
    with np.errstate(invalid="ignore"):
        t = np.asarray(v, dtype=float) * _log_plus_hypot(u, v)
    return np.where(v == 0.0, 0.0, t)


def _anti_xy_tail(u, v):
    # integral of u*v/(u^2+v^2)^{3/2}
    return -np.hypot(u, v)


def _assemble(kind, corners, di, dj, dx):
    """One x-family kernel at offsets (di, dj) from its antiderivatives.

    corners(fn) returns fn at the source cells' (up, vp), (um, vp), (up, vm)
    and (um, vm) corners, shaped like the offsets.
    """
    def diff(fn):
        pp, mp, pm, mm = corners(fn)
        return pp - mp - pm + mm

    k0 = diff(_anti_x0)
    if kind == "x0":
        return k0
    if kind == "xx":
        return di * dx * k0 + diff(_anti_xx_tail)
    # kind == "xy"
    return dj * dx * k0 + diff(_anti_xy_tail)


def eval_cartesian_kernel(kind: str, di, dj, grid: CartesianGrid) -> np.ndarray:
    """Kernel value(s) for offsets (di, dj) = (i - i', j - j').

    di, dj may be scalars or broadcastable integer arrays.  The y-family is
    the x-family with the roles of the two axes exchanged.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}")
    di = np.asarray(di)
    dj = np.asarray(dj)
    if kind.startswith("y"):
        return eval_cartesian_kernel(_Y_FROM_X[kind], dj, di, grid)

    dx = grid.dx
    corners = _point_corners((0.5 - di) * dx, (-0.5 - di) * dx, (0.5 - dj) * dx, (-0.5 - dj) * dx)
    return _assemble(kind, corners, di, dj, dx)


def wrap_offsets(n: int) -> np.ndarray:
    """Offsets [0..n, -n+1..-1] in the wrap-around order of a 2n transform."""
    return np.concatenate([np.arange(n + 1), np.arange(-n + 1, 0)])


def _lazy_spectrum(attr: str, transform):
    """Method caching transform(self.<attr>[kind]) per kind in self._spectra."""
    def spectrum(self, kind: str) -> np.ndarray:
        if (attr, kind) not in self._spectra:
            self._spectra[attr, kind] = transform(getattr(self, attr)[kind])
        return self._spectra[attr, kind]
    return spectrum


@dataclass
class KernelTables:
    """All six kernels tabulated in the 2n x 2n wrap-around layout.

    Entry [p, q] holds the kernel at offsets (di, dj) = (offs[p], offs[q])
    with offs = wrap_offsets(n); forward spectra are cached on first use so
    repeated solves on one grid pay the transforms once.
    """

    grid: CartesianGrid
    tables: dict = field(repr=False)
    _spectra: dict = field(default_factory=dict, repr=False)

    def table(self, kind: str) -> np.ndarray:
        return self.tables[kind]

    # numpy.fft is looked up per call, so code that wraps its functions sees these
    spectrum = _lazy_spectrum("tables", lambda a: np.fft.rfft2(a))


def tabulate_cartesian_kernels(grid: CartesianGrid, threads: int = 1) -> KernelTables:
    """Tabulate the x-family over all wrapped offsets; the y-family is its
    transpose.

    Cells share corners (um at offset d is up at d + 1), so each
    antiderivative is evaluated once on the (2n+1)^2 corner lattice.  Tables
    are bit-identical to eval_cartesian_kernel; ``threads`` is ignored.
    """
    n = grid.n
    d = np.arange(-n + 1, n + 1)
    u = (0.5 - np.arange(-n + 1, n + 2)) * grid.dx
    values = functools.cache(lambda fn: fn(u[:, None], u[None, :]))
    corners = _lattice_corners(values, slice(0, -1), slice(1, None))
    # ascending offsets -n+1..n rolled into the order of wrap_offsets(n)
    tables = {kind: np.roll(_assemble(kind, corners, d[:, None], d[None, :], grid.dx),
                            (1 - n, 1 - n), axis=(0, 1))
              for kind in ("x0", "xx", "xy")}
    tables.update({y: np.ascontiguousarray(tables[x].T) for y, x in _Y_FROM_X.items()})
    return KernelTables(grid=grid, tables=tables)
