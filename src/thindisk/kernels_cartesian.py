"""Closed-form Cartesian force kernels tabulated over cell offsets.

Each kernel is the integral over one source cell of the in-plane force
Green's function derivative times 1, (xbar - x_src) or (ybar - y_src); all
six have exact antiderivatives evaluated as double corner differences.  The
tables depend on the offsets (di, dj) = (i - i', j - j') only, which is what
makes the force sums convolutions.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .grids import CartesianGrid

KINDS = ("x0", "xx", "xy", "y0", "yx", "yy")
X_KINDS = KINDS[:3]
_Y_FROM_X = {"y0": "x0", "yx": "xy", "yy": "xx"}    # y-kind: x-kind with the axes swapped
# (row, column) parity under di -> -di and dj -> -dj; a spectrum has its
# table's parity, and is real or, odd in one axis only, imaginary
PARITY = {"x0": (-1, 1), "xx": (1, 1), "xy": (-1, -1), "y0": (1, -1), "yx": (-1, -1), "yy": (1, 1)}


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
    # integral of u^2/(u^2+v^2)^{3/2}
    return _xx_tail(v, _log_plus_hypot(u, v))


def _xx_tail(v, log_uv):
    # v * log(u + hypot(u, v)); the factor vanishes as v -> 0
    with np.errstate(invalid="ignore"):
        t = np.asarray(v, dtype=float) * log_uv
    return np.where(v == 0.0, 0.0, t)


def _anti_xy_tail(u, v):
    # integral of u*v/(u^2+v^2)^{3/2}
    return -np.hypot(u, v)


def _assemble(kind, corners, di, dj, dx, k0=None):
    """One x-family kernel at offsets (di, dj) from its antiderivatives.

    corners(fn) returns fn at the source cells' (up, vp), (um, vp), (up, vm)
    and (um, vm) corners, shaped like the offsets.  k0, the x0 kernel at the
    same offsets, is computed unless given.
    """
    def diff(fn):
        pp, mp, pm, mm = corners(fn)
        return pp - mp - pm + mm

    if k0 is None:
        k0 = diff(_anti_x0)
    if kind == "x0":
        return k0
    if kind == "xx":
        return di * dx * k0 + diff(_anti_xx_tail)
    # kind == "xy"
    return dj * dx * k0 + diff(_anti_xy_tail)


def _parity_signs(kind, di, dj):
    """Factors carrying a kernel from offsets (-|di|, -|dj|) to (di, dj)."""
    pr, pc = PARITY[kind]
    return np.where(di > 0, pr, 1), np.where(dj > 0, pc, 1)


def eval_cartesian_kernel(kind: str, di, dj, grid: CartesianGrid) -> np.ndarray:
    """Kernel value(s) for offsets (di, dj) = (i - i', j - j').

    di, dj may be scalars or broadcastable integer arrays.  The y-family is
    the x-family with the roles of the two axes exchanged.  Each kernel is
    evaluated at the offsets (-|di|, -|dj|), whose corner coordinates are
    positive (bar the near edge at offset 0), so its log terms need no
    cancellation-free rewrite, and carried to (di, dj) by its exact parity.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}")
    di = np.asarray(di)
    dj = np.asarray(dj)
    if kind.startswith("y"):
        return eval_cartesian_kernel(_Y_FROM_X[kind], dj, di, grid)

    dx = grid.dx
    a, b = -np.abs(di), -np.abs(dj)
    corners = _point_corners((0.5 - a) * dx, (-0.5 - a) * dx, (0.5 - b) * dx, (-0.5 - b) * dx)
    row, col = _parity_signs(kind, di, dj)
    return _assemble(kind, corners, a, b, dx) * row * col


def wrap_offsets(n: int) -> np.ndarray:
    """Offsets [0..n, -n+1..-1] in the wrap-around order of a 2n transform."""
    return np.concatenate([np.arange(n + 1), np.arange(-n + 1, 0)])


def _parity_transform(a: np.ndarray, parity) -> np.ndarray:
    """2D DFT of the 2n-periodic extension of a's entries 0..n that is even
    (+1) or odd (-1) along each axis as ``parity`` says: a DCT-I along each
    even axis, and along each odd one a DST-I of entries 1..n-1, which is
    the DFT times 1j and vanishes at 0 and n.  Odd axes go first."""
    odd = tuple(axis for axis, p in enumerate(parity) if p < 0)
    even = tuple(axis for axis, p in enumerate(parity) if p > 0)
    inner = tuple(slice(1, -1) if p < 0 else slice(None) for p in parity)
    r = scipy.fft.dstn(a[inner], type=1, axes=odd) if odd else a
    r = scipy.fft.dctn(r, type=1, axes=even) if even else r
    if not odd:
        return r
    out = np.zeros_like(a)
    out[inner] = r
    return out


@dataclass
class KernelTables:
    """The x-family kernels at non-negative offsets; parity and the axis swap
    give every other entry and the y-family.

    ``tables[kind]`` for kind in X_KINDS is the (n+1) x (n+1) quadrant whose
    entry [a, b] is the kernel at offsets (di, dj) = (a, b).  ``table(kind)``
    rebuilds any of the six kinds in the 2n x 2n wrap layout of
    wrap_offsets(n), and ``spectrum(kind)`` gives the real quadrant of its
    half-spectrum (see spectrum).  Both are cached on first use, so repeated
    solves on one grid pay the transforms once.
    """

    grid: CartesianGrid
    tables: dict = field(repr=False)
    _full: dict = field(default_factory=dict, repr=False)
    _spectra: dict = field(default_factory=dict, repr=False)

    def table(self, kind: str) -> np.ndarray:
        if kind not in self._full:
            x = _Y_FROM_X.get(kind, kind)
            if kind != x:
                self._full[kind] = np.ascontiguousarray(self.table(x).T)
            else:
                offs = wrap_offsets(self.grid.n)
                row, col = (np.where(offs < 0, p, 1.0) for p in PARITY[kind])
                mirror = np.ix_(np.abs(offs), np.abs(offs))
                self._full[kind] = self.tables[kind][mirror] * row[:, None] * col[None, :]
        return self._full[kind]

    def spectrum(self, kind: str) -> np.ndarray:
        """Real (n+1) x (n+1) quadrant R of the kind's rfft2 half-spectrum.

        Rows 0..n of the 2n x (n+1) half-spectrum are R, times 1j for the
        kinds odd in one axis only (x0, y0); rows n+1..2n-1 are R's rows
        n-1..1 times the kind's row parity.  The y-family gets a transposed
        copy of its x-kind's quadrant, row-contiguous for the solver's row
        blocks.  The wrap-layout entries at offset n
        of an odd axis never reach the aperiodic sum and count as zero.
        """
        if kind not in self._spectra:
            x = _Y_FROM_X.get(kind, kind)
            if kind != x:
                self._spectra[kind] = np.ascontiguousarray(self.spectrum(x).T)
            else:
                r = _parity_transform(self.tables[x], PARITY[x])
                self._spectra[kind] = r if PARITY[x] == (1, 1) else -r
        return self._spectra[kind]


def tabulate_cartesian_kernels(grid: CartesianGrid, threads: int = 1) -> KernelTables:
    """Tabulate the x-family quadrants at offsets 0..n.

    Like eval_cartesian_kernel, each kernel is evaluated at the non-positive
    offsets -n..0 and carried over by its parity.  Cells share corners (um
    at offset d is up at d + 1), so each antiderivative is evaluated once
    on the (n+2)^2 corner lattice.  Tables are bit-identical to
    eval_cartesian_kernel; ``threads`` is ignored.
    """
    n = grid.n
    d = np.arange(-n, 1)
    u = (0.5 - np.arange(-n, 2)) * grid.dx
    uu, vv = u[:, None], u[None, :]
    h = np.hypot(uu, vv)
    # log(u + hypot(u, v)): u > 0 on every lattice row but the last, which
    # alone needs _log_plus_hypot's rewrite.  Both axes share the
    # coordinates u, so log(v + hypot(v, u)) is the transpose, and one log
    # evaluation serves x0 and xx
    log_uv = np.add(uu, h)
    np.log(log_uv[:-1], out=log_uv[:-1])
    log_uv[-1] = _log_plus_hypot(u[-1], u)
    values = {_anti_x0: np.negative(log_uv.T, order="C"),
              _anti_xx_tail: _xx_tail(vv, log_uv),
              _anti_xy_tail: np.negative(h, out=h)}
    del log_uv, h
    corners = _lattice_corners(values.__getitem__, slice(0, -1), slice(1, None))
    di, dj = d[:, None], d[None, :]
    k0 = _assemble("x0", corners, di, dj, grid.dx)
    tables = {}
    for kind in X_KINDS:
        t = np.ascontiguousarray(_assemble(kind, corners, di, dj, grid.dx, k0)[::-1, ::-1])
        # parity carries offset -a to a: negate the odd axes' entries 1..n
        for axis, p in enumerate(PARITY[kind]):
            if p < 0:
                part = t[(slice(None),) * axis + (slice(1, None),)]
                np.negative(part, out=part)
        tables[kind] = t
    return KernelTables(grid=grid, tables=tables)
