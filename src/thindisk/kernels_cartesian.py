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

from .convolve import parity_rfft2, wrap_offsets
from .grids import CartesianGrid

KINDS = ("x0", "xx", "xy", "y0", "yx", "yy")
X_KINDS = KINDS[:3]
_Y_FROM_X = {"y0": "x0", "yx": "xy", "yy": "xx"}    # y-kind: x-kind with the axes swapped
# (row, column) parity under di -> -di and dj -> -dj; a spectrum has its
# table's parity, and is real or, odd in one axis only, imaginary.  "soft"
# is the softened point-mass potential kernel of baselines.softened_potential
PARITY = {"x0": (-1, 1), "xx": (1, 1), "xy": (-1, -1), "y0": (1, -1), "yx": (-1, -1),
          "yy": (1, 1), "soft": (1, 1)}


def _log_plus_hypot(a, b, h=None):
    """log(a + hypot(a, b)), rewritten for a <= 0 to avoid cancellation.

    For a <= 0: a + hypot(a,b) = b^2/(hypot(a,b) - a).  b must be nonzero
    when a <= 0; Cartesian corners and polar trapezoid nodes sit half a
    cell off every center, so b == 0 never arises from integer offsets.
    h, if given, is hypot(a, b).  Each point's log argument is formed by
    its own branch alone, so one log per point serves both branches.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    h = np.hypot(a, b) if h is None else h
    pos = a > 0
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.add(a, h, out=out, where=pos)
        np.subtract(h, a, out=out, where=~pos)
        np.log(out, out=out)
        np.subtract(2.0 * np.log(np.abs(b)), out, out=out, where=~pos)
    return out


def _point_corners(terms, ap, am, bp, bm):
    """Corner provider at pp = (ap, bp), mp = (am, bp), pm = (ap, bm) and
    mm = (am, bm): corners(fn) gives (pp - mp, pm - mm, pm, mm) of
    fn(*terms(a, b)); terms, the antiderivatives' arguments, is evaluated once."""
    points = [terms(a, b) for b in (bp, bm) for a in (ap, am)]

    def corners(fn):
        pp, mp, pm, mm = (fn(*p) for p in points)
        return pp - mp, pm - mm, pm, mm
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

    corners(fn) returns (pp - mp, pm - mm, pm, mm) of fn at the source
    cells' pp = (up, vp), mp = (um, vp), pm = (up, vm) and mm = (um, vm)
    corners, shaped like the offsets.  k0, the x0 kernel at the same
    offsets, is computed unless given.
    """
    def diff(fn):
        # pp - mp - pm + mm, in the new array pp - mp that corners formed
        dp, _, pm, mm = corners(fn)
        dp -= pm
        dp += mm
        return dp

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
    return np.where(di > 0, pr, 1.0), np.where(dj > 0, pc, 1.0)


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
    corners = _point_corners(lambda u, v: (u, v), (0.5 - a) * dx, (-0.5 - a) * dx,
                             (0.5 - b) * dx, (-0.5 - b) * dx)
    row, col = _parity_signs(kind, di, dj)
    return _assemble(kind, corners, a, b, dx) * row * col


def _cached(cache: dict, key, build):
    """cache[key], from build() on first use."""
    if key not in cache:
        cache[key] = build()
    return cache[key]


@dataclass
class KernelTables:
    """The x-family kernels at non-negative offsets; parity and the axis swap
    give every other entry and the y-family.

    ``tables[kind]`` for kind in X_KINDS is the (n+1) x (n+1) quadrant whose
    entry [a, b] is the kernel at offsets (di, dj) = (a, b).  ``table(kind)``
    rebuilds any of the six kinds in the 2n x 2n wrap layout of
    wrap_offsets(n), and ``spectrum(kind)`` gives the real quadrant of its
    half-spectrum (see convolve.parity_rfft2).  Both are cached on first
    use, so repeated solves on one grid pay the transforms once.  Any kind
    in PARITY works the same way: baselines.softened_potential holds its
    kernel as the one kind "soft".
    """

    grid: CartesianGrid
    tables: dict = field(repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    def _per_kind(self, what: str, kind: str, build):
        # build(kind) for an x-kind; a y-kind gets a row-contiguous transposed
        # copy of its x-kind's result, for the solver's row blocks
        x = _Y_FROM_X.get(kind, kind)
        return _cached(self._cache, (what, kind), lambda: build(kind) if kind == x
                       else np.ascontiguousarray(getattr(self, what)(x).T))

    def table(self, kind: str) -> np.ndarray:
        def build(x):
            # (|di|, |dj|) -> (di, dj) takes the factor of (-|di|, -|dj|) -> (-di, -dj)
            offs = wrap_offsets(self.grid.n)
            row, col = _parity_signs(x, -offs[:, None], -offs[None, :])
            return self.tables[x][np.ix_(np.abs(offs), np.abs(offs))] * row * col
        return self._per_kind("table", kind, build)

    def spectrum(self, kind: str) -> np.ndarray:
        """parity_rfft2's real (n+1) x (n+1) quadrant of the kind's half-spectrum."""
        return self._per_kind("spectrum", kind,
                              lambda x: parity_rfft2(self.tables[x], PARITY[x]))


def tabulate_cartesian_kernels(grid: CartesianGrid, threads: int = 1) -> KernelTables:
    """Tabulate the x-family quadrants at offsets 0..n.

    Like eval_cartesian_kernel, each kernel is evaluated at the non-positive
    offsets -n..0 and carried over by _parity_signs.  Cells share corners (um
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

    def corners(fn):
        # lattice rows and columns 0..n hold up and vp, rows and columns
        # 1..n+1 um and vm; no sum here reads pm - mm
        c = values[fn]
        return c[:-1, :-1] - c[1:, :-1], None, c[:-1, 1:], c[1:, 1:]

    di, dj = d[:, None], d[None, :]
    k0 = _assemble("x0", corners, di, dj, grid.dx)
    a, tables = np.arange(n + 1), {}
    for kind in X_KINDS:
        # parity carries the kernel from offsets (-a, -b) to (a, b)
        row, col = _parity_signs(kind, a[:, None], a)
        tables[kind] = t = _assemble(kind, corners, di, dj, grid.dx, k0)[::-1, ::-1] * row
        t *= col
    return KernelTables(grid=grid, tables=tables)
