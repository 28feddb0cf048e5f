"""Independent oracles: quadrature for the kernel closed forms, a
complex-transform convolution for the real-transform FFT path, and the D2
disk's closed forms evaluated densely at every point.

The quadrature oracles integrate the defining cell integrals adaptively and
stay deliberately independent of the antiderivative code they check.
"""
import numpy as np
from scipy.integrate import quad


def d2_density(disk, x, y):
    """D2Disk density, its closed form evaluated at every point."""
    r2 = np.asarray(x, dtype=float) ** 2 + np.asarray(y, dtype=float) ** 2
    w = np.maximum(1.0 - r2 / disk.alpha**2, 0.0)
    return disk.sigma0 * w**1.5


def d2_density_gradient(disk, x, y):
    """D2Disk density gradient, its closed form evaluated at every point."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.maximum(1.0 - (x * x + y * y) / disk.alpha**2, 0.0)
    c = -3.0 * disk.sigma0 * np.sqrt(w) / disk.alpha**2
    return c * x, c * y


def d2_pair(form, pair, x, y):
    """``form`` (d2_density or d2_density_gradient) of a D2PairDisk, whose
    alpha and sigma0 its two disks share: the running sum from 0.0 over the
    disks at (+offset, 0) and (-offset, 0)."""
    total = 0.0
    for dx0 in (pair.offset, -pair.offset):
        total = total + np.asarray(form(pair, np.asarray(x, dtype=float) - dx0, y))
    return total


def _nested_quad(f, ulims, vlims, eps=1e-12):
    """Adaptive double integral, splitting each axis at 0 when it spans it."""
    def split(lo, hi):
        return [(lo, 0.0), (0.0, hi)] if lo < 0 < hi else [(lo, hi)]

    total = 0.0
    for va, vb in split(*vlims):
        def inner(v):
            s = 0.0
            for ua, ub in split(*ulims):
                val, _ = quad(lambda u: f(u, v), ua, ub, epsabs=eps, epsrel=eps, limit=200)
                s += val
            return s
        val, _ = quad(inner, va, vb, epsabs=eps, epsrel=eps, limit=200)
        total += val
    return total


def quad_cartesian_kernel(kind, di, dj, grid):
    """Defining integral of one Cartesian kernel over the offset cell."""
    dx = grid.dx
    ulims = ((-di - 0.5) * dx, (-di + 0.5) * dx)   # u = xbar - x_i
    vlims = ((-dj - 0.5) * dx, (-dj + 0.5) * dx)

    def rho3(u, v):
        return (u * u + v * v) ** 1.5

    table = {
        "x0": lambda u, v: u / rho3(u, v),
        "xx": lambda u, v: u * (u + di * dx) / rho3(u, v),
        "xy": lambda u, v: u * (v + dj * dx) / rho3(u, v),
        "y0": lambda u, v: v / rho3(u, v),
        "yx": lambda u, v: v * (u + di * dx) / rho3(u, v),
        "yy": lambda u, v: v * (v + dj * dx) / rho3(u, v),
    }
    # (u + di*dx) = xbar - x_{i'} etc.
    return _nested_quad(table[kind], ulims, vlims)


def quad_polar_kernel(kind, di, dj, grid, hole_index=None):
    """Defining integral of a polar kernel in dimensionless radius t.

    For ring cells the t-limits come from the offset di; for hole kernels
    pass hole_index = absolute ring i (di is ignored radially).
    """
    b = grid.ratio
    if hole_index is None:
        tp = 2.0 * b**di / (1.0 + b)
        tm = b * tp
        t_src = b**di                       # r_{i'} / r_i
    else:
        tp = 2.0 * b**hole_index / (1.0 + b)
        tm = 0.0
        r_i = grid.r_centers[hole_index - 1]
        t_src = grid.hole_radius_mid / r_i
    up = (-dj + 0.5) * grid.dtheta
    um = (-dj - 0.5) * grid.dtheta

    def F1(t, u):
        return np.sqrt(1.0 + t * t - 2.0 * t * np.cos(u))

    def F3(t, u):
        return F1(t, u) ** 3

    table = {
        "r0": lambda t, u: t * (1 - t * np.cos(u)) / F3(t, u),
        "rr": lambda t, u: t * (1 - t * np.cos(u)) * (t - t_src) / F3(t, u),
        "rt": lambda t, u: t * (1 - t * np.cos(u)) * (u - (up + um) / 2) / F3(t, u),
        "t0": lambda t, u: t * t * np.sin(u) / F3(t, u),
        "tr": lambda t, u: t * t * np.sin(u) * (t - t_src) / F3(t, u),
        "tt": lambda t, u: t * t * np.sin(u) * (u - (up + um) / 2) / F3(t, u),
        "p0": lambda t, u: t / F1(t, u),
        "pr": lambda t, u: t * (t - t_src) / F1(t, u),
        "pt": lambda t, u: t * (u - (up + um) / 2) / F1(t, u),
    }
    # (u - (up+um)/2) = thetabar - theta_{j'} since the cell is centered there
    f = table[kind]
    return _nested_quad(f, (tm, tp), (um, up))


def quad_log_one_minus_cos(a):
    """Integral of log(1 - cos t) over [-a, a] by adaptive quadrature.

    The integrand is even, so this integrates it over [0, a] and doubles,
    leaving the logarithmic endpoint singularity to quad with no analytic
    part split out.  It is evaluated as log(2*sin(t/2)**2), the same
    function written so that 1 - cos t does not round to 0 near t = 0.
    """
    val, _ = quad(lambda t: np.log(2.0 * np.sin(0.5 * t) ** 2), 0.0, a,
                  epsabs=1e-15, epsrel=1e-14, limit=200)
    return 2.0 * val


def fft_convolve_complex(kernel: np.ndarray, field: np.ndarray, pad_axes=(0, 1)) -> np.ndarray:
    """Reference complex-transform path; must agree with fft_convolve to
    round-off (the fast path uses real transforms)."""
    n0, n1 = field.shape
    shape = (2 * n0 if 0 in pad_axes else n0, 2 * n1 if 1 in pad_axes else n1)
    if kernel.shape != shape:
        raise ValueError(f"kernel shape {kernel.shape} does not match padded shape {shape}")
    padded = np.zeros(shape, dtype=complex)
    padded[:n0, :n1] = field
    out = np.fft.ifft2(np.fft.fft2(kernel) * np.fft.fft2(padded))
    return np.real(out)[:n0, :n1]


# ---------------------------------------------------------------------------
# Reference closed forms: the kernel modules' log, chord, antiderivative and
# corner-sum formulas as one-line expressions, with np.where evaluating both
# branches of the log, and the polar tables from whole-lattice evaluations.
# The library shares subexpressions, forms the log argument by branch and
# tabulates one block of rows at a time; these pin its values to the bit.

def log_plus_hypot(a, b):
    """log(a + hypot(a, b)), rewritten for a < 0 to avoid cancellation."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    h = np.hypot(a, b)
    pos = a > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(pos, np.log(np.where(pos, a, 1.0) + h),
                       2.0 * np.log(np.abs(b)) - np.log(h - np.where(pos, 0.0, a)))
    return out


def chord(t, u):
    """(t, cos u, sin u, F, L) at the points (t, u)."""
    t = np.asarray(t, dtype=float)
    c, s = np.cos(u), np.sin(u)
    return t, c, s, np.hypot(t - c, s), log_plus_hypot(t - c, s)


def h1(t, c, s, F, L):
    return -c * L + (2.0 * c * t - 1.0) / F


def h2(t, c, s, F, L):
    return -((3.0 * c * c - 1.0) * L + (-6.0 * t * c * c + 3.0 * c + t * t * c + t) / F)


def az0(t, c, s, F, L):
    return -(F + c * L)


def az1(t, c, s, F, L):
    return -(0.5 * (t + 3.0 * c) * F + 0.5 * (3.0 * c * c - 1.0) * L)


def az2(t, c, s, F, L):
    return s * L - (t * (1.0 - 2.0 * c * c) + c) / (s * F)


def pot0(t, c, s, F, L):
    return F + c * L


def pot1(t, c, s, F, L):
    return 0.5 * ((t + 3.0 * c) * F + (3.0 * c * c - 1.0) * L)


POLAR_FORMS = {"_h1": h1, "_h2": h2, "_az0": az0, "_az1": az1, "_az2": az2,
               "_pot0": pot0, "_pot1": pot1}


def assemble_polar(kind, corners, ratio_correction, dtheta):
    """One polar kernel from corners(f) = f at (tp, up), (tm, up), (tp, um), (tm, um)."""
    def trap(f):
        a, b, c, d = corners(f)
        return 0.5 * (a - b + c - d) * dtheta

    def trap_weighted(f):
        a, b, c, d = corners(f)
        return 0.25 * dtheta * (a - b - (c - d)) * dtheta

    def corner(f):
        a, b, c, d = corners(f)
        return a - b - (c - d)

    return {
        "r0": lambda: trap(h1),
        "rr": lambda: trap(h2) - ratio_correction * trap(h1),
        "rt": lambda: trap_weighted(h1),
        "t0": lambda: corner(az0),
        "tr": lambda: corner(az1) - ratio_correction * corner(az0),
        "tt": lambda: trap_weighted(az2),
        "p0": lambda: trap(pot0),
        "pr": lambda: trap(pot1) - ratio_correction * trap(pot0),
        "pt": lambda: trap_weighted(pot0),
    }[kind]()


def assemble_cartesian(kind, corners, di, dj, dx):
    """One Cartesian x-kind from corners(fn) = fn at (up, vp), (um, vp), (up, vm), (um, vm)."""
    def diff(fn):
        pp, mp, pm, mm = corners(fn)
        return pp - mp - pm + mm

    k0 = diff("x0")
    if kind == "x0":
        return k0
    return (di if kind == "xx" else dj) * dx * k0 + diff(kind)


def lattice_polar_tables(grid, kinds):
    """Ring (2n, n) and hole (n, n) tables of ``kinds``, each antiderivative
    evaluated on the full lattice of radial limits by trapezoid nodes and
    read at the four corners of every cell, as (ring, hole) dicts."""
    n, b = grid.n, grid.ratio
    wrap = np.concatenate([np.arange(n + 1), np.arange(-n + 1, 0)]).astype(float)
    tp = 2.0 * np.power(b, wrap) / (1.0 + b)
    t = np.concatenate([tp, b * tp, [0.0]])
    nodes = (-np.arange(n + 1) + 0.5) * grid.dtheta
    with np.errstate(over="ignore", invalid="ignore"):
        terms = chord(t[:, None], nodes[None, :])
        values = {}

        def provider(plus, minus):
            def corners(f):
                c = values[f] if f in values else values.setdefault(f, f(*terms))
                return c[plus, :-1], c[minus, :-1], c[plus, 1:], c[minus, 1:]
            return corners

        ring = provider(slice(0, 2 * n), slice(2 * n, 4 * n))
        hole = provider(slice(1, n + 1), slice(4 * n, None))
        ring_ratio = np.power(b, wrap)[:, None]
        hole_ratio = (b ** np.arange(1, n + 1, dtype=float) / (1.0 + b))[:, None]
        return ({k: assemble_polar(k, ring, ring_ratio, grid.dtheta) for k in kinds},
                {k: assemble_polar(k, hole, hole_ratio, grid.dtheta) for k in kinds})
