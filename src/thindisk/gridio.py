"""Plain-text field files and the binary kernel cache.

Field files are a versioned text contract:

    thindisk v1
    cart N M            (or: polar N M beta0)
    <N rows of N comma-separated values>
    [slopes]            (optional sentinel, then two more N x N blocks)

Rows iterate the second grid index (y or theta); values within a row
iterate the first (x or r).  Numbers carry 17 significant digits so a
write/read round trip is bit exact: every value is written byte for byte as
``"%.17g" % value`` prints it (inf and nan included), by a vectorised
formatter that streams each block to the file in chunks.  Force files use
the same header with two back-to-back component blocks and no sentinel.  A
line after a file's last block (a force file read as a density file, say)
raises FileFormatError, and a ForceField or DensityField refuses arrays that
are not N x N, so no misframed file is written.  Blocks are parsed by
numpy's C parser, which reads the same bits as ``float()`` but rejects digits
grouped by underscores (``1_0``) and non-ASCII digits; ``#`` starts no comment.
"""
from __future__ import annotations

import functools
import os
import zipfile

import numpy as np

from .grids import build_grid
from .kernels_cartesian import X_KINDS, KernelTables
from .kernels_polar import KINDS as POLAR_KINDS, PolarKernelTables
from .models import DensityField, differenced_field
from .solver import ForceField

MAGIC = "thindisk v1"
# the first word of a grid line: its geometry and the line's word count
GRID_WORDS = {"cart": ("cartesian", 3), "polar": ("polar", 4)}


class FileFormatError(ValueError):
    """Unreadable or inconsistent field file or kernel cache."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _grid_header(grid) -> str:
    if grid.coords == "cartesian":
        return f"cart {grid.n} {_fmt(grid.half_width)}"
    return f"polar {grid.n} {_fmt(grid.outer_radius)} {_fmt(grid.beta0)}"


# --- the block writer --------------------------------------------------------
#
# A block's text is "%.17g" of each value, built for many values at once.  For a
# finite nonzero v with decimal exponent k, "%.17g" prints the 17-digit integer
# d = round(v * 10**(16 - k)), in fixed notation for -4 <= k < 17 and as
# d[0].d[1:]e+-XX otherwise, with trailing zeros (and a bare point) dropped.
# Each value becomes one row of six 8-byte words: sign, "0.000" prefix, first
# digit and point; four words of four digits, each digit followed by a point
# slot; exponent and separator.  Characters a value does not print are NUL
# bytes, which one bytes.translate removes from the whole chunk.

_CHUNK = 8192    # values per pass: keeps every temporary in cache
_K_LO, _K_HI = -324, 308    # decimal exponents of the nonzero finite doubles
_DROP = b"\0 "    # the padding of the words and of the "%-40.17g" fallback


def _words(a: np.ndarray) -> np.ndarray:
    """Each run of 8 bytes along the last axis of ``a`` as one uint64, so that
    writing the word writes the bytes in their order."""
    return np.ascontiguousarray(a, dtype=np.uint8).view(np.uint64)[..., 0]


@functools.cache
def _digit_tables():
    """Lookup tables of the vectorised formatter, built on first use; None
    where np.longdouble is too narrow to decide any rounding."""
    u = float(np.finfo(np.longdouble).eps) / 2
    if 1e17 * u >= 0.5:    # long double is a double: every value falls back
        return None
    # y = v * 10**(16 - k) < 1e17 is one rounded long-double product of v and a
    # table entry P with relative error e, so y = exact * (1 + a) * (1 + b) with
    # |a| <= e and |b| <= u, and |y - exact| <= y * eps for eps a little above
    # e + u + e*u.  The integer d nearest y is then the correctly rounded
    # significand whenever |y - d| < 1/2 - y * eps.  e is measured exactly here
    # (e <= u for a correctly rounded strtold); the factor 1 + 2**-20 covers the
    # division by 1 - eps and the double-precision forming of the test.  With
    # x87 long doubles (u = 2**-64) y * eps < 0.006, and about 1 % of random
    # values fall back.
    ex = range(16 - _K_HI - 1, 16 - _K_LO + 2)
    powers = np.array([np.longdouble(f"1e{j}") for j in ex])
    e = 0.0
    for j, p in zip(ex, powers):
        num, den = p.as_integer_ratio()
        num, den = num * 10 ** max(-j, 0), den * 10 ** max(j, 0)
        e = max(e, abs(num - den) / den)
    eps = (e + u + e * u) * (1 + 2 ** -20)
    if 1e17 * eps >= 0.5:
        return None
    k = np.arange(_K_LO, _K_HI + 1)
    sci = (k < -4) | (k >= 17)
    lead0 = (k < 0) & ~sci    # 0.000ddd: -k - 1 zeros after the point
    point = np.where(lead0, 16, np.where(sci, 0, k))    # point after digit; 16: none
    ascii_digits = np.frombuffer(b"0123456789", np.uint8)
    # word 0 by (leading-zero count, sign, first digit): "-0.000d." in its slots
    head = np.zeros((5, 2, 10, 8), np.uint8)
    head[:, 1, :, 0] = ord("-")
    for z in range(1, 5):
        head[z, ..., 1:3] = (ord("0"), ord("."))
        head[z, ..., 3:2 + z] = ord("0")
    head[..., 6] = ascii_digits
    head[..., 7] = ord(".")
    # words 1-4 by four-digit group: "d.d.d.d.", and the significant digits
    # counted from digit 0 up to the group's last nonzero digit
    g = np.arange(10000)
    groups = np.zeros((4, 10000, 8), np.uint8)
    groups[..., 1::2] = ord(".")
    sig = np.zeros((4, 10000), np.intp)
    for j in range(4):
        digit = g // 10 ** (3 - j) % 10
        groups[:, :, 2 * j] = ascii_digits[digit]
        sig[:, digit != 0] = 4 * np.arange(4)[:, None] + j + 2
    # masks by (digits printed, point position): digit i shows for i < kept, and
    # the point slot after digit ``point`` shows
    mask = np.zeros((18, 17, 5, 8), np.uint8)
    mask[:, :, 0, :7] = 0xFF
    mask[:, 0, 0, 7] = 0xFF
    for i in range(1, 17):
        w, j = divmod(i - 1, 4)
        mask[i + 1:, :, w + 1, 2 * j] = 0xFF
        mask[:, i, w + 1, 2 * j + 1] = 0xFF * (i < 16)
    # word 5 by (exponent, row end): "e-05," or "e+300\n" in scientific notation
    tail = np.zeros((k.size, 2, 8), np.uint8)
    tail[:, :, 0] = (ord(","), ord("\n"))
    for i in np.flatnonzero(sci):
        text = np.frombuffer(b"e%+03d" % k[i], np.uint8)
        tail[i, :, :text.size] = text
        tail[i, :, text.size] = (ord(","), ord("\n"))
    tables = {"powers": powers, "eps": np.array(eps),
              "int_digits": np.where(sci | lead0, 1, k + 1), "point": point,
              "head_base": np.where(lead0, -k, 0) * 20,
              "head": _words(head).ravel(), "groups": _words(groups), "sig": sig,
              "mask": _words(mask.transpose(2, 0, 1, 3)).reshape(5, -1),
              "tail": _words(tail).ravel()}
    for a in tables.values():
        a.setflags(write=False)
    return tables


def _format_rows(x: np.ndarray, row_end: np.ndarray, buf: np.ndarray) -> bytes:
    """The "%.17g" text of each value of ``x``, followed by "\n" where
    ``row_end`` is 1 and by "," elsewhere; ``buf`` is (x.size, 6) uint64
    scratch."""
    t = _digit_tables()
    if t is None:
        buf[:, 5] = np.where(row_end, ord("\n"), ord(","))
        slow = np.arange(x.size)
    else:
        slow = _format_fast(x, row_end, buf, t)
    if slow.size:    # zeros, inf, nan and near-ties: Python's %-format, padded to 40
        text = ("%-40.17g" * slow.size) % tuple(x[slow].tolist())
        buf.view(np.uint8)[slow, :40] = \
            np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 40)
    return buf.tobytes().translate(None, _DROP)


def _format_fast(x, row_end, buf, t) -> np.ndarray:
    """Fill ``buf`` with the words of every value whose digits the long-double
    product certifies; return the indices of the others (their rows hold a
    separator word only)."""
    neg = np.signbit(x)
    v = np.abs(x)
    fast = v < np.inf
    fast &= v > 0
    v[~fast] = 1.0
    k = np.floor(np.log10(v)).astype(np.intp)    # off by one only next to a power of ten
    y = t["powers"][_K_HI + 1 - k]
    y *= v
    off = (y >= 1e17).astype(np.intp)
    off -= y < 1e16
    fix = np.flatnonzero(off)
    if fix.size:
        k[fix] += off[fix]
        y[fix] = t["powers"][_K_HI + 1 - k[fix]] * v[fix]
    # 1e16 > 2**53, so the double nearest y is an integer and y minus it is exact
    yd = y.astype(np.float64)
    y -= yd
    r = y.astype(np.float64)
    up = np.rint(r)
    fast &= np.abs(r - up) < 0.5 - yd * t["eps"]
    d = yd.astype(np.int64) + up.astype(np.int64)
    fast &= d >= 10 ** 16
    fast &= d < 10 ** 17    # a value just below a power of ten may round up to 10**17
    slow = np.flatnonzero(~fast)
    d[slow] = 10 ** 16
    k[slow] = 0
    k -= _K_LO
    # the digits: d0 and the four-digit groups of the other 16
    hi = d // 10 ** 8
    lo = d - hi * 10 ** 8
    d0 = hi // 10 ** 8
    hi -= d0 * 10 ** 8
    g0, g2 = hi // 10 ** 4, lo // 10 ** 4
    g = [g0, hi - g0 * 10 ** 4, g2, lo - g2 * 10 ** 4]
    kept = np.take(t["int_digits"], k)
    for w in range(4):
        np.maximum(kept, np.take(t["sig"][w], g[w]), out=kept)
    point = np.take(t["point"], k)    # no point when no digit follows it
    point[kept <= point + 1] = 16
    kept *= 17
    kept += point
    head = np.take(t["head_base"], k)
    head += d0
    head += 10 * neg
    np.bitwise_and(np.take(t["head"], head), np.take(t["mask"][0], kept), out=buf[:, 0])
    for w in range(4):
        np.bitwise_and(np.take(t["groups"][w], g[w]), np.take(t["mask"][w + 1], kept),
                       out=buf[:, w + 1])
    k *= 2    # now the tail word's index
    k += row_end
    np.take(t["tail"], k, out=buf[:, 5])
    return slow


def _block_chunks(a: np.ndarray):
    """The text of block ``a`` in pieces of about _CHUNK values: rows iterate
    axis 1 (y/theta), values within a row iterate axis 0."""
    n, rows = a.shape[0], max(1, _CHUNK // a.shape[0])
    row_end = np.zeros(n * rows, np.intp)
    row_end[n - 1::n] = 1
    buf = np.empty((n * rows, 6), np.uint64)
    for j in range(0, a.shape[1], rows):
        x = np.ascontiguousarray(a[:, j:j + rows].T, dtype=np.float64).ravel()
        yield _format_rows(x, row_end[:x.size], buf[:x.size]).decode("ascii")


def _write(path, grid, blocks) -> None:
    """A field file: the magic and grid lines, then each block (an n x n
    array, or a sentinel line given as a string), written chunk by chunk so
    no whole block's text is held.  The blocks' shapes were checked by the
    ForceField or DensityField that holds them, before the file is opened."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{MAGIC}\n{_grid_header(grid)}\n")
        for b in blocks:
            if isinstance(b, str):
                fh.write(b + "\n")
            else:
                for text in _block_chunks(b):
                    fh.write(text)


def _read(path) -> tuple:
    """The grid of a field file and its non-blank lines after the grid line."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0].strip() != MAGIC:
        raise FileFormatError(f"missing '{MAGIC}' header line")
    if len(lines) < 2:
        raise FileFormatError("missing grid line")
    parts = lines[1].split()
    coords, words = GRID_WORDS.get(parts[0], (None, None))
    if len(parts) != words:
        raise FileFormatError(f"bad grid line {lines[1]!r}")
    try:    # the words: cart or polar, n, the extent, then a polar grid's beta0
        grid = build_grid(coords, float(parts[2]), int(parts[1]), *map(float, parts[3:]))
    except ValueError as exc:
        raise FileFormatError(f"bad grid line {lines[1]!r}: {exc}") from exc
    return grid, lines[2:]


def _read_block(lines, n, what) -> tuple:
    if len(lines) < n:
        raise FileFormatError(f"truncated file: expected {n} rows of {what}")
    try:    # numpy's C parser: the same bits as float() on every value it accepts
        rows = np.loadtxt(lines[:n], delimiter=",", ndmin=2, comments=None)
    except ValueError:
        rows = None
    if rows is None or rows.shape != (n, n):
        for j, line in enumerate(lines[:n]):    # only to name the rejected row
            vals = line.split(",")
            if len(vals) != n:
                raise FileFormatError(f"row {j} of {what} has {len(vals)} values, expected {n}")
            try:
                np.loadtxt([line], delimiter=",", comments=None)
            except ValueError:
                for v in vals:    # float() first: loadtxt skips an empty token's line
                    try:
                        float(v)
                        np.loadtxt([v], delimiter=",", comments=None)
                    except ValueError:
                        raise FileFormatError(f"row {j} of {what} holds a non-numeric value "
                                              f"(could not convert string to float: {v!r})") from None
    out = rows.T.copy()
    bad = np.flatnonzero(~np.isfinite(out).all(axis=0))
    if bad.size:
        raise FileFormatError(f"row {bad[0]} of {what} holds a non-finite value")
    return out, lines[n:]


def _expect_end(rest, what) -> None:
    """Refuse the lines left after a file's last block, ``what``."""
    if rest:
        raise FileFormatError(f"{len(rest)} unexpected line(s) after the {what} block")


def write_density(path, field: DensityField, include_slopes: bool = True) -> None:
    slopes = ["slopes", field.slope_u, field.slope_v] if include_slopes else []
    _write(path, field.grid, [field.values, *slopes])


def read_density(path) -> DensityField:
    """Read a density file; without a slopes block the slopes are central
    differences of the values.

    Polar files carry no hole-ring block; the ring is rebuilt from the
    innermost available ring (nearest-cell extrapolation), which is harmless
    because the hole's area is a vanishing fraction of the disk.
    """
    grid, rest = _read(path)
    values, rest = _read_block(rest, grid.n, "density")
    if not (rest and rest[0].strip() == "slopes"):
        _expect_end(rest, "density")
        return differenced_field(grid, values)
    slope_u, rest = _read_block(rest[1:], grid.n, "x-slopes")
    slope_v, rest = _read_block(rest, grid.n, "y-slopes")
    _expect_end(rest, "y-slopes")
    return differenced_field(grid, values, slope_pair=(slope_u, slope_v))


def write_force(path, force: ForceField) -> None:
    _write(path, force.grid, [force.comp_u, force.comp_v])


def read_force(path) -> ForceField:
    grid, rest = _read(path)
    comp_u, rest = _read_block(rest, grid.n, "first component")
    comp_v, rest = _read_block(rest, grid.n, "second component")
    _expect_end(rest, "second component")
    return ForceField(grid, comp_u, comp_v)


# --- kernel table cache ----------------------------------------------------

_CACHE_VERSION = 3


def cache_arrays(tables) -> dict:
    """A kernel-table set's arrays under their cache keys: ``table_<kind>``
    (Cartesian x-family quadrants or polar ring tables), ``hole_<kind>``."""
    holes = getattr(tables, "hole_tables", {})
    return {**{f"table_{kind}": arr for kind, arr in tables.tables.items()},
            **{f"hole_{kind}": arr for kind, arr in holes.items()}}


def save_kernel_tables(path, tables) -> None:
    """Uncompressed binary dump of a kernel-table set for reuse across runs,
    keyed by the grid line of the field files, written to exactly ``path``
    (np.savez given a name would append ``.npz``).  The file is then read
    back: FileFormatError names the first array that does not load equal
    to the tables it was written from, and the file is removed first, so
    no later run loads it as a warm cache."""
    saved = cache_arrays(tables)
    with open(path, "wb") as fh:
        np.savez(fh, version=np.array(_CACHE_VERSION), grid=np.array(_grid_header(tables.grid)),
                 **saved)
    try:
        for key, arr in cache_arrays(load_kernel_tables(path, tables.grid)).items():
            if not np.array_equal(arr, saved[key]):
                raise FileFormatError(f"kernel cache round trip failed for {key}")
    except FileFormatError:
        os.remove(path)
        raise


def load_kernel_tables(path, grid):
    """Load a cache back; its stored grid line must equal ``grid``'s."""
    try:
        with np.load(path) as data:    # an .npy file gives an array: TypeError
            arrays = {k: data[k] for k in data.files}
    except (ValueError, EOFError, TypeError, zipfile.BadZipFile):
        raise FileFormatError(f"{path} is not a readable kernel cache (.npz archive)") from None
    _require_kinds(arrays, "", ("version",), ())
    if int(arrays["version"]) != _CACHE_VERSION:
        raise FileFormatError(f"kernel cache version {int(arrays['version'])} unsupported; "
                              "rebuild it with 'thindisk kernels'")
    _require_kinds(arrays, "", ("grid",), ())
    if str(arrays["grid"]) != _grid_header(grid):
        raise FileFormatError(f"kernel cache was built for '{arrays['grid']}', "
                              f"not '{_grid_header(grid)}'")
    tables = {k[6:]: a for k, a in arrays.items() if k.startswith("table_")}
    holes = {k[5:]: a for k, a in arrays.items() if k.startswith("hole_")}
    if grid.coords == "cartesian":
        _require_kinds(tables, "table_", X_KINDS, (grid.n + 1, grid.n + 1))
        return KernelTables(grid=grid, tables=tables)
    _require_kinds(tables, "table_", POLAR_KINDS, (2 * grid.n, grid.n))
    _require_kinds(holes, "hole_", POLAR_KINDS, (grid.n, grid.n))
    return PolarKernelTables(grid=grid, tables=tables, hole_tables=holes)


def _require_kinds(arrays, prefix, kinds, shape) -> None:
    for kind in kinds:
        if kind not in arrays:
            raise FileFormatError(f"kernel cache lacks {prefix}{kind}")
        if arrays[kind].shape != shape:
            raise FileFormatError(f"kernel cache {prefix}{kind} has shape "
                                  f"{arrays[kind].shape}, expected {shape}")
