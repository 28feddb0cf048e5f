"""Plain-text field files and the binary kernel cache.

Field files are a versioned text contract:

    thindisk v1
    cart N M            (or: polar N M beta0)
    <N rows of N comma-separated values>
    [slopes]            (optional sentinel, then two more N x N blocks)

Rows iterate the second grid index (y or theta); values within a row
iterate the first (x or r).  Numbers carry 17 significant digits so a
write/read round trip is bit exact.  Force files use the same header with
two back-to-back component blocks and no sentinel.  A line after a file's
last block (a force file read as a density file, say) raises
FileFormatError, and a ForceField or DensityField refuses arrays that are
not N x N, so no misframed file is written.  Blocks are parsed by
numpy's C parser, which reads the same bits as ``float()`` but rejects digits
grouped by underscores (``1_0``) and non-ASCII digits; ``#`` starts no comment.
"""
from __future__ import annotations

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


def _block_text(a: np.ndarray) -> str:
    # rows iterate axis 1 (y/theta), values within a row iterate axis 0; one
    # %-format prints each value exactly as f"{v:.17g}" does
    fmt = "\n".join([",".join(["%.17g"] * a.shape[0])] * a.shape[1])
    return fmt % tuple(a.T.ravel().tolist())


def _write(path, grid, blocks) -> None:
    """A field file: the magic and grid lines, then each block (an array, or
    a sentinel line given as a string)."""
    text = [b if isinstance(b, str) else _block_text(b) for b in blocks]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([MAGIC, _grid_header(grid), *text]) + "\n")


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
    (np.savez given a name would append ``.npz``)."""
    with open(path, "wb") as fh:
        np.savez(fh, version=np.array(_CACHE_VERSION), grid=np.array(_grid_header(tables.grid)),
                 **cache_arrays(tables))


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
