import io
import re
import tracemalloc
import zipfile
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thindisk import (D2Disk, build_cartesian_grid, build_polar_grid, gridio,
                      sample_density, tabulate_cartesian_kernels,
                      tabulate_polar_kernels)
from thindisk.gridio import (FileFormatError, load_kernel_tables, read_density,
                             read_force, save_kernel_tables, write_density,
                             write_force)
from thindisk.kernels_cartesian import KINDS
from thindisk.models import DensityField
from thindisk.solver import ForceField


class TestDensityFiles:
    def test_cartesian_round_trip_bit_exact(self, tmp_path):
        grid = build_cartesian_grid(1.0, 12)
        field = sample_density(D2Disk(), grid)
        p = tmp_path / "d.txt"
        write_density(p, field)
        back = read_density(p)
        assert back.grid == grid
        np.testing.assert_array_equal(back.values, field.values)
        np.testing.assert_array_equal(back.slope_u, field.slope_u)
        np.testing.assert_array_equal(back.slope_v, field.slope_v)
        # the solver gets blocks in the layout the samplers produce
        assert all(a.flags.c_contiguous for a in (back.values, back.slope_u, back.slope_v))

    def test_blank_lines_between_rows_are_skipped(self, tmp_path):
        grid = build_cartesian_grid(1.0, 4)
        field = sample_density(D2Disk(), grid)
        p = tmp_path / "d.txt"
        write_density(p, field)
        lines = p.read_text().splitlines()
        p.write_text("\n\n".join(lines[:4]) + "\n   \n" + "\n".join(lines[4:9])
                     + "\n\t\n" + "\n".join(lines[9:]) + "\n\n")
        back = read_density(p)
        np.testing.assert_array_equal(back.values, field.values)
        np.testing.assert_array_equal(back.slope_u, field.slope_u)
        np.testing.assert_array_equal(back.slope_v, field.slope_v)

    def test_polar_round_trip(self, tmp_path):
        grid = build_polar_grid(1.0, 16, 0.97)
        field = sample_density(D2Disk(), grid)
        p = tmp_path / "d.txt"
        write_density(p, field)
        back = read_density(p)
        assert back.grid == grid
        np.testing.assert_array_equal(back.values, field.values)
        # the hole ring is rebuilt from the innermost ring
        np.testing.assert_array_equal(back.hole_values, field.values[0])

    def test_without_slopes_falls_back_to_differences(self, tmp_path):
        grid = build_cartesian_grid(1.0, 8)
        field = sample_density(D2Disk(), grid)
        p = tmp_path / "d.txt"
        write_density(p, field, include_slopes=False)
        back = read_density(p)
        assert back.slope_source == "central-difference"

    def test_random_values_survive(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = build_cartesian_grid(2.0, 6)
        from thindisk.models import DensityField
        field = DensityField(grid, rng.standard_normal((6, 6)) * 1e17,
                             rng.standard_normal((6, 6)) * 1e-13,
                             rng.standard_normal((6, 6)))
        p = tmp_path / "r.txt"
        write_density(p, field)
        back = read_density(p)
        np.testing.assert_array_equal(back.values, field.values)
        np.testing.assert_array_equal(back.slope_u, field.slope_u)

    def test_missing_magic(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("nonsense\ncart 4 1\n")
        with pytest.raises(FileFormatError):
            read_density(p)

    def test_bad_grid_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        for text in ("thindisk v1\nspherical 4 1\n1,2,3,4\n", "thindisk v1\n"):
            p.write_text(text)
            with pytest.raises(FileFormatError):
                read_density(p)
            with pytest.raises(FileFormatError):
                read_force(p)

    @pytest.mark.parametrize("line,why", [
        ("cart 4 1 0.5", ""), ("polar 16 1", ""), ("cart", ""), ("polar 16 1 0.9 2", ""),
        ("cart 1 1", ": need at least 2 zones per side, got n=1"),
        ("polar 4 1 0.9", ": radial ratio"), ("cart 4.0 1", ": invalid literal for int()"),
        ("polar 16 1 x", ": could not convert string to float: 'x'")])
    def test_grid_line_words_and_values(self, tmp_path, line, why):
        p = tmp_path / "bad.txt"
        p.write_text(f"thindisk v1\n{line}\n")
        for read in (read_density, read_force):
            with pytest.raises(FileFormatError, match=re.escape(f"bad grid line {line!r}{why}")):
                read(p)

    @pytest.mark.parametrize("coords", ["cartesian", "polar"])
    @pytest.mark.parametrize("extra", ["force", "row", "sentinel"])
    def test_lines_after_the_last_block_refused(self, tmp_path, coords, extra):
        # a force file read as a density file holds its second block after the
        # first; a density file may hold one more row or a second sentinel
        grid = build_cartesian_grid(1.0, 8) if coords == "cartesian" else \
            build_polar_grid(1.0, 8, 0.9)
        field = sample_density(D2Disk(), grid)
        p = tmp_path / "d.txt"
        if extra == "force":
            write_force(p, ForceField(grid, field.values, field.slope_u))
            want = "density"
        else:
            write_density(p, field)
            with open(p, "a") as fh:
                fh.write("1,2,3,4,5,6,7,8\n" if extra == "row" else "slopes\n")
            want = "y-slopes"
        lines = 8 if extra == "force" else 1
        with pytest.raises(FileFormatError,
                           match=rf"^{lines} unexpected line\(s\) after the {want} block$"):
            read_density(p)
        write_density(p, field, include_slopes=False)
        with open(p, "a") as fh:
            fh.write("slope\n")
        with pytest.raises(FileFormatError,
                           match=r"^1 unexpected line\(s\) after the density block$"):
            read_density(p)

    def test_truncated_block(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("thindisk v1\ncart 4 1\n1,2,3,4\n1,2,3,4\n")
        with pytest.raises(FileFormatError):
            read_density(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_block_and_row(self, tmp_path, bad):
        grid = build_cartesian_grid(1.0, 4)
        p = tmp_path / "d.txt"
        write_density(p, sample_density(D2Disk(), grid))
        lines = p.read_text().splitlines()
        # two header lines, four density rows and the sentinel come first
        lines[8] = ",".join([bad] + lines[8].split(",")[1:])
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match="row 1 of x-slopes"):
            read_density(p)

    # "4#x" is not a comment: a reader that strips "#..." would accept the row.
    # "1_0" is a token float() accepts and the block parser rejects.
    @pytest.mark.parametrize("bad", ["abc", "4#x", "1_0", ""])
    def test_non_numeric_token_names_block_and_row(self, tmp_path, bad):
        grid = build_cartesian_grid(1.0, 4)
        p = tmp_path / "d.txt"
        write_density(p, sample_density(D2Disk(), grid), include_slopes=False)
        lines = p.read_text().splitlines()
        lines[4] = ",".join(lines[4].split(",")[:-1] + [bad])
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match=f"^row 2 of density holds a non-numeric value "
                                                  f"\\(could not convert string to float: '{bad}'\\)$"):
            read_density(p)

    def test_wrong_row_width(self, tmp_path):
        p = tmp_path / "bad.txt"
        # every row short, then one short row in the middle of the block
        for short, named in ((range(4), 0), ((2,), 2)):
            rows = "\n".join("1,2,3" if j in short else "1,2,3,4" for j in range(4))
            p.write_text(f"thindisk v1\ncart 4 1\n{rows}\n")
            with pytest.raises(FileFormatError,
                               match=f"^row {named} of density has 3 values, expected 4$"):
                read_density(p)


class TestForceFiles:
    def test_round_trip(self, tmp_path):
        grid = build_cartesian_grid(1.5, 10)
        rng = np.random.default_rng(1)
        force = ForceField(grid, rng.standard_normal((10, 10)),
                           rng.standard_normal((10, 10)))
        p = tmp_path / "f.txt"
        write_force(p, force)
        back = read_force(p)
        assert back.grid == grid
        np.testing.assert_array_equal(back.comp_u, force.comp_u)
        np.testing.assert_array_equal(back.comp_v, force.comp_v)
        assert back.comp_u.flags.c_contiguous and back.comp_v.flags.c_contiguous

    @pytest.mark.parametrize("rows", [1, 10])
    def test_rows_after_the_second_component_refused(self, tmp_path, rows):
        grid = build_cartesian_grid(1.5, 10)
        p = tmp_path / "f.txt"
        write_force(p, ForceField(grid, np.ones((10, 10)), np.zeros((10, 10))))
        with open(p, "a") as fh:
            fh.write("2,2,2,2,2,2,2,2,2,2\n" * rows)
        with pytest.raises(FileFormatError, match=rf"^{rows} unexpected line\(s\) after "
                                                  "the second component block$"):
            read_force(p)


    def test_writers_match_the_per_value_formatter(self, tmp_path):
        # field files are a byte contract: the block writer must print exactly
        # what formatting each value on its own with .17g prints
        special = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.5e-310, 1e300, -1e300,
                   3.0, -7.0, 2.0 ** 53, 1e16, 0.1, -1.0 / 3.0, 123456789.0, -2.5e-5, 1.0]
        small = [np.reshape(special, (4, 4)), np.reshape(special[::-1], (4, 4)),
                 np.reshape(special, (4, 4)).T.copy()]
        rng = np.random.default_rng(7)
        big = rng.standard_normal((3, 64, 64)) * 10.0 ** rng.integers(-300, 301, (3, 64, 64))
        for b in big:
            b.flat[rng.choice(b.size, len(special), replace=False)] = special
        cases = [(build_cartesian_grid(1.0, 4), "cart 4 1", small),
                 (build_cartesian_grid(1.0, 64), "cart 64 1", list(big)),
                 (build_polar_grid(2.5, 64, 0.97), "polar 64 2.5 0.96999999999999997", list(big))]

        def per_value(a):
            return "".join(",".join(f"{v:.17g}" for v in a[:, j]) + "\n"
                           for j in range(a.shape[1]))

        for grid, grid_line, blocks in cases:
            head = f"thindisk v1\n{grid_line}\n"
            # force files may carry what a reader rejects: inf and nan print as .17g does
            comp_v = blocks[1].copy()
            comp_v.flat[:3] = [np.inf, -np.inf, np.nan]
            write_force(tmp_path / "f.txt", ForceField(grid, blocks[0], comp_v))
            assert (tmp_path / "f.txt").read_bytes() == \
                (head + per_value(blocks[0]) + per_value(comp_v)).encode()
            hole = {} if grid.coords == "cartesian" else dict.fromkeys(
                ("hole_values", "hole_slope_u", "hole_slope_v"), blocks[0][0])
            write_density(tmp_path / "d.txt", DensityField(grid, *blocks, **hole))
            assert (tmp_path / "d.txt").read_bytes() == (head + per_value(blocks[0]) + "slopes\n"
                                                         + per_value(blocks[1])
                                                         + per_value(blocks[2])).encode()
            back = read_density(tmp_path / "d.txt")
            for got, a in zip((back.values, back.slope_u, back.slope_v), blocks):
                assert np.array_equal(np.signbit(got), np.signbit(a)) and np.array_equal(got, a)

    def test_non_finite_component_rejected(self, tmp_path):
        grid = build_cartesian_grid(1.0, 4)
        comp_v = np.ones((4, 4))
        comp_v[2, 3] = np.nan
        p = tmp_path / "f.txt"
        write_force(p, ForceField(grid, np.ones((4, 4)), comp_v))
        with pytest.raises(FileFormatError, match="row 3 of second component"):
            read_force(p)


def _per_value(a):
    """Block ``a`` as formatting each value on its own with .17g prints it."""
    return "".join(",".join(f"{v:.17g}" for v in a[:, j]) + "\n" for j in range(a.shape[1]))


def _halves():
    """Doubles whose exact decimal value has 18 significant digits, the last a
    5: ties at 17 digits.  m * 2**(k - 17) for an odd m with 10**k <= the value
    < 10**(k+1) is one when m < 2**53."""
    vals = []
    for k in range(-7, 15):
        lo, hi = 10.0 ** k * 2.0 ** (17 - k), 10.0 ** (k + 1) * 2.0 ** (17 - k)
        vals += [m * 2.0 ** (k - 17) for m in (np.ceil(lo) // 2 * 2 + 1, hi // 2 * 2 - 1)]
    return vals


def _edge_values():
    """Values at every branch of .17g, with both signs, 16 to a row: zeros,
    subnormals, both neighbours of every power of ten (the %g switch points
    1e-5, 1e-4, 1e16 and 1e17 among them), inf, nan and exact halves."""
    tiny = np.finfo(np.float64).smallest_normal
    vals = [0.0, 5e-324, 1e-323, 1.5e-310, np.nextafter(tiny, 0), tiny, np.inf, np.nan]
    for j in range(-323, 309):
        p = float(f"1e{j}")
        vals += [np.nextafter(p, 0), p, np.nextafter(p, np.inf)]
    vals = np.array(vals + _halves())
    vals = np.concatenate([vals, -vals])
    return np.concatenate([vals, np.ones(-vals.size % 16)]).reshape(-1, 16).T


class TestBlockWriter:
    """The block writer prints every float64 exactly as "%.17g" does."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.integers(2, 9).flatmap(
        lambda n: st.lists(st.integers(0, 2 ** 64 - 1), min_size=2 * n * n, max_size=2 * n * n)))
    def test_raw_bit_patterns(self, tmp_path_factory, bits):
        n = int(round((len(bits) / 2) ** 0.5))
        a, b = np.array(bits, dtype=np.uint64).view(np.float64).reshape(2, n, n)
        path = tmp_path_factory.getbasetemp() / "bit_patterns.txt"
        write_force(path, ForceField(build_cartesian_grid(1.0, n), a, b))
        assert path.read_bytes() == \
            (f"thindisk v1\ncart {n} 1\n" + _per_value(a) + _per_value(b)).encode()

    def test_edge_table(self):
        for v in _halves():
            digits = Decimal(v).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        edges = _edge_values()
        assert "".join(gridio._block_chunks(edges)) == _per_value(edges)

    def test_every_value_through_the_fallback(self, monkeypatch):
        # without the long-double tables (a platform whose long double is a
        # double) every value goes through Python's own %-format
        monkeypatch.setattr(gridio, "_digit_tables", lambda: None)
        rng = np.random.default_rng(3)
        random = rng.standard_normal((40, 40)) * 10.0 ** rng.integers(-30, 30, (40, 40))
        for block in (_edge_values(), random):
            assert "".join(gridio._block_chunks(block)) == _per_value(block)

    def test_most_values_take_the_vectorised_path(self):
        if np.finfo(np.longdouble).precision <= np.finfo(np.float64).precision:
            pytest.skip("np.longdouble is a double here: every value falls back")
        tables = gridio._digit_tables()
        rng = np.random.default_rng(4)
        x = rng.standard_normal(8192) * 10.0 ** rng.integers(-20, 20, 8192)
        row_end = np.zeros(x.size, np.intp)
        slow = gridio._format_fast(x, row_end, np.empty((x.size, 6), np.uint64), tables)
        assert slow.size < 0.05 * x.size

    def test_blocks_are_streamed(self, tmp_path):
        # a writer that held a whole block's text would peak above half the file
        n = 512
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, n, n))
        path = tmp_path / "f.txt"
        force = ForceField(build_cartesian_grid(1.0, n), a, b)
        tracemalloc.start()
        try:
            write_force(path, force)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 2
        back = read_force(path)
        assert np.array_equal(back.comp_u, a) and np.array_equal(back.comp_v, b)


def _drop_from_cache(path, key, replace=None):
    with np.load(path) as data:
        payload = {k: data[k] for k in data.files if k != key}
    if replace is not None:
        payload[key] = replace
    np.savez_compressed(path, **payload)


def _write_version_one_cache(path, tables):
    """A cache in the version-1 layout: the grid as coords/n/extent keys."""
    payload = {"version": np.array(1), "coords": np.array(tables.grid.coords),
               "n": np.array(tables.grid.n), "extent": np.array(tables.grid.half_width)}
    payload.update({f"table_{k}": arr for k, arr in tables.tables.items()})
    np.savez_compressed(path, **payload)


def _write_unreadable_cache(path, content, tables):
    """A file at ``path`` that np.load cannot read as an .npz archive of
    plain arrays."""
    if content == "text":
        path.write_text("thindisk v1\ncart 8 1\n")
    elif content == "empty":
        path.write_bytes(b"")
    elif content == "npy":
        buf = io.BytesIO()
        np.save(buf, tables.tables["x0"])
        path.write_bytes(buf.getvalue())
    elif content == "truncated":
        save_kernel_tables(path, tables)
        path.write_bytes(path.read_bytes()[:1000])
    else:
        save_kernel_tables(path, tables)
        _drop_from_cache(path, "grid", replace=np.array(["cart 8 1"], dtype=object))


class TestKernelCache:
    def test_cartesian_round_trip(self, tmp_path):
        grid = build_cartesian_grid(1.0, 8)
        tables = tabulate_cartesian_kernels(grid)
        p = tmp_path / "k.npz"
        save_kernel_tables(p, tables)
        back = load_kernel_tables(p, grid)
        for kind, arr in tables.tables.items():
            np.testing.assert_array_equal(back.tables[kind], arr)

    def test_polar_round_trip(self, tmp_path):
        grid = build_polar_grid(1.0, 8, 0.9)
        tables = tabulate_polar_kernels(grid)
        p = tmp_path / "k.npz"
        save_kernel_tables(p, tables)
        back = load_kernel_tables(p, grid)
        for kind, arr in tables.tables.items():
            np.testing.assert_array_equal(back.tables[kind], arr)
        for kind, arr in tables.hole_tables.items():
            np.testing.assert_array_equal(back.hole_tables[kind], arr)

    def test_grid_mismatch_rejected(self, tmp_path):
        grid = build_cartesian_grid(1.0, 8)
        tables = tabulate_cartesian_kernels(grid)
        p = tmp_path / "k.npz"
        save_kernel_tables(p, tables)
        with pytest.raises(FileFormatError):
            load_kernel_tables(p, build_cartesian_grid(1.0, 16))
        with pytest.raises(FileFormatError):
            load_kernel_tables(p, build_cartesian_grid(2.0, 8))
        polar = build_polar_grid(1.0, 8, 0.9)
        with pytest.raises(FileFormatError, match="cart 8 1"):
            load_kernel_tables(p, polar)
        q = tmp_path / "kp.npz"
        save_kernel_tables(q, tabulate_polar_kernels(polar))
        for other in (build_polar_grid(2.0, 8, 0.9), build_polar_grid(1.0, 8, 0.95)):
            with pytest.raises(FileFormatError, match="polar 8"):
                load_kernel_tables(q, other)

    @pytest.mark.parametrize("key", ["version", "grid"])
    def test_missing_signature_key_rejected(self, tmp_path, key):
        grid = build_cartesian_grid(1.0, 8)
        p = tmp_path / "k.npz"
        save_kernel_tables(p, tabulate_cartesian_kernels(grid))
        _drop_from_cache(p, key)
        with pytest.raises(FileFormatError, match=f"lacks {key}"):
            load_kernel_tables(p, grid)

    def test_version_one_cache_rejected(self, tmp_path):
        grid = build_cartesian_grid(1.0, 8)
        p = tmp_path / "k.npz"
        _write_version_one_cache(p, tabulate_cartesian_kernels(grid))
        with pytest.raises(FileFormatError, match="version 1 unsupported"):
            load_kernel_tables(p, grid)

    def test_version_two_cache_rejected(self, tmp_path):
        # version 2 held all six Cartesian kinds as full wrap-layout tables
        grid = build_cartesian_grid(1.0, 8)
        tables = tabulate_cartesian_kernels(grid)
        p = tmp_path / "k.npz"
        np.savez_compressed(p, version=np.array(2), grid=np.array("cart 8 1"),
                            **{f"table_{k}": tables.table(k) for k in KINDS})
        with pytest.raises(FileFormatError, match="version 2 unsupported; rebuild it"):
            load_kernel_tables(p, grid)

    def test_cache_holds_uncompressed_quadrants(self, tmp_path):
        grid = build_cartesian_grid(1.0, 8)
        p = tmp_path / "k.npz"
        save_kernel_tables(p, tabulate_cartesian_kernels(grid))
        with zipfile.ZipFile(p) as zf:
            assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_STORED}
        with np.load(p) as data:
            assert sorted(data.files) == ["grid", "table_x0", "table_xx", "table_xy", "version"]
            assert data["table_x0"].shape == (9, 9)

    @pytest.mark.parametrize("content", ["text", "empty", "npy", "truncated", "object"])
    def test_unreadable_cache_rejected(self, tmp_path, content):
        grid = build_cartesian_grid(1.0, 8)
        p = tmp_path / "k.npz"
        _write_unreadable_cache(p, content, tabulate_cartesian_kernels(grid))
        with pytest.raises(FileFormatError, match="not a readable kernel cache"):
            load_kernel_tables(p, grid)

    @pytest.mark.parametrize("key", ["table_xy", "table_x0"])
    def test_cartesian_missing_kind_rejected(self, tmp_path, key):
        grid = build_cartesian_grid(1.0, 8)
        p = tmp_path / "k.npz"
        save_kernel_tables(p, tabulate_cartesian_kernels(grid))
        _drop_from_cache(p, key)
        with pytest.raises(FileFormatError, match=key):
            load_kernel_tables(p, grid)

    def test_cartesian_wrong_shape_rejected(self, tmp_path):
        grid = build_cartesian_grid(1.0, 8)
        p = tmp_path / "k.npz"
        save_kernel_tables(p, tabulate_cartesian_kernels(grid))
        _drop_from_cache(p, "table_xx", replace=np.zeros((16, 8)))
        with pytest.raises(FileFormatError, match="table_xx"):
            load_kernel_tables(p, grid)

    @pytest.mark.parametrize("key, replace", [("table_rt", None), ("hole_tt", None),
                                              ("table_r0", np.zeros((8, 8))),
                                              ("hole_t0", np.zeros((16, 8)))])
    def test_polar_missing_or_misshapen_kind_rejected(self, tmp_path, key, replace):
        grid = build_polar_grid(1.0, 8, 0.9)
        p = tmp_path / "k.npz"
        save_kernel_tables(p, tabulate_polar_kernels(grid))
        _drop_from_cache(p, key, replace)
        with pytest.raises(FileFormatError, match=key):
            load_kernel_tables(p, grid)

