import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from thindisk import (D2PairDisk, build_cartesian_grid, eval_cartesian_kernel, sample_density,
                      solve_cartesian, tabulate_cartesian_kernels)
from thindisk import kernels_cartesian
from thindisk.kernels_cartesian import KINDS, PARITY, wrap_offsets

from oracles import quad_cartesian_kernel


@pytest.fixture(scope="module")
def grid8():
    return build_cartesian_grid(1.0, 8)


class TestEval:
    def test_self_cell_zero(self, grid8):
        assert eval_cartesian_kernel("x0", 0, 0, grid8) == 0.0
        assert eval_cartesian_kernel("y0", 0, 0, grid8) == 0.0

    def test_x0_sign_symmetries(self, grid8):
        rng = np.random.default_rng(3)
        for _ in range(20):
            di, dj = rng.integers(-8, 9, size=2)
            v = eval_cartesian_kernel("x0", di, dj, grid8)
            assert eval_cartesian_kernel("x0", -di, dj, grid8) == pytest.approx(-v, abs=1e-15)
            assert eval_cartesian_kernel("x0", di, -dj, grid8) == pytest.approx(v, rel=1e-13, abs=1e-15)

    def test_xy_antisymmetry(self, grid8):
        v = eval_cartesian_kernel("xy", 2, 3, grid8)
        assert eval_cartesian_kernel("xy", -2, 3, grid8) == pytest.approx(-v, rel=1e-13)

    def test_y_family_is_axis_swap(self, grid8):
        rng = np.random.default_rng(5)
        for _ in range(20):
            di, dj = rng.integers(-7, 8, size=2)
            assert eval_cartesian_kernel("yx", di, dj, grid8) == pytest.approx(
                eval_cartesian_kernel("xy", dj, di, grid8), rel=1e-13, abs=1e-16)
            assert eval_cartesian_kernel("y0", di, dj, grid8) == pytest.approx(
                eval_cartesian_kernel("x0", dj, di, grid8), rel=1e-13, abs=1e-16)
            assert eval_cartesian_kernel("yy", di, dj, grid8) == pytest.approx(
                eval_cartesian_kernel("xx", dj, di, grid8), rel=1e-13, abs=1e-16)

    def test_quadrature_oracle_neighbor_cell(self, grid8):
        want = quad_cartesian_kernel("x0", 1, 0, grid8)
        got = eval_cartesian_kernel("x0", 1, 0, grid8)
        assert got == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("kind", KINDS)
    def test_quadrature_oracle_sample(self, grid8, kind):
        rng = np.random.default_rng(hash(kind) % 2**32)
        for _ in range(4):
            di, dj = 0, 0
            while (di, dj) == (0, 0):
                di, dj = int(rng.integers(-8, 9)), int(rng.integers(-8, 9))
            want = quad_cartesian_kernel(kind, di, dj, grid8)
            got = float(eval_cartesian_kernel(kind, di, dj, grid8))
            assert got == pytest.approx(want, rel=1e-8, abs=1e-12)

    def test_quadrature_oracle_singular_self_cell(self, grid8):
        # the self-cell integrands are singular but integrable; xx has the
        # known value 2*dx*log(1+sqrt(2)) by the square-cell 1/rho identity
        got = float(eval_cartesian_kernel("xx", 0, 0, grid8))
        assert got == pytest.approx(2 * grid8.dx * np.log(1 + np.sqrt(2)), rel=1e-13)
        assert got == pytest.approx(quad_cartesian_kernel("xx", 0, 0, grid8), rel=1e-7)
        assert float(eval_cartesian_kernel("xy", 0, 0, grid8)) == pytest.approx(0.0, abs=1e-14)

    def test_scale_invariance_of_x0(self):
        # dimensionless kernel: uniform rescaling of the domain leaves it fixed
        a = build_cartesian_grid(1.0, 16)
        b = build_cartesian_grid(7.3, 16)
        offs = wrap_offsets(16)
        va = eval_cartesian_kernel("x0", offs[:, None], offs[None, :], a)
        vb = eval_cartesian_kernel("x0", offs[:, None], offs[None, :], b)
        np.testing.assert_allclose(va, vb, rtol=1e-12, atol=1e-14)

    def test_length_bearing_kinds_scale_linearly(self):
        a = build_cartesian_grid(1.0, 8)
        b = build_cartesian_grid(3.0, 8)
        for kind in ("xx", "xy"):
            va = eval_cartesian_kernel(kind, 2, -3, a)
            vb = eval_cartesian_kernel(kind, 2, -3, b)
            assert vb == pytest.approx(3.0 * va, rel=1e-12)

    def test_unknown_kind(self, grid8):
        with pytest.raises(ValueError):
            eval_cartesian_kernel("zz", 0, 0, grid8)


class TestTables:
    def test_layout_matches_eval(self):
        grid = build_cartesian_grid(1.0, 4)
        t = tabulate_cartesian_kernels(grid)
        # wrapped slot for (di, dj) = (-3, 0) lives at row 2n - 3
        assert t.table("x0")[2 * 4 - 3, 0] == eval_cartesian_kernel("x0", -3, 0, grid)

    @pytest.mark.parametrize("n", [16, 33])
    def test_table_equals_entrywise_eval(self, n):
        # the odd size puts the corner lattice's ends off any symmetry
        grid = build_cartesian_grid(1.0, n)
        t = tabulate_cartesian_kernels(grid)
        offs = wrap_offsets(n)
        for kind in KINDS:
            want = eval_cartesian_kernel(kind, offs[:, None], offs[None, :], grid)
            np.testing.assert_array_equal(t.table(kind), want)

    @pytest.mark.parametrize("n", [16, 33, 64, 128, 256, 512])
    def test_negative_offsets_are_exact_parity_images(self, n):
        grid = build_cartesian_grid(1.0, n)
        t = tabulate_cartesian_kernels(grid)
        offs = wrap_offsets(n)
        neg = np.flatnonzero(offs < 0)
        for kind in KINDS:
            full, (pr, pc) = t.table(kind), PARITY[kind]
            assert np.array_equal(full[neg], pr * full[-offs[neg]])
            assert np.array_equal(full[:, neg], pc * full[:, -offs[neg]])
        d = np.arange(1, n)
        for kind in KINDS:
            pr, pc = PARITY[kind]
            at = eval_cartesian_kernel(kind, d[:, None], d[None, :], grid)
            assert np.array_equal(eval_cartesian_kernel(kind, -d[:, None], d[None, :], grid), pr * at)
            assert np.array_equal(eval_cartesian_kernel(kind, d[:, None], -d[None, :], grid), pc * at)

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_extreme_offsets_at_least_as_close_to_quadrature(self, n):
        # the tables evaluate each kernel at non-positive offsets and mirror it;
        # at the far rows and columns, of either sign, they are no further from
        # the quadrature oracle than the corner formula at the literal offsets
        grid = build_cartesian_grid(1.0, n)
        t = tabulate_cartesian_kernels(grid)
        far, dx = n - 1, grid.dx

        def literal(kind, di, dj):
            if kind.startswith("y"):
                return literal(kernels_cartesian._Y_FROM_X[kind], dj, di)
            corners = kernels_cartesian._point_corners(
                lambda u, v: (u, v),
                (0.5 - di) * dx, (-0.5 - di) * dx, (0.5 - dj) * dx, (-0.5 - dj) * dx)
            return float(kernels_cartesian._assemble(kind, corners, di, dj, dx))

        edge = (-far, -2, 0, 2, far)
        offsets = sorted({(s * far, d) for s in (-1, 1) for d in edge}
                         | {(d, s * far) for s in (-1, 1) for d in edge})
        for kind in KINDS:
            want = np.array([quad_cartesian_kernel(kind, a, b, grid) for a, b in offsets])
            got = np.array([t.table(kind)[a % (2 * n), b % (2 * n)] for a, b in offsets])
            direct = np.array([literal(kind, a, b) for a, b in offsets])
            assert np.abs(got - want).max() <= np.abs(direct - want).max(), kind

    @pytest.mark.parametrize("n", [16, 33])
    def test_spectrum_is_real_quadrant_of_table_spectrum(self, n):
        grid = build_cartesian_grid(1.0, n)
        t = tabulate_cartesian_kernels(grid)
        for kind in KINDS:
            (pr, pc), full = PARITY[kind], t.table(kind).copy()
            # offset n of an odd axis is outside the aperiodic sum; zero makes it odd
            if pr < 0:
                full[n] = 0.0
            if pc < 0:
                full[:, n] = 0.0
            want = np.fft.rfft2(full)
            quadrant = t.spectrum(kind) * (1j if pr * pc < 0 else 1.0)
            scale = np.abs(want).max()
            np.testing.assert_allclose(want[:n + 1], quadrant, rtol=0, atol=1e-13 * scale)
            np.testing.assert_allclose(want[n + 1:], pr * quadrant[n - 1:0:-1],
                                       rtol=0, atol=1e-13 * scale)

    def test_antisymmetry_cancellation(self):
        # paired +-di rows cancel; only the unpaired +n wrap row survives
        grid = build_cartesian_grid(1.0, 32)
        t = tabulate_cartesian_kernels(grid)
        x0 = t.table("x0")
        total = x0.sum() - x0[32, :].sum()
        assert abs(total) < 1e-10

    def test_threaded_tabulation_matches(self):
        grid = build_cartesian_grid(1.0, 64)
        a = tabulate_cartesian_kernels(grid, threads=1)
        b = tabulate_cartesian_kernels(grid, threads=4)
        for kind in KINDS:
            np.testing.assert_array_equal(a.table(kind), b.table(kind))

    def test_spectrum_cached(self):
        grid = build_cartesian_grid(1.0, 8)
        t = tabulate_cartesian_kernels(grid)
        s1 = t.spectrum("x0")
        assert t.spectrum("x0") is s1

    def test_shared_tables_across_threads(self):
        # spectra are filled lazily; threads sharing one fresh KernelTables
        # must still solve exactly as a lone thread does
        grid = build_cartesian_grid(1.0, 64)
        field = sample_density(D2PairDisk(), grid)
        want = solve_cartesian(field, tabulate_cartesian_kernels(grid))
        for _ in range(3):
            shared = tabulate_cartesian_kernels(grid)
            start = threading.Barrier(4)

            def solve(_):
                start.wait(timeout=30)
                return solve_cartesian(field, shared)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(4) as pool:
                    futures = [pool.submit(solve, i) for i in range(4)]
                    results = [f.result(timeout=60) for f in futures]
            finally:
                sys.setswitchinterval(interval)
            for got in results:
                np.testing.assert_array_equal(got.comp_u, want.comp_u)
                np.testing.assert_array_equal(got.comp_v, want.comp_v)
