import numpy as np
import pytest

from thindisk import build_cartesian_grid, eval_cartesian_kernel, tabulate_cartesian_kernels
from thindisk.kernels_cartesian import KINDS, wrap_offsets

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
