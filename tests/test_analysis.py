import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thindisk import (D2Disk, build_cartesian_grid, build_polar_grid,
                      error_norms, order_of_accuracy, restrict_fine_to_coarse,
                      run_convergence, singular_trapezoid_study)
from thindisk.analysis import ConvergenceReport, array_norms
from thindisk.solver import ForceField


def _field(grid, u, v):
    return ForceField(grid, u, v)


class TestNorms:
    def test_identical_fields(self):
        g = build_cartesian_grid(1.0, 8)
        a = _field(g, np.ones((8, 8)), np.zeros((8, 8)))
        res = error_norms(a, a, g)
        assert res["x"] == (0.0, 0.0, 0.0)

    def test_constant_difference(self):
        # domain [-1,1]^2 has area 4: L1 = 4c, L2 = 2c, Linf = c
        g = build_cartesian_grid(1.0, 16)
        c = 0.37
        e1, e2, ei = array_norms(np.full((16, 16), c), g)
        assert e1 == pytest.approx(4 * c, rel=1e-13)
        assert e2 == pytest.approx(2 * c, rel=1e-13)
        assert ei == c

    def test_polar_constant_difference(self):
        g = build_polar_grid(1.0, 32, 0.99)
        area = np.pi * (1 - g.hole_radius**2)
        e1, e2, ei = array_norms(np.ones((32, 32)), g)
        assert e1 == pytest.approx(area, rel=1e-12)
        assert e2 == pytest.approx(np.sqrt(area), rel=1e-12)
        assert ei == 1.0

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_homogeneity(self, s):
        g = build_cartesian_grid(1.0, 8)
        d = np.random.default_rng(0).standard_normal((8, 8))
        base = array_norms(d, g)
        scaled = array_norms(s * d, g)
        for b, sc in zip(base, scaled):
            assert sc == pytest.approx(s * b, rel=1e-12)

    def test_grid_mismatch(self):
        g1 = build_cartesian_grid(1.0, 8)
        g2 = build_cartesian_grid(1.0, 16)
        a = _field(g1, np.zeros((8, 8)), np.zeros((8, 8)))
        b = _field(g2, np.zeros((16, 16)), np.zeros((16, 16)))
        with pytest.raises(ValueError):
            error_norms(a, b, g1)

    def test_shape_mismatch(self):
        g = build_cartesian_grid(1.0, 8)
        with pytest.raises(ValueError):
            array_norms(np.zeros((4, 4)), g)


class TestOrder:
    def test_equal_errors(self):
        assert order_of_accuracy(1.0, 1.0) == 0.0

    def test_ratio_two(self):
        assert order_of_accuracy(2.0, 1.0) == 1.0

    def test_reference_pair(self):
        assert order_of_accuracy(5.620e-5, 1.427e-5) == pytest.approx(1.977, abs=1e-3)

    def test_scaling_invariance(self):
        a, b = 3.1e-3, 8.5e-4
        assert order_of_accuracy(7 * a, 7 * b) == pytest.approx(order_of_accuracy(a, b),
                                                                rel=1e-14)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            order_of_accuracy(0.0, 1.0)
        with pytest.raises(ValueError):
            order_of_accuracy(1.0, -1.0)


class TestRestriction:
    def test_constant_preserved(self):
        g = build_cartesian_grid(1.0, 8)
        f = _field(g, np.full((8, 8), 2.5), np.full((8, 8), -1.0))
        c = restrict_fine_to_coarse(f)
        assert c.grid.n == 4
        assert np.all(c.comp_u == 2.5)
        assert np.all(c.comp_v == -1.0)

    def test_linear_field_exact_at_coarse_centers(self):
        g = build_cartesian_grid(1.0, 16)
        X, Y = g.center_mesh()
        f = _field(g, X.copy(), Y.copy())
        c = restrict_fine_to_coarse(f)
        Xc, Yc = c.grid.center_mesh()
        np.testing.assert_allclose(c.comp_u, Xc, atol=1e-14)
        np.testing.assert_allclose(c.comp_v, Yc, atol=1e-14)

    def test_non_nested_rejected(self):
        g = build_cartesian_grid(1.0, 9)
        f = _field(g, np.ones((9, 9)), np.ones((9, 9)))
        with pytest.raises(ValueError):
            restrict_fine_to_coarse(f)

    def test_closest4_reduces_to_children_mean_at_factor_two(self):
        from thindisk.analysis import restrict_closest4
        g = build_cartesian_grid(1.0, 16)
        rng = np.random.default_rng(3)
        f = _field(g, rng.standard_normal((16, 16)), rng.standard_normal((16, 16)))
        a = restrict_fine_to_coarse(f)
        b = restrict_closest4(f, 8)
        np.testing.assert_array_equal(a.comp_u, b.comp_u)
        np.testing.assert_array_equal(a.comp_v, b.comp_v)

    def test_closest4_exact_on_linear_fields_any_factor(self):
        from thindisk.analysis import restrict_closest4
        g = build_cartesian_grid(1.0, 32)
        X, Y = g.center_mesh()
        f = _field(g, 2 * X - Y, X + 3 * Y)
        c = restrict_closest4(f, 8)
        Xc, Yc = c.grid.center_mesh()
        np.testing.assert_allclose(c.comp_u, 2 * Xc - Yc, atol=1e-13)
        np.testing.assert_allclose(c.comp_v, Xc + 3 * Yc, atol=1e-13)

    @pytest.mark.parametrize("truth_n,n", [(64, 64), (96, 32), (64, 128)])
    def test_self_convergence_rejects_truth_before_solving(self, monkeypatch, capsys,
                                                           truth_n, n):
        from thindisk import LogSpiralDisk, analysis
        from thindisk.analysis import restrict_closest4
        from thindisk.cli import main
        zeros = np.zeros((truth_n, truth_n))
        with pytest.raises(ValueError) as want:
            restrict_closest4(_field(build_cartesian_grid(1.0, truth_n), zeros, zeros), n)
        monkeypatch.setattr(analysis, "solve_field",
                            lambda *a, **k: pytest.fail("solved before the check"))
        with pytest.raises(ValueError) as got:
            analysis.run_self_convergence(LogSpiralDisk(), [n], truth_n)
        assert str(got.value) == str(want.value)
        assert main(["converge", "--model", "log-spiral", "--truth-N", str(truth_n),
                     "--N", str(n)]) == 1
        assert capsys.readouterr().err == f"error: {want.value}\n"


class TestSolveRecipe:
    @pytest.mark.parametrize("coords", ["cartesian", "polar"])
    def test_proposed_matches_the_geometry_solver(self, coords, monkeypatch):
        from thindisk import (analysis, sample_density, solve_cartesian, solve_polar,
                              tabulate_cartesian_kernels, tabulate_polar_kernels)
        cart = coords == "cartesian"
        grid = build_cartesian_grid(1.0, 16) if cart else build_polar_grid(1.0, 16, 0.99)
        field = sample_density(D2Disk(), grid)
        tabulate = tabulate_cartesian_kernels if cart else tabulate_polar_kernels
        want = (solve_cartesian if cart else solve_polar)(field, tabulate(grid))
        got = analysis.solve_field(field)
        np.testing.assert_array_equal(got.comp_u, want.comp_u)
        np.testing.assert_array_equal(got.comp_v, want.comp_v)
        # given tables are used as they are, with no tabulation
        tables = tabulate(grid)
        tables.tables[next(iter(tables.tables))][1, 1] += 1.0
        monkeypatch.setattr(analysis, "tabulate_kernels", lambda g: pytest.fail("tabulated"))
        assert not np.array_equal(analysis.solve_field(field, tables=tables).comp_u, want.comp_u)

    def test_softening_epsilon(self):
        from thindisk import SofteningConfig, sample_density, solve_softened_cartesian
        from thindisk.analysis import solve_field
        field = sample_density(D2Disk(), build_cartesian_grid(1.0, 16))
        for eps, cfg in ((None, None), (0.05, SofteningConfig(0.05))):
            got = solve_field(field, "softening", epsilon=eps)
            want = solve_softened_cartesian(field, cfg)
            np.testing.assert_array_equal(got.comp_u, want.comp_u)
        assert not np.array_equal(got.comp_u, solve_field(field, "softening").comp_u)

    def test_bad_method_or_geometry(self):
        from thindisk import sample_density
        from thindisk.analysis import solve_field
        grid = build_polar_grid(1.0, 16, 0.99)
        field = sample_density(D2Disk(), grid)
        with pytest.raises(ValueError, match="^unknown method 'direct'$"):
            solve_field(field, "direct")
        with pytest.raises(ValueError, match="^softened solver runs on Cartesian grids$"):
            solve_field(field, "softening")

    def test_csv_text(self):
        from thindisk.analysis import csv_text
        assert csv_text(["k", "E", "order"], [(2, 0.1, None), (3, np.float64(1 / 3), -0.0)]) == (
            "k,E,order\n2,0.10000000000000001,\n3,0.33333333333333331,-0\n")
        assert csv_text(["a"], []) == "a\n"


class TestSingularStudy:
    def test_rows_and_monotone_decay(self):
        rows = singular_trapezoid_study(range(2, 11))
        ks = [r[0] for r in rows]
        errs = [r[1] for r in rows]
        assert ks == list(range(2, 11))
        assert all(a > b for a, b in zip(errs[:-1], errs[1:]))
        assert rows[0][2] is None

    def test_leading_behavior(self):
        # the trapezoid misses 4*theta_k of integral mass at leading order
        rows = dict((k, e) for k, e, _ in singular_trapezoid_study([2, 6, 10]))
        assert rows[2] == pytest.approx(0.99828, abs=2e-4)
        for k in (6, 10):
            assert rows[k] == pytest.approx(4 * 2.0**-k, rel=2e-2)

    def test_orders_approach_one(self):
        rows = singular_trapezoid_study(range(2, 11))
        orders = [r[2] for r in rows[1:]]
        assert all(0.9 < o <= 1.0 for o in orders)
        assert orders[-1] > orders[0]

    def test_k_validation(self):
        with pytest.raises(ValueError):
            singular_trapezoid_study([1, 2])

    def test_beyond_k26_raises(self):
        # 1 - cos(2**-k) rounds to 0 from k = 27 on; k = 26 is the last finite row
        (k, err, order), = singular_trapezoid_study([26])
        assert err == pytest.approx(4 * 2.0**-26, rel=1e-3)
        with pytest.raises(FloatingPointError, match=r"2\*\*-27\)"):
            singular_trapezoid_study(range(20, 31))


class TestReportCSV:
    def _report(self):
        return run_convergence(D2Disk(), [8, 16], coords="cartesian",
                               method="softening")

    def test_round_trip_exact(self):
        rep = self._report()
        back = ConvergenceReport.from_csv(rep.to_csv())
        assert back.n_values == rep.n_values
        assert back.components == rep.components
        assert back.method == rep.method and back.model == rep.model
        for c in rep.components:
            for a, b in zip(rep.norms[c], back.norms[c]):
                assert a == b   # 17 significant digits round-trip float64

    def test_orders_defined_for_consecutive_pairs(self):
        rep = self._report()
        orders = rep.orders("x")
        assert orders[0] is None
        assert len(orders) == 2
        assert isinstance(orders[1], float)

    def test_reference_convention_scales_norms(self):
        plain = run_convergence(D2Disk(), [8], coords="polar", method="proposed")
        ref = run_convergence(D2Disk(), [8], coords="polar", method="proposed",
                              row_convention="reference")
        p = plain.norms["r"][0]
        q = ref.norms["r"][0]
        assert q[0] == pytest.approx(4 * p[0], rel=1e-13)
        assert q[1] == pytest.approx(2 * p[1], rel=1e-13)
        assert q[2] == pytest.approx(p[2], rel=1e-13)

    def test_table_example_value(self):
        # plain-convention x-component error at n=64 sits within a few
        # percent of the frozen reference value 3.039e-3
        rep = run_convergence(D2Disk(), [64], coords="cartesian")
        assert rep.norms["x"][0][0] == pytest.approx(3.039e-3, rel=0.05)
