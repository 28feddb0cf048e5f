import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import d2_density, d2_density_gradient, d2_pair
from thindisk import (CallableModel, D2Disk, D2PairDisk, LogSpiralDisk,
                      build_cartesian_grid, build_polar_grid, eval_density,
                      sample_density)
from thindisk.analysis import _analytic_force
from thindisk.gridio import read_density, write_density
from thindisk.models import central_difference_slopes


class TestD2Closed:
    disk = D2Disk(alpha=0.25, sigma0=1.0)

    def test_density_center_and_outside(self):
        assert eval_density(self.disk, 0.0, 0.0) == 1.0
        assert eval_density(self.disk, 0.3, 0.0) == 0.0
        assert eval_density(self.disk, 0.0, -0.4) == 0.0

    def test_density_continuous_at_rim(self):
        inner = self.disk.density(0.25 - 1e-13, 0.0)
        outer = self.disk.density(0.25 + 1e-13, 0.0)
        assert abs(inner - outer) < 1e-12

    def test_force_zero_at_origin(self):
        assert self.disk.radial_force(0.0) == 0.0

    def test_force_branches_agree_at_rim(self):
        # both closed-form branches evaluate to -3*pi^2/16 at R = alpha
        val = -3 * np.pi**2 / 16
        assert self.disk.radial_force(0.25)[0] == pytest.approx(val, rel=1e-12)
        assert self.disk.radial_force(0.25 + 1e-15)[0] == pytest.approx(val, rel=1e-9)
        assert val == pytest.approx(-1.85055, abs=1e-5)

    def test_force_interior_value(self):
        a = 0.25
        r = a / 2
        want = -3 * np.pi**2 * r * (4 * a**2 - 3 * r**2) / (16 * a**3)
        assert self.disk.radial_force(r)[0] == pytest.approx(want, rel=1e-14)

    def test_potential_center(self):
        # closed form at R=0 reduces to -3*pi^2*sigma0*alpha/8, which equals
        # the direct integral of -sigma/R over the disk
        want = -3 * np.pi**2 * 0.25 / 8
        assert self.disk.potential(0.0)[0] == pytest.approx(want, rel=1e-14)

    def test_potential_branches_agree_at_rim(self):
        inner = self.disk.potential(0.25)[0]
        outer = self.disk.potential(0.25 * (1 + 1e-14))[0]
        assert inner == pytest.approx(outer, rel=1e-12)

    @pytest.mark.parametrize("r", [0.05, 0.1, 0.2, 0.23, 0.3, 0.5, 0.9])
    def test_force_is_minus_potential_gradient(self, r):
        h = 1e-6
        dphi = (self.disk.potential(r + h) - self.disk.potential(r - h)) / (2 * h)
        assert -dphi[0] == pytest.approx(self.disk.radial_force(r)[0], rel=1e-6, abs=1e-9)

    def test_finite_difference_order_of_gradient_match(self):
        # halving h must show second-order agreement away from the rim
        r = 0.15
        errs = []
        for h in (1e-3, 5e-4, 2.5e-4):
            dphi = (self.disk.potential(r + h) - self.disk.potential(r - h)) / (2 * h)
            errs.append(abs(-dphi[0] - self.disk.radial_force(r)[0]))
        order = np.log2(errs[0] / errs[1])
        assert order > 1.9
        order = np.log2(errs[1] / errs[2])
        assert order > 1.9

    def test_potential_vanishes_far_away(self):
        far = self.disk.potential(50.0)[0]
        assert far < 0
        assert far == pytest.approx(-self.disk.mass / 50.0, rel=1e-3)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            self.disk.radial_force(-0.1)
        with pytest.raises(ValueError):
            self.disk.potential([-1.0])

    def test_bad_parameters(self):
        # both disk models refuse non-positive and non-finite values by name
        for model in (D2Disk, D2PairDisk):
            for name in ("alpha", "sigma0"):
                for value in (-1.0, 0.0, np.inf, np.nan):
                    with pytest.raises(ValueError,
                                       match=f"^{name} must be positive and finite, got {value}$"):
                        model(**{name: value})
        for value in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match=f"^offset must be finite, got {value}$"):
                D2PairDisk(offset=value)
        D2PairDisk(offset=0.0)


# half-widths, in units of alpha, of the column x row meshes whose share of
# points inside the disk is about 1 %, 40 % and 97 %
MESH_HALF_WIDTH = {0.01: 8.9, 0.4: 1.4, 0.97: 0.73}


@st.composite
def d2_points(draw):
    """(alpha, sigma0, offset, x, y) for the D2 closed forms: 0-d scalars,
    flat arrays or a column x row broadcast, with about 1 %, 40 % or 97 % of
    the points inside the disk, and among them points with R^2 == alpha^2,
    R^2 a few ulps either side of it, NaN and +-inf coordinates."""
    alpha = draw(st.floats(0.05, 2.0))
    sigma0 = draw(st.floats(0.1, 10.0))
    offset = draw(st.floats(0.0, alpha))
    fill = draw(st.sampled_from(sorted(MESH_HALF_WIDTH)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = rng.uniform(0.0, 2 * np.pi, 4)
    rim_x, rim_y = alpha * np.cos(t), alpha * np.sin(t)
    specials = [(alpha, 0.0), (0.0, -alpha), (-alpha, -0.0), (np.nan, 0.1), (0.0, np.inf),
                (-np.inf, np.nan), (np.inf, -np.inf),
                *zip(rim_x, rim_y), *zip(np.nextafter(rim_x, 0.0), rim_y),
                *zip(np.nextafter(rim_x, 2 * rim_x), rim_y)]
    layout = draw(st.sampled_from(["scalar", "flat", "column-row"]))
    if layout == "scalar":
        x, y = specials[rng.integers(len(specials))] if rng.random() < 0.5 else \
            rng.uniform(-1.5 * alpha, 1.5 * alpha, 2)
        return alpha, sigma0, offset, np.float64(x), float(y)
    if layout == "flat":
        n = 300
        inside = rng.random(n) < fill
        r = alpha * np.where(inside, np.sqrt(rng.random(n)), 1.0 + 3.0 * rng.random(n) + 1e-9)
        t = rng.uniform(0.0, 2 * np.pi, n)
        x, y = r * np.cos(t), r * np.sin(t)
        at = rng.choice(n, len(specials), replace=False)
        x[at], y[at] = np.transpose(specials)
        return alpha, sigma0, offset, x.reshape(20, 15), y.reshape(20, 15)
    h = MESH_HALF_WIDTH[fill] * alpha
    x = rng.uniform(-h, h, (24, 1))
    y = rng.uniform(-h, h, (1, 17))
    x[:5, 0] = alpha, np.nan, np.inf, rim_x[0], np.nextafter(rim_x[0], 0.0)
    y[0, :5] = 0.0, -np.inf, 0.5 * alpha, rim_y[0], -np.nan
    return alpha, sigma0, offset, x, y


def _assert_same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestD2SupportSampling:
    """D2Disk evaluates its closed forms on the support alone; every value,
    sign bit and NaN must match the forms evaluated at every point."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(d2_points())
    def test_matches_dense_closed_forms(self, case):
        alpha, sigma0, offset, x, y = case
        disk, pair = D2Disk(alpha, sigma0), D2PairDisk(alpha, sigma0, offset)
        with np.errstate(invalid="ignore"):     # (-0.0) * inf outside the disk
            _assert_same(disk.density(x, y), d2_density(disk, x, y))
            _assert_same(pair.density(x, y), d2_pair(d2_density, pair, x, y))
            for got, want in zip(disk.density_gradient(x, y), d2_density_gradient(disk, x, y)):
                _assert_same(got, want)
            for got, want in zip(pair.density_gradient(x, y),
                                 d2_pair(d2_density_gradient, pair, x, y)):
                _assert_same(got, want)


class TestLogSpiral:
    disk = LogSpiralDisk()

    def test_formula(self):
        for r, th in [(0.1, 0.3), (0.5, -2.0), (1.0, 3.0)]:
            x, y = r * np.cos(th), r * np.sin(th)
            want = np.exp(-2 * r**2) * (2 + np.cos(2 * th + 16 * r))
            assert self.disk.density(x, y) == pytest.approx(want, rel=1e-13)

    def test_near_origin_limit_along_axis(self):
        vals = self.disk.density(np.array([1e-3, 1e-5, 1e-7]), np.zeros(3))
        np.testing.assert_allclose(vals, 2 + np.cos(16e-3), rtol=2e-2)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-0.8, 0.8, size=(20, 2))
        pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 0.05]
        h = 1e-6
        gx, gy = self.disk.density_gradient(pts[:, 0], pts[:, 1])
        fx = (self.disk.density(pts[:, 0] + h, pts[:, 1])
              - self.disk.density(pts[:, 0] - h, pts[:, 1])) / (2 * h)
        fy = (self.disk.density(pts[:, 0], pts[:, 1] + h)
              - self.disk.density(pts[:, 0], pts[:, 1] - h)) / (2 * h)
        np.testing.assert_allclose(gx, fx, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(gy, fy, rtol=1e-5, atol=1e-7)


class TestSampling:
    def test_zero_model(self):
        grid = build_cartesian_grid(1.0, 8)
        f = sample_density(CallableModel(lambda x, y: np.zeros_like(x)), grid)
        assert not f.values.any()
        assert not f.slope_u.any() and not f.slope_v.any()

    def test_pointwise_sampling(self):
        grid = build_cartesian_grid(1.0, 32)
        disk = D2Disk()
        f = sample_density(disk, grid)
        X, Y = grid.center_mesh()
        np.testing.assert_array_equal(f.values, disk.density(X, Y))
        assert f.slope_source == "analytic"

    def test_constant_model_difference_slopes_vanish(self):
        grid = build_cartesian_grid(1.0, 12)
        f = sample_density(CallableModel(lambda x, y: np.full_like(x, 3.25)), grid)
        assert f.slope_source == "central-difference"
        assert np.abs(f.slope_u).max() == 0.0
        assert np.abs(f.slope_v).max() == 0.0

    def test_difference_slopes_exact_for_quadratics(self):
        # three-point stencils, interior and one-sided, are exact on quadratics
        grid = build_cartesian_grid(1.0, 10)
        X, Y = grid.center_mesh()
        vals = X**2 + 3 * Y**2 - X * Y + 2 * X
        su, sv = central_difference_slopes(vals, grid.x_centers, grid.y_centers)
        np.testing.assert_allclose(su, 2 * X - Y + 2, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sv, 6 * Y - X, rtol=1e-12, atol=1e-12)

    def test_pair_disk_is_sum_of_shifted_disks(self):
        grid = build_cartesian_grid(1.0, 24)
        pair = sample_density(D2PairDisk(), grid)
        single = D2Disk()
        X, Y = grid.center_mesh()
        np.testing.assert_array_equal(
            pair.values, single.density(X - 0.25, Y) + single.density(X + 0.25, Y))
        # a running sum from 0.0: +0.0 wherever both parts are -0.0
        for method in ("density_gradient", "force_xy"):
            right = getattr(single, method)(X - 0.25, Y)
            left = getattr(single, method)(X + 0.25, Y)
            for got, a, b in zip(getattr(D2PairDisk(), method)(X, Y), right, left):
                want = 0.0 + a + b
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("coords, model, mib", [
        ("cartesian", D2Disk, 14.01), ("polar", D2Disk, 16.11),
        ("cartesian", D2PairDisk, 16.55), ("polar", D2PairDisk, 20.06)])
    def test_peak_memory(self, coords, model, mib):
        # the traced peak of one N=512 sample before support-only D2 forms,
        # and for the Cartesian pair the peak once its two disks' parts are
        # summed in place: no full-size temporary may come back
        grid = (build_polar_grid(1.0, 512, 0.99) if coords == "polar"
                else build_cartesian_grid(1.0, 512))
        model = model()
        sample_density(model, grid)
        tracemalloc.start()
        try:
            sample_density(model, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2**20

    def test_polar_sampling_carries_hole_ring(self):
        grid = build_polar_grid(1.0, 16, 0.9)
        disk = D2Disk()
        f = sample_density(disk, grid)
        r0 = grid.hole_radius_mid
        np.testing.assert_allclose(f.hole_values, disk.density(r0, 0.0), rtol=1e-13)
        # axisymmetric: theta slopes cancel to round-off of the rotation
        assert np.abs(f.slope_v).max() < 1e-14

    def test_polar_slopes_rotated_correctly(self):
        grid = build_polar_grid(1.0, 16, 0.9)
        spiral = LogSpiralDisk()
        f = sample_density(spiral, grid)
        Rg, Tg = grid.center_mesh()
        h = 1e-6
        # d/dr along a ray
        num_r = (spiral.density((Rg + h) * np.cos(Tg), (Rg + h) * np.sin(Tg))
                 - spiral.density((Rg - h) * np.cos(Tg), (Rg - h) * np.sin(Tg))) / (2 * h)
        np.testing.assert_allclose(f.slope_u, num_r, rtol=1e-5, atol=1e-6)
        num_t = (spiral.density(Rg * np.cos(Tg + h), Rg * np.sin(Tg + h))
                 - spiral.density(Rg * np.cos(Tg - h), Rg * np.sin(Tg - h))) / (2 * h)
        np.testing.assert_allclose(f.slope_v, num_t, rtol=1e-5, atol=1e-6)

    def test_polar_central_difference_slopes(self):
        # differenced slopes approach the analytic ones; the hole ring keeps
        # its own values, sampled at hole_radius_mid, and takes ring 0's slopes
        spiral = LogSpiralDisk()
        errs = []
        for n in (32, 64, 128):
            grid = build_polar_grid(1.0, n, 0.99)
            f = sample_density(spiral, grid, slopes="central-difference")
            exact = sample_density(spiral, grid, slopes="analytic")
            assert f.slope_source == "central-difference"
            errs.append([np.abs(getattr(f, s) - getattr(exact, s)).max()
                         / np.abs(getattr(exact, s)).max() for s in ("slope_u", "slope_v")])
            t, r0 = grid.theta_centers, grid.hole_radius_mid
            np.testing.assert_array_equal(f.values, exact.values)
            np.testing.assert_array_equal(f.hole_values,
                                          spiral.density(r0 * np.cos(t), r0 * np.sin(t)))
            np.testing.assert_array_equal(f.hole_slope_u, f.slope_u[0])
            np.testing.assert_array_equal(f.hole_slope_v, f.slope_v[0])
        errs = np.array(errs)
        assert np.all(errs[1:] < errs[:-1] / 2.5)
        assert errs[-1, 0] < 0.06 and errs[-1, 1] < 0.004

    @pytest.mark.parametrize("n", [16, 33])
    @pytest.mark.parametrize("model", [LogSpiralDisk(), D2PairDisk(offset=0.1), D2Disk(0.3)],
                             ids=lambda m: m.kind)
    def test_polar_sampling_equals_meshgrid_trig(self, n, model):
        # the separable trig of sample_density against the full-mesh formula
        grid = build_polar_grid(1.0, n, 0.9)
        f = sample_density(model, grid, slopes="analytic")
        Rg, Tg = grid.center_mesh()
        X, Y = Rg * np.cos(Tg), Rg * np.sin(Tg)
        gx, gy = model.density_gradient(X, Y)
        r0, t = grid.hole_radius_mid, grid.theta_centers
        x0, y0 = r0 * np.cos(t), r0 * np.sin(t)
        g0x, g0y = model.density_gradient(x0, y0)
        want = {
            "values": model.density(X, Y),
            "slope_u": gx * np.cos(Tg) + gy * np.sin(Tg),
            "slope_v": Rg * (-gx * np.sin(Tg) + gy * np.cos(Tg)),
            "hole_values": model.density(x0, y0),
            "hole_slope_u": g0x * np.cos(t) + g0y * np.sin(t),
            "hole_slope_v": r0 * (-g0x * np.sin(t) + g0y * np.cos(t)),
        }
        got = {name: getattr(f, name) for name in want}
        if hasattr(model, "force_xy"):
            # the analytic force shares the sampling's points and rotation
            fx, fy = model.force_xy(X, Y)
            force = _analytic_force(model, grid)
            want.update(force_r=fx * np.cos(Tg) + fy * np.sin(Tg),
                        force_theta=-fx * np.sin(Tg) + fy * np.cos(Tg))
            got.update(force_r=force.comp_u, force_theta=force.comp_v)
        for name, a in want.items():
            np.testing.assert_array_equal(got[name], a, err_msg=name)
            np.testing.assert_array_equal(np.signbit(got[name]), np.signbit(a), err_msg=name)

    @pytest.mark.parametrize("slopes", ["central-difference", "auto"])
    def test_two_cell_axes_get_zero_difference_slopes(self, tmp_path, slopes):
        # no three-point stencil fits on two cells: zero slopes, the same
        # from sampling and from a density file without slopes
        grid = build_cartesian_grid(1.0, 2)
        model = CallableModel(lambda x, y: 1.0 + x + 2 * y)
        f = sample_density(model, grid, slopes=slopes)
        assert f.slope_source == "central-difference"
        np.testing.assert_array_equal(f.slope_u, np.zeros((2, 2)))
        np.testing.assert_array_equal(f.slope_v, np.zeros((2, 2)))
        path = tmp_path / "d.txt"
        write_density(path, f, include_slopes=False)
        back = read_density(path)
        for name in ("values", "slope_u", "slope_v", "slope_source"):
            np.testing.assert_array_equal(getattr(back, name), getattr(f, name))
        su, sv = central_difference_slopes(np.ones((2, 5)), np.arange(2.0), np.arange(5.0))
        assert not su.any() and not sv.any() and su.shape == sv.shape == (2, 5)

    def test_scaled_field(self):
        for grid in (build_cartesian_grid(1.0, 8), build_polar_grid(1.0, 16, 0.9)):
            f = sample_density(LogSpiralDisk(), grid, slopes="central-difference")
            g = f.scaled(-2.0)
            assert g.grid is f.grid and g.slope_source == "central-difference"
            for name in ("values", "slope_u", "slope_v", "hole_values", "hole_slope_u",
                         "hole_slope_v"):
                if grid.coords == "cartesian" and name.startswith("hole_"):
                    assert getattr(g, name) is None
                else:
                    np.testing.assert_array_equal(getattr(g, name), -2.0 * getattr(f, name))

    def test_shape_validation(self):
        grid = build_cartesian_grid(1.0, 8)
        from thindisk.models import DensityField
        with pytest.raises(ValueError):
            DensityField(grid, np.zeros((4, 4)), np.zeros((8, 8)), np.zeros((8, 8)))

    @pytest.mark.parametrize("name", ["values", "slope_u", "slope_v"])
    def test_non_finite_cell_rejected(self, name):
        grid = build_cartesian_grid(1.0, 8)
        from thindisk.models import DensityField
        arrays = {k: np.zeros((8, 8)) for k in ("values", "slope_u", "slope_v")}
        arrays[name][3, 5] = np.nan
        with pytest.raises(ValueError, match=name):
            DensityField(grid, **arrays)

    @pytest.mark.parametrize("ring", ["zeros", "nan", "wrong-shape"])
    @pytest.mark.parametrize("name", ["hole_values", "hole_slope_u", "hole_slope_v"])
    def test_cartesian_field_refuses_hole_rings(self, name, ring):
        from thindisk.models import DensityField
        grid = build_cartesian_grid(1.0, 8)
        f = sample_density(D2Disk(), grid)
        arr = {"zeros": np.zeros(8), "nan": np.full(8, np.nan), "wrong-shape": np.zeros(3)}[ring]
        with pytest.raises(ValueError, match=f"^{name} given on a Cartesian grid"):
            DensityField(grid, f.values, f.slope_u, f.slope_v, **{name: arr})
        with pytest.raises(ValueError, match=f"^{name} given on a Cartesian grid"):
            replace(f, **{name: arr})

    def test_non_finite_hole_entry_rejected(self):
        grid = build_polar_grid(1.0, 16, 0.99)
        from thindisk.models import DensityField
        f = sample_density(D2Disk(), grid)
        hole = f.hole_values.copy()
        hole[2] = np.inf
        with pytest.raises(ValueError, match="hole_values"):
            DensityField(grid, f.values, f.slope_u, f.slope_v, hole_values=hole,
                         hole_slope_u=f.hole_slope_u, hole_slope_v=f.hole_slope_v)
