from collections import Counter

import numpy as np
import pytest
import scipy.fft

from thindisk import (CallableModel, D2Disk, D2PairDisk, build_cartesian_grid,
                      build_polar_grid, sample_density, solve_cartesian,
                      solve_cartesian_direct, solve_polar, solve_polar_direct,
                      solve_softened_cartesian, tabulate_cartesian_kernels,
                      tabulate_polar_kernels)
from thindisk.analysis import array_norms
from thindisk.models import DensityField
from thindisk.kernels_polar import KINDS as POLAR_KINDS, POTENTIAL_KINDS
from thindisk.solver import (CARTESIAN_TERMS, POLAR_TERMS, POTENTIAL_TERMS, ForceField,
                             assemble, polar_potential)


@pytest.fixture(scope="module")
def cart32():
    grid = build_cartesian_grid(1.0, 32)
    return grid, tabulate_cartesian_kernels(grid)


@pytest.fixture(scope="module")
def polar32():
    grid = build_polar_grid(1.0, 32, 0.99)
    return grid, tabulate_polar_kernels(grid)


def _zero_field(grid):
    z = np.zeros((grid.n, grid.n))
    if grid.coords == "polar":
        zr = np.zeros(grid.n)
        return DensityField(grid, z, z.copy(), z.copy(),
                            hole_values=zr, hole_slope_u=zr.copy(), hole_slope_v=zr.copy())
    return DensityField(grid, z, z.copy(), z.copy())


def _random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    f = _zero_field(grid)
    kw = {}
    if grid.coords == "polar":
        kw = dict(hole_values=rng.standard_normal(grid.n),
                  hole_slope_u=rng.standard_normal(grid.n),
                  hole_slope_v=rng.standard_normal(grid.n))
    return DensityField(grid, rng.standard_normal((grid.n, grid.n)),
                        rng.standard_normal((grid.n, grid.n)),
                        rng.standard_normal((grid.n, grid.n)), **kw)


class TestCartesianSolve:
    def test_zero_density(self, cart32):
        grid, tables = cart32
        out = solve_cartesian(_zero_field(grid), tables)
        assert np.abs(out.comp_u).max() == 0.0
        assert np.abs(out.comp_v).max() == 0.0

    def test_d2_regression(self, cart32):
        # frozen from this implementation; the tabulated reference comparison
        # lives in the acceptance suite
        grid, tables = cart32
        field = sample_density(D2Disk(), grid)
        out = solve_cartesian(field, tables)
        X, Y = grid.center_mesh()
        fx, _ = D2Disk().force_xy(X, Y)
        e1 = array_norms(out.comp_u - fx, grid)[0]
        assert e1 == pytest.approx(9.366e-3, rel=1e-3)

    def test_point_symmetric_density_gives_antisymmetric_force(self, cart32):
        grid, tables = cart32
        rng = np.random.default_rng(1)
        half = rng.standard_normal((grid.n, grid.n))
        sym = half + half[::-1, ::-1]
        field = DensityField(grid, sym, np.zeros_like(sym), np.zeros_like(sym))
        out = solve_cartesian(field, tables)
        np.testing.assert_allclose(out.comp_u, -out.comp_u[::-1, ::-1], atol=1e-10)

    def test_linearity(self, cart32):
        grid, tables = cart32
        f = _random_field(grid, 2)
        g = _random_field(grid, 3)
        combo = DensityField(grid, 2.0 * f.values - 0.5 * g.values,
                             2.0 * f.slope_u - 0.5 * g.slope_u,
                             2.0 * f.slope_v - 0.5 * g.slope_v)
        lhs = solve_cartesian(combo, tables)
        fa = solve_cartesian(f, tables)
        fb = solve_cartesian(g, tables)
        want = 2.0 * fa.comp_u - 0.5 * fb.comp_u
        scale = np.abs(want).max()
        assert np.abs(lhs.comp_u - want).max() < 1e-12 * scale

    def test_fft_equals_direct(self):
        grid = build_cartesian_grid(1.0, 16)
        tables = tabulate_cartesian_kernels(grid)
        field = sample_density(D2Disk(), grid)
        a = solve_cartesian(field, tables)
        b = solve_cartesian_direct(field, tables)
        for u, v in ((a.comp_u, b.comp_u), (a.comp_v, b.comp_v)):
            assert np.abs(u - v).max() < 1e-10 * np.abs(v).max()

    def test_residual_concentrates_at_disk_edge(self):
        grid = build_cartesian_grid(1.0, 64)
        tables = tabulate_cartesian_kernels(grid)
        disk = D2Disk()
        out = solve_cartesian(sample_density(disk, grid), tables)
        X, Y = grid.center_mesh()
        fx, _ = disk.force_xy(X, Y)
        i, j = np.unravel_index(np.argmax(np.abs(out.comp_u - fx)), (64, 64))
        r_at_max = np.hypot(X[i, j], Y[i, j])
        assert abs(r_at_max - disk.alpha) <= 2 * grid.dx

    def test_sign_flip(self, cart32):
        grid, tables = cart32
        field = sample_density(D2Disk(), grid)
        a = solve_cartesian(field, tables)
        b = solve_cartesian(field, tables, sign_convention="repulsive")
        np.testing.assert_array_equal(b.comp_u, -a.comp_u)
        np.testing.assert_array_equal(b.comp_v, -a.comp_v)
        assert a.flipped().sign_convention == "repulsive"
        np.testing.assert_array_equal(a.flipped().comp_u, -a.comp_u)

    def test_grid_mismatch(self, cart32):
        _, tables = cart32
        other = build_cartesian_grid(1.0, 16)
        with pytest.raises(ValueError):
            solve_cartesian(_zero_field(other), tables)

    def test_radial_projection(self, cart32):
        grid, tables = cart32
        field = sample_density(D2Disk(), grid)
        out = solve_cartesian(field, tables)
        X, Y = grid.center_mesh()
        R = np.hypot(X, Y)
        np.testing.assert_allclose(out.radial(),
                                   (X * out.comp_u + Y * out.comp_v) / R, rtol=1e-14)


class TestPolarSolve:
    def test_zero_density(self, polar32):
        grid, tables = polar32
        out = solve_polar(_zero_field(grid), tables)
        assert np.abs(out.comp_u).max() == 0.0
        assert np.abs(out.comp_v).max() == 0.0

    def test_d2_regression_and_axisymmetry(self, polar32):
        grid, tables = polar32
        disk = D2Disk()
        field = sample_density(disk, grid)
        out = solve_polar(field, tables)
        fr = disk.radial_force(grid.center_mesh()[0])
        e1 = array_norms(out.comp_u - fr, grid)[0]
        assert e1 == pytest.approx(4.433e-2, rel=1e-3)
        # axisymmetric density: the azimuthal force is pure round-off
        assert np.abs(out.comp_v).max() <= 1e-10 * np.abs(out.comp_u).max()

    def test_zero_hole_mass_changes_nothing_when_empty(self, polar32):
        grid, tables = polar32
        f = _zero_field(grid)
        hole_only = DensityField(grid, f.values, f.slope_u, f.slope_v,
                                 hole_values=np.zeros(grid.n),
                                 hole_slope_u=np.zeros(grid.n),
                                 hole_slope_v=np.zeros(grid.n))
        out = solve_polar(hole_only, tables)
        assert np.abs(out.comp_u).max() == 0.0

    def test_nonaxisymmetric_vs_analytic(self, polar32):
        grid, tables = polar32
        pair = D2PairDisk()
        field = sample_density(pair, grid)
        out = solve_polar(field, tables)
        Rg, Tg = grid.center_mesh()
        fx, fy = pair.force_xy(Rg * np.cos(Tg), Rg * np.sin(Tg))
        fr = fx * np.cos(Tg) + fy * np.sin(Tg)
        ft = -fx * np.sin(Tg) + fy * np.cos(Tg)
        e1r = array_norms(out.comp_u - fr, grid)[0]
        e1t = array_norms(out.comp_v - ft, grid)[0]
        # frozen regression values; both components converge at first order
        assert e1r == pytest.approx(1.119e-1, rel=2e-3)
        assert e1t == pytest.approx(6.070e-2, rel=2e-3)

    def test_fft_equals_direct(self):
        grid = build_polar_grid(1.0, 16, 0.99)
        tables = tabulate_polar_kernels(grid)
        field = sample_density(D2PairDisk(), grid)
        a = solve_polar(field, tables)
        b = solve_polar_direct(field, tables)
        assert np.abs(a.comp_u - b.comp_u).max() < 1e-10 * np.abs(b.comp_u).max()
        assert np.abs(a.comp_v - b.comp_v).max() < 1e-10 * np.abs(b.comp_v).max()

    def test_linearity(self, polar32):
        grid, tables = polar32
        f = _random_field(grid, 4)
        g = _random_field(grid, 5)
        combo = DensityField(
            grid, 3.0 * f.values + g.values, 3.0 * f.slope_u + g.slope_u,
            3.0 * f.slope_v + g.slope_v,
            hole_values=3.0 * f.hole_values + g.hole_values,
            hole_slope_u=3.0 * f.hole_slope_u + g.hole_slope_u,
            hole_slope_v=3.0 * f.hole_slope_v + g.hole_slope_v)
        lhs = solve_polar(combo, tables)
        want_u = 3.0 * solve_polar(f, tables).comp_u + solve_polar(g, tables).comp_u
        assert np.abs(lhs.comp_u - want_u).max() < 1e-12 * np.abs(want_u).max()


class TestPolarPotential:
    def test_d2_potential_accuracy(self):
        grid = build_polar_grid(1.0, 128, 0.99)
        disk = D2Disk()
        field = sample_density(disk, grid)
        phi = polar_potential(field)
        want = disk.potential(grid.r_centers)
        err = np.abs(phi[:, 0] - want)
        assert err.max() < 8e-3
        # every sector sees the same axisymmetric answer
        assert np.abs(phi - phi[:, :1]).max() < 1e-12

    def test_requires_polar(self):
        grid = build_cartesian_grid(1.0, 8)
        with pytest.raises(ValueError):
            polar_potential(_zero_field(grid))


def _rel_diff(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestBackends:
    """The FFT backend of each term table against the direct oracle."""

    @pytest.mark.parametrize("n", [16, 33])
    def test_cartesian_force(self, n):
        grid = build_cartesian_grid(1.0, n)
        tables = tabulate_cartesian_kernels(grid)
        field = _random_field(grid, n)
        fast = assemble(CARTESIAN_TERMS, field, tables, "fft")
        slow = assemble(CARTESIAN_TERMS, field, tables, "direct")
        assert len(fast) == len(slow) == 2
        for a, b in zip(fast, slow):
            assert _rel_diff(a, b) < 1e-12

    @pytest.mark.parametrize("n", [16, 33])
    def test_polar_force_and_potential_with_hole_ring(self, n):
        grid = build_polar_grid(1.0, n, 0.99)
        tables = tabulate_polar_kernels(grid, kinds=POLAR_KINDS + POTENTIAL_KINDS)
        field = _random_field(grid, n)
        for terms, outputs in ((POLAR_TERMS, 2), (POTENTIAL_TERMS, 1)):
            fast = assemble(terms, field, tables, "fft")
            slow = assemble(terms, field, tables, "direct")
            assert len(fast) == len(slow) == outputs
            for a, b in zip(fast, slow):
                assert _rel_diff(a, b) < 1e-12
        # the hole ring alone reaches every output through both backends; the
        # r_i-scaled inputs alone (slope_u and its hole ring) isolate the r_i
        # group, whose hole terms must be scaled with its ring terms
        f = _zero_field(grid)
        hole_only = DensityField(grid, f.values, f.slope_u, f.slope_v,
                                 hole_values=field.hole_values,
                                 hole_slope_u=field.hole_slope_u,
                                 hole_slope_v=field.hole_slope_v)
        radial_only = DensityField(grid, f.values, field.slope_u, f.slope_v,
                                   hole_values=f.hole_values,
                                   hole_slope_u=field.hole_slope_u,
                                   hole_slope_v=f.hole_slope_v)
        for part in (hole_only, radial_only):
            for terms in (POLAR_TERMS, POTENTIAL_TERMS):
                for a, b in zip(assemble(terms, part, tables, "fft"),
                                assemble(terms, part, tables, "direct")):
                    assert np.abs(b).max() > 0.0
                    assert _rel_diff(a, b) < 1e-12

    def test_wrappers_run_the_tables(self):
        grid = build_polar_grid(1.0, 16, 0.99)
        tables = tabulate_polar_kernels(grid, kinds=POLAR_KINDS + POTENTIAL_KINDS)
        field = _random_field(grid, 7)
        fr, ft = assemble(POLAR_TERMS, field, tables, "direct")
        out = solve_polar_direct(field, tables)
        np.testing.assert_array_equal(out.comp_u, -fr)
        np.testing.assert_array_equal(out.comp_v, ft)
        (phi,) = assemble(POTENTIAL_TERMS, field, tables)
        np.testing.assert_array_equal(polar_potential(field, tables),
                                      -grid.r_centers[:, None] * phi)


@pytest.mark.parametrize("solve", [solve_cartesian, solve_cartesian_direct])
def test_mirrored_density_gives_mirrored_force(solve):
    # x -> -x reverses the first axis and the sign of d/dx; Fx changes sign
    grid = build_cartesian_grid(1.0, 16)
    tables = tabulate_cartesian_kernels(grid)
    field = _random_field(grid, 11)
    mirror = DensityField(grid, field.values[::-1].copy(), -field.slope_u[::-1],
                          field.slope_v[::-1].copy())
    a = solve(field, tables)
    b = solve(mirror, tables)
    assert _rel_diff(b.comp_u, -a.comp_u[::-1]) < 1e-12
    assert _rel_diff(b.comp_v, a.comp_v[::-1]) < 1e-12


class TestTransformCounts:
    """Each input plane is transformed once and each accumulator inverted
    once, by one numpy.fft call per axis (rfft then fft forward, ifft then
    irfft inverse); a per-term transform path would raise these counts."""

    @pytest.fixture
    def fft_calls(self, monkeypatch):
        calls = []
        for module, names in ((np.fft, ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2",
                                        "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")),
                              (scipy.fft, ("dct", "dst", "dctn", "dstn"))):
            for name in names:
                def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                    calls.append(_name)
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
        return calls

    def test_cartesian_warm_and_cold(self, fft_calls):
        grid = build_cartesian_grid(1.0, 16)
        tables = tabulate_cartesian_kernels(grid)
        field = _random_field(grid, 1)
        # cold: three kernel quadrants; xx is one dctn, xy one dstn and x0
        # a dstn along rows then a dctn along columns
        solve_cartesian(field, tables)
        assert Counter(fft_calls) == {"rfft": 3, "fft": 3, "ifft": 2, "irfft": 2,
                                      "dctn": 2, "dstn": 2}
        fft_calls.clear()
        solve_cartesian(field, tables)
        assert Counter(fft_calls) == {"rfft": 3, "fft": 3, "ifft": 2, "irfft": 2}

    def test_polar_warm(self, fft_calls):
        grid = build_polar_grid(1.0, 16, 0.99)
        tables = tabulate_polar_kernels(grid)
        field = _random_field(grid, 2)
        solve_polar(field, tables)
        fft_calls.clear()
        solve_polar(field, tables)
        # three planes and three hole rings forward; a radial inverse per
        # (output, r_i factor) accumulator and one theta inverse per output
        assert Counter(fft_calls) == {"rfft": 6, "fft": 3, "ifft": 4, "irfft": 2}

    def test_polar_cold(self, fft_calls):
        grid = build_polar_grid(1.0, 16, 0.99)
        tables = tabulate_polar_kernels(grid)
        solve_polar(_random_field(grid, 2), tables)
        # plus, once: six padded ring spectra (rfft and fft) and six hole
        # spectra (rfft along theta)
        assert Counter(fft_calls) == {"rfft": 18, "fft": 9, "ifft": 4, "irfft": 2}


@pytest.mark.parametrize("solve", [solve_cartesian, solve_polar, solve_softened_cartesian],
                         ids=lambda f: f.__name__)
def test_unknown_sign_convention_rejected(solve):
    if solve is solve_polar:
        grid = build_polar_grid(1.0, 8, 0.9)
        args = (tabulate_polar_kernels(grid),)
    else:
        grid = build_cartesian_grid(1.0, 4)
        args = (tabulate_cartesian_kernels(grid),) if solve is solve_cartesian else ()
    with pytest.raises(ValueError, match="'atractive'"):
        solve(sample_density(D2Disk(), grid), *args, sign_convention="atractive")


class TestForceField:
    def test_bad_convention(self):
        grid = build_cartesian_grid(1.0, 4)
        with pytest.raises(ValueError):
            ForceField(grid, np.zeros((4, 4)), np.zeros((4, 4)), sign_convention="up")

    def test_polar_radial_is_the_first_component(self):
        grid = build_polar_grid(1.0, 8, 0.9)
        rng = np.random.default_rng(5)
        force = ForceField(grid, rng.standard_normal((8, 8)), rng.standard_normal((8, 8)))
        np.testing.assert_array_equal(force.radial(), force.comp_u)

    @pytest.mark.parametrize("solve", [solve_cartesian, solve_polar, solve_softened_cartesian],
                             ids=lambda f: f.__name__)
    def test_overflowing_solve_raises(self, solve):
        # densities near the top of the double range overflow inside the
        # solve; the result is refused, with no numpy warning on the way
        polar = solve is solve_polar
        grid = build_polar_grid(1.0, 16, 0.99) if polar else build_cartesian_grid(1.0, 16)
        tables = ((tabulate_polar_kernels(grid),) if polar else
                  (tabulate_cartesian_kernels(grid),) if solve is solve_cartesian else ())
        field = sample_density(D2Disk(), grid)
        assert np.isfinite(solve(field.scaled(1e305), *tables).comp_u).all()
        with pytest.raises(FloatingPointError, match="^force component comp_u holds a non-finite"):
            solve(field.scaled(1e307), *tables)
