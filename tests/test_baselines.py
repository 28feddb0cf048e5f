import re

import numpy as np
import pytest
from scipy.special import gamma as scipy_gamma

from thindisk import (D2Disk, KalnajsConfig, SofteningConfig, build_cartesian_grid,
                      build_polar_grid, complex_gamma, kalnajs_potential_axisym,
                      sample_density, solve_softened_cartesian,
                      spectral_transfer_kernel)
from thindisk.analysis import array_norms
from thindisk.baselines import softened_potential
from thindisk.models import G, DensityField


class TestComplexGamma:
    def test_against_mpmath_grid(self):
        # an oracle independent of the scipy call the code makes, Re(z) < 0 included
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(0)
        z = rng.uniform(-4, 6, size=60) + 1j * rng.uniform(-30, 30, size=60)
        z = z[np.abs(z.real - np.round(z.real)) > 1e-3]   # stay off the poles
        assert np.count_nonzero(z.real < 0) >= 10
        with mpmath.workdps(30):
            ref = [complex(mpmath.gamma(mpmath.mpc(v.real, v.imag))) for v in z]
        np.testing.assert_allclose(complex_gamma(z), ref, rtol=1e-10)

    def test_real_values(self):
        assert complex_gamma(5.0).real == pytest.approx(24.0, rel=1e-12)
        assert complex_gamma(0.5).real == pytest.approx(np.sqrt(np.pi), rel=1e-12)

    def test_reflection_identity(self):
        # Gamma(z)*Gamma(1-z) = pi/sin(pi z)
        for z in (0.3 + 2.0j, -1.2 + 0.7j, 0.9 - 4.0j):
            lhs = complex_gamma(z) * complex_gamma(1 - z)
            rhs = np.pi / np.sin(np.pi * z)
            assert abs(lhs - rhs) / abs(rhs) < 1e-10

    def test_pole_rejected(self):
        for z in (0.0, -1.0, -2.0, -7.0, [1.5, -3.0]):
            with pytest.raises(ValueError):
                complex_gamma(z)


class TestTransferKernel:
    def test_zero_mode_value(self):
        want = 0.5 * (scipy_gamma(0.25) / scipy_gamma(0.75)) ** 2
        got = spectral_transfer_kernel(0.0, 0)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(4.3768, abs=1e-4)

    def test_even_in_alpha(self):
        for a in (0.5, 3.0, 17.5):
            assert spectral_transfer_kernel(a, 0) == pytest.approx(
                spectral_transfer_kernel(-a, 0), rel=1e-13)

    def test_positive_on_grid(self):
        alphas = np.linspace(-80, 80, 41)
        for m in (0, 1, 2, 5):
            vals = spectral_transfer_kernel(alphas, m)
            assert np.all(vals > 0)

    def test_matches_mpmath_ratio(self):
        # the four-gamma product of the transfer kernel, each factor in 30 digits
        mpmath = pytest.importorskip("mpmath")
        a = np.linspace(-40, 40, 17)
        with mpmath.workdps(30):
            want = [float((mpmath.gamma(mpmath.mpc(0.5, v) / 2) * mpmath.gamma(mpmath.mpc(0.5, -v) / 2)
                           / (mpmath.gamma(mpmath.mpc(1.5, v) / 2)
                              * mpmath.gamma(mpmath.mpc(1.5, -v) / 2))).real / 2)
                    for v in a]
        np.testing.assert_allclose(spectral_transfer_kernel(a, 0), want, rtol=1e-10)

    @pytest.mark.parametrize("m", [0, 1, 5])
    def test_matches_mpmath_oracle(self, m):
        mpmath = pytest.importorskip("mpmath")
        alphas = [0.0, 0.5, 3.0, 40.0, 60.0]
        with mpmath.workdps(40):
            want = [float(abs(mpmath.gamma((m + 0.5 + 1j * a) / 2)
                              / mpmath.gamma((m + 1.5 + 1j * a) / 2)) ** 2 / 2)
                    for a in alphas]
        np.testing.assert_allclose(spectral_transfer_kernel(alphas, m), want, rtol=1e-12)

    def test_negative_mode_rejected(self):
        with pytest.raises(ValueError):
            spectral_transfer_kernel(0.0, -1)

    def test_extreme_alpha_raises_range_error(self):
        with pytest.raises(OverflowError):
            spectral_transfer_kernel(1e300, 0)
        with pytest.raises(OverflowError):
            spectral_transfer_kernel(0.0, 2e12)
        with pytest.raises(OverflowError):   # the non-finite guard
            spectral_transfer_kernel([0.0, np.nan], 0)
        # large but representable arguments still work
        assert spectral_transfer_kernel(1e6, 0) > 0


class TestSoftening:
    def test_zero_density(self):
        grid = build_cartesian_grid(1.0, 16)
        z = np.zeros((16, 16))
        out = solve_softened_cartesian(DensityField(grid, z, z.copy(), z.copy()))
        assert np.abs(out.comp_u).max() == 0.0

    @pytest.mark.parametrize("n", [16, 17])
    def test_forces_difference_the_potential(self, n):
        # centered differences inside, second-order one-sided at the edges
        grid = build_cartesian_grid(1.0, n)
        field = sample_density(D2Disk(alpha=0.6), grid)
        phi, h = softened_potential(field), grid.dx

        def minus_d0(p):
            out = np.empty_like(p)
            out[1:-1] = p[2:] - p[:-2]
            out[0] = -3 * p[0] + 4 * p[1] - p[2]
            out[-1] = 3 * p[-1] - 4 * p[-2] + p[-3]
            return -out / (2 * h)

        force = solve_softened_cartesian(field)
        for got, want in ((force.comp_u, minus_d0(phi)), (force.comp_v, minus_d0(phi.T).T)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    def test_d2_regression(self):
        grid = build_cartesian_grid(1.0, 32)
        field = sample_density(D2Disk(), grid)
        out = solve_softened_cartesian(field)
        X, Y = grid.center_mesh()
        fx, _ = D2Disk().force_xy(X, Y)
        e1 = array_norms(out.comp_u - fx, grid)[0]
        assert e1 == pytest.approx(2.013e-1, rel=1e-2)

    def test_fft_equals_direct(self):
        for n in (16, 17):     # the quadrant spectrum's row mirror at even and odd n
            grid = build_cartesian_grid(1.0, n)
            field = sample_density(D2Disk(), grid)
            a = softened_potential(field, method="fft")
            b = softened_potential(field, method="direct")
            assert np.abs(a - b).max() < 1e-11 * np.abs(b).max()

    @pytest.mark.parametrize("method", ["fft", "direct"])
    @pytest.mark.parametrize("n", [16, 17])
    def test_potential_is_the_softened_point_mass_sum(self, n, method):
        # each cell's mass sigma * dx^2 sits at its center; the softened
        # potential of every pair is summed here directly
        grid = build_cartesian_grid(1.0, n)
        sigma, slope_u, slope_v = np.random.default_rng(n).uniform(0.5, 1.5, (3, n, n))
        eps = 0.05
        X, Y = grid.center_mesh()
        dist = np.sqrt(eps**2 + (X[:, :, None, None] - X) ** 2 + (Y[:, :, None, None] - Y) ** 2)
        want = -G * np.sum(sigma * grid.cell_area / dist, axis=(2, 3))
        field = DensityField(grid, sigma, slope_u, slope_v)
        got = softened_potential(field, SofteningConfig(eps), method=method)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        with pytest.raises(ValueError, match="'bogus'"):
            softened_potential(field, SofteningConfig(eps), method="bogus")

    def test_epsilon_to_zero_approaches_unsoftened_sum(self):
        # kernel-differentiated softened forces tend monotonically (L1) to
        # the self-excluded point-mass sum as the softening length shrinks
        grid = build_cartesian_grid(1.0, 16)
        field = sample_density(D2Disk(), grid)
        from thindisk.convolve import fft_convolve
        from thindisk.kernels_cartesian import wrap_offsets
        offs = wrap_offsets(grid.n) * grid.dx
        dxo, dyo = np.meshgrid(offs, offs, indexing="ij")
        mass = field.values * grid.cell_area

        def force_x(eps):
            with np.errstate(divide="ignore", invalid="ignore"):
                k = dxo / (eps**2 + dxo**2 + dyo**2) ** 1.5
            if eps == 0.0:
                k[0, 0] = 0.0   # excluded self-interaction
            return fft_convolve(-k, mass)

        ref = force_x(0.0)
        dists = [array_norms(force_x(grid.dx / 2**k) - ref, grid)[0] for k in range(5)]
        assert all(a > b for a, b in zip(dists[:-1], dists[1:]))
        assert dists[-1] < 0.05 * dists[0]

    def test_bad_epsilon(self):
        for eps in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match=f"^epsilon must be positive and finite, got {eps}$"):
                SofteningConfig(eps)
        # its square must be a finite normal double: about 1.5e-154 to 1.3e154
        for eps in (1.5e-154, 1.3e154, np.float64(1.3e154)):
            SofteningConfig(eps)
        for eps in (1.4e-154, 1.4e154, 1e-300, np.float64(1e300)):
            message = f"epsilon {eps:g} is out of range: its square is not a finite normal double"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                SofteningConfig(eps)

    def test_polar_rejected(self):
        grid = build_polar_grid(1.0, 16, 0.9)
        z = np.zeros((16, 16))
        f = DensityField(grid, z, z.copy(), z.copy(), hole_values=np.zeros(16),
                         hole_slope_u=np.zeros(16), hole_slope_v=np.zeros(16))
        with pytest.raises(ValueError):
            solve_softened_cartesian(f)


class TestKalnajs:
    def test_zero_density(self):
        cfg = KalnajsConfig(n_alpha=128, n_u=64)
        phi = kalnajs_potential_axisym(lambda r: np.zeros_like(r), [0.3, 0.7], cfg)
        assert np.abs(phi).max() < 1e-14

    def test_mid_radius_agreement(self):
        disk = D2Disk()
        cfg = KalnajsConfig(u_min=-8.0, alpha_max=60.0, n_alpha=2048, n_u=1024)
        grid = build_polar_grid(1.0, 1024, 0.99)
        r = grid.r_centers
        mid = (r >= 0.4) & (r <= 0.9)
        phi = kalnajs_potential_axisym(lambda x: disk.density(x, np.zeros_like(x)),
                                       r[mid], cfg)
        want = disk.potential(r[mid])
        assert np.max(np.abs(phi - want) / np.abs(want)) <= 1e-2

    def test_deeper_cutoff_monotonically_improves_near_origin(self):
        disk = D2Disk()
        r = np.geomspace(1e-4, 0.3, 40)
        want = disk.potential(r)
        resid = []
        for u_min in (-5.0, -8.0, -11.0):
            cfg = KalnajsConfig(u_min=u_min, n_alpha=1024, n_u=512)
            phi = kalnajs_potential_axisym(lambda x: disk.density(x, np.zeros_like(x)), r, cfg)
            resid.append(np.abs(phi - want).max())
        assert resid[0] > resid[1] > resid[2]

    def test_bad_config(self):
        with pytest.raises(ValueError):
            KalnajsConfig(u_min=1.0)
        with pytest.raises(ValueError):
            KalnajsConfig(alpha_max=-3.0)
        with pytest.raises(ValueError):
            KalnajsConfig(n_u=1)
        with pytest.raises(ValueError, match="^u_min must be negative and finite$"):
            KalnajsConfig(u_min=-np.inf)
        with pytest.raises(ValueError, match="^alpha_max must be positive and finite$"):
            KalnajsConfig(alpha_max=np.inf)
        # the transforms' phases reach alpha_max * -u_min
        for u_min, alpha_max in ((-1e308, 60.0), (-6.0, 1e308), (-1e-300, 1e-10)):
            with pytest.raises(ValueError, match=re.escape(
                    f"u_min {u_min:g} with alpha_max {alpha_max:g} is out of range: their phase product")):
                KalnajsConfig(u_min=u_min, alpha_max=alpha_max)
        KalnajsConfig(u_min=-1e300, alpha_max=1e-300)

    def test_non_finite_potential_raises(self):
        # an exit 0 of the kalnajs command never writes nan
        with pytest.raises(FloatingPointError, match="^kalnajs potential holds a non-finite value$"):
            kalnajs_potential_axisym(lambda r: np.full_like(r, np.nan), [0.3, 0.7],
                                     KalnajsConfig(n_alpha=128, n_u=64))

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            kalnajs_potential_axisym(lambda r: np.zeros_like(r), [0.0, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_radius_rejected(self, bad):
        with pytest.raises(ValueError, match="^query radii must be positive and finite$"):
            kalnajs_potential_axisym(lambda r: np.zeros_like(r), [bad, 0.5])

    def test_empty_radii_rejected(self):
        with pytest.raises(ValueError, match="^need at least one query radius$"):
            kalnajs_potential_axisym(lambda r: np.zeros_like(r), [])
