import numpy as np
import pytest

from oracles import fft_convolve_complex
from thindisk.convolve import (cropped_irfft2, direct_convolve, fft_convolve, padded_rfft2,
                               ring_convolve_direct)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _random_setup(n, pad_axes, seed=0):
    rng = _rng(seed)
    shape = tuple(2 * n if ax in pad_axes else n for ax in (0, 1))
    kernel = rng.standard_normal(shape)
    field = rng.standard_normal((n, n))
    return kernel, field


class TestFFTConvolve:
    @pytest.mark.parametrize("pad_axes", [(0, 1), (0,)])
    def test_identity_kernel(self, pad_axes):
        n = 8
        kernel = np.zeros(tuple(2 * n if ax in pad_axes else n for ax in (0, 1)))
        kernel[0, 0] = 1.0
        field = _rng(1).standard_normal((n, n))
        out = fft_convolve(kernel, field, pad_axes=pad_axes)
        np.testing.assert_allclose(out, field, atol=1e-13)

    def test_zero_field(self):
        kernel, _ = _random_setup(8, (0, 1))
        out = fft_convolve(kernel, np.zeros((8, 8)))
        assert np.abs(out).max() < 1e-14

    @pytest.mark.parametrize("pad_axes", [(0, 1), (0,)])
    def test_matches_direct(self, pad_axes):
        kernel, field = _random_setup(32, pad_axes, seed=2)
        fast = fft_convolve(kernel, field, pad_axes=pad_axes)
        slow = direct_convolve(kernel, field, pad_axes=pad_axes)
        scale = np.abs(slow).max()
        assert np.abs(fast - slow).max() / scale < 1e-10

    def test_real_path_matches_complex_path(self):
        kernel, field = _random_setup(16, (0, 1), seed=3)
        a = fft_convolve(kernel, field)
        b = fft_convolve_complex(kernel, field)
        assert np.abs(a - b).max() < 1e-12 * max(1.0, np.abs(a).max())

    def test_round_trip_transform(self):
        a = _rng(4).standard_normal((32, 32))
        back = np.fft.irfft2(np.fft.rfft2(a), s=a.shape)
        assert np.abs(back - a).max() < 1e-12

    @pytest.mark.parametrize("shape", [(34, 34), (34, 17), (17, 34)])
    def test_padded_pair_is_numpys_rfft2_pair(self, shape):
        # the rows and columns the pair skips are zero in, or cut from, numpy's
        a = _rng(5).standard_normal((17, 17))
        spec = padded_rfft2(a, shape)
        np.testing.assert_array_equal(spec, np.fft.rfft2(a, s=shape))
        want = np.fft.irfft2(spec, s=shape)[:17, :17]
        np.testing.assert_array_equal(cropped_irfft2(spec, shape, 17, 17), want)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fft_convolve(np.zeros((8, 8)), np.zeros((8, 8)), pad_axes=(0, 1))


class TestDirectConvolve:
    def test_point_mass_reproduces_kernel_slice(self):
        n = 8
        kernel, _ = _random_setup(n, (0, 1), seed=6)
        field = np.zeros((n, n))
        field[3, 5] = 1.0
        out = direct_convolve(kernel, field)
        want = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                want[i, j] = kernel[(i - 3) % (2 * n), (j - 5) % (2 * n)]
        np.testing.assert_allclose(out, want, atol=1e-14)

    def test_linearity(self):
        kernel, f = _random_setup(8, (0, 1), seed=7)
        g = _rng(8).standard_normal((8, 8))
        lhs = direct_convolve(kernel, 2.0 * f - 3.0 * g)
        rhs = 2.0 * direct_convolve(kernel, f) - 3.0 * direct_convolve(kernel, g)
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())

    def test_agrees_with_fft_at_unit_scale(self):
        kernel, field = _random_setup(16, (0, 1), seed=9)
        a = direct_convolve(kernel, field)
        b = fft_convolve(kernel, field)
        assert np.abs(a - b).max() < 1e-12 * max(1.0, np.abs(a).max())

    def test_translation_equivariance(self):
        # shifting a field whose support stays interior moves the output
        # rows one cell, exactly, away from the refilled boundary row
        kernel, field = _random_setup(12, (0, 1), seed=10)
        field[-1, :] = 0.0
        shifted = np.zeros_like(field)
        shifted[1:, :] = field[:-1, :]
        a = fft_convolve(kernel, field)
        b = fft_convolve(kernel, shifted)
        np.testing.assert_allclose(b[1:, :], a[:-1, :], atol=1e-12)


class TestRingConvolve:
    def test_matches_direct(self):
        rng = _rng(11)
        rows = rng.standard_normal((10, 16))
        ring = rng.standard_normal(16)
        want = np.zeros((10, 16))
        for i in range(10):
            for j in range(16):
                for jp in range(16):
                    want[i, j] += rows[i, (j - jp) % 16] * ring[jp]
        np.testing.assert_allclose(ring_convolve_direct(rows, ring), want, atol=1e-12)
