"""Offset-indexed double sums as zero-padded FFT convolutions.

Wrap-layout kernels (see kernels_cartesian.wrap_offsets) convolved with an
n-sized field: non-periodic axes are zero-padded to twice their length so
the circular product reproduces the aperiodic sum exactly; the polar
azimuthal axis is genuinely periodic and needs no padding.  ``direct``
variants evaluate the literal quadruple sum and serve as the oracle for the
fast path (and as the honest O(n^4) method in benchmarks).
"""
from __future__ import annotations

import numpy as np


def fft_convolve(kernel: np.ndarray, field: np.ndarray, pad_axes=(0, 1)) -> np.ndarray:
    """out[i, j] = sum_{i', j'} kernel[i - i', j - j'] * field[i', j'].

    ``kernel`` is in wrap layout: axis length 2n where ``pad_axes`` applies
    (offsets 0..n then -n+1..-1), length n on periodic axes (offsets modulo
    n).  ``field`` is n x n.
    """
    n0, n1 = field.shape
    shape = (2 * n0 if 0 in pad_axes else n0, 2 * n1 if 1 in pad_axes else n1)
    if kernel.shape != shape:
        raise ValueError(f"kernel shape {kernel.shape} does not match padded shape {shape}")
    spec = np.fft.rfft2(field, s=shape)     # zero-padded to the kernel's shape
    spec *= np.fft.rfft2(kernel)
    # the inverse writes over the spent product: one transform-sized array, not two
    out = np.fft.irfftn(spec, s=shape, axes=(0, 1), out=spec.view(float)[:, :shape[1]])
    return out[:n0, :n1].copy()


def direct_convolve(kernel: np.ndarray, field: np.ndarray, pad_axes=(0, 1)) -> np.ndarray:
    """Literal double-sum evaluation, O(n^4) work.

    Row-blocked so the arithmetic stays vectorized while every kernel-field
    product is actually performed; this is the benchmark's direct method and
    the correctness oracle for fft_convolve.
    """
    n0, n1 = field.shape
    shape = (2 * n0 if 0 in pad_axes else n0, 2 * n1 if 1 in pad_axes else n1)
    if kernel.shape != shape:
        raise ValueError(f"kernel shape {kernel.shape} does not match padded shape {shape}")
    i1 = np.arange(n0)
    j = np.arange(n1)[:, None]
    jp = np.arange(n1)[None, :]
    col = (j - jp) % shape[1]
    out = np.empty((n0, n1))
    for i in range(n0):
        # K[i - i', j - j'] as an (i', j, j') tensor for this output row:
        # whole kernel rows first, then the columns of each
        slab = kernel[(i - i1) % shape[0]][:, col]
        out[i] = np.einsum("ajb,ab->j", slab, field)
    return out


def ring_convolve_direct(kernel_rows: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Hole-cell sum: out[i, j] = sum_{j'} kernel_rows[i, j - j' mod n] * ring[j']."""
    n = ring.shape[0]
    j = np.arange(n)[:, None]
    jp = np.arange(n)[None, :]
    return kernel_rows[:, (j - jp) % n] @ ring
