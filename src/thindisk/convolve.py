"""Offset-indexed double sums as zero-padded FFT convolutions.

Wrap-layout kernels (see wrap_offsets) convolved with an n-sized field:
non-periodic axes are zero-padded to twice their length so the circular
product reproduces the aperiodic sum exactly; the polar azimuthal axis is
genuinely periodic and needs no padding.  This module is the spectral layer
of the package: the padded transform pair, the real-quadrant transform of
parity-symmetric kernels, the solver's spectral accumulator (fft_convolve
multiplies its two spectra itself), and the finiteness guard (finite) that
polar tabulation and every solve run under.  numpy.fft and scipy.fft are looked
up per call, so code that wraps their functions sees every transform;
scipy.fft is imported by parity_rfft2, the one function that calls it, so
importing this module loads numpy alone (the package's import rule).
``direct`` variants evaluate the literal quadruple sum and serve as the
oracle for the fast path (and as the honest O(n^4) method in benchmarks).
"""
from __future__ import annotations

import numpy as np


def finite(compute, *names) -> list:
    """The arrays ``compute()`` returns, computed with overflow and invalid
    warnings off; FloatingPointError naming (by ``names``) the first array
    that holds inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        arrays = compute()
    for name, a in zip(names, arrays):
        if not np.isfinite(a).all():
            raise FloatingPointError(f"{name} holds a non-finite value")
    return arrays


def wrap_offsets(n: int) -> np.ndarray:
    """Offsets [0..n, -n+1..-1] in the wrap-around order of a 2n transform."""
    return np.concatenate([np.arange(n + 1), np.arange(-n + 1, 0)])


def padded_rfft2(a: np.ndarray, shape) -> np.ndarray:
    """rfft2 of ``a`` zero-padded to ``shape``.

    Rows len(a).. of the padded input are zero: axis 1 is transformed for
    a's rows alone, the spectrum's other rows are zeroed, then axis 0 is
    transformed in place.
    """
    spec = np.empty((shape[0], shape[1] // 2 + 1), complex)
    np.fft.rfft(a, n=shape[1], axis=1, out=spec[:len(a)])
    spec[len(a):] = 0
    return np.fft.fft(spec, axis=0, out=spec)


def cropped_ifft(spec: np.ndarray, n0: int) -> np.ndarray:
    """Rows :n0, still axis-1 spectra, of spec's axis-0 inverse made in place."""
    return np.fft.ifft(spec, axis=0, out=spec)[:n0]


def cropped_irfft2(spec: np.ndarray, shape, n0: int, n1: int) -> np.ndarray:
    """The [:n0, :n1] corner of the inverse of a ``shape`` rfft2 half-spectrum."""
    return np.fft.irfft(cropped_ifft(spec, n0), n=shape[1], axis=1)[:, :n1].copy()


def parity_rfft2(a: np.ndarray, parity) -> np.ndarray:
    """Real quadrant R of the rfft2 half-spectrum of the 2n x 2n wrap-layout
    table whose entries at offsets 0..n are ``a`` and whose (row, column)
    ``parity`` is +1 (even) or -1 (odd) under offset negation.

    Rows 0..n of the 2n x (n+1) half-spectrum are R, times 1j when exactly
    one axis is odd; rows n+1..2n-1 are R's rows n-1..1 times the row
    parity (see accumulate).  An even axis takes a DCT-I, an odd one a DST-I
    of entries 1..n-1, which is the DFT times 1j and vanishes at 0 and n:
    the wrap-layout entries at offset n of an odd axis never reach the
    aperiodic sum and count as zero.  Odd axes go first.
    """
    import scipy.fft
    odd = tuple(axis for axis, p in enumerate(parity) if p < 0)
    even = tuple(axis for axis, p in enumerate(parity) if p > 0)
    inner = tuple(slice(1, -1) if p < 0 else slice(None) for p in parity)
    r = scipy.fft.dstn(a[inner], type=1, axes=odd) if odd else a
    r = scipy.fft.dctn(r, type=1, axes=even) if even else r
    if not odd:
        return r
    out = np.zeros_like(a)
    out[inner] = r
    return np.negative(out, out=out)


def accumulate(accs: dict, products, spec: np.ndarray, imaginary: bool) -> None:
    """accs[key] += kernel * spec for each (key, kernel, row_sign) of
    products (one per key), spec first multiplied by 1j if imaginary; a new
    accumulator starts at its product.  spec is swept once, in blocks of at
    least 64 rows and 2**15 entries that serve every product while in cache.
    A product is written straight into a new accumulator's block (then
    negated in place if its sign is -1) or into one block buffer reused for
    every product: no temporary per product and none of spectrum size.  A
    kernel of m < len(spec) rows is a parity_rfft2 quadrant: row i >= m of
    the spectrum it stands for is its row len(spec) - i times row_sign."""
    rows = len(spec)
    fresh = [key for key, _, _ in products if key not in accs]
    for key in fresh:
        accs[key] = np.empty(spec.shape, complex)
    step = max(64, 2**15 // spec.shape[1])
    buffer = np.empty((min(step, rows), spec.shape[1]), complex)
    m = min(len(kernel) for _, kernel, _ in products)
    bounds = [*range(0, m, step), *range(m, rows, step), rows]
    for start, stop in zip(bounds, bounds[1:]):
        block = spec[start:stop]
        if imaginary:
            block *= 1j
        for key, kernel, row_sign in products:
            if start < len(kernel):
                kernel_rows, sign = kernel[start:stop], 1
            else:
                kernel_rows, sign = kernel[rows - start:rows - stop:-1], row_sign
            acc = accs[key][start:stop]
            if key in fresh:
                np.multiply(kernel_rows, block, out=acc)
                if sign < 0:
                    np.negative(acc, out=acc)
            else:
                term = np.multiply(kernel_rows, block, out=buffer[:stop - start])
                (np.add if sign > 0 else np.subtract)(acc, term, out=acc)


def _padded_shape(kernel: np.ndarray, field: np.ndarray, pad_axes) -> tuple:
    """The wrap-layout shape of a kernel for ``field``: twice its length on
    ``pad_axes``, its length on the others; ValueError unless ``kernel`` has it."""
    shape = tuple(2 * n if axis in pad_axes else n for axis, n in enumerate(field.shape))
    if kernel.shape != shape:
        raise ValueError(f"kernel shape {kernel.shape} does not match padded shape {shape}")
    return shape


def fft_convolve(kernel: np.ndarray, field: np.ndarray, pad_axes=(0, 1)) -> np.ndarray:
    """out[i, j] = sum_{i', j'} kernel[i - i', j - j'] * field[i', j'].

    ``kernel`` is in wrap layout: axis length 2n where ``pad_axes`` applies
    (offsets 0..n then -n+1..-1), length n on periodic axes (offsets modulo
    n).  ``field`` is n x n.
    """
    (n0, n1), shape = field.shape, _padded_shape(kernel, field, pad_axes)
    spec = padded_rfft2(field, shape)
    spec *= padded_rfft2(kernel, shape)
    return cropped_irfft2(spec, shape, n0, n1)


def direct_convolve(kernel: np.ndarray, field: np.ndarray, pad_axes=(0, 1)) -> np.ndarray:
    """Literal double-sum evaluation, O(n^4) work.

    Row-blocked so the arithmetic stays vectorized while every kernel-field
    product is actually performed; this is the benchmark's direct method and
    the correctness oracle for fft_convolve.
    """
    (n0, n1), shape = field.shape, _padded_shape(kernel, field, pad_axes)
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
