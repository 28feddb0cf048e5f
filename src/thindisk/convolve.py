"""Offset-indexed double sums as zero-padded FFT convolutions.

Wrap-layout kernels (see wrap_offsets) convolved with an n-sized field:
non-periodic axes are zero-padded to twice their length so the circular
product reproduces the aperiodic sum exactly; the polar azimuthal axis is
genuinely periodic and needs no padding.  This module is the spectral layer
of the package: the padded transform pair, the real-quadrant transform of
parity-symmetric kernels, the solver's two spectral sweeps (fft_convolve
multiplies its two spectra itself), and the finiteness guard (finite) that
polar tabulation and every solve run under.

The Cartesian sweep, parity_sums, never forms a whole 2n x (n + 1) padded
spectrum: rows n..2n-1 of the padded input are zero before the axis-0
transform and unread after its inverse, so it transforms n rows along axis
1 into one stacked array, then runs the axis-0 transforms, the products
and the axis-0 inverses one block of columns at a time, each block
transposed so that every transform, product and kernel read is
contiguous.  A block holds about BLOCK_ENTRIES entries, whatever n is
(column_blocks): wide enough that the per-call cost of numpy's transforms
stays small, narrow enough that the block's buffers stay in cache.  The
planes share one allocation so that glibc's heap, not fresh pages, serves
the next solve and the next density sample (see parity_sums).  A solve
then holds half the spectral memory of three whole padded spectra.  The
polar sweep, accumulate, keeps whole padded spectra and sweeps them in
row blocks: a polar solve sets no memory peak, and a polar column sweep
was slower.  numpy.fft and scipy.fft are looked up per call, so code that
wraps their functions sees every transform; scipy.fft is imported by
parity_rfft2, the one function that calls it, so importing this module
loads numpy alone (the package's import rule).
``direct`` variants evaluate the literal quadruple sum and serve as the
oracle for the fast path (and as the honest O(n^4) method in benchmarks).
"""
from __future__ import annotations

import numpy as np

# the entries of one block of parity_sums' column and row sweeps
BLOCK_ENTRIES = 2**14


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
    parity (see parity_sums).  An even axis takes a DCT-I, an odd one a DST-I
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


def _multiply_add(acc, kernel, block, sign, fresh: bool, buffer) -> None:
    """acc = sign * kernel * block if fresh, else acc += sign * kernel * block.

    A fresh product is written straight into acc (then negated in place if
    sign is -1), any other into ``buffer`` and added or subtracted: no
    temporary per product."""
    if fresh:
        np.multiply(kernel, block, out=acc)
        if sign < 0:
            np.negative(acc, out=acc)
    else:
        term = np.multiply(kernel, block, out=buffer)
        (np.add if sign > 0 else np.subtract)(acc, term, out=acc)


def accumulate(accs: dict, products, spec: np.ndarray) -> None:
    """accs[key] += kernel * spec for each (key, kernel) of products (one
    per key), the kernels full spectra of spec's shape; a new accumulator
    starts at its product.  spec is swept once, in blocks of at least 64
    rows and 2**15 entries that serve every product while in cache, with
    one block buffer reused for every product (see _multiply_add)."""
    rows = len(spec)
    fresh = [key for key, _ in products if key not in accs]
    for key in fresh:
        accs[key] = np.empty(spec.shape, complex)
    step = max(64, 2**15 // spec.shape[1])
    buffer = np.empty((min(step, rows), spec.shape[1]), complex)
    for start in range(0, rows, step):
        block = spec[start:start + step]
        for key, kernel in products:
            _multiply_add(accs[key][start:start + step], kernel[start:start + step], block, 1,
                          key in fresh, buffer[:len(block)])


def column_blocks(n: int) -> list:
    """(start, stop) of the column blocks of parity_sums' sweep over the
    n + 1 columns of a 2n x 2n half-spectrum: blocks of columns 0..n-1
    whose (width, 2n) transposed columns hold at most BLOCK_ENTRIES
    entries, the last one narrower if need be, and column n joins the last
    block (a block of its own would cost a whole block's calls)."""
    width = max(1, BLOCK_ENTRIES // (2 * n))
    blocks = [(start, min(start + width, n)) for start in range(0, n, width)]
    blocks[-1] = (blocks[-1][0], n + 1)
    return blocks


def parity_sums(sources, n: int) -> dict:
    """{key: the (n, n) sum over its products of kernel * source}, each
    convolution zero-padded to 2n x 2n; no more keys than sources.

    ``sources`` lists (plane, imaginary, products): an (n, n) real plane,
    whether its spectrum is multiplied by 1j, and (key, kernel_t, row_sign)
    per product.  kernel_t is a parity_rfft2 quadrant transposed: its row j
    holds spectrum column j at rows 0..n, and row i > n of the spectrum is
    row 2n - i times row_sign.  The products of one key are summed in
    order, the first written (then negated) and the others added or
    subtracted, as _multiply_add does, so the sums are those of whole
    2n x (n + 1) spectra to the bit; only blocks of them are ever formed.

    Each plane's rfft along axis 1 goes into one stacked (planes, n, n + 1)
    array.  Per column block (column_blocks), each plane's columns are
    gathered transposed into a (width, 2n) buffer, zero-padded and
    transformed along its rows.  Its columns 0..n and, reversed, n + 1..2n - 1
    are copied into the two halves of a contiguous pair, because numpy's
    ufuncs run several times slower on column slices: half 1 holds column
    2n - j at j, so both halves meet kernel_t's rows in order.  Each product
    is added into its key's pair of accumulators.  Each key's pair is
    joined, inverted and cropped to n entries, which overwrite that block's
    columns of one spent plane.  Last, each key's spectra are inverted along
    axis 1, a block of rows at a time, straight into the key's sum.
    """
    # One allocation for all planes, not one per plane: its free raises
    # glibc's mmap threshold above the planes' size, so the next solve's and
    # the next density sample's arrays come from the heap again, not from
    # fresh pages (separate per-plane arrays left the threshold below them,
    # which cost about 5,500 minor faults per N=512 sample)
    spectra = np.empty((len(sources), n, n + 1), complex)
    for spec, (plane, _, _) in zip(spectra, sources):
        np.fft.rfft(plane, n=2 * n, axis=1, out=spec)
    keys = {key: k for k, key in enumerate(dict.fromkeys(
        key for _, _, products in sources for key, _, _ in products))}
    blocks = column_blocks(n)
    width = max(stop - start for start, stop in blocks)
    block = np.empty((width, 2 * n), complex)
    # columns 0 and n of half 1 match no spectrum column and stay zero
    pair, term = np.zeros((2, 2, width, n + 1), complex)
    # a product's kernel rows, made complex once: a real operand makes every
    # ufunc call allocate numpy's casting buffer, and those allocations kept
    # the refine-sweep process 15 MiB larger at its peak
    kernel = np.empty((width, n + 1), complex)
    accs = np.empty((len(keys), 2, width, n + 1), complex)
    for start, stop in blocks:
        w, fresh = stop - start, set(keys)
        b = block[:w]
        for spec, (_, imaginary, products) in zip(spectra, sources):
            b[:, :n] = spec[:, start:stop].T
            b[:, n:] = 0
            np.fft.fft(b, axis=1, out=b)
            if imaginary:
                b *= 1j
            pair[0, :w], pair[1, :w, 1:n] = b[:, :n + 1], b[:, :n:-1]
            for key, kernel_t, row_sign in products:
                kernel[:w] = kernel_t[start:stop]
                for half, sign in ((0, 1), (1, row_sign)):
                    _multiply_add(accs[keys[key], half, :w], kernel[:w], pair[half, :w], sign,
                                  key in fresh, term[half, :w])
                fresh.discard(key)
        for spec, acc in zip(spectra, accs):
            b[:, :n + 1], b[:, n + 1:] = acc[0, :w], acc[1, :w, n - 1:0:-1]
            np.fft.ifft(b, axis=1, out=b)
            spec[:, start:stop] = b[:, :n].T
    rows, sums = max(1, BLOCK_ENTRIES // (2 * n)), {}
    for spec, key in zip(spectra, keys):
        sums[key] = out = np.empty((n, n))
        for start in range(0, n, rows):
            out[start:start + rows] = np.fft.irfft(spec[start:start + rows], n=2 * n,
                                                   axis=1)[:, :n]
    return sums


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
