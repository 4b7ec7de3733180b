"""The one exact product behind field arithmetic: batched matrix products of
field elements by a real FFT.  Element digit (i, a) (tower multi-index i
flattened, base digit a) sits at slot addtable[i, 0] * (2d-1) + a of a grid
of ext_len * (2d-1) slots; index sums never leave the grid, so the cyclic
convolution is the linear one.  Rounding back to integers is exact while a
worst-case error bound stays below 1/2, and the product raises where not."""

import math

import numpy as np

from .errors import RoundingBoundExceeded

_EPS = 2.0**-53
# Bytes of spectra held at once, about; bounds a product's working set.
_CHUNK_BYTES = 1 << 19


def fft_length(ext_len, d):
    """The power of two that holds the ext_len * (2d-1) slot grid."""
    return 1 << (ext_len * (2 * d - 1) - 1).bit_length()


def rounding_bound(inner, size, p, n_fft):
    """Worst-case error of an output coefficient: inner dimension ``inner``,
    ``size`` digits below p per element, FFT length n_fft = 2^k.  Percival
    (Math. Comp. 72, 2003, Thm. 5.1) bounds one convolution's error by
    |x| |y| ((1+e)^3k (1+e sqrt5)^(3k+1) (1+b)^3k - 1), e = 2^-53, twiddle
    error b <= e / sqrt2, and |x| |y| <= size (p-1)^2; the inner sum adds
    ``inner`` such terms and inner - 1 roundings per frequency."""
    k = n_fft.bit_length() - 1
    growth = math.expm1((3 * k + inner) * math.log1p(_EPS)
                        + (3 * k + 1) * math.log1p(_EPS * math.sqrt(5))
                        + 3 * k * math.log1p(_EPS / math.sqrt(2)))
    return inner * size * (p - 1) ** 2 * growth


def check_rounding(inner, size, p, n_fft):
    """Raise unless rounding the product's coefficients is exact."""
    bound = rounding_bound(inner, size, p, n_fft)
    if not bound < 0.5:
        raise RoundingBoundExceeded(
            f"inner dimension {inner} over {size} digits below {p}: "
            f"rounding error bound {bound:.3g} is not below 1/2")


def _spectra(t, addtable, ext_len, n_fft):
    """rfft of each element of t (..., m, d), laid out in its slots."""
    d = t.shape[-1]
    grid = np.zeros(t.shape[:-2] + (n_fft,))
    slots = grid[..., : ext_len * (2 * d - 1)].reshape(t.shape[:-2] + (ext_len, 2 * d - 1))
    slots[..., addtable[:, 0], :d] = t
    return np.fft.rfft(grid)


def _unslot(z, ext_len, d):
    """Round the inverse transforms z (..., n_fft) to (ext_len, 2d-1) sums."""
    w = 2 * d - 1
    return np.rint(z[..., : ext_len * w]).astype(np.int64).reshape(z.shape[:-1] + (ext_len, w))


def convolve(xf, yf, addtable, ext_len):
    """Full convolution of two flattened coefficient tensors, the one-pair
    case of the product.

    xf, yf: int64 arrays of shape (M, d) — tower multi-index flattened
    C-order, base-field coefficients on the last axis.  addtable[i, j] is the
    flat index in the extended multi-index space of the (carry-free) sum of
    multi-indices i and j.  Returns an (ext_len, 2d-1) int64 array of
    un-reduced integer coefficient sums.
    """
    m, d = xf.shape
    n_fft = fft_length(ext_len, d)
    grid = np.zeros((2, n_fft))
    grid[:, : ext_len * (2 * d - 1)].reshape(2, ext_len, 2 * d - 1)[:, addtable[:, 0], :d] = (xf, yf)
    check_rounding(1, m * d, int(np.abs(grid).max()) + 1, n_fft)
    fx, fy = np.fft.rfft(grid)
    return _unslot(np.fft.irfft(fx * fy, n_fft), ext_len, d)


def reduce(field, raw):
    """Unreduced sums (..., ext_flat, 2d-1) to canonical elements (...,
    *field.shape): the base modulus, then one matmul per tower axis, each
    reduced axis rotated to the front, so after L steps they are in order."""
    base = field.base
    d, p = base.d, base.p
    lead = raw.shape[:-2]
    cur = ((raw % p) @ base._redmat % p).reshape(lead + field._ext_shape + (d,))
    n, L = len(lead), field.L
    rotate = (*range(n), n + L - 1, *range(n, n + L - 1), n + L)
    for i in range(L - 1, -1, -1):
        red = cur.reshape(-1, cur.shape[-2] * d) @ field._redmats[i] % p
        cur = red.reshape(cur.shape[:-2] + (field.primes[i], d)).transpose(rotate)
    return np.ascontiguousarray(cur)


def matmul(field, x, y):
    """x @ y over ``field`` for x (r, k, *field.shape), y (k, c, *field.shape),
    reduced.  Large towers go through the transforms in row and inner-index
    chunks of about _CHUNK_BYTES of spectra."""
    r, k = x.shape[:2]
    c = y.shape[1]
    m, d, p = field.flat_size, field.base.d, field.base.p
    ext_len = field._ext_flat
    n_fft = fft_length(ext_len, d)
    check_rounding(k, m * d, p, n_fft)
    x = x.reshape(r, k, m, d)
    y = y.reshape(k, c, m, d)
    budget = max(1, _CHUNK_BYTES // (8 * n_fft))  # spectra at once
    kstep = max(1, min(k, budget // (2 * c)))
    rstep = max(1, budget // (2 * (kstep + c)))
    fy = _spectra(y % p, field._addtable, ext_len, n_fft) if kstep >= k else None
    out = np.empty((r, c) + field.shape, dtype=np.int64)
    for s in range(0, r, rstep):
        z = np.zeros((min(rstep, r - s), c, n_fft // 2 + 1), dtype=np.complex128)
        for t in range(0, k, kstep):
            fx = _spectra(x[s : s + rstep, t : t + kstep] % p, field._addtable, ext_len, n_fft)
            fyt = fy if fy is not None else _spectra(
                y[t : t + kstep] % p, field._addtable, ext_len, n_fft)
            z += np.einsum("rkf,kcf->rcf", fx, fyt)
        out[s : s + rstep] = reduce(field, _unslot(np.fft.irfft(z, n_fft), ext_len, d))
    return out
