"""The one exact product behind field arithmetic, ``matmul``: batched matrix
products of field elements, in one of two regimes, chosen from the field's
size.

- Structure constants, for a base field, or a tower of n = prod(field.shape)
  <= _TABLE_DIGITS digits: a table of the products of its basis elements,
  built once per field and cached on it.  The smaller factor's
  multiplication matrices are its digits times the table, and the product is
  the other factor's digits times those matrices: two float64 F_p matmuls,
  with no transform.
- Otherwise one real FFT over the whole tower.  Element digit (i, a), tower
  multi-index i and base digit a, sits at index (i, a) of the slot grid
  viewed as (*_ext_shape, 2d-1); index sums never leave the grid, so the
  cyclic convolution is the linear one.  The product stays in float64 from
  the slots to the residues: rounding the inverse transform is exact while
  a worst-case error bound stays below 1/2, and the float64 matmuls of the
  reduction take a mod p only where their sums could reach 2^53.  Whole
  batch members share each transform and reduce call, and every chunk
  writes into one block made per product.

The transform packs f = 2 slots per float where it can (segmentation:
Kronecker substitution with a radix, D. Harvey, J. Symbolic Comput. 44,
2009): with R the power of two above top = k n (p-1)^2, the largest slot sum
at inner dimension k, flat slots 2j and 2j+1 become s_2j + R s_(2j+1), and
the transform is half as long (6144, not 12288, on paper-full).  Each packed
coefficient c_j = e_j + R o_j + R^2 f_j, each part below R, unpacks by exact
bit masks to slot 2j = e_j + f_(j-1) and slot 2j+1 = o_j, which reduce takes
as before.  ``segmentation`` packs where R^3 <= 2^51, so that c_j + 3 2^51
lies where floats are 1 apart, and rounding_bound over the floats an
element's digits reach, each at most (p-1)(1+R), is below 1/2 (0.0036 for
paper-full's servers, 0.42 at k = 7, 1.93 at k = 8); else f = 1, where only
that bound at p - 1 must hold.

``on_axes`` multiplies the digits of some tower axes by an F_p matrix, one
float64 matmul.  Every float64 step raises where its bound fails."""

import ctypes
import functools
import math

import numpy as np

from .errors import RoundingBoundExceeded

_EPS = 2.0**-53
# Bytes a chunk of a table product, or of encode's sums, holds at once, about.
_CHUNK_BYTES = 1 << 19
# Bytes the transform's one block holds, about, in rows of 8 n_fft bytes (a
# spectrum, or one of a slot grid's 2f - 1 rows): 2f + 1 per 1 x 1 member,
# so 5 of paper-full's members (f = 2, n_fft = 6144, 5 rows of 48 KB) per
# transform call.
_TRANSFORM_BYTES = 5 << 18
# glibc gives the heap's top back past twice its mmap threshold, the largest
# mmapped array freed: a paper-full job's 2.6 MB of arrays were faulted in on
# every job (550 faults, 0.7 ms) at n_fft = 6144.  Both are held: 4 and 8 MiB.
try:
    ctypes.CDLL(None).mallopt(-3, 4 << 20), ctypes.CDLL(None).mallopt(-1, 8 << 20)
except (OSError, AttributeError, TypeError):  # no glibc
    pass
# The most digits n = prod(field.shape) of a field whose products go by its
# structure constants, a table of n^3 floats (0.9 MB at 48).  Measured on
# one CPU, products of 1x1 and 256x3 by 3x1 elements ran faster by the
# table than by the transform up to n = 62, 4x2 by 2x4 up to 58, and 16x8
# by 8x16 up to 51 (15% faster there, 6% slower at 55).
_TABLE_DIGITS = 48


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


def _spectra(t, field, slots, src, R, out):
    """rfft of each element of t (B, m, n, *field.shape) into out (B, m, n,
    n_fft/2 + 1): its digits mod p at the low corner of a row of ``slots``
    (at least B, m n, h, f), each viewed flat as a slot grid (*_ext_shape,
    2d-1), zero-padded to h f slots; for f = 2 each pair of slots packed
    as s_2j + R s_(2j+1) into a row of ``src`` (at least B, m n, h'), h'
    the floats up to the corner's last digit, which is the slots themselves
    for f = 1.  Every call writes the same corner, so the zeros around it,
    written once, stay."""
    lead, (h, f), live = t.shape[: -field.L - 1], slots.shape[-2:], src.shape[-1]
    rows, src = (a[: lead[0], : lead[1] * lead[2]] for a in (slots, src))
    grid = rows.reshape(rows.shape[:2] + (h * f,))[..., : field._ext_flat * (2 * field.base.d - 1)]
    corner = grid.reshape(lead + field._ext_shape + (-1,))[(..., *map(slice, field.shape))]
    np.remainder(t, field.base.p, out=corner)
    if f > 1:
        np.matmul(rows[..., :live, :], [1.0, R], out=src)
    return np.fft.rfft(src.reshape(lead + (live,)), 2 * out.shape[-1] - 2, out=out)


def convolve(xf, yf, addtable, ext_len):
    """The (ext_len, 2d-1) int64 sums of the full convolution of xf and yf,
    int64 (M, d) digits with the tower multi-index flattened in C order,
    the slot of i at addtable[i, 0] in the flat extended multi-index space:
    the one-pair transform.  No product calls it; perfbench/run.py times it
    as kernels.convolve_us."""
    (m, d), w = xf.shape, 2 * xf.shape[1] - 1
    n_fft = fft_length(ext_len, d)
    pair = np.stack([xf, yf])
    check_rounding(1, m * d, int(np.abs(pair).max()) + 1, n_fft)
    grid = np.zeros((2, n_fft))
    grid[:, : ext_len * w].reshape(2, ext_len, w)[:, addtable[:, 0], :d] = pair
    fx, fy = np.fft.rfft(grid)
    return np.rint(np.fft.irfft(fx * fy, n_fft)[: ext_len * w]).astype(np.int64).reshape(ext_len, w)


def check_fp_exact(inner, p):
    """Raise unless a float64 F_p matmul of inner dimension ``inner`` is
    exact: each output sums that many products of residues below p, so
    every partial sum stays an integer at most inner (p-1)^2, exact while
    that is below 2^53.  The raise is explicit, so python -O keeps it."""
    if not inner * (p - 1) ** 2 < 1 << 53:
        raise RoundingBoundExceeded(
            f"float64 F_p matmul of inner dimension {inner} over residues "
            f"below {p} passes 2^53")


def check_reduce_exact(field):
    """check_fp_exact for ``reduce``: its largest inner dimension is K."""
    check_fp_exact(max(r.shape[0] for r in [field.base._redmat, *field._redmats]), field.base.p)


def fp_mod(x, p):
    """x mod p in place, for float64 integers 0 <= x < 2^53, exactly.  x / p
    lies at least 1/p below the integer above x // p, and rounding moves it
    by at most 2^-53 x / p, less than 1/p for x < 2^53: so the floor of the
    rounded quotient is x // p, and x - p (x // p) is exact.  For small p
    several times faster than np.fmod, whose time grows with x / p."""
    q = x / p
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def on_axes(field, x, axes, matrices):
    """x (..., *field.shape) times F_p matrices that act on the digits of
    the given 0-based tower axes and the base digit, n of them: those axes
    moved last, one float64 matmul of the (..., n) rows, and moved back.
    ``matrices`` is one (n, n) matrix, or a stack (len(x), n, n) of one per
    entry of x's first axis.  x holds residues below p; the result is of
    x's dtype and holds residues below p, reduced in that dtype."""
    p, (order, back) = field.base.p, _axes_last(x.ndim, field.L, tuple(axes))
    moved = x.transpose(order)
    n = matrices.shape[-1]
    check_fp_exact(n, p)
    rows = moved.reshape((len(x) if matrices.ndim == 3 else 1, -1, n))
    out = np.matmul(rows.astype(np.float64, copy=False), matrices)
    out = fp_mod(out, p) if out.dtype == x.dtype else out.astype(x.dtype) % p
    return out.reshape(moved.shape).transpose(back)


@functools.cache
def _axes_last(ndim, L, axes):
    """The transpose of an (..., *shape) array with ndim axes, L of them
    tower axes, that moves the given tower axes last, before the base
    digit, and its inverse; cached, as a job asks for few."""
    lead = ndim - L - 1
    order = (*range(lead), *(lead + k for k in range(L) if k not in axes),
             *(lead + k for k in axes), ndim - 1)
    return order, tuple(sorted(range(ndim), key=order.__getitem__))


def reduce(field, sums, inner=1):
    """Float64 slot sums (..., ext_flat, 2d-1) of ``inner`` products of n =
    prod(shape) digits below p, each at most top = inner n (p-1)^2, to the
    float64 residues (..., *shape): the base modulus, then one matmul per
    tower axis, each reduced axis rotated to the front, so after L steps
    they are in order, and one fp_mod.  A step of inner dimension K
    multiplies top by K (p-1); where that reaches 2^53 its input is first
    taken mod p in place, and check_reduce_exact's K (p-1)^2 < 2^53 holds."""
    d, p, n = field.base.d, field.base.p, math.prod(field.shape)
    check_reduce_exact(field)
    check_fp_exact(inner * n, p)  # top < 2^53: a sum of inner n products below p^2
    top, lead = inner * n * (p - 1) ** 2, sums.shape[:-2]
    m, L = len(lead), field.L
    rotate = (*range(m), m + L - 1, *range(m, m + L - 1), m + L)

    def times(cur, top, R):  # cur's rows times R, in float64 below 2^53
        if not top * len(R) * (p - 1) < 1 << 53:
            cur, top = fp_mod(cur, p), p - 1
        return cur @ R, top * len(R) * (p - 1)

    cur = sums
    if d > 1:  # over F_p, the base reduction matrix is the 1 x 1 identity
        cur, top = times(cur, top, field.base._redmat)
    cur = cur.reshape(lead + field._ext_shape + (d,))
    for i in range(L - 1, -1, -1):
        red, top = times(cur.reshape(-1, cur.shape[-2] * d), top, field._redmats[i])
        cur = red.reshape(cur.shape[:-2] + (field.primes[i], d)).transpose(rotate)
    fp_mod(red, p)  # in place, contiguous: cur is a view of it
    return cur


def support(field, x):
    """The 0-based tower axes on which some element of x (...,
    *field.shape) has a nonzero coefficient past index 0.  A nonzero
    multiple of p counts, which can only widen the support."""
    def axes_of(t):  # a nonzero test, then reductions over contiguous axes
        live = (t.reshape(-1, field.flat_size * t.shape[-1]) != 0).any(axis=0)
        live = live.reshape(field.flat_size, -1).any(axis=1)
        return tuple(np.flatnonzero(field._past_origin @ live).tolist())

    one = x[(slice(1),) * (x.ndim - field.L - 1)]
    first = axes_of(one)  # one element often spans every axis already
    return first if len(first) == field.L or one.size == x.size else axes_of(x)


def matmul(field, x, y):
    """x @ y over ``field`` for x (..., r, k, *field.shape) and y (..., k, c,
    *field.shape), reduced, with the leading axes broadcast as np.matmul
    broadcasts them.  A base field, or a tower of at most _TABLE_DIGITS
    digits, multiplies by its structure constants; a larger tower by one
    transform over the whole of it (_product)."""
    n = len(field.shape)
    (r, k), c, d = x.shape[-n - 2 : -n], y.shape[-n - 1], field.base.d
    if field.L:
        # A table's bound lies below this one (rounding_bound >= k n (p-1)^2 2^-52).
        check_rounding(k, field.flat_size * d, field.base.p, fft_length(field._ext_flat, d))
    if _by_table_fits(field):
        return _by_table(field, x, y)
    xl, yl = x.shape[: -n - 2], y.shape[: -n - 2]
    lead = xl if xl == yl else np.broadcast_shapes(xl, yl)
    if not r * k * c:  # the zero product: _product takes r, k and c positive
        return np.zeros(lead + (r, c) + field.shape, dtype=np.int64)

    def stacked(t):  # t with its leading axes broadcast to lead, as one batch axis
        if t.shape[: -n - 2] != lead:
            t = np.broadcast_to(t, lead + t.shape[-n - 2 :])
        return t.reshape((math.prod(lead),) + t.shape[-n - 2 :])

    return _product(field, stacked(x), stacked(y)).reshape(lead + (r, c) + field.shape)


def _by_table_fits(field):
    """Whether ``field`` multiplies by its table: a base field always, as it
    keeps its (d, d^2) table for mul_matrix, and a tower up to the limit."""
    return not field.L or math.prod(field.shape) <= _TABLE_DIGITS


def _by_table(field, x, y):
    """x @ y for x (..., r, k, *shape) and y (..., k, c, *shape), leading
    axes broadcast, by the structure constants C of ``field``, n =
    prod(shape) digits: the smaller factor's multiplication matrices, its
    digits times C as one 2-D float64 F_p matmul, then the other factor's
    digits times those, a matmul of inner dimension k n per column.  A
    matrix entry is at most n (p-1)^2, so with no mod between the matmuls
    an output is at most k n^2 (p-1)^3; where that reaches 2^53 the entries
    are taken mod p first, and check_fp_exact's k n (p-1)^2 < 2^53 holds,
    checked before anything is allocated.  The matrices are made in chunks
    of about _CHUNK_BYTES / 2, a column of y at the least, so that with the
    chunk's products the working set stays near _CHUNK_BYTES."""
    m, n, p = len(field.shape), math.prod(field.shape), field.base.p
    k = x.shape[-m - 1]
    check_fp_exact(k * n, p)
    unreduced = k * n * n * (p - 1) ** 3 < 1 << 53  # no mod between the matmuls
    if x.size < y.size:  # x y = (y^T x^T)^T, as the product commutes
        swapped = _by_table(field, y.swapaxes(-m - 2, -m - 1), x.swapaxes(-m - 2, -m - 1))
        return swapped.swapaxes(-m - 2, -m - 1)
    table = field.structure_constants()  # [v, (u, o)]
    xl, yl, r, c = x.shape[: -m - 2], y.shape[: -m - 2], x.shape[-m - 2], y.shape[-m - 1]
    rows = (x.reshape(xl + (1, r, k * n)) % p).astype(np.float64)
    digits = (y.reshape(yl + (k, c, n)) % p).swapaxes(-3, -2).astype(np.float64, order="C")
    out = np.empty(np.broadcast_shapes(xl, yl) + (r, c, n), dtype=np.int64)
    step = max(1, _CHUNK_BYTES // max(1, 16 * n * n * k * math.prod(yl)))
    for s in range(0, c, step):
        part = out[..., s : s + step, :]
        cs = part.shape[-2]
        by_y = digits[..., s : s + cs, :, :].reshape(-1, n) @ table  # [(c, k), (u, o)]
        if not unreduced:
            fp_mod(by_y, p)  # entries are at most n (p-1)^2 < 2^53
        prod = np.matmul(rows, by_y.reshape(yl + (cs, k * n, n)))  # [c, r, o]
        part[...] = prod.astype(np.int64).swapaxes(-3, -2) % p
    return out.reshape(out.shape[:-1] + field.shape)


def segmentation(field, inner):
    """(f, R, n_fft) for a transform product of inner dimension ``inner``
    over the tower ``field``: f slots per float in radix R, the power of two
    above every slot sum, and the transform length n_fft.  f = 2 where both
    bounds of the module docstring hold, else 1, where check_rounding
    raises past its bound.  n_fft is the least 2^a or 3 2^a (even, at least
    8) at or above h = ceil(span / f) for the grid's span slots; packed index
    sums stay at most (span - 1) / 2 < h, so none wraps.  The bounds take the
    power of two at or above h: for 3 2^a, 2^(a+2), as a radix-3 pass (two
    twiddle products and two sums) is two radix-2 levels of Percival's."""
    d, p, n = field.base.d, field.base.p, math.prod(field.shape)
    R, pow2 = 1 << (inner * n * (p - 1) ** 2).bit_length(), fft_length(field._ext_flat, d)
    run = d if d > 1 else field.primes[-1]  # an element's digits on consecutive slots
    floats = n // run * (run // 2 + 1)  # a run meets that many pairs of slots, at most
    if R**3 <= 1 << 51 and rounding_bound(inner, floats, (p - 1) * (1 + R) + 1, pow2 // 2) < 0.5:
        f, pow2 = 2, pow2 // 2
    else:
        f = 1
        check_rounding(inner, n, p, pow2)
    h = -(-field._ext_flat * (2 * d - 1) // f)
    return f, R, pow2 // 4 * 3 if pow2 // 4 * 3 >= max(h, 8) else pow2


def _product(field, x, y):
    """x @ y for a batch of x (B, r, k, *shape) and y (B, k, c, *shape) by
    the transform over the whole of ``field``, rounded in place and reduced
    in float64, one cast to int64, f slots per float (segmentation).  Every
    transform and product writes into one block made per call, of rows of
    n_fft/2 + 1 complex.  A member holds the spectra of y and of x's chunk,
    the sums' spectra (for k = c = 1 the product overwrites x's instead),
    for k > 1 each inner index's product before it is added, and 2f - 1 rows
    per element of y, of x's chunk or of the sums, whichever are most: a
    slot grid in the first f and, for f = 2, its packed floats in the third.
    The inverse transform lands in the packed floats, its sums are unpacked
    into the slots, and these are zeroed again after them.  Whole members,
    as many as fit in about _TRANSFORM_BYTES, share each transform and
    reduce call, or one member goes in row and inner chunks; y's spectra
    are made once per chunk, for every row chunk.  One block, not one per
    buffer: freed at once, it is reused by the next call, where separate
    buffers went back to the system and were faulted in again on every
    paper-full job."""
    (B, r, k), c = x.shape[:3], y.shape[2]
    (f, R, n_fft), w = segmentation(field, k), 2 * field.base.d - 1
    span, g = field._ext_flat * w, 2 * f - 1  # slots of a grid; rows per grid
    last = np.ravel_multi_index([p - 1 for p in field.primes], field._ext_shape) * w + w // 2
    h, live = -(-span // f), last // f + 1  # floats of a packed grid, and up to its last digit
    budget = max(1, _TRANSFORM_BYTES // (8 * n_fft))  # rows at once
    own_z, many = (k, c) != (1, 1), k > 1

    def held(rs, ks):  # a member's rows, with rs rows and ks inner indices at once
        return k * c + rs * ks + (own_z + many) * rs * c + g * max(k * c, rs * ks, rs * c)

    bstep, rstep, kstep = max(1, min(B, budget // held(r, k))), r, k
    if held(r, k) > budget:  # bounded with max(a, b, e) <= a + b + e, so that chunks fit
        per_out = own_z + many + g
        kstep = max(1, min(k, (budget - (1 + g) * k * c - per_out * c) // (1 + g)))
        rstep = max(1, min(r, (budget - (1 + g) * k * c) // ((1 + g) * kstep + per_out * c)))
    block = np.empty((bstep, held(rstep, kstep), n_fft // 2 + 1), dtype=complex)
    ends = np.cumsum([k * c, rstep * kstep, own_z * rstep * c, many * rstep * c])
    fy, fx, z, term, grid = np.split(block, ends, axis=1)
    fy, fx = fy.reshape((bstep, k, c, -1)), fx.reshape((bstep, rstep, kstep, -1))
    z = z.reshape((bstep, rstep, c, -1)) if own_z else fx
    term = term.reshape(z.shape) if many else None
    grid = grid.view(np.float64).reshape((bstep, -1, g * (n_fft + 2)))  # a grid per row
    slots = grid[..., : h * f].reshape(grid.shape[:2] + (h, f))
    packed = grid[..., (g - 1) * (n_fft + 2) :][..., :n_fft]
    slots[..., :live, :] = 0
    src = packed[..., :live]  # the transform's input, up to the last digit
    out = np.empty((B, r, c) + field.shape, dtype=np.int64)
    for b in range(0, B, bstep):
        xb, yb = x[b : b + bstep], y[b : b + bstep]
        nb = len(xb)
        fyb = _spectra(yb, field, slots, src, R, fy[:nb])
        for s in range(0, r, rstep):
            xs = xb[:, s : s + rstep]
            nr = xs.shape[1]
            zs = z[:nb, :nr]
            for t in range(0, k, kstep):
                xt = xs[:, :, t : t + kstep]
                fxs = _spectra(xt, field, slots, src, R, fx[:nb, :nr, : xt.shape[2]])
                for u in range(fxs.shape[2]):
                    pair = fxs[:, :, u, None], fyb[:, None, t + u]
                    if t + u == 0:
                        np.multiply(*pair, out=zs)
                    else:
                        zs += np.multiply(*pair, out=term[:nb, :nr])
            inv = packed[:nb, : nr * c].reshape(zs.shape[:-1] + (n_fft,))
            inv = np.fft.irfft(zs, n_fft, out=inv)[..., :h]
            sums = slots[:nb, : nr * c].reshape(zs.shape[:-1] + (h, f))
            if f == 1:
                np.rint(inv, out=inv)  # the slots themselves
            else:
                _unpack(inv, sums, R)
            grids = sums.reshape(zs.shape[:-1] + (h * f,))[..., :span]
            out[b : b + nb, s : s + nr] = reduce(field, grids.reshape(zs.shape[:-1] + (-1, w)), k)
            sums[..., :live, :] = 0
    return out


def _unpack(c, sums, R):
    """Packed coefficients c (..., h) = e + R o + R^2 f, e, o, f below R,
    into slot pairs sums (..., h, 2) = (e_j + f_(j-1), o_j): adding 3 2^51
    keeps c, within 1/2 of an integer below R^3 <= 2^51, in [2^52, 2^53),
    where floats are 1 apart, so it rounds to that integer, and the float's
    low 52 bits hold it plus 2^51, which is 0 mod R^2."""
    c += 3.0 * 2**51
    v, bits = c.view(np.int64), R.bit_length() - 1
    np.bitwise_and(v, R - 1, out=sums[..., 0])
    v >>= bits
    np.bitwise_and(v, R - 1, out=sums[..., 1])
    v >>= bits
    v &= (1 << 51 - 2 * bits) - 1
    sums[..., 1:, 0] += v[..., :-1]
