"""The batched exact product against element-wise oracles: kernels.convolve
against the loop and Kronecker convolutions, the fields' mul against the
Kronecker multiply and the base-field convolution, mat_mul and batched
kernels.matmul against the per-element triple loop, all bit for bit, on
operands of every support, by the structure constants and by the transform;
each structure-constant table against the products of basis elements; and
the bounds that guard the transform, the table product and the float
reduction."""

import math
import os
import subprocess
import sys
import threading
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftp_sdmm import kernels
from ftp_sdmm.errors import RoundingBoundExceeded
from ftp_sdmm.fields import BaseField, make_base_field, make_tower
from ftp_sdmm.ftp import build_scheme
from ftp_sdmm.matrices import Mat, SplitMix64, mat_mul, random_mat
from ftp_sdmm.proto import run_inprocess

# F_4(2), F_11(2,3), F_11(2,3,5), F_8(5), F_251(2,3), F_27(5,7,11), F_9(2,3)
FIELDS = [
    (2, 2, (2,)), (11, 1, (2, 3)), (11, 1, (2, 3, 5)), (2, 3, (5,)),
    (251, 1, (2, 3)), (3, 3, (5, 7, 11)), (3, 2, (2, 3)),
]
_towers = {}


def _tower(p, d, primes):
    key = (p, d, primes)
    if key not in _towers:
        _towers[key] = make_tower(make_base_field(p, d), primes)
    return _towers[key]


def _conv_reference(xf, yf, addtable, ext_len):
    """The plain loop convolution: for each live row of x and each nonzero
    coefficient y[j, b], add the shifted row block into the extended grid."""
    m, d = xf.shape
    ext = np.zeros((ext_len, 2 * d - 1), dtype=np.int64)
    live = np.flatnonzero(xf.any(axis=1))
    if live.size == 0:
        return ext
    xs = xf[live]
    sub = addtable[live]
    for j in range(m):
        row = yf[j]
        if not row.any():
            continue
        tgt = sub[:, j]
        for b in range(d):
            v = row[b]
            if v:
                ext[tgt, b : b + d] += xs * v
    return ext


_SLOT_DTYPES = [np.dtype(f"<u{w}") for w in (1, 2, 4, 8)]


def _conv_kronecker(xf, yf, addtable, ext_len):
    """Kronecker substitution: each operand becomes one Python integer whose
    fixed-width slots are its coefficients laid out in the extended
    multi-index space, slot (i, a) at addtable[i, 0] * (2d-1) + a.  Each
    output slot sums at most m*d products, so slots of the smallest unsigned
    width that holds m*d*max(x)*max(y) never carry into their neighbour.
    Needs non-negative coefficients."""
    m, d = xf.shape
    ext = np.zeros((ext_len, 2 * d - 1), dtype=np.int64)
    bound = m * d * int(xf.max()) * int(yf.max())
    if bound == 0:
        return ext
    dt = next(t for t in _SLOT_DTYPES if bound < 1 << 8 * t.itemsize)
    pos = addtable[:, 0]
    gx = np.zeros(ext.shape, dtype=dt)
    gx[pos, :d] = xf
    gy = np.zeros(ext.shape, dtype=dt)
    gy[pos, :d] = yf
    prod = int.from_bytes(gx.tobytes(), "little") * int.from_bytes(gy.tobytes(), "little")
    raw = prod.to_bytes(ext.size * dt.itemsize, "little")
    return ext + np.frombuffer(raw, dtype=dt).reshape(ext.shape).astype(np.int64)


def _mul_oracle(tower, x, y):
    """One multiply: over a base field, the convolution of the digit
    vectors times the reduction matrix; over a tower, the Kronecker
    convolution, then the base modulus and each axis reduced one at a time,
    each reduced axis rotated to the front."""
    d, p = tower.base.d, tower.base.p
    if not tower.L:
        return np.convolve(x % p, y % p) @ tower._redmat % p
    xf = x.reshape(tower.flat_size, d) % p
    yf = y.reshape(tower.flat_size, d) % p
    ext = _conv_kronecker(xf, yf, tower._addtable, tower._ext_flat)
    cur = ((ext @ tower.base._redmat) % p).reshape(tower._ext_shape + (d,))
    rotate = (tower.L - 1,) + tuple(range(tower.L - 1)) + (tower.L,)
    for i in range(tower.L - 1, -1, -1):
        red = (cur.reshape(-1, cur.shape[-2] * d) @ tower._redmats[i]) % p
        cur = red.reshape(cur.shape[:-2] + (tower.primes[i], d)).transpose(rotate)
    return np.ascontiguousarray(cur)


def _mat_mul_loop(x, y, mul):
    """The per-element triple loop, with the element multiply ``mul``."""
    f = x.field
    out = [[f.zero() for _ in range(y.cols)] for _ in range(x.rows)]
    for i in range(x.rows):
        for k in range(x.cols):
            xv = x.data[i][k]
            if f.is_zero(xv):
                continue
            for j in range(y.cols):
                out[i][j] = f.add(out[i][j], mul(xv, y.data[k][j]))
    return np.array(out, dtype=np.int64).reshape((x.rows, y.cols) + f.shape)


def _top(field, rows, cols):
    """The matrix whose every coefficient is p - 1, the largest sums."""
    return Mat(field, rows, cols,
               np.full((rows, cols) + field.shape, field.base.p - 1, dtype=np.int64))


@pytest.mark.parametrize("p,d,primes", FIELDS[:6])
def test_numpy_backend_matches_loop_reference(p, d, primes):
    """kernels.convolve equals both oracle convolutions on a zero operand on
    either side, all-(p-1) operands and random pairs."""
    tower = _tower(p, d, primes)
    shape = (tower.flat_size, tower.base.d)
    rng = SplitMix64(29)
    zero = tower.zero().reshape(shape)
    top = np.full(shape, p - 1, dtype=np.int64)
    pairs = [(zero, top), (top, zero), (top, top)]
    for _ in range(3):
        pairs.append((tower.random(rng).reshape(shape),
                      tower.random(rng).reshape(shape)))
    for x, y in pairs:
        out = kernels.convolve(x, y, tower._addtable, tower._ext_flat)
        ref = _conv_reference(x, y, tower._addtable, tower._ext_flat)
        assert out.dtype == ref.dtype and np.array_equal(out, ref)
        assert np.array_equal(out, _conv_kronecker(x, y, tower._addtable, tower._ext_flat))


# F_16, F_27 and F_251 with no tower axes.
BASE_FIELDS = [(2, 4, ()), (3, 3, ()), (251, 1, ())]


@pytest.mark.parametrize("p,d,primes", FIELDS + BASE_FIELDS)
def test_tower_mul_matches_oracle(p, d, primes):
    """Single pairs, a stack times one element on either side and a stack
    times a stack, on towers and base fields, with chunks so small that a
    batch splits, against the oracle pair by pair."""
    tower = _tower(p, d, primes) if primes else make_base_field(p, d)
    rng = SplitMix64(31)
    top = np.full(tower.shape, p - 1, dtype=np.int64)
    if primes:
        scalar = tower.embed_base(tower.base.random(rng))
    else:
        scalar = tower.one() * tower.random(rng)[0]  # an element of F_p
    pairs = [(top, top), (scalar, top), (top, scalar), (tower.zero(), top)]
    for _ in range(3):
        x, y = tower.random(rng), tower.random(rng)
        pairs += [(x, y), (x - p, 3 * y)]  # unreduced operands
    for x, y in pairs:
        got = tower.mul(x, y)
        assert got.dtype == np.int64 and np.array_equal(got, _mul_oracle(tower, x, y))
    xs, ys = np.stack([x for x, _ in pairs]), np.stack([y for _, y in pairs])
    f, _, n_fft = kernels.segmentation(tower, 1) if primes else (1, 0, 0)
    for members in (1, 2):  # batch chunks of one product and of two, at 2f + 1 rows each
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_CHUNK_BYTES", members * (2 * f + 1) * 8 * n_fft)
            mp.setattr(kernels, "_TRANSFORM_BYTES", members * (2 * f + 1) * 8 * n_fft)
            products = [(tower.mul(xs, ys), [_mul_oracle(tower, x, y) for x, y in pairs]),
                        (tower.mul(xs, ys[4]), [_mul_oracle(tower, x, ys[4]) for x in xs]),
                        (tower.mul(xs[5], ys), [_mul_oracle(tower, xs[5], y) for y in ys]),
                        (tower.mul(xs.reshape((2, -1) + tower.shape), ys[None, 6]),
                         [_mul_oracle(tower, x, ys[6]) for x in xs])]
        for got, want in products:
            assert got.dtype == np.int64 and np.array_equal(got.reshape(xs.shape), want)


@pytest.mark.parametrize("p,d,primes,r,k,c,top", [
    (2, 2, (2,), 4, 6, 4, False),
    (2, 3, (5,), 4, 6, 4, False),
    (3, 2, (2, 3), 4, 6, 4, False),
    (11, 1, (2, 3, 5), 4, 6, 4, False),
    (11, 1, (2, 3), 16, 8, 16, False),
    (251, 1, (2, 3), 16, 16, 16, True),
    (3, 3, (5, 7, 11), 1, 1, 1, False),
    (3, 3, (5, 7, 11), 19, 5, 2, False),
])
def test_mat_mul_matches_loop_oracle(p, d, primes, r, k, c, top):
    """The largest shapes the suite and the benchmark use: tcp-wide's server
    product, 16x16 at p = 251 with all-(p-1) operands, and paper-full's
    encode (19 x 5 times 5 x 2, in chunks on that tower)."""
    tower = _tower(p, d, primes)
    if top:
        x, y = _top(tower, r, k), _top(tower, k, c)
    else:
        x, y = random_mat(r, k, tower, seed=5), random_mat(k, c, tower, seed=6)
    want = _mat_mul_loop(x, y, lambda u, v: _mul_oracle(tower, u, v))
    assert np.array_equal(mat_mul(x, y).data, want)


def test_base_field_mat_ops_match_loop_oracle():
    """Mat over a base field, as the demo and the baselines use it."""
    f = make_base_field(2, 4)
    x, y = random_mat(5, 3, f, seed=1), random_mat(3, 4, f, seed=2)
    assert np.array_equal(mat_mul(x, y).data, _mat_mul_loop(x, y, f.mul))
    s = f.from_coeffs([0, 1, 1, 0])
    scaled = x.scale(s).data
    assert np.array_equal(scaled, [[f.mul(s, v) for v in row] for row in x.data])


def test_rounding_bound_at_largest_tested_shapes():
    """Exact at the largest shapes above, at p = 251 and on F_27(5,7,11),
    with room to spare; the limit at p = 251 on F_251(2,3) lies between
    inner dimensions 10^4 and 10^6.  Packed two slots per float, the
    paper-full shapes stay below 1/2."""
    small = kernels.fft_length(15, 1)        # F_251(2,3): ext grid 3 x 5
    large = kernels.fft_length(9 * 13 * 21, 3)
    assert kernels.rounding_bound(16, 6, 251, small) < 1e-6
    assert kernels.rounding_bound(5, 1155, 3, large) < 1e-6
    kernels.check_rounding(10**4, 6, 251, small)
    with pytest.raises(RoundingBoundExceeded):
        kernels.check_rounding(10**6, 6, 251, small)
    # Packed two slots per float on F_27(5,7,11): 770 floats of magnitude up
    # to 2 (1 + R), R = 2^13 above 1155 * 4 at inner dimension 1 (the
    # servers' products), 2^15 above 5 * 1155 * 4 at 5 (encode's shape).
    assert kernels.rounding_bound(1, 770, 2 * (1 + 2**13) + 1, large // 2) < 0.004
    assert kernels.rounding_bound(5, 770, 2 * (1 + 2**15) + 1, large // 2) < 0.3
    # Inner dimension 7 (R = 2^15) is the largest that packs, 8 (2^16) is not.
    assert abs(kernels.rounding_bound(7, 770, 2 * (1 + 2**15) + 1, large // 2) - 0.42) < 0.005
    assert abs(kernels.rounding_bound(8, 770, 2 * (1 + 2**16) + 1, large // 2) - 1.93) < 0.005


def _floats_reached(tower, f):
    """The floats of f slots each that hold a digit of an element, counted
    on the slot grid (*_ext_shape, 2d-1), digits at its low corner."""
    grid = np.zeros(tower._ext_shape + (2 * tower.base.d - 1,), dtype=bool)
    grid[tuple(map(slice, tower.shape))] = True
    flat = np.concatenate([grid.reshape(-1), np.zeros(-grid.size % f, dtype=bool)])
    return int(flat.reshape(-1, f).any(axis=1).sum())


# The transform's lengths: the powers of two, and 3 2^a from 12, the first
# that is even and at least 8.
_LENGTHS = sorted([2**a for a in range(1, 64)] + [3 * 2**a for a in range(2, 64)])


@pytest.mark.parametrize("p,d,primes", FIELDS + [(65521, 1, (5, 11))])
def test_segmentation_packs_only_where_both_bounds_hold(p, d, primes):
    """segmentation's radix R is the power of two above top = k n (p-1)^2,
    and it packs two slots per float only where R^3 <= 2^51 and Percival's
    bound over the floats an element reaches, counted on the grid, stays
    below 1/2 at half fft_length; on paper-full's tower, where every float
    reached holds a run's digits, exactly there.  n_fft is the least of
    _LENGTHS that holds h = ceil(span / f) floats of the span slots of the
    grid.  On F_65521(5,11) top has 38 bits, so R^3 > 2^51 and it never
    packs."""
    tower = _tower(p, d, primes)
    n, full = math.prod(tower.shape), kernels.fft_length(tower._ext_flat, d)
    span = tower._ext_flat * (2 * d - 1)
    for k in (1, 2, 5, 7, 8, 16, 19):
        f, R, n_fft = kernels.segmentation(tower, k)
        top = k * n * (p - 1) ** 2
        assert R // 2 <= top < R and f in (1, 2)
        assert n_fft == min(m for m in _LENGTHS if m >= -(-span // f))
        packs = R**3 <= 1 << 51 and kernels.rounding_bound(
            k, _floats_reached(tower, 2), (p - 1) * (1 + R) + 1, full // 2) < 0.5
        assert packs or f == 1
        if primes == (5, 7, 11):
            assert (f == 2) == packs == (k <= 7), k
    if p == 65521:
        assert (55 * 65520**2).bit_length() == 38 and kernels.segmentation(tower, 1)[:2] == (1, 2**38)


def _segmentation_at_powers_of_two(tower, k):
    """segmentation as it was with n_fft a power of two: f, R, n_fft, and
    the arguments of the rounding bound it took, before the length."""
    d, p, n = tower.base.d, tower.base.p, math.prod(tower.shape)
    R, n_fft = 1 << (k * n * (p - 1) ** 2).bit_length(), kernels.fft_length(tower._ext_flat, d)
    run = d if d > 1 else tower.primes[-1]
    packed = (k, n // run * (run // 2 + 1), (p - 1) * (1 + R) + 1)
    if R**3 <= 1 << 51 and kernels.rounding_bound(*packed, n_fft // 2) < 0.5:
        return 2, R, n_fft // 2, packed
    return 1, R, n_fft, (k, n, p)


@pytest.mark.parametrize("p,d,primes", FIELDS + [(65521, 1, (5, 11))])
def test_segmentation_keeps_f_r_and_the_bound_of_the_power_of_two_length(p, d, primes):
    """f, R and the rounding bound, taken at the power of two at or above
    n_fft, are those of the power-of-two rule, for every inner dimension
    tested, and n_fft is never longer than that rule's."""
    tower = _tower(p, d, primes)
    for k in (1, 2, 5, 7, 8, 16, 19):
        f, R, n_fft = kernels.segmentation(tower, k)
        old_f, old_R, old_n_fft, args = _segmentation_at_powers_of_two(tower, k)
        at = 1 << (n_fft - 1).bit_length()
        assert (f, R, at) == (old_f, old_R, old_n_fft) and n_fft <= old_n_fft, k
        assert kernels.rounding_bound(*args, at) == kernels.rounding_bound(*args, old_n_fft)


def test_unpacked_transform_at_192_matches_the_loop_oracle():
    """On F_65521(5,11), 55 digits, R^3 > 2^51, so the product goes one slot
    per float, at n_fft = 192 = 3 2^6 for its 189 slots; 2 x 3 by 3 x 2
    with every digit p - 1 equals the per-element triple loop bit for bit."""
    tower = _tower(65521, 1, (5, 11))
    assert tower._ext_flat == 189 and kernels.segmentation(tower, 3)[::2] == (1, 192)
    x, y = _top(tower, 2, 3), _top(tower, 3, 2)
    want = _mat_mul_loop(x, y, lambda u, v: _mul_oracle(tower, u, v))
    assert np.array_equal(kernels.matmul(tower, x.data, y.data), want)


def test_packed_product_matches_the_oracles_on_paper_full(monkeypatch):
    """On paper-full's F_27(5,7,11), products that pack two slots per float
    equal the oracles bit for bit: 19 members of 1 x 1 by 1 x 1, the first
    all p - 1, against _mul_oracle, and encode's 19 x 5 by 5 x 2 with every
    coefficient p - 1, against the per-element triple loop.  So do 2 x 7 by
    7 x 1, the largest inner dimension that packs, and 2 x 8 by 8 x 1, which
    does not, with every coefficient p - 1, so that every slot sum reaches
    its worst case."""
    tower = _tower(3, 3, (5, 7, 11))
    chosen, segmentation = [], kernels.segmentation
    monkeypatch.setattr(kernels, "segmentation",
                        lambda f, k: chosen.append(segmentation(f, k)) or chosen[-1])
    xs, ys = np.random.default_rng(29).integers(0, 3, (2, 19, 1, 1) + tower.shape)
    xs[0] = ys[0] = 2
    got = kernels.matmul(tower, xs, ys)
    assert np.array_equal(got[:, 0, 0], [_mul_oracle(tower, x, y) for x, y in zip(xs[:, 0, 0], ys[:, 0, 0])])
    for r, k, c in ((19, 5, 2), (2, 7, 1), (2, 8, 1)):
        x, y = _top(tower, r, k), _top(tower, k, c)
        want = _mat_mul_loop(x, y, lambda u, v: _mul_oracle(tower, u, v))
        assert np.array_equal(kernels.matmul(tower, x.data, y.data), want), k
    assert [f for f, _, _ in chosen] == [2, 2, 2, 1]


def test_unpack_rounds_errors_below_one_half_either_way():
    """_unpack reads the slot pairs (e_j + f_(j-1), o_j) off packed
    coefficients c_j = e_j + R o_j + R^2 f_j that are up to 1/2 off, below
    as well as above: a zero coefficient computed as -0.3 or -0.49 gives
    zero slots, and at R = 2^17, the largest radix that packs, so does every
    part up to R - 1."""
    rng = np.random.default_rng(31)
    for R in (2**13, 2**17):
        e, o, f = rng.integers(0, R, (3, 2, 40))
        e[:, :4] = o[:, :4] = f[:, :4] = 0
        e[:, 4:8] = o[:, 4:8] = f[:, 4:8] = R - 1
        exact = (e + R * o + R * R * f).astype(np.float64)
        c = exact + rng.uniform(-0.3, 0.3, exact.shape)
        c[:, :4] = [-0.3, -0.49, 0.49, 0.0]
        assert np.all(np.abs(c - exact) < 0.5)
        sums = np.full(c.shape + (2,), np.nan)
        kernels._unpack(c, sums, R)
        assert np.array_equal(sums[..., 1], o)
        assert np.array_equal(sums[..., 0], e + np.pad(f[:, :-1], ((0, 0), (1, 0))))


def test_product_past_the_bound_raises_before_allocating():
    """Zero-stride operands of inner dimension 10^6: the product raises on
    the bound before it copies or transforms anything."""
    tower = _tower(251, 1, (2, 3))
    zero = np.zeros(tower.shape, dtype=np.int64)
    x = np.broadcast_to(zero, (1, 10**6) + tower.shape)
    y = np.broadcast_to(zero, (10**6, 1) + tower.shape)
    with pytest.raises(RoundingBoundExceeded):
        kernels.matmul(tower, x, y)


def _on_axes(tower, t, axes):
    """t with every coefficient past index 0 on the axes outside ``axes``
    set to zero: its entries then lie in F_q0(a_k : k in axes)."""
    t = t.copy()
    for a in range(tower.L):
        if a not in axes:
            np.moveaxis(t, 2 + a, 0)[1:] = 0
    return t


@settings(max_examples=60)
@given(st.data())
def test_matmul_on_every_support_matches_loop_oracle(data):
    """On towers of one to three axes, kernels.matmul with operands spanning
    no axis, one, several or all, unreduced or not, a leading batch axis on
    both, on one or on neither, and chunks of one spectrum, two or the
    default, equals the per-element triple loop bit for bit, batch member by
    batch member."""
    primes = data.draw(st.sets(st.sampled_from((2, 3, 5)), min_size=1))
    tower = _tower(data.draw(st.sampled_from((2, 3, 11))), data.draw(st.integers(1, 2)),
                   tuple(sorted(primes)))
    r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    batch = data.draw(st.integers(1, 3))
    x_lead, y_lead = data.draw(st.sampled_from([((), ()), ((batch,), (batch,)),
                                                ((batch,), ()), ((), (batch,))]))
    axes = st.sets(st.integers(0, tower.L - 1))
    sx, sy = data.draw(axes), data.draw(axes)
    rng = SplitMix64(data.draw(st.integers(0, 2**32)))

    def draw(lead, rows, cols, on):
        t = random_mat(math.prod(lead) * rows, cols, tower, rng=rng).data
        return _on_axes(tower, t, on).reshape(lead + (rows, cols) + tower.shape)

    x, y = draw(x_lead, r, k, sx), draw(y_lead, k, c, sy)
    lead = x_lead or y_lead
    want = np.stack([
        _mat_mul_loop(Mat(tower, r, k, np.broadcast_to(x, lead + x.shape[-tower.L - 3 :])[b]),
                      Mat(tower, k, c, np.broadcast_to(y, lead + y.shape[-tower.L - 3 :])[b]),
                      lambda u, v: _mul_oracle(tower, u, v))
        for b in np.ndindex(lead)]).reshape(lead + (r, c) + tower.shape)
    if data.draw(st.booleans()):
        x = x + tower.base.p  # nonzero multiples of p widen the support
    n_fft = kernels.segmentation(tower, k)[2]
    chunk = data.draw(st.sampled_from([1, 16 * n_fft, None]))
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(kernels, "_CHUNK_BYTES", chunk)
            mp.setattr(kernels, "_TRANSFORM_BYTES", chunk)
        got = kernels.matmul(tower, x, y)
    assert got.dtype == np.int64 and np.array_equal(got, want)


@pytest.mark.parametrize("p,d,primes,mods", [(65521, 1, (5, 11), 3), (3, 3, (5, 7, 11), 1)])
def test_transform_chain_takes_mods_only_past_2_53(p, d, primes, mods, monkeypatch):
    """Past _TABLE_DIGITS, the transform's float64 chain from the slots to
    the residues matches the oracle pair by pair on 19 members at two per
    chunk, the last chunk partial, with all-(p-1) operands first.  On
    F_65521(5,11), 55 digits, the sums would pass 2^53 at both axis steps,
    so each reduce takes a mod before each and one at the end; on
    paper-full's F_27(5,7,11), whose chain peaks near 2.5e10, it takes only
    the one at the end.  Sums whose bound passes 2^53 are refused."""
    tower = _tower(p, d, primes)
    assert math.prod(tower.shape) > kernels._TABLE_DIGITS
    xs, ys = np.random.default_rng(7).integers(0, p, (2, 19) + tower.shape)
    xs[0] = ys[0] = p - 1
    taken, chunks = [], []
    fp_mod, reduce = kernels.fp_mod, kernels.reduce
    monkeypatch.setattr(kernels, "fp_mod", lambda x, p: taken.append(p) or fp_mod(x, p))
    monkeypatch.setattr(kernels, "reduce", lambda f, s, k: chunks.append(len(s)) or reduce(f, s, k))
    # 2f + 1 rows of 8 n_fft bytes per 1 x 1 member (y's spectra, x's, which
    # take the product, and a grid of 2f - 1 rows, which takes the inverse
    # transform): two fit.
    f, _, n_fft = kernels.segmentation(tower, 1)
    monkeypatch.setattr(kernels, "_TRANSFORM_BYTES", 2 * (2 * f + 1) * 8 * n_fft)
    got = tower.mul(xs, ys)
    assert chunks == [2] * 9 + [1] and len(taken) == mods * len(chunks)
    assert np.array_equal(got, [_mul_oracle(tower, x, y) for x, y in zip(xs, ys)])
    with pytest.raises(RoundingBoundExceeded):  # sums of 2^53 products may pass 2^53
        reduce(tower, np.zeros((1, tower._ext_flat, 2 * d - 1)), 1 << 53)



@pytest.mark.parametrize("p,d,primes", [(3, 3, (5, 7, 11)), (65521, 1, (5, 11))])
def test_batched_transform_matches_the_oracle(p, d, primes, monkeypatch):
    """Past _TABLE_DIGITS, at a block of four members' 2f + 1 rows, B = 1
    to 9 members of 1 x 1 by 1 x 1 go four to a transform and reduce call,
    the last chunk partial from B = 5, and each equals _mul_oracle.  Two 3 x 2 by 2 x 2 members, with the leading axis
    on both, on x only or on y only, equal the per-element triple loop, in
    row and inner chunks at that block and as whole members in a larger."""
    tower = _tower(p, d, primes)
    f, _, n_fft = kernels.segmentation(tower, 1)
    block = 4 * (2 * f + 1) * 8 * n_fft
    xs, ys = np.random.default_rng(11).integers(0, p, (2, 9, 1, 1) + tower.shape)
    want = [_mul_oracle(tower, x, y) for x, y in zip(xs[:, 0, 0], ys[:, 0, 0])]
    chunks, reduce = [], kernels.reduce
    monkeypatch.setattr(kernels, "reduce", lambda f, s, k: chunks.append(len(s)) or reduce(f, s, k))
    monkeypatch.setattr(kernels, "_TRANSFORM_BYTES", block)
    for B in range(1, 10):
        chunks.clear()
        got = kernels.matmul(tower, xs[:B], ys[:B])
        assert chunks == [4] * (B // 4) + [B % 4] * (B % 4 > 0)
        assert got.shape == (B, 1, 1) + tower.shape and np.array_equal(got[:, 0, 0], want[:B])

    rng = SplitMix64(12)
    x = np.stack([random_mat(3, 2, tower, rng=rng).data for _ in range(2)])
    y = np.stack([random_mat(2, 2, tower, rng=rng).data for _ in range(2)])
    loops = {(a, b): _mat_mul_loop(Mat(tower, 3, 2, x[a]), Mat(tower, 2, 2, y[b]),
                                   lambda u, v: _mul_oracle(tower, u, v))
             for a, b in [(0, 0), (1, 1), (1, 0), (0, 1)]}
    cases = [(x, y, [(0, 0), (1, 1)]), (x, y[0], [(0, 0), (1, 0)]), (x[0], y, [(0, 0), (0, 1)])]
    for size in (block, 64 * block):
        monkeypatch.setattr(kernels, "_TRANSFORM_BYTES", size)
        for xl, yl, pairs in cases:
            got = kernels.matmul(tower, xl, yl)
            assert np.array_equal(got, np.stack([loops[ab] for ab in pairs])), (size, pairs)


def test_threads_multiplying_on_one_shared_tower_match_the_oracle():
    """The daemon's handler threads share its cached towers: three threads,
    more than the cores, that multiply 9-member stacks on paper-full's tower
    at once, three times each, with the interpreter switching threads every
    10 us, all get the oracle's products every time."""
    tower = _tower(3, 3, (5, 7, 11))
    operands = np.random.default_rng(13).integers(0, 3, (3, 2, 9, 1, 1) + tower.shape)
    want = [[_mul_oracle(tower, x, y) for x, y in zip(xs[:, 0, 0], ys[:, 0, 0])]
            for xs, ys in operands]
    start, results = threading.Barrier(len(operands)), [[] for _ in operands]

    def work(t):
        start.wait(timeout=60)
        for _ in range(3):
            results[t].append(kernels.matmul(tower, *operands[t]))

    threads = [threading.Thread(target=work, args=(t,)) for t in range(len(operands))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for t, got in enumerate(results):
        assert len(got) == 3 and all(np.array_equal(g[:, 0, 0], want[t]) for g in got), t

_PAST_BOUND = """
import numpy as np
from ftp_sdmm import kernels
from ftp_sdmm.errors import RoundingBoundExceeded
from ftp_sdmm.fields import BaseField, make_tower
f = BaseField(2**31 - 1, 1)
one = np.ones((1, 1, 1), dtype=np.int64)
tower, small = make_tower(f, (2,)), make_tower(BaseField(251, 1), (2, 3))
column = np.ones((1, 1) + tower.shape, dtype=np.int64)
for past in (lambda: kernels.reduce(f, one[0]), lambda: kernels.matmul(f, one, one),
             lambda: kernels.matmul(tower, column, tower.one()[None, None]),
             lambda: kernels.segmentation(small, 10**6)):
    try:
        past()
    except RoundingBoundExceeded:
        print("raised")
"""


def test_float_reduction_past_its_bound_raises():
    """Residues below p = 2^31 - 1 square past 2^53, so reduce, the direct
    F_q0 product and, on F_p(a_1), a product by the tower's one refuse them
    with an explicit raise, which python -O keeps, as it keeps segmentation's
    where one slot per float fails too (F_251(2,3) at inner dimension
    10^6); the towers in use pass."""
    f = BaseField(2**31 - 1, 1)
    one = np.ones((1, 1, 1), dtype=np.int64)
    with pytest.raises(RoundingBoundExceeded):
        kernels.reduce(f, np.zeros((1, 1, 1), dtype=np.int64))
    with pytest.raises(RoundingBoundExceeded):
        kernels.matmul(f, one, one)
    for key in FIELDS:
        kernels.check_reduce_exact(_tower(*key))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-O", "-c", _PAST_BOUND], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0 and out.stdout.split() == ["raised"] * 4, out.stderr


# The fields of FIELDS whose products go by their structure constants.
SMALL_FIELDS = [f for f in FIELDS if math.prod(f[2]) * f[1] <= kernels._TABLE_DIGITS]
# Those and the base fields, then the only tables a paper-full build makes:
# the one-axis sub-towers of its tower, of 15, 21 and 33 digits.
TABLES = ([(*f, None) for f in SMALL_FIELDS + BASE_FIELDS]
          + [(3, 3, (5, 7, 11), k) for k in range(3)])


@pytest.mark.parametrize("p,d,primes,axis", TABLES, ids=[
    f"{p}-{d}-primes{i}" if axis is None else f"paper-full-axis{axis}"
    for i, (p, d, _, axis) in enumerate(TABLES)])
def test_structure_constants_are_the_products_of_basis_elements(p, d, primes, axis):
    """The table, mul_matrix of the basis, holds digit o of e_u e_v in row
    v and column (u, o): on towers and sub-towers the transform product of
    every pair of basis elements, on base fields the convolution oracle."""
    field = _tower(p, d, primes) if primes else make_base_field(p, d)
    if axis is not None:
        field = field.subtower((axis,))
    n = math.prod(field.shape)
    basis = np.eye(n, dtype=np.int64).reshape((n,) + field.shape)
    if field.L:
        pairs = kernels._product(field, basis[None, :, None], basis[None, None, :])
    else:
        pairs = np.array([[_mul_oracle(field, u, v) for v in basis] for u in basis])
    table = field.structure_constants()
    assert table.dtype == np.float64 and table.shape == (n, n * n)
    assert np.array_equal(table.reshape(n, n, n), pairs.reshape(n, n, n).swapaxes(0, 1))


@pytest.mark.parametrize("p,d,primes", SMALL_FIELDS)
def test_table_product_matches_transform_and_loop_oracle(p, d, primes):
    """On every field of FIELDS under the table's limit, kernels.matmul
    (by the table there) equals _product on the same operands and the
    per-element triple loop bit for bit: x and y of every pair of supports,
    a leading batch axis on both, on one or on neither, zero operands,
    unreduced or negative digits, and chunks of one column or the
    default."""
    tower = _tower(p, d, primes)
    rng = SplitMix64(43)
    subsets = [s for size in range(tower.L + 1) for s in combinations(range(tower.L), size)]
    leads = [((2,), (2,)), ((2,), ()), ((), (2,)), ((), ())]

    def draw(lead, rows, cols, on):
        t = random_mat(math.prod(lead) * rows, cols, tower, rng=rng).data
        return _on_axes(tower, t, on).reshape(lead + (rows, cols) + tower.shape)

    for case, (sx, sy) in enumerate(product(subsets, repeat=2)):
        (x_lead, y_lead), (r, k, c) = leads[case % 4], [(3, 2, 2), (1, 3, 4), (2, 1, 1)][case % 3]
        x, y = draw(x_lead, r, k, sx), draw(y_lead, k, c, sy)
        if case % 5 == 0:
            (x if case % 2 else y)[...] = 0
        lead = x_lead or y_lead
        xb = np.broadcast_to(x, lead + x.shape[-tower.L - 3 :])
        yb = np.broadcast_to(y, lead + y.shape[-tower.L - 3 :])
        want = np.stack([_mat_mul_loop(Mat(tower, r, k, xb[b]), Mat(tower, k, c, yb[b]),
                                       lambda u, v: _mul_oracle(tower, u, v))
                         for b in np.ndindex(lead)]).reshape(lead + (r, c) + tower.shape)
        if case % 3 == 1:  # the same elements, unreduced and negative
            x, y = x - 2 * p, y + 3 * p
            xb, yb = xb - 2 * p, yb + 3 * p
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_CHUNK_BYTES", [1, kernels._CHUNK_BYTES][case % 2])
            got = kernels.matmul(tower, x, y)
        transform = kernels._product(tower, xb.reshape((-1,) + xb.shape[len(lead):]),
                                     yb.reshape((-1,) + yb.shape[len(lead):]))
        assert got.dtype == np.int64 and np.array_equal(got, want), (sx, sy)
        assert np.array_equal(transform.reshape(got.shape), got), (sx, sy)


def test_every_support_draw_on_the_transform_paths(monkeypatch):
    """The every-support draws again with the table's limit at 0, so that
    every product goes by the transform over the whole tower, whatever its
    operands span, and still meets the loop oracle on small towers."""
    monkeypatch.setattr(kernels, "_TABLE_DIGITS", 0)
    test_matmul_on_every_support_matches_loop_oracle()


def _route_spy(monkeypatch):
    """Record (name, field, x's shape) for every _by_table and _product call."""
    calls = []
    for name in ("_by_table", "_product"):
        def spy(field, x, y, name=name, real=getattr(kernels, name)):
            calls.append((name, field, x.shape))
            return real(field, x, y)
        monkeypatch.setattr(kernels, name, spy)
    return calls


def test_products_past_the_table_are_one_transform_over_the_tower(monkeypatch):
    """On paper-full's tower, past _TABLE_DIGITS, a 2 x 2 by 2 x 1 product
    is one _product over the tower itself (its own sub-tower of every axis)
    and no _by_table, whatever its operands span: with y in F_q0 and x on
    axis 1 (a_2, of degree 7), and with both spanning every axis.  Both
    equal the per-element triple loop."""
    tower = _tower(3, 3, (5, 7, 11))
    assert tower.subtower(range(tower.L)) is tower
    rng = SplitMix64(27)
    x, y = random_mat(2, 2, tower, rng=rng).data, random_mat(2, 1, tower, rng=rng).data
    calls = _route_spy(monkeypatch)
    for xs, ys in [(_on_axes(tower, x, {1}), _on_axes(tower, y, set())), (x, y)]:
        calls.clear()
        got = kernels.matmul(tower, xs, ys)
        want_calls = [("_product", True, (1, 2, 2) + tower.shape)]
        assert [(n, f is tower, s) for n, f, s in calls] == want_calls
        want = _mat_mul_loop(Mat(tower, 2, 2, xs), Mat(tower, 2, 1, ys),
                             lambda u, v: _mul_oracle(tower, u, v))
        assert np.array_equal(got, want)


def test_a_paper_full_job_makes_one_transform_and_its_setup_none(monkeypatch):
    """build_scheme for paper-full calls no _product, and one in-process job
    calls it once, for the servers' products; the job's product equals the
    per-element triple loop."""
    calls = _route_spy(monkeypatch)
    scheme = build_scheme(3, 2, (5, 7, 11), make_base_field(3, 3), 1, 3, 1)
    assert [c for c in calls if c[0] == "_product"] == []
    A, B = random_mat(1, 3, scheme.tower, seed=3), random_mat(3, 1, scheme.tower, seed=4)
    calls.clear()
    product, _ = run_inprocess(scheme, A, B, seed=5)
    assert [n for n, _, _ in calls].count("_product") == 1
    want = _mat_mul_loop(A, B, lambda u, v: _mul_oracle(scheme.tower, u, v))
    assert np.array_equal(product.data, want)


def test_a_paper_full_job_transforms_at_6144_points(digest_schemes, monkeypatch):
    """Every forward and inverse transform of a paper-full job is 6144 = 3
    2^11 points long: its grid's 12285 slots, two to a float, take 6143,
    past 4096, and the power of two above them is 8192."""
    scheme = digest_schemes["paper-full"]
    lengths = []
    for name in ("rfft", "irfft"):
        def spy(a, n=None, *args, real=getattr(np.fft, name), **kwargs):
            lengths.append(n)
            return real(a, n, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, spy)
    A, B = random_mat(1, 3, scheme.tower, seed=3), random_mat(3, 1, scheme.tower, seed=4)
    product, _ = run_inprocess(scheme, A, B, seed=5)
    assert scheme.tower._ext_flat * 5 == 12285 and lengths and set(lengths) == {6144}
    assert product.eq(mat_mul(A, B))


_FAULTS_PER_JOB = """
import resource, statistics
from ftp_sdmm.fields import make_base_field
from ftp_sdmm.ftp import build_scheme
from ftp_sdmm.matrices import random_mat
from ftp_sdmm.proto import run_inprocess
scheme = build_scheme(3, 2, (5, 7, 11), make_base_field(3, 3), 1, 3, 1)
A, B = random_mat(1, 3, scheme.tower, seed=1), random_mat(3, 1, scheme.tower, seed=2)
faults = []
for seed in range(14):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_inprocess(scheme, A, B, seed=seed)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(statistics.median(faults[4:]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="glibc's malloc and getrusage's faults")
def test_paper_full_jobs_keep_their_heap():
    """In a process of their own, paper-full jobs after four take a median
    of under 50 minor page faults each: the heap that a job's arrays,
    about 2.6 MB, leave free stays with the process for the next job (550
    faults per job at n_fft = 6144 with glibc's own thresholds)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", _FAULTS_PER_JOB], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0 and float(out.stdout) < 50, (out.stdout, out.stderr)


@pytest.mark.parametrize("limit", [0, kernels._TABLE_DIGITS])
@pytest.mark.parametrize("r,k,c", [(2, 0, 3), (0, 2, 3), (2, 3, 0), (0, 0, 0)])
def test_empty_products_are_zero_on_every_path(limit, r, k, c, monkeypatch):
    """A product with no rows, no columns or an empty inner index is the
    (zero) product of its shape, with y in F_q0 or spanning an axis, by the
    table and, with the table's limit at 0, by the transform."""
    monkeypatch.setattr(kernels, "_TABLE_DIGITS", limit)
    tower = _tower(11, 1, (2, 3))
    x = np.ones((2, r, k) + tower.shape, dtype=np.int64)
    for y_past in (False, True):
        y = np.zeros((k, c) + tower.shape, dtype=np.int64)
        y[..., 1, 1, 0] = y_past
        got = kernels.matmul(tower, x, y)
        assert got.dtype == np.int64 and np.array_equal(got, np.zeros((2, r, c) + tower.shape))


_TABLE_PAST_BOUND = """
import resource
import numpy as np
from ftp_sdmm import kernels
from ftp_sdmm.errors import RoundingBoundExceeded
from ftp_sdmm.fields import make_base_field, make_tower
tower = make_tower(make_base_field(251, 1), (2, 3))
zero = np.zeros(tower.shape, dtype=np.int64)
# A copy of x would take terabytes: with the address space capped, an
# allocation fails at once rather than using the memory.
pages = int(open("/proc/self/statm").read().split()[0])
resource.setrlimit(resource.RLIMIT_AS, (pages * resource.getpagesize() + (256 << 20),) * 2)
# k n (p-1)^2 = k * 6 * 250^2 is below 2^53 at k = 2^34 and past it at 2^35.
for k in (1 << 34, 1 << 35):
    x = np.broadcast_to(zero, (1, k) + tower.shape)
    y = np.broadcast_to(zero, (k, 1) + tower.shape)
    try:
        kernels._by_table(tower, x, y)
    except RoundingBoundExceeded:
        print("raised")
    except MemoryError:
        print("allocates")
"""


def test_table_product_past_its_bound_raises_before_allocating():
    """On F_251(2,3), the table product's own float64 bound k n (p-1)^2 <
    2^53 refuses an inner dimension of 2^35 before it copies anything, with
    an explicit raise that python -O keeps, and lets 2^34 through to its
    first copy (matmul's rounding bound, which runs first, refuses both)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-O", "-c", _TABLE_PAST_BOUND], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0 and out.stdout.split() == ["allocates", "raised"], out.stderr


@pytest.mark.parametrize("p,primes", [(67108879, ()), (65521, (2, 3)), (1048583, (2, 3))])
def test_products_near_the_float64_bound_match_the_oracle(p, primes):
    """F_p for the least prime past 2^26, where (p-1)^2 is just below 2^53,
    and towers whose multiplication matrices are taken mod p: F_65521(2,3),
    and F_1048583(2,3), where a^2 = -1 puts p - 1 in the table, so that
    unreduced matrices of all-(p-1) elements would pass 2^53.  All-(p-1)
    and random stacks multiply as the oracle does pair by pair, and every
    nonzero element times its inverse is one."""
    field = _tower(p, 1, primes) if primes else make_base_field(p, 1)
    digits = np.random.default_rng(5).integers(0, p, size=(2, 6) + field.shape)
    digits[:, 0] = p - 1
    xs, ys = digits
    got = field.mul(xs, ys)
    assert np.array_equal(got, [_mul_oracle(field, x, y) for x, y in zip(xs, ys)])
    assert np.array_equal(field.mul(xs, field.inv(xs)), np.broadcast_to(field.one(), xs.shape))


@pytest.mark.parametrize("p", [2, 3, 11, 65521, 67108879])
def test_fp_mod_is_exact_below_2_53(p):
    """fp_mod equals integer % on float64 integers below 2^53: random ones of
    every size, the multiples of p and their neighbours at both ends, and
    the largest."""
    top = (1 << 53) - 1
    k = np.arange(1, 300)
    x = np.concatenate([np.random.default_rng(p).integers(0, top, 5000), np.arange(1000),
                        k * p - 1, k * p, k * p + 1, top // p * p - k, top - k + 1])
    assert x.min() >= 0 and x.max() == top
    assert np.array_equal(kernels.fp_mod(x.astype(np.float64), p).astype(np.int64), x % p)


@pytest.mark.parametrize("p,d,primes", FIELDS)
def test_on_axes_by_mul_matrix_is_the_product(p, d, primes):
    """For elements z of the sub-tower on any set of axes, its mul_matrix
    gives the transform products (kernels._product, which no table made)
    of z with that sub-tower's basis (checked for the first z, on
    sub-towers of at most 256 digits: paper-full's pairs of axes, not its
    whole tower), and on_axes by those matrices multiplies a stack by z as
    tower.mul does: one matrix for every entry, and one per entry of the
    first axis."""
    tower = _tower(p, d, primes)
    rng = np.random.default_rng(3)
    xs = rng.integers(0, p, (3, 1) + tower.shape)
    xs[0] = p - 1
    for size in range(1, tower.L + 1):
        for axes in combinations(range(tower.L), size):
            sub = tower.subtower(axes)
            n = math.prod(sub.shape)
            zs = rng.integers(0, p, (3,) + sub.shape)
            mats = sub.mul_matrix(zs)
            if n <= 256:
                basis = np.eye(n, dtype=np.int64).reshape((n,) + sub.shape)
                by_z = kernels._product(sub, basis[None, :, None], zs[None, None, :1])
                assert np.array_equal(mats[0], by_z.reshape(n, n))
            want = tower.mul(xs, tower.embed_base(zs, axes)[:, None])
            assert np.array_equal(kernels.on_axes(tower, xs, axes, mats), want)
            assert np.array_equal(kernels.on_axes(tower, xs[0], axes, mats[0]), want[0])


def test_on_axes_past_the_float64_bound_raises():
    """on_axes refuses residues whose products could pass 2^53, with the
    explicit raise of check_fp_exact: over F_(2^31 - 1), (p-1)^2 > 2^53."""
    field = make_base_field((1 << 31) - 1, 1)
    with pytest.raises(RoundingBoundExceeded):
        kernels.on_axes(field, np.ones((2, 1), dtype=np.int64), (), np.ones((1, 1)))
