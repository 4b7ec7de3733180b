"""Polynomials, Lagrange machinery, annihilators, dual weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftp_sdmm.errors import DimMismatch, DuplicatePoint, FieldMismatch
from ftp_sdmm.fields import make_base_field, make_tower
from ftp_sdmm.matrices import SplitMix64
from ftp_sdmm.poly import (
    EvalDomain,
    Poly,
    annihilator,
    dual_orthogonality_check,
    dual_weights,
    eval_poly,
    evaluate,
    lagrange_coefficients,
    lagrange_interpolate,
)


def test_eval_poly_example(tower16):
    t = tower16
    g = t.gen(1)
    # (x^2 + x) at alpha equals alpha^2 + alpha
    p = Poly(t, [t.zero(), t.one(), t.one()])
    got = eval_poly(p, g)
    want = t.add(t.mul(g, g), g)
    assert t.is_zero(t.sub(got, want))


def test_eval_poly_field_mismatch(tower16, f5):
    p = Poly(tower16, [tower16.one()])
    with pytest.raises(FieldMismatch):
        eval_poly(p, f5.from_int(1), field=f5)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 5))
def test_interpolation_roundtrip(seed, npts):
    f = make_base_field(11, 1)
    rng = SplitMix64(seed)
    points = [f.from_int(k) for k in range(npts)]
    values = [f.random(rng) for _ in range(npts)]
    p = lagrange_interpolate(f, points, values)
    assert len(p.coeffs) <= npts
    for pt, v in zip(points, values):
        assert f.is_zero(f.sub(eval_poly(p, pt), v))
    with pytest.raises(DimMismatch):
        lagrange_interpolate(f, points, values[:-1])


def test_lagrange_coefficients_partition_of_unity(f5):
    points = [f5.from_int(k) for k in range(4)]
    basis = lagrange_coefficients(f5, points)  # [s, k]: coefficient s of l_k
    assert Poly(f5, basis.sum(axis=1)).eq(Poly.one(f5))
    with pytest.raises(DuplicatePoint):
        lagrange_coefficients(f5, points + [points[0]])


def test_annihilator_vanishes(tower11_6):
    t = tower11_6
    pts = [t.embed_scalar_int(k) for k in range(4)] + [t.gen(1)]
    k = annihilator(t, pts)
    assert len(k.coeffs) == 6  # monic of degree = number of points
    assert t.is_zero(t.sub(k.coeffs[-1], t.one()))
    for pt in pts:
        assert t.is_zero(eval_poly(k, pt))
    off = t.gen(2)
    assert not t.is_zero(eval_poly(k, off))


def test_dual_weights_known_example(f5):
    # points {0,1,2} over F_5: v_j = prod_{i != j is}(a_j - a_i)^(-1) = (3,4,3)
    points = [f5.from_int(k) for k in (0, 1, 2)]
    w = dual_weights(f5, points)
    assert [f5.to_int(v) for v in w] == [3, 4, 3]


def test_dual_orthogonality_and_corruption(tower16):
    t = tower16
    # domain: both generators' span won't fit here, use 5 scalar points + gen
    points = [t.gen(1)] + [t.embed_scalar_int(k) for k in range(3)]
    domain = EvalDomain(t, points)
    # h of degree <= n - 2 = 2, k = 1: sum_j v_j h(a_j) a_j^s = 0 for s == 0
    rng = SplitMix64(3)
    h = Poly(t, [t.random(rng) for _ in range(3)])
    h_values = [eval_poly(h, a) for a in points]
    k_one = Poly.one(t)
    assert dual_orthogonality_check(domain, k_one, h_values, 1)
    corrupted = list(h_values)
    corrupted[0] = t.add(corrupted[0], t.one())
    assert not dual_orthogonality_check(domain, k_one, corrupted, 1)


def test_poly_algebra(f5):
    x = Poly(f5, [f5.from_int(0), f5.from_int(1)])
    x2 = Poly(f5, [f5.from_int(0), f5.from_int(0), f5.from_int(1)])
    p = x2.add(x)                # x^2 + x
    assert p.sub(x).eq(x2)
    assert not p.eq(x2)
    assert len(Poly.zero(f5).coeffs) == 0


# -- element-wise oracles: the list-based polynomial code that the tensor Poly
# replaced, one field operation at a time; coefficient lists low degree first.

def _trim(field, cs):
    cs = list(cs)
    while cs and field.is_zero(cs[-1]):
        cs.pop()
    return cs


def _add_oracle(field, a, b):
    n = max(len(a), len(b))
    a = list(a) + [field.zero()] * (n - len(a))
    b = list(b) + [field.zero()] * (n - len(b))
    return _trim(field, [field.add(x, y) for x, y in zip(a, b)])


def _mul_oracle(field, a, b):
    if not a or not b:
        return []
    out = [field.zero() for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return _trim(field, out)


def _eval_oracle(field, cs, x):
    acc = field.zero()
    for c in reversed(cs):
        acc = field.add(field.mul(acc, x), c)
    return acc


def _annihilator_oracle(field, points):
    out = [field.one()]
    for a in points:
        out = _mul_oracle(field, out, [field.neg(a), field.one()])
    return out


def _dual_weights_oracle(field, points):
    weights = []
    for j, a in enumerate(points):
        acc = field.one()
        for i, b in enumerate(points):
            if i != j:
                acc = field.mul(acc, field.sub(a, b))
        weights.append(field.inv(acc))
    return weights


def _interpolate_oracle(field, points, values):
    out = []
    for i, a in enumerate(points):
        num, denom = [field.one()], field.one()
        for j, b in enumerate(points):
            if j != i:
                num = _mul_oracle(field, num, [field.neg(b), field.one()])
                denom = field.mul(denom, field.sub(a, b))
        scale = field.mul(values[i], field.inv(denom))
        out = _add_oracle(field, out, [field.mul(scale, c) for c in num])
    return out


@pytest.fixture(scope="module")
def oracle_fields(f5, tower16, tower11_6):
    """F_5, F_4(2), F_11(2, 3) and F_9(2, 3)."""
    return [f5, tower16, tower11_6, make_tower(make_base_field(3, 2), (2, 3))]


def _same(field, got, want):
    want = np.reshape(np.array(want, dtype=np.int64), (-1,) + field.shape)
    return np.array_equal(np.reshape(got, want.shape), want)


def _distinct_points(field, rng, count):
    """Generators, base-field scalars and random elements, all distinct."""
    pts = [field.gen(i) for i in range(1, getattr(field, "L", 0) + 1)]
    embed = getattr(field, "embed_scalar_int", field.from_int)
    pts += [embed(k) for k in range(0, field.base.order, 2)]
    pts = pts[: (count + 1) // 2]
    while len(pts) < count:
        x = field.random(rng)
        if all(field.to_int(x) != field.to_int(y) for y in pts):
            pts.append(x)
    return pts[count // 2 :] + pts[: count // 2]  # mix the kinds in the order


@settings(max_examples=30)
@given(st.integers(0, 3), st.integers(0, 2**32), st.integers(0, 4), st.integers(1, 5))
def test_tensor_poly_matches_elementwise_oracles(oracle_fields, which, seed, deg_a, npts):
    field = oracle_fields[which]
    rng = SplitMix64(seed)
    a = [field.random(rng) for _ in range(deg_a + 1)]
    pts = _distinct_points(field, rng, npts)
    embed = getattr(field, "embed_scalar_int", field.from_int)
    at = pts + [embed(field.base.order - 1), field.random(rng)]
    for x in at:
        assert _same(field, eval_poly(Poly(field, a), x), _eval_oracle(field, a, x))
    both = evaluate(field, np.stack([a, a[::-1]], axis=1), at)  # two polynomials at once
    assert _same(field, both, [[_eval_oracle(field, cs, x) for cs in (a, a[::-1])] for x in at])

    assert _same(field, annihilator(field, pts).coeffs, _annihilator_oracle(field, pts))
    assert _same(field, dual_weights(field, pts), _dual_weights_oracle(field, pts))
    values = [field.random(rng) for _ in pts]
    assert _same(field, lagrange_interpolate(field, pts, values).coeffs,
                 _interpolate_oracle(field, pts, values))

    with pytest.raises(DuplicatePoint):
        dual_weights(field, pts + [pts[0]])
    with pytest.raises(DuplicatePoint):
        lagrange_interpolate(field, pts + [pts[-1]], values + [values[0]])


def _annihilator_one_at_a_time(field, points):
    """annihilator as it was before the points in F_q0 went over F_q0:
    every linear factor over the field, as P <- xP - aP."""
    out = Poly.one(field)
    for a in points:
        out = Poly(field, [field.zero(), *out.coeffs]).sub(out.scale(a))
    return out


def test_annihilator_takes_the_base_points_over_the_base_field(digest_schemes, monkeypatch):
    """On paper-full's 22 points, 19 of them in F_q0, annihilator equals the
    one-factor-at-a-time product bit for bit, with one transform product
    per point outside F_q0: 3, where that product makes 22.  On small-tower's
    points, generators and base scalars mixed, they agree too."""
    from ftp_sdmm import kernels

    s, products, product = digest_schemes["paper-full"], [], kernels._product
    monkeypatch.setattr(kernels, "_product", lambda *args: products.append(1) or product(*args))
    got = annihilator(s.tower, s.points)
    assert len(products) == 3
    want = _annihilator_one_at_a_time(s.tower, s.points)
    assert len(products) == 3 + 22
    assert np.array_equal(got.coeffs, want.coeffs)
    small = digest_schemes["small-tower"]
    points = small.points[6:] + small.points[:6]  # the generators among the base scalars
    assert np.array_equal(annihilator(small.tower, points).coeffs,
                          _annihilator_one_at_a_time(small.tower, points).coeffs)


def _evaluate_einsum(field, coeffs, points):
    """evaluate as it was before its F_q0 Vandermonde product became one
    float64 matmul: the same product as an int64 einsum."""
    from ftp_sdmm import kernels
    from ftp_sdmm.poly import powers

    base, p = field.base, field.base.p
    points = np.reshape(points, (-1,) + field.shape) % p
    flat = points.reshape(len(points), -1, base.d)
    by_power = base.mul_matrix(powers(base, flat[:, 0], len(coeffs)))  # [s, j, a, b]
    out = np.einsum("sma,sjab->jmb", coeffs.reshape(len(coeffs), -1, base.d), by_power) % p
    out = out.reshape((len(points),) + coeffs.shape[1:])
    columns = coeffs.reshape((len(coeffs), -1) + field.shape)
    for j in np.flatnonzero(flat[:, 1:].any(axis=(1, 2))):
        row = powers(field, points[j], len(coeffs)).swapaxes(0, 1)
        out[j] = kernels.matmul(field, row, columns).reshape(out.shape[1:])
    return out


def test_evaluate_matches_the_int64_einsum_oracle(oracle_fields, digest_schemes):
    """At F_q0 points, and at a mix of generators, F_q0 points and full
    elements, evaluate equals the einsum it replaced, for stacks of
    polynomials of several degrees, over F_5, F_4(2), F_11(2, 3), F_9(2, 3)
    and the paper's F_27(5, 7, 11)."""
    rng = np.random.default_rng(11)
    for field in oracle_fields + [digest_schemes["paper-full"].tower]:
        embed = getattr(field, "embed_scalar_int", field.from_int)
        in_base = [embed(k) for k in range(min(field.base.order, 20))]
        mixed = [field.gen(i) for i in range(1, getattr(field, "L", 0) + 1)]
        mixed += in_base[:3] + [field.random(SplitMix64(5))]
        for n in (1, 2, 5):
            coeffs = rng.integers(0, field.base.p, size=(n, 2, 3) + field.shape)
            for points in (in_base, mixed):
                got = evaluate(field, coeffs, points)
                assert got.dtype == np.int64
                assert np.array_equal(got, _evaluate_einsum(field, coeffs, points)), (field, n)


def test_evaluate_raises_past_the_float64_bound():
    """Over F_p with p - 1 just past 2^26, one coefficient times a power sums
    below 2^53 and two do not: a constant polynomial evaluates, and a linear
    one raises before any product is formed."""
    from ftp_sdmm.errors import RoundingBoundExceeded

    p = 67108879  # the least prime past 2^26
    assert (p - 1) ** 2 < 1 << 53 <= 2 * (p - 1) ** 2
    f = make_base_field(p, 1)
    x = f.from_int(p - 2)
    assert np.array_equal(evaluate(f, np.array([[p - 1]]), [x]), [[p - 1]])
    with pytest.raises(RoundingBoundExceeded):
        evaluate(f, np.array([[1], [p - 1]]), [x])
