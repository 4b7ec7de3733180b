"""Field arithmetic: axioms, canonical moduli, Frobenius, traces, dual bases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftp_sdmm.errors import (
    BadGroupIndex,
    NonPrime,
    NormOutsideBase,
    PrimesNotAscendingDistinct,
    Singular,
    SingularGram,
    ZeroInverse,
)
from ftp_sdmm.fields import (
    PrimeField,
    batch_inv,
    frobenius,
    make_base_field,
    make_tower,
    power_basis_dual,
    trace_dual_basis,
    trace_to_subfield,
)
from ftp_sdmm.ftp import build_scheme
from ftp_sdmm.linalg import linear_solve, mat_inverse, rank
from ftp_sdmm.matrices import SplitMix64


def _axiom_check(field, x, y, z):
    assert field.is_zero(field.sub(field.add(x, y), field.add(y, x)))
    assert field.is_zero(field.sub(field.mul(x, y), field.mul(y, x)))
    lhs = field.mul(x, field.add(y, z))
    rhs = field.add(field.mul(x, y), field.mul(x, z))
    assert field.is_zero(field.sub(lhs, rhs))
    lhs = field.mul(field.mul(x, y), z)
    rhs = field.mul(x, field.mul(y, z))
    assert field.is_zero(field.sub(lhs, rhs))
    if not field.is_zero(x):
        prod = field.mul(x, field.inv(x))
        assert field.is_zero(field.sub(prod, field.one()))


@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10))
def test_prime_field_axioms(a, b, c):
    f = PrimeField(11)
    _axiom_check(f, a % 11, b % 11, c % 11)


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_base_field_axioms_f16(a, b, c):
    f = make_base_field(2, 4)
    _axiom_check(f, f.from_int(a), f.from_int(b), f.from_int(c))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32))
def test_tower_axioms_sampled(tower11_6, seed):
    rng = SplitMix64(seed)
    x, y, z = (tower11_6.random(rng) for _ in range(3))
    _axiom_check(tower11_6, x, y, z)


def test_canonical_moduli():
    # lexicographically smallest monic irreducibles, low-degree-first coeffs
    assert make_base_field(2, 2).modulus == (1, 1, 1)           # x^2+x+1
    assert make_base_field(2, 4).modulus == (1, 0, 0, 1, 1)     # x^4+x^3+1
    assert make_base_field(3, 3).modulus == (1, 0, 2, 1)        # x^3+2x^2+1


def test_int_roundtrip_lexicographic():
    f = make_base_field(3, 2)
    for k in range(9):
        assert f.to_int(f.from_int(k)) == k
    # c_0 is the most significant digit of the enumeration index
    assert list(f.from_int(1)) == [0, 1]
    assert list(f.from_int(3)) == [1, 0]


def test_tower_roundtrip_and_order(tower16, tower11_6):
    assert tower16.order_int == 16
    assert tower11_6.order_int == 11**6
    for k in range(16):
        assert tower16.to_int(tower16.from_int(k)) == k
    for k in (0, 1, 7, 11**6 - 1, 123456):
        assert tower11_6.to_int(tower11_6.from_int(k)) == k


def test_validation_errors():
    with pytest.raises(NonPrime):
        make_base_field(4, 2)
    with pytest.raises(PrimesNotAscendingDistinct):
        make_tower(make_base_field(5, 1), (3, 2))
    with pytest.raises(PrimesNotAscendingDistinct):
        make_tower(make_base_field(5, 1), (4,))
    f = make_base_field(2, 2)
    with pytest.raises(ZeroInverse):
        f.inv(f.zero())
    t = make_tower(f, (3,))
    with pytest.raises(ZeroInverse):
        t.inv(t.zero())
    with pytest.raises(BadGroupIndex):
        trace_to_subfield(t, t.one(), 2)


def test_frobenius_is_automorphism(tower11_6):
    t = tower11_6
    rng = SplitMix64(9)
    for _ in range(20):
        x, y = t.random(rng), t.random(rng)
        lhs = frobenius(t, t.mul(x, y))
        rhs = t.mul(frobenius(t, x), frobenius(t, y))
        assert t.is_zero(t.sub(lhs, rhs))
        lhs = frobenius(t, t.add(x, y))
        rhs = t.add(frobenius(t, x), frobenius(t, y))
        assert t.is_zero(t.sub(lhs, rhs))
    # fixes base-field scalars and has order [F_q : F_q0]
    b = t.embed_scalar_int(7)
    assert t.is_zero(t.sub(frobenius(t, b), b))
    x = t.random(SplitMix64(3))
    assert t.is_zero(t.sub(frobenius(t, x, 6), x))


def _fermat_inv(t, x):
    """x^(|F_q| - 2): the inversion oracle."""
    return t.pow(x, t.base.order**t.flat_size - 2)


def test_inv_matches_fermat_exhaustive_f16(tower16):
    for k in range(1, 16):
        x = tower16.from_int(k)
        assert np.array_equal(tower16.inv(x), _fermat_inv(tower16, x))


@pytest.mark.parametrize("support", [[], [1], [2], [1, 2]])
def test_inv_matches_fermat_by_support_11_6(tower11_6, support):
    """Elements of F_q0, of one axis's subfield, and of the whole tower."""
    t = tower11_6
    rng = SplitMix64(60 + len(support) + sum(support))
    checked = 0
    while checked < 12:
        x = t.random(rng)
        for i in range(1, t.L + 1):
            if i not in support:
                x[(slice(None),) * (i - 1) + (slice(1, None),)] = 0
        if t.support_axes(x) != support or t.is_zero(x):
            continue
        assert np.array_equal(t.inv(x), _fermat_inv(t, x))
        checked += 1


def test_inv_full_support_f27():
    """F_27(5, 7, 11), the paper's worked example: Fermat would take ~12 s."""
    t = make_tower(make_base_field(3, 3), (5, 7, 11))
    x = t.random(SplitMix64(27))
    assert t.support_axes(x) == [1, 2, 3]
    assert t.eq(t.mul(x, t.inv(x)), t.one())


def test_inv_rejects_norm_outside_base(monkeypatch, f11):
    t = make_tower(f11, (2, 3))
    # A Frobenius that fixes everything makes the "norm" x^n, not in F_q0.
    monkeypatch.setattr(t, "frobenius", lambda x, e=1: x % t.base.p)
    with pytest.raises(NormOutsideBase):
        t.inv(t.add(t.one(), t.gen(1)))


def test_frobenius_matches_repeated_powering(tower11_6):
    t = tower11_6
    q0 = t.base.order
    rng = SplitMix64(31)
    for _ in range(3):
        x = t.random(rng)
        want = x
        for e in range(2 * 6 + 2):  # 0 .. 2 * lcm(2, 3) + 1
            assert np.array_equal(frobenius(t, x, e), want)
            want = t.pow(want, q0)


@pytest.mark.parametrize("primes", [(2, 3), (2, 3, 5)])
def test_frobenius_flat_size_is_identity(f11, primes):
    t = make_tower(f11, primes)
    x = t.random(SplitMix64(sum(primes)))
    assert np.array_equal(frobenius(t, x, t.flat_size), x)


@pytest.mark.parametrize("q0, primes", [((2, 2), (2,)), ((11, 1), (2, 3)), ((11, 1), (2, 3, 5))])
def test_power_basis_dual_matches_gram_oracle(q0, primes):
    L = len(primes)
    scheme = build_scheme(L=L, T=1, primes=primes, base=make_base_field(*q0), a=1, b=L, c=1)
    t = scheme.tower
    for i in range(1, L + 1):
        lam = scheme.lambdas[i - 1]
        again, mus = power_basis_dual(t, lam[0], i)
        oracle = trace_dual_basis(t, lam, i)
        for s in range(primes[i - 1]):
            assert np.array_equal(again[s], lam[s])
            assert np.array_equal(mus[s], oracle[s])
            assert np.array_equal(scheme.mus[i - 1][s], oracle[s])


def _naive_trace(tower, x, i):
    """Sum of x^(|F_i|^t) over the [F_q : F_i] conjugates (test oracle)."""
    # |F_i| = q0^(prod_{j != i} p_j)
    exp = tower.base.d
    for k, p in enumerate(tower.primes):
        if k != i - 1:
            exp *= p
    sub_order = tower.base.p**exp
    acc = tower.zero()
    cur = x
    for _ in range(tower.primes[i - 1]):
        acc = tower.add(acc, cur)
        cur = tower.pow(cur, sub_order)
    return acc


def test_trace_oracle_exhaustive_f16(tower16):
    for k in range(16):
        x = tower16.from_int(k)
        got = trace_to_subfield(tower16, x, 1)
        want = _naive_trace(tower16, x, 1)
        assert np.array_equal(got, want)
        assert tower16.in_subfield(got, 1)


@pytest.mark.parametrize("axis", [1, 2])
def test_trace_oracle_sampled_11_6(tower11_6, axis):
    rng = SplitMix64(40 + axis)
    for _ in range(100):
        x = tower11_6.random(rng)
        got = trace_to_subfield(tower11_6, x, axis)
        want = _naive_trace(tower11_6, x, axis)
        assert np.array_equal(got, want)
        assert tower11_6.in_subfield(got, axis)


def test_trace_is_subfield_linear(tower11_6):
    t = tower11_6
    rng = SplitMix64(77)
    x, y = t.random(rng), t.random(rng)
    lhs = trace_to_subfield(t, t.add(x, y), 1)
    rhs = t.add(trace_to_subfield(t, x, 1), trace_to_subfield(t, y, 1))
    assert t.is_zero(t.sub(lhs, rhs))
    # base-field scalars (which lie in every F_i) pull out of tr_i
    c = t.embed_scalar_int(5)
    lhs = trace_to_subfield(t, t.mul(c, x), 1)
    rhs = t.mul(c, trace_to_subfield(t, x, 1))
    assert t.is_zero(t.sub(lhs, rhs))


def test_batch_inv(tower11_6):
    t = tower11_6
    rng = SplitMix64(5)
    xs = [t.random(rng) for _ in range(8)]
    xs = [x for x in xs if not t.is_zero(x)]
    invs = batch_inv(t, xs)
    for x, xi in zip(xs, invs):
        assert t.is_zero(t.sub(t.mul(x, xi), t.one()))
    with pytest.raises(ZeroInverse):
        batch_inv(t, xs + [t.zero()])


def test_trace_dual_basis_reconstruction(tower16):
    t = tower16
    g = t.gen(1)
    lam = [t.one(), g]
    mus = trace_dual_basis(t, lam, 1)
    # duality: tr_1(lambda_s * mu_t) = delta_st
    for s in range(2):
        for u in range(2):
            tr = trace_to_subfield(t, t.mul(lam[s], mus[u]), 1)
            want = t.one() if s == u else t.zero()
            assert t.is_zero(t.sub(tr, want))
    # expansion: beta = sum_s tr_1(lambda_s beta) mu_s, for every beta
    for k in range(16):
        beta = t.from_int(k)
        acc = t.zero()
        for s in range(2):
            acc = t.add(acc, t.mul(trace_to_subfield(t, t.mul(lam[s], beta), 1), mus[s]))
        assert t.is_zero(t.sub(acc, beta))


def test_trace_dual_basis_rejects_degenerate(tower16):
    t = tower16
    with pytest.raises(SingularGram):
        trace_dual_basis(t, [t.one(), t.one()], 1)


def test_linear_solve_and_rank(f5):
    e = f5.from_int

    def m(rows):
        return [[e(v) for v in row] for row in rows]

    # x + 2y = 1, 3x + 4y = 2 over F_5  ->  x = 0, y = 3 (oracle: by hand)
    sol = linear_solve(f5, m([[1, 2], [3, 4]]), [e(1), e(2)])
    assert [f5.to_int(v) for v in sol] == [0, 3]
    vand = m([[1, j, (j * j) % 5] for j in (1, 2, 3)])
    assert rank(f5, vand) == 3
    assert rank(f5, m([[1, 2], [2, 4]])) == 1
    mat = m([[1, 2], [3, 4]])
    inv = mat_inverse(f5, mat)
    for i in range(2):
        for j in range(2):
            acc = f5.zero()
            for k in range(2):
                acc = f5.add(acc, f5.mul(inv[i][k], mat[k][j]))
            want = f5.one() if i == j else f5.zero()
            assert f5.is_zero(f5.sub(acc, want))
    with pytest.raises(Singular):
        linear_solve(f5, m([[1, 2], [2, 4]]), [e(1), e(0)])
