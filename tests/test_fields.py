"""Field arithmetic: axioms, canonical moduli, Frobenius, traces, dual bases."""

import hashlib
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftp_sdmm.errors import (
    BadGroupIndex,
    InvalidParams,
    NoIrreducible,
    NonPrime,
    NormOutsideBase,
    PrimesNotAscendingDistinct,
    Singular,
    SingularGram,
    ZeroInverse,
)
from ftp_sdmm import fields
from ftp_sdmm.fields import (
    BaseField,
    _extension_tables,
    _fp_matrix,
    _full_rank,
    is_prime,
    make_base_field,
    make_tower,
    power_basis_dual,
    trace_dual_basis,
    trace_to_subfield,
)
from ftp_sdmm.ftp import build_scheme, server_step
from ftp_sdmm.linalg import mat_inverse, rank
from ftp_sdmm.matrices import SplitMix64, mat_mul, random_mat


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


def _digest(parts):
    h = hashlib.sha256()
    for part in parts:
        a = np.ascontiguousarray(np.asarray(part, dtype=np.int64))
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


# SHA-256 over (shape, int64 bytes) of each table, as built by the earlier
# construction: list-polynomial Rabin tests for the axis moduli, trial
# division for the base modulus, and traces summed over Frobenius images.
_TABLE_DIGESTS = {
    (3, 3, (5, 7, 11)): {
        "modulus": "d7b77cb56a438b271a8f569c60912c8ec30bffb9b6ba5c2e27d545d75bb71d83",
        "redmat": "0b3fc5964111217e1e3b759902a503c57eb2d92281556bdfb6e62656f868c69b",
        "moduli": "3280c74f69960812e73d8543311ee4dd5cb5faca93cc6f1fd401476260b03e3a",
        "redmats": "41208f8f2ef44613190dec87c9ac22ca6ac2bdffedc6f3f8b7eff060359e7312",
        "trace_mats": "4f8dfab481901ad8110f6ffee8c340019eb6860cdff0d0bb74314ae75f8ff8a7",
        "frob_mats": "f6a1ede7c09ecdf082dc1fecd7cd503cb6c7a7946a6cd0e7d62fc159874cf6e5",
    },
    (11, 1, (2, 3, 5)): {
        "modulus": "b32461f22cd15adb66b3c22737f6d40af657bbe8ec555be1240b3494819fec9d",
        "redmat": "a1812722663ebbce28a87d14ad264cd165ba218640075842013b5323def34547",
        "moduli": "fd3dc557e0af02fe720efba0000681aaf7bef847109ca904b61606b66dabb3f5",
        "redmats": "6d0ca6bdae26cfa8e28a2abcf4bb088a970b8b02253624bfbfd782774ea3981a",
        "trace_mats": "01cecef70cf7cf041de7f88815c1acb461bf1a8962aec4c5ea58036305e506e0",
        "frob_mats": "02e13709ec19d49ca3b9e21c353538d71bee94f5f525a5c24c911a178cc6415d",
    },
    (11, 1, (2, 3)): {
        "modulus": "b32461f22cd15adb66b3c22737f6d40af657bbe8ec555be1240b3494819fec9d",
        "redmat": "a1812722663ebbce28a87d14ad264cd165ba218640075842013b5323def34547",
        "moduli": "0ae5cf840c36fba51c945a8ae38dda739750d27c7699804286c4445877eff5a4",
        "redmats": "7c5fd5344a218bdf5f20566e7a738b10b2ebe25c1afabb241efea7c29a17f220",
        "trace_mats": "95fe4e86ac165e9b7777bd22507f514150887bd61a697c096ea03262cd057a48",
        "frob_mats": "75737e8eaaeceaebdba1e2f49e026b152c1cf15dd01f96672471143f658c16d9",
    },
    (2, 2, (3, 5, 7)): {
        "modulus": "9994132d2fb987fbe6ba2946e441abd76e1f02a7421283a19fea7eab9ada5912",
        "redmat": "e5c9e61d66aa8bb1f9553004e64136f5add3260de1b1b117ffa70b9a51ce163d",
        "moduli": "c116fb7c4a392ab999c56fe7e48f16c23a77467cdc3b90d48d0c60a6512a3b81",
        "redmats": "01836a02b3a60f051640fe858b1a3ee6a14643164a86143d1c5f611f76dacb3c",
        "trace_mats": "a523f39c9d34d51d7f8fb58a402f11a65d7c24c15f39585170062ddef071ec24",
        "frob_mats": "3b1b9520d3467928722c1f6f3aaf1d329a007a1ae912e63a4a8afd8f68e78206",
    },
    (7, 1, (2, 3)): {
        "modulus": "b32461f22cd15adb66b3c22737f6d40af657bbe8ec555be1240b3494819fec9d",
        "redmat": "a1812722663ebbce28a87d14ad264cd165ba218640075842013b5323def34547",
        "moduli": "b0f9a294d1902cdc884200d5f6830d13de87280e22613541f36c1548a99cfdf5",
        "redmats": "cefb66cd247aae0db81350e3b0e83b959ce6dd0c0ad4a89cee9b1ae1ae07e2cc",
        "trace_mats": "9ce593e528ad1cb8bce9253e7bf87fafd869a3e7ae141a88a812b8b2dee90fb5",
        "frob_mats": "2b421efb27c3a434537efab23e373be0694727d5fe8e2c159d98c265f296a90a",
    },
    (5, 2, (3, 7)): {
        "modulus": "9994132d2fb987fbe6ba2946e441abd76e1f02a7421283a19fea7eab9ada5912",
        "redmat": "7dd79972e9f35d36068ec81658e01a1419684b7631d677697e6aa8e8f3c4193d",
        "moduli": "b767a7d7b322eb732f49579b22960a56c55b2b98d82f3594cc707ab45e384b01",
        "redmats": "c0ff1280d8530f5ad065549a994e0e8ee06746889292ec812cadbc0fcae141f7",
        "trace_mats": "c6dc3fb5b4653247065d2effb767f939cda8425a767d7a9076f3de00dfb2bee0",
        "frob_mats": "69ad019daa21165660dcc5c55bc2c98ea31a81fa7690b2eeec215818a308accc",
    },
    (2, 4, (2,)): {
        "modulus": "98fadbd31b0c538c8f98fa8200e9142b4b3a278b78c7855febe8f60abaa0a8fd",
        "redmat": "bd27f8840bbbcb23b192edd2f13986bb83a74f84683147e2b2f8e30e58806f71",
        "moduli": "6bf18b0f6d0099f20dd4423458550823e7d10f52c34d6dbb5162c8a584e9379a",
        "redmats": "913dc6d09bef225e68932dde83cd72ca8c4e76bf39a4630d37fb09a281a5f622",
        "trace_mats": "9a4b1b3cbb5740a54fe5e1cd10a1611b1eb9123d0d6ea71d1aac4ad34d5e1114",
        "frob_mats": "f500dbb25e5ec932356fd95de3a16709092590cc4e950e3c6d478da52652c502",
    },
    (2, 3, (5,)): {
        "modulus": "697b6d5ff57d1b922ff1caf7faa6a98a4df769bb3ca298cdaa582f16c0b3c4f4",
        "redmat": "3fe28f945062c60bd4c7345ea8d79747d979dabf0b294f84a22f0bb8d11ad64f",
        "moduli": "112a7c880ac2ec86dff3a75668d5e0e6e9ed334fa5dd4c04cf6f11c0874eba99",
        "redmats": "6538726770875e9ed0fbbf384cdf319332cf295e6af051c27741879c54d7e5fa",
        "trace_mats": "726243f4be8e0d5a4da445d62724b30c30bd777f46107f4001d78171f8234e86",
        "frob_mats": "0dde8fdfc85a48d4a2dba614662148984cb010f210edc85c866a76aebd41551a",
    },
    (251, 1, (2, 3)): {
        "modulus": "b32461f22cd15adb66b3c22737f6d40af657bbe8ec555be1240b3494819fec9d",
        "redmat": "a1812722663ebbce28a87d14ad264cd165ba218640075842013b5323def34547",
        "moduli": "5e378914de9180ac0ace35db7241f4d7874b1f51136962944740dffba872481f",
        "redmats": "4f6c72403057da3bfd15458163271d2ebaafa21d7dd9556c515dee4901c72208",
        "trace_mats": "0236e5cb3b252026a49cbfe53afe6382d9e4a643f46c475d9ad13cded2b54b3f",
        "frob_mats": "e10b95c621af11d1ddb9a83b574423e129fc6382a5f7354880fb3d04f8c045b3",
    },
    (3, 2, (2, 3)): {
        "modulus": "ae376040d8d819f2ae76533c9fa0fb3c31cc01bdda714fca83bb412e9702a9a1",
        "redmat": "f547d359754ae1571ce1fc8a0be0c0418b6e8d4d9308568ac1e42fefac5fd1a0",
        "moduli": "450ff3a0bc62a7d503ca1885fe3134a369b711b67a8c09d25647009f85a6155b",
        "redmats": "48537c6a80b606cc6d4dd635e8cc6a57f7cb04e2015ae56a29a9410d800d886e",
        "trace_mats": "2809f26bbdc5c063005f2c7f13c3ee21c28246ea0b7f41989d71e63b71003c58",
        "frob_mats": "1c1a10aaaca640459c1ba2d55f1fd889da62e5a2a02932dcee3843cf42a7ce98",
    },
}

_BASE_DIGESTS = {
    (2, 1): ((0, 1), "a1812722663ebbce28a87d14ad264cd165ba218640075842013b5323def34547"),
    (2, 2): ((1, 1, 1), "e5c9e61d66aa8bb1f9553004e64136f5add3260de1b1b117ffa70b9a51ce163d"),
    (2, 4): ((1, 0, 0, 1, 1), "bd27f8840bbbcb23b192edd2f13986bb83a74f84683147e2b2f8e30e58806f71"),
    (2, 6): ((1, 0, 0, 0, 0, 1, 1), "92996b22efcbd68bbea594a0716be446d70ff9522be3dbed30f52777793e4d00"),
    (2, 8): ((1, 0, 0, 0, 1, 1, 0, 1, 1), "d7b5e47275becfdba3704d86993fbdce5a020c6b9fcf8182b232a3206789f92d"),
    (2, 9): ((1, 0, 0, 0, 0, 0, 0, 0, 1, 1), "902d50bf402e2114d795b4e1474a470c22b40314be0dfcf568c9b92cba30818e"),
    (3, 4): ((1, 0, 1, 1, 1), "fc217799b3f79f83d5d5977fd20478b6a1dbe804c6497207afe3a3ee16dce4f1"),
    (3, 6): ((1, 0, 0, 0, 1, 1, 1), "9c0c0c9e31a8437fb3ab34fe14606a583f45f0e1d17da1087eb03e4a4514e6ff"),
    (5, 3): ((1, 0, 1, 1), "d7f98799f50bfdcaedb8803b9d36674d14a405afcb0ccc63926eeace84270984"),
    (5, 4): ((1, 0, 1, 1, 1), "a921e2eb725e9f270aed96e709d20c37ec85f3502826e18f16d0ad1c08f759f8"),
    (7, 2): ((1, 0, 1), "33940e36860995e457290cb566d6d92e0033bc955f8f61546eec568fbc83beeb"),
    (13, 3): ((1, 0, 4, 1), "45a1a2861e1f8eb27a6294479aba495b0cdecf9145c4683eb5e9886e59492c49"),
}


@pytest.mark.parametrize("p, d, primes", list(_TABLE_DIGESTS))
def test_tower_tables_match_pinned_digests(p, d, primes):
    t = make_tower(make_base_field(p, d), primes)
    # Block column 0 of each Hankel table: the matrices of tr(a_k^s), s < p_k.
    trace_mats = [h[:, :d].reshape(n, d, d) for n, h in zip(primes, t._hankel_mats)]
    got = {"modulus": _digest([t.base.modulus]), "redmat": _digest([t.base._redmat]),
           "moduli": _digest(t.moduli), "redmats": _digest(t._redmats),
           "trace_mats": _digest(trace_mats), "frob_mats": _digest(t._frob_mats)}
    assert got == _TABLE_DIGESTS[(p, d, primes)]


@pytest.mark.parametrize("p, d", list(_BASE_DIGESTS))
def test_base_tables_match_pinned_digests(p, d):
    f = make_base_field(p, d)
    assert (f.modulus, _digest([f._redmat])) == _BASE_DIGESTS[(p, d)]


def _mobius(n):
    mu, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            mu = -mu
        k += 1
    return -mu if n > 1 else mu


@pytest.mark.parametrize("p, d, max_n", [(2, 1, 8), (3, 1, 5), (2, 2, 3), (3, 2, 2)])
def test_irreducible_count_matches_gauss(p, d, max_n):
    """The test accepts exactly (1/n) sum_{k | n} mu(k) q^(n/k) of the q^n
    monic polynomials of degree n over F_q."""
    F = BaseField(p, d)
    q = F.order
    for n in range(1, max_n + 1):
        accepted = 0
        for idx in range(q**n):
            m = np.stack([F.from_int(idx // q**j % q) for j in range(n)] + [F.one()])
            accepted += _extension_tables(F, m) is not None
        gauss = sum(_mobius(k) * q ** (n // k) for k in range(1, n + 1) if n % k == 0) // n
        assert accepted == gauss, (q, n)


def _f2_poly(*exponents):
    c = [0] * (max(exponents) + 1)
    for e in exponents:
        c[e] = 1
    return c


def test_hostile_base_modulus_is_fast():
    """Degree 64 over F_2: trial division would take about 2^32 divisions."""
    start = time.perf_counter()
    f = BaseField(2, 64, _f2_poly(64, 4, 3, 1, 0))
    assert f.modulus == tuple(_f2_poly(64, 4, 3, 1, 0))
    # Two distinct degree-32 irreducibles: x^(2^64) = x mod their product, so
    # only gcd(x^(2^32) - x, m) = 1, the r = 2 check, rejects it.
    factors = [_f2_poly(32, 7, 3, 2, 0), _f2_poly(32, 22, 2, 1, 0)]
    for g in factors:
        BaseField(2, 32, g)
    product = np.convolve(*factors) % 2
    with pytest.raises(NoIrreducible):
        BaseField(2, 64, product)
    assert time.perf_counter() - start < 1.0


def _rabin_tables(F, m):
    """The oracle: _extension_tables with no root screen, Rabin's test by
    rank alone, r = n included."""
    n, d, p = len(m) - 1, F.d, F.p
    X = np.zeros((2 * n - 1, n, d), dtype=np.int64)
    X[0, 0] = F.one()
    by_m = F.mul_matrix(m[:n])
    for k in range(1, 2 * n - 1):
        X[k, 1:] = X[k - 1, :-1]
        X[k] = (X[k] - X[k - 1, -1] @ by_m) % p
    R = _fp_matrix(F, X)
    if n == 1:
        return X, R, X[:1]

    def times(b):
        U = np.zeros((n, d, 2 * n - 1, d), dtype=np.int64)
        by_b = F.mul_matrix(b).swapaxes(0, 1)
        for i in range(n):
            U[i, :, i : i + n] = by_b
        return U.reshape(n * d, -1) @ R % p

    x, by_x = X[1].reshape(-1), _fp_matrix(F, X[1 : n + 1])
    xq = X[0].reshape(-1)
    for bit in bin(F.order)[2:]:
        xq = xq @ times(xq.reshape(n, d)) % p
        if bit == "1":
            xq = xq @ by_x % p
    Q = np.zeros((n, n * d), dtype=np.int64)
    Q[0] = X[0].reshape(-1)
    by_xq = times(xq.reshape(n, d))
    for k in range(1, n):
        Q[k] = Q[k - 1] @ by_xq % p
    Q = Q.reshape(n, n, d)
    frob = _fp_matrix(F, Q)
    v = x
    for j in range(1, n + 1):
        v = v @ frob % p
        if j < n and n % j == 0 and is_prime(n // j):
            if not _full_rank(times((v - x).reshape(n, d) % p), p):
                return None
    return (X, R, Q) if np.array_equal(v, x) else None


def _same_verdict_and_tables(F, m):
    got, want = _extension_tables(F, m), _rabin_tables(F, m)
    assert (got is None) == (want is None), (F, m.tolist())
    if got is not None:
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    return got is not None


def test_root_screen_accepts_what_rabin_alone_accepts(monkeypatch):
    """Every monic candidate of degree 2-4 over F_4 and 2-3 over F_9: the
    screened test accepts exactly the oracle's set, with the same tables.
    Degree 4 keeps a composite degree, and its rank test, covered.  Over
    F_65521, past the screen's size, prime degrees keep the rank test at
    r = n, which rejects a reducible candidate with a root."""
    ranks = []  # the size of each matrix the screened test row-reduces

    def counted(M, p):
        ranks.append(len(M))
        return _full_rank(M, p)

    monkeypatch.setattr(fields, "_full_rank", counted)
    for (p, d), degrees in (((2, 2), (2, 3, 4)), ((3, 2), (2, 3))):
        F = BaseField(p, d)
        q = F.order
        for n in degrees:
            accepted = 0
            for idx in range(q**n):
                m = np.stack([F.from_int(idx // q**j % q) for j in range(n)] + [F.one()])
                accepted += _same_verdict_and_tables(F, m)
            assert accepted == sum(_mobius(k) * q ** (n // k) for k in range(1, n + 1) if n % k == 0) // n
    # Over the small fields only degree 4's r = 2 test reached a rank test.
    assert set(ranks) == {4 * 2}
    ranks.clear()
    # 17 is the least non-square mod 65521 and 2 is not a cube; x^2 - 1 and
    # (x - 1)(x - 2)(x - 3) split, so x^(q^n) = x mod m and only the rank
    # test at r = n rejects them.
    F = BaseField(65521, 1)
    cases = {(-1, 0, 1): False, (-17, 0, 1): True, (-2, 0, 0, 1): True,
             (-8, 0, 0, 1): False, (-6, 11, -6, 1): False}
    for coeffs, irreducible in cases.items():
        m = np.array(coeffs, dtype=np.int64).reshape(-1, 1) % F.p
        assert _same_verdict_and_tables(F, m) == irreducible, coeffs
    assert len(ranks) == len(cases)


@pytest.mark.parametrize("p, non_square", [(11, 2), (65521, 17)])
def test_base_modulus_with_a_root_is_refused(p, non_square):
    """x^2 - 1 = (x - 1)(x + 1) is refused, on both sides of the root
    screen's size; x^2 - c for a non-square c is taken."""
    with pytest.raises(NoIrreducible):
        BaseField(p, 2, (p - 1, 0, 1))
    assert BaseField(p, 2, (p - non_square, 0, 1)).modulus == (p - non_square, 0, 1)


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
        lhs = t.frobenius(t.mul(x, y))
        rhs = t.mul(t.frobenius(x), t.frobenius(y))
        assert t.is_zero(t.sub(lhs, rhs))
        lhs = t.frobenius(t.add(x, y))
        rhs = t.add(t.frobenius(x), t.frobenius(y))
        assert t.is_zero(t.sub(lhs, rhs))
    # fixes base-field scalars and has order [F_q : F_q0]
    b = t.embed_scalar_int(7)
    assert t.is_zero(t.sub(t.frobenius(b), b))
    x = t.random(SplitMix64(3))
    assert t.is_zero(t.sub(t.frobenius(x, 6), x))


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
    # x spans both axes, so that its inversion runs in t itself, whose
    # frobenius is the patched one.
    monkeypatch.setattr(t, "frobenius", lambda x, e=1: x % t.base.p)
    with pytest.raises(NormOutsideBase):
        t.inv(t.add(t.one(), t.add(t.gen(1), t.gen(2))))


@pytest.fixture(scope="module")
def tower11_30():
    """F_{11^30} = F_11(a_1, a_2, a_3) with degrees 2, 3 and 5."""
    return make_tower(make_base_field(11, 1), (2, 3, 5))


@pytest.mark.parametrize("support", [[1], [2], [3], [1, 2], [1, 3], [2, 3]])
def test_inv_in_the_support_subtower_matches_fermat(tower11_30, support):
    """An element that spans fewer than all axes is inverted in the
    subtower of its support, and the embedded result equals Fermat's."""
    t = tower11_30
    rng = SplitMix64(70 + sum(support))
    checked = 0
    while checked < 2:
        x = t.random(rng)
        for i in range(1, t.L + 1):
            if i not in support:
                x[(slice(None),) * (i - 1) + (slice(1, None),)] = 0
        if t.support_axes(x) != support:
            continue
        checked += 1
        y = t.inv(x)
        assert np.array_equal(y, _fermat_inv(t, x))
        assert set(t.support_axes(y)) <= set(support)


def test_frobenius_matches_repeated_powering(tower11_6):
    t = tower11_6
    q0 = t.base.order
    rng = SplitMix64(31)
    for _ in range(3):
        x = t.random(rng)
        want = x
        for e in range(2 * 6 + 2):  # 0 .. 2 * lcm(2, 3) + 1
            assert np.array_equal(t.frobenius(x, e), want)
            want = t.pow(want, q0)


@pytest.mark.parametrize("primes", [(2, 3), (2, 3, 5)])
def test_frobenius_flat_size_is_identity(f11, primes):
    t = make_tower(f11, primes)
    x = t.random(SplitMix64(sum(primes)))
    assert np.array_equal(t.frobenius(x, t.flat_size), x)


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


@pytest.mark.parametrize("name", ["tower11_6", "tower11_30", "f9_6", "paper-full"])
def test_trace_scalars_match_trace_of_products(tower11_6, tower11_30, digest_schemes, name):
    """For w in F_q0 and for w on axis i, tau_s = tr_i(w a_i^s) for every s,
    an element of F_q0, and server_step's reply to a share is tr_i(w h) of
    each entry of h = f g, read at index 0 of axis i; on F_11(2,3),
    F_11(2,3,5), F_9(2,3) (d = 2) and paper-full's F_27(5,7,11).  A w with
    one digit off axis i raises InvalidParams."""
    t = {"tower11_6": tower11_6, "tower11_30": tower11_30,
         "f9_6": make_tower(make_base_field(3, 2), (2, 3)),
         "paper-full": digest_schemes["paper-full"].tower}[name]
    rng = SplitMix64(90 + t.L)
    f, g = random_mat(2, 2, t, rng=rng), random_mat(2, 3, t, rng=rng)
    h = mat_mul(f, g).data
    for i in range(1, t.L + 1):
        p_i, d = t.primes[i - 1], t.base.d
        a_powers = t.embed_base(np.eye(p_i, dtype=np.int64)[..., None] * t.base.one(), [i - 1])
        for on_axis in (False, True):
            line = rng.digits(t.base.p, p_i * d).reshape(p_i, d)
            line[1:] *= on_axis
            line[int(on_axis), 0] = 1  # nonzero: the digit of a_i, or of 1 for w in F_q0
            w = t.embed_base(line, [i - 1])
            assert t.support_axes(w) == [i] * on_axis
            tau = t.trace_scalars(w, i)
            assert tau.shape == (p_i, d)
            assert np.array_equal(trace_to_subfield(t, t.mul(w, a_powers), i), t.embed_base(tau))
            reply = server_step(t, {i: tau[None]}, f.data[None], g.data[None])[i][0]
            want = np.take(trace_to_subfield(t, t.mul(w, h), i), 0, axis=1 + i)
            assert np.array_equal(reply, want), (name, i, on_axis)
            w[tuple(int(k == i % t.L) for k in range(t.L)) + (d - 1,)] = 1  # a digit off axis i
            with pytest.raises(InvalidParams):
                t.trace_scalars(w, i)


@pytest.mark.parametrize("name", ["f27", "tower11_6"])
def test_inv_on_a_stack(tower11_6, name):
    """inv over a stack equals inversion one element at a time, for stacks
    of length 1, 2, 3, 7 and 8, and a zero first, in the middle or last
    raises.  On the tower, a stack may mix supports."""
    field = make_base_field(3, 3) if name == "f27" else tower11_6
    for n in (1, 2, 3, 7, 8):
        rng = SplitMix64(5 + n)
        xs = [field.random(rng) for _ in range(n)]
        xs = [field.one() if field.is_zero(x) else x for x in xs]
        invs = field.inv(np.stack(xs))
        assert invs.shape == (n,) + field.shape
        for x, xi in zip(xs, invs):
            assert np.array_equal(xi, field.inv(x))
            assert field.eq(field.mul(x, xi), field.one())
        for at in (0, n // 2, n):
            with pytest.raises(ZeroInverse):
                field.inv(np.stack(xs[:at] + [field.zero()] + xs[at:]))
    if name == "f27":  # once accepted, with 0 as the "inverse" of 0
        with pytest.raises(ZeroInverse):
            field.inv(np.stack([field.from_int(5), field.zero(), field.from_int(7)]))
    else:
        t = field
        mixed = [t.embed_scalar_int(3), t.add(t.one(), t.gen(1)), t.add(t.gen(2), t.gen(2))]
        for x, xi in zip(mixed, t.inv(np.stack(mixed))):
            assert np.array_equal(xi, _fermat_inv(t, x))


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


def test_rank_and_mat_inverse(f5):
    e = f5.from_int

    def m(rows):
        return [[e(v) for v in row] for row in rows]

    # x + 2y = 1, 3x + 4y = 2 over F_5  ->  x = 0, y = 3 (oracle: by hand)
    inv = mat_inverse(f5, m([[1, 2], [3, 4]]))
    sol = [f5.add(f5.mul(row[0], e(1)), f5.mul(row[1], e(2))) for row in inv]
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
        mat_inverse(f5, m([[1, 2], [2, 4]]))
