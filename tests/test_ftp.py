"""Scheme construction, encode/servers/decode, costs, security audits."""

import hashlib
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ftp_sdmm.ftp as ftp_module
from ftp_sdmm import kernels
from ftp_sdmm.errors import (
    DimMismatch,
    FieldMismatch,
    InvalidParams,
    NotDivisible,
    PrimesNotAscendingDistinct,
    ShapeMismatch,
    TooFewEvalPoints,
    TooLargeForExhaustive,
)
from ftp_sdmm.fields import TowerField, make_base_field, make_tower
from ftp_sdmm.ftp import (
    build_scheme,
    cost_report,
    decode,
    encode,
    security_audit,
    security_rank_audit,
    server_compute,
)
from ftp_sdmm.matrices import Mat, SplitMix64, mat_mul, partition_inner, random_mat
from ftp_sdmm.proto import run_inprocess

from conftest import _DIGEST_SCHEMES
from test_linalg import _elim
from ftp_sdmm.poly import annihilator, dual_weights, eval_poly, evaluate, lagrange_coefficients

CONFIGS = [
    dict(L=1, T=1, primes=(2,), p=2, d=2),
    dict(L=2, T=1, primes=(2, 3), p=11, d=1),
    dict(L=3, T=1, primes=(2, 3, 5), p=11, d=1),
    dict(L=2, T=2, primes=(2, 3), p=11, d=1),
]


def _scheme(cfg, a=2, b=2, c=2):
    base = make_base_field(cfg["p"], cfg["d"])
    if b % cfg["L"]:
        b = cfg["L"] * b
    return build_scheme(L=cfg["L"], T=cfg["T"], primes=cfg["primes"], base=base,
                        a=a, b=b, c=c)


@pytest.mark.parametrize("cfg", CONFIGS)
def test_roundtrip(cfg):
    scheme = _scheme(cfg)
    for seed in range(3):
        A = random_mat(scheme.a, scheme.b, scheme.tower, seed=seed + 100)
        B = random_mat(scheme.b, scheme.c, scheme.tower, seed=seed + 200)
        replies = server_compute(scheme, *encode(scheme, A, B, seed=seed))
        assert decode(scheme, replies).eq(mat_mul(A, B))


def test_parameter_validation():
    base = make_base_field(11, 1)
    with pytest.raises(InvalidParams):
        build_scheme(L=0, T=1, primes=(), base=base, a=1, b=1, c=1)
    with pytest.raises(PrimesNotAscendingDistinct):
        build_scheme(L=2, T=1, primes=(3, 2), base=base, a=1, b=2, c=1)
    with pytest.raises(NotDivisible):
        build_scheme(L=2, T=1, primes=(2, 3), base=base, a=1, b=3, c=1)
    with pytest.raises(TooFewEvalPoints):
        build_scheme(L=1, T=1, primes=(5,), base=make_base_field(2, 2), a=1, b=1, c=1)
    scheme = _scheme(CONFIGS[1])
    bad = random_mat(scheme.a + 1, scheme.b, scheme.tower, seed=0)
    B = random_mat(scheme.b, scheme.c, scheme.tower, seed=1)
    with pytest.raises(DimMismatch):
        encode(scheme, bad, B)


@pytest.mark.parametrize("a,b,c", [(0, 2, 2), (2, 0, 2), (2, 2, -1)])
def test_build_scheme_refuses_nonpositive_dimensions(a, b, c):
    """A scheme with no rows, no inner index or no columns is refused at
    setup, as RateParams (and so cost_report) refuses it."""
    with pytest.raises(InvalidParams):
        build_scheme(2, 1, (2, 3), make_base_field(11, 1), a, b, c)


def test_encode_refuses_operands_of_another_field_or_shape():
    """Operands or randoms over another field raise FieldMismatch, and
    randoms of the wrong count or shape DimMismatch, before any arithmetic."""
    s = _scheme(CONFIGS[1])  # T = 1
    A = random_mat(s.a, s.b, s.tower, seed=0)
    B = random_mat(s.b, s.c, s.tower, seed=1)
    alien = make_tower(make_base_field(13, 1), (2, 3))
    R, S = ftp_module._draw_randoms(s, 0)
    with pytest.raises(FieldMismatch):
        encode(s, random_mat(s.a, s.b, alien, seed=0), B)
    with pytest.raises(FieldMismatch):
        encode(s, A, random_mat(s.b, s.c, alien, seed=1))
    with pytest.raises(FieldMismatch):
        encode(s, A, B, randoms=(R, [random_mat(*S[0].data.shape[:2], alien, seed=2)]))
    w = s.b // s.L
    for bad in [(R + R, S), (R, []), ([random_mat(s.a + 1, w, s.tower, seed=3)], S),
                (R, [random_mat(w, s.c + 1, s.tower, seed=4)])]:
        with pytest.raises(DimMismatch):
            encode(s, A, B, randoms=bad)


def test_server_compute_refuses_stacks_of_another_shape():
    """server_compute takes the stacks of all N_L shares, each a x b/L and
    b/L x c: one server fewer, or a matrix of another shape, raises
    DimMismatch."""
    s = _scheme(CONFIGS[1])
    F, G = encode(s, random_mat(s.a, s.b, s.tower, seed=0), random_mat(s.b, s.c, s.tower, seed=1))
    for bad in ((F[:-1], G[:-1]), (F[:, :1], G), (F, G[:, :, :1])):
        with pytest.raises(DimMismatch):
            server_compute(s, *bad)


def _lagrange_oracle(s, A, B, R, S):
    """encode's values by the general route: the Lagrange basis on the L + T
    nodes from lagrange_coefficients, times the stacked nodes, evaluated at
    the upload points, as a (N_L, a w + w c, *tower.shape) tensor."""
    part = partition_inner(A, B, s.L)
    nodes = np.stack([np.concatenate([f.data.reshape((-1,) + s.tower.shape),
                                      g.data.reshape((-1,) + s.tower.shape)])
                      for f, g in zip(part.A_blocks + list(R), part.B_blocks + list(S))])
    basis = lagrange_coefficients(s.tower, s.points[: s.L + s.T])
    return evaluate(s.tower, kernels.matmul(s.tower, basis, nodes), s.points[s.L :])


@pytest.mark.parametrize("name", [f"config {k}" for k in range(len(CONFIGS))] + list(_DIGEST_SCHEMES)
                         + [f"config {k}, no table" for k in range(len(CONFIGS))])
def test_encode_matches_the_lagrange_oracle(digest_schemes, name, monkeypatch):
    """encode's shares equal the general route's values bit for bit, with
    randoms drawn and with randoms given: by the kept basis on the small
    towers, by its factors on paper-full's and, with the table's limit at
    0, on the criterion-2 configurations."""
    if name.endswith("no table"):
        monkeypatch.setattr(kernels, "_TABLE_DIGITS", 0)
    s = digest_schemes[name] if name in digest_schemes else _scheme(CONFIGS[int(name[7])])
    assert (s.basis is None) == (not kernels._by_table_fits(s.tower)) == (s.combine is not None)
    A = random_mat(s.a, s.b, s.tower, seed=60)
    B = random_mat(s.b, s.c, s.tower, seed=61)
    given_randoms = ftp_module._draw_randoms(s, 62)
    for randoms in (None, given_randoms):
        F, G = encode(s, A, B, seed=5, randoms=randoms)
        R, S = randoms or ftp_module._draw_randoms(s, 5)
        got = np.concatenate([F.reshape((len(F), -1) + s.tower.shape),
                              G.reshape((len(G), -1) + s.tower.shape)], axis=1)
        assert np.array_equal(got, _lagrange_oracle(s, A, B, R, S))


def test_no_table_past_the_limit():
    """A paper-full job builds no structure-constant table for its tower or
    any sub-tower past _TABLE_DIGITS digits (one for the axes of 7 and 11
    would take 99 MB)."""
    L, T, primes, p, d, a, b, c = _DIGEST_SCHEMES["paper-full"]
    s = build_scheme(L, T, primes, make_base_field(p, d), a, b, c)
    A = random_mat(a, b, s.tower, seed=0)
    B = random_mat(b, c, s.tower, seed=1)
    assert run_inprocess(s, A, B, seed=2)[0].eq(mat_mul(A, B))
    fields = [s.tower, *s.tower._subtowers.values()]
    assert any(math.prod(f.shape) > kernels._TABLE_DIGITS for f in fields[1:])
    assert all(f._structure is None for f in fields if math.prod(f.shape) > kernels._TABLE_DIGITS)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(2,), (3,), (2, 3), (2, 5), (2, 3, 5)]), st.integers(1, 2),
       st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 2), st.integers(1, 3),
       st.integers(1, 2), st.integers(1, 3), st.integers(0, 2**32))
def test_drawn_schemes_decode_to_the_product(primes, T, p, d, a, w, c, seed):
    """run_inprocess on drawn small schemes and operands decodes to
    mat_mul's product, and its ledger holds cost_report's symbols each way,
    in d bytes per symbol."""
    L = len(primes)
    assume(p**d >= primes[-1] + 2 * L + 2 * T - 2)  # q0 >= N_L
    s = build_scheme(L, T, primes, make_base_field(p, d), a, L * w, c)
    A = random_mat(a, L * w, s.tower, seed=seed)
    B = random_mat(L * w, c, s.tower, seed=seed + 1)
    product, ledger = run_inprocess(s, A, B, seed=seed)
    assert product.eq(mat_mul(A, B))
    report = cost_report(s)
    assert (ledger.upload_symbols, ledger.download_symbols) == (report.upload_symbols,
                                                                report.download_symbols)
    assert (ledger.upload_bytes, ledger.download_bytes) == (d * report.upload_symbols,
                                                            d * report.download_symbols)


def test_drawn_schemes_decode_on_the_structured_path(monkeypatch):
    """The same draws with the table's limit at 0, so that encode takes the
    Lagrange basis's factors on small towers too."""
    monkeypatch.setattr(kernels, "_TABLE_DIGITS", 0)
    test_drawn_schemes_decode_to_the_product()


def test_cost_report_formulas():
    scheme = _scheme(CONFIGS[1], a=2, b=2, c=3)
    r = cost_report(scheme)
    # U = N_L (ab + bc)/L prod p_j, D = ac sum_i N_i prod_{j != i} p_j
    L, (p1, p2) = 2, scheme.primes
    N = scheme.N
    a, b, c = scheme.a, scheme.b, scheme.c
    assert r.upload_symbols == N[-1] * (a * b // L + b * c // L) * p1 * p2
    assert r.download_symbols == a * c * (N[0] * p2 + N[1] * p1)
    assert r.output_symbols == a * c * p1 * p2


def test_server_group_omission():
    scheme = _scheme(CONFIGS[1])
    A = random_mat(scheme.a, scheme.b, scheme.tower, seed=0)
    B = random_mat(scheme.b, scheme.c, scheme.tower, seed=1)
    replies = server_compute(scheme, *encode(scheme, A, B))
    assert {i: len(r) for i, r in replies.items()} == dict(enumerate(scheme.N, start=1))
    # annihilator really vanishes at the omitted servers' points
    t = scheme.tower
    for i in range(1, scheme.L + 1):
        k_i = scheme.k_polys[i - 1]
        for j in range(scheme.N[i - 1] + 1, scheme.N[-1] + 1):
            pt = scheme.points[scheme.L + j - 1]
            assert t.is_zero(eval_poly(k_i, pt))


def test_decode_requires_all_bundles():
    scheme = _scheme(CONFIGS[1])
    A = random_mat(scheme.a, scheme.b, scheme.tower, seed=0)
    B = random_mat(scheme.b, scheme.c, scheme.tower, seed=1)
    replies = server_compute(scheme, *encode(scheme, A, B))
    with pytest.raises(ShapeMismatch):
        decode(scheme, {i: r[: scheme.N[-1] - 1] for i, r in replies.items()})


def test_decode_refuses_a_missing_or_misshapen_reply():
    """decode raises ShapeMismatch for replies that lack a group, hold a
    group past L, or hold a stack with the wrong rows or of full-tower
    shape."""
    scheme = _scheme(CONFIGS[1])
    A = random_mat(scheme.a, scheme.b, scheme.tower, seed=0)
    B = random_mat(scheme.b, scheme.c, scheme.tower, seed=1)
    replies = server_compute(scheme, *encode(scheme, A, B))
    reply = replies[1]
    full = scheme.tower.embed_base(reply, [1])
    assert full.shape == (scheme.N[0], scheme.a, scheme.c) + scheme.tower.shape
    for broken in ({2: replies[2]}, {**replies, 3: replies[2]}, {**replies, 1: reply[:, :-1]},
                   {**replies, 1: full}):
        with pytest.raises(ShapeMismatch):
            decode(scheme, broken)
    assert decode(scheme, replies).eq(mat_mul(A, B))


def test_responses_live_in_subfield():
    """Each group-i reply is (a, c, *F_i.shape): the F_i digits, index 0 of
    axis i, of tr_i(w_ij h_j) taken element by element, which lies in F_i."""
    scheme = _scheme(CONFIGS[1])
    A = random_mat(scheme.a, scheme.b, scheme.tower, seed=3)
    B = random_mat(scheme.b, scheme.c, scheme.tower, seed=4)
    t, width = scheme.tower, scheme.b // scheme.L
    F, G = encode(scheme, A, B)
    replies = server_compute(scheme, F, G)
    for j, (f, g) in enumerate(zip(F, G), start=1):
        h = mat_mul(Mat(t, scheme.a, width, f), Mat(t, width, scheme.c, g))
        for i, w in ftp_module.server_groups(scheme, j).items():
            reply = replies[i][j - 1]
            assert reply.shape == (scheme.a, scheme.c) + t.shape[: i - 1] + t.shape[i:]
            for r, row in enumerate(h.data):
                for c, v in enumerate(row):
                    full = t.trace_to_subfield(t.mul(w, v), i)
                    assert t.in_subfield(full, i)
                    assert np.array_equal(reply[r, c], np.take(full, 0, axis=i - 1))


@pytest.mark.parametrize("cfg", CONFIGS)
def test_rank_audit_passes(cfg):
    report = security_audit(_scheme(cfg), mode="rank")
    assert report.passed
    assert report.checks > 0


def test_rank_audit_detects_corrupt_points():
    scheme = _scheme(CONFIGS[3])  # T = 2
    t = scheme.tower
    nodes = scheme.points[: scheme.L + scheme.T]
    eval_points = list(scheme.points[scheme.L : scheme.L + scheme.N[-1]])
    # duplicate an evaluation point: some T-subset must go rank deficient
    eval_points[1] = eval_points[0]
    checks, failures = security_rank_audit(t, nodes, eval_points, scheme.T)
    assert failures


def test_rank_audit_matches_lagrange_values_oracle():
    """The audit's failures on corrupted points are those of the Lagrange
    basis values themselves, each subset's matrix eliminated one element at
    a time."""
    scheme = _scheme(CONFIGS[3])  # T = 2
    t = scheme.tower
    nodes = scheme.points[: scheme.L + scheme.T]
    eval_points = list(scheme.points[scheme.L : scheme.L + scheme.N[-1]])
    eval_points[1], eval_points[4] = eval_points[0], eval_points[2]
    values = evaluate(t, lagrange_coefficients(t, nodes)[:, -scheme.T :], eval_points)
    want = [s for s in combinations(range(len(eval_points)), scheme.T)
            if _elim(t, [[values[j, k] for j in s] for k in range(scheme.T)], scheme.T)[0] < scheme.T]
    checks, failures = security_rank_audit(t, nodes, eval_points, scheme.T)
    assert failures == want == [(0, 1), (2, 4)]
    assert checks == len(list(combinations(range(len(eval_points)), scheme.T)))


def test_rank_audit_inverts_no_element(monkeypatch):
    """The audit needs no inversion: its values are known up to a nonzero
    column scale, and the elimination divides by nothing."""
    scheme = _scheme(CONFIGS[3])

    def refuse(self, x):
        raise AssertionError("the rank audit inverted an element")

    monkeypatch.setattr(TowerField, "inv", refuse)
    report = security_audit(scheme, mode="rank")
    assert report.passed and report.checks == scheme.N[-1] * (scheme.N[-1] - 1) // 2


def test_exhaustive_audit_uniform():
    scheme = _scheme(CONFIGS[0], a=1, b=1, c=1)  # q = 16, 1x1 blocks
    report = security_audit(scheme, mode="exhaustive")
    assert report.mode == "exhaustive"
    assert report.passed
    assert report.checks == scheme.N[-1]  # one check per single-server subset


def test_exhaustive_audit_encodes_each_draw_once_and_finds_a_leak(monkeypatch):
    """Server 2's share made constant: the one subset that sees it fails,
    and the q^T draws are encoded once for all subsets."""
    scheme = _scheme(CONFIGS[0], a=1, b=1, c=1)
    calls = []

    def leaky(*args, **kwargs):
        calls.append(1)
        F, G = encode(*args, **kwargs)
        F[1] = 0
        return F, G

    monkeypatch.setattr(ftp_module, "encode", leaky)
    report = security_audit(scheme, mode="exhaustive")
    assert report.checks == scheme.N[-1] and report.failures == [(2,)]
    assert len(calls) == scheme.tower.order_int


def test_exhaustive_audit_guard():
    scheme = _scheme(CONFIGS[1])
    with pytest.raises(TooLargeForExhaustive):
        security_audit(scheme, mode="exhaustive")


# SHA-256 of each setup value, by the parameters (L, T, primes, p, d) that
# alone determine them; pinned on the code before the polynomials became
# tensors, when every value came from per-element loops.
_SETUP_VALUES = ("weights", "server_scalars", "lambdas", "mus", "encode_coeffs",
                 "vandermonde", "k_polys")
_SETUP_DIGESTS = {
    (1, 1, (2,), 2, 2): (  # CONFIGS[0]
        "94800ea0dc585a768b62ecfe110017ba74aa054ce8ad4f75db6dc3e130edaee1",
        "58267887e310a3d81817100978679f80f3117ae7e20e010b9d9adfd07b68a4d5",
        "b0a4d0badbaf87d1b1d904d8605259a0e6f2be4f25083fea2f266935eba1e702",
        "e4a9415d4785647496483b55fe0535a6359c0ab69a2beeea74ab89167071e9ac",
        "cf6c04489a496fb0ecc4b2f071e95750a43b807568bedd68afc89de81b8a16ea",
        "628439d7997492e0939d93962f2be7d516c2cfb6c4e62841f93d36242eafcce3",
        "1366f1fb10d5eb0a9a9cca11be777c85a7f81a75afece3e4dab06cd9f3bcf286",
    ),
    (2, 1, (2, 3), 11, 1): (  # tcp-wide; CONFIGS[1]
        "e2eac8a7e72821703e3ecf6d2d478fb1e1f4664bec3b810af9706b716aee0dd3",
        "a315ae38232acfd27bbb6ce12e2d3fb8a281729147a5686fca0d8a3ac941bb6c",
        "980bf3621ea0fda9d29552d56c77f90fc789dbde2580aa1cc67970b2de9bc0e1",
        "cf275aab5883b0f623fc96e4d5bd1f5c3ce055d26c00f42a4aa95d6721175982",
        "a5b842c9691399828103b9ed8c6de078be904a23c85dce8ed768bd9f2f4fa90d",
        "aeaccff908e6812623608ba862a84b138781037ed9730736331926e2eed21d79",
        "5570e4dfd42ebc8fc8a6c42cd9f078785c0557bbd340aaf54cb0334d0325a95d",
    ),
    (3, 1, (2, 3, 5), 11, 1): (  # small-tower; CONFIGS[2]
        "16c58a5abf8ddef560887e7691d5c8a7bbff87ec3263befffbe5531dac7fed3c",
        "4af2fc34d4bdaab7488cba579cea5551c58daa46998cbd9ee0acc1f4abeaa54c",
        "445ef587d2bb9b770b7d5a91ee7e20dd3a39d8ae0ffb9e73d413d4729b6bc3ea",
        "c566f2120df37e3a96116fd62cda066ab94e9b92e5ea39f45ce1dead55fd2a3d",
        "251090e938f4cdde31079d44b361bb3a3db547d5b8d6f3ee95b31f8490552b50",
        "440e05f34fe991ffeff534737114614ac2530dec954d6ff5c0d9509ee6ea3d89",
        "d6d142d4ad882560834d62fa085661022bb99a474b53ba59f3b481f9592f2e30",
    ),
    (2, 2, (2, 3), 11, 1): (  # CONFIGS[3]
        "ba8698f0a29e40eb6c8a66a41202615999fa42d332f24006d78ec4a3152c2a0a",
        "5484c04b7931cf61c8e7a488bf8dddd443a07da3a9712f965710eae186c7d4ae",
        "a00fc313d470340837c9179b026a2fa6c34ee160ca4fce8624562341f3f39fb0",
        "8d41945faa7b9cf3ac74f5a7e83a54e9dfdbe70d1c6f309971f6de6293dddcd9",
        "8359116711b7e1e8489a6e3d904cca1ca4af8f2924b67afd99474c20135ec678",
        "82183a46cb9d62898cd9c5837b8957291fd39143f0606e349d62ef2fb2ed00dc",
        "29b6c39c746f7a8c6d176ce51dd043b9d0bfde0379ba35698c609e9a9cf008f2",
    ),
    (3, 2, (5, 7, 11), 3, 3): (  # paper-full
        "93af027c0d2144a1495135d4d9d74df3846ad9a16b9fef3ccb22af3da0640e68",
        "14dcfc9b8d4a044332a9a915e99251ea5dceb5ba9e6b334b406ddde322fbfd94",
        "3f77fb94dfbbd2e2b096ca2f3cb04d86089106e5b857c059cc5b49708c45681d",
        "281fddb8d26872ae2fdeca39265670358a144512d59cb39311ea46d8e28c5a70",
        "d4fd318e107e21f9759f90e5d74b192359bee0c9622b581201cc07b5045b312a",
        "de859ff4f97be04b730f91fee7720428dc594873e297bc384cb3141c6502a421",
        "e44d842995a0714fdf6ea24793cb853908d4a9d3d903f97d496e25f21aca7b02",
    ),
}


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.int64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _basis(s):
    """The Lagrange basis on the L + T nodes: the one setup keeps, or, past
    the table's limit where setup keeps its factors instead, the general
    route's."""
    if s.basis is None:
        return lagrange_coefficients(s.tower, s.points[: s.L + s.T])
    return s.basis


@pytest.mark.parametrize("name", ["small-tower", "tcp-wide", "paper-full", 0, 1, 2, 3])
def test_setup_values_are_pinned(digest_schemes, name):
    """The dual weights, server scalars, trace-dual bases, encode and decode
    coefficients and annihilators of the benchmark's schemes and of the
    criterion-2 configurations are bit-identical to the pinned digests."""
    s = digest_schemes[name] if isinstance(name, str) else _scheme(CONFIGS[name], a=4, b=6, c=4)
    values = (s.domain.weights, [np.stack(r) for r in s.server_scalars],
              [np.stack(b) for b in s.lambdas], [np.stack(b) for b in s.mus],
              [np.swapaxes(evaluate(s.tower, _basis(s), s.points[s.L :]), 0, 1)],
              s.vandermonde, [k.coeffs for k in s.k_polys])
    got = dict(zip(_SETUP_VALUES, map(_digest, values)))
    key = (s.L, s.T, s.primes, s.base.p, s.base.d)
    assert got == dict(zip(_SETUP_VALUES, _SETUP_DIGESTS[key]))


def _annihilator_route(s):
    """The setup values as build_scheme made them before its closed forms,
    from tower annihilators: the dual weights A'(w)^-1 of all n points;
    per group i the annihilator k_i of the points outside group i, the
    server scalars v_(L+j) k_i(alpha_j) and the scale v_i k_i(a_i); and the
    Lagrange basis on the L + T nodes."""
    t, L, N = s.tower, s.L, s.N
    weights = dual_weights(t, s.points)
    k_polys, scalars, scales = [], [], []
    for i in range(1, L + 1):
        keep = set(range(L + 1, L + N[i - 1] + 1)) | {i}
        k_i = annihilator(t, [s.points[j - 1] for j in range(1, s.n + 1) if j not in keep])
        k_values = evaluate(t, k_i.coeffs, s.points[L : L + N[i - 1]])
        scalars.append(t.mul(weights[L : L + N[i - 1]], k_values))
        scales.append(t.mul(weights[i - 1], eval_poly(k_i, s.points[i - 1])))
        k_polys.append(k_i.coeffs)
    return weights, scalars, scales, lagrange_coefficients(t, s.points[: L + s.T]), k_polys


def _assert_closed_forms_match(s):
    weights, scalars, scales, basis, k_polys = _annihilator_route(s)
    assert np.array_equal(s.domain.weights, weights)
    for i in range(s.L):
        assert np.array_equal(s.server_scalars[i], scalars[i])
        assert np.array_equal(s.lambdas[i][0], scales[i])  # lambda_0 = scale * a_i^0
        assert np.array_equal(s.k_polys[i].coeffs, k_polys[i])
    assert np.array_equal(_basis(s), basis)
    # The leading coefficient of l_k is A'(w_k)^-1, the node's inverse.
    nodes = s.points[: s.L + s.T]
    assert np.array_equal(basis[-1], dual_weights(s.tower, nodes))


@pytest.mark.parametrize("name", ["small-tower", "tcp-wide", "paper-full", 0, 1, 2, 3])
def test_closed_form_setup_matches_annihilator_route(digest_schemes, name):
    """Every setup value read off the axis moduli equals the annihilator
    route's, on the benchmark's schemes and the criterion-2 configurations."""
    s = digest_schemes[name] if isinstance(name, str) else _scheme(CONFIGS[name])
    _assert_closed_forms_match(s)


_PRIME_SETS = [(2,), (3,), (5,), (2, 3), (2, 5), (3, 5), (2, 3, 5)]
_SMALL_PRIMES = [p for p in range(2, 32) if all(p % f for f in range(2, p))]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(_PRIME_SETS), st.integers(1, 2), st.sampled_from(_SMALL_PRIMES),
       st.integers(1, 2))
def test_closed_form_setup_matches_annihilator_route_on_drawn_schemes(primes, T, p, d):
    L = len(primes)
    assume(p**d >= primes[-1] + 2 * L + 2 * T - 2)  # q0 >= N_L
    s = build_scheme(L=L, T=T, primes=primes, base=make_base_field(p, d), a=1, b=L, c=1)
    _assert_closed_forms_match(s)


def test_setup_inverts_no_element_spanning_two_axes(monkeypatch):
    """Every tower inversion that build_scheme makes, on each benchmark
    scheme, is of an element (or a stack) on one axis at most."""
    supports = []
    inv = TowerField.inv

    def recording(self, x):
        supports.append(self.support_axes(x))
        return inv(self, x)

    monkeypatch.setattr(TowerField, "inv", recording)
    for L, T, primes, p, d, a, b, c in _DIGEST_SCHEMES.values():
        build_scheme(L, T, primes, make_base_field(p, d), a, b, c)
    assert supports
    assert all(len(axes) <= 1 for axes in supports), supports


def _staged_decode(scheme, replies):
    """decode as it was before the product with the trace-dual basis became
    one F_p matmul: per group, c_i staged in a zero-filled tower tensor and
    multiplied by mu_i through the general product."""
    from ftp_sdmm import kernels
    from ftp_sdmm.matrices import Mat

    tower = scheme.tower
    a, c, d, p = scheme.a, scheme.c, scheme.base.d, scheme.base.p
    total = np.zeros((a, c) + tower.shape, dtype=np.int64)
    for i in range(1, scheme.L + 1):
        p_i, n_i = scheme.primes[i - 1], scheme.N[i - 1]
        r_i = replies[i]
        flat = np.moveaxis(r_i, 0, -2).reshape(-1, n_i * d)
        c_is = (flat @ scheme.vandermonde[i - 1] % p).reshape(a * c, -1, p_i, d)
        c_i = np.zeros((a * c, p_i) + tower.shape, dtype=np.int64)
        in_f_i = np.moveaxis(c_i, 1 + i, 2)[:, :, 0]
        in_f_i[...] = np.moveaxis(c_is, 2, 1).reshape(in_f_i.shape)
        total += kernels.matmul(tower, c_i, scheme.mus[i - 1][:, None]).reshape(total.shape)
    return Mat(tower, a, c, total % p)


@pytest.mark.parametrize("name", ["small-tower", "tcp-wide", "paper-full", "F_9(2,3)"])
def test_decode_matches_staged_oracle(digest_schemes, name):
    """decode's one F_p product per group gives the staged product's result
    bit for bit, and every mu_is it reads lies in F_q0(a_i)."""
    s = (digest_schemes[name] if name in digest_schemes else
         build_scheme(L=2, T=1, primes=(2, 3), base=make_base_field(3, 2), a=2, b=4, c=3))
    for i, mu in enumerate(s.mus, start=1):
        assert set(s.tower.support_axes(mu)) <= {i}
    for seed in range(2):
        A = random_mat(s.a, s.b, s.tower, seed=30 + seed)
        B = random_mat(s.b, s.c, s.tower, seed=40 + seed)
        replies = server_compute(s, *encode(s, A, B, seed=seed))
        got = decode(s, replies)
        assert np.array_equal(got.data, _staged_decode(s, replies).data)
        assert got.eq(mat_mul(A, B))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2,), (3,), (2, 3), (2, 5), (2, 3, 5)]), st.integers(1, 2),
       st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 2), st.integers(1, 2),
       st.integers(1, 2), st.integers(0, 2**32))
def test_decode_is_linear_over_each_groups_subfield(primes, T, p, d, a, c, seed):
    """On drawn small schemes and drawn reply stacks R and R', decode is
    F_q0-linear: decode(lam R + R') = lam decode(R) + decode(R') for lam in
    F_q0.  Group i's term is F_i-linear: with every other group's stack
    zero, group i's stack multiplied entrywise by z in F_i decodes to z
    times what group i's stack alone decodes to."""
    L = len(primes)
    assume(p**d >= primes[-1] + 2 * L + 2 * T - 2)  # q0 >= N_L
    s = build_scheme(L, T, primes, make_base_field(p, d), a, L, c)
    t, base, rng = s.tower, s.base, SplitMix64(seed)
    axes = {i: [k for k in range(L) if k != i - 1] for i in range(1, L + 1)}
    fields = {i: t.subtower(ax) for i, ax in axes.items()}

    def draw():
        shapes = {i: (s.N[i - 1], a, c) + f.shape for i, f in fields.items()}
        return {i: rng.digits(p, math.prod(shape)).reshape(shape) for i, shape in shapes.items()}

    R, R2, lam = draw(), draw(), base.random(rng)
    mixed = {i: (base.mul(R[i], lam) + R2[i]) % p for i in R}
    want = (base.mul(decode(s, R).data, lam) + decode(s, R2).data) % p
    assert np.array_equal(decode(s, mixed).data, want)
    for i, f in fields.items():
        z = f.random(rng)
        alone = {k: r if k == i else np.zeros_like(r) for k, r in R.items()}
        scaled = {**alone, i: f.mul(R[i], z)}
        want = t.mul(decode(s, alone).data, t.embed_base(z, axes[i]))
        assert np.array_equal(decode(s, scaled).data, want), i


def _per_share_step(scheme, scalars, f, g):
    """The server's work one share (f, g) at a time and element by element,
    as the definition reads: h from mat_mul, then per group tr_i(w h) of
    each entry, which lies in F_i, read at index 0 of axis i."""
    tower, w = scheme.tower, scheme.b // scheme.L
    h = mat_mul(Mat(tower, scheme.a, w, f), Mat(tower, w, scheme.c, g))
    return {i: np.take(tower.trace_to_subfield(tower.mul(w_i, h.data), i), 0, axis=1 + i)
            for i, w_i in scalars.items()}


def _assert_same_replies(got, want):
    """got, the group stacks, holds server j's reply for group i at
    got[i][j - 1] exactly for the groups in want[j - 1], bit for bit."""
    for j, w in enumerate(want, start=1):
        assert sorted(i for i, r in got.items() if j <= len(r)) == sorted(w), j
        for i in w:
            assert np.array_equal(got[i][j - 1], w[i]), (j, i)


@pytest.mark.parametrize("name", [f"config {k}" for k in range(len(CONFIGS))] + list(_DIGEST_SCHEMES))
def test_stacked_servers_match_the_per_share_loop(digest_schemes, name):
    """server_compute on all N_L shares gives each server's replies bit for
    bit as the element-wise per-share loop does, servers j > N_1 (no group
    1) included."""
    s = digest_schemes[name] if name in digest_schemes else _scheme(CONFIGS[int(name[-1])])
    tower = s.tower
    A = random_mat(s.a, s.b, tower, seed=50)
    B = random_mat(s.b, s.c, tower, seed=51)
    F, G = encode(s, A, B, seed=3)
    assert len(F) == len(G) == s.N[-1]
    want = [_per_share_step(s, ftp_module.server_groups(s, j), f, g)
            for j, (f, g) in enumerate(zip(F, G), start=1)]
    _assert_same_replies(server_compute(s, F, G), want)
    assert all(1 not in w for w in want[s.N[0]:])
