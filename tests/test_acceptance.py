"""Acceptance gate: every pinned criterion, at stated tolerance, one verdict
line per criterion (pytest -v prints one pass/fail line per test)."""

import time
from fractions import Fraction
import random as pyrandom

import numpy as np
import pytest

from ftp_sdmm import proto
from ftp_sdmm.analysis import (
    crossover_K,
    download_ratio,
    ftp_rate,
    lemma4_check,
    rate_crossover,
    RateParams,
    traditional_bound,
)
from ftp_sdmm.demo import run_demo
from ftp_sdmm.fields import make_base_field, make_tower, trace_to_subfield
from ftp_sdmm.ftp import (
    build_scheme,
    cost_report,
    decode,
    encode,
    security_audit,
    server_compute,
)
from ftp_sdmm.matrices import SplitMix64, mat_mul, random_mat
from ftp_sdmm.poly import dual_orthogonality_check

CONFIGS = [
    dict(L=1, T=1, primes=(2,), p=2, d=2),
    dict(L=2, T=1, primes=(2, 3), p=11, d=1),
    dict(L=3, T=1, primes=(2, 3, 5), p=11, d=1),
    dict(L=2, T=2, primes=(2, 3), p=11, d=1),
]


def _scheme(cfg, a, b, c):
    return build_scheme(L=cfg["L"], T=cfg["T"], primes=cfg["primes"],
                        base=make_base_field(cfg["p"], cfg["d"]), a=a, b=b, c=c)


def test_criterion_1_golden_demo_100_seeds_under_1s():
    start = time.perf_counter()
    for seed in range(100):
        res = run_demo(a=2, b=2, c=2, seed=seed)
        assert res.verified, f"identity violated at seed {seed}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"\ncriterion 1: PASS (100 seeds, {elapsed:.2f}s)")


def test_criterion_2_end_to_end_decodability_under_30s():
    start = time.perf_counter()
    for cfg in CONFIGS:
        scheme = _scheme(cfg, a=4, b=6, c=4)
        for seed in range(50):
            A = random_mat(4, 6, scheme.tower, seed=3 * seed + 1)
            B = random_mat(6, 4, scheme.tower, seed=3 * seed + 2)
            bundles = server_compute(scheme, *encode(scheme, A, B, seed=seed))
            assert decode(scheme, bundles).eq(mat_mul(A, B)), (cfg, seed)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(f"\ncriterion 2: PASS (4 configs x 50 seeds, {elapsed:.1f}s)")


def test_criterion_3_worked_analytics_exact():
    params = RateParams(a=1, b=3, c=1, L=3, T=2, primes=(5, 7, 11),
                        n_prime=7, l_prime=3)
    assert download_ratio(params) == Fraction(2491, 385)
    for a, b, c in [(1, 3, 1), (2, 6, 4)]:
        p = RateParams(a=a, b=b, c=c, L=3, T=2, primes=(5, 7, 11),
                       n_prime=7, l_prime=3)
        assert ftp_rate(p) == 1 / (Fraction(19 * b, 3) * (Fraction(1, a) + Fraction(1, c))
                                   + Fraction(2491, 385))
        assert traditional_bound(p) == 1 / (7 * (Fraction(a * b + b * c, 3 * a * c) + 1))
    derived = rate_crossover(L=3, T=2, primes=(5, 7, 11), n_prime=7, l_prime=3)
    pinned = Fraction(306, 2695)
    assert derived == pinned, (
        f"pinned crossover threshold 306/2695 is not reproducible: solving "
        f"(19/3 - 7/3)*lambda < 7 - 2491/385 exactly gives lambda < "
        f"{derived} (= 357/2695).  306/2695 only results from using 21 "
        f"instead of N_3 = 19 in the slope term while keeping 2491/385, "
        f"which contradicts the rate formulas asserted (and passing) above.  "
        f"The implementation keeps the honest value; this line fails by design "
        f"rather than faking agreement."
    )
    print("\ncriterion 3: PASS")


def test_criterion_4_cost_truth_ledger_equals_formulas(serve):
    for cfg in CONFIGS:
        scheme = _scheme(cfg, a=2, b=cfg["L"] * 2, c=2)
        A = random_mat(scheme.a, scheme.b, scheme.tower, seed=1)
        B = random_mat(scheme.b, scheme.c, scheme.tower, seed=2)
        product, ledger = proto.run_inprocess(scheme, A, B, seed=0)
        assert product.eq(mat_mul(A, B))
        report = cost_report(scheme)
        # U = N_L (ab/L + bc/L) prod p_j and D = ac sum_i N_i prod_{j!=i} p_j
        assert ledger.upload_symbols == report.upload_symbols, cfg
        assert ledger.download_symbols == report.download_symbols, cfg
        assert ledger.upload_bytes == scheme.base.d * report.upload_symbols
        assert ledger.download_bytes == scheme.base.d * report.download_symbols
    # remote (TCP) mode: payload bytes equal d * symbols, d > 1
    scheme = _scheme(CONFIGS[0], a=2, b=2, c=2)  # base F_4, d = 2
    A = random_mat(2, 2, scheme.tower, seed=5)
    B = random_mat(2, 2, scheme.tower, seed=6)
    endpoints = [("127.0.0.1", serve().port)] * scheme.N[-1]
    product, ledger = proto.run_remote(endpoints, scheme, A, B, seed=0)
    assert product.eq(mat_mul(A, B))
    report = cost_report(scheme)
    assert ledger.upload_symbols == report.upload_symbols
    assert ledger.download_symbols == report.download_symbols
    assert ledger.upload_bytes == 2 * report.upload_symbols
    assert ledger.download_bytes == 2 * report.download_symbols
    print("\ncriterion 4: PASS")


def test_criterion_5_security_rank_and_exhaustive():
    for cfg in CONFIGS:
        scheme = _scheme(cfg, a=2, b=cfg["L"] * 2, c=2)
        report = security_audit(scheme, mode="rank")
        assert report.passed, (cfg, report.failures)
    # exhaustive: L=1, T=1, q=16, 1x1 blocks -> every share value exactly once
    scheme = _scheme(CONFIGS[0], a=1, b=1, c=1)
    assert scheme.tower.order_int == 16
    report = security_audit(scheme, mode="exhaustive")
    assert report.passed, report.failures
    print(f"\ncriterion 5: PASS (exhaustive checks: {report.checks})")


def test_criterion_6_dual_orthogonality_on_live_instances():
    for cfg in CONFIGS:
        scheme = _scheme(cfg, a=1, b=cfg["L"], c=1)
        t = scheme.tower
        for seed in range(20):
            A = random_mat(1, scheme.b, t, seed=7 * seed + 1)
            B = random_mat(scheme.b, 1, t, seed=7 * seed + 2)
            shares = encode(scheme, A, B, seed=seed)
            # h at the L generator points is the block product, h at the
            # upload points is the product of the received evaluations
            from ftp_sdmm.matrices import partition_inner

            part = partition_inner(A, B, scheme.L)
            h_values = [
                mat_mul(part.A_blocks[i], part.B_blocks[i]).data[0][0]
                for i in range(scheme.L)
            ] + [
                t.mul(f[0, 0], g[0, 0]) for f, g in zip(*shares)
            ]
            for i in range(1, scheme.L + 1):
                ok = dual_orthogonality_check(
                    scheme.domain, scheme.k_polys[i - 1], h_values,
                    scheme.primes[i - 1],
                )
                assert ok, (cfg, seed, i)
    print("\ncriterion 6: PASS (4 configs x 20 instances)")


def _naive_trace(tower, x, i):
    exp = tower.base.d
    for k, p in enumerate(tower.primes):
        if k != i - 1:
            exp *= p
    sub_order = tower.base.p**exp
    acc, cur = tower.zero(), x
    for _ in range(tower.primes[i - 1]):
        acc = tower.add(acc, cur)
        cur = tower.pow(cur, sub_order)
    return acc


def test_criterion_7_trace_oracle_equivalence():
    t16 = make_tower(make_base_field(2, 2), (2,))
    for k in range(16):
        x = t16.from_int(k)
        assert np.array_equal(trace_to_subfield(t16, x, 1), _naive_trace(t16, x, 1))
    t = make_tower(make_base_field(11, 1), (2, 3))
    for axis in (1, 2):
        rng = SplitMix64(900 + axis)
        for _ in range(100):
            x = t.random(rng)
            assert np.array_equal(
                trace_to_subfield(t, x, axis), _naive_trace(t, x, axis)
            )
    print("\ncriterion 7: PASS")


def test_criterion_8_crossover_machinery():
    report = crossover_K(L=1, T=1, n_prime=2, eta=2, primes=(5,))
    assert report.K == Fraction(1, 10)
    rng = pyrandom.Random(42)
    for _ in range(20):
        lam = Fraction(rng.randint(0, 10**9), 10**10)  # uniformly below 1/10
        check = lemma4_check(T=1, n_prime=2, l_prime=1, L=1, lam=lam,
                             eta=2, primes=(5,))
        assert check.ok, lam
    for _ in range(20):
        lam = Fraction(1, 10) + Fraction(rng.randint(1, 10**9), 10**9)
        check = lemma4_check(T=1, n_prime=2, l_prime=1, L=1, lam=lam,
                             eta=2, primes=(5,))
        # above the threshold nothing is asserted (no false positives)
        assert check.inequality_holds is None
    print("\ncriterion 8: PASS")


@pytest.mark.slow
def test_criterion_9_full_scale_under_5_minutes():
    start = time.perf_counter()
    scheme = build_scheme(L=3, T=2, primes=(5, 7, 11),
                          base=make_base_field(3, 3), a=1, b=3, c=1)
    A = random_mat(1, 3, scheme.tower, seed=1)
    B = random_mat(3, 1, scheme.tower, seed=2)
    bundles = server_compute(scheme, *encode(scheme, A, B, seed=0))
    assert decode(scheme, bundles).eq(mat_mul(A, B))
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    print(f"\ncriterion 9: PASS ({elapsed:.1f}s)")
