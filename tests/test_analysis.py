"""Exact-rational rate analysis, crossover machinery, CSV emitter."""

import csv
import io
import random
from fractions import Fraction

import pytest

from ftp_sdmm.analysis import (
    CSV_HEADER,
    RateParams,
    costs,
    crossover_K,
    download_ratio,
    format_rational,
    ftp_rate,
    lemma4_check,
    parse_rational,
    prime_search,
    rate_crossover,
    rates_table,
    traditional_bound,
)
from ftp_sdmm.errors import HypothesesFail, InvalidParams

# the large worked comparison: L=3, T=2, primes {5,7,11}, competitor N'=7, L'=3
BIG = dict(L=3, T=2, primes=(5, 7, 11))


def _big(a, b, c):
    return RateParams(a=a, b=b, c=c, n_prime=7, l_prime=3, **BIG)


def test_download_ratio_exact():
    assert download_ratio(_big(1, 3, 1)) == Fraction(2491, 385)


def test_ftp_rate_formula():
    for a, b, c in [(1, 3, 1), (2, 6, 4), (5, 30, 10)]:
        params = _big(a, b, c)
        want = 1 / (Fraction(19 * b, 3) * (Fraction(1, a) + Fraction(1, c))
                    + Fraction(2491, 385))
        assert ftp_rate(params) == want


def test_traditional_bound_formula():
    for a, b, c in [(1, 3, 1), (2, 6, 4)]:
        params = _big(a, b, c)
        want = 1 / (7 * (Fraction(a * b + b * c, 3 * a * c) + 1))
        assert traditional_bound(params) == want


def test_costs_consistent_with_rate():
    params = _big(2, 6, 4)
    U, D, S = costs(params)
    assert Fraction(S, U + D) == ftp_rate(params)
    assert Fraction(D, S) == download_ratio(params)


def test_rate_crossover_exact_threshold():
    """Honest solve of FTP-rate > competitor-rate for the big comparison:
    4*lambda < 204/385, i.e. lambda < 51/385 (= 357/2695)."""
    got = rate_crossover(L=3, T=2, primes=(5, 7, 11), n_prime=7, l_prime=3)
    assert got == Fraction(357, 2695)
    assert got == Fraction(51, 385)
    # sanity on both sides of the threshold via the actual rates
    for num, den, expect_win in [(356, 2695, True), (358, 2695, False)]:
        lam = Fraction(num, den)
        # realize the aspect ratio lambda = 2b/a with a = c
        r = 1 / (Fraction(19, 3) * lam + Fraction(2491, 385))
        bound = 1 / (7 * (lam / 3 + 1))
        assert (r > bound) == expect_win


def test_crossover_K_small_example():
    report = crossover_K(L=1, T=1, n_prime=2, eta=2, primes=(5,))
    assert report.K == Fraction(1, 10)
    assert report.N_L == 7
    assert all(report.hypotheses_ok.values())


def test_crossover_K_hypotheses_fail():
    with pytest.raises(HypothesesFail):
        crossover_K(L=3, T=2, n_prime=7, eta=2, primes=(5, 7, 11))


@pytest.mark.parametrize("L,T,primes", [
    (0, 1, (5,)), (2, -1, (5, 7)), (1, 0, (5,)), (2, 1, (7, 5)), (2, 1, (5, 5)),
    (2, 1, (5,)), (1, 1, (4,)),
])
def test_crossover_functions_refuse_invalid_layouts(L, T, primes):
    """crossover_K and rate_crossover refuse L or T below 1 and primes that
    are not one distinct ascending prime per axis, as RateParams does."""
    for call in (lambda: crossover_K(L=L, T=T, n_prime=2, eta=2, primes=primes),
                 lambda: rate_crossover(L=L, T=T, primes=primes, n_prime=2),
                 lambda: RateParams(a=1, b=1, c=1, L=L, T=T, primes=primes)):
        with pytest.raises(InvalidParams):
            call()


def test_lemma4_below_K_holds():
    rng = random.Random(1)
    K = Fraction(1, 10)
    for _ in range(20):
        lam = Fraction(rng.randint(0, 10**6), 10**7)  # < 1/10
        assert lam < K
        report = lemma4_check(T=1, n_prime=2, l_prime=1, L=1, lam=lam,
                              eta=2, primes=(5,))
        assert report.ok, lam


def test_lemma4_above_threshold_not_asserted():
    rng = random.Random(2)
    for _ in range(20):
        lam = Fraction(1, 10) + Fraction(rng.randint(1, 10**6), 10**6)
        report = lemma4_check(T=1, n_prime=2, l_prime=1, L=1, lam=lam,
                              eta=2, primes=(5,))
        assert not report.hypotheses_ok["lambda_below"]
        assert report.inequality_holds is None


def test_prime_search():
    # L=1: single prime above both bounds
    assert prime_search(L=1, T=1, n_prime=2, l_prime=1, eta=2) == [5]
    assert prime_search(L=1, T=1, n_prime=2, l_prime=1, eta=Fraction(1, 2)) == [2]
    got = prime_search(L=3, T=2, n_prime=7, l_prime=3, eta=Fraction(1, 4))
    assert len(got) == 3 and got == sorted(set(got))
    # primes returned must satisfy the lemma hypotheses
    check = lemma4_check(T=2, n_prime=7, l_prime=3, L=3, lam=0,
                         eta=Fraction(1, 4), primes=got)
    assert check.hypotheses_ok["primes_large"]
    assert check.hypotheses_ok["pL_exceeds"]


def test_rational_format_roundtrip():
    for fr in [Fraction(306, 2695), Fraction(-3, 7), Fraction(5), Fraction(0)]:
        assert parse_rational(format_rational(fr)) == fr


def test_parse_rational_refuses_a_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")


def test_rates_table_parses_back():
    rows = [_big(1, 3, 1), RateParams(a=2, b=2, c=2, L=2, T=1, primes=(2, 3))]
    text = rates_table(rows)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert list(parsed[0].keys()) == CSV_HEADER
    assert parse_rational(parsed[0]["ftp_rate"]) == ftp_rate(rows[0])
    assert parse_rational(parsed[0]["baseline_rate"]) == traditional_bound(rows[0])
    assert parsed[0]["primes"] == "5:7:11"
    assert parsed[0]["winner"] in ("ftp", "baseline", "tie")
    assert parsed[1]["baseline"] == ""


def test_invalid_params():
    with pytest.raises(InvalidParams):
        RateParams(a=0, b=1, c=1, L=1, T=1, primes=(2,))
    with pytest.raises(InvalidParams):
        RateParams(a=1, b=1, c=1, L=2, T=1, primes=(3, 2))
    with pytest.raises(InvalidParams):
        traditional_bound(RateParams(a=1, b=1, c=1, L=1, T=1, primes=(2,)))
    with pytest.raises(InvalidParams):
        # slope <= 0: competitor threshold too large
        rate_crossover(L=1, T=1, primes=(2,), n_prime=99)
