"""Closed-form machinery in exact rationals: the scheme's communication rate
and symbol costs, the traditional-scheme upper bound, the helper-lemma
inequality, the crossover constant K, empirical rate crossovers, and the
constrained prime search."""

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

from .errors import HypothesesFail, InvalidParams
from .fields import check_primes, is_prime

CSV_HEADER = ["a", "b", "c", "L", "T", "primes", "N_L",
              "ftp_rate", "baseline", "baseline_rate", "winner"]


def check_layout(L, T, primes):
    """primes as a tuple of ints.  InvalidParams unless L and T are positive
    and primes holds one entry per axis, and its subclass
    PrimesNotAscendingDistinct unless those are distinct ascending primes."""
    if L < 1 or T < 1:
        raise InvalidParams("L, T must be positive")
    if len(primes) != L:
        raise InvalidParams(f"need {L} primes")
    return check_primes(primes)


def server_counts(L, T, primes):
    """N_i = p_i + 2L + 2T - 2: servers 1..N_i answer group i."""
    return [p + 2 * L + 2 * T - 2 for p in primes]


@dataclass
class RateParams:
    a: int
    b: int
    c: int
    L: int
    T: int
    primes: tuple
    n_prime: int = None      # competitor recovery threshold
    l_prime: int = None      # competitor partitioning parameter
    eta: Fraction = None     # slack parameter of the helper lemma

    def __post_init__(self):
        self.primes = check_layout(self.L, self.T, self.primes)
        if min(self.a, self.b, self.c) < 1:
            raise InvalidParams("dimensions must be positive")

    @property
    def N(self):
        return server_counts(self.L, self.T, self.primes)

    @property
    def aspect(self):
        """lambda = b(1/a + 1/c), exact."""
        return Fraction(self.b, self.a) + Fraction(self.b, self.c)


def download_ratio(params):
    """D/S = sum_i N_i / p_i, exact."""
    return sum(Fraction(n, p) for n, p in zip(params.N, params.primes))


def ftp_rate(params):
    """R = (N_L * (b/L)(1/a + 1/c) + sum_i N_i/p_i)^(-1), exact."""
    upload_term = Fraction(params.N[-1], params.L) * params.aspect
    return 1 / (upload_term + download_ratio(params))


def costs(params):
    """(U, D, S) in base-field symbols; S/(U+D) equals ftp_rate identically."""
    if params.b % params.L != 0:
        raise InvalidParams(f"L={params.L} does not divide b={params.b}")
    prod = 1
    for p in params.primes:
        prod *= p
    a, b, c, L = params.a, params.b, params.c, params.L
    U = params.N[-1] * (a * b // L + b * c // L) * prod
    D = a * c * sum(n * prod // p for n, p in zip(params.N, params.primes))
    S = a * c * prod
    return U, D, S


def traditional_bound(params):
    """Upper bound on any traditional scheme's rate with recovery threshold
    N' > L: (N'((b/L)(1/a+1/c) + 1))^(-1)."""
    if params.n_prime is None or params.n_prime <= params.L:
        raise InvalidParams("traditional bound needs N' > L")
    return 1 / (params.n_prime * (params.aspect / params.L + 1))


@dataclass
class Lemma4Report:
    hypotheses_ok: dict
    inequality_holds: bool = None   # None when hypotheses fail

    @property
    def ok(self):
        return all(self.hypotheses_ok.values()) and bool(self.inequality_holds)


def lemma4_check(T, n_prime, l_prime, L, lam, eta, primes):
    """Verify the helper-lemma hypotheses, then assert its rate inequality
    with exact rationals.  When a hypothesis fails no inequality is claimed."""
    lam = Fraction(lam)
    eta = Fraction(eta)
    primes = tuple(primes)
    N = server_counts(L, T, primes)
    hyp = {}
    hyp["primes_large"] = eta > 0 and all(p >= 2 * L * (L + T - 1) * eta for p in primes)
    hyp["pL_exceeds"] = primes[-1] > Fraction(L * n_prime, l_prime) - 2 * L - 2 * T + 2
    denom = Fraction(N[-1], L) - Fraction(n_prime, l_prime)
    if eta > 0 and denom > 0:
        hyp["lambda_below"] = lam < (n_prime - L - 1 / eta) / denom
    else:
        hyp["lambda_below"] = False
    report = Lemma4Report(hyp)
    if all(hyp.values()):
        lhs = 1 / (Fraction(N[-1], L) * lam + sum(Fraction(n, p) for n, p in zip(N, primes)))
        rhs = 1 / (n_prime * (lam / l_prime + 1))
        report.inequality_holds = lhs > rhs
    return report


@dataclass
class CrossoverReport:
    primes: tuple
    N_L: int
    K: Fraction
    hypotheses_ok: dict


def crossover_K(L, T, n_prime, eta, primes):
    """K = (N' - L - 1/eta) / (N_L/L - N'/L), with L' = L.  For every
    aspect ratio below K the helper-lemma inequality holds."""
    eta, primes = Fraction(eta), check_layout(L, T, primes)
    N_L = server_counts(L, T, primes)[-1]
    hyp = {
        "eta_positive": eta > 0,
        "primes_large": eta > 0 and all(p >= 2 * L * (L + T - 1) * eta for p in primes),
        "pL_exceeds": primes[-1] > n_prime - 2 * L - 2 * T + 2,
        "denominator_positive": Fraction(N_L, L) - Fraction(n_prime, L) > 0,
    }
    if not all(hyp.values()):
        raise HypothesesFail(f"failed: {[k for k, v in hyp.items() if not v]}")
    K = (n_prime - L - 1 / eta) / (Fraction(N_L, L) - Fraction(n_prime, L))
    return CrossoverReport(primes, N_L, K, hyp)


def rate_crossover(L, T, primes, n_prime, l_prime=None):
    """Exact aspect-ratio threshold below which this scheme's rate beats a
    traditional scheme with recovery threshold N' and partitioning L':
    solve (N_L/L - N'/L') lambda < N' - sum_i N_i/p_i."""
    if l_prime is None:
        l_prime = L
    primes = check_layout(L, T, primes)
    N = server_counts(L, T, primes)
    slope = Fraction(N[-1], L) - Fraction(n_prime, l_prime)
    gap = n_prime - sum(Fraction(n, p) for n, p in zip(N, primes))
    if slope <= 0:
        raise InvalidParams("this scheme dominates for all aspect ratios (non-positive slope)")
    return gap / slope


def prime_search(L, T, n_prime, l_prime, eta):
    """Smallest L distinct ascending primes with p_i >= 2L(L+T-1)eta and
    p_L > L*N'/L' - 2L - 2T + 2."""
    eta = Fraction(eta)
    lower = 2 * L * (L + T - 1) * eta
    tail = Fraction(L * n_prime, l_prime) - 2 * L - 2 * T + 2

    def next_prime(n):
        n = max(n, 2)
        while not is_prime(n):
            n += 1
        return n

    out = []
    cand = next_prime(_ceil_fraction(lower))
    while len(out) < L - 1:
        out.append(cand)
        cand = next_prime(cand + 1)
    while cand <= tail:
        cand = next_prime(cand + 1)
    out.append(cand)
    return out


def _ceil_fraction(x):
    x = Fraction(x)
    return -((-x.numerator) // x.denominator)


def format_rational(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s):
    """The Fraction written as an integer or num/den; ValueError for text of
    another form or a zero denominator."""
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def rates_table(rows):
    """CSV text for a list of RateParams; rationals rendered as num/den so the
    table parses back exactly."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for params in rows:
        r = ftp_rate(params)
        baseline_name = ""
        baseline_rate = ""
        winner = "ftp"
        if params.n_prime is not None:
            baseline_name = "traditional-bound"
            br = traditional_bound(params)
            baseline_rate = format_rational(br)
            winner = "ftp" if r > br else ("baseline" if br > r else "tie")
        writer.writerow([
            params.a, params.b, params.c, params.L, params.T,
            ":".join(str(p) for p in params.primes),
            params.N[-1],
            format_rational(r),
            baseline_name,
            baseline_rate,
            winner,
        ])
    return buf.getvalue()
