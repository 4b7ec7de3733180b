"""The pinned L=T=1 showcase over F_16 = F_2[x]/(x^4+x+1): four servers,
evaluation points (0, a^5, a^10, a^15), server trace weights
(a^-1, a^-2, a^-8, a^-4), and the closed-form decoding identity

    a^4 (S_1+S_2+S_3+S_4) + a^5 S_2 + a^10 S_3 + a^15 S_4 = AB.

The encoder here uses the coefficient form f(x) = A + R(x - a); the general
scheme uses node interpolation.  Both are exercised by tests."""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .fields import BaseField
from .matrices import Mat, SplitMix64, mat_mul, random_mat
from .poly import powers

DEMO_MODULUS = (1, 1, 0, 0, 1)  # x^4 + x + 1
SERVER_TRACE_EXPONENTS = (1, 2, 8, 4)     # server i multiplies by a^-j_i
EVAL_EXPONENTS = (None, 5, 10, 15)        # None encodes the point 0


def demo_field():
    return BaseField(2, 4, list(DEMO_MODULUS))


@cache
def _alpha_powers(field):
    """alpha^e for e < 15, alpha = x; alpha^15 = 1, so alpha^-e = alpha^(15 - e)."""
    return powers(field, field.from_coeffs([0, 1, 0, 0]), 15)[:, 0]


def alpha_pow(field, e):
    return _alpha_powers(field)[e % 15].copy()


def trace_to_f4(field, x):
    """tr: F_16 -> F_4, x + x^4."""
    return field.add(x, field.pow(x, 4))


def demo_points(field):
    return [
        field.zero() if e is None else alpha_pow(field, e) for e in EVAL_EXPONENTS
    ]


@dataclass
class DemoResult:
    verified: bool
    a: int
    b: int
    c: int
    product: Mat
    decoded: Mat
    ftp_rate: Fraction
    traditional_rate: Fraction
    upload_symbols: int       # F_4 symbols
    download_symbols: int     # F_4 symbols


def run_demo(a=2, b=2, c=2, seed=0):
    F = demo_field()
    table = _alpha_powers(F)
    rng = SplitMix64(seed)
    A = random_mat(a, b, F, rng=rng)
    B = random_mat(b, c, F, rng=rng)
    R = random_mat(a, b, F, rng=rng)
    S = random_mat(b, c, F, rng=rng)

    points = demo_points(F)

    def f_at(y):
        return A.add(R.scale(F.sub(y, table[1])))

    def g_at(y):
        return B.add(S.scale(F.sub(y, table[1])))

    # tr is F_2-linear; row k of its matrix is tr(x^k) = alpha^k + alpha^(4k).
    trace = (table[: F.d] + table[4 * np.arange(F.d) % 15]) % F.p
    responses = []
    for i, y in enumerate(points):
        h = mat_mul(f_at(y), g_at(y))
        w = table[-SERVER_TRACE_EXPONENTS[i] % 15]
        responses.append(Mat(F, a, c, h.scale(w).data @ trace % F.p))

    s1, s2, s3, s4 = responses
    combined = s1.add(s2).add(s3).add(s4).scale(table[4])
    combined = combined.add(s2.scale(table[5]))
    combined = combined.add(s3.scale(table[10]))
    combined = combined.add(s4.scale(table[0]))

    product = mat_mul(A, B)
    return DemoResult(
        verified=combined.eq(product),
        a=a, b=b, c=c,
        product=product,
        decoded=combined,
        ftp_rate=Fraction(a * c, 4 * a * b + 4 * b * c + 2 * a * c),
        traditional_rate=Fraction(a * c, 3 * a * b + 3 * b * c + 3 * a * c),
        upload_symbols=4 * (2 * a * b + 2 * b * c),
        download_symbols=4 * a * c,
    )
