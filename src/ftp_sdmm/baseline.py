"""Executable reference schemes: the three-server L=T=1 polynomial scheme and
a secure MatDot construction for general L, T.  Both download full evaluations
(no traces); costs are counted in full-field symbols."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .errors import BadVariantParams, NotDivisible, TooFewPoints
from .ftp import CostReport
from .matrices import Mat, SplitMix64, mat_mul, partition_inner, random_mat
from .poly import evaluate, lagrange_coefficients


@dataclass
class TraditionalScheme:
    variant: str          # "Section3" or "MatDot"
    L: int
    T: int
    n_servers: int
    field: object
    points: list          # distinct evaluation points


def _canonical_points(field, count, nonzero=False):
    """First ``count`` distinct canonical field elements (base-field scalars
    embedded, for tower fields)."""
    out = []
    k = 1 if nonzero else 0
    make = getattr(field, "embed_scalar_int", None) or field.from_int
    limit = field.base.order
    while len(out) < count:
        if k >= limit:
            raise TooFewPoints(f"field has too few scalar points for {count}")
        out.append(make(k))
        k += 1
    return out


def make_traditional(field, L=1, T=1):
    if (L, T) != (1, 1):
        raise BadVariantParams("the three-server scheme requires L = T = 1")
    return TraditionalScheme("Section3", L, T, 3, field, _canonical_points(field, 3, nonzero=True))


def trad_run(scheme, A, B, seed=0):
    """f'(x) = A + Rx, g'(x) = B + Sx; interpolate h' from three evaluations
    and read off h'(0) = AB."""
    if scheme.variant != "Section3":
        raise BadVariantParams(f"trad_run expects the Section3 variant, got {scheme.variant}")
    f = scheme.field
    rng = SplitMix64(seed)
    R = random_mat(A.rows, A.cols, f, rng=rng)
    S = random_mat(B.rows, B.cols, f, rng=rng)
    evals = []
    for beta in scheme.points:
        fe = A.add(R.scale(beta))
        ge = B.add(S.scale(beta))
        evals.append(mat_mul(fe, ge))
    product = _interpolate_coefficient(f, scheme.points, evals, 0, A.rows, B.cols)
    a, b, c = A.rows, A.cols, B.cols
    report = CostReport(
        upload_symbols=3 * (a * b + b * c),
        download_symbols=3 * a * c,
        output_symbols=a * c,
    )
    return product, report


def matdot_run(L, T, A, B, field, seed=0):
    """Secure MatDot: f(x) = sum_l A_l x^(l-1) + sum_t R_t x^(L+t-1),
    g(x) = sum_l B_l x^(L-l) + sum_t S_t x^(L+t-1); AB is the coefficient of
    x^(L-1) in h = f*g, recovered from 2L+2T-1 evaluations."""
    if A.cols % L != 0:
        raise NotDivisible(f"L={L} does not divide b={A.cols}")
    n_servers = 2 * L + 2 * T - 1
    points = _canonical_points(field, n_servers)
    part = partition_inner(A, B, L)
    rng = SplitMix64(seed)
    w = A.cols // L
    R = [random_mat(A.rows, w, field, rng=rng) for _ in range(T)]
    S = [random_mat(w, B.cols, field, rng=rng) for _ in range(T)]

    # f has degree L+T-1; g's coefficient of x^(L-l) is B_l.
    f_coeffs = np.stack([m.data for m in part.A_blocks + R])
    g_coeffs = np.stack([m.data for m in part.B_blocks[::-1] + S])
    f_at = evaluate(field, f_coeffs, points)
    g_at = evaluate(field, g_coeffs, points)
    evals = [mat_mul(Mat(field, A.rows, w, fe), Mat(field, w, B.cols, ge))
             for fe, ge in zip(f_at, g_at)]
    product = _interpolate_coefficient(field, points, evals, L - 1, A.rows, B.cols)
    a, b, c = A.rows, A.cols, B.cols
    report = CostReport(
        upload_symbols=n_servers * (a * b + b * c) // L,
        download_symbols=n_servers * a * c,
        output_symbols=a * c,
    )
    return product, report


def _interpolate_coefficient(field, points, mat_evals, coeff_index, rows, cols):
    """Coefficient ``coeff_index`` of the polynomial through the evaluations,
    entry by entry: one product of that coefficient of every Lagrange basis
    polynomial with the stacked evaluations."""
    row = lagrange_coefficients(field, points)[coeff_index]
    evals = np.stack([m.data for m in mat_evals]).reshape((len(points), rows * cols) + field.shape)
    out = kernels.matmul(field, row[None], evals)
    return Mat(field, rows, cols, out.reshape((rows, cols) + field.shape))
