"""Dense univariate polynomials over any field object from ``fields``, held
as tensors: evaluation, Lagrange interpolation/basis, annihilators, and the
dual-code weights of a Reed-Solomon evaluation domain.

On any points these come from the annihilator A(x) = prod (x - w): the dual
weights are A'(w_j)^-1 and the Lagrange basis is A/(x - w_k) * A'(w_k)^-1.
The scheme's setup needs only products of inverses (u - a_i)^-1, each read
off one division m_i(x) = (x - u) Q(x) + m_i(u) as Q(a_i)/m_i(u) (divide_at).
Values at points of F_q0 are one F_q0 Vandermonde product, and at any other
point one product of the row of its powers with the coefficients."""

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import kernels
from .errors import DimMismatch, DuplicatePoint, FieldMismatch


class Poly:
    """Coefficients low degree first, as one (deg + 1, *field.shape) int64
    tensor reduced mod p, trailing zeros trimmed: ``coeffs[s]`` is the
    coefficient of x^s, and the zero polynomial has no rows."""

    def __init__(self, field, coeffs):
        self.field = field
        c = np.asarray(coeffs, dtype=np.int64).reshape((-1,) + field.shape) % field.base.p
        live = np.flatnonzero(c.any(axis=tuple(range(1, c.ndim))))
        self.coeffs = c[: live[-1] + 1 if len(live) else 0]

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def one(cls, field):
        return cls(field, [field.one()])

    def is_zero(self):
        return not len(self.coeffs)

    def add(self, other):
        out = np.zeros((max(len(self.coeffs), len(other.coeffs)),) + self.field.shape,
                       dtype=np.int64)
        out[: len(self.coeffs)] += self.coeffs
        out[: len(other.coeffs)] += other.coeffs
        return Poly(self.field, out)

    def sub(self, other):
        return self.add(Poly(self.field, -other.coeffs))

    def scale(self, c):
        """Every coefficient times the field element c."""
        return Poly(self.field, self.field.mul(self.coeffs, c))

    def eq(self, other):
        return np.array_equal(self.coeffs, other.coeffs)


def powers(field, alphas, count):
    """alpha_j^s for s < count (0^0 = 1): a (count, len(alphas),
    *field.shape) tensor, by doubling.  With the powers up to m known, those
    from m + 1 to 2m are the ones from 1 to m times alpha^m, one mul."""
    alphas = np.reshape(alphas, (-1,) + field.shape) % field.base.p
    out = np.stack([np.broadcast_to(field.one(), alphas.shape), alphas])
    while len(out) < count:
        out = np.concatenate([out, field.mul(out[1:], out[-1])])
    return out[:count]


def prefix_products(field, xs):
    """x_0 x_1 ... x_j for every j, along axis 0 of xs (n, ..., *field.shape),
    by doubling: after step t, entry j holds the product of the 2^t entries
    ending at j, one batched mul per step."""
    step = 1
    while step < len(xs):
        xs = np.concatenate([xs[:step], field.mul(xs[step:], xs[:-step])])
        step *= 2
    return xs


def divide_at(field, m, u_powers):
    """Synthetic division of a polynomial m over F_q0 (deg + 1, d) by x - u:
    m(x) = (x - u) Q(x) + m(u), with Q_s = sum_j m_(s+1+j) u^j.  From the
    powers u^j, j <= deg, of a stack of points (deg + 1, ..., *field.shape),
    one F_q0 contraction gives the rows m(u), Q_0(u), ..., Q_(deg-1)(u),
    each in the field the points generate."""
    base, n = field.base, len(m)
    r, j = np.indices((n, n))
    hankel = np.where((r + j < n)[..., None], m[np.minimum(r + j, n - 1)], 0)  # m_(r+j)
    by = base.mul_matrix(hankel).transpose(1, 2, 0, 3)  # [j, a, r, b]
    out = np.tensordot(u_powers, by, axes=([0, -1], [0, 1])) % base.p  # [..., r, b]
    return np.moveaxis(out, -2, 0)


def evaluate(field, coeffs, points):
    """Values at the points of the polynomials whose coefficients, low degree
    first, run along axis 0 of coeffs (deg + 1, ..., *field.shape), as a
    (len(points), ..., *field.shape) tensor.  At the points in F_q0 this is
    one F_q0 Vandermonde product, one float64 F_p matmul of the coefficients'
    F_q0 digits with the powers' multiplication matrices.  At the other
    points, one product of the rows of their powers with the coefficients
    replaces those rows."""
    n, d, p = len(coeffs), field.base.d, field.base.p
    points = np.reshape(points, (-1,) + field.shape) % p
    if not n:
        return np.zeros((len(points),) + coeffs.shape[1:], dtype=np.int64)
    flat = points.reshape(len(points), -1, d)
    by_power = field.base.mul_matrix(powers(field.base, flat[:, 0], n))  # [s, j, a, b]
    kernels.check_fp_exact(n * d, p)
    rows = coeffs.reshape(n, -1, d).transpose(1, 0, 2).reshape(-1, n * d) % p  # [m, (s, a)]
    out = rows.astype(np.float64) @ by_power.transpose(0, 2, 1, 3).reshape(n * d, -1)
    out = kernels.fp_mod(out, p).astype(np.int64)
    out = out.reshape(-1, len(points), d).transpose(1, 0, 2).reshape((len(points),) + coeffs.shape[1:])
    columns = coeffs.reshape((n, -1) + field.shape)
    past = np.flatnonzero(flat[:, 1:].any(axis=(1, 2)))  # the points outside F_q0
    if len(past):
        rows = powers(field, points[past], n).swapaxes(0, 1)
        out[past] = kernels.matmul(field, rows, columns).reshape((len(past),) + out.shape[1:])
    return out


def eval_poly(f, x, field=None):
    """f(x); ``field`` guards against cross-field arguments."""
    if field is not None and field != f.field:
        raise FieldMismatch("polynomial and point belong to different fields")
    return evaluate(f.field, f.coeffs, [x])[0]


def annihilator(field, points):
    """Monic product of (x - a) over the points, one linear factor at a time
    as P <- xP - aP: those in F_q0 first, over F_q0 by their multiplication
    matrices, embedded once, then the others over the field; the empty set
    gives 1."""
    base = field.base
    points = np.asarray(points, dtype=np.int64).reshape((-1,) + field.shape) % base.p
    origin = (slice(None),) + (0,) * field.L
    inside = (np.count_nonzero(points, axis=tuple(range(1, points.ndim)))
              == np.count_nonzero(points[origin], axis=-1))  # no digit off the origin
    c = np.zeros((np.count_nonzero(inside) + 1, base.d), dtype=np.int64)
    c[0] = base.one()
    for by_a in base.mul_matrix(points[origin][inside]):  # c's last row, past P's degree, is 0
        c = (np.concatenate([c[-1:], c[:-1]]) - c @ by_a) % base.p
    out = np.zeros((len(c),) + field.shape, dtype=np.int64)
    out[origin] = c
    out = Poly(field, out)
    for a in points[~inside]:
        out = Poly(field, [field.zero(), *out.coeffs]).sub(out.scale(a))
    return out


def _inverse_derivative(field, annihilated, points):
    """A'(a_j)^-1 for the annihilator A of the points, with the formal
    derivative's coefficient s = (s + 1) A_(s+1).  A'(a_j) vanishes exactly
    when a_j occurs twice."""
    c = annihilated.coeffs[1:]
    s = np.arange(1, len(c) + 1).reshape((-1,) + (1,) * (c.ndim - 1))
    values = evaluate(field, s * c % field.base.p, points)
    repeated = np.flatnonzero(~values.reshape(len(values), -1).any(axis=1))
    if len(repeated):
        raise DuplicatePoint(f"point {repeated[0]} occurs twice")
    # One inversion for all: y_j^-1 = (y_0..y_(j-1)) (y_(j+1)..y_(n-1)) / (y_0..y_(n-1))
    ends = prefix_products(field, np.stack([values, values[::-1]], axis=1))
    one = field.one()[None]
    others = field.mul(np.concatenate([one, ends[:-1, 0]]), np.concatenate([ends[-2::-1, 1], one]))
    return field.mul(others, field.inv(ends[-1, 0]))


def dual_weights(field, points):
    """v_j = A'(a_j)^-1 = prod_{i != j} (a_j - a_i)^(-1), A the points'
    annihilator: the column multipliers putting the dual of the Reed-Solomon
    code on this domain in GRS form."""
    return _inverse_derivative(field, annihilator(field, points), points)


def lagrange_coefficients(field, points):
    """The Lagrange basis on the points as one (n, n, *field.shape) tensor:
    [s, k] is coefficient s of l_k = A/(x - a_k) * A'(a_k)^-1.  The quotients
    come by synthetic division, q_(s-1) = A_s + a_k q_s from q_(n-1) = 1,
    one batched product over k per step, and one more scales them."""
    A = annihilator(field, points)
    inverses = _inverse_derivative(field, A, points)
    n, p = len(points), field.base.p
    rows = [np.broadcast_to(field.one(), (n,) + field.shape)]
    for s in range(n - 1, 0, -1):
        rows.append((A.coeffs[s] + field.mul(points, rows[-1])) % p)
    return field.mul(np.stack(rows[::-1]), inverses)  # [s, k]


def lagrange_interpolate(field, points, values):
    """Unique polynomial of degree < len(points) through the given pairs:
    one product of the Lagrange basis with the values."""
    if len(points) != len(values):
        raise DimMismatch("points and values differ in length")
    column = np.reshape(values, (len(values), 1) + field.shape)
    return Poly(field, kernels.matmul(field, lagrange_coefficients(field, points), column)[:, 0])


@dataclass
class EvalDomain:
    """Ordered distinct points with their dual-code weights."""

    field: object
    points: list
    weights: list = dc_field(default=None)

    def __post_init__(self):
        if self.weights is None:
            self.weights = dual_weights(self.field, self.points)

    def __len__(self):
        return len(self.points)


def dual_orthogonality_check(domain, k, h_values, s_count):
    """True iff sum_j v_j * k(a_j) * a_j^s * h_j = 0 for all 0 <= s < s_count."""
    fld = domain.field
    if len(h_values) != len(domain.points):
        raise FieldMismatch("one h value per domain point required")
    terms = fld.mul(domain.weights, fld.mul(evaluate(fld, k.coeffs, domain.points), h_values))
    sums = kernels.matmul(fld, powers(fld, domain.points, s_count), terms[:, None])  # [s, 1]
    return fld.is_zero(sums)
