"""Finite-field stack: base extensions F_{q0} = F_p^d (F_p itself is the
degree-1 case) and composite towers F_q = F_{q0}(a_1, ..., a_L) with one axis
per extension.

Representation: a tower element is an int64 tensor of shape
(p_1, ..., p_L, d); entry [e_1, ..., e_L, k] is the F_p coefficient of
x^k in the F_{q0} coefficient of a_1^{e_1} * ... * a_L^{e_L}.  This is the
tensor-product representation F_{q0}[x_1, ..., x_L]/(m_1, ..., m_L), valid
because the axis degrees are pairwise coprime.

Construction: every modulus, the base one over F_p and each axis one over
F_{q0}, is found by one routine over a coefficient field F of order q.  A
monic m of degree n is an (n + 1, d) array.  Its table X[k] = x^k mod m,
k < 2n - 1, gives the reduction matrix of products and the trace scalars
tr(a^s) = sum_k X[s + k][k], the trace of multiplication by a^s (Lidl &
Niederreiter, Finite Fields, Ch. 2).  The q-power rows x^(kq) mod m give the
Frobenius map and Rabin's irreducibility test (M. O. Rabin, SIAM J. Comput.
9, 1980): x^(q^n) = x mod m, and gcd(x^(q^(n/r)) - x, m) = 1 for each prime
r | n, a gcd tested as the full F_p rank of multiplication by that
difference mod m.  For r = n that gcd is 1 iff m has no root in F: a small F
screens for roots first, in place of that rank test, and composite degrees
keep theirs.  The modulus is the first candidate, in lexicographic order, to
pass.

Traces to the maximal subfields F_i = F_{q0}(a_j : j != i) collapse axis i
with the trace scalars; the naive Frobenius-iterate definition is kept in
the test suite as an oracle.
"""

import functools
import math

import numpy as np

from .errors import (
    BadGroupIndex,
    FieldMismatch,
    InvalidParams,
    NoIrreducible,
    NonPrime,
    NormOutsideBase,
    PrimesNotAscendingDistinct,
    Singular,
    SingularGram,
    ZeroInverse,
)
from .kernels import matmul, on_axes, support
from .linalg import mat_inverse
from .poly import divide_at


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _digits(k, p, width):
    """The ``width`` base-p digits of k, or of each k in a range, most significant
    first: the enumeration order (c_0 first) of elements and candidate moduli."""
    powers = p ** np.arange(width - 1, -1, -1, dtype=object)
    return (np.asarray(k, dtype=object)[..., None] // powers % p).astype(np.int64)


def _full_rank(M, p):
    """True iff the square F_p matrix M is invertible: Gaussian elimination
    mod p, one pivot column at a time."""
    M = M % p
    for col in range(len(M)):
        live = np.flatnonzero(M[col:, col])
        if not len(live):
            return False
        M[[col, col + live[0]]] = M[[col + live[0], col]]
        M[col] = M[col] * pow(int(M[col, col]), -1, p) % p
        M[col + 1 :] = (M[col + 1 :] - np.outer(M[col + 1 :, col], M[col])) % p
    return True


def check_primes(primes):
    """primes as a tuple of ints, if they are one or more distinct ascending primes."""
    primes = tuple(int(p) for p in primes)
    if not primes or not all(map(is_prime, primes)) or sorted(set(primes)) != list(primes):
        raise PrimesNotAscendingDistinct(f"primes must be distinct ascending: {primes}")
    return primes


# -- moduli: one routine over a coefficient field F -----------------------------

def _fp_matrix(F, rows):
    """The F_p matrices of the F-linear maps x^k -> rows[..., k, :] on flat
    coefficient rows: row y^a x^k, y the generator of F, is y^a rows[..., k, :]."""
    *lead, k, n, d = rows.shape
    return np.swapaxes(F.mul_matrix(rows), -3, -2).reshape(*lead, k * d, n * d)


def _extension_tables(F, ms):
    """For a stack of monic m of degree n over F, each an (n + 1, d) array,
    one entry per candidate: the rows X[k] = x^k mod m (k < 2n - 1), the
    ((2n - 1)d, nd) F_p matrix R that takes a product's coefficients mod m,
    and the q-power rows Q[k] = x^(kq) mod m (k < n, q = |F|); or None if m
    is reducible (Rabin).  The candidates take each step together, as
    stacked matmuls, and one that a step rejects takes no later rank test.
    Where F is small, a root, found by one Horner pass over all of F, rejects
    m first, in place of the rank test of gcd(x^q - x, m) = 1."""
    n, d, p = ms.shape[1] - 1, F.d, F.p
    live = np.arange(len(ms))
    screened = n > 1 and F.order * d * d <= 2**15  # entries in F's multiplication matrices
    if screened:
        value, by_t = np.broadcast_to(ms[:, -1, None], (len(ms), F.order, d)), F._element_mats
        for c in ms[:, -2::-1].swapaxes(0, 1):
            value = ((value[..., None, :] @ by_t)[..., 0, :] + c[:, None]) % p
        live = np.flatnonzero(value.any(axis=2).all(axis=1))
    S = len(live)
    X = np.zeros((S, 2 * n - 1, n, d), dtype=np.int64)
    X[:, 0, 0] = F.one()
    by_m = F.mul_matrix(ms[live, :n])
    for k in range(1, 2 * n - 1):  # x^k = x * x^(k-1), with x^n = -sum m_j x^j
        X[:, k, 1:] = X[:, k - 1, :-1]
        X[:, k] = (X[:, k] - (X[:, k - 1, -1, None, None] @ by_m)[:, :, 0]) % p
    R = _fp_matrix(F, X)
    if n == 1:
        return [(X[s], R[s], X[s, :1]) for s in range(S)]  # every m is x - c

    def spread(b):  # multiplication by b, on flat rows, before R reduces it mod m
        U = np.zeros((S, n, d, 2 * n - 1, d), dtype=np.int64)
        by_b = F.mul_matrix(b.reshape(S, n, d)).swapaxes(1, 2)
        for i in range(n):
            U[:, i, :, i : i + n] = by_b
        return U.reshape(S, n * d, (2 * n - 1) * d)

    def apply(v, M):  # each candidate's row v times its matrix M
        return (v[:, None] @ M)[:, 0] % p

    x, by_x = X[:, 1].reshape(S, n * d), _fp_matrix(F, X[:, 1 : n + 1])
    Q = [X[:, 0].reshape(S, n * d)]
    xq = Q[0]
    for bit in bin(F.order)[2:]:  # square-and-multiply, high bit first
        xq = apply(apply(xq, spread(xq)), R)
        if bit == "1":
            xq = apply(xq, by_x)
    by_xq = spread(xq) @ R % p
    for _ in range(1, n):
        Q.append(apply(Q[-1], by_xq))
    Q = np.stack(Q, axis=1).reshape(S, n, n, d)
    frob = _fp_matrix(F, Q)  # the q-power map fixes F, so it is F-linear
    v, ok = x, np.ones(S, dtype=bool)
    for j in range(1, n + 1):
        v = apply(v, frob)  # x^(q^j)
        if (j > 1 or not screened) and j < n and n % j == 0 and is_prime(n // j):
            # gcd(v - x, m) = 1 iff multiplication by v - x mod m is invertible.
            by_diff = spread((v - x) % p) @ R % p
            ok = np.array([o and _full_rank(M, p) for o, M in zip(ok, by_diff)], dtype=bool)
    ok &= (v == x).all(axis=1)
    tables = dict(zip(live[ok], zip(X[ok], R[ok], Q[ok])))
    return [tables.get(c) for c in range(len(ms))]


def _candidates(F, n, lo, hi):
    """The monic candidates of degree n over F with enumeration indices
    lo..hi - 1, as one (hi - lo, n + 1, d) stack: c_0, ..., c_(n-1) by the
    index's digits, then the leading 1."""
    c = _digits(range(lo, hi), F.p, n * F.d).reshape(hi - lo, n, F.d)
    return np.concatenate([c, np.broadcast_to(F.one(), (hi - lo, 1, F.d))], axis=1)


_SEARCH_BLOCK = 16  # candidates per stack in the moduli search


def _smallest_irreducible(F, n):
    """The lexicographically smallest monic irreducible of degree n over F
    (coefficients compared low-degree first, by F's enumeration index), and
    its tables, from stacks of _SEARCH_BLOCK candidates in that order.  Past
    degree 1, c_0 = 0 means x | m, so those are skipped."""
    q = F.order
    for lo in range(q ** (n - 1) if n > 1 else 0, q**n, _SEARCH_BLOCK):
        ms = _candidates(F, n, lo, min(lo + _SEARCH_BLOCK, q**n))
        for m, tables in zip(ms, _extension_tables(F, ms)):
            if tables is not None:
                return tuple(np.copy(a) for a in (m, *tables))  # not views into the block
    raise NoIrreducible(f"no irreducible of degree {n} over F_{q}")


class _Field:
    """Arithmetic shared by BaseField and TowerField, on int64 tensors of
    elements (..., *self.shape) whose leading axes broadcast."""

    def add(self, x, y):
        return (x + y) % self.base.p

    def sub(self, x, y):
        return (x - y) % self.base.p

    def neg(self, x):
        return (-x) % self.base.p

    def mul(self, x, y):
        """x * y element by element, as a product of kernels.matmul: a
        single element is the 1 x 1 right factor of one column product with
        the other operand, and two stacks are a batch of 1 x 1 products."""
        n = len(self.shape)
        x, y = np.asarray(x), np.asarray(y)
        one = math.prod(self.shape)
        if x.size == one:  # the product commutes: the single element goes right
            x, y = y, x
        if y.size == one:
            lead = (1,) * (y.ndim - x.ndim) + x.shape[:-n]  # y's leading axes are all 1
            prod = matmul(self, x.reshape((-1, 1) + self.shape), y.reshape((1, 1) + self.shape))
            return prod.reshape(lead + self.shape)
        cell = (1, 1) + self.shape
        prod = matmul(self, x.reshape(x.shape[:-n] + cell), y.reshape(y.shape[:-n] + cell))
        return prod.reshape(prod.shape[: -n - 2] + self.shape)

    def structure_constants(self):
        """The (n, n n) float64 table C, n = prod(self.shape), whose row v,
        column (u, o) holds digit o of e_u e_v, for e_u the basis element
        with digit u equal to 1: y's multiplication matrix is y's digits
        times C.  It is mul_matrix of the basis (a base field's _by_digit),
        built on first use and cached, as subtowers are."""
        if self._structure is None:
            n = math.prod(self.shape)
            basis = np.eye(n, dtype=np.int64).reshape((n,) + self.shape)
            self._structure = self.mul_matrix(basis).reshape(n, n * n).astype(np.float64)
        return self._structure

    def pow(self, x, e):
        result = self.one()
        b = x % self.base.p
        while e:
            if e & 1:
                result = self.mul(result, b)
            b = self.mul(b, b)
            e >>= 1
        return result

    def eq(self, x, y):
        return np.array_equal(x % self.base.p, y % self.base.p)

    def is_zero(self, x):
        return not (x % self.base.p).any()


class BaseField(_Field):
    """F_{q0} = F_p[x]/(modulus), elements as int64 coefficient vectors of
    length d (low degree first).  The modulus is found, or checked, over
    F_p, the degree-1 BaseField."""

    def __init__(self, p, d, modulus=None):
        if not is_prime(p):
            raise NonPrime(f"{p} is not prime")
        if d < 1:
            raise NoIrreducible("degree must be >= 1")
        self.p = p
        self.d = d
        # x^0 = 1 is the one row of every degree-1 table, so F_p can
        # multiply before its own (degree-1) modulus is chosen.
        self._redmat = self._by_digit = np.ones((1, 1), dtype=np.int64)
        fp = self if d == 1 else BaseField(p, 1)
        if modulus is None:
            m, _, self._redmat, _ = _smallest_irreducible(fp, d)
        else:
            m = np.array([int(c) % p for c in modulus], dtype=np.int64).reshape(-1, 1)
            if len(m) != d + 1 or m[-1, 0] != 1:
                raise NoIrreducible("modulus must be monic of degree d")
            tables = _extension_tables(fp, m[None])[0]
            if tables is None:
                raise NoIrreducible(f"modulus {m[:, 0].tolist()} is reducible over F_{p}")
            self._redmat = tables[1]
        self.modulus = tuple(int(c) for c in m[:, 0])
        # Row j, entry (a, b): entry b of x^(a + j) mod the modulus, so row j
        # is the matrix of multiplication by x^j.
        j, a = np.indices((d, d))
        self._by_digit = self._redmat[j + a].reshape(d, d * d)
        self._structure = None
        # A tower with no axes, so that kernels takes tensors of base-field
        # elements as it takes those of tower elements.
        self.base, self.primes, self.L, self.shape = self, (), 0, (d,)
        self._ext_shape, self._redmats = (), []

    @property
    def order(self):
        return self.p**self.d

    def zero(self):
        return np.zeros(self.d, dtype=np.int64)

    def one(self):
        e = np.zeros(self.d, dtype=np.int64)
        e[0] = 1
        return e

    def from_coeffs(self, coeffs):
        x = np.asarray(coeffs, dtype=np.int64) % self.p
        if x.shape != (self.d,):
            raise FieldMismatch(f"expected {self.d} coefficients")
        return x

    def from_int(self, k):
        return _digits(k, self.p, self.d)

    def to_int(self, x):
        v = 0
        for c in x:
            v = v * self.p + int(c)
        return v

    @functools.cached_property
    def _element_mats(self):
        """The (q, d, d) multiplication matrices of all q elements."""
        return self.mul_matrix(np.indices((self.p,) * self.d).reshape(self.d, -1).T)

    def mul_matrix(self, s):
        """d x d matrices of multiplication by the elements s[..., :] acting
        on coefficient rows: (x @ M)[b] = coeff b of x*s, one sum over the
        digits j of s of s[j] times the matrix of multiplication by x^j."""
        return (s @ self._by_digit % self.p).reshape(np.shape(s)[:-1] + (self.d, self.d))

    def mul(self, x, y):
        """x * y element by element, leading axes broadcast: x's digits times
        y's multiplication matrices, one int64 matmul of d terms, which stays
        exact where mul_matrix's does."""
        return (np.asarray(x)[..., None, :] @ self.mul_matrix(y))[..., 0, :] % self.p

    def inv(self, x):
        """Element by element over a stack x (..., d): one Fermat power."""
        if not (np.asarray(x) % self.p).any(axis=-1).all():
            raise ZeroInverse("0 has no inverse")
        return self.pow(x, self.order - 2)

    def random(self, rng):
        return rng.digits(self.p, self.d)

    def __eq__(self, other):
        return (
            isinstance(other, BaseField)
            and other.p == self.p
            and other.d == self.d
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("BaseField", self.p, self.d, self.modulus))

    def __repr__(self):
        return f"BaseField(p={self.p}, d={self.d})"


def make_base_field(p, d):
    """F_{p^d} with the lexicographically smallest monic irreducible modulus."""
    return BaseField(p, d)


class TowerField(_Field):
    """F_q = F_{q0}(a_1, ..., a_L) with per-axis moduli m_i, the
    lexicographically smallest monic irreducibles of degree p_i over F_{q0},
    each a (p_i + 1, d) array."""

    def __init__(self, base, primes):
        primes = check_primes(primes)
        axes = []
        for n in primes:
            m, X, R, Q = _smallest_irreducible(base, n)
            s = np.arange(n)
            by_trace = base.mul_matrix(X[s[:, None] + s, s].sum(axis=1) % base.p)  # tr(x^s)
            # tr(x^k) = sum_j X[k][j] tr(x^j) for k < 2n - 1, as tr is F_q0-linear.
            traces = np.einsum("kja,jab->kb", X, by_trace) % base.p
            # Row (t, u), column (s, v): entry [u, v] of multiplication by tr(x^(s+t)).
            hankel = base.mul_matrix(traces[s[:, None] + s]).transpose(0, 2, 1, 3)
            axes.append((m, R, base.mul_matrix(Q), hankel.reshape(n * base.d, -1)))
        self._set_axes(base, primes, axes)

    def _set_axes(self, base, primes, axes):
        """Lay out the tower from one (modulus, reduction, Frobenius, Hankel
        trace) table tuple per axis."""
        self.base = base
        self.primes = primes
        self.L = len(primes)
        self.shape = primes + (base.d,)
        self.flat_size = int(np.prod(primes))
        self._ext_shape = tuple(2 * p - 1 for p in primes)
        self._ext_flat = int(np.prod(self._ext_shape))
        # _past_origin[k, i]: the flat multi-index i is past 0 on axis k.
        self._past_origin = np.indices(primes).reshape(self.L, -1) > 0
        self.moduli, self._redmats, self._frob_mats, self._hankel_mats = map(list, zip(*axes))
        self._subtowers = {}
        self._structure = None

    def subtower(self, axes):
        """F_q0(a_k : k in axes), for ascending 0-based axes, built from this
        tower's tables and cached on it; the base field for no axes, and
        this tower for all of them."""
        axes = tuple(axes)
        if not axes:
            return self.base
        if len(axes) == self.L:
            return self
        sub = self._subtowers.get(axes)
        if sub is None:
            sub = TowerField.__new__(TowerField)
            sub._set_axes(self.base, tuple(self.primes[k] for k in axes),
                          [(self.moduli[k], self._redmats[k], self._frob_mats[k],
                            self._hankel_mats[k]) for k in axes])
            sub = self._subtowers.setdefault(axes, sub)
        return sub

    def mul_matrix(self, z):
        """The (..., n, n) float64 F_p matrices of multiplication by the
        elements z (..., *shape) of this field, on its n digits: row u holds
        the digits of e_u z.  No product of elements makes them: the rows
        are z times each x^a on the base digit, then, axis by axis from the
        last, the rows so far times each power of a_k, by the matrix of a_k
        that axis k's reduction table holds in its rows for x^1 .. x^(p_k)."""
        d, p = self.base.d, self.base.p
        at = np.ndim(z) - len(self.shape)  # the row axis, after z's leading axes
        z = (np.asarray(z) % p).astype(np.float64)
        rows = np.stack([on_axes(self, z, (), by_x.reshape(d, d)) for by_x in self.base._by_digit], at)
        for k in reversed(range(self.L)):
            by_a = self._redmats[k][d : (self.primes[k] + 1) * d]
            powers = [rows]
            for _ in range(self.primes[k] - 1):
                powers.append(on_axes(self, powers[-1], (k,), by_a))
            rows = np.concatenate(powers, at)
        return rows.reshape(rows.shape[: at + 1] + (-1,))

    @functools.cached_property
    def _addtable(self):
        """[i, j]: the flat index of i + j in the extended multi-index
        space, for flat tower multi-indices i and j; built on first use, as
        only kernels.convolve reads it."""
        m = self.flat_size
        idx = np.stack(np.unravel_index(np.arange(m), self.primes), axis=1)
        sums = idx[:, None, :] + idx[None, :, :]
        flat = np.ravel_multi_index(
            tuple(sums[:, :, k] for k in range(self.L)), self._ext_shape
        )
        return np.ascontiguousarray(flat.astype(np.int64))

    # -- element constructors ---------------------------------------------------

    @property
    def order_int(self):
        return self.base.order**self.flat_size

    def zero(self):
        return np.zeros(self.shape, dtype=np.int64)

    def one(self):
        e = self.zero()
        e[(0,) * self.L + (0,)] = 1
        return e

    def embed_base(self, b, axes=()):
        """Elements of F_q0 (..., d), or of the subtower on the given 0-based
        axes (..., *self.subtower(axes).shape), as elements of this tower."""
        e = np.zeros(np.shape(b)[: np.ndim(b) - len(axes) - 1] + self.shape, dtype=np.int64)
        e[(..., *(slice(None) if k in axes else 0 for k in range(self.L)), slice(None))] = b
        return e

    def embed_scalar_int(self, k):
        return self.embed_base(self.base.from_int(k))

    def gen(self, i):
        """The generator a_i (1-based axis index)."""
        self._check_axis(i)
        e = self.zero()
        idx = [0] * self.L
        idx[i - 1] = 1
        e[tuple(idx)] = self.base.one()
        return e

    def from_int(self, k):  # the base digits, most significant first, are k's base-p digits
        return _digits(k, self.base.p, self.flat_size * self.base.d).reshape(self.shape)

    def to_int(self, x):
        return self.base.to_int(x.reshape(-1))

    def random(self, rng):
        return rng.digits(self.base.p, self.flat_size * self.base.d).reshape(self.shape)

    # -- arithmetic --------------------------------------------------------------

    def _axis(self, i):
        """Array axis of tower axis i (1-based), from the end: batch axes lead."""
        return i - 2 - self.L

    def support_axes(self, x):
        """1-based axes on which x has coefficients above index 0."""
        return [k + 1 for k in support(self, np.asarray(x))]

    def in_subfield(self, x, i):
        """True iff x lies in F_i = F_{q0}(a_j : j != i)."""
        self._check_axis(i)
        return not np.take(x, range(1, self.primes[i - 1]), axis=self._axis(i)).any()

    def inv(self, x):
        """Element by element over a stack x (..., *shape), in the subtower
        K = F_q0(a_i : i in the stack's support): each element's inverse is
        its inverse in K, embedded.  A zero element has norm 0, which
        BaseField.inv refuses."""
        x = np.asarray(x) % self.base.p
        axes = support(self, x)
        spanned = (..., *(slice(None) if k in axes else 0 for k in range(self.L)), slice(None))
        sub = self.subtower(axes)
        return self.embed_base((sub._itoh_tsujii if axes else sub.inv)(x[spanned]), axes)

    def _itoh_tsujii(self, x):
        """x^-1 = N(x)^-1 * x^(r-1) for x in this tower, of degree n over
        F_q0, where r = (q0^n - 1)/(q0 - 1), x^(r-1) = prod_{t=1}^{n-1}
        x^(q0^t), and the norm N(x) = x * x^(r-1) lies in F_q0."""
        # t_k = x^(1 + q0 + ... + q0^(k-1)), built along the bits of n - 1:
        # t_2k = t_k * t_k^(q0^k) and t_(k+1) = x * t_k^q0.
        t, k = x, 1
        for bit in bin(self.flat_size - 1)[3:]:
            t = self.mul(t, self.frobenius(t, k))
            k *= 2
            if bit == "1":
                t = self.mul(x, self.frobenius(t))
                k += 1
        x_r1 = self.frobenius(t)
        norm = self.mul(x, x_r1)
        if self.support_axes(norm):
            raise NormOutsideBase("the norm of x is not in F_q0")
        origin = (..., *(0,) * self.L, slice(None))
        return self.mul(x_r1, self.embed_base(self.base.inv(norm[origin])))

    def frobenius(self, x, e=1):
        """x^(q0^e).  The q0-power map acts on each axis alone, as the linear
        map _frob_mats[k] of order p_k, so axis k takes e mod p_k steps, each
        one on_axes product."""
        cur = np.asarray(x) % self.base.p
        for k, (p_k, frob) in enumerate(zip(self.primes, self._frob_mats)):
            by = frob.transpose(0, 2, 1, 3).reshape(p_k * self.base.d, -1).astype(np.float64)
            for _ in range(e % p_k):
                cur = on_axes(self, cur, (k,), by)
        return cur

    def trace_to_subfield(self, x, i):
        """tr_{F_q/F_i}(x): collapse axis i with the small-trace scalars, one
        on_axes product by a matrix that holds them in its column block 0,
        so that the trace lands at index 0 of axis i."""
        self._check_axis(i)
        d = self.base.d
        by = np.zeros((self.primes[i - 1] * d,) * 2)
        by[:, :d] = self._hankel_mats[i - 1][:, :d]  # tr(a_i^s), s < p_i
        return on_axes(self, np.asarray(x) % self.base.p, (i - 1,), by)

    def trace_scalars(self, w, i):
        """tau_s = tr_i(w a_i^s) for s < p_i, as a (..., p_i, d) tensor over
        F_q0, for w (..., *shape) in F_q0(a_i): with w_t in F_q0 its
        coefficient of a_i^t, tau_s = sum_t w_t tr_i(a_i^(s+t)), one matmul
        of w's axis-i line by the Hankel table of those traces, which lie in
        F_q0.  InvalidParams if w has a nonzero digit off that line."""
        self._check_axis(i)
        w = np.asarray(w)
        line = w[(..., *(slice(None) if k == i - 1 else 0 for k in range(self.L)), slice(None))]
        if np.count_nonzero(w) != np.count_nonzero(line):
            raise InvalidParams(f"a trace scalar w of group {i} does not lie in F_q0(a_{i})")
        tau = line.reshape(line.shape[:-2] + (-1,)) @ self._hankel_mats[i - 1] % self.base.p
        return tau.reshape(line.shape)

    def _check_axis(self, i):
        if not 1 <= i <= self.L:
            raise BadGroupIndex(f"group index {i} not in [1, {self.L}]")

    def __eq__(self, other):
        if not isinstance(other, TowerField):
            return False
        return other is self or (other.base == self.base and other.primes == self.primes
                and all(map(np.array_equal, self.moduli, other.moduli)))

    def __hash__(self):
        return hash(("TowerField", self.base, self.primes))

    def __repr__(self):
        return f"TowerField(q0={self.base.order}, primes={list(self.primes)})"


def make_tower(base, primes):
    """The composite field F_{q0}(a_1, ..., a_L) for distinct ascending primes."""
    return TowerField(base, primes)


def trace_to_subfield(field, x, i):
    return field.trace_to_subfield(x, i)


def power_basis_dual(field, scale, i):
    """The basis lambda_s = scale * a_i^s (s < p_i) of F_q over F_i, and its
    trace dual in closed form (Lidl & Niederreiter, Finite Fields, 2.3).
    m_i stays the minimal polynomial of a_i over F_i, since the axis degrees
    are coprime.  With m_i(x)/(x - a_i) = sum_s b_s x^s, the dual is
    mu_s = b_s / (scale * m_i'(a_i)), and m_i'(a_i) = sum_s b_s a_i^s.  The
    b_s come from one synthetic division at a_i, whose powers are read off
    the modulus; lambda, scale * m_i'(a_i) and mu are three products, and the
    dual costs one inversion."""
    field._check_axis(i)
    n, m, p = field.primes[i - 1], field.moduli[i - 1], field.base.p
    # a_i^e for e < p_i, and a_i^(p_i) = -sum_s m_s a_i^s, by their coefficients
    on = np.concatenate([np.eye(n, dtype=np.int64)[..., None] * field.base.one(), -m[None, :n]])
    a_powers = field.embed_base(on % p, [i - 1])
    b = divide_at(field, m, a_powers)[1:]
    lambdas = field.mul(a_powers[:-1], scale)
    deriv = matmul(field, b[None], lambdas[:, None])[0, 0]
    return lambdas, field.mul(b, field.inv(deriv))


def trace_dual_basis(field, lambdas, i):
    """Basis {mu_t} with tr_i(lambda_s * mu_t) = delta_st: mu = G^-1 lambda
    for the Gram matrix G_st = tr_i(lambda_s * lambda_t) over F_i."""
    field._check_axis(i)
    lambdas = np.asarray(lambdas)
    gram = field.trace_to_subfield(field.mul(lambdas[:, None], lambdas[None]), i)
    try:
        ginv = mat_inverse(field, gram)
    except Singular as exc:
        raise SingularGram("lambda set is not a basis") from exc
    return matmul(field, ginv, lambdas[:, None])[:, 0]
