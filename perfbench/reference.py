"""Reference arithmetic and closed forms, independent of the program's own.

An element of F_q0(a_1, ..., a_L) is a flat list of ints in the program's
coefficient order: multi-index (e_1, ..., e_L, t) in C order, where t is the
power of the base-field variable x.  Products are schoolbook multivariate
products over F_p in the variables (a_1, ..., a_L, x), reduced by the moduli
the tower publishes (``base.modulus`` for x, ``tower.moduli`` for each a_i).
Nothing here calls ``kernels``, ``TowerField.mul`` or ``mat_mul``.
"""

from math import prod


class RefTower:
    """Plain-integer arithmetic for one tower, built from its published moduli."""

    def __init__(self, p, base_modulus, primes, moduli):
        self.p = p
        self.g = [int(c) % p for c in base_modulus]           # monic, degree d
        self.d = len(self.g) - 1
        self.primes = tuple(primes)
        # m_i as p_i + 1 base-field coefficient lists, monic in a_i.
        self.moduli = [[[int(c) % p for c in coeff] for coeff in m] for m in moduli]
        self.size = prod(self.primes) * self.d
        self.q = (p ** self.d) ** prod(self.primes)
        # Extended grid (2p_1-1, ..., 2p_L-1, 2d-1): index sums of two reduced
        # multi-indices never leave it, so flat extended indices simply add.
        self.ext_shape = tuple(2 * q - 1 for q in self.primes) + (2 * self.d - 1,)
        self.ext_strides = _strides(self.ext_shape)
        shape = self.primes + (self.d,)
        self.ext_index = [
            sum(e * s for e, s in zip(idx, self.ext_strides)) for idx in _indices(shape)
        ]

    @classmethod
    def of(cls, tower):
        """Reference arithmetic for a ``TowerField``, from its moduli only."""
        return cls(tower.base.p, tower.base.modulus, tower.primes, tower.moduli)

    def one(self):
        e = [0] * self.size
        e[0] = 1
        return e

    def add(self, x, y):
        return [(u + v) % self.p for u, v in zip(x, y)]

    def mul(self, x, y):
        ext = [0] * prod(self.ext_shape)
        ys = [(self.ext_index[k], v) for k, v in enumerate(y) if v]
        for k, u in enumerate(x):
            if not u:
                continue
            base = self.ext_index[k]
            for e, v in ys:
                ext[base + e] += u * v
        self._reduce_x(ext)
        for axis in range(len(self.primes)):
            self._reduce_axis(ext, axis)
        p = self.p
        return [ext[e] % p for e in self.ext_index]

    def pow(self, x, n):
        result, base = self.one(), list(x)
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def _reduce_x(self, ext):
        """x^t for t >= d becomes -sum_j g_j x^(t-d+j), for every multi-index."""
        d, g, p = self.d, self.g, self.p
        width = 2 * d - 1
        for start in range(0, len(ext), width):
            for t in range(width - 1, d - 1, -1):
                c = ext[start + t] % p
                ext[start + t] = 0
                if c:
                    for j in range(d):
                        ext[start + t - d + j] -= c * g[j]

    def _reduce_axis(self, ext, axis):
        """a_i^k for k >= p_i becomes -sum_j m_ij(x) a_i^(k-p_i+j), top k first."""
        d, p = self.d, self.p
        p_i = self.primes[axis]
        stride = self.ext_strides[axis]
        m = self.moduli[axis]
        width = 2 * d - 1
        others = [
            sum(e * s for e, s in zip(idx, self.ext_strides))
            for idx in _indices(self.ext_shape[:axis] + (1,) + self.ext_shape[axis + 1:-1] + (1,))
        ]
        for k in range(2 * p_i - 2, p_i - 1, -1):
            for base in others:
                at = base + k * stride
                c = [ext[at + t] % p for t in range(width)]
                for t in range(width):
                    ext[at + t] = 0
                c = _reduce_poly(c, self.g, d, p)
                if not any(c):
                    continue
                for j in range(p_i):
                    mj = m[j]
                    to = base + (k - p_i + j) * stride
                    for t, ct in enumerate(c):
                        if ct:
                            for u, mu in enumerate(mj):
                                ext[to + t + u] -= ct * mu
        self._reduce_x(ext)


def _reduce_poly(c, g, d, p):
    """Coefficients c (low degree first, length 2d-1) reduced mod monic g."""
    c = list(c)
    for t in range(len(c) - 1, d - 1, -1):
        lead = c[t] % p
        if lead:
            for j in range(d):
                c[t - d + j] -= lead * g[j]
    return [v % p for v in c[:d]]


def _strides(shape):
    out, acc = [], 1
    for n in reversed(shape):
        out.append(acc)
        acc *= n
    return tuple(reversed(out))


def _indices(shape):
    if not shape:
        yield ()
        return
    for head in range(shape[0]):
        for rest in _indices(shape[1:]):
            yield (head,) + rest


def mat_product(ref, A, B):
    """A B over the tower, for matrices given as lists of rows of flat elements."""
    zero = [0] * ref.size
    out = []
    for row in A:
        out_row = []
        for j in range(len(B[0])):
            acc = zero
            for k, a in enumerate(row):
                acc = ref.add(acc, ref.mul(a, B[k][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def closed_form_symbols(a, b, c, L, T, primes):
    """(upload, download) base-field symbols per job, from the paper's formulas:
    U = N_L (ab/L + bc/L) prod p_j and D = ac sum_i N_i prod_{j != i} p_j,
    with N_i = p_i + 2L + 2T - 2."""
    N = [p + 2 * L + 2 * T - 2 for p in primes]
    total = prod(primes)
    upload = N[-1] * (a * b // L + b * c // L) * total
    download = a * c * sum(n * total // p for n, p in zip(N, primes))
    return upload, download


def check_job(product, expected, ledger, symbols, d):
    """Problems with one job's output: a decoded product entry that differs from
    the reference, or a ledger count off the closed form or off bytes = d x
    symbols.  ``product`` and ``expected`` are lists of rows of flat elements;
    ``symbols`` is the (upload, download) closed form.  Empty means correct."""
    problems = []
    if len(product) != len(expected) or any(
        len(r) != len(e) for r, e in zip(product, expected)
    ):
        problems.append("decoded product has the wrong shape")
    else:
        for i, (row, exp_row) in enumerate(zip(product, expected)):
            for j, (got, want) in enumerate(zip(row, exp_row)):
                if got != want:
                    problems.append(f"product entry ({i}, {j}) differs from the reference")
    upload, download = symbols
    counts = {
        "upload symbols": (ledger.upload_symbols, upload),
        "download symbols": (ledger.download_symbols, download),
        "upload bytes": (ledger.upload_bytes, d * upload),
        "download bytes": (ledger.download_bytes, d * download),
    }
    for name, (got, want) in counts.items():
        if got != want:
            problems.append(f"ledger {name} {got} != {want}")
    return problems
