"""Matrices over a base or tower field, inner-product block partitioning, and
the pinned deterministic RNG (splitmix64 with per-digit rejection sampling)."""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimMismatch, NotDivisible

_MASK64 = (1 << 64) - 1
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


class SplitMix64:
    """splitmix64; digits are drawn by rejection so every residue is exactly
    uniform and runs reproduce across platforms."""

    def __init__(self, seed):
        self.state = seed & _MASK64

    def next64(self):
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, n):
        bound = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next64()
            if v < bound:
                return v % n

    def digits(self, n, count):
        """``count`` successive ``below(n)`` draws (n <= 2^63) as one int64
        array, leaving the same state: the stream is computed in uint64
        numpy arithmetic, which wraps mod 2^64, in batches of candidates
        until ``count`` pass the rejection bound."""
        bound = (1 << 64) - ((1 << 64) % n)
        kept, left = [np.zeros(0, dtype=np.uint64)], count
        while left:
            steps = np.arange(1, left + left // 3 + 2, dtype=np.uint64)
            z = np.uint64(self.state) + steps * np.uint64(_GAMMA)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
            z ^= z >> np.uint64(31)
            ok = np.arange(left) if bound == 1 << 64 else np.flatnonzero(z < bound)[:left]
            used = int(ok[-1]) + 1 if len(ok) == left else len(z)
            self.state = (self.state + used * _GAMMA) & _MASK64
            kept.append(z[ok] % np.uint64(n))
            left -= len(ok)
        return np.concatenate(kept).astype(np.int64)


class Mat:
    """rows x cols matrix of field elements, held as one int64 tensor of
    shape (rows, cols, *field.shape); ``data[r][c]`` is an element."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows, cols, data):
        shape = (rows, cols) + field.shape
        try:
            data = np.array(data, dtype=np.int64)
        except ValueError as exc:
            raise DimMismatch(f"data does not fill {rows}x{cols}") from exc
        if data.shape != shape:
            raise DimMismatch(f"data does not fill {rows}x{cols}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, rows, cols, np.zeros((rows, cols) + field.shape, dtype=np.int64))

    def _like(self, data):
        return Mat(self.field, self.rows, self.cols, data)

    def add(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        return self._like((self.data + other.data) % self.field.base.p)

    def neg(self):
        return self._like(-self.data % self.field.base.p)

    def scale(self, c):
        """Every entry times the field element c."""
        return self._like(self.field.mul(self.data, c))

    def eq(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        p = self.field.base.p
        return np.array_equal(self.data % p, other.data % p)


def mat_mul(x, y):
    if x.cols != y.rows:
        raise DimMismatch(f"{x.rows}x{x.cols} times {y.rows}x{y.cols}")
    return Mat(x.field, x.rows, y.cols, kernels.matmul(x.field, x.data, y.data))


@dataclass
class Partition:
    L: int
    A_blocks: list
    B_blocks: list


def partition_inner(A, B, L):
    """Split A into L column blocks and B into L row blocks so that
    AB = sum_l A_l B_l."""
    if A.cols != B.rows:
        raise DimMismatch("inner dimensions differ")
    if A.cols % L != 0:
        raise NotDivisible(f"L={L} does not divide b={A.cols}")
    w = A.cols // L
    a_blocks = [
        Mat(A.field, A.rows, w, A.data[:, l * w : (l + 1) * w]) for l in range(L)
    ]
    b_blocks = [
        Mat(B.field, w, B.cols, B.data[l * w : (l + 1) * w]) for l in range(L)
    ]
    return Partition(L, a_blocks, b_blocks)


def random_mat(rows, cols, field, seed=None, rng=None):
    """Entrywise-uniform matrix; deterministic for a fixed seed.  Entries are
    drawn row-major."""
    if rng is None:
        rng = SplitMix64(0 if seed is None else seed)
    shape = (rows, cols) + field.shape
    return Mat(field, rows, cols, rng.digits(field.base.p, int(np.prod(shape))).reshape(shape))
