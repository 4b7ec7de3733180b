"""Exact matrices, inner-product partitioning, and the pinned RNG."""

import pytest

from ftp_sdmm.errors import DimMismatch, NotDivisible
from ftp_sdmm.matrices import Mat, SplitMix64, mat_mul, partition_inner, random_mat


def test_splitmix64_reference_vector():
    # first outputs of the reference splitmix64 stream for seed 1234567
    rng = SplitMix64(1234567)
    assert [rng.next64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_splitmix64_below_determinism():
    a = SplitMix64(42)
    b = SplitMix64(42)
    draws_a = [a.below(7) for _ in range(50)]
    draws_b = [b.below(7) for _ in range(50)]
    assert draws_a == draws_b
    assert all(0 <= d < 7 for d in draws_a)


@pytest.mark.parametrize("n", [2, 11, 2**62 + 5])  # no rejection, rare, 25%
def test_digits_equal_successive_below_draws(n):
    """digits(n, count) is count successive below(n) draws and leaves the
    same state, across batches of candidates."""
    for count in (0, 1, 1000):
        a, b = SplitMix64(99 + count), SplitMix64(99 + count)
        want = [a.below(n) for _ in range(count)]
        assert b.digits(n, count).tolist() == want and b.state == a.state
        assert b.below(n) == a.below(n)


def test_below_first_draw_seed_sweep_covers_range():
    seen = {SplitMix64(s).below(5) for s in range(64)}
    assert seen == {0, 1, 2, 3, 4}


def test_below_histogram_uniform_5_sigma():
    rng = SplitMix64(2024)
    n, k = 20000, 7
    counts = [0] * k
    for _ in range(n):
        counts[rng.below(k)] += 1
    mean = n / k
    sigma = (n * (1 / k) * (1 - 1 / k)) ** 0.5
    for c in counts:
        assert abs(c - mean) < 5 * sigma


def test_mat_ops_and_mul(f5):
    A = random_mat(2, 3, f5, seed=1)
    B = random_mat(3, 2, f5, seed=2)
    C = mat_mul(A, B)
    # oracle: rebuild one entry by hand
    want = f5.zero()
    for k in range(3):
        want = f5.add(want, f5.mul(A.data[0][k], B.data[k][1]))
    assert f5.is_zero(f5.sub(C.data[0][1], want))
    eye = Mat.zeros(f5, 2, 2)
    eye.data[[0, 1], [0, 1]] = f5.one()
    assert mat_mul(eye, C).eq(C)
    assert C.add(C.neg()).eq(Mat.zeros(f5, 2, 2))
    with pytest.raises(DimMismatch):
        mat_mul(A, A)


def test_random_mat_deterministic(f5):
    assert random_mat(3, 3, f5, seed=9).eq(random_mat(3, 3, f5, seed=9))
    assert not random_mat(3, 3, f5, seed=9).eq(random_mat(3, 3, f5, seed=10))


def test_partition_inner_reassembles(f11):
    A = random_mat(3, 6, f11, seed=4)
    B = random_mat(6, 2, f11, seed=5)
    for L in (1, 2, 3, 6):
        part = partition_inner(A, B, L)
        assert len(part.A_blocks) == L and len(part.B_blocks) == L
        acc = Mat.zeros(f11, 3, 2)
        for Ab, Bb in zip(part.A_blocks, part.B_blocks):
            acc = acc.add(mat_mul(Ab, Bb))
        assert acc.eq(mat_mul(A, B))
    with pytest.raises(NotDivisible):
        partition_inner(A, B, 4)
