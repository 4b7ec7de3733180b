"""The batched, division-free elimination against the per-element
Gauss-Jordan it replaced, kept here as the oracle."""

import numpy as np
import pytest

from ftp_sdmm.errors import DimMismatch, Singular
from ftp_sdmm.fields import make_base_field, make_tower
from ftp_sdmm.kernels import matmul
from ftp_sdmm.linalg import mat_inverse, rank
from ftp_sdmm.matrices import SplitMix64


def _elim(field, mat, ncols_keep):
    """Row-reduce a list of rows of elements in place, one field operation
    at a time with first-nonzero pivoting; returns (rank, reduced rows)."""
    rows = [list(r) for r in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(min(ncols_keep, ncols)):
        pivot = None
        for r in range(rank, nrows):
            if not field.is_zero(rows[r][col]):
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        piv_inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(piv_inv, v) for v in rows[rank]]
        for r in range(nrows):
            if r != rank and not field.is_zero(rows[r][col]):
                factor = rows[r][col]
                rows[r] = [
                    field.sub(a, field.mul(factor, b))
                    for a, b in zip(rows[r], rows[rank])
                ]
        rank += 1
    return rank, rows


def _inverse_oracle(field, mat):
    n = len(mat)
    eye = [[field.one() if j == k else field.zero() for j in range(n)] for k in range(n)]
    rnk, rows = _elim(field, [list(r) + e for r, e in zip(mat, eye)], n)
    return [r[n:] for r in rows] if rnk == n else None


@pytest.fixture(scope="module", params=["F_5", "F_9", "F_11(2,3)", "F_4(3)"])
def field(request):
    return {"F_5": lambda: make_base_field(5, 1),
            "F_9": lambda: make_base_field(3, 2),
            "F_11(2,3)": lambda: make_tower(make_base_field(11, 1), (2, 3)),
            "F_4(3)": lambda: make_tower(make_base_field(2, 2), (3,))}[request.param]()


def _stack(field, rng, count, n, m, sparse):
    """count random n x m matrices; with ``sparse``, about half the entries
    are zero, so pivots are often not in the first live row."""
    size = int(np.prod(field.shape))
    mats = rng.digits(field.base.p, count * n * m * size).reshape((count, n, m) + field.shape)
    if sparse:
        keep = rng.digits(2, count * n * m).reshape((count, n, m) + (1,) * len(field.shape))
        mats = mats * keep
    return mats


def _cases(field, rng):
    """Random stacks, full and sparse, and rank-deficient products of n x r
    by r x m matrices, with a zero matrix and a repeated row among them."""
    for n, m in [(1, 1), (2, 2), (3, 3), (4, 4), (2, 4), (4, 3)]:
        for sparse in (False, True):
            yield _stack(field, rng, 5, n, m, sparse)
        for r in range(1, min(n, m)):
            yield matmul(field, _stack(field, rng, 4, n, r, False), _stack(field, rng, 4, r, m, True))
    odd = _stack(field, rng, 3, 3, 3, False)
    odd[0] = 0
    odd[1, 2] = odd[1, 0]
    yield odd


def test_rank_matches_elementwise_oracle(field):
    rng = SplitMix64(5)
    for mats in _cases(field, rng):
        want = [_elim(field, list(mat), mat.shape[1])[0] for mat in mats]
        assert rank(field, mats).tolist() == want
        lead = rank(field, mats[None, :, None])  # leading axes come back as they went in
        assert lead.shape == (1, len(mats), 1) and lead.ravel().tolist() == want
        assert rank(field, mats[0]) == want[0]


def test_mat_inverse_matches_elementwise_oracle(field):
    rng = SplitMix64(6)
    for mats in _cases(field, rng):
        if mats.shape[1] != mats.shape[2]:
            with pytest.raises(DimMismatch):
                mat_inverse(field, mats)
            continue
        oracles = [_inverse_oracle(field, list(mat)) for mat in mats]
        if any(o is None for o in oracles):
            with pytest.raises(Singular):
                mat_inverse(field, mats)
        invertible = [k for k, o in enumerate(oracles) if o is not None]
        if invertible:
            got = mat_inverse(field, mats[invertible])
            assert np.array_equal(got, np.array([oracles[k] for k in invertible]))
