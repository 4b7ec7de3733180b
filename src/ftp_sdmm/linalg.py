"""Exact Gauss-Jordan elimination over a stack of matrices of field elements,
(..., n, m, *field.shape), with no division.  For each column, each matrix's
pivot row P is its first row that is nonzero there and has not yet been a
pivot, and every other row r becomes P[col] r - r[col] P: two broadcast
products per column.  A row is only ever scaled by a nonzero pivot, so ranks
hold (Bareiss, Math. Comp. 22, 1968, without his exact division, which a
finite field does not need)."""

import numpy as np

from .errors import DimMismatch, Singular


def _reduce(field, mats, ncols):
    """Eliminate columns < ncols of mats (B, n, m, *shape), reduced mod p,
    in place: the reduced stack, and each column's pivot row per matrix
    (B, ncols), -1 where the column has none."""
    B, n = mats.shape[:2]
    rows = np.arange(n)
    used = np.zeros((B, n), dtype=bool)
    pivots = np.full((B, ncols), -1)
    for col in range(ncols):
        live = mats[:, :, col].reshape(B, n, -1).any(axis=2) & ~used
        b = np.flatnonzero(live.any(axis=1))  # the matrices with a pivot in this column
        piv = live[b].argmax(axis=1)
        used[b, piv] = True
        pivots[b, col] = piv
        if len(b) and n > 1:
            others = np.argsort(rows == piv[:, None], axis=1, kind="stable")[:, :-1]  # all but piv
            P, R = mats[b, piv], mats[b[:, None], others]
            mats[b[:, None], others] = field.sub(field.mul(P[:, None, None, col], R),
                                                 field.mul(R[:, :, col, None], P[:, None]))
    return mats, pivots


def _stacked(field, mats):
    """mats reduced mod p as one batch (B, n, m, *shape), and its leading axes."""
    mats = np.asarray(mats) % field.base.p
    k = mats.ndim - len(field.shape) - 2
    return mats.reshape((-1,) + mats.shape[k:]), mats.shape[:k]


def rank(field, mats):
    """The rank of each matrix of a stack (..., n, m, *field.shape)."""
    flat, lead = _stacked(field, mats)
    _, pivots = _reduce(field, flat, flat.shape[2])
    return (pivots >= 0).sum(axis=1).reshape(lead)[()]


def mat_inverse(field, mats):
    """The inverse of each matrix of a stack (..., n, n, *field.shape):
    [M | 1] reduced, then each pivot row divided by its pivot, with one
    stacked inversion."""
    flat, lead = _stacked(field, mats)
    B, n, m = flat.shape[:3]
    if n != m:
        raise DimMismatch("mat_inverse expects square matrices")
    eye = np.eye(n, dtype=np.int64).reshape((n, n) + (1,) * len(field.shape)) * field.one()
    reduced, pivots = _reduce(field, np.concatenate([flat, np.broadcast_to(eye, flat.shape)], 2), n)
    if (pivots < 0).any():
        raise Singular("matrix is singular")
    rows = reduced[np.arange(B)[:, None], pivots]  # row k holds column k's pivot
    diag = rows[:, range(n), range(n)]
    return field.mul(field.inv(diag)[:, :, None], rows[:, :, n:]).reshape(lead + (n, n) + field.shape)
