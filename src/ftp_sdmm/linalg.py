"""Exact Gaussian elimination over any field object (first-nonzero pivoting)."""

from .errors import DimMismatch, Singular


def _elim(field, mat, ncols_keep):
    """Row-reduce in place; returns (rank, reduced rows)."""
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


def rank(field, mat):
    if not mat:
        return 0
    r, _ = _elim(field, mat, len(mat[0]))
    return r


def mat_inverse(field, mat):
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise DimMismatch("mat_inverse expects a square matrix")
    aug = []
    for k, r in enumerate(mat):
        row = list(r) + [field.zero()] * n
        row[n + k] = field.one()
        aug.append(row)
    rnk, rows = _elim(field, aug, n)
    if rnk < n:
        raise Singular("matrix is singular")
    return [rows[k][n:] for k in range(n)]
