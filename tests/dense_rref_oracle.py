"""Dense Fraction Gauss-Jordan elimination, kept as the oracle for the sparse
canonical rref in nambu.linalg.

Column by column, the first row at or below the current one with a nonzero
entry becomes the pivot row, is scaled to a leading 1 and clears its column
in every other row.  Nothing here is shared with the sparse kernel.
"""

from __future__ import annotations

from fractions import Fraction

from nambu.linalg import Matrix


def _rref_pivots(m: Matrix):
    rows = [list(r) for r in m.row_list()]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        if pivot != 1:
            inv = Fraction(1, 1) / pivot
            rows[r] = [inv * x for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    flat = [x for row in rows for x in row]
    return Matrix(nrows, ncols, flat), pivots


def rref_basis(ncols, vectors) -> Matrix:
    """The nonzero rows of the rref of the given dense vectors."""
    if not vectors:
        return Matrix(0, ncols, [])
    reduced, pivots = _rref_pivots(Matrix.from_rows(vectors, cols=ncols))
    return Matrix.from_rows(reduced.row_list()[: len(pivots)], cols=ncols)


def oracle_nullspace(m: Matrix) -> Matrix:
    """The rref basis of {v : m v = 0}: one kernel vector per free column of
    the rref of m, then those vectors brought to rref themselves."""
    reduced, pivots = _rref_pivots(m)
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [0] * m.cols
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = -reduced[i, f]
        basis.append(v)
    return rref_basis(m.cols, basis)


def oracle_solve_affine(a: Matrix, b):
    """The minimal-lex solution of a x = b (free variables zero), or None."""
    aug = Matrix.from_rows([a.row(i) + [b[i]] for i in range(a.rows)], cols=a.cols + 1)
    reduced, pivots = _rref_pivots(aug)
    if a.cols in pivots:
        return None
    x = [0] * a.cols
    for i, p in enumerate(pivots):
        x[p] = reduced[i, a.cols]
    return x
