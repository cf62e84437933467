"""Dense entry points to the sparse kernel of nambu.linalg that only the
tests use: the rref of a Matrix and the left inverse of a Matrix.  The
library itself holds maps as sparse columns and calls the sparse ones."""

from __future__ import annotations

from nambu.linalg import Matrix, Subspace, sparse_columns, sparse_left_inverse


def rref(m: Matrix):
    """Reduced row-echelon form.  Returns (rref matrix, rank)."""
    space = Subspace(m.cols, m)
    zero_rows = [[0] * m.cols for _ in range(m.rows - space.dim)]
    return Matrix.from_rows(space.basis_vectors() + zero_rows, cols=m.cols), space.dim


def left_inverse(m: Matrix):
    """The matrix L with L m = I, or None when the columns of m are
    dependent (nambu.linalg.sparse_left_inverse)."""
    inverse = sparse_left_inverse(sparse_columns(m), m.rows)
    return None if inverse is None else Matrix.from_columns(inverse, m.cols)
