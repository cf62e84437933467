"""Dense entry points to the sparse kernel of nambu that only the tests use:
the rref and the left inverse of a Matrix, a basis bracket or a structure
constant as a dense coordinate vector, a unit vector, entrywise sums and
differences of matrices, and the coordinates of a dense raw cochain vector
in a cochain basis.  The library itself holds maps as sparse columns and
cochains as sparse raw vectors, and calls the sparse ones."""

from __future__ import annotations

from nambu.cohomology import CochainBasis
from nambu.core import HomSuperAlgebra, StructureTensor
from nambu.errors import DimensionMismatch
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


def structure_value(t: StructureTensor, indices) -> list:
    """The bracket of basis vectors e_{i1},...,e_{in} as a coordinate vector,
    read through StructureTensor.sparse_value."""
    out = [0] * t.space.dim
    for k, c in t.sparse_value(indices):
        out[k] = c
    return out


def bracket_basis(a: HomSuperAlgebra, indices) -> list:
    """The bracket of a on basis vectors as a coordinate vector."""
    return structure_value(a.bracket, indices)


def basis_vector(a: HomSuperAlgebra, i) -> list:
    """e_i of a as a coordinate vector."""
    return [1 if k == i else 0 for k in range(a.dim)]


def _same_shape(x: Matrix, y: Matrix):
    if (x.rows, x.cols) != (y.rows, y.cols):
        raise DimensionMismatch("matrix shapes differ")


def add(x: Matrix, y: Matrix) -> Matrix:
    """x + y, entrywise."""
    _same_shape(x, y)
    return Matrix(x.rows, x.cols, [a + b for a, b in zip(x.data, y.data)])


def sub(x: Matrix, y: Matrix) -> Matrix:
    """x - y, entrywise."""
    _same_shape(x, y)
    return Matrix(x.rows, x.cols, [a - b for a, b in zip(x.data, y.data)])


def neg(x: Matrix) -> Matrix:
    """-x, entrywise."""
    return Matrix(x.rows, x.cols, [-a for a in x.data])


def represent(basis: CochainBasis, raw) -> list:
    """Dense coordinates in the basis of a dense raw vector
    (CochainBasis.coordinates, NotACochain outside C^m)."""
    coords = basis.coordinates(dict(enumerate(raw)))
    return [coords.get(i, 0) for i in range(basis.dim)]
