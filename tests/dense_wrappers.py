"""Dense entry points to the sparse kernel of nambu that only the tests use:
the rref and the left inverse of a Matrix, a basis bracket or a structure
constant as a dense coordinate vector, a unit vector, entrywise sums and
differences of matrices, the coordinates of a dense raw cochain vector in
a cochain basis, C^m as a Subspace, a cochain's value as a dense V-vector, the basis of C^m
as cochains, the parity of a dense raw vector, the inputs of a cochain
model, the alpha^m-wedges of the basis wedges, and the linear form of a
cochain evaluated on arbitrary arguments.  The library itself holds maps
as sparse columns and cochains as sparse raw vectors, and calls the
sparse ones."""

from __future__ import annotations

import itertools

from nambu.cohomology import Cochain, CochainBasis, CochainModel, _complex_tables, cochain_basis, wedge_of_vectors
from nambu.core import HomSuperAlgebra, StructureTensor
from nambu.errors import DimensionMismatch, NotACochain
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


def cochain_space(a, r, m, parity="both") -> Subspace:
    """C^m(g, V) of the given parity as a Subspace of the raw coefficients
    (cochain_basis); its basis vectors are parity-homogeneous."""
    return cochain_basis(a, r, m, parity).to_subspace()


def cochain_value(f: Cochain, ws, j) -> list:
    """f(x_ws, e_j) as a dense V-vector, ws a tuple of wedge positions."""
    base = f.model.flat(ws, j)
    return [f.vec.get(base + v, 0) for v in range(f.model.DV)]


def basis_cochains(basis: CochainBasis):
    """The basis of C^m as Cochains, each of the parity of its pivot."""
    model = basis.model
    for pivot, vec in zip(basis.space.pivots(), basis.vectors()):
        yield Cochain.from_sparse(model, model.parities[pivot], vec)


def cochain_parity_of_vector(model: CochainModel, vec):
    """The parity of a dense raw coefficient vector; None for 0,
    NotACochain if it mixes parities."""
    parities = {p for x, p in zip(vec, model.parities) if x != 0}
    if len(parities) > 1:
        raise NotACochain("coefficient vector mixes parities")
    return parities.pop() if parities else None


def input_tuples(model: CochainModel):
    """Every input (x_1..x_m, z) of the model's cochains, in flat order: m
    wedge positions and a basis index of g."""
    return itertools.product(itertools.product(range(model.W), repeat=model.m), range(model.D))


def alpha_pow_wedge(a, m) -> list:
    """The alpha^m-wedge of each basis wedge of a, in wedge coordinates,
    over the algebra's own scalars."""
    cx = _complex_tables(a)
    cols = [col.items() for col in cx.alpha_pow(m)]
    return [wedge_of_vectors(cx.wb, [cols[i] for i in t]) for t in cx.wb.elements]


def linear_expansion(model: CochainModel, wedge_args, z_arg) -> list:
    """f(A_1,...,A_m, Z) as a linear form in the raw coefficients of f.

    Wedge args are {pos: coeff}, Z is {index: coeff}.  Returns pairs
    (offset, c) with f(args)[v] = sum of c * f.vec.get(offset + v, 0).
    """
    W, D, DV = model.W, model.D, model.DV
    prefixes = [(0, 1)]
    for arg in wedge_args:
        new = []
        for off, c in prefixes:
            base = off * W
            for w, cw in arg.items():
                new.append((base + w, c * cw))
        prefixes = new
    out = []
    for off, c in prefixes:
        base = off * D
        for j, cz in z_arg.items():
            out.append(((base + j) * DV, c * cz))
    return out
