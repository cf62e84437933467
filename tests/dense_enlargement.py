"""The dense maximal isotropic enlargement, kept as the oracle for
nambu.tstar.extend_to_maximal_isotropic.

It runs the same induction on W^perp/W, but on dense matrices: the bracket
operators are ad's dense rho, each quotient operator and the quotient twist
are built with ``Matrix.apply`` and ``from_rows(...).transpose()``, the joint
kernel is the nullspace of the stacked operator rows and the largest
invariant subspace pulls the dense annihilator basis back through alpha.
The production enlargement reads sparse columns only; the tests require
both to return the same subspace, or to raise the same error.
"""

from __future__ import annotations

from fractions import Fraction

from axiom_oracle import pairing
from dense_wrappers import left_inverse
from nambu.cohomology import adjoint_rep
from nambu.core import GradedSpace, maps_into, sparse_columns, split_graded
from nambu.errors import NeedsFieldExtension, NoStableIsotropicVector, ensure
from nambu.linalg import Matrix, Subspace, nullspace
from nambu.tstar import MetricAlgebra, _sqrt_fraction


def dense_extend_to_maximal_isotropic(m: MetricAlgebra, w: Subspace) -> Subspace:
    a = m.algebra
    return _extend_recursive(tuple(a.parity), m.gram, adjoint_rep(a).rho, a.alpha, w)


def _largest_invariant(sub: Subspace, alpha: Matrix) -> Subspace:
    """Largest alpha-invariant subspace of sub: iterate sub intersect alpha^{-1}(sub)."""
    current = sub
    while True:
        nxt = current.intersect(nullspace(current.annihilator().basis * alpha))
        if nxt == current:
            return current
        current = nxt


def _orbit_span(v, alpha: Matrix, ambient) -> Subspace:
    span = Subspace.from_vectors(ambient, [v])
    vec = list(v)
    for _ in range(ambient):
        vec = alpha.apply(vec)
        nxt = span.sum(Subspace.from_vectors(ambient, [vec]))
        if nxt == span:
            return span
        span = nxt
    return span


def _homogeneous_basis(sub: Subspace, parity):
    he, ho = split_graded(sub, GradedSpace(len(parity), tuple(parity)))
    return he.basis_vectors(), ho.basis_vectors()


def _pair_candidates(gram, vecs, target, discs):
    """Dense vectors v_i + t v_j, i < j in lex order, with <v_i + t v_j,
    v_i + t v_j> = target over Q (see nambu.tstar._pair_candidates)."""
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            vi, vj = vecs[i], vecs[j]
            qi = pairing(gram, vi, vi)
            qj = pairing(gram, vj, vj)
            c = pairing(gram, vi, vj)
            if qj == 0:
                if c == 0:
                    continue
                t = Fraction(target - qi) / (2 * c)
            else:
                disc = Fraction(c * c - qj * (qi - target))
                root = _sqrt_fraction(disc)
                if root is None:
                    discs.append(disc)
                    continue
                t = (-c + root) / Fraction(qj)
            yield [x + t * y for x, y in zip(vi, vj)]


def _find_isotropic_stable_vector(parity, gram, ops, alpha, dim):
    """An Engel-style isotropic vector whose alpha-orbit span is isotropic."""
    kernel = nullspace(Matrix.from_rows([row for op in ops for row in op.row_list()], cols=dim))
    stable = _largest_invariant(kernel, alpha)
    if stable.dim == 0:
        raise NoStableIsotropicVector("the alpha-stable joint kernel is zero")
    even_vecs, odd_vecs = _homogeneous_basis(stable, parity)

    def try_vector(v):
        if pairing(gram, v, v) != 0:
            return None
        orbit = _orbit_span(v, alpha, dim)
        rows = orbit.basis_vectors()
        if all(pairing(gram, x, y) == 0 for x in rows for y in rows):
            return orbit
        return None

    for v in odd_vecs + even_vecs:
        got = try_vector(list(v))
        if got is not None:
            return got
    discs = []
    for cand in _pair_candidates(gram, [list(v) for v in even_vecs], 0, discs):
        got = try_vector(cand)
        if got is not None:
            return got
    if discs:
        raise NeedsFieldExtension(discs[0], "isotropic vector construction")
    raise NoStableIsotropicVector("no isotropic vector with an isotropic alpha-orbit")


def _extend_recursive(parity, gram, ops, alpha, w: Subspace) -> Subspace:
    dim = len(parity)
    target = dim // 2
    if w.dim >= target:
        return w
    if w.dim == 0:
        orbit = _find_isotropic_stable_vector(parity, gram, ops, alpha, dim)
        return _extend_recursive(parity, gram, ops, alpha, orbit)

    wperp = w.orthogonal_complement(gram)
    ensure(wperp.contains(w), "W is not inside W-perp")
    ensure(
        maps_into([sparse_columns(op) for op in ops], wperp, wperp),
        "W-perp is not stable under the bracket operators",
    )
    space = GradedSpace(dim, tuple(parity))
    split_graded(w, space)
    perp_even, perp_odd = split_graded(wperp, space)

    reps = []
    rep_parity = []
    current = w
    for part, par in ((perp_even, 0), (perp_odd, 1)):
        for row in part.basis_vectors():
            if not current.contains_vector(row):
                reps.append(list(row))
                rep_parity.append(par)
                current = current.sum(Subspace.from_vectors(dim, [row]))
    qdim = len(reps)
    ensure(qdim == wperp.dim - w.dim, "quotient representatives have the wrong count")

    basis_cols = [list(r) for r in w.basis_vectors()] + reps
    basis_matrix = Matrix.from_rows(basis_cols, cols=dim).transpose()
    coords = left_inverse(basis_matrix)
    ensure(coords is not None, "W and the quotient representatives are dependent")

    def quotient_coords(vec):
        sol = coords.apply(list(vec))
        ensure(basis_matrix.apply(sol) == list(vec), "vector leaves W-perp")
        return sol[w.dim :]

    q_gram = Matrix(
        qdim, qdim, [pairing(gram, reps[i], reps[j]) for i in range(qdim) for j in range(qdim)]
    )
    q_ops = []
    for op in ops:
        cols = [quotient_coords(op.apply(r)) for r in reps]
        q_ops.append(Matrix.from_rows(cols, cols=qdim).transpose())
    q_alpha_cols = [quotient_coords(alpha.apply(r)) for r in reps]
    q_alpha = Matrix.from_rows(q_alpha_cols, cols=qdim).transpose() if qdim else Matrix(0, 0, [])

    inner = _extend_recursive(tuple(rep_parity), q_gram, q_ops, q_alpha, Subspace.zero(qdim))
    lifted = [
        [sum(c * reps[k][i] for k, c in enumerate(row) if c != 0) for i in range(dim)]
        for row in inner.basis_vectors()
    ]
    return w.sum(Subspace.from_vectors(dim, lifted))
