"""The dense reconstruction as a T*-extension, kept as the oracle for
nambu.tstar.reconstruct_as_tstar.

It runs the same construction on dense matrices and dense vectors: the
quotient's projection pi is a dense left inverse applied with
``Matrix.apply``, the isotropic complement pairs dense vectors through the
dense gram, the lift, the splitting g = g0 (+) I and f1*: I -> g1* are dense
matrices, and theta is read off ``bracket_eval`` of dense lift columns.
The production reconstruction holds every map as sparse columns; the tests
require both to give the same g1, theta and phi, or to raise the same error.
"""

from __future__ import annotations

from axiom_oracle import pairing
from dense_wrappers import basis_vector, left_inverse
from nambu.cohomology import Cochain, CochainModel, _wedge
from nambu.core import (
    GradedSpace,
    HomSuperAlgebra,
    StructureTensor,
    _canonical_tuples,
    is_hom_ideal,
    lex_complement_indices,
    verify_morphism,
)
from nambu.errors import (
    AlgebraError,
    ComplementNotFound,
    NonGradedSubspace,
    NotAnIdeal,
    NotHalfDimensional,
    OddDimension,
    ensure,
)
from nambu.linalg import Matrix, Subspace, particular_solution, rank
from nambu.tstar import MetricAlgebra, coadjoint_rep, isotropic_half_ideal_abelian_check, tstar_extend


def _unit(n, i):
    v = [0] * n
    v[i] = 1
    return v


def _vector_parity(vec, parity):
    ps = {parity[i] for i, c in enumerate(vec) if c != 0}
    if len(ps) != 1:
        raise NonGradedSubspace("vector is not parity-homogeneous")
    return ps.pop()


def _is_isotropic(gram: Matrix, sub: Subspace) -> bool:
    rows = sub.basis_vectors()
    return all(pairing(gram, u, v) == 0 for u in rows for v in rows)


def dense_quotient(a: HomSuperAlgebra, i: Subspace):
    """(g/I, dense projection matrix) on the lex-first complement."""
    if not is_hom_ideal(i, a):
        raise NotAnIdeal("quotient requires a Hom-ideal")
    comp = lex_complement_indices(i)
    q_dim = len(comp)
    q_space = GradedSpace(q_dim, tuple(a.parity[j] for j in comp))
    cols = [list(r) for r in i.basis_vectors()] + [_unit(a.dim, j) for j in comp]
    inv = left_inverse(Matrix.from_rows(cols, cols=a.dim).transpose())
    ensure(inv is not None, "ideal basis plus complement does not span g")
    pi_rows = [inv.row(i.dim + k) for k in range(q_dim)]
    pi = Matrix.from_rows(pi_rows, cols=a.dim) if q_dim else Matrix(0, a.dim, [])
    lift_cols = [_unit(a.dim, j) for j in comp]
    entries = {}
    for key in _canonical_tuples(q_space, a.arity):
        pvec = pi.apply(a.bracket_eval([lift_cols[t] for t in key]))
        if any(x != 0 for x in pvec):
            entries[key] = pvec
    alpha_q_cols = [pi.apply(a.alpha.apply(lift_cols[t])) for t in range(q_dim)]
    alpha_q = Matrix.from_rows(alpha_q_cols, cols=q_dim).transpose() if q_dim else Matrix(0, 0, [])
    name = (a.name + "/I") if a.name else "quotient"
    q = HomSuperAlgebra(q_space, StructureTensor(a.arity, q_space, entries), alpha_q, name=name)
    ensure(verify_morphism(pi, a, q).ok, "quotient projection is not a morphism")
    return q, pi


def dense_isotropic_complement(m: MetricAlgebra, ideal: Subspace) -> Subspace:
    """Greedy isotropic complement g0 of the ideal, on dense vectors."""
    a = m.algebra
    gram = m.gram
    g0_rows = []
    current = Subspace.from_vectors(a.dim, ideal.basis_vectors())
    half = a.dim - ideal.dim
    i_rows = [list(r) for r in ideal.basis_vectors()]
    for j in range(a.dim):
        if len(g0_rows) == half:
            break
        cand = basis_vector(a, j)
        if current.contains_vector(cand):
            continue
        pj = a.parity[j]
        allowed = [r for r in i_rows if _vector_parity(r, a.parity) == pj]
        rows = []
        rhs = []
        for u in g0_rows:
            rows.append([pairing(gram, w, u) for w in allowed])
            rhs.append(-pairing(gram, cand, u))
        if pj == 0:
            rows.append([2 * pairing(gram, cand, w) for w in allowed])
            rhs.append(-pairing(gram, cand, cand))
        if rows and allowed:
            sol = particular_solution(Matrix.from_rows(rows, cols=len(allowed)), rhs)
        elif rows:
            sol = None if any(x != 0 for x in rhs) else []
        else:
            sol = []
        if sol is None:
            raise ComplementNotFound("no isotropic correction in the ideal")
        vec = list(cand)
        for c, w in zip(sol, allowed):
            if c != 0:
                for k in range(a.dim):
                    vec[k] += c * w[k]
        g0_rows.append(vec)
        current = current.sum(Subspace.from_vectors(a.dim, [vec]))
    if len(g0_rows) != half:
        raise ComplementNotFound("could not complete the isotropic complement")
    g0 = Subspace.from_vectors(a.dim, g0_rows)
    ensure(g0.dim == half, "isotropic complement has the wrong dimension")
    ensure(_is_isotropic(gram, g0), "complement is not isotropic")
    ensure(g0.intersect(ideal).dim == 0, "complement meets the ideal")
    return g0


def dense_reconstruct_as_tstar(m: MetricAlgebra, ideal: Subspace):
    """(g1, theta, phi) of g with a half-dimensional isotropic Hom-ideal I,
    isometric to T*_theta(g/I) through phi."""
    a = m.algebra
    if a.dim % 2 != 0:
        raise OddDimension("reconstruction needs an even dimension (adjoin a line first)")
    if ideal.dim * 2 != a.dim:
        raise NotHalfDimensional(f"ideal has dim {ideal.dim}, need {a.dim // 2}")
    if not _is_isotropic(m.gram, ideal):
        raise AlgebraError("ideal is not isotropic")
    if not is_hom_ideal(ideal, a):
        raise NotAnIdeal("subspace is not a Hom-ideal")
    if not isotropic_half_ideal_abelian_check(m, ideal):
        raise AlgebraError("half-dimensional isotropic ideal is not abelian (impossible)")

    g1, pi = dense_quotient(a, ideal)
    g0 = dense_isotropic_complement(m, ideal)

    g0_cols = [list(r) for r in g0.basis_vectors()]
    pi_g0_cols = [pi.apply(v) for v in g0_cols]
    lift = left_inverse(Matrix.from_rows(pi_g0_cols, cols=g1.dim).transpose())
    ensure(lift is not None, "complement does not project onto the quotient")
    lift_cols = [
        [sum(c * g0_cols[t][i] for t, c in enumerate(lift.col(k)) if c != 0) for i in range(a.dim)]
        for k in range(g1.dim)
    ]

    ideal_rows = [list(r) for r in ideal.basis_vectors()]
    decomp = left_inverse(Matrix.from_rows(g0_cols + ideal_rows, cols=a.dim).transpose())
    ensure(decomp is not None, "complement plus ideal does not span g")

    def split(vec):
        sol = decomp.apply(list(vec))
        return sol[: len(g0_cols)], sol[len(g0_cols) :]

    # f1*: I -> g1*, f1*(z)(pi x) = <z, x>
    fstar = Matrix(
        g1.dim,
        ideal.dim,
        [pairing(m.gram, ideal_rows[b], lift_cols[k]) for k in range(g1.dim) for b in range(ideal.dim)],
    )

    model1 = CochainModel(g1, coadjoint_rep(g1).rep, 1)
    entries = {}
    for w, t in enumerate(_wedge(g1).elements):
        for j in range(g1.dim):
            _, z_part = split(a.bracket_eval([lift_cols[i] for i in t] + [lift_cols[j]]))
            entries[((w,), j)] = dict(enumerate(fstar.apply(z_part)))
    theta = Cochain.from_entries(model1, 0, entries)

    ext = tstar_extend(g1, theta, validated=True)

    phi_cols = []
    for j in range(a.dim):
        x_part, z_part = split(basis_vector(a, j))
        x_vec = [sum(c * pi_g0_cols[t][k] for t, c in enumerate(x_part) if c != 0) for k in range(g1.dim)]
        phi_cols.append(x_vec + fstar.apply(z_part))
    phi = Matrix.from_rows(phi_cols, cols=2 * g1.dim).transpose()

    ensure(rank(phi) == a.dim, "phi is not injective")
    ensure(verify_morphism(phi, a, ext.algebra).ok, "phi is not a morphism")
    ensure(phi.transpose() * ext.form.gram * phi == m.gram, "phi is not an isometry")
    return g1, theta, phi
