"""Seeded inputs shared by the oracle tests and tests/output_digest.py: raw
structure tensors that assume no axiom, forms and representations that
are mostly not invariant or not representations, so that failing reports
get compared too."""

from __future__ import annotations

from fractions import Fraction

from nambu.cohomology import Representation, adjoint_rep, wedge_basis
from nambu.core import BilinearForm, GradedSpace, HomSuperAlgebra, StructureTensor, canonical_tuples
from nambu.linalg import Matrix


def raw_algebra(rng):
    """A seeded raw tensor on a small super space, n in {2, 3}: mostly
    homogeneous with an even twist, otherwise inhomogeneous entries or a
    twist that mixes parities, so both tuple sources of the sweeps run.
    No axiom is assumed: the reductions rest on super-skewness alone."""
    n = rng.choice([2, 3])
    parity = tuple(sorted(rng.choice([0, 1]) for _ in range(rng.choice([2, 3, 4]))))
    space = GradedSpace(len(parity), parity)
    keys = canonical_tuples(space, n)
    entries = {key: [rng.choice([0, 1, -1]) for _ in parity] for key in rng.sample(keys, min(len(keys), 3))}
    if rng.random() < 0.7:
        entries = {
            key: [c if parity[i] == space.parity_of_indices(key) else 0 for i, c in enumerate(vec)]
            for key, vec in entries.items()
        }
    d = len(parity)
    even_twist = rng.random() < 0.6
    alpha = Matrix(d, d, [
        rng.choice([0, 1, 1, -1, 2]) if (parity[i] == parity[j] or not even_twist) else 0
        for i in range(d)
        for j in range(d)
    ])
    return HomSuperAlgebra(space, StructureTensor(n, space, entries, strict=False), alpha, name="raw")


def random_form(a: HomSuperAlgebra, rng) -> BilinearForm:
    """A seeded supersymmetric, parity-consistent gram on a: symmetric on
    the even part, skew on the odd part, zero between them.  Almost never
    invariant, so the invariance sweep meets failures."""
    p = a.parity
    g = [[0] * a.dim for _ in range(a.dim)]
    for i in range(a.dim):
        for j in range(i, a.dim):
            if p[i] == p[j] and not (i == j and p[i]):
                g[i][j] = rng.choice((0, 1, -1, 2))
                g[j][i] = -g[i][j] if p[i] else g[i][j]
    return BilinearForm(Matrix.from_rows(g))


def random_representation(a: HomSuperAlgebra, rng) -> Representation:
    """A seeded rho on g's own grading, each rho(w) of the parity of w, with
    nu = alpha: graded, so the canonical sweep of the n-ary law runs, but
    almost never a representation."""
    wb = wedge_basis(a.space, a.arity - 1)
    p = a.parity
    d = a.dim
    rho = [
        Matrix(d, d, [
            rng.choice((0, 0, 1, -1, 2, Fraction(1, 2))) if p[i] == (p[j] + wb.parity(w)) % 2 else 0
            for i in range(d)
            for j in range(d)
        ])
        for w in range(len(wb))
    ]
    return Representation(a.space, rho, a.alpha)


def bumped_adjoint(a: HomSuperAlgebra, rng) -> Representation:
    """ad with 1 added to one seeded entry of one rho(w), of any parity."""
    ad = adjoint_rep(a)
    rho = list(ad.rho)
    w = rng.randrange(len(rho))
    i, j = rng.randrange(a.dim), rng.randrange(a.dim)
    data = list(rho[w].data)
    data[i * a.dim + j] += 1
    rho[w] = Matrix(a.dim, a.dim, data)
    return Representation(ad.target, rho, ad.nu)
