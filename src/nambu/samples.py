"""Catalog of small algebras plus seeded random generation of twisted ones.

The random generator only produces *valid* multiplicative algebras: it
starts from an untwisted catalog member and twists by a verified
self-morphism (diagonal scalings, central shears, or their products).
"""

from __future__ import annotations

import random

from .core import (
    GradedSpace,
    HomSuperAlgebra,
    StructureTensor,
    verify_morphism,
    twist_by_endomorphism,
)
from .linalg import Matrix


def _algebra(name, n, parity, entries, alpha=None):
    space = GradedSpace(len(parity), tuple(parity))
    tensor = StructureTensor(n, space, entries)
    if alpha is None:
        alpha = Matrix.identity(space.dim)
    return HomSuperAlgebra(space, tensor, alpha, name=name)


def abelian(even, odd=0, n=2, name=None):
    parity = (0,) * even + (1,) * odd
    return _algebra(name or f"abelian({even}|{odd})", n, parity, {})


def h3():
    """Heisenberg algebra: [e1,e2] = e3, all even, alpha = id."""
    return _algebra("H3", 2, (0, 0, 0), {(0, 1): [0, 0, 1]})


def sh12():
    """Super-Heisenberg SH(1|2): e1 even, f1 f2 odd, [f1,f2] = e1."""
    return _algebra("SH(1|2)", 2, (0, 1, 1), {(1, 2): [1, 0, 0]})


def n4():
    """3-ary nilpotent algebra: [e1,e2,e3] = e4, all even."""
    return _algebra("N4", 3, (0, 0, 0, 0), {(0, 1, 2): [0, 0, 0, 1]})


def odd_square():
    """[f1,f1] = e1 with f1 odd: exercises repeated odd indices."""
    return _algebra("oddsq(1|1)", 2, (0, 1), {(1, 1): [1, 0]})


def filiform4():
    """4-dim filiform Lie algebra: [e1,e2]=e3, [e1,e3]=e4."""
    return _algebra(
        "fil4", 2, (0, 0, 0, 0), {(0, 1): [0, 0, 1, 0], (0, 2): [0, 0, 0, 1]}
    )


def heisenberg_nary(n):
    """[e1,...,en] = e_{n+1} with a central last vector; valid for any n."""
    dim = n + 1
    out = [0] * dim
    out[dim - 1] = 1
    return _algebra(f"heis{n}", n, (0,) * dim, {tuple(range(n)): out})


def no_coadjoint():
    """Valid multiplicative algebra with a singular twist whose ad* is NOT a
    representation (found by search; pins the exists=False branch)."""
    alpha = Matrix(3, 3, [0, -1, 1, 2, -1, -1, 0, -1, 1])
    return _algebra("noco", 2, (0, 0, 0), {(0, 2): [2, 2, 2]}, alpha=alpha)


def catalog():
    return [
        abelian(2),
        abelian(1, 1),
        abelian(0, 2),
        h3(),
        sh12(),
        odd_square(),
        filiform4(),
        n4(),
        abelian(3, 0, n=3),
        abelian(1, 2, n=3),
        heisenberg_nary(2),
        heisenberg_nary(3),
    ]


# ---------------------------------------------------------------------------
# random twists


def _diagonal_candidates(a: HomSuperAlgebra, rng: random.Random, attempts=40):
    """Diagonal matrices that are self-morphisms of a (found by checking)."""
    found = []
    pool = [-2, -1, 0, 1, 1, 1, 2, 3]
    for _ in range(attempts):
        diag = [rng.choice(pool) for _ in range(a.dim)]
        rho = Matrix(
            a.dim, a.dim, [diag[i] if i == j else 0 for i in range(a.dim) for j in range(a.dim)]
        )
        if verify_morphism(rho, a, a).ok:
            found.append(rho)
    return found


def _shear_candidates(a: HomSuperAlgebra, rng: random.Random, attempts=40):
    """id + t E_{ij} single-entry shears that happen to be self-morphisms."""
    found = []
    p = a.parity
    for _ in range(attempts):
        i = rng.randrange(a.dim)
        j = rng.randrange(a.dim)
        if i == j or p[i] != p[j]:
            continue
        t = rng.choice([-2, -1, 1, 2])
        data = [1 if r == c else 0 for r in range(a.dim) for c in range(a.dim)]
        data[i * a.dim + j] = t
        rho = Matrix(a.dim, a.dim, data)
        if verify_morphism(rho, a, a).ok:
            found.append(rho)
    return found


def random_twist(a: HomSuperAlgebra, rng: random.Random, diagonal_only=False):
    """A verified self-morphism of a, or None if the search finds nothing."""
    cands = _diagonal_candidates(a, rng)
    if not diagonal_only:
        cands += _shear_candidates(a, rng)
    if not cands:
        return None
    return rng.choice(cands)


def random_twisted_algebra(rng: random.Random, *, max_dim=4, arities=(2, 3), diagonal_only=False):
    """A random valid twisted algebra from the catalog (never None: falls
    back to the identity twist)."""
    options = [c for c in catalog() if c.dim <= max_dim and c.arity in arities]
    base = rng.choice(options)
    rho = random_twist(base, rng, diagonal_only=diagonal_only)
    if rho is None:
        rho = Matrix.identity(base.dim)
    return twist_by_endomorphism(base, rho)
