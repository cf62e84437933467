"""The one-pass sparse delta operator against the literal term-by-term oracle,
and the checks around it that must hold under `python -O` too."""

import ast
import pathlib
import random

import pytest

from coboundary_oracle import literal_coboundary, literal_coboundary_matrix
from nambu import cohomology, samples
from nambu.cohomology import (
    Cochain,
    Representation,
    adjoint_rep,
    cochain_basis,
    coboundary,
    coboundary_matrix,
    cohomology_dims,
)
from nambu.core import HomSuperAlgebra, StructureTensor, _canonical_tuples, twist_by_endomorphism
from nambu.errors import NotACochain
from nambu.linalg import Matrix, solve_affine
from nambu.tstar import coadjoint_rep
from test_acceptance import _delta2_corpus

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "nambu"


def _reps(a):
    reps = [("adjoint", adjoint_rep(a))]
    coad = coadjoint_rep(a)
    if coad.exists:
        reps.append(("coadjoint", coad.rep))
    return reps


def test_matrix_equals_oracle_on_criterion2_corpus():
    for a in _delta2_corpus():
        for name, rep in _reps(a):
            for m in (0, 1):
                assert coboundary_matrix(a, rep, m) == literal_coboundary_matrix(a, rep, m), (
                    a.name,
                    name,
                    m,
                )


@pytest.mark.parametrize("a", samples.catalog(), ids=lambda a: a.name)
def test_matrix_equals_oracle_on_catalog_at_m2(a):
    for name, rep in _reps(a):
        assert coboundary_matrix(a, rep, 2) == literal_coboundary_matrix(a, rep, 2), (a.name, name)


def test_matrix_equals_oracle_by_parity():
    for a in (samples.sh12(), samples.odd_square(), samples.abelian(1, 2, n=3)):
        for name, rep in _reps(a):
            for m in (0, 1, 2):
                for parity in ("even", "odd"):
                    got = coboundary_matrix(a, rep, m, parity)
                    assert got == literal_coboundary_matrix(a, rep, m, parity), (a.name, name, m)


def _inverse(p: Matrix) -> Matrix:
    cols = []
    for j in range(p.cols):
        sol, _ = solve_affine(p, [1 if i == j else 0 for i in range(p.rows)])
        cols.append(sol)
    return Matrix.from_rows(cols).transpose()


def _dense_basis(a: HomSuperAlgebra, rng) -> HomSuperAlgebra:
    """a in the basis of the columns of a unit lower triangular matrix whose
    entries below the diagonal are seeded and nonzero within each parity block."""
    d, p = a.dim, a.parity
    data = [1 if i == j else 0 for i in range(d) for j in range(d)]
    for i in range(d):
        for j in range(i):
            if p[i] == p[j]:
                data[i * d + j] = rng.choice([-2, -1, 1, 2])
    basis = Matrix(d, d, data)
    inv = _inverse(basis)
    cols = [basis.col(j) for j in range(d)]
    entries = {}
    for key in _canonical_tuples(a.space, a.arity):
        vec = inv.apply(a.bracket_eval([cols[i] for i in key]))
        if any(c != 0 for c in vec):
            entries[key] = vec
    return HomSuperAlgebra(
        a.space, StructureTensor(a.arity, a.space, entries), inv * a.alpha * basis, name=f"{a.name}@dense"
    )


def _shear_twisted(rng):
    out = []
    for base in (samples.h3(), samples.sh12(), samples.filiform4(), samples.n4()):
        for _ in range(40):
            rho = samples.random_twist(base, rng)
            if rho is not None and not rho.is_diagonal():
                out.append(twist_by_endomorphism(base, rho))
                break
    return out


def test_coboundary_equals_oracle_on_random_cochains():
    rng = random.Random(11)
    algebras = [_dense_basis(make(), rng) for make in (samples.h3, samples.sh12, samples.filiform4, samples.n4)]
    algebras += _shear_twisted(rng)
    assert any(not a.alpha.is_diagonal() for a in algebras)
    checked = 0
    for a in algebras:
        for name, rep in _reps(a):
            for m in (0, 1):
                for parity in (0, 1):
                    basis = cochain_basis(a, rep, m, parity)
                    if basis.dim == 0:
                        continue
                    coeffs = [0] * basis.model.raw_dim
                    for vec in basis.vectors():
                        c = rng.choice([-2, -1, 0, 1, 3])
                        for k, x in vec.items():
                            coeffs[k] += c * x
                    f = Cochain(basis.model, parity, coeffs)
                    got = coboundary(a, rep, f)
                    assert got.coeffs == literal_coboundary(a, rep, f).coeffs, (a.name, name, m)
                    assert got.parity == parity
                    checked += 1
    assert checked >= 20


def test_image_outside_the_next_cochain_space_raises():
    # nu = diag(1, 1, 2) is not twist-equivariant for H3: C^0 allows values
    # in e1, e2 only, and rho(e1) e2 = e3 leaves C^1
    a = samples.h3()
    ad = adjoint_rep(a)
    rep = Representation(ad.target, ad.rho, Matrix(3, 3, [1, 0, 0, 0, 1, 0, 0, 0, 2]))
    with pytest.raises(NotACochain):
        cohomology_dims(a, rep, 0)
    with pytest.raises(NotACochain):
        coboundary_matrix(a, rep, 0)


@pytest.mark.parametrize("m, builds", [(0, 2), (1, 3), (2, 3)])
def test_cohomology_dims_builds_each_cochain_space_once(monkeypatch, m, builds):
    calls = []
    real = cohomology.cochain_basis

    def counting(a, r, k, parity="both"):
        calls.append(k)
        return real(a, r, k, parity)

    monkeypatch.setattr(cohomology, "cochain_basis", counting)
    a = samples.h3()
    cohomology_dims(a, adjoint_rep(a), m)
    assert sorted(calls) == list(range(max(m - 1, 0), m + 2))
    assert len(calls) == builds


def test_coadjoint_rep_is_computed_once_per_algebra():
    a = samples.n4()
    assert coadjoint_rep(a) is coadjoint_rep(a)
    assert coadjoint_rep(samples.n4()) is not coadjoint_rep(a)


@pytest.mark.parametrize("name", sorted(path.name for path in SRC.glob("*.py")))
def test_no_assert_in_the_delta_and_elimination_modules(name):
    # `python -O` strips assert statements; every check in every module of
    # the package must raise
    tree = ast.parse((SRC / name).read_text())
    offenders = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not offenders, f"{name}: assert at lines {offenders}"
