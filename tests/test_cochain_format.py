"""The one cochain format: a Cochain holds its sparse raw vector {flat: coeff}
with no zeros stored.  The dense constructor, the derived dense coeffs,
from_sparse, equality, is_zero, entries and cochain_to_json, and the
value read off vec (dense_wrappers.cochain_value), are
pinned against their dense definitions on catalog thetas and cocycles, the
zero cochain and seeded random cochains."""

import random
from fractions import Fraction

import pytest

from dense_wrappers import basis_cochains, cochain_value, input_tuples
from nambu import fileformat as ff
from nambu import samples
from nambu.cohomology import Cochain, CochainModel, adjoint_rep, cochain_basis, is_closed
from nambu.errors import DimensionMismatch
from nambu.linalg import format_scalar
from nambu.tstar import theta_spaces


def block_scan_json(theta):
    """cochain_to_json as a scan of every V-block (w, j) in order, read off
    the dense coefficients."""
    model, coeffs, out = theta.model, theta.coeffs, []
    for w, t in enumerate(model.wb.elements):
        for j in range(model.D):
            base = model.flat((w,), j)
            vec = coeffs[base : base + model.DV]
            if any(vec):
                value = {str(k + 1): format_scalar(c) for k, c in enumerate(vec) if c}
                out.append({"args": [i + 1 for i in t] + [j + 1], "value": value})
    return out


def _random_dense(model, rng):
    coeffs = [0] * model.raw_dim
    for k in rng.sample(range(model.raw_dim), min(model.raw_dim, rng.choice([1, 2, 5]))):
        coeffs[k] = rng.choice([-3, -1, 1, 2, Fraction(1, 2), Fraction(-2, 3)])
    return coeffs


def _corpus():
    """(label, model, parity, dense list): catalog thetas (closed cyclic and
    cyclic ones) over ad*, cocycles and other basis cochains of C^1 over ad,
    the zero cochain of each, and seeded random dense lists."""
    rng = random.Random(22)
    out = []
    for a in samples.catalog():
        sp = theta_spaces(a)
        dim = sp["model"].raw_dim
        for kind in ("closed_cyclic", "cyclic"):
            for i, row in enumerate(sp[kind].sparse_rows[:3]):
                out.append((f"{a.name} {kind} theta {i}", sp["model"], 0, [row.get(k, 0) for k in range(dim)]))
        ad = adjoint_rep(a)
        for i, f in enumerate(list(basis_cochains(cochain_basis(a, ad, 1, "both")))[:4]):
            kind = "cocycle" if is_closed(a, ad, f) else "cochain"
            out.append((f"{a.name} ad {kind} {i}", f.model, f.parity, f.coeffs))
        for model in (sp["model"], CochainModel(a, ad, 0), CochainModel(a, ad, 2)):
            out.append((f"{a.name} zero m={model.m}", model, 0, [0] * model.raw_dim))
            out.append((f"{a.name} random m={model.m}", model, rng.choice([0, 1]), _random_dense(model, rng)))
    return out


CORPUS = _corpus()
IDS = [c[0] for c in CORPUS]


@pytest.mark.parametrize("label, model, parity, dense", CORPUS, ids=IDS)
def test_dense_round_trip(label, model, parity, dense):
    f = Cochain(model, parity, dense)
    assert f.coeffs == dense
    assert f.vec == {k: c for k, c in enumerate(dense) if c != 0}
    assert 0 not in f.vec.values()
    assert Cochain.from_sparse(model, parity, f.vec) == f
    assert Cochain.from_entries(model, parity, f.entries()) == f


@pytest.mark.parametrize("label, model, parity, dense", CORPUS, ids=IDS)
def test_from_sparse_drops_zeros_and_rejects_outside_indices(label, model, parity, dense):
    vec = {k: c for k, c in enumerate(dense) if c != 0}
    zeros = {k: 0 for k in range(model.raw_dim) if k not in vec}
    f = Cochain.from_sparse(model, parity, {**zeros, **vec})
    assert f.vec == vec and f.coeffs == dense
    for outside in (-1, model.raw_dim, model.raw_dim + 5):
        with pytest.raises(DimensionMismatch):
            Cochain.from_sparse(model, parity, {**vec, outside: 1})
    with pytest.raises(DimensionMismatch):
        Cochain(model, parity, dense + [0])


@pytest.mark.parametrize("label, model, parity, dense", CORPUS, ids=IDS)
def test_is_zero_value_and_json_match_the_dense_definitions(label, model, parity, dense):
    f = Cochain(model, parity, dense)
    assert f.is_zero() == all(c == 0 for c in dense)
    for ws, j in input_tuples(model):
        base = model.flat(ws, j)
        assert cochain_value(f, ws, j) == dense[base : base + model.DV]
    if model.m == 1:
        assert ff.cochain_to_json(f) == block_scan_json(f)


def test_equality_is_dense_equality():
    by_model = {}
    for _, model, parity, dense in CORPUS:
        by_model.setdefault(id(model), []).append(Cochain(model, parity, dense))
    for group in by_model.values():
        for f in group:
            assert f == Cochain(f.model, f.parity, f.coeffs)
            for g in group:
                assert (f == g) == (f.degree == g.degree and f.coeffs == g.coeffs)
    a = samples.h3()
    ad = adjoint_rep(a)
    assert Cochain.zero(CochainModel(a, ad, 0)) != Cochain.zero(CochainModel(a, ad, 1))
