"""The conditions on a 1-cochain that T*-extensions and extensions validate
on its support: super-alternation (``alternation_pairs``), the cyclic
condition (``cyclic_pairs``) and closedness, and the super skew-symmetry
sweep over the orderings of the stored keys (the sign of ``straighten`` it
relies on is pinned on every tuple in test_core.py).  Each support predicate is
compared with its reference on every unit cochain, on cochains that break
one relation whose other side is 0, and on seeded random cochains."""

import itertools
import random

import pytest

from seeded_inputs import raw_algebra
from theta_oracle import boundary_swap_subspace, is_cyclic_by_loop
from nambu import samples
from nambu.cohomology import (
    Cochain,
    CochainModel,
    adjoint_rep,
    alternating_subspace,
    alternation_pairs,
    is_closed,
    is_super_alternating,
    pair_rows,
)
from nambu.core import GradedSpace, HomSuperAlgebra, StructureTensor, _skew_witnesses
from nambu.errors import NotACochain
from nambu.extensions import ExtensionDatum, build_extension
from nambu.linalg import Matrix
from nambu.tstar import coadjoint_rep, cyclic_pairs, is_cyclic_cocycle, theta_spaces, tstar_extend


def _abelian_on(parity, n):
    space = GradedSpace(len(parity), tuple(parity))
    return HomSuperAlgebra(space, StructureTensor(n, space, {}), Matrix.identity(len(parity)), name=f"ab{parity}n{n}")


def _corpus():
    """(label, algebra, representation): the catalog with ad and ad*, spaces
    whose odd and even indices interleave at n = 2, 3 and 4, and seeded raw
    tensors with ad."""
    out = []
    for a in samples.catalog():
        out.append((f"{a.name} ad", a, adjoint_rep(a)))
        out.append((f"{a.name} ad*", a, coadjoint_rep(a).rep))
    for parity, n in (((1, 0, 1), 2), ((1, 0, 1, 0), 3), ((0, 1, 1), 4), ((1, 0), 4)):
        a = _abelian_on(parity, n)
        out.append((a.name, a, adjoint_rep(a)))
    for seed in range(12):
        a = raw_algebra(random.Random(seed))
        out.append((f"raw{seed}", a, adjoint_rep(a)))
    return out


CORPUS = _corpus()


def _cochain(model, terms):
    """The even cochain sum of c e_k over the terms (k, c), summed in a dense
    list that is then handed to the constructor."""
    coeffs = [0] * model.raw_dim
    for k, c in terms:
        coeffs[k] += c
    return Cochain(model, 0, coeffs)


def _probes(model, pairs, rng):
    """Every unit cochain; for each pair (k, partner, sign) the cochains
    e_k + sign e_partner and e_k - sign e_partner; and seeded sparse ones."""
    out = [_cochain(model, [(k, 1)]) for k in range(model.raw_dim)]
    for k, partner, sign in pairs:
        if partner != k:
            for c in (sign, -sign):
                out.append(_cochain(model, [(k, 1), (partner, c)]))
    for _ in range(20):
        sample = rng.sample(range(model.raw_dim), min(model.raw_dim, rng.choice([1, 2, 3, 6])))
        out.append(_cochain(model, [(k, rng.choice([-2, -1, 1, 2])) for k in sample]))
    return out


@pytest.mark.parametrize("label, a, r", CORPUS, ids=[c[0] for c in CORPUS])
def test_alternating_subspace_equals_the_boundary_swap_rows(label, a, r):
    assert alternating_subspace(a, r).sparse_rows == boundary_swap_subspace(a, r).sparse_rows


@pytest.mark.parametrize("label, a, r", CORPUS, ids=[c[0] for c in CORPUS])
def test_alternation_predicate_equals_kernel_membership(label, a, r):
    rng = random.Random(label)
    model = CochainModel(a, r, 1)
    alt = alternating_subspace(a, r)
    pairs = list(alternation_pairs(model, range(model.raw_dim)))
    probes = _probes(model, pairs, rng)
    # members: seeded combinations of the basis, broken at one coordinate
    # whose relations all have 0 on their other side
    basis = alt.sparse_rows
    for _ in range(10 if basis else 0):
        coeffs = [0] * model.raw_dim
        for row in rng.sample(basis, min(len(basis), 3)):
            c = rng.choice([-2, -1, 1, 2])
            for k, x in row.items():
                coeffs[k] += c * x
        probes.append(Cochain(model, 0, coeffs))
        lonely = [k for k in range(model.raw_dim) if not coeffs[k] and all(
            not coeffs[q] for _, q, _ in alternation_pairs(model, [k]))]
        if lonely:
            broken = list(coeffs)
            broken[rng.choice(lonely)] = 1
            probes.append(Cochain(model, 0, broken))
    for f in probes:
        assert is_super_alternating(a, r, f) == alt.contains_vector(f.coeffs), (label, f.coeffs)


def test_alternation_corpus_reaches_every_kind_of_pair():
    """The corpus has blocks that must vanish (z even and equal to the last
    wedge slot, which the boundary swap maps to itself with sign -1, or to
    an earlier one), lone representatives paired with themselves by sign 1,
    and representatives with n - 1 partners."""
    kinds = set()
    for _, a, r in CORPUS:
        model = CochainModel(a, r, 1)
        p = a.parity
        by_k = {}
        for k, partner, sign in alternation_pairs(model, range(model.raw_dim)):
            by_k.setdefault(k, []).append((partner, sign))
        for k, found in by_k.items():
            (w,), z, _ = model.coordinate(k)
            t = model.wb.elements[w]
            if found == [(k, 0)]:
                kinds.add("even z at the last wedge slot" if z == t[-1] else "even z repeating an earlier slot")
            elif found == [(k, 1)]:
                kinds.add("lone representative")
            elif len(found) == a.arity - 1 and a.arity > 2:
                kinds.add("representative with n - 1 partners")
            if z == t[-1] and p[z] == 0:
                assert found == [(k, 0)]  # the swap maps the block to itself with sign -1
    assert kinds == {
        "even z at the last wedge slot",
        "even z repeating an earlier slot",
        "lone representative",
        "representative with n - 1 partners",
    }


@pytest.mark.parametrize("label, a, r", CORPUS, ids=[c[0] for c in CORPUS])
def test_alternation_rows_are_each_relation_once(label, a, r):
    model = CochainModel(a, r, 1)
    rows = pair_rows(alternation_pairs(model, range(model.raw_dim)))
    keys = [tuple(sorted(row)) for row in rows]
    assert len(keys) == len(set(keys))


TSTAR_BASES = [g for g in samples.catalog() if coadjoint_rep(g).exists]


@pytest.mark.parametrize("g", TSTAR_BASES, ids=[g.name for g in TSTAR_BASES])
def test_cyclic_predicate_equals_the_loop(g):
    rng = random.Random(g.name)
    sp = theta_spaces(g)
    model = sp["model"]
    pairs = list(cyclic_pairs(model, range(model.raw_dim)))
    probes = _probes(model, pairs, rng)
    basis = sp["cyclic"].sparse_rows
    for _ in range(10 if basis else 0):
        coeffs = [0] * model.raw_dim
        for row in rng.sample(basis, min(len(basis), 3)):
            for k, x in row.items():
                coeffs[k] += x
        probes.append(Cochain(model, 0, coeffs))
        zeros = [k for k, q, _ in pairs if k != q and not coeffs[k] and not coeffs[q]]
        if zeros:
            broken = list(coeffs)
            broken[rng.choice(zeros)] = 1
            probes.append(Cochain(model, 0, broken))
    verdicts = [is_cyclic_cocycle(g, f) for f in probes]
    assert verdicts == [is_cyclic_by_loop(g, f) for f in probes]
    assert True in verdicts and False in verdicts


def test_cyclic_pairs_on_the_diagonal():
    """theta(x,y)(y) must vanish for y even and is free for y odd."""
    g = samples.sh12()
    model = theta_spaces(g)["model"]
    for k, partner, sign in cyclic_pairs(model, range(model.raw_dim)):
        (_,), y, z = model.coordinate(k)
        if y == z:
            assert partner == k and sign == (1 if g.parity[y] else -1)
        else:
            assert model.coordinate(partner)[1:] == (z, y)


def _non_alternating(a, r):
    """An even 1-cochain that breaks alternation at one coordinate whose
    partner is 0: e_1 in the z slot of the wedge e_2 (n = 2)."""
    model = CochainModel(a, r, 1)
    return _cochain(model, [(model.flat((model.wb.index[(1,)],), 0), 1)])


def test_tstar_rejects_a_non_alternating_theta():
    g = samples.h3()
    theta = _non_alternating(g, coadjoint_rep(g).rep)
    with pytest.raises(NotACochain, match="theta is not super-alternating across all slots"):
        tstar_extend(g, theta)


def test_extension_rejects_a_non_alternating_cocycle():
    b = samples.h3()
    module = adjoint_rep(b)
    datum = ExtensionDatum(b, b.space, b.alpha, module, _non_alternating(b, module))
    with pytest.raises(NotACochain, match="cocycle is not super-alternating across all slots"):
        datum.validate()
    with pytest.raises(NotACochain, match="cocycle is not super-alternating across all slots"):
        build_extension(datum)


def test_is_closed_of_zero_assembles_no_delta():
    g = samples.n4()
    r = coadjoint_rep(g).rep
    assert is_closed(g, r, Cochain.zero(CochainModel(g, r, 1)))
    assert ("delta", 1) not in g._cache
    assert tstar_extend(g).algebra.dim == 8
    assert ("delta", 1) not in g._cache


def test_skew_sweep_reads_only_orderings_of_stored_keys(monkeypatch):
    """Each tuple the super skew-symmetry sweep reads sorts to a stored key."""
    ext = tstar_extend(samples.n4(), None)
    a = ext.algebra
    read = []
    value = a.bracket.sparse_value
    monkeypatch.setattr(a.bracket, "sparse_value", lambda t: read.append(tuple(t)) or value(t))
    assert next(_skew_witnesses(a), None) is None
    keys = set(a.bracket.entries)
    assert read and all(tuple(sorted(t)) in keys for t in read)
    assert {tuple(sorted(t)) for t in read} == keys

