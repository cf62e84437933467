"""delta^m assembled from the nonzero entries of its tables, pinned to the
swept assembly of tests/swept_delta.py, and the memo of the compatibility
equations of C^k."""

import random

import pytest

from nambu import cohomology, samples
from nambu.cohomology import Representation, _assemble_delta, adjoint_rep, cohomology_dims
from nambu.core import twist_by_endomorphism
from seeded_inputs import random_representation
from swept_delta import swept_delta_operator
from test_delta_operator import _dense_basis, _non_even_twists, _reps, _shear_twisted


def _algebras():
    """The catalog, a seeded diagonal twist of each catalog algebra that has
    one, shear twists and fil4 in a dense basis."""
    rng = random.Random(13)
    out = samples.catalog()
    for base in samples.catalog():
        rho = samples.random_twist(base, rng, diagonal_only=True)
        if rho is not None and not rho.is_identity():
            out.append(twist_by_endomorphism(base, rho))
    return out + _shear_twisted(rng) + [_dense_basis(samples.filiform4(), rng)]


def _corpus():
    """(a, [(name, r), ...]): ad, ad* where it exists and a seeded random rho
    per algebra, and the twists that join the parities with their module."""
    out = [
        (a, _reps(a) + [("random", random_representation(a, random.Random(k)))])
        for k, a in enumerate(_algebras())
    ]
    return out + [(a, [("mixed", r)]) for a, r in _non_even_twists()]


CORPUS = _corpus()


def test_corpus_has_every_kind_of_twist():
    alphas = [a.alpha for a, _ in CORPUS]
    assert sum(m.is_diagonal() and not m.is_identity() for m in alphas) >= 5
    assert sum(not m.is_diagonal() for m in alphas) >= 4
    assert any(a.name.endswith("@dense") for a, _ in CORPUS)
    assert sum(name == "coadjoint" for _, reps in CORPUS for name, _ in reps) >= 10


@pytest.mark.parametrize("a, reps", CORPUS, ids=[a.name for a, _ in CORPUS])
def test_assembly_equals_the_swept_oracle(a, reps):
    # m = 3 everywhere but for the full random rho on dim-4 algebras, whose
    # sweep alone takes about a second per module
    for name, r in reps:
        for m in (0, 1, 2, 3) if name != "random" or a.dim <= 3 else (0, 1, 2):
            assert _assemble_delta(a, r, m) == swept_delta_operator(a, r, m), (name, m)


def test_assembly_is_not_vacuous():
    nonzero = sum(bool(_assemble_delta(a, r, 1)) for a, reps in CORPUS for _, r in reps)
    assert nonzero >= 40


def test_abelian_delta_is_empty():
    a = samples.abelian(2, 1)
    for name, r in _reps(a):
        for m in (0, 1, 2, 3):
            assert _assemble_delta(a, r, m) == {} == swept_delta_operator(a, r, m), (name, m)


def _counting_equations(monkeypatch):
    real = cohomology._build_compat_equations
    calls = []

    def counting(a, r, k):
        calls.append((r, k))
        return real(a, r, k)

    monkeypatch.setattr(cohomology, "_build_compat_equations", counting)
    return calls


@pytest.mark.parametrize("m", [0, 1, 2])
def test_cohomology_dims_writes_each_compat_system_once(monkeypatch, m):
    # C^m's equations serve both cochain_basis(m) and the images of
    # delta^{m-1}; C^{m+1}'s only the images of delta^m
    calls = _counting_equations(monkeypatch)
    a = samples.h3()
    rep = adjoint_rep(a)
    cohomology_dims(a, rep, m)
    assert sorted(k for _, k in calls) == list(range(max(m - 1, 0), m + 2))
    # the same representation object is served from the memo; a new one,
    # even an equal one, gets its own equations
    count = len(calls)
    cohomology_dims(a, rep, m)
    assert len(calls) == count
    equal = Representation(rep.target, list(rep.rho), rep.nu)
    cohomology_dims(a, equal, m)
    assert len(calls) == 2 * count and calls[-1][0] is equal
