"""cohomology_dims takes dim B^m from the delta^{m-1} images read in C^m's
primitive basis, never ranks the delta^m images of the basis cochains that
echelon names (clearing), and checks delta^2 = 0 on the echelon's rows.

Pinned here to the uncleared computation: sparse_rank of every delta^m
image and of every delta^{m-1} image, and delta^m applied to every
delta^{m-1} image, raising in the same order (C^{m+1} membership, C^m
membership, delta^2) with the same messages."""

import pathlib
import random
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from nambu import cohomology, samples  # noqa: E402
from nambu.cohomology import (  # noqa: E402
    CochainModel,
    Delta,
    _check_images,
    _failed_postcondition,
    _images,
    _witness,
    adjoint_rep,
    cochain_basis,
    cohomology_dims,
)
from nambu.errors import AlgebraError, InternalError  # noqa: E402
from nambu.linalg import _primitive, sparse_rank  # noqa: E402
from seeded_inputs import bumped_adjoint, random_representation  # noqa: E402
from test_delta_assembly import CORPUS  # noqa: E402
from test_delta_operator import _reps, _shear_twisted  # noqa: E402

PARITIES = ("both", "even", "odd")


def uncleared_dims(a, r, m, parity):
    """(dim Z^m, dim B^m, dim H^m) from the ranks of all the images, and
    delta^m applied to every delta^{m-1} image."""
    delta_operator = cohomology.delta_operator  # as monkeypatched
    cm = cochain_basis(a, r, m, parity)
    op = delta_operator(a, r, m).columns
    images = _images(op, [_primitive(vec) for vec in cm.vectors()])
    _check_images(a, r, m, parity, images)
    z = cm.dim - sparse_rank(images)
    b = 0
    if m > 0:
        prev = cochain_basis(a, r, m - 1, parity)
        prev_images = _images(delta_operator(a, r, m - 1).columns, [_primitive(vec) for vec in prev.vectors()])
        _check_images(a, r, m - 1, parity, prev_images)
        b = sparse_rank(prev_images)
        for i, image in enumerate(_images(op, prev_images)):
            if image:
                where = _witness(CochainModel(a, r, m + 1), m - 1, i, min(image))
                raise _failed_postcondition(a, r, "delta^2 != 0", f": {where}")
    return z, b, z - b


def _outcome(fn, *args):
    """("dims", (z, b, h)) or ("refused", error type, message)."""
    try:
        return ("dims", tuple(fn(*args)))
    except (AlgebraError, InternalError) as exc:
        return ("refused", type(exc).__name__, str(exc))


def _agree(a, r, m, parity):
    expected = _outcome(uncleared_dims, a, r, m, parity)
    assert _outcome(cohomology_dims, a, r, m, parity) == expected, (a.name, m, parity)
    return expected


def _seeded():
    """Catalog algebras and shear twists (the perfbench shear of SH(1|2)
    among them) in seeded dense bases L U (perfbench's dense_basis): the
    sheared ones have primitive scales other than 1 in C^m; with ad, ad*
    where it exists, a seeded random rho and ad with one entry bumped.
    N4's shear stays in its own basis: in a dense one it alone takes 17 s."""
    rng = random.Random(29)
    shears = _shear_twisted(rng)
    sh12 = samples.sh12()
    bases = [samples.h3(), sh12, samples.odd_square(), samples.filiform4()]
    bases += [a for a in shears if a.dim < 4 or a.arity < 3]
    bases.append(workloads.pick_twist(rng, sh12, workloads.nondiagonal_twists(sh12), lambda tw: True, "SH12~sh"))
    out = [(a, _reps(a)) for a in shears]
    for base in bases:
        a = workloads.rebase(base, workloads.dense_basis(rng, base.parity), f"{base.name}@dense")
        out.append((a, _reps(a) + [("random", random_representation(a, rng)), ("bumped", bumped_adjoint(a, rng))]))
    return out


SEEDED = _seeded()


@pytest.mark.parametrize("a, reps", CORPUS, ids=[a.name for a, _ in CORPUS])
def test_cleared_ranks_equal_the_uncleared_on_the_delta_corpus(a, reps):
    for name, r in reps:
        # a random rho on N4 or heis3 takes over 40 s at m = 3
        for m in (1, 2, 3) if name not in ("random", "integral") or a.dim <= 3 else (1, 2):
            for parity in PARITIES:
                _agree(a, r, m, parity)


@pytest.mark.parametrize("a, reps", SEEDED, ids=[a.name for a, _ in SEEDED])
def test_cleared_ranks_equal_the_uncleared_on_seeded_dense_bases(a, reps):
    for _, r in reps:
        for m, parities in ((1, PARITIES), (2, ("both", "odd"))):
            for parity in parities:
                _agree(a, r, m, parity)


def test_the_inputs_reach_every_branch():
    # non-unit scales, B^m > 0 and each refusal in the uncleared order
    scales = {
        vec[min(vec)]
        for a, reps in SEEDED
        for _, r in reps[:1]
        for vec in map(_primitive, cochain_basis(a, r, 1).vectors())
    }
    assert scales - {1}
    outcomes = [
        _outcome(uncleared_dims, a, r, m, "both") for a, reps in SEEDED for _, r in reps for m in (1, 2)
    ]
    assert sum(o[0] == "dims" and o[1][1] > 0 for o in outcomes) >= 10
    messages = [o[2] for o in outcomes if o[0] == "refused"]
    assert any("image violates the compatibility equations of C^2" in t for t in messages)
    assert any(t.startswith("delta^2 != 0") for t in messages)


def _zero_and_nonzero(a, r, m):
    """Two basis cochains of C^{m-1} with delta^{m-1} image 0 and the first
    with a nonzero image, for a unit basis of C^{m-1}."""
    prev = cochain_basis(a, r, m - 1)
    assert all(vec == {min(vec): 1} for vec in prev.vectors())
    images = _images(cohomology.delta_operator(a, r, m - 1).columns, prev.vectors())
    zeros = [i for i, image in enumerate(images) if not image]
    nonzero = next(i for i, image in enumerate(images) if image)
    return prev.space.pivots(), zeros[0], zeros[1], images[nonzero]


@pytest.mark.parametrize("make, m", [(samples.h3, 1), (samples.n4, 2)], ids=["H3", "N4"])
@pytest.mark.parametrize("u_kind", ["unit", "long"])
def test_delta_square_witness_when_the_first_failing_image_is_dependent(monkeypatch, make, m, u_kind):
    # delta^{m-1} moved on two cocycles i < k of C^{m-1}: the image of k
    # becomes u, a cochain of C^m that delta^m does not kill, and that of i
    # becomes u + b for a nonzero image b.  Image i is the first that
    # delta^m does not kill, but it is longer than u and b and their sum:
    # the echelon reduces it to zero, and its rows fail only at u.  The
    # error still names basis cochain i and its coordinate, image by image.
    a = make()
    rep = adjoint_rep(a)
    pivots, i, k, b = _zero_and_nonzero(a, rep, m)
    real = cohomology.delta_operator
    op = real(a, rep, m).columns
    moved = [vec for vec in cochain_basis(a, rep, m).vectors() if _images(op, [vec])[0]]
    outside = [vec for vec in moved if not set(vec) & set(b)]
    u = dict(outside[0]) if u_kind == "unit" else {o: x for vec in outside for o, x in vec.items()}
    image_i = {**b, **u}
    assert len(image_i) > max(len(u), len(b)) and not set(u) & set(b)

    def perturbed(a, r, degree):
        delta = real(a, r, degree)
        if degree != m - 1:
            return delta
        columns = dict(delta.columns)
        columns[pivots[i]] = image_i
        columns[pivots[k]] = u
        return Delta(columns, delta.scale)

    monkeypatch.setattr(cohomology, "delta_operator", perturbed)
    expected = _outcome(uncleared_dims, a, rep, m, "both")
    where = _witness(CochainModel(a, rep, m + 1), m - 1, i, min(_images(op, [image_i])[0]))
    assert expected == ("refused", "InternalError", f"delta^2 != 0 (internal error): {where}")
    assert _outcome(cohomology_dims, a, rep, m, "both") == expected
