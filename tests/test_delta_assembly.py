"""delta^m assembled over Z by columns from tables of its terms, pinned to
s_m times the transposed rational swept assembly of tests/swept_delta.py
on a corpus that includes odd 3-ary algebras, the one rho-wedge table that
terms 3 and 4 read, the memo of the compatibility equations of C^k, and
the packed check of the delta images against them, pinned to the per-image
loop it replaced."""

import math
import random
from fractions import Fraction

import pytest

from coboundary_oracle import literal_coboundary
from dense_rref_oracle import _rref_pivots
from nambu import cohomology, samples
from nambu.cohomology import (
    Representation,
    _assemble_delta,
    _images,
    adjoint_rep,
    coboundary,
    cochain_basis,
    cohomology_dims,
    CochainModel,
    compat_offenders,
)
from nambu.core import GradedSpace, HomSuperAlgebra, StructureTensor, twist_by_endomorphism, verify_algebra
from nambu.errors import InternalError, NotACochain
from nambu.linalg import Matrix, _primitive, sparse_rank
from seeded_inputs import random_representation
from swept_delta import swept_delta_operator
from test_delta_operator import (
    _dense_basis,
    _diagonal_twisted,
    _every_slot_offenders,
    _non_even_twists,
    _rational_shear,
    _reps,
    _seeded_cochains,
    _shear_twisted,
)


def _denominator(values) -> int:
    return math.lcm(*(x.denominator for x in values))


def _algebras():
    """The catalog, a seeded diagonal twist of each catalog algebra that has
    one, shear twists, fil4 and H3 with a shear in dense rational bases, and
    twists with rational entries."""
    rng = random.Random(13)
    out = samples.catalog()
    for base in samples.catalog():
        rho = samples.random_twist(base, rng, diagonal_only=True)
        if rho is not None and not rho.is_identity():
            out.append(twist_by_endomorphism(base, rho))
    shears = _shear_twisted(rng)
    halves = (Fraction(1, 2), Fraction(-1, 2), 2)
    dense = [_dense_basis(samples.filiform4(), rng, halves), _dense_basis(shears[0], rng, halves)]
    return out + shears + dense + [_rational_shear(), _diagonal_twisted()[2]]


def _modules(k, a):
    """ad, ad* where it exists and a seeded random rho; on rational structure
    constants also that rho doubled, whose halves then cancel: an integral
    rho, so that the scales of rho and of the bracket differ."""
    rho = random_representation(a, random.Random(k))
    out = _reps(a) + [("random", rho)]
    if _denominator(x for vec in a.bracket.entries.values() for x in vec) > 1:
        out.append(("integral", Representation(rho.target, [m.scale(2) for m in rho.rho], rho.nu)))
    return out


def _odd_ternary():
    """3-ary algebras on (e1, f1, f2, z) with parities (0, 1, 1, 0) whose
    brackets land in the central z: A, [f1, f1, e1] = z; B, [f1, f2, e1] =
    z; AB, both.  Their odd slots pass odd vectors in every term of delta,
    so they pin its signs; each comes with a seeded diagonal twist."""
    space = GradedSpace(4, (0, 1, 1, 0))
    brackets = {"A": {(0, 1, 1): [0, 0, 0, 1]}, "B": {(0, 1, 2): [0, 0, 0, 1]}}
    brackets["AB"] = {**brackets["A"], **brackets["B"]}
    rng = random.Random(17)
    out = []
    for name, entries in brackets.items():
        a = HomSuperAlgebra(space, StructureTensor(3, space, entries), Matrix.identity(4), name=f"odd3{name}")
        twist = None
        while twist is None or twist.is_identity() or 0 in (twist[i, i] for i in range(4)):
            twist = samples.random_twist(a, rng, diagonal_only=True)
        out += [a, twist_by_endomorphism(a, twist)]
    return out


ODD_TERNARY = _odd_ternary()


def _corpus():
    """(a, [(name, r), ...]): the modules of each algebra, the odd 3-ary
    algebras with ad and ad*, and the twists that join the parities with
    their module."""
    out = [(a, _modules(k, a)) for k, a in enumerate(_algebras())]
    out += [(a, _reps(a)) for a in ODD_TERNARY]
    return out + [(a, [("mixed", r)]) for a, r in _non_even_twists()]


CORPUS = _corpus()


def test_the_odd_ternary_algebras_are_hom_nambu_lie_with_both_modules():
    assert [a.name.split("~")[0] for a in ODD_TERNARY] == ["odd3A", "odd3A", "odd3B", "odd3B", "odd3AB", "odd3AB"]
    for a in ODD_TERNARY:
        assert verify_algebra(a).ok, a.name
    assert all([name for name, _ in _reps(a)] == ["adjoint", "coadjoint"] for a in ODD_TERNARY[::2])
    twists = [a.alpha for a in ODD_TERNARY[1::2]]
    assert all(t.is_diagonal() and not t.is_identity() for t in twists)


def test_corpus_has_every_kind_of_twist():
    alphas = [a.alpha for a, _ in CORPUS]
    assert sum(m.is_diagonal() and not m.is_identity() for m in alphas) >= 5
    assert sum(not m.is_diagonal() for m in alphas) >= 4
    assert {a.name for a, _ in CORPUS} >= {"fil4@dense", "H3~twisted@dense"}
    assert sum(_denominator(a.alpha.data) > 1 for a, _ in CORPUS) >= 2
    assert any(name == "integral" for _, reps in CORPUS for name, _ in reps)
    assert sum(name == "coadjoint" for _, reps in CORPUS for name, _ in reps) >= 10


def _expected_scale(a, r, m) -> int:
    """s_m = L d^(m(n-1)): L the lcm of the denominators of the structure
    constants and of rho, d that of alpha's entries."""
    values = [x for vec in a.bracket.entries.values() for x in vec]
    values += [x for mat in r.rho for x in mat.data]
    return _denominator(values) * _denominator(a.alpha.data) ** (m * (a.arity - 1))


def _scaled_columns(rows: dict, s) -> dict:
    """The columns {in_flat: {out_flat: s * entry}} of an operator given by
    its rows {out_flat: {in_flat: entry}}."""
    columns = {}
    for o, row in rows.items():
        for k, c in row.items():
            columns.setdefault(k, {})[o] = s * c
    return columns


@pytest.mark.parametrize("a, reps", CORPUS, ids=[a.name for a, _ in CORPUS])
def test_assembly_equals_the_swept_oracle(a, reps):
    # m = 3 everywhere but for the full random rhos on dim-4 algebras, whose
    # sweep alone takes about a second per module
    for name, r in reps:
        for m in (0, 1, 2, 3) if name not in ("random", "integral") or a.dim <= 3 else (0, 1, 2):
            columns, scale = _assemble_delta(a, r, m)
            assert scale == _expected_scale(a, r, m), (name, m)
            assert all(type(c) is int for col in columns.values() for c in col.values()), (name, m)
            assert columns == _scaled_columns(swept_delta_operator(a, r, m), scale), (name, m)


def test_the_corpus_scales_are_not_all_one():
    # the rational bases and twists exercise a scale above 1; the rational
    # delta^1 of H3 with a shear in a dense rational basis is integral but
    # holds its integers in Fraction form, which the integer rows hold as ints
    scales = [_assemble_delta(a, r, m).scale for a, reps in CORPUS for _, r in reps for m in (0, 1)]
    assert sum(s > 1 for s in scales) >= 6
    dense = next(a for a, _ in CORPUS if a.name == "H3~twisted@dense")
    entries = [c for row in swept_delta_operator(dense, adjoint_rep(dense), 1).values() for c in row.values()]
    assert _denominator(entries) == 1
    assert any(isinstance(c, Fraction) for c in entries)


def test_the_assembly_reads_one_rho_wedge_table_and_no_module_action(monkeypatch):
    # terms 3 and 4 read one table, rho of the alpha^m-wedge of each basis
    # wedge, built once per alpha^m and shared by the degrees with the same
    # alpha^m; no module action is computed
    counts = {"_act": 0}
    real = cohomology._act

    def counting(*args):
        counts["_act"] += 1
        return real(*args)

    def no_module_action(*args):
        raise AssertionError("the assembly computed a module action")

    monkeypatch.setattr(cohomology, "_act", counting)
    monkeypatch.setattr(cohomology, "module_action", no_module_action)
    fil4_diag = twist_by_endomorphism(samples.filiform4(), Matrix(4, 4, [-1, 0, 0, 0, 0, 1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1]))
    for a in (samples.n4(), fil4_diag, samples.sh12()):
        reps = _reps(a)
        assert [name for name, _ in reps] == ["adjoint", "coadjoint"], a.name
        cx = cohomology._integer_tables(a)
        for name, r in reps:
            counts["_act"] = 0
            for m in (0, 1, 2):
                columns, _ = _assemble_delta(a, r, m)
                assert columns, (a.name, name, m)
            powers = {tuple(map(tuple, map(sorted, map(dict.items, cx.alpha_pow(m))))) for m in (0, 1, 2)}
            assert 0 < counts["_act"] <= len(cohomology._wedge(a)) * len(powers), (a.name, name, counts)


def test_assembly_is_not_vacuous():
    nonzero = sum(bool(_assemble_delta(a, r, 1).columns) for a, reps in CORPUS for _, r in reps)
    assert nonzero >= 40


def test_abelian_delta_is_empty():
    a = samples.abelian(2, 1)
    for name, r in _reps(a):
        for m in (0, 1, 2, 3):
            assert _assemble_delta(a, r, m) == ({}, 1) and swept_delta_operator(a, r, m) == {}, (name, m)


@pytest.mark.parametrize("m", [0, 1])
def test_coboundary_in_a_dense_basis_equals_the_literal_oracle(m):
    # coboundary divides the integer rows by their scale once
    a = next(a for a, _ in CORPUS if a.name == "fil4@dense")
    for name, rep in _reps(a):
        assert cohomology.delta_operator(a, rep, m).scale > 1, name
        for f in _seeded_cochains(a, rep, m, random.Random(m), 3):
            assert coboundary(a, rep, f).coeffs == literal_coboundary(a, rep, f).coeffs, (name, m)


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


def test_a_table_entry_that_does_not_scale_to_an_int_raises():
    # the integrality of every scaled table entry is a check that raises,
    # kept under python -O
    assert cohomology._times(Fraction(3, 4), 8) == 6 and type(cohomology._times(Fraction(3, 4), 8)) is int
    with pytest.raises(InternalError, match="is not an integer"):
        cohomology._times(Fraction(1, 3), 2)


@pytest.mark.parametrize("a, reps", CORPUS, ids=[a.name for a, _ in CORPUS])
def test_cohomology_dims_leaves_the_memoized_delta_as_assembled(a, reps):
    # the image of a unit cochain is its column of the memoized operator, so
    # a consumer that changed an image would change the memo; the seeded
    # random rhos and the parity-joining twists are no Hom-Nambu-Lie data,
    # and delta^2 != 0 on them
    for _, r in [(name, r) for name, r in reps if name in ("adjoint", "coadjoint")]:
        for m in (0, 1, 2):
            cohomology_dims(a, r, m)
            for k in range(max(m - 1, 0), m + 1):
                assert cohomology.delta_operator(a, r, k) == _assemble_delta(a, r, k), (a.name, m, k)


def test_a_unit_cochain_image_is_its_column():
    a = samples.n4()
    columns = cohomology.delta_operator(a, adjoint_rep(a), 1).columns
    k = min(columns)
    assert _images(columns, [{k: 1}])[0] is columns[k]
    assert _images(columns, [{k: 2}, {k: 1, k + 1: 0}]) == [{o: 2 * c for o, c in columns[k].items()}, columns[k]]


def _empty_equation_cases():
    """Untwisted catalog algebras of dim <= 4 with ad and ad*, at every degree
    whose equations are empty (alpha = I, nu = I)."""
    out = []
    for a in samples.catalog():
        for name, rep in _reps(a):
            for k in (0, 1, 2):
                if a.dim <= 4 and cohomology._compat_equations(a, rep, k).empty:
                    out.append((a, name, rep, k))
    return out


def test_empty_equations_offenders_equal_every_slot_applied():
    # no defect pass: both parities accept every vector, and one parity
    # flags exactly the coordinates of the other
    cases = _empty_equation_cases()
    assert len({a.name for a, *_ in cases}) >= 4 and any(name == "coadjoint" for _, name, _, _ in cases)
    rng = random.Random(29)
    verdicts = []
    for a, name, rep, k in cases:
        basis = cochain_basis(a, rep, k)
        raw_dim = basis.model.raw_dim
        vectors = rng.sample(basis.vectors(), min(3, basis.dim))
        vectors += [{rng.randrange(raw_dim): rng.choice([-2, 1, 3]) for _ in range(3)} for _ in range(3)]
        for parity in ("even", "odd", "both"):
            got, want = compat_offenders(a, rep, k, parity), _every_slot_offenders(a, rep, k, parity)
            for vec in vectors:
                assert got(vec) == want(vec), (a.name, name, k, parity, vec)
                verdicts.append(not want(vec))
    assert verdicts.count(True) > 10 and verdicts.count(False) > 10


def _dense_rank(rows) -> int:
    """The rank of sparse rows by the dense Fraction oracle, on the columns
    that hold an entry."""
    cols = sorted(set().union(*rows))
    if not cols:
        return 0
    return len(_rref_pivots(Matrix(len(rows), len(cols), [row.get(c, 0) for row in rows for c in cols]))[1])


@pytest.mark.parametrize("a, reps", CORPUS, ids=[a.name for a, _ in CORPUS])
def test_sparse_rank_of_the_delta_images_equals_the_dense_oracle(a, reps):
    for name, r in reps:
        for m in (0, 1):
            basis = cochain_basis(a, r, m)
            images = _images(cohomology.delta_operator(a, r, m).columns, [_primitive(v) for v in basis.vectors()])
            assert sparse_rank(images) == _dense_rank(images), (name, m)


def _per_image_check(a, r, m, parity, images):
    """The image check one image at a time, as it was before the packed
    blocks: the reference for _check_images's verdict and witness."""
    offenders = compat_offenders(a, r, m + 1, parity)
    for i, image in enumerate(images):
        bad = offenders(image)
        if bad:
            where = cohomology._witness(CochainModel(a, r, m + 1), m, i, min(bad))
            raise NotACochain(f"a delta^{m} image violates the compatibility equations of C^{m + 1}: {where}")


def _verdict(check, a, r, m, parity, images):
    try:
        check(a, r, m, parity, images)
    except NotACochain as e:
        return str(e)
    return None


def _perturbed_images(a, r, m, parity, changes):
    """The images of the primitive basis of C^m under delta^m with w added to
    the column at the pivot of basis cochain j, for each (j, w) of changes.
    No other basis cochain holds that pivot, so only image j moves, by its
    pivot entry times w; the memoized operator is not touched."""
    basis = cochain_basis(a, r, m, parity)
    columns = dict(cohomology.delta_operator(a, r, m).columns)
    pivots = basis.space.pivots()
    for j, w in changes:
        col = dict(columns.get(pivots[j], {}))
        for o, c in w.items():
            col[o] = col.get(o, 0) + c
        columns[pivots[j]] = {o: c for o, c in col.items() if c}
    return _images(columns, [_primitive(v) for v in basis.vectors()])


def _witness_cases():
    """{name: (a, r, m, parities)}: fil4, H3 and N4 with a shear in dense
    bases under ad, oddsq with alpha = diag(1, -1), a diagonal twist whose
    offenses reach their bound, under ad, the coadjoint module of fil4 with
    a shear in a dense basis, and the untwisted SH(1|2) under ad, whose
    equations are empty and whose images meet only the parity filter."""
    rng = random.Random(41)
    shears = {a.name.split("~")[0]: a for a in _shear_twisted(rng)}
    fil4, h3, n4 = (_dense_basis(shears[name], rng) for name in ("fil4", "H3", "N4"))
    oddsq = _diagonal_twisted()[3]
    sh = samples.sh12()
    assert oddsq.alpha.data == [1, 0, 0, -1] and sh.alpha.is_identity()
    return {
        "fil4~sh@dense": (fil4, adjoint_rep(fil4), 1, ("both",)),
        "H3~sh@dense": (h3, adjoint_rep(h3), 1, ("both",)),
        "N4~sh@dense": (n4, adjoint_rep(n4), 2, ("both",)),
        "oddsq~diag": (oddsq, adjoint_rep(oddsq), 2, ("both", "even", "odd")),
        "fil4~sh@dense coadjoint": (fil4, dict(_reps(fil4))["coadjoint"], 1, ("both",)),
        "SH12": (sh, adjoint_rep(sh), 1, ("even", "odd")),
    }


WITNESS_CASES = _witness_cases()


def _scenarios(a, r, m, parity, size):
    """Named perturbations [(j, w), ...] of the delta^m images that break the
    equations of C^{m+1}: an entry of the unwanted parity; one failing image
    at the end, in the middle, and on both sides of the boundary of the
    first block of size K (K-1, K, K+1); two failing images, the earlier
    at the larger coordinate, and two at the same coordinate; negative
    offenses; and offenses of exactly +B and -B where an equation reaches
    the bound."""
    eq = cohomology._compat_equations(a, r, m + 1)
    basis = cochain_basis(a, r, m, parity)
    images = _perturbed_images(a, r, m, parity, [])
    n = len(images)
    if not n:
        return []
    parities = eq.model.parities
    wanted = cohomology._parity_filter(parity)
    out = [("wrong parity", [(n // 2, {o: 1})]) for o, p in enumerate(parities) if p not in wanted][-1:]
    # the least offending coordinate of each breaking unit vector of a wanted parity
    offenders = compat_offenders(a, r, m + 1, parity)
    first = {o: min(bad) for o, p in enumerate(parities) if p in wanted and (bad := offenders({o: 1}))}
    if not first:
        return out
    lo, hi = min(first, key=first.get), max(first, key=first.get)
    assert first[lo] < first[hi]
    out += [
        ("last", [(n - 1, {lo: 1})]),
        ("middle", [(n // 2, {hi: 1})]),
        ("earlier at a larger coordinate", [(n // 3, {hi: 1}), (n - 1, {lo: 1})]),
        ("two at one coordinate", [(n // 3, {lo: 2}), (n - 1, {lo: 1})]),
        ("negative", [(n // 2, {hi: -3}), (n - 1, {lo: -1})]),
    ]
    out += [(f"boundary {i - size:+d}", [(i, {lo: 1})]) for i in (size - 1, size, size + 1) if i < n]
    # +-M at a coordinate where image j is zero and whose unit vector breaks
    # an equation by gain, M the largest |entry| of the images: with a unit
    # pivot entry the offense there is +-M * gain = +-B
    j = n // 2
    norm = max((abs(x) for image in images for x in image.values()), default=1)
    offenses = cohomology._compat_offenses(a, r, m + 1, parity)
    reach = [o for o in first if o not in images[j] and eq.gain in map(abs, offenses({o: 1}).values())]
    if reach and _primitive(basis.vectors()[j])[basis.space.pivots()[j]] == 1:
        out += [(f"{sign:+d} B", [(j, {reach[0]: sign * norm})]) for sign in (1, -1)]
    return out


@pytest.mark.parametrize("case", WITNESS_CASES)
def test_packed_check_names_the_per_image_witness(monkeypatch, case):
    # each perturbed delta^m breaks the equations of C^{m+1}, and the packed
    # blocks raise the text of the per-image loop at the working width, at
    # one image per block and at about three
    a, r, m, parities = WITNESS_CASES[case]
    gain = cohomology._compat_equations(a, r, m + 1).gain
    width = cohomology.PACK_BITS
    seen = set()
    for parity in parities:
        images = _perturbed_images(a, r, m, parity, [])
        assert _verdict(cohomology._check_images, a, r, m, parity, images) is None
        for bits in (width, 1, 3 * cohomology._packing(images, gain)[0].bit_length()):
            monkeypatch.setattr(cohomology, "PACK_BITS", bits)
            for name, changes in _scenarios(a, r, m, parity, cohomology._packing(images, gain)[1]):
                perturbed = _perturbed_images(a, r, m, parity, changes)
                want = _verdict(_per_image_check, a, r, m, parity, perturbed)
                assert want is not None, (name, parity)
                assert _verdict(cohomology._check_images, a, r, m, parity, perturbed) == want, (name, parity, bits)
                seen.add(name if bits == width or "boundary" not in name else f"{name}, narrow")
    if case == "SH12":
        assert seen == {"wrong parity"}
        return
    assert {"last", "middle", "earlier at a larger coordinate", "two at one coordinate", "negative"} <= seen
    assert {"boundary -1, narrow", "boundary +0, narrow", "boundary +1, narrow"} <= seen
    if case == "N4~sh@dense":
        # 264 images of delta^2, more than one block at the working width
        assert {"boundary -1", "boundary +0", "boundary +1"} <= seen
    if case == "oddsq~diag":
        assert {"+1 B", "-1 B", "wrong parity"} <= seen


def _gain_reach(a, r, k) -> tuple:
    """(the largest sum over an output coordinate of the |offenses| of the
    unit vectors, gain): the first bounds |offense(v)| / |v| and is reached."""
    eq = cohomology._compat_equations(a, r, k)
    offenses = cohomology._compat_offenses(a, r, k, "both")
    feeding = {}
    for u in range(eq.model.raw_dim):
        for o, x in offenses({u: 1}).items():
            feeding[o] = feeding.get(o, 0) + abs(x)
    return max(feeding.values(), default=0), eq.gain


@pytest.mark.parametrize("a, reps", CORPUS, ids=[a.name for a, _ in CORPUS])
def test_gain_bounds_every_offense(a, reps):
    for name, r in reps:
        for k in (1, 2):
            reach, gain = _gain_reach(a, r, k)
            assert reach <= gain, (name, k)


def test_a_sign_flipping_twist_reaches_the_gain():
    # alpha = diag(1, -1) on oddsq: nu = alpha, so an equation reads
    # F = -F or -F = F at some coordinate, an offense of 2 |F| = gain |F|
    a, r, m, _ = WITNESS_CASES["oddsq~diag"]
    assert [_gain_reach(a, r, k) for k in (1, 2, 3)] == [(2, 2)] * 3
