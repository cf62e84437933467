"""The one-pass sparse delta operator against the literal term-by-term oracle,
and the checks around it that must hold under `python -O` too."""

import ast
import pathlib
import random
from fractions import Fraction

import pytest

from coboundary_oracle import (
    evaluate,
    literal_coboundary,
    literal_coboundary_matrix,
    literal_cochain_space,
    literal_satisfies_compat,
)
from dense_wrappers import cochain_value, input_tuples
from nambu import cohomology, samples
from nambu.cohomology import (
    Cochain,
    CochainModel,
    Representation,
    adjoint_rep,
    cochain_basis,
    coboundary,
    coboundary_matrix,
    cohomology_dims,
    compat_offenders,
    compat_test,
    satisfies_compat,
)
from nambu.core import GradedSpace, HomSuperAlgebra, StructureTensor, _canonical_tuples, twist_by_endomorphism, verify_algebra
from nambu.errors import InternalError, NotACochain
from nambu.linalg import Matrix, rank, solve_affine
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


def _dense_basis(a: HomSuperAlgebra, rng, pool=(-2, -1, 1, 2)) -> HomSuperAlgebra:
    """a in the basis of the columns of a unit lower triangular matrix whose
    entries below the diagonal are seeded from pool and nonzero within each
    parity block."""
    d, p = a.dim, a.parity
    data = [1 if i == j else 0 for i in range(d) for j in range(d)]
    for i in range(d):
        for j in range(i):
            if p[i] == p[j]:
                data[i * d + j] = rng.choice(pool)
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


@pytest.mark.parametrize("m, builds", [(0, 1), (1, 2), (2, 2)])
def test_cohomology_dims_builds_each_cochain_space_once(monkeypatch, m, builds):
    # C^{m+1} is never built: delta^m images are held to its equations
    calls = []
    real = cohomology.cochain_basis

    def counting(a, r, k, parity="both"):
        calls.append(k)
        return real(a, r, k, parity)

    monkeypatch.setattr(cohomology, "cochain_basis", counting)
    a = samples.h3()
    cohomology_dims(a, adjoint_rep(a), m)
    assert sorted(calls) == list(range(max(m - 1, 0), m + 1))
    assert len(calls) == builds


def _diagonal_twisted():
    half = Fraction(1, 2)
    twists = [(samples.h3, [half, 2, 1]), (samples.sh12, [2, 1, 2]), (samples.filiform4, [2, half, 1, 2]),
              (samples.odd_square, [1, -1]), (samples.n4, [half, 2, 3, 3])]
    out = []
    for make, diag in twists:
        d = len(diag)
        out.append(twist_by_endomorphism(make(), Matrix(d, d, [diag[i] if i == j else 0 for i in range(d) for j in range(d)])))
    return out


def _rational_shear():
    return twist_by_endomorphism(samples.h3(), Matrix(3, 3, [1, 0, 0, Fraction(1, 2), 1, 0, 0, 0, 1]))


def _compat_corpus():
    """Shear twists, diagonal twists with rational entries, and some of each
    in a dense basis, seeded."""
    rng = random.Random(23)
    shear = _shear_twisted(rng) + [_rational_shear()]
    diagonal = _diagonal_twisted()
    return shear + diagonal + [_dense_basis(a, rng) for a in shear[:3] + diagonal[:2]]


def _combination(rng, vectors):
    out = {}
    for vec in vectors:
        c = rng.choice([-2, -1, 1, 3])
        for k, x in vec.items():
            out[k] = out.get(k, 0) + c * x
    return {k: x for k, x in out.items() if x != 0}


def _probes(rng, basis, raw_dim):
    """Seeded vectors in the span of the basis, and the same perturbed at
    one raw coordinate."""
    for _ in range(3):
        vec = _combination(rng, rng.sample(basis, min(len(basis), 3)))
        yield vec
        if raw_dim:
            k = rng.randrange(raw_dim)
            yield {**vec, k: vec.get(k, 0) + rng.choice([-1, 1])}


def _member(basis, vec):
    try:
        basis.coordinates(vec)
    except NotACochain:
        return False
    return True


def _non_even_twists():
    """Twists that join the parities: not Hom-Nambu-Lie data, but C^k is still
    the kernel of its equations, taken parity part by parity part."""
    odd = samples.odd_square()
    alpha = Matrix(2, 2, [1, 1, 0, 1])
    twisted = HomSuperAlgebra(odd.space, odd.bracket, alpha, name="oddsq~mixed")
    sh = samples.sh12()
    ad = adjoint_rep(sh)
    nu = Matrix(3, 3, [1, 0, 0, 1, 1, 0, 0, 0, 1])
    return [(twisted, adjoint_rep(twisted)), (sh, Representation(ad.target, ad.rho, nu))]


def _oracle_corpus():
    """Catalog algebras, seeded diagonal twists, shear twists, dense bases and
    non-even twists, each with its representations."""
    rng = random.Random(5)
    algebras = samples.catalog()
    algebras.append(twist_by_endomorphism(samples.h3(), Matrix(3, 3, [2, 0, 0, 0, 1, 0, 0, 0, 2])))
    for base in samples.catalog():
        rho = samples.random_twist(base, rng, diagonal_only=True)
        if rho is not None:
            algebras.append(twist_by_endomorphism(base, rho))
    algebras += _compat_corpus()
    return [(a, rep) for a in algebras for _, rep in _reps(a)] + _non_even_twists()


def test_cochain_basis_equals_the_literal_oracle():
    checked = diagonal = 0
    for a, rep in _oracle_corpus():
        diagonal += a.alpha.is_diagonal() and not a.alpha.is_identity()
        for m in (0, 1, 2):
            for parity in ("even", "odd", "both"):
                got = cochain_basis(a, rep, m, parity).space
                assert got == literal_cochain_space(a, rep, m, parity), (a.name, m, parity)
                checked += got.dim > 0
    assert diagonal >= 5
    assert checked >= 200


def test_compat_test_equals_cochain_space_membership():
    rng = random.Random(5)
    cases = [(a, rep) for a in _compat_corpus() for _, rep in _reps(a)] + _non_even_twists()
    verdicts = []
    for a, rep in cases:
        for k in (0, 1, 2):
            # probes from both parities test a vector of the wrong parity too
            both = literal_cochain_space(a, rep, k)
            for parity in ("even", "odd", "both"):
                space = literal_cochain_space(a, rep, k, parity)
                holds = compat_test(a, rep, k, parity)
                for source in (space, both):
                    for vec in _probes(rng, source.sparse_rows, both.ambient_dim):
                        member = _member(space, vec)
                        assert holds(vec) == member, (a.name, k, parity, vec)
                        verdicts.append((parity, member))
    for parity in ("even", "odd", "both"):
        assert verdicts.count((parity, True)) > 50 and verdicts.count((parity, False)) > 50


def test_satisfies_compat_equals_the_literal_oracle():
    # each probe declares the parity of the basis it is drawn from; a
    # perturbed probe may leave that parity, which fails membership
    rng = random.Random(7)
    verdicts = []
    for a in _compat_corpus():
        for name, rep in _reps(a):
            for k in (0, 1, 2):
                for parity in (0, 1):
                    basis = cochain_basis(a, rep, k, parity)
                    raw_dim = basis.model.raw_dim
                    for vec in _probes(rng, basis.vectors(), raw_dim):
                        f = Cochain(basis.model, parity, [vec.get(i, 0) for i in range(raw_dim)])
                        verdict = literal_satisfies_compat(a, rep, f)
                        assert satisfies_compat(a, rep, f) == verdict, (a.name, name, k, parity)
                        verdicts.append(verdict)
    assert verdicts.count(True) > 50 and verdicts.count(False) > 50


def _dims_corpus():
    rng = random.Random(31)
    rational = _rational_shear()
    dense = [_dense_basis(make(), rng) for make in (samples.h3, samples.sh12, samples.filiform4)]
    return dense + _shear_twisted(rng) + [rational, _dense_basis(rational, rng), _diagonal_twisted()[2]]


@pytest.mark.parametrize("m", [0, 1, 2])
def test_cohomology_dims_equals_ranks_of_the_delta_matrices(m):
    for a in _dims_corpus():
        for name, rep in _reps(a):
            for parity in ("even", "odd", "both"):
                c_dim = cochain_basis(a, rep, m, parity).dim
                z = c_dim - rank(coboundary_matrix(a, rep, m, parity))
                b = rank(coboundary_matrix(a, rep, m - 1, parity)) if m > 0 else 0
                assert cohomology_dims(a, rep, m, parity) == (z, b, z - b), (a.name, name, parity)


@pytest.mark.parametrize("m, degree", [(0, 0), (1, 1), (1, 0), (2, 1)])
def test_perturbed_delta_operator_raises(monkeypatch, m, degree):
    # one entry of delta^degree moves the image of one basis cochain of
    # C^degree by a unit vector outside C^{degree+1}, off the diagonal path
    a = _shear_twisted(random.Random(3))[0]
    rep = adjoint_rep(a)
    assert not a.alpha.is_diagonal()
    basis = cochain_basis(a, rep, degree)
    column = basis.space.pivots()[0]
    target = cochain_basis(a, rep, degree + 1)
    row = next(o for o in range(target.model.raw_dim) if not _member(target, {o: 1}))
    real = cohomology.delta_operator

    def perturbed(a, r, k):
        op = real(a, r, k)
        if k == degree:
            op.columns.setdefault(column, {})
            op.columns[column][row] = op.columns[column].get(row, 0) + 1
        return op

    cohomology_dims(a, rep, m)
    monkeypatch.setattr(cohomology, "delta_operator", perturbed)
    with pytest.raises(NotACochain, match=f"delta\\^{degree} image violates") as raised:
        cohomology_dims(a, rep, m)
    # the witness: the perturbed basis cochain, and the first coordinate
    # where the unit image at row breaks the equations of C^{degree+1}
    offending = min(compat_offenders(a, rep, degree + 1)({row: 1}))
    assert str(raised.value).endswith(
        f": basis cochain 1 of C^{degree}, coordinate {_one_based_coordinate(target.model, offending)}"
    )


@pytest.mark.parametrize("degree, parity", [(0, "even"), (1, "even"), (1, "odd")])
def test_wrong_parity_image_raises_on_an_untwisted_algebra(monkeypatch, degree, parity):
    # alpha = I and nu = I: the equations apply no slot map, and only the
    # parity filter can catch an entry that moves a basis cochain's image
    # onto a coordinate of the other parity
    a = samples.sh12()
    rep = adjoint_rep(a)
    assert a.alpha.is_identity() and rep.nu.is_identity()
    eq = cohomology._compat_equations(a, rep, degree + 1)
    probe = {0: 1}
    assert eq.twisted(probe) is probe and eq.defect(probe) == {}
    basis = cochain_basis(a, rep, degree, parity)
    column = basis.space.pivots()[0]
    target = CochainModel(a, rep, degree + 1)
    wanted = 0 if parity == "even" else 1
    row = next(o for o, p in enumerate(target.parities) if p != wanted)
    real = cohomology.delta_operator

    def perturbed(a, r, k):
        op = real(a, r, k)
        if k == degree:
            op.columns.setdefault(column, {})
            op.columns[column][row] = op.columns[column].get(row, 0) + 1
        return op

    cohomology_dims(a, rep, degree + 1, parity)
    monkeypatch.setattr(cohomology, "delta_operator", perturbed)
    with pytest.raises(NotACochain, match=f"delta\\^{degree} image violates") as raised:
        cohomology_dims(a, rep, degree + 1, parity)
    assert str(raised.value).endswith(
        f": basis cochain 1 of C^{degree}, coordinate {_one_based_coordinate(target, row)}"
    )


def _every_slot_offenders(a, rep, k, parity):
    """compat_offenders with every slot map applied, identities included: nu
    o F against F(alpha x_1, ..., alpha x_k, alpha z) in the algebra's own
    scalars, one input at a time, on each parity part of F."""
    model = CochainModel(a, rep, k)
    parities = model.parities
    parts = {"both": (0, 1), "even": (0,), "odd": (1,)}[parity]
    aw = cohomology._complex_tables(a).alpha_wedge
    alpha = a.alpha_columns()

    def offenders(vec):
        bad = {flat for flat in vec if parities[flat] not in parts}
        for p in parts:
            f = Cochain(model, p, [vec.get(i, 0) if q == p else 0 for i, q in enumerate(parities)])
            for ws, j in input_tuples(model):
                base = model.flat(ws, j)
                lhs = rep.nu.apply(cochain_value(f, ws, j))
                rhs = evaluate(f, [aw[w] for w in ws], alpha[j])
                bad.update(base + v for v in range(model.DV) if lhs[v] != rhs[v] and parities[base + v] == p)
        return bad

    return offenders


def _slot_twists():
    """alpha = I with nu = I, alpha = I with nu != I, a diagonal twist and a
    shear, each with its module."""
    sh = samples.sh12()
    h3 = samples.h3()
    ad = adjoint_rep(h3)
    nu = Representation(ad.target, ad.rho, Matrix(3, 3, [1, 0, 0, 0, 1, 0, 0, 0, 2]))
    diagonal = _diagonal_twisted()[0]
    shear = _shear_twisted(random.Random(3))[0]
    return [(sh, adjoint_rep(sh)), (h3, nu), (diagonal, adjoint_rep(diagonal)), (shear, adjoint_rep(shear))]


@pytest.mark.parametrize("case", range(4), ids=["identity", "nu-only", "diagonal", "shear"])
def test_compat_offenders_equal_every_slot_applied(case):
    a, rep = _slot_twists()[case]
    rng = random.Random(17 + case)
    verdicts = []
    for k in (0, 1, 2):
        both = cochain_basis(a, rep, k)
        raw_dim = both.model.raw_dim
        for parity in ("even", "odd", "both"):
            got = compat_offenders(a, rep, k, parity)
            want = _every_slot_offenders(a, rep, k, parity)
            vectors = list(_probes(rng, both.vectors(), raw_dim))
            vectors += [{rng.randrange(raw_dim): rng.choice([-2, 1, 3]) for _ in range(3)} for _ in range(4)]
            for vec in vectors:
                assert got(vec) == want(vec), (a.name, k, parity, vec)
                verdicts.append(not want(vec))
    assert verdicts.count(True) > 5 and verdicts.count(False) > 5


def _one_based_coordinate(model, flat):
    ws, z, v = model.coordinate(flat)
    assert model.flat(ws, z) + v == flat
    return f"x={[[k + 1 for k in model.wb.elements[w]] for w in ws]} z={z + 1} v={v + 1}"


@pytest.mark.parametrize("m", [1, 2])
def test_delta_square_witness_names_cochain_and_coordinate(monkeypatch, m):
    # delta^{m-1} of the first basis cochain of C^{m-1} moves by a cochain u
    # of C^m with delta^m u != 0: every image stays in C^m, but delta^2 != 0
    a = _shear_twisted(random.Random(3))[0]
    rep = adjoint_rep(a)
    column = cochain_basis(a, rep, m - 1).space.pivots()[0]
    real = cohomology.delta_operator
    u, image = next(
        (u, image)
        for u in cochain_basis(a, rep, m).vectors()
        if (image := cohomology._images(real(a, rep, m).columns, [u])[0])
    )

    def perturbed(a, r, k):
        op = real(a, r, k)
        if k == m - 1:
            op.columns.setdefault(column, {})
            for o, x in u.items():
                op.columns[column][o] = op.columns[column].get(o, 0) + x
        return op

    cohomology_dims(a, rep, m)
    monkeypatch.setattr(cohomology, "delta_operator", perturbed)
    # the algebra and ad pass their checks, so delta^2 != 0 is the
    # program's fault
    with pytest.raises(InternalError, match=r"delta\^2 != 0 \(internal error\)") as raised:
        cohomology_dims(a, rep, m)
    coordinate = _one_based_coordinate(CochainModel(a, rep, m + 1), min(image))
    assert str(raised.value).endswith(f": basis cochain 1 of C^{m - 1}, coordinate {coordinate}")


def _breaks_the_fundamental_identity():
    """An even 3-ary algebra with [e1,e2,e3] = e1 and [e1,e2,e4] = e2: the
    fundamental identity fails, and so does delta^2 = 0 at m = 1."""
    space = GradedSpace(4, (0, 0, 0, 0))
    entries = {(0, 1, 2): [1, 0, 0, 0], (0, 1, 3): [0, 1, 0, 0]}
    return HomSuperAlgebra(space, StructureTensor(3, space, entries), Matrix.identity(4), name="not-FI")


def test_delta_square_on_input_that_breaks_a_law_names_the_law():
    # the same failure is the input's, not the program's: NotACochain (exit
    # 2) with the broken law and its witness after the cochain's coordinate
    a = _breaks_the_fundamental_identity()
    assert [c.name for c in verify_algebra(a).failed_checks()] == ["fundamental-identity"]
    with pytest.raises(NotACochain) as raised:
        cohomology_dims(a, adjoint_rep(a), 1)
    text = str(raised.value)
    assert text.startswith("delta^2 != 0: basis cochain 1 of C^0, coordinate x=")
    assert "; the algebra fails fundamental-identity: {" in text and "internal error" not in text


def test_coboundary_postcondition_names_the_law_or_is_internal(monkeypatch):
    # alpha = diag(1, 1, 2) on H3 is no morphism: the image of a cochain of
    # C^0 leaves C^1, and the error names multiplicativity
    h3 = samples.h3()
    a = HomSuperAlgebra(h3.space, h3.bracket, Matrix(3, 3, [1, 0, 0, 0, 1, 0, 0, 0, 2]), name="H3~not-a-morphism")
    rep = adjoint_rep(a)
    basis = cochain_basis(a, rep, 0)
    f = Cochain.from_sparse(basis.model, 0, basis.vectors()[0])
    with pytest.raises(NotACochain, match=r"^coboundary output violates compatibility; the algebra fails multiplicativity: \{"):
        coboundary(a, rep, f)
    # on a valid algebra an image outside C^{m+1} is the program's fault
    a = twist_by_endomorphism(samples.h3(), Matrix(3, 3, [1, 0, 0, 0, 2, 0, 0, 0, 2]))
    rep = adjoint_rep(a)
    assert verify_algebra(a).ok
    f = _seeded_cochains(a, rep, 0, random.Random(1), 1)[0]
    outside = next(o for o in range(CochainModel(a, rep, 1).raw_dim) if not cohomology.compat_test(a, rep, 1, 0)({o: 1}))
    real = cohomology.delta_operator

    def perturbed(a, r, k):
        return cohomology.Delta({flat: {outside: 1} for flat in f.vec}, real(a, r, k).scale)

    monkeypatch.setattr(cohomology, "delta_operator", perturbed)
    with pytest.raises(InternalError, match=r"^coboundary output violates compatibility \(internal error\)$"):
        coboundary(a, rep, f)


def _counting_assembly(monkeypatch):
    real = cohomology._assemble_delta
    calls = []

    def counting(a, r, m):
        calls.append((r, m))
        return real(a, r, m)

    monkeypatch.setattr(cohomology, "_assemble_delta", counting)
    return calls


def _seeded_cochains(a, rep, m, rng, count):
    basis = cochain_basis(a, rep, m, 0)
    out = []
    for _ in range(count):
        coeffs = [0] * basis.model.raw_dim
        for vec in basis.vectors():
            c = rng.choice([-2, -1, 0, 1, 3])
            for k, x in vec.items():
                coeffs[k] += c * x
        out.append(Cochain(basis.model, 0, coeffs))
    return out


def test_delta_is_assembled_once_per_algebra_representation_and_degree(monkeypatch):
    a = samples.n4()
    rep = coadjoint_rep(a).rep
    cochains = _seeded_cochains(a, rep, 1, random.Random(2), 4)
    calls = _counting_assembly(monkeypatch)
    images = [coboundary(a, rep, f) for f in cochains + cochains]
    assert calls == [(rep, 1)]
    assert images[:4] == images[4:]
    # another degree, and a new representation object, even an equal one,
    # are assembled afresh
    coboundary(a, rep, _seeded_cochains(a, rep, 0, random.Random(2), 1)[0])
    equal = Representation(rep.target, list(rep.rho), rep.nu)
    coboundary(a, equal, cochains[0])
    assert [m for _, m in calls] == [1, 0, 1] and calls[2][0] is equal


def test_adjoint_and_coadjoint_each_get_their_own_operator():
    rng = random.Random(4)
    for a in (samples.n4(), samples.h3(), samples.sh12(), samples.filiform4()):
        reps = [rep for _, rep in _reps(a)]
        assert len(reps) == 2, a.name
        for m in (0, 1):
            work = [(rep, f) for rep in reps for f in _seeded_cochains(a, rep, m, rng, 2)]
            # alternate the representations on one algebra and degree
            for rep, f in work[::2] + work[1::2]:
                assert coboundary(a, rep, f).coeffs == literal_coboundary(a, rep, f).coeffs, (a.name, m)


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
