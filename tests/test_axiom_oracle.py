"""The canonical-tuple axiom loops against the brute-force sweeps of
axiom_oracle: whole reports (names, verdicts, witnesses), ideal tests and
series must be equal on valid, broken and perturbed algebras."""

import random
from fractions import Fraction

import pytest

import axiom_oracle as oracle
from seeded_inputs import bumped_adjoint, random_form, random_representation, raw_algebra
from dense_wrappers import basis_vector
from nambu import samples
from nambu.cohomology import Cochain, CochainModel, Representation, adjoint_rep, verify_representation, wedge_basis
from nambu.core import (
    BilinearForm,
    GradedSpace,
    HomSuperAlgebra,
    StructureTensor,
    canonical_tuples,
    direct_sum,
    is_hom_ideal,
    series,
    twist_by_endomorphism,
    verify_algebra,
    verify_metric,
    verify_morphism,
)
from nambu.linalg import Matrix, Subspace
from nambu.tstar import (
    MetricAlgebra,
    canonical_isotropic_ideal,
    coadjoint_rep,
    extend_to_maximal_isotropic,
    isotropic_half_ideal_abelian_check,
    reconstruct_as_tstar,
    theta_spaces,
    tstar_extend,
)


def _criterion1_corpus():
    """Criterion 1's algebras: the named corpus and its seeded twists."""
    rng = random.Random(101)
    named = [samples.h3(), samples.sh12(), samples.n4()]
    out = list(named)
    for base in named:
        for _ in range(4):
            rho = samples.random_twist(base, rng)
            if rho is not None:
                out.append(twist_by_endomorphism(base, rho))
    return out


def _random_corpus():
    return [samples.random_twisted_algebra(random.Random(seed)) for seed in range(24)]


def _broken_corpus():
    """Criterion 1's broken variants, plus a 3-ary inhomogeneous tensor
    and an odd twist on a nonzero bracket."""
    space3 = GradedSpace(3, (0, 0, 0))
    mixed = GradedSpace(3, (0, 1, 1))
    odd_pair = GradedSpace(3, (0, 1, 1))
    return [
        HomSuperAlgebra(  # Jacobi violator
            space3,
            StructureTensor(2, space3, {(0, 1): [0, 0, 1], (1, 2): [0, 1, 0]}),
            Matrix.identity(3),
        ),
        HomSuperAlgebra(  # non-multiplicative twist on H3
            samples.h3().space, samples.h3().bracket, Matrix(3, 3, [2, 0, 0, 0, 1, 0, 0, 0, 1])
        ),
        HomSuperAlgebra(  # parity-inhomogeneous entry, raw-loaded
            mixed,
            StructureTensor(2, mixed, {(1, 2): [0, 1, 0]}, strict=False),
            Matrix.identity(3),
        ),
        HomSuperAlgebra(  # a 3-ary inhomogeneous tensor
            odd_pair,
            StructureTensor(3, odd_pair, {(0, 1, 2): [0, 1, 1], (1, 1, 2): [1, 0, 1]}, strict=False),
            Matrix.identity(3),
        ),
        HomSuperAlgebra(  # odd twist map
            GradedSpace(2, (0, 1)),
            StructureTensor(2, GradedSpace(2, (0, 1)), {}),
            Matrix(2, 2, [0, 1, 1, 0]),
        ),
        HomSuperAlgebra(  # odd twist map on a bracket with an odd square
            GradedSpace(2, (0, 1)),
            StructureTensor(2, GradedSpace(2, (0, 1)), {(1, 1): [1, 0]}),
            Matrix(2, 2, [1, 1, 1, 0]),
        ),
    ]


def _theta(g, rng):
    sp = theta_spaces(g)
    basis = sp["closed_cyclic"].basis_vectors()
    if not basis:
        return None
    coeffs = [rng.choice([-2, -1, 1, 2]) for _ in basis]
    vec = [sum(c * b[k] for c, b in zip(coeffs, basis)) for k in range(len(basis[0]))]
    return Cochain(CochainModel(g, sp["rep"], 1), 0, vec)


def _tstar_corpus():
    """T*(g) and T*_theta(g) as metric algebras for the catalog algebras
    whose coadjoint representation exists."""
    rng = random.Random(7)
    out = []
    for g in samples.catalog():
        if not coadjoint_rep(g).exists:
            continue
        out.append(tstar_extend(g).result)
        theta = _theta(g, rng)
        if theta is not None:
            out.append(tstar_extend(g, theta).result)
    return out


def _scaled(m: MetricAlgebra, rng):
    """m with one seeded structure constant scaled by a seeded factor."""
    a = m.algebra
    entries = {key: list(vec) for key, vec in a.bracket.items()}
    key = rng.choice(sorted(entries))
    k = rng.choice([i for i, c in enumerate(entries[key]) if c != 0])
    entries[key][k] *= rng.choice([2, -1, Fraction(1, 2), 3])
    tensor = StructureTensor(a.arity, a.space, entries)
    return MetricAlgebra(HomSuperAlgebra(a.space, tensor, a.alpha, name=a.name + "~scaled"), m.form)


def _bumped(m: MetricAlgebra, rng):
    """m with 1 added to one seeded parity-consistent structure constant,
    which breaks the fundamental identity more often than a scaling does."""
    a = m.algebra
    entries = {key: list(vec) for key, vec in a.bracket.items()}
    slots = [
        (key, k)
        for key in canonical_tuples(a.space, a.arity)
        for k in range(a.dim)
        if a.parity[k] == a.space.parity_of_indices(key)
    ]
    if not slots:  # e.g. all-odd 2-ary: every bracket would be odd -> even
        return None
    key, k = rng.choice(slots)
    vec = entries.setdefault(key, [0] * a.dim)
    vec[k] += 1
    tensor = StructureTensor(a.arity, a.space, entries)
    return MetricAlgebra(HomSuperAlgebra(a.space, tensor, a.alpha, name=a.name + "~bumped"), m.form)


TSTARS = _tstar_corpus()
PERTURBED = [_scaled(m, random.Random(i)) for i, m in enumerate(TSTARS) if m.algebra.bracket.entries]
PERTURBED += [b for i, m in enumerate(TSTARS) if (b := _bumped(m, random.Random(100 + i)))]


@pytest.mark.parametrize(
    "a",
    _criterion1_corpus() + _random_corpus() + _broken_corpus(),
    ids=lambda a: a.name or "anon",
)
def test_verify_algebra_equals_oracle(a):
    assert verify_algebra(a).to_dict() == oracle.verify_algebra(a).to_dict()


def test_broken_and_perturbed_variants_fail_with_witnesses():
    # the comparison above and below is not vacuous: the broken variants and
    # some perturbed T*-extensions fail the swept checks with witnesses
    failed = set()
    for a in _broken_corpus() + [m.algebra for m in PERTURBED]:
        report = verify_algebra(a)
        failed |= {c.name for c in report.checks if not c.passed and c.witness}
    for m in PERTURBED:
        report = verify_metric(m.algebra, m.form)
        failed |= {c.name for c in report.checks if not c.passed and c.witness}
    assert {"fundamental-identity", "homogeneity", "invariant"} <= failed


@pytest.mark.parametrize("m", TSTARS + PERTURBED, ids=lambda m: m.algebra.name)
def test_tstar_reports_equal_oracle(m):
    a = m.algebra
    assert verify_algebra(a).to_dict() == oracle.verify_algebra(a).to_dict()
    assert verify_metric(a, m.form).to_dict() == oracle.verify_metric(a, m.form).to_dict()


def _maps(a):
    """Self-maps of a: its twist, the identity, 2 times it (a morphism
    only of an abelian bracket) and seeded twists."""
    rng = random.Random(a.dim)
    maps = [a.alpha, Matrix.identity(a.dim), Matrix.identity(a.dim).scale(2)]
    if a.alpha.is_identity():
        maps += [rho for _ in range(3) if (rho := samples.random_twist(a, rng)) is not None]
    return maps


@pytest.mark.parametrize(
    "a",
    _criterion1_corpus() + _random_corpus() + _broken_corpus(),
    ids=lambda a: a.name or "anon",
)
def test_verify_morphism_equals_oracle(a):
    for f in _maps(a):
        assert verify_morphism(f, a, a).to_dict() == oracle.verify_morphism(f, a, a).to_dict()


def test_morphism_comparison_is_not_vacuous():
    # 2 times the identity breaks the bracket check of a nonabelian algebra
    for a in (samples.h3(), samples.sh12(), samples.n4()):
        (failed,) = oracle.verify_morphism(Matrix.identity(a.dim).scale(2), a, a).failed_checks()
        assert failed.name == "bracket" and failed.witness, a.name


def test_oracle_calls_no_production_bracket():
    # the oracle's bracket is literal; a name of the production kernel in it
    # would let one slip pass on both sides of every comparison
    import ast
    import pathlib

    tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    banned = {"bracket_eval", "bracket_basis", "sparse_value", "sparse_bracket", "multilinear"}
    banned |= {"wedge_of_vectors", "action", "module_action"}
    assert not names & banned


def _representations(a):
    """ad, ad* where it exists, a seeded random rho on g's grading and ad
    with one seeded entry bumped: the last two fail on almost every
    algebra, so failing witnesses are compared too."""
    coad = coadjoint_rep(a)
    rng = random.Random(a.dim * 17 + a.arity)
    reps = [adjoint_rep(a)] + ([coad.rep] if coad.exists else [])
    return reps + [random_representation(a, rng), bumped_adjoint(a, rng)]


@pytest.mark.parametrize(
    "a",
    _criterion1_corpus() + _random_corpus() + _broken_corpus(),
    ids=lambda a: a.name or "anon",
)
def test_verify_representation_equals_oracle(a):
    for r in _representations(a):
        assert verify_representation(r, a).to_dict() == oracle.verify_representation(r, a).to_dict()


def test_representation_comparison_is_not_vacuous():
    # the random and bumped modules break every check of the report somewhere
    # in the corpus, each with a witness
    failed = set()
    for a in _criterion1_corpus() + _random_corpus() + _broken_corpus():
        for r in _representations(a):
            failed |= {c.name for c in verify_representation(r, a).failed_checks() if c.witness}
    assert failed == {"grading", "hom-jacobi", "n-ary-compatibility", "twist-equivariance"}


def _even_algebra(dim, n, entries, alpha_cols=None):
    """An all-even algebra from its stored entries {key: {output: c}}, with
    alpha the identity except on the columns given as {column: {row: c}}."""
    space = GradedSpace(dim, (0,) * dim)
    alpha = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for j, col in (alpha_cols or {}).items():
        for i in range(dim):
            alpha[i][j] = col.get(i, 0)
    tensor = StructureTensor(n, space, {key: [val.get(k, 0) for k in range(dim)] for key, val in entries.items()})
    return HomSuperAlgebra(space, tensor, Matrix.from_rows(alpha), name="guard")


def _zero(vec):
    return all(c in (0, "0") for c in vec)


def test_skip_rules_keep_a_failure_with_only_a_left_side():
    # e1 central with alpha e1 = e2: at x = e1 every [x, y_i] is 0, yet
    # [alpha x, [y]] is not, so a rule that followed the mids alone would
    # drop the first witness
    a = _even_algebra(5, 2, {(1, 2): {3: 1}, (1, 3): {4: 1}}, {0: {1: 1}})
    report = verify_algebra(a)
    assert report.to_dict() == oracle.verify_algebra(a).to_dict()
    (w,) = [c.witness for c in report.checks if c.name == "fundamental-identity" and not c.passed]
    xs, ys = tuple(i - 1 for i in w["x"]), tuple(i - 1 for i in w["y"])
    assert _zero(w["rhs"]) and not _zero(w["lhs"])
    assert all(_zero(oracle.literal_value(a.bracket, xs + (y,))) for y in ys)


def test_skip_rules_keep_a_failure_with_only_a_right_side():
    # [e1, e2] = e3, [e3, e4] = e5: at x = e1, y = (e2, e4) the bracket [y]
    # is 0 but [[x, y_1], alpha y_2] is not
    a = _even_algebra(5, 2, {(0, 1): {2: 1}, (2, 3): {4: 1}})
    report = verify_algebra(a)
    assert report.to_dict() == oracle.verify_algebra(a).to_dict()
    (w,) = [c.witness for c in report.checks if c.name == "fundamental-identity" and not c.passed]
    assert _zero(w["lhs"]) and not _zero(w["rhs"])
    assert _zero(oracle.literal_value(a.bracket, tuple(i - 1 for i in w["y"])))


def test_skip_rules_keep_an_invariance_failure_off_the_brackets():
    # H3 with <e1, e3> = 1: at x = e1, y = e1 the bracket [x, y] is 0, and
    # <y, [x, e2]> = <e1, e3> is not
    a = samples.h3()
    form = BilinearForm(Matrix(3, 3, [0, 0, 1, 0, 1, 0, 1, 0, 0]))
    report = verify_metric(a, form)
    assert report.to_dict() == oracle.verify_metric(a, form).to_dict()
    (w,) = [c.witness for c in report.checks if c.name == "invariant"]
    assert w["lhs"] == "0" and w["rhs"] != "0"
    assert _zero(oracle.literal_value(a.bracket, tuple(i - 1 for i in w["x"]) + (w["y"] - 1,)))


def test_skip_rules_keep_a_multiplicativity_failure_off_the_keys():
    # [e1, e2] = e3 and alpha e4 = e1: [e2, e4] is no key, but
    # [alpha e2, alpha e4] = [e2, e1] is not 0
    a = _even_algebra(4, 2, {(0, 1): {2: 1}}, {3: {0: 1}})
    report = verify_algebra(a)
    assert report.to_dict() == oracle.verify_algebra(a).to_dict()
    (w,) = [c.witness for c in report.checks if c.name == "multiplicativity"]
    assert tuple(i - 1 for i in w["args"]) not in a.bracket.entries and not _zero(w["rhs"])


def _sparse_rep(a, entries):
    """rho zero but on the wedges given, as {wedge: {(row, col): c}}, and
    nu = alpha."""
    wb = wedge_basis(a.space, a.arity - 1)
    rho = [Matrix.zeros(a.dim, a.dim) for _ in wb.elements]
    for t, cells in entries.items():
        rho[wb.index[t]] = Matrix(a.dim, a.dim, [cells.get((i, j), 0) for i in range(a.dim) for j in range(a.dim)])
    return Representation(a.space, rho, a.alpha)


def test_skip_rules_keep_representation_failures_on_a_bumped_zero_wedge():
    # ad(N4) is 0 on e3 ^ e4; one entry bumped there breaks hom-jacobi
    # through rho([x, y]_alpha) and the n-ary law through rho(alpha x ^ [y]),
    # at pairs that a rule reading the places of ad instead of rho's drops
    a = samples.n4()
    ad = adjoint_rep(a)
    w = wedge_basis(a.space, 2).index[(2, 3)]
    assert not any(ad.columns[w])
    rho = list(ad.rho)
    rho[w] = Matrix(4, 4, [1] + [0] * 15)
    r = Representation(ad.target, rho, ad.nu)
    report = verify_representation(r, a)
    assert report.to_dict() == oracle.verify_representation(r, a).to_dict()
    assert {c.name for c in report.failed_checks()} == {"hom-jacobi", "n-ary-compatibility"}


@pytest.mark.parametrize("entries, failing, witness", [
    # rho(e3 ^ e4): e1 -> e2 alone.  Hom-jacobi fails only where
    # rho([x, y]_alpha) does, at x = e1 ^ e3, y = e2 ^ e3, and the n-ary law
    # only where rho(alpha x ^ [y]) does, at x = e3, y = (e1, e2, e3)
    ({(2, 3): {(1, 0): 1}}, "hom-jacobi", {"x": [1, 3], "y": [2, 3]}),
    ({(2, 3): {(1, 0): 1}}, "n-ary-compatibility", {"x": [3], "y": [1, 2, 3]}),
    # rho(e1 ^ e2): e3 -> e4 and rho(e3 ^ e4): e4 -> e1.  The first n-ary
    # failure is rho(alpha(e3 ^ e4)) rho(e1 ^ e2) alone, at x = e1,
    # y = (e2, e3, e4), where [y] = 0
    ({(0, 1): {(3, 2): 1}, (2, 3): {(0, 3): 1}}, "n-ary-compatibility", {"x": [1], "y": [2, 3, 4]}),
])
def test_skip_rules_keep_representation_failures_of_one_term(entries, failing, witness):
    # on N4 each failure below has a single nonzero term, so a skip rule
    # that dropped that term's pairs would report another witness or none
    a = samples.n4()
    r = _sparse_rep(a, entries)
    report = verify_representation(r, a)
    assert report.to_dict() == oracle.verify_representation(r, a).to_dict()
    (check,) = [c for c in report.checks if c.name == failing]
    assert check.witness == witness


def _decompose_ideals(m: MetricAlgebra):
    """The ideals decompose produces on m: the canonical isotropic ideal, its
    maximal isotropic extension, and the reconstruction's g1."""
    j = canonical_isotropic_ideal(m)
    ideal = extend_to_maximal_isotropic(m, j)
    rec = reconstruct_as_tstar(m, ideal)
    return j, ideal, rec.g1


# T*(N4 (+) K^2): dim 12, 3-ary, as test_tstar builds it
DIM12 = [tstar_extend(direct_sum(samples.n4(), samples.abelian(2, n=3))).result]


@pytest.mark.parametrize("m", TSTARS + DIM12, ids=lambda m: m.algebra.name)
def test_ideals_and_series_equal_oracle(m):
    a = m.algebra
    j, ideal, g1 = _decompose_ideals(m)
    candidates = [j, ideal, Subspace.zero(a.dim), Subspace.full(a.dim)]
    # graded coordinate lines: mostly not ideals, so the False branch is compared too
    candidates += [Subspace.from_vectors(a.dim, [basis_vector(a, i)]) for i in range(a.dim)]
    for h in candidates:
        assert is_hom_ideal(h, a) == oracle.is_hom_ideal(h, a)
    assert is_hom_ideal(ideal, a)
    assert isotropic_half_ideal_abelian_check(m, ideal) == oracle.isotropic_half_ideal_bracket_vanishes(a, ideal)
    for alg in (a, g1):
        for kind in ("derived", "lower_central"):
            assert series(alg, kind) == oracle.series(alg, kind)
        for h in series(alg, "lower_central").terms:
            assert is_hom_ideal(h, alg) == oracle.is_hom_ideal(h, alg)
    half = a.dim // 2  # the embedded dual g*: the second block of coordinates
    dual = Subspace.from_vectors(a.dim, [basis_vector(a, half + i) for i in range(half)])
    assert is_hom_ideal(dual, a) == oracle.is_hom_ideal(dual, a)


@pytest.mark.parametrize("a", _random_corpus(), ids=lambda a: a.name or "anon")
def test_series_equal_oracle_on_random_twists(a):
    for kind in ("derived", "lower_central"):
        assert series(a, kind) == oracle.series(a, kind)


def _graded_subspace(a, rng):
    vecs = [
        [rng.choice([0, 0, 1, -1]) if a.parity[i] == par else 0 for i in range(a.dim)]
        for par in (0, 1)
        for _ in range(rng.choice([0, 1]))
    ]
    return Subspace.from_vectors(a.dim, vecs)


@pytest.mark.parametrize("block", range(4))
def test_raw_random_tensors_equal_oracle(block):
    for seed in range(200 * block, 200 * (block + 1)):
        rng = random.Random(seed)
        a = raw_algebra(rng)
        algebra_report = verify_algebra(a)
        assert algebra_report.to_dict() == oracle.verify_algebra(a).to_dict(), seed
        r = adjoint_rep(a)
        rep_report = verify_representation(r, a)
        assert rep_report.to_dict() == oracle.verify_representation(r, a).to_dict(), seed
        # on ad, hom-jacobi at (x, y) applied to z is the FI at (x, (y, z)),
        # and the n-ary law at (x, y) applied to z the FI at ((x, z), y), up
        # to skew signs: the verdicts agree, the witnesses are not the same
        verdicts = {c.name: c.passed for c in algebra_report.checks}
        laws = {c.name: c.passed for c in rep_report.checks}
        assert laws["hom-jacobi"] == laws["n-ary-compatibility"] == verdicts["fundamental-identity"], seed
        for _ in range(3):
            h = _graded_subspace(a, rng)
            assert is_hom_ideal(h, a) == oracle.is_hom_ideal(h, a), seed
        for kind in ("derived", "lower_central"):
            assert series(a, kind) == oracle.series(a, kind), seed
        # drawn last, so the inputs above are those of the seed alone
        form = random_form(a, rng)
        assert verify_metric(a, form).to_dict() == oracle.verify_metric(a, form).to_dict(), seed
