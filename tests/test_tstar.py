import itertools
import random

import pytest

from coadjoint_conditions import coadjoint_conditions
import dense_enlargement
from dense_enlargement import dense_extend_to_maximal_isotropic
from dense_reconstruct import dense_reconstruct_as_tstar
from dense_wrappers import bracket_basis, cochain_value
from nambu import samples
from nambu.cohomology import (
    Cochain,
    CochainModel,
    adjoint_rep,
    coboundary,
    delta_square_is_zero,
    verify_representation,
    _wedge,
)
from nambu.core import (
    BilinearForm,
    GradedSpace,
    HomSuperAlgebra,
    StructureTensor,
    direct_sum,
    nilpotent_length,
    series,
    solvable_length,
    sparse_columns,
    twist_by_endomorphism,
    verify_algebra,
    verify_metric,
    verify_morphism,
)
from nambu.errors import (
    AlgebraError,
    InternalError,
    NeedsFieldExtension,
    NotNilpotent,
    ThetaNotClosed,
    ThetaNotCyclic,
)
from nambu.extensions import ExtensionDatum, build_extension
from nambu.linalg import Matrix, Subspace, nullspace, rank
from nambu.samples import abelian, h3, n4, odd_square, sh12
from nambu.tstar import (
    MetricAlgebra,
    adjoin_line,
    canonical_isotropic_ideal,
    centralizer,
    centralizer_series,
    coadjoint_rep,
    decompose,
    embedded_dual,
    equivalence,
    extend_to_maximal_isotropic,
    induced_form,
    is_cyclic_cocycle,
    is_isotropic,
    isotropic_half_ideal_abelian_check,
    reconstruct_as_tstar,
    theta_spaces,
    theta_prime_as_cochain,
    tstar_direct_sum_law,
    tstar_extend,
    tstar_series_laws,
    zero_theta,
)


def make_algebra(name, n, parity, entries, alpha=None):
    space = GradedSpace(len(parity), parity)
    return HomSuperAlgebra(
        space,
        StructureTensor(n, space, entries),
        alpha if alpha is not None else Matrix.identity(len(parity)),
        name=name,
    )


def cochain_from_vec(g, rep, vec):
    model = CochainModel(g, rep, 1)
    return Cochain(model, 0, list(vec))


def operator_conditions(a):
    """The sufficient bracket-operator conditions for ad*: (ok, witness)."""
    return coadjoint_conditions(a, adjoint_rep(a))


def twist_equivariant(a, ca):
    report = verify_representation(ca.rep, a)
    return next(c.passed for c in report.checks if c.name == "twist-equivariance")


class TestCoadjoint:
    def test_abelian_coadjoint_zero(self):
        a = abelian(2, 1)
        ca = coadjoint_rep(a)
        assert ca.exists and operator_conditions(a)[0]
        assert all(m.is_zero() for m in ca.rep.rho)

    @pytest.mark.parametrize("make", [h3, sh12, n4, odd_square])
    def test_catalog_coadjoint_exists_and_verifies(self, make):
        a = make()
        ca = coadjoint_rep(a)
        assert ca.exists
        assert verify_representation(ca.rep, a).ok

    def test_h3_coadjoint_matrices(self):
        a = h3()
        ca = coadjoint_rep(a)
        # ad*(e1) e3* = -e2*, ad*(e2) e3* = +e1*
        assert ca.rep.rho[0].col(2) == [0, -1, 0]
        assert ca.rep.rho[1].col(2) == [1, 0, 0]

    def test_anticommutation_condition_is_strictly_stronger(self):
        # ad* of the solvable algebra [e1,e2]=e2 is a genuine representation
        # although the termwise anticommutation condition fails
        g = make_algebra("affine2", 2, (0, 0), {(0, 1): [0, 1]})
        assert verify_algebra(g).ok
        ca = coadjoint_rep(g)
        ok, witness = operator_conditions(g)
        assert not ok
        assert witness["condition"] == "anticommutation"
        assert ca.exists
        assert verify_representation(ca.rep, g).ok
        for m in (0, 1):
            assert delta_square_is_zero(g, ca.rep, m)

    def test_corpus_search_existence_landscape(self):
        # Open-question bookkeeping.  Three regimes appear in the corpus:
        # untwisted algebras always have ad* (equivariance is trivial);
        # 3-step nilpotent members violate the termwise anticommutation law
        # (termwise anticommutation would force ad(e1)^2 = 0) while ad*
        # still exists when the twist is trivial; and genuinely twisted
        # members often lose ad* to the twist-equivariance requirement.
        rng = random.Random(99)
        condition_violations = missing = 0
        for _ in range(30):
            a = samples.random_twisted_algebra(rng)
            ca = coadjoint_rep(a)
            if a.alpha.is_identity():
                assert ca.exists, a.name
            if not operator_conditions(a)[0] and ca.exists:
                condition_violations += 1
                assert a.name.startswith("fil4")
            if not ca.exists:
                missing += 1
                assert ca.witness is not None
        assert condition_violations > 0 and missing > 0

    def test_operator_conditions_and_equivariance_give_existence(self):
        # the sufficiency that lets existence rest on one representation
        # check: wherever the bracket-operator conditions hold and ad* is
        # twist-equivariant, coadjoint_rep reports that ad* exists
        rng = random.Random(99)
        corpus = [samples.random_twisted_algebra(rng) for _ in range(30)] + samples.catalog()
        covered = 0
        for a in corpus:
            ca = coadjoint_rep(a)
            if operator_conditions(a)[0] and twist_equivariant(a, ca):
                assert ca.exists, a.name
                assert ca.witness is None, a.name
                covered += 1
        assert covered >= 10

    def test_equivariance_gap_witness(self):
        # diag(1,3,3)-twisted H3: the bracket-operator conditions and the three
        # representation identities hold for ad*, yet T*_0 is not multiplicative;
        # the exists flag therefore demands twist-equivariance as well
        t = twist_by_endomorphism(h3(), Matrix(3, 3, [1, 0, 0, 0, 3, 0, 0, 0, 3]))
        ca = coadjoint_rep(t)
        assert operator_conditions(t)[0]
        assert not ca.exists
        assert "equivariance" in ca.witness
        raw = tstar_extend(t, None, validated=False)
        report = verify_algebra(raw.algebra)
        assert {c.name for c in report.failed_checks()} == {"multiplicativity"}
        from nambu.errors import CoadjointMissing

        with pytest.raises(CoadjointMissing):
            tstar_extend(t, None)

    def test_delta0_matches_section4_display(self):
        # independent oracle: delta theta'(x_1..x_n) = -theta'([x_1..x_n])
        #   + sum_i (-1)^{n-i}(-1)^{|x_i|(|x_{i+1}|+..+|x_n|)}
        #     ad*(x_1,..,hat x_i,..,x_n) . theta'(x_i)
        rng = random.Random(4)
        for make in (h3, sh12, n4, odd_square, lambda: abelian(1, 1)):
            g = make()
            ca = coadjoint_rep(g)
            d = g.dim
            p = g.parity
            wb = _wedge(g)
            model0 = CochainModel(g, ca.rep, 0)
            # the display is for even 0-cochains: zero the parity-mixing block
            tmat = Matrix(
                d,
                d,
                [
                    rng.randint(-3, 3) if p[k] == p[j] else 0
                    for k in range(d)
                    for j in range(d)
                ],
            )
            coeffs = [0] * model0.raw_dim
            for j in range(d):
                for k in range(d):
                    coeffs[model0.flat((), j) + k] = tmat[k, j]
            f = Cochain(model0, 0, coeffs)
            got = coboundary(g, ca.rep, f, check=False)
            n = g.arity
            for w, t in enumerate(wb.elements):
                for j in range(d):
                    xs = t + (j,)
                    val = [-c for c in tmat.apply(bracket_basis(g, xs))]
                    for i in range(n):
                        sgn = (-1) ** (n - 1 - i)
                        suffix = sum(p[xs[l]] for l in range(i + 1, n)) % 2
                        if p[xs[i]] == 1 and suffix == 1:
                            sgn = -sgn
                        hat = xs[:i] + xs[i + 1 :]
                        sign_w, w_hat = wb.lookup(hat)
                        if sign_w == 0:
                            continue
                        piece = ca.rep.rho[w_hat].apply(tmat.col(xs[i]))
                        for k, c in enumerate(piece):
                            if c != 0:
                                val[k] += sgn * sign_w * c
                    assert val == cochain_value(got, (w,), j), (g.name, t, j)


class TestTStarExtend:
    def test_trivial_on_abelian_line_is_hyperbolic_plane(self):
        ext = tstar_extend(abelian(1))
        assert ext.algebra.dim == 2
        assert ext.algebra.is_abelian()
        assert ext.form.gram == Matrix.from_rows([[0, 1], [1, 0]])
        assert ext.result.verify().ok

    def test_trivial_on_h3(self):
        ext = tstar_extend(h3())
        assert ext.algebra.dim == 6
        assert nilpotent_length(ext.algebra) == 2
        assert ext.result.verify().ok

    def test_dual_block_bracket_values(self):
        # [e1, e3*] = -e2*, [e2, e3*] = +e1* inside T*0(H3)
        # (dual block order: index 3 = e1*, 4 = e2*, 5 = e3*)
        ext = tstar_extend(h3())
        alg = ext.algebra
        assert bracket_basis(alg, (0, 5)) == [0, 0, 0, 0, -1, 0]
        assert bracket_basis(alg, (1, 5)) == [0, 0, 0, 1, 0, 0]

    def test_closed_noncyclic_theta_gives_algebra_but_not_metric(self):
        g = abelian(1, 1)
        sp = theta_spaces(g)
        closed, cyclic = sp["closed"], sp["cyclic"]
        assert closed.dim > cyclic.dim
        vec = None
        for cand in closed.basis_vectors():
            if not cyclic.contains_vector(cand):
                vec = cand
                break
        assert vec is not None
        theta = cochain_from_vec(g, sp["rep"], vec)
        with pytest.raises(ThetaNotCyclic):
            tstar_extend(g, theta)
        raw = tstar_extend(g, theta, validated=False)
        assert verify_algebra(raw.algebra).ok
        report = raw.result.verify()
        assert not report.ok
        assert {c.name for c in report.failed_checks()} == {"invariant"}

    def test_nonclosed_theta_rejected_and_fails_raw(self):
        g = h3()
        sp = theta_spaces(g)
        vec = None
        for cand in sp["cochain"].basis_vectors():
            if not sp["closed"].contains_vector(cand):
                vec = cand
                break
        assert vec is not None
        theta = cochain_from_vec(g, sp["rep"], vec)
        with pytest.raises(ThetaNotClosed):
            tstar_extend(g, theta)
        raw = tstar_extend(g, theta, validated=False)
        assert not verify_algebra(raw.algebra).ok

    def test_form_properties_hold_regardless_of_theta(self):
        # nondegeneracy, supersymmetry, consistency, twist self-adjointness
        # do not depend on theta at all
        for g in (h3(), abelian(1, 1), sh12()):
            sp = theta_spaces(g)
            vecs = sp["cochain"].basis_vectors()
            theta_vec = vecs[0] if vecs else None
            theta = (
                cochain_from_vec(g, sp["rep"], theta_vec)
                if theta_vec is not None
                else None
            )
            ext = tstar_extend(g, theta, validated=False)
            report = ext.result.verify()
            by_name = {c.name: c.passed for c in report.checks}
            assert by_name["nondegenerate"]
            assert by_name["supersymmetric"]
            assert by_name["consistent"]
            assert by_name["alpha-symmetric"]

    def test_embedded_dual_is_isotropic_abelian_ideal(self):
        for g in (h3(), sh12(), n4()):
            ext = tstar_extend(g)
            dual = embedded_dual(ext)
            assert dual.dim == g.dim
            assert is_isotropic(ext.result, dual)
            assert isotropic_half_ideal_abelian_check(ext.result, dual)

    def test_iff_both_directions_on_samples(self):
        # closed <-> algebra axioms; cyclic <-> metric (given closed)
        g = abelian(1, 1)
        sp = theta_spaces(g)
        rng = random.Random(12)
        closed_checked = nonclosed_checked = 0
        basis_all = sp["cochain"].basis_vectors()
        for _ in range(20):
            coeffs = [0] * sp["model"].raw_dim
            for vec in basis_all:
                c = rng.randint(-2, 2)
                if c:
                    for k, x in enumerate(vec):
                        if x != 0:
                            coeffs[k] += c * x
            theta = cochain_from_vec(g, sp["rep"], coeffs)
            raw = tstar_extend(g, theta, validated=False)
            algebra_ok = verify_algebra(raw.algebra).ok
            closed = coboundary(g, sp["rep"], theta, check=False).is_zero()
            assert algebra_ok == closed
            if closed:
                closed_checked += 1
                metric_ok = raw.result.verify().ok
                assert metric_ok == is_cyclic_cocycle(g, theta)
            else:
                nonclosed_checked += 1
        assert closed_checked > 0

    def test_tstar_is_the_extension_by_the_dual(self):
        # T*_theta(g) and the extension of g by g* through ad* and theta agree
        # once the blocks are swapped: fiber i -> d + i, base i -> i - d
        rng = random.Random(6)
        compared = 0
        for g in samples.catalog():
            coad = coadjoint_rep(g)
            if not coad.exists:
                continue
            thetas = [zero_theta(g)]
            basis = theta_spaces(g)["closed_cyclic"].basis_vectors()
            if basis:
                coeffs = [0] * CochainModel(g, coad.rep, 1).raw_dim
                for vec in basis:
                    c = rng.choice((-3, -2, -1, 1, 2, 3))
                    coeffs = [x + c * y for x, y in zip(coeffs, vec)]
                thetas.append(cochain_from_vec(g, coad.rep, coeffs))
            for theta in thetas:
                t = tstar_extend(g, theta).algebra
                e = build_extension(ExtensionDatum(g, g.space, g.alpha.transpose(), coad.rep, theta))
                d = g.dim
                swap = [d + i for i in range(d)] + list(range(d))
                assert [t.parity[swap[i]] for i in range(2 * d)] == list(e.parity)
                for key in itertools.product(range(2 * d), repeat=g.arity):
                    val = bracket_basis(e, key)
                    assert bracket_basis(t, tuple(swap[k] for k in key)) == [val[swap[j]] for j in range(2 * d)]
                assert all(t.alpha[swap[i], swap[j]] == e.alpha[i, j] for i in range(2 * d) for j in range(2 * d))
                compared += 1
        assert compared == 12 + 7  # the catalog, and the seven with closed cyclic thetas

    def test_cyclic_check_examples(self):
        g = abelian(1, 1)
        assert is_cyclic_cocycle(g, zero_theta(g))
        sp = theta_spaces(g)
        for vec in sp["cyclic"].basis_vectors():
            assert is_cyclic_cocycle(g, cochain_from_vec(g, sp["rep"], vec))

    def test_even_abelian_plane_has_no_nonzero_cyclic_cocycle(self):
        for n in (2, 3):
            g = abelian(2, 0, n=n)
            sp = theta_spaces(g)
            assert sp["cyclic"].dim == 0


class TestSeriesLaws:
    @pytest.mark.parametrize("make", [lambda: abelian(2), h3, sh12, n4, odd_square])
    def test_trivial_theta_laws(self, make):
        report = tstar_series_laws(make())
        assert report.ok

    def test_solvable_law_h3(self):
        g = h3()
        assert solvable_length(g) == 2
        t = tstar_extend(g)
        assert solvable_length(t.algebra) in (2, 3)

    def test_nontrivial_theta_laws(self):
        g = abelian(1, 1)
        sp = theta_spaces(g)
        vec = sp["closed_cyclic"].basis_vectors()[0]
        theta = cochain_from_vec(g, sp["rep"], vec)
        report = tstar_series_laws(g, theta)
        assert report.ok
        ext = tstar_extend(g, theta)
        # theta makes the extension 2-step nilpotent while the base is abelian
        assert nilpotent_length(ext.algebra) == 2

    def test_direct_sum_law(self):
        report = tstar_direct_sum_law(h3(), abelian(1))
        assert report.ok
        report = tstar_direct_sum_law(sh12(), abelian(1, 1))
        assert report.ok


class TestCentralizer:
    def test_abelian_centralizer_is_everything(self):
        m = MetricAlgebra(abelian(2), BilinearForm(Matrix.identity(2)))
        _, chain = centralizer_series(m)
        assert [c.dim for c in chain] == [0, 2]

    def test_tstar_h3_chain_and_perp_law(self):
        ext = tstar_extend(h3())
        m = ext.result
        _, chain = centralizer_series(m)
        assert [c.dim for c in chain] == [0, 3, 6]
        lc = series(m.algebra, "lower_central")
        # g^i = C_i(g)^perp for the 0-based series, until stabilization
        for i, term in enumerate(lc.terms):
            ci = chain[i] if i < len(chain) else chain[-1]
            assert term == ci.orthogonal_complement(m.gram)

    def test_dual_path_runs_on_metric_corpus(self):
        corpus = [
            tstar_extend(h3()).result,
            tstar_extend(abelian(1, 1)).result,
            tstar_extend(sh12()).result,
            tstar_extend(n4()).result,
            MetricAlgebra(abelian(3), BilinearForm(Matrix.identity(3))),
        ]
        for m in corpus:
            # centralizer() asserts the dual-path equality internally
            c1 = centralizer(m, Subspace.zero(m.dim))
            assert c1.dim >= 0


class TestCanonicalIdeal:
    def test_abelian_j_is_zero(self):
        m = MetricAlgebra(abelian(2), BilinearForm(Matrix.identity(2)))
        assert canonical_isotropic_ideal(m).dim == 0

    def test_tstar_h3_j_is_derived_block(self):
        ext = tstar_extend(h3())
        j = canonical_isotropic_ideal(ext.result)
        expect = Subspace.from_vectors(
            6,
            [
                [0, 0, 1, 0, 0, 0],  # e3
                [0, 0, 0, 1, 0, 0],  # e1*
                [0, 0, 0, 0, 1, 0],  # e2*
            ],
        )
        assert j == expect

    def test_requires_nilpotent(self):
        g = make_algebra("affine2", 2, (0, 0), {(0, 1): [0, 1]})
        gram = Matrix.from_rows([[0, 1], [1, 0]])
        m = MetricAlgebra(g, BilinearForm(gram))
        with pytest.raises(NotNilpotent):
            canonical_isotropic_ideal(m)


ENLARGEMENT_CASES = ["N4+K2", "N4+K4", "catalog", "twisted-catalog", "forms"]


def enlargement_corpus(case):
    """(metric algebra, isotropic start) pairs on which the maximal isotropic
    enlargement is compared with its dense oracle."""

    def tstar_starts(g):
        m = tstar_extend(g).result
        return [(m, Subspace.zero(m.dim)), (m, canonical_isotropic_ideal(m))]

    if case.startswith("N4+K"):
        return tstar_starts(direct_sum(n4(), abelian(int(case[-1]), n=3)))
    if case == "catalog":
        return [pair for g in samples.catalog() for pair in tstar_starts(g)]
    if case == "twisted-catalog":
        inputs = []
        for i, g in enumerate(samples.catalog()):
            twist = samples.random_twist(g, random.Random(i), diagonal_only=True)
            twisted = twist_by_endomorphism(g, twist) if twist is not None else None
            if twisted is not None and not twisted.alpha.is_identity() and coadjoint_rep(twisted).exists:
                inputs += tstar_starts(twisted)
        assert len(inputs) >= 16
        return inputs
    indefinite = Matrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    return [
        (MetricAlgebra(abelian(3), BilinearForm(indefinite)), Subspace.zero(3)),
        (MetricAlgebra(abelian(3), BilinearForm(Matrix.identity(3))), Subspace.zero(3)),
    ]


class TestMaximalIsotropic:
    def test_already_maximal_returned_unchanged(self):
        ext = tstar_extend(h3())
        j = canonical_isotropic_ideal(ext.result)
        assert extend_to_maximal_isotropic(ext.result, j) == j

    def test_hyperbolic_plane_from_zero(self):
        m = MetricAlgebra(abelian(2), BilinearForm(Matrix.from_rows([[0, 1], [1, 0]])))
        w = extend_to_maximal_isotropic(m, Subspace.zero(2))
        assert w == Subspace.from_vectors(2, [[1, 0]])

    def test_tstar_zero_start(self):
        for g in (h3(), abelian(1, 1)):
            ext = tstar_extend(g)
            w = extend_to_maximal_isotropic(ext.result, Subspace.zero(ext.algebra.dim))
            assert w.dim == g.dim
            assert is_isotropic(ext.result, w)

    def test_needs_field_extension_on_definite_form(self):
        m = MetricAlgebra(abelian(3), BilinearForm(Matrix.identity(3)))
        with pytest.raises(NeedsFieldExtension):
            extend_to_maximal_isotropic(m, Subspace.zero(3))

    def test_indefinite_odd_dimension(self):
        gram = Matrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
        m = MetricAlgebra(abelian(3), BilinearForm(gram))
        w = extend_to_maximal_isotropic(m, Subspace.zero(3))
        assert w.dim == 1
        assert is_isotropic(m, w)

    def test_refuses_a_start_that_the_bracket_operators_move(self):
        # span(e1) in T*(H3) is isotropic, but [e1, e2] = e3 leaves it; in
        # span(e1*, e3*) the first basis vector is central and the second is
        # moved, [e1, e3*] = -e2*
        ext = tstar_extend(h3())
        for rows in ([[1, 0, 0, 0, 0, 0]], [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1]]):
            start = Subspace.from_vectors(6, rows)
            assert is_isotropic(ext.result, start)
            with pytest.raises(AlgebraError, match="^subspace is not stable under the bracket operators$"):
                extend_to_maximal_isotropic(ext.result, start)

    def test_refuses_a_start_that_is_not_isotropic(self):
        # both basis vectors of the hyperbolic plane are isotropic, the plane is not
        m = MetricAlgebra(abelian(2), BilinearForm(Matrix.from_rows([[0, 1], [1, 0]])))
        assert is_isotropic(m, Subspace.from_vectors(2, [[1, 0]]))
        assert is_isotropic(m, Subspace.from_vectors(2, [[0, 1]]))
        with pytest.raises(AlgebraError, match="^subspace is not isotropic$"):
            extend_to_maximal_isotropic(m, Subspace.full(2))

    def test_invariant_and_orbit_helpers_equal_dense_oracle(self):
        # seeded random twists and subspaces: the largest invariant subspace
        # is zero, proper or the whole subspace, each several times
        from nambu import tstar

        rng = random.Random(7)
        kinds = set()
        for _ in range(60):
            n = rng.randint(2, 5)
            a = Matrix(n, n, [rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(n * n)])
            vectors = [[rng.choice([0, 0, 1, -1]) for _ in range(n)] for _ in range(rng.randint(1, n))]
            sub = Subspace.from_vectors(n, vectors)
            got = tstar._largest_invariant(sub, sparse_columns(a))
            assert got == dense_enlargement._largest_invariant(sub, a)
            kinds.add("zero" if got.dim == 0 else "whole" if got == sub else "proper")
            v = vectors[0]
            if any(v):
                orbit = tstar._orbit_span({k: x for k, x in enumerate(v) if x}, sparse_columns(a))
                assert orbit == dense_enlargement._orbit_span(v, a, n)
        assert kinds == {"zero", "proper", "whole"}

    def test_refuses_a_start_that_the_twist_moves(self):
        # abelian, so every subspace is stable under the bracket operators;
        # the shear sends e2 to e1 + e2
        shear = twist_by_endomorphism(abelian(2), Matrix.from_rows([[1, 1], [0, 1]]))
        m = MetricAlgebra(shear, BilinearForm(Matrix.from_rows([[0, 1], [1, 0]])))
        line = Subspace.from_vectors(2, [[0, 1]])
        assert is_isotropic(m, line)
        with pytest.raises(AlgebraError, match="^subspace is not stable under the twist$"):
            extend_to_maximal_isotropic(m, line)

    @pytest.mark.parametrize("case", ENLARGEMENT_CASES)
    def test_equals_dense_oracle(self, case):
        # the same subspace as the dense induction, or the same error
        def outcome(enlarge, m, w):
            try:
                return enlarge(m, w)
            except AlgebraError as exc:
                return type(exc), exc.args, getattr(exc, "discriminant", None)

        inputs = enlargement_corpus(case)
        outcomes = []
        for m, w in inputs:
            got = outcome(extend_to_maximal_isotropic, m, w)
            assert got == outcome(dense_extend_to_maximal_isotropic, m, w)
            outcomes.append(got)
        if case == "forms":
            assert outcomes[0].dim == 1
            assert outcomes[1][0] is NeedsFieldExtension


class TestReconstruction:
    @pytest.mark.parametrize("case", ENLARGEMENT_CASES)
    def test_equals_dense_oracle(self, case):
        # on the maximal isotropic ideals of the enlargement's oracle corpus
        # (with a line adjoined where the dimension is odd): the same g1,
        # theta and phi as the dense reconstruction, or the same error
        def outcome(reconstruct, m, ideal):
            try:
                return reconstruct(m, ideal)
            except AlgebraError as exc:
                return type(exc), exc.args

        def sparse(m, ideal):
            rec = reconstruct_as_tstar(m, ideal)
            return rec.g1, rec.theta, rec.phi

        def key(result):
            if isinstance(result[0], type):
                return result
            g1, theta, phi = result
            return g1.space, g1.bracket, g1.alpha, g1.name, theta, phi

        pairs = []
        for m, w in enlargement_corpus(case):
            try:
                ideal = extend_to_maximal_isotropic(m, w)
                pairs.append((m, ideal))
                if m.dim % 2:
                    pairs.append(adjoin_line(m, ideal))
            except AlgebraError:
                continue
        reconstructed = 0
        for m, ideal in pairs:
            got = outcome(sparse, m, ideal)
            assert key(got) == key(outcome(dense_reconstruct_as_tstar, m, ideal))
            reconstructed += not isinstance(got[0], type)
        assert reconstructed > 0

    def test_tstar_h3_with_embedded_dual_recovers_h3(self):
        ext = tstar_extend(h3())
        rec = reconstruct_as_tstar(ext.result, embedded_dual(ext))
        assert dict(rec.g1.bracket.items()) == {(0, 1): (0, 0, 1)}
        assert rec.theta.is_zero()
        # phi is the identity in these coordinates
        assert rec.phi.is_identity()

    def test_hyperbolic_abelian_plane(self):
        m = MetricAlgebra(abelian(2), BilinearForm(Matrix.from_rows([[0, 1], [1, 0]])))
        line = Subspace.from_vectors(2, [[1, 0]])
        rec = reconstruct_as_tstar(m, line)
        assert rec.g1.dim == 1 and rec.g1.is_abelian()
        assert rec.theta.is_zero()

    def test_nonzero_theta_round_trip_up_to_equivalence(self):
        g = abelian(1, 1)
        sp = theta_spaces(g)
        theta = cochain_from_vec(g, sp["rep"], sp["closed_cyclic"].basis_vectors()[0])
        ext = tstar_extend(g, theta)
        rec = reconstruct_as_tstar(ext.result, embedded_dual(ext))
        assert rec.g1.is_abelian() and rec.g1.space == g.space
        res = equivalence(g, rec.theta, theta)
        assert res.kind in ("equivalent", "isometrically_equivalent")

    def test_abelian_check_on_half_ideals(self):
        ext = tstar_extend(sh12())
        assert isotropic_half_ideal_abelian_check(ext.result, embedded_dual(ext))


class TestAdjoinLine:
    def test_pairing_formula(self):
        m = MetricAlgebra(abelian(2), BilinearForm(Matrix.from_rows([[1, 0], [0, -1]])))
        m2, _ = adjoin_line(m, Subspace.zero(2))
        g = m2.gram
        # <x + l a, y + m a> = <x, y> + l m
        assert g.row_list() == [[1, 0, 0], [0, -1, 0], [0, 0, 1]]
        assert m2.verify().ok
        assert nilpotent_length(m2.algebra) == 1

    def test_needs_field_extension_payload(self):
        m = MetricAlgebra(abelian(1), BilinearForm(Matrix.from_rows([[1]])))
        with pytest.raises(NeedsFieldExtension) as err:
            adjoin_line(m, Subspace.zero(1))
        assert err.value.discriminant == -1

    def test_indefinite_finds_z(self):
        m = MetricAlgebra(abelian(2), BilinearForm(Matrix.from_rows([[1, 0], [0, -1]])))
        m2, iprime = adjoin_line(m, Subspace.zero(2))
        assert iprime.dim == 1
        assert is_isotropic(m2, iprime)


class TestDecompose:
    def test_tstar_h3_certificate(self):
        cert = decompose(tstar_extend(h3()).result)
        assert cert.checks["length_bound"]
        assert cert.checks["quotient_length"] <= 1
        assert not cert.adjoined

    def test_even_abelian_hyperbolic(self):
        m = MetricAlgebra(abelian(2), BilinearForm(Matrix.from_rows([[0, 1], [1, 0]])))
        cert = decompose(m)
        assert cert.g1.dim == 1 and cert.theta.is_zero()

    def test_odd_dimension_adjoins_line(self):
        gram = Matrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
        m = MetricAlgebra(abelian(3), BilinearForm(gram))
        cert = decompose(m)
        assert cert.adjoined
        assert cert.g1.dim == 2

    def test_h3_has_no_invariant_metric(self):
        # solve the invariance system directly: only degenerate solutions
        a = h3()
        rows = []
        for xs in itertools.product(range(3), repeat=1):
            for y in range(3):
                by = bracket_basis(a, (xs[0], y))
                for z in range(3):
                    bz = bracket_basis(a, (xs[0], z))
                    row = [0] * 9
                    for k in range(3):
                        if by[k] != 0:
                            row[k * 3 + z] += by[k]
                        if bz[k] != 0:
                            row[y * 3 + k] += bz[k]
                    rows.append(row)
        sols = nullspace(Matrix.from_rows(rows, cols=9))
        for vec in sols.basis_vectors():
            gram = Matrix(3, 3, list(vec))
            assert rank(gram) < 3
        # and decompose refuses a non-invariant form
        from nambu.errors import NotMetric

        with pytest.raises(NotMetric):
            decompose(MetricAlgebra(a, BilinearForm(Matrix.identity(3))))

    def test_decompose_of_mixed_sum_odd(self):
        line = MetricAlgebra(abelian(1), BilinearForm(Matrix.from_rows([[-1]])))
        base = tstar_extend(h3()).result
        joint_alg = direct_sum(base.algebra, line.algebra)
        gram_rows = [base.gram.row(i) + [0] for i in range(6)] + [[0] * 6 + [-1]]
        m = MetricAlgebra(joint_alg, BilinearForm(Matrix.from_rows(gram_rows)))
        assert m.verify().ok
        cert = decompose(m)
        assert cert.adjoined
        assert cert.checks["length_bound"]

    def test_dim12_ternary_tstar_validates_and_decomposes(self):
        # T*(N4 (+) K^2): dim 12, 3-ary; the validated construction runs the
        # algebra, metric and ideal checks that raise InternalError on failure
        ext = tstar_extend(direct_sum(n4(), abelian(2, n=3)))
        assert ext.result.algebra.dim == 12 and ext.result.algebra.arity == 3
        cert = decompose(ext.result)
        assert cert.checks["phi_isometry"] is True
        assert cert.checks["phi_morphism"] and cert.checks["length_bound"]

    @pytest.mark.parametrize("corrupt", ["phi", "theta"])
    def test_certificate_is_computed_not_asserted(self, monkeypatch, corrupt):
        from nambu import tstar

        m = tstar_extend(samples.filiform4()).result  # g1 is not abelian, so delta can be nonzero
        cert = decompose(m)
        assert cert.checks["phi_morphism"] and cert.checks["phi_isometry"] and cert.checks["theta_closed"]
        real = tstar.reconstruct_as_tstar

        def corrupted(*args):
            rec = real(*args)
            if corrupt == "phi":
                rec.phi = rec.phi.scale(2)  # still a bijection, no longer an isometry
            else:
                model = rec.theta.model
                rec.theta = Cochain(model, 0, [1] * model.raw_dim)
                assert not coboundary(rec.g1, model.r, rec.theta, check=False).is_zero()
            return rec

        monkeypatch.setattr(tstar, "reconstruct_as_tstar", corrupted)
        expected = "phi_isometry" if corrupt == "phi" else "theta_closed"
        with pytest.raises(InternalError, match=expected) as err:
            decompose(m)
        assert err.value.exit_code == 5

    def test_computes_the_lower_central_series_once(self, monkeypatch):
        from nambu import tstar

        kinds = []
        real = tstar.series

        def counting(a, kind):
            kinds.append((a, kind))
            return real(a, kind)

        monkeypatch.setattr(tstar, "series", counting)
        m = tstar_extend(n4()).result
        decompose(m)
        assert [kind for a, kind in kinds if a is m.algebra] == ["lower_central"]


class TestEquivalence:
    def test_builds_each_delta_once(self, monkeypatch):
        from nambu import tstar

        degrees = []
        real = tstar.delta_operator

        def counting(a, r, m):
            degrees.append(m)
            return real(a, r, m)

        monkeypatch.setattr(tstar, "delta_operator", counting)
        g = samples.filiform4()
        equivalence(g, zero_theta(g), zero_theta(g))
        assert sorted(degrees) == [0, 1]

    def test_equal_thetas_isometric_with_zero_witness(self):
        g = abelian(1, 1)
        sp = theta_spaces(g)
        theta = cochain_from_vec(g, sp["rep"], sp["closed_cyclic"].basis_vectors()[0])
        res = equivalence(g, theta, theta)
        assert res.kind == "isometrically_equivalent"
        assert res.theta_prime.is_zero()

    def test_inequivalent_when_difference_misses_image(self):
        # on abelian(1|1) the coboundary vanishes, so B^1 = 0 and any
        # nonzero cyclic cocycle is inequivalent to zero
        g = abelian(1, 1)
        sp = theta_spaces(g)
        theta = cochain_from_vec(g, sp["rep"], sp["closed_cyclic"].basis_vectors()[0])
        res = equivalence(g, theta, zero_theta(g))
        assert res.kind == "inequivalent"

    def test_exact_difference_is_isometrically_equivalent_with_phi_check(self):
        # fil4 admits a nonzero cyclic delta theta'; whatever kind comes
        # back is cross-validated through the explicit map phi(x+f) =
        # x + theta'(x) + f
        g = samples.filiform4()
        ca = coadjoint_rep(g)
        d = g.dim
        p = g.parity
        model0 = CochainModel(g, ca.rep, 0)
        model1 = CochainModel(g, ca.rep, 1)
        wb = _wedge(g)
        # the matrices T with delta T cyclic form a linear space: solve it
        cols = []
        for k in range(d):
            for j in range(d):
                coeffs = [0] * model0.raw_dim
                coeffs[model0.flat((), j) + k] = 1
                f = Cochain(model0, 0, coeffs)
                cols.append(coboundary(g, ca.rep, f, check=False).coeffs)
        rows = []
        for w in range(len(wb)):
            for y in range(d):
                for z in range(y, d):
                    row = []
                    for col in cols:
                        sgn = -1 if (p[y] == 1 and p[z] == 1) else 1
                        row.append(
                            col[model1.flat((w,), y) + z]
                            + sgn * col[model1.flat((w,), z) + y]
                        )
                    rows.append(row)
        space = nullspace(Matrix.from_rows(rows, cols=d * d))
        found = None
        for vec in space.basis_vectors():
            f = theta_prime_as_cochain(g, Matrix(d, d, list(vec)), ca.rep)
            dth = coboundary(g, ca.rep, f, check=False)
            if not dth.is_zero():
                found = dth
                break
        assert found is not None
        assert is_cyclic_cocycle(g, found)
        res = equivalence(g, found, zero_theta(g, ca))
        assert res.kind in ("equivalent", "isometrically_equivalent")
        t = res.theta_prime
        ext1 = tstar_extend(g, found)
        ext2 = tstar_extend(g)
        phi_rows = []
        for i in range(d):
            phi_rows.append([1 if j == i else 0 for j in range(d)] + [0] * d)
        for i in range(d):
            phi_rows.append([t[i, j] for j in range(d)] + [1 if j == i else 0 for j in range(d)])
        phi = Matrix.from_rows(phi_rows)
        assert verify_morphism(phi, ext1.algebra, ext2.algebra).ok
        is_iso = phi.transpose() * ext2.form.gram * phi == ext1.form.gram
        assert is_iso == (res.kind == "isometrically_equivalent")
        assert is_iso == induced_form(g, t).is_zero()

    def test_rejects_non_cyclic_inputs(self):
        g = abelian(1, 1)
        sp = theta_spaces(g)
        noncyclic = None
        for cand in sp["closed"].basis_vectors():
            if not sp["cyclic"].contains_vector(cand):
                noncyclic = cand
                break
        assert noncyclic is not None
        theta = cochain_from_vec(g, sp["rep"], noncyclic)
        with pytest.raises(ThetaNotCyclic):
            equivalence(g, theta, zero_theta(g))

    def test_induced_form_properties(self):
        # for theta' with the compat condition, the induced form is
        # supersymmetric and invariant and the twist is self-adjoint
        g = samples.filiform4()
        ca = coadjoint_rep(g)
        sp = theta_spaces(g)
        model0 = CochainModel(g, ca.rep, 0)
        d = g.dim
        rng = random.Random(8)
        for _ in range(5):
            t = Matrix(d, d, [rng.randint(-2, 2) for _ in range(d * d)])
            dth = coboundary(g, ca.rep, theta_prime_as_cochain(g, t, ca.rep), check=False)
            if not is_cyclic_cocycle(g, dth):
                continue
            form = induced_form(g, t)
            p = g.parity
            for i in range(d):
                for j in range(d):
                    sgn = -1 if (p[i] == 1 and p[j] == 1) else 1
                    assert form[i, j] == sgn * form[j, i]
            # invariance of the induced form
            rep = verify_metric(g, BilinearForm(form))
            by_name = {c.name: c.passed for c in rep.checks}
            assert by_name["invariant"]
            assert by_name["supersymmetric"]
