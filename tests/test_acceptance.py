"""Acceptance suite: one test per criterion, one PASS line per criterion.

Everything is exact arithmetic; the only tolerances are the stated
runtime budgets, which are asserted with wall-clock measurements.
Run with `pytest tests/test_acceptance.py -s` to see the summary lines.
"""

import ast
import pathlib
import random
import time

import pytest

from dense_wrappers import basis_vector
from nambu import samples
from nambu.cohomology import (
    Cochain,
    CochainModel,
    adjoint_rep,
    alternating_subspace,
    cochain_basis,
    coboundary,
    coboundary_matrix,
    delta_square_is_zero,
    verify_prop_2_2,
    wedge_basis,
)
from nambu.core import (
    BilinearForm,
    GradedSpace,
    HomSuperAlgebra,
    StructureTensor,
    nilpotent_length,
    series,
    solvable_length,
    twist_by_endomorphism,
    verify_algebra,
    verify_morphism,
)
from nambu.errors import NeedsFieldExtension
from nambu.extensions import (
    ExtensionDatum,
    build_extension,
    canonical_projection,
    canonical_section,
    extract_cocycle,
)
from nambu.linalg import Matrix, Scalar, Subspace
from nambu.tstar import (
    MetricAlgebra,
    adjoin_line,
    canonical_isotropic_ideal,
    centralizer_series,
    coadjoint_rep,
    decompose,
    embedded_dual,
    equivalence,
    extend_to_maximal_isotropic,
    is_cyclic_cocycle,
    isotropic_half_ideal_abelian_check,
    reconstruct_as_tstar,
    theta_spaces,
    tstar_direct_sum_law,
    tstar_extend,
    tstar_series_laws,
)

HALF_DIM_IDEALS = []  # (MetricAlgebra, Subspace) pairs collected during runs 1-8


def _announce(num, ok, text):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok


def _named_corpus():
    return [samples.h3(), samples.sh12(), samples.n4()]


def _twisted_variants(rng, base, count):
    out = []
    for _ in range(count):
        rho = samples.random_twist(base, rng)
        if rho is None:
            continue
        out.append(twist_by_endomorphism(base, rho))
    return out


class TestCriterion1Axioms:
    def test_axiom_engine(self):
        rng = random.Random(101)
        algebras = _named_corpus()
        for base in _named_corpus():
            algebras.extend(_twisted_variants(rng, base, 4))
        for a in algebras:
            start = time.monotonic()
            report = verify_algebra(a)
            elapsed = time.monotonic() - start
            assert report.ok, a.name
            assert elapsed < 1.0, (a.name, elapsed)

        # deliberately broken variants fail with a witness tuple
        space3 = GradedSpace(3, (0, 0, 0))
        broken = [
            (  # genuine Jacobi violator
                HomSuperAlgebra(
                    space3,
                    StructureTensor(2, space3, {(0, 1): [0, 0, 1], (1, 2): [0, 1, 0]}),
                    Matrix.identity(3),
                ),
                "fundamental-identity",
            ),
            (  # non-multiplicative twist on H3
                HomSuperAlgebra(
                    samples.h3().space,
                    samples.h3().bracket,
                    Matrix(3, 3, [2, 0, 0, 0, 1, 0, 0, 0, 1]),
                ),
                "multiplicativity",
            ),
            (  # parity-inhomogeneous entry, raw-loaded
                HomSuperAlgebra(
                    GradedSpace(3, (0, 1, 1)),
                    StructureTensor(
                        2, GradedSpace(3, (0, 1, 1)), {(1, 2): [0, 1, 0]}, strict=False
                    ),
                    Matrix.identity(3),
                ),
                "homogeneity",
            ),
            (  # odd twist map
                HomSuperAlgebra(
                    GradedSpace(2, (0, 1)),
                    StructureTensor(2, GradedSpace(2, (0, 1)), {}),
                    Matrix(2, 2, [0, 1, 1, 0]),
                ),
                "alpha-even",
            ),
        ]
        for algebra, expected in broken:
            start = time.monotonic()
            report = verify_algebra(algebra)
            assert time.monotonic() - start < 1.0
            failed = {c.name for c in report.failed_checks()}
            assert expected in failed
            check = [c for c in report.checks if c.name == expected][0]
            if expected in ("fundamental-identity", "multiplicativity", "homogeneity"):
                assert check.witness is not None  # a concrete basis tuple
        _announce(1, True, "axiom engine: corpus passes, broken variants fail with witnesses")


def _delta2_corpus(seed=2024, minimum=50):
    """Seeded valid algebras, n in {2,3}, dim <= 4, with both representations.

    Members are kept only when the coadjoint genuinely exists (including
    twist-equivariance), so both complexes are well-defined.
    """
    rng = random.Random(seed)
    small_bases = [
        samples.abelian(2),
        samples.abelian(1, 1),
        samples.abelian(0, 2),
        samples.h3(),
        samples.sh12(),
        samples.odd_square(),
        samples.filiform4(),
        samples.abelian(3, 0, n=3),
        samples.abelian(1, 2, n=3),
    ]
    big_bases = [samples.n4(), samples.heisenberg_nary(3)]
    corpus = [samples.n4()]  # one untwisted n=3 dim-4 member
    big_quota = 4
    while len(corpus) < minimum:
        if big_quota > 0 and rng.random() < 0.2:
            base = rng.choice(big_bases)
            rho = samples.random_twist(base, rng, diagonal_only=True)
            if rho is None or rho.is_identity():
                continue
        else:
            base = rng.choice(small_bases)
            rho = samples.random_twist(base, rng)
            if rho is None:
                continue
        candidate = twist_by_endomorphism(base, rho)
        if not coadjoint_rep(candidate).exists:
            continue
        if candidate.arity == 3 and candidate.dim == 4:
            big_quota -= 1
        corpus.append(candidate)
    return corpus


class TestCriterion2DeltaSquared:
    def test_delta_squared_zero(self):
        start = time.monotonic()
        corpus = _delta2_corpus()
        assert len(corpus) >= 50
        matrix_route = 0
        for a in corpus:
            assert a.arity in (2, 3) and a.dim <= 4
            coad = coadjoint_rep(a)
            assert coad.exists, a.name
            for rep in (adjoint_rep(a), coad.rep):
                w = len(wedge_basis(a.space, a.arity - 1))
                c3_raw = (w ** 3) * a.dim * rep.target.dim
                cheap_bases = a.alpha.is_diagonal() and rep.nu.is_diagonal()
                if cheap_bases or c3_raw <= 128:
                    for m in (0, 1):
                        lo = coboundary_matrix(a, rep, m)
                        hi = coboundary_matrix(a, rep, m + 1)
                        assert (hi * lo).is_zero(), (a.name, m)
                    matrix_route += 1
                else:
                    # same statement without materializing the matrices:
                    # the product's columns are the coordinates of these
                    # double coboundaries (equivalence pinned below)
                    for m in (0, 1):
                        assert delta_square_is_zero(a, rep, m), (a.name, m)
        elapsed = time.monotonic() - start
        assert elapsed < 300, elapsed
        assert matrix_route >= 50
        _announce(
            2,
            True,
            f"delta^2 = 0 on {len(corpus)} seeded algebras x (adjoint, coadjoint), {elapsed:.1f}s",
        )

    def test_matrix_product_equals_raw_route(self):
        for a in (samples.h3(), samples.sh12(), samples.odd_square()):
            rep = adjoint_rep(a)
            for m in (0, 1):
                lo = coboundary_matrix(a, rep, m)
                hi = coboundary_matrix(a, rep, m + 1)
                assert (hi * lo).is_zero() == delta_square_is_zero(a, rep, m)


class TestCriterion3Prop22:
    def test_prop_2_2_everywhere(self):
        corpus = _named_corpus() + _delta2_corpus(seed=77, minimum=20)
        for a in corpus:
            assert verify_prop_2_2(a).ok, a.name
        _announce(3, True, f"fundamental-object identities exact on {len(corpus)} algebras")


def _trivial_module(b, fiber):
    from nambu.cohomology import Representation

    wb = wedge_basis(b.space, b.arity - 1)
    return Representation(
        fiber, [Matrix.zeros(fiber.dim, fiber.dim) for _ in wb.elements], Matrix.identity(fiber.dim)
    )


def _random_in_subspace(rng, sub):
    out = [0] * sub.ambient_dim
    for vec in sub.basis_vectors():
        c = rng.randint(-2, 2)
        if c:
            for k, x in enumerate(vec):
                if x != 0:
                    out[k] += c * x
    return out


class TestCriterion4ExtensionCorrespondence:
    def test_extract_build_round_trip_and_iff(self):
        rng = random.Random(404)
        round_trips = 0
        non_cocycles = 0
        closed_builds = 0
        while round_trips < 20 or non_cocycles < 10:
            b = samples.random_twisted_algebra(rng, max_dim=3)
            even, odd = rng.choice([(1, 0), (0, 1), (1, 1), (2, 0)])
            fiber = GradedSpace(even + odd, (0,) * even + (1,) * odd)
            module = _trivial_module(b, fiber)
            alt = alternating_subspace(b, module)
            compat = cochain_basis(b, module, 1, "even").to_subspace()
            space = alt.intersect(compat)
            if space.dim == 0:
                continue
            model = CochainModel(b, module, 1)
            vec = _random_in_subspace(rng, space)
            f = Cochain(model, 0, vec)
            closed = coboundary(b, module, f, check=False).is_zero()
            datum = ExtensionDatum(b, fiber, module.nu, module, f)
            g = build_extension(datum, validated=False)
            assert verify_algebra(g).ok == closed  # the iff, both directions
            if closed:
                closed_builds += 1
                da = fiber.dim
                a_sub = Subspace.from_vectors(
                    g.dim, [basis_vector(g, i) for i in range(da)]
                )
                pi = canonical_projection(da, b.dim)
                got, _ = extract_cocycle(g, a_sub, b, pi, canonical_section(da, b.dim))
                assert got == f  # extract after build is the identity
                round_trips += 1
            else:
                non_cocycles += 1
        _announce(
            4,
            True,
            f"extension correspondence: {round_trips} exact round trips, "
            f"{non_cocycles} non-cocycles fail verify_algebra",
        )


class TestCriterion5TStarIff:
    def test_iff_theorems(self):
        rng = random.Random(505)
        report = []
        nonclosed_total = 0
        for g in (samples.h3(), samples.abelian(1, 1), samples.sh12()):
            sp = theta_spaces(g)
            # draw deliberately from each class so both directions are live
            sample_specs = (
                ["closed"] * 7 + ["closed_cyclic"] * 6 + ["cochain"] * 7
            )
            closed_seen = cyclic_seen = noncyclic_seen = nonclosed_seen = 0
            for which in sample_specs:
                vec = _random_in_subspace(rng, sp[which])
                theta = Cochain(sp["model"], 0, vec)
                raw = tstar_extend(g, theta, validated=False)
                closed = coboundary(g, sp["rep"], theta, check=False).is_zero()
                assert verify_algebra(raw.algebra).ok == closed
                if closed:
                    closed_seen += 1
                    cyclic = is_cyclic_cocycle(g, theta)
                    assert raw.result.verify().ok == cyclic
                    if cyclic:
                        cyclic_seen += 1
                        HALF_DIM_IDEALS.append((raw.result, embedded_dual(raw)))
                    else:
                        noncyclic_seen += 1
                else:
                    nonclosed_seen += 1
            nonclosed_total += nonclosed_seen
            report.append(
                f"{g.name}: {closed_seen} closed ({cyclic_seen} cyclic) / {nonclosed_seen} non-closed"
            )
            assert closed_seen + nonclosed_seen == 20
            assert closed_seen > 0 and cyclic_seen > 0
        assert nonclosed_total >= 10
        _announce(5, True, "T*-iff theorems both directions; " + "; ".join(report))


class TestCriterion6LengthLaws:
    def test_length_laws(self):
        rng = random.Random(606)
        corpus = [samples.h3(), samples.sh12(), samples.n4(), samples.abelian(1, 1), samples.odd_square()]
        corpus += [samples.random_twisted_algebra(rng, max_dim=3) for _ in range(8)]
        for g in corpus:
            report = tstar_series_laws(g)
            assert report.ok, (g.name, report.to_dict())
            k = nilpotent_length(g)
            t = nilpotent_length(tstar_extend(g).algebra)
            assert t == k  # trivial theta: exact equality
            ks = solvable_length(g)
            ts = solvable_length(tstar_extend(g).algebra)
            if ks is not None:
                assert ts in (ks, ks + 1)
        # a nontrivial theta instance
        g = samples.abelian(1, 1)
        sp = theta_spaces(g)
        theta = Cochain(sp["model"], 0, list(sp["closed_cyclic"].basis_vectors()[0]))
        assert tstar_series_laws(g, theta).ok
        assert tstar_direct_sum_law(samples.h3(), samples.abelian(1)).ok
        _announce(6, True, f"solvable/nilpotent length laws hold on {len(corpus)} instances")


def _metric_corpus():
    out = [
        tstar_extend(samples.h3()).result,
        tstar_extend(samples.abelian(1, 1)).result,
        tstar_extend(samples.sh12()).result,
        tstar_extend(samples.n4()).result,
        tstar_extend(samples.odd_square()).result,
        MetricAlgebra(samples.abelian(3), BilinearForm(Matrix.identity(3))),
        MetricAlgebra(
            samples.abelian(2), BilinearForm(Matrix.from_rows([[0, 1], [1, 0]]))
        ),
    ]
    g = samples.abelian(1, 1)
    sp = theta_spaces(g)
    theta = Cochain(sp["model"], 0, list(sp["closed_cyclic"].basis_vectors()[0]))
    out.append(tstar_extend(g, theta).result)
    return out


class TestCriterion7Centralizers:
    def test_dual_path_and_perp_series(self):
        for m in _metric_corpus():
            assert m.verify().ok
            # centralizer() asserts C(V) == [g,...,g,V^perp]^perp internally
            _, chain = centralizer_series(m)
            lc = series(m.algebra, "lower_central")
            for i, term in enumerate(lc.terms):
                ci = chain[i] if i < len(chain) else chain[-1]
                assert term == ci.orthogonal_complement(m.gram), (m.algebra.name, i)
        _announce(7, True, f"centralizer dual path and g^m = C_m(g)^perp on {len(_metric_corpus())} metric algebras")


class TestCriterion8RoundTrip:
    def test_decompose_round_trips(self):
        g11 = samples.abelian(1, 1)
        sp = theta_spaces(g11)
        theta = Cochain(sp["model"], 0, list(sp["closed_cyclic"].basis_vectors()[0]))
        cases = [
            ("T*0(H3)", samples.h3(), None),
            ("T*0(abelian(1|1))", g11, None),
            ("T*theta(abelian(1|1))", g11, theta),
        ]
        for label, base, th in cases:
            start = time.monotonic()
            ext = tstar_extend(base, th)
            m = ext.result
            cert = decompose(m)
            # the certificate's phi: exact morphism + isometry equations
            assert verify_morphism(cert.phi, m.algebra, cert.extension.algebra).ok
            assert cert.phi.transpose() * cert.extension.form.gram * cert.phi == m.gram
            assert cert.checks["length_bound"]
            # round trip through the embedded dual: recovered theta is
            # equivalence-related to the original on the same base
            rec = reconstruct_as_tstar(m, embedded_dual(ext))
            assert rec.g1.space == base.space
            assert rec.g1.bracket == base.bracket
            original = th if th is not None else Cochain.zero(CochainModel(base, sp["rep"] if base is g11 else coadjoint_rep(base).rep, 1), 0)
            res = equivalence(base, rec.theta, original)
            assert res.kind in ("equivalent", "isometrically_equivalent")
            HALF_DIM_IDEALS.append((m, embedded_dual(ext)))
            if m.dim % 2 == 0:
                ideal = extend_to_maximal_isotropic(m, canonical_isotropic_ideal(m))
                HALF_DIM_IDEALS.append((m, ideal))
            elapsed = time.monotonic() - start
            assert elapsed < 60, (label, elapsed)
        _announce(8, True, "decompose certificates exact; recovered thetas equivalence-related")


class TestCriterion9AbelianLemma:
    def test_collected_half_dimensional_ideals_are_abelian(self):
        assert HALF_DIM_IDEALS, "criteria 5/8 must run first and collect ideals"
        for m, ideal in HALF_DIM_IDEALS:
            assert isotropic_half_ideal_abelian_check(m, ideal)
        _announce(9, True, f"{len(HALF_DIM_IDEALS)} half-dimensional isotropic ideals are abelian")


class TestCriterion10FieldHonesty:
    def test_needs_field_extension_payload(self):
        m = MetricAlgebra(samples.abelian(1), BilinearForm(Matrix.from_rows([[1]])))
        with pytest.raises(NeedsFieldExtension) as err:
            adjoin_line(m, Subspace.zero(1))
        assert err.value.discriminant == -1
        assert err.value.exit_code == 3

    def test_scalar_has_no_inexact_constructor(self):
        with pytest.raises(TypeError):
            Scalar(0.5)
        with pytest.raises(TypeError):
            Scalar(1, 2.0)
        with pytest.raises(TypeError):
            Scalar(1j)

    def test_no_floats_anywhere_in_the_package(self):
        src = pathlib.Path(__file__).resolve().parent.parent / "src" / "nambu"
        offenders = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                    offenders.append(f"{path.name}:{node.lineno} literal {node.value!r}")
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "float"
                ):
                    offenders.append(f"{path.name}:{node.lineno} float() call")
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name in ("numpy", "scipy"):
                            offenders.append(f"{path.name}:{node.lineno} imports {alias.name}")
        assert not offenders, offenders
        _announce(10, True, "field-limit honesty: exact scalars only, no floats in the package")
