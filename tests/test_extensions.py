import random

import pytest

from dense_wrappers import basis_vector, bracket_basis
from nambu import samples
from nambu.cohomology import (
    Cochain,
    CochainModel,
    Representation,
    adjoint_rep,
    alternating_subspace,
    cochain_basis,
    coboundary,
    wedge_basis,
)
from nambu.core import (
    GradedSpace,
    HomSuperAlgebra,
    StructureTensor,
    direct_sum,
    is_hom_ideal,
    verify_algebra,
)
from nambu.errors import CocycleNotClosed, NoCompatibleSection
from nambu.extensions import (
    ExtensionDatum,
    Section,
    build_extension,
    canonical_injection,
    canonical_projection,
    canonical_section,
    check_section,
    cohomologous_difference,
    extract_cocycle,
    find_section,
    verify_exact_sequence,
)
from nambu.linalg import Matrix, Subspace
from nambu.samples import abelian, h3


def trivial_module(b, fiber):
    wb = wedge_basis(b.space, b.arity - 1)
    mats = [Matrix.zeros(fiber.dim, fiber.dim) for _ in wb.elements]
    return Representation(fiber, mats, Matrix.identity(fiber.dim))


def zero_cochain(b, module):
    model = CochainModel(b, module, 1)
    return Cochain.zero(model, 0)


def abelian_algebra_on(space, twist=None):
    return HomSuperAlgebra(
        space,
        StructureTensor(2, space, {}),
        twist if twist is not None else Matrix.identity(space.dim),
    )


class TestBuildExtension:
    def test_zero_cocycle_trivial_module_is_direct_sum(self):
        b = h3()
        fiber = GradedSpace(2, (0, 1))
        d = ExtensionDatum(b, fiber, Matrix.identity(2), trivial_module(b, fiber), None)
        d.cocycle = zero_cochain(b, d.module)
        g = build_extension(d)
        expected = direct_sum(abelian_algebra_on(fiber), b)
        assert g.space == expected.space
        assert g.bracket == expected.bracket
        assert g.alpha == expected.alpha

    def test_central_extension_of_odd_line(self):
        # base = one odd direction, fiber = one even direction,
        # f(f1, f1) = e gives the super-Heisenberg oddsq(1|1) up to block order
        b = abelian(0, 1)
        fiber = GradedSpace(1, (0,))
        module = trivial_module(b, fiber)
        model = CochainModel(b, module, 1)
        f = Cochain.from_entries(model, 0, {((0,), 0): {0: 1}})
        d = ExtensionDatum(b, fiber, Matrix.identity(1), module, f)
        g = build_extension(d)
        assert verify_algebra(g).ok
        assert bracket_basis(g, (1, 1)) == [1, 0]
        assert g.parity == (0, 1)

    def test_non_closed_cocycle_rejected_and_fails_raw(self):
        # on H3 with the adjoint module, pick an alternating non-cocycle
        b = h3()
        module = adjoint_rep(b)
        alt = alternating_subspace(b, module)
        found = None
        for vec in alt.basis_vectors():
            model = CochainModel(b, module, 1)
            f = Cochain(model, 0, vec)
            if not coboundary(b, module, f, check=False).is_zero():
                found = f
                break
        assert found is not None
        fiber = GradedSpace(3, (0, 0, 0))
        d = ExtensionDatum(b, fiber, Matrix.identity(3), module, found)
        with pytest.raises(CocycleNotClosed):
            d.validate()
        g = build_extension(d, validated=False)
        assert not verify_algebra(g).ok

    def test_fiber_is_abelian_ideal_with_module_law(self):
        b = h3()
        fiber = GradedSpace(1, (0,))
        d = ExtensionDatum(b, fiber, Matrix.identity(1), trivial_module(b, fiber), None)
        d.cocycle = zero_cochain(b, d.module)
        g = build_extension(d)
        sub = Subspace.from_vectors(g.dim, [basis_vector(g, 0)])
        assert is_hom_ideal(sub, g)
        # [V, V, g, ..., g] = 0: two fiber slots kill the bracket
        assert bracket_basis(g, (0, 0)) == [0] * g.dim


class TestSections:
    def test_direct_sum_canonical_inclusion(self):
        b = h3()
        fiber = GradedSpace(2, (0, 0))
        d = ExtensionDatum(b, fiber, Matrix.identity(2), trivial_module(b, fiber), None)
        d.cocycle = zero_cochain(b, d.module)
        g = build_extension(d)
        a_sub = Subspace.from_vectors(g.dim, [basis_vector(g, 0), basis_vector(g, 1)])
        pi = canonical_projection(2, 3)
        s = find_section(g, a_sub, b, pi)
        assert s.tau == canonical_section(2, 3).tau

    def test_section_recovered_on_any_extension(self):
        b = samples.sh12()
        module = adjoint_rep(b)
        fiber = b.space
        model = CochainModel(b, module, 1)
        d = ExtensionDatum(b, fiber, module.nu, module, Cochain.zero(model, 0))
        g = build_extension(d)
        a_sub = Subspace.from_vectors(g.dim, [basis_vector(g, i) for i in range(3)])
        pi = canonical_projection(3, 3)
        s = find_section(g, a_sub, b, pi)
        check_section(g, a_sub, b, pi, s)

    def test_no_compatible_section(self):
        # alpha mixes the fiber into every preimage incompatibly
        space = GradedSpace(2, (0, 0))
        alpha = Matrix.from_rows([[1, 1], [0, 1]])  # a1 -> a1; b1 -> a1 + b1
        g = abelian_algebra_on(space, alpha)
        assert verify_algebra(g).ok
        b = abelian(1)
        a_sub = Subspace.from_vectors(2, [[1, 0]])
        pi = Matrix.from_rows([[0, 1]])
        with pytest.raises(NoCompatibleSection):
            find_section(g, a_sub, b, pi)

    def test_unique_section_with_fiber_component(self):
        # alpha(a1) = 2 a1, alpha(b1) = a1 + b1: tau(b1) = -a1 + b1 forced
        space = GradedSpace(2, (0, 0))
        alpha = Matrix.from_rows([[2, 1], [0, 1]])
        g = abelian_algebra_on(space, alpha)
        b = abelian(1)
        a_sub = Subspace.from_vectors(2, [[1, 0]])
        pi = Matrix.from_rows([[0, 1]])
        s = find_section(g, a_sub, b, pi)
        assert s.tau.col(0) == [-1, 1]
        check_section(g, a_sub, b, pi, s)


class TestExtractCocycle:
    def test_split_extension_gives_zero(self):
        b = h3()
        fiber = GradedSpace(1, (0,))
        d = ExtensionDatum(b, fiber, Matrix.identity(1), trivial_module(b, fiber), None)
        d.cocycle = zero_cochain(b, d.module)
        g = build_extension(d)
        a_sub = Subspace.from_vectors(4, [basis_vector(g, 0)])
        pi = canonical_projection(1, 3)
        f, module = extract_cocycle(g, a_sub, b, pi, canonical_section(1, 3))
        assert f.is_zero()

    def test_central_extension_nonzero_closed(self):
        b = abelian(0, 1)
        fiber = GradedSpace(1, (0,))
        module = trivial_module(b, fiber)
        model = CochainModel(b, module, 1)
        f0 = Cochain.from_entries(model, 0, {((0,), 0): {0: 1}})
        d = ExtensionDatum(b, fiber, Matrix.identity(1), module, f0)
        g = build_extension(d)
        a_sub = Subspace.from_vectors(2, [basis_vector(g, 0)])
        pi = canonical_projection(1, 1)
        f, mod = extract_cocycle(g, a_sub, b, pi, canonical_section(1, 1))
        assert not f.is_zero()
        assert f == f0

    def test_round_trip_randomized(self):
        rng = random.Random(23)
        done = 0
        while done < 20:
            b = samples.random_twisted_algebra(rng, max_dim=3)
            fiber_choice = rng.choice([(1, 0), (0, 1), (1, 1)])
            fiber = GradedSpace(sum(fiber_choice), (0,) * fiber_choice[0] + (1,) * fiber_choice[1])
            module = trivial_module(b, fiber)
            # random closed alternating cocycle: solve the closedness system
            f = _random_closed_cocycle(b, module, rng)
            if f is None:
                continue
            d = ExtensionDatum(b, fiber, module.nu, module, f)
            g = build_extension(d)
            da = fiber.dim
            a_sub = Subspace.from_vectors(g.dim, [basis_vector(g, i) for i in range(da)])
            pi = canonical_projection(da, b.dim)
            got, _ = extract_cocycle(g, a_sub, b, pi, canonical_section(da, b.dim))
            assert got == f
            done += 1


def _random_closed_cocycle(b, module, rng, parity=0):
    alt = alternating_subspace(b, module)
    compat = cochain_basis(b, module, 1, "both").to_subspace()
    space = alt.intersect(compat)
    if space.dim == 0:
        return None
    model = CochainModel(b, module, 1)
    # assemble random combinations and keep a closed one
    for _ in range(30):
        coeffs = [0] * model.raw_dim
        for vec in space.basis_vectors():
            c = rng.randint(-2, 2)
            if c:
                for k, x in enumerate(vec):
                    if x != 0:
                        coeffs[k] += c * x
        from dense_wrappers import cochain_parity_of_vector

        try:
            pv = cochain_parity_of_vector(model, coeffs)
        except Exception:
            continue
        if pv not in (None, 0):
            continue
        f = Cochain(model, 0, coeffs)
        if coboundary(b, module, f, check=False).is_zero():
            return f
    return None


class TestExactSequence:
    def _extension_chain(self):
        b = h3()
        fiber = GradedSpace(1, (0,))
        d = ExtensionDatum(b, fiber, Matrix.identity(1), trivial_module(b, fiber), None)
        d.cocycle = zero_cochain(b, d.module)
        g = build_extension(d)
        zero_alg = abelian_algebra_on(GradedSpace(0, ()))
        a_alg = abelian_algebra_on(fiber)
        maps = [
            Matrix(1, 0, []),
            canonical_injection(1, 3),
            canonical_projection(1, 3),
            Matrix(0, 3, []),
        ]
        return [zero_alg, a_alg, g, b, zero_alg], maps

    def test_extension_sequence_is_exact(self):
        algebras, maps = self._extension_chain()
        assert verify_exact_sequence(algebras, maps).ok

    def test_zero_iota_breaks_exactness(self):
        algebras, maps = self._extension_chain()
        maps[1] = Matrix.zeros(4, 1)
        report = verify_exact_sequence(algebras, maps)
        assert not report.ok
        names = [c.name for c in report.failed_checks()]
        assert any(name.startswith("exact-at-") for name in names)

    def test_identity_chain_fails_unless_zero(self):
        a = h3()
        report = verify_exact_sequence([a, a, a], [Matrix.identity(3), Matrix.identity(3)])
        assert not report.ok
        z = abelian_algebra_on(GradedSpace(0, ()))
        report = verify_exact_sequence([z, z, z], [Matrix(0, 0, []), Matrix(0, 0, [])])
        assert report.ok


class TestSectionDifference:
    def test_different_sections_give_cohomologous_cocycles(self):
        # base with a free choice of section: fiber = even line, base = H3
        b = h3()
        fiber = GradedSpace(1, (0,))
        module = trivial_module(b, fiber)
        model = CochainModel(b, module, 1)
        d = ExtensionDatum(b, fiber, Matrix.identity(1), module, Cochain.zero(model, 0))
        g = build_extension(d)
        a_sub = Subspace.from_vectors(4, [basis_vector(g, 0)])
        pi = canonical_projection(1, 3)
        s1 = canonical_section(1, 3)
        # shift the section by an a-valued even map
        tau2 = Matrix.from_rows([[2, -1, 3], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        s2 = Section(tau2)
        check_section(g, a_sub, b, pi, s2)
        f1, mod = extract_cocycle(g, a_sub, b, pi, s1)
        f2, _ = extract_cocycle(g, a_sub, b, pi, s2)
        witness = cohomologous_difference(b, mod, f1, f2)
        assert witness is not None
        got = coboundary(b, mod, witness, check=False)
        diff = [x - y for x, y in zip(f1.coeffs, f2.coeffs)]
        assert got.coeffs == diff
