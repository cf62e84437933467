import itertools
import random

import pytest

from nambu import samples
from nambu.cohomology import (
    Cochain,
    CochainModel,
    adjoint_rep,
    alternating_subspace,
    coboundary,
    coboundary_matrix,
    cochain_basis,
    cochain_parity_of_vector,
    cochain_space,
    cohomology_dims,
    delta_square_is_zero,
    fundamental_bracket,
    module_bracket,
    satisfies_compat,
    verify_prop_2_2,
    verify_representation,
    wedge_basis,
)
from nambu.core import GradedSpace, HomSuperAlgebra, StructureTensor, straighten
from nambu.errors import ArityMismatch, NotACochain
from nambu.linalg import Matrix, solve_affine
from nambu.samples import abelian, h3, n4, odd_square, sh12


class TestWedgeBasis:
    def test_all_even_is_ordinary_exterior(self):
        wb = wedge_basis(GradedSpace(3, (0, 0, 0)), 2)
        assert wb.elements == [(0, 1), (0, 2), (1, 2)]

    def test_all_odd_is_symmetric(self):
        wb = wedge_basis(GradedSpace(2, (1, 1)), 2)
        assert wb.elements == [(0, 0), (0, 1), (1, 1)]

    def test_mixed(self):
        wb = wedge_basis(GradedSpace(3, (0, 1, 1)), 2)
        assert wb.elements == [(0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]

    def test_count_matches_bruteforce_straightening(self):
        for parity in [(0, 0, 0), (1, 1), (0, 1, 1), (1, 0, 1, 0)]:
            space = GradedSpace(len(parity), parity)
            for degree in (2, 3):
                wb = wedge_basis(space, degree)
                survivors = set()
                for t in itertools.product(range(space.dim), repeat=degree):
                    sign, canon = straighten(t, parity)
                    if sign != 0:
                        survivors.add(canon)
                assert survivors == set(wb.elements)

    def test_lookup_signs(self):
        wb = wedge_basis(GradedSpace(3, (0, 0, 0)), 2)
        assert wb.lookup((1, 0)) == (-1, 0)
        sign, pos = wb.lookup((2, 2))
        assert sign == 0 and pos is None


class TestFundamentalBracket:
    def test_abelian_vanishes(self):
        a = abelian(3, 0, n=2)
        assert fundamental_bracket(a, {0: 1}, {1: 1}) == {}

    def test_n2_collapse_to_bracket(self):
        a = h3()
        assert fundamental_bracket(a, {0: 1}, {1: 1}) == {2: 1}

    def test_n4_example(self):
        a = n4()
        wb = wedge_basis(a.space, 2)
        x = {wb.index[(0, 1)]: 1}
        y = {wb.index[(0, 2)]: 1}
        assert fundamental_bracket(a, x, y) == {wb.index[(0, 3)]: 1}

    def test_bilinear(self):
        a = n4()
        wb = wedge_basis(a.space, 2)
        x = {wb.index[(0, 1)]: 2}
        y = {wb.index[(0, 2)]: 3, wb.index[(1, 2)]: 1}
        got = fundamental_bracket(a, x, y)
        e14 = wb.index[(0, 3)]
        e24 = wb.index[(1, 3)]
        assert got == {e14: 6, e24: 2}


class TestProp22:
    @pytest.mark.parametrize("make", [lambda: abelian(2, 1), h3, sh12, n4, odd_square])
    def test_identities_hold(self, make):
        assert verify_prop_2_2(make()).ok

    def test_identities_hold_on_twisted(self):
        rng = random.Random(3)
        for _ in range(8):
            a = samples.random_twisted_algebra(rng)
            assert verify_prop_2_2(a).ok, a.name


class TestAdjoint:
    def test_abelian_adjoint_is_zero(self):
        a = abelian(2, 1)
        r = adjoint_rep(a)
        assert all(mat.is_zero() for mat in r.rho)
        assert r.nu.is_identity()

    def test_h3_ad_e1(self):
        r = adjoint_rep(h3())
        assert r.rho[0].col(1) == [0, 0, 1]
        assert r.rho[0].col(0) == [0, 0, 0]

    def test_n4_ad(self):
        a = n4()
        wb = wedge_basis(a.space, 2)
        r = adjoint_rep(a)
        assert r.rho[wb.index[(0, 1)]].col(2) == [0, 0, 0, 1]

    @pytest.mark.parametrize("make", [lambda: abelian(1, 1), h3, sh12, n4, odd_square])
    def test_adjoint_is_a_representation(self, make):
        a = make()
        assert verify_representation(adjoint_rep(a), a).ok

    def test_zero_rho_is_a_representation(self):
        a = h3()
        wb = wedge_basis(a.space, 1)
        r = type(adjoint_rep(a))(
            a.space, [Matrix.zeros(3, 3) for _ in wb.elements], Matrix.identity(3)
        )
        assert verify_representation(r, a).ok

    def test_invalid_algebra_fails_rep_check(self):
        space = GradedSpace(3, (0, 0, 0))
        bad = HomSuperAlgebra(
            space,
            StructureTensor(2, space, {(0, 1): [0, 0, 1], (1, 2): [0, 1, 0]}),
            Matrix.identity(3),
        )
        assert not verify_representation(adjoint_rep(bad), bad).ok


class TestModuleBracket:
    def test_two_module_slots_vanish(self):
        a = n4()
        r = adjoint_rep(a)
        v = [1, 2, 3, 4]
        out = module_bracket(a, r, [("v", v), ("v", v), ("g", a.basis_vector(0))])
        assert out == [0, 0, 0, 0]

    def test_too_many_module_slots(self):
        a = n4()
        r = adjoint_rep(a)
        v = [1, 0, 0, 0]
        with pytest.raises(ArityMismatch):
            module_bracket(a, r, [("v", v)] * 3)

    def test_single_slot_matches_bracket_for_adjoint(self):
        # with the adjoint action the module bracket is the algebra bracket
        a = h3()
        r = adjoint_rep(a)
        e1, e2 = a.basis_vector(0), a.basis_vector(1)
        assert module_bracket(a, r, [("v", e1), ("g", e2)]) == a.bracket_eval([e1, e2])
        assert module_bracket(a, r, [("g", e1), ("v", e2)]) == a.bracket_eval([e1, e2])

    def test_zero_rho_kills_everything(self):
        a = abelian(2)
        r = adjoint_rep(a)
        out = module_bracket(a, r, [("v", [1, 1]), ("g", [1, 0])])
        assert out == [0, 0]

    def test_leading_module_slot_sign_n3(self):
        # all even: [v, x_1, x_2] picks up (-1)^{n-1} = +1 for n = 3
        a = n4()
        r = adjoint_rep(a)
        e = [a.basis_vector(i) for i in range(4)]
        got = module_bracket(a, r, [("v", e[2]), ("g", e[0]), ("g", e[1])])
        assert got == a.bracket_basis((2, 0, 1))
        assert got == [0, 0, 0, 1]


class TestCochainSpaces:
    def test_identity_twists_give_full_space(self):
        a = abelian(2)
        r = adjoint_rep(a)
        assert cochain_space(a, r, 1, "even").dim == 8
        assert cochain_space(a, r, 1, "odd").dim == 0

    def test_zero_twists_give_full_space(self):
        a = twisted = None
        from nambu.core import twist_by_endomorphism

        base = abelian(2)
        twisted = twist_by_endomorphism(base, Matrix.zeros(2, 2))
        r = adjoint_rep(twisted)
        assert cochain_space(twisted, r, 1, "both").dim == 8

    def test_parity_split_adds_up(self):
        a = sh12()
        r = adjoint_rep(a)
        both = cochain_space(a, r, 1, "both").dim
        even = cochain_space(a, r, 1, "even").dim
        odd = cochain_space(a, r, 1, "odd").dim
        assert both == even + odd


def _as_zero_cochain_matrix(a, r, mat):
    """Pack a DV x D matrix as a 0-cochain (f(e_j) = mat column j)."""
    model = CochainModel(a, r, 0)
    coeffs = [0] * model.raw_dim
    for j in range(a.dim):
        base = model.flat((), j)
        for v in range(model.DV):
            coeffs[base + v] = mat[v, j]
    return model, coeffs


class TestCoboundary:
    def test_abelian_zero_rho_delta0_is_zero(self):
        from nambu.core import twist_by_endomorphism

        base = abelian(2)
        a = twist_by_endomorphism(base, Matrix.zeros(2, 2))
        r = adjoint_rep(a)
        model = CochainModel(a, r, 0)
        f = Cochain(model, 0, [1, 2, 3, 4])
        g = coboundary(a, r, f)
        assert g.is_zero()

    def test_delta0_kernel_is_derivation_space_for_h3(self):
        # independent oracle: solve D[x,y] = [Dx,y] + [x,Dy] directly,
        # with unknowns D[v][u] flattened row-major
        a = h3()
        rows = []
        for i in range(3):
            for j in range(3):
                bij = a.bracket_basis((i, j))
                for v in range(3):
                    row = [0] * 9
                    # D[v][u] coefficient from D([e_i,e_j]) term
                    for u in range(3):
                        row[v * 3 + u] += bij[u]
                    # [D e_i, e_j]: D e_i = sum_u D[u][i] e_u
                    for u in range(3):
                        row[u * 3 + i] -= a.bracket_basis((u, j))[v]
                    # [e_i, D e_j]
                    for u in range(3):
                        row[u * 3 + j] -= a.bracket_basis((i, u))[v]
                    rows.append(row)
        from nambu.linalg import nullspace

        der_dim = nullspace(Matrix.from_rows(rows, cols=9)).dim
        assert der_dim == 6  # derivations of the Heisenberg algebra
        z, b, hdim = cohomology_dims(a, adjoint_rep(a), 0)
        assert (z, b, hdim) == (6, 0, 6)

    def test_h3_adjoint_m1_regression(self):
        # pinned after the cross-checks below ran green
        a = h3()
        r = adjoint_rep(a)
        assert cohomology_dims(a, r, 1) == (11, 3, 8)

    def test_h3_z1_vectors_really_die_and_b1_is_hit(self):
        a = h3()
        r = adjoint_rep(a)
        m1 = coboundary_matrix(a, r, 1)
        m0 = coboundary_matrix(a, r, 0)
        from nambu.linalg import image, nullspace

        z = nullspace(m1)
        for vec in z.basis_vectors():
            # reconstruct the cochain from C^1 coordinates and apply delta
            c1 = cochain_space(a, r, 1)
            raw = [0] * c1.ambient_dim
            for c, row in zip(vec, c1.basis_vectors()):
                for k, x in enumerate(row):
                    raw[k] += c * x
            model = CochainModel(a, r, 1)
            pv = cochain_parity_of_vector(model, raw)
            f = Cochain(model, 0 if pv is None else pv, raw)
            assert coboundary(a, r, f).is_zero()
        for col in range(m0.cols):
            target = [m0[i, col] for i in range(m0.rows)]
            # the column is delta of the C^0 basis vector: a preimage exists
            sol, _ = solve_affine(m0, target)
            assert sol is not None

    def test_delta_preserves_parity_and_compat(self):
        for make in (h3, sh12, odd_square):
            a = make()
            r = adjoint_rep(a)
            for f in cochain_basis(a, r, 1, "both").cochains():
                g = coboundary(a, r, f)
                assert satisfies_compat(a, r, g)
                pv = cochain_parity_of_vector(g.model, g.coeffs)
                assert pv is None or pv == f.parity

    def test_rejects_non_cochain(self):
        from nambu.core import twist_by_endomorphism

        base = h3()
        rho = Matrix(3, 3, [2, 0, 0, 0, 1, 0, 0, 0, 2])
        a = twist_by_endomorphism(base, rho)
        r = adjoint_rep(a)
        model = CochainModel(a, r, 0)
        coeffs = [0] * model.raw_dim
        # f(e2) = e1: nu.f(e2) = 2 e1 but f(alpha e2) = e1, so not compatible
        coeffs[model.flat((), 1) + 0] = 1
        with pytest.raises(NotACochain):
            coboundary(a, r, Cochain(model, 0, coeffs))


class TestDeltaSquared:
    @pytest.mark.parametrize(
        "make", [lambda: abelian(2), lambda: abelian(1, 1), h3, sh12, odd_square, n4]
    )
    def test_catalog(self, make):
        a = make()
        r = adjoint_rep(a)
        for m in (0, 1):
            assert delta_square_is_zero(a, r, m), (a.name, m)

    def test_matrix_product_agrees_with_raw_route(self):
        for make in (h3, sh12):
            a = make()
            r = adjoint_rep(a)
            for m in (0, 1):
                m_lo = coboundary_matrix(a, r, m)
                m_hi = coboundary_matrix(a, r, m + 1)
                assert (m_hi * m_lo).is_zero()
                assert delta_square_is_zero(a, r, m)

    def test_twisted_small_sample(self):
        rng = random.Random(5)
        done = 0
        while done < 6:
            a = samples.random_twisted_algebra(rng, max_dim=3)
            r = adjoint_rep(a)
            for m in (0, 1):
                assert delta_square_is_zero(a, r, m), (a.name, m)
            done += 1


class TestReindexingInvariance:
    def test_h3_dims_invariant_under_basis_permutation(self):
        # H3 in permuted coordinates (e3, e1, e2): [e2, e3] = e1
        space = GradedSpace(3, (0, 0, 0))
        perm = HomSuperAlgebra(
            space,
            StructureTensor(2, space, {(1, 2): [1, 0, 0]}),
            Matrix.identity(3),
        )
        a = h3()
        for m in (0, 1):
            assert cohomology_dims(a, adjoint_rep(a), m) == cohomology_dims(
                perm, adjoint_rep(perm), m
            )

    def test_sh12_dims_invariant_under_odd_swap(self):
        # swap the two odd directions: [f2, f1] = e1 stored canonically
        space = GradedSpace(3, (0, 1, 1))
        perm = HomSuperAlgebra(
            space,
            StructureTensor(2, space, {(1, 2): [1, 0, 0]}),
            Matrix.identity(3),
        )
        a = sh12()
        for m in (0, 1):
            for parity in ("even", "odd"):
                assert cohomology_dims(a, adjoint_rep(a), m, parity) == cohomology_dims(
                    perm, adjoint_rep(perm), m, parity
                )


class TestAlternating:
    def test_h3_alternating_one_cochains(self):
        # n=2: alternating maps g x g -> g; dim = 3 * dim Lambda^2(3) = 9
        a = h3()
        r = adjoint_rep(a)
        alt = alternating_subspace(a, r)
        assert alt.dim == 9

    def test_odd_directions_allow_symmetric_pairs(self):
        a = odd_square()  # parities (0,1)
        r = adjoint_rep(a)
        alt = alternating_subspace(a, r)
        # wedge^2 of (0|1): e^f and f^f survive; z-slot alternation couples them
        model = CochainModel(a, r, 1)
        for vec in alt.basis_vectors():
            pv = cochain_parity_of_vector(model, vec)  # must be homogeneous
            assert pv in (0, 1, None)

    def test_raw_dimension(self):
        a = h3()
        r = adjoint_rep(a)
        model = CochainModel(a, r, 1)
        assert model.raw_dim == 3 * 3 * 3

    def test_zero_dimensional_module(self):
        from nambu.cohomology import Representation
        from nambu.core import GradedSpace

        a = h3()
        v0 = GradedSpace(0, ())
        r = Representation(v0, [Matrix(0, 0, []) for _ in range(3)], Matrix(0, 0, []))
        assert cohomology_dims(a, r, 1) == (0, 0, 0)
