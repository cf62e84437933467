"""T*-extensions: coadjoint action, metric double algebras on g (+) g*,
equivalence of extensions, isotropic-ideal machinery and the nilpotent
decomposition pipeline.

Coordinates of a T*-extension: the g block first, then the dual block
(e_k* has the parity of e_k; the dual pairing is the coordinate pairing).
The bracket is built by the extension builder of `extensions`, as the
extension of g by g* through ad* and theta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cohomology import (
    Cochain,
    CochainModel,
    Representation,
    adjoint_rep,
    alternating_subspace,
    cochain_basis,
    coboundary,
    delta_operator,
    satisfies_compat,
    verify_representation,
    _complex_tables,
    _images,
    _wedge,
)
from .core import (
    BilinearForm,
    GradedSpace,
    HomSuperAlgebra,
    Report,
    StructureTensor,
    _canonical_tuples,
    direct_sum,
    is_hom_ideal,
    nilpotent_length,
    pairing,
    quotient,
    series,
    solvable_length,
    split_graded,
    vector_parity,
    verify_algebra,
    verify_metric,
    verify_morphism,
)
from .errors import (
    AlgebraError,
    CoadjointMissing,
    ComplementNotFound,
    DimensionMismatch,
    NeedsFieldExtension,
    NoStableIsotropicVector,
    NotACochain,
    NotAnIdeal,
    NotHalfDimensional,
    NotMetric,
    NotNilpotent,
    OddDimension,
    ThetaNotClosed,
    ThetaNotCyclic,
    ensure,
)
from .extensions import ExtensionDatum, _twisted_algebra
from .linalg import Matrix, Subspace, block_diagonal, nullspace, particular_solution, rank, sparse_kernel


# ---------------------------------------------------------------------------
# coadjoint representation


@dataclass
class CoadjointRep:
    rep: Representation
    exists: bool  # ad* really satisfies the representation identities
    witness: dict | None = None
    operator_conditions: bool = True  # the sufficient bracket-operator laws
    operator_witness: dict | None = None


def coadjoint_rep(a: HomSuperAlgebra) -> CoadjointRep:
    """ad*(x)(f)(z) = -(-1)^{|x||f|} f(ad x (z)); nu* = transpose of alpha.

    The exists flag records whether ad* satisfies the representation
    identities; the sufficient bracket-operator conditions
    are checked separately (they imply existence but are strictly stronger:
    condition (ii) asks for termwise anticommutation where only a summed
    cancellation is needed).  Computed once per algebra and kept in its
    cache; callers share the result and must not modify it.
    """
    if "coadjoint" not in a._cache:
        a._cache["coadjoint"] = _coadjoint_rep(a)
    return a._cache["coadjoint"]


def _coadjoint_rep(a: HomSuperAlgebra) -> CoadjointRep:
    wb = _wedge(a)
    d = a.dim
    p = a.parity
    ad = adjoint_rep(a)
    mats = []
    for w, admat in enumerate(ad.rho):
        pw = wb.parity(w)
        data = [0] * (d * d)
        for i in range(d):  # image of e_i*
            # -(-1)^{|x||e_i*|}: +1 only when both the wedge and e_i* are odd
            sgn = 1 if (pw == 1 and p[i] == 1) else -1
            for k in range(d):
                c = admat[i, k]
                if c != 0:
                    data[k * d + i] = sgn * c
        mats.append(Matrix(d, d, data))
    rep = Representation(a.space, mats, a.alpha.transpose())
    conditions_ok, operator_witness = _coadjoint_conditions(a, ad)
    cx = _complex_tables(a)
    aw = cx.alpha_wedge()
    equivariant = True
    witness = None
    for w in range(len(wb)):
        if rep.nu * rep.rho[w] != rep.matrix_of(aw[w]) * rep.nu:
            equivariant = False
            witness = {"equivariance": [k + 1 for k in wb.elements[w]]}
            break
    if equivariant and conditions_ok:
        exists = True
    elif equivariant:
        rep_report = verify_representation(rep, a)
        exists = rep_report.ok
        witness = None if exists else rep_report.to_dict()
    else:
        exists = False
    return CoadjointRep(rep, exists, witness, conditions_ok, operator_witness)


def _coadjoint_conditions(a: HomSuperAlgebra, ad: Representation):
    wb = _wedge(a)
    cx = _complex_tables(a)
    aw = cx.alpha_wedge()
    n = a.arity

    # first condition: ad(x) ad(alpha y) - (-1)^{|x||y|} ad(y) ad(alpha x) = alpha o ad([x,y]_alpha)
    for w1 in range(len(wb)):
        for w2 in range(len(wb)):
            sgn = -1 if (wb.parity(w1) == 1 and wb.parity(w2) == 1) else 1
            lhs = ad.rho[w1] * ad.matrix_of(aw[w2]) - (ad.rho[w2] * ad.matrix_of(aw[w1])).scale(sgn)
            rhs = a.alpha * ad.matrix_of(cx.fb(w1, w2))
            if lhs != rhs:
                return False, {
                    "condition": "commutator",
                    "x": [k + 1 for k in wb.elements[w1]],
                    "y": [k + 1 for k in wb.elements[w2]],
                }

    # second condition: ad(x_1..x_{n-2}, y_i) ad(alpha hat-wedge)
    #      = (-1)^{(sum x)(sum hat)} { - ad(alpha hat-wedge) ad(x_1..x_{n-2}, y_i) }
    for xs in _canonical_tuples(a.space, n - 2):
        px = a.space.parity_of_indices(xs)
        for h in range(len(wb)):
            ph = wb.parity(h)
            right = ad.matrix_of(aw[h])
            for y in range(a.dim):
                sign_w, w_small = wb.lookup(xs + (y,))
                if sign_w == 0:
                    continue
                left = ad.rho[w_small].scale(sign_w)
                sgn = -1 if (px == 1 and ph == 1) else 1
                if left * right != (right * left).scale(-sgn):
                    return False, {
                        "condition": "anticommutation",
                        "x": [k + 1 for k in xs],
                        "hat": [k + 1 for k in wb.elements[h]],
                        "y": y + 1,
                    }
    return True, None


# ---------------------------------------------------------------------------
# the T*-extension


@dataclass
class MetricAlgebra:
    algebra: HomSuperAlgebra
    form: BilinearForm

    def verify(self) -> Report:
        return verify_metric(self.algebra, self.form)

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def gram(self):
        return self.form.gram


@dataclass
class TStarExtension:
    base: HomSuperAlgebra
    theta: Cochain
    result: MetricAlgebra

    @property
    def algebra(self):
        return self.result.algebra

    @property
    def form(self):
        return self.result.form


def tstar_gram(space: GradedSpace) -> Matrix:
    """<x+f, y+g> = f(y) + (-1)^{|x||y|} g(x) on the (g, g*) coordinates."""
    d = space.dim
    data = [0] * (4 * d * d)
    size = 2 * d
    for i in range(d):
        data[i * size + d + i] = -1 if space.parity[i] == 1 else 1
        data[(d + i) * size + i] = 1
    return Matrix(size, size, data)


def zero_theta(a: HomSuperAlgebra, coad: CoadjointRep | None = None) -> Cochain:
    coad = coad or coadjoint_rep(a)
    model = CochainModel(a, coad.rep, 1)
    return Cochain.zero(model, 0)


def tstar_extend(g: HomSuperAlgebra, theta: Cochain | None = None, validated=True) -> TStarExtension:
    """The algebra on g (+) g* with the theta-twisted bracket and pairing.

    validated=True enforces: coadjoint exists, theta even alternating
    compatible (NotACochain), closed (ThetaNotClosed), cyclic
    (ThetaNotCyclic); raw construction skips all of that.
    """
    coad = coadjoint_rep(g)
    if validated and not coad.exists:
        raise CoadjointMissing(f"coadjoint conditions fail: {coad.witness}")
    if theta is None:
        theta = zero_theta(g, coad)
    if validated:
        if theta.degree != 1 or theta.parity != 0:
            raise NotACochain("theta must be an even 1-cochain")
        if not satisfies_compat(g, coad.rep, theta):
            raise NotACochain("theta violates the twist compatibility or has odd coordinates")
        if not alternating_subspace(g, coad.rep).contains_vector(theta.coeffs):
            raise NotACochain("theta is not super-alternating across all slots")
        if not coboundary(g, coad.rep, theta, check=False).is_zero():
            raise ThetaNotClosed("delta theta != 0")
        if not is_cyclic_cocycle(g, theta):
            raise ThetaNotCyclic("theta violates the cyclic condition")

    datum = ExtensionDatum(g, g.space, g.alpha.transpose(), coad.rep, theta)
    algebra = _twisted_algebra(datum, f"T*({g.name})" if g.name else "T*", fiber_first=False)
    result = MetricAlgebra(algebra, BilinearForm(tstar_gram(g.space)))
    ext = TStarExtension(g, theta, result)
    if validated:
        ensure(verify_algebra(algebra).ok, "T*-extension fails the algebra axioms")
        ensure(result.verify().ok, "T*-extension fails the metric checks")
        dual = embedded_dual(ext)
        ensure(is_hom_ideal(dual, algebra), "g* is not a Hom-ideal of the T*-extension")
        ensure(is_isotropic(result, dual), "g* is not isotropic in the T*-extension")
    return ext


def embedded_dual(ext: TStarExtension) -> Subspace:
    d = ext.base.dim
    alg = ext.algebra
    return Subspace.from_vectors(alg.dim, [alg.basis_vector(d + i) for i in range(d)])


def is_isotropic(m: MetricAlgebra, sub: Subspace) -> bool:
    rows = sub.basis_vectors()
    return all(pairing(m.gram, u, v) == 0 for u in rows for v in rows)


def is_cyclic_cocycle(g: HomSuperAlgebra, theta: Cochain) -> bool:
    """theta(x,y)(z) + (-1)^{|y||z|} theta(x,z)(y) = 0 on all basis tuples."""
    wb = _wedge(g)
    p = g.parity
    for w in range(len(wb)):
        for y in range(g.dim):
            vy = theta.value((w,), y)
            for z in range(g.dim):
                vz = theta.value((w,), z)
                sgn = -1 if (p[y] == 1 and p[z] == 1) else 1
                if vy[z] + sgn * vz[y] != 0:
                    return False
    return True


def theta_spaces(g: HomSuperAlgebra) -> dict:
    """Subspaces of the raw 1-cochain space used for sampling thetas:
    'cochain' (even, compatible, alternating), 'cyclic', 'closed',
    'closed_cyclic'."""
    coad = coadjoint_rep(g)
    r = coad.rep
    model = CochainModel(g, r, 1)
    compat = cochain_basis(g, r, 1, "even").to_subspace()
    alt = alternating_subspace(g, r)
    cochain = compat.intersect(alt)

    wb = _wedge(g)
    p = g.parity
    rows = []
    for w in range(len(wb)):
        for y in range(g.dim):
            for z in range(y, g.dim):
                sgn = -1 if (p[y] == 1 and p[z] == 1) else 1
                row = {model.flat((w,), y) + z: 1}
                k = model.flat((w,), z) + y
                row[k] = row.get(k, 0) + sgn
                rows.append(row)
    cyclic_constraint = sparse_kernel(rows, model.raw_dim)
    cyclic = cochain.intersect(cyclic_constraint)

    def closed_part(space: Subspace) -> Subspace:
        if space.dim == 0:
            return space
        # the combinations of the basis that delta kills, one equation per
        # coordinate some image reaches
        images = _images(delta_operator(g, r, 1), space.sparse_rows)
        rows = [{i: img.get(k, 0) for i, img in enumerate(images)} for k in set().union(*images)]
        return Subspace(model.raw_dim, sparse_kernel(rows, space.dim).basis * space.basis)

    closed = closed_part(cochain)
    closed_cyclic = closed.intersect(cyclic_constraint)
    return {
        "model": model,
        "rep": r,
        "cochain": cochain,
        "cyclic": cyclic,
        "closed": closed,
        "closed_cyclic": closed_cyclic,
    }


# ---------------------------------------------------------------------------
# equivalence of T*-extensions


@dataclass
class EquivalenceResult:
    kind: str  # 'inequivalent' | 'equivalent' | 'isometrically_equivalent'
    theta_prime: Matrix | None = None  # T[k][j] = theta'(e_j)(e_k)


def equivalence(g: HomSuperAlgebra, theta1: Cochain, theta2: Cochain) -> EquivalenceResult:
    """Classify T*_theta1 g against T*_theta2 g.

    Solves delta theta' = theta1 - theta2 with theta'(x) o alpha =
    theta'(alpha x) and theta' even; equivalence holds iff solvable, and
    the pair is isometrically equivalent iff some solution's induced
    symmetric form vanishes (solvability is decided inside the full
    solution space, not on one witness).
    """
    coad = coadjoint_rep(g)
    if not coad.exists:
        raise CoadjointMissing("equivalence needs the coadjoint representation")
    rep = coad.rep
    thetas = (theta1, theta2)
    images = _images(delta_operator(g, rep, 1), [dict(enumerate(t.coeffs)) for t in thetas])
    for theta, image in zip(thetas, images):
        if image:
            raise ThetaNotClosed("theta must be closed")
        if not is_cyclic_cocycle(g, theta):
            raise ThetaNotCyclic("theta must be cyclic")
    d = g.dim
    p = g.parity
    model1 = CochainModel(g, rep, 1)
    delta0 = delta_operator(g, rep, 0)
    nvars = d * d

    rows = []
    rhs = []
    diff = [x - y for x, y in zip(theta1.coeffs, theta2.coeffs)]
    for out in range(model1.raw_dim):
        # delta^0 on the unknowns T[k][j] = theta'(e_j)(e_k), raw flat j*D+k
        row = [0] * nvars
        for flat, c in delta0.get(out, {}).items():
            j, k = divmod(flat, d)
            row[k * d + j] = c
        rows.append(row)
        rhs.append(diff[out])
    # theta'(alpha x) = theta'(x) o alpha: A^T T = T A on the matrix T
    at = g.alpha.transpose()
    for i in range(d):
        for j in range(d):
            row = [0] * nvars
            for k in range(d):
                if at[i, k] != 0:
                    row[k * d + j] += at[i, k]
                if g.alpha[k, j] != 0:
                    row[i * d + k] -= g.alpha[k, j]
            if any(x != 0 for x in row):
                rows.append(row)
                rhs.append(0)
    # evenness of theta'
    for k in range(d):
        for j in range(d):
            if p[k] != p[j]:
                row = [0] * nvars
                row[k * d + j] = 1
                rows.append(row)
                rhs.append(0)

    base_matrix = Matrix.from_rows(rows, cols=nvars)
    sol = particular_solution(base_matrix, rhs)
    if sol is None:
        return EquivalenceResult("inequivalent")

    # try for a witness with vanishing induced form:
    # T[k][j] + (-1)^{p_j p_k} T[j][k] = 0 for all j <= k
    extra_rows = list(rows)
    extra_rhs = list(rhs)
    for j in range(d):
        for k in range(j, d):
            row = [0] * nvars
            row[k * d + j] += 1
            sgn = -1 if (p[j] == 1 and p[k] == 1) else 1
            row[j * d + k] += sgn
            extra_rows.append(row)
            extra_rhs.append(0)
    iso_sol = particular_solution(Matrix.from_rows(extra_rows, cols=nvars), extra_rhs)
    if iso_sol is not None:
        return EquivalenceResult("isometrically_equivalent", Matrix(d, d, iso_sol))
    return EquivalenceResult("equivalent", Matrix(d, d, sol))


def induced_form(g: HomSuperAlgebra, t_matrix: Matrix) -> Matrix:
    """<x,y>_{theta'} = (theta'(x)(y) + (-1)^{|x||y|} theta'(y)(x)) / 2."""
    d = g.dim
    p = g.parity
    half = Fraction(1, 2)
    data = [0] * (d * d)
    for j in range(d):
        for k in range(d):
            sgn = -1 if (p[j] == 1 and p[k] == 1) else 1
            data[j * d + k] = half * (t_matrix[k, j] + sgn * t_matrix[j, k])
    return Matrix(d, d, data)


def theta_prime_as_cochain(g: HomSuperAlgebra, t_matrix: Matrix, rep=None) -> Cochain:
    rep = rep or coadjoint_rep(g).rep
    model = CochainModel(g, rep, 0)
    coeffs = [0] * model.raw_dim
    for j in range(g.dim):
        base = model.flat((), j)
        for k in range(g.dim):
            coeffs[base + k] = t_matrix[k, j]
    return Cochain(model, 0, coeffs)


# ---------------------------------------------------------------------------
# centralizer machinery


def centralizer(m: MetricAlgebra, v: Subspace) -> Subspace:
    """C(V) = {x : [x, g, ..., g] <= V}, computed both by definition and as
    [g, ..., g, V^perp]^perp; the two answers must agree (InternalError)."""
    a = m.algebra
    ann = v.annihilator().basis_vectors()
    rows = []
    for t in _canonical_tuples(a.space, a.arity - 1):
        cols = [a.bracket_basis((j,) + t) for j in range(a.dim)]
        rows.extend([sum(x * y for x, y in zip(u, col)) for col in cols] for u in ann)
    by_definition = nullspace(Matrix.from_rows(rows, cols=a.dim))

    vperp = v.orthogonal_complement(m.gram)
    spanned = []
    for t in _canonical_tuples(a.space, a.arity - 1):
        for w in vperp.basis_vectors():
            vec = a.bracket_eval([a.basis_vector(i) for i in t] + [list(w)])
            if any(c != 0 for c in vec):
                spanned.append(vec)
    bracket_span = Subspace.from_vectors(a.dim, spanned)
    by_perp = bracket_span.orthogonal_complement(m.gram)
    ensure(by_definition == by_perp, "centralizer dual-path mismatch")
    return by_definition


def centralizer_series(m: MetricAlgebra):
    """(C(V) operation, ascending chain C_0 = 0 <= C_1 <= ... until stable)."""
    chain = [Subspace.zero(m.dim)]
    while True:
        nxt = centralizer(m, chain[-1])
        if nxt == chain[-1]:
            break
        chain.append(nxt)
        if nxt.dim == m.dim:
            break
    return (lambda v: centralizer(m, v)), chain


def canonical_isotropic_ideal(m: MetricAlgebra) -> Subspace:
    """J = sum_i of g^i intersect C_i(g) over the 0-based lower central series.

    Isotropy, ideal-ness and the containment of the half-way series term
    are post-checked exactly.
    """
    a = m.algebra
    lc = series(a, "lower_central")
    if lc.length is None:
        raise NotNilpotent("algebra is not nilpotent")
    _, chain = centralizer_series(m)

    def c_of(i):
        return chain[i] if i < len(chain) else chain[-1]

    j = Subspace.zero(a.dim)
    for i, term in enumerate(lc.terms):
        j = j.sum(term.intersect(c_of(i)))
    ensure(is_isotropic(m, j), "canonical ideal is not isotropic")
    ensure(is_hom_ideal(j, a), "canonical ideal is not a Hom-ideal")
    k0 = lc.length
    half = (k0 + 1) // 2
    half_term = lc.terms[half] if half < len(lc.terms) else Subspace.zero(a.dim)
    ensure(j.contains(half_term), "canonical ideal misses the half-way series term")
    return j


# ---------------------------------------------------------------------------
# maximal isotropic enlargement, by induction on the quotient W-perp/W


def _largest_invariant(sub: Subspace, alpha: Matrix) -> Subspace:
    """Largest alpha-invariant subspace of sub: iterate sub intersect alpha^{-1}(sub)."""
    current = sub
    while True:
        nxt = current.intersect(nullspace(current.annihilator().basis * alpha))
        if nxt == current:
            return current
        current = nxt


def _orbit_span(v, alpha: Matrix, ambient) -> Subspace:
    span = Subspace.from_vectors(ambient, [v])
    vec = list(v)
    for _ in range(ambient):
        vec = alpha.apply(vec)
        nxt = span.sum(Subspace.from_vectors(ambient, [vec]))
        if nxt == span:
            return span
        span = nxt
    return span


def _homogeneous_basis(sub: Subspace, parity):
    space = GradedSpace(len(parity), tuple(parity))
    he, ho = split_graded(sub, space)
    return he.basis_vectors(), ho.basis_vectors()


def _sqrt_fraction(q):
    """Exact square root of a nonnegative rational, or None."""
    q = Fraction(q)
    if q < 0:
        return None
    from math import isqrt

    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _find_isotropic_stable_vector(parity, gram, ops, alpha, dim):
    """An Engel-style isotropic vector whose alpha-orbit span is isotropic."""
    kernel = nullspace(Matrix.from_rows([row for op in ops for row in op.row_list()], cols=dim))
    stable = _largest_invariant(kernel, alpha)
    if stable.dim == 0:
        raise NoStableIsotropicVector("the alpha-stable joint kernel is zero")
    even_vecs, odd_vecs = _homogeneous_basis(stable, parity)

    def try_vector(v):
        if pairing(gram, v, v) != 0:
            return None
        orbit = _orbit_span(v, alpha, dim)
        rows = orbit.basis_vectors()
        if all(pairing(gram, x, y) == 0 for x in rows for y in rows):
            return orbit
        return None

    for v in odd_vecs + even_vecs:
        got = try_vector(list(v))
        if got is not None:
            return got
    # quadratic search on pairs of even candidates, as in the inductive proof
    first_disc = None
    for i in range(len(even_vecs)):
        for j in range(i + 1, len(even_vecs)):
            vi, vj = list(even_vecs[i]), list(even_vecs[j])
            qi = pairing(gram, vi, vi)
            qj = pairing(gram, vj, vj)
            c = pairing(gram, vi, vj)
            if qj == 0:
                if c == 0:
                    continue
                t = -Fraction(qi) / (2 * c)
                cand = [x + t * y for x, y in zip(vi, vj)]
            else:
                disc = Fraction(c * c - qi * qj)
                root = _sqrt_fraction(disc)
                if root is None:
                    if first_disc is None:
                        first_disc = disc
                    continue
                t = (-c + root) / Fraction(qj)
                cand = [x + t * y for x, y in zip(vi, vj)]
            got = try_vector(cand)
            if got is not None:
                return got
    if first_disc is not None:
        raise NeedsFieldExtension(first_disc, "isotropic vector construction")
    raise NoStableIsotropicVector("no isotropic vector with an isotropic alpha-orbit")


def _extend_recursive(parity, gram, ops, alpha, w: Subspace) -> Subspace:
    dim = len(parity)
    target = dim // 2
    if w.dim >= target:
        return w
    if w.dim == 0:
        orbit = _find_isotropic_stable_vector(parity, gram, ops, alpha, dim)
        return _extend_recursive(parity, gram, ops, alpha, orbit)

    # quotient step: recurse on W^perp / W
    wperp = w.orthogonal_complement(gram)
    ensure(wperp.contains(w), "W is not inside W-perp")
    ensure(_maps_into(ops, wperp, wperp), "W-perp is not stable under the bracket operators")
    space = GradedSpace(dim, tuple(parity))
    w_even, w_odd = split_graded(w, space)
    perp_even, perp_odd = split_graded(wperp, space)

    reps = []
    rep_parity = []
    current = w
    for part, par in ((perp_even, 0), (perp_odd, 1)):
        for row in part.basis_vectors():
            if not current.contains_vector(row):
                reps.append(list(row))
                rep_parity.append(par)
                current = current.sum(Subspace.from_vectors(dim, [row]))
    qdim = len(reps)
    ensure(qdim == wperp.dim - w.dim, "quotient representatives have the wrong count")

    # coordinates in W^perp: columns = [w basis | reps]
    basis_cols = [list(r) for r in w.basis_vectors()] + reps
    basis_matrix = Matrix.from_rows(basis_cols, cols=dim).transpose()

    def quotient_coords(vec):
        sol = particular_solution(basis_matrix, list(vec))
        ensure(sol is not None, "vector leaves W-perp")
        return sol[w.dim :]

    q_gram = Matrix(
        qdim, qdim, [pairing(gram, reps[i], reps[j]) for i in range(qdim) for j in range(qdim)]
    )
    q_ops = []
    for op in ops:
        cols = [quotient_coords(op.apply(r)) for r in reps]
        q_ops.append(Matrix.from_rows(cols, cols=qdim).transpose())
    q_alpha_cols = [quotient_coords(alpha.apply(r)) for r in reps]
    q_alpha = Matrix.from_rows(q_alpha_cols, cols=qdim).transpose() if qdim else Matrix(0, 0, [])

    inner = _extend_recursive(tuple(rep_parity), q_gram, q_ops, q_alpha, Subspace.zero(qdim))
    lifted = [
        [sum(c * reps[k][i] for k, c in enumerate(row) if c != 0) for i in range(dim)]
        for row in inner.basis_vectors()
    ]
    return w.sum(Subspace.from_vectors(dim, lifted))


def extend_to_maximal_isotropic(m: MetricAlgebra, w: Subspace) -> Subspace:
    """Enlarge an isotropic ad- and alpha-stable graded subspace to a
    maximally isotropic one of dimension floor(dim/2), still stable."""
    a = m.algebra
    if w.ambient_dim != a.dim:
        raise DimensionMismatch("subspace lives in the wrong ambient space")
    split_graded(w, a.space)  # graded or raises
    if not is_isotropic(m, w):
        raise AlgebraError("subspace is not isotropic")
    ad = adjoint_rep(a)
    ops = list(ad.rho)
    if not _maps_into(ops, w, w):
        raise AlgebraError("subspace is not stable under the bracket operators")
    if not _maps_into([a.alpha], w, w):
        raise AlgebraError("subspace is not stable under the twist")

    result = _extend_recursive(tuple(a.parity), m.gram, ops, a.alpha, w)
    ensure(result.dim == a.dim // 2, "maximal isotropic subspace has the wrong dimension")
    ensure(result.contains(w), "maximal isotropic subspace lost W")
    ensure(is_isotropic(m, result), "maximal isotropic subspace is not isotropic")
    split_graded(result, a.space)
    ensure(_maps_into(ops + [a.alpha], result, result), "maximal isotropic subspace is not stable")
    if a.dim % 2 == 1:
        rperp = result.orthogonal_complement(m.gram)
        ensure(_maps_into(ops, rperp, result), "the bracket operators map the complement outside")
    return result


def _maps_into(ops, source: Subspace, target: Subspace) -> bool:
    """Every operator sends every basis vector of source into target."""
    return all(target.contains_vector(op.apply(row)) for op in ops for row in source.basis_vectors())


def isotropic_half_ideal_abelian_check(m: MetricAlgebra, i: Subspace) -> bool:
    """[g, ..., g, I, I] = 0 for a half-dimensional isotropic Hom-ideal."""
    a = m.algebra
    if a.dim % 2 != 0:
        raise OddDimension("the abelian check needs an even-dimensional algebra")
    if i.dim != a.dim // 2:
        raise NotHalfDimensional(f"ideal has dim {i.dim}, need {a.dim // 2}")
    if not is_isotropic(m, i):
        raise AlgebraError("ideal is not isotropic")
    if not is_hom_ideal(i, a):
        raise NotAnIdeal("subspace is not a Hom-ideal")
    rows = [list(r) for r in i.basis_vectors()]
    basis = [a.basis_vector(k) for k in range(a.dim)]
    for t in _canonical_tuples(a.space, a.arity - 2):  # the g slots, up to sign
        for u in rows:
            for v in rows:
                val = a.bracket_eval([basis[k] for k in t] + [u, v])
                if any(c != 0 for c in val):
                    return False
    return True


# ---------------------------------------------------------------------------
# reconstruction as a T*-extension


@dataclass
class Reconstruction:
    g1: HomSuperAlgebra
    theta: Cochain
    phi: Matrix
    extension: TStarExtension
    g0: Subspace
    projection: Matrix


def _isotropic_complement(m: MetricAlgebra, ideal: Subspace) -> Subspace:
    """Greedy hyperbolic-style complement g0 with <g0, g0> = 0, g = g0 (+) I.

    Candidates are standard basis vectors in lex order; each is corrected
    by an ideal component solving the linear orthogonality conditions (the
    quadratic self-pairing condition is linear in the correction because
    the ideal is isotropic).
    """
    a = m.algebra
    gram = m.gram
    g0_rows = []
    current = Subspace.from_vectors(a.dim, ideal.basis_vectors())
    half = a.dim - ideal.dim
    i_rows = [list(r) for r in ideal.basis_vectors()]
    for j in range(a.dim):
        if len(g0_rows) == half:
            break
        cand = a.basis_vector(j)
        if current.contains_vector(cand):
            continue
        pj = a.parity[j]
        allowed = [r for r in i_rows if vector_parity(r, a.parity) == pj]
        rows = []
        rhs = []
        for u in g0_rows:
            rows.append([pairing(gram, w, u) for w in allowed])
            rhs.append(-pairing(gram, cand, u))
        if pj == 0:
            rows.append([2 * pairing(gram, cand, w) for w in allowed])
            rhs.append(-pairing(gram, cand, cand))
        if rows and allowed:
            sol = particular_solution(Matrix.from_rows(rows, cols=len(allowed)), rhs)
        elif rows:
            sol = None if any(x != 0 for x in rhs) else []
        else:
            sol = []
        if sol is None:
            raise ComplementNotFound("no isotropic correction in the ideal")
        vec = list(cand)
        for c, w in zip(sol, allowed):
            if c != 0:
                for k in range(a.dim):
                    vec[k] += c * w[k]
        g0_rows.append(vec)
        current = current.sum(Subspace.from_vectors(a.dim, [vec]))
    if len(g0_rows) != half:
        raise ComplementNotFound("could not complete the isotropic complement")
    g0 = Subspace.from_vectors(a.dim, g0_rows)
    ensure(g0.dim == half, "isotropic complement has the wrong dimension")
    ensure(is_isotropic(m, g0), "complement is not isotropic")
    ensure(g0.intersect(ideal).dim == 0, "complement meets the ideal")
    return g0


def reconstruct_as_tstar(m: MetricAlgebra, ideal: Subspace) -> Reconstruction:
    """The constructive isometry: g with a half-dimensional isotropic
    Hom-ideal I is isometric to T*_theta(g/I)."""
    a = m.algebra
    if a.dim % 2 != 0:
        raise OddDimension("reconstruction needs an even dimension (adjoin a line first)")
    if ideal.dim * 2 != a.dim:
        raise NotHalfDimensional(f"ideal has dim {ideal.dim}, need {a.dim // 2}")
    if not is_isotropic(m, ideal):
        raise AlgebraError("ideal is not isotropic")
    if not is_hom_ideal(ideal, a):
        raise NotAnIdeal("subspace is not a Hom-ideal")
    if not isotropic_half_ideal_abelian_check(m, ideal):
        raise AlgebraError("half-dimensional isotropic ideal is not abelian (impossible)")

    g1, pi = quotient(a, ideal)
    g0 = _isotropic_complement(m, ideal)

    g0_cols = [list(r) for r in g0.basis_vectors()]
    pi_g0_cols = [pi.apply(v) for v in g0_cols]
    pi_g0 = Matrix.from_rows(pi_g0_cols, cols=g1.dim).transpose()
    lift_cols = []
    for k in range(g1.dim):
        unit = [0] * g1.dim
        unit[k] = 1
        sol = particular_solution(pi_g0, unit)
        ensure(sol is not None, "complement does not project onto the quotient")
        vec = [sum(c * g0_cols[t][i] for t, c in enumerate(sol) if c != 0) for i in range(a.dim)]
        lift_cols.append(vec)

    ideal_rows = [list(r) for r in ideal.basis_vectors()]
    decomp_cols = g0_cols + ideal_rows
    decomp = Matrix.from_rows(decomp_cols, cols=a.dim).transpose()

    def split(vec):
        sol = particular_solution(decomp, list(vec))
        ensure(sol is not None, "complement plus ideal does not span g")
        return sol[: len(g0_cols)], sol[len(g0_cols) :]

    # f1*: I -> g1*, f1*(z)(pi x) = <z, x>
    fstar = Matrix(
        g1.dim,
        ideal.dim,
        [
            pairing(m.gram, ideal_rows[b], lift_cols[k])
            for k in range(g1.dim)
            for b in range(ideal.dim)
        ],
    )

    coad1 = coadjoint_rep(g1)
    model1 = CochainModel(g1, coad1.rep, 1)
    wb1 = _wedge(g1)
    entries = {}
    for w, t in enumerate(wb1.elements):
        for j in range(g1.dim):
            val = a.bracket_eval([lift_cols[i] for i in t] + [lift_cols[j]])
            _, z_part = split(val)
            entries[((w,), j)] = fstar.apply(z_part)
    theta = Cochain.from_entries(model1, 0, entries)

    ext = tstar_extend(g1, theta, validated=True)

    phi_cols = []
    for j in range(a.dim):
        x_part, z_part = split(a.basis_vector(j))
        x_vec = [sum(c * pi_g0_cols[t][k] for t, c in enumerate(x_part) if c != 0) for k in range(g1.dim)]
        f_vec = fstar.apply(z_part)
        phi_cols.append(x_vec + f_vec)
    phi = Matrix.from_rows(phi_cols, cols=2 * g1.dim).transpose()

    ensure(rank(phi) == a.dim, "phi is not injective")
    ensure(verify_morphism(phi, a, ext.algebra).ok, "phi is not a morphism")
    ensure(phi.transpose() * ext.form.gram * phi == m.gram, "phi is not an isometry")
    return Reconstruction(g1, theta, phi, ext, g0, pi)


def adjoin_line(m: MetricAlgebra, ideal: Subspace | None = None):
    """g' = g (+) K a with <a,a> = 1, alpha'(a) = a, brackets unchanged.

    Returns (metric algebra g', extended isotropic ideal I + K(a+z)) where
    z in I^perp has <z,z> = -1; raises NeedsFieldExtension with the
    square that would be needed when no such z exists over Q.
    """
    a = m.algebra
    if ideal is None:
        ideal = Subspace.zero(a.dim)
    d = a.dim
    one = Matrix.identity(1)
    line_space = GradedSpace(1, (0,))
    line = HomSuperAlgebra(line_space, StructureTensor(a.arity, line_space, {}), one)
    algebra = direct_sum(a, line)  # checks that g and the line are Hom-ideals
    algebra.name = (a.name + "+line") if a.name else "adjoined"
    m2 = MetricAlgebra(algebra, BilinearForm(block_diagonal(m.gram, one)))
    ensure(m2.verify().ok, "algebra with the adjoined line fails the metric checks")

    z = _find_norm_minus_one(m, ideal)
    b_vec = [x for x in z] + [1]  # a + z
    ext_rows = [list(r) + [0] for r in ideal.basis_vectors()] + [b_vec]
    iprime = Subspace.from_vectors(d + 1, ext_rows)
    ensure(iprime.dim == ideal.dim + 1, "extended ideal has the wrong dimension")
    ensure(is_isotropic(m2, iprime), "extended ideal is not isotropic")
    if not is_hom_ideal(iprime, algebra):
        raise NoStableIsotropicVector("extended ideal is not twist-stable over Q")
    return m2, iprime


def _find_norm_minus_one(m: MetricAlgebra, ideal: Subspace):
    """Even z in I^perp with <z,z> = -1, by the proof-shaped search."""
    a = m.algebra
    perp = ideal.orthogonal_complement(m.gram)
    space = a.space
    even_part, _ = split_graded(perp, space)
    cands = [list(r) for r in even_part.basis_vectors()]
    first_disc = None
    for v in cands:
        q = pairing(m.gram, v, v)
        if q == 0:
            continue
        target = -Fraction(1) / Fraction(q)  # t^2 = -1/q
        root = _sqrt_fraction(target)
        if root is not None:
            return [root * x for x in v]
        if first_disc is None and q > 0:
            first_disc = target
        elif first_disc is None:
            first_disc = target
    for i in range(len(cands)):
        for j in range(i + 1, len(cands)):
            vi, vj = cands[i], cands[j]
            qi = pairing(m.gram, vi, vi)
            qj = pairing(m.gram, vj, vj)
            c = pairing(m.gram, vi, vj)
            # <vi + t vj> = qi + 2tc + t^2 qj = -1
            if qj == 0:
                if c == 0:
                    continue
                t = -Fraction(qi + 1) / (2 * c)
                return [x + t * y for x, y in zip(vi, vj)]
            disc = Fraction(c * c - qj * (qi + 1))
            root = _sqrt_fraction(disc)
            if root is None:
                if first_disc is None:
                    first_disc = disc
                continue
            t = (-c + root) / Fraction(qj)
            return [x + t * y for x, y in zip(vi, vj)]
    if first_disc is None:
        first_disc = Fraction(-1)
    raise NeedsFieldExtension(first_disc, "no vector of norm -1 over Q")


# ---------------------------------------------------------------------------
# the decomposition pipeline


@dataclass
class Certificate:
    g1: HomSuperAlgebra
    theta: Cochain
    phi: Matrix
    extension: TStarExtension
    adjoined: bool
    checks: dict = field(default_factory=dict)


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except AlgebraError as exc:
        exc.args = (f"[{name}] {exc.args[0] if exc.args else ''}",)
        raise


def decompose(m: MetricAlgebra) -> Certificate:
    """Nilpotent metric algebra with surjective twist -> certificate that it
    is isometric to (a codim-1 nondegenerate ideal of) a T*-extension of a
    quotient of at most half the nilpotent length."""
    report = m.verify()
    if not report.ok:
        raise NotMetric(f"not a metric algebra: {[c.name for c in report.failed_checks()]}")
    a = m.algebra
    lc = series(a, "lower_central")
    if lc.length is None:
        raise NotNilpotent("algebra is not nilpotent")
    if rank(a.alpha) != a.dim:
        raise AlgebraError("twist is not surjective")
    k0 = lc.length

    j = _stage("canonical-ideal", canonical_isotropic_ideal, m)
    ideal = _stage("maximal-isotropic", extend_to_maximal_isotropic, m, j)
    if not is_hom_ideal(ideal, a):
        raise NotAnIdeal("[maximal-isotropic] result is not a Hom-ideal")

    adjoined = False
    target = m
    target_ideal = ideal
    if a.dim % 2 == 1:
        target, target_ideal = _stage("adjoin-line", adjoin_line, m, ideal)
        adjoined = True
    rec = _stage("reconstruct", reconstruct_as_tstar, target, target_ideal)

    k1 = nilpotent_length(rec.g1)
    half_bound = -(-k0 // 2)  # ceil(k0/2)
    ext = rec.extension
    checks = {
        "phi_morphism": verify_morphism(rec.phi, target.algebra, ext.algebra).ok,
        "phi_isometry": rec.phi.transpose() * ext.form.gram * rec.phi == target.gram,
        "theta_closed": coboundary(rec.g1, coadjoint_rep(rec.g1).rep, rec.theta, check=False).is_zero(),
        "theta_cyclic": is_cyclic_cocycle(rec.g1, rec.theta),
        "nilpotent_length": k0,
        "quotient_length": k1,
        "length_bound": k1 is not None and k1 <= half_bound,
        "adjoined_line": adjoined,
    }
    failed = [name for name in ("phi_morphism", "phi_isometry", "theta_closed") if not checks[name]]
    ensure(not failed, f"[certificate] {', '.join(failed)} failed")
    if not checks["length_bound"]:
        raise AlgebraError("[length] quotient nilpotent length exceeds the bound")
    return Certificate(rec.g1, rec.theta, rec.phi, rec.extension, adjoined, checks)


# ---------------------------------------------------------------------------
# series laws


def tstar_series_laws(g: HomSuperAlgebra, theta: Cochain | None = None) -> Report:
    """Solvable/nilpotent length laws of the T*-extension.

    Lengths are 'first zero index' values; the at-most bound converts to
    a 1-based nilpotent count, i.e. len(T*) <= 2 len(g).
    """
    ext = tstar_extend(g, theta, validated=True)
    t_alg = ext.algebra
    report = Report()
    k_solv = solvable_length(g)
    t_solv = solvable_length(t_alg)
    if k_solv is None:
        report.add("solvable-law", t_solv is None)
    else:
        report.add(
            "solvable-law",
            t_solv in (k_solv, k_solv + 1),
            {"base": k_solv, "tstar": t_solv},
        )
    k_nil = nilpotent_length(g)
    t_nil = nilpotent_length(t_alg)
    if k_nil is None:
        report.add("nilpotent-law", t_nil is None)
    else:
        ok = t_nil is not None and k_nil <= t_nil <= 2 * k_nil
        report.add("nilpotent-law", ok, {"base": k_nil, "tstar": t_nil})
        if theta is None or theta.is_zero():
            report.add("trivial-theta-equality", t_nil == k_nil, {"base": k_nil, "tstar": t_nil})
    return report


def tstar_direct_sum_law(a: HomSuperAlgebra, b: HomSuperAlgebra) -> Report:
    """T*_0(I (+) J) decomposes into the Hom-ideals T*_0-blocks of I and J."""
    s = direct_sum(a, b)
    ext = tstar_extend(s, None, validated=True)
    alg = ext.algebra
    da, db = a.dim, b.dim
    ds = da + db
    block_a = Subspace.from_vectors(
        alg.dim,
        [alg.basis_vector(i) for i in range(da)]
        + [alg.basis_vector(ds + i) for i in range(da)],
    )
    block_b = Subspace.from_vectors(
        alg.dim,
        [alg.basis_vector(da + i) for i in range(db)]
        + [alg.basis_vector(ds + da + i) for i in range(db)],
    )
    report = Report()
    report.add("block-I-ideal", is_hom_ideal(block_a, alg))
    report.add("block-J-ideal", is_hom_ideal(block_b, alg))
    report.add(
        "blocks-decompose",
        block_a.sum(block_b).dim == alg.dim and block_a.intersect(block_b).dim == 0,
    )
    return report
