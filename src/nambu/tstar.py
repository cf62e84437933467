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
    delta_operator,
    is_closed,
    is_super_alternating,
    pair_rows,
    pairs_hold,
    satisfies_compat,
    verify_representation,
    _images,
    _wedge,
)
from .core import (
    BilinearForm,
    GradedSpace,
    HomSuperAlgebra,
    Report,
    StructureTensor,
    _accumulate,
    _bracket_places,
    _nonzero,
    _unit_arguments,
    _unit_rests,
    apply_columns,
    direct_sum,
    intertwiner_rows,
    is_hom_ideal,
    maps_into,
    nilpotent_length,
    pairing,
    series,
    solvable_length,
    sparse_quotient,
    split_graded,
    transposed,
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
from .linalg import Matrix, Subspace, block_diagonal, rank, sparse_kernel, sparse_left_inverse, sparse_solution


# ---------------------------------------------------------------------------
# coadjoint representation


@dataclass
class CoadjointRep:
    rep: Representation
    exists: bool  # ad* really satisfies the representation identities
    witness: dict | None = None


def coadjoint_rep(a: HomSuperAlgebra) -> CoadjointRep:
    """ad*(x)(f)(z) = -(-1)^{|x||f|} f(ad x (z)); nu* = transpose of alpha.

    The exists flag records whether ad* satisfies the representation
    identities, twist-equivariance included, by one verify_representation;
    the witness is the first wedge where twist-equivariance fails, else the
    report of the failed identities.  Computed once per algebra and kept in
    its cache; callers share the result and must not modify it.
    """
    if "coadjoint" not in a._cache:
        a._cache["coadjoint"] = _coadjoint_rep(a)
    return a._cache["coadjoint"]


def _coadjoint_rep(a: HomSuperAlgebra) -> CoadjointRep:
    """ad*(x) is the transpose of ad(x), column i signed by
    -(-1)^{|x||e_i*|}: +1 only when both the wedge and e_i* are odd."""
    wb = _wedge(a)
    p = a.parity
    columns = []
    for w, cols in enumerate(adjoint_rep(a).columns):
        odd = wb.parity(w) == 1
        rows = transposed(cols, a.dim)
        columns.append([{k: c if (odd and p[i] == 1) else -c for k, c in row.items()} for i, row in enumerate(rows)])
    rep = Representation.from_columns(a.space, columns, transposed(a.alpha_columns(), a.dim))
    report = verify_representation(rep, a)
    equivariance = next(c for c in report.checks if c.name == "twist-equivariance")
    if not equivariance.passed:
        return CoadjointRep(rep, False, {"equivariance": equivariance.witness["wedge"]})
    return CoadjointRep(rep, report.ok, None if report.ok else report.to_dict())


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
    (ThetaNotCyclic); raw construction skips all of that.  Each check of
    theta reads its sparse raw vector, so none scans all of C^1: the twist
    equations apply to supp theta, alternation and the cyclic condition
    visit each nonzero coordinate with the coordinates it is paired with,
    and closedness the columns of the memoized delta^1 at supp theta, so
    theta = 0 costs none of them and builds no delta.
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
        if not is_super_alternating(g, coad.rep, theta):
            raise NotACochain("theta is not super-alternating across all slots")
        if not is_closed(g, coad.rep, theta):
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
    return Subspace.from_sparse(ext.algebra.dim, [{d + i: 1} for i in range(d)])


def is_isotropic(m: MetricAlgebra, sub: Subspace) -> bool:
    return _isotropic(m.form.columns, sub)


def _isotropic(gram, sub: Subspace) -> bool:
    """<u, v> = 0 on every pair of basis vectors, the gram given by its
    sparse columns and applied once per vector."""
    images = [apply_columns(gram, v) for v in sub.sparse_rows]
    return all(sum(x * g[k] for k, x in u.items() if k in g) == 0 for u in sub.sparse_rows for g in images)


def cyclic_pairs(model: CochainModel, coords):
    """The cyclic condition theta(x,y)(z) + (-1)^{|y||z|} theta(x,z)(y) = 0
    on raw 1-cochain coordinates of (g, ad*): (k, partner, sign) for each k in
    coords, with theta[k] = sign * theta[partner], the pairs that
    cohomology.pair_rows and pairs_hold read.  k = (x, y, z) and its partner
    (x, z, y) swap the g slot and the dual slot, so this is an involution,
    and k is its own partner when y = z."""
    p = model.a.parity
    D = model.D
    for k in coords:
        xy, z = divmod(k, D)
        x, y = divmod(xy, D)
        yield k, (x * D + z) * D + y, 1 if p[y] == 1 and p[z] == 1 else -1


def is_cyclic_cocycle(g: HomSuperAlgebra, theta: Cochain) -> bool:
    """theta(x,y)(z) + (-1)^{|y||z|} theta(x,z)(y) = 0 on all basis tuples:
    cyclic_pairs read over the support of theta, so theta = 0 costs nothing."""
    return pairs_hold(cyclic_pairs(theta.model, theta.vec), theta.vec)


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

    cyclic_constraint = sparse_kernel(pair_rows(cyclic_pairs(model, range(model.raw_dim))), model.raw_dim)
    cyclic = cochain.intersect(cyclic_constraint)

    def closed_part(space: Subspace) -> Subspace:
        if space.dim == 0:
            return space
        # the combinations of the basis that delta kills, one equation per
        # coordinate some image reaches
        images = _images(delta_operator(g, r, 1).columns, space.sparse_rows)
        rows = [{i: img.get(k, 0) for i, img in enumerate(images)} for k in set().union(*images)]
        kernel = sparse_kernel(rows, space.dim).sparse_rows  # coefficients on the basis rows
        return Subspace.from_sparse(model.raw_dim, [apply_columns(space.sparse_rows, k) for k in kernel])

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
    images = _images(delta_operator(g, rep, 1).columns, [t.vec for t in thetas])
    for theta, image in zip(thetas, images):
        if image:
            raise ThetaNotClosed("theta must be closed")
        if not is_cyclic_cocycle(g, theta):
            raise ThetaNotCyclic("theta must be cyclic")
    d = g.dim
    p = g.parity
    delta0 = delta_operator(g, rep, 0)
    nvars = d * d

    # s_0 delta^0 on the unknowns T[k][j] = theta'(e_j)(e_k), raw flat
    # j*D+k, against s_0 (theta1 - theta2): the same equations, one row per
    # raw coordinate of C^1 that delta^0's columns reach or where theta1 -
    # theta2 is nonzero (every other row reads 0 = 0), filled in one pass
    # over delta^0's columns, in ascending raw order
    diff = dict(theta1.vec)
    _accumulate(diff, theta2.vec.items(), -1)
    rows = {out: {} for out in _nonzero(diff)}
    for flat, col in delta0.columns.items():
        j, k = divmod(flat, d)
        for out, c in col.items():
            rows.setdefault(out, {})[k * d + j] = c
    order = sorted(rows)
    rhs = [delta0.scale * diff.get(out, 0) for out in order]
    rows = [rows[out] for out in order]
    # theta'(alpha x) = theta'(x) o alpha: A^T T = T A on the matrix T, T even
    alpha = g.alpha_columns()
    twist_rows = intertwiner_rows(transposed(alpha, d), alpha, p, p)
    rows += twist_rows
    rhs += [0] * len(twist_rows)

    sol = sparse_solution(rows, nvars, rhs)
    if sol is None:
        return EquivalenceResult("inequivalent")

    # try for a witness with vanishing induced form:
    # T[k][j] + (-1)^{p_j p_k} T[j][k] = 0 for all j <= k
    extra_rows = list(rows)
    extra_rhs = list(rhs)
    for j in range(d):
        for k in range(j, d):
            sgn = -1 if (p[j] == 1 and p[k] == 1) else 1
            row = {k * d + j: 1}
            row[j * d + k] = row.get(j * d + k, 0) + sgn
            extra_rows.append(row)
            extra_rhs.append(0)
    iso_sol = sparse_solution(extra_rows, nvars, extra_rhs)
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
    vec = {model.flat((), j) + k: t_matrix[k, j] for j in range(g.dim) for k in range(g.dim)}
    return Cochain.from_sparse(model, 0, vec)


# ---------------------------------------------------------------------------
# centralizer machinery


def centralizer(m: MetricAlgebra, v: Subspace) -> Subspace:
    """C(V) = {x : [x, g, ..., g] <= V}, computed both by definition and as
    [g, ..., g, V^perp]^perp; the two answers must agree (InternalError).
    Both run only over the unit tuples where a bracket can be nonzero,
    read off the stored keys."""
    a = m.algebra
    ann = v.annihilator().sparse_rows
    rows = []
    completions = _bracket_places(a).completions  # t -> the j with [e_j, e_t] != 0
    for t in sorted(completions):
        cols = [(j, a.bracket.sparse_value((j,) + t)) for j in sorted(completions[t])]
        rows.extend({j: sum(u.get(k, 0) * c for k, c in col) for j, col in cols} for u in ann)
    by_definition = sparse_kernel(rows, a.dim)

    vperp = v.orthogonal(m.form.columns)
    spanned = []
    for w in vperp.sparse_rows:
        for units in _unit_rests(a, w):
            vec = a.bracket.sparse_bracket(units + [w.items()])
            if vec:
                spanned.append(vec)
    by_perp = Subspace.from_sparse(a.dim, spanned).orthogonal(m.form.columns)
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
    lc = _lower_central(a)
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


def _lower_central(a: HomSuperAlgebra):
    """series(a, "lower_central"), computed once per algebra and kept in its
    cache beside "coadjoint"; callers share the result and must not modify it."""
    if "lower_central" not in a._cache:
        a._cache["lower_central"] = series(a, "lower_central")
    return a._cache["lower_central"]


# ---------------------------------------------------------------------------
# maximal isotropic enlargement, by induction on the quotient W-perp/W


def _largest_invariant(sub: Subspace, alpha) -> Subspace:
    """Largest alpha-invariant subspace of sub, alpha given by its sparse
    columns: iterate sub intersect alpha^{-1}(sub), the kernel of the
    annihilator rows u of sub and of the rows u alpha."""
    current = sub
    while True:
        ann = current.annihilator().sparse_rows
        pulled = [
            {j: x for j, col in enumerate(alpha) if (x := sum(u.get(k, 0) * c for k, c in col.items()))}
            for u in ann
        ]
        nxt = sparse_kernel(ann + pulled, len(alpha))
        if nxt == current:
            return current
        current = nxt


def _orbit_span(v: dict, alpha) -> Subspace:
    """The span of v, alpha v, alpha^2 v, ..., alpha given by its sparse
    columns: grown until the next image lies in it."""
    span = Subspace.from_sparse(len(alpha), [v])
    while True:
        v = apply_columns(alpha, v)
        if span.contains_sparse(v):
            return span
        span = span.sum(Subspace.from_sparse(len(alpha), [v]))


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


def _find_isotropic_stable_vector(parity, gram, ops, alpha):
    """An Engel-style isotropic vector whose alpha-orbit span is isotropic;
    the gram, ops and alpha are given by their sparse columns."""
    rows = {}  # (operator, row) -> the row, so the kernel is one elimination
    for n, op in enumerate(ops):
        for j, col in enumerate(op):
            for i, c in col.items():
                rows.setdefault((n, i), {})[j] = c
    stable = _largest_invariant(sparse_kernel(rows.values(), len(parity)), alpha)
    if stable.dim == 0:
        raise NoStableIsotropicVector("the alpha-stable joint kernel is zero")
    even_vecs, odd_vecs = (part.sparse_rows for part in split_graded(stable, GradedSpace(len(parity), parity)))

    def try_vector(v):
        if pairing(gram, v, v) != 0:
            return None
        orbit = _orbit_span(v, alpha)
        return orbit if _isotropic(gram, orbit) else None

    for v in odd_vecs + even_vecs:
        got = try_vector(v)
        if got is not None:
            return got
    # quadratic search on pairs of even candidates, as in the inductive proof
    discs = []
    for cand in _pair_candidates(gram, even_vecs, 0, discs):
        got = try_vector(cand)
        if got is not None:
            return got
    if discs:
        raise NeedsFieldExtension(discs[0], "isotropic vector construction")
    raise NoStableIsotropicVector("no isotropic vector with an isotropic alpha-orbit")


def _pair_candidates(gram, vecs, target, discs):
    """Sparse vectors v_i + t v_j, i < j in lex order, with <v_i + t v_j, v_i + t v_j>
    = q_i + 2tc + t^2 q_j = target over Q: t = (target - q_i) / 2c when
    q_j = 0 (none when c = 0 too), else t = (-c + sqrt(disc)) / q_j with
    disc = c^2 - q_j (q_i - target).  An irrational disc is appended to
    discs and its pair skipped."""
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            vi, vj = vecs[i], vecs[j]
            qi = pairing(gram, vi, vi)
            qj = pairing(gram, vj, vj)
            c = pairing(gram, vi, vj)
            if qj == 0:
                if c == 0:
                    continue
                t = Fraction(target - qi) / (2 * c)
            else:
                disc = Fraction(c * c - qj * (qi - target))
                root = _sqrt_fraction(disc)
                if root is None:
                    discs.append(disc)
                    continue
                t = (-c + root) / Fraction(qj)
            cand = dict(vi)
            _accumulate(cand, vj.items(), t)
            yield _nonzero(cand)


def _extend_recursive(parity, gram, ops, alpha, w: Subspace) -> Subspace:
    """W enlarged to a maximal isotropic subspace stable under ops and alpha,
    the gram, ops and alpha each given by their sparse columns."""
    dim = len(parity)
    target = dim // 2
    if w.dim >= target:
        return w
    if w.dim == 0:
        orbit = _find_isotropic_stable_vector(parity, gram, ops, alpha)
        return _extend_recursive(parity, gram, ops, alpha, orbit)

    # quotient step: recurse on W^perp / W
    wperp = w.orthogonal(gram)
    ensure(wperp.contains(w), "W is not inside W-perp")
    ensure(maps_into(ops, wperp, wperp), "W-perp is not stable under the bracket operators")
    space = GradedSpace(dim, tuple(parity))
    split_graded(w, space)  # graded or raises
    perp_even, perp_odd = split_graded(wperp, space)

    reps = []
    rep_parity = []
    current = w
    for part, par in ((perp_even, 0), (perp_odd, 1)):
        for row in part.sparse_rows:
            if not current.contains_sparse(row):
                reps.append(row)
                rep_parity.append(par)
                current = current.sum(Subspace.from_sparse(dim, [row]))
    qdim = len(reps)
    ensure(qdim == wperp.dim - w.dim, "quotient representatives have the wrong count")

    # coordinates in W^perp in the basis [w basis | reps], as sparse columns
    basis = w.sparse_rows + reps
    coords = sparse_left_inverse(basis, dim)
    ensure(coords is not None, "W and the quotient representatives are dependent")

    def quotient_columns(op):
        cols = []
        for r in reps:
            image = apply_columns(op, r)
            sol = apply_columns(coords, image)
            ensure(apply_columns(basis, sol) == image, "vector leaves W-perp")
            cols.append({i - w.dim: c for i, c in sol.items() if i >= w.dim})
        return cols

    q_gram = []  # column j: <r_i, r_j> over i, the gram applied once per representative
    for g in (apply_columns(gram, r) for r in reps):
        q_gram.append({i: x for i, r in enumerate(reps) if (x := sum(y * g[k] for k, y in r.items() if k in g))})
    # an operator that vanishes on the quotient constrains nothing there
    q_ops = [cols for cols in map(quotient_columns, ops) if any(cols)]
    q_alpha = quotient_columns(alpha)

    inner = _extend_recursive(tuple(rep_parity), q_gram, q_ops, q_alpha, Subspace.zero(qdim))
    return w.sum(Subspace.from_sparse(dim, [apply_columns(reps, row) for row in inner.sparse_rows]))


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
    if not maps_into(ad.columns, w, w):
        raise AlgebraError("subspace is not stable under the bracket operators")
    if not maps_into([a.alpha_columns()], w, w):
        raise AlgebraError("subspace is not stable under the twist")

    result = _extend_recursive(tuple(a.parity), m.form.columns, ad.columns, a.alpha_columns(), w)
    ensure(result.dim == a.dim // 2, "maximal isotropic subspace has the wrong dimension")
    ensure(result.contains(w), "maximal isotropic subspace lost W")
    ensure(is_isotropic(m, result), "maximal isotropic subspace is not isotropic")
    split_graded(result, a.space)
    ensure(
        maps_into(ad.columns + [a.alpha_columns()], result, result),
        "maximal isotropic subspace is not stable",
    )
    if a.dim % 2 == 1:
        rperp = result.orthogonal(m.form.columns)
        ensure(maps_into(ad.columns, rperp, result), "the bracket operators map the complement outside")
    return result


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
    rows = [row.items() for row in i.sparse_rows]
    expand = a.bracket.sparse_bracket
    # the g slots on canonical tuples: permuting them only changes signs
    return not any(expand(rest + [u, v]) for rest in _unit_arguments(a.space, a.arity - 2) for u in rows for v in rows)


# ---------------------------------------------------------------------------
# reconstruction as a T*-extension


@dataclass
class Reconstruction:
    g1: HomSuperAlgebra
    theta: Cochain
    phi: Matrix
    extension: TStarExtension
    g0: Subspace


def _isotropic_complement(m: MetricAlgebra, ideal: Subspace) -> Subspace:
    """Greedy hyperbolic-style complement g0 with <g0, g0> = 0, g = g0 (+) I.

    Candidates are standard basis vectors in lex order; each is corrected
    by an ideal component solving the linear orthogonality conditions (the
    quadratic self-pairing condition is linear in the correction because
    the ideal is isotropic).  Every vector is sparse.
    """
    a = m.algebra
    gram = m.form.columns
    g0_rows = []
    current = ideal
    half = a.dim - ideal.dim
    for j in range(a.dim):
        if len(g0_rows) == half:
            break
        cand = {j: 1}
        if current.contains_sparse(cand):
            continue
        allowed = [r for r in ideal.sparse_rows if vector_parity(r, a.parity) == a.parity[j]]
        rows = [{k: x for k, w in enumerate(allowed) if (x := pairing(gram, w, u))} for u in g0_rows]
        rhs = [-pairing(gram, cand, u) for u in g0_rows]
        if a.parity[j] == 0:
            rows.append({k: 2 * x for k, w in enumerate(allowed) if (x := pairing(gram, cand, w))})
            rhs.append(-pairing(gram, cand, cand))
        sol = sparse_solution(rows, len(allowed), rhs)
        if sol is None:
            raise ComplementNotFound("no isotropic correction in the ideal")
        for c, w in zip(sol, allowed):
            _accumulate(cand, w.items(), c)
        g0_rows.append(_nonzero(cand))
        current = current.sum(Subspace.from_sparse(a.dim, g0_rows[-1:]))
    if len(g0_rows) != half:
        raise ComplementNotFound("could not complete the isotropic complement")
    g0 = Subspace.from_sparse(a.dim, g0_rows)
    ensure(g0.dim == half, "isotropic complement has the wrong dimension")
    ensure(is_isotropic(m, g0), "complement is not isotropic")
    ensure(g0.intersect(ideal).dim == 0, "complement meets the ideal")
    return g0


def reconstruct_as_tstar(m: MetricAlgebra, ideal: Subspace) -> Reconstruction:
    """The constructive isometry: g with a half-dimensional isotropic
    Hom-ideal I is isometric to T*_theta(g/I).

    Every map is held as sparse columns: the projection pi onto g1 = g/I,
    the lift of g1 into the isotropic complement g0, the coordinates in the
    basis [g0 | I] that split a vector, and f1*: I -> g1*.  phi is built as
    a dense Matrix once, at the end, as certificate data.
    """
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

    g1, pi = sparse_quotient(a, ideal)
    g0 = _isotropic_complement(m, ideal)

    pi_g0 = [apply_columns(pi, v) for v in g0.sparse_rows]
    lift = sparse_left_inverse(pi_g0, g1.dim)
    ensure(lift is not None, "complement does not project onto the quotient")
    lifts = [apply_columns(g0.sparse_rows, col) for col in lift]

    decomp = sparse_left_inverse(g0.sparse_rows + ideal.sparse_rows, a.dim)
    ensure(decomp is not None, "complement plus ideal does not span g")

    def split(vec):
        sol = apply_columns(decomp, vec)
        return {t: c for t, c in sol.items() if t < g0.dim}, {t - g0.dim: c for t, c in sol.items() if t >= g0.dim}

    # f1*: I -> g1*, f1*(z)(pi x) = <z, x>
    gram = m.form.columns
    fstar = [{k: x for k, up in enumerate(lifts) if (x := pairing(gram, z, up))} for z in ideal.sparse_rows]

    coad1 = coadjoint_rep(g1)
    model1 = CochainModel(g1, coad1.rep, 1)
    args = [lift.items() for lift in lifts]
    entries = {}
    for w, t in enumerate(_wedge(g1).elements):
        for j in range(g1.dim):
            _, z_part = split(a.bracket.sparse_bracket([args[i] for i in t] + [args[j]]))
            entries[((w,), j)] = apply_columns(fstar, z_part)
    theta = Cochain.from_entries(model1, 0, entries)

    ext = tstar_extend(g1, theta, validated=True)

    phi_cols = []
    for j in range(a.dim):
        x_part, z_part = split({j: 1})
        column = apply_columns(pi_g0, x_part)
        column.update((g1.dim + k, c) for k, c in apply_columns(fstar, z_part).items())
        phi_cols.append(column)
    phi = Matrix.from_columns(phi_cols, 2 * g1.dim)

    ensure(rank(phi) == a.dim, "phi is not injective")
    ensure(verify_morphism(phi, a, ext.algebra).ok, "phi is not a morphism")
    ensure(phi.transpose() * ext.form.gram * phi == m.gram, "phi is not an isometry")
    return Reconstruction(g1, theta, phi, ext, g0)


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
    iprime = Subspace.from_sparse(d + 1, ideal.sparse_rows + [{**z, d: 1}])  # a + z
    ensure(iprime.dim == ideal.dim + 1, "extended ideal has the wrong dimension")
    ensure(is_isotropic(m2, iprime), "extended ideal is not isotropic")
    if not is_hom_ideal(iprime, algebra):
        raise NoStableIsotropicVector("extended ideal is not twist-stable over Q")
    return m2, iprime


def _find_norm_minus_one(m: MetricAlgebra, ideal: Subspace):
    """Even sparse z in I^perp with <z,z> = -1, by the proof-shaped search."""
    gram = m.form.columns
    even_part, _ = split_graded(ideal.orthogonal(gram), m.algebra.space)
    cands = even_part.sparse_rows
    first_disc = None
    for v in cands:
        q = pairing(gram, v, v)
        if q == 0:
            continue
        target = -Fraction(1) / Fraction(q)  # t^2 = -1/q
        root = _sqrt_fraction(target)
        if root is not None:
            return {k: root * x for k, x in v.items()}
        if first_disc is None:
            first_disc = target
    discs = []
    cand = next(_pair_candidates(gram, cands, -1, discs), None)
    if cand is not None:
        return cand
    if first_disc is None:
        first_disc = discs[0] if discs else Fraction(-1)
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
    lc = _lower_central(a)
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
        "theta_closed": is_closed(rec.g1, coadjoint_rep(rec.g1).rep, rec.theta),
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
    da, ds = a.dim, s.dim  # I's block and its dual's, then J's and its dual's
    block_a = Subspace.from_sparse(alg.dim, [{i: 1} for i in [*range(da), *range(ds, ds + da)]])
    block_b = Subspace.from_sparse(alg.dim, [{i: 1} for i in [*range(da, ds), *range(ds + da, 2 * ds)]])
    report = Report()
    report.add("block-I-ideal", is_hom_ideal(block_a, alg))
    report.add("block-J-ideal", is_hom_ideal(block_b, alg))
    report.add(
        "blocks-decompose",
        block_a.sum(block_b).dim == alg.dim and block_a.intersect(block_b).dim == 0,
    )
    return report
