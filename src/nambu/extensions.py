"""Extensions of an algebra b by an abelian module a.

The extension bracket on a (+) b takes the module action for mixed
slots, the base bracket on the b-part, and adds the 1-cocycle value on
the a-part of all-b slots.  Validated data require the cocycle to be
even, twist-compatible, fully super-alternating and closed.  The same
builder makes the T*-extensions of `tstar`: the extension of g by g*
through ad* and a cocycle theta, with the g block first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import (
    Cochain,
    CochainModel,
    Representation,
    alternating_subspace,
    cochain_basis,
    delta_matrix,
    is_closed,
    module_action,
    satisfies_compat,
    verify_representation,
    _wedge,
)
from .core import (
    GradedSpace,
    HomSuperAlgebra,
    Report,
    StructureTensor,
    _canonical_tuples,
    intertwiner_rows,
    is_even_map,
    is_hom_ideal,
    vector_parity,
    verify_algebra,
    verify_morphism,
)
from .errors import (
    CocycleNotClosed,
    CocycleNotEven,
    DimensionMismatch,
    NoCompatibleSection,
    NotACochain,
    SectionInvalid,
    ensure,
)
from .linalg import Matrix, Subspace, block_diagonal, image, nullspace, particular_solution, vzero


@dataclass
class ExtensionDatum:
    base: HomSuperAlgebra  # b, with twist beta
    fiber: GradedSpace  # a, abelian
    fiber_twist: Matrix  # twist of a; must equal module.nu
    module: Representation  # action of b-wedges on a
    cocycle: Cochain  # m=1, even, values in a

    def validate(self):
        if self.module.target != self.fiber:
            raise DimensionMismatch("module target must be the fiber")
        if self.module.nu != self.fiber_twist:
            raise DimensionMismatch("module twist must equal the fiber twist")
        pf = self.fiber.parity
        if not is_even_map(self.fiber_twist, pf, pf):
            raise DimensionMismatch("fiber twist must be even")
        if not verify_representation(self.module, self.base).ok:
            raise NotACochain("module fails the representation identities")
        if self.cocycle.degree != 1:
            raise NotACochain("extension cocycle must have degree 1")
        if self.cocycle.parity != 0:
            raise CocycleNotEven("extension cocycle must be even")
        if not satisfies_compat(self.base, self.module, self.cocycle):
            raise NotACochain("cocycle violates the twist compatibility or has odd coordinates")
        alt = alternating_subspace(self.base, self.module)
        if not alt.contains_vector(self.cocycle.coeffs):
            raise NotACochain("cocycle is not super-alternating across all slots")
        if not is_closed(self.base, self.module, self.cocycle):
            raise CocycleNotClosed("delta^1 of the cocycle is nonzero")


@dataclass
class Section:
    tau: Matrix  # b -> g


def build_extension(d: ExtensionDatum, validated=True) -> HomSuperAlgebra:
    """The algebra on a (+) b with the cocycle-twisted bracket.

    Coordinates: fiber block first, base block second.  With validated=False
    the construction is performed raw (for studying non-cocycles); the
    result then fails verify_algebra exactly when the cocycle is not closed.
    """
    if validated:
        d.validate()
    b = d.base
    g = _twisted_algebra(d, f"ext({b.name})" if b.name else "extension", fiber_first=True)
    if validated:
        ensure(verify_algebra(g).ok, "extension fails the algebra axioms")
        fiber_sub = Subspace.from_vectors(
            g.dim, [g.basis_vector(i) for i in range(d.fiber.dim)]
        )
        ensure(is_hom_ideal(fiber_sub, g), "fiber is not a Hom-ideal of the extension")
    return g


def _twisted_algebra(d: ExtensionDatum, name: str, fiber_first: bool) -> HomSuperAlgebra:
    """The raw algebra on the fiber and base blocks, in the given order.

    On canonical tuples: two or more fiber slots give 0, no fiber slot
    gives the base bracket plus the signed cocycle value in the fiber, one
    fiber slot gives a column of the module action, built once per base
    tuple and slot as sparse columns.  The twist is block-diagonal.
    """
    b = d.base
    da, db = d.fiber.dim, b.dim
    n = b.arity
    blocks = [(d.fiber, d.fiber_twist), (b.space, b.alpha)]
    fo, bo = 0, da  # block offsets
    if not fiber_first:
        blocks.reverse()
        fo, bo = db, 0
    (first, first_twist), (second, second_twist) = blocks
    space = GradedSpace(da + db, tuple(first.parity) + tuple(second.parity))
    wb = _wedge(b)
    entries = {}
    actions = {}  # (base indices, fiber slot) -> module_action columns
    for key in _canonical_tuples(space, n):
        fiber_slots = [t for t in key if fo <= t < fo + da]
        if len(fiber_slots) >= 2:
            continue
        vec = vzero(da + db)
        if not fiber_slots:
            bkey = tuple(t - bo for t in key)
            vec[bo : bo + db] = b.bracket_basis(bkey)
            sign, w = wb.lookup(bkey[:-1])
            if sign != 0:
                vec[fo : fo + da] = [sign * c for c in d.cocycle.value((w,), bkey[-1])]
        else:
            (t,) = fiber_slots
            base_key = (tuple(s - bo for s in key if s != t), key.index(t))
            if base_key not in actions:
                actions[base_key] = module_action(b, d.module, [((s, 1),) for s in base_key[0]], base_key[1])
            for k, c in actions[base_key][t - fo].items():
                vec[fo + k] = c
        if any(c != 0 for c in vec):
            entries[key] = vec
    return HomSuperAlgebra(
        space,
        StructureTensor(n, space, entries, strict=True),
        block_diagonal(first_twist, second_twist),
        name=name,
    )


def canonical_injection(da, db) -> Matrix:
    rows = [[1 if j == i else 0 for j in range(da)] for i in range(da)]
    rows += [[0] * da for _ in range(db)]
    return Matrix.from_rows(rows, cols=da)


def canonical_projection(da, db) -> Matrix:
    rows = [[1 if j == da + i else 0 for j in range(da + db)] for i in range(db)]
    return Matrix.from_rows(rows, cols=da + db)


def canonical_section(da, db) -> Section:
    rows = [[0] * db for _ in range(da)]
    rows += [[1 if j == i else 0 for j in range(db)] for i in range(db)]
    return Section(Matrix.from_rows(rows, cols=db))


def find_section(g: HomSuperAlgebra, a: Subspace, b: HomSuperAlgebra, pi: Matrix) -> Section:
    """Solve pi . tau = id_b, alpha_g . tau = tau . beta, tau even (the last
    two by intertwiner_rows).

    Deterministic: the minimal-lex solution of the rref'd system (free
    variables zero).  Raises NoCompatibleSection when none exists.
    """
    dg, db = g.dim, b.dim
    if pi.rows != db or pi.cols != dg:
        raise DimensionMismatch("projection has wrong shape")
    nvars = dg * db  # tau[i][j] row-major

    rows = []
    rhs = []
    for r in range(db):
        for c in range(db):
            row = [0] * nvars
            for i in range(dg):
                if pi[r, i] != 0:
                    row[i * db + c] += pi[r, i]
            rows.append(row)
            rhs.append(1 if r == c else 0)
    twist_rows = intertwiner_rows(g.alpha, b.alpha, g.parity, b.parity)
    rows += twist_rows
    rhs += [0] * len(twist_rows)
    sol = particular_solution(Matrix.from_rows(rows, cols=nvars), rhs)
    if sol is None:
        raise NoCompatibleSection("no even section compatible with the twists")
    tau = Matrix(dg, db, sol)
    return Section(tau)


def check_section(g, a: Subspace, b, pi, s: Section):
    tau = s.tau
    if tau.rows != g.dim or tau.cols != b.dim:
        raise SectionInvalid("section has wrong shape")
    if not (pi * tau).is_identity():
        raise SectionInvalid("pi . tau is not the identity")
    if g.alpha * tau != tau * b.alpha:
        raise SectionInvalid("section does not intertwine the twists")
    if not is_even_map(tau, g.parity, b.parity):
        raise SectionInvalid("section is not even")


def module_from_section(g: HomSuperAlgebra, a: Subspace, b: HomSuperAlgebra, s: Section) -> Representation:
    """rho(B) v = [tau(b_1),...,tau(b_{n-1}), v]_g in fiber coordinates."""
    target = GradedSpace(a.dim, tuple(vector_parity(v, g.parity) for v in a.basis_vectors()))
    wb = _wedge(b)
    tau_cols = [s.tau.col(j) for j in range(b.dim)]
    a_rows = a.basis_vectors()
    mats = []
    for t in wb.elements:
        cols = []
        for v in a_rows:
            val = g.bracket_eval([tau_cols[i] for i in t] + [list(v)])
            cols.append(_in_fiber_coords(a, val))
        mats.append(Matrix.from_rows(cols, cols=a.dim).transpose())
    nu_cols = [_in_fiber_coords(a, g.alpha.apply(list(v))) for v in a_rows]
    nu = Matrix.from_rows(nu_cols, cols=a.dim).transpose()
    return Representation(target, mats, nu)


def _in_fiber_coords(a: Subspace, vec):
    try:
        coords = a.coordinates(dict(enumerate(vec)))
    except NotACochain:
        raise SectionInvalid("value does not lie in the fiber") from None
    return [coords.get(i, 0) for i in range(a.dim)]


def extract_cocycle(g: HomSuperAlgebra, a: Subspace, b: HomSuperAlgebra, pi: Matrix, s: Section):
    """f(B, b_n) = tau(B).tau(b_n) - tau(B . b_n), as an a-valued 1-cochain.

    Returns (cochain, module).  The coboundary of the result is checked to
    vanish, which is the content of the closedness computation.
    """
    check_section(g, a, b, pi, s)
    module = module_from_section(g, a, b, s)
    wb = _wedge(b)
    tau_cols = [s.tau.col(j) for j in range(b.dim)]
    model = CochainModel(b, module, 1)
    entries = {}
    for w, t in enumerate(wb.elements):
        for j in range(b.dim):
            inside = g.bracket_eval([tau_cols[i] for i in t] + [tau_cols[j]])
            through = s.tau.apply(b.bracket_basis(t + (j,)))
            diff = [x - y for x, y in zip(inside, through)]
            entries[((w,), j)] = _in_fiber_coords(a, diff)
    f = Cochain.from_entries(model, 0, entries)
    if not satisfies_compat(b, module, f):
        raise SectionInvalid("extracted cochain violates compatibility")
    if not is_closed(b, module, f):
        raise CocycleNotClosed("extracted cocycle is not closed (internal error)")
    return f, module


def verify_exact_sequence(algebras, maps) -> Report:
    """Morphism check for every map; Ker f_{i+1} = Im f_i at interior nodes."""
    if len(maps) != len(algebras) - 1:
        raise DimensionMismatch("need one map between consecutive algebras")
    report = Report()
    for k, f in enumerate(maps):
        rep = verify_morphism(f, algebras[k], algebras[k + 1])
        report.add(f"morphism-{k}", rep.ok, None if rep.ok else rep.to_dict())
    for k in range(1, len(algebras) - 1):
        ker = nullspace(maps[k])
        img = image(maps[k - 1])
        report.add(f"exact-at-{k}", ker == img)
    return report


def parse_datum_file(path_or_obj) -> ExtensionDatum:
    """Load an extension datum: {"base", "fiber", "module", "cocycle"}."""
    import json

    from . import fileformat as ff
    from .errors import ParseError

    if isinstance(path_or_obj, dict):
        obj = path_or_obj
    else:
        try:
            with open(path_or_obj) as fh:
                obj = json.load(fh, parse_float=ff._reject_float)
        except OSError as exc:
            raise ParseError(f"cannot read {path_or_obj}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ParseError(f"datum: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError("datum: expected a JSON object")
    base_loaded = ff.parse_algebra(ff._require(obj, "base", "datum"), "datum.base")
    base = base_loaded.algebra
    fiber_obj = ff._require(obj, "fiber", "datum")
    fiber = ff._parse_graded_space(fiber_obj, "datum.fiber")
    fiber_twist = ff._parse_matrix(
        ff._require(fiber_obj, "alpha", "datum.fiber"), fiber.dim, fiber.dim, "datum.fiber.alpha"
    )
    module = ff.parse_representation(ff._require(obj, "module", "datum"), base, "datum.module")
    entries = ff.parse_cochain_entries(
        obj.get("cocycle", []), base.space, base.arity, fiber.dim, "datum.cocycle"
    )
    model = CochainModel(base, module, 1)
    wbq = _wedge(base)
    cochain = Cochain.from_entries(
        model, 0, {((wbq.index[c],), z): vec for c, z, vec in entries}
    )
    return ExtensionDatum(base, fiber, fiber_twist, module, cochain)


def cohomologous_difference(b: HomSuperAlgebra, module: Representation, f1: Cochain, f2: Cochain):
    """A 0-cochain theta' with delta theta' = f1 - f2, or None.

    Different sections of one extension give cohomologous cocycles; this is
    the helper that exhibits the witness.
    """
    diff = [x - y for x, y in zip(f1.coeffs, f2.coeffs)]
    basis0 = cochain_basis(b, module, 0, "both")
    basis1 = cochain_basis(b, module, 1, "both")
    target = basis1.represent(diff)
    sol = particular_solution(delta_matrix(b, module, basis0, basis1), target)
    if sol is None:
        return None
    return Cochain(basis0.model, 0, basis0.to_subspace().basis.transpose().apply(sol))
