"""Extensions of an algebra b by an abelian module a.

The extension bracket on a (+) b takes the module action for mixed
slots, the base bracket on the b-part, and adds the 1-cocycle value on
the a-part of all-b slots.  Validated data require the cocycle to be
even, twist-compatible, fully super-alternating and closed; alternation
and closedness are checked on the support of the cocycle, so the zero
cocycle of a split extension costs neither.  The same
builder makes the T*-extensions of `tstar`: the extension of g by g*
through ad* and a cocycle theta, with the g block first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cohomology import (
    Cochain,
    CochainModel,
    Representation,
    cochain_basis,
    delta_columns,
    is_closed,
    is_super_alternating,
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
    _accumulate,
    _canonical_tuples,
    _dense,
    _nonzero,
    apply_columns,
    intertwiner_rows,
    is_even_map,
    is_hom_ideal,
    transposed,
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
from .linalg import Matrix, Subspace, block_diagonal, image, nullspace, sparse_columns, sparse_solution


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
        if not is_even_map(self.module.nu_columns, pf, pf):
            raise DimensionMismatch("fiber twist must be even")
        if not verify_representation(self.module, self.base).ok:
            raise NotACochain("module fails the representation identities")
        if self.cocycle.degree != 1:
            raise NotACochain("extension cocycle must have degree 1")
        if self.cocycle.parity != 0:
            raise CocycleNotEven("extension cocycle must be even")
        if not satisfies_compat(self.base, self.module, self.cocycle):
            raise NotACochain("cocycle violates the twist compatibility or has odd coordinates")
        if not is_super_alternating(self.base, self.module, self.cocycle):
            raise NotACochain("cocycle is not super-alternating across all slots")
        if not is_closed(self.base, self.module, self.cocycle):
            raise CocycleNotClosed("delta^1 of the cocycle is nonzero")


@dataclass
class Section:
    tau: Matrix  # b -> g

    @cached_property
    def columns(self) -> list:
        """tau's sparse columns {row: entry}, built once per section."""
        return sparse_columns(self.tau)


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
        fiber_sub = Subspace.from_sparse(g.dim, [{i: 1} for i in range(d.fiber.dim)])
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
    cocycle = d.cocycle.entries()
    entries = {}
    actions = {}  # (base indices, fiber slot) -> module_action columns
    for key in _canonical_tuples(space, n):
        fiber_slots = [t for t in key if fo <= t < fo + da]
        if len(fiber_slots) >= 2:
            continue
        if not fiber_slots:
            bkey = tuple(t - bo for t in key)
            vec = {bo + k: c for k, c in b.bracket.sparse_value(bkey)}
            sign, w = wb.lookup(bkey[:-1])
            if sign != 0:
                vec.update((fo + v, sign * c) for v, c in cocycle.get(((w,), bkey[-1]), {}).items())
        else:
            (t,) = fiber_slots
            base_key = (tuple(s - bo for s in key if s != t), key.index(t))
            if base_key not in actions:
                actions[base_key] = module_action(b, d.module, [((s, 1),) for s in base_key[0]], base_key[1])
            vec = {fo + k: c for k, c in actions[base_key][t - fo].items()}
        if vec:
            entries[key] = _dense(vec.items(), da + db)
    return HomSuperAlgebra(
        space,
        StructureTensor(n, space, entries, strict=True),
        block_diagonal(first_twist, second_twist),
        name=name,
    )


def canonical_injection(da, db) -> Matrix:
    return Matrix.from_columns([{i: 1} for i in range(da)], da + db)


def canonical_projection(da, db) -> Matrix:
    return Matrix.from_columns([{} for _ in range(da)] + [{i: 1} for i in range(db)], db)


def canonical_section(da, db) -> Section:
    return Section(Matrix.from_columns([{da + i: 1} for i in range(db)], da + db))


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

    # pi . tau = id_b: entry (r, c) is sum_i pi[r, i] tau[i][c]
    rows = [{} for _ in range(db * db)]
    for i, col in enumerate(sparse_columns(pi)):
        for r, x in col.items():
            for c in range(db):
                rows[r * db + c][i * db + c] = x
    rhs = [1 if r == c else 0 for r in range(db) for c in range(db)]
    twist_rows = intertwiner_rows(g.alpha_columns(), b.alpha_columns(), g.parity, b.parity)
    sol = sparse_solution(rows + twist_rows, nvars, rhs + [0] * len(twist_rows))
    if sol is None:
        raise NoCompatibleSection("no even section compatible with the twists")
    return Section(Matrix(dg, db, sol))


def check_section(g, a: Subspace, b, pi, s: Section):
    """pi . tau = id_b, alpha_g . tau = tau . beta and tau even, column by column."""
    tau = s.columns
    if s.tau.rows != g.dim or s.tau.cols != b.dim:
        raise SectionInvalid("section has wrong shape")
    if pi.cols != g.dim:
        raise DimensionMismatch("projection has wrong shape")
    pi_cols = sparse_columns(pi)
    if pi.rows != b.dim or any(apply_columns(pi_cols, col) != {j: 1} for j, col in enumerate(tau)):
        raise SectionInvalid("pi . tau is not the identity")
    if any(apply_columns(g.alpha_columns(), col) != apply_columns(tau, beta) for col, beta in zip(tau, b.alpha_columns())):
        raise SectionInvalid("section does not intertwine the twists")
    if not is_even_map(tau, g.parity, b.parity):
        raise SectionInvalid("section is not even")


def module_from_section(g: HomSuperAlgebra, a: Subspace, b: HomSuperAlgebra, s: Section) -> Representation:
    """rho(B) v = [tau(b_1),...,tau(b_{n-1}), v]_g in fiber coordinates, as
    sparse columns, and nu = alpha_g on the fiber."""
    target = GradedSpace(a.dim, tuple(vector_parity(v, g.parity) for v in a.sparse_rows))
    tau = [col.items() for col in s.columns]
    columns = [
        [_in_fiber_coords(a, g.bracket.sparse_bracket([tau[i] for i in t] + [v.items()])) for v in a.sparse_rows]
        for t in _wedge(b).elements
    ]
    nu_columns = [_in_fiber_coords(a, apply_columns(g.alpha_columns(), v)) for v in a.sparse_rows]
    return Representation.from_columns(target, columns, nu_columns)


def _in_fiber_coords(a: Subspace, vec: dict) -> dict:
    try:
        return a.coordinates(vec)
    except NotACochain:
        raise SectionInvalid("value does not lie in the fiber") from None


def extract_cocycle(g: HomSuperAlgebra, a: Subspace, b: HomSuperAlgebra, pi: Matrix, s: Section):
    """f(B, b_n) = tau(B).tau(b_n) - tau(B . b_n), as an a-valued 1-cochain.

    Returns (cochain, module).  The coboundary of the result is checked to
    vanish, which is the content of the closedness computation.
    """
    check_section(g, a, b, pi, s)
    module = module_from_section(g, a, b, s)
    tau = s.columns
    args = [col.items() for col in tau]
    model = CochainModel(b, module, 1)
    entries = {}
    for w, t in enumerate(_wedge(b).elements):
        for j in range(b.dim):
            diff = g.bracket.sparse_bracket([args[i] for i in t] + [args[j]])
            _accumulate(diff, apply_columns(tau, dict(b.bracket.sparse_value(t + (j,)))).items(), -1)
            entries[((w,), j)] = _in_fiber_coords(a, _nonzero(diff))
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
    return ExtensionDatum(base, fiber, fiber_twist, module, ff.cochain_of_entries(base, module, entries))


def cohomologous_difference(b: HomSuperAlgebra, module: Representation, f1: Cochain, f2: Cochain):
    """A 0-cochain theta' with delta theta' = f1 - f2, or None.

    Different sections of one extension give cohomologous cocycles; this is
    the helper that exhibits the witness.
    """
    diff = dict(f1.vec)
    _accumulate(diff, f2.vec.items(), -1)
    basis0 = cochain_basis(b, module, 0, "both")
    basis1 = cochain_basis(b, module, 1, "both")
    coords = basis1.coordinates(_nonzero(diff))
    target = [coords.get(i, 0) for i in range(basis1.dim)]
    sol = sparse_solution(transposed(delta_columns(b, module, basis0, basis1), basis1.dim), basis0.dim, target)
    if sol is None:
        return None
    return Cochain.from_sparse(basis0.model, 0, apply_columns(basis0.vectors(), dict(enumerate(sol))))
