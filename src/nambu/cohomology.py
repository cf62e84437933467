"""Fundamental objects, representations, cochains and the coboundary.

Wedge coordinates: a degree-(n-1) fundamental object is a vector over the
canonical wedge basis (nondecreasing tuples, no repeated even index),
stored sparsely as {position: coefficient}.  Wedges of vectors and the
fundamental bracket are calls of ``core.multilinear``.  A Representation
holds rho and nu as sparse columns, and so does the module action; every
law on rho is checked column by column, only at the pairs where a term can
be nonzero (``core._Places`` of rho).  Dense rho is derived only for the
file format and outside callers.  Cochains of degree m are sparse tensors
{flat: coeff} over (wedge basis)^m x g x V, and delta^m is assembled over Z
as integer columns from tables of its four terms read at computed offsets,
at about the cost of its entries.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple

from .core import (
    GradedSpace,
    HomSuperAlgebra,
    Report,
    _accumulate,
    _arranged,
    _bracket_places,
    _by_coordinate,
    _canonical_tuples,
    _dense,
    _nonzero,
    _Places,
    apply_columns,
    is_even_map,
    multilinear,
    straighten,
    verify_algebra,
)
from .errors import ArityMismatch, DimensionMismatch, InternalError, NotACochain
from .linalg import Matrix, Subspace, _echelon, _monic, _primitive, first_nonzero_digit, kronecker_pack, sparse_columns, sparse_kernel, sparse_rank


class WedgeBasis:
    """Canonical basis of the super-exterior power g^wedge(degree)."""

    def __init__(self, space: GradedSpace, degree: int):
        if degree < 1:
            raise DimensionMismatch("wedge degree must be >= 1")
        self.space = space
        self.degree = degree
        self.elements = list(_canonical_tuples(space, degree))
        self.index = {t: i for i, t in enumerate(self.elements)}
        self.parities = [space.parity_of_indices(t) for t in self.elements]

    def __len__(self):
        return len(self.elements)

    def parity(self, pos):
        return self.parities[pos]

    def lookup(self, indices):
        """(sign, position) of an arbitrary index tuple, sign 0 if it dies."""
        sign, canon = straighten(indices, self.space.parity)
        if sign == 0:
            return 0, None
        return sign, self.index[canon]

    def sparse_value(self, indices) -> tuple:
        """The wedge of basis vectors e_{i1},...,e_{ik} as its (position,
        sign) pairs: ((pos, sign),), or () if it dies."""
        sign, pos = self.lookup(indices)
        return ((pos, sign),) if sign else ()


def wedge_basis(space: GradedSpace, degree: int) -> WedgeBasis:
    return WedgeBasis(space, degree)


def wedge_of_vectors(wb: WedgeBasis, vectors) -> dict:
    """Expand v_1 ^ ... ^ v_k in wedge coordinates, each v_i given by its
    nonzero (index, coeff) pairs."""
    if len(vectors) != wb.degree:
        raise DimensionMismatch("wrong number of wedge factors")
    return multilinear(vectors, wb.sparse_value)


class Representation:
    """rho on the wedge power plus the module twist nu on V, held as sparse
    columns {row: entry} (``columns``, one list per canonical wedge element,
    and ``nu_columns``), which are never mutated.  The constructor takes
    dense matrices, as the file format gives them; from_columns adopts
    sparse columns.  The dense ``rho`` and ``nu`` are derived on first read,
    for the file format and outside callers."""

    __hash__ = None

    def __init__(self, target: GradedSpace, rho: list, nu: Matrix):
        self.target = target
        self.columns = [sparse_columns(m) for m in rho]
        self.nu_columns = sparse_columns(nu)

    @classmethod
    def from_columns(cls, target: GradedSpace, columns: list, nu_columns: list) -> "Representation":
        r = cls.__new__(cls)
        r.target, r.columns, r.nu_columns = target, columns, nu_columns
        return r

    def __eq__(self, other):
        if not isinstance(other, Representation):
            return NotImplemented
        return (self.target, self.columns, self.nu_columns) == (other.target, other.columns, other.nu_columns)

    @cached_property
    def rho(self) -> list:
        """rho as one dense Matrix per canonical wedge element."""
        return [Matrix.from_columns(cols, self.target.dim) for cols in self.columns]

    @cached_property
    def nu(self) -> Matrix:
        return Matrix.from_columns(self.nu_columns, self.target.dim)

    @cached_property
    def integer_columns(self) -> tuple:
        """(columns, c): the sparse columns of rho times c, the lcm of the
        denominators of its entries, as ints."""
        flat, c = _over_z([col for cols in self.columns for col in cols])
        dim = self.target.dim
        return [flat[w * dim : (w + 1) * dim] for w in range(len(self.columns))], c

    def action(self, coords: dict) -> list:
        """rho of wedge coordinates {position: coeff} as sparse columns."""
        return _act(self.columns, coords, self.target.dim)


def _act(rho, coords: dict, dim) -> list:
    """rho, given by its sparse columns per basis wedge, of wedge coordinates
    {position: coeff}, as sparse columns; of one basis wedge, {w: 1}, its
    own columns rho[w], which no caller mutates."""
    if len(coords) == 1 and 1 in coords.values():
        return rho[next(iter(coords))]
    out = [{} for _ in range(dim)]
    for w, c in coords.items():
        for col, piece in zip(out, rho[w]):
            _accumulate(col, piece.items(), c)
    return [_nonzero(col) for col in out]


def _over_z(columns) -> tuple:
    """(columns times d, d) for sparse columns {row: entry}, d the lcm of the
    denominators of their entries, as ints; the columns themselves when
    every entry is an int already."""
    entries = [x for col in columns for x in col.values()]
    if all(type(x) is int for x in entries):
        return columns, 1
    d = math.lcm(*(x.denominator for x in entries))
    return [{i: _times(x, d) for i, x in col.items()} for col in columns], d


def _times(x, scale) -> int:
    """x * scale as an int; InternalError unless it is an integer."""
    y = x * scale
    if y.denominator != 1:
        raise InternalError(f"{x} * {scale} is not an integer")
    return y.numerator


def adjoint_rep(a: HomSuperAlgebra) -> Representation:
    """ad: column j of rho(x) is [x, e_j], read off the nonzero basis
    brackets; nu is alpha."""
    value = a.bracket.sparse_value
    columns = [[dict(value(t + (j,))) for j in range(a.dim)] for t in _wedge(a).elements]
    return Representation.from_columns(a.space, columns, a.alpha_columns())


def _wedge(a: HomSuperAlgebra) -> WedgeBasis:
    key = ("wedge", a.arity - 1)
    if key not in a._cache:
        a._cache[key] = WedgeBasis(a.space, a.arity - 1)
    return a._cache[key]


def fundamental_bracket(a: HomSuperAlgebra, x_coords: dict, y_coords: dict) -> dict:
    """[x,y]_alpha on wedge coordinates, bilinear in both arguments."""
    cx = _complex_tables(a)
    return multilinear([x_coords.items(), y_coords.items()], lambda ws: cx.fb(*ws).items())


class _Tables:
    """Per-algebra tables of the wedge calculus, independent of any rep:
    alpha's columns and powers, the alpha^k-wedges, ad and the fundamental
    bracket.

    _complex_tables keeps them in the algebra's own scalars.  Over Z
    (_integer_tables) they are built from the bracket times b and alpha
    times d, b and d the lcms of their denominators, each entry checked to
    be an int; every table is then the rational one times powers of b and
    d: ad by b, alpha^k by d^k, the alpha^k-wedge by d^(k(n-1)) and fb by
    b d^(n-2).
    """

    def __init__(self, a: HomSuperAlgebra, over_z=False):
        self.a = a
        self.wb = _wedge(a)
        self._fb = {}
        self._ad = {}
        self.bracket, self.bracket_scale = a.bracket.sparse_value, 1
        self.alpha_cols, self.alpha_scale = a.alpha_columns(), 1
        if over_z:
            self.alpha_cols, self.alpha_scale = _over_z(self.alpha_cols)
            b = self.bracket_scale = math.lcm(*(x.denominator for vec in a.bracket.entries.values() for x in vec))
            self.bracket = lambda indices: [(k, _times(c, b)) for k, c in a.bracket.sparse_value(indices)]
        self._alpha_pow = [[{j: 1} for j in range(a.dim)]]

    def alpha_pow(self, m) -> list:
        """The columns of alpha^m as sparse vectors {row: entry}."""
        while len(self._alpha_pow) <= m:
            self._alpha_pow.append([apply_columns(self.alpha_cols, col) for col in self._alpha_pow[-1]])
        return self._alpha_pow[m]

    @cached_property
    def alpha_wedge(self) -> list:
        """The alpha-wedge of each basis wedge, in wedge coordinates."""
        cols = [col.items() for col in self.alpha_cols]
        return [wedge_of_vectors(self.wb, [cols[i] for i in t]) for t in self.wb.elements]

    def ad(self, w, j) -> dict:
        """x_w . e_j as a sparse g-vector."""
        key = (w, j)
        if key not in self._ad:
            self._ad[key] = dict(self.bracket(self.wb.elements[w] + (j,)))
        return self._ad[key]

    @cached_property
    def ads(self) -> list:
        """(w, j, [(t, c)]) per nonzero ad(w, j), read off the stored keys."""
        completions = _bracket_places(self.a).completions
        pairs = sorted((self.wb.index[x], j) for x, js in completions.items() for j in js)
        return [(w, j, list(self.ad(w, j).items())) for w, j in pairs]

    @cached_property
    def fbs(self) -> list:
        """(w1, w2, [(w, c)]) per nonzero fb(w1, w2)."""
        return [(w1, w2, list(fb.items())) for w1, w2 in _fb_pairs(self.a) if (fb := self.fb(w1, w2))]

    def fb(self, w1, w2) -> dict:
        """Fundamental bracket of two basis wedges, in wedge coordinates."""
        key = (w1, w2)
        if key not in self._fb:
            wb = self.wb
            yt = wb.elements[w2]
            px = wb.parity(w1)
            out = {}
            prefix = 0
            for i, y in enumerate(yt):
                if ad := self.ad(w1, y):
                    sign = -1 if (px == 1 and prefix == 1) else 1
                    factors = [self.alpha_cols[k].items() for k in yt[:i]] + [ad.items()] + [self.alpha_cols[k].items() for k in yt[i + 1 :]]
                    _accumulate(out, wedge_of_vectors(wb, factors).items(), sign)
                prefix = (prefix + self.a.parity[y]) % 2
            self._fb[key] = _nonzero(out)
        return self._fb[key]


def _fb_pairs(a: HomSuperAlgebra) -> list:
    """The pairs (w1, w2) of basis wedges, in lex order, at which fb can be
    nonzero: some slot y_i of w2 with [x_{w1}, y_i] != 0, read off the
    stored keys.  Every other fb(w1, w2) is a sum of zero wedges."""
    wb = _wedge(a)
    holding = {}  # j -> the wedges with a slot j
    for w, t in enumerate(wb.elements):
        for j in set(t):
            holding.setdefault(j, []).append(w)
    completions = _bracket_places(a).completions
    return sorted({(wb.index[x], w2) for x, js in completions.items() for j in js for w2 in holding.get(j, ())})


def _complex_tables(a: HomSuperAlgebra) -> _Tables:
    if "tables" not in a._cache:
        a._cache["tables"] = _Tables(a)
    return a._cache["tables"]


def _integer_tables(a: HomSuperAlgebra) -> _Tables:
    """The tables over Z, kept in a._cache: those of _complex_tables when the
    bracket and alpha hold only ints, else built from the bracket and alpha
    scaled to ints (_Tables)."""
    if "integer tables" not in a._cache:
        values = itertools.chain(a.alpha.data, *a.bracket.entries.values())
        integral = all(type(x) is int for x in values)
        a._cache["integer tables"] = _complex_tables(a) if integral else _Tables(a, over_z=True)
    return a._cache["integer tables"]


def module_action(a: HomSuperAlgebra, r: Representation, g_args, pos) -> list:
    """The map v -> [g_1, ..., v, ..., g_{n-1}] on V as sparse columns, with v
    in slot pos (0-based) among the n slots and the g-vectors, given by
    their nonzero (index, coeff) pairs, in the others, in order.

    rho acts from the last slot, so moving v there passes the g-slots after
    it: a sign -1 per slot, and one more for an odd v when their parities add
    up to odd.  The map is therefore (-1)^(n-1-pos) (rho(W_0) + rho(W_1) P),
    where W_q is the wedge of the g-vectors restricted to the parity parts
    whose later slots add up to q, and P is (-1)^|v| on V.  Splitting the
    later g-vectors into parity parts keeps the sign exact for arguments
    that are not homogeneous.
    """
    if len(g_args) != a.arity - 1 or not 0 <= pos < a.arity:
        raise ArityMismatch(f"expected {a.arity - 1} algebra slots around one module slot")
    wb = _wedge(a)
    p, pv = a.parity, r.target.parity
    later = []
    for arg in g_args[pos:]:
        parts = [(q, [(i, c) for i, c in arg if p[i] == q]) for q in (0, 1)]
        later.append([(q, part) for q, part in parts if part])
    sign = (-1) ** (len(g_args) - pos)
    cols = [{} for _ in pv]
    for choice in itertools.product(*later):
        odd = sum(q for q, _ in choice) % 2
        coords = wedge_of_vectors(wb, list(g_args[:pos]) + [part for _, part in choice])
        for u, (col, piece) in enumerate(zip(cols, r.action(coords))):
            _accumulate(col, piece.items(), -sign if odd and pv[u] else sign)
    return [_nonzero(col) for col in cols]


def _first_failing_column(terms):
    """The first column u at which the sum of s * (A o B) over the terms
    (s, A, B) is nonzero, for maps A and B given by sparse columns; None
    when the sum is the zero map.  Every law on rho is checked this way."""
    for u in range(len(terms[0][2])):
        total = {}
        for s, left, right in terms:
            for k, c in right[u].items():
                _accumulate(total, left[k].items(), s * c)
        if any(total.values()):
            return u
    return None


def verify_representation(r: Representation, a: HomSuperAlgebra) -> Report:
    """The grading, the binary and n-ary action laws and twist-equivariance,
    the laws checked column by column on sparse columns."""
    wb = _wedge(a)
    if len(r.columns) != len(wb):
        raise DimensionMismatch("rho must assign a matrix to every wedge element")
    report = Report()

    pv = r.target.parity
    ungraded = sorted(
        (w, i, j) for w, cols in enumerate(r.columns) for j, col in enumerate(cols) for i in col
        if pv[i] != (pv[j] + wb.parity(w)) % 2
    )
    witness = next((
        {"wedge": [k + 1 for k in wb.elements[w]], "i": i + 1, "j": j + 1} for w, i, j in ungraded
    ), None)
    graded = witness is None and is_even_map(r.nu_columns, pv, pv)
    report.add("grading", graded, witness)

    # rho(alpha x) per basis wedge x, zero unless alpha x can meet a place of rho
    places = _Places((t for t, cols in zip(wb.elements, r.columns) if any(cols)), a.alpha_columns())
    alpha_wedge = _complex_tables(a).alpha_wedge
    aw = [[{} for _ in pv]] * len(wb)
    for t in places.covered():
        if (w := wb.index.get(t)) is not None:
            aw[w] = r.action(alpha_wedge[w])
    report.add_first("hom-jacobi", _rep_jacobi_witnesses(r, a, aw, places))
    report.add_first("n-ary-compatibility", _rep_nary_witnesses(r, a, graded and a.alpha_is_even(), places))

    # nu o rho(x) = rho(alpha x) o nu: what makes g (+) V with the block
    # twist a *multiplicative* algebra, and what the coboundary needs to
    # stay inside the compatibility subspace; adjoint actions satisfy it
    # automatically by multiplicativity
    report.add_first("twist-equivariance", (
        {"wedge": [k + 1 for k in wb.elements[w]]}
        for w in range(len(wb))
        if (any(r.columns[w]) or any(aw[w]))
        and _first_failing_column([(1, r.nu_columns, r.columns[w]), (-1, aw[w], r.nu_columns)]) is not None
    ))
    return report


def _rep_jacobi_witnesses(r: Representation, a: HomSuperAlgebra, aw, places: _Places):
    """Basis wedges (x, y), in lex order, where rho(alpha x) rho(y) =
    (-1)^{|x||y|} rho(alpha y) rho(x) + rho([x, y]_alpha) nu fails.

    A product is nonzero only if both its factors are, so only these pairs
    are visited: rho(alpha x) and rho(y) both nonzero, or rho(alpha y) and
    rho(x), or rho nonzero on the support of fb(x, y), which is taken only
    where it can be nonzero (``_fb_pairs``).  Every other pair is 0 = 0.
    ``places`` are the wedges where rho is nonzero.
    """
    wb = _wedge(a)
    cx = _complex_tables(a)
    acting = [w for w, cols in enumerate(aw) if any(cols)]
    nonzero = {wb.index[t] for t in places.places}
    pairs = {(x, y) for x in acting for y in nonzero} | {(y, x) for x in acting for y in nonzero}
    pairs.update(pair for pair in _fb_pairs(a) if nonzero & cx.fb(*pair).keys())
    for w1, w2 in sorted(pairs):
        sgn = -1 if (wb.parity(w1) == 1 and wb.parity(w2) == 1) else 1
        terms = [
            (1, aw[w1], r.columns[w2]),
            (-sgn, aw[w2], r.columns[w1]),
            (-1, r.action(cx.fb(w1, w2)), r.nu_columns),
        ]
        if _first_failing_column(terms) is not None:
            yield {"x": [k + 1 for k in wb.elements[w1]], "y": [k + 1 for k in wb.elements[w2]]}


def _rep_nary_witnesses(r: Representation, a: HomSuperAlgebra, canonical: bool, places: _Places):
    """Where the n-ary action law fails: canonical x-tuples, basis y-tuples,
    in lex order.

    With ``canonical`` (alpha even, the grading check passed) both sides are
    super-skew in y, so canonical y-tuples give the same verdict and the same
    first witness; otherwise every basis y-tuple is swept.

    Only the pairs where a term can be nonzero are visited (``places``,
    rho's with f = alpha): rho(alpha x ^ [y]) nu needs [y] != 0 with some m
    in supp [y] for which alpha x ^ e_m can meet a place, and term i,
    rho(alpha y^_i) rho(x ^ y_i), needs x ^ y_i a place and alpha y^_i able
    to meet one.  Every other pair is 0 = 0.
    """
    n = a.arity
    p = a.parity
    wb = _wedge(a)
    alpha = [col.items() for col in a.alpha_columns()]
    imaged = _by_coordinate(a)
    covered = places.covered()
    for xs in _arranged(places.heads(), p, True):
        px = a.space.parity_of_indices(xs)
        x_alpha = [alpha[i] for i in xs]
        active = set().union(*(imaged.get(m, ()) for m in places.reach(xs)))
        for j in places.completions.get(xs, ()):
            active.update(tuple(sorted(c + (j,))) for c in covered)
        for ys in _arranged(active, p, canonical):
            py_total = sum(p[i] for i in ys) % 2
            inner = a.bracket.sparse_value(ys)
            terms = [(1, r.action(wedge_of_vectors(wb, x_alpha + [inner])), r.nu_columns)]
            for i in range(n):
                sgn = (-1) ** (n - 1 - i)
                if px == 1 and (py_total + p[ys[i]]) % 2 == 1:
                    sgn = -sgn
                suffix = sum(p[ys[k]] for k in range(i + 1, n)) % 2
                if p[ys[i]] == 1 and suffix == 1:
                    sgn = -sgn
                sign_w, w_small = wb.lookup(xs + (ys[i],))
                if sign_w == 0:
                    continue
                hat = [alpha[ys[k]] for k in range(n) if k != i]
                terms.append((-sgn * sign_w, r.action(wedge_of_vectors(wb, hat)), r.columns[w_small]))
            if _first_failing_column(terms) is not None:
                yield {"x": [k + 1 for k in xs], "y": [k + 1 for k in ys]}


def verify_prop_2_2(a: HomSuperAlgebra) -> Report:
    """The three derived identities of the fundamental-object calculus;
    they are theorems for valid algebras, so this is a sign-machinery oracle."""
    report = Report()
    wb = _wedge(a)
    cx = _complex_tables(a)
    r = adjoint_rep(a)
    alpha = a.alpha_columns()
    aw = cx.alpha_wedge
    rho_aw = [r.action(coords) for coords in aw]
    pairs = [
        (w1, w2, -1 if (wb.parity(w1) == 1 and wb.parity(w2) == 1) else 1)
        for w1 in range(len(wb))
        for w2 in range(len(wb))
    ]
    rho_fb = {(w1, w2): r.action(cx.fb(w1, w2)) for w1, w2, _ in pairs}

    def wedge_jacobi(w1, w2, sgn, w3):
        rhs = dict(fundamental_bracket(a, cx.fb(w1, w2), aw[w3]))
        for k, v in fundamental_bracket(a, aw[w2], cx.fb(w1, w3)).items():
            rhs[k] = rhs.get(k, 0) + sgn * v
        return fundamental_bracket(a, aw[w1], cx.fb(w2, w3)) == {k: v for k, v in rhs.items() if v != 0}

    # the first failing column of an identity of maps on g is its z
    report.add_first("action-identity", (
        {"x": w1, "y": w2, "z": z + 1}
        for w1, w2, sgn in pairs
        if (z := _first_failing_column([
            (1, rho_aw[w1], r.columns[w2]),
            (-sgn, rho_aw[w2], r.columns[w1]),
            (-1, rho_fb[w1, w2], alpha),
        ])) is not None
    ))
    report.add_first("wedge-jacobi", (
        {"x": w1, "y": w2, "z": w3}
        for w1, w2, sgn in pairs
        for w3 in range(len(wb))
        if not wedge_jacobi(w1, w2, sgn, w3)
    ))
    report.add_first("bracket-skew", (
        {"x": w1, "y": w2, "z": z + 1}
        for w1, w2, sgn in pairs
        if (z := _first_failing_column([(1, rho_fb[w1, w2], alpha), (sgn, rho_fb[w2, w1], alpha)])) is not None
    ))
    return report


# ---------------------------------------------------------------------------
# cochains


class CochainModel:
    """Flat indexing for degree-m cochain tensors of (a, r)."""

    def __init__(self, a: HomSuperAlgebra, r: Representation, m: int):
        if m < 0:
            raise DimensionMismatch("cochain degree must be >= 0")
        self.a = a
        self.r = r
        self.m = m
        self.wb = _wedge(a)
        self.W = len(self.wb)
        self.D = a.dim
        self.DV = r.target.dim
        self.raw_dim = (self.W ** m) * self.D * self.DV

    def flat(self, ws, j):
        """Offset of the V-block for input (ws, j)."""
        off = 0
        for w in ws:
            off = off * self.W + w
        return (off * self.D + j) * self.DV

    def coordinate(self, flat):
        """The raw coordinate (x_1..x_m, z, v) at a flat index, 0-based: m
        wedge positions, a basis index of g and one of V."""
        off, v = divmod(flat, self.DV)
        off, z = divmod(off, self.D)
        ws = []
        for _ in range(self.m):
            off, w = divmod(off, self.W)
            ws.append(w)
        return tuple(reversed(ws)), z, v

    @cached_property
    def parities(self) -> list:
        """The parity of every raw coordinate (x_1..x_m, z, v), by flat index:
        a prefix table over the inputs (x_1..x_m, z), extended over v."""
        prefix = [0]
        for _ in range(self.m):
            prefix = [p + q for p in prefix for q in self.wb.parities]
        prefix = [p + q for p in prefix for q in self.a.parity]
        return [(p + q) % 2 for p in prefix for q in self.r.target.parity]


class Cochain:
    """Degree-m cochain of one parity, held as its sparse raw vector
    ``vec`` {flat: coeff} over (wedge basis)^m x g x V, no zeros stored.

    Cochain(model, parity, coeffs) takes the dense list over every raw
    coordinate and converts it once; from_sparse is the constructor the
    library uses, and ``coeffs`` is the dense list, derived on each read.
    """

    def __init__(self, model: CochainModel, parity: int, coeffs):
        if len(coeffs) != model.raw_dim:
            raise DimensionMismatch("coefficient vector has wrong length")
        self.model, self.degree, self.parity = model, model.m, parity
        self.vec = {k: c for k, c in enumerate(coeffs) if c != 0}

    @classmethod
    def from_sparse(cls, model: CochainModel, parity: int, vec: dict) -> "Cochain":
        if not all(0 <= k < model.raw_dim for k in vec):
            raise DimensionMismatch("raw coordinate outside the cochain space")
        f = cls.__new__(cls)
        f.model, f.degree, f.parity, f.vec = model, model.m, parity, _nonzero(vec)
        return f

    @classmethod
    def zero(cls, model, parity=0):
        return cls.from_sparse(model, parity, {})

    @classmethod
    def from_entries(cls, model, parity, entries):
        """entries: {(wedge positions tuple, g index): sparse V-vector {v: c}}"""
        vec = {}
        for (ws, j), block in entries.items():
            base = model.flat(tuple(ws), j)
            vec.update((base + v, c) for v, c in block.items())
        return cls.from_sparse(model, parity, vec)

    def entries(self) -> dict:
        """The nonzero V-blocks {(wedge positions tuple, g index): {v: c}},
        in ascending flat order: the inverse of from_entries."""
        out = {}
        for flat in sorted(self.vec):
            ws, j, v = self.model.coordinate(flat)
            out.setdefault((ws, j), {})[v] = self.vec[flat]
        return out

    @property
    def coeffs(self) -> list:
        return _dense(self.vec.items(), self.model.raw_dim)

    def is_zero(self):
        return not self.vec

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return (self.degree, self.model.raw_dim, self.vec) == (other.degree, other.model.raw_dim, other.vec)


def satisfies_compat(a, r, f: Cochain) -> bool:
    """Membership of f in C^m(g, V) of its declared parity: nu o f(x_1..x_m, z)
    = f(alpha x_1,...,alpha x_m, alpha z) and no coordinate of the other parity."""
    return compat_test(a, r, f.degree, f.parity)(f.vec)


class _Equations(NamedTuple):
    model: CochainModel
    nu_rows: list
    twisted: Callable
    defect: Callable
    empty: bool  # nu = I and no slot applied: every F satisfies them
    gain: int  # at least 1, and no entry of defect(F) exceeds gain * max |F|


def _compat_equations(a, r, k) -> _Equations:
    """The equations of C^k(g, V) (_build_compat_equations), kept in a._cache
    under ("compat", k) by the rule of delta_operator: served again only for
    the same representation object r."""
    return _per_representation(a, ("compat", k), r, lambda: _build_compat_equations(a, r, k))


def _build_compat_equations(a, r, k) -> _Equations:
    """The defining equations of C^k(g, V), nu o F = F o (alpha^wedge x ... x
    alpha^wedge x alpha) for a raw vector F, and their only encoding.

    A map L on one slot is given by its rows: row u lists (x, L[u][x]), so the
    entry of F at digit u feeds digit x of F o L.  nu_rows is nu o F on the V
    slot, twisted(F) is F o (alpha^wedge, ..., alpha), applied one slot at a
    time, and defect(F) is their difference with zeros dropped.  alpha^wedge
    and alpha come over Z from _integer_tables and nu is scaled to ints, so
    that both sides carry the same factor d_wedge^k * d_alpha * d_nu.  A slot
    whose integer rows are the identity is not applied, and nu o F is F
    itself when nu's rows are: for alpha = I and nu = I the equations are
    empty, which their users read off ``empty`` instead of taking a defect
    or writing a row.  ``gain`` bounds the defect map read off the same
    rows, N(nu) + prod_s N(slot_s) for the applied slots, where N(L) is the
    largest sum of |entries| feeding one output digit (an identity counts
    1); it is at least 1, so it bounds a wrong-parity entry too.  The
    model's parities give the parity of each raw coordinate.
    """
    model = CochainModel(a, r, k)
    W, D, DV = model.W, model.D, model.DV
    cx = _integer_tables(a)
    d_alpha = cx.alpha_scale
    d_wedge = d_alpha ** (a.arity - 1)
    nu_cols, d_nu = _over_z(r.nu_columns)
    # nu o F acts on the V slot as F o nu^T would: row u of nu^T is column u of nu
    nu_rows = [[(u, c * d_wedge**k * d_alpha) for u, c in col.items()] for col in nu_cols]
    wedge_rows = _rows(cx.alpha_wedge, W)
    alpha_rows = [[(j, c * d_nu) for j, c in row] for row in _rows(cx.alpha_cols, D)]
    slots = [] if _is_identity(wedge_rows) else [(W ** (k - 1 - s) * D * DV, W, wedge_rows) for s in range(k)]
    if not _is_identity(alpha_rows):
        slots.append((DV, D, alpha_rows))
    nu_identity = _is_identity(nu_rows)

    def twisted(vec):
        for slot in slots:
            vec = _apply_slot(vec, *slot)
        return vec

    def defect(vec):
        lhs = dict(vec) if nu_identity else _apply_slot(vec, 1, DV, nu_rows)
        for flat, x in twisted(vec).items():
            lhs[flat] = lhs.get(flat, 0) - x
        return {flat: x for flat, x in lhs.items() if x != 0}

    gain = _norm(nu_rows) + math.prod(_norm(rows) for _, _, rows in slots)
    return _Equations(model, nu_rows, twisted, defect, nu_identity and not slots, max(1, gain))


def compat_offenders(a, r, k, parity="both"):
    """The defining equations of C^k(g, V) of the given parity
    (_compat_equations) as a function from a sparse raw vector {flat: coeff}
    to the set of raw coordinates where it breaks them, the coordinates of
    its offenses (_compat_offenses); empty exactly for the members."""
    offenses = _compat_offenses(a, r, k, parity)
    return lambda vec: set(offenses(vec))


def _compat_offenses(a, r, k, parity):
    """The defining equations of C^k(g, V) of the given parity as a map from
    a sparse raw vector F {flat: coeff} to its offenses {flat: offense},
    linear in F: the one form that compat_offenders and _check_images read.

    F is a member if it is zero at every coordinate of an unwanted parity
    and each parity part of F satisfies the equations at the coordinates of
    its own parity, the rule cochain_basis uses; for an even twist the
    defect of a part has no other coordinates.  The offenses are F's entries
    at the unwanted coordinates and, for each wanted parity, the defect of
    that part at its own coordinates: disjoint coordinates, and no entry
    larger than gain * max |F| (_Equations.gain).  When the equations are empty
    no defect is taken: for both parities nothing can fail, and not even the
    parities of C^k are read; for one the offenses are F's entries of the
    other.
    """
    eq = _compat_equations(a, r, k)
    parts = _parity_filter(parity)
    if eq.empty and len(parts) == 2:
        return lambda vec: {}
    parities = eq.model.parities

    def offenses(vec) -> dict:
        out = {flat: x for flat, x in vec.items() if parities[flat] not in parts}
        if not eq.empty:
            for p in parts:
                part = {flat: x for flat, x in vec.items() if parities[flat] == p}
                out.update((flat, x) for flat, x in eq.defect(part).items() if parities[flat] == p)
        return out

    return offenses


def compat_test(a, r, k, parity="both"):
    """Membership in C^k(g, V) of the given parity by its defining equations,
    without a basis of C^k: a predicate on sparse raw vectors {flat: coeff},
    the same as membership in cochain_basis(a, r, k, parity)."""
    offenders = compat_offenders(a, r, k, parity)
    return lambda vec: not offenders(vec)


def _rows(cols, size) -> list:
    """The rows of a map given by its sparse columns {row: entry}, as lists
    of (column, entry)."""
    rows = [[] for _ in range(size)]
    for x, col in enumerate(cols):
        for u, c in col.items():
            rows[u].append((x, c))
    return rows


def _is_identity(rows) -> bool:
    return all(row == [(u, 1)] for u, row in enumerate(rows))


def _norm(rows) -> int:
    """The largest sum of |entries| feeding one output digit of a map given
    by its rows: no entry of F o L exceeds _norm(rows) * max |F|."""
    feeding = [0] * len(rows)
    for row in rows:
        for x, c in row:
            feeding[x] += abs(c)
    return max(feeding, default=0)


def _apply_slot(vec, stride, size, rows):
    """F o L on the slot of the flat index with the given stride and size,
    for a map L given by its rows; zeros are kept."""
    out = {}
    for flat, x in vec.items():
        digit = flat // stride % size
        base = flat - digit * stride
        for y, c in rows[digit]:
            key = base + y * stride
            out[key] = out.get(key, 0) + c * x
    return out


def _parity_filter(parity):
    if parity in ("both", None):
        return (0, 1)
    if parity in ("even", 0):
        return (0,)
    if parity in ("odd", 1):
        return (1,)
    raise ValueError(f"bad parity {parity!r}")


class CochainBasis:
    """A basis of C^m: one Subspace of the raw coefficient space, whose rref
    rows are parity-homogeneous cochains."""

    def __init__(self, model: CochainModel, space: Subspace):
        self.model = model
        self.space = space

    @property
    def dim(self):
        return self.space.dim

    def vectors(self) -> list:
        """The basis as sparse raw vectors {flat: coefficient}."""
        return self.space.sparse_rows

    def coordinates(self, raw: dict) -> dict:
        """Sparse coordinates of a sparse raw vector, with an exact residual
        check: NotACochain if the vector is outside C^m."""
        return self.space.coordinates(raw)

    def to_subspace(self) -> Subspace:
        return self.space


def cochain_basis(a, r, m, parity="both") -> CochainBasis:
    """C^m(g, V) of the given parity as one Subspace of the raw coefficients,
    by one elimination: the kernel of the equations of _compat_equations plus
    f = 0 on the coordinates of an unwanted parity.

    Each equation is a row of the defect map, read off its columns: the
    defect of the unit vector at u.  A parity-homogeneous f only has
    coordinates of its own parity, so each equation keeps the terms of its
    output's parity, as in compat_test.  For a diagonal twist every equation
    has one term and the kernel is spanned by unit vectors.  Empty equations
    write no row: C^m is then the kernel of the unwanted parity's unit rows.
    """
    eq = _compat_equations(a, r, m)
    model = eq.model
    parities = model.parities
    parts = _parity_filter(parity)
    if eq.empty:
        rows = [{o: 1} for o, p in enumerate(parities) if p not in parts]
        return CochainBasis(model, sparse_kernel(rows, model.raw_dim))
    rows = [{o: 1} if p not in parts else {} for o, p in enumerate(parities)]
    for u, p in enumerate(parities):
        v = u % model.DV
        if v == 0:
            # alpha never touches v: one image per (x_1..x_m, z) block, shifted over v
            image = eq.twisted({u: 1})
        if p not in parts:
            continue
        for y, c in eq.nu_rows[v]:
            if parities[u - v + y] == p:
                rows[u - v + y][u] = c
        for o, c in image.items():
            if parities[o + v] == p:
                row = rows[o + v]
                row[u] = row.get(u, 0) - c
    rows = [row for row in rows if any(row.values())]
    return CochainBasis(model, sparse_kernel(rows, model.raw_dim))


# ---------------------------------------------------------------------------
# the coboundary as one sparse operator


class Delta(NamedTuple):
    """delta^m over Z by columns: {in_flat: {out_flat: int}}, nonzero columns
    only, equal to scale * delta^m for the positive int scale.  Column k is
    the image of the unit cochain at k."""

    columns: dict
    scale: int


def delta_operator(a, r, m) -> Delta:
    """delta^m on raw coefficients, assembled over Z with its scale s_m
    (_assemble_delta).  A zero test, a rank or a kernel reads the columns as
    they are; the map delta^m itself is columns / scale.

    Kept in a._cache under ("delta", m) with the representation it was built
    for, and served again only for that same object r (a new representation,
    even an equal one, is assembled afresh).  The result is shared, and so
    are the images _images reads off it: callers must not mutate either.
    """
    return _per_representation(a, ("delta", m), r, lambda: _assemble_delta(a, r, m))


def _per_representation(a, key, r, build):
    """a._cache[key] if it was built for the representation object r, else
    build() kept there for r."""
    cached = a._cache.get(key)
    if cached is not None and cached[0] is r:
        return cached[1]
    value = build()
    a._cache[key] = (r, value)
    return value


def _assemble_delta(a, r, m) -> Delta:
    """delta^m of (a, r) as for delta_operator, assembled over Z at about the
    cost of its entries.

    For an output input (x_1..x_{m+1}, z) the four terms are: (1) insert a
    wedge bracket [x_i, x_j]_alpha at slot j and drop slot i; (2) replace z
    by x_i . z and drop slot i; (3) act by rho(alpha^m(x_i)) on f without
    slot i; (4) the module action on f(x_1..x_m, -) of the components of
    x_{m+1} and alpha^m(z).  Each term is a table of (input offset, output
    offset, entry) per slot and parity of the wedges its sign passes, read
    at every m-tuple of f's wedges at computed offsets.  Terms 1 and 2, from
    the nonzero fb and ad, are read at the alpha-wedge expansion of each
    tuple and act on a V-block of f as the identity: one form per (x, z)
    block, written once for each v.  Terms 3 and 4 read one rho table
    (_rho_wedges) and carry the parity of f per input coordinate.  An entry
    or column that cancels to zero is deleted where it arises.

    Every table is an int table: those of _integer_tables (the bracket
    times b, alpha times d) and rho's columns times c.  Each term has degree
    1 in the bracket and rho entries and degree m(n-1) in alpha's, so with
    L = lcm(b, c), terms 1-2 taken L/b times and terms 3-4 L/c times, the
    columns are exactly s_m delta^m, s_m = L d^(m(n-1)).  For integral input
    b = c = d = 1 and no entry is rescaled.
    """
    cx = _integer_tables(a)
    rho, rho_scale = r.integer_columns
    lcm = math.lcm(cx.bracket_scale, rho_scale)
    scale = lcm * cx.alpha_scale ** (m * (a.arity - 1))
    k12, k34 = lcm // cx.bracket_scale, lcm // rho_scale
    acts = any(col for cols in rho for col in cols)
    if not cx.ads and not acts:
        return Delta({}, scale)  # no bracket and rho = 0: delta = 0
    W, D, DV = len(cx.wb), a.dim, r.target.dim
    DDV = D * DV
    wpar, p, pv = cx.wb.parities, a.parity, r.target.parity
    powers = [W**e for e in range(m + 2)]
    odd = (0, 1) if any(wpar) else (0,)  # the parities a run of wedges can have
    # the m-tuples k of wedges in flat order (f's V-block at (k, t) starts
    # at (k D + t) DV), the parities tails[k][i] of their slots i..m-1 and
    # their alpha-wedge expansions; then those of the (m-1)-tuples
    aw = [list(col.items()) for col in cx.alpha_wedge]
    tails, expansions = [[0]], [[(0, 1)]]
    short_tails, shorter = [], []
    for _ in range(m):
        short_tails, shorter = tails, expansions
        tails = [[x ^ wpar[w] for x in tail] + [0] for tail in tails for w in range(W)]
        expansions = [[(y * W + x, c * cw) for y, c in e for x, cw in aw[w]] for e in shorter for w in range(W)]

    def spread(k, i, digits):
        """The offset of the tuple k of wedges with a zero put in at slot i."""
        hi, lo = divmod(k, powers[digits - i])
        return hi * powers[digits - i + 1] + lo

    # terms 1 and 2: forms[in offset][out offset] from (table, out offset,
    # [(in offset, coeff)]) per tuple and slot
    reads = []
    inputs = [[(y * DDV, c) for y, c in e] for e in expansions]
    for i in range(m + 1):
        # term 2: the sign (-1)^(i+1), flipped for an odd x_i past odd slots
        s = k12 if i % 2 else -k12
        tables = [[(t * DV, (w * powers[m - i] * D + j) * DV, -s * c if wpar[w] and b else s * c) for w, j, ad in cx.ads for t, c in ad] for b in odd]
        reads += [(tables[tail[i]], spread(k, i, m) * DDV, inputs[k]) for k, tail in enumerate(tails)]
    for i, jj in itertools.combinations(range(m + 1), 2) if m and cx.fbs else ():
        # term 1: w1 at slot i and w2 at slot jj of the output, fb at slot
        # jj - 1 of f's, around the other m-1 slots k
        s = k12 if i % 2 else -k12
        tables = [
            [(x * powers[m - jj] * DDV + t * DV, (w1 * powers[m - i] + w2 * powers[m - jj]) * DDV + j * DV, -s * cf * c if wpar[w1] and b else s * cf * c)
             for w1, w2, fb in cx.fbs for x, cf in fb for j, col in enumerate(cx.alpha_cols) for t, c in col.items()]
            for b in odd
        ]
        for k, (tail, e) in enumerate(zip(short_tails, shorter)):
            out = spread(spread(k, i, m - 1), jj, m) * DDV
            reads.append((tables[tail[i] ^ tail[jj - 1]], out, [(spread(y, jj - 1, m - 1) * DDV, c) for y, c in e]))
    forms = {}
    for table, out, ins in reads:
        for inp, c in ins:
            for f, o, x in table:
                form = forms.get(inp + f)
                if form is None:
                    forms[inp + f] = {out + o: c * x}
                else:
                    form[out + o] = form.get(out + o, 0) + c * x
    columns = {}
    for off, form in forms.items():
        if 0 in form.values():
            form = _nonzero(form)
        if form:
            columns[off] = form
            for v in range(1, DV):
                columns[off + v] = {out + v: c for out, c in form.items()}
    if not acts:
        return Delta(columns, scale)  # rho = 0: no term 3 or 4

    # terms 3 and 4: tables [(in, out, c)] read at (k D DV, spread(k, i)),
    # term 4 with slot m, from _rho_wedges kept in a._cache by the rule of
    # delta_operator under the least k with alpha^k = alpha^m
    least = next(k for k in range(m + 1) if cx.alpha_pow(k) == cx.alpha_pow(m))
    acting, fourth = _per_representation(a, ("rho wedges", least), r, lambda: _rho_wedges(a, r, cx.alpha_pow(m)))
    s = -k34 if m % 2 else k34
    last = [(f, o, s * c) for f, o, c in fourth]

    def third(i, b):
        """Term 3 at slot i, b the parity of f's wedges from slot i on: the
        sign (-1)^i, flipped for an odd x_w and odd f's coordinate plus the
        wedges before slot i."""
        s = -k34 if i % 2 else k34
        return [
            (j * DV + u, (w * powers[m - i] * D + j) * DV + v, -s * c if wpar[w] and b ^ p[j] ^ pv[u] else s * c)
            for w, entries in acting for j in range(D) for u, v, c in entries
        ] + (last if i == m else [])

    tables = {}
    for k, tail in enumerate(tails):
        inp = k * DDV
        for i in range(m + 1):
            if (i, tail[i]) not in tables:
                tables[i, tail[i]] = third(i, tail[i])
            out = spread(k, i, m) * DDV
            for f, o, c in tables[i, tail[i]]:
                col = columns.get(inp + f)
                if col is None:
                    columns[inp + f] = {out + o: c}
                elif x := col.get(out + o, 0) + c:
                    col[out + o] = x
                else:
                    del col[out + o]
                    if not col:
                        del columns[inp + f]
    return Delta(columns, scale)


def _rho_wedges(a, r, apm) -> tuple:
    """(third, fourth): the tables of terms 3 and 4 of delta^m over Z, for
    alpha^m given by its columns apm.  Both read rho of the wedges of the
    parity parts of apm (code 2y + q for the part of parity q of alpha^m
    e_y), built once per sorted codes: for an even twist, rho(alpha^m-wedge)
    of each canonical tuple.  third is (w, [(u, v, c)]), rho(alpha^m x_w),
    where nonzero; fourth is term 4 over (-1)^m k34 as (in, out, c): slot i
    of x_{m+1} = w feeds f at (x_1..x_m, t_i), acted on by the other slots
    of w and alpha^m(z) = e_j with v in slot i: (-1)^(n-1-i) times the sign
    of their straightening and P on odd v when the parts after slot i are
    odd, flipped for odd slots of w before i and f's coordinate."""
    wb, p, pv, D, DV = _wedge(a), a.parity, r.target.parity, a.dim, r.target.dim
    rho, _ = r.integer_columns
    parts = {2 * y + q: part for y, col in enumerate(apm) for q in (0, 1) if (part := [(k, c) for k, c in col.items() if p[k] == q])}
    codes, code_parity = [[c for c in (2 * y, 2 * y + 1) if c in parts] for y in range(D)], (0, 1) * D
    tables, splits = {}, {}

    def split(ys):
        if ys not in splits:
            splits[ys] = []
            for choice in itertools.product(*(codes[y] for y in ys)):
                sign, key = straighten(choice, code_parity)
                if sign and key not in tables:
                    acted = _act(rho, multilinear([parts[c] for c in key], wb.sparse_value), DV)
                    tables[key] = [(u, v, c) for u, col in enumerate(acted) for v, c in col.items()]
                if sign and tables[key]:
                    splits[ys].append((choice, sign, tables[key]))
        return splits[ys]

    third = [(w, entries) for w, t in enumerate(wb.elements) if (entries := [(u, v, s * c) for _, s, table in split(t) for u, v, c in table])]
    # w without slot i -> (i, in and out offsets, the signs of an even and
    # of an odd v, this one before the parts after slot i)
    removals = {}
    for w, t in enumerate(wb.elements):
        prefix = 0
        for i, x in enumerate(t):
            s = -1 if (len(t) - i) % 2 else 1
            slot = (i, x * DV, w * D * DV, -s if prefix & p[x] else s, -s if prefix & (1 - p[x]) else s)
            removals.setdefault(t[:i] + t[i + 1 :], []).append(slot)
            prefix ^= p[x]
    fourth = []
    for others, slots in removals.items():
        for j in range(D):
            for choice, sign, table in split(others + (j,)):
                later = [sum(choice[i:]) % 2 for i in range(len(choice))]  # a code's parity is its last bit
                signs = [(f, o + j * DV, sign * even, -sign * odd if later[i] else sign * odd) for i, f, o, even, odd in slots]
                fourth += [(f + u, o + v, (odd if pv[u] else even) * c) for f, o, even, odd in signs for u, v, c in table]
    return third, fourth


def _images(columns: dict, vectors) -> list:
    """The operator given by its columns applied to each sparse raw vector:
    the sum of the columns of its nonzero entries, each times the entry.
    The image of a unit vector {k: 1} is column k itself, not a copy, so
    no caller may mutate an image."""
    out = []
    for vec in vectors:
        if len(vec) == 1 and 1 in vec.values():
            (k,) = vec
            out.append(columns.get(k, {}))
            continue
        image = {}
        for k, x in vec.items():
            if x:
                for o, c in columns.get(k, {}).items():
                    image[o] = image.get(o, 0) + c * x
        out.append({o: y for o, y in image.items() if y != 0})
    return out


def coboundary(a, r, f: Cochain, check=True) -> Cochain:
    """The degree-(m+1) coboundary of f: the columns of delta_operator
    applied to f, divided once by their scale.

    With check, f and the result must lie in the cochain spaces of f's parity.
    """
    if check and not satisfies_compat(a, r, f):
        raise NotACochain("input violates the twist compatibility or its declared parity")
    model_out = CochainModel(a, r, f.degree + 1)
    delta = delta_operator(a, r, f.degree)
    (image,) = _images(delta.columns, [f.vec])
    result = Cochain.from_sparse(model_out, f.parity, _monic(image, delta.scale))
    if check and not satisfies_compat(a, r, result):
        raise _failed_postcondition(a, r, "coboundary output violates compatibility")
    return result


def _failed_postcondition(a, r, message, where=""):
    """The error for a failed postcondition of the complex, which every
    Hom-Nambu-Lie superalgebra with a representation meets: NotACochain
    naming the first law that a or r breaks, with its witness, or
    InternalError when both pass (verified on this failure path only)."""
    import json

    for name, report in (("algebra", verify_algebra(a)), ("representation", verify_representation(r, a))):
        if not report.ok:
            check = report.failed_checks()[0]
            witness = json.dumps(check.witness, sort_keys=True)
            return NotACochain(f"{message}{where}; the {name} fails {check.name}: {witness}")
    return InternalError(f"{message} (internal error){where}")


def is_closed(a, r, f: Cochain) -> bool:
    """delta f = 0, from f's nonzero coefficients: no (m+1)-cochain is built,
    and for f = 0 not even delta."""
    return not f.vec or not _images(delta_operator(a, r, f.degree).columns, [f.vec])[0]


def delta_columns(a, r, cm: CochainBasis, cm1: CochainBasis) -> list:
    """delta^m from the basis cm of C^m to the basis cm1 of C^{m+1} as sparse
    columns: coordinates of the images under the columns of delta_operator,
    divided once by their scale.  An image outside C^{m+1} raises
    NotACochain."""
    delta = delta_operator(a, r, cm.model.m)
    return [_monic(cm1.coordinates(image), delta.scale) for image in _images(delta.columns, cm.vectors())]


def coboundary_matrix(a, r, m, parity="both") -> Matrix:
    """Exact matrix of delta^m: C^m -> C^{m+1} w.r.t. the cochain_basis bases."""
    cm1 = cochain_basis(a, r, m + 1, parity)
    return Matrix.from_columns(delta_columns(a, r, cochain_basis(a, r, m, parity), cm1), cm1.dim)


def delta_square_is_zero(a, r, m, parity="both") -> bool:
    """delta^{m+1} o delta^m = 0 on C^m, as a sparse product of the two operators.

    The columns of delta^m are applied to the basis of C^m and those of
    delta^{m+1} to the images, all on sparse raw coefficients; their scales
    change no zero test.  The same statement as coboundary_matrix(m+1) *
    coboundary_matrix(m) being the exact zero matrix, without building
    either dense matrix.
    """
    images = _images(delta_operator(a, r, m).columns, cochain_basis(a, r, m, parity).vectors())
    return not any(_images(delta_operator(a, r, m + 1).columns, images))


class CohomologyDims(tuple):
    """(dim Z^m, dim B^m, dim H^m); .basis is the basis of C^m it was computed on."""

    def __new__(cls, basis: CochainBasis, z: int, b: int):
        dims = super().__new__(cls, (z, b, z - b))
        dims.basis = basis
        return dims


def cohomology_dims(a, r, m, parity="both") -> CohomologyDims:
    """(dim Z^m, dim B^m, dim H^m); B^0 = 0 since there is no delta^{-1}.

    Builds C^m and, for m > 0, C^{m-1}, once each; C^{m+1} is never built.
    delta^m is applied to the basis of C^m and delta^{m-1} to that of
    C^{m-1}, in integers: each operator is taken as delta_operator's columns
    over Z, s_m delta^m, and each basis vector made primitive, which changes
    no rank, no zero test and no membership.  A unit basis cochain's image
    is its column of the operator, shared and never mutated.  Every image
    must satisfy the equations of the next cochain space, else NotACochain
    (_check_images: one offense pass per block of images packed into one
    integer vector; empty equations cost no pass).

    B^m is computed by clearing: each delta^{m-1} image is read in the
    primitive basis of C^m (its entries at the pivots of C^m's rref, each
    divided by the primitive scale there), the basis ordered by the length
    of its delta^m image, longest first.  _echelon of these coordinates has
    dim B^m pivots, at a set P of basis cochains; those outside P span a
    complement of B^m in C^m.  delta^m o delta^{m-1} = 0 is checked on the
    echelon's rows, a basis of B^m, as sums of the delta^m images (if a
    row fails, image by image, to name the first failing cochain).  As
    delta^m kills B^m, dim Z^m = dim C^m - the rank of the delta^m images
    outside P; those in P, which the order makes the longest, are never
    ranked.
    """
    cm = cochain_basis(a, r, m, parity)
    op = delta_operator(a, r, m).columns
    basis = [_primitive(vec) for vec in cm.vectors()]
    images = _images(op, basis)
    _check_images(a, r, m, parity, images)
    if m == 0:
        return CohomologyDims(cm, cm.dim - sparse_rank(images), 0)
    prev = cochain_basis(a, r, m - 1, parity)
    prev_images = _images(delta_operator(a, r, m - 1).columns, [_primitive(vec) for vec in prev.vectors()])
    _check_images(a, r, m - 1, parity, prev_images)
    order = sorted(range(cm.dim), key=lambda i: -len(images[i]))
    pivots = cm.space.pivots()
    at = {pivots[i]: (c, basis[i][pivots[i]]) for c, i in enumerate(order)}  # -> (column, primitive scale)
    coordinates = []
    for image in prev_images:
        row = {}
        for k, x in image.items():
            if k in at:
                c, s = at[k]
                row[c] = x if s == 1 else Fraction(x, s)
        coordinates.append(row)
    echelon = _echelon(coordinates)
    # B^m must sit inside Z^m: delta^m kills every row of the echelon
    if any(_images({c: images[i] for c, i in enumerate(order)}, echelon.values())):
        i, image = next((i, image) for i, image in enumerate(_images(op, prev_images)) if image)
        where = _witness(CochainModel(a, r, m + 1), m - 1, i, min(image))
        raise _failed_postcondition(a, r, "delta^2 != 0", f": {where}")
    cleared = {order[c] for c in echelon}
    z_dim = cm.dim - sparse_rank(image for i, image in enumerate(images) if i not in cleared)
    return CohomologyDims(cm, z_dim, len(echelon))


# The width in bits of one packed block of images in _check_images: a block
# holds max(1, PACK_BITS // X.bit_length()) images for the base X.  Packed
# ints grow with the block, so one unbounded block makes the check quadratic;
# CHANGES.md has the sweep (256 / 1 024 / 2 048 / 4 096 / unbounded) that
# chose it.
PACK_BITS = 2048


def _check_images(a, r, m, parity, images):
    """Every image of a basis cochain of C^m under delta^m lies in C^{m+1},
    else NotACochain naming the first failing cochain and its least
    offending raw coordinate (_compat_offenses).

    The images are integer vectors, checked a block at a time with one
    offense pass per block.  No offense of an image exceeds B, gain
    (_Equations.gain) times the largest |entry| of the images, so for
    X = 2B + 1 (_packing) the offenses of the packed block sum_i X^i v_i
    (linalg.kronecker_pack) hold those of its images as exact balanced
    base-X digits: the block passes if they are zero, and otherwise their
    least X-adic valuation names its first failing image and the least
    coordinate of that valuation the witness (linalg.first_nonzero_digit),
    as image by image.  Empty equations apply no map and nothing is
    packed: for both parities there is nothing to check, and for one each
    image's parities are scanned.
    """
    eq = _compat_equations(a, r, m + 1)
    offenses = _compat_offenses(a, r, m + 1, parity)
    first = None
    if eq.empty:
        first = next(((i, min(bad)) for i, image in enumerate(images) if (bad := offenses(image))), None)
    else:
        base, size = _packing(images, eq.gain)
        for start in range(0, len(images), size):
            found = first_nonzero_digit(offenses(kronecker_pack(images[start : start + size], base)), base)
            if found is not None:
                first = (start + found[0], found[1])
                break
    if first is not None:
        where = _witness(CochainModel(a, r, m + 1), m, *first)
        raise NotACochain(f"a delta^{m} image violates the compatibility equations of C^{m + 1}: {where}")


def _packing(images, gain) -> tuple:
    """(X, K): the base X = 2B + 1 for the bound B = gain * the largest
    |entry| of the images on all their offenses, and the number K of images
    in one packed block of at most about PACK_BITS bits."""
    bound = gain * max(1, max((abs(x) for image in images for x in image.values()), default=0))
    base = 2 * bound + 1
    return base, max(1, PACK_BITS // base.bit_length())


def _witness(model: CochainModel, m, i, flat) -> str:
    """Basis cochain i of C^m and the raw coordinate (x_1..x_k, z, v) of the
    model at a flat index, one-based; each x_i is a wedge of basis indices."""
    ws, z, v = model.coordinate(flat)
    x = [[k + 1 for k in model.wb.elements[w]] for w in ws]
    return f"basis cochain {i + 1} of C^{m}, coordinate x={x} z={z + 1} v={v + 1}"


def alternation_pairs(model: CochainModel, coords):
    """Super-alternation of 1-cochains across all n slots, one raw
    coordinate at a time: for each k in coords, every pair (k, partner,
    sign) with f[k] = sign * f[partner] for every super-alternating f.

    The block (x, z) holds the n-ary map at (x_1..x_{n-1}, z), which is its
    straightening sign times the map at the sorted tuple M; the block of M
    itself (M without its last index, then that index) represents the
    class.  A block is paired with its representative, the representative
    with every other block of its class (or with itself, sign 1, when it is
    alone), and a block whose M repeats an even index with itself, sign 0:
    it must vanish.  coords in ascending order straighten each V-block once.
    """
    wb, p, DV = model.wb, model.a.parity, model.DV
    block, partners = None, ()
    for k in coords:
        b, v = divmod(k, DV)
        if b != block:
            block = b
            w, j = divmod(b, model.D)
            sign, m = straighten(wb.elements[w] + (j,), p)
            rep = model.flat((wb.index[m[:-1]],), m[-1]) if sign else b * DV
            if not sign or rep != b * DV:
                partners = [(rep, sign)]
            else:
                others = [(i, m[: m.index(i)] + m[m.index(i) + 1 :]) for i in sorted(set(m) - {m[-1]})]
                partners = [
                    (model.flat((wb.index[rest],), i), straighten(rest + (i,), p)[0]) for i, rest in others
                ] or [(rep, 1)]
        for partner, sign in partners:
            yield k, partner + v, sign


def pair_rows(pairs) -> list:
    """The pairs (k, partner, sign) of alternation_pairs or
    tstar.cyclic_pairs over every coordinate as kernel rows f[k] - sign *
    f[partner] = 0.  Each relation is listed from both of its coordinates
    and written once, from the smaller; {k: 1} where f[k] must vanish."""
    rows = []
    for k, partner, sign in pairs:
        if k == partner:
            if sign != 1:
                rows.append({k: 1})
        elif k < partner:
            rows.append({k: 1, partner: -sign})
    return rows


def pairs_hold(pairs, vec: dict) -> bool:
    """f[k] = sign * f[partner] for every pair, on the sparse raw vector
    {flat: coeff} of f, the pairs read over its keys: each nonzero
    coordinate is visited with the coordinates it is paired with.  A broken
    relation has a nonzero side, and is listed from both of its sides, so
    none is missed."""
    return all(vec.get(k, 0) == sign * vec.get(partner, 0) for k, partner, sign in pairs)


def is_super_alternating(a, r, f: Cochain) -> bool:
    """f extends to a super-alternating map on all n slots: alternation_pairs
    read over the support of f, so f = 0 costs nothing."""
    model = CochainModel(a, r, 1)
    if f.model.raw_dim != model.raw_dim:
        raise DimensionMismatch("vector length does not match ambient dimension")
    return pairs_hold(alternation_pairs(model, sorted(f.vec)), f.vec)


def alternating_subspace(a, r) -> Subspace:
    """1-cochains that extend to super-alternating maps on all n slots: the
    kernel of alternation_pairs' rows over every raw coordinate.  Used to
    sample extension cocycles and T*-extension thetas."""
    model = CochainModel(a, r, 1)
    return sparse_kernel(pair_rows(alternation_pairs(model, range(model.raw_dim))), model.raw_dim)
