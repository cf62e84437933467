"""Fundamental objects, representations, cochains and the coboundary.

Wedge coordinates: a degree-(n-1) fundamental object is a vector over the
canonical wedge basis (nondecreasing tuples, no repeated even index),
stored sparsely as {position: coefficient}.  Cochains of degree m are
dense coefficient tensors over (wedge basis)^m x g x V with flat
indexing; evaluation on arbitrary arguments is multilinear expansion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

from .core import (
    GradedSpace,
    HomSuperAlgebra,
    Report,
    _canonical_tuples,
    is_even_map,
    straighten,
)
from .errors import ArityMismatch, DimensionMismatch, NotACochain
from .linalg import Matrix, Subspace, _primitive, sparse_kernel, sparse_rank


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


def wedge_basis(space: GradedSpace, degree: int) -> WedgeBasis:
    return WedgeBasis(space, degree)


def wedge_of_vectors(wb: WedgeBasis, vectors) -> dict:
    """Expand v_1 ^ ... ^ v_k (dense coordinate vectors) in wedge coordinates."""
    if len(vectors) != wb.degree:
        raise DimensionMismatch("wrong number of wedge factors")
    supports = []
    for v in vectors:
        s = [(i, c) for i, c in enumerate(v) if c != 0]
        if not s:
            return {}
        supports.append(s)
    out = {}
    for combo in itertools.product(*supports):
        coeff = 1
        for _, c in combo:
            coeff *= c
        sign, pos = wb.lookup(tuple(i for i, _ in combo))
        if sign == 0:
            continue
        out[pos] = out.get(pos, 0) + sign * coeff
    return {k: v for k, v in out.items() if v != 0}


@dataclass
class Representation:
    """rho on the wedge power plus the module twist nu on V."""

    target: GradedSpace
    rho: list  # Matrix per canonical wedge element
    nu: Matrix

    def matrix_of(self, coords: dict) -> Matrix:
        dv = self.target.dim
        out = Matrix.zeros(dv, dv)
        for w, c in coords.items():
            if c != 0:
                out = out + self.rho[w].scale(c)
        return out

    def act(self, coords: dict, v):
        """rho(coords) applied to a dense V-vector."""
        dv = self.target.dim
        out = [0] * dv
        for w, c in coords.items():
            if c == 0:
                continue
            piece = self.rho[w].apply(v)
            for k, x in enumerate(piece):
                if x != 0:
                    out[k] += c * x
        return out


def adjoint_rep(a: HomSuperAlgebra) -> Representation:
    wb = _wedge(a)
    mats = []
    for t in wb.elements:
        cols = [a.bracket_basis(t + (j,)) for j in range(a.dim)]
        mats.append(Matrix.from_rows(cols, cols=a.dim).transpose())
    return Representation(a.space, mats, a.alpha)


def _wedge(a: HomSuperAlgebra) -> WedgeBasis:
    key = ("wedge", a.arity - 1)
    if key not in a._cache:
        a._cache[key] = WedgeBasis(a.space, a.arity - 1)
    return a._cache[key]


def fundamental_bracket(a: HomSuperAlgebra, x_coords: dict, y_coords: dict) -> dict:
    """[x,y]_alpha on wedge coordinates, bilinear in both arguments."""
    cx = _complex_tables(a)
    out = {}
    for w1, c1 in x_coords.items():
        for w2, c2 in y_coords.items():
            c = c1 * c2
            if c == 0:
                continue
            for pos, val in cx.fb(w1, w2).items():
                out[pos] = out.get(pos, 0) + c * val
    return {k: v for k, v in out.items() if v != 0}


class _Tables:
    """Per-algebra caches for the wedge calculus (independent of any rep)."""

    def __init__(self, a: HomSuperAlgebra):
        self.a = a
        self.wb = _wedge(a)
        self._fb = {}
        self._ad = {}
        self._alpha_pow_wedge = {}
        self._alpha_pow_mat = {0: Matrix.identity(a.dim)}
        self.alpha_cols = _sparse_columns(a.alpha)

    def alpha_pow(self, m) -> Matrix:
        while m not in self._alpha_pow_mat:
            k = max(self._alpha_pow_mat)
            self._alpha_pow_mat[k + 1] = self.a.alpha * self._alpha_pow_mat[k]
        return self._alpha_pow_mat[m]

    def alpha_wedge(self):
        return self.alpha_pow_wedge(1)

    def alpha_pow_wedge(self, m):
        if m not in self._alpha_pow_wedge:
            mat = self.alpha_pow(m)
            cols = [mat.col(j) for j in range(self.a.dim)]
            self._alpha_pow_wedge[m] = [
                wedge_of_vectors(self.wb, [cols[i] for i in t]) for t in self.wb.elements
            ]
        return self._alpha_pow_wedge[m]

    def ad(self, w, j) -> dict:
        """x_w . e_j as a sparse g-vector."""
        key = (w, j)
        if key not in self._ad:
            vec = self.a.bracket_basis(self.wb.elements[w] + (j,))
            self._ad[key] = {i: c for i, c in enumerate(vec) if c != 0}
        return self._ad[key]

    def fb(self, w1, w2) -> dict:
        """Fundamental bracket of two basis wedges, in wedge coordinates."""
        key = (w1, w2)
        if key not in self._fb:
            a, wb = self.a, self.wb
            xt = wb.elements[w1]
            yt = wb.elements[w2]
            px = wb.parity(w1)
            alpha_cols = [a.alpha_column(j) for j in range(a.dim)]
            out = {}
            prefix = 0
            for i in range(len(yt)):
                sign = -1 if (px == 1 and prefix == 1) else 1
                mid = a.bracket_basis(xt + (yt[i],))
                vecs = [alpha_cols[yt[k]] for k in range(i)] + [mid] + [
                    alpha_cols[yt[k]] for k in range(i + 1, len(yt))
                ]
                for pos, val in wedge_of_vectors(wb, vecs).items():
                    out[pos] = out.get(pos, 0) + sign * val
                prefix = (prefix + a.parity[yt[i]]) % 2
            self._fb[key] = {k: v for k, v in out.items() if v != 0}
        return self._fb[key]


def _sparse_columns(mat: Matrix) -> list:
    """Columns of a matrix as sparse vectors {row: entry}."""
    return [{i: c for i, c in enumerate(mat.col(j)) if c != 0} for j in range(mat.cols)]


def _complex_tables(a: HomSuperAlgebra) -> _Tables:
    if "tables" not in a._cache:
        a._cache["tables"] = _Tables(a)
    return a._cache["tables"]


def module_bracket(a: HomSuperAlgebra, r: Representation, slots) -> list:
    """Bracket with module entries: n slots tagged ('g', vec) or ('v', vec).

    Two V-slots give 0 by definition; exactly one V-slot is moved to the
    last position with straightening signs and then rho is applied.
    """
    if len(slots) != a.arity:
        raise ArityMismatch(f"expected {a.arity} slots")
    v_positions = [i for i, (tag, _) in enumerate(slots) if tag == "v"]
    dv = r.target.dim
    if len(v_positions) > 2:
        raise ArityMismatch("more than two module slots")
    if len(v_positions) == 2:
        return [0] * dv
    if not v_positions:
        raise ArityMismatch("module_bracket needs at least one module slot")
    pos = v_positions[0]
    v_vec = slots[pos][1]
    g_vecs = [vec for tag, vec in slots if tag == "g"]
    n_after = len(slots) - 1 - pos  # g-slots passed when moving V to the end
    wb = _wedge(a)
    p = a.parity
    pv_of = r.target.parity

    g_supports = []
    for vec in g_vecs:
        s = [(i, c) for i, c in enumerate(vec) if c != 0]
        if not s:
            return [0] * dv
        g_supports.append(s)
    v_support = [(i, c) for i, c in enumerate(v_vec) if c != 0]
    out = [0] * dv
    for combo in itertools.product(*g_supports):
        idx = tuple(i for i, _ in combo)
        coeff = 1
        for _, c in combo:
            coeff *= c
        sign_w, w = wb.lookup(idx)
        if sign_w == 0:
            continue
        passed_parity = sum(p[i] for i in idx[pos:]) % 2  # g-slots after V
        for vi, cv in v_support:
            pv = pv_of[vi]
            swap_sign = (-1) ** n_after
            if pv == 1 and passed_parity == 1:
                swap_sign = -swap_sign
            c_all = coeff * cv * sign_w * swap_sign
            col = r.rho[w].col(vi)
            for k, x in enumerate(col):
                if x != 0:
                    out[k] += c_all * x
    return out


def verify_representation(r: Representation, a: HomSuperAlgebra) -> Report:
    """The grading, binary and n-ary action laws as exact matrix identities."""
    wb = _wedge(a)
    dv = r.target.dim
    if len(r.rho) != len(wb):
        raise DimensionMismatch("rho must assign a matrix to every wedge element")
    report = Report()

    pv = r.target.parity
    witness = next((
        {"wedge": [k + 1 for k in wb.elements[w]], "i": i + 1, "j": j + 1}
        for w, mat in enumerate(r.rho)
        for i in range(dv)
        for j in range(dv)
        if mat[i, j] != 0 and pv[i] != (pv[j] + wb.parity(w)) % 2
    ), None)
    graded = witness is None and is_even_map(r.nu, pv, pv)
    report.add("grading", graded, witness)

    cx = _complex_tables(a)
    aw = cx.alpha_wedge()
    report.add_first("hom-jacobi", _rep_jacobi_witnesses(r, wb, cx, aw))
    report.add_first("n-ary-compatibility", _rep_nary_witnesses(r, a, graded and a.alpha_is_even()))

    # nu o rho(x) = rho(alpha x) o nu: what makes g (+) V with the block
    # twist a *multiplicative* algebra, and what the coboundary needs to
    # stay inside the compatibility subspace; adjoint actions satisfy it
    # automatically by multiplicativity
    report.add_first("twist-equivariance", (
        {"wedge": [k + 1 for k in wb.elements[w]]}
        for w in range(len(wb))
        if r.nu * r.rho[w] != r.matrix_of(aw[w]) * r.nu
    ))
    return report


def _rep_jacobi_witnesses(r: Representation, wb, cx, aw):
    for w1 in range(len(wb)):
        m1 = r.matrix_of(aw[w1])
        for w2 in range(len(wb)):
            lhs = m1 * r.rho[w2]
            sgn = -1 if (wb.parity(w1) == 1 and wb.parity(w2) == 1) else 1
            rhs = (r.matrix_of(aw[w2]) * r.rho[w1]).scale(sgn) + r.matrix_of(cx.fb(w1, w2)) * r.nu
            if lhs != rhs:
                yield {"x": [k + 1 for k in wb.elements[w1]], "y": [k + 1 for k in wb.elements[w2]]}


def _rep_nary_witnesses(r: Representation, a: HomSuperAlgebra, canonical: bool):
    """Where the n-ary action law fails: canonical x-tuples, basis y-tuples.

    With ``canonical`` (alpha even, the grading check passed) both sides are
    super-skew in y, so canonical y-tuples give the same verdict and the same
    first witness; otherwise every basis y-tuple is swept.
    """
    n = a.arity
    p = a.parity
    wb = _wedge(a)
    alpha_cols = [a.alpha_column(j) for j in range(a.dim)]
    if canonical:
        y_tuples = list(_canonical_tuples(a.space, n))
    else:
        y_tuples = list(itertools.product(range(a.dim), repeat=n))
    for xs in _canonical_tuples(a.space, n - 2):
        px = a.space.parity_of_indices(xs)
        x_alpha = [alpha_cols[i] for i in xs]
        for ys in y_tuples:
            py_total = sum(p[i] for i in ys) % 2
            inner = a.bracket_basis(ys)
            lhs = r.matrix_of(wedge_of_vectors(wb, x_alpha + [inner])) * r.nu
            rhs = Matrix.zeros(r.target.dim, r.target.dim)
            for i in range(n):
                sgn = (-1) ** (n - 1 - i)
                if px == 1 and (py_total + p[ys[i]]) % 2 == 1:
                    sgn = -sgn
                suffix = sum(p[ys[k]] for k in range(i + 1, n)) % 2
                if p[ys[i]] == 1 and suffix == 1:
                    sgn = -sgn
                hat = [alpha_cols[ys[k]] for k in range(n) if k != i]
                sign_w, w_small = wb.lookup(xs + (ys[i],))
                if sign_w == 0:
                    continue
                term = r.matrix_of(wedge_of_vectors(wb, hat)) * r.rho[w_small]
                rhs = rhs + term.scale(sgn * sign_w)
            if lhs != rhs:
                yield {"x": [k + 1 for k in xs], "y": [k + 1 for k in ys]}


def verify_prop_2_2(a: HomSuperAlgebra) -> Report:
    """The three derived identities of the fundamental-object calculus;
    they are theorems for valid algebras, so this is a sign-machinery oracle."""
    report = Report()
    wb = _wedge(a)
    cx = _complex_tables(a)
    r = adjoint_rep(a)
    aw = cx.alpha_wedge()
    alpha_cols = [a.alpha_column(j) for j in range(a.dim)]
    units = [a.basis_vector(z) for z in range(a.dim)]
    pairs = [
        (w1, w2, -1 if (wb.parity(w1) == 1 and wb.parity(w2) == 1) else 1)
        for w1 in range(len(wb))
        for w2 in range(len(wb))
    ]

    def action_identity(w1, w2, sgn, z):
        lhs = r.act(aw[w1], r.act({w2: 1}, units[z]))
        rhs1 = r.act(aw[w2], r.act({w1: 1}, units[z]))
        rhs2 = r.act(cx.fb(w1, w2), alpha_cols[z])
        return lhs == [sgn * x + y for x, y in zip(rhs1, rhs2)]

    def wedge_jacobi(w1, w2, sgn, w3):
        rhs = dict(fundamental_bracket(a, cx.fb(w1, w2), aw[w3]))
        for k, v in fundamental_bracket(a, aw[w2], cx.fb(w1, w3)).items():
            rhs[k] = rhs.get(k, 0) + sgn * v
        return fundamental_bracket(a, aw[w1], cx.fb(w2, w3)) == {k: v for k, v in rhs.items() if v != 0}

    def bracket_skew(w1, w2, sgn, z):
        return r.act(cx.fb(w1, w2), alpha_cols[z]) == [-sgn * c for c in r.act(cx.fb(w2, w1), alpha_cols[z])]

    report.add_first("action-identity", (
        {"x": w1, "y": w2, "z": z + 1}
        for w1, w2, sgn in pairs
        for z in range(a.dim)
        if not action_identity(w1, w2, sgn, z)
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
        for z in range(a.dim)
        if not bracket_skew(w1, w2, sgn, z)
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

    def input_tuples(self):
        return itertools.product(
            itertools.product(range(self.W), repeat=self.m), range(self.D)
        )

    def input_parity(self, ws, j):
        p = sum(self.wb.parity(w) for w in ws) + self.a.parity[j]
        return p % 2

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
    """Degree-m cochain: parity-homogeneous coefficient tensor."""

    def __init__(self, model: CochainModel, parity: int, coeffs):
        if len(coeffs) != model.raw_dim:
            raise DimensionMismatch("coefficient vector has wrong length")
        self.model = model
        self.degree = model.m
        self.parity = parity
        self.coeffs = list(coeffs)

    @classmethod
    def zero(cls, model, parity=0):
        return cls(model, parity, [0] * model.raw_dim)

    @classmethod
    def from_entries(cls, model, parity, entries):
        """entries: {(wedge positions tuple, g index): V-vector}"""
        coeffs = [0] * model.raw_dim
        for (ws, j), vec in entries.items():
            base = model.flat(tuple(ws), j)
            for v, c in enumerate(vec):
                coeffs[base + v] = c
        return cls(model, parity, coeffs)

    def value(self, ws, j):
        base = self.model.flat(ws, j)
        return self.coeffs[base : base + self.model.DV]

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs


def cochain_parity_of_vector(model: CochainModel, vec):
    """Infer the parity of a raw coefficient vector; None for 0, error if mixed."""
    parities = {p for x, p in zip(vec, model.parities) if x != 0}
    if len(parities) > 1:
        raise NotACochain("coefficient vector mixes parities")
    return parities.pop() if parities else None


def satisfies_compat(a, r, f: Cochain) -> bool:
    """Membership of f in C^m(g, V) of its declared parity: nu o f(x_1..x_m, z)
    = f(alpha x_1,...,alpha x_m, alpha z) and no coordinate of the other parity."""
    return compat_test(a, r, f.degree, f.parity)({k: x for k, x in enumerate(f.coeffs) if x != 0})


class _Equations(NamedTuple):
    model: CochainModel
    nu_rows: list
    twisted: Callable
    defect: Callable


def _compat_equations(a, r, k) -> _Equations:
    """The defining equations of C^k(g, V), nu o F = F o (alpha^wedge x ... x
    alpha^wedge x alpha) for a raw vector F, and their only encoding.

    A map L on one slot is given by its rows: row u lists (x, L[u][x]), so the
    entry of F at digit u feeds digit x of F o L.  nu_rows is nu o F on the V
    slot, twisted(F) is F o (alpha^wedge, ..., alpha), applied one slot at a
    time, and defect(F) is their difference with zeros dropped.  alpha^wedge,
    alpha and nu are scaled to integers so that both sides carry the same
    factor d_wedge^k * d_alpha * d_nu.  The model's parities give the parity
    of each raw coordinate.
    """
    model = CochainModel(a, r, k)
    W, D, DV = model.W, model.D, model.DV
    cx = _complex_tables(a)
    wedge_rows, d_wedge = _integral_rows(cx.alpha_wedge(), W)
    alpha_rows, d_alpha = _integral_rows(cx.alpha_cols, D)
    # nu o F acts on the V slot as F o nu^T would
    nu_rows, d_nu = _integral_rows(_sparse_columns(r.nu.transpose()), DV)
    nu_rows = [[(u, c * d_wedge**k * d_alpha) for u, c in row] for row in nu_rows]
    slots = [(W ** (k - 1 - s) * D * DV, W, wedge_rows) for s in range(k)]
    slots.append((DV, D, [[(j, c * d_nu) for j, c in row] for row in alpha_rows]))

    def twisted(vec):
        for slot in slots:
            vec = _apply_slot(vec, *slot)
        return vec

    def defect(vec):
        lhs = _apply_slot(vec, 1, DV, nu_rows)
        for flat, x in twisted(vec).items():
            lhs[flat] = lhs.get(flat, 0) - x
        return {flat: x for flat, x in lhs.items() if x != 0}

    return _Equations(model, nu_rows, twisted, defect)


def compat_test(a, r, k, parity="both"):
    """Membership in C^k(g, V) of the given parity by its defining equations
    (_compat_equations), without a basis of C^k: a predicate on sparse raw
    vectors {flat: coeff}.

    A vector F passes if it is zero at every coordinate of an unwanted parity
    and each parity part of F satisfies the equations at the coordinates of
    its own parity, the rule cochain_basis uses; for an even twist the
    defect of a part has no other coordinates.  The same predicate as
    membership in cochain_basis(a, r, k, parity).
    """
    eq = _compat_equations(a, r, k)
    parities = eq.model.parities
    parts = _parity_filter(parity)

    def holds(vec) -> bool:
        if any(parities[flat] not in parts for flat in vec):
            return False
        for p in parts:
            part = {flat: x for flat, x in vec.items() if parities[flat] == p}
            if any(parities[flat] == p for flat in eq.defect(part)):
                return False
        return True

    return holds


def _integral_rows(cols, size):
    """The rows of a map given by sparse columns {row: entry}, as lists of
    (column, entry), scaled by the common denominator d; returns (rows, d)."""
    d = math.lcm(*(x.denominator for col in cols for x in col.values()))
    rows = [[] for _ in range(size)]
    for x, col in enumerate(cols):
        for u, c in col.items():
            rows[u].append((x, c.numerator * (d // c.denominator)))
    return rows, d


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

    def cochains(self):
        model = self.model
        for pivot, vec in zip(self.space.pivots(), self.space.sparse_rows):
            coeffs = [0] * model.raw_dim
            for k, x in vec.items():
                coeffs[k] = x
            yield Cochain(model, model.parities[pivot], coeffs)

    def vectors(self) -> list:
        """The basis as sparse raw vectors {flat: coefficient}."""
        return self.space.sparse_rows

    def coordinates(self, raw: dict) -> dict:
        """Sparse coordinates of a sparse raw vector, with an exact residual
        check: NotACochain if the vector is outside C^m."""
        return self.space.coordinates(raw)

    def represent(self, raw):
        """Dense coordinates of a dense raw vector (see coordinates)."""
        coords = self.coordinates(dict(enumerate(raw)))
        return [coords.get(i, 0) for i in range(self.dim)]

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
    has one term and the kernel is spanned by unit vectors.
    """
    eq = _compat_equations(a, r, m)
    model = eq.model
    parities = model.parities
    parts = _parity_filter(parity)
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


def cochain_space(a, r, m, parity="both") -> Subspace:
    """Basis of C^m(g, V): the twist-compatibility subspace, by parity.

    Returned as a Subspace of the raw coefficient space; basis vectors are
    parity-homogeneous.
    """
    return cochain_basis(a, r, m, parity).to_subspace()


def _linear_expansion(model, wedge_args, z_arg):
    """f(A_1,...,A_m, Z) as a linear form in the raw coefficients of f.

    Wedge args are {pos: coeff}, Z is {index: coeff}.  Returns pairs
    (offset, c) with f(args)[v] = sum of c * f.coeffs[offset + v].
    """
    W, D, DV = model.W, model.D, model.DV
    prefixes = [(0, 1)]
    for arg in wedge_args:
        new = []
        for off, c in prefixes:
            base = off * W
            for w, cw in arg.items():
                new.append((base + w, c * cw))
        prefixes = new
    out = []
    for off, c in prefixes:
        base = off * D
        for j, cz in z_arg.items():
            out.append(((base + j) * DV, c * cz))
    return out


# ---------------------------------------------------------------------------
# the coboundary as one sparse operator


def delta_operator(a, r, m) -> dict:
    """delta^m on raw coefficients: {out_flat: {in_flat: coeff}}, nonzero rows only.

    One sweep over the output inputs (x_1..x_{m+1}, z) emits, per output
    coordinate, the linear form in f of the four terms: (1) insert a wedge
    bracket [x_i, x_j]_alpha at slot j and drop slot i; (2) replace z by
    x_i . z and drop slot i; (3) act by rho(alpha^m(x_i)) on f without
    slot i; (4) the module bracket of f(x_1..x_m, -) against the
    components of x_{m+1} and alpha^m(z).  Terms 3 and 4 carry the parity
    of f, taken per input coordinate, so every parity-homogeneous cochain
    is mapped with its own sign.
    """
    model_in = CochainModel(a, r, m)
    model_out = CochainModel(a, r, m + 1)
    cx = _complex_tables(a)
    wb = cx.wb
    aw = cx.alpha_wedge()
    apm = cx.alpha_pow(m)
    rho_apw = [_sparse_columns(r.matrix_of(coords)) for coords in cx.alpha_pow_wedge(m)]
    DV = model_out.DV
    pv = r.target.parity
    # term 4 depends on f only through one V-block: module brackets of unit
    # V-vectors, keyed by (x_{m+1}, z, slot of the V-vector, unit)
    brackets = {}
    for w, t in enumerate(wb.elements):
        for j, i, u in itertools.product(range(a.dim), range(len(t)), range(DV)):
            unit = [1 if v == u else 0 for v in range(DV)]
            slots = [("v", unit) if k == i else ("g", apm.col(x)) for k, x in enumerate(t)]
            val = module_bracket(a, r, slots + [("g", apm.col(j))])
            brackets[w, j, i, u] = {v: c for v, c in enumerate(val) if c != 0}

    rows = {}
    for ws, j in model_out.input_tuples():
        wpar = [wb.parity(w) for w in ws]
        # terms 1 and 2 do not depend on the parity of f: one linear form on
        # V-blocks of f, shared by every output coordinate v
        form = {}
        for i in range(m + 1):
            terms = []
            ad = cx.ad(ws[i], j)
            if ad:
                sgn = -1 if wpar[i] == 1 and sum(wpar[i + 1 :]) % 2 == 1 else 1
                terms.append((sgn, [aw[ws[k]] for k in range(m + 1) if k != i], ad))
            for jj in range(i + 1, m + 1):
                fb = cx.fb(ws[i], ws[jj])
                if fb:
                    sgn = -1 if wpar[i] == 1 and sum(wpar[i + 1 : jj]) % 2 == 1 else 1
                    args = [(fb if k == jj else aw[ws[k]]) for k in range(m + 1) if k != i]
                    terms.append((sgn, args, cx.alpha_cols[j]))
            for sgn, args, z in terms:
                for off, c in _linear_expansion(model_in, args, z):
                    form[off] = form.get(off, 0) + (-1) ** (i + 1) * sgn * c
        block = [{off + v: c for off, c in form.items()} for v in range(DV)]

        # terms 3 and 4 each act on one V-block of f, the one at (rest, t):
        # the sign is (-1)^i, flipped when the acting slot is odd and so is
        # f's coordinate plus the wedge parity before it; columns[u] is the
        # image of the unit V-vector u
        acting = []
        for i in range(m + 1):
            rest = tuple(ws[k] for k in range(m + 1) if k != i)
            acting.append((rest, j, i, sum(wpar[:i]), wpar[i], rho_apw[ws[i]]))
        prefix = 0
        for i, t in enumerate(wb.elements[ws[m]]):
            mbs = [brackets[ws[m], j, i, u] for u in range(DV)]
            acting.append((ws[:m], t, m, sum(wpar[:m]), prefix, mbs))
            prefix = (prefix + a.parity[t]) % 2
        for rest, t, i, before, odd, columns in acting:
            base = model_in.flat(rest, t)
            lead = model_in.input_parity(rest, t) + before
            for u, column in enumerate(columns):
                sgn = (-1) ** i
                if odd == 1 and (lead + pv[u]) % 2 == 1:
                    sgn = -sgn
                for v, c in column.items():
                    block[v][base + u] = block[v].get(base + u, 0) + sgn * c

        out_base = model_out.flat(ws, j)
        for v, row in enumerate(block):
            row = {k: c for k, c in row.items() if c != 0}
            if row:
                rows[out_base + v] = row
    return rows


def _images(rows: dict, vectors) -> list:
    """The operator applied to each sparse raw vector, in one pass over its rows."""
    holders = {}
    for i, vec in enumerate(vectors):
        for k, x in vec.items():
            holders.setdefault(k, []).append((i, x))
    out = [{} for _ in vectors]
    for o, row in rows.items():
        for k, c in row.items():
            for i, x in holders.get(k, ()):
                out[i][o] = out[i].get(o, 0) + c * x
    return [{k: x for k, x in img.items() if x != 0} for img in out]


def coboundary(a, r, f: Cochain, check=True) -> Cochain:
    """The degree-(m+1) coboundary of f: delta_operator applied to f.

    With check, f and the result must lie in the cochain spaces of f's parity.
    """
    if check and not satisfies_compat(a, r, f):
        raise NotACochain("input violates the twist compatibility or its declared parity")
    model_out = CochainModel(a, r, f.degree + 1)
    (image,) = _images(delta_operator(a, r, f.degree), [dict(enumerate(f.coeffs))])
    result = Cochain(model_out, f.parity, [image.get(k, 0) for k in range(model_out.raw_dim)])
    if check and not satisfies_compat(a, r, result):
        raise NotACochain("coboundary output violates compatibility (internal error)")
    return result


def delta_matrix(a, r, cm: CochainBasis, cm1: CochainBasis) -> Matrix:
    """Exact matrix of delta^m from the basis cm of C^m to the basis cm1 of
    C^{m+1}.  An image outside C^{m+1} raises NotACochain."""
    images = _images(delta_operator(a, r, cm.model.m), cm.vectors())
    data = [0] * (cm1.dim * cm.dim)
    for j, image in enumerate(images):
        for i, x in cm1.coordinates(image).items():
            data[i * cm.dim + j] = x
    return Matrix(cm1.dim, cm.dim, data)


def coboundary_matrix(a, r, m, parity="both") -> Matrix:
    """Exact matrix of delta^m: C^m -> C^{m+1} w.r.t. the cochain_space bases."""
    return delta_matrix(a, r, cochain_basis(a, r, m, parity), cochain_basis(a, r, m + 1, parity))


def delta_square_is_zero(a, r, m, parity="both") -> bool:
    """delta^{m+1} o delta^m = 0 on C^m, as a sparse product of the two operators.

    delta^m is applied to the basis of C^m and delta^{m+1} to those images,
    all on sparse raw coefficients; the same statement as
    coboundary_matrix(m+1) * coboundary_matrix(m) being the exact zero
    matrix, without building either dense matrix.
    """
    images = _images(delta_operator(a, r, m), cochain_basis(a, r, m, parity).vectors())
    return not any(_images(delta_operator(a, r, m + 1), images))


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
    C^{m-1}, in integers: each operator is scaled by one common denominator
    and each basis vector made primitive, which changes no rank, no zero
    test and no membership.  Every image must satisfy the equations of the
    next cochain space (compat_test), else NotACochain.  dim Z^m = dim C^m -
    rank delta^m and dim B^m = rank delta^{m-1}, both by the sparse
    fraction-free rank of the raw images; delta^m o delta^{m-1} = 0 is
    checked on the images.
    """
    cm = cochain_basis(a, r, m, parity)
    op = _integral(delta_operator(a, r, m))
    images = _images(op, [_primitive(vec) for vec in cm.vectors()])
    _check_images(compat_test(a, r, m + 1, parity), images, m)
    z_dim = cm.dim - sparse_rank(images)
    b_dim = 0
    if m > 0:
        prev = cochain_basis(a, r, m - 1, parity)
        prev_images = _images(_integral(delta_operator(a, r, m - 1)), [_primitive(vec) for vec in prev.vectors()])
        _check_images(compat_test(a, r, m, parity), prev_images, m - 1)
        b_dim = sparse_rank(prev_images)
        # B^m must sit inside Z^m: delta^m kills every image of delta^{m-1}
        if any(_images(op, prev_images)):
            raise NotACochain("delta^2 != 0 (internal error)")
    return CohomologyDims(cm, z_dim, b_dim)


def _integral(op: dict) -> dict:
    """A sparse operator scaled by the common denominator of its entries."""
    d = math.lcm(*(x.denominator for row in op.values() for x in row.values()))
    return {o: {k: x.numerator * (d // x.denominator) for k, x in row.items()} for o, row in op.items()}


def _check_images(holds, images, m):
    for image in images:
        if not holds(image):
            raise NotACochain(f"a delta^{m} image violates the compatibility equations of C^{m + 1}")


def alternating_subspace(a, r) -> Subspace:
    """1-cochains that extend to super-alternating maps on all n slots.

    The wedge block already alternates; this imposes the boundary swap
    between the last wedge slot and the final g slot, which generates full
    alternation.  Used for extension cocycles and T*-extension thetas.
    """
    model = CochainModel(a, r, 1)
    wb = model.wb
    p = a.parity
    rows = []
    seen = set()
    for (w,), j in model.input_tuples():
        t = wb.elements[w]
        last = t[-1]
        sgn_swap = -1 if not (p[last] == 1 and p[j] == 1) else 1
        # f(t, j) = sgn_swap * s * f(canon(t[:-1] + (j,)), last)
        s, canon = straighten(t[:-1] + (j,), p)
        key = (w, j)
        if key in seen:
            continue
        if s == 0:
            rows.extend({model.flat((w,), j) + v: 1} for v in range(model.DV))
            seen.add(key)
            continue
        w2 = wb.index[canon]
        j2 = last
        seen.add(key)
        seen.add((w2, j2))
        if (w2, j2) == (w, j):
            if sgn_swap * s == 1:
                continue
            rows.extend({model.flat((w,), j) + v: 1} for v in range(model.DV))
            continue
        for v in range(model.DV):
            rows.append({model.flat((w,), j) + v: 1, model.flat((w2,), j2) + v: -sgn_swap * s})
    return sparse_kernel(rows, model.raw_dim)
