"""Z2-graded algebra data model.

A HomSuperAlgebra is (graded space, n-ary structure tensor, even twist
map).  Brackets are stored only on canonical index tuples; evaluation
anywhere else goes through the straightening sign of the super-exterior
algebra.  Axioms are checked on basis tuples, which is complete by
multilinearity, and on canonical tuples only wherever the checked identity
is super-skew in a block of slots: permuting that block then changes both
sides by the same sign (a repeated even index makes both vanish), so the
verdict and the lex-first witness stay those of the full sweep.  The
fundamental identity is super-skew in its x- and y-blocks only for an even
twist and homogeneous entries; when either check fails it sweeps every
basis tuple.  Super skew-symmetry itself, which tests ``straighten``,
always sees every tuple.

One loop, ``multilinear``, expands sparse (index, coeff) arguments over
basis tuples.  Every bracket of vectors is one call of it, the kernel
``StructureTensor.sparse_bracket`` (``bracket_eval`` is its dense wrapper),
and so are the wedges and the fundamental bracket of ``nambu.cohomology``.
The axiom and ideal checks run on the kernel and on sparse columns, with no
dense vector until a witness is reported: super skew-symmetry, the
fundamental identity, multiplicativity and the bracket check of
``verify_morphism``, invariance of a form, ``is_hom_ideal`` and both kinds
of ``series``.  The fundamental identity, invariance and the bracket
checks visit only the tuples where a term can be nonzero, read off the
stored keys and the supports of the maps applied (``_Places``), in the lex
order of the full sweep: a skipped tuple is 0 = 0, so the verdict and the
first witness are those of the sweep.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import (
    ArityMismatch,
    DimensionMismatch,
    EndomorphismCheckFailed,
    IndexOutOfRange,
    NonGradedSubspace,
    NotAnIdeal,
    ensure,
)
from .linalg import (
    Matrix,
    Subspace,
    block_diagonal,
    format_scalar,
    rank,
    sparse_columns,
    sparse_left_inverse,
)


@dataclass(frozen=True)
class GradedSpace:
    """A Z2-graded vector space given by a parity per basis vector."""

    dim: int
    parity: tuple

    def __post_init__(self):
        if len(self.parity) != self.dim:
            raise DimensionMismatch("parity vector length must equal dim")
        if any(p not in (0, 1) for p in self.parity):
            raise ValueError("parities must be 0 or 1")

    def parity_of_indices(self, indices):
        return sum(self.parity[i] for i in indices) % 2


def straighten(indices, parity):
    """Sort an index tuple into canonical (nondecreasing) order.

    Each adjacent transposition of slots with parities p, q contributes the
    factor -(-1)^{pq}; a repeated even index makes the wedge vanish.
    Returns (sign, canonical tuple) with sign in {-1, 0, +1}.
    """
    for i in indices:
        if not 0 <= i < len(parity):
            raise IndexOutOfRange(f"basis index {i} out of range")
    idx = list(indices)
    sign = 1
    # insertion sort; the number of adjacent swaps is what matters, not speed
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            a, b = idx[j - 1], idx[j]
            if parity[a] == 1 and parity[b] == 1:
                sign = sign  # odd-odd swap: -(-1)^{1*1} = +1
            else:
                sign = -sign
            idx[j - 1], idx[j] = b, a
            j -= 1
    for k in range(1, len(idx)):
        if idx[k] == idx[k - 1] and parity[idx[k]] == 0:
            return 0, tuple(idx)
    return sign, tuple(idx)


def is_canonical(indices, parity):
    sign, canon = straighten(indices, parity)
    return sign == 1 and canon == tuple(indices)


def multilinear(args, value) -> dict:
    """The one expansion loop: a multilinear map on arguments given by their
    nonzero (index, coeff) pairs, from ``value``, which maps a tuple of basis
    indices to its signed (coordinate, value) pairs.  Returns {coordinate:
    value}, zeros dropped; an argument with no pairs gives {} at no cost."""
    out = {}
    for combo in itertools.product(*args):
        indices, coeffs = zip(*combo)
        val = value(indices)
        if val:
            coeff = math.prod(coeffs)
            for k, c in val:
                out[k] = out.get(k, 0) + coeff * c
    return _nonzero(out)


class StructureTensor:
    """Sparse n-ary structure constants on canonical index tuples.

    ``entries`` maps a canonical tuple to the output coordinate vector.
    ``strict`` enforces parity homogeneity of every entry; raw tensors
    (strict=False) may represent counterexamples.
    """

    def __init__(self, arity: int, space: GradedSpace, entries: dict, strict=True):
        if arity < 2:
            raise ArityMismatch("arity must be at least 2")
        self.arity = arity
        self.space = space
        clean = {}
        for key, vec in entries.items():
            key = tuple(key)
            if len(key) != arity:
                raise ArityMismatch(f"tuple {key} has wrong length for arity {arity}")
            if not is_canonical(key, space.parity):
                raise ValueError(f"tuple {key} is not canonical")
            vec = list(vec)
            if len(vec) != space.dim:
                raise DimensionMismatch("output vector length must equal dim")
            if strict:
                p_in = space.parity_of_indices(key)
                for k, c in enumerate(vec):
                    if c != 0 and space.parity[k] != p_in:
                        raise ValueError(
                            f"entry {key} -> e{k+1} violates parity homogeneity"
                        )
            if any(c != 0 for c in vec):
                clean[key] = tuple(vec)
        self.entries = clean
        self._nonzeros = {}  # raw index tuple -> its sparse_value

    def sparse_value(self, indices) -> tuple:
        """Bracket of basis vectors e_{i1},...,e_{in} as its nonzero
        (coordinate, value) pairs, signed.  Straightened once per raw index
        tuple and memoized; the entries never change after construction."""
        key = tuple(indices)
        found = self._nonzeros.get(key)
        if found is None:
            sign, canon = straighten(key, self.space.parity)
            stored = self.entries.get(canon) if sign else None
            found = () if stored is None else tuple((k, sign * c) for k, c in enumerate(stored) if c != 0)
            self._nonzeros[key] = found
        return found

    def sparse_bracket(self, args) -> dict:
        """The bracket of n vectors, each given by its nonzero (index, coeff)
        pairs: multilinear over the basis brackets."""
        return multilinear(args, self.sparse_value)

    def items(self):
        return self.entries.items()

    def __eq__(self, other):
        if not isinstance(other, StructureTensor):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.space == other.space
            and self.entries == other.entries
        )


def is_even_map(cols, p_out, p_in):
    """No entry of a map, given by its sparse columns, joins basis vectors of
    different parities."""
    return all(p_out[i] == p_in[j] for j, col in enumerate(cols) for i in col)


def intertwiner_rows(f, g, p_out, p_in) -> list:
    """The linear equations F X = X G and X even on an unknown matrix X with
    rows of parities p_out and columns of parities p_in, F and G given by
    their sparse columns and X's entries taken row-major as the variables:
    one sparse row per entry of F X - X G that is not identically zero, in
    row-major order, then one per entry that is_even_map forces to 0.  Every
    right-hand side is 0."""
    rows_x, cols_x = len(p_out), len(p_in)
    eqs = {}  # entry (r, c) of F X - X G, flat, -> its row
    for i, col in enumerate(f):  # + F[r, i] X[i, c]
        for r, x in col.items():
            for c in range(cols_x):
                _accumulate(eqs.setdefault(r * cols_x + c, {}), ((i * cols_x + c, x),), 1)
    for c, col in enumerate(g):  # - X[r, k] G[k, c]
        for k, x in col.items():
            for r in range(rows_x):
                _accumulate(eqs.setdefault(r * cols_x + c, {}), ((r * cols_x + k, x),), -1)
    rows = [row for row in (_nonzero(eqs[e]) for e in sorted(eqs)) if row]
    return rows + [{i * cols_x + j: 1} for i in range(rows_x) for j in range(cols_x) if p_out[i] != p_in[j]]


def transposed(cols, rows) -> list:
    """The sparse columns of the transpose of a map with the given number of
    rows, the map given by its sparse columns: its sparse rows."""
    out = [{} for _ in range(rows)]
    for j, col in enumerate(cols):
        for i, c in col.items():
            out[i][j] = c
    return out


def apply_columns(cols, vec: dict) -> dict:
    """A map given by its sparse columns {row: entry}, applied to a sparse
    vector {index: value}; zeros dropped."""
    out = {}
    for k, x in vec.items():
        _accumulate(out, cols[k].items(), x)
    return _nonzero(out)


def maps_into(maps, source: Subspace, target: Subspace) -> bool:
    """Every map, given by its sparse columns, sends every basis vector of
    source into target."""
    return all(target.contains_sparse(apply_columns(cols, row)) for cols in maps for row in source.sparse_rows)


def _dense(pairs, dim):
    """The coordinate vector of a sparse vector given by its (index, value) pairs."""
    out = [0] * dim
    for k, c in pairs:
        out[k] = c
    return out


def _accumulate(out: dict, pairs, scale):
    """out += scale * vec for a sparse vec given by its (index, value) pairs."""
    for k, c in pairs:
        out[k] = out.get(k, 0) + scale * c


def _nonzero(vec: dict) -> dict:
    return {k: c for k, c in vec.items() if c != 0}


class HomSuperAlgebra:
    """(g, [.,...,.], alpha): graded space, bracket tensor, even twist."""

    def __init__(self, space: GradedSpace, bracket: StructureTensor, alpha: Matrix, name=""):
        if bracket.space != space:
            raise DimensionMismatch("bracket tensor lives on a different space")
        if alpha.rows != space.dim or alpha.cols != space.dim:
            raise DimensionMismatch("alpha must be a dim x dim matrix")
        self.space = space
        self.bracket = bracket
        self.alpha = alpha
        self.name = name
        self._cache = {}

    @property
    def dim(self):
        return self.space.dim

    @property
    def arity(self):
        return self.bracket.arity

    @property
    def parity(self):
        return self.space.parity

    def alpha_is_even(self):
        return is_even_map(self.alpha_columns(), self.parity, self.parity)

    def bracket_eval(self, vectors):
        """Multilinear evaluation of the bracket on coordinate vectors: the
        dense wrapper of ``sparse_bracket``, for outside callers."""
        if len(vectors) != self.arity:
            raise ArityMismatch(f"expected {self.arity} arguments")
        for v in vectors:
            if len(v) != self.dim:
                raise DimensionMismatch("argument has wrong dimension")
        args = [[(i, c) for i, c in enumerate(v) if c != 0] for v in vectors]
        return _dense(self.bracket.sparse_bracket(args).items(), self.dim)

    def alpha_columns(self) -> list:
        """The columns of alpha as sparse vectors {row: entry}, built once."""
        if "alpha_columns" not in self._cache:
            self._cache["alpha_columns"] = sparse_columns(self.alpha)
        return self._cache["alpha_columns"]

    def is_abelian(self):
        return not self.bracket.entries


# ---------------------------------------------------------------------------
# reports


@dataclass
class Check:
    name: str
    passed: bool
    witness: dict | None = None


@dataclass
class Report:
    checks: list = field(default_factory=list)

    def add(self, name, passed, witness=None):
        self.checks.append(Check(name, passed, witness))

    def add_first(self, name, witnesses):
        """A check that passes when ``witnesses`` yields nothing; the first
        witness yielded is recorded, and iteration stops there."""
        witness = next(iter(witnesses), None)
        self.add(name, witness is None, witness)

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failed_checks(self):
        return [c for c in self.checks if not c.passed]

    def to_dict(self):
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "witness": c.witness}
                for c in self.checks
            ],
        }


def _fmt_vec(v):
    return [format_scalar(Fraction(x)) for x in v]


def _one_based(t):
    return [i + 1 for i in t]


# ---------------------------------------------------------------------------
# axiom verification


def verify_algebra(a: HomSuperAlgebra) -> Report:
    """Check parity homogeneity, super skew-symmetry, the twisted
    fundamental identity, and multiplicativity of the twist."""
    report = Report()
    report.add("alpha-even", a.alpha_is_even())
    p = a.parity
    report.add_first("homogeneity", (
        {"args": _one_based(key), "output_index": k + 1}
        for key, vec in a.bracket.items()
        for k, c in enumerate(vec)
        if c != 0 and p[k] != a.space.parity_of_indices(key)
    ))
    canonical = report.ok
    report.add_first("super-skew-symmetry", _skew_witnesses(a))
    report.add_first("fundamental-identity", _fundamental_identity_witnesses(a, canonical))
    report.add_first("multiplicativity", _bracket_map_witnesses(a.alpha_columns(), a, a))
    return report


def _skew_witnesses(a: HomSuperAlgebra):
    """Adjacent swaps that break super skew-symmetry, in the lex order of a
    sweep over every basis tuple.  A swap can break it only where the tuple
    or its swap has a nonzero value, and both sort to the same stored key,
    so the sweep visits the orderings of the stored keys (``_arranged``).
    That values are read through ``straighten`` correctly is what this
    tests; its sign on every tuple is pinned in the tests."""
    p = a.parity
    n = a.arity
    value = a.bracket.sparse_value
    for t in _arranged(a.bracket.entries, p, False):
        base = value(t)
        for pos in range(n - 1):
            swapped = value(t[:pos] + (t[pos + 1], t[pos]) + t[pos + 2 :])
            if not (base or swapped):
                continue
            sgn = 1 if (p[t[pos]] == 1 and p[t[pos + 1]] == 1) else -1
            if base != tuple((k, sgn * c) for k, c in swapped):
                yield {"args": _one_based(t), "swap_at": pos + 1}


class _Places:
    """Where a multilinear map of basis tuples can be nonzero.

    Its places are the sorted index tuples at which it is nonzero: a
    bracket's stored keys, or the wedges on which rho is nonzero.  A basis
    tuple has a nonzero value only if it sorts to a place, and a map of
    vectors only if some tuple through their supports does.  So each set
    below, read off the places and the supports of a map f's sparse columns
    (alpha or a morphism), holds every tuple at which a term can be nonzero.
    """

    def __init__(self, places, f_cols):
        self.places = list(places)
        self.completions = {}  # R -> the m for which R + (m,) sorts to a place
        self.holes = {}  # m -> those R
        for t in self.places:
            for k in range(len(t)):
                rest = t[:k] + t[k + 1 :]
                self.completions.setdefault(rest, set()).add(t[k])
                self.holes.setdefault(t[k], set()).add(rest)
        self.f_cols = f_cols
        self.f_rows = {}  # r -> the c with r in supp f(e_c)
        for c, col in enumerate(f_cols):
            for r in col:
                self.f_rows.setdefault(r, []).append(c)
        self._preimages, self._slotted = {}, {}

    def reach(self, xs) -> set:
        """The m at which the map of f(e_x1), ..., f(e_xk), e_m can be nonzero."""
        out = set()
        for r in itertools.product(*(self.f_cols[x] for x in xs)):
            out |= self.completions.get(tuple(sorted(r)), set())
        return out

    def preimages(self, t) -> set:
        """The sorted c for which f(e_c1), ..., f(e_ck) can meet the sorted t."""
        if t not in self._preimages:
            self._preimages[t] = {tuple(sorted(c)) for c in itertools.product(*(self.f_rows.get(r, ()) for r in t))}
        return self._preimages[t]

    def covered(self) -> set:
        """The sorted c for which f(e_c1), ..., f(e_ck) can meet a place."""
        return set().union(*map(self.preimages, self.places))

    def heads(self) -> set:
        """The sorted x for which the map of x, e_m or of f(x), e_m can be
        nonzero for some m."""
        return set(self.completions).union(*map(self.preimages, self.completions))

    def slotted(self, j, m) -> set:
        """The sorted y holding j for which the map of f(e_y1), ..., e_m, ...,
        f(e_yk), e_m in a slot of j, can be nonzero."""
        if (j, m) not in self._slotted:
            self._slotted[j, m] = {
                tuple(sorted(c + (j,))) for rest in self.holes.get(m, ()) for c in self.preimages(rest)
            }
        return self._slotted[j, m]


def _bracket_places(a: HomSuperAlgebra) -> _Places:
    """The places of a's bracket with f = alpha, kept in a._cache."""
    if "places" not in a._cache:
        a._cache["places"] = _Places(a.bracket.entries, a.alpha_columns())
    return a._cache["places"]


def _by_coordinate(a: HomSuperAlgebra) -> dict:
    """m -> the stored keys y with [y] nonzero at coordinate m."""
    out = {}
    for key, vec in a.bracket.items():
        for m, c in enumerate(vec):
            if c != 0:
                out.setdefault(m, set()).add(key)
    return out


def _arranged(tuples, parity, canonical) -> list:
    """Sorted tuples as a sweep visits them, in lex order: those that are
    canonical (no repeated even index), or every ordering of each when the
    sweep runs over every basis tuple."""
    if canonical:
        return sorted(t for t in tuples if all(i != k or parity[i] for i, k in zip(t, t[1:])))
    return sorted({s for t in tuples for s in itertools.permutations(t)})


def _fundamental_identity_witnesses(a: HomSuperAlgebra, canonical: bool):
    """Basis pairs (x, y), x in g^{n-1}, y in g^n, in lex order, where the
    twisted fundamental identity
        [alpha x_1, ..., alpha x_{n-1}, [y_1, ..., y_n]]
          = sum_i (-1)^{|x|(|y_1| + ... + |y_{i-1}|)}
                  [alpha y_1, ..., [x_1, ..., x_{n-1}, y_i], ..., alpha y_n]
    fails.

    With ``canonical`` (alpha even, every entry homogeneous) both sides are
    super-skew in the x-block and in the y-block, so the failing pairs are
    closed under permuting x and permuting y, and their lex-first one is
    canonical: canonical tuples give the same verdict and first witness.
    Otherwise every basis tuple is swept.

    Only the pairs where a term can be nonzero are visited (``_Places`` of
    the bracket with f = alpha); every other pair is 0 = 0.  The left side
    needs [y] != 0 and [alpha x, e_m] != 0 for some m in supp [y].  Term i
    of the right side needs the mid [x, y_i] != 0 and a nonzero outer
    bracket, so some m in supp [x, y_i] and the alpha y_l of the other
    slots must reach a stored key.  For each x the left side is
    L_{alpha x}([y]), with L_{alpha x}: e_j -> [alpha x_1, ..., alpha
    x_{n-1}, e_j] built column by column on first use.
    """
    n = a.arity
    p = a.parity
    expand = a.bracket.sparse_bracket
    value = a.bracket.sparse_value
    alpha_cols = [col.items() for col in a.alpha_columns()]
    places = _bracket_places(a)
    imaged = _by_coordinate(a)
    for xs in _arranged(places.heads(), p, canonical):
        px = sum(p[i] for i in xs) % 2
        x_alpha = [alpha_cols[i] for i in xs]
        mids = {j: value(xs + (j,)) for j in places.completions.get(tuple(sorted(xs)), ())}
        active = set().union(*(imaged.get(m, ()) for m in places.reach(xs)))
        for j, mid in mids.items():
            for m, _ in mid:
                active |= places.slotted(j, m)
        l_alpha_x = {}
        for ys in _arranged(active, p, canonical):
            lhs = {}
            for j, c in value(ys):
                if j not in l_alpha_x:
                    l_alpha_x[j] = expand(x_alpha + [((j, 1),)])
                _accumulate(lhs, l_alpha_x[j].items(), c)
            rhs = {}
            prefix = 0
            for i in range(n):
                mid = mids.get(ys[i])
                if mid:
                    sign = -1 if (px == 1 and prefix == 1) else 1
                    args = [alpha_cols[y] for y in ys[:i]] + [mid] + [alpha_cols[y] for y in ys[i + 1 :]]
                    _accumulate(rhs, expand(args).items(), sign)
                prefix = (prefix + p[ys[i]]) % 2
            lhs, rhs = _nonzero(lhs), _nonzero(rhs)
            if lhs != rhs:
                yield {
                    "x": _one_based(xs),
                    "y": _one_based(ys),
                    "lhs": _fmt_vec(_dense(lhs.items(), a.dim)),
                    "rhs": _fmt_vec(_dense(rhs.items(), a.dim)),
                }


def _bracket_map_witnesses(f_cols, a: HomSuperAlgebra, b: HomSuperAlgebra):
    """Canonical tuples where f[x1,...,xn] != [f(x1),...,f(xn)]' for f: a -> b
    given by its sparse columns, in lex order.  Only the tuples where a side
    can be nonzero are visited: a stored key of a, or a tuple whose images
    f(e_xi) can meet a stored key of b (``_Places``)."""
    keys = set(a.bracket.entries) | _Places(b.bracket.entries, f_cols).covered()
    for key in _arranged(keys, a.parity, True):
        lhs = apply_columns(f_cols, dict(a.bracket.sparse_value(key)))
        rhs = b.bracket.sparse_bracket([f_cols[i].items() for i in key])
        if lhs != rhs:
            yield {
                "args": _one_based(key),
                "lhs": _fmt_vec(_dense(lhs.items(), b.dim)),
                "rhs": _fmt_vec(_dense(rhs.items(), b.dim)),
            }


def _canonical_tuples(space: GradedSpace, length: int):
    """All canonical tuples: nondecreasing, even indices never repeated."""

    def rec(start, remaining, prefix):
        if remaining == 0:
            yield tuple(prefix)
            return
        for i in range(start, space.dim):
            nxt = i + 1 if space.parity[i] == 0 else i
            prefix.append(i)
            yield from rec(nxt, remaining - 1, prefix)
            prefix.pop()

    yield from rec(0, length, [])


def canonical_tuples(space: GradedSpace, length: int):
    return list(_canonical_tuples(space, length))


def _unit_rests(a: HomSuperAlgebra, vec: dict) -> list:
    """The canonical (n-1)-tuples t, in lex order, at which a bracket of vec
    and e_t1, ..., e_t(n-1), in any slots, can be nonzero, as kernel
    arguments: t completes a stored key with an index of supp vec
    (``_Places``).  Every other t gives 0."""
    holes = _bracket_places(a).holes
    return [[((i, 1),) for i in t] for t in sorted(set().union(*(holes.get(i, ()) for i in vec)))]


def _unit_arguments(space: GradedSpace, length: int):
    """Each canonical tuple as kernel arguments: one unit vector per slot."""
    return [[((i, 1),) for i in t] for t in _canonical_tuples(space, length)]


def verify_morphism(f: Matrix, a: HomSuperAlgebra, b: HomSuperAlgebra) -> Report:
    """f[x1,...,xn] = [f(x1),...,f(xn)]' and f . alpha = alpha' . f."""
    if a.arity != b.arity:
        raise ArityMismatch("arities differ")
    if f.rows != b.dim or f.cols != a.dim:
        raise DimensionMismatch(f"morphism must be {b.dim}x{a.dim}")
    return _morphism_report(sparse_columns(f), a, b)


def _morphism_report(f, a: HomSuperAlgebra, b: HomSuperAlgebra) -> Report:
    """verify_morphism for f: a -> b given by its sparse columns; f alpha =
    alpha' f is compared column by column."""
    report = Report()
    report.add("even", is_even_map(f, b.parity, a.parity))
    report.add_first("bracket", _bracket_map_witnesses(f, a, b))
    beta = b.alpha_columns()
    report.add("twist-intertwines", all(
        apply_columns(f, col) == apply_columns(beta, f[j]) for j, col in enumerate(a.alpha_columns())
    ))
    return report


def twist_by_endomorphism(a: HomSuperAlgebra, rho: Matrix) -> HomSuperAlgebra:
    """Yoneda-style twisting: from (g, [.], id) and a self-morphism rho build
    (g, rho o [.], rho).  The result is verified to satisfy all axioms."""
    if not a.alpha.is_identity():
        raise EndomorphismCheckFailed("twisting requires an untwisted algebra (alpha = id)")
    base_report = verify_algebra(a)
    if not base_report.ok:
        raise EndomorphismCheckFailed("base algebra fails its axioms")
    rho_report = verify_morphism(rho, a, a)
    if not rho_report.ok:
        raise EndomorphismCheckFailed("rho is not a self-morphism")
    rho_cols = sparse_columns(rho)
    entries = {
        key: _dense(apply_columns(rho_cols, dict(a.bracket.sparse_value(key))).items(), a.dim)
        for key in a.bracket.entries
    }
    twisted = HomSuperAlgebra(
        a.space,
        StructureTensor(a.arity, a.space, entries),
        rho,
        name=(a.name + "~twisted") if a.name else "twisted",
    )
    post = verify_algebra(twisted)
    if not post.ok:
        raise EndomorphismCheckFailed("twisted algebra failed verification (internal error)")
    return twisted


# ---------------------------------------------------------------------------
# graded subspaces, ideals, series


def split_graded(h: Subspace, space: GradedSpace):
    """Split a subspace into (even part, odd part); error if not graded.

    h is graded exactly when every row of its rref is parity-homogeneous:
    the parity part of a row with pivot c has the same entries at every
    pivot column, so if it lies in h it is the row itself.  The even and
    the odd rows are then the rref bases of the two parts."""
    parts = ([], [])
    for row in h.sparse_rows:
        parities = {space.parity[k] for k in row}
        if len(parities) != 1:
            raise NonGradedSubspace("subspace is not spanned by parity-homogeneous vectors")
        parts[parities.pop()].append(row)
    return tuple(Subspace._from_rref(h.ambient_dim, rows) for rows in parts)


def vector_parity(vec: dict, parity):
    """The parity of a nonzero parity-homogeneous sparse vector {index: value}."""
    ps = {parity[i] for i, c in vec.items() if c != 0}
    if len(ps) != 1:
        raise NonGradedSubspace("vector is not parity-homogeneous")
    return ps.pop()


def _unit(n, i):
    v = [0] * n
    v[i] = 1
    return v


def is_hom_subalgebra(h: Subspace, a: HomSuperAlgebra) -> bool:
    split_graded(h, a.space)  # raises NonGradedSubspace
    if not maps_into([a.alpha_columns()], h, h):
        return False
    rows = [row.items() for row in h.sparse_rows]
    expand = a.bracket.sparse_bracket
    return all(h.contains_sparse(expand(list(combo))) for combo in itertools.product(rows, repeat=a.arity))


def is_hom_ideal(h: Subspace, a: HomSuperAlgebra) -> bool:
    """alpha(H) in H and [H, g, ..., g] in H.

    Checking the first slot only is enough: super skew-symmetry moves H
    into any slot at the cost of a sign.  For the same reason the other
    slots run over canonical tuples only, and only over those where the
    bracket can be nonzero (``_unit_rests``).
    """
    split_graded(h, a.space)
    if not maps_into([a.alpha_columns()], h, h):
        return False
    expand = a.bracket.sparse_bracket
    for row in h.sparse_rows:
        for rest in _unit_rests(a, row):
            vec = expand([row.items()] + rest)
            if vec and not h.contains_sparse(vec):
                return False
    return True


@dataclass
class SeriesResult:
    kind: str
    terms: list  # Subspaces, terms[0] = g
    length: int | None  # first index with zero term; None if stabilized nonzero
    stabilized_nonzero: bool


def series(a: HomSuperAlgebra, kind: str) -> SeriesResult:
    """Derived or lower-central series computed on spanning sets.

    terms[0] = g; derived: next = [S, S, ..., S]; lower_central:
    next = [S, g, ..., g], with the g slots on the canonical tuples where
    the bracket can be nonzero (permuting them only changes signs;
    ``_unit_rests``).  The length is the first index whose term is 0.
    """
    if kind not in ("derived", "lower_central"):
        raise ValueError("kind must be 'derived' or 'lower_central'")
    terms = [Subspace.full(a.dim)]
    expand = a.bracket.sparse_bracket
    while True:
        current = terms[-1]
        if current.dim == 0:
            break
        rows = current.sparse_rows
        if kind == "derived":
            brackets = (expand([v.items() for v in combo]) for combo in itertools.product(rows, repeat=a.arity))
        else:
            brackets = (expand([v.items()] + rest) for v in rows for rest in _unit_rests(a, v))
        nxt = Subspace.from_sparse(a.dim, [vec for vec in brackets if vec])
        if nxt == current:
            return SeriesResult(kind, terms, None, True)
        terms.append(nxt)
    return SeriesResult(kind, terms, len(terms) - 1, False)


def solvable_length(a: HomSuperAlgebra):
    return series(a, "derived").length


def nilpotent_length(a: HomSuperAlgebra):
    return series(a, "lower_central").length


def direct_sum(a: HomSuperAlgebra, b: HomSuperAlgebra) -> HomSuperAlgebra:
    if a.arity != b.arity:
        raise ArityMismatch("direct sum needs equal arities")
    da, db = a.dim, b.dim
    space = GradedSpace(da + db, tuple(a.parity) + tuple(b.parity))
    entries = {}
    for key, vec in a.bracket.items():
        entries[key] = list(vec) + [0] * db
    for key, vec in b.bracket.items():
        entries[tuple(i + da for i in key)] = [0] * da + list(vec)
    out = HomSuperAlgebra(
        space,
        StructureTensor(a.arity, space, entries),
        block_diagonal(a.alpha, b.alpha),
        name=f"{a.name}+{b.name}" if (a.name or b.name) else "",
    )
    left = Subspace.from_vectors(da + db, [_unit(da + db, i) for i in range(da)])
    right = Subspace.from_vectors(da + db, [_unit(da + db, da + i) for i in range(db)])
    ensure(is_hom_ideal(left, out) and is_hom_ideal(right, out), "direct summands are not Hom-ideals")
    return out


def lex_complement_indices(i: Subspace):
    """Lexicographically first subset of standard basis vectors completing
    a basis of the ambient space over the given subspace."""
    chosen = []
    current = i
    for j in range(i.ambient_dim):
        if current.dim == i.ambient_dim:
            break
        if not current.contains_sparse({j: 1}):
            chosen.append(j)
            current = current.sum(Subspace.from_sparse(i.ambient_dim, [{j: 1}]))
    return chosen


def quotient(a: HomSuperAlgebra, i: Subspace):
    """Quotient algebra g/I with the induced bracket and twist: (quotient
    algebra, projection matrix), sparse_quotient with a dense projection."""
    q, pi = sparse_quotient(a, i)
    return q, Matrix.from_columns(pi, q.dim)


def sparse_quotient(a: HomSuperAlgebra, i: Subspace):
    """(g/I, the projection pi as its sparse columns) on the lex-first
    complement of unit vectors: pi reads off the last coordinates in the
    basis [I | complement] (one left inverse), and g/I's bracket and twist
    are pi of the complement's unit brackets and of alpha's columns there."""
    if not is_hom_ideal(i, a):
        raise NotAnIdeal("quotient requires a Hom-ideal")
    comp = lex_complement_indices(i)
    q_dim = len(comp)
    q_space = GradedSpace(q_dim, tuple(a.parity[j] for j in comp))

    coords = sparse_left_inverse(i.sparse_rows + [{j: 1} for j in comp], a.dim)
    ensure(coords is not None, "ideal basis plus complement does not span g")
    pi = [{k - i.dim: x for k, x in col.items() if k >= i.dim} for col in coords]

    entries = {}
    for key in _canonical_tuples(q_space, a.arity):
        vec = apply_columns(pi, dict(a.bracket.sparse_value(tuple(comp[t] for t in key))))
        if vec:
            entries[key] = _dense(vec.items(), q_dim)
    alpha = a.alpha_columns()
    q = HomSuperAlgebra(
        q_space,
        StructureTensor(a.arity, q_space, entries),
        Matrix.from_columns([apply_columns(pi, alpha[j]) for j in comp], q_dim),
        name=(a.name + "/I") if a.name else "quotient",
    )
    ensure(_morphism_report(pi, a, q).ok, "quotient projection is not a morphism")
    return q, pi


# ---------------------------------------------------------------------------
# bilinear forms


@dataclass
class BilinearForm:
    gram: Matrix

    @cached_property
    def columns(self) -> list:
        """The gram's sparse columns {row: entry}, built once per form."""
        return sparse_columns(self.gram)

    def pairing(self, u: dict, v: dict):
        return pairing(self.columns, u, v)


def pairing(gram, u: dict, v: dict):
    """<u, v> = u . G v for sparse vectors {index: value}, the gram G given
    by its sparse columns."""
    gv = apply_columns(gram, v)
    return sum(x * gv[k] for k, x in u.items() if k in gv)


def verify_metric(a: HomSuperAlgebra, form: BilinearForm) -> Report:
    """Consistency, supersymmetry, invariance, nondegeneracy, alpha-symmetry."""
    g = form.gram
    if g.rows != a.dim or g.cols != a.dim:
        raise DimensionMismatch("gram matrix has wrong shape")
    p = a.parity
    d = a.dim
    report = Report()
    report.add_first("consistent", (
        {"i": i + 1, "j": j + 1} for i in range(d) for j in range(d) if p[i] != p[j] and g[i, j] != 0
    ))
    report.add_first("supersymmetric", (
        {"i": i + 1, "j": j + 1}
        for i in range(d)
        for j in range(d)
        if g[i, j] != (-1 if (p[i] == 1 and p[j] == 1) else 1) * g[j, i]
    ))
    report.add_first("invariant", _invariance_witnesses(a, form.columns))
    report.add("nondegenerate", rank(g) == a.dim)

    # self-adjointness <alpha u, v> = <u, alpha v>; on the even part this is
    # the same as <alpha x, y> = <alpha y, x>, and it is what T*-forms satisfy
    # on the odd part (the literal even-part formula picks up a supersign)
    alpha = a.alpha_columns()
    left = transposed(alpha, d)  # column j of alpha^T G is alpha^T applied to column j of G
    report.add("alpha-symmetric", all(
        apply_columns(left, g_col) == apply_columns(form.columns, a_col) for g_col, a_col in zip(form.columns, alpha)
    ))
    return report


def _invariance_witnesses(a: HomSuperAlgebra, g_cols):
    """(x, y, z), x canonical, in lex order, where <[x_1..x_{n-1}, y], z>
    differs from -(-1)^{|x||y|} <y, [x_1..x_{n-1}, z]>.  With
    b_y = [x_1..x_{n-1}, y] the left side is (G^T b_y)[z] and the right side
    -sgn (G b_z)[y], both sums over the nonzero entries of b and the sparse
    rows and columns of G.  Only the x with some b_y != 0 are visited, x
    and y read off the stored keys (``_Places``), and for each x only the
    (y, z) in the supports of G^T b_y and G b_z; every other triple is
    0 = 0.  G is given by its sparse columns."""
    g_rows = transposed(g_cols, a.dim)
    value = a.bracket.sparse_value
    completions = _bracket_places(a).completions
    for xs in sorted(completions):
        px = a.space.parity_of_indices(xs)
        left = {}  # left[y] = G^T b_y, by z
        right = {}  # right[y] = (G b_z)[y], by z
        for y in sorted(completions[xs]):
            b = dict(value(xs + (y,)))
            left[y] = apply_columns(g_rows, b)
            for u, c in apply_columns(g_cols, b).items():
                right.setdefault(u, {})[y] = c
        for y in sorted(left.keys() | right.keys()):
            sgn = -1 if (px == 1 and a.parity[y] == 1) else 1
            ly, ry = left.get(y, {}), right.get(y, {})
            for z in sorted(ly.keys() | ry.keys()):
                lhs, rhs = ly.get(z, 0), -sgn * ry.get(z, 0)
                if lhs != rhs:
                    yield {
                        "x": _one_based(xs),
                        "y": y + 1,
                        "z": z + 1,
                        "lhs": format_scalar(Fraction(lhs)),
                        "rhs": format_scalar(Fraction(rhs)),
                    }
