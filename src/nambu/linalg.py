"""Exact rational linear algebra: scalars, dense matrices, rref subspaces,
and a sparse fraction-free rank kernel.

Everything is computed over Q with ``fractions.Fraction`` (plain ints are
accepted everywhere as exact rationals).  There is no floating point
anywhere: ``Scalar`` refuses float construction and ``Matrix`` refuses
float entries.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import DimensionMismatch, ParseError


class Scalar(Fraction):
    """Exact rational number.  Construction from floats is forbidden."""

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        if isinstance(numerator, float) or isinstance(denominator, float):
            raise TypeError("Scalar has no inexact constructor; use ints or 'p/q' strings")
        if isinstance(numerator, complex) or isinstance(denominator, complex):
            raise TypeError("Scalar has no inexact constructor; use ints or 'p/q' strings")
        return super().__new__(cls, numerator, denominator)


_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/([+-]?\d+))?$")


def parse_scalar(text) -> Fraction:
    """Parse "p/q" (or "p", or a JSON int) into an exact rational."""
    if isinstance(text, bool):
        raise ParseError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ParseError(f"not a rational: {text!r} (floats are rejected)")
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ParseError(f"bad rational {text!r}: expected 'p' or 'p/q'")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ParseError(f"bad rational {text!r}: zero denominator")
    return Fraction(num, den)


def format_scalar(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _check_entry(x):
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x
    raise TypeError(f"matrix entries must be exact rationals, got {type(x).__name__}")


# vectors are plain lists of int/Fraction


def vzero(n):
    return [0] * n


def is_zero_vec(u):
    return all(a == 0 for a in u)


class Matrix:
    """Dense matrix over Q, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        if len(data) != rows * cols:
            raise DimensionMismatch(f"expected {rows*cols} entries, got {len(data)}")
        self.rows = rows
        self.cols = cols
        self.data = [_check_entry(x) for x in data]

    @classmethod
    def from_rows(cls, rows_list, cols=None):
        rows = len(rows_list)
        if rows == 0:
            if cols is None:
                raise DimensionMismatch("empty matrix needs an explicit column count")
            return cls(0, cols, [])
        ncols = len(rows_list[0])
        if cols is not None and cols != ncols:
            raise DimensionMismatch("inconsistent column count")
        flat = []
        for r in rows_list:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
            flat.extend(r)
        return cls(rows, ncols, flat)

    @classmethod
    def identity(cls, n):
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [0] * (rows * cols))

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.cols + j]

    def row(self, i):
        return self.data[i * self.cols : (i + 1) * self.cols]

    def col(self, j):
        return self.data[j :: self.cols]

    def row_list(self):
        return [self.row(i) for i in range(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.data == other.data

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(Fraction(x) for x in self.data)))

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        return Matrix(self.rows, self.cols, [a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        return Matrix(self.rows, self.cols, [a - b for a, b in zip(self.data, other.data)])

    def __neg__(self):
        return Matrix(self.rows, self.cols, [-a for a in self.data])

    def scale(self, c):
        return Matrix(self.rows, self.cols, [c * a for a in self.data])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
            out = [0] * (self.rows * other.cols)
            for i in range(self.rows):
                base = i * self.cols
                for k in range(self.cols):
                    a = self.data[base + k]
                    if a == 0:
                        continue
                    obase = k * other.cols
                    tbase = i * other.cols
                    for j in range(other.cols):
                        b = other.data[obase + j]
                        if b != 0:
                            out[tbase + j] += a * b
            return Matrix(self.rows, other.cols, out)
        return NotImplemented

    def apply(self, vec):
        """Matrix times column vector (a plain list)."""
        if len(vec) != self.cols:
            raise DimensionMismatch(f"vector of length {len(vec)} for {self.rows}x{self.cols}")
        out = [0] * self.rows
        for i in range(self.rows):
            base = i * self.cols
            s = 0
            for j, x in enumerate(vec):
                if x != 0:
                    s += self.data[base + j] * x
            out[i] = s
        return out

    def transpose(self):
        return Matrix(self.cols, self.rows, [self.data[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)])

    def is_zero(self):
        return all(x == 0 for x in self.data)

    def is_identity(self):
        if self.rows != self.cols:
            return False
        return all(self.data[i * self.cols + j] == (1 if i == j else 0) for i in range(self.rows) for j in range(self.cols))

    def is_diagonal(self):
        return all(self.data[i * self.cols + j] == 0 for i in range(self.rows) for j in range(self.cols) if i != j)

    def power(self, k):
        if self.rows != self.cols:
            raise DimensionMismatch("power of a non-square matrix")
        result = Matrix.identity(self.rows)
        for _ in range(k):
            result = result * self
        return result

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {[ [format_scalar(x) for x in self.row(i)] for i in range(self.rows)]})"


def rref(m: Matrix):
    """Reduced row-echelon form.  Returns (rref matrix, rank)."""
    reduced, pivots = _rref_pivots(m)
    return reduced, len(pivots)


def _rref_pivots(m: Matrix):
    rows = [list(r) for r in m.row_list()]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        if pivot != 1:
            inv = Fraction(1, 1) / pivot
            rows[r] = [inv * x for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    flat = [x for row in rows for x in row]
    return Matrix(nrows, ncols, flat), pivots


def rank(m: Matrix) -> int:
    return sparse_rank({j: x for j, x in enumerate(m.row(i)) if x != 0} for i in range(m.rows))


def _primitive(row: dict) -> dict:
    """A sparse rational row scaled to coprime integers, zeros dropped."""
    row = {c: x for c, x in row.items() if x != 0}
    den = math.lcm(*(x.denominator for x in row.values()))
    row = {c: x.numerator * (den // x.denominator) for c, x in row.items()}
    g = math.gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g > 1 else row


def sparse_rank(rows) -> int:
    """Rank over Q of a matrix given as sparse rows {col: value}.

    Fraction-free elimination in the manner of Bareiss (1968), with gcd
    content removal in place of his exact division: each row is cleared of
    denominators and divided by its gcd, then rows are eliminated by
    integer cross-multiplication against the pivot row and made primitive
    again.  The pivot row is the live row with the fewest
    nonzeros, its pivot the column that the fewest live rows share.  Each
    retired pivot row is independent of everything eliminated against it,
    so their count is the rank.
    """
    live = {}
    holders = {}  # column -> ids of the live rows with a nonzero there
    for rid, row in enumerate(rows):
        row = _primitive(row)
        if row:
            live[rid] = row
            for c in row:
                holders.setdefault(c, set()).add(rid)
    found = 0
    while live:
        rid = min(live, key=lambda i: (len(live[i]), i))
        prow = live.pop(rid)
        for c in prow:
            holders[c].discard(rid)
        col = min(prow, key=lambda c: (len(holders[c]), c))
        p = prow[col]
        for oid in sorted(holders[col]):
            row = live[oid]
            g = math.gcd(p, row[col])
            a, b = p // g, row[col] // g
            new = {c: a * x for c, x in row.items()}
            for c, x in prow.items():
                y = new.get(c, 0) - b * x
                if y:
                    new[c] = y
                else:
                    new.pop(c, None)
            for c in row.keys() - new.keys():
                holders[c].discard(oid)
            for c in new.keys() - row.keys():
                holders.setdefault(c, set()).add(oid)
            if new:
                live[oid] = _primitive(new)
            else:
                del live[oid]
        found += 1
    return found


def nullspace(m: Matrix) -> "Subspace":
    """Exact kernel {v : m v = 0} as a Subspace of dimension cols - rank."""
    reduced, pivots = _rref_pivots(m)
    ncols = m.cols
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r_idx, p in enumerate(pivots):
            v[p] = -reduced[r_idx, f]
        basis.append(v)
    return Subspace.from_vectors(ncols, basis)


def image(m: Matrix) -> "Subspace":
    """Column space of m (the image of v -> m v)."""
    return Subspace.from_vectors(m.rows, [m.col(j) for j in range(m.cols)])


def solve_affine(a: Matrix, b):
    """Solve a x = b exactly.  Returns (particular, nullspace) or (None, nullspace).

    The particular solution is the deterministic minimal-lex one: all free
    variables of the rref system are set to zero.
    """
    if len(b) != a.rows:
        raise DimensionMismatch("rhs length mismatch")
    aug = Matrix.from_rows([a.row(i) + [b[i]] for i in range(a.rows)], cols=a.cols + 1)
    reduced, pivots = _rref_pivots(aug)
    ker = nullspace(a)
    if a.cols in pivots:
        return None, ker
    x = [0] * a.cols
    for r_idx, p in enumerate(pivots):
        x[p] = reduced[r_idx, a.cols]
    return x, ker


class Subspace:
    """Subspace of Q^n, canonically represented by an rref basis.

    Two subspaces are equal iff their rref basis matrices are identical.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Matrix, _trusted=False):
        self.ambient_dim = ambient_dim
        if not _trusted:
            reduced, pivots = _rref_pivots(basis)
            basis = Matrix.from_rows(reduced.row_list()[: len(pivots)], cols=ambient_dim)
        self.basis = basis

    @classmethod
    def from_vectors(cls, ambient_dim, vectors):
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch("vector length does not match ambient dimension")
        if not vectors:
            return cls(ambient_dim, Matrix(0, ambient_dim, []), _trusted=True)
        m = Matrix.from_rows(vectors, cols=ambient_dim)
        reduced, pivots = _rref_pivots(m)
        rows = reduced.row_list()[: len(pivots)]
        return cls(ambient_dim, Matrix.from_rows(rows, cols=ambient_dim), _trusted=True)

    @classmethod
    def zero(cls, ambient_dim):
        return cls.from_vectors(ambient_dim, [])

    @classmethod
    def full(cls, ambient_dim):
        return cls(ambient_dim, Matrix.identity(ambient_dim), _trusted=True)

    @property
    def dim(self):
        return self.basis.rows

    def basis_vectors(self):
        return self.basis.row_list()

    def pivots(self):
        pivs = []
        for i in range(self.basis.rows):
            row = self.basis.row(i)
            for j, x in enumerate(row):
                if x != 0:
                    pivs.append(j)
                    break
        return pivs

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def contains_vector(self, v):
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length does not match ambient dimension")
        v = list(v)
        pivs = self.pivots()
        for i, p in enumerate(pivs):
            if v[p] != 0:
                c = v[p]
                row = self.basis.row(i)
                v = [x - c * y for x, y in zip(v, row)]
        return is_zero_vec(v)

    def contains(self, other: "Subspace"):
        self._check_ambient(other)
        return all(self.contains_vector(r) for r in other.basis_vectors())

    def sum(self, other: "Subspace"):
        self._check_ambient(other)
        return Subspace.from_vectors(self.ambient_dim, self.basis_vectors() + other.basis_vectors())

    def annihilator(self) -> "Subspace":
        """{u : <u, v> = 0 for all v in self} under the standard dot pairing."""
        if self.dim == 0:
            return Subspace.full(self.ambient_dim)
        return nullspace(self.basis)

    def intersect(self, other: "Subspace"):
        # nullspace of stacked dual constraints from both annihilators
        self._check_ambient(other)
        con = self.annihilator().basis_vectors() + other.annihilator().basis_vectors()
        if not con:
            return Subspace.full(self.ambient_dim)
        return nullspace(Matrix.from_rows(con, cols=self.ambient_dim))

    def orthogonal_complement(self, gram: Matrix) -> "Subspace":
        """{x : basis_i . gram . x = 0 for every basis vector}."""
        if gram.rows != self.ambient_dim or gram.cols != self.ambient_dim:
            raise DimensionMismatch("gram matrix must be square of the ambient dimension")
        if self.dim == 0:
            return Subspace.full(self.ambient_dim)
        return nullspace(self.basis * gram)

    def _check_ambient(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient_dim})"
