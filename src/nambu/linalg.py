"""Exact rational linear algebra: scalars, dense matrices, one canonical
sparse rref (under nullspace, sparse_solution, sparse_left_inverse and
Subspace), whose forward phase alone gives sparse_rank, and the exact
Kronecker packing of integer vectors into one (kronecker_pack).

Algorithms hold a map as its sparse columns [{row: entry}] and a subspace
as its sparse rref rows; a dense ``Matrix`` is data, crossed into and out
of by ``sparse_columns`` and ``Matrix.from_columns``.

Everything is computed over Q.  A scalar is an exact rational of one of two
types: a Python ``int`` or a ``fractions.Fraction``; the two compare, hash
and format alike, so results never depend on which one a value is.  Input
enters through ``parse_scalar``, which returns an ``int`` when the rational's
denominator is 1 and a ``Fraction`` otherwise, so integral data is computed
on in machine-fast ints throughout.  There is no floating point anywhere:
``Scalar`` refuses float construction, ``parse_scalar`` refuses floats and
bools, and ``Matrix`` refuses float entries (the results of its own ring
operations on checked entries are exact by construction and not rechecked).
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from fractions import Fraction

from .errors import DimensionMismatch, NotACochain, ParseError, ensure


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


def parse_scalar(text) -> int | Fraction:
    """Parse "p/q" (or "p", or a JSON int) into an exact rational: an int
    when its denominator is 1, else a Fraction in lowest terms."""
    if isinstance(text, bool):
        raise ParseError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return int(text)
    if not isinstance(text, str):
        raise ParseError(f"not a rational: {text!r} (floats are rejected)")
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ParseError(f"bad rational {text!r}: expected 'p' or 'p/q'")
    num, den = m.groups()
    if den is None:  # an integer string: no Fraction to build
        return int(num)
    den = int(den)
    if den == 0:
        raise ParseError(f"bad rational {text!r}: zero denominator")
    value = Fraction(int(num), den)
    return value.numerator if value.denominator == 1 else value


def format_scalar(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _check_entry(x):
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x
    raise TypeError(f"matrix entries must be exact rationals, got {type(x).__name__}")


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
    def _trusted(cls, rows, cols, data):
        """A matrix on data of exact rationals, unchecked: sums, differences
        and products of checked entries, which cannot be floats."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.data = rows, cols, data
        return m

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
    def from_columns(cls, columns, rows):
        """The rows x len(columns) matrix with the given sparse columns {row: entry}."""
        n = len(columns)
        data = [0] * (rows * n)
        for j, col in enumerate(columns):
            for i, x in col.items():
                data[i * n + j] = x
        return cls(rows, n, data)

    @classmethod
    def identity(cls, n):
        return cls._trusted(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls._trusted(rows, cols, [0] * (rows * cols))

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

    def scale(self, c):
        _check_entry(c)
        return Matrix._trusted(self.rows, self.cols, [c * a for a in self.data])

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
            return Matrix._trusted(self.rows, other.cols, out)
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
        return Matrix._trusted(self.cols, self.rows, [self.data[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)])

    def is_zero(self):
        return all(x == 0 for x in self.data)

    def is_identity(self):
        if self.rows != self.cols:
            return False
        return all(self.data[i * self.cols + j] == (1 if i == j else 0) for i in range(self.rows) for j in range(self.cols))

    def is_diagonal(self):
        return all(self.data[i * self.cols + j] == 0 for i in range(self.rows) for j in range(self.cols) if i != j)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {[ [format_scalar(x) for x in self.row(i)] for i in range(self.rows)]})"


def block_diagonal(a: Matrix, b: Matrix) -> Matrix:
    """The block matrix [[a, 0], [0, b]]."""
    data = []
    for i in range(a.rows):
        data += a.row(i) + [0] * b.cols
    for i in range(b.rows):
        data += [0] * a.cols + b.row(i)
    return Matrix(a.rows + b.rows, a.cols + b.cols, data)


def _sparse_rows(m: Matrix) -> list:
    return [{j: x for j, x in enumerate(m.row(i)) if x != 0} for i in range(m.rows)]


def sparse_columns(m: Matrix) -> list:
    """Columns of a matrix as sparse vectors {row: entry}."""
    return [{i: c for i, c in enumerate(m.col(j)) if c != 0} for j in range(m.cols)]


def rank(m: Matrix) -> int:
    return sparse_rank(_sparse_rows(m))


def _primitive(row: dict) -> dict:
    """A sparse rational row scaled to coprime integers, zeros dropped.  A row
    of nonzero ints only needs its gcd, and may come back as itself."""
    if all(type(x) is int and x for x in row.values()):
        return _content_free(row)
    row = {c: x for c, x in row.items() if x != 0}
    den = math.lcm(*(x.denominator for x in row.values()))
    return _content_free({c: x.numerator * (den // x.denominator) for c, x in row.items()})


def _content_free(row: dict) -> dict:
    """A sparse integer row divided by the gcd of its entries."""
    g = math.gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g > 1 else row


def _cancel(row: dict, prow: dict, col) -> dict:
    """The primitive integer combination of two integer rows without col."""
    g = math.gcd(prow[col], row[col])
    a, b = prow[col] // g, row[col] // g
    new = {c: a * x for c, x in row.items()}
    for c, x in prow.items():
        y = new.get(c, 0) - b * x
        if y:
            new[c] = y
        else:
            new.pop(c, None)
    return _content_free(new)


def sparse_rank(rows) -> int:
    """Rank over Q of a matrix given as sparse rows {col: value}: the number
    of pivots of _echelon, the forward phase of _rref.

    The rank does not depend on the order of the columns, so they are first
    renumbered by the number of rows holding them, fewest first (ties in
    order of appearance): pivots then fall on sparse columns, which keeps
    the fill-in of dense rows down.  The rows are only read.
    """
    rows = list(rows)
    count = Counter(itertools.chain.from_iterable(rows))
    order = {c: i for i, c in enumerate(sorted(count, key=count.__getitem__))}
    return len(_echelon({order[c]: x for c, x in row.items()} for row in rows))


def _echelon(rows) -> dict:
    """A row echelon form of sparse rows {col: rational}, as {pivot column:
    primitive integer row whose smallest column it is}.

    Fraction-free in the manner of Bareiss (1968), with gcd content removal
    in place of his exact division: each row is cleared of denominators and
    divided by its gcd, taken fewest nonzeros first and cancelled by integer
    cross-multiplication against the pivot row of its smallest column,
    made primitive again each time, until it vanishes or opens a pivot.
    No row is changed in place.
    """
    echelon = {}
    for row in sorted(map(_primitive, rows), key=len):
        while row:
            c = min(row)
            if c not in echelon:
                echelon[c] = row
                break
            row = _cancel(row, echelon[c], c)
    return echelon


def _rref(rows):
    """The canonical rref of sparse rows {col: rational}: its nonzero rows in
    pivot order, each with a leading 1 at its pivot, its smallest column,
    and no entry in another row's pivot column.

    The forward phase is _echelon.  Back-substitution runs from the last
    pivot down, so a row needs one cancellation per pivot column it holds;
    only the end divides.
    """
    echelon = _echelon(rows)
    pivots = sorted(echelon)
    for p in reversed(pivots):
        for q in [k for k in echelon[p] if k != p and k in echelon]:
            echelon[p] = _cancel(echelon[p], echelon[q], q)
    return [_monic(echelon[p], echelon[p][p]) for p in pivots]


def _monic(row: dict, lead) -> dict:
    return {c: x // lead if x % lead == 0 else Fraction(x, lead) for c, x in row.items()}


def kronecker_pack(vectors, base) -> dict:
    """Sparse integer vectors {key: int} packed into one, sum_i base^i
    vectors[i] (Kronecker substitution): each packed entry holds the
    vectors' entries at its key as the digits of one int.  An integer
    linear map applied to the packed vector packs their images; where base
    >= 2B + 1 for a bound B on every entry of the images, its balanced base
    digits are exactly those entries (first_nonzero_digit).  Every entry
    must be an int."""
    out = {}
    place = 1
    for vec in vectors:
        for k, x in vec.items():
            out[k] = out.get(k, 0) + x * place
        place *= base
    # a Fraction entry, even an integral one, leaves a Fraction in its sum
    ensure(all(type(y) is int for y in out.values()), "a packed entry is not an int")
    return out


def first_nonzero_digit(packed: dict, base):
    """(i, key) for a packed vector (kronecker_pack) whose digits are exact:
    i the first of its vectors that is nonzero, key the least key where it
    is; None if every vector is zero.  Each digit is smaller than base in
    absolute value, so the base-adic valuation of an entry is the index of
    its first nonzero digit: i is the least valuation of the entries, and
    key the least key of that valuation."""
    first, keys = None, []
    for k, y in packed.items():
        if not y:
            continue
        i = 0
        while y % base == 0 and (first is None or i <= first):
            y //= base
            i += 1
        if first is None or i < first:
            first, keys = i, [k]
        elif i == first:
            keys.append(k)
    return None if first is None else (first, min(keys))


def nullspace(m: Matrix) -> "Subspace":
    """Exact kernel {v : m v = 0} as a Subspace of dimension cols - rank."""
    return sparse_kernel(_sparse_rows(m), m.cols)


def sparse_kernel(rows, ncols) -> "Subspace":
    """{v in Q^ncols : r . v = 0 for every sparse row r}, by one elimination.

    The rref R of the rows with their columns in reverse order gives, for
    each free column f, the kernel vector e_f - sum_i R[i][f] e_(pivot i),
    whose other entries all lie in columns after f.  Read in the natural
    column order these vectors are already the reduced row echelon basis of
    the kernel, its pivots being the free columns.
    """
    top = ncols - 1
    kernel = {f: {f: 1} for f in range(ncols)}
    for row in _rref({top - c: x for c, x in row.items()} for row in rows):
        p = min(row)
        del kernel[top - p]
        for c, x in row.items():
            if c != p:
                kernel[top - c][top - p] = -x
    return Subspace._from_rref(ncols, list(kernel.values()))


def image(m: Matrix) -> "Subspace":
    """Column space of m (the image of v -> m v)."""
    return Subspace.from_vectors(m.rows, [m.col(j) for j in range(m.cols)])


def solve_affine(a: Matrix, b):
    """(particular_solution(a, b), nullspace(a)): every solution of a x = b."""
    return particular_solution(a, b), nullspace(a)


def particular_solution(a: Matrix, b):
    """Solve a x = b exactly (sparse_solution on a's rows)."""
    return sparse_solution(_sparse_rows(a), a.cols, b)


def sparse_solution(rows, ncols, rhs):
    """Solve r . x = rhs_r exactly for every sparse row r {col: value} of
    Q^ncols.  Returns a particular solution as a list, or None.

    The particular solution is the deterministic minimal-lex one: all free
    variables of the rref system are set to zero.  The rows are only read.
    """
    rows = list(rows)
    if len(rhs) != len(rows):
        raise DimensionMismatch("rhs length mismatch")
    reduced = _rref({**row, ncols: _check_entry(x)} for row, x in zip(rows, rhs))
    if reduced and min(reduced[-1]) == ncols:
        return None
    x = [0] * ncols
    for row in reduced:
        x[min(row)] = row.get(ncols, 0)
    return x


def sparse_left_inverse(columns, nrows):
    """The map L with L m = I as its sparse columns, for m given by its
    sparse columns in Q^nrows, or None when they are dependent.

    Read off one rref of [m | I]: the rref is E [m | I] for an invertible E,
    and when m has full column rank its first len(columns) rows are [I | L]
    with L = those rows of E.  For a square m, L is the inverse; for a tall
    m, L x is the coordinate vector of any x in the column space of m in the
    basis of its columns (one product per vector, no elimination).
    """
    ncols = len(columns)
    rows = [{ncols + i: 1} for i in range(nrows)]
    for j, col in enumerate(columns):
        for i, x in col.items():
            rows[i][j] = x
    reduced = _rref(rows)
    if len(reduced) < ncols or any(min(reduced[k]) != k for k in range(ncols)):
        return None
    inverse = [{} for _ in range(nrows)]
    for k in range(ncols):
        for c, x in reduced[k].items():
            if c >= ncols:
                inverse[c - ncols][k] = x
    return inverse


class Subspace:
    """Subspace of Q^n, canonically represented by its rref basis.

    The rref is kept as sparse rows {col: value} in pivot order
    (``sparse_rows``); two subspaces are equal iff these rows are.  The
    dense ``basis`` Matrix is built on first use.
    """

    __slots__ = ("ambient_dim", "sparse_rows", "_index", "_basis")

    def __init__(self, ambient_dim: int, basis: Matrix):
        """The row space of basis."""
        if basis.cols != ambient_dim:
            raise DimensionMismatch("basis width does not match the ambient dimension")
        self._adopt(ambient_dim, _rref(_sparse_rows(basis)))

    def _adopt(self, ambient_dim, rows):
        self.ambient_dim = ambient_dim
        self.sparse_rows = rows
        self._index = {min(row): i for i, row in enumerate(rows)}  # pivot column -> row
        self._basis = None

    @classmethod
    def _from_rref(cls, ambient_dim, rows):
        """Adopt rows that already are a canonical rref, unchecked."""
        space = cls.__new__(cls)
        space._adopt(ambient_dim, rows)
        return space

    @classmethod
    def from_vectors(cls, ambient_dim, vectors):
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch("vector length does not match ambient dimension")
        return cls.from_sparse(ambient_dim, [dict(enumerate(v)) for v in vectors])

    @classmethod
    def from_sparse(cls, ambient_dim, vectors):
        """The span of sparse vectors {index: value} of Q^ambient_dim."""
        rows = [{j: _check_entry(x) for j, x in v.items() if x != 0} for v in vectors]
        return cls._from_rref(ambient_dim, _rref(rows))

    @classmethod
    def zero(cls, ambient_dim):
        return cls._from_rref(ambient_dim, [])

    @classmethod
    def full(cls, ambient_dim):
        return cls._from_rref(ambient_dim, [{i: 1} for i in range(ambient_dim)])

    @property
    def dim(self):
        return len(self.sparse_rows)

    @property
    def basis(self) -> Matrix:
        if self._basis is None:
            n = self.ambient_dim
            self._basis = Matrix.from_rows([[row.get(j, 0) for j in range(n)] for row in self.sparse_rows], cols=n)
        return self._basis

    def basis_vectors(self):
        return self.basis.row_list()

    def pivots(self):
        return list(self._index)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.sparse_rows == other.sparse_rows

    def __hash__(self):
        return hash((self.ambient_dim, tuple(tuple(sorted(r.items())) for r in self.sparse_rows)))

    def coordinates(self, vec: dict) -> dict:
        """Coordinates {i: c} of a sparse vector {index: value} in the rref
        basis: c is its entry at pivot i.  The combination matches it at the
        pivots by construction, so only the other columns are checked:
        NotACochain outside the span, DimensionMismatch outside Q^n."""
        vec = {k: x for k, x in vec.items() if x != 0}
        if vec and not (0 <= min(vec) and max(vec) < self.ambient_dim):
            raise DimensionMismatch("vector index outside the ambient dimension")
        coords, rest = {}, {}
        for k, x in vec.items():
            if k in self._index:
                coords[self._index[k]] = x
            else:
                rest[k] = x
        for i, c in coords.items():
            for k, x in self.sparse_rows[i].items():
                if k not in self._index:
                    y = rest.get(k, 0) - c * x
                    if y:
                        rest[k] = y
                    else:
                        del rest[k]
        if rest:
            raise NotACochain("vector is outside the subspace")
        return coords

    def contains_vector(self, v):
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length does not match ambient dimension")
        return self.contains_sparse(dict(enumerate(v)))

    def contains_sparse(self, vec: dict):
        """Membership of a sparse vector {index: value}."""
        try:
            self.coordinates(vec)
        except NotACochain:
            return False
        return True

    def contains(self, other: "Subspace"):
        self._check_ambient(other)
        return all(self.contains_sparse(r) for r in other.sparse_rows)

    def sum(self, other: "Subspace"):
        self._check_ambient(other)
        return Subspace._from_rref(self.ambient_dim, _rref(self.sparse_rows + other.sparse_rows))

    def annihilator(self) -> "Subspace":
        """{u : <u, v> = 0 for all v in self} under the standard dot pairing."""
        return sparse_kernel(self.sparse_rows, self.ambient_dim)

    def intersect(self, other: "Subspace"):
        # the kernel of the stacked dual constraints from both annihilators
        self._check_ambient(other)
        con = self.annihilator().sparse_rows + other.annihilator().sparse_rows
        return sparse_kernel(con, self.ambient_dim)

    def orthogonal_complement(self, gram: Matrix) -> "Subspace":
        """{x : basis_i . gram . x = 0 for every basis vector} (orthogonal)."""
        if gram.rows != self.ambient_dim or gram.cols != self.ambient_dim:
            raise DimensionMismatch("gram matrix must be square of the ambient dimension")
        return self.orthogonal(sparse_columns(gram))

    def orthogonal(self, gram) -> "Subspace":
        """{x : b . G x = 0 for every basis vector b}, the gram G given by its
        sparse columns: the kernel of the rows b G, (b G)[x] = b . G[:, x]."""
        rows = [
            {x: s for x, col in enumerate(gram) if (s := sum(b[k] * c for k, c in col.items() if k in b))}
            for b in self.sparse_rows
        ]
        return sparse_kernel(rows, self.ambient_dim)

    def _check_ambient(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient_dim})"
