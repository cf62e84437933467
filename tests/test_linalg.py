import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from nambu.linalg import (
    Matrix,
    _cancel,
    _echelon,
    _primitive,
    _rref,
    Scalar,
    Subspace,
    first_nonzero_digit,
    format_scalar,
    image,
    kronecker_pack,
    nullspace,
    particular_solution,
    parse_scalar,
    rank,
    solve_affine,
    sparse_kernel,
    sparse_rank,
    sparse_solution,
)
from dense_wrappers import add, left_inverse, neg, rref, sub
from dense_rref_oracle import _rref_pivots, oracle_nullspace, oracle_solve_affine, rref_basis
from nambu.errors import DimensionMismatch, InternalError, NotACochain


def mat(rows):
    return Matrix.from_rows(rows)


def det3(m):
    # cofactor expansion, independent of rref
    a, b, c = m.row(0)
    d, e, f = m.row(1)
    g, h, i = m.row(2)
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


class TestScalar:
    def test_lowest_terms_and_positive_denominator(self):
        s = Scalar(4, -6)
        assert (s.numerator, s.denominator) == (-2, 3)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Scalar(0.5)
        with pytest.raises(TypeError):
            Scalar(1, 2.0)

    def test_parse_and_format(self):
        assert parse_scalar("3/4") == Fraction(3, 4)
        assert parse_scalar("-7") == -7
        assert parse_scalar(5) == 5
        assert format_scalar(Fraction(-2, 3)) == "-2/3"
        assert format_scalar(Fraction(4, 2)) == "2"

    def test_parse_rejects_garbage(self):
        from nambu.errors import ParseError

        with pytest.raises(ParseError):
            parse_scalar("1/0")
        with pytest.raises(ParseError):
            parse_scalar("0.5")
        with pytest.raises(ParseError):
            parse_scalar(1.5)

    def test_matrix_rejects_floats(self):
        with pytest.raises(TypeError):
            Matrix(1, 1, [0.5])

    def test_parse_returns_int_when_integral(self):
        # the scalar contract: integral input is computed on as a plain int
        for text, value in ((4, 4), ("4", 4), ("-6/3", -2), ("0/5", 0), (" +7/1 ", 7)):
            x = parse_scalar(text)
            assert type(x) is int and x == value, text
        half = parse_scalar("1/2")
        assert type(half) is Fraction and half == Fraction(1, 2)
        assert type(parse_scalar("-4/6")) is Fraction and parse_scalar("-4/6") == Fraction(-2, 3)

    def test_parse_integer_strings_fast_path_keeps_every_rejection(self):
        from nambu.errors import ParseError

        # an integer string is returned as an int with no Fraction built;
        # a quotient still goes through Fraction and is reduced
        for text, value in (("12", 12), ("-0", 0), ("4/2", 2)):
            x = parse_scalar(text)
            assert type(x) is int and x == value, text
        for bad in (True, False, 2.0, "2.0", "1_0", "1_0/3", "3/0", "", "+"):
            with pytest.raises(ParseError):
                parse_scalar(bad)

    def test_parse_rejects_bools(self):
        from nambu.errors import ParseError

        for flag in (True, False):
            with pytest.raises(ParseError):
                parse_scalar(flag)

    def test_ring_operations_refuse_floats_without_rechecking(self):
        # the results of +, -, *, transpose and scale are built unchecked;
        # floats still cannot get in through the constructor or the scalar
        m = Matrix(2, 2, [1, Fraction(1, 2), 0, 3])
        with pytest.raises(TypeError):
            m.scale(0.5)
        with pytest.raises(TypeError):
            m.scale(True)
        with pytest.raises(TypeError):
            Matrix(1, 2, [1, 0.5])
        with pytest.raises(TypeError):
            Matrix.from_rows([[1, 2.0]])
        results = [add(m, m), sub(m, m), neg(m), m * m, m.transpose(), m.scale(Fraction(2, 3))]
        for r in results:
            assert all(type(x) in (int, Fraction) for x in r.data)
        assert m * m == Matrix(2, 2, [1, 2, 0, 9])
        assert m.transpose() == Matrix(2, 2, [1, 0, Fraction(1, 2), 3])


class TestRref:
    def test_identity(self):
        r, rk = rref(Matrix.identity(2))
        assert r == Matrix.identity(2)
        assert rk == 2

    def test_rank_one_by_construction(self):
        r, rk = rref(mat([[1, 2], [2, 4]]))
        assert rk == 1
        assert r == mat([[1, 2], [0, 0]])

    def test_circulant_rank_three(self):
        m = mat([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert det3(m) == 2  # nonzero determinant forces full rank
        assert rank(m) == 3

    def test_exactness_no_drift(self):
        m = mat([[Fraction(1, 3), Fraction(1, 7)], [Fraction(2, 3), Fraction(2, 7)]])
        _, rk = rref(m)
        assert rk == 1


class TestNullspace:
    def test_zero_matrix(self):
        assert nullspace(Matrix.zeros(3, 3)).dim == 3

    def test_identity(self):
        assert nullspace(Matrix.identity(3)).dim == 0

    def test_single_constraint(self):
        ns = nullspace(mat([[1, 1, 0]]))
        assert ns.dim == 2
        assert ns.contains_vector([1, -1, 0])
        assert ns.contains_vector([0, 0, 1])
        assert not ns.contains_vector([1, 1, 0])

    def test_members_are_killed_exactly(self):
        m = mat([[2, 3, 5], [7, 11, 13]])
        ns = nullspace(m)
        for v in ns.basis_vectors():
            assert all(x == 0 for x in m.apply(v))


class TestSubspaceOps:
    def test_sum_of_axes(self):
        e1 = Subspace.from_vectors(3, [[1, 0, 0]])
        e2 = Subspace.from_vectors(3, [[0, 1, 0]])
        assert e1.sum(e2) == Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])

    def test_intersection(self):
        a = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
        b = Subspace.from_vectors(3, [[0, 1, 0], [0, 0, 1]])
        assert a.intersect(b) == Subspace.from_vectors(3, [[0, 1, 0]])

    def test_full_contains_everything(self):
        full = Subspace.full(4)
        some = Subspace.from_vectors(4, [[1, 2, 3, 4], [0, 0, 1, 1]])
        assert full.contains(some)

    def test_image_of_matrix(self):
        m = mat([[1, 0], [0, 0], [1, 0]])
        assert image(m) == Subspace.from_vectors(3, [[1, 0, 1]])

    def test_canonical_equality(self):
        a = Subspace.from_vectors(2, [[2, 4]])
        b = Subspace.from_vectors(2, [[1, 2]])
        assert a == b
        assert a.basis == b.basis


class TestOrthogonalComplement:
    def test_zero_subspace(self):
        z = Subspace.zero(3)
        assert z.orthogonal_complement(Matrix.identity(3)) == Subspace.full(3)

    def test_euclidean_line(self):
        v = Subspace.from_vectors(2, [[1, 0]])
        assert v.orthogonal_complement(Matrix.identity(2)) == Subspace.from_vectors(2, [[0, 1]])

    def test_hyperbolic_isotropic_line_is_self_orthogonal(self):
        gram = mat([[0, 1], [1, 0]])
        v = Subspace.from_vectors(2, [[1, 0]])
        assert v.orthogonal_complement(gram) == v


class TestSolveAffine:
    def test_unique_solution(self):
        x, ker = solve_affine(mat([[1, 1], [0, 1]]), [3, 1])
        assert x == [2, 1]
        assert ker.dim == 0

    def test_inconsistent(self):
        x, _ = solve_affine(mat([[1, 1], [2, 2]]), [1, 3])
        assert x is None

    def test_minimal_lex_particular(self):
        # x0 + x1 = 1 with x1 free -> particular (1, 0)
        x, ker = solve_affine(mat([[1, 1]]), [1])
        assert x == [1, 0]
        assert ker.dim == 1


small_entries = st.integers(min_value=-4, max_value=4)


def matrices(max_dim=4):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda r: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda c: st.lists(small_entries, min_size=r * c, max_size=r * c).map(
                lambda data: Matrix(r, c, data)
            )
        )
    )


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + nullspace(m).dim == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_idempotent(m):
    r, _ = rref(m)
    r2, _ = rref(r)
    assert r == r2


@settings(max_examples=60, deadline=None)
@given(matrices(max_dim=4), matrices(max_dim=4))
def test_dimension_modular_law(a, b):
    n = max(a.cols, b.cols)

    def pad(mtx):
        return [row + [0] * (n - mtx.cols) for row in mtx.row_list()]

    sa = Subspace.from_vectors(n, pad(a))
    sb = Subspace.from_vectors(n, pad(b))
    assert sa.sum(sb).dim + sa.intersect(sb).dim == sa.dim + sb.dim


@settings(max_examples=40, deadline=None)
@given(matrices(max_dim=4))
def test_double_orthogonal_complement_euclidean(m):
    v = Subspace.from_vectors(m.cols, m.row_list())
    gram = Matrix.identity(m.cols)
    w = v.orthogonal_complement(gram)
    assert v.dim + w.dim == m.cols
    assert w.orthogonal_complement(gram) == v


def test_double_complement_hyperbolic():
    gram = mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    v = Subspace.from_vectors(3, [[1, 0, 0], [0, 0, 2]])
    w = v.orthogonal_complement(gram)
    assert v.dim + w.dim == 3
    assert w.orthogonal_complement(gram) == v


sparse_entries = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)


dense_entries = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
)


@st.composite
def sparse_matrices(draw, entries=sparse_entries):
    """Mostly-zero integer and rational matrices, including 0 x n and n x 0,
    with duplicated and rescaled rows mixed in."""
    r = draw(st.integers(min_value=0, max_value=7))
    c = draw(st.integers(min_value=0, max_value=7))
    rows = [draw(st.lists(entries, min_size=c, max_size=c)) for _ in range(r)]
    if rows:
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            src = rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))]
            scale = draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
            rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), [scale * x for x in src])
    return Matrix(len(rows), c, [x for row in rows for x in row])


def _dense_rank(m):
    return len(_rref_pivots(m)[1])


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_sparse_rank_equals_dense_rref_rank(m):
    rows = [{j: x for j, x in enumerate(m.row(i)) if x != 0} for i in range(m.rows)]
    expected = _dense_rank(m)
    assert sparse_rank(rows) == expected
    assert rank(m) == expected
    # rank of the transpose, fed as columns
    cols = [{i: x for i, x in enumerate(m.col(j)) if x != 0} for j in range(m.cols)]
    assert sparse_rank(cols) == expected


def test_sparse_rank_edge_shapes():
    assert sparse_rank([]) == 0  # 0 x n
    assert sparse_rank([{}, {}, {}]) == 0  # n x 0, and the zero matrix
    assert rank(Matrix(0, 4, [])) == 0
    assert rank(Matrix(3, 0, [])) == 0
    assert rank(Matrix.zeros(3, 4)) == 0
    assert sparse_rank([{0: 1, 2: 3}, {0: 1, 2: 3}, {0: -2, 2: -6}]) == 1
    assert sparse_rank([{0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: 3, 1: 2}]) == 1
    assert sparse_rank([{0: 0, 1: 0}, {1: Fraction(-7, 9)}]) == 1
    assert sparse_rank([{0: 10 ** 30, 1: 1}, {0: 1, 1: 7}]) == 2


@settings(max_examples=300, deadline=None)
@given(st.one_of(sparse_matrices(), sparse_matrices(dense_entries)), st.data())
def test_sparse_rref_equals_dense_oracle(m, data):
    reduced, pivots = _rref_pivots(m)
    assert rref(m) == (reduced, len(pivots))
    assert nullspace(m).basis == oracle_nullspace(m)
    assert Subspace.from_vectors(m.cols, m.row_list()).basis == rref_basis(m.cols, m.row_list())
    b = data.draw(st.lists(sparse_entries, min_size=m.rows, max_size=m.rows))
    x, ker = solve_affine(m, b)
    assert x == oracle_solve_affine(m, b)
    assert ker == nullspace(m)
    assert particular_solution(m, b) == x


def test_sparse_rref_edge_shapes():
    for m in (Matrix(0, 3, []), Matrix(3, 0, []), Matrix.zeros(2, 3), mat([[1, 2], [1, 2], [2, 4]])):
        reduced, pivots = _rref_pivots(m)
        assert rref(m) == (reduced, len(pivots))
        assert nullspace(m).basis == oracle_nullspace(m)
        x, _ = solve_affine(m, [0] * m.rows)
        assert x == oracle_solve_affine(m, [0] * m.rows)
        assert particular_solution(m, [0] * m.rows) == x


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(dense_entries), st.data())
def test_coordinates_round_trip_and_reject_outside(m, data):
    space = Subspace.from_vectors(m.cols, m.row_list())
    coeffs = data.draw(st.lists(sparse_entries, min_size=space.dim, max_size=space.dim))
    vec = {}
    for c, row in zip(coeffs, space.sparse_rows):
        for k, x in row.items():
            vec[k] = vec.get(k, 0) + c * x
    assert space.coordinates(vec) == {i: c for i, c in enumerate(coeffs) if c != 0}
    assert space.contains_vector([vec.get(k, 0) for k in range(m.cols)])
    outside = [k for k in range(m.cols) if k not in space.pivots()]
    if outside:
        # a unit vector at a non-pivot column has all coordinates 0, so it
        # lies outside the span
        with pytest.raises(NotACochain):
            space.coordinates({outside[0]: 1})
        assert not space.contains_vector([int(k == outside[0]) for k in range(m.cols)])
    with pytest.raises(DimensionMismatch):
        space.coordinates({m.cols: 1})
    with pytest.raises(DimensionMismatch):
        space.coordinates({-1: 1})


@st.composite
def full_column_rank(draw, entries=dense_entries):
    """An r x c matrix of rank c, c <= r <= 6, square or tall, 0 columns
    included: rows of (unit lower triangular) x (upper trapezoidal with a
    nonzero diagonal), shuffled."""
    r = draw(st.integers(min_value=0, max_value=6))
    c = draw(st.integers(min_value=0, max_value=r))
    nonzero = entries.filter(lambda x: x != 0)
    lower = [[1 if i == j else (draw(entries) if j < i else 0) for j in range(r)] for i in range(r)]
    upper = [[(draw(nonzero) if i == j else draw(entries)) if i <= j and i < c else 0 for j in range(c)] for i in range(r)]
    rows = [[sum(lower[i][k] * upper[k][j] for k in range(r)) for j in range(c)] for i in range(r)]
    return Matrix(r, c, [x for row in draw(st.permutations(rows)) for x in row]) if r else Matrix(0, 0, [])


@settings(max_examples=200, deadline=None)
@given(st.one_of(full_column_rank(), full_column_rank(sparse_entries)), st.data())
def test_left_inverse_equals_particular_solutions(m, data):
    inv = left_inverse(m)
    assert (inv.rows, inv.cols) == (m.cols, m.rows)
    assert (inv * m).is_identity()
    if m.rows == m.cols:
        # the inverse, built one unit vector at a time
        units = [[int(i == j) for i in range(m.rows)] for j in range(m.rows)]
        assert [inv.col(j) for j in range(m.rows)] == [particular_solution(m, u) for u in units]
    # coordinates of a vector of the column space in the basis of the columns
    y = data.draw(st.lists(dense_entries, min_size=m.cols, max_size=m.cols))
    x = m.apply(y)
    assert inv.apply(x) == y == particular_solution(m, x)


@settings(max_examples=100, deadline=None)
@given(full_column_rank(), st.data())
def test_left_inverse_of_dependent_columns_is_none(m, data):
    # a column that repeats a combination of the others, or a zero column
    coeffs = data.draw(st.lists(dense_entries, min_size=m.cols, max_size=m.cols))
    extra = m.apply(coeffs)
    at = data.draw(st.integers(min_value=0, max_value=m.cols))
    rows = [row[:at] + [x] + row[at:] for row, x in zip(m.row_list(), extra)]
    dependent = Matrix(m.rows, m.cols + 1, [x for row in rows for x in row])
    assert left_inverse(dependent) is None
    assert left_inverse(Matrix(2, 3, [1, 0, 0, 0, 1, 0])) is None  # wide


def test_left_inverse_edge_shapes():
    assert left_inverse(Matrix(0, 0, [])) == Matrix(0, 0, [])
    assert left_inverse(Matrix(3, 0, [])) == Matrix(0, 3, [])
    assert left_inverse(Matrix(0, 1, [])) is None
    assert left_inverse(Matrix.zeros(2, 2)) is None
    assert left_inverse(mat([[2, 1], [1, 1]])) == mat([[1, -1], [-1, 2]])
    tall = mat([[2], [4]])
    assert (left_inverse(tall) * tall).is_identity()


def _apply_rows(rows, vec) -> dict:
    """The integer map whose output o is sum_u rows[o][u] * vec[u], on a
    sparse vector; zeros dropped."""
    out = {}
    for o, row in enumerate(rows):
        y = sum(c * vec.get(u, 0) for u, c in enumerate(row))
        if y:
            out[o] = y
    return out


@st.composite
def packed_blocks(draw):
    """Sparse integer vectors with entries in [-E, E], a square integer map,
    and B = E * the largest sum of |entries| of a row of the map (at least
    E): no entry of an image exceeds B."""
    n = draw(st.integers(min_value=1, max_value=5))
    e = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n))
    vector = st.dictionaries(st.integers(0, n - 1), st.integers(-e, e), max_size=n)
    vectors = draw(st.lists(vector, min_size=1, max_size=7))
    return vectors, rows, e * max(1, max(sum(map(abs, row)) for row in rows))


@settings(max_examples=300, deadline=None)
@given(packed_blocks())
@example(([{}], [[1]], 1))  # one zero vector
@example(([{}, {0: 0}, {}], [[1, 0], [0, 1]], 1))  # all-zero vectors
@example(([{0: 3, 1: -3}], [[1, -1], [1, 1]], 6))  # one vector, an image entry at +B
@example(([{1: 3}, {0: -3, 1: 3}], [[1, -1], [0, 1]], 6))  # -B in the second image
@example(([{0: 2}, {0: -1}], [[1]], 2))  # +B over -1 at one key: zero for a base of B
def test_packed_images_decode_to_the_first_nonzero_image(case):
    # an integer map applied to the packed vectors packs their images, whose
    # digits decode exactly in base 2B + 1
    vectors, rows, bound = case
    base = 2 * bound + 1
    images = [_apply_rows(rows, vec) for vec in vectors]
    first = next(((i, min(image)) for i, image in enumerate(images) if image), None)
    assert first_nonzero_digit(_apply_rows(rows, kronecker_pack(vectors, base)), base) == first


def test_kronecker_pack_takes_only_ints():
    # a check that raises, kept under python -O
    assert kronecker_pack([{0: 1, 2: -1}, {}, {2: 2}], 3) == {0: 1, 2: -1 + 2 * 9}
    for entry in (Fraction(1, 2), Fraction(2)):
        with pytest.raises(InternalError, match="not an int"):
            kronecker_pack([{0: 1}, {1: entry}], 3)


def _echelon_counting_swaps(rows):
    """The loop of linalg._echelon, replayed on its own _primitive and
    _cancel, with a count of the rows that took a longer row's pivot."""
    echelon, swaps = {}, 0
    for row in sorted(map(_primitive, rows), key=len):
        while row:
            c = min(row)
            if c not in echelon:
                echelon[c] = row
                break
            if len(row) < len(echelon[c]):
                echelon[c], row = row, echelon[c]
                swaps += 1
            row = _cancel(row, echelon[c], c)
    return echelon, swaps


def _swapping_matrix(rng):
    """Long rows P_1..P_k with leading columns c_1 < .. < c_k, and rows
    x P_i + s for a short s whose first column is a later c_j: such a row
    sorts after P_i, is cancelled down to s at c_i, and then meets the
    longer P_j.  Shuffled, with rational entries and one dense noise row."""
    ncols = rng.randint(8, 12)
    k = rng.randint(2, 4)
    leads = sorted(rng.sample(range(ncols - 3), k))
    entry = lambda: rng.choice([1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3)])
    longs = []
    for c in leads:
        rest = rng.sample(range(c + 1, ncols), min(ncols - c - 1, rng.randint(4, 6)))
        longs.append({c: entry(), **{j: entry() for j in rest}})
    rows = list(longs)
    for _ in range(rng.randint(2, 5)):
        i = rng.randrange(k - 1)
        j = rng.randrange(i + 1, k)
        short = {leads[j]: entry(), rng.randrange(leads[j] + 1, ncols): entry()}
        x = entry()
        row = {c: x * y for c, y in longs[i].items()}
        for c, y in short.items():
            row[c] = row.get(c, 0) + y
        rows.append(row)
    rows.append({j: entry() for j in range(ncols)})
    rng.shuffle(rows)
    return Matrix.from_rows([[row.get(j, 0) for j in range(ncols)] for row in rows], cols=ncols)


def test_pivot_swaps_keep_every_result_of_the_dense_oracle():
    # a shorter row takes a longer pivot row's column; _rref, sparse_rank,
    # sparse_kernel and sparse_solution still equal the dense Gauss-Jordan
    rng = random.Random(7)
    swaps = 0
    for _ in range(60):
        m = _swapping_matrix(rng)
        rows = [{j: x for j, x in enumerate(m.row(i)) if x != 0} for i in range(m.rows)]
        echelon, count = _echelon_counting_swaps(rows)
        assert _echelon(rows) == echelon
        swaps += count
        reduced, pivots = _rref_pivots(m)
        assert _rref(rows) == [{j: x for j, x in enumerate(r) if x != 0} for r in reduced.row_list()[: len(pivots)]]
        assert sparse_rank(rows) == len(pivots)
        assert sparse_kernel(rows, m.cols).basis == oracle_nullspace(m)
        rhs = [rng.choice([0, 1, -2, Fraction(1, 3)]) for _ in range(m.rows)]
        assert sparse_solution(rows, m.cols, rhs) == oracle_solve_affine(m, rhs)
        consistent = m.apply([rng.choice([0, 1, -1]) for _ in range(m.cols)])
        assert sparse_solution(rows, m.cols, consistent) == oracle_solve_affine(m, consistent)
    assert swaps >= 60
