import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symlie import InsertionMode, make_spin
from symlie.complexes import differential_matrix
from symlie.exactla import (Matrix, kernel_basis, rank, rat_from_str, rat_to_str,
                            rref, solve)

from oracles import (dense_add, dense_column, dense_mul, dense_mul_vec, dense_scale,
                     reference_kernel_basis, reference_rref, reference_solve)


def M(rows):
    return Matrix.from_rows([[Fraction(x) for x in r] for r in rows])


def test_rank_identity_and_zero():
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix.zeros(2, 4)) == 0


def test_rank_proportional_rows():
    assert rank(M([[1, 2], [2, 4]])) == 1


def test_kernel_proportional_rows():
    assert kernel_basis(M([[1, 2], [2, 4]])) == [(Fraction(-2), Fraction(1))]


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(4)) == []


def test_kernel_single_row():
    assert kernel_basis(M([[1, 1]])) == [(Fraction(-1), Fraction(1))]


def test_solve_identity():
    assert solve(Matrix.identity(2), [1, 2]) == (Fraction(1), Fraction(2))


def test_solve_free_variable_zeroed():
    assert solve(M([[1, 1]]), [3]) == (Fraction(3), Fraction(0))


def test_solve_inconsistent():
    assert solve(M([[1], [1]]), [0, 1]) is None


def test_solve_wrong_rhs_length():
    with pytest.raises(ValueError):
        solve(M([[1, 0]]), [1, 2])


def test_rank_nullity_and_exactness_random():
    rng = random.Random(31)
    for _ in range(40):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        m = M([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(c)]
               for _ in range(r)])
        basis = kernel_basis(m)
        assert rank(m) + len(basis) == c
        for v in basis:
            assert all(x == 0 for x in m.mul_vec(v))
        b = m.mul_vec([Fraction(rng.randint(-2, 2)) for _ in range(c)])
        x = solve(m, b)
        assert x is not None
        assert m.mul_vec(x) == tuple(b)


def test_rref_pivots_deterministic():
    m = M([[0, 2, 1], [0, 4, 3]])
    red, pivots = rref(m)
    assert pivots == (1, 2)
    assert red.data[0][1] == 1 and red.data[1][2] == 1


def test_rat_string_round_trip():
    for s in ["3", "-3", "5/7", "-12/5", "0"]:
        assert rat_to_str(rat_from_str(s)) == s
    assert rat_from_str("4/8") == Fraction(1, 2)


@pytest.mark.parametrize("bad", ["", "1.5", "1/-2", "a/b", "1/0", "2/", "--3"])
def test_rat_string_rejects_garbage(bad):
    with pytest.raises(ValueError):
        rat_from_str(bad)


def test_big_intermediates_stay_exact():
    # denominators in the hundreds of digits must still reduce correctly
    a = Fraction(10**300 + 1, 10**300)
    b = Fraction(1, 10**300)
    assert a - b == 1
    assert rat_from_str(rat_to_str(a)) == a


def test_from_columns_rejects_a_column_of_the_wrong_length():
    with pytest.raises(ValueError, match="column 0 has length 3, expected 2"):
        Matrix.from_columns([[1, 2, 3], [4, 5, 6]], 2)
    with pytest.raises(ValueError, match="column 1 has length 1, expected 2"):
        Matrix.from_columns([[1, 2], [4]], 2)
    assert Matrix.from_columns([[1, 2], [0, 4]], 2) == M([[1, 0], [2, 4]])


def test_matrix_coerces_and_copies_its_input():
    assert type(Matrix(1, 1, [[2]]).data[0][0]) is Fraction
    rows = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    m = Matrix(2, 2, rows)
    rows[0][0] = Fraction(7)
    rows[1].append(Fraction(5))
    assert m.data == [[1, 2], [3, 4]]


# ---------------------------------------------------------------------------
# elimination against the dense Fraction Gauss-Jordan of tests/oracles.py

BIG = 10 ** 30
SMALL = st.fractions(min_value=-6, max_value=6, max_denominator=4)
ENTRIES = st.one_of(st.just(Fraction(0)), SMALL,
                    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))


@st.composite
def matrices(draw, rows=None, cols=None):
    """Up to 8x8 (wide, tall, empty), often rank deficient, with zero rows
    and columns, signed entries and 30-digit numerators and denominators.
    `rows` and `cols` fix the shape."""
    rows = draw(st.integers(0, 8)) if rows is None else rows
    cols = draw(st.integers(0, 8)) if cols is None else cols
    data = [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and draw(st.booleans()):
        # rows k.. become combinations of rows 0..k-1
        k = draw(st.integers(1, rows - 1))
        for i in range(k, rows):
            coeffs = [draw(SMALL) for _ in range(k)]
            data[i] = [sum((c * data[t][j] for t, c in enumerate(coeffs)), Fraction(0))
                       for j in range(cols)]
    if rows:
        for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
            data[i] = [Fraction(0)] * cols
    if cols:
        for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
            for row in data:
                row[j] = Fraction(0)
    return Matrix(rows, cols, data)


def _stores_no_zero(m):
    return all(type(x) is Fraction and x for row in m.srows for x in row.values())


@given(st.data())
def test_sparse_matrix_matches_dense_reference(data):
    a = data.draw(matrices())
    b = data.draw(matrices(a.rows, a.cols))
    c = data.draw(matrices(a.cols))
    s = data.draw(ENTRIES)
    v = [data.draw(ENTRIES) for _ in range(a.cols)]
    A, B, C = a.data, b.data, c.data
    results = [a.mul(c), a.add(b), a.scale(s), a.add(a.scale(-1))]
    assert [r.data for r in results] == [dense_mul(A, C, c.cols), dense_add(A, B),
                                         dense_scale(s, A), dense_add(A, dense_scale(-1, A))]
    assert a.mul_vec(v) == dense_mul_vec(A, v)
    assert [a.column(j) for j in range(a.cols)] == [dense_column(A, j) for j in range(a.cols)]
    assert (a == b) == (A == B)
    assert a == Matrix(a.rows, a.cols, A) == Matrix.from_columns(
        [dense_column(A, j) for j in range(a.cols)], a.rows)
    assert a.is_zero() == all(x == 0 for row in A for x in row)
    assert results[3].is_zero() and results[3] == Matrix.zeros(a.rows, a.cols)
    assert all(_stores_no_zero(m) for m in [a, b, c, rref(a)[0]] + results)


@given(matrices())
def test_mutating_data_never_changes_the_matrix(m):
    before = m.data
    view = m.data
    for row in view:
        row[:] = [Fraction(7)] * len(row)
        row.append(Fraction(1))
    view.append([Fraction(1)])
    assert m.data == before
    assert m == Matrix(m.rows, m.cols, before)


@given(matrices())
def test_rref_matches_reference(m):
    red, pivots = rref(m)
    assert (red, pivots) == reference_rref(m)
    assert all(type(x) is Fraction for row in red.data for x in row)


@given(matrices())
def test_rank_matches_reference(m):
    assert rank(m) == len(reference_rref(m)[1])


@given(matrices())
def test_kernel_basis_matches_reference(m):
    assert kernel_basis(m) == reference_kernel_basis(m)


@given(st.data())
def test_solve_matches_reference(data):
    m = data.draw(matrices())
    if data.draw(st.booleans()):  # consistent by construction
        b = m.mul_vec([data.draw(ENTRIES) for _ in range(m.cols)])
    else:  # often inconsistent
        b = [data.draw(ENTRIES) for _ in range(m.rows)]
    assert solve(m, b) == reference_solve(m, b)


@pytest.mark.parametrize("mode", list(InsertionMode))
@pytest.mark.parametrize("n", [2, 3])
def test_elimination_on_spin_differentials(n, mode):
    m = differential_matrix(make_spin([1, 2, -3]), n, mode).matrix
    red, pivots = reference_rref(m)
    assert rref(m) == (red, pivots)
    assert rank(m) == len(pivots)
    # d has full column rank; its transpose, whose columns are d's rows, does not
    for a in (m, Matrix.from_columns(m.data, m.cols)):
        assert kernel_basis(a) == reference_kernel_basis(a)
        assert rank(a) == len(pivots)
    consistent = m.mul_vec([Fraction(j % 5 - 2, j % 3 + 1) for j in range(m.cols)])
    unit = [Fraction(int(i == m.rows - 1)) for i in range(m.rows)]
    for b in (consistent, unit):
        assert solve(m, b) == reference_solve(m, b)
