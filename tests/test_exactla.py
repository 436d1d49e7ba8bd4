import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symlie import InsertionMode, algebra_from_entries, exactla, make_spin
from symlie.complexes import cohomology, differential_matrix
from symlie.exactla import (Matrix, _eliminate, _full_rank_mod_p, kernel_basis, rank,
                            rat_from_str, rat_to_str, solve)

from oracles import (_row_echelon_rank, dense_column, dense_mul, dense_mul_vec, dense_scale,
                     reference_kernel_basis, reference_rank_mod_p, reference_rref,
                     reference_scan_eliminate, reference_solve)


def M(rows):
    return Matrix(len(rows), len(rows[0]), rows)


def zeros(rows, cols):
    return Matrix(rows, cols, [[0] * cols for _ in range(rows)])


def _over_pivots(rows, pivots):
    """Each row over its entry at its pivot: on cleared rows, rows of the RREF."""
    return [{j: Fraction(x, r[p]) for j, x in r.items()} for r, p in zip(rows, pivots)]


def _reduced(m):
    """The RREF and pivots of m from `_eliminate(m.num, True)`, each pivot row over its
    pivot entry, in the form of `reference_rref`."""
    rows, pivots = _eliminate(m.num, True)
    red = [[r.get(j, 0) for j in range(m.cols)] for r in _over_pivots(rows, pivots)]
    return Matrix(m.rows, m.cols, red + [[0] * m.cols] * (m.rows - len(red))), pivots


def _dense(cols, num, den):
    return [[Fraction(r.get(j, 0), den) for j in range(cols)] for r in num]


def test_reduced_rows_are_kept_as_given():
    # gcd 1 and no stored zero: nothing to divide out or drop
    rng = random.Random(5)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        num = [{j: rng.choice([-3, -1, 1, 2, 5]) for j in range(cols) if rng.random() < 0.6}
               for _ in range(rows)]
        den = rng.choice([1, 2, 7])
        if gcd(den, *(x for r in num for x in r.values())) != 1:
            continue
        m = Matrix._from_ints(rows, cols, num, den)
        assert m.num is num and m.den == den
        assert m == Matrix(rows, cols, _dense(cols, num, den))


@pytest.mark.parametrize("num, den, want_num, want_den", [
    ([{0: 2, 1: 0}, {2: -4}], 6, [{0: 1}, {2: -2}], 3),          # a stored zero and a factor 2
    ([{0: 3, 2: 0}, {}], 1, [{0: 3}, {}], 1),                     # a stored zero only
    ([{0: 6, 1: -9}, {1: 3}], 3, [{0: 2, 1: -3}, {1: 1}], 1),     # a common factor only
    ([{0: 0}, {1: 0}], 5, [{}, {}], 1),                           # only zeros
])
def test_reduce_still_divides_out_and_drops_zeros(num, den, want_num, want_den):
    m = Matrix._from_ints(2, 3, num, den)
    assert (m.num, m.den) == (want_num, want_den)
    assert m == Matrix(2, 3, _dense(3, num, den))


def test_rank_identity_and_zero():
    assert rank(Matrix.identity(3)) == 3
    assert rank(zeros(2, 4)) == 0


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
            assert all(x == 0 for x in dense_mul_vec(m.data, v))
        b = dense_mul_vec(m.data, [Fraction(rng.randint(-2, 2)) for _ in range(c)])
        x = solve(m, b)
        assert x is not None
        assert dense_mul_vec(m.data, x) == tuple(b)


def test_rref_pivots_deterministic():
    m = M([[0, 2, 1], [0, 4, 3]])
    rows, pivots = _eliminate(m.num, True)
    assert pivots == (1, 2)
    assert _over_pivots(rows, pivots) == [{1: 1}, {2: 1}]


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


@pytest.mark.parametrize("j", [2, -1])
def test_column_refuses_an_index_out_of_range(j):
    m = M([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match=f"column index j={j} out of range for 2 columns"):
        m.column(j)
    assert [m.column(i) for i in range(2)] == [(1, 3), (2, 4)]


def _counted_transposes(monkeypatch):
    """A live list of the column lists `exactla._transpose` returns, in call order."""
    calls, transpose = [], exactla._transpose
    monkeypatch.setattr(exactla, "_transpose", lambda *a: calls.append(transpose(*a)) or calls[-1])
    return calls


def test_column_view_is_built_on_first_read_and_kept(monkeypatch):
    calls = _counted_transposes(monkeypatch)
    m = M([[1, 0, 2], [0, 3, 0]])
    assert calls == []  # building a matrix reads no column
    assert m._columns() == [{0: 1}, {1: 3}, {0: 2}] and calls == [m._columns()]
    assert [m.column(j) for j in range(3)] == [(1, 0), (0, 3), (2, 0)] and len(calls) == 1
    # every construction path starts without a view: a product, a scale, a reduction
    for other in (m.scale(2), M([[1, 0], [0, 1]]).mul(m), Matrix._from_ints(2, 3, m.num, 2)):
        assert other._by_col is None
        assert other._columns() is other._columns() is calls[-1]
    assert len(calls) == 4


@given(st.data())
def test_column_view_is_the_transpose_and_no_reader_changes_it(data):
    m = data.draw(matrices())
    fresh = Matrix._from_ints(m.rows, m.cols, m.num, m.den)  # the same rows, no view read
    assert m._columns() == exactla._transpose(m.num, m.cols)
    assert [m.column(j) for j in range(m.cols)] == [dense_column(m.data, j) for j in range(m.cols)]
    assert m == fresh and fresh == m and repr(m) == repr(fresh)  # never compared
    assert (m.data, m.to_strs()) == (fresh.data, fresh.to_strs())
    b = [data.draw(ENTRIES) for _ in range(m.rows)]
    assert (rank(m), kernel_basis(m), solve(m, b)) == (rank(fresh), kernel_basis(fresh),
                                                      solve(fresh, b))
    assert m._columns() == exactla._transpose(m.num, m.cols)  # the readers left it as built
    assert m == fresh


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


def _stored_form(m):
    """num / den with int entries, no stored zeros, den > 0 and no common factor."""
    entries = [x for row in m.num for x in row.values()]
    return (len(m.num) == m.rows and all(type(x) is int and x for x in entries)
            and type(m.den) is int and m.den > 0 and gcd(m.den, *entries) == 1)


@given(st.data())
def test_sparse_matrix_matches_dense_reference(data):
    a = data.draw(matrices())
    b = data.draw(matrices(a.rows, a.cols))
    c = data.draw(matrices(a.cols))
    s = data.draw(ENTRIES)
    A, B, C = a.data, b.data, c.data
    results = [a.mul(c), a.scale(s), a.scale(0)]
    assert [r.data for r in results] == [dense_mul(A, C, c.cols), dense_scale(s, A),
                                         dense_scale(0, A)]
    assert [a.column(j) for j in range(a.cols)] == [dense_column(A, j) for j in range(a.cols)]
    assert (a == b) == (A == B)
    assert a == Matrix(a.rows, a.cols, A) == Matrix.from_columns(
        [dense_column(A, j) for j in range(a.cols)], a.rows)
    assert results[2] == zeros(a.rows, a.cols)
    assert all(_stored_form(m) for m in [a, b, c] + results)


@st.composite
def product_pairs(draw):
    """(n, pairs): up to four (vecs, v) pairs of sparse int vectors, vecs of length n - 1, the
    shape of gauge transport's sum of ad_{f_i} applied to the terms at order n - i, then one
    pair and its negation whose vectors alone reach index n - 1, where the sum cancels."""
    n, ints = draw(st.integers(1, 6)), st.integers(-5, 5)

    def sparse(size):
        return {i: x for i in range(size) if (x := draw(ints))}
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        m = draw(st.integers(1, 5))
        pairs.append(([sparse(n - 1) for _ in range(m)], sparse(m)))
    vecs, x = [{**sparse(n - 1), n - 1: draw(ints.filter(bool))}], draw(ints.filter(bool))
    return n, pairs + [(vecs, {0: x}), (vecs, {0: -x})]


@given(product_pairs())
def test_apply_is_the_dense_sum_and_stores_no_zero(drawn):
    n, pairs = drawn
    dense = [sum(x * vecs[k].get(i, 0) for vecs, v in pairs for k, x in v.items())
             for i in range(n)]
    got = exactla._apply(iter(pairs))  # one pass, as over gauge transport's zip
    assert got == {i: x for i, x in enumerate(dense) if x}
    assert all(got.values()) and n - 1 not in got  # the cancelled index is not stored
    assert got == exactla._apply(pairs[:-2])


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
    # the cleared elimination, each pivot row over its pivot entry, is the RREF
    assert _reduced(m) == reference_rref(m)


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
        b = dense_mul_vec(m.data, [data.draw(ENTRIES) for _ in range(m.cols)])
    else:  # often inconsistent
        b = [data.draw(ENTRIES) for _ in range(m.rows)]
    assert solve(m, b) == reference_solve(m, b)


# ---------------------------------------------------------------------------
# the certified path: on dense rows a rank mod P of min(rows, cols) proves full rank

P = 32749
MOD_P_ENTRIES = st.one_of(st.sampled_from([1, -1, P, -P, 2 * P, -2 * P, P - 1, P + 1]),
                          st.integers(-BIG, BIG), st.integers(-BIG, BIG).map(lambda x: P * x))


@st.composite
def gated_matrices(draw):
    """Integer matrices over a denominator, short side 0-7 and long side 7-10, with
    about one entry in ten zero: mostly 6 or more nonzeros per line of the short
    side, the gate of the certified path.  Entries are often multiples of P or
    -1 mod P, and rows are sometimes integer combinations of the others."""
    k, n = draw(st.integers(0, 7)), draw(st.integers(7, 10))
    rows, cols = (k, n) if draw(st.booleans()) else (n, k)
    data = [[draw(MOD_P_ENTRIES) if draw(st.integers(0, 9)) else 0 for _ in range(cols)]
            for _ in range(rows)]
    if rows >= 2 and draw(st.booleans()):
        k = draw(st.integers(1, rows - 1))
        for i in range(k, rows):
            c = [draw(st.integers(-3, 3)) for _ in range(k)]
            data[i] = [sum(x * data[t][j] for t, x in enumerate(c)) for j in range(cols)]
    den = draw(st.sampled_from([1, 6, P]))
    return Matrix(rows, cols, [[Fraction(x, den) for x in r] for r in data])


def test_row_echelon_rank_oracle_is_exact_on_large_ints():
    # determinant -1, but float division would see the two rows as proportional
    rows = [[10**20 + 3, 10**20 + 2], [10**20 + 2, 10**20 + 1]]
    assert _row_echelon_rank(rows) == rank(M(rows)) == 2


@given(st.data())
def test_certified_paths_match_the_oracles(data):
    m = data.draw(gated_matrices())
    assert rank(m) == _row_echelon_rank(m.data)
    assert kernel_basis(m) == reference_kernel_basis(m)
    if data.draw(st.booleans()):  # consistent by construction
        b = dense_mul_vec(m.data, [Fraction(data.draw(MOD_P_ENTRIES)) for _ in range(m.cols)])
    else:  # inconsistent unless m's columns span everything
        b = [Fraction(data.draw(MOD_P_ENTRIES)) for _ in range(m.rows)]
    assert solve(m, b) == reference_solve(m, b)


def _sparse(rows):
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


def _tall(rows):
    """The integer matrix `rows` held tall, as `rank` hands it to the packed kernel: its
    sparse rows and column count, or, when it is wide, its kept columns and row count."""
    m = M(rows)
    return (m.num, m.cols) if m.rows >= m.cols else (m._columns(), m.rows)


@given(st.data())
def test_packed_rank_matches_the_rank_mod_p(data):
    # the gate lets the rows in at 6 nonzeros per line of the short side, and the
    # kernel is True exactly when their rank mod P is full
    k, n = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 14))
    rows = [[data.draw(st.sampled_from([P - 1, P - 1, P - 2, 1, -1, 2 * P - 1, 0]))
             for _ in range(k)] for _ in range(n)]
    assert exactla._dense(_sparse(rows), k) == (sum(map(bool, sum(rows, []))) >= 6 * min(n, k))
    assert _full_rank_mod_p(*_tall(rows)) == (reference_rank_mod_p(rows, P) == min(n, k))


@pytest.mark.parametrize("k, extra", [(1, 6), (2, 5), (7, 0), (40, 0), (40, 3)])
def test_packed_lanes_hold_the_largest_updates(k, extra):
    # row i is u_0 + ... + u_i mod P, u_c having 1 at c and P - 1 right of it: each
    # step meets lane value 1 and adds P - 1 times a pivot whose lanes are P - 1, so
    # a lane takes up to k updates of (P - 1)^2, the most its width allows for
    rows = [[(1 - j if j <= i else -(i + 1)) % P + P for j in range(k)] for i in range(k)]
    rows += rows[-1:] * extra
    assert reference_rank_mod_p(rows, P) == k
    assert _full_rank_mod_p(_sparse(rows), k)
    assert _full_rank_mod_p(*_tall(list(zip(*rows))))
    assert _full_rank_mod_p(_sparse([[P - 1] * k] * (k + extra)), k) == (k == 1)


def _online_lane_peak(rows, k):
    """The largest lane value the online echelon reaches on tall integer rows, replayed
    on plain lists: rows in order, each reduced against the pivots in the order found."""
    peak, pivots = 0, []  # (lane, pivot)
    for row in rows:
        r = [x % P for x in row]
        for c, piv in pivots:
            if a := r[c] % P:
                r = [x + (P - a) * y for x, y in zip(r, piv)]
                peak = max(peak, *r)
        if (c := next((c for c in range(k) if r[c] % P), None)) is not None:
            inv = pow(r[c] % P, -1, P)
            pivots.append((c, [x * inv % P for x in r]))
    return peak


@pytest.mark.parametrize("k", [2, 7, 40])
def test_online_lanes_hold_the_largest_updates(k):
    # k - 1 pivots found out of lane order, none at the top lane k - 1: pivot i is 1 at
    # its lane, 0 below it and at earlier pivots' lanes, P - 1 elsewhere.  Row i, the
    # sum of pivots 0..i, meets lane value 1 at each earlier pivot, and is followed by a
    # copy that the pivots reduce to zero.  The last copy takes k - 1 updates of
    # (P - 1)^2 at the top lane, the most its width allows for: a lane that overflowed
    # would leave it nonzero there, a k-th pivot the rows do not have
    lanes = random.Random(k).sample(range(k - 1), k - 1)
    pivots = [[1 if j == c else 0 if j < c or j in lanes[:i] else P - 1 for j in range(k)]
              for i, c in enumerate(lanes)]
    rows = [[sum(col) % P for col in zip(*pivots[:i + 1])] for i in range(k - 1)]
    rows = [r for row in rows for r in (row, row)]
    assert _online_lane_peak(rows, k) >= (k - 1) * (P - 1) ** 2
    assert reference_rank_mod_p(rows, P) == k - 1
    assert not _full_rank_mod_p(_sparse(rows), k)
    assert not _full_rank_mod_p(*_tall(list(zip(*rows))))


@pytest.mark.parametrize("k", [3, 7])
def test_online_echelon_reads_past_rows_dependent_mod_p(k):
    # the leading rows are v + P e_j: independent over Q, one line mod P.  The kernel
    # finds one pivot among them and the rest from the rows after them
    rng = random.Random(31 + k)
    v = [rng.randint(1, 50) for _ in range(k)]
    lead = [v] + [[x + P * (i == j) for i, x in enumerate(v)] for j in range(k - 1)]
    rest = [[rng.randint(1, 50) for _ in range(k)] for _ in range(max(k - 1, 6 - k))]
    rows = lead + rest  # dense enough for the gate
    assert _row_echelon_rank(lead) == k and reference_rank_mod_p(lead, P) == 1
    assert reference_rank_mod_p(rows, P) == k
    assert _full_rank_mod_p(_sparse(rows), k)
    assert rank(M(rows)) == k and kernel_basis(M(rows)) == []


class _CountedRow(dict):
    """A sparse row that counts the reads of its entries, as packing it (`items`) or
    walking its columns (`keys`) makes one."""
    reads = 0

    def items(self):
        _CountedRow.reads += 1
        return super().items()

    def keys(self):
        _CountedRow.reads += 1
        return super().keys()


def test_too_few_rows_left_stops_the_kernel_and_falls_back(monkeypatch):
    # the first three rows are one line mod P, so after them k - 1 pivots are still
    # wanted with k - 2 rows left: the kernel stops there, and rank eliminates exactly
    k = 7
    rng = random.Random(37)
    v = [rng.randint(1, 50) for _ in range(k)]
    rows = [v, [x + P for x in v], [x + 2 * P * (i % 2) for i, x in enumerate(v)]]
    rows += [[rng.randint(1, 50) for _ in range(k)] for _ in range(k - 2)]
    assert reference_rank_mod_p(rows, P) < k == _row_echelon_rank(rows)
    monkeypatch.setattr(_CountedRow, "reads", 0)
    assert not _full_rank_mod_p([_CountedRow(r) for r in _sparse(rows)], k)
    assert _CountedRow.reads == 3
    calls = []
    monkeypatch.setattr(exactla, "_eliminate", lambda *a: calls.append(1) or _eliminate(*a))
    assert rank(M(rows)) == k and calls == [1]


def _min_plus_one_times_p(n):
    """The n x n matrix min(i, j) + 1, all-ones lower times upper unitriangular, with
    its last column times P: rank n over Q and n - 1 mod P, with no zero entry."""
    return [[(min(i, j) + 1) * (P if j == n - 1 else 1) for j in range(n)] for i in range(n)]


def test_rank_drop_mod_p_falls_back_to_elimination():
    m = M(_min_plus_one_times_p(7))
    assert not _full_rank_mod_p(m.num, 7)
    assert rank(m) == 7 and kernel_basis(m) == []


def test_solve_with_a_rank_drop_mod_p_in_the_augmented_rows():
    # b, the last column, is outside im m, but [m | b] has rank 7 of 8 mod P
    rows = _min_plus_one_times_p(8)
    m, b = M([r[:7] for r in rows]), [r[7] for r in rows]
    assert _full_rank_mod_p(m.num, 7) and not _full_rank_mod_p(_sparse(rows), 8)
    assert solve(m, b) is None and reference_solve(m, b) is None
    # a b in the image still gets the particular solution, also where m is square
    # and [m | b] has full row rank
    x = tuple(Fraction(j - 3, j + 1) for j in range(7))
    for a in (m, M([r[:7] for r in rows[:7]])):
        assert solve(a, dense_mul_vec(a.data, x)) == x


# ---------------------------------------------------------------------------
# the triangular proof: k short-side vectors leading at k distinct indices have rank k

def _banded(n, k, width):
    """n x k, column j holding width - t at rows j + t, t < width: distinct leading rows."""
    return [[width - (i - j) if 0 <= i - j < width else 0 for j in range(k)] for i in range(n)]


@pytest.mark.parametrize("m, proven", [
    (M(_banded(7, 4, 3)), True),                         # tall banded
    (M([list(r) for r in zip(*_banded(7, 4, 3))]), True),  # wide banded
    (M([[1, 2], [0, 3], [4, 5]]), False),     # columns 0 and 1 both lead at row 0
    (M([[0, 1, 2], [0, 3, 0]]), False),       # rows 0 and 1 both lead at column 1
    (M([[1, 0], [2, 0], [3, 0]]), False),     # a zero column
    (M([[1, 2, 3], [0, 0, 0]]), False),       # a zero row
    (M([[1, 1], [1, -1], [0, 0]]), False),    # full rank, but not proven: eliminated
    (zeros(0, 0), True), (zeros(0, 3), True), (zeros(3, 0), True),
], ids=["tall", "wide", "tall-repeated", "wide-repeated", "zero-column", "zero-row",
        "unproven", "0x0", "0x3", "3x0"])
def test_triangular_reads_the_leading_indices(monkeypatch, m, proven):
    assert exactla._triangular(m.num, m.cols) == proven
    calls = []
    monkeypatch.setattr(exactla, "_eliminate", lambda *a: calls.append(1) or _eliminate(*a))
    assert rank(m) == _row_echelon_rank(m.data)
    assert calls == [1] * (not proven)
    calls.clear()
    # a proven tall matrix has an empty kernel; a wide one has a kernel to eliminate for
    assert kernel_basis(m) == reference_kernel_basis(m)
    assert calls == [1] * (not proven or m.rows < m.cols)


def test_triangular_stops_at_the_first_dense_row_and_at_the_last_column(monkeypatch):
    dense = [[i + j + 1 for j in range(5)] for i in range(9)]
    monkeypatch.setattr(_CountedRow, "reads", 0)
    assert not exactla._triangular([_CountedRow(r) for r in _sparse(dense)], 5)
    assert _CountedRow.reads == 1
    # every column is seen by row 4, so the dense rows after it are not read
    monkeypatch.setattr(_CountedRow, "reads", 0)
    assert exactla._triangular([_CountedRow(r) for r in _sparse(_banded(5, 5, 2) + dense)], 5)
    assert _CountedRow.reads == 5


@st.composite
def led_matrices(draw):
    """Integer matrices whose k short-side vectors (k in 0-6, long side max(k, 1)-9)
    each lead at a drawn index: nonzero there, zero before it and small integers,
    often zero, after it.  The leading indices are distinct or, about half the time, one repeats,
    and a vector is sometimes zero.  Returns the matrix and, where the short side is
    the one `_triangular` reads (not a square matrix built from its rows), whether
    the leading indices are distinct with no zero vector; else None."""
    k = draw(st.integers(0, 6))
    n = draw(st.integers(max(k, 1), 9))
    leads = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    distinct = True
    if k >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        leads[i], distinct = leads[j], False
    vecs = [[0] * c + [draw(st.sampled_from([1, -1, 2, -3, 5]))]
            + [draw(st.sampled_from([0, 0, 1, -1, 2, -3])) for _ in range(n - c - 1)]
            for c in leads]
    if k and draw(st.booleans()):
        vecs[draw(st.integers(0, k - 1))], distinct = [0] * n, False
    if draw(st.booleans()):  # tall: the vectors are the columns
        return M([[v[i] for v in vecs] for i in range(n)]) if k else zeros(n, 0), distinct
    return zeros(0, n) if not k else M(vecs), distinct if k < n else None


@given(led_matrices())
def test_triangular_proofs_agree_with_the_oracle_rank(drawn):
    m, distinct = drawn
    proven, want = exactla._triangular(m.num, m.cols), _row_echelon_rank(m.data)
    assert not proven or want == min(m.rows, m.cols)
    assert distinct is None or proven == distinct
    assert rank(m) == want
    assert kernel_basis(m) == reference_kernel_basis(m)


def test_banded_operator_past_the_gate_is_proven_without_a_pass(monkeypatch):
    # the shape of spin d = 10 d_4, column j holding 6 entries from row 2j: it opens
    # the density gate, and its distinct leading rows prove full rank before it
    rows, cols = 20020, 7150
    num = [{} for _ in range(rows)]
    for j in range(cols):
        for t in range(6):
            num[2 * j + t][j] = (j + t) % 7 + 1
    m = Matrix._from_ints(rows, cols, num, 1)
    assert exactla._dense(m.num, m.cols)

    def refuse(*args):
        raise AssertionError("full rank is proven before the packed pass or elimination")

    monkeypatch.setattr(exactla, "_full_rank_mod_p", refuse)
    monkeypatch.setattr(exactla, "_eliminate", refuse)
    assert rank(m) == cols
    assert kernel_basis(m) == []


@pytest.mark.parametrize("mode", list(InsertionMode))
@pytest.mark.parametrize("n", [2, 3])
def test_elimination_on_spin_differentials(n, mode):
    m = differential_matrix(make_spin([1, 2, -3]), n, mode).matrix
    red, pivots = reference_rref(m)
    assert _reduced(m) == (red, pivots)
    assert rank(m) == len(pivots)
    # d has full column rank; its transpose, whose columns are d's rows, does not
    for a in (m, Matrix.from_columns(m.data, m.cols)):
        assert kernel_basis(a) == reference_kernel_basis(a)
        assert rank(a) == len(pivots)
    consistent = dense_mul_vec(m.data, [Fraction(j % 5 - 2, j % 3 + 1) for j in range(m.cols)])
    unit = [Fraction(int(i == m.rows - 1)) for i in range(m.rows)]
    for b in (consistent, unit):
        assert solve(m, b) == reference_solve(m, b)


def _dense_rational(rng, d):
    """Structure constants p/q with p in -3..3 and q in 1..4, on every triple."""
    return algebra_from_entries(d, [f"b{i}" for i in range(d)], [
        (a, b, k, c) for i, j in combinations_with_replacement(range(d), 2) for k in range(d)
        if (c := Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
        for a, b in {(i, j), (j, i)}])


@pytest.mark.parametrize("mode", list(InsertionMode))
def test_operator_matrices_keep_the_stored_form(mode):
    dense = _dense_rational(random.Random(5), 3)
    assert differential_matrix(dense, 1, mode).matrix.den > 1
    for A in (make_spin([1, Fraction(-1, 2), 3]), dense):
        for n in range(4):
            assert _stored_form(differential_matrix(A, n, mode).matrix)


# ---------------------------------------------------------------------------
# elimination in leading-column order against the column scan of tests/oracles.py

def _integer_rows(rng):
    """Sparse integer rows, wide or tall, with fill 5-90% and entries up to
    +-1 .. +-1000.  Many rows lead at one of the first three columns, and some
    rows are duplicates or zero."""
    n, m = rng.randint(1, 40), rng.randint(1, 12)
    if rng.random() < 0.5:
        n, m = m, n
    fill, amp = rng.uniform(0.05, 0.9), rng.choice((1, 2, 10, 1000))
    rows = [{j: x for j in range(m) if rng.random() < fill and (x := rng.randint(-amp, amp))}
            for _ in range(n)]
    c = rng.randrange(min(3, m))
    for i in rng.sample(range(n), rng.randint(0, n)):
        rows[i] = {c: rng.choice((-1, 1)) * rng.randint(1, amp),
                   **{j: x for j, x in rows[i].items() if j > c}}
    for _ in range(rng.randint(0, 3)):
        rows[rng.randrange(n)] = dict(rows[rng.randrange(n)])
    for _ in range(rng.randint(0, 2)):
        rows[rng.randrange(n)] = {}
    return rows


@pytest.mark.parametrize("reduced", [False, True])
def test_eliminate_matches_the_column_scan(reduced):
    # the scan pivots on the first row in row order, _eliminate on the smallest
    # entry, so they agree on what callers read: the pivots, the reduced rows
    # over their pivot entries, and the row space
    rng = random.Random(1019)
    for _ in range(400):
        rows = _integer_rows(rng)
        before = [dict(r) for r in rows]
        ref, ref_pivots = reference_scan_eliminate(rows, True)
        got, pivots = _eliminate(rows, reduced)
        assert pivots == ref_pivots, rows
        assert all(gcd(*r.values()) == 1 and min(r) == p for r, p in zip(got, pivots)), rows
        if reduced:
            assert _over_pivots(got, pivots) == _over_pivots(ref, ref_pivots), rows
        assert (_over_pivots(*reference_scan_eliminate(got, True))
                == _over_pivots(ref, ref_pivots)), rows
        assert rows == before


def test_pivot_is_the_smallest_leading_entry():
    # three rows lead at column 0 with entries 6, 1 and -1: the pivot is the
    # row of smallest |entry|, the tie going to the earlier row
    rows = [{0: 6, 1: 1}, {0: 1, 2: 1}, {0: -1, 1: 5}]
    got, pivots = _eliminate(rows, False)
    assert got[0] == {0: 1, 2: 1} and pivots == (0, 1, 2)


# ---------------------------------------------------------------------------
# larger sparse and dense matrices, pinned before elimination moved to
# leading-column order

SPIN_Q = [1, Fraction(-1, 2), 3, Fraction(5, 4), 2, 7, -3]


@pytest.mark.parametrize("mode", list(InsertionMode))
def test_spin_d8_degree_4_cohomology_pinned(mode):
    # d_4 is 6336 x 2640 and d_4 d_3 has rank 960
    assert cohomology(make_spin(SPIN_Q), 4, mode).to_json_dict() == {
        "degree": 4, "mode": mode.value, "dim_kernel": 0, "dim_image_from_below": 960,
        "complex_valid": False, "defect_rank": 960, "dim_H": None}


def _d3_and_transpose(A):
    """d_3 (SUM) of A and its transpose, sparse."""
    m = differential_matrix(A, 3, InsertionMode.SUM).matrix
    cols = [{} for _ in range(m.cols)]
    for i, row in enumerate(m.num):
        for j, x in row.items():
            cols[j][i] = x
    return m, Matrix._from_ints(m.cols, m.rows, cols, m.den)


def _elimination_pin_doc():
    """The RREF (the cleared elimination's rows over the lcm of their pivot
    entries, in lowest terms and padded with empty rows) and kernel_basis of
    d_3 (SUM) and of its transpose, sparse, for the spin factor of dimension 7
    and a dense rational algebra of dimension 4.  The spin transpose's kernel
    is left out of this pin; it has its own, test_spin_transpose_kernel_pinned."""
    out = []
    for A in (make_spin(SPIN_Q[:6]), _dense_rational(random.Random(5), 4)):
        for a in _d3_and_transpose(A):
            rows, pivots = _eliminate(a.num, True)
            L = lcm(*(r[p] for r, p in zip(rows, pivots)))
            red = Matrix._from_ints(a.rows, a.cols, [{j: x * (L // r[p]) for j, x in r.items()}
                                                     for r, p in zip(rows, pivots)]
                                    + [{} for _ in range(a.rows - len(rows))], L)
            kernel = kernel_basis(a) if a.cols < 1000 else []
            out.append({"den": red.den, "num": [sorted(r.items()) for r in red.num],
                        "pivots": list(pivots),
                        "kernel": [[[j, rat_to_str(x)] for j, x in enumerate(v) if x]
                                   for v in kernel]})
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


# sha256 of _elimination_pin_doc(), recorded while _eliminate still scanned
# every remaining row for each pivot column
ELIMINATION_SHA256 = "00be8c637ddb8bede601a3314175d7a530fd7a7b0abcdca49ff020addd01a8a8"


def test_larger_eliminations_pinned():
    assert hashlib.sha256(_elimination_pin_doc().encode()).hexdigest() == ELIMINATION_SHA256


# sha256 of the kernel the pin above leaves out: 882 vectors of length 1470,
# from the transpose of the spin d = 7 d_3, recorded while kernel_basis still
# built each vector from fresh Fractions and scanned every pivot row per free
# column
SPIN_KERNEL_SHA256 = "353b21d2e75cf7aa7b95f09877c9776eba23ea24f6a7b56b20bf86e5d7c6841d"


def test_spin_transpose_kernel_pinned():
    _, a = _d3_and_transpose(make_spin(SPIN_Q[:6]))
    kernel = kernel_basis(a)
    assert (a.rows, a.cols, len(kernel)) == (588, 1470, 882)
    doc = json.dumps([[[j, rat_to_str(x)] for j, x in enumerate(v) if x] for v in kernel],
                     separators=(",", ":"))
    assert hashlib.sha256(doc.encode()).hexdigest() == SPIN_KERNEL_SHA256
