import gc
import hashlib
import json
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from symlie import (Algebra, DeformationSeries, InsertionMode, Matrix, SymCochain, Witness,
                    algebra_from_json_dict, audit, check_cubic_jordan, check_d_squared,
                    check_jacobi, coboundary_c1_explicit, coboundary_c2_explicit, coeff_vector,
                    cohomology, derivations, differential, differential_matrix,
                    endomorphism_cochain, graded_bracket, insert, make_field, make_j2,
                    make_non_jordan, mc_solve_chain, mc_solve_step, make_spin,
                    multiplication_operator, product, product_cochain, sym_basis_dim)
from symlie import complexes, deformation, exactla
from symlie.cochain import basis_cochains, multisets
from symlie.complexes import DSquaredReport, coboundary_c1_matrix
from symlie.deformation import GaugeSeries, class_modulo_image, gauge_transport
from symlie.exactla import rank, solve

from oracles import (_row_echelon_rank, dense_column, dense_mul, dense_mul_vec,
                     derivation_dimension, printed_coboundary_c1, printed_coboundary_c2,
                     random_cochain, random_commutative, random_rational_commutative,
                     random_vector, reference_bracket, reference_bracket_column,
                     reference_bracket_matrix, sym_jordan)

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import cochain_doc, dense_doc, spin_doc  # the benchmark's seeded documents

SUM = InsertionMode.SUM
PAPER = InsertionMode.PAPER

CORPUS = [make_j2(1, 0), make_j2(0, 0), make_j2(-1, 2), make_spin((1, 1)),
          make_non_jordan(), make_field()]


def zero_product_algebra(d=2):
    return Algebra(d, tuple(f"z{i}" for i in range(d)),
                   [[(Fraction(0),) * d] * d] * d)


def _doc_algebra(make_doc, seed, *args):
    return lambda: algebra_from_json_dict(make_doc(random.Random(seed), *args))


def test_differential_of_constant_is_multiplication():
    rng = random.Random(151)
    for A in CORPUS:
        v = random_vector(rng, A.dim)
        const = SymCochain(0, A.dim, {(): v} if any(v) else {})
        expected = endomorphism_cochain(multiplication_operator(A, v))
        for mode in (SUM, PAPER):
            assert differential(A, const, mode) == expected


def test_differential_on_endomorphisms_sum_formula():
    rng = random.Random(157)
    A = make_j2(2, 3)
    f = random_cochain(rng, 1, 2)

    def f_apply(v):
        return f.evaluate((v,))

    df = differential(A, f, SUM)
    for _ in range(10):
        x, y = random_vector(rng, 2), random_vector(rng, 2)
        expected = tuple(
            a + b - c for a, b, c in zip(product(A, x, f_apply(y)),
                                         product(A, f_apply(x), y),
                                         f_apply(product(A, x, y))))
        assert df.evaluate((x, y)) == expected
    # averaged mode halves the f(x*y) term
    dfp = differential(A, f, PAPER)
    for _ in range(5):
        x, y = random_vector(rng, 2), random_vector(rng, 2)
        expected = tuple(
            a + b - Fraction(1, 2) * c
            for a, b, c in zip(product(A, x, f_apply(y)), product(A, f_apply(x), y),
                               f_apply(product(A, x, y))))
        assert dfp.evaluate((x, y)) == expected


def test_coboundary_c1_values_on_family():
    a, b = Fraction(5, 2), Fraction(-3)
    A = make_j2(a, b)
    rng = random.Random(163)
    al, be, ga, de = (Fraction(rng.randint(-3, 3)) for _ in range(4))
    f = SymCochain(1, 2, {(0,): (al, be), (1,): (ga, de)})
    df = coboundary_c1_explicit(A, f)
    assert df.value_at((0, 0)) == (-al, -be)
    assert df.value_at((0, 1)) == (-a * be, -al - b * be)
    assert df.value_at((1, 1)) == (a * al + b * ga - 2 * a * de,
                                   a * be - b * de - 2 * ga)
    assert coboundary_c1_explicit(A, SymCochain.zero(1, 2)).is_zero()


def test_coboundary_c1_is_negative_sum_differential():
    rng = random.Random(167)
    algebras = CORPUS + [random_commutative(random.Random(d), d) for d in (1, 2, 3, 4)]
    for A in algebras:
        f = random_cochain(rng, 1, A.dim)
        printed = printed_coboundary_c1(A, f)
        assert -differential(A, f, SUM) == printed
        assert coboundary_c1_explicit(A, f) == printed
        assert list(dense_mul_vec(coboundary_c1_matrix(A).data, coeff_vector(f))) == \
            coeff_vector(printed)


def test_coboundary_c2_is_the_printed_cyclic_sum():
    rng = random.Random(169)
    algebras = CORPUS + [random_commutative(random.Random(d), d) for d in (1, 2, 3, 4)] + [
        random_commutative(random.Random(10 + d), d, fill=0.5) for d in (2, 3, 4)]
    for A in algebras:
        for phi in (random_cochain(rng, 2, A.dim), random_cochain(rng, 2, A.dim, sparsity=0.6),
                    product_cochain(A)):
            assert coboundary_c2_explicit(A, phi) == printed_coboundary_c2(A, phi)


def test_coboundary_c2_of_product_vanishes():
    for A in CORPUS:
        assert coboundary_c2_explicit(A, product_cochain(A)).is_zero()
    assert coboundary_c2_explicit(make_j2(1, 0), SymCochain.zero(2, 2)).is_zero()


def test_coboundary_c2_printed_row():
    a, b = Fraction(7, 3), Fraction(2)
    A = make_j2(a, b)
    rng = random.Random(173)
    x1, x2, y1, y2, z1, z2 = (Fraction(rng.randint(-3, 3)) for _ in range(6))
    phi = SymCochain(2, 2, {(0, 0): (x1, x2), (0, 1): (y1, y2), (1, 1): (z1, z2)})
    dphi = coboundary_c2_explicit(A, phi)
    assert dphi.value_at((0, 0, 1)) == (a * x2 - y1, x1 + b * x2 - y2)


def test_differential_matrix_shapes_and_ranks():
    A = make_j2(1, 0)
    dd = differential_matrix(A, 1, SUM)
    assert (dd.matrix.rows, dd.matrix.cols) == (6, 4)
    assert sym_basis_dim(2, 2) == 6 and sym_basis_dim(2, 1) == 4
    d0 = differential_matrix(A, 0, SUM).matrix
    assert (d0.rows, d0.cols) == (4, 2)
    assert rank(d0) == 2
    Z = zero_product_algebra()
    for n in range(3):
        d_n = differential_matrix(Z, n, SUM).matrix
        assert d_n == Matrix(d_n.rows, d_n.cols, [[0] * d_n.cols] * d_n.rows)


def test_matrix_action_consistency():
    rng = random.Random(179)
    for A in [make_j2(1, 0), make_spin((1, 1))]:
        mu = product_cochain(A)
        for n in (0, 1, 2, 3):
            for mode in (SUM, PAPER):
                mat = differential_matrix(A, n, mode).matrix
                f = random_cochain(rng, n, A.dim, sparsity=0.3)
                assert list(dense_mul_vec(mat.data, coeff_vector(f))) == \
                    coeff_vector(differential(A, f, mode))
                half_ad = graded_bracket(graded_bracket(mu, mu, mode), f, mode).scale(
                    Fraction(1, 2))
                paper = mode is PAPER
                ad_half = reference_bracket_matrix(reference_bracket(mu, mu, paper), n, paper,
                                                   Fraction(1, 2)).data
                assert list(dense_mul_vec(ad_half, coeff_vector(f))) == coeff_vector(half_ad)


def _reference_d_squared(A, n, mode):
    """check_d_squared's report from the references, scanned column by column in
    order: column j of d o d is the dense product of the reference d_{n+1} with
    column j of the reference d_n, and column j of (1/2)ad is that of
    reference_bracket_matrix([mu,mu], n, paper, 1/2).  Each column of d_{n+1}
    is built once, when first needed."""
    mu, paper, d = product_cochain(A), mode is PAPER, A.dim
    B, cols, up = reference_bracket(mu, mu, paper), sym_basis_dim(d, n), {}
    zero = True
    for j in range(cols):
        dd = (Fraction(0),) * sym_basis_dim(d, n + 2)
        for k, x in enumerate(reference_bracket_column(mu, n, paper, 1, j)):
            if x:
                if k not in up:
                    up[k] = reference_bracket_column(mu, n + 1, paper, 1, k)
                dd = tuple(a + x * b for a, b in zip(dd, up[k]))
        half_ad = reference_bracket_column(B, n, paper, Fraction(1, 2), j)
        if dd != half_ad:
            e_j = tuple(Fraction(int(i == j)) for i in range(cols))
            note = (f"columns of d∘d vs (1/2)ad on basis cochain "
                    f"({list(multisets(d, n)[j // d])}, k={j % d})")
            return DSquaredReport(n, mode, False, False, Witness((e_j,), dd, half_ad, note))
        zero = zero and not any(dd)
    return DSquaredReport(n, mode, True, zero)


@pytest.mark.parametrize("mode", [SUM, PAPER])
def test_operator_matrices_match_per_column_brackets(mode):
    # the scatter from mu's nonzeros against one bracket per basis cochain, and
    # the d o d scan against the references' columns, on the corpus, spin
    # factors and seeded random algebras
    algebras = CORPUS + [make_spin([1, -2]), make_spin([1, 2, -3])]
    algebras += [random_commutative(random.Random(seed), d)
                 for seed, d in ((0, 1), (1, 2), (2, 3))]
    paper = mode is PAPER
    for A in algebras:
        mu = product_cochain(A)
        for n in range(4):
            assert differential_matrix(A, n, mode).matrix == \
                reference_bracket_matrix(mu, n, paper, 1), (A.labels, n)
            assert check_d_squared(A, n, mode) == _reference_d_squared(A, n, mode), (A.labels, n)


# one scatter per n serves every mode's d_n at once; the order in which the
# modes are asked for, and whether one or both are, must not matter
_BUILD_ORDERS = {"sum": [(SUM,)], "paper": [(PAPER,)], "sum_first": [(SUM,), (PAPER,)],
                 "paper_first": [(PAPER,), (SUM,)], "audit": None}
_FRESH = {"spin": lambda: make_spin([1, Fraction(-1, 2)]),
          "dense": lambda: random_rational_commutative(random.Random(20), 3)}


@pytest.fixture(scope="module")
def per_column_matrices():
    """(kind, n, mode) -> (d_n built one bracket per column, the d o d report
    from the references)."""
    out = {}
    for kind, make in _FRESH.items():
        A = make()
        mu = product_cochain(A)
        for n in range(4):
            for mode in (SUM, PAPER):
                out[kind, n, mode] = (reference_bracket_matrix(mu, n, mode is PAPER, 1),
                                      _reference_d_squared(A, n, mode))
    return out


@pytest.mark.parametrize("order", list(_BUILD_ORDERS))
def test_operator_matrices_in_any_mode_order(order, per_column_matrices, monkeypatch):
    scatters = []  # one per _bracket_matrices call
    bracket_matrices = complexes._bracket_matrices

    def counting(*args):
        scatters.append(args[1])
        return bracket_matrices(*args)

    monkeypatch.setattr(complexes, "_bracket_matrices", counting)
    for kind, make in _FRESH.items():
        A = make()  # fresh, so nothing is kept on it yet
        if order == "audit":
            audit(A)
        for i, modes in enumerate(_BUILD_ORDERS[order] or [(SUM, PAPER)]):
            before = len(scatters)
            for n in range(4):
                for mode in modes:
                    d, d_squared = per_column_matrices[kind, n, mode]
                    assert differential_matrix(A, n, mode).matrix == d, (order, kind, n, mode)
                    assert check_d_squared(A, n, mode) == d_squared, (order, kind, n, mode)
            if i:  # the first mode's misses built the second mode as well
                assert len(scatters) == before, (order, kind)


def test_audit_keeps_no_operator_pieces():
    # only the associator table, [mu,mu] and d_n (n = 0..3) for both modes stay
    # on the algebra: no (1/2)ad matrix, no d_{n+1} d_n, and not the pieces both
    # modes' d_n are combined from.  Where H^2 must rank d_2 d_1 (non-Jordan),
    # only that rank is kept, an int per mode
    kept = {"assoc", "mumu"} | {("d", n) for n in range(4)}
    A = make_spin([1, Fraction(-1, 2)])
    audit(A)
    assert set(A._ops) == kept
    A = make_non_jordan()
    audit(A)
    assert set(A._ops) == kept | {("defect", 2, mode) for mode in (SUM, PAPER)}
    assert [type(A._ops["defect", 2, mode]) for mode in (SUM, PAPER)] == [int, int]


def test_d_squared_matches_half_ad_at_degree_one():
    for A in CORPUS:
        rep = check_d_squared(A, 1, SUM)
        assert rep.equal


def test_d_squared_fails_at_even_degrees_on_unital_example():
    # documented: the graded Jacobi identity fails on those degree
    # combinations, so d o d differs from (1/2) ad there
    A = make_j2(1, 0)
    assert not check_d_squared(A, 0, SUM).equal
    assert not check_d_squared(A, 2, SUM).equal


def _seeded_algebra(seed):
    rng = random.Random(seed)
    d = 2 + seed % 2
    return (random_commutative(rng, d, 0.5), random_rational_commutative(rng, d),
            make_spin([Fraction(rng.randint(1, 4), rng.randint(1, 3))
                       for _ in range(d - 1)]))[seed % 3]


@pytest.mark.parametrize("make", [lambda seed=seed: _seeded_algebra(seed) for seed in range(6)] + [
    lambda: make_spin([1, Fraction(-1, 2), 3]),
    lambda: make_spin([1, Fraction(-1, 2), 3, Fraction(5, 4)]),
    # the 10%-fill dense_doc algebras first differ past column 0: at d = 2 at column 4
    # (SUM, n = 2) and 2 (PAPER, n = 1, 2), at d = 3 at column 2 (SUM, n = 0) and 1 (PAPER, n = 0)
    _doc_algebra(dense_doc, 0, 4), _doc_algebra(dense_doc, 1, 2, 0.1),
    _doc_algebra(dense_doc, 0, 3, 0.1)], ids=[str(seed) for seed in range(6)] + [
    "spin-d4", "spin-d5", "dense_doc-d4", "dense_doc-d2-fill0.1", "dense_doc-d3-fill0.1"])
def test_d_squared_witness_is_the_first_column_of_the_difference(make):
    # the scan must stop at the least column where d o d and (1/2)ad differ, and
    # report both columns there, or find them equal everywhere, in each mode
    A = make()
    for n in range(4):
        for mode in (SUM, PAPER):
            assert check_d_squared(A, n, mode) == _reference_d_squared(A, n, mode), (n, mode)


def _reference_composite_and_half_ad(A, n, mode):
    """Dense d_{n+1} d_n, the product of the reference d matrices, and the dense
    reference_bracket_matrix([mu,mu], n, paper, 1/2)."""
    mu, paper = product_cochain(A), mode is PAPER
    lo, hi = (reference_bracket_matrix(mu, k, paper, 1) for k in (n, n + 1))
    return (dense_mul(hi.data, lo.data, lo.cols),
            reference_bracket_matrix(reference_bracket(mu, mu, paper), n, paper,
                                     Fraction(1, 2)).data)


@pytest.mark.parametrize("n", [0, 2])
def test_d_squared_witness_input_is_the_basis_cochain(n):
    A = make_j2(1, 0)
    w = check_d_squared(A, n, SUM).witness
    composite, ad_half = _reference_composite_and_half_ad(A, n, SUM)
    (e_j,) = w.inputs
    assert len(e_j) == sym_basis_dim(A.dim, n)
    assert sorted(e_j) == [0] * (len(e_j) - 1) + [1]
    assert dense_mul_vec(composite, e_j) == w.left
    assert dense_mul_vec(ad_half, e_j) == w.right


def test_d_squared_zero_product_both_zero():
    Z = zero_product_algebra()
    for n in (0, 1, 2):
        rep = check_d_squared(Z, n, SUM)
        assert rep.equal and rep.both_zero


def test_d_squared_equivalent_to_jacobi_on_basis_cochains():
    # [mu,[mu,f]] == (1/2)[[mu,mu],f]  iff  the Jacobi sum on (mu, mu, f)
    # vanishes; exact in every mode and degree
    for A in [make_j2(1, 0), make_non_jordan()]:
        mu = product_cochain(A)
        for mode in (SUM, PAPER):
            for n in (0, 1, 2):
                B = graded_bracket(mu, mu, mode)
                all_match = True
                for _, f in basis_cochains(A.dim, n):
                    lhs = differential(A, differential(A, f, mode), mode)
                    rhs = graded_bracket(B, f, mode).scale(Fraction(1, 2))
                    match = lhs == rhs
                    jac = check_jacobi(mu, mu, f, mode).holds
                    assert match == jac
                    all_match = all_match and match
                assert all_match == check_d_squared(A, n, mode).equal


def _assoc(f, g, h, mode):
    """A(f,g,h) = (f o g) o h - f o (g o h)."""
    return insert(insert(f, g, mode), h, mode) - insert(f, insert(g, h, mode), mode)


@pytest.mark.parametrize("d, fill, seed", [(1, 1, 0), (2, 1, 1), (2, 0.5, 2),
                                           (3, 1, 3), (3, 0.5, 4), (3, 0.3, 5)])
def test_d_squared_difference_is_the_associator_expression(d, fill, seed):
    # on algebras outside the corpus, at every arity up to 3, the matrices
    # check_d_squared compares differ column by column by
    # -A(f,mu,mu) - (1+(-1)^n) A(mu,mu,f) for the basis cochain f
    A = random_commutative(random.Random(seed), d, fill)
    mu = product_cochain(A)
    for n in range(4):
        composite, half_ad = _reference_composite_and_half_ad(A, n, SUM)
        all_zero = True
        for j, (_, f) in enumerate(basis_cochains(d, n)):
            expr = _assoc(f, mu, mu, SUM).scale(-1) - _assoc(mu, mu, f, SUM).scale(1 + (-1) ** n)
            diff = [a - b for a, b in zip(dense_column(composite, j), dense_column(half_ad, j))]
            assert diff == coeff_vector(expr), (n, j)
            all_zero = all_zero and expr.is_zero()
        assert check_d_squared(A, n, SUM).equal == all_zero


def _count_muls(monkeypatch):
    """A live list of (rows, inner dimension, columns) per `Matrix.mul` call."""
    shapes = []
    mul = Matrix.mul

    def counting_mul(self, other):
        shapes.append((self.rows, self.cols, other.cols))
        return mul(self, other)

    monkeypatch.setattr(Matrix, "mul", counting_mul)
    return shapes


def test_each_composite_is_built_once(monkeypatch):
    # the d o d scan multiplies no matrices; cohomology builds d_n d_{n-1} only
    # where d_n has a kernel, once per (n, mode), and keeps its rank.  The non-Jordan
    # corpus algebra's d_2 has one: the audit's H^2 data builds d_2 d_1 per mode,
    # here (rows of d_2, rows of d_1, columns of d_1), and later H^2 reads the rank
    shapes = _count_muls(monkeypatch)
    A = make_non_jordan()
    audit(A)
    for mode in (SUM, PAPER):
        cohomology(A, 2, mode)
    assert shapes == [(8, 6, 4)] * 2


def test_spin_audit_and_degree_three_make_no_product(monkeypatch):
    # spin d_2 and d_3 are injective, so after an audit neither H^2 nor H^3 ranks
    # a composite, and the audit's d o d reads columns: no Matrix.mul at all
    shapes = _count_muls(monkeypatch)
    q = [1, Fraction(-1, 2), 3, Fraction(5, 4)]
    for d in (3, 4, 5):
        A = make_spin(q[:d - 1])
        audit(A)
        for mode in (SUM, PAPER):
            cohomology(A, 3, mode)
    assert shapes == []


def test_unequal_d_squared_forms_one_half_ad_column(monkeypatch):
    # the scan brackets [mu,mu] with one basis cochain per column and stops at the
    # first difference: on these spin factors every unequal (n, mode) differs at
    # column 0 and forms one (1/2)ad column; the equal SUM n = 1 forms them all
    columns = []
    bracket = complexes.graded_bracket

    def counting(f, g, mode=SUM):
        if f.n == 3:  # [[mu,mu], e_j]; [mu,mu] itself is a bracket of arity-2 cochains
            columns.append(g.n)
        return bracket(f, g, mode)

    monkeypatch.setattr(complexes, "graded_bracket", counting)
    q = [1, Fraction(-1, 2), 3, Fraction(5, 4)]
    for d in (3, 4, 5):
        A = make_spin(q[:d - 1])
        for n in range(3):
            for mode in (SUM, PAPER):
                columns.clear()
                rep = check_d_squared(A, n, mode)
                if rep.equal:
                    assert (n, mode) == (1, SUM)
                    assert columns == [n] * sym_basis_dim(d, n)
                else:
                    assert rep.witness.inputs[0].index(1) == 0 and columns == [n], (d, n, mode)


@pytest.mark.parametrize("make", [lambda: make_spin([1, Fraction(-1, 2), 3]),
                                  lambda: random_rational_commutative(random.Random(23), 3)],
                         ids=["spin-d4", "dense-d3"])
def test_modes_with_one_combination_share_their_rows(monkeypatch, make):
    # a mode's d_n is a L + b R over q: PAPER at n = 0 and n = 2 has SUM's (a, b), so
    # both matrices are made from one assembled list of rows; at n = 1, 3 each has its own
    handed = []  # the rows handed to Matrix._from_ints, per call
    from_ints = Matrix._from_ints.__func__

    def recording(cls, rows, cols, num, den):
        handed.append(num)
        return from_ints(cls, rows, cols, num, den)

    monkeypatch.setattr(Matrix, "_from_ints", classmethod(recording))
    mu = product_cochain(make())
    for n in range(4):
        handed.clear()
        mats = complexes._bracket_matrices(mu, n)
        assert len(handed) == 2 and (handed[0] is handed[1]) == (n in (0, 2)), n
        for mode in (SUM, PAPER):
            assert mats[mode] == reference_bracket_matrix(mu, n, mode is PAPER, 1), (n, mode)


def test_one_mode_operator_columns_are_kernel_brackets():
    # the SUM-mode matrix of e -> [f, e] on arity-2 cochains, assembled alone as
    # gauge transport asks for it: column j is [f, e_j] from the insertion kernel,
    # and the matrix is the all-modes build's SUM one; one f is zero
    rng = random.Random(409)
    fs = [random_cochain(rng, 1, d, sparsity=0.3) for d in (1, 2, 3, 4)]
    fs.insert(2, SymCochain.zero(1, 2))
    for f in fs:
        mats = complexes._bracket_matrices(f, 2, (SUM,))
        assert list(mats) == [SUM]
        for j, (_, e) in enumerate(basis_cochains(f.dim, 2)):
            assert mats[SUM].column(j) == tuple(coeff_vector(graded_bracket(f, e))), (f.dim, j)
        assert mats[SUM] == complexes._bracket_matrices(f, 2)[SUM], f.dim
    assert not fs[2].num and fs[4].num


def test_operator_rows_reach_the_matrix_without_zeros(monkeypatch):
    # the rows that Matrix.mul and _bracket_matrices hand to _from_ints store no
    # entry where terms cancel, over audits of spin factors at d = 3-5, of a
    # dense rational algebra and of the non-Jordan corpus algebra, and the H^3
    # data read after them
    handed = {"mul": [0, 0], "_bracket_matrices": [0, 0]}  # caller -> [matrices, rows]
    from_ints = Matrix._from_ints.__func__

    def checking_from_ints(cls, rows, cols, num, den):
        caller = sys._getframe(1).f_code.co_name
        if caller in handed:
            assert all(x for row in num for x in row.values()), caller
            handed[caller][0] += 1
            handed[caller][1] += len(num)
        return from_ints(cls, rows, cols, num, den)

    monkeypatch.setattr(Matrix, "_from_ints", classmethod(checking_from_ints))
    q = [1, Fraction(-1, 2), 3, Fraction(5, 4)]
    for A in [make_spin(q[:d - 1]) for d in (3, 4, 5)] + [
            random_rational_commutative(random.Random(7), 3), make_non_jordan()]:
        audit(A)
        for mode in (SUM, PAPER):
            cohomology(A, 3, mode)
    # per algebra: one call per d_n, n = 0-3, making both modes' matrices.  The
    # d o d scan multiplies nothing; only the non-Jordan d_2 has a kernel, so its
    # H^2 ranks d_2 d_1, one product per mode
    assert handed["_bracket_matrices"][0] == 5 * 4 * 2
    assert handed["mul"][0] == 2


def test_each_differential_is_ranked_once(monkeypatch):
    # cohomology(A, n) reads the rank of d_{n-1}, which cohomology(A, n - 1)
    # has just taken: over degrees 2 then 3 that is d_2, d_1 and d_3 per mode,
    # here (rows, columns).  d_2 and d_3 are injective, so neither d_2 d_1 nor
    # d_3 d_2 is ranked, and PAPER d_2 is 1/2 SUM d_2, so it reads SUM's rank
    shapes = []

    def counting_rank(m):
        shapes.append((m.rows, m.cols))
        return rank(m)

    monkeypatch.setattr(complexes, "rank", counting_rank)
    A = make_spin([1, 2, -3])
    for mode in (SUM, PAPER):
        cohomology(A, 2, mode)
        cohomology(A, 3, mode)
    assert sorted(shapes) == sorted([(80, 40)] + [(40, 16), (140, 80)] * 2)


def test_cold_spin_audit_transposes_each_operator_once(monkeypatch):
    # the audit's d∘d scans read d_0-d_3 of both modes by their kept columns, and rank on
    # SUM d_1 (the derivations) eliminates the columns already kept: 8 operator
    # transposes, each kept on its matrix, and no other (the L0 pool is an insertion).
    # Cohomology adds none, and neither does a second audit
    A = make_spin([1, Fraction(-1, 2), 3, Fraction(5, 4)])
    calls, transpose = [], exactla._transpose
    monkeypatch.setattr(exactla, "_transpose", lambda *a: calls.append(transpose(*a)) or calls[-1])
    audit(A)
    ops = [differential_matrix(A, n, mode).matrix for n in range(4) for mode in (SUM, PAPER)]
    assert [sum(c is m._by_col for c in calls) for m in ops] == [1] * 8
    assert len(calls) == 8
    assert rank(differential_matrix(A, 1, SUM).matrix) == 25 - 6  # exact, on the kept view
    for mode in (SUM, PAPER):
        for n in (1, 2, 3):
            cohomology(A, n, mode)
    audit(A)
    assert len(calls) == 8


@pytest.mark.parametrize("make", [lambda: make_spin([1, Fraction(-1, 2), 3]),
                                  lambda: random_rational_commutative(random.Random(2), 3)],
                         ids=["spin-d4", "dense-d3"])
def test_column_readers_leave_the_kept_views_as_built(monkeypatch, make):
    # d∘d, the ranks, the derivations, obstruction classes and gauge transport all read
    # operators by their kept columns; afterwards each view is still the transpose of its rows
    A, rng = make(), random.Random(3)
    built = []
    monkeypatch.setattr(deformation, "_bracket_matrices",
                        lambda *a, f=deformation._bracket_matrices: built.append(f(*a)) or built[-1])
    phi = random_cochain(rng, 2, A.dim)
    for mode in (SUM, PAPER):
        for n in (0, 1, 2):
            check_d_squared(A, n, mode)
            cohomology(A, n + 1, mode)
        class_modulo_image(A, graded_bracket(phi, phi, mode), mode)
    derivations(A)
    gauge_transport(GaugeSeries(2, [random_cochain(rng, 1, A.dim) for _ in range(2)]), A, 3)
    ops = [differential_matrix(A, n, mode).matrix for n in range(4) for mode in (SUM, PAPER)]
    ops += [m for mats in built for m in mats.values()]
    assert len(ops) == 10 and all(m._by_col is not None for m in ops)
    assert all(m._columns() == exactla._transpose(m.num, m.cols) for m in ops)


def _count_eliminations(monkeypatch):
    """Live counts of the `_eliminate` calls made by exactla and by deformation."""
    calls = {"exactla": 0, "deformation": 0}
    for name, module in (("exactla", exactla), ("deformation", deformation)):
        def counted(*args, name=name, eliminate=module._eliminate):
            calls[name] += 1
            return eliminate(*args)
        monkeypatch.setattr(module, "_eliminate", counted)
    return calls


def _log_routes(monkeypatch):
    """A live log of exactla's rank routes, in call order: ("_triangular", proven),
    ("_full_rank_mod_p", proven) and ("_eliminate", number of pivots)."""
    log = []
    for name in ("_triangular", "_full_rank_mod_p", "_eliminate"):
        def logged(*args, name=name, f=getattr(exactla, name)):
            out = f(*args)
            log.append((name, out if type(out) is bool else len(out[1])))
            return out
        monkeypatch.setattr(exactla, name, logged)
    return log


def test_dense_operators_are_certified_without_elimination(monkeypatch):
    # the benchmark's dense algebra at d = 4: d_1-d_3 fail the triangular check at their
    # first row and have full rank mod the prime, so their ranks, the (empty)
    # derivations and the inconsistent solve of an obstructed order-2 step run no
    # elimination; the obstruction class runs one
    rng = random.Random(0)
    A = algebra_from_json_dict(dense_doc(rng, 4))
    phi1 = SymCochain.from_json_dict(cochain_doc(rng, 2, 4, 0.3))
    calls = _count_eliminations(monkeypatch)
    log = _log_routes(monkeypatch)
    for mode in (SUM, PAPER):
        mats = [differential_matrix(A, n, mode).matrix for n in (1, 2, 3)]
        for m, cols in zip(mats, [16, 40, 80]):
            log.clear()
            assert rank(m) == m.cols == cols
            assert log == [("_triangular", False), ("_full_rank_mod_p", True)]
        step = mc_solve_step(DeformationSeries(A, 1, [phi1], mode), 2)
        assert not step.solvable
    log.clear()
    assert derivations(A) == []
    assert log == [("_triangular", False), ("_full_rank_mod_p", True)]
    assert calls == {"exactla": 0, "deformation": 2}


@pytest.mark.parametrize("make, degrees", [
    (lambda: make_spin([1, 2]), (1, 2, 3)),
    (lambda: make_spin([1, Fraction(-1, 2), 3]), (1, 2, 3)),
    (lambda: make_spin([1, Fraction(-1, 2), 3, Fraction(5, 4)]), (1, 2, 3)),
    (_doc_algebra(spin_doc, 0, 3), (1, 2, 3)), (_doc_algebra(spin_doc, 1, 4), (1, 2, 3)),
    (_doc_algebra(spin_doc, 2, 5), (0, 1, 2, 3, 4, 5)),
], ids=["spin-d3", "spin-d4", "spin-d5", "spin_doc-d3", "spin_doc-d4", "spin_doc-d5"])
def test_sparse_operators_keep_their_elimination(monkeypatch, make, degrees):
    # the routes of spin ranks: each column of an injective d_n has its own leading row,
    # so `_triangular` proves full rank with no packed pass and no elimination.  SUM d_1
    # has a kernel, the derivations: it fails the check, stays under the density gate
    # and keeps its one exact elimination
    A = make()
    mats = {(n, mode): differential_matrix(A, n, mode).matrix
            for n in degrees for mode in (SUM, PAPER)}
    if 5 in degrees:
        assert [(m.rows, m.cols) for (n, mode), m in mats.items() if n > 3] == [
            (630, 350)] * 2 + [(1050, 630)] * 2
    log = _log_routes(monkeypatch)
    for (n, mode), m in mats.items():
        log.clear()
        kernel = (A.dim - 1) * (A.dim - 2) // 2 if (n, mode) == (1, SUM) else 0
        assert rank(m) == m.cols - kernel
        routes = [name for name, _ in log]
        assert (routes.count("_eliminate"), routes.count("_full_rank_mod_p")) == (
            (1, 0) if (n, mode) == (1, SUM) else (0, 0))


def test_sparse_operator_solve_is_gated_on_the_operator_alone(monkeypatch):
    # mc_solve_step's order-2 system at spin d = 7, phi_1 = [mu, f] for an integer f:
    # d_2 holds 4.2 nonzeros per column, [d_2 | b] over 6 with the dense b.  The gate
    # reads d_2 alone, so the inconsistent solve is one exact elimination, no packed pass
    A = make_spin([1, Fraction(-1, 2), 3, Fraction(5, 4), 2, 7])
    rng, d = random.Random(0), A.dim
    f = SymCochain.from_entries(1, d, [((i,), k, rng.randint(-3, 3))
                                       for i in range(d) for k in range(d)])
    phi1 = graded_bracket(product_cochain(A), f)
    b = [-c for c in coeff_vector(graded_bracket(phi1, phi1).scale(Fraction(1, 2)))]
    D = differential_matrix(A, 2, SUM).matrix
    nnz = sum(map(len, D.num))
    assert nnz < 6 * D.cols and nnz + sum(map(bool, b)) >= 6 * (D.cols + 1)
    calls = _count_eliminations(monkeypatch)
    packed = []
    monkeypatch.setattr(exactla, "_full_rank_mod_p", lambda *a: packed.append(a) or False)
    assert solve(D, b) is None
    assert calls == {"exactla": 1, "deformation": 0} and packed == []


def _oracle_defect(A, n, mode):
    """rank(d_n d_{n-1}) from per-column brackets, a dense product and plain
    Gaussian elimination, independent of `complexes`."""
    mu = product_cochain(A)
    lo, hi = (reference_bracket_matrix(mu, k, mode is PAPER, 1) for k in (n - 1, n))
    return _row_echelon_rank(dense_mul(hi.data, lo.data, lo.cols))


@pytest.mark.parametrize("make, degrees, injective", [
    # d_n has a kernel and the defect is not rank(d_{n-1}): the composite is ranked
    (make_non_jordan, (2,), False),
    (_doc_algebra(dense_doc, 1, 2, 0.2), (1, 2, 3), False),
    # d_n is injective at n >= 2 (SUM d_1 of a spin factor is not)
    (_doc_algebra(spin_doc, 3, 3), (1, 2, 3), True),
    (_doc_algebra(spin_doc, 4, 4), (1, 2), True),
    (_doc_algebra(spin_doc, 5, 5), (1,), True),  # the oracle's degree-2 product takes over 1 s
    (_doc_algebra(dense_doc, 0, 3), (1, 2, 3), True),
], ids=["non_jordan", "dense-d2-fill0.2", "spin-d3", "spin-d4", "spin-d5", "dense-d3"])
def test_defect_is_the_rank_of_the_oracle_composite(make, degrees, injective):
    A = make()
    for n in degrees:
        for mode in (SUM, PAPER):
            rep = cohomology(A, n, mode)
            assert rep.defect_rank == _oracle_defect(A, n, mode), (n, mode)
            if not injective:
                assert rep.dim_kernel > 0 and rep.defect_rank != rep.dim_image_from_below
            elif n >= 2:
                assert rep.dim_kernel == 0


def test_non_jordan_degree_two_defect_pinned():
    for mode in (SUM, PAPER):
        rep = cohomology(make_non_jordan(), 2, mode)
        assert (rep.dim_kernel, rep.dim_image_from_below, rep.defect_rank) == (1, 4, 3)


def test_modes_share_a_rank_only_where_their_scalars_agree():
    # PAPER d_n is a multiple of SUM d_n at n = 0, 2 only; at n = 1 and n = 3
    # the ranks differ, (rank, columns) per mode, so sharing there is wrong
    spin = make_spin((1, 1))  # the corpus spin_1_1
    assert [(differential_matrix(spin, 1, m).rank, differential_matrix(spin, 1, m).matrix.cols)
            for m in (SUM, PAPER)] == [(8, 9), (9, 9)]
    A = algebra_from_json_dict(dense_doc(random.Random(0), 2, 0.4))
    assert [differential_matrix(A, 3, m).rank for m in (SUM, PAPER)] == [7, 8]


@pytest.mark.parametrize("order", [(SUM, PAPER), (PAPER, SUM)], ids=["sum-first", "paper-first"])
def test_degree_two_ranks_d2_once_in_either_mode_order(order, monkeypatch):
    shapes = []

    def counting_rank(m):
        shapes.append((m.rows, m.cols))
        return rank(m)

    monkeypatch.setattr(complexes, "rank", counting_rank)
    reports = {m: cohomology(make_spin([1, 2, -3]), 2, m).to_json_dict() for m in (SUM, PAPER)}
    A = make_spin([1, 2, -3])
    shapes.clear()
    assert {m: cohomology(A, 2, m).to_json_dict() for m in order} == reports
    assert shapes.count((80, 40)) == 1


def test_injective_degree_builds_no_composite(monkeypatch):
    # an injective d_n multiplies no matrices; the non-Jordan d_2 has a kernel, so a
    # fresh algebra's H^2 forms d_2 d_1, (rows of d_2, rows of d_1, columns of d_1)
    shapes = _count_muls(monkeypatch)
    for mode in (SUM, PAPER):
        rep = cohomology(algebra_from_json_dict(dense_doc(random.Random(0), 3)), 3, mode)
        assert rep.dim_kernel == 0 and shapes == []
    for mode in (SUM, PAPER):
        shapes.clear()
        cohomology(make_non_jordan(), 2, mode)
        assert shapes == [(8, 6, 4)]


def test_operator_matrices_die_with_their_algebra():
    def run(q):
        B = make_spin(q)
        for mode in (SUM, PAPER):
            cohomology(B, 2, mode)

    run([1, 2, -3])  # fills the module-level multiset tables for this dimension
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for t in range(10):
            run([t + 2, -1, 3])
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth < 64 * 1024


def test_cohomology_zero_product():
    Z = zero_product_algebra()
    rep = cohomology(Z, 2, SUM)
    assert rep.dim_kernel == 6
    assert rep.dim_image_from_below == 0
    assert rep.complex_valid
    assert rep.dim_H == 6


def test_cohomology_unital_example_degree_one():
    A = make_j2(1, 0)
    for mode in (SUM, PAPER):
        rep = cohomology(A, 1, mode)
        assert rep.dim_kernel == 0
        assert not rep.complex_valid
        assert rep.defect_rank > 0
        assert rep.dim_H is None


def test_cohomology_arithmetic_invariant():
    for A in CORPUS:
        for n in (0, 1, 2):
            rep = cohomology(A, n, SUM)
            d_n = differential_matrix(A, n, SUM).matrix
            assert rep.dim_kernel + rank(d_n) == sym_basis_dim(A.dim, n)


def test_derivations_dimensions_against_oracle():
    for A in CORPUS:
        assert len(derivations(A)) == derivation_dimension(A)
    assert len(derivations(make_j2(1, 0))) == 0
    assert len(derivations(make_j2(-1, 2))) == 1
    assert len(derivations(make_field())) == 0


def _assert_leibniz(A, D):
    """D(x*y) = D(x)*y + x*D(y) on every pair of basis vectors."""
    data, image = D.data, [D.column(i) for i in range(A.dim)]  # image[i] = D(e_i)
    for i in range(A.dim):
        for j in range(A.dim):
            x, y = A.basis_vector(i), A.basis_vector(j)
            lhs = dense_mul_vec(data, product(A, x, y))
            assert lhs == tuple(p + q for p, q in zip(product(A, image[i], y),
                                                      product(A, x, image[j])))


def test_derivations_satisfy_leibniz():
    for A in [make_j2(-1, 2), make_j2(0, 0), make_spin((1, 1))]:
        for D in derivations(A):
            _assert_leibniz(A, D)


SPIN_Q = [1, Fraction(-1, 2), 3, Fraction(5, 4), 2, 7, -3]


@pytest.mark.parametrize("make, so_dim", [
    *[((lambda n=n: sym_jordan(n)), n * (n - 1) // 2) for n in (2, 3, 4)],
    *[((lambda d=d: make_spin(SPIN_Q[:d - 1])), (d - 1) * (d - 2) // 2) for d in range(3, 9)],
], ids=[f"sym{n}" for n in (2, 3, 4)] + [f"spin-d{d}" for d in range(3, 9)])
def test_jordan_derivations_form_so(make, so_dim):
    # theorem oracles (Jacobson 1968): Der Sym_n(Q) = so(n), and the derivations of the
    # spin factor of a nondegenerate form on Q^(d-1) are so(d - 1); both families are Jordan
    A = make()
    d1 = differential_matrix(A, 1, SUM)
    ders = derivations(A)
    assert d1.matrix.cols - d1.rank == len(ders) == so_dim  # the audit's derivations_dim
    assert check_cubic_jordan(A).holds
    for D in ders:
        _assert_leibniz(A, D)


@pytest.mark.parametrize("n", [3, 4])
def test_sym_jordan_d1_is_packed_then_eliminated(monkeypatch, n):
    # Sym_n's SUM d_1 has a kernel, so(n), and opens the density gate (6.25 nonzeros per
    # column at n = 3): the triangular check fails, the packed pass finds no full rank,
    # and one exact elimination returns the rank
    m = differential_matrix(sym_jordan(n), 1, SUM).matrix
    assert exactla._dense(m.num, m.cols)
    log = _log_routes(monkeypatch)
    rank_d1 = m.cols - n * (n - 1) // 2
    assert rank(m) == rank_d1
    assert log == [("_triangular", False), ("_full_rank_mod_p", False), ("_eliminate", rank_d1)]


def test_dimension_mismatch_errors():
    A = make_j2(1, 0)
    with pytest.raises(ValueError):
        differential(A, SymCochain.zero(2, 3))
    with pytest.raises(ValueError):
        coboundary_c1_explicit(A, SymCochain.zero(2, 2))
    with pytest.raises(ValueError):
        coboundary_c2_explicit(A, SymCochain.zero(1, 2))


def _operator_pin_doc():
    """Results read off the operator matrices, as one canonical JSON document:
    spin factors of dimension 3-5 and two dense random_commutative algebras
    (d = 3, fill 0.6), in both modes."""
    rng = random.Random(808)
    algebras = [make_spin(q) for q in ([1, -2], [1, 2, -3],
                                       [1, Fraction(-1, 2), 3, Fraction(5, 4)])]
    algebras += [random_commutative(rng, 3, 0.6) for _ in range(2)]
    out = []
    for A in algebras:
        doc = {"c1": coboundary_c1_matrix(A).to_strs(),
               "derivations": [D.to_strs() for D in derivations(A)]}
        for mode in (SUM, PAPER):
            squares = []
            for n in range(4):
                rep = check_d_squared(A, n, mode)
                squares.append([rep.equal, rep.both_zero,
                                rep.witness and rep.witness.to_json_dict()])
            chains = []
            # mu itself extends to order 3: d mu = [mu, mu]
            for phi1 in (random_cochain(rng, 2, A.dim, sparsity=0.5), product_cochain(A)):
                s, step = mc_solve_chain(A, phi1, 3, mode)
                chains.append([s.to_json_list(), step and [
                    step.order, step.obstruction.to_json_dict()]])
            r = random_cochain(rng, 3, A.dim, sparsity=0.7)
            doc[mode.value] = {
                "cohomology": [cohomology(A, n, mode).to_json_dict() for n in range(5)],
                "d_squared": squares, "mc": chains,
                "class": class_modulo_image(A, r, mode).to_json_dict()}
        out.append(doc)
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


# sha256 of _operator_pin_doc(), recorded while each column of d and of
# (1/2)ad was still a bracket with one basis cochain, stored in a dense
# matrix: the scatter into sparse rows must not move a byte of it
OPERATOR_SHA256 = "869c9030d89da866f51c0dcb084198a237bb87ffb6b1eade4e9d43bb391854b8"


def test_operator_results_pinned():
    assert hashlib.sha256(_operator_pin_doc().encode()).hexdigest() == OPERATOR_SHA256
