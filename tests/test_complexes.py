import random
from fractions import Fraction

import pytest

from symlie import (Algebra, InsertionMode, SymCochain, check_d_squared,
                    check_jacobi, coboundary_c1_explicit, coboundary_c2_explicit,
                    coeff_vector, cohomology, derivations, differential,
                    differential_matrix, endomorphism_cochain, graded_bracket,
                    make_field, make_j2, make_non_jordan,
                    make_spin, multiplication_operator, product, product_cochain,
                    sym_basis_dim)
from symlie.cochain import basis_cochains
from symlie.complexes import ad_half_bracket_matrix
from symlie.exactla import rank

from oracles import derivation_dimension, random_cochain, random_vector

SUM = InsertionMode.SUM
PAPER = InsertionMode.PAPER

CORPUS = [make_j2(1, 0), make_j2(0, 0), make_j2(-1, 2), make_spin((1, 1)),
          make_non_jordan(), make_field()]


def zero_product_algebra(d=2):
    return Algebra(d, tuple(f"z{i}" for i in range(d)),
                   [[(Fraction(0),) * d] * d] * d)


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
    for A in CORPUS:
        f = random_cochain(rng, 1, A.dim)
        assert coboundary_c1_explicit(A, f) == -differential(A, f, SUM)


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
        assert differential_matrix(Z, n, SUM).matrix.is_zero()


def test_matrix_action_consistency():
    rng = random.Random(179)
    for A in [make_j2(1, 0), make_spin((1, 1))]:
        for n in (0, 1, 2):
            for mode in (SUM, PAPER):
                mat = differential_matrix(A, n, mode).matrix
                f = random_cochain(rng, n, A.dim, sparsity=0.3)
                assert list(mat.mul_vec(coeff_vector(f))) == \
                    coeff_vector(differential(A, f, mode))


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


@pytest.mark.parametrize("n", [0, 2])
def test_d_squared_witness_input_is_the_basis_cochain(n):
    A = make_j2(1, 0)
    w = check_d_squared(A, n, SUM).witness
    composite = differential_matrix(A, n + 1, SUM).matrix.mul(
        differential_matrix(A, n, SUM).matrix)
    ad_half = ad_half_bracket_matrix(A, n, SUM)
    (e_j,) = w.inputs
    assert len(e_j) == sym_basis_dim(A.dim, n)
    assert sorted(e_j) == [0] * (len(e_j) - 1) + [1]
    assert composite.mul_vec(e_j) == w.left
    assert ad_half.mul_vec(e_j) == w.right


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


def test_derivations_satisfy_leibniz():
    for A in [make_j2(-1, 2), make_j2(0, 0), make_spin((1, 1))]:
        for D in derivations(A):
            for i in range(A.dim):
                for j in range(A.dim):
                    x, y = A.basis_vector(i), A.basis_vector(j)
                    lhs = D.mul_vec(product(A, x, y))
                    rhs = tuple(p + q for p, q in zip(
                        product(A, D.mul_vec(x), y), product(A, x, D.mul_vec(y))))
                    assert lhs == rhs


def test_dimension_mismatch_errors():
    A = make_j2(1, 0)
    with pytest.raises(ValueError):
        differential(A, SymCochain.zero(2, 3))
    with pytest.raises(ValueError):
        coboundary_c1_explicit(A, SymCochain.zero(2, 2))
    with pytest.raises(ValueError):
        coboundary_c2_explicit(A, SymCochain.zero(1, 2))
