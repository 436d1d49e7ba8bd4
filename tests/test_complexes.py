import gc
import hashlib
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from symlie import (Algebra, InsertionMode, Matrix, SymCochain, audit, check_d_squared,
                    check_jacobi, coboundary_c1_explicit, coboundary_c2_explicit,
                    coeff_vector, cohomology, derivations, differential,
                    differential_matrix, endomorphism_cochain, graded_bracket,
                    insert, make_field, make_j2, make_non_jordan, mc_solve_chain,
                    make_spin, multiplication_operator, product, product_cochain,
                    sym_basis_dim)
from symlie.cochain import basis_cochains
from symlie.complexes import _composite, ad_half_bracket_matrix, coboundary_c1_matrix
from symlie.deformation import class_modulo_image
from symlie.exactla import rank

from oracles import (derivation_dimension, printed_coboundary_c1, random_cochain,
                     random_commutative, random_vector, reference_bracket,
                     reference_bracket_matrix)

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
    algebras = CORPUS + [random_commutative(random.Random(d), d) for d in (1, 2, 3, 4)]
    for A in algebras:
        f = random_cochain(rng, 1, A.dim)
        printed = printed_coboundary_c1(A, f)
        assert -differential(A, f, SUM) == printed
        assert coboundary_c1_explicit(A, f) == printed
        assert list(coboundary_c1_matrix(A).mul_vec(coeff_vector(f))) == coeff_vector(printed)


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
        mu = product_cochain(A)
        for n in (0, 1, 2, 3):
            for mode in (SUM, PAPER):
                mat = differential_matrix(A, n, mode).matrix
                f = random_cochain(rng, n, A.dim, sparsity=0.3)
                assert list(mat.mul_vec(coeff_vector(f))) == \
                    coeff_vector(differential(A, f, mode))
                half_ad = graded_bracket(graded_bracket(mu, mu, mode), f, mode).scale(
                    Fraction(1, 2))
                assert list(ad_half_bracket_matrix(A, n, mode).mul_vec(coeff_vector(f))) == \
                    coeff_vector(half_ad)


@pytest.mark.parametrize("mode", [SUM, PAPER])
def test_operator_matrices_match_per_column_brackets(mode):
    # the scatter from mu's and [mu,mu]'s nonzeros against one bracket per
    # basis cochain, on the corpus, spin factors and seeded random algebras
    algebras = CORPUS + [make_spin([1, -2]), make_spin([1, 2, -3])]
    algebras += [random_commutative(random.Random(seed), d)
                 for seed, d in ((0, 1), (1, 2), (2, 3))]
    paper = mode is PAPER
    for A in algebras:
        mu = product_cochain(A)
        B = reference_bracket(mu, mu, paper)
        for n in range(4):
            assert differential_matrix(A, n, mode).matrix == \
                reference_bracket_matrix(mu, n, paper, 1), (A.labels, n)
            assert ad_half_bracket_matrix(A, n, mode) == \
                reference_bracket_matrix(B, n, paper, Fraction(1, 2)), (A.labels, n)


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
        composite, half_ad = _composite(A, n, SUM), ad_half_bracket_matrix(A, n, SUM)
        all_zero = True
        for j, (_, f) in enumerate(basis_cochains(d, n)):
            expr = _assoc(f, mu, mu, SUM).scale(-1) - _assoc(mu, mu, f, SUM).scale(1 + (-1) ** n)
            diff = [a - b for a, b in zip(composite.column(j), half_ad.column(j))]
            assert diff == coeff_vector(expr), (n, j)
            all_zero = all_zero and expr.is_zero()
        assert check_d_squared(A, n, SUM).equal == all_zero


def test_each_composite_is_built_once(monkeypatch):
    # d_2 d_1 serves AD-SQUARED and the H^2 data of one audit, and d_3 d_2
    # serves AD-SQUARED and a later H^3: one product per (n, mode), here
    # (rows of d_{n+1}, rows of d_n, columns of d_n) for n = 0, 1, 2
    shapes = []
    mul = Matrix.mul

    def counting_mul(self, other):
        shapes.append((self.rows, self.cols, other.cols))
        return mul(self, other)

    monkeypatch.setattr(Matrix, "mul", counting_mul)
    A = make_spin([1, 2, -3])
    audit(A)
    for mode in (SUM, PAPER):
        cohomology(A, 3, mode)
    assert sorted(shapes) == sorted([(40, 16, 4), (80, 40, 16), (140, 80, 40)] * 2)


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
