import random
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symlie import (InsertionMode, SymCochain, check_jacobi, check_prelie, cohomology,
                    differential_matrix, graded_bracket, identity_cochain, insert,
                    insert_lowdeg_variant, make_j2, multisets, product_cochain)
from symlie.bracket import koszul_sign, parse_mode, unshuffle_permutations

from oracles import (insertion_eval, left_nested_eval, random_cochain, random_vector,
                     reference_insert, right_nested_eval)

SUM = InsertionMode.SUM
PAPER = InsertionMode.PAPER
E2 = (Fraction(1), Fraction(0))
U2 = (Fraction(0), Fraction(1))


def test_unshuffle_enumeration():
    for p, q in [(0, 0), (0, 3), (2, 0), (1, 2), (2, 2), (3, 2)]:
        perms = unshuffle_permutations(p, q)
        assert len(perms) == comb(p + q, p)
        assert len(set(perms)) == len(perms)
        for sigma in perms:
            assert sorted(sigma) == list(range(p + q))
            assert list(sigma[:p]) == sorted(sigma[:p])
            assert list(sigma[p:]) == sorted(sigma[p:])


def test_parse_mode():
    assert parse_mode("sum") is SUM
    assert parse_mode("paper") is PAPER
    with pytest.raises(ValueError):
        parse_mode("avg")


def test_insert_identity_into_product():
    mu = product_cochain(make_j2(1, 0))
    for mode in (SUM, PAPER):  # prefactor 1/(1! 1!) = 1, two splits
        assert insert(mu, identity_cochain(2), mode) == mu.scale(2)


def test_insert_product_into_product_values():
    mu = product_cochain(make_j2(1, 0))
    assert insert(mu, mu, PAPER).value_at((1, 1, 1)) == (Fraction(0), Fraction(3, 2))
    assert insert(mu, mu, SUM).value_at((1, 1, 1)) == (Fraction(0), Fraction(3))


def test_insert_from_arity0_is_zero():
    rng = random.Random(83)
    v = random_cochain(rng, 0, 2)
    g = random_cochain(rng, 2, 2)
    out = insert(v, g)
    assert out.is_zero() and out.n == 1


def test_insert_of_arity0_fills_slot():
    # mu o v = multiplication by v, both modes (prefactor 1/(1! 0!) = 1)
    A = make_j2(1, 0)
    mu = product_cochain(A)
    v = SymCochain(0, 2, {(): U2})
    for mode in (SUM, PAPER):
        L = insert(mu, v, mode)
        assert L.n == 1
        assert L.value_at((0,)) == U2      # e*u = u
        assert L.value_at((1,)) == E2      # u*u = e
    # at arity 3 the averaged prefactor 1/2! shows up
    rng = random.Random(89)
    f = random_cochain(rng, 3, 2)
    assert insert(f, v, PAPER) == insert(f, v, SUM).scale(Fraction(1, 2))


def test_insert_matches_direct_enumeration_oracle():
    rng = random.Random(97)
    for _ in range(20):
        d = rng.randint(1, 2)
        m = rng.randint(1, 3)
        n = rng.randint(0, 3)
        f = random_cochain(rng, m, d, sparsity=0.2)
        g = random_cochain(rng, n, d, sparsity=0.2)
        args = [random_vector(rng, d) for _ in range(m + n - 1)]
        for mode in (SUM, PAPER):
            built = insert(f, g, mode)
            assert built.evaluate(args) == insertion_eval(f, g, args, mode is PAPER)


# ---------------------------------------------------------------------------
# the scatter over nonzeros against the gather over output multisets

BIG = 10 ** 20
VALUES = st.one_of(st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool),
                   st.builds(lambda s, p, q: Fraction(s * p, q), st.sampled_from((1, -1)),
                             st.integers(1, BIG), st.integers(1, BIG)))


@st.composite
def cochains(draw, n, d):
    """An arity-n cochain holding one nonzero, some, or every coefficient,
    its values drawn from a small pool so that equal terms can cancel."""
    keys = [(mset, k) for mset in multisets(d, n) for k in range(d)]
    fill = draw(st.sampled_from(("one", "some", "all")))
    if fill == "one":
        chosen = [draw(st.sampled_from(keys))]
    elif fill == "some":
        chosen = [key for key in keys if draw(st.booleans())]
    else:
        chosen = keys
    pool = draw(st.lists(VALUES, min_size=1, max_size=3))
    return SymCochain.from_entries(n, d, [(mset, k, draw(st.sampled_from(pool)))
                                          for mset, k in chosen])


@st.composite
def insertion_inputs(draw):
    # output arity m + n - 1 is capped by d so that the gather stays fast
    d = draw(st.integers(1, 4))
    m = draw(st.integers(0, 4))
    n = draw(st.integers(0, min(4, 9 - d - m)))
    return draw(cochains(m, d)), draw(cochains(n, d)), draw(st.sampled_from([SUM, PAPER]))


@settings(max_examples=200)
@given(insertion_inputs())
def test_insert_matches_reference_gather(inputs):
    f, g, mode = inputs
    built = insert(f, g, mode)
    assert built == reference_insert(f, g, mode is PAPER)
    assert (built.n, built.dim) == (max(f.n + g.n - 1, 0), f.dim)
    assert all(type(x) is Fraction for vec in built.coeffs.values() for x in vec)


def test_insert_bilinear():
    rng = random.Random(101)
    f1, f2 = random_cochain(rng, 2, 2), random_cochain(rng, 2, 2)
    g1, g2 = random_cochain(rng, 2, 2), random_cochain(rng, 2, 2)
    lam = Fraction(5, 3)
    for mode in (SUM, PAPER):
        assert insert(f1 + f2.scale(lam), g1, mode) == \
            insert(f1, g1, mode) + insert(f2, g1, mode).scale(lam)
        assert insert(f1, g1 + g2.scale(lam), mode) == \
            insert(f1, g1, mode) + insert(f1, g2, mode).scale(lam)


def test_insert_dimension_mismatch():
    with pytest.raises(ValueError):
        insert(SymCochain.zero(2, 2), SymCochain.zero(2, 3))


def test_insert_rejects_a_mode_that_is_not_an_insertion_mode():
    A = make_j2(1, 0)
    mu = product_cochain(A)
    const = SymCochain.zero(0, 2)
    for bad in ("paper", "sum", None, 1):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            insert(mu, mu, bad)
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            insert(const, mu, bad)
    # every bracket-dependent call goes through insert
    with pytest.raises(TypeError, match="'paper'"):
        graded_bracket(mu, mu, "paper")
    with pytest.raises(TypeError, match="'paper'"):
        differential_matrix(A, 1, "paper")
    with pytest.raises(TypeError, match="'paper'"):
        cohomology(A, 2, "paper")


def test_degree_bookkeeping():
    rng = random.Random(103)
    for m, n in [(1, 1), (2, 3), (3, 0), (1, 0)]:
        f, g = random_cochain(rng, m, 2), random_cochain(rng, n, 2)
        out = insert(f, g)
        assert out.n == m + n - 1
        assert out.degree == f.degree + g.degree


def test_bracket_graded_antisymmetry_exact():
    rng = random.Random(107)
    for _ in range(15):
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        if m + n == 0:
            continue
        f, g = random_cochain(rng, m, 2), random_cochain(rng, n, 2)
        for mode in (SUM, PAPER):
            lhs = graded_bracket(f, g, mode)
            rhs = graded_bracket(g, f, mode).scale(-koszul_sign(f.degree, g.degree))
            assert lhs == rhs


def test_bracket_of_even_element_with_itself_vanishes():
    rng = random.Random(109)
    f = random_cochain(rng, 1, 2)   # degree 0, even
    assert graded_bracket(f, f).is_zero()


def test_bracket_mu_mu_is_twice_insertion():
    mu = product_cochain(make_j2(1, 0))
    for mode in (SUM, PAPER):
        assert graded_bracket(mu, mu, mode) == insert(mu, mu, mode).scale(2)
    assert graded_bracket(mu, mu, SUM).value_at((1, 1, 1)) == (Fraction(0), Fraction(6))


def test_bracket_identity_with_mu():
    # [id, mu] = id o mu - mu o id; the composite prefactor differs per mode
    A = make_j2(1, 0)
    mu = product_cochain(A)
    i = identity_cochain(2)
    assert graded_bracket(i, mu, SUM) == -mu
    assert graded_bracket(i, mu, PAPER) == mu.scale(Fraction(-3, 2))


def test_ungraded_right_symmetry_holds():
    # the sign-free associator is symmetric in (g, h): the identity the
    # unshuffle sum genuinely satisfies, constants included
    rng = random.Random(113)
    for _ in range(25):
        d = rng.randint(1, 2)
        m = rng.randint(1, 3)
        n, l = rng.randint(0, 3), rng.randint(0, 3)
        f = random_cochain(rng, m, d, sparsity=0.2)
        g = random_cochain(rng, n, d, sparsity=0.2)
        h = random_cochain(rng, l, d, sparsity=0.2)
        for mode in (SUM,):
            lhs = insert(insert(f, g, mode), h, mode) - insert(f, insert(g, h, mode), mode)
            rhs = insert(insert(f, h, mode), g, mode) - insert(f, insert(h, g, mode), mode)
            assert lhs == rhs


def test_ungraded_jacobi_for_plain_commutator():
    # f o g - g o f is an honest (ungraded) Lie bracket in SUM mode
    rng = random.Random(127)

    def plain(f, g):
        return insert(f, g) - insert(g, f)

    for _ in range(15):
        d = rng.randint(1, 2)
        arities = [rng.randint(1, 3) for _ in range(3)]
        f, g, h = (random_cochain(rng, a, d, sparsity=0.2) for a in arities)
        total = plain(f, plain(g, h)) + plain(g, plain(h, f)) + plain(h, plain(f, g))
        assert total.is_zero()


def test_graded_prelie_holds_when_sign_is_even():
    rng = random.Random(131)
    cases = 0
    while cases < 20:
        n, l = rng.randint(1, 3), rng.randint(1, 3)
        if ((n - 1) * (l - 1)) % 2:
            continue
        m = rng.randint(1, 3)
        f = random_cochain(rng, m, 2, sparsity=0.2)
        g = random_cochain(rng, n, 2, sparsity=0.2)
        h = random_cochain(rng, l, 2, sparsity=0.2)
        assert check_prelie(f, g, h, SUM).holds
        cases += 1


def test_graded_prelie_fails_on_odd_odd_pair():
    # documented counterexample: both inserted arguments of even arity
    mu = product_cochain(make_j2(1, 0))
    rep = check_prelie(mu, mu, mu, SUM)
    assert not rep.holds
    # witness re-evaluates exactly
    w = rep.witness
    lhs = insert(insert(mu, mu, SUM), mu, SUM) - insert(mu, insert(mu, mu, SUM), SUM)
    rhs = (insert(insert(mu, mu, SUM), mu, SUM)
           - insert(mu, insert(mu, mu, SUM), SUM)).scale(koszul_sign(1, 1))
    assert lhs.evaluate(w.inputs) == w.left
    assert rhs.evaluate(w.inputs) == w.right
    assert w.left != w.right


def test_graded_jacobi_holds_for_odd_arities():
    rng = random.Random(137)
    for _ in range(10):
        arities = [rng.choice([1, 3]) for _ in range(3)]
        f, g, h = (random_cochain(rng, a, 2, sparsity=0.3) for a in arities)
        assert check_jacobi(f, g, h, SUM).holds


def test_graded_jacobi_fails_on_product_triple():
    mu = product_cochain(make_j2(1, 0))
    assert not check_jacobi(mu, mu, mu, SUM).holds


def _oracle_assoc(f, g, h, args):
    """A(f,g,h) = (f o g) o h - f o (g o h) at args, SUM mode, via the oracles."""
    return tuple(a - b for a, b in zip(left_nested_eval(f, g, h, args),
                                       right_nested_eval(f, g, h, args)))


@pytest.mark.parametrize("arities", [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
def test_checkers_give_verdicts_with_two_arity0_arguments(arities):
    """Target arity 0.  Inserting one arity-0 cochain into another lands in
    the zero space of arity -1, so every nested term through it vanishes.
    Pre-Lie follows criterion 2's rule (b): it holds iff (-1)^{|g||h|} = +1
    or A(f,g,h) = 0.  Jacobi holds iff the associator sum of rule (c) is 0."""
    rng = random.Random(191)
    mu = product_cochain(make_j2(1, 0))
    v0 = SymCochain(0, 2, {(): E2})
    cases = [tuple(mu if a else v0 for a in arities)]
    cases += [tuple(random_cochain(rng, a, 2) for a in arities) for _ in range(5)]
    for f, g, h in cases:
        a_fgh = _oracle_assoc(f, g, h, [])
        rep = check_prelie(f, g, h, SUM)
        assert rep.holds == (koszul_sign(g.degree, h.degree) == 1 or not any(a_fgh))
        if not rep.holds:
            assert rep.witness.left == a_fgh
            assert rep.witness.right == tuple(-x for x in _oracle_assoc(f, h, g, []))
        jac = [Fraction(0)] * 2
        for x, y, z in ((f, g, h), (g, h, f), (h, f, g)):
            sign = koszul_sign(y.degree, z.degree)
            for k, (p, q) in enumerate(zip(_oracle_assoc(x, y, z, []),
                                           _oracle_assoc(x, z, y, []))):
                jac[k] += (-1) ** x.n * (p - sign * q)
        rep = check_jacobi(f, g, h, SUM)
        assert rep.holds == (not any(jac))
        if not rep.holds:
            assert rep.witness.left == tuple(jac)
        for check in (check_prelie, check_jacobi):
            assert check(f, g, h, PAPER).holds in (True, False)
    # (mu, v0, v0): A = mu(v0, v0) = e and the sign is -1
    if arities == (2, 0, 0):
        assert not check_prelie(mu, v0, v0, SUM).holds


def test_prelie_trivial_when_g_equals_h_even_degree():
    rng = random.Random(139)
    f = random_cochain(rng, 2, 2)
    g = random_cochain(rng, 3, 2)   # degree 2, even: sign +1 makes it literal
    assert check_prelie(f, g, g, SUM).holds
    assert check_prelie(f, g, g, PAPER).holds


def test_zero_triples_hold_everywhere():
    z1, z2 = SymCochain.zero(2, 2), SymCochain.zero(3, 2)
    for mode in (SUM, PAPER):
        assert check_prelie(z1, z2, z1, mode).holds
        assert check_jacobi(z1, z1, z2, mode).holds


def test_lowdeg_variant_values():
    A = make_j2(1, 0)
    mu = product_cochain(A)
    two_term = insert_lowdeg_variant(mu, mu)
    assert two_term.value_at((1, 1, 1)) == U2        # vs (3/2) u from the averaged form
    assert insert(mu, mu, PAPER).value_at((1, 1, 1)) == (Fraction(0), Fraction(3, 2))
    assert insert_lowdeg_variant(mu, SymCochain.zero(2, 2)).is_zero()
    with pytest.raises(ValueError):
        insert_lowdeg_variant(mu, SymCochain.zero(3, 2))


def test_lowdeg_variant_direct_substitution():
    # 1/2 (f(g(x,y),z) + f(g(x,z),y)) read off at sorted basis tuples
    rng = random.Random(149)
    f = random_cochain(rng, 2, 2)
    g = random_cochain(rng, 2, 2)
    out = insert_lowdeg_variant(f, g)
    basis = [E2, U2]
    for mset in multisets(2, 3):
        x, y, z = (basis[i] for i in mset)
        expect = tuple(Fraction(1, 2) * (p + q) for p, q in zip(
            f.evaluate((g.evaluate((x, y)), z)), f.evaluate((g.evaluate((x, z)), y))))
        assert out.value_at(mset) == expect
