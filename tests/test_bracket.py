import random
import re
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symlie import (InsertionMode, Matrix, SymCochain, basis_cochains, check_d_squared,
                    check_jacobi, check_prelie, cohomology, differential_matrix,
                    endomorphism_cochain, from_coeff_vector, graded_bracket, identity_cochain,
                    insert, insert_lowdeg_variant, make_j2, multisets, product_cochain,
                    unshuffles)
from symlie.bracket import _divisor, _Memo, koszul_sign

from oracles import (insertion_eval, left_nested_eval, random_cochain, random_vector,
                     reference_bracket, reference_insert, reference_jacobi_report,
                     reference_lowdeg_variant, reference_prelie_report, right_nested_eval)

SUM = InsertionMode.SUM
PAPER = InsertionMode.PAPER
E2 = (Fraction(1), Fraction(0))
U2 = (Fraction(0), Fraction(1))


def test_unshuffle_enumeration():
    for p, q in [(0, 0), (0, 3), (2, 0), (1, 2), (2, 2), (3, 2)]:
        splits = list(unshuffles(p, q))
        assert len(splits) == comb(p + q, p)
        assert len(set(splits)) == len(splits)
        for first, second in splits:
            assert (len(first), len(second)) == (p, q)
            assert sorted(first + second) == list(range(p + q))
            assert list(first) == sorted(first) and list(second) == sorted(second)


def test_divisor_is_the_paper_factorials():
    # the sum inserting arity n into arity m is divided by (m-1)! n! in PAPER mode only
    factorials = [1, 1, 2, 6, 24, 120]
    for m in range(6):
        for n in range(6):
            assert _divisor(SUM, m, n) == 1
            assert _divisor(PAPER, m, n) == (factorials[m - 1] * factorials[n] if m else 1)


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
    bracket = graded_bracket(f, g, mode)
    assert bracket == reference_bracket(f, g, mode is PAPER)
    for out in (built, bracket):
        assert (out.n, out.dim) == (max(f.n + g.n - 1, 0), f.dim)
        assert all(type(x) is Fraction for vec in out.coeffs.values() for x in vec)
        assert_stored_form(out)
        assert (out - out).is_zero()
        for c in (Fraction(-3, 2), 0):
            assert out.scale(c) == SymCochain(out.n, out.dim, {
                key: [c * x for x in vec] for key, vec in out.coeffs.items()})


@st.composite
def kept_plan_operands(draw):
    # f o f and g o g as well as f o g: every output arity 2 max(m, n) - 1 <= 8 - d
    d = draw(st.integers(1, 4))
    m, n = (draw(st.integers(0, (9 - d) // 2)) for _ in range(2))
    return draw(cochains(m, d)), draw(cochains(n, d))


@given(kept_plan_operands())
def test_insertions_on_kept_plans_match_the_references(operands):
    # the first compositions derive each operand's slot plan; every later one,
    # in either mode and either order, reads the kept plans
    f, g = operands
    for mode in (SUM, PAPER, SUM, PAPER):
        paper = mode is PAPER
        for x, y in ((f, g), (g, f), (f, f), (g, g)):
            assert insert(x, y, mode) == reference_insert(x, y, paper)
            assert graded_bracket(x, y, mode) == reference_bracket(x, y, paper)
        assert f._slots is not None and g._slots is not None


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_reused_operands_on_kept_plans_match_the_references(d):
    rng = random.Random(211 + d)
    ops = [random_cochain(rng, n, d, sparsity=0.5) for n in (0, 1, 2, 2)]
    for mode in (SUM, PAPER):
        for x in ops:
            for y in ops:
                assert insert(x, y, mode) == reference_insert(x, y, mode is PAPER)
                assert graded_bracket(x, y, mode) == reference_bracket(x, y, mode is PAPER)
    assert all(x._slots is not None for x in ops)


def assert_stored_form(c):
    """The stored form: {sorted multiset: {k: int}} over one positive denominator, in
    lowest terms, with no zero entry and no empty vector."""
    entries = [x for vec in c.num.values() for x in vec.values()]
    assert type(c.den) is int and c.den > 0 and gcd(c.den, *entries) == 1
    assert all(type(x) is int and x for x in entries)
    assert all(vec and all(0 <= k < c.dim for k in vec) for vec in c.num.values())
    assert all(len(M) == c.n and list(M) == sorted(M) for M in c.num)


def _produced() -> dict:
    """Each producer's cochains, on seeded rational operands at d = 3, sparse ones
    and a zero one; every producer but `basis_cochains` makes a cancelling one."""
    rng = random.Random(503)
    f1, f2, f3 = (random_cochain(rng, n, 3, sparsity=0.5) for n in (1, 2, 3))
    z, half = SymCochain.zero(2, 3), Fraction(1, 2)
    return {
        "init": [SymCochain(2, 3, {(0, 1): (half, 0, Fraction(-3, 4)), (1, 1): (0, 0, 0),
                                   (2, 2): ("2/6", 0, 0)}),
                 SymCochain(1, 3, {(0,): (0, 0, 0)})],
        "from_entries": [
            SymCochain.from_entries(2, 3, [((0, 1), 0, 1), ((1, 0), 0, -1), ((1, 1), 2, "4/6"),
                                           ((2, 2), 1, 0), ((0, 2), 1, 1)]),
            SymCochain.from_entries(1, 3, [((0,), 1, half), ((0,), 1, -half)])],
        "add": [f2 + f2, f2 + (-f2), f2 + z, f2 + f2.scale(-half)],
        "sub": [f2 - f2, f2 - z, f2 - f2.scale(3), z - f2],
        "scale": [f2.scale(0), f3.scale(Fraction(-2, 7)), -f1],
        "insert": [insert(a, b, mode) for mode in (SUM, PAPER)
                   for a, b in ((f2, f1), (f1, f3), (f3, f2), (f2, z), (z, f2))],
        "graded_bracket": [graded_bracket(a, b, mode) for mode in (SUM, PAPER)  # [f, f] = 0
                           for a, b in ((f1, f1), (f3, f3), (f2, f2), (f2, f3), (f1, z))],
        "insert_lowdeg_variant": [insert_lowdeg_variant(a, b) for a, b in ((f2, f2), (f2, z))],
        "endomorphism_cochain": [
            endomorphism_cochain(Matrix(3, 3, [[0, half, 0], [0, 3, 0], [0, 0, 0]])),
            endomorphism_cochain(Matrix(3, 3, [[0] * 3] * 3))],
        "from_coeff_vector": [from_coeff_vector(3, 1, [0, 0, 0, Fraction(2, 4), 0, -1, 0, 0, 0]),
                              from_coeff_vector(3, 1, [0] * 9)],
        "basis_cochains": [c for _, c in basis_cochains(3, 2)],
    }


@pytest.mark.parametrize("producer", sorted(_produced()))
def test_every_producer_stores_the_reduced_sparse_form(producer):
    out = _produced()[producer]
    assert any(c.is_zero() for c in out) or producer == "basis_cochains"
    for c in out:
        assert_stored_form(c)
        assert SymCochain(c.n, c.dim, c.coeffs) == c  # the dense boundary gives it back


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
    for op in (insert, graded_bracket):
        with pytest.raises(ValueError):
            op(SymCochain.zero(2, 2), SymCochain.zero(2, 3))


def test_insert_rejects_a_mode_that_is_not_an_insertion_mode():
    A = make_j2(1, 0)
    mu = product_cochain(A)
    const = SymCochain.zero(0, 2)
    for bad in ("paper", "sum", None, 1, ["sum"], {}):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            insert(mu, mu, bad)
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            insert(const, mu, bad)
    # every bracket-dependent call goes through _divisor
    with pytest.raises(TypeError, match="'paper'"):
        graded_bracket(mu, mu, "paper")
    with pytest.raises(TypeError, match="'paper'"):
        differential_matrix(A, 1, "paper")
    with pytest.raises(TypeError, match="'paper'"):
        cohomology(A, 2, "paper")
    with pytest.raises(TypeError, match="^insertion mode must be an InsertionMode, got \\['sum'\\]$"):
        cohomology(A, 1, ["sum"])
    # and still on an algebra whose operator matrices are kept
    cohomology(A, 2, InsertionMode.SUM)
    check_d_squared(A, 1, InsertionMode.SUM)
    for call in (differential_matrix, check_d_squared):
        with pytest.raises(TypeError, match="'paper'"):
            call(A, 1, "paper")
    with pytest.raises(TypeError, match="'paper'"):
        cohomology(A, 2, "paper")
    with pytest.raises(TypeError, match="^insertion mode must be an InsertionMode, got \\['sum'\\]$"):
        cohomology(A, 1, ["sum"])


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


# ---------------------------------------------------------------------------
# one composition memo shared by many checks, against the oracle compositions

CHECKERS = ((check_prelie, reference_prelie_report), (check_jacobi, reference_jacobi_report))


@st.composite
def shared_memo_checks(draw):
    """Checks in an interleaved order over one pool of arity-0..3 cochains:
    two drawn ones, the first scaled by a negative non-integer, and a zero."""
    d = draw(st.integers(1, 3))
    f, g = (draw(cochains(draw(st.integers(0, 3)), d)) for _ in range(2))
    c = draw(st.sampled_from((Fraction(-1, 2), Fraction(-3, 2), Fraction(-5, 3))))
    pool = [f, g, f.scale(c), SymCochain.zero(draw(st.integers(0, 3)), d)]
    triples = draw(st.lists(st.tuples(*[st.sampled_from(pool)] * 3), min_size=1, max_size=3))
    return draw(st.permutations(
        [(t, pair, mode) for t in triples for pair in CHECKERS for mode in (SUM, PAPER)]))


@settings(max_examples=120)
@given(shared_memo_checks())
def test_checkers_through_one_memo_match_oracle_compositions(checks):
    """A memo keeps one SUM-mode insertion per pair of primitive forms, so f
    and c f, both modes and both identities share entries; each report,
    witness included, is the one the reference compositions give."""
    memo = _Memo()
    for (f, g, h), (check, oracle), mode in checks:
        assert check(f, g, h, mode, _memo=memo) == oracle(f, g, h, mode is PAPER)


def test_memo_splits_a_cochain_into_a_scalar_and_one_primitive_form():
    rng = random.Random(211)
    f = random_cochain(rng, 2, 2)
    memo = _Memo()
    # a term's scalar is held as ints a / b with b > 0
    [(a, b, p)] = memo.terms(f)
    assert type(a) is int and type(b) is int and b > 0
    assert p.den == 1 and gcd(*(x for vec in p.num.values() for x in vec.values())) == 1
    first = p.num[min(p.num)]
    assert first[min(first)] > 0
    assert p.scale(Fraction(a, b)) == f
    for c in (Fraction(-3, 2), 7, Fraction(1, 5)):
        [(x, y, q)] = memo.terms(f.scale(c))
        assert q is p and Fraction(x, y) == c * Fraction(a, b)
    assert memo.terms(SymCochain.zero(2, 2)) == []


def test_checkers_refuse_what_insert_refuses_on_zero_operands():
    z2, z3 = SymCochain.zero(2, 2), SymCochain.zero(2, 3)
    for check in (check_prelie, check_jacobi):
        with pytest.raises(TypeError, match="'paper'"):
            check(z2, z2, z2, "paper")
        with pytest.raises(ValueError):
            check(z2, z2, z3, SUM)


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


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_lowdeg_variant_matches_the_evaluate_reference(d):
    # f != g over different denominators, with sparse, one-entry and zero operands
    rng = random.Random(300 + d)
    cochains = [random_cochain(rng, 2, d, span=4, sparsity=s).scale(Fraction(1, q))
                for q, s in ((3, 0.0), (5, 0.5), (7, 0.8))]
    cochains += [SymCochain.from_entries(2, d, [((0, d - 1), d - 1, Fraction(-5, 3))]),
                 SymCochain.zero(2, d)]
    assert len({c.den for c in cochains[:2]}) == 2
    for f in cochains:
        for g in cochains:
            assert insert_lowdeg_variant(f, g) == reference_lowdeg_variant(f, g)
