import hashlib
import json
import random
import re
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symlie import (GaugeSeries, InsertionMode, SymCochain, gauge_transport, graded_bracket,
                    insert, make_j2, multisets, product_cochain, sym_basis_dim)
from symlie.exactla import vec_to_strs

from oracles import (naive_evaluate, random_commutative, random_cochain,
                     random_rational_commutative, random_vector)


def test_sym_basis_dim_examples():
    assert sym_basis_dim(2, 2) == 6
    assert sym_basis_dim(2, 3) == 8
    assert sym_basis_dim(2, 0) == 2


def test_sym_basis_dim_counts_dense_keys():
    rng = random.Random(5)
    for d, n in [(1, 3), (2, 2), (3, 4)]:
        f = random_cochain(rng, n, d, span=3)
        # force density: every (multiset, k) nonzero
        dense = SymCochain.from_entries(
            n, d, [(m, k, Fraction(1)) for m in multisets(d, n) for k in range(d)])
        assert sum(1 for _ in dense.items()) == sym_basis_dim(d, n)
        assert len(multisets(d, n)) * d == sym_basis_dim(d, n)


def test_evaluate_product_cochain_j2():
    mu = product_cochain(make_j2(1, 0))
    e = (Fraction(1), Fraction(0))
    u = (Fraction(0), Fraction(1))
    assert mu.evaluate((u, u)) == e
    assert mu.evaluate((e, u)) == u


def test_evaluate_zero_cochain():
    z = SymCochain.zero(3, 2)
    assert z.evaluate(((1, 2), (3, 4), (5, 6))) == (0, 0)


def test_evaluate_single_coefficient_multiplicity():
    # single coefficient ({e,u} -> u) = 1
    f = SymCochain.from_entries(2, 2, [((0, 1), 1, 1)])
    e = (Fraction(1), Fraction(0))
    u = (Fraction(0), Fraction(1))
    assert f.evaluate((e, u)) == u
    assert f.evaluate((u, e)) == u
    assert f.evaluate((e, e)) == (0, 0)
    # mixed argument picks the coefficient once per ordered assignment
    s = (Fraction(1), Fraction(1))
    assert f.evaluate((s, s)) == (Fraction(0), Fraction(2))


def test_evaluate_matches_naive_oracle():
    rng = random.Random(23)
    for _ in range(25):
        d = rng.randint(1, 3)
        n = rng.randint(0, 4)
        f = random_cochain(rng, n, d, sparsity=0.3)
        args = [random_vector(rng, d) for _ in range(n)]
        assert f.evaluate(args) == naive_evaluate(f, args)


def test_evaluate_symmetric_under_argument_permutations():
    rng = random.Random(29)
    for _ in range(10):
        d = rng.randint(1, 3)
        n = rng.randint(2, 3)
        f = random_cochain(rng, n, d)
        args = [random_vector(rng, d) for _ in range(n)]
        base = f.evaluate(args)
        for perm in permutations(range(n)):
            assert f.evaluate([args[p] for p in perm]) == base


def test_evaluate_linear_in_each_slot():
    rng = random.Random(37)
    f = random_cochain(rng, 3, 2)
    a, b = random_vector(rng, 2), random_vector(rng, 2)
    fixed = [random_vector(rng, 2), random_vector(rng, 2)]
    lam = Fraction(3, 2)
    combo = tuple(x + lam * y for x, y in zip(a, b))
    for slot in range(3):
        args = fixed[:slot] + [combo] + fixed[slot:]
        args_a = fixed[:slot] + [a] + fixed[slot:]
        args_b = fixed[:slot] + [b] + fixed[slot:]
        lhs = f.evaluate(args)
        rhs = tuple(x + lam * y for x, y in zip(f.evaluate(args_a), f.evaluate(args_b)))
        assert lhs == rhs


def test_round_trip_from_basis_samples():
    rng = random.Random(41)
    f = random_cochain(rng, 3, 2, sparsity=0.2)
    basis = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    rebuilt = SymCochain(3, 2, {
        mset: vec for mset in multisets(2, 3)
        if any(vec := f.evaluate([basis[i] for i in mset]))})
    assert rebuilt == f


def test_evaluate_arity_mismatch():
    f = SymCochain.zero(2, 2)
    for args, msg in [([(1, 0)], "expected 2 arguments, got 1"),
                      ([], "expected 2 arguments, got 0"),
                      (iter([(1, 0)] * 3), "expected 2 arguments, got 3"),
                      # the count is checked before any vector's length
                      ([(1,), (1, 0), (1, 0, 0)], "expected 2 arguments, got 3"),
                      ([(1, 0), (1, 0, 0)], "argument vector has wrong length"),
                      ([(1,), (1, 0)], "argument vector has wrong length"),
                      # every entry is converted before the count is checked
                      ([(1, 0), (1, "x"), (1, 0)], "Invalid literal for Fraction: 'x'"),
                      ([("x",)], "Invalid literal for Fraction: 'x'")]:
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            f.evaluate(args)
    with pytest.raises(ValueError, match=r"^expected 0 arguments, got 1$"):
        SymCochain.zero(0, 2).evaluate([(1, 0)])
    with pytest.raises(ValueError, match=r"^Invalid literal for Fraction: 'x'$"):
        SymCochain.zero(0, 2).evaluate([(1, "x")])


@pytest.mark.parametrize("k", [-1, 2, 7])
def test_from_entries_rejects_output_index_out_of_range(k):
    with pytest.raises(ValueError, match=f"k={k} .*dim 2"):
        SymCochain.from_entries(1, 2, [((0,), k, 1)])


@pytest.mark.parametrize("mset", [(0,), (0, 1, 1), (0, 5), (2, 0), (-1, 0), ()])
def test_value_at_and_coeff_refuse_malformed_multisets(mset):
    f = SymCochain.from_entries(2, 2, [((0, 1), 1, 3)])
    key = re.escape(str(tuple(sorted(mset))))
    with pytest.raises(ValueError, match=f"bad multiset key {key} for arity 2, dim 2"):
        f.value_at(mset)
    with pytest.raises(ValueError, match=f"bad multiset key {key} for arity 2, dim 2"):
        f.coeff(mset, 0)


@pytest.mark.parametrize("k", [-1, 2, 7])
def test_coeff_refuses_output_index_out_of_range(k):
    f = SymCochain.from_entries(2, 2, [((0, 1), 1, 3)])
    with pytest.raises(ValueError, match=f"k={k} .*dim 2"):
        f.coeff((0, 1), k)


@pytest.mark.parametrize("bad", [0.5, Fraction(1), "a"], ids=["float", "fraction", "str"])
def test_constructors_and_value_at_refuse_non_int_indices(bad):
    # an index equal to an int is refused too: only an int is a basis index
    key = re.escape(str((bad,)))
    with pytest.raises(ValueError, match=f"bad multiset key {key} for arity 1, dim 2"):
        SymCochain(1, 2, {(bad,): [1, 0]})
    with pytest.raises(ValueError, match=f"bad multiset key {key} for arity 1, dim 2"):
        SymCochain.from_entries(1, 2, [((bad,), 0, 1)])
    with pytest.raises(ValueError, match=f"k={re.escape(str(bad))} .*dim 2"):
        SymCochain.from_entries(1, 2, [((0,), bad, 1)])
    f = SymCochain.from_entries(1, 2, [((1,), 0, 3)])
    with pytest.raises(ValueError, match=f"bad multiset key {key} for arity 1, dim 2"):
        f.value_at((bad,))


def test_value_at_and_coeff_sort_their_multiset():
    f = SymCochain.from_entries(2, 2, [((0, 1), 1, 3)])
    assert f.value_at((1, 0)) == f.value_at((0, 1)) == (0, 3)
    assert f.coeff((1, 0), 1) == f.coeff([0, 1], 1) == 3
    assert f.coeff((1, 1), 1) == 0
    c = SymCochain.from_entries(0, 2, [((), 0, Fraction(1, 2))])
    assert c.value_at(()) == (Fraction(1, 2), 0)


def test_evaluate_accepts_iterators_and_int_str_fraction_entries():
    rng = random.Random(61)
    f = random_cochain(rng, 3, 3, sparsity=0.3)
    args = [(1, "2/3", Fraction(-1, 2)), ("-3", 0, 2), (Fraction(5, 4), "0", -1)]
    want = naive_evaluate(f, [[Fraction(x) for x in a] for a in args])
    assert f.evaluate(args) == want
    assert f.evaluate(iter([iter(a) for a in args])) == want
    assert f.evaluate(map(iter, args)) == want
    assert f.evaluate(tuple(list(a) for a in args)) == want
    assert f.evaluate((x for x in a) for a in args) == want
    assert f.evaluate({i: a for i, a in enumerate(args)}.values()) == want


# ---------------------------------------------------------------------------
# integer contraction against the naive multilinear sum

BIG = 10 ** 20
RATIONALS = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))
# an argument entry as the caller may pass it: int, str or Fraction
ENTRIES = st.one_of(st.integers(-BIG, BIG), st.integers(-3, 3), RATIONALS.map(str), RATIONALS)


@st.composite
def evaluation_inputs(draw):
    """An arity-n cochain on d dimensions holding no nonzero, one, some or
    every coefficient, and n arguments: general, some zero, or all zero."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(0, 5))
    keys = [(mset, k) for mset in multisets(d, n) for k in range(d)]
    fill = draw(st.sampled_from(("none", "one", "some", "all")))
    chosen = {"none": [], "one": [draw(st.sampled_from(keys))],
              "some": [key for key in keys if draw(st.booleans())], "all": keys}[fill]
    f = SymCochain.from_entries(n, d, [(mset, k, draw(RATIONALS.filter(bool)))
                                       for mset, k in chosen])
    zero = draw(st.sampled_from(("none", "some", "all")))
    args = []
    for _ in range(n):
        if zero == "all" or (zero == "some" and draw(st.booleans())):
            args.append(tuple(draw(st.sampled_from((0, "0", Fraction(0)))) for _ in range(d)))
        else:
            args.append(tuple(draw(ENTRIES) for _ in range(d)))
    return f, args


@given(evaluation_inputs())
def test_evaluate_matches_naive_oracle_on_generated_inputs(inputs):
    f, args = inputs
    out = f.evaluate(args)
    assert out == naive_evaluate(f, args)
    assert len(out) == f.dim and all(type(x) is Fraction for x in out)


def _sparse_args(rng, d, n, zeros=0.3):
    """n arguments of rationals, each coordinate zero with probability `zeros`."""
    return [[0 if rng.random() < zeros else Fraction(rng.randint(-7, 7) or 1, rng.randint(1, 5))
             for _ in range(d)] for _ in range(n)]


def _cochain_at(rng, n, d, msets):
    return SymCochain(n, d, {m: random_vector(rng, d, span=5) for m in msets})


def test_evaluate_matches_oracle_on_few_multisets_at_larger_d():
    # the weights of the first n - 1 arguments span every multiset of their
    # nonzero coordinates, and the last is contracted at f's few stored ones;
    # zero coordinates leave gaps in the weights, and a zero argument zeroes all
    rng = random.Random(71)
    for d in range(5, 9):
        for n in range(6):
            msets = multisets(d, n)
            f = _cochain_at(rng, n, d, rng.sample(msets, min(len(msets), rng.randint(1, 5))))
            args = [[Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 5))
                     for _ in range(d)] for _ in range(n)]
            assert f.evaluate(args) == naive_evaluate(f, args), (d, n, sorted(f.num))
            for zeros in (0.3, 0.7):
                args = _sparse_args(rng, d, n, zeros)
                assert f.evaluate(args) == naive_evaluate(f, args), (d, n, zeros, sorted(f.num))
            if n:
                args[rng.randrange(n)] = [0] * d
                assert f.evaluate(args) == naive_evaluate(f, args) == (0,) * d


@pytest.mark.parametrize("d, n", [(2, 8), (3, 6), (2, 1), (3, 1)])
def test_evaluate_matches_oracle_at_full_multiplicity(d, n):
    # one index n times, and multisets whose digit-keys collide in too small
    # a base: at d = 3, n = 6, (1^6) and (0^5, 2) are one key in base 5, and
    # at n = 1 every index is one key in base 1
    rng = random.Random(73 + 10 * d + n)
    full = [(i,) * n for i in range(d)]
    mixed = [(0,) * (n - 1) + (d - 1,), tuple(sorted(i % d for i in range(n))),
             (0,) * (n // 2) + (1,) * (n - n // 2)]
    for msets in [full[:1], full[-1:], full, full + mixed, mixed]:
        f = _cochain_at(rng, n, d, sorted({tuple(sorted(m)) for m in msets}))
        for _ in range(3):
            args = [random_vector(rng, d, span=4) for _ in range(n)]
            assert f.evaluate(args) == naive_evaluate(f, args), (d, n, sorted(f.num))
        ones = [(Fraction(1),) * d] * n
        assert f.evaluate(ones) == naive_evaluate(f, ones)


# ---------------------------------------------------------------------------
# the last argument contracted at the stored multisets, through a kept plan

def _each_construction(rng, n, d):
    """(path, cochain) for each way a cochain is made, all of arity n on d dimensions.
    The operands are evaluated first, so a plan carried over to the result shows."""
    f, g, lo = (random_cochain(rng, m, d, span=3, sparsity=0.6) for m in (n, n, 1))
    for h in (f, g, lo):
        h.evaluate(_sparse_args(rng, d, h.n))
    return [("init", SymCochain(n, d, f.coeffs)), ("zero", SymCochain.zero(n, d)),
            ("from_entries", SymCochain.from_entries(n, d, g.items())),
            ("from_json_dict", SymCochain.from_json_dict(g.to_json_dict())),
            ("insert", insert(f, lo, InsertionMode.PAPER)),
            ("add", f + g), ("scale", g.scale(Fraction(-3, 4))), ("sub", f - g), ("neg", -f)]


@pytest.mark.parametrize("d, n", [(1, 0), (1, 4), (2, 0), (2, 3), (3, 2), (3, 4), (8, 2)])
def test_evaluate_matches_oracle_from_every_construction(d, n):
    rng = random.Random(101 + 10 * d + n)
    for path, f in _each_construction(rng, n, d):
        for _ in range(2):
            args = _sparse_args(rng, d, n, zeros=0.2)
            assert f.evaluate(args) == naive_evaluate(f, args), path


@pytest.mark.parametrize("d, n", [(1, 0), (2, 3), (3, 4)])
def test_evaluation_plan_is_made_once_and_kept(d, n):
    rng = random.Random(103 + 10 * d + n)
    for path, f in _each_construction(rng, n, d):
        assert f._plan is None, path
        args = _sparse_args(rng, d, n)
        f.evaluate(args)
        plan = f._plan
        if n:
            assert plan is not None and len(plan) == len(f.num), path
        f.evaluate(_sparse_args(rng, d, n))
        assert f._plan is plan, path
        # a derived cochain starts without one
        assert (f + f)._plan is None and f.scale(2)._plan is None, path


def test_evaluation_plan_is_not_part_of_the_value():
    rng = random.Random(107)
    f = random_cochain(rng, 3, 3, sparsity=0.5)
    g = SymCochain.from_json_dict(f.to_json_dict())
    f.evaluate(_sparse_args(rng, 3, 3))
    assert f._plan is not None and g._plan is None
    assert f == g and g == f
    assert repr(f) == repr(g)
    assert f.to_json_dict() == g.to_json_dict()


# ---------------------------------------------------------------------------
# the slot plan of the insertion kernel, made on first use and kept

def _expected_slot_plan(f):
    """f's outer and inner terms by slot, as sorted lists, from `f.num` directly."""
    outer = sorted((k, F[:F.index(k)] + F[F.index(k) + 1:], tuple(sorted(vec.items())))
                   for F, vec in f.num.items() for k in set(F))
    return outer, sorted((k, G, w) for G, vec in f.num.items() for k, w in vec.items())


@pytest.mark.parametrize("d, n", [(1, 0), (1, 3), (2, 3), (3, 2), (4, 1)])
def test_slot_plan_is_made_once_and_kept(d, n):
    rng = random.Random(109 + 10 * d + n)
    for path, f in _each_construction(rng, n, d):
        assert f._slots is None, path
        insert(f, f)  # the first kernel use derives it
        plan = f._slots
        outer, inner = plan
        assert (sorted((k, rest, tuple(sorted(vec))) for k, terms in outer.items()
                       for rest, vec in terms),
                sorted((k, G, w) for k, terms in inner.items() for G, _, w in terms)) \
            == _expected_slot_plan(f), path
        assert all(tag is None for terms in inner.values() for _, tag, _ in terms), path
        for mode in InsertionMode:
            graded_bracket(f, f, mode)
            insert(f, SymCochain.zero(1, d), mode)
        assert f._slot_plan() is plan and f._slots is plan, path
        # no derived cochain starts with one
        for derived in (f + f, f - f, f.scale(Fraction(2, 3)), -f,
                        SymCochain._from_ints(f.n, d, dict(f.num), f.den),
                        SymCochain.from_json_dict(f.to_json_dict()), insert(f, f)):
            assert derived._slots is None, path


def test_slot_plan_is_not_part_of_the_value():
    rng = random.Random(113)
    f = random_cochain(rng, 3, 3, sparsity=0.5)
    g = SymCochain.from_json_dict(f.to_json_dict())
    graded_bracket(f, f)
    assert f._slots is not None and g._slots is None
    assert f == g and g == f
    assert repr(f) == repr(g)
    assert f.to_json_dict() == g.to_json_dict()


@st.composite
def alternating_evaluations(draw):
    """Two cochains of one shape holding a few nonzero coefficients, made by one of
    the constructors, and argument lists (zero coordinates allowed) for both."""
    d, n = draw(st.integers(1, 5)), draw(st.integers(0, 4))
    keys = [(mset, k) for mset in multisets(d, n) for k in range(d)]
    pair = []
    for _ in range(2):
        entries = [(mset, k, draw(RATIONALS.filter(bool)))
                   for mset, k in draw(st.lists(st.sampled_from(keys), max_size=6))]
        f = SymCochain.from_entries(n, d, entries)
        path = draw(st.sampled_from(("init", "json", "add", "scale")))
        pair.append({"init": lambda: SymCochain(n, d, f.coeffs),
                     "json": lambda: SymCochain.from_json_dict(f.to_json_dict()),
                     "add": lambda: f + SymCochain.zero(n, d),
                     "scale": lambda: f.scale(draw(RATIONALS.filter(bool)))}[path]())
    coords = st.one_of(st.just(0), RATIONALS)
    arglists = draw(st.lists(st.lists(st.lists(coords, min_size=d, max_size=d),
                                      min_size=n, max_size=n), min_size=1, max_size=3))
    return pair, arglists


@given(alternating_evaluations())
def test_alternating_evaluations_match_the_oracle(inputs):
    (f, g), arglists = inputs
    for args in arglists:
        for h in (f, g):
            assert h.evaluate(args) == naive_evaluate(h, args)


def test_json_round_trip():
    rng = random.Random(59)
    f = random_cochain(rng, 3, 3, sparsity=0.4)
    assert SymCochain.from_json_dict(f.to_json_dict()) == f


MALFORMED = [  # (document, its refusal)
    ({"n": 2, "dim": 2}, "cochain document missing field: 'coeffs'"),
    ({"n": 2, "dim": 2, "coeffs": [{"multiset": [1, 0], "k": 0, "c": "1"}]},
     "multiset not sorted: [1, 0]"),
    ({"n": 2, "dim": 2, "coeffs": [{"multiset": [0, 1], "k": 5, "c": "1"}]},
     "coefficient entry out of range: {'multiset': [0, 1], 'k': 5, 'c': '1'}"),
    ({"n": 2, "dim": 2, "coeffs": [{"multiset": [0, 1], "k": 0, "c": "x"}]},
     "not a rational literal: 'x'"),
    ({"n": 2, "dim": 2, "coeffs": [{"multiset": [0, 1], "k": 0, "c": "1"},
                                   {"multiset": [0, 1], "k": 0, "c": "2"}]},
     "duplicate coefficient key ([0, 1], 0)"),
    ("n=2, dim=2", "cochain document must be an object"),
    ({"n": 2, "dim": 2, "coeffs": {"multiset": [0, 1], "k": 0, "c": "1"}},
     "coeffs must be a list"),
    ({"n": 2, "dim": 2, "coeffs": [[[0, 1], 0, "1"]]}, "coefficient entry must be an object"),
    ({"n": 2, "dim": 2, "coeffs": [{"multiset": [0, 1], "k": 0}]}, "bad coefficient entry: 'c'"),
    ({"n": 2, "dim": 2, "coeffs": [{"multiset": 1, "k": 0, "c": "1"}]},
     "multiset must be a list"),
    ({"n": 0, "dim": 2, "coeffs": [{"multiset": {}, "k": 0, "c": "1"}]},
     "multiset must be a list"),
]


@pytest.mark.parametrize("doc, message", MALFORMED, ids=[f"doc{i}" for i in range(5)] + [
    "not-an-object", "coeffs-not-a-list", "entry-a-list", "missing-field", "multiset-an-int",
    "multiset-an-object"])
def test_json_rejects_malformed(doc, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SymCochain.from_json_dict(doc)


def _big_rat(rng):
    return Fraction(rng.randint(-BIG, BIG), rng.randint(1, BIG))


def _evaluate_pin_doc():
    """evaluate results on a seeded set, as one canonical JSON document:
    criterion 1's sampler (two tuples per case) and 20-digit coefficients and
    arguments.  It also holds gauge transport on two dense rational algebras,
    which pins no evaluation: transport is exp(ad_X) on the bracket kernel, and
    nothing in the package calls evaluate."""
    out = {"sampler": [], "big": [], "gauge": []}
    rng = random.Random(1001)
    grid = [(d, m, n) for d in (1, 2, 3) for m in (1, 2, 3) for n in (0, 1, 2, 3)]
    for d, m, n in grid:
        random_commutative(rng, d)
        f = random_cochain(rng, m, d, sparsity=0.2)
        g = random_cochain(rng, n, d, sparsity=0.2)
        for mode in (InsertionMode.SUM, InsertionMode.PAPER):
            built = insert(f, g, mode)
            for _ in range(2):
                args = [random_vector(rng, d, span=1) for _ in range(m + n - 1)]
                out["sampler"].append(vec_to_strs(built.evaluate(args)))
    rng = random.Random(7)
    for d in (1, 2, 3, 4):
        for n in range(5):
            f = SymCochain.from_entries(n, d, [
                (mset, k, _big_rat(rng)) for mset in multisets(d, n) for k in range(d)
                if rng.random() < 0.5])
            args = [tuple(_big_rat(rng) for _ in range(d)) for _ in range(n)]
            out["big"].append(vec_to_strs(f.evaluate(args)))
    rng = random.Random(11)
    for d in (2, 3):
        A = random_rational_commutative(rng, d)
        T = GaugeSeries(3, [random_cochain(rng, 1, d) for _ in range(3)])
        out["gauge"].append(gauge_transport(T, A, 3).to_json_list())
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


# sha256 of _evaluate_pin_doc(), recorded while evaluate still contracted on
# Fractions term by term: a faster contraction must not move a byte of it
EVALUATE_SHA256 = "c6c09d2200f20f1c9d2ccea790bd14d1c4104ea6b6f9cf486917625e7cc5d5f9"


def test_evaluate_pinned():
    assert hashlib.sha256(_evaluate_pin_doc().encode()).hexdigest() == EVALUATE_SHA256
