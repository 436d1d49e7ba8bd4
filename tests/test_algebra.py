import random
from fractions import Fraction

import pytest

from symlie import (Algebra, algebra_from_json_dict, algebra_to_json_dict, check_cubic_jordan, check_operator_identity,
                    check_six_term, find_unit, make_field, make_j2, make_non_jordan,
                    make_spin, multiplication_operator, product, product_cochain)
from symlie.exactla import Matrix

from oracles import (cubic_jordan_sides, derivation_dimension, random_commutative,
                     random_vector, reference_check_cubic_jordan, six_term_sum)

E2 = (Fraction(1), Fraction(0))
U2 = (Fraction(0), Fraction(1))


def test_product_examples():
    A = make_j2(1, 0)
    assert product(A, U2, U2) == E2
    assert product(A, E2, U2) == U2
    nj = make_non_jordan()
    assert product(nj, (1, 0), (0, 1)) == (Fraction(0), Fraction(0))  # v*w = 0
    assert product(nj, (1, 0), (1, 0)) == (Fraction(0), Fraction(1))  # v*v = w


def test_product_symmetric_and_bilinear():
    rng = random.Random(61)
    for _ in range(15):
        A = random_commutative(rng, rng.randint(1, 3))
        x, y, z = (random_vector(rng, A.dim) for _ in range(3))
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        assert product(A, x, y) == product(A, y, x)
        combo = tuple(a + lam * b for a, b in zip(x, z))
        lhs = product(A, combo, y)
        rhs = tuple(a + lam * b for a, b in zip(product(A, x, y), product(A, z, y)))
        assert lhs == rhs


def test_product_dimension_mismatch():
    with pytest.raises(ValueError):
        product(make_j2(1, 0), (1, 0, 0), (0, 1))


def test_commutativity_enforced():
    table = [[(0, 0), (1, 0)], [(0, 1), (0, 0)]]
    with pytest.raises(ValueError):
        Algebra(2, ("a", "b"), table)


def test_find_unit():
    assert find_unit(make_j2(3, -2)) == E2
    assert find_unit(make_field()) == (Fraction(1),)
    assert find_unit(make_spin((1, 1))) == (Fraction(1), Fraction(0), Fraction(0))
    assert find_unit(make_non_jordan()) is None


def test_find_unit_acts_as_unit():
    rng = random.Random(67)
    for _ in range(20):
        A = random_commutative(rng, rng.randint(1, 3))
        e = find_unit(A)
        if e is None:
            continue
        for j in range(A.dim):
            assert product(A, e, A.basis_vector(j)) == A.basis_vector(j)


def test_multiplication_operator():
    A = make_j2(1, 0)
    assert multiplication_operator(A, E2) == Matrix.identity(2)
    swap = Matrix.from_rows([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    assert multiplication_operator(A, U2) == swap
    assert multiplication_operator(A, (0, 0)).is_zero()


def test_cubic_checker_verdicts():
    assert check_cubic_jordan(make_j2(1, 0)).holds
    assert check_cubic_jordan(make_j2(0, 0)).holds
    assert check_cubic_jordan(make_j2(2, 3)).holds
    assert check_cubic_jordan(make_spin((1, 1))).holds
    assert check_cubic_jordan(make_field()).holds
    rep = check_cubic_jordan(make_non_jordan())
    assert not rep.holds
    # recorded witness: x = v, y = v, left = v, right = 0
    assert rep.witness.inputs == ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(0)))
    assert rep.witness.left == (Fraction(1), Fraction(0))
    assert rep.witness.right == (Fraction(0), Fraction(0))


def test_cubic_checker_matches_full_polarization_reference():
    # sparse fills reach late first failures and the trilinear-witness branch
    rng = random.Random(79)
    algebras = [make_j2(1, 0), make_spin((1, -2, 3)), make_non_jordan(), make_field()]
    algebras += [random_commutative(rng, 1 + t % 4, (0.1, 0.25, 0.5, 1)[t // 4 % 4])
                 for t in range(64)]
    kinds = set()
    for A in algebras:
        rep = check_cubic_jordan(A).to_json_dict()
        assert rep == reference_check_cubic_jordan(A).to_json_dict()
        kinds.add(None if rep["witness"] is None else len(rep["witness"]["inputs"]))
    assert kinds == {None, 2, 4}


def test_cubic_checker_trilinear_witness():
    # e0*e1 = e0 only: every basis pair satisfies the cubic identity, the
    # polarization first fails at (e0, e1, e1, e1)
    A = Algebra(2, ("a", "b"), [[(0, 0), (1, 0)], [(1, 0), (0, 0)]])
    rep = check_cubic_jordan(A).to_json_dict()
    assert rep == reference_check_cubic_jordan(A).to_json_dict()
    assert rep == {"verdict": "fails", "witness": {
        "inputs": [["1", "0"], ["0", "1"], ["0", "1"], ["0", "1"]],
        "left": ["-4", "0"], "right": ["0", "0"],
        "note": "trilinear polarization of the cubic identity at a basis 4-tuple"}}


def test_cubic_polarization_agrees_with_direct_sampling():
    rng = random.Random(71)
    for A in [make_j2(1, 0), make_spin((1, 1)), make_non_jordan(),
              random_commutative(rng, 2), random_commutative(rng, 3)]:
        verdict = check_cubic_jordan(A).holds
        found_violation = False
        for _ in range(100):
            x, y = random_vector(rng, A.dim), random_vector(rng, A.dim)
            left, right = cubic_jordan_sides(A, x, y)
            if left != right:
                found_violation = True
                break
        if found_violation:
            assert not verdict
        # a holding verdict must never see a violation
        if verdict:
            assert not found_violation


def test_six_term_always_zero_for_commutative():
    rng = random.Random(73)
    for A in [make_j2(1, 0), make_non_jordan(), make_spin((1, 1)), make_field(),
              random_commutative(rng, 2), random_commutative(rng, 3),
              random_commutative(rng, 3)]:
        assert check_six_term(A).holds
        x, y, z = (random_vector(rng, A.dim) for _ in range(3))
        assert all(c == 0 for c in six_term_sum(A, x, y, z))


def test_operator_identity_verdicts():
    assert check_operator_identity(make_j2(1, 0)).holds
    assert check_operator_identity(make_field()).holds
    rep = check_operator_identity(make_spin((1, 1)))
    assert not rep.holds
    # witness x = v1, y = v2: left = v2, right = 0
    v1 = (Fraction(0), Fraction(1), Fraction(0))
    v2 = (Fraction(0), Fraction(0), Fraction(1))
    assert rep.witness.inputs == (v1, v2)
    assert rep.witness.left == v2
    assert rep.witness.right == (Fraction(0),) * 3
    assert not check_operator_identity(make_non_jordan()).holds


def test_product_cochain_matches_product():
    rng = random.Random(79)
    A = random_commutative(rng, 3)
    mu = product_cochain(A)
    for _ in range(10):
        x, y = random_vector(rng, 3), random_vector(rng, 3)
        assert mu.evaluate((x, y)) == product(A, x, y)


def test_derivation_oracle_matches_checkers_on_known_cases():
    assert derivation_dimension(make_j2(1, 0)) == 0
    assert derivation_dimension(make_j2(-1, 2)) == 1
    assert derivation_dimension(make_field()) == 0


def test_json_round_trip_bit_exact():
    import json
    for A in [make_j2(1, 0), make_spin((1, 2)), make_non_jordan(), make_field()]:
        doc = algebra_to_json_dict(A)
        text = json.dumps(doc, sort_keys=True, indent=2)
        B = algebra_from_json_dict(json.loads(text))
        assert B == A
        assert json.dumps(algebra_to_json_dict(B), sort_keys=True, indent=2) == text


def test_loader_rejects_non_commutative():
    doc = {"dim": 2, "labels": ["a", "b"],
           "sc": [{"i": 0, "j": 1, "k": 0, "c": "1"}]}  # (1,0,0) missing -> violation
    with pytest.raises(ValueError):
        algebra_from_json_dict(doc)


@pytest.mark.parametrize("doc", [
    {"dim": 2, "labels": ["a"], "sc": []},
    {"dim": 0, "labels": [], "sc": []},
    {"dim": 2, "labels": ["a", "b"], "sc": [{"i": 0, "j": 0, "k": 5, "c": "1"}]},
    {"dim": 2, "labels": ["a", "b"], "sc": [{"i": 0, "j": 0, "c": "1"}]},
    {"dim": 2, "labels": ["a", "b"],
     "sc": [{"i": 0, "j": 0, "k": 0, "c": "1"}, {"i": 0, "j": 0, "k": 0, "c": "1"}]},
])
def test_loader_rejects_malformed(doc):
    with pytest.raises(ValueError):
        algebra_from_json_dict(doc)
