import contextlib
import hashlib
import io
import json
import random
import re
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement, product as iproduct
from pathlib import Path

import pytest

from symlie import (Algebra, algebra_from_entries, algebra_from_json_dict, algebra_to_json_dict,
                    check_cubic_jordan, check_operator_identity, check_six_term, corpus_entries,
                    find_unit, make_field, make_j2, make_non_jordan, make_spin,
                    multiplication_operator, product, product_cochain)
from symlie import complexes
from symlie.algebra import _assoc_table
from symlie.complexes import differential_matrix
from symlie.cli import run
from symlie.exactla import Matrix, vec_to_strs

from oracles import (cubic_jordan_sides, derivation_dimension, naive_product, random_commutative,
                     random_rational_commutative, random_vector, reference_check_cubic_jordan,
                     reference_check_operator_identity, reference_solve, six_term_sum,
                     sym_jordan)

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import dense_doc  # the benchmark's seeded documents

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


def _oracle_unit(A):
    """The unit from the dense system e e_j = e_j, row (j, k) holding coordinate k of the
    oracle product e_i e_j at column i."""
    d = A.dim
    basis = [A.basis_vector(i) for i in range(d)]
    m = Matrix(d * d, d, [[naive_product(A, basis[i], basis[j])[k] for i in range(d)]
                          for j in range(d) for k in range(d)])
    return reference_solve(m, [int(j == k) for j in range(d) for k in range(d)])


def _dense_doc_algebra(seed, d):
    return algebra_from_json_dict(dense_doc(random.Random(seed), d))


@pytest.mark.parametrize("A, unit", [
    *[(entry.algebra, "oracle") for entry in corpus_entries()],
    *[(sym_jordan(n), tuple(int(p == q) for p, q in combinations_with_replacement(range(n), 2)))
      for n in (2, 3, 4)],
    *[(make_spin([Fraction(-1, d), *range(1, d - 1)]), (1,) + (0,) * (d - 1))
      for d in range(3, 9)],
    (algebra_from_entries(3, "abc", []), None),
    (_dense_doc_algebra(0, 3), None), (_dense_doc_algebra(1, 4), None)],
    ids=[entry.name for entry in corpus_entries()] + [f"sym{n}" for n in (2, 3, 4)] + [
        f"spin-d{d}" for d in range(3, 9)] + ["zero-product", "dense_doc-d3", "dense_doc-d4"])
def test_find_unit_solves_the_kept_d0_as_the_oracle_system(A, unit):
    e = find_unit(A)
    assert e == _oracle_unit(A)
    if unit != "oracle":
        assert e == (None if unit is None else tuple(map(Fraction, unit)))


def test_find_unit_reads_the_kept_d0_and_builds_no_matrix(monkeypatch):
    A = make_spin([2, Fraction(-1, 3)])
    differential_matrix(A, 0)  # kept, as after an audit's d∘d scan
    built, from_ints = [], Matrix._from_ints.__func__
    monkeypatch.setattr(complexes, "_bracket_matrices", lambda *a: built.append(a))
    monkeypatch.setattr(Matrix, "_from_ints", classmethod(
        lambda cls, *a: built.append(a) or from_ints(cls, *a)))
    assert find_unit(A) == (1, 0, 0) and built == []


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
    swap = Matrix(2, 2, [[0, 1], [1, 0]])
    assert multiplication_operator(A, U2) == swap
    assert multiplication_operator(A, (0, 0)) == Matrix(2, 2, [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        multiplication_operator(A, (1, 0, 0))


def test_multiplication_operator_columns_are_oracle_products():
    rng = random.Random(73)
    algebras = [make_spin([1, Fraction(-1, 2), 3, Fraction(5, 4)])]
    algebras += [random_commutative(rng, 1 + t % 4, (0.5, 1)[t % 2]) for t in range(24)]
    for A in algebras:
        v = tuple(x + Fraction(1, 3) for x in random_vector(rng, A.dim))
        L = multiplication_operator(A, v)
        for j in range(A.dim):
            assert L.column(j) == naive_product(A, A.basis_vector(j), v)


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


def _associator(A, x, y, z):
    """(x*y)*z - x*(y*z) through the package's `product`."""
    return tuple(p - q for p, q in zip(product(A, product(A, x, y), z),
                                       product(A, x, product(A, y, z))))


def _naive_associator(A, x, y, z):
    return tuple(p - q for p, q in zip(naive_product(A, naive_product(A, x, y), z),
                                       naive_product(A, x, naive_product(A, y, z))))


@pytest.mark.parametrize("make, den", [
    (lambda: make_spin([1, Fraction(-1, 2), 3, Fraction(5, 4)]), 4),
    (lambda: random_rational_commutative(random.Random(7), 3), 12),
    (make_non_jordan, 1),
    (lambda: Algebra(3, "abc", [[(0, 0, 0)] * 3] * 3), 1),
    (make_field, 1),
    (lambda: Algebra(1, "a", [[(Fraction(2, 3),)]]), 3),
], ids=["spin", "dense-rational", "non-jordan", "zero-product", "field", "rational-d1"])
def test_associator_table_matches_naive_products(make, den):
    A = make()
    d, R, D = A.dim, _assoc_table(A), product_cochain(A).den
    assert D == den
    basis = [A.basis_vector(i) for i in range(d)]
    for i, j, k in iproduct(range(d), repeat=3):
        expect = _naive_associator(A, basis[i], basis[j], basis[k])
        row = R.get((i, j, k), {})
        assert tuple(Fraction(row.get(n, 0), D ** 2) for n in range(d)) == expect
    # rows are {n: int} in range, with no zero entry and no empty row stored
    assert all(r and all(0 <= n < d and x for n, x in r.items()) for r in R.values())
    rng = random.Random(97)
    for _ in range(8):
        x, y, z = (random_vector(rng, d, span=5) for _ in range(3))
        assert _associator(A, x, y, z) == _naive_associator(A, x, y, z)
    with pytest.raises(ValueError):
        _associator(A, x, y, z + (1,))


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


def _seeded_algebras():
    """The algebras of test_cubic_checker_matches_full_polarization_reference."""
    rng = random.Random(79)
    algebras = [make_j2(1, 0), make_spin((1, -2, 3)), make_non_jordan(), make_field()]
    return algebras + [random_commutative(rng, 1 + t % 4, (0.1, 0.25, 0.5, 1)[t // 4 % 4])
                       for t in range(64)]


def test_operator_checker_matches_polarization_reference():
    kinds = set()
    for A in _seeded_algebras():
        rep = check_operator_identity(A).to_json_dict()
        assert rep == reference_check_operator_identity(A).to_json_dict()
        kinds.add(None if rep["witness"] is None else len(rep["witness"]["inputs"]))
    assert kinds == {None, 2}


@pytest.mark.parametrize("entries, left", [
    # e0*e1 = -e2, e2*e2 = e2: A(e0, e1, e2) == A(e1, e0, e2) == -e2
    ([(0, 1, 2, -1), (1, 0, 2, -1), (2, 2, 2, 1)], ["0", "0", "-2"]),
    # e0*e2 = -e1, e1*e1 = -e1: A(e0, e1, e2) == 0, A(e1, e0, e2) == -e1
    ([(0, 2, 1, -1), (2, 0, 1, -1), (1, 1, 1, -1)], ["0", "-1", "0"]),
])
def test_operator_checker_polarized_witness(entries, left):
    # (x*x)*y == x*(x*y) at every basis pair; the polarization first fails
    # at (e0, e1, e2)
    A = algebra_from_entries(3, ("a", "b", "c"), entries)
    rep = check_operator_identity(A).to_json_dict()
    assert rep == reference_check_operator_identity(A).to_json_dict()
    assert rep == {"verdict": "fails", "witness": {
        "inputs": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "left": left, "right": ["0", "0", "0"],
        "note": "polarized operator identity at a basis triple"}}


def _checker_pin_doc(corpus_dir, monkeypatch):
    """The three checkers' reports and associators at seeded rational
    vectors, on the corpus, spin factors of dimension 5-7 and the seeded
    algebras, plus `symlie check` stdout on every corpus file."""
    out = {"reports": [], "associator": [], "check": []}
    paths = sorted(corpus_dir.glob("*.json"))
    algebras = [algebra_from_json_dict(json.loads(p.read_text())) for p in paths]
    q = [1, Fraction(-1, 2), 3, Fraction(5, 4)]
    algebras += [make_spin(q), make_spin(q + [2]), make_spin(q + [2, 7])]
    algebras += _seeded_algebras()
    rng = random.Random(83)
    for A in algebras:
        out["reports"].append([check(A).to_json_dict() for check in
                               (check_cubic_jordan, check_six_term, check_operator_identity)])
        for _ in range(3):
            x, y, z = ([Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(A.dim)]
                       for _ in range(3))
            out["associator"].append(vec_to_strs(_associator(A, x, y, z)))
    # stdout names the file as given: a bare name keeps the pin independent of the checkout
    monkeypatch.chdir(corpus_dir)
    for p in paths:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert run(["check", p.name]) == 0
        out["check"].append(buf.getvalue())
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


# sha256 of _checker_pin_doc(), recorded while the checkers still walked
# Fraction products: moving them onto one integer table must not move a byte
CHECKER_SHA256 = "6feb75716dac90bd42108c9355676812362708c530cd4c873dfc13388515d01e"


def test_checker_reports_pinned(corpus_dir, monkeypatch):
    doc = _checker_pin_doc(corpus_dir, monkeypatch)
    assert hashlib.sha256(doc.encode()).hexdigest() == CHECKER_SHA256


def test_product_cochain_matches_product():
    rng = random.Random(79)
    A = random_commutative(rng, 3)
    for _ in range(10):  # naive_product reads product_cochain's values at basis pairs
        x, y = random_vector(rng, 3), random_vector(rng, 3)
        assert product(A, x, y) == naive_product(A, x, y)


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


# (document, its refusal); a callable stands for a constructor call instead
MALFORMED = [
    ({"dim": 2, "labels": ["a"], "sc": []}, "need one label per basis element"),
    ({"dim": 0, "labels": [], "sc": []}, "algebra dimension must be >= 1"),
    ({"dim": 2, "labels": ["a", "b"], "sc": [{"i": 0, "j": 0, "k": 5, "c": "1"}]},
     "structure constant index out of range: (0, 0, 5)"),
    ({"dim": 2, "labels": ["a", "b"], "sc": [{"i": 0, "j": 0, "c": "1"}]},
     "bad structure constant entry: 'k'"),
    ({"dim": 2, "labels": ["a", "b"],
      "sc": [{"i": 0, "j": 0, "k": 0, "c": "1"}, {"i": 0, "j": 0, "k": 0, "c": "1"}]},
     "duplicate structure constant entry (0,0,0)"),
    ([2, ["a", "b"], []], "algebra document must be an object"),
    ({"dim": 2, "labels": ["a", "b"]}, "algebra document missing field: 'sc'"),
    ({"dim": 2, "labels": ["a", "b"], "sc": {"i": 0, "j": 0, "k": 0, "c": "1"}},
     "sc must be a list"),
    ({"dim": 2, "labels": ["a", "b"], "sc": [[0, 0, 0, "1"]]},
     "structure constant entry must be an object"),
    ({"dim": 2, "labels": ["a", "b"], "sc": ["i"]}, "structure constant entry must be an object"),
    (lambda: Algebra(2, "ab", [[(1, 0), (0, 1)], [(0, 1), (0,)]]),
     "structure constant vector has wrong length"),
]


@pytest.mark.parametrize("doc, message", MALFORMED, ids=[f"doc{i}" for i in range(5)] + [
    "not-an-object", "missing-field", "sc-not-a-list", "entry-a-list", "entry-a-string",
    "vector-of-wrong-length"])
def test_loader_rejects_malformed(doc, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        doc() if callable(doc) else algebra_from_json_dict(doc)


# e_2 * e_1 = e_0 and e_2 * e_0 = e_1, with nothing at (1,2) or (0,2): asymmetric at
# (2,1) and at (2,0), listed in that order.  The error names the first pair with
# i rising, then j < i rising, whatever the order of the entries.
ASYMMETRIC = [(2, 1, 0, 1), (2, 0, 1, 1)]


def test_commutativity_error_names_first_pair(capsys, tmp_path):
    table = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k, c in ASYMMETRIC:
        table[i][j][k] = c
    doc = {"dim": 3, "labels": ["a", "b", "c"],
           "sc": [{"i": i, "j": j, "k": k, "c": str(c)} for i, j, k, c in ASYMMETRIC]}
    message = "structure constants not commutative at (2,0)"
    for build in (lambda: Algebra(3, "abc", table),
                  lambda: algebra_from_entries(3, "abc", ASYMMETRIC),
                  lambda: algebra_from_json_dict(doc)):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message
    path = tmp_path / "asymmetric.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert not captured.out and message in captured.err


def test_entries_cancelling_to_zero_are_commutative():
    # (0,1) sums to zero and (1,0) is absent: both products are zero
    field_plus = algebra_from_entries(2, "ab", [(0, 0, 0, 1), (0, 1, 0, 1), (0, 1, 0, -1)])
    assert field_plus == algebra_from_entries(2, "ab", [(0, 0, 0, 1)])
    assert product_cochain(field_plus).value_at((1, 0)) == (0, 0)
    doc = {"dim": 2, "labels": ["a", "b"], "sc": [{"i": 0, "j": 1, "k": 0, "c": "0"}]}
    assert algebra_from_json_dict(doc) == algebra_from_entries(2, "ab", [])


@pytest.mark.parametrize("bad", [0.5, Fraction(1), "a"], ids=["float", "fraction", "str"])
def test_algebra_from_entries_refuses_non_int_indices(bad):
    # at each of i, j and k, even where the index equals an int
    for at in range(3):
        entry = [0, 1, 1]
        entry[at] = bad
        with pytest.raises(ValueError, match="structure constant index out of range"):
            algebra_from_entries(2, "ab", [(*entry, 1), (entry[1], entry[0], entry[2], 1)])


def test_constructors_agree():
    rng = random.Random(89)
    for t in range(24):
        d, fill = 1 + t % 4, (0, 0.3, 0.6, 1)[t // 4 % 4]
        labels = tuple(f"b{i}" for i in range(d))
        table = [[None] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                table[i][j] = table[j][i] = tuple(
                    Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < fill
                    else Fraction(0) for _ in range(d))
        A = Algebra(d, labels, table)
        entries = [(i, j, k, c) for i in range(d) for j in range(d)
                   for k, c in enumerate(table[i][j]) if c]
        rng.shuffle(entries)
        if entries:
            i, j, k, c = entries.pop(rng.randrange(len(entries)))
            entries.insert(rng.randrange(len(entries) + 1), (i, j, k, c - Fraction(1, 7)))
            entries.append((i, j, k, Fraction(1, 7)))
        B = algebra_from_entries(d, labels, entries)
        C = algebra_from_json_dict(json.loads(json.dumps(algebra_to_json_dict(A))))
        for X in (B, C):
            assert X == A and hash(X) == hash(A)
            assert all(product_cochain(X).value_at((i, j)) == table[i][j]
                       for i in range(d) for j in range(d))
            assert product_cochain(X) == product_cochain(A)
        assert product_cochain(A) is product_cochain(A)
        assert Algebra(d, ("z",) + labels[1:], table) != A
        changed = [list(row) for row in table]
        changed[0][0] = (changed[0][0][0] + 1,) + changed[0][0][1:]
        assert Algebra(d, labels, changed) != A


def test_construction_follows_the_entries():
    # a dense d x d x d table at d = 120 would be 1.7 million Fractions
    d = 120
    labels = [f"x{i}" for i in range(d)]
    docs = [{"dim": d, "labels": labels, "sc": []},
            {"dim": d, "labels": labels, "sc": [{"i": 0, "j": 0, "k": 0, "c": "1"},
                                                {"i": 3, "j": 119, "k": 7, "c": "-2/3"},
                                                {"i": 119, "j": 3, "k": 7, "c": "-2/3"}]}]
    for doc in docs:
        tracemalloc.start()
        try:
            A = algebra_from_json_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert algebra_to_json_dict(A) == doc


def _peak_of(build):
    """(the result of build(), or its ValueError, and tracemalloc's peak in bytes)."""
    tracemalloc.start()
    try:
        out = build()
    except ValueError as exc:
        out = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return out, peak


def test_loading_builds_no_vector_of_the_declared_dimension():
    # 500 entries on 250 pairs at dim 5000: d-long vectors per pair took 20 MB and
    # more, and a dim of 3 000 000 with one label allocated 72 MB before refusal
    d = 5000
    sc = [{"i": i, "j": j, "k": (7 * p) % d, "c": f"{2 * p + 1}/2"}
          for p in range(250) for i, j in ((2 * p, 2 * p + 1), (2 * p + 1, 2 * p))]
    wide = {"dim": d, "labels": [f"x{i}" for i in range(d)], "sc": sc}
    A, peak = _peak_of(lambda: algebra_from_json_dict(wide))
    assert peak < 4_000_000
    assert len(product_cochain(A).num) == 250 and algebra_to_json_dict(A)["sc"] == sorted(
        sc, key=lambda e: (e["i"], e["j"]))
    huge = {"dim": 3_000_000, "labels": ["a"], "sc": sc[:3]}
    exc, peak = _peak_of(lambda: algebra_from_json_dict(huge))
    assert peak < 2_000_000
    assert str(exc) == "need one label per basis element"
