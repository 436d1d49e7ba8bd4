import json
import random
from fractions import Fraction

from symlie import (algebra_from_json_dict, algebra_to_json_dict, check_cubic_jordan,
                    check_operator_identity, check_six_term, corpus_entries,
                    find_unit, make_j2, make_spin, product, product_cochain, write_corpus)


def test_entry_names_and_order():
    names = [e.name for e in corpus_entries()]
    assert names == ["j2_1_0", "j2_0_0", "j2_m1_2", "spin_1_1", "non_jordan", "field"]


def test_expected_verdicts_match_checkers():
    checkers = {"cubic": check_cubic_jordan, "operator": check_operator_identity,
                "six_term": check_six_term}
    for entry in corpus_entries():
        for key, expected in entry.expected.items():
            rep = checkers[key](entry.algebra)
            assert ("holds" if rep.holds else "fails") == expected, (entry.name, key)


def test_j2_structure_constants():
    A = product_cochain(make_j2(1, 0))
    assert A.value_at((1, 1)) == (Fraction(1), Fraction(0))
    for j in range(2):
        for k in range(2):
            assert A.value_at((0, j))[k] == (1 if j == k else 0)
    B = product_cochain(make_j2(0, 0))
    assert B.value_at((1, 1)) == (Fraction(0), Fraction(0))
    c0, c1 = product_cochain(make_j2(-1, 2)).value_at((1, 1))
    assert 4 * c0 + c1 ** 2 == 0  # degenerate discriminant


def test_spin_products():
    S = make_spin((1, 1))
    v1, v2 = S.basis_vector(1), S.basis_vector(2)
    e = S.basis_vector(0)
    assert product(S, v1, v1) == e
    assert product(S, v1, v2) == (Fraction(0),) * 3
    assert find_unit(S) == e


def test_spin_one_matches_j2_1_0():
    S = make_spin((1,))
    A = make_j2(1, 0)
    assert S.dim == A.dim == 2
    assert product_cochain(S) == product_cochain(A)


def test_j2_family_is_jordan_for_random_parameters():
    rng = random.Random(229)
    for _ in range(8):
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert check_cubic_jordan(make_j2(a, b)).holds


def test_shipped_files_round_trip_bit_exactly(tmp_path, corpus_dir):
    written = write_corpus(tmp_path)
    assert [p.name for p in written] == [e.name + ".json" for e in corpus_entries()]
    for entry, path in zip(corpus_entries(), written):
        text = path.read_text(encoding="utf-8")
        loaded = algebra_from_json_dict(json.loads(text))
        assert loaded == entry.algebra
        redumped = json.dumps(algebra_to_json_dict(loaded), indent=2, sort_keys=True) + "\n"
        assert redumped == text
        shipped = (corpus_dir / path.name).read_text(encoding="utf-8")
        assert shipped == text
