import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symlie import (Algebra, DeformationSeries, GaugeSeries, InsertionMode,
                    SymCochain, coboundary_c1_explicit, coeff_vector, differential,
                    gauge_equiv_first_order, gauge_transport, gauge_transport_series,
                    graded_bracket, identity_cochain, make_field, make_j2,
                    make_non_jordan, make_spin, mc_order0, mc_residual,
                    mc_solve_chain, mc_solve_step, obstruction_class,
                    product_cochain)
from symlie import algebra_from_json_dict, bracket, deformation, differential_matrix
from symlie.deformation import class_modulo_image, series_from_json_list
from symlie.exactla import rank, solve

from oracles import (random_cochain, random_commutative, random_rational_commutative,
                     reference_class_modulo_image, reference_gauge_transport)

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import dense_doc  # the benchmark's seeded documents

SUM = InsertionMode.SUM
PAPER = InsertionMode.PAPER
CORPUS = [make_j2(1, 0), make_j2(0, 0), make_j2(-1, 2), make_spin((1, 1)),
          make_non_jordan(), make_field()]


def zero_product_algebra(d=2):
    return Algebra(d, tuple(f"z{i}" for i in range(d)),
                   [[(Fraction(0),) * d] * d] * d)


def nilpotent_phi(scale=1):
    # phi(e,e) = u, everything else 0: [phi, phi] = 0
    return SymCochain(2, 2, {(0, 0): (Fraction(0), Fraction(scale))})


def test_mc_order0_is_half_self_bracket():
    for A in CORPUS:
        mu = product_cochain(A)
        s = DeformationSeries(A, 0, [])
        assert mc_order0(s) == graded_bracket(mu, mu).scale(Fraction(1, 2))


def test_mc_order0_scales_the_kept_bracket_in_both_modes(monkeypatch):
    # both modes read the one SUM-mode [mu, mu] kept on the algebra: in paper
    # mode each insertion term of [mu, mu] carries 1/(1! 2!)
    rng = random.Random(5)
    for A in [make_j2(1, 0), make_j2(-1, 2), make_non_jordan()] + [
            random_rational_commutative(rng, d) for d in (2, 3)]:
        mu = product_cochain(A)
        expected = {mode: graded_bracket(mu, mu, mode).scale(Fraction(1, 2))
                    for mode in (SUM, PAPER)}
        builds = []
        real_compose = bracket._compose

        def compose(f, g, mode, sign):
            builds.append((f, g, mode, sign))
            return real_compose(f, g, mode, sign)

        with monkeypatch.context() as m:
            m.setattr(bracket, "_compose", compose)
            for mode in (PAPER, SUM, PAPER):
                assert mc_order0(DeformationSeries(A, 0, [], mode)) == expected[mode], mode
        assert builds == [(mu, mu, SUM, 1)]  # [mu, mu] = mu o mu + mu o mu, once


def test_mc_residual_zero_terms():
    A = make_j2(1, 0)
    s = DeformationSeries(A, 2, [SymCochain.zero(2, 2), SymCochain.zero(2, 2)])
    assert all(r.is_zero() for r in mc_residual(s, 4))


def test_mc_residual_phi1_equals_mu():
    A = make_j2(1, 0)
    mu = product_cochain(A)
    s = DeformationSeries(A, 1, [mu])
    res = mc_residual(s, 2)
    # R1 = d mu = [mu, mu]
    assert res[0] == graded_bracket(mu, mu)
    # R2 = (1/2)[mu, mu] since phi_2 = 0
    assert res[1] == graded_bracket(mu, mu).scale(Fraction(1, 2))


def test_mc_residual_zero_base():
    rng = random.Random(181)
    Z = zero_product_algebra()
    phi = random_cochain(rng, 2, 2)
    s = DeformationSeries(Z, 1, [phi])
    res = mc_residual(s, 2)
    assert res[0].is_zero()
    assert res[1] == graded_bracket(phi, phi).scale(Fraction(1, 2))


def test_mc_residual_range_check():
    s = DeformationSeries(make_j2(1, 0), 1, [SymCochain.zero(2, 2)])
    with pytest.raises(ValueError):
        mc_residual(s, 3)


def test_mc_solve_step_order_one_gives_zero():
    A = make_j2(1, 0)
    s = DeformationSeries(A, 0, [])
    step = mc_solve_step(s, 1)
    assert step.solvable and step.solution.is_zero()


def test_mc_solve_step_phi1_zero_gives_phi2_zero():
    A = make_j2(1, 0)
    s = DeformationSeries(A, 1, [SymCochain.zero(2, 2)])
    step = mc_solve_step(s, 2)
    assert step.solvable and step.solution.is_zero()


def test_mc_solve_step_zero_base_obstruction():
    rng = random.Random(191)
    Z = zero_product_algebra()
    seen_obstructed = False
    for _ in range(20):
        phi = random_cochain(rng, 2, 2, sparsity=0.3)
        s = DeformationSeries(Z, 1, [phi])
        step = mc_solve_step(s, 2)
        br = graded_bracket(phi, phi)
        assert step.solvable == br.is_zero()
        if not step.solvable:
            seen_obstructed = True
            assert step.obstruction.representative == br.scale(Fraction(1, 2))
            assert not step.obstruction.in_image
    phi = nilpotent_phi()
    assert mc_solve_step(DeformationSeries(Z, 1, [phi]), 2).solvable
    assert seen_obstructed


def test_solved_chain_residuals_vanish():
    A = make_j2(1, 0)
    s, failed = mc_solve_chain(A, SymCochain.zero(2, 2), 4)
    assert failed is None
    assert all(r.is_zero() for r in mc_residual(s, 4))
    Z = zero_product_algebra()
    s, failed = mc_solve_chain(Z, nilpotent_phi(), 3)
    assert failed is None
    assert all(r.is_zero() for r in mc_residual(s, 3))


def test_obstruction_class_zero_phi():
    A = make_j2(1, 0)
    oc = obstruction_class(A, SymCochain.zero(2, 2))
    assert oc.in_image
    assert oc.representative.is_zero()
    assert all(x == 0 for x in oc.quotient_coords)


def test_obstruction_class_zero_base_coords():
    rng = random.Random(193)
    Z = zero_product_algebra()
    phi = random_cochain(rng, 2, 2)
    oc = obstruction_class(Z, phi)
    r = graded_bracket(phi, phi).scale(Fraction(-1, 2))
    assert oc.in_image == r.is_zero()
    assert list(oc.quotient_coords) == coeff_vector(r)


def test_obstruction_in_image_agrees_with_direct_solve():
    rng = random.Random(197)
    A = make_j2(1, 0)
    from symlie import differential_matrix
    D = differential_matrix(A, 2, SUM).matrix
    for _ in range(10):
        f = random_cochain(rng, 1, 2)
        phi1 = coboundary_c1_explicit(A, f)
        oc = obstruction_class(A, phi1)
        r = graded_bracket(phi1, phi1).scale(Fraction(-1, 2))
        assert oc.in_image == (solve(D, coeff_vector(r)) is not None)


def test_class_matches_reference_algorithm():
    # random r, r = d_2 x (in the image, all-zero class) and r = 0, in both modes;
    # the dense rational algebra gives the pivot rule and the reduction of r
    # against pivot rows with large entries work
    rng = random.Random(229)
    for make, d in ((random_commutative, 1), (random_commutative, 2), (random_commutative, 3),
                    (random_rational_commutative, 3)):
        A = make(rng, d)
        residuals, engine = {}, {}  # by paper, the reference's keys
        for mode in (SUM, PAPER):
            image = differential(A, random_cochain(rng, 2, d), mode)
            rs = [random_cochain(rng, 3, d, sparsity=0.5), image, SymCochain.zero(3, d)]
            classes = [class_modulo_image(A, r, mode) for r in rs]
            assert [oc.representative for oc in classes] == rs
            assert classes[1].in_image and not any(classes[1].quotient_coords)
            residuals[mode is PAPER] = rs
            engine[mode is PAPER] = [(oc.in_image, oc.quotient_coords) for oc in classes]
        assert engine == reference_class_modulo_image(A, residuals), d


def _doc_algebra(make, seed, *args):
    return algebra_from_json_dict(make(random.Random(seed), *args))


CLASS_ALGEBRAS = {
    "dense_d3_fill20_seed1": _doc_algebra(dense_doc, 1, 3, 0.2),
    "dense_d3_fill20_seed2": _doc_algebra(dense_doc, 2, 3, 0.2),
    "zero_product": zero_product_algebra(3),
    "spin_d3": make_spin([1, Fraction(-1, 2)]),
    "spin_d4": make_spin([1, Fraction(-1, 2), 3]),
    "spin_d5": make_spin([1, Fraction(-1, 2), 3, Fraction(5, 4)]),
    "dense_d4": _doc_algebra(dense_doc, 0, 4),
}


def test_class_algebras_include_rank_deficient_d2():
    for name, r in (("dense_d3_fill20_seed1", 17), ("dense_d3_fill20_seed2", 16)):
        for mode in (SUM, PAPER):
            D = differential_matrix(CLASS_ALGEBRAS[name], 2, mode).matrix
            assert (D.cols, rank(D)) == (18, r)


@pytest.mark.parametrize("name", CLASS_ALGEBRAS)
def test_class_matches_reference_on_rank_deficient_and_larger_algebras(name):
    # the reference's class of a random r fixes the complement's size, so the
    # classes of r = d_2 x and r = 0 are checked as that many zeros
    A = CLASS_ALGEBRAS[name]
    rng = random.Random(241)
    residuals, engine = {}, {}  # by paper, the reference's keys
    for mode in (SUM, PAPER):
        r = random_cochain(rng, 3, A.dim, sparsity=0.5)
        rs = [r, differential(A, random_cochain(rng, 2, A.dim), mode), SymCochain.zero(3, A.dim)]
        classes = [class_modulo_image(A, x, mode) for x in rs]
        assert [oc.representative for oc in classes] == rs
        residuals[mode is PAPER] = [r]
        engine[mode is PAPER] = [(oc.in_image, oc.quotient_coords) for oc in classes]
    reference = reference_class_modulo_image(A, residuals)  # one complement for both modes
    for paper, [(in_image, quotient)] in reference.items():
        assert not in_image
        zero = (True, (Fraction(0),) * len(quotient))
        assert engine[paper] == [(in_image, quotient), zero, zero], paper


@settings(max_examples=30)
@given(st.sampled_from(sorted(CLASS_ALGEBRAS)), st.sampled_from([SUM, PAPER]),
       st.integers(0, 2 ** 32))
def test_class_is_constant_on_cosets_of_the_image(name, mode, seed):
    # class(r + d_2 x) == class(r): the class reads r modulo im d_2
    A, rng = CLASS_ALGEBRAS[name], random.Random(seed)
    r = random_cochain(rng, 3, A.dim, sparsity=rng.choice([0.0, 0.5, 0.9]))
    dx = differential(A, random_cochain(rng, 2, A.dim, span=rng.choice([1, 5])), mode)
    oc, moved = class_modulo_image(A, r, mode), class_modulo_image(A, r + dx, mode)
    assert (moved.in_image, moved.quotient_coords) == (oc.in_image, oc.quotient_coords)


def test_class_is_one_elimination(monkeypatch):
    # one forward elimination of the C rows of d_2^T, whose columns are the R
    # coordinates, and no solve
    calls = {"_eliminate": 0, "solve": 0}
    shapes = []

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def eliminate(rows, reduced):
        shapes.append((len(rows), max((max(r) for r in rows if r), default=-1), reduced))
        return real_eliminate(rows, reduced)

    real_eliminate = deformation._eliminate
    monkeypatch.setattr(deformation, "_eliminate", counted("_eliminate", eliminate))
    monkeypatch.setattr(deformation, "solve", counted("solve", deformation.solve))
    rng = random.Random(233)
    n = 0
    for A in CORPUS + [CLASS_ALGEBRAS["spin_d4"]]:
        for mode in (SUM, PAPER):
            class_modulo_image(A, random_cochain(rng, 3, A.dim), mode)
            n += 1
            assert calls == {"_eliminate": n, "solve": 0}
            D = differential_matrix(A, 2, mode).matrix
            rows, last, reduced = shapes[-1]
            assert rows == D.cols and last < D.rows and not reduced


def test_class_rejects_residuals_of_the_wrong_shape():
    A = make_j2(1, 0)
    with pytest.raises(ValueError, match="arity-3 cochain"):
        class_modulo_image(A, SymCochain.zero(2, 2), SUM)
    with pytest.raises(ValueError, match="arity-3 cochain"):
        class_modulo_image(A, SymCochain.zero(3, 3), SUM)
    # on a one-dimensional algebra an arity-2 cochain has as many
    # coordinates as an arity-3 one, so only the shape check can refuse it
    with pytest.raises(ValueError, match="arity-3 cochain"):
        class_modulo_image(make_field(), SymCochain(2, 1, {(0, 0): (1,)}), SUM)


def test_gauge_identity_series_is_identity():
    A = make_j2(1, 0)
    T = GaugeSeries(2, [SymCochain.zero(1, 2), SymCochain.zero(1, 2)])
    out = gauge_transport(T, A, 3)
    assert all(t.is_zero() for t in out.terms)


def test_gauge_first_order_term_is_printed_coboundary():
    rng = random.Random(199)
    checked = 0
    for A in CORPUS:
        for _ in range(9):
            f1 = random_cochain(rng, 1, A.dim, sparsity=0.2)
            out = gauge_transport(GaugeSeries(1, [f1]), A, 2)
            assert out.terms[0] == coboundary_c1_explicit(A, f1)
            checked += 1
    assert checked >= 50


def test_gauge_identity_endomorphism_gives_minus_mu():
    A = make_j2(1, 0)
    out = gauge_transport(GaugeSeries(1, [identity_cochain(2)]), A, 1)
    assert out.terms[0] == -product_cochain(A)


def _commute(f, g):
    """Whether the arity-1 cochains f and g commute as endomorphisms."""
    return all(f.evaluate((g.value_at((j,)),)) == g.evaluate((f.value_at((j,)),))
               for j in range(f.dim))


def test_gauge_roundtrip_restores_series():
    rng = random.Random(211)
    T = GaugeSeries(2, [random_cochain(rng, 1, 2), random_cochain(rng, 1, 2)])
    s0 = DeformationSeries(make_j2(0, 0), 3, [random_cochain(rng, 2, 2) for _ in range(3)])
    cases = [(T, s0, 3)]
    # f_1 f_2 != f_2 f_1, so exp(-X) differs from exp(-t f_1) exp(-t^2 f_2) from t^3 on
    T = GaugeSeries(2, [random_cochain(rng, 1, 3), random_cochain(rng, 1, 3)])
    assert not _commute(*T.terms)
    s0 = DeformationSeries(make_spin((1, 1)), 4, [random_cochain(rng, 2, 3) for _ in range(4)])
    cases.append((T, s0, 4))
    for T, s0, N in cases:
        s1 = gauge_transport_series(T, s0, N)
        s2 = gauge_transport_series(GaugeSeries(T.order, [-t for t in T.terms]), s1, N)
        assert s2.terms == s0.terms


# (dim, gauge order, series order, N, mode): gauge orders above and below N,
# series longer and shorter than N, and both modes of the series
_TRANSPORT_PIN_CASES = [(2, 2, 3, 5, SUM), (2, 3, 1, 2, PAPER), (3, 3, 2, 4, SUM),
                        (3, 2, 4, 3, PAPER), (4, 2, 2, 3, SUM), (4, 3, 3, 4, PAPER)]


def _transport_pin_doc():
    """gauge_transport_series on seeded dense rational algebras and nonzero
    deformation series, with gauge terms f_1, f_2 that do not commute."""
    rng = random.Random(307)
    out = []
    for d, k, m, N, mode in _TRANSPORT_PIN_CASES:
        A = random_rational_commutative(rng, d)
        T = GaugeSeries(k, [random_cochain(rng, 1, d) for _ in range(k)])
        assert not _commute(*T.terms[:2])
        s = DeformationSeries(A, m, [random_cochain(rng, 2, d, sparsity=0.5)
                                     for _ in range(m)], mode)
        moved = gauge_transport_series(T, s, N)
        out.append({"mode": moved.mode.value, "order": moved.order,
                    "terms": moved.to_json_list()})
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


# sha256 of _transport_pin_doc(), recorded while the transport still
# conjugated by dense matrix exponentials exp(X) and exp(-X)
TRANSPORT_SHA256 = "0ac9d27d0fc1e64ce9f457c8cdf82c2916d9cfb3f21846a57a3f2fd1275eab55"


def test_gauge_transport_series_pinned():
    assert hashlib.sha256(_transport_pin_doc().encode()).hexdigest() == TRANSPORT_SHA256


def test_gauge_transport_matches_direct_conjugation():
    # dense exp(X) and exp(-X) around naive evaluations, against exp(ad_X);
    # conjugation does not depend on the series' mode
    rng = random.Random(241)
    non_commuting = 0
    for d, k, m, N, mode in [(1, 2, 2, 3, SUM), (2, 2, 0, 4, PAPER), (2, 3, 2, 3, PAPER),
                             (3, 2, 3, 4, SUM), (3, 3, 1, 2, PAPER), (3, 1, 2, 3, SUM)]:
        A = random_rational_commutative(rng, d)
        T = GaugeSeries(k, [random_cochain(rng, 1, d, sparsity=0.2) for _ in range(k)])
        non_commuting += k > 1 and not _commute(*T.terms[:2])
        terms = [random_cochain(rng, 2, d, sparsity=0.4) for _ in range(m)]
        moved = gauge_transport_series(T, DeformationSeries(A, m, terms, mode), N)
        assert [product_cochain(A).coeffs] + [t.coeffs for t in moved.terms] == \
            reference_gauge_transport(A, T.terms, terms, N), (d, k, m, N)
    assert non_commuting >= 3


@pytest.mark.parametrize("N, zero_at", [(1, None), (1, 0), (3, 1), (3, 2)])
def test_gauge_transport_at_order_one_and_with_zero_terms(N, zero_at):
    # N = 1 reads f_1 alone; a zero gauge term has a zero operator, whose
    # products are empty vectors; against direct conjugation
    rng = random.Random(251 + N)
    A = random_rational_commutative(rng, 3)
    gauge = [random_cochain(rng, 1, 3, sparsity=0.2) for _ in range(3)]
    if zero_at is not None:
        gauge[zero_at] = SymCochain.zero(1, 3)
    terms = [random_cochain(rng, 2, 3, sparsity=0.4) for _ in range(2)]
    moved = gauge_transport_series(GaugeSeries(3, gauge), DeformationSeries(A, 2, terms), N)
    assert [product_cochain(A).coeffs] + [t.coeffs for t in moved.terms] == \
        reference_gauge_transport(A, gauge, terms, N)


def test_gauge_transport_builds_one_operator_per_term_read(monkeypatch):
    # with T.order = 3 and N = 2, f_3 is never read: one SUM-mode operator each
    # for f_1 and f_2, applied as integer products, and no bracket composed
    calls = {"_compose": 0, "_bracket_matrices": 0}
    for module, name in ((bracket, "_compose"), (deformation, "_bracket_matrices")):
        def counting(*args, _call=getattr(module, name), _name=name):
            calls[_name] += 1
            return _call(*args)
        monkeypatch.setattr(module, name, counting)
    rng = random.Random(263)
    A = random_rational_commutative(rng, 3)
    T = GaugeSeries(3, [random_cochain(rng, 1, 3) for _ in range(3)])
    moved = gauge_transport(T, A, 2)
    assert calls == {"_compose": 0, "_bracket_matrices": 2}
    assert [product_cochain(A).coeffs] + [t.coeffs for t in moved.terms] == \
        reference_gauge_transport(A, T.terms, [], 2)


def test_gauge_transport_checks_the_gauge_dimension():
    A = make_j2(1, 0)
    with pytest.raises(ValueError, match="^gauge series has dimension 3, "
                                         "but the algebra has dimension 2$"):
        gauge_transport(GaugeSeries(1, [identity_cochain(3)]), A, 2)
    # the empty series has no dimension of its own, and moves nothing
    s = DeformationSeries(A, 2, [nilpotent_phi(), SymCochain.zero(2, 2)])
    assert gauge_transport_series(GaugeSeries(0, []), s, 3).terms == \
        s.terms + [SymCochain.zero(2, 2)]


@pytest.mark.parametrize("N", [0, -1])
def test_gauge_transport_refuses_orders_below_one(N):
    A, T = make_j2(1, 0), GaugeSeries(1, [identity_cochain(2)])
    for transport in (lambda: gauge_transport(T, A, N),
                      lambda: gauge_transport_series(T, DeformationSeries(A, 0, []), N)):
        with pytest.raises(ValueError, match="^transport order must be >= 1$"):
            transport()


def test_gauge_equiv_first_order():
    rng = random.Random(223)
    A = make_j2(1, 0)
    phi = random_cochain(rng, 2, 2)
    assert gauge_equiv_first_order(A, phi, phi).is_zero()
    g = random_cochain(rng, 1, 2)
    phi2 = phi + coboundary_c1_explicit(A, g)
    f = gauge_equiv_first_order(A, phi, phi2)
    assert f is not None
    assert coboundary_c1_explicit(A, f) == phi2 - phi


def test_gauge_equiv_detects_non_equivalence():
    # image of the arity-1 coboundary has rank 4 < 6, so some direction
    # is not reachable; find the first basis cochain outside the image
    A = make_j2(1, 0)
    from symlie.cochain import basis_cochains
    phi = SymCochain.zero(2, 2)
    found = False
    for _, cand in basis_cochains(2, 2):
        if gauge_equiv_first_order(A, phi, cand) is None:
            found = True
            break
    assert found


def test_series_json_round_trip():
    rng = random.Random(227)
    terms = [random_cochain(rng, 2, 2) for _ in range(3)]
    s = DeformationSeries(make_j2(1, 0), 3, terms)
    raw = json.loads(json.dumps(s.to_json_list()))
    assert series_from_json_list(raw, arity=2) == terms
    g = GaugeSeries(2, [random_cochain(rng, 1, 2), random_cochain(rng, 1, 2)])
    raw = json.loads(json.dumps(g.to_json_list()))
    assert series_from_json_list(raw, arity=1) == g.terms


def test_series_json_rejects_bad_input():
    with pytest.raises(ValueError):
        series_from_json_list([{"n": 1, "dim": 2, "coeffs": []}], arity=1)  # no order
    with pytest.raises(ValueError):
        series_from_json_list([], arity=1)
    doc = dict(SymCochain.zero(2, 2).to_json_dict(), order=1)
    with pytest.raises(ValueError):
        series_from_json_list([doc, doc], arity=2)  # duplicate order
    with pytest.raises(ValueError):
        series_from_json_list([doc], arity=1)  # wrong arity


def test_series_shape_validation():
    A = make_j2(1, 0)
    with pytest.raises(ValueError):
        DeformationSeries(A, 1, [SymCochain.zero(1, 2)])
    with pytest.raises(ValueError):
        GaugeSeries(1, [SymCochain.zero(2, 2)])


def test_series_terms_share_one_dimension():
    # a dim-2 term at order 1 and a dim-3 term at order 2 used to load, and
    # gauge transport then failed inside a matrix sum
    raw = [dict(identity_cochain(2).to_json_dict(), order=1),
           dict(identity_cochain(3).to_json_dict(), order=2)]
    with pytest.raises(ValueError, match="^series term at order 2 has dimension 3, "
                                         "but the term at order 1 has dimension 2$"):
        series_from_json_list(raw, arity=1)
    with pytest.raises(ValueError, match="^series term at order 1 has dimension 2, "
                                         "but the term at order 2 has dimension 3$"):
        series_from_json_list(raw[::-1], arity=1)
    with pytest.raises(ValueError, match="^gauge term at order 2 has dimension 3, "
                                         "but the term at order 1 has dimension 2$"):
        GaugeSeries(2, [identity_cochain(2), identity_cochain(3)])
