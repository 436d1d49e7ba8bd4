"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Everything is exact rational arithmetic, so every comparison is equality.
Criteria 2 and 3 check the paper's graded claims (the commutator is a
graded Lie bracket; d o d == (1/2) ad_{[mu,mu]}) against what the sign-free
unshuffle insertion provably satisfies: it is ungraded right pre-Lie, so
the graded identities hold or fail exactly where its associators say.  The
tests pin those verdicts, triple by triple and arity by arity, and
re-evaluate the counterexamples through the oracles.  The audit reports the
same facts as data (PRELIE, JACOBI, AD-SQUARED).
"""

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product as iproduct

from symlie import (Algebra, DeformationSeries, GaugeSeries, InsertionMode,
                    SymCochain, audit, audit_all, check_cubic_jordan,
                    check_d_squared, check_jacobi, check_prelie, check_six_term,
                    coboundary_c1_explicit, derivations, gauge_transport,
                    graded_bracket, insert, insert_lowdeg_variant, make_field,
                    make_j2, make_non_jordan, make_spin, mc_solve_step,
                    product_cochain, render_text)
from symlie.bracket import koszul_sign
from symlie.cochain import basis_cochains, coeff_vector, multisets
from symlie.complexes import differential_matrix

from oracles import (derivation_dimension, insertion_eval, left_nested_eval,
                     naive_evaluate, random_cochain, random_vector, reference_bracket,
                     reference_bracket_matrix, right_nested_eval, six_term_sum)

SUM = InsertionMode.SUM
PAPER = InsertionMode.PAPER
MODES = (SUM, PAPER)

CORPUS = [("j2_1_0", make_j2(1, 0)), ("j2_0_0", make_j2(0, 0)),
          ("j2_m1_2", make_j2(-1, 2)), ("spin_1_1", make_spin((1, 1))),
          ("non_jordan", make_non_jordan()), ("field", make_field())]


def _report(num: int, ok: bool, msg: str = ""):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'}"
    if msg:
        line += f"  [{msg}]"
    print(line)
    assert ok, line


def _random_commutative(rng, d):
    table = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            vec = tuple(Fraction(rng.randint(-2, 2)) for _ in range(d))
            table[i][j] = vec
            table[j][i] = vec
    return Algebra(d, tuple(f"b{i}" for i in range(d)), table)


def test_criterion_01_symmetry_closure():
    """100 randomized (algebra, f, g), d <= 3, arities <= 3, both modes:
    the insertion evaluates identically at all permutations of 20 random
    argument tuples."""
    rng = random.Random(1001)
    grid = [(d, m, n) for d in (1, 2, 3) for m in (1, 2, 3) for n in (0, 1, 2, 3)]
    cases = [grid[i % len(grid)] for i in range(100)]
    ok = True
    for d, m, n in cases:
        _ = _random_commutative(rng, d)  # the ambient algebra of the sample
        f = random_cochain(rng, m, d, sparsity=0.2)
        g = random_cochain(rng, n, d, sparsity=0.2)
        N = m + n - 1
        for mode in MODES:
            built = insert(f, g, mode)
            for _tuple in range(20):
                args = [random_vector(rng, d, span=1) for _ in range(N)]
                base = built.evaluate(args)
                for perm in permutations(range(N)):
                    if built.evaluate([args[p] for p in perm]) != base:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    _report(1, ok, "insertion symmetric at all argument permutations")


def _broken_summary(broken):
    """Failure message for a list of (check label, where) pairs."""
    counts = Counter(label for label, _ in broken)
    return (", ".join(f"{label} x{c}" for label, c in counts.items())
            + f"; first at {broken[0][1]}")


def _assoc(f, g, h, mode):
    """A(f,g,h) = (f o g) o h - f o (g o h)."""
    return insert(insert(f, g, mode), h, mode) - insert(f, insert(g, h, mode), mode)


def _graded_jacobiator(f, g, h, mode):
    """The cyclic sum check_jacobi compares with zero:
    (-1)^{|f||h|}[f,[g,h]] + (-1)^{|g||f|}[g,[h,f]] + (-1)^{|h||g|}[h,[f,g]]."""
    terms = [graded_bracket(x, graded_bracket(y, z, mode), mode).scale(
        koszul_sign(x.degree, z.degree))
        for x, y, z in ((f, g, h), (g, h, f), (h, f, g))]
    return terms[0] + terms[1] + terms[2]


def _jacobiator_from_associators(f, g, h, mode):
    """sum over cyclic (x,y,z) of (-1)^{arity x} (A(x,y,z) - (-1)^{|y||z|} A(x,z,y))."""
    terms = [(_assoc(x, y, z, mode)
              - _assoc(x, z, y, mode).scale(koszul_sign(y.degree, z.degree))
              ).scale((-1) ** x.n)
             for x, y, z in ((f, g, h), (g, h, f), (h, f, g))]
    return terms[0] + terms[1] + terms[2]


def test_criterion_02_sum_mode_prelie_and_jacobi():
    """50 random triples, arities <= 3, d <= 2, SUM mode, checked against
    the graded right pre-Lie identity (Lemma B.1) and graded Jacobi
    (Proposition B.1).

    The sign-free unshuffle sum is the symmetric brace, which is *ungraded*
    right pre-Lie: A(f,g,h) = (f o g) o h - f o (g o h) is symmetric in
    (g,h).  The graded form asks A(f,g,h) = (-1)^{|g||h|} A(f,h,g), so it
    fails exactly when g and h both have even arity and A(f,g,h) != 0.
    Expanding the brackets with the ungraded identity, the graded Jacobiator
    equals sum_cyc (-1)^{arity x} (A(x,y,z) - (-1)^{|y||z|} A(x,z,y)); it
    vanishes when at most one argument has even arity, not in general.
    Asserted on every triple:
      (a) A(f,g,h) == A(f,h,g);
      (b) check_prelie holds iff (-1)^{|g||h|} = +1 or A(f,g,h) == 0;
      (c) the Jacobiator equals that associator sum, and check_jacobi holds
          iff it is zero;
    and (d) the sample holds a failure of each graded identity, and
    f = g = h = mu on j2_1_0 fails graded pre-Lie with a witness that
    re-evaluates through the insertion oracle.  This refutes the claim that
    the commutator is a graded Lie bracket.
    """
    mode = SUM
    rng = random.Random(1002)
    broken = []
    prelie_fails = jacobi_fails = 0
    for _ in range(50):
        d = rng.randint(1, 2)
        arities = [rng.randint(1, 3) for _ in range(3)]
        f, g, h = (random_cochain(rng, a, d, sparsity=0.2) for a in arities)
        at = (d, tuple(arities))
        a_fgh = _assoc(f, g, h, mode)
        if a_fgh != _assoc(f, h, g, mode):
            broken.append(("(a) ungraded pre-Lie", at))
        prelie = check_prelie(f, g, h, mode).holds
        if prelie != (koszul_sign(g.degree, h.degree) == 1 or a_fgh.is_zero()):
            broken.append(("(b) pre-Lie verdict", at))
        jac = _graded_jacobiator(f, g, h, mode)
        if jac != _jacobiator_from_associators(f, g, h, mode):
            broken.append(("(c) Jacobiator vs associators", at))
        jacobi = check_jacobi(f, g, h, mode).holds
        if jacobi != jac.is_zero():
            broken.append(("(c) Jacobi verdict", at))
        prelie_fails += not prelie
        jacobi_fails += not jacobi
    if not (prelie_fails and jacobi_fails):
        broken.append(("(d) no failure in the sample", (prelie_fails, jacobi_fails)))

    # f = g = h = mu: |mu| = 1, so the graded form reads A = -A
    mu = product_cochain(make_j2(1, 0))
    rep = check_prelie(mu, mu, mu, mode)
    if rep.holds or rep.witness is None:
        broken.append(("(d) mu o mu counterexample", "graded pre-Lie holds"))
    else:
        w = rep.witness
        args = list(w.inputs)
        assoc = tuple(a - b for a, b in zip(left_nested_eval(mu, mu, mu, args),
                                            right_nested_eval(mu, mu, mu, args)))
        if not (any(assoc) and w.left == assoc
                and w.right == tuple(-c for c in assoc)):
            broken.append(("(d) mu o mu witness", w.inputs))

    ok = not broken
    msg = (f"ungraded pre-Lie holds on all 50 triples; graded pre-Lie fails on "
           f"{prelie_fails} and graded Jacobi on {jacobi_fails}, exactly where "
           f"the associators predict, so the commutator is not a graded Lie "
           f"bracket" if ok else
           _broken_summary(broken))
    _report(2, ok, msg)


def test_criterion_03_ad_squared_identity():
    """Every corpus algebra, SUM mode, arities 0..2, checked against
    d o d == (1/2) ad_{[mu,mu]} (Proposition 2.5 / Lemma B.2).  The
    "degree" of check_d_squared and of the AD-SQUARED record is the arity n
    of f; SymCochain.degree is n - 1.

    Expanding both sides with the ungraded pre-Lie identity gives, column
    by column, d(df) - (1/2)[[mu,mu],f] = -A(f,mu,mu) - (1+(-1)^n) A(mu,mu,f).
    At n = 1 inserting into f is composition, so A(f,mu,mu) = 0 and the
    sides agree; at n = 0 and 2 they differ, which refutes the claimed
    identity (and n = 3 differs too, so odd arity alone does not suffice).
    Asserted:
      (a) the difference of the two sides check_d_squared compares column by
          column, d_{n+1} d_n and the per-column reference (1/2)ad matrix, is
          the matrix of that associator expression;
      (b) the sides agree at arity 1 and differ at arities 0 and 2;
      (c) on j2_1_0 at arity 0 with v = e the insertion oracle gives
          d(dv) = mu and (1/2)[[mu,mu],v] = 3 mu, the columns check_d_squared
          reports;
      (d) each AD-SQUARED sum record reads degrees [1] with, [0, 2] without.
    """
    mode = SUM
    broken = []
    for name, A in CORPUS:
        mu = product_cochain(A)
        for n in (0, 1, 2):
            dd = differential_matrix(A, n + 1, mode).matrix.mul(
                differential_matrix(A, n, mode).matrix)
            half_ad = reference_bracket_matrix(reference_bracket(mu, mu, False), n, False,
                                               Fraction(1, 2))
            for j, (_, f) in enumerate(basis_cochains(A.dim, n)):
                expr = (_assoc(f, mu, mu, mode).scale(-1)
                        - _assoc(mu, mu, f, mode).scale(1 + (-1) ** n))
                diff = [a - b for a, b in zip(dd.column(j), half_ad.column(j))]
                if diff != coeff_vector(expr):
                    broken.append(("(a) d o d - (1/2)ad vs associators", (name, n, j)))
                    break
            if check_d_squared(A, n, mode).equal != (n == 1):
                broken.append(("(b) verdict", (name, n)))
        rec = audit(A, name).claim("AD-SQUARED", mode.value)
        if rec.verdict != "fails" or rec.detail != \
                "degrees with d∘d == (1/2)ad: [1]; degrees without: [0, 2]":
            broken.append(("(d) audit record", (name, rec.detail)))

    # v = e on j2_1_0.  Nothing inserts into a constant, so d v = mu o v and
    # d(dv) = mu o (mu o v) - (mu o v) o mu; [mu,mu] = 2 mu o mu, so
    # (1/2)[[mu,mu],v] = (mu o mu) o v.  Pointwise: x(yv) + y(xv) - (xy)v
    # against x(yv) + y(xv) + (xy)v.
    A = make_j2(1, 0)
    mu = product_cochain(A)
    v = SymCochain(0, 2, {(): (1, 0)})
    dd_col, ad_col = [], []
    for mset in multisets(2, 2):
        args = [A.basis_vector(i) for i in mset]
        dd = tuple(a - b for a, b in zip(right_nested_eval(mu, mu, v, args),
                                         left_nested_eval(mu, v, mu, args)))
        half_ad = left_nested_eval(mu, mu, v, args)
        prod = naive_evaluate(mu, args)
        if dd != prod or half_ad != tuple(3 * c for c in prod):
            broken.append(("(c) oracle witness", mset))
        dd_col.extend(dd)
        ad_col.extend(half_ad)
    w = check_d_squared(A, 0, mode).witness
    if w is None or (w.left, w.right) != (tuple(dd_col), tuple(ad_col)):
        broken.append(("(c) reported columns", w and (w.left, w.right)))

    ok = not broken
    msg = ("d o d - (1/2)ad == -A(f,mu,mu) - (1+(-1)^n) A(mu,mu,f) on the corpus: "
           "equal at arity 1, unequal at arities 0 and 2, so d o d == (1/2)ad "
           "fails; witness on j2_1_0, arity 0, v=e: d(dv) = mu, "
           "(1/2)[[mu,mu],v] = 3 mu" if ok else
           _broken_summary(broken))
    _report(3, ok, msg)


def test_criterion_04_oracle_equivalence():
    """Coefficient-level insertion equals the direct unshuffle-enumeration
    oracle at every ordered basis tuple; d = 2, arities <= 3, both modes."""
    rng = random.Random(1004)
    d = 2
    basis = [tuple(Fraction(1 if t == i else 0) for t in range(d)) for i in range(d)]
    ok = True
    for m in (1, 2, 3):
        for n in (0, 1, 2, 3):
            for _ in range(2):
                f = random_cochain(rng, m, d, sparsity=0.25)
                g = random_cochain(rng, n, d, sparsity=0.25)
                N = m + n - 1
                for mode in MODES:
                    built = insert(f, g, mode)
                    for idx in iproduct(range(d), repeat=N):
                        args = [basis[i] for i in idx]
                        if built.value_at(tuple(sorted(idx))) != \
                                insertion_eval(f, g, args, mode is PAPER):
                            ok = False
    _report(4, ok, "insertion matches the enumeration oracle at every basis tuple")


def test_criterion_05_jordan_checkers():
    """Cubic checker verdicts across the corpus, with the recorded witness
    for the non-Jordan control."""
    ok = all(check_cubic_jordan(A).holds
             for A in (make_j2(1, 0), make_j2(0, 0), make_j2(2, 3),
                       make_spin((1, 1)), make_field()))
    rep = check_cubic_jordan(make_non_jordan())
    v = (Fraction(1), Fraction(0))
    zero = (Fraction(0), Fraction(0))
    ok = ok and not rep.holds and rep.witness is not None
    ok = ok and rep.witness.inputs == (v, v)
    ok = ok and rep.witness.left == v and rep.witness.right == zero
    _report(5, ok, "five Jordan verdicts plus the non-Jordan witness (left=v, right=0)")


def test_criterion_06_six_term_vacuity():
    """The cyclic associator sum evaluates to zero on all basis triples for
    every commutative corpus algebra, including the non-Jordan control."""
    ok = True
    for name, A in CORPUS:
        basis = [A.basis_vector(i) for i in range(A.dim)]
        for idx in iproduct(range(A.dim), repeat=3):
            if any(six_term_sum(A, *(basis[i] for i in idx))):
                ok = False
        ok = ok and check_six_term(A).holds
    _report(6, ok, "cyclic associator sum vanishes identically on the corpus")


def test_criterion_07_derivations():
    """Derivation dimensions 0, 0, 1 verified against the independently
    hand-coded linear-system oracle committed to the test suite."""
    cases = [(make_j2(1, 0), 0), (make_field(), 0), (make_j2(-1, 2), 1)]
    ok = True
    for A, expected in cases:
        ok = ok and len(derivations(A)) == expected
        ok = ok and derivation_dimension(A) == expected
    _report(7, ok, "dimensions match the hand-coded system oracle")


def test_criterion_08_audit_on_j2_1_0():
    """The audit of j2(1,0) carries the required discrepancy records and is
    byte-stable across two consecutive runs."""
    A = make_j2(1, 0)
    rep1 = audit(A, "j2_1_0")
    rep2 = audit(A, "j2_1_0")
    ok = True

    mc = rep1.claim("MC-IFF-JORDAN", "sum")
    ok = ok and mc.verdict == "fails"
    ok = ok and {"multiset": [1, 1, 1], "k": 1, "value": "6"} in mc.witness["bracket_nonzero"]

    low = rep1.claim("LOWDEG-VARIANT", "paper")
    ok = ok and low.verdict == "fails"
    ok = ok and {"multiset": [1, 1, 1], "k": 1, "two_term": "1",
                 "averaged": "3/2"} in low.witness["mismatches"]

    s5 = rep1.claim("S5-COEFFS", None)
    ok = ok and s5.verdict == "fails"
    spots = [m["at"] for m in s5.witness["mismatches"]]
    ok = ok and all(at in spots for at in ("(e,e)", "(e,u)", "(u,u)"))

    blob1 = json.dumps(rep1.to_json_dict(), sort_keys=True, indent=2)
    blob2 = json.dumps(rep2.to_json_dict(), sort_keys=True, indent=2)
    ok = ok and blob1 == blob2 and render_text(rep1) == render_text(rep2)
    _report(8, ok, "discrepancy records present; report byte-stable")


def test_criterion_09_deformation_machinery():
    """Zero-product solvability matches the direct bracket computation over
    a 20-case sample; the identity gauge is the identity; the order-1 gauge
    term equals the printed coboundary for 50 random endomorphisms."""
    rng = random.Random(1009)
    ok = True

    Z = Algebra(2, ("e", "u"), [[(0, 0), (0, 0)], [(0, 0), (0, 0)]])
    seen = {True: 0, False: 0}
    for case in range(20):
        if case % 3 == 0:
            # nilpotent-style: phi(e,e) = c*u annihilated by phi, so the
            # self-bracket vanishes and the step is solvable
            c = Fraction(rng.randint(1, 3))
            phi = SymCochain(2, 2, {(0, 0): (Fraction(0), c)})
        else:
            phi = random_cochain(rng, 2, 2, sparsity=0.3)
        step = mc_solve_step(DeformationSeries(Z, 1, [phi]), 2)
        # direct bracket computation through the enumeration oracle
        basis = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
        bracket_zero = True
        for idx in iproduct(range(2), repeat=3):
            args = [basis[i] for i in idx]
            if any(insertion_eval(phi, phi, args, paper=False)):
                bracket_zero = False
                break
        ok = ok and step.solvable == bracket_zero
        seen[bracket_zero] += 1
    ok = ok and seen[True] > 0 and seen[False] > 0

    T = GaugeSeries(2, [SymCochain.zero(1, 2), SymCochain.zero(1, 2)])
    out = gauge_transport(T, make_j2(1, 0), 3)
    ok = ok and all(t.is_zero() for t in out.terms)

    count = 0
    for _, A in CORPUS:
        for _ in range(9):
            f1 = random_cochain(rng, 1, A.dim, sparsity=0.2)
            got = gauge_transport(GaugeSeries(1, [f1]), A, 1).terms[0]
            ok = ok and got == coboundary_c1_explicit(A, f1)
            count += 1
    ok = ok and count >= 50
    _report(9, ok, "solver matches direct brackets; gauge transport exact")


def test_criterion_10_discrepancy_records_stable_and_reevaluable():
    """The printed coefficient tables and the bracket-vs-cubic equivalence
    are not reproducible as stated; acceptance is the existence and
    stability of the corresponding audit records, every witness
    re-evaluating exactly."""
    A = make_j2(1, 0)
    mu = product_cochain(A)
    rep = audit(A, "j2_1_0")
    ok = True

    # Theorem record: jordan holds, bracket nonzero, witness values exact
    for mode_str, mode in (("sum", SUM), ("paper", PAPER)):
        rec = rep.claim("MC-IFF-JORDAN", mode_str)
        ok = ok and rec.verdict == "fails"
        br = graded_bracket(mu, mu, mode)
        ok = ok and check_cubic_jordan(A).holds and not br.is_zero()
        for item in rec.witness["bracket_nonzero"]:
            ok = ok and br.coeff(tuple(item["multiset"]), item["k"]) == \
                Fraction(item["value"])

    # printed coefficient rows: mismatch entries re-derive from the formulas
    rec = rep.claim("S5-COEFFS", None)
    ok = ok and rec.verdict == "fails"
    al, be, ga, de = Fraction(3), Fraction(-1), Fraction(2), Fraction(5)
    f = SymCochain(1, 2, {(0,): (al, be), (1,): (ga, de)})
    df = coboundary_c1_explicit(A, f)
    ok = ok and df.value_at((0, 0)) == (-al, -be)            # printed: 0
    ok = ok and df.value_at((0, 1)) == (-be, -al)            # printed: (0, -be)
    ok = ok and df.value_at((1, 1)) == (al - 2 * de, be - 2 * ga)
    printed_uu = (al - 2 * ga, be - 2 * al)
    ok = ok and df.value_at((1, 1)) != printed_uu

    # two-term vs averaged arity-2 composition at (u,u,u)
    rec = rep.claim("LOWDEG-VARIANT", "paper")
    ok = ok and rec.verdict == "fails"
    ok = ok and insert_lowdeg_variant(mu, mu).coeff((1, 1, 1), 1) == 1
    ok = ok and insert(mu, mu, PAPER).coeff((1, 1, 1), 1) == Fraction(3, 2)

    # stability across two full audit runs
    blob1 = json.dumps([r.to_json_dict() for r in audit_all()], sort_keys=True)
    blob2 = json.dumps([r.to_json_dict() for r in audit_all()], sort_keys=True)
    ok = ok and blob1 == blob2
    _report(10, ok, "discrepancy records stable; witnesses re-evaluate exactly")
