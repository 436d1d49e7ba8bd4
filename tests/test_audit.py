import contextlib
import hashlib
import importlib
import io
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from symlie import (Algebra, InsertionMode, algebra_from_entries, audit, audit_all,
                    check_cubic_jordan, check_jacobi, check_prelie, cli,
                    coboundary_c1_explicit, corpus_entries, derivations, endomorphism_cochain,
                    graded_bracket, insert, insert_lowdeg_variant, make_j2, make_non_jordan,
                    make_spin, multiplication_operator, product_cochain, render_text,
                    SymCochain)
from symlie import algebra as algebra_module
from symlie import bracket as bracket_module
from symlie import complexes as complexes_module
from symlie import exactla as exactla_module
from symlie.audit import CLAIM_CATALOG, LOCATION, _TRIPLES, _claim_sym_closure, _mu_pools
from symlie.exactla import vec_to_strs

from oracles import (d2_sanity_reference, insertion_eval, random_commutative,
                     random_rational_commutative, reference_insert, reference_jacobi_report,
                     reference_prelie_report, reference_sym_closure, sym_jordan)

ALL_IDS = [cid for cid, _ in CLAIM_CATALOG]
SUM = InsertionMode.SUM
PAPER = InsertionMode.PAPER


@pytest.fixture(scope="module")
def reports():
    return audit_all()


@pytest.fixture(scope="module")
def j2_report(reports):
    return reports[0]


def test_reports_cover_corpus_in_order(reports):
    assert [r.algebra for r in reports] == \
        ["j2_1_0", "j2_0_0", "j2_m1_2", "spin_1_1", "non_jordan", "field"]


def test_every_claim_id_present_in_every_report(reports):
    for rep in reports:
        ids = {rec.claim_id for rec in rep.claims}
        assert ids == set(ALL_IDS)
        for rec in rep.claims:
            assert rec.verdict in ("holds", "fails", "vacuous")
            assert rec.location


def test_mode_coverage(j2_report):
    for cid in ("SYM-CLOSURE", "PRELIE", "JACOBI", "MUMU-FORMULA",
                "MC-IFF-JORDAN", "AD-SQUARED", "D2-SANITY"):
        assert j2_report.claim(cid, "sum") is not None
        assert j2_report.claim(cid, "paper") is not None
    for cid in ("SIXTERM", "CUBIC-VS-OPERATOR", "S5-COEFFS", "S5-INNER"):
        assert j2_report.claim(cid, None) is not None
    assert j2_report.claim("LOWDEG-VARIANT", "paper") is not None


def test_sym_closure_holds_everywhere(reports):
    for rep in reports:
        for mode in ("sum", "paper"):
            assert rep.claim("SYM-CLOSURE", mode).verdict == "holds"


# SYM-CLOSURE pair label -> (f, g) pool names; their arity pairs differ, so
# each pair's insert call is told apart by (f.n, g.n)
_SYM_PAIRS = {"mu,mu": ("mu", "mu"), "mu,L0": ("mu", "L0"), "L0,mu": ("L0", "mu"),
              "mu,v0": ("mu", "v0"), "P,mu": ("P", "mu")}


@pytest.mark.parametrize("label", list(_SYM_PAIRS))
@pytest.mark.parametrize("mode", [SUM, PAPER], ids=["sum", "paper"])
def test_sym_closure_reports_a_changed_coefficient(monkeypatch, label, mode):
    # rational structure constants give mu a denominator; in paper mode the
    # pairs mu,mu, L0,mu and P,mu carry a prefactor 1/((m-1)! n!) != 1
    A = make_j2(Fraction(1, 2), Fraction(-3, 4))
    pools = _mu_pools(A)
    pool = pools[mode]
    f, g = (pool[name] for name in _SYM_PAIRS[label])
    N = f.n + g.n - 1
    target = (1,) if N == 1 else (0,) + (1,) * (N - 1)
    module = importlib.import_module("symlie.audit")
    real_insert = module.insert

    def tampered(a, b, m):
        built = real_insert(a, b, m)
        if (a.n, b.n) != (f.n, g.n):
            return built
        vec = built.value_at(target)
        return SymCochain(built.n, built.dim, {**built.coeffs, target: (vec[0] + 1, *vec[1:])})

    monkeypatch.setattr(module, "insert", tampered)
    # one walk gives both modes' records; this mode's is checked.  The walk reads
    # mu o mu from the pools, so they are built under the tampered insert
    rec = {r.mode: r for r in _claim_sym_closure(A, _mu_pools(A))}[mode.value]
    raw = insertion_eval(f, g, [A.basis_vector(i) for i in target], mode is PAPER)
    assert any(raw)
    assert (rec.verdict, rec.mode) == ("fails", mode.value)
    assert rec.witness == {"pair": label, "tuple": list(target), "raw": vec_to_strs(raw),
                           "stored": vec_to_strs((raw[0] + 1, *raw[1:]))}


def _tampered_insert(real_insert, arities, mset, k, delta):
    """`real_insert`, with delta added at coordinate k of the value at mset
    whenever the operands have the given arities."""
    def tampered(a, b, m=SUM):
        built = real_insert(a, b, m)
        if (a.n, b.n) != arities:
            return built
        vec = list(built.value_at(mset))
        vec[k] += delta
        return SymCochain(built.n, built.dim, {**built.coeffs, mset: tuple(vec)})
    return tampered


@pytest.mark.parametrize("seed", range(14))
def test_sym_closure_walk_matches_the_dense_walk(monkeypatch, seed):
    # spin and dense rational algebras of dimension 2-4; at each pair one value
    # of the built insertion is changed (sometimes to zero), and the walk over
    # the nonzeros must give the dense walk's records: pair, first tuple in
    # iproduct order, raw, stored, and on a pass the count of tuples
    rng = random.Random(seed)
    d = 2 + seed % 3
    A = (make_spin([Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)) for _ in range(d - 1)])
         if seed % 2 else random_rational_commutative(rng, d))
    pools = _mu_pools(A)
    module = importlib.import_module("symlie.audit")
    real_insert = module.insert
    assert ([r.to_json_dict() for r in _claim_sym_closure(A, pools)]
            == reference_sym_closure(A, pools, real_insert))
    for label in ("mu,mu", "mu,L0", "P,mu"):
        f, g = (pools[SUM][name] for name in _SYM_PAIRS[label])
        mset = tuple(sorted(rng.randrange(d) for _ in range(f.n + g.n - 1)))
        k = rng.randrange(d)
        value = real_insert(f, g, SUM).value_at(mset)[k]
        delta = (-value if value and rng.random() < 0.3
                 else Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3)))
        tampered = _tampered_insert(real_insert, (f.n, g.n), mset, k, delta)
        monkeypatch.setattr(module, "insert", tampered)
        tampered_pools = _mu_pools(A)  # the walk reads mu o mu from the pools
        records = [r.to_json_dict() for r in _claim_sym_closure(A, tampered_pools)]
        assert records == reference_sym_closure(A, tampered_pools, tampered)
        assert [(r["verdict"], r["witness"]["pair"]) for r in records] == [("fails", label)] * 2


def test_paper_pool_is_the_paper_insertion_and_bracket():
    # the paper pool scales P and B from the sum pool by one prefactor
    algebras = [entry.algebra for entry in corpus_entries()]
    algebras += [make_j2(Fraction(1, 2), Fraction(-3, 4)), make_spin([1, Fraction(-1, 2), 3]),
                 random_rational_commutative(random.Random(3), 3)]
    for A in algebras:
        mu = product_cochain(A)
        pool = _mu_pools(A)[PAPER]
        assert pool["P"] == insert(mu, mu, PAPER)
        assert pool["B"] == graded_bracket(mu, mu, PAPER)


def test_mumu_reads_the_bracket_in_both_modes(monkeypatch):
    # MUMU-FORMULA compares B, the [mu,mu] kept on the algebra and built by
    # graded_bracket, with 2P: a wrong bracket must show in both modes, since
    # the paper B is scaled from it
    module = importlib.import_module("symlie.complexes")
    real_bracket = module.graded_bracket

    def tampered(a, b, m=SUM):
        built = real_bracket(a, b, m)
        return built + SymCochain(built.n, built.dim,
                                  {(0,) * built.n: (1,) + (0,) * (built.dim - 1)})

    monkeypatch.setattr(module, "graded_bracket", tampered)
    report = audit(make_spin([1, Fraction(-1, 2)]))
    for mode in ("sum", "paper"):
        assert report.claim("MUMU-FORMULA", mode).detail.startswith(
            "[mu,mu] == 2 (mu o mu): false;"), mode


def test_mc_iff_jordan_fails_forward_on_unital_example(j2_report):
    rec = j2_report.claim("MC-IFF-JORDAN", "sum")
    assert rec.verdict == "fails"
    assert "forward" in rec.detail
    # the recorded bracket value at (u,u,u) is 6u
    entries = rec.witness["bracket_nonzero"]
    assert {"multiset": [1, 1, 1], "k": 1, "value": "6"} in entries
    # witness re-evaluates exactly
    A = make_j2(1, 0)
    mu = product_cochain(A)
    br = graded_bracket(mu, mu, SUM)
    for item in entries:
        assert br.coeff(tuple(item["multiset"]), item["k"]) == Fraction(item["value"])


def test_mc_iff_jordan_holds_on_non_jordan(reports):
    # cubic fails AND the bracket is nonzero: the biconditional holds there
    rec = reports[4].claim("MC-IFF-JORDAN", "sum")
    assert rec.verdict == "holds"


def test_lowdeg_variant_discrepancy(j2_report):
    rec = j2_report.claim("LOWDEG-VARIANT", "paper")
    assert rec.verdict == "fails"
    mm = rec.witness["mismatches"]
    assert {"multiset": [1, 1, 1], "k": 1, "two_term": "1", "averaged": "3/2"} in mm
    # re-evaluate
    mu = product_cochain(make_j2(1, 0))
    assert insert_lowdeg_variant(mu, mu).coeff((1, 1, 1), 1) == 1
    assert insert(mu, mu, PAPER).coeff((1, 1, 1), 1) == Fraction(3, 2)


def test_mumu_formula_fails_with_nonzero_bracket(j2_report):
    for mode in ("sum", "paper"):
        rec = j2_report.claim("MUMU-FORMULA", mode)
        assert rec.verdict == "fails"
        assert rec.witness["first_diff"]["printed"] == ["0", "0"]


def test_ad_squared_sum_mode_detail(j2_report):
    rec = j2_report.claim("AD-SQUARED", "sum")
    assert rec.verdict == "fails"
    assert "[1]" in rec.detail and "[0, 2]" in rec.detail


def test_d2_sanity_sum_holds_everywhere(reports):
    for rep in reports:
        assert rep.claim("D2-SANITY", "sum").verdict == "holds"


_D2_ALGEBRAS = [(e.name, e.algebra) for e in corpus_entries()] + [
    ("spin_1_2_m3", make_spin([1, 2, -3])), ("non_jordan_control", make_non_jordan()),
    # paper-mode witnesses past column 0: basis endomorphism ([1], k=0) on
    # a*a = b, and ([0], k=2) on the field c*c = c beside two null directions
    ("square_zero", algebra_from_entries(2, ("a", "b"), [(0, 0, 1, 1)])),
    ("field_x_null", algebra_from_entries(3, ("a", "b", "c"), [(2, 2, 2, 1)]))]


@pytest.mark.parametrize("name, A", _D2_ALGEBRAS, ids=[n for n, _ in _D2_ALGEBRAS])
@pytest.mark.parametrize("mode", [SUM, PAPER], ids=["sum", "paper"])
def test_d2_sanity_matches_per_cochain_reference(name, A, mode):
    rec = audit(A, name).claim("D2-SANITY", mode.value)
    assert (rec.verdict, rec.witness) == d2_sanity_reference(A, mode)


def test_prelie_jacobi_records_agree_with_checkers(j2_report):
    A = make_j2(1, 0)
    mu = product_cochain(A)
    for mode_str, mode in (("sum", SUM), ("paper", PAPER)):
        rec = j2_report.claim("PRELIE", mode_str)
        direct = check_prelie(mu, mu, mu, mode).holds
        assert (f"mu,mu,mu: {'holds' if direct else 'fails'}") in rec.detail
        rec = j2_report.claim("JACOBI", mode_str)
        direct = check_jacobi(mu, mu, mu, mode).holds
        assert (f"mu,mu,mu: {'holds' if direct else 'fails'}") in rec.detail
        # the arity (2,2,3) triple named in the record
        assert "mu,mu,P" in rec.detail


def _oracle_triple_record(A, mode, claim_id, oracle):
    """The PRELIE or JACOBI record rebuilt from the reference compositions:
    the audit's pool with P = mu o mu from reference_insert, and the report
    of each triple from the oracle."""
    mu, e0 = product_cochain(A), A.basis_vector(0)
    pool = {"mu": mu, "v0": SymCochain(0, A.dim, {(): e0}),
            "L0": endomorphism_cochain(multiplication_operator(A, e0)),
            "P": reference_insert(mu, mu, mode is PAPER)}
    verdicts, witness = [], None
    for label, a, b, c in _TRIPLES:
        rep = oracle(pool[a], pool[b], pool[c], mode is PAPER)
        verdicts.append(f"{label}: {'holds' if rep.holds else 'fails'}")
        if not rep.holds and witness is None:
            witness = {"triple": label, **rep.witness.to_json_dict()}
    return {"id": claim_id, "location": LOCATION[claim_id], "mode": mode.value,
            "verdict": "holds" if witness is None else "fails", "witness": witness,
            "detail": "; ".join(verdicts)}


@pytest.mark.parametrize("d, seed", [(2, 3), (2, 6), (3, 7), (3, 11)])
def test_triple_family_records_match_oracle_compositions_on_non_jordan_algebras(d, seed):
    A = random_commutative(random.Random(seed), d)
    assert not check_cubic_jordan(A).holds
    report = audit(A)
    failing = 0
    for mode in (SUM, PAPER):
        for claim_id, oracle in (("PRELIE", reference_prelie_report),
                                 ("JACOBI", reference_jacobi_report)):
            expected = _oracle_triple_record(A, mode, claim_id, oracle)
            assert report.claim(claim_id, mode.value).to_json_dict() == expected
            failing += expected["verdict"] == "fails"
    assert failing  # a failing witness is compared


def test_triple_families_insert_each_primitive_pair_once_per_audit(monkeypatch):
    """PRELIE and JACOBI in both modes compose through one memo per audit, so
    on a spin factor they make one SUM-mode insertion per pair of primitive
    forms (19), not one per nested composition (252); a second audit makes
    them again."""
    bracket = importlib.import_module("symlie.bracket")
    calls = []
    real = bracket.insert
    monkeypatch.setattr(bracket, "insert",
                        lambda f, g, *mode: calls.append(mode) or real(f, g, *mode))
    A = make_spin([1, 2, -3, 5])
    for _ in range(2):
        calls.clear()
        audit(A)
        assert 0 < len(calls) <= 20 and not any(calls)


def test_sixterm_vacuous_everywhere(reports):
    for rep in reports:
        assert rep.claim("SIXTERM", None).verdict == "vacuous"


def test_cubic_vs_operator_verdicts(reports):
    by_name = {r.algebra: r.claim("CUBIC-VS-OPERATOR", None) for r in reports}
    assert by_name["j2_1_0"].verdict == "holds"
    assert by_name["spin_1_1"].verdict == "fails"
    assert "operator identity fails on a Jordan algebra" in by_name["spin_1_1"].detail
    assert by_name["non_jordan"].verdict == "fails"


def test_s5_coeffs_mismatches(j2_report):
    rec = j2_report.claim("S5-COEFFS", None)
    assert rec.verdict == "fails"
    spots = [m["at"] for m in rec.witness["mismatches"]]
    for at in ("(e,e)", "(e,u)", "(u,u)"):
        assert at in spots
    # the computed (e,e) row is -f(e), printed as zero
    ee = next(m for m in rec.witness["mismatches"] if m["at"] == "(e,e)")
    assert ee["computed"] == ["-alpha", "-beta"]
    assert ee["printed"] == ["0", "0"]


def test_s5_coeffs_witness_reevaluates(j2_report):
    # freeze the (u,u) row against a numeric evaluation of the formula
    A = make_j2(1, 0)
    al, be, ga, de = Fraction(2), Fraction(-3), Fraction(5), Fraction(7)
    f = SymCochain(1, 2, {(0,): (al, be), (1,): (ga, de)})
    row = coboundary_c1_explicit(A, f).value_at((1, 1))
    # computed: (a alpha + b gamma - 2 a delta, a beta - b delta - 2 gamma)
    assert row == (al - 2 * de, be - 2 * ga)
    # printed claims (a alpha + b gamma - 2 gamma, a beta - 2 alpha - b delta)
    printed = (al - 2 * ga, be - 2 * al)
    assert row != printed


def test_s5_inner_only_on_quadratic_norm_member(reports):
    by_name = {r.algebra: r.claim("S5-INNER", None) for r in reports}
    assert by_name["j2_1_0"].verdict == "fails"
    assert by_name["j2_0_0"].verdict == "vacuous"
    assert by_name["spin_1_1"].verdict == "vacuous"
    w = by_name["j2_1_0"].witness
    assert w["derivation_defect_at_uu"] == ["-2", "0"]
    assert w["inner_candidate_at_e"] == ["1/2", "0"]


def test_s5_applicability_is_structural():
    # a j2 member built from a file-style dict is still recognized
    A = make_j2(4, -5)
    rep = audit(A, "custom")
    assert rep.claim("S5-COEFFS", None).verdict == "fails"
    assert rep.claim("S5-INNER", None).verdict == "vacuous"


def test_data_sections(reports):
    by_name = {r.algebra: r.data for r in reports}
    assert by_name["j2_m1_2"]["derivations_dim"] == 1
    assert by_name["j2_1_0"]["derivations_dim"] == 0
    assert by_name["field"]["derivations_dim"] == 0
    for data in by_name.values():
        assert set(data["h2"].keys()) == {"sum", "paper"}


def test_zero_product_algebra_all_claims_hold(reports):
    zero = Algebra(2, ("x", "y"), [[(0, 0), (0, 0)], [(0, 0), (0, 0)]])
    rep = audit(zero, "zero")
    assert not any(rec.verdict == "fails" for rec in rep.claims)


def test_reports_byte_stable():
    a = json.dumps([r.to_json_dict() for r in audit_all()], sort_keys=True, indent=2)
    b = json.dumps([r.to_json_dict() for r in audit_all()], sort_keys=True, indent=2)
    assert a == b
    ta = "\n".join(render_text(r) for r in audit_all())
    tb = "\n".join(render_text(r) for r in audit_all())
    assert ta == tb


def test_render_text_mentions_every_claim(j2_report):
    text = render_text(j2_report)
    for cid in ALL_IDS:
        assert cid in text
    assert "derivations_dim=0" in text


# sha256 of `symlie audit --all` stdout, recorded before S5-COEFFS and
# D2-SANITY were read off the engine's matrices: reports are data, and a
# refactor of how a claim is computed must not move a byte of them
AUDIT_ALL_SHA256 = "c256797bccb4782d80980aa7b8b51c4ee6e8748705cfccc26ac930919a5e96ca"


def test_audit_all_stdout_pinned():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run(["audit", "--all"]) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == AUDIT_ALL_SHA256


# sha256 of the canonical JSON of audit() on spin factors of dimension 4
# and 5, recorded while insertion was still a gather over output multisets:
# the corpus stops at dimension 2, where little of the scatter is exercised
@pytest.mark.parametrize("q, digest", [
    ([1, 2, -3], "295d4f49a5695fd8ff65da413815177419fb524e55afee1d47191d1bb0298b6e"),
    ([1, Fraction(-1, 2), 3, Fraction(5, 4)],
     "64b6ea31ce377419a160608e17b0318432091effc5d1d6991be31198c7324f0d"),
])
def test_spin_audit_pinned(q, digest):
    doc = json.dumps(audit(make_spin(q)).to_json_dict(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


# sha256 of the canonical JSON of audit() where the witnesses are not the
# corpus's: two dense rational non-Jordan algebras of dimension 3, whose
# d∘d, PRELIE and JACOBI witnesses carry rational entries, and a spin factor
# of dimension 6.  Recorded while SYM-CLOSURE still walked every ordered
# basis tuple and d∘d still located its witness on a difference matrix
@pytest.mark.parametrize("make, digest", [
    (lambda: random_rational_commutative(random.Random(0), 3),
     "e0bcc191a0e6b6807ac75acbf3470225e503f6dee97ecf8c4433a7eac3a354ae"),
    (lambda: random_rational_commutative(random.Random(1), 3),
     "471b58ffaf79ae2a78302b66976aa7ae28c275f2255efdfafc55cc981d342614"),
    (lambda: make_spin([1, Fraction(-1, 2), 3, Fraction(5, 4), 2]),
     "9a7681f3af4b16495ddeb1b9b6af750f44cab4315c3df5eb9ad389b147f6a0da"),
], ids=["dense3_seed0", "dense3_seed1", "spin6"])
def test_nontrivial_witness_audit_pinned(make, digest):
    doc = json.dumps(audit(make()).to_json_dict(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


# sha256 of the canonical JSON of audit() on Sym_3, the Jordan algebra of 3 x 3 symmetric
# rational matrices, recorded before operators kept their columns on the matrix.  Its SUM
# d_1 is the one audited dense operator with a kernel, so(3): the packed pass fails there
# and exact elimination, on d_1's columns, follows
SYM3_AUDIT_SHA256 = "0e51414ebf734b094f561f83d01e28aa810aee1cb0faf70f8128b3e90ce35f53"


def test_sym_jordan_audit_pinned():
    doc = json.dumps(audit(sym_jordan(3), "sym3").to_json_dict(), sort_keys=True,
                     separators=(",", ":"))
    assert hashlib.sha256(doc.encode()).hexdigest() == SYM3_AUDIT_SHA256


_S5_DETAIL = ("printed coboundary coefficient tables disagree with direct "
              "expansion of the printed formulas (generic endomorphism entries)")


@pytest.mark.parametrize("a, b, mismatches", [
    (2, -3, [
        {"at": "(e,e)", "computed": ["-alpha", "-beta"], "printed": ["0", "0"]},
        {"at": "(e,u)", "computed": ["-2*beta", "-alpha + 3*beta"], "printed": ["0", "-beta"]},
        {"at": "(u,u)", "computed": ["2*alpha - 3*gamma - 4*delta",
                                     "2*beta - 2*gamma + 3*delta"],
         "printed": ["2*alpha - 5*gamma", "-2*alpha + 2*beta + 3*delta"]},
        {"at": "(e,e,u)", "computed": ["2*x2 - y1", "x1 - 3*x2 - y2"],
         "printed": ["0", "x1"]}]),
    (Fraction(1, 2), 5, [
        {"at": "(e,e)", "computed": ["-alpha", "-beta"], "printed": ["0", "0"]},
        {"at": "(e,u)", "computed": ["-1/2*beta", "-alpha - 5*beta"], "printed": ["0", "-beta"]},
        {"at": "(u,u)", "computed": ["1/2*alpha + 5*gamma - delta",
                                     "1/2*beta - 2*gamma - 5*delta"],
         "printed": ["1/2*alpha + 3*gamma", "-2*alpha + 1/2*beta - 5*delta"]},
        {"at": "(e,e,u)", "computed": ["1/2*x2 - y1", "x1 + 5*x2 - y2"],
         "printed": ["0", "x1"]}]),
])
def test_s5_coeffs_records_pinned(a, b, mismatches):
    # the corpus has integer (a, b) only; these pin rational and non-unit
    # coefficients in the rendered linear forms
    rec = audit(make_j2(a, b), "x").claim("S5-COEFFS", None)
    assert rec.to_json_dict() == {
        "id": "S5-COEFFS", "location": "Section 5", "mode": None, "verdict": "fails",
        "witness": {"a": str(Fraction(a)), "b": str(Fraction(b)), "mismatches": mismatches},
        "detail": _S5_DETAIL}


def test_cold_audit_builds_the_associator_table_once(monkeypatch):
    # every identity stage reads the one table kept on the algebra; the
    # dense product loop is left to the operator matrices and the pair witnesses
    builds, muls = [], [0]
    real_table, real_mul = algebra_module._assoc_table, algebra_module._mul

    def table(A):
        if "assoc" not in A._ops:
            builds.append(A)
        return real_table(A)

    def mul(*args):
        muls[0] += 1
        return real_mul(*args)

    monkeypatch.setattr(algebra_module, "_assoc_table", table)
    monkeypatch.setattr(algebra_module, "_mul", mul)
    A = make_spin([1, Fraction(-1, 2), 3, Fraction(5, 4)])
    audit(A)
    assert builds == [A] and A._ops["assoc"] is real_table(A)
    assert muls[0] < 100


def test_cold_audit_builds_mumu_once_and_no_kernel_basis(monkeypatch):
    # the pool's B and (1/2)ad at every degree read one [mu,mu] kept on the
    # algebra, and derivations_dim is read off the rank of d_1, not a kernel
    A = make_spin([1, Fraction(-1, 2), 3, Fraction(5, 4)])
    mu, builds, kernels = product_cochain(A), [], []
    real_compose = bracket_module._compose

    def compose(f, g, mode, sign):
        if sign and f == mu and g == mu:
            builds.append(mode)
        return real_compose(f, g, mode, sign)

    def counting(real):
        def kernel_basis(*args):
            kernels.append(args)
            return real(*args)
        return kernel_basis

    monkeypatch.setattr(bracket_module, "_compose", compose)
    for module in (exactla_module, complexes_module):  # every module that binds it
        monkeypatch.setattr(module, "kernel_basis", counting(module.kernel_basis))
    audit(A)
    assert builds == [SUM] and kernels == []


def test_cold_audit_inserts_mu_into_mu_for_the_pool_and_the_memo(monkeypatch):
    # the only insertions of an arity-2 cochain into another are the pool's
    # mu o mu and the memo's one insertion of mu's primitive form into itself;
    # the L0 pool is mu o e_0, one insertion of the arity-0 e_0 into mu
    A = make_spin([1, Fraction(-1, 2), 3, Fraction(5, 4)])
    calls = []
    real_compose = bracket_module._compose

    def compose(f, g, mode, sign):
        calls.append((f.n, g.n, mode, sign))
        return real_compose(f, g, mode, sign)

    monkeypatch.setattr(bracket_module, "_compose", compose)
    audit(A)
    # besides the d o d scan's brackets [[mu,mu], e_j], one per column compared:
    # column 0 of each unequal (n, mode) and all 25 of SUM n = 1
    scan = Counter(c for c in calls if c[0] == 3 and c[3] == -1)
    assert scan == Counter([(3, 0, SUM, -1), (3, 2, SUM, -1)] + [
        (3, n, PAPER, -1) for n in range(3)] + [(3, 1, SUM, -1)] * 25)
    assert len(calls) - sum(scan.values()) == 26
    assert [c for c in calls if c[:2] == (2, 2) and not c[3]] == [(2, 2, SUM, 0)] * 2


def _seeded_spin(rng, d):
    return make_spin([Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 4]))
                      for _ in range(d - 1)])


def test_derivations_dim_is_the_kernel_dimension_of_d1():
    # rank-nullity on d_1 gives the count that derivations() spans
    rng = random.Random(26)
    algebras = [entry.algebra for entry in corpus_entries()]
    algebras += [_seeded_spin(rng, d) for d in (3, 4, 5)]
    algebras += [random_rational_commutative(rng, d) for d in (3, 4)]
    dims = []
    for A in algebras:
        dims.append(audit(A).data["derivations_dim"])
        assert dims[-1] == len(derivations(A)), A
    assert any(dims)
