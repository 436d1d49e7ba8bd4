"""Mechanical verification of the claim catalog.

Each built-in algebra is run against every claim in the catalog, in both
insertion normalizations where the claim involves the insertion.  Verdicts
are three-valued:

* holds   -- the claim checks out exactly on this algebra;
* fails   -- a counterexample was found (recorded as a witness);
* vacuous -- the claim is true but for structural reasons that carry no
             information (or does not apply to this algebra).

A failing claim is a *result*, not an error: the reports are data.  All
checks are deterministic, so reports are byte-stable across runs.

The `paper` mode is `sum` times one scalar, so an audit builds what its
claims share once for both modes: the product-derived pools (`paper`'s
scaled from `sum`'s), the composition memo, d∘d and one SYM-CLOSURE walk.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product as iproduct

from .algebra import (Algebra, IdentityReport, _assoc_sum, check_cubic_jordan,
                      check_operator_identity, check_six_term, find_unit,
                      multiplication_operator, product_cochain, render_linear)
from .bracket import (InsertionMode, _Memo, _divisor, check_jacobi, check_prelie, insert,
                      insert_lowdeg_variant, unshuffles)
from .cochain import SymCochain, basis_cochains, multisets
from .complexes import (DSquaredReport, _mu_bracket, check_d_squared, coboundary_c1_explicit,
                        coboundary_c1_matrix, coboundary_c2_explicit, cohomology,
                        differential_matrix, endomorphism_cochain)
from .corpus import corpus_entries
from .exactla import Record, rat_to_str, vec_to_strs

BOTH_MODES = SUM, PAPER = InsertionMode.SUM, InsertionMode.PAPER

# claim id -> printed location of the claim under audit
CLAIM_CATALOG = (
    ("SYM-CLOSURE", "Lemma 2.1"),
    ("PRELIE", "Lemma B.1"),
    ("JACOBI", "Proposition B.1 / Lemma 2.3"),
    ("LOWDEG-VARIANT", "Lemma 2.3 vs Eq. (1)"),
    ("MUMU-FORMULA", "Eq. (2)"),
    ("MC-IFF-JORDAN", "Theorem 2.4"),
    ("AD-SQUARED", "Proposition 2.5 / Lemma B.2"),
    ("D2-SANITY", "Appendix B.3"),
    ("SIXTERM", "Appendix A, Eq. (3)"),
    ("CUBIC-VS-OPERATOR", "Appendix A"),
    ("S5-COEFFS", "Section 5"),
    ("S5-INNER", "Section 5"),
)
LOCATION = dict(CLAIM_CATALOG)


class ClaimRecord(Record):
    __slots__ = _fields = ("claim_id", "mode", "verdict", "witness", "detail")

    def __init__(self, claim_id: str, mode: str | None, verdict: str,  # holds | fails | vacuous
                 witness: dict | None = None, detail: str = ""):
        self.claim_id, self.mode, self.verdict = claim_id, mode, verdict
        self.witness, self.detail = witness, detail

    @property
    def location(self) -> str:
        """The printed location of the claim, read off the catalog."""
        return LOCATION[self.claim_id]

    def to_json_dict(self) -> dict:
        return {
            "id": self.claim_id,
            "location": self.location,
            "mode": self.mode,
            "verdict": self.verdict,
            "witness": self.witness,
            "detail": self.detail,
        }


class AuditReport(Record):
    __slots__ = _fields = ("algebra", "claims", "data")

    def __init__(self, algebra: str, claims: list[ClaimRecord], data: dict | None = None):
        self.algebra, self.claims, self.data = algebra, claims, {} if data is None else data

    def claim(self, claim_id: str, mode: str | None = None) -> ClaimRecord:
        for rec in self.claims:
            if rec.claim_id == claim_id and rec.mode == mode:
                return rec
        raise KeyError(f"no claim record {claim_id!r} mode={mode!r}")

    def to_json_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "claims": [rec.to_json_dict() for rec in self.claims],
            "data": self.data,
        }


# ---------------------------------------------------------------------------
# claim implementations

def _mu_pools(A: Algebra):
    """Deterministic cochains derived from the product (all zero when mu = 0, so the
    structural claims degenerate to 0 = 0 on a trivial product), per mode: P = mu o mu
    and B = [mu,mu], kept on A, are SUM mode's, and PAPER's are these over one divisor."""
    mu, e0 = product_cochain(A), A.basis_vector(0)
    pool = {"mu": mu, "v0": SymCochain(0, A.dim, {(): e0}),
            "L0": endomorphism_cochain(multiplication_operator(A, e0)),
            "P": insert(mu, mu, SUM), "B": _mu_bracket(A)}
    p = Fraction(1, _divisor(PAPER, 2, 2))
    return {SUM: pool, PAPER: {**pool, "P": pool["P"].scale(p), "B": pool["B"].scale(p)}}


def _formula_values(f: SymCochain, g: SymCochain) -> dict:
    """f o g by the insertion formula, over f.den g.den, at the ordered basis tuples where
    it can be nonzero: f[F] g[G]_k, k in F, lands at every tuple that holds an arrangement
    of F - {k} at `first` and one of G at `second`, per (m-1, n)-unshuffle (first, second)."""
    parts, out = {}, {}  # parts: (F - {k}, G) -> sum of f[F] g[G]_k, as {t: int}
    for (F, v), (G, w) in iproduct(f.num.items(), g.num.items()):
        for k in set(F) & w.keys():
            acc = parts.setdefault((F[:F.index(k)] + F[F.index(k) + 1:], G), {})
            for t, x in v.items():
                acc[t] = acc.get(t, 0) + w[k] * x
    # the tuple with arrangements r at `first` and h at `second` is (r + h)[place]
    places = [sorted(range(f.n + g.n - 1), key=(first + second).__getitem__)
              for first, second in unshuffles(f.n - 1, g.n)]
    for (rest, G), v in parts.items():
        for r, h, place in iproduct(set(permutations(rest)), set(permutations(G)), places):
            acc = out.setdefault(tuple([(r + h)[i] for i in place]), {})
            for t, x in v.items():
                acc[t] = acc.get(t, 0) + x
    return out


def _claim_sym_closure(A: Algebra, pools) -> list[ClaimRecord]:
    """Both modes' records from one walk of the SUM pool over the tuples where a side can
    be nonzero: the same verdict and count, and each mode's witness from its own pool."""
    pairs = [(label, *label.split(",")) for label in ("mu,mu", "mu,L0", "L0,mu", "mu,v0", "P,mu")]
    checked = 0
    for label, a, b in pairs:  # each side's nonzeros, over f.den g.den built.den
        f, g = pools[SUM][a], pools[SUM][b]
        built = pools[SUM]["P"] if label == "mu,mu" else insert(f, g, SUM)
        raw, fg = _formula_values(f, g), f.den * g.den
        failing = [idx for idx in raw.keys() | {i for M in built.num for i in permutations(M)}
                   if {t: x * built.den for t, x in raw.get(idx, {}).items() if x}
                   != {t: y * fg for t, y in built.num.get(tuple(sorted(idx)), {}).items()}]
        if failing:
            return [_sym_closure_failure(mode, pools[mode][a], pools[mode][b], label, min(failing))
                    for mode in BOTH_MODES]
        checked += A.dim ** built.n
    detail = (f"insertion agrees with its symmetric coefficient form at all "
              f"{checked} ordered basis tuples over {len(pairs)} product-derived pairs")
    return [ClaimRecord("SYM-CLOSURE", mode.value, "holds", detail=detail) for mode in BOTH_MODES]


def _sym_closure_failure(mode: InsertionMode, f, g, label, idx) -> ClaimRecord:
    """The record of a mode whose insertion f o g differs from the formula at idx."""
    raw = _formula_values(f, g).get(idx, {})
    p = Fraction(1, _divisor(mode, f.n, g.n) * f.den * g.den)
    return ClaimRecord("SYM-CLOSURE", mode.value, "fails", witness={
        "pair": label, "tuple": list(idx),
        "raw": vec_to_strs(p * raw.get(t, 0) for t in range(f.dim)),
        "stored": vec_to_strs(insert(f, g, mode).value_at(tuple(sorted(idx))))},
        detail="insertion value depends on the argument order")


_TRIPLES = tuple((label, *label.split(",")) for label in (  # (label, f, g, h)
    "mu,mu,mu", "mu,mu,P", "mu,mu,L0", "mu,mu,v0", "mu,v0,mu", "mu,L0,v0", "L0,L0,mu",
    "P,mu,L0", "mu,L0,L0"))


def _claim_triple_family(mode: InsertionMode, claim_id: str, checker, pool, memo) -> ClaimRecord:
    reports = [(label, checker(pool[fa], pool[fb], pool[fc], mode, _memo=memo))
               for label, fa, fb, fc in _TRIPLES]
    failed = [(label, rep.witness) for label, rep in reports if not rep.holds]
    detail = "; ".join(f"{label}: {'holds' if rep.holds else 'fails'}" for label, rep in reports)
    return ClaimRecord(claim_id, mode.value, "fails" if failed else "holds", detail=detail,
                       witness={"triple": failed[0][0], **failed[0][1].to_json_dict()}
                       if failed else None)


def _claim_lowdeg_variant(A: Algebra, paper_pool) -> ClaimRecord:
    mu, averaged = paper_pool["mu"], paper_pool["P"]
    two_term = insert_lowdeg_variant(mu, mu)
    diff = (two_term - averaged).num
    mismatches = [{"multiset": list(mset), "k": k,
                   "two_term": rat_to_str(two_term.value_at(mset)[k]),
                   "averaged": rat_to_str(averaged.value_at(mset)[k])}
                  for mset in sorted(diff) for k in sorted(diff[mset])]
    if not mismatches:
        return ClaimRecord("LOWDEG-VARIANT", "paper", "holds",
                           detail="the printed two-term formula matches the averaged insertion")
    return ClaimRecord(
        "LOWDEG-VARIANT", "paper", "fails",
        witness={"mismatches": mismatches},
        detail="the printed two-term arity-2 formula has two unshuffle terms, "
               "the averaged insertion has three; the coefficients differ")


def _bracket_entries(br: SymCochain) -> list[dict]:
    return [{"multiset": list(mset), "k": k, "value": rat_to_str(val)}
            for mset, k, val in br.items()]


def _claim_mumu(mode: InsertionMode, pool, printed_half: SymCochain) -> ClaimRecord:
    ins, br = pool["P"], pool["B"]
    doubling_ok = br == ins.scale(2)
    diff = (ins - printed_half).num
    detail = (f"[mu,mu] == 2 (mu o mu): {'true' if doubling_ok else 'false'}; "
              "printed composite is half the cyclic associator sum, which "
              "vanishes termwise for commutative products")
    if not diff:
        return ClaimRecord("MUMU-FORMULA", mode.value, "holds", detail=detail)
    mset = min(diff)  # the first multiset where they differ
    return ClaimRecord(
        "MUMU-FORMULA", mode.value, "fails",
        witness={"first_diff": {"multiset": list(mset),
                                "insertion": vec_to_strs(ins.value_at(mset)),
                                "printed": vec_to_strs(printed_half.value_at(mset))},
                 "bracket_nonzero": _bracket_entries(br)},
        detail=detail)


def _claim_mc_iff_jordan(mode: InsertionMode, pool, jordan: IdentityReport) -> ClaimRecord:
    br = pool["B"]
    mc_zero = br.is_zero()
    if mc_zero == jordan.holds:
        return ClaimRecord("MC-IFF-JORDAN", mode.value, "holds",
                           detail=f"both sides agree: bracket zero={mc_zero}, "
                                  f"cubic identity={'holds' if jordan.holds else 'fails'}")
    if jordan.holds:
        detail = ("fails (forward direction): the cubic identity holds "
                  "but [mu,mu] is nonzero")
        witness = {"jordan": "holds", "bracket_nonzero": _bracket_entries(br)}
    else:
        detail = ("fails (backward direction): [mu,mu] vanishes "
                  "but the cubic identity fails")
        witness = {"jordan": "fails",
                   "jordan_witness": jordan.witness.to_json_dict() if jordan.witness else None}
    return ClaimRecord("MC-IFF-JORDAN", mode.value, "fails", witness=witness, detail=detail)


def _claim_ad_squared(mode: InsertionMode, reports: list[DSquaredReport]) -> ClaimRecord:
    equal = [r.degree for r in reports if r.equal]
    unequal = [r for r in reports if not r.equal]
    detail = (f"degrees with d∘d == (1/2)ad: {equal}; "
              f"degrees without: {[r.degree for r in unequal]}")
    if not unequal:
        return ClaimRecord("AD-SQUARED", mode.value, "holds", detail=detail)
    w = unequal[0].witness
    return ClaimRecord(
        "AD-SQUARED", mode.value, "fails",
        witness={"degree": unequal[0].degree, "note": w.note,
                 "dd_column": vec_to_strs(w.left), "ad_column": vec_to_strs(w.right)},
        detail=detail)


def _claim_d2_sanity(A: Algebra, mode: InsertionMode, rep: DSquaredReport) -> ClaimRecord:
    """Reads the arity-1 d∘d vs (1/2)ad comparison.  The first differing
    column j (the witness input is its unit vector e_j) belongs to the basis
    endomorphism ((j // d,), k = j % d); its d-sized chunks are the values at
    the arity-3 multisets in canonical order."""
    if rep.equal:
        return ClaimRecord("D2-SANITY", mode.value, "holds",
                           detail="d(d f) == (1/2)[[mu,mu],f] for every basis endomorphism")
    d, left, right = A.dim, rep.witness.left, rep.witness.right
    j = rep.witness.inputs[0].index(1)
    i = next(i for i in range(0, len(left), d) if left[i:i + d] != right[i:i + d])
    return ClaimRecord(
        "D2-SANITY", mode.value, "fails",
        witness={"basis_cochain": {"multiset": [j // d], "k": j % d},
                 "at_multiset": list(multisets(d, 3)[i // d]),
                 "dd": vec_to_strs(left[i:i + d]), "half_ad": vec_to_strs(right[i:i + d])},
        detail="d(d f) differs from (1/2)[[mu,mu],f] on an endomorphism")


def _claim_sixterm(rep: IdentityReport) -> ClaimRecord:
    if rep.holds:
        return ClaimRecord(
            "SIXTERM", None, "vacuous",
            detail="the cyclic associator sum cancels termwise for every "
                   "commutative product, so its vanishing carries no information "
                   "about the cubic identity")
    return ClaimRecord("SIXTERM", None, "fails", witness=rep.witness.to_json_dict(), detail="")


def _claim_cubic_vs_operator(A: Algebra, cubic: IdentityReport,
                             sixterm: IdentityReport) -> ClaimRecord:
    op = check_operator_identity(A)
    sixterm_zero = sixterm.holds
    states = (f"six-term sum zero: {sixterm_zero}; "
              f"operator identity: {'holds' if op.holds else 'fails'}; "
              f"cubic identity: {'holds' if cubic.holds else 'fails'}")
    if sixterm_zero and op.holds and cubic.holds:
        return ClaimRecord("CUBIC-VS-OPERATOR", None, "holds", detail=states)
    if op.holds and not cubic.holds:
        detail = "the operator identity holds yet the cubic identity fails; " + states
        witness = cubic.witness.to_json_dict() if cubic.witness else None
    elif cubic.holds and not op.holds:
        detail = ("operator identity fails on a Jordan algebra: the claimed chain "
                  "six-term => operator => cubic breaks at its first step; " + states)
        witness = op.witness.to_json_dict() if op.witness else None
    else:
        detail = ("the six-term sum vanishes while the cubic identity fails, so the "
                  "claimed equivalence breaks; " + states)
        witness = cubic.witness.to_json_dict() if cubic.witness else None
    return ClaimRecord("CUBIC-VS-OPERATOR", None, "fails", witness=witness, detail=detail)


# -- the printed 2-dimensional worked example ---------------------------------

def _family_parameters(A: Algebra):
    """(a, b) when A is the 2-dimensional unital family with unit e_0."""
    if A.dim != 2 or find_unit(A) != (1, 0):
        return None
    return product_cochain(A).value_at((1, 1))


# Generic entries of the printed tables are coefficient coordinates: an
# endomorphism f(e) = alpha e + beta u, f(u) = gamma e + delta u, and an
# arity-2 cochain phi(e,e) = x1 e + x2 u, phi(e,u) = y1 e + y2 u,
# phi(u,u) = z1 e + z2 u.  A table entry is a row of coefficients in them.
_ENDO_VARS = ("alpha", "beta", "gamma", "delta")
_ARITY2_VARS = ("x1", "x2", "y1", "y2", "z1", "z2")


def _claim_s5_coeffs(A: Algebra) -> ClaimRecord:
    params = _family_parameters(A)
    if params is None:
        return ClaimRecord("S5-COEFFS", None, "vacuous",
                           detail="not a member of the 2-dimensional unital family; "
                                  "the printed coefficient table does not apply")
    a, b = params
    # rows 2m, 2m+1 of the arity-1 coboundary matrix are (d f) at the m-th
    # pair (e,e), (e,u), (u,u); (d phi)(e,e,u) is read off each arity-2
    # basis cochain
    c1 = coboundary_c1_matrix(A).data
    eeu = [coboundary_c2_explicit(A, phi).value_at((0, 0, 1))
           for _, phi in basis_cochains(2, 2)]
    # the printed tables, as rows:  (d f)(e,e) = 0,  (d f)(e,u) = -beta u,
    # (d f)(u,u) = (a alpha + (b - 2) gamma) e + (a beta - 2 alpha - b delta) u,
    # (d phi)(e,e,u) = x1 u
    tables = (  # (at, variables, computed rows, printed rows)
        ("(e,e)", _ENDO_VARS, c1[0:2], [[0, 0, 0, 0], [0, 0, 0, 0]]),
        ("(e,u)", _ENDO_VARS, c1[2:4], [[0, 0, 0, 0], [0, -1, 0, 0]]),
        ("(u,u)", _ENDO_VARS, c1[4:6], [[a, 0, b - 2, 0], [-2, a, 0, -b]]),
        ("(e,e,u)", _ARITY2_VARS, [[v[k] for v in eeu] for k in (0, 1)],
         [[0] * 6, [1, 0, 0, 0, 0, 0]]),
    )
    mismatches = [{"at": at,
                   "computed": [render_linear(names, row) for row in computed],
                   "printed": [render_linear(names, row) for row in printed]}
                  for at, names, computed, printed in tables if computed != printed]
    if not mismatches:
        return ClaimRecord("S5-COEFFS", None, "holds",
                           detail=f"printed tables match direct expansion at (a,b)="
                                  f"({rat_to_str(a)},{rat_to_str(b)})")
    return ClaimRecord(
        "S5-COEFFS", None, "fails",
        witness={"a": rat_to_str(a), "b": rat_to_str(b), "mismatches": mismatches},
        detail="printed coboundary coefficient tables disagree with direct "
               "expansion of the printed formulas (generic endomorphism entries)")


def _claim_s5_inner(A: Algebra) -> ClaimRecord:
    params = _family_parameters(A)
    if params is None or params != (Fraction(1), Fraction(0)):
        return ClaimRecord("S5-INNER", None, "vacuous",
                           detail="claim is specific to the (a,b) = (1,0) member")
    # the map singled out by the printed calculation: f(e) = 0, f(u) = u
    f0 = SymCochain(1, 2, {(1,): (Fraction(0), Fraction(1))})
    defect = coboundary_c1_explicit(A, f0)
    is_derivation = defect.is_zero()
    half_e = tuple(Fraction(x, 2) for x in (1, 0))
    inner = endomorphism_cochain(multiplication_operator(A, half_e))
    matches_inner = inner == f0
    if is_derivation and matches_inner:
        return ClaimRecord("S5-INNER", None, "holds",
                           detail="the singled-out map is a derivation and is inner")
    return ClaimRecord(
        "S5-INNER", None, "fails",
        witness={
            "map": {"f(e)": ["0", "0"], "f(u)": ["0", "1"]},
            "derivation_defect_at_uu": vec_to_strs(defect.value_at((1, 1))),
            "inner_candidate_at_e": vec_to_strs(inner.value_at((0,))),
            "map_at_e": ["0", "0"],
        },
        detail=("the singled-out map is "
                + ("" if is_derivation else "not a derivation (defect at (u,u)) ")
                + ("" if matches_inner else
                   "and differs from multiplication by e/2 (compare values at e)")).strip())


# ---------------------------------------------------------------------------

def audit(A: Algebra, name: str = "<unnamed>") -> AuditReport:
    # what the claims share, each built once: the pools, the compositions of
    # both triple families (one memo), and d∘d in both modes (each operator
    # matrix is kept on A, and its first read builds both modes from one scatter)
    pools, memo = _mu_pools(A), _Memo()
    d_squared = {mode: [check_d_squared(A, n, mode) for n in (0, 1, 2)] for mode in BOTH_MODES}
    cubic, sixterm = check_cubic_jordan(A), check_six_term(A)
    claims = _claim_sym_closure(A, pools)
    claims += [_claim_triple_family(mode, "PRELIE", check_prelie, pools[mode], memo)
               for mode in BOTH_MODES]
    claims += [_claim_triple_family(mode, "JACOBI", check_jacobi, pools[mode], memo)
               for mode in BOTH_MODES]
    claims.append(_claim_lowdeg_variant(A, pools[PAPER]))
    half_cyc = SymCochain._from_ints(3, A.dim, {  # half the cyclic associator sum
        (i, j, k): _assoc_sum(A, (i, j, k), (j, k, i), (k, i, j))
        for i, j, k in multisets(A.dim, 3)}, 2 * A._mu.den ** 2)
    claims += [_claim_mumu(mode, pools[mode], half_cyc) for mode in BOTH_MODES]
    claims += [_claim_mc_iff_jordan(mode, pools[mode], cubic) for mode in BOTH_MODES]
    claims += [_claim_ad_squared(mode, d_squared[mode]) for mode in BOTH_MODES]
    claims += [_claim_d2_sanity(A, mode, d_squared[mode][1]) for mode in BOTH_MODES]
    claims += [_claim_sixterm(sixterm), _claim_cubic_vs_operator(A, cubic, sixterm),
               _claim_s5_coeffs(A), _claim_s5_inner(A)]

    d1 = differential_matrix(A, 1, SUM)  # ranked by h2's sum record: no kernel is built
    data = {
        "derivations_dim": d1.matrix.cols - d1.rank,
        "h2": {mode.value: cohomology(A, 2, mode).to_json_dict() for mode in BOTH_MODES},
    }
    return AuditReport(name, claims, data)


def audit_all() -> list[AuditReport]:
    return [audit(entry.algebra, entry.name) for entry in corpus_entries()]


def render_text(report: AuditReport) -> str:
    lines = [f"algebra: {report.algebra}"]
    for rec in report.claims:
        mode = f" [{rec.mode}]" if rec.mode else ""
        lines.append(f"  {rec.verdict.upper():7s} {rec.claim_id}{mode}  ({rec.location})")
        if rec.detail:
            lines.append(f"          {rec.detail}")
    h2 = report.data.get("h2", {})
    dims = ", ".join(
        f"{m}: dim_H={v['dim_H']} valid={v['complex_valid']}" for m, v in sorted(h2.items()))
    lines.append(f"  data: derivations_dim={report.data.get('derivations_dim')}  H^2 {{{dims}}}")
    return "\n".join(lines)
