"""The four workloads: seeded inputs, the operations that run on them, and
the checks every operation's output must pass.

Inputs are generated here with the standard library only, written as the
package's algebra/cochain JSON, and handed to `symlie` through its public
loaders (in-process workloads) or as files on the command line
(`cli_corpus`).  The same seed always gives the same inputs.

A workload is a sequence of *cycles*; every cycle has the same mix of
operations on fresh inputs, and a run executes whole cycles, so the latency
distribution has the same shape however many cycles fit in the run.

The checks here do not depend on the implementation under test: they use
this file's own product and evaluation code.  Outputs are also compared
with digests recorded at a known-good commit for a few seeds.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import comb
from pathlib import Path
from typing import Any, Callable

from provenance import ROOT

# the shipped corpus, in the order corpus_entries() and `audit --all` list it
CORPUS = ("j2_1_0", "j2_0_0", "j2_m1_2", "spin_1_1", "non_jordan", "field")
CLAIM_IDS = frozenset({
    "SYM-CLOSURE", "PRELIE", "JACOBI", "LOWDEG-VARIANT", "MUMU-FORMULA",
    "MC-IFF-JORDAN", "AD-SQUARED", "D2-SANITY", "SIXTERM", "CUBIC-VS-OPERATOR",
    "S5-COEFFS", "S5-INNER"})
VERDICTS = frozenset({"holds", "fails", "vacuous"})
MODES = ("sum", "paper")
# cycles whose inputs are generated and loaded during set-up; later cycles
# (a fast tree running more of them) are generated when reached
POOL_CYCLES = 3


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(doc) -> str:
    return hashlib.sha256(canonical(doc).encode()).hexdigest()[:20]


# ---------------------------------------------------------------------------
# seeded rationals and documents

def rat(rng: random.Random, nmax: int, dmax: int) -> Fraction:
    return Fraction(rng.choice((1, -1)) * rng.randint(1, nmax), rng.randint(1, dmax))


def rs(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def algebra_doc(d: int, table: dict) -> dict:
    """table maps (i, j, k) with i <= j to a nonzero Fraction."""
    sc = []
    for (i, j, k), c in sorted(table.items()):
        sc.append({"i": i, "j": j, "k": k, "c": rs(c)})
        if i != j:
            sc.append({"i": j, "j": i, "k": k, "c": rs(c)})
    return {"dim": d, "labels": [f"e{i}" for i in range(d)], "sc": sc}


def spin_doc(rng: random.Random, d: int) -> dict:
    """Spin factor: e_0 is the unit, e_i e_i = q_i e_0 with small q_i != 0."""
    table = {(0, j, j): Fraction(1) for j in range(d)}
    for i in range(1, d):
        table[(i, i, 0)] = rat(rng, 5, 4)
    return algebra_doc(d, table)


# Inputs fill an exact share of their entries, not each entry with some
# probability: the cost of every operation grows with the number of nonzeros,
# and a fixed count keeps that cost, and the run's numbers, alike across seeds.

def dense_doc(rng: random.Random, d: int, fill: float = 0.6) -> dict:
    keys = [(i, j, k) for i in range(d) for j in range(i, d) for k in range(d)]
    chosen = sorted(rng.sample(keys, max(1, round(fill * len(keys)))))
    return algebra_doc(d, {key: rat(rng, 5, 4) for key in chosen})


def cochain_doc(rng: random.Random, n: int, d: int, fill: float) -> dict:
    keys = [(m, k) for m in combinations_with_replacement(range(d), n) for k in range(d)]
    chosen = sorted(rng.sample(keys, max(1, round(fill * len(keys)))))
    return {"n": n, "dim": d, "coeffs": [
        {"multiset": list(m), "k": k, "c": rs(rat(rng, 5, 4))} for m, k in chosen]}


def series_doc(rng: random.Random, n: int, d: int, terms: int, fill: float) -> list:
    return [dict(cochain_doc(rng, n, d, fill), order=i + 1) for i in range(terms)]


class UniqueDocs:
    """Draws algebra documents, never the same one twice in a run, so every
    round misses any cache keyed by the algebra."""

    def __init__(self):
        self.seen = set()

    def draw(self, make: Callable[[], dict]) -> dict:
        while True:
            doc = make()
            key = canonical(doc)
            if key not in self.seen:
                self.seen.add(key)
                return doc


# ---------------------------------------------------------------------------
# reference arithmetic, independent of the package

def sc_table(doc: dict) -> list:
    d = doc["dim"]
    t = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for e in doc["sc"]:
        t[e["i"]][e["j"]][e["k"]] += Fraction(e["c"])
    return t


def mul(t, x, y):
    d = len(t)
    out = [Fraction(0)] * d
    for i in range(d):
        if x[i]:
            for j in range(d):
                c = x[i] * y[j]
                if c:
                    for k in range(d):
                        out[k] += c * t[i][j][k]
    return out


def unit(d: int, i: int):
    return [Fraction(int(t == i)) for t in range(d)]


def cochain_coeffs(doc: dict) -> dict:
    d = doc["dim"]
    out: dict = {}
    for e in doc["coeffs"]:
        out.setdefault(tuple(e["multiset"]), [Fraction(0)] * d)[e["k"]] += Fraction(e["c"])
    return out


def naive_evaluate(doc: dict, args) -> list:
    """Sum over every ordered basis tuple of the stored coefficients."""
    d, n = doc["dim"], doc["n"]
    co = cochain_coeffs(doc)
    out = [Fraction(0)] * d
    for idx in product(range(d), repeat=n):
        w = Fraction(1)
        for p, i in enumerate(idx):
            w *= args[p][i]
            if not w:
                break
        vec = co.get(tuple(sorted(idx))) if w else None
        if vec:
            for k in range(d):
                out[k] += w * vec[k]
    return out


def c1_coboundary(t, f_doc: dict) -> dict:
    """(d f)(e_i, e_j) = f(e_i e_j) - f(e_i) e_j - e_i f(e_j) at i <= j."""
    d = len(t)
    co = cochain_coeffs(f_doc)
    fcol = [co.get((j,), [Fraction(0)] * d) for j in range(d)]

    def f(v):
        out = [Fraction(0)] * d
        for j in range(d):
            if v[j]:
                for k in range(d):
                    out[k] += v[j] * fcol[j][k]
        return out

    res = {}
    for i in range(d):
        for j in range(i, d):
            ei, ej = unit(d, i), unit(d, j)
            val = [a - b - c for a, b, c in
                   zip(f(mul(t, ei, ej)), mul(t, fcol[i], ej), mul(t, ei, fcol[j]))]
            if any(val):
                res[(i, j)] = val
    return res


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems (empty when the output is good)

def check_cohomology(doc: dict, d: int, n: int, tag: str = "") -> list:
    p = []
    cols = comb(d + n - 1, n) * d
    if doc.get("degree") != n:
        p.append(f"{tag}degree {doc.get('degree')} != {n}")
    if doc["complex_valid"] != (doc["defect_rank"] == 0):
        p.append(f"{tag}complex_valid disagrees with defect_rank {doc['defect_rank']}")
    if (doc["dim_H"] is None) == doc["complex_valid"]:
        p.append(f"{tag}dim_H is {doc['dim_H']} on a complex with valid={doc['complex_valid']}")
    if not 0 <= doc["dim_kernel"] <= cols:
        p.append(f"{tag}dim_kernel {doc['dim_kernel']} outside [0, {cols}]")
    if doc["dim_image_from_below"] < 0 or (doc["dim_H"] is not None and doc["dim_H"] < 0):
        p.append(f"{tag}negative image or cohomology dimension")
    return p


def check_audit(doc: dict, d: int) -> list:
    p = []
    ids = {c["id"] for c in doc["claims"]}
    if not CLAIM_IDS <= ids:
        p.append(f"claim catalog incomplete, missing {sorted(CLAIM_IDS - ids)}")
    bad = sorted({c["verdict"] for c in doc["claims"]} - VERDICTS)
    if bad:
        p.append(f"unknown verdicts {bad}")
    if doc["data"]["derivations_dim"] < 0:
        p.append("negative derivations_dim")
    for mode in MODES:
        p += check_cohomology(doc["data"]["h2"][mode], d, 2, f"h2[{mode}]: ")
    return p


def check_derivations(basis: list, t) -> list:
    """Every basis matrix D (D[i][j] = (D e_j)_i) satisfies D(xy) = D(x)y + xD(y)."""
    d = len(t)
    p = []
    for num, m in enumerate(basis):
        D = [[Fraction(x) for x in row] for row in m]
        col = [[D[i][j] for i in range(d)] for j in range(d)]

        def f(v):
            return [sum((D[i][j] * v[j] for j in range(d)), Fraction(0)) for i in range(d)]

        for a in range(d):
            for b in range(a, d):
                ea, eb = unit(d, a), unit(d, b)
                lhs = f(mul(t, ea, eb))
                rhs = [x + y for x, y in zip(mul(t, col[a], eb), mul(t, ea, col[b]))]
                if lhs != rhs:
                    p.append(f"derivation {num} fails the Leibniz rule at (e{a}, e{b})")
                    return p
    return p


def check_check(doc: dict) -> list:
    got = (doc["cubic"]["verdict"], doc["operator"]["verdict"], doc["six_term"]["verdict"])
    if got[0] not in ("holds", "fails") or got[1] not in ("holds", "fails") \
            or got[2] not in ("vacuous", "fails"):
        return [f"bad checker verdicts {got}"]
    return []


def check_gauge_terms(terms: list, order: int, t, f1_doc: dict) -> list:
    if len(terms) != order:
        return [f"{len(terms)} transported terms for order {order}"]
    first = {tuple(m): v for m, v in cochain_coeffs(terms[0]).items() if any(v)}
    if first != c1_coboundary(t, f1_doc):
        return ["order-1 transported term is not the arity-1 coboundary of f_1"]
    return []


def check_mc_cli(doc: dict, order: int, phi1_doc: dict) -> list:
    orders = doc["orders"]
    status = [o["status"] for o in orders]
    p = []
    if not status or status[0] != "given" or len(status) > order:
        p.append(f"bad order statuses {status}")
    if any(s not in ("given", "solved", "obstructed") for s in status) \
            or "obstructed" in status[:-1]:
        p.append(f"bad order statuses {status}")
    if (doc["obstruction"] is None) == (status[-1] == "obstructed"):
        p.append("obstruction present iff the last order is obstructed: violated")
    if status[-1] != "obstructed" and len(status) != order:
        p.append("solve stopped early without an obstruction")
    if cochain_coeffs(orders[0]["term"]) != cochain_coeffs(phi1_doc):
        p.append("order-1 term is not the given phi_1")
    return p


def check_mc_lib(doc: dict, order: int, phi1_doc: dict) -> list:
    terms, failed = doc["terms"], doc["failed"]
    p = []
    if failed is None and len(terms) != order:
        p.append(f"{len(terms)} terms without an obstruction")
    if failed is not None and failed["order"] != len(terms) + 1:
        p.append("obstruction order does not follow the last solved term")
    if cochain_coeffs(terms[0]) != cochain_coeffs(phi1_doc):
        p.append("series does not start with the given phi_1")
    return p


# ---------------------------------------------------------------------------
# operations

@dataclass
class Op:
    """One timed call: a CLI command (`argv`) or one public library call (`call`).

    `canon` turns the raw result into the JSON document that is digested and
    checked; `check` returns the problems found in that document.  Both run
    outside the timed region.
    """
    key: str
    call: Callable[[], Any] | None = None
    argv: list | None = None
    canon: Callable[[Any], Any] = lambda r: r
    check: Callable[[Any], list] = lambda doc: []


def _rng(seed: int, *tags) -> random.Random:
    return random.Random(":".join(map(str, (seed,) + tags)))


class Workload:
    name = ""
    min_cycles = 2
    in_process = True
    round_ops = 0  # operations in a cycle's first round, traced twice to check counts
    # a cycle's loop time in reference seconds (refclock.py) at the reference
    # commit; it sizes a run, so a run does the same work on every machine
    cycle_s = 1.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.unique = UniqueDocs()
        self.cycles: list = []

    def cycle_count(self, seconds: float) -> int:
        """Whole cycles that fill `seconds` at the reference commit's speed."""
        return max(self.min_cycles, round(seconds / self.cycle_s))

    def inputs(self, c: int):
        """Documents of cycle c, generated in order so that results repeat."""
        while len(self.cycles) <= c:
            self.cycles.append(self.generate(len(self.cycles)))
        return self.cycles[c]

    def setup(self, S) -> None:
        """Generate and load the first POOL_CYCLES cycles of inputs."""
        self.S = S
        self.loaded: dict = {}
        for c in range(POOL_CYCLES):
            self.load(c)

    def load(self, c: int):
        if c not in self.loaded:
            self.loaded[c] = self.load_cycle(c, self.inputs(c))
        return self.loaded[c]

    def ops(self, c: int) -> list:
        return self.cycle_ops(c, self.inputs(c), self.load(c))

    def mode(self, m: str):
        return self.S.InsertionMode(m)


class SpinStudy(Workload):
    """Sparse small-integer Jordan algebras: audit() runs every checker over its
    full polarization, then H^3 elimination on up to 350x175 matrices.  One
    fresh spin factor per round; dimensions cycle 3, 4, 5."""
    name = "spin_study"
    cycle_s = 7.75
    # three cycles, so that the tail percentile lies above the median
    min_cycles = 3
    round_ops = 3
    DIMS = (3, 4, 5)

    def generate(self, c):
        out = []
        for d in self.DIMS:
            rng = _rng(self.seed, "spin", c, d)
            out.append(self.unique.draw(lambda: spin_doc(rng, d)))
        return out

    def load_cycle(self, c, docs):
        return [self.S.algebra_from_json_dict(doc) for doc in docs]

    def cycle_ops(self, c, docs, algebras):
        S, ops = self.S, []
        for doc, A in zip(docs, algebras):
            d = doc["dim"]
            ops.append(Op(f"c{c}.d{d}.audit",
                          call=lambda A=A, c=c, d=d: S.audit(A, f"spin_c{c}_d{d}"),
                          canon=lambda r: r.to_json_dict(),
                          check=lambda doc, d=d: check_audit(doc, d)))
            for m in MODES:
                ops.append(Op(f"c{c}.d{d}.coh3.{m}",
                              call=lambda A=A, m=m: S.cohomology(A, 3, self.mode(m)),
                              canon=lambda r: r.to_json_dict(),
                              check=lambda doc, d=d: check_cohomology(doc, d, 3)))
        return ops


class DenseDeform(Workload):
    """Dense (60% fill) rational non-Jordan algebras: elimination with
    coefficient growth (cohomology, derivations), solve and obstruction
    classes in the deformation layer, gauge transport.  No checkers run."""
    name = "dense_deform"
    cycle_s = 3.1
    round_ops = 7
    # four d=3 rounds and one d=4 round per cycle.  At d=4 the round
    # leaves out cohomology at degree 3 and mc_solve_chain: each such call
    # takes 4-8 s on a 2.1 GHz Xeon vCPU, and that cost varies twofold between
    # seeds, so two of them would decide a whole run's numbers
    DIMS = (3, 3, 3, 3, 4)

    def generate(self, c):
        out = []
        for r, d in enumerate(self.DIMS):
            rng = _rng(self.seed, "dense", c, r)
            out.append({"algebra": self.unique.draw(lambda: dense_doc(rng, d)),
                        "phi1": cochain_doc(rng, 2, d, 0.3),
                        "gauge": series_doc(rng, 1, d, 2, 0.5)})
        return out

    def load_cycle(self, c, docs):
        S = self.S
        return [{"A": S.algebra_from_json_dict(x["algebra"]),
                 "phi1": S.SymCochain.from_json_dict(x["phi1"]),
                 "T": S.GaugeSeries(2, [S.SymCochain.from_json_dict(
                     {k: v for k, v in t.items() if k != "order"}) for t in x["gauge"]])}
                for x in docs]

    def cycle_ops(self, c, docs, loaded):
        S, ops = self.S, []
        for r, (doc, L) in enumerate(zip(docs, loaded)):
            A, d = L["A"], doc["algebra"]["dim"]
            t = sc_table(doc["algebra"])
            key = f"c{c}.r{r}.d{d}"
            # The latency quantiles must fall inside clusters of like calls,
            # not in the gaps between them, where they move with every few
            # milliseconds of noise.  So at d=3, degree 3 and mc_solve_chain
            # run in one mode per algebra, alternating; with both, the median
            # would fall at the sparse top of the degree-2 cluster.  At d=4,
            # degree 2 runs in one mode per cycle, alternating, so that the
            # tail falls among the mc_solve_chain calls.
            one = (MODES[r % 2],) if d == 3 else (MODES[c % 2],)
            for n in (2, 3) if d == 3 else (2,):
                for m in MODES if n == 2 and d == 3 else one:
                    ops.append(Op(f"{key}.coh{n}.{m}",
                                  call=lambda A=A, n=n, m=m: S.cohomology(A, n, self.mode(m)),
                                  canon=lambda res: res.to_json_dict(),
                                  check=lambda out, d=d, n=n: check_cohomology(out, d, n)))
            ops.append(Op(f"{key}.derivations", call=lambda A=A: S.derivations(A),
                          canon=lambda res: [mat.to_strs() for mat in res],
                          check=lambda out, t=t: check_derivations(out, t)))
            if d == 3:
                m = one[0]
                ops.append(Op(f"{key}.mc3.{m}",
                              call=lambda A=A, L=L, m=m:
                                  S.mc_solve_chain(A, L["phi1"], 3, self.mode(m)),
                              canon=_mc_canon,
                              check=lambda out, doc=doc: check_mc_lib(out, 3, doc["phi1"])))
            ops.append(Op(f"{key}.gauge4", call=lambda A=A, L=L: S.gauge_transport(L["T"], A, 4),
                          canon=lambda res: res.to_json_list(),
                          check=lambda out, t=t, doc=doc:
                              check_gauge_terms(out, 4, t, doc["gauge"][0])))
        return ops


def _mc_canon(res):
    series, failed = res
    return {"terms": series.to_json_list(),
            "failed": None if failed is None else {
                "order": failed.order, "obstruction": failed.obstruction.to_json_dict()}}


class EvalSymmetry(Workload):
    """The symmetry-closure pattern as a user workload: insert in both modes,
    then SymCochain.evaluate at every permutation of general rational tuples.
    Without it, evaluate is a small share of every other workload."""
    name = "eval_symmetry"
    cycle_s = 1.08
    # the median operation lies where latency climbs steeply with the case's
    # size, so it moves with the seeded cochains; twelve cycles of cases hold
    # it within a tenth between seeds
    min_cycles = 12
    round_ops = 12
    GRID = tuple((d, m, n) for d in (1, 2, 3) for m in (1, 2, 3) for n in (0, 1, 2, 3))
    TUPLES = 3

    def generate(self, c):
        out = []
        for d, m, n in self.GRID:
            rng = _rng(self.seed, "eval", c, d, m, n)
            N = m + n - 1
            out.append({"f": cochain_doc(rng, m, d, 0.3), "g": cochain_doc(rng, n, d, 0.3),
                        "tuples": [[[rs(rat(rng, 3, 3)) for _ in range(d)] for _ in range(N)]
                                   for _ in range(self.TUPLES)]})
        return out

    def load_cycle(self, c, docs):
        S = self.S
        return [(S.SymCochain.from_json_dict(x["f"]), S.SymCochain.from_json_dict(x["g"]),
                 [[[Fraction(v) for v in vec] for vec in tup] for tup in x["tuples"]])
                for x in docs]

    def cycle_ops(self, c, docs, loaded):
        S, ops = self.S, []
        for (d, m, n), (f, g, tuples) in zip(self.GRID, loaded):
            for mode in MODES:
                ops.append(Op(f"c{c}.d{d}m{m}n{n}.{mode}",
                              call=lambda f=f, g=g, tuples=tuples, mode=mode:
                                  self.case(f, g, tuples, mode),
                              canon=_eval_canon,
                              check=lambda out, tuples=tuples: _eval_check(out, tuples)))
        return ops

    def case(self, f, g, tuples, mode):
        built = self.S.insert(f, g, self.mode(mode))
        N = built.n
        return built, [[built.evaluate([tup[p] for p in perm])
                        for perm in permutations(range(N))] for tup in tuples]


def _eval_canon(res):
    built, values = res
    return {"insert": built.to_json_dict(),
            "values": [[rs(x) for x in row[0]] for row in values],
            "perm_equal": all(v == row[0] for row in values for v in row)}


def _eval_check(doc, tuples):
    if not doc["perm_equal"]:
        return ["evaluation differs between argument permutations"]
    want = naive_evaluate(doc["insert"], tuples[0])
    if [Fraction(x) for x in doc["values"][0]] != want:
        return ["evaluation differs from the naive multilinear sum"]
    return []


class CliCorpus(Workload):
    """`python -m symlie`, a fresh interpreter per command, on the shipped
    corpus and on seeded cochain and series files: start-up, cli I/O and
    audit orchestration are paid on every command; matrices stay small."""
    name = "cli_corpus"
    cycle_s = 6.2
    round_ops = 6
    in_process = False

    def generate(self, c):
        out = {}
        for i, name in enumerate(CORPUS):
            d = json.loads((ROOT / "corpus" / f"{name}.json").read_text())["dim"]
            rng = _rng(self.seed, "cli", c, name)
            # the arities rotate with the cycle, not with the seed: the seed
            # picks entries and coefficients, and the inputs' sizes, which set
            # the cost of set-up and of the bracket commands, stay alike
            m, n = 1 + (i + c) % 3, 1 + (i + c + 1) % 3
            out[name] = {"f": cochain_doc(rng, m, d, 0.4), "g": cochain_doc(rng, n, d, 0.4),
                         "phi1": cochain_doc(rng, 2, d, 0.3),
                         "gauge": series_doc(rng, 1, d, 2, 0.5)}
        return out

    def load_cycle(self, c, docs):
        """Serialize the cycle's inputs and parse them back as the CLI's
        loaders do.  The files are written when the cycle's operations are
        built, outside set-up: on a shared VM's filesystem writing them took
        twice as long in some runs as in others, which swamped set-up time."""
        from symlie.cli import load_algebra
        texts = {}
        for name, x in docs.items():
            load_algebra(str(ROOT / "corpus" / f"{name}.json"))
            texts[name] = {part: json.dumps(doc) for part, doc in x.items()}
            for part, text in texts[name].items():
                if part != "gauge":
                    self.S.SymCochain.from_json_dict(json.loads(text))
        return texts

    def cycle_ops(self, c, docs, texts):
        files = {}
        for name, parts in texts.items():
            files[name] = {}
            for part, text in parts.items():
                path = self.workdir / f"c{c}_{name}_{part}.json"
                path.write_text(text)
                files[name][part] = str(path.relative_to(ROOT))
        ops = []
        for i, name in enumerate(CORPUS):
            alg = f"corpus/{name}.json"
            t = sc_table(json.loads((ROOT / alg).read_text()))
            d = len(t)
            x, fp = docs[name], files[name]
            key = f"c{c}.{name}"
            ops.append(Op(f"{key}.check", argv=["check", alg], check=check_check))
            ops.append(Op(f"{key}.derivations", argv=["derivations", alg],
                          check=lambda out, t=t: check_derivations(out["basis"], t)))
            for n in (2, 3):
                for m in MODES:
                    ops.append(Op(f"{key}.coh{n}.{m}",
                                  argv=["cohomology", "--degree", str(n), "--mode", m, alg],
                                  check=lambda out, d=d, n=n: check_cohomology(out, d, n)))
            ops.append(Op(f"{key}.audit", argv=["audit", alg],
                          check=lambda out, d=d: check_audit(out, d)))
            mode = MODES[i % 2]
            arity = x["f"]["n"] + x["g"]["n"] - 1
            ops.append(Op(f"{key}.bracket.{mode}",
                          argv=["bracket", "--mode", mode, fp["f"], fp["g"]],
                          check=lambda out, d=d, a=arity: [] if (out["n"], out["dim"]) == (a, d)
                          else [f"bracket has shape {(out['n'], out['dim'])}, not {(a, d)}"]))
            ops.append(Op(f"{key}.mc3.{mode}",
                          argv=["mc-solve", "--phi1", fp["phi1"], "--order", "3",
                                "--mode", mode, alg],
                          check=lambda out, x=x: check_mc_cli(out, 3, x["phi1"])))
            ops.append(Op(f"{key}.gauge3",
                          argv=["gauge", "--series", fp["gauge"], "--order", "3", alg],
                          check=lambda out, t=t, x=x:
                              check_gauge_terms(out["terms"], 3, t, x["gauge"][0])))
        return ops


def _check_audit_all(doc) -> list:
    if [r["algebra"] for r in doc] != list(CORPUS):
        return ["audit --all does not cover the corpus in order"]
    p = []
    for r in doc:
        d = len(json.loads((ROOT / "corpus" / f"{r['algebra']}.json").read_text())["labels"])
        p += check_audit(r, d)
    return p

WORKLOADS = {w.name: w for w in (CliCorpus, SpinStudy, DenseDeform, EvalSymmetry)}


def audit_all_op(key: str = "audit_all") -> Op:
    return Op(key, argv=["audit", "--all"], check=_check_audit_all)
