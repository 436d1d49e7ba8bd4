import contextlib
import hashlib
import io
import json
import random
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symlie import (SymCochain, algebra_to_json_dict, differential, graded_bracket,
                    identity_cochain, make_j2, make_spin, product_cochain)
from symlie.cli import run
from symlie.errors import InvariantViolation

from oracles import random_cochain, random_rational_commutative


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corpus_path(corpus_dir, name):
    return str(corpus_dir / f"{name}.json")


def test_check_command(capsys, corpus_dir):
    code, out, _ = run_capture(capsys, ["check", corpus_path(corpus_dir, "j2_1_0")])
    assert code == 0
    doc = json.loads(out)
    assert doc["cubic"]["verdict"] == "holds"
    assert doc["six_term"]["verdict"] == "vacuous"
    assert doc["operator"]["verdict"] == "holds"


def test_check_non_jordan(capsys, corpus_dir):
    code, out, _ = run_capture(capsys, ["check", corpus_path(corpus_dir, "non_jordan")])
    assert code == 0
    doc = json.loads(out)
    assert doc["cubic"]["verdict"] == "fails"
    assert doc["cubic"]["witness"]["left"] == ["1", "0"]
    assert doc["cubic"]["witness"]["right"] == ["0", "0"]


def test_missing_file_exits_2(capsys):
    code, out, err = run_capture(capsys, ["check", "/no/such/file.json"])
    assert code == 2
    assert not out
    assert "error" in err


def test_malformed_json_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    code, _, err = run_capture(capsys, ["check", str(p)])
    assert code == 2 and "JSON" in err


def test_non_commutative_file_exits_2(capsys, tmp_path):
    p = tmp_path / "nc.json"
    p.write_text(json.dumps({"dim": 2, "labels": ["a", "b"],
                             "sc": [{"i": 0, "j": 1, "k": 0, "c": "1"}]}),
                 encoding="utf-8")
    code, _, err = run_capture(capsys, ["check", str(p)])
    assert code == 2 and "commutative" in err


def test_unknown_command_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_unknown_flag_exits_2(capsys, corpus_dir):
    assert run(["check", "--frob", corpus_path(corpus_dir, "field")]) == 2
    capsys.readouterr()


def test_derivations_command(capsys, corpus_dir):
    code, out, _ = run_capture(capsys, ["derivations", corpus_path(corpus_dir, "j2_m1_2")])
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 1
    assert len(doc["basis"]) == 1


def test_cohomology_command(capsys, corpus_dir):
    code, out, _ = run_capture(
        capsys, ["cohomology", "--degree", "2", "--mode", "sum",
                 corpus_path(corpus_dir, "field")])
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 2 and doc["mode"] == "sum"
    assert set(doc) == {"degree", "mode", "dim_kernel", "dim_image_from_below",
                        "complex_valid", "defect_rank", "dim_H"}


def test_cohomology_default_mode_is_sum(capsys, corpus_dir):
    code, out, _ = run_capture(
        capsys, ["cohomology", "--degree", "1", corpus_path(corpus_dir, "j2_1_0")])
    assert code == 0
    assert json.loads(out)["mode"] == "sum"


def test_bracket_command(capsys, tmp_path):
    mu = product_cochain(make_j2(1, 0))
    f = tmp_path / "mu.json"
    f.write_text(json.dumps(mu.to_json_dict()), encoding="utf-8")
    code, out, _ = run_capture(capsys, ["bracket", "--mode", "sum", str(f), str(f)])
    assert code == 0
    got = SymCochain.from_json_dict(json.loads(out))
    assert got == graded_bracket(mu, mu)


def test_bracket_dimension_mismatch_exits_2(capsys, tmp_path):
    f = tmp_path / "a.json"
    g = tmp_path / "b.json"
    f.write_text(json.dumps(SymCochain.zero(2, 2).to_json_dict()), encoding="utf-8")
    g.write_text(json.dumps(SymCochain.zero(2, 3).to_json_dict()), encoding="utf-8")
    code, _, err = run_capture(capsys, ["bracket", str(f), str(g)])
    assert code == 2 and "dimension" in err


def test_mc_solve_command_obstructed(capsys, tmp_path):
    zero_alg = tmp_path / "zero.json"
    zero_alg.write_text(json.dumps({"dim": 2, "labels": ["e", "u"], "sc": []}),
                        encoding="utf-8")
    phi = SymCochain.from_entries(2, 2, [((0, 0), 0, Fraction(1))])  # phi(e,e)=e
    p = tmp_path / "phi.json"
    p.write_text(json.dumps(phi.to_json_dict()), encoding="utf-8")
    code, out, _ = run_capture(
        capsys, ["mc-solve", "--phi1", str(p), "--order", "2", str(zero_alg)])
    assert code == 0
    doc = json.loads(out)
    assert doc["orders"][0]["status"] == "given"
    assert doc["orders"][1]["status"] == "obstructed"
    assert doc["obstruction"]["in_image"] is False


def test_mc_solve_command_solvable(capsys, tmp_path, corpus_dir):
    phi = SymCochain.zero(2, 2)
    p = tmp_path / "phi.json"
    p.write_text(json.dumps(phi.to_json_dict()), encoding="utf-8")
    code, out, _ = run_capture(
        capsys, ["mc-solve", "--phi1", str(p), "--order", "3",
                 corpus_path(corpus_dir, "j2_1_0")])
    assert code == 0
    doc = json.loads(out)
    assert [o["status"] for o in doc["orders"]] == ["given", "solved", "solved"]
    assert doc["obstruction"] is None


def test_gauge_command(capsys, tmp_path, corpus_dir):
    g1 = identity_cochain(2)
    p = tmp_path / "series.json"
    p.write_text(json.dumps([dict(g1.to_json_dict(), order=1)]), encoding="utf-8")
    code, out, _ = run_capture(
        capsys, ["gauge", "--series", str(p), "--order", "2",
                 corpus_path(corpus_dir, "j2_1_0")])
    assert code == 0
    doc = json.loads(out)
    first = SymCochain.from_json_dict(
        {k: v for k, v in doc["terms"][0].items() if k != "order"})
    assert first == -product_cochain(make_j2(1, 0))


def test_gauge_rejects_series_of_mixed_dimensions(capsys, tmp_path, corpus_dir):
    p = tmp_path / "series.json"
    p.write_text(json.dumps([dict(identity_cochain(2).to_json_dict(), order=1),
                             dict(identity_cochain(3).to_json_dict(), order=2)]),
                 encoding="utf-8")
    code, out, err = run_capture(
        capsys, ["gauge", "--series", str(p), "--order", "2",
                 corpus_path(corpus_dir, "j2_1_0")])
    assert (code, out) == (2, "")
    assert err == (f"error: {p}: series term at order 2 has dimension 3, "
                   "but the term at order 1 has dimension 2\n")


def test_gauge_builds_no_series_term_past_the_order(capsys, tmp_path, corpus_dir):
    # transport at t^1 reads f_1 only: a term at order 200 000 is read and
    # checked, but the 199 999 zero terms below it are not built
    f1 = dict(identity_cochain(2).to_json_dict(), order=1)
    far = dict(random_cochain(random.Random(3), 1, 2).to_json_dict(), order=200_000)
    outs = []
    for name, series in (("near", [f1]), ("far", [f1, far])):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(series), encoding="utf-8")
        tracemalloc.start()
        try:
            code = run(["gauge", "--series", str(p), "--order", "1",
                        corpus_path(corpus_dir, "j2_1_0")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 2_000_000, (name, peak)
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    # an entry past the order is still checked
    p = tmp_path / "bad.json"
    p.write_text(json.dumps([f1, dict(far, order=200_000, n=2)]), encoding="utf-8")
    code, out, err = run_capture(capsys, ["gauge", "--series", str(p), "--order", "1",
                                          corpus_path(corpus_dir, "j2_1_0")])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {p}: ")


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000, encoding="utf-8")
    code, out, err = run_capture(capsys, ["check", str(p)])
    assert (code, out) == (2, "")
    assert err == f"error: {p} is nested too deeply to read\n"


def test_audit_single_and_all(capsys, corpus_dir):
    code, out, _ = run_capture(capsys, ["audit", corpus_path(corpus_dir, "j2_1_0")])
    assert code == 0
    doc = json.loads(out)
    assert doc["algebra"] == "j2_1_0"
    code, out_all, _ = run_capture(capsys, ["audit", "--all"])
    assert code == 0
    docs = json.loads(out_all)
    assert [d["algebra"] for d in docs] == \
        ["j2_1_0", "j2_0_0", "j2_m1_2", "spin_1_1", "non_jordan", "field"]


def test_audit_requires_target(capsys):
    code, _, err = run_capture(capsys, ["audit"])
    assert code == 2 and "algebra file or --all" in err


@pytest.fixture
def refusal_files(tmp_path, corpus_dir):
    """The file arguments of the refusal cases, by the name that stands for them."""
    def write(name, doc):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        return str(p)

    return {"ALG": corpus_path(corpus_dir, "j2_1_0"),
            "PHI": write("phi", SymCochain.zero(2, 2).to_json_dict()),
            "PHI_ARITY3": write("phi_arity3", SymCochain.zero(3, 2).to_json_dict()),
            "PHI_DIM3": write("phi_dim3", SymCochain.zero(2, 3).to_json_dict()),
            "SERIES": write("series", [dict(identity_cochain(2).to_json_dict(), order=1)]),
            "SERIES_DIM3": write("series_dim3", [dict(identity_cochain(3).to_json_dict(),
                                                      order=1)])}


@pytest.mark.parametrize("argv, message", [
    (["cohomology", "--degree", "-1", "ALG"], "--degree must be >= 0"),
    (["mc-solve", "--phi1", "PHI_ARITY3", "--order", "2", "ALG"],
     "--phi1 must be an arity-2 cochain on the algebra"),
    (["mc-solve", "--phi1", "PHI_DIM3", "--order", "2", "ALG"],
     "--phi1 must be an arity-2 cochain on the algebra"),
    (["mc-solve", "--phi1", "PHI", "--order", "0", "ALG"], "--order must be >= 1"),
    (["gauge", "--series", "SERIES", "--order", "0", "ALG"], "--order must be >= 1"),
    (["gauge", "--series", "SERIES_DIM3", "--order", "2", "ALG"],
     "gauge series dimension does not match the algebra"),
    (["audit", "--all", "ALG"], "give either an algebra file or --all, not both"),
], ids=["negative-degree", "phi1-arity", "phi1-dim", "mc-solve-order", "gauge-order",
        "gauge-dim", "audit-file-and-all"])
def test_usage_refusals_exit_2(capsys, refusal_files, argv, message):
    # nothing on stdout and one error line on stderr
    code, out, err = run_capture(capsys, [refusal_files.get(a, a) for a in argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["cohomology", "--degree", "2", "--mode", "avg", "ALG"],
    ["bracket", "--mode", "avg", "PHI", "PHI"],
    ["mc-solve", "--phi1", "PHI", "--order", "2", "--mode", "avg", "ALG"],
], ids=["cohomology", "bracket", "mc-solve"])
def test_unknown_mode_exits_2(capsys, refusal_files, argv):
    # argparse refuses a mode outside its choices before any command runs
    code, out, err = run_capture(capsys, [refusal_files.get(a, a) for a in argv])
    assert (code, out) == (2, "") and "invalid choice: 'avg'" in err


def test_audit_of_an_algebra_outside_the_corpus_names_its_path(capsys, tmp_path):
    p = tmp_path / "spin.json"
    p.write_text(json.dumps(algebra_to_json_dict(make_spin([1, 2]))), encoding="utf-8")
    code, out, _ = run_capture(capsys, ["audit", str(p)])
    assert code == 0 and json.loads(out)["algebra"] == str(p)


def test_audit_discrepancies_exit_zero(capsys, corpus_dir):
    # failing claims are data, not process failures
    code, out, _ = run_capture(capsys, ["audit", corpus_path(corpus_dir, "j2_1_0")])
    assert code == 0
    doc = json.loads(out)
    assert any(c["verdict"] == "fails" for c in doc["claims"])


def test_audit_output_deterministic(capsys):
    _, out1, _ = run_capture(capsys, ["audit", "--all"])
    _, out2, _ = run_capture(capsys, ["audit", "--all"])
    assert out1 == out2


def test_internal_invariant_exits_1(capsys, corpus_dir, monkeypatch):
    import symlie.cli as cli

    def boom(args):
        raise InvariantViolation("synthetic failure")

    monkeypatch.setitem(cli.__dict__, "_cmd_check", boom)
    # rebuild parser defaults pick up the patched handler
    code, _, err = run_capture(capsys, ["check", corpus_path(corpus_dir, "field")])
    assert code == 1
    assert "invariant" in err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def _cli_pin_doc(tmp_path, monkeypatch, capsys) -> str:
    """In-process stdout of the commands that `audit --all`'s pin does not cover, on
    seeded rational algebra and cochain files at d = 2-4, zero operands included.
    The files are named relative to tmp_path, so the documents do not name it."""
    monkeypatch.chdir(tmp_path)
    runs = []

    def write(name, doc):
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
        return name

    def call(*argv):
        code = run(list(argv))
        runs.append({"argv": list(argv), "code": code, "out": capsys.readouterr().out})

    rng = random.Random(4099)
    zero_alg = write("zero.json", {"dim": 2, "labels": ["e", "u"], "sc": []})
    call("derivations", zero_alg)
    for d in (2, 3, 4):
        A = random_rational_commutative(rng, d)
        spin = make_spin([Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3))
                          for _ in range(d - 1)])
        a, s = (write(f"{name}{d}.json", algebra_to_json_dict(B))
                for name, B in (("A", A), ("spin", spin)))
        f, g, h = (random_cochain(rng, n, d, sparsity=0.4) for n in (2, 1, 3))
        names = {name: write(f"{name}{d}.json", c.to_json_dict()) for name, c in (
            ("f", f), ("g", g), ("h", h), ("z", SymCochain.zero(2, d)))}
        for mode in ("sum", "paper"):
            for x, y in (("f", "g"), ("f", "f"), ("g", "g"), ("h", "f"), ("f", "z"), ("z", "g")):
                call("bracket", "--mode", mode, names[x], names[y])
        # phi1 = mu/2 is solvable at order 2, as [mu, mu] = d mu; a gauge-orbit
        # coboundary on the spin factor and a random term are obstructed
        half_mu = write(f"mu{d}.json", product_cochain(A).scale(Fraction(1, 2)).to_json_dict())
        call("mc-solve", "--phi1", half_mu, "--order", "3", a)
        phi = write(f"phi{d}.json", differential(spin, g).to_json_dict())
        call("mc-solve", "--phi1", phi, "--order", "3", s)
        call("mc-solve", "--phi1", names["f"], "--order", "2", "--mode", "paper", a)
        call("mc-solve", "--phi1", names["z"], "--order", "2", s)
        series = write(f"series{d}.json", [dict(g.to_json_dict(), order=1),
                                           dict(random_cochain(rng, 1, d).to_json_dict(), order=3)])
        call("gauge", "--series", series, "--order", "3", a)
        for alg in (a, s):
            call("derivations", alg)
        for mode in ("sum", "paper"):
            call("cohomology", "--degree", "3", "--mode", mode, s if d == 4 else a)
    e = write("e.json", SymCochain.from_entries(2, 2, [((0, 0), 0, 1)]).to_json_dict())
    call("mc-solve", "--phi1", e, "--order", "2", zero_alg)
    statuses = {o["status"] for r in runs if r["argv"][0] == "mc-solve"
                for o in json.loads(r["out"])["orders"]}
    assert statuses == {"given", "solved", "obstructed"}
    assert all(r["code"] == 0 for r in runs)
    return json.dumps(runs, sort_keys=True)


# sha256 of _cli_pin_doc: bracket, mc-solve, gauge, derivations and cohomology stdout,
# recorded while cochains stored d-long value vectors
CLI_SHA256 = "e874de9ab092b823d436ad46b34aa83d868ca28ffade39ec6cb490695490c5fa"


def test_cli_commands_pinned(tmp_path, monkeypatch, capsys):
    doc = _cli_pin_doc(tmp_path, monkeypatch, capsys)
    assert hashlib.sha256(doc.encode()).hexdigest() == CLI_SHA256


# Documents for the reader fuzz: well-formed shapes at dim, arity and order <= 3 on
# one dimension, now and then with an index, a field or an entry spoiled, and
# arbitrary JSON values.
SMALL = st.integers(-1, 3)
RATIONALS = st.sampled_from(["0", "1", "-1", "1/2", "-2/3", "3"])
JSON = st.recursive(
    st.none() | st.booleans() | SMALL | st.floats(-3, 3) | st.text(max_size=4)
    | st.sampled_from(["1/0", "x", "0.5", "2"]),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(
        st.sampled_from(["dim", "labels", "sc", "i", "j", "k", "c", "n", "coeffs",
                         "multiset", "order"]) | st.text(max_size=3), kids, max_size=5),
    max_leaves=12)


def _rarely(draw, strategy, value):
    """value, or about once in eight draws, a draw from strategy."""
    return draw(strategy) if draw(st.integers(0, 7)) == 7 else value


def _spoil(draw, doc):
    """doc, or rarely doc with one field swapped for arbitrary JSON."""
    key = draw(st.sampled_from(sorted(doc)))
    return _rarely(draw, JSON.map(lambda v: dict(doc, **{key: v})), doc)


def _algebra_doc(draw, d):
    def index():
        return _rarely(draw, SMALL, draw(st.integers(0, d - 1)))
    labels = _rarely(draw, st.lists(st.sampled_from("ab"), max_size=3),
                     [f"e{i}" for i in range(d)])
    sc = []
    for _ in range(draw(st.integers(0, 4))):
        i, j, k, c = index(), index(), index(), draw(RATIONALS)
        sc.append({"i": i, "j": j, "k": k, "c": c})
        if i != j and _rarely(draw, st.just(False), True):
            sc.append({"i": j, "j": i, "k": k, "c": c})
    dim = _rarely(draw, SMALL, d)
    return _spoil(draw, {"dim": dim, "labels": labels, "sc": [_spoil(draw, e) for e in sc]})


def _cochain_doc(draw, d, n):
    def index():
        return _rarely(draw, SMALL, draw(st.integers(0, d - 1)))
    coeffs = [{"multiset": sorted(index() for _ in range(n)), "k": index(), "c": draw(RATIONALS)}
              for _ in range(draw(st.integers(0, 3)))]
    return _spoil(draw, {"n": n, "dim": d, "coeffs": [_spoil(draw, e) for e in coeffs]})


@st.composite
def _documents(draw):
    """(algebra, cochain f, cochain g, series), each rarely arbitrary JSON."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    series = [_spoil(draw, dict(_cochain_doc(draw, d, 1), order=_rarely(draw, SMALL, i)))
              for i in range(1, draw(st.integers(1, 3)) + 1)]
    docs = (_algebra_doc(draw, d), _cochain_doc(draw, d, n),
            _cochain_doc(draw, d, _rarely(draw, st.integers(0, 3), 3 - n)), series)
    return tuple(_rarely(draw, JSON, doc) for doc in docs)


@given(_documents())
def test_cli_readers_refuse_cleanly(docs):
    """Generated and arbitrary documents through check, bracket and gauge, in
    process: each run exits 0, or exits 2 with nothing on stdout, and none raises."""
    with tempfile.TemporaryDirectory() as tmp:
        alg, f, g, series = (str(Path(tmp, f"{name}.json")) for name in "afgs")
        for path, doc in zip((alg, f, g, series), docs):
            Path(path).write_text(json.dumps(doc), encoding="utf-8")
        for argv in (["check", alg], ["bracket", f, g],
                     ["gauge", "--series", series, "--order", "1", alg]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            assert code in (0, 2), (argv, docs, err.getvalue())
            if code == 2:
                assert not out.getvalue() and err.getvalue().startswith("error: ")
