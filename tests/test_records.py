"""The package's records: construction, defaults, equality and validation; what
importing the package loads, the names it exports, and the imports of its modules."""

import ast
import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest

import symlie

from symlie import (AuditReport, ClaimRecord, CohomologyReport, CorpusEntry, DeformationSeries,
                    DifferentialData, GaugeSeries, IdentityReport, InsertionMode, MCStep,
                    Matrix, ObstructionClass, SymCochain, Witness, complexes,
                    differential_matrix, identity_cochain, make_j2, make_spin)
from symlie.complexes import DSquaredReport

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "symlie"
SUM, PAPER = InsertionMode.SUM, InsertionMode.PAPER
J2 = make_j2(1, 0)
MU, PHI = SymCochain.zero(2, 2), identity_cochain(2)
WIT = Witness((), (Fraction(1),), (Fraction(2),))
OBS = ObstructionClass(SymCochain.zero(3, 2), True, ())
ZERO = Matrix(3, 2, [[0, 0]] * 3)

# (record type, its positional arguments, its defaulted fields with their defaults)
RECORDS = [
    (Witness, ((), (Fraction(1),), (Fraction(2),)), {"note": ""}),
    (IdentityReport, (False,), {"witness": None}),
    (ClaimRecord, ("PRELIE", "sum", "fails"), {"witness": None, "detail": ""}),
    (AuditReport, ("j2_1_0", []), {"data": {}}),
    (DifferentialData, (SUM, 1, ZERO), {"multiple_of": None}),
    (DSquaredReport, (1, PAPER, True, False), {"witness": None}),
    (CohomologyReport, (2, SUM, 3, 4, True, 4, None), {}),
    (CorpusEntry, ("j2_1_0", J2), {"expected": {}}),
    (DeformationSeries, (J2, 1, [MU]), {"mode": SUM}),
    (GaugeSeries, (1, [PHI]), {}),
    (ObstructionClass, (SymCochain.zero(3, 2), False, (Fraction(1, 2),)), {}),
    (MCStep, (2, True), {"solution": None, "obstruction": None}),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]
# a value for each defaulted field that differs from its default
OTHER = {"note": "n", "witness": WIT, "detail": "d", "data": {"k": 1},
         "multiple_of": DifferentialData(SUM, 1, ZERO), "expected": {"cubic": "holds"},
         "mode": PAPER, "solution": MU, "obstruction": OBS}


def _names(cls):
    init = cls.__init__.__code__
    return init.co_varnames[1:init.co_argcount]


@pytest.mark.parametrize("cls, args, defaults", RECORDS, ids=IDS)
def test_construction_positional_and_by_keyword_with_defaults(cls, args, defaults):
    names = _names(cls)
    assert names[len(args):] == tuple(defaults)
    rec = cls(*args)
    for name, value in zip(names, args + tuple(defaults.values())):
        assert getattr(rec, name) == value, name
    assert cls(**dict(zip(names, args))) == rec
    given = args + tuple(OTHER[name] for name in defaults)
    by_position, by_keyword = cls(*given), cls(**dict(zip(names, given)))
    for name, value in zip(names, given):
        assert getattr(by_position, name) is value and getattr(by_keyword, name) is value, name


def test_default_dicts_are_not_shared():
    a, b = AuditReport("x", []), AuditReport("x", [])
    a.data["k"] = 1
    assert b.data == {} and a.data is not b.data
    c, d = CorpusEntry("x", J2), CorpusEntry("x", J2)
    c.expected["cubic"] = "holds"
    assert d.expected == {} and c.expected is not d.expected


@pytest.mark.parametrize("cls, args, defaults", RECORDS, ids=IDS)
def test_equality_by_type_and_fields_and_unhashable(cls, args, defaults):
    rec = cls(*args)
    assert rec == cls(*args) and not rec != cls(*args)
    if defaults:
        name = next(iter(defaults))
        if name != "multiple_of":
            assert rec != cls(*args, OTHER[name])
    assert rec != args and rec != object()
    assert cls.__name__ in repr(rec)
    with pytest.raises(TypeError, match="unhashable"):
        hash(rec)


def test_records_of_different_types_are_unequal():
    assert IdentityReport(True) != ClaimRecord(True, None, "holds")

    class Sub(Witness):
        pass

    assert Sub(*RECORDS[0][1]) != Witness(*RECORDS[0][1])
    assert Witness(*RECORDS[0][1]) != Sub(*RECORDS[0][1])


@pytest.fixture
def ranked(monkeypatch):
    """The shapes of the matrices `complexes` ranks, in call order."""
    shapes, real_rank = [], complexes.rank

    def counting_rank(m):
        shapes.append((m.rows, m.cols))
        return real_rank(m)

    monkeypatch.setattr(complexes, "rank", counting_rank)
    return shapes


def test_differential_data_compares_and_prints_without_multiple_of_and_rank(ranked):
    s = DifferentialData(SUM, 0, differential_matrix(make_spin([1, 2, -3]), 0, SUM).matrix)
    alone, tied = DifferentialData(PAPER, 0, s.matrix), DifferentialData(PAPER, 0, s.matrix, s)
    assert alone == tied and repr(alone) == repr(tied)
    assert "multiple_of" not in repr(tied) and "rank" not in repr(tied)
    assert tied.rank == alone.rank == tied.rank == alone.rank == s.rank == 4
    assert alone == tied and repr(alone) == repr(tied)
    # alone ranks its matrix once; tied reads s's rank, which ranks it once more
    assert ranked == [(16, 4)] * 2


def test_paper_d0_reads_the_sum_rank(ranked):
    A = make_spin([1, 2, -3])
    paper, sum_ = differential_matrix(A, 0, PAPER), differential_matrix(A, 0, SUM)
    assert paper.multiple_of is sum_
    assert [paper.rank, sum_.rank, paper.rank, sum_.rank] == [4] * 4
    assert ranked == [(16, 4)]


def test_series_refuse_wrong_terms_with_their_messages():
    with pytest.raises(ValueError, match="^need exactly `order` series terms$"):
        DeformationSeries(J2, 2, [MU])
    with pytest.raises(ValueError, match="^series terms must be arity-2 cochains on the base "
                                         "algebra$"):
        DeformationSeries(J2, 1, [SymCochain.zero(1, 2)])
    with pytest.raises(ValueError, match="^series terms must be arity-2 cochains on the base "
                                         "algebra$"):
        DeformationSeries(J2, 1, [SymCochain.zero(2, 3)])
    with pytest.raises(ValueError, match="^need exactly `order` series terms$"):
        GaugeSeries(0, [PHI])
    with pytest.raises(ValueError, match="^gauge terms must be arity-1 cochains$"):
        GaugeSeries(1, [MU])
    with pytest.raises(ValueError, match="^gauge term at order 2 has dimension 3, "
                                         "but the term at order 1 has dimension 2$"):
        GaugeSeries(2, [PHI, identity_cochain(3)])


def _modules(code: str) -> set:
    """The modules loaded after running `code` in a fresh interpreter on ./src."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code + "\nimport sys\nprint(*sys.modules)"],
                         capture_output=True, text=True, env=env, cwd=ROOT, timeout=60, check=True)
    return set(out.stdout.split())


def test_import_graph():
    # the CLI starts without the code generation of `dataclasses` and what it
    # imports; whatever `site` loads in a bare interpreter does not count
    bare = _modules("")
    added = _modules("import symlie.cli") - bare
    assert "symlie.cli" in added
    assert {"dataclasses", "inspect"} & added == set()
    # the package is eager: importing it loads every layer, so a tracer that
    # wraps the loaded symlie.* modules sees them all
    layers = {f"symlie.{p.stem}" for p in SRC.glob("*.py")
              if p.stem not in ("__init__", "__main__", "cli")}
    assert layers <= _modules("import symlie")


# what `symlie` exports: every public name but its submodules.  A name added
# here is API that README and the tests then have to carry
EXPORTS = [
    "Algebra", "AuditReport", "ClaimRecord", "CohomologyReport", "CorpusEntry",
    "DeformationSeries", "DifferentialData", "FormatError", "GaugeSeries", "IdentityReport",
    "InsertionMode", "InvariantViolation", "MCStep", "Matrix", "ObstructionClass", "SymCochain",
    "Witness", "algebra_from_entries", "algebra_from_json_dict", "algebra_to_json_dict", "audit",
    "audit_all", "basis_cochains", "check_cubic_jordan", "check_d_squared", "check_jacobi",
    "check_operator_identity", "check_prelie", "check_six_term", "coboundary_c1_explicit",
    "coboundary_c2_explicit", "coeff_vector", "cohomology", "corpus_entries", "derivations",
    "differential", "differential_matrix", "endomorphism_cochain", "find_unit",
    "from_coeff_vector", "gauge_equiv_first_order", "gauge_transport", "gauge_transport_series",
    "graded_bracket", "identity_cochain", "insert", "insert_lowdeg_variant", "kernel_basis",
    "make_field", "make_j2", "make_non_jordan", "make_spin", "mc_order0", "mc_residual",
    "mc_solve_chain", "mc_solve_step", "multiplication_operator", "multisets",
    "obstruction_class", "product", "product_cochain", "rank", "rat_from_str", "rat_to_str",
    "render_text", "solve", "sym_basis_dim", "unshuffles", "write_corpus"]
# helpers that only the tests called, taken out of the package
REMOVED = ["rref", "symmetrize", "linear_combine", "unshuffle_permutations", "associator",
           "sc", "zeros", "from_rows", "add", "mul_vec", "inverse", "parse_mode", "is_zero",
           "_prefactor", "_cached_prefactor"]


def test_exported_names_are_pinned():
    public = sorted(name for name, value in vars(symlie).items()
                    if not name.startswith("_") and not isinstance(value, ModuleType))
    assert public == EXPORTS
    modules = [importlib.import_module(f"symlie.{p.stem}") for p in sorted(SRC.glob("*.py"))
               if p.stem not in ("__init__", "__main__")]
    for owner in [symlie, *modules, Matrix, symlie.Algebra, GaugeSeries]:
        assert [name for name in REMOVED if hasattr(owner, name)] == [], owner


def _unused_imports(tree) -> list:
    """The names a module imports and never reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_modules_read_every_name_they_import():
    # `__init__` imports to export; every other module reads what it imports
    unused = {p.name: names for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"
              if (names := _unused_imports(ast.parse(p.read_text(encoding="utf-8"))))}
    assert unused == {}


def test_package_reads_every_private_definition():
    # a `_`-prefixed function, method or class that no module of the package reads
    # is dead code: a refactor that strands a helper fails here instead of leaving it
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))]
    defined = [node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")]
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    assert [name for name in defined if name not in read] == []
