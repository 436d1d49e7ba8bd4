"""Command-line front end.

Every command reads algebra/cochain JSON files and writes a single JSON
document to standard output.  Exit codes: 0 success (audit discrepancies
are data, not failures); 1 an internal invariant failed; 2 malformed input
or bad usage.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import (Algebra, algebra_from_json_dict, check_cubic_jordan,
                      check_operator_identity, check_six_term)
from .audit import audit, audit_all
from .bracket import InsertionMode, graded_bracket
from .cochain import SymCochain
from .complexes import cohomology, derivations
from .corpus import corpus_entries
from .deformation import (GaugeSeries, gauge_transport, mc_order0, mc_residual,
                          mc_solve_chain, series_from_json_list)
from .errors import FormatError, InvariantViolation


def _load(path: str, read):
    """read(the JSON document at path); an unreadable or invalid file, or a
    document that read refuses with ValueError, is a FormatError naming path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return read(json.load(fh))
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise FormatError(f"{path} is nested too deeply to read") from None
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def load_algebra(path: str) -> Algebra:
    return _load(path, algebra_from_json_dict)


# ---------------------------------------------------------------------------
# command handlers, each returning the JSON document to print

def _cmd_check(args) -> dict:
    A = load_algebra(args.algebra)
    six = check_six_term(A)
    return {
        "algebra": args.algebra,
        "cubic": check_cubic_jordan(A).to_json_dict(),
        "operator": check_operator_identity(A).to_json_dict(),
        "six_term": {
            "verdict": "vacuous" if six.holds else "fails",
            "witness": None if six.witness is None else six.witness.to_json_dict(),
        },
    }


def _cmd_derivations(args) -> dict:
    A = load_algebra(args.algebra)
    basis = derivations(A)
    return {"algebra": args.algebra, "dim": len(basis), "basis": [m.to_strs() for m in basis]}


def _cmd_cohomology(args) -> dict:
    A = load_algebra(args.algebra)
    if args.degree < 0:
        raise FormatError("--degree must be >= 0")
    return cohomology(A, args.degree, InsertionMode(args.mode)).to_json_dict()


def _cmd_bracket(args) -> dict:
    f = _load(args.f, SymCochain.from_json_dict)
    g = _load(args.g, SymCochain.from_json_dict)
    if f.dim != g.dim:
        raise FormatError("cochain files have different ambient dimensions")
    return graded_bracket(f, g, InsertionMode(args.mode)).to_json_dict()


def _cmd_mc_solve(args) -> dict:
    A = load_algebra(args.algebra)
    mode = InsertionMode(args.mode)
    phi1 = _load(args.phi1, SymCochain.from_json_dict)
    if phi1.n != 2 or phi1.dim != A.dim:
        raise FormatError("--phi1 must be an arity-2 cochain on the algebra")
    if args.order < 1:
        raise FormatError("--order must be >= 1")
    series, failed = mc_solve_chain(A, phi1, args.order, mode)
    orders = [{"order": 1, "status": "given", "term": phi1.to_json_dict(),
               "residual_is_zero": mc_residual(series, 1)[0].is_zero()}]
    orders += [{"order": n, "status": "solved", "term": series.term(n).to_json_dict()}
               for n in range(2, series.order + 1)]
    obstruction = None
    if failed is not None:
        obstruction = dict(failed.obstruction.to_json_dict(), order=failed.order)
        orders.append({"order": failed.order, "status": "obstructed", "term": None})
    return {"algebra": args.algebra, "mode": mode.value, "order": args.order,
            "order0": mc_order0(series).to_json_dict(),
            "orders": orders, "obstruction": obstruction}


def _cmd_gauge(args) -> dict:
    A = load_algebra(args.algebra)
    if args.order < 1:
        raise FormatError("--order must be >= 1")
    # transport truncated at t^N reads f_1..f_N only
    terms = _load(args.series, lambda doc: series_from_json_list(doc, 1, upto=args.order))
    if any(t.dim != A.dim for t in terms):
        raise FormatError("gauge series dimension does not match the algebra")
    T = GaugeSeries(len(terms), terms)
    out = gauge_transport(T, A, args.order)
    return {"algebra": args.algebra, "order": args.order, "terms": out.to_json_list()}


def _cmd_audit(args) -> object:
    if args.all and args.algebra:
        raise FormatError("give either an algebra file or --all, not both")
    if args.all:
        return [rep.to_json_dict() for rep in audit_all()]
    if not args.algebra:
        raise FormatError("audit needs an algebra file or --all")
    A = load_algebra(args.algebra)
    for entry in corpus_entries():
        if entry.algebra == A:
            return audit(A, entry.name).to_json_dict()
    return audit(A, args.algebra).to_json_dict()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symlie",
        description="Exact engine and claim auditor for the graded bracket "
                    "on symmetric cochains of commutative algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the three identity checkers")
    p.add_argument("algebra")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("derivations", help="basis of the derivation algebra")
    p.add_argument("algebra")
    p.set_defaults(fn=_cmd_derivations)

    p = sub.add_parser("cohomology", help="kernel/image/cohomology data at one degree")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--mode", default="sum", choices=["paper", "sum"])
    p.add_argument("algebra")
    p.set_defaults(fn=_cmd_cohomology)

    p = sub.add_parser("bracket", help="graded bracket of two cochain files")
    p.add_argument("--mode", default="sum", choices=["paper", "sum"])
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(fn=_cmd_bracket)

    p = sub.add_parser("mc-solve", help="order-by-order deformation solve")
    p.add_argument("--phi1", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--mode", default="sum", choices=["paper", "sum"])
    p.add_argument("algebra")
    p.set_defaults(fn=_cmd_mc_solve)

    p = sub.add_parser("gauge", help="exponential gauge transport of the product")
    p.add_argument("--series", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("algebra")
    p.set_defaults(fn=_cmd_gauge)

    p = sub.add_parser("audit", help="run the claim catalog")
    p.add_argument("algebra", nargs="?")
    p.add_argument("--all", action="store_true")
    p.set_defaults(fn=_cmd_audit)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc = args.fn(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolation, AssertionError) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
