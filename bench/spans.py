"""Tracing `symlie` from outside, and the per-layer metrics derived from it.

`Tracer.install` replaces every public function of every `symlie.*` module at
each name it is bound to (modules import each other's functions by name),
plus `Matrix.mul`, `SymCochain.evaluate` and both classes' constructors.
A wrapper around an `lru_cache` sits outside the cache, so a hit is a short
span.  Each call becomes a span (name, start, end, parent, op id) kept in
memory and written as JSON lines at the end.  Hot leaves are only counted.

The layer of a span is the module that defines the function, whatever
module it was called through.  A span's self time is its duration minus
that of its child spans; time in unwrapped helpers counts to the nearest
wrapped caller.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from math import comb
from pathlib import Path
from types import FunctionType, ModuleType

LAYERS = ("exactla", "cochain", "algebra", "bracket", "complexes", "deformation", "audit", "cli")
# called so often, with so little work per call, that a span each would
# swamp the measurement
HOT = {"exactla": {"rat_from_str", "rat_to_str", "vzero", "vadd", "vsub", "vscale",
                   "vec_to_strs"},
       "cochain": {"multisets", "sym_basis_dim"},
       "algebra": {"product"},
       "bracket": {"koszul_sign", "parse_mode"}}


def _rref_attrs(args, kwargs):
    m = args[0]
    return {"entries": m.rows * m.cols, "nnz": sum(1 for row in m.data for x in row if x)}


def _insert_attrs(args, kwargs):
    f, g = args[0], args[1]
    N = f.n + g.n - 1
    return {"scanned": comb(f.dim + N - 1, N) if f.n else 0}


def _insert_post(result, attrs):
    attrs["useful"] = len(result.coeffs)


PROBES = {"exactla.rref": (_rref_attrs, None), "bracket.insert": (_insert_attrs, _insert_post)}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.stack = [0]
        self.next_id = 1
        self.op = None
        self.import_s = 0.0
        self.caches: dict = {}

    def span(self, fn, name):
        probe, post = PROBES.get(name, (None, None))
        clock = time.perf_counter
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            attrs = None
            if probe:  # its time is part of this span, and taken out of its self time
                attrs = probe(args, kwargs)
                attrs["probe_s"] = clock() - t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, parent, self.op, t0, t1, attrs))
            if post:
                post(result, attrs)
            return result
        return wrapper

    def counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, self.op)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        wrapped: dict = {}
        for modname, mod in list(sys.modules.items()):
            if not (modname == "symlie" or modname.startswith("symlie.")) \
                    or not isinstance(mod, ModuleType):
                continue
            for attr, obj in list(vars(mod).items()):
                home = getattr(obj, "__module__", None) or ""
                if attr.startswith("_") or isinstance(obj, type) or not home.startswith("symlie.") \
                        or not (isinstance(obj, FunctionType) or hasattr(obj, "cache_info")):
                    continue
                if id(obj) not in wrapped:
                    layer = home.split(".")[1]
                    name = f"{layer}.{obj.__name__}"
                    if hasattr(obj, "cache_info"):
                        self.caches[name] = obj
                    hot = obj.__name__ in HOT.get(layer, ()) or inspect.isgeneratorfunction(obj)
                    wrapped[id(obj)] = (self.counter if hot else self.span)(obj, name)
                setattr(mod, attr, wrapped[id(obj)])
        Matrix = sys.modules["symlie.exactla"].Matrix
        SymCochain = sys.modules["symlie.cochain"].SymCochain
        Matrix.mul = self.span(Matrix.mul, "exactla.mul")
        Matrix.__init__ = self.span(Matrix.__init__, "exactla.matrix_new")
        SymCochain.evaluate = self.span(SymCochain.evaluate, "cochain.evaluate")
        SymCochain.__init__ = self.span(SymCochain.__init__, "cochain.symcochain_new")

    def cache_stats(self) -> dict:
        return {name: tuple(fn.cache_info())[:2] for name, fn in self.caches.items()}

    def dump(self, path: Path, extra: dict | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")
            fh.write(json.dumps({"counts": [[k[0], k[1], n] for k, n in self.counts.items()],
                                 "import_s": self.import_s, **(extra or {})}) + "\n")


# ---------------------------------------------------------------------------
# derivation of the per-layer metrics from span files

def read_pass(files) -> tuple[list, dict, float, dict]:
    """All spans of a pass (span ids made unique per file), counts per
    (name, op), total import time and the cache statistics of each file."""
    spans, counts, import_s, caches = [], {}, 0.0, {}
    for num, path in enumerate(sorted(files)):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if isinstance(rec, list):
                    sid, name, parent, op, t0, t1, attrs = rec
                    spans.append(((num, sid), name, (num, parent), op, t0, t1, attrs))
                    continue
                for name, op, n in rec["counts"]:
                    counts[(name, op)] = counts.get((name, op), 0) + n
                import_s += rec["import_s"]
                for name, (h0, m0, h1, m1) in rec.get("cache", {}).items():
                    acc = caches.setdefault(name, [0, 0])
                    acc[0] += h1 - h0
                    acc[1] += m1 - m0
    return spans, counts, import_s, caches


def op_counts(spans, counts) -> dict:
    """Calls per (name, op): what must repeat exactly between traced runs."""
    out = dict(counts)
    for _, name, _, op, _, _, _ in spans:
        out[(name, op)] = out.get((name, op), 0) + 1
    return out


def layer_metrics(spans, counts, import_s, caches) -> dict:
    """The per-layer metrics over the spans of timed operations."""
    spans = [s for s in spans if s[3] is not None]
    child = {}
    for sid, _, parent, _, t0, t1, _ in spans:
        child[parent] = child.get(parent, 0.0) + (t1 - t0)
    self_by_name: dict = {}
    calls: dict = {}
    attrs_sum: dict = {}
    for sid, name, _, _, t0, t1, attrs in spans:
        attrs = attrs or {}
        self_by_name[name] = self_by_name.get(name, 0.0) + (t1 - t0) - child.get(sid, 0.0) \
            - attrs.get("probe_s", 0.0)
        calls[name] = calls.get(name, 0) + 1
        for k, v in attrs.items():
            attrs_sum[(name, k)] = attrs_sum.get((name, k), 0) + v
    for (name, op), n in counts.items():
        if op is not None:
            calls[name] = calls.get(name, 0) + n

    def self_s(name):
        return self_by_name.get(name, 0.0)

    m = {f"{layer}.self_s": (sum(v for k, v in self_by_name.items()
                                 if k.split(".")[0] == layer), "s") for layer in LAYERS}
    for name in ("exactla.rref", "exactla.solve", "exactla.kernel_basis", "exactla.mul",
                 "exactla.matrix_new", "cochain.evaluate", "algebra.check_cubic_jordan",
                 "algebra.check_operator_identity", "bracket.insert", "bracket.check_prelie",
                 "bracket.check_jacobi", "complexes.differential_matrix",
                 "complexes.ad_half_bracket_matrix", "complexes.check_d_squared",
                 "complexes.cohomology", "deformation.mc_solve_step",
                 "deformation.class_modulo_image", "deformation.gauge_transport"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("exactla.rref", "exactla.mul", "exactla.matrix_new", "cochain.evaluate",
                 "cochain.symcochain_new", "algebra.check_cubic_jordan", "algebra.product",
                 "bracket.insert", "audit.audit"):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    m["exactla.rref.entries"] = (attrs_sum.get(("exactla.rref", "entries"), 0), "count")
    m["exactla.rref.nnz"] = (attrs_sum.get(("exactla.rref", "nnz"), 0), "count")
    scanned = attrs_sum.get(("bracket.insert", "scanned"), 0)
    m["bracket.insert.out_entries"] = (scanned, "count")
    m["bracket.insert.useful_ratio"] = (
        attrs_sum.get(("bracket.insert", "useful"), 0) / scanned if scanned else 0.0, "ratio")
    m["cli.import_s"] = (import_s, "s")
    hits, misses = caches.get("complexes.differential_matrix", (None, None))
    m["complexes.differential_matrix.cache_hit_ratio"] = (
        None if hits is None else (hits / (hits + misses) if hits + misses else 0.0), "ratio")
    return m
