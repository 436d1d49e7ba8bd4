"""Finite-dimensional commutative algebras, each stored once as its product
2-cochain mu, multiplication operators, and the three polarized identity
checkers (cubic Jordan, cyclic six-term, linearized operator identity), all
reading one sparse integer associator table built from mu's nonzero pairs.
Products read mu's sparse rows mu.num[min(i, j), max(i, j)] directly, on
vectors held as {index: nonzero}.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, product as iproduct
from math import lcm

from .cochain import SymCochain, _over_one_den
from .exactla import (Matrix, Record, _transpose, json_fields, json_int, json_list, rat_from_str,
                      rat_to_str, vec_to_strs)


class Algebra:
    """Commutative algebra on basis e_0..e_{d-1}.

    The product is stored once, as its 2-cochain mu (ints over one denominator),
    so construction follows the nonzero structure constants; `product_cochain`
    returns it, and `mu.value_at((i, j))` is the value vector of e_i * e_j.
    Commutativity is enforced at construction time.  Instances are immutable
    in value and hashable.  What is derived from mu and kept (the sparse
    associator table, [mu, mu] and the operator matrices of `complexes`) lives
    in `_ops`, read and filled only through `_kept`.
    """

    __slots__ = ("dim", "labels", "_mu", "_ops")

    def __init__(self, dim: int, labels, sc):
        def entries():  # the dense table sc[i][j][k] as entries, each vector's length checked
            for i, j in iproduct(range(dim), repeat=2):
                if len(sc[i][j]) != dim:
                    raise ValueError("structure constant vector has wrong length")
                yield from ((i, j, k, x) for k, x in enumerate(sc[i][j]))
        self._build(dim, labels, entries())

    def _build(self, dim: int, labels, entries) -> Algebra:
        """Store mu from sparse (i, j, k, value) entries, read after the dim and
        label checks: repeated entries add up and zero sums drop out, so only the
        nonzero pairs are held; the first non-commuting (i, j), j < i, is reported."""
        if dim < 1:
            raise ValueError("algebra dimension must be >= 1")
        labels = tuple(str(x) for x in labels)
        if len(labels) != dim:
            raise ValueError("need one label per basis element")
        rows = {}
        for i, j, k, val in entries:
            if not (type(i) is type(j) is type(k) is int
                    and 0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"structure constant index out of range: {(i, j, k)}")
            row = rows.setdefault((i, j), {})
            row[k] = row.get(k, 0) + Fraction(val)
        rows = {ij: r for ij, row in rows.items() if (r := {k: x for k, x in row.items() if x})}
        bad = [(max(ij), min(ij)) for ij, row in rows.items() if rows.get(ij[::-1]) != row]
        if bad:
            raise ValueError("structure constants not commutative at (%d,%d)" % min(bad))
        self.dim, self.labels, self._ops = dim, labels, {}
        self._mu = SymCochain._from_ints(2, dim, *_over_one_den(2, dim, {
            (i, j): row for (i, j), row in rows.items() if i <= j}))
        return self

    def __eq__(self, other):
        return (isinstance(other, Algebra) and self.dim == other.dim
                and self.labels == other.labels and self._mu == other._mu)

    def __hash__(self):
        return hash((self.dim, self.labels, tuple(self._mu.items())))

    def __repr__(self):
        return f"Algebra(dim={self.dim}, labels={list(self.labels)})"

    def basis_vector(self, i: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(1 if t == i else 0) for t in range(self.dim))

    def render_vector(self, v) -> str:
        """Human-readable combination like "6*u" or "e - 2*u"."""
        return render_linear(self.labels, v)


def _kept(A: Algebra, key, build):
    """A._ops[key], from build() on its first read: each value derived from mu is
    computed once and dies with A.  The only reader and writer of `_ops`."""
    if key not in A._ops:
        A._ops[key] = build()
    return A._ops[key]


def render_linear(names, v) -> str:
    """The linear combination sum v[i]*names[i], e.g. "alpha - 1/2*delta"."""
    parts = [name if c == 1 else f"-{name}" if c == -1 else f"{rat_to_str(c)}*{name}"
             for name, c in zip(names, map(Fraction, v)) if c]
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def algebra_from_entries(dim: int, labels, entries) -> Algebra:
    """Build from sparse (i, j, k, value) entries; omitted triples are zero."""
    return Algebra.__new__(Algebra)._build(dim, labels, entries)


def _mul(mu, x, y) -> dict:
    """sum x_i y_j mu[i, j] on mu.num, x and y as {index: value}: the product, over one
    more factor of mu's denominator, with no zero entry."""
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            for k, t in mu.get((min(i, j), max(i, j)), {}).items():
                out[k] = out.get(k, 0) + a * b * t
    return {k: v for k, v in out.items() if v}


def _sides(mu, x, y, z):
    """((x*y)*z, x*(y*z)) on mu.num, over two more factors of its denominator."""
    return _mul(mu, _mul(mu, x, y), z), _mul(mu, x, _mul(mu, y, z))


def _assoc_table(A: Algebra) -> dict:
    """{(i, j, k): D^2 A(e_i, e_j, e_k) as {n: nonzero int}} at the nonzero triples, D
    mu's denominator.  Built from the nonzero pairs of mu: w = D^2 (e_i*e_j)*e_k is
    added at (i, j, k) and, as e_k*(e_i*e_j), subtracted at (k, i, j), so its cost
    follows mu's nonzeros.  Kept on A."""
    def build():
        mu, d, acc = A._mu.num, A.dim, {}
        rows = [[(k, mu[ij]) for k in range(d) if (ij := (min(m, k), max(m, k))) in mu]
                for m in range(d)]  # rows[m]: the (k, D e_m*e_k) with e_m*e_k nonzero
        for (a, b), v in mu.items():
            ws = {}  # k: D^2 (e_a*e_b)*e_k
            for m, c in v.items():
                for k, t in rows[m]:
                    w = ws.setdefault(k, {})
                    for n, x in t.items():
                        w[n] = w.get(n, 0) + c * x
            for (i, j), (k, w) in iproduct({(a, b), (b, a)}, ws.items()):
                for key, s in (((i, j, k), 1), ((k, i, j), -1)):
                    r = acc.setdefault(key, {})
                    for n, x in w.items():
                        r[n] = r.get(n, 0) + s * x
        return {key: r for key, row in acc.items()
                if (r := {n: x for n, x in row.items() if x})}
    return _kept(A, "assoc", build)


def product(A: Algebra, x, y) -> tuple[Fraction, ...]:
    """Bilinear extension of the structure constants: mu evaluated at (x, y)."""
    return A._mu.evaluate((x, y))


def multiplication_operator(A: Algebra, v) -> Matrix:
    """Matrix of x -> x * v in the chosen basis: column j is e_j * v on mu."""
    v = [Fraction(t) for t in v]
    if len(v) != A.dim:
        raise ValueError("vector length does not match algebra dimension")
    s = lcm(*(t.denominator for t in v))
    v = {i: t.numerator * (s // t.denominator) for i, t in enumerate(v) if t}
    cols = [_mul(A._mu.num, {j: 1}, v) for j in range(A.dim)]
    return Matrix._from_ints(A.dim, A.dim, _transpose(cols, A.dim), A._mu.den * s)


def product_cochain(A: Algebra) -> SymCochain:
    """The product as a symmetric 2-cochain: the stored mu, not a copy."""
    return A._mu


# ---------------------------------------------------------------------------
# identity reports

class Witness(Record):
    __slots__ = _fields = ("inputs", "left", "right", "note")

    def __init__(self, inputs: tuple, left: tuple, right: tuple, note: str = ""):
        self.inputs, self.left, self.right, self.note = inputs, left, right, note

    def to_json_dict(self) -> dict:
        return {
            "inputs": [vec_to_strs(v) for v in self.inputs],
            "left": vec_to_strs(self.left),
            "right": vec_to_strs(self.right),
            "note": self.note,
        }


class IdentityReport(Record):
    __slots__ = _fields = ("holds", "witness")

    def __init__(self, holds: bool, witness: Witness | None = None):
        self.holds, self.witness = holds, witness

    def to_json_dict(self) -> dict:
        return {
            "verdict": "holds" if self.holds else "fails",
            "witness": None if self.witness is None else self.witness.to_json_dict(),
        }


# ---------------------------------------------------------------------------
# checkers.  Each works with the complete multilinearization on basis tuples,
# which over the rationals is equivalent to the original identity; a direct
# basis-pair witness is preferred when one exists.

def _report(A: Algebra, den: int, tuples, value, note: str,
            pair=None, pair_note: str = "") -> IdentityReport:
    """The identity fails where value(*idx), {n: int} over den, is nonzero at a
    basis tuple of `tuples`.  The witness is then the first basis pair (i, j)
    whose sides pair(i, j) differ, else the first failing tuple."""
    failing = next(((idx, v) for idx in tuples if any((v := value(*idx)).values())), None)
    if failing is None:
        return IdentityReport(True)
    (idx, left), right = failing, {}
    for ij in iproduct(range(A.dim), repeat=2) if pair else ():
        sides = pair(*ij)
        if sides[0] != sides[1]:
            idx, (left, right), note = ij, sides, pair_note
            break
    left, right = (tuple(Fraction(v.get(t, 0), den) for t in range(A.dim)) for v in (left, right))
    return IdentityReport(False, Witness(tuple(A.basis_vector(i) for i in idx), left, right, note))


def check_cubic_jordan(A: Algebra) -> IdentityReport:
    """(x*y)*(x*x) == x*(y*(x*x)), decided via full polarization in x: at
    (e_i, e_j, e_k; e_l), twice the sum of A(e_a, e_l, e_b*e_c) over the three
    picks of a from (i, j, k).  That is symmetric in (i, j, k), so only sorted
    triples are walked; the first failing 4-tuple in order is among them."""
    mu, R = A._mu.num, _assoc_table(A)

    def polarized(i, j, k, l):  # A(e_a, e_l, e_b*e_c) = sum_m (e_b*e_c)_m R[a, l, m], b <= c
        out = {}
        for a, b, c in ((i, j, k), (j, i, k), (k, i, j)):
            for m, t in mu.get((b, c), {}).items():
                for n, x in R.get((a, l, m), {}).items():
                    out[n] = out.get(n, 0) + 2 * t * x
        return out

    return _report(
        A, A._mu.den ** 3, (ijk + (l,) for ijk in combinations_with_replacement(range(A.dim), 3)
                            for l in range(A.dim)), polarized,
        "trilinear polarization of the cubic identity at a basis 4-tuple",
        lambda i, j: _sides(mu, {i: 1}, {j: 1}, mu.get((i, i), {})),
        "cubic identity at a basis pair (x, y)")


def _assoc_sum(A: Algebra, *keys) -> dict:
    """The sum of the rows R[key] of the associator table, {n: int} over D^2; at the
    keys (i, j, k), (j, k, i), (k, i, j) it is the cyclic associator sum."""
    out, R = {}, _assoc_table(A)
    for key in keys:
        for n, x in R.get(key, {}).items():
            out[n] = out.get(n, 0) + x
    return out


def check_six_term(A: Algebra) -> IdentityReport:
    return _report(A, A._mu.den ** 2, iproduct(range(A.dim), repeat=3),
                   lambda i, j, k: _assoc_sum(A, (i, j, k), (j, k, i), (k, i, j)),
                   "cyclic associator sum at a basis triple")


def check_operator_identity(A: Algebra) -> IdentityReport:
    """L_{x*x} == L_x L_x, decided via A(e_i, e_j, e_k) + A(e_j, e_i, e_k) == 0."""
    return _report(
        A, A._mu.den ** 2, iproduct(range(A.dim), repeat=3),
        lambda i, j, k: _assoc_sum(A, (i, j, k), (j, i, k)),
        "polarized operator identity at a basis triple",
        lambda i, j: _sides(A._mu.num, {i: 1}, {i: 1}, {j: 1}),
        "operator identity (x*x)*y vs x*(x*y) at a basis pair")


# ---------------------------------------------------------------------------
# JSON format: {"dim": d, "labels": [...], "sc": [{"i":..,"j":..,"k":..,"c":"p/q"}, ...]};
# omitted triples are zero, and files violating commutativity are rejected.

def algebra_to_json_dict(A: Algebra) -> dict:
    """Entries in (i, j, k) order over both orders of each nonzero pair of mu."""
    mu = A._mu
    pairs = sorted({p for i, j in mu.num for p in ((i, j), (j, i))})
    return {"dim": A.dim, "labels": list(A.labels),
            "sc": [{"i": i, "j": j, "k": k, "c": rat_to_str(Fraction(c, mu.den))}
                   for i, j in pairs for k, c in sorted(mu.num[min(i, j), max(i, j)].items())]}


def algebra_from_json_dict(d: dict) -> Algebra:
    dim, labels, raw = json_fields(d, "algebra document", ("dim", "labels", "sc"))
    dim = json_int(dim, "dim")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels) \
            or len(set(labels)) != len(labels):
        raise ValueError("labels must be a list of distinct strings")
    entries = {}
    for item in json_list(raw, "sc"):
        *ijk, c = json_fields(item, "structure constant entry", "ijkc",
                              "bad structure constant entry")
        ijk = tuple(json_int(x, key) for x, key in zip(ijk, "ijk"))
        if ijk in entries:
            raise ValueError("duplicate structure constant entry (%d,%d,%d)" % ijk)
        entries[ijk] = rat_from_str(c)
    return algebra_from_entries(dim, labels, ((*ijk, c) for ijk, c in entries.items()))
