"""Finite-dimensional commutative algebras given by structure constants,
multiplication operators, and the three polarized identity checkers
(cubic Jordan, cyclic six-term, linearized operator identity).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product as iproduct

from .cochain import SymCochain
from .exactla import (Matrix, json_int, rat_from_str, rat_to_str, solve, vadd,
                      vec_to_strs, vsub, vzero)


class Algebra:
    """Commutative algebra on basis e_0..e_{d-1}.

    sc[i][j] is the value vector of e_i * e_j; commutativity
    (sc[i][j] == sc[j][i]) is enforced at construction time.
    Instances are immutable in value and hashable; `_ops` is a memo of the
    operator matrices that `complexes` builds from the product, on first use.
    """

    __slots__ = ("dim", "labels", "sc", "_hash", "_ops")

    def __init__(self, dim: int, labels, sc):
        if dim < 1:
            raise ValueError("algebra dimension must be >= 1")
        labels = tuple(str(x) for x in labels)
        if len(labels) != dim:
            raise ValueError("need one label per basis element")
        table = []
        for i in range(dim):
            row = []
            for j in range(dim):
                vec = tuple(Fraction(x) for x in sc[i][j])
                if len(vec) != dim:
                    raise ValueError("structure constant vector has wrong length")
                row.append(vec)
            table.append(tuple(row))
        for i in range(dim):
            for j in range(i):
                if table[i][j] != table[j][i]:
                    raise ValueError(
                        f"structure constants not commutative at ({i},{j})")
        self.dim = dim
        self.labels = labels
        self.sc = tuple(table)
        self._hash = hash((dim, labels, self.sc))
        self._ops = {}

    def __eq__(self, other):
        return (isinstance(other, Algebra) and self.dim == other.dim
                and self.labels == other.labels and self.sc == other.sc)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Algebra(dim={self.dim}, labels={list(self.labels)})"

    def basis_vector(self, i: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(1 if t == i else 0) for t in range(self.dim))

    def render_vector(self, v) -> str:
        """Human-readable combination like "6*u" or "e - 2*u"."""
        return render_linear(self.labels, v)


def render_linear(names, v) -> str:
    """The linear combination sum v[i]*names[i], e.g. "alpha - 1/2*delta"."""
    parts = []
    for name, c in zip(names, v):
        c = Fraction(c)
        if c == 0:
            continue
        if c == 1:
            parts.append(name)
        elif c == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{rat_to_str(c)}*{name}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def algebra_from_entries(dim: int, labels, entries) -> Algebra:
    """Build from sparse (i, j, k, value) entries; omitted triples are zero."""
    table = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, val in entries:
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ValueError(f"structure constant index out of range: {(i, j, k)}")
        table[i][j][k] += Fraction(val)
    return Algebra(dim, labels, table)


def product(A: Algebra, x, y) -> tuple[Fraction, ...]:
    """Bilinear extension of the structure constants."""
    x = tuple(t if type(t) is Fraction else Fraction(t) for t in x)
    y = tuple(t if type(t) is Fraction else Fraction(t) for t in y)
    if len(x) != A.dim or len(y) != A.dim:
        raise ValueError("vector length does not match algebra dimension")
    out = list(vzero(A.dim))
    for i in range(A.dim):
        if x[i] == 0:
            continue
        for j in range(A.dim):
            if y[j] == 0:
                continue
            c = x[i] * y[j]
            vec = A.sc[i][j]
            for k in range(A.dim):
                if vec[k]:
                    out[k] += c * vec[k]
    return tuple(out)


def multiplication_operator(A: Algebra, v) -> Matrix:
    """Matrix of x -> x * v in the chosen basis."""
    cols = [product(A, A.basis_vector(j), v) for j in range(A.dim)]
    return Matrix.from_columns(cols, A.dim)


def find_unit(A: Algebra):
    """Unique two-sided unit, or None.  Solves e * e_j = e_j for all j."""
    rows, rhs = [], []
    for j in range(A.dim):
        for k in range(A.dim):
            rows.append([A.sc[i][j][k] for i in range(A.dim)])
            rhs.append(Fraction(1 if j == k else 0))
    sol = solve(Matrix.from_rows(rows), rhs)
    return sol


def product_cochain(A: Algebra) -> SymCochain:
    """The product as a symmetric 2-cochain."""
    coeffs = {}
    for i in range(A.dim):
        for j in range(i, A.dim):
            vec = A.sc[i][j]
            if any(vec):
                coeffs[(i, j)] = vec
    return SymCochain(2, A.dim, coeffs)


# ---------------------------------------------------------------------------
# identity reports

@dataclass
class Witness:
    inputs: tuple
    left: tuple
    right: tuple
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "inputs": [vec_to_strs(v) for v in self.inputs],
            "left": vec_to_strs(self.left),
            "right": vec_to_strs(self.right),
            "note": self.note,
        }


@dataclass
class IdentityReport:
    holds: bool
    witness: Witness | None = None

    def to_json_dict(self) -> dict:
        return {
            "verdict": "holds" if self.holds else "fails",
            "witness": None if self.witness is None else self.witness.to_json_dict(),
        }


# ---------------------------------------------------------------------------
# checkers.  Each works with the complete multilinearization on basis tuples,
# which over the rationals is equivalent to the original identity; a direct
# basis-pair witness is preferred when one exists.

def _cubic_sides(A, x, y):
    xx = product(A, x, x)
    left = product(A, product(A, x, y), xx)
    right = product(A, x, product(A, y, xx))
    return left, right


def check_cubic_jordan(A: Algebra) -> IdentityReport:
    """(x*y)*(x*x) == x*(y*(x*x)), decided via full polarization in x.

    The polarized sum is symmetric in (i, j, k), so only sorted triples are
    walked; the first failing 4-tuple in lexicographic order is among them."""
    basis = [A.basis_vector(i) for i in range(A.dim)]

    def term(a, b, c, y):
        bc = product(A, b, c)
        return vsub(product(A, product(A, a, y), bc),
                    product(A, a, product(A, y, bc)))

    failing = None
    for idx in (ijk + (l,) for ijk in combinations_with_replacement(range(A.dim), 3)
                for l in range(A.dim)):
        i, j, k, l = idx
        tot = vzero(A.dim)
        for p in permutations((i, j, k)):
            tot = vadd(tot, term(basis[p[0]], basis[p[1]], basis[p[2]], basis[l]))
        if any(tot):
            failing = (idx, tot)
            break
    if failing is None:
        return IdentityReport(True)
    # prefer a direct witness on basis pairs
    for i in range(A.dim):
        for j in range(A.dim):
            left, right = _cubic_sides(A, basis[i], basis[j])
            if left != right:
                return IdentityReport(False, Witness(
                    inputs=(basis[i], basis[j]), left=left, right=right,
                    note="cubic identity at a basis pair (x, y)"))
    idx, tot = failing
    return IdentityReport(False, Witness(
        inputs=tuple(basis[i] for i in idx), left=tot, right=vzero(A.dim),
        note="trilinear polarization of the cubic identity at a basis 4-tuple"))


def associator(A: Algebra, x, y, z):
    """A(x,y,z) = (x*y)*z - x*(y*z)."""
    return vsub(product(A, product(A, x, y), z), product(A, x, product(A, y, z)))


def six_term_value(A: Algebra, x, y, z):
    """Cyclic sum A(x,y,z) + A(y,z,x) + A(z,x,y)."""
    return vadd(vadd(associator(A, x, y, z), associator(A, y, z, x)),
                associator(A, z, x, y))


def check_six_term(A: Algebra) -> IdentityReport:
    basis = [A.basis_vector(i) for i in range(A.dim)]
    for idx in iproduct(range(A.dim), repeat=3):
        val = six_term_value(A, *(basis[i] for i in idx))
        if any(val):
            return IdentityReport(False, Witness(
                inputs=tuple(basis[i] for i in idx), left=val, right=vzero(A.dim),
                note="cyclic associator sum at a basis triple"))
    return IdentityReport(True)


def check_operator_identity(A: Algebra) -> IdentityReport:
    """L_{x*x} == L_x L_x, decided via polarization in x on basis tuples."""
    basis = [A.basis_vector(i) for i in range(A.dim)]

    def half(a, b, y):
        return vsub(product(A, product(A, a, b), y), product(A, a, product(A, b, y)))

    failing = None
    for idx in iproduct(range(A.dim), repeat=3):
        i, j, k = idx
        tot = vadd(half(basis[i], basis[j], basis[k]), half(basis[j], basis[i], basis[k]))
        if any(tot):
            failing = (idx, tot)
            break
    if failing is None:
        return IdentityReport(True)
    for i in range(A.dim):
        for j in range(A.dim):
            left = product(A, product(A, basis[i], basis[i]), basis[j])
            right = product(A, basis[i], product(A, basis[i], basis[j]))
            if left != right:
                return IdentityReport(False, Witness(
                    inputs=(basis[i], basis[j]), left=left, right=right,
                    note="operator identity (x*x)*y vs x*(x*y) at a basis pair"))
    idx, tot = failing
    return IdentityReport(False, Witness(
        inputs=tuple(basis[i] for i in idx), left=tot, right=vzero(A.dim),
        note="polarized operator identity at a basis triple"))


# ---------------------------------------------------------------------------
# JSON format: {"dim": d, "labels": [...], "sc": [{"i":..,"j":..,"k":..,"c":"p/q"}, ...]};
# omitted triples are zero, and files violating commutativity are rejected.

def algebra_to_json_dict(A: Algebra) -> dict:
    sc = []
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                c = A.sc[i][j][k]
                if c != 0:
                    sc.append({"i": i, "j": j, "k": k, "c": rat_to_str(c)})
    return {"dim": A.dim, "labels": list(A.labels), "sc": sc}


def algebra_from_json_dict(d: dict) -> Algebra:
    if not isinstance(d, dict):
        raise ValueError("algebra document must be an object")
    try:
        dim = json_int(d["dim"], "dim")
        labels = d["labels"]
        raw = d["sc"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"algebra document missing field: {exc}") from None
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels) \
            or len(set(labels)) != len(labels):
        raise ValueError("labels must be a list of distinct strings")
    if not isinstance(raw, list):
        raise ValueError("sc must be a list")
    seen = set()
    entries = []
    for item in raw:
        try:
            i, j, k = (json_int(item[key], key) for key in "ijk")
            c = rat_from_str(item["c"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad structure constant entry: {exc}") from None
        if (i, j, k) in seen:
            raise ValueError(f"duplicate structure constant entry ({i},{j},{k})")
        seen.add((i, j, k))
        entries.append((i, j, k, c))
    return algebra_from_entries(dim, labels, entries)
