"""Finite-dimensional commutative algebras, each stored once as its product
2-cochain mu, multiplication operators, and the three polarized identity
checkers (cubic Jordan, cyclic six-term, linearized operator identity), all
reading one sparse integer associator table built from mu's nonzero pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product as iproduct
from math import lcm

from .cochain import SymCochain
from .exactla import Matrix, json_int, rat_from_str, rat_to_str, solve, vec_to_strs


class Algebra:
    """Commutative algebra on basis e_0..e_{d-1}.

    The product is stored once, as its 2-cochain mu (ints over one denominator),
    so construction follows the nonzero structure constants; sc[i][j], the
    value vector of e_i * e_j, is a read-only view.  Commutativity is enforced
    at construction time.  Instances are immutable in value and hashable; `_ops`
    is a memo, filled on first use, of the integer product table, the sparse
    associator table, the `sc` view and the operator matrices of `complexes`.
    """

    __slots__ = ("dim", "labels", "_mu", "_ops")

    def __init__(self, dim: int, labels, sc):
        self._build(dim, labels, (((i, j), tuple(Fraction(x) for x in sc[i][j]))
                                  for i in range(dim) for j in range(dim)))

    def _build(self, dim: int, labels, pairs) -> Algebra:
        """Store mu from ((i, j), e_i * e_j) pairs, which are read after the
        shape checks; the first non-commuting (i, j), j < i, is reported."""
        if dim < 1:
            raise ValueError("algebra dimension must be >= 1")
        labels = tuple(str(x) for x in labels)
        if len(labels) != dim:
            raise ValueError("need one label per basis element")
        vecs = {}
        for ij, vec in pairs:
            if len(vec) != dim:
                raise ValueError("structure constant vector has wrong length")
            if any(vec):
                vecs[ij] = vec
        bad = [(max(ij), min(ij)) for ij, vec in vecs.items() if vecs.get(ij[::-1]) != vec]
        if bad:
            raise ValueError("structure constants not commutative at (%d,%d)" % min(bad))
        self.dim, self.labels, self._ops = dim, labels, {}
        self._mu = SymCochain(2, dim, {(i, j): vec for (i, j), vec in vecs.items() if i <= j})
        return self

    @property
    def sc(self):
        """Read-only dense view: sc[i][j] is the value vector of e_i * e_j."""
        if "sc" not in self._ops:
            self._ops["sc"] = tuple(tuple(self._mu.value_at((i, j)) for j in range(self.dim))
                                    for i in range(self.dim))
        return self._ops["sc"]

    def __eq__(self, other):
        return (isinstance(other, Algebra) and self.dim == other.dim
                and self.labels == other.labels and self._mu == other._mu)

    def __hash__(self):
        return hash((self.dim, self.labels, self._mu.den, frozenset(self._mu.num.items())))

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
    vecs = {}
    for i, j, k, val in entries:
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ValueError(f"structure constant index out of range: {(i, j, k)}")
        vecs.setdefault((i, j), [0] * dim)[k] += Fraction(val)
    return Algebra.__new__(Algebra)._build(dim, labels, ((ij, tuple(v)) for ij, v in vecs.items()))


def _table(A: Algebra):
    """(T, D, E): ints T[i][j] == D * (e_i * e_j), unit vectors E.  Kept on A."""
    if "table" not in A._ops:
        mu = product_cochain(A)
        E = [tuple(int(t == i) for t in range(A.dim)) for i in range(A.dim)]
        A._ops["table"] = ([[mu.num.get((min(i, j), max(i, j)), (0,) * A.dim)
                             for j in range(A.dim)] for i in range(A.dim)], mu.den, E)
    return A._ops["table"]


def _mul(T, x, y) -> list:
    """sum x_i y_j T[i][j]: the product of x and y, over one more factor D."""
    out = [0] * len(x)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    for k, t in enumerate(T[i][j]):
                        if t:
                            out[k] += a * b * t
    return out


def _sides(T, x, y, z):
    """((x*y)*z, x*(y*z)) on the table, over two more factors D."""
    return _mul(T, _mul(T, x, y), z), _mul(T, x, _mul(T, y, z))


def _assoc_table(A: Algebra) -> dict:
    """{(i, j, k): D^2 A(e_i, e_j, e_k) as d ints} at the nonzero triples, D the
    product table's denominator.  Built from the nonzero pairs of mu: w = D^2
    (e_i*e_j)*e_k is added at (i, j, k) and, as e_k*(e_i*e_j), subtracted at
    (k, i, j), so its cost follows mu's nonzeros.  Kept on A."""
    if "assoc" not in A._ops:
        (T, _, _), d, acc = _table(A), A.dim, {}
        rows, zero = [[(k, t) for k, t in enumerate(T[m]) if any(t)] for m in range(d)], (0,) * d
        for (a, b), v in A._mu.num.items():
            ws = {}  # k: D^2 (e_a*e_b)*e_k
            for m, c in enumerate(v):
                for k, t in rows[m] if c else ():
                    ws[k] = [w + c * x for w, x in zip(ws.get(k, zero), t)]
            for (i, j), (k, w) in iproduct({(a, b), (b, a)}, ws.items()):
                acc[i, j, k] = [r + x for r, x in zip(acc.get((i, j, k), zero), w)]
                acc[k, i, j] = [r - x for r, x in zip(acc.get((k, i, j), zero), w)]
        A._ops["assoc"] = {key: tuple(row) for key, row in acc.items() if any(row)}
    return A._ops["assoc"]


def _on_fractions(A: Algebra, op, *vecs) -> tuple[Fraction, ...]:
    """op(*vecs), ints over D ** (len(vecs) - 1), at general vectors, as Fractions."""
    vecs = [[Fraction(t) for t in v] for v in vecs]
    if any(len(v) != A.dim for v in vecs):
        raise ValueError("vector length does not match algebra dimension")
    D = _table(A)[1]
    return tuple(Fraction(t) / D ** (len(vecs) - 1) for t in op(*vecs))


def product(A: Algebra, x, y) -> tuple[Fraction, ...]:
    """Bilinear extension of the structure constants."""
    return _on_fractions(A, lambda x, y: _mul(_table(A)[0], x, y), x, y)


def multiplication_operator(A: Algebra, v) -> Matrix:
    """Matrix of x -> x * v in the chosen basis: column j is e_j * v on the table."""
    v = [Fraction(t) for t in v]
    if len(v) != A.dim:
        raise ValueError("vector length does not match algebra dimension")
    T, D, E = _table(A)
    s = lcm(*(t.denominator for t in v))
    cols = [_mul(T, E[j], [t.numerator * (s // t.denominator) for t in v]) for j in range(A.dim)]
    return Matrix._from_ints(A.dim, A.dim, [{j: c[k] for j, c in enumerate(cols)}
                                            for k in range(A.dim)], D * s)


def find_unit(A: Algebra):
    """Unique two-sided unit, or None.  Solves e * e_j = e_j for all j on the
    table: row (j, k) holds coordinate k of e_i * e_j at column i."""
    T, D, E = _table(A)
    d = A.dim
    return solve(Matrix._from_ints(d * d, d, [{i: T[i][j][k] for i in range(d)}
                                               for j in range(d) for k in range(d)], D),
                 [Fraction(x) for e in E for x in e])


def product_cochain(A: Algebra) -> SymCochain:
    """The product as a symmetric 2-cochain: the stored mu, not a copy."""
    return A._mu


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

def _report(A: Algebra, den: int, tuples, value, note: str,
            pair=None, pair_note: str = "") -> IdentityReport:
    """The identity fails where value(*idx), ints over den, is nonzero at a
    basis tuple of `tuples`.  The witness is then the first basis pair (i, j)
    whose sides pair(i, j) differ, else the first failing tuple."""
    failing = next(((idx, v) for idx in tuples if any(v := value(*idx))), None)
    if failing is None:
        return IdentityReport(True)
    (idx, left), right = failing, (0,) * A.dim
    for ij in iproduct(range(A.dim), repeat=2) if pair else ():
        sides = pair(*ij)
        if sides[0] != sides[1]:
            idx, (left, right), note = ij, sides, pair_note
            break
    left, right = (tuple(Fraction(t, den) for t in v) for v in (left, right))
    return IdentityReport(False, Witness(tuple(A.basis_vector(i) for i in idx), left, right, note))


def check_cubic_jordan(A: Algebra) -> IdentityReport:
    """(x*y)*(x*x) == x*(y*(x*x)), decided via full polarization in x: at
    (e_i, e_j, e_k; e_l), twice the sum of A(e_a, e_l, e_b*e_c) over the three
    picks of a from (i, j, k).  That is symmetric in (i, j, k), so only sorted
    triples are walked; the first failing 4-tuple in order is among them."""
    (T, D, E), R = _table(A), _assoc_table(A)
    nz = [[[(m, t) for m, t in enumerate(v) if t] for v in row] for row in T]

    def polarized(i, j, k, l):  # A(e_a, e_l, e_b*e_c) = sum_m (e_b*e_c)_m R[a, l, m]
        out = [0] * A.dim
        for a, b, c in ((i, j, k), (j, i, k), (k, i, j)):
            for m, t in nz[b][c]:
                for n, x in enumerate(R.get((a, l, m), ())):
                    out[n] += 2 * t * x
        return out

    return _report(
        A, D ** 3, (ijk + (l,) for ijk in combinations_with_replacement(range(A.dim), 3)
                    for l in range(A.dim)), polarized,
        "trilinear polarization of the cubic identity at a basis 4-tuple",
        lambda i, j: _sides(T, E[i], E[j], T[i][i]),
        "cubic identity at a basis pair (x, y)")


def associator(A: Algebra, x, y, z):
    """A(x,y,z) = (x*y)*z - x*(y*z)."""
    def on_table(x, y, z):  # sum x_i y_j z_k R[i, j, k]
        out = [0] * A.dim
        for (i, j, k), r in _assoc_table(A).items():
            for n, t in enumerate(r if (c := x[i] * y[j] * z[k]) else ()):
                out[n] += c * t
        return out
    return _on_fractions(A, on_table, x, y, z)


def _six_term_at(A: Algebra, i: int, j: int, k: int) -> list:
    """R[i,j,k] + R[j,k,i] + R[k,i,j] on the table R: the cyclic associator sum, over D^2."""
    R, zero = _assoc_table(A), (0,) * A.dim
    return [p + q + r for p, q, r in zip(R.get((i, j, k), zero), R.get((j, k, i), zero),
                                         R.get((k, i, j), zero))]


def check_six_term(A: Algebra) -> IdentityReport:
    return _report(A, _table(A)[1] ** 2, iproduct(range(A.dim), repeat=3),
                   lambda i, j, k: _six_term_at(A, i, j, k),
                   "cyclic associator sum at a basis triple")


def check_operator_identity(A: Algebra) -> IdentityReport:
    """L_{x*x} == L_x L_x, decided via A(e_i, e_j, e_k) + A(e_j, e_i, e_k) == 0."""
    T, D, E = _table(A)
    R, zero = _assoc_table(A), (0,) * A.dim
    return _report(
        A, D ** 2, iproduct(range(A.dim), repeat=3),
        lambda i, j, k: [p + q for p, q in zip(R.get((i, j, k), zero), R.get((j, i, k), zero))],
        "polarized operator identity at a basis triple",
        lambda i, j: _sides(T, E[i], E[i], E[j]),
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
                   for i, j in pairs for k, c in enumerate(mu.num[min(i, j), max(i, j)]) if c]}


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
    entries = {}
    for item in raw:
        try:
            i, j, k = (json_int(item[key], key) for key in "ijk")
            c = rat_from_str(item["c"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad structure constant entry: {exc}") from None
        if (i, j, k) in entries:
            raise ValueError(f"duplicate structure constant entry ({i},{j},{k})")
        entries[i, j, k] = c
    return algebra_from_entries(dim, labels, ((*ijk, c) for ijk, c in entries.items()))
