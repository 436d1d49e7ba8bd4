"""Exact linear algebra over the rationals.

Scalars are `fractions.Fraction` (arbitrary precision, always reduced,
positive denominator), so every operation in the package is exact.

A `Matrix` stores sparse rows {column: Fraction} with no stored zeros, so
products, sums and comparisons walk only the nonzeros.  Elimination runs on
an integer copy: each nonzero row, scaled by the lcm of its denominators,
becomes a primitive row {column: int}.  In each column the pivot is the
first remaining row, in row order, with a nonzero there.  A row with entry
b in that column, against pivot entry a, becomes (a/g) row - (b/g) pivot
with g = gcd(a, b), and is then divided by its content, so rows stay
primitive and no Fraction is built until the pivot rows are read back.
`rank` stops after this forward pass; `rref`, `kernel_basis` and `solve`
also clear each pivot column from the other pivot rows.

Results are exact because every step is integer arithmetic.  They are
deterministic because the reduced row echelon form of a matrix is unique:
pivot columns, kernel bases (one vector per free column) and particular
solutions (free variables zeroed) are read off it, so downstream reports
are byte-stable across runs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

_RAT_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_ZERO = Fraction(0)


def rat_from_str(s: str) -> Fraction:
    """Parse "p/q" or "p". Raises ValueError on anything else."""
    if not isinstance(s, str):
        raise ValueError(f"rational must be a string, got {type(s).__name__}")
    m = _RAT_RE.match(s.strip())
    if m is None:
        raise ValueError(f"not a rational literal: {s!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator: {s!r}")
    return Fraction(num, den)


def json_int(x, name: str) -> int:
    """A JSON integer read as is: floats, booleans and strings are refused."""
    if type(x) is not int:
        raise ValueError(f"{name} must be a JSON integer, got {x!r}")
    return x


def rat_to_str(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# vectors: plain tuples of Fractions

def vzero(n: int) -> tuple[Fraction, ...]:
    return (Fraction(0),) * n


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_to_strs(v) -> list[str]:
    return [rat_to_str(x) for x in v]


class Matrix:
    """Sparse rational matrix, never mutated: row i is {column: Fraction} with no stored
    zeros, from dense rows `data` or taken as is from `srows=`; `.data` is a dense copy per read."""

    __slots__ = ("rows", "cols", "srows")

    def __init__(self, rows: int, cols: int, data: list[list[Fraction]] | None = None, *,
                 srows: list[dict[int, Fraction]] | None = None):
        if srows is None:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("matrix data does not match shape")
            srows = [{j: y for j, x in enumerate(r) if (y := Fraction(x))} for r in data]
        self.rows, self.cols, self.srows = rows, cols, srows

    @property
    def data(self) -> list[list[Fraction]]:
        return [[row.get(j, _ZERO) for j in range(self.cols)] for row in self.srows]

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, srows=[{} for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, srows=[{i: Fraction(1)} for i in range(n)])

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        if not rows:
            raise ValueError("need at least one row")
        return cls(len(rows), len(rows[0]), rows)

    @classmethod
    def from_columns(cls, cols, rows: int) -> "Matrix":
        cols = [list(c) for c in cols]
        for j, col in enumerate(cols):
            if len(col) != rows:
                raise ValueError(f"column {j} has length {len(col)}, expected {rows}")
        return cls(rows, len(cols), srows=[
            {j: y for j, col in enumerate(cols) if (y := Fraction(col[i]))} for i in range(rows)])

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row.get(j, _ZERO) for row in self.srows)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        # on ints: other over one common denominator D, each row of self over its own q
        D = lcm(*(x.denominator for r in other.srows for x in r.values()))
        right = [{j: x.numerator * (D // x.denominator) for j, x in r.items()} for r in other.srows]
        out = []
        for row in self.srows:
            q = lcm(*(x.denominator for x in row.values()))
            acc: dict[int, int] = {}
            for k, a in row.items():
                a = a.numerator * (q // a.denominator)
                for j, x in right[k].items():
                    acc[j] = acc.get(j, 0) + a * x
            out.append({j: Fraction(x, q * D) for j, x in acc.items() if x})
        return Matrix(self.rows, other.cols, srows=out)

    def mul_vec(self, v) -> tuple[Fraction, ...]:
        v = list(v)
        if len(v) != self.cols:
            raise ValueError("shape mismatch in matrix-vector product")
        return tuple(sum((x * v[j] for j, x in row.items()), Fraction(0)) for row in self.srows)

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        return Matrix(self.rows, self.cols, srows=[
            {j: x for j in ra.keys() | rb.keys() if (x := ra.get(j, 0) + rb.get(j, 0))}
            for ra, rb in zip(self.srows, other.srows)])

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix(self.rows, self.cols,
                      srows=[{j: c * x for j, x in r.items()} if c else {} for r in self.srows])

    def is_zero(self) -> bool:
        return not any(self.srows)

    def to_strs(self) -> list[list[str]]:
        return [[rat_to_str(x) for x in r] for r in self.data]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.srows == other.srows)

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# elimination on sparse primitive integer rows

def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _integer_rows(srows) -> list[dict[int, int]]:
    """The nonzero rows, in order, each over the lcm of its denominators, made primitive."""
    out = []
    for row in srows:
        if row:
            den = lcm(*(x.denominator for x in row.values()))
            out.append(_primitive({j: x.numerator * (den // x.denominator) for j, x in row.items()}))
    return out


def _combine(row: dict[int, int], piv: dict[int, int], c: int) -> dict[int, int]:
    """(a/g) row - (b/g) piv with a = piv[c], b = row[c], g = gcd(a, b): the
    combination that is zero in column c, with its content divided out."""
    a, b = piv[c], row[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {j: a * x for j, x in row.items()}
    for j, y in piv.items():
        v = out.get(j, 0) - b * y
        if v:
            out[j] = v
        else:
            del out[j]
    return _primitive(out) if out else out


def _eliminate(rows: list[dict[int, int]], reduced: bool):
    """Fraction-free elimination of sparse integer rows.

    Returns the pivot rows and their pivot columns, both in column order.
    With `reduced`, each pivot column is also cleared from the other pivot
    rows, so that pivot row i divided by its entry at pivots[i] is row i of
    the reduced row echelon form."""
    remaining = rows
    pivot_rows: list[dict[int, int]] = []
    pivots: list[int] = []
    # a combination is nonzero only where one of its rows is, so no other
    # column can ever hold a pivot
    for c in sorted(set().union(*rows)):
        piv = next((r for r in remaining if c in r), None)
        if piv is None:
            continue
        pivot_rows.append(piv)
        pivots.append(c)
        remaining = [r if c not in r else _combine(r, piv, c) for r in remaining if r is not piv]
        remaining = [r for r in remaining if r]
        if not remaining:
            break
    if reduced:
        # bottom-up: pivot row k is already clear of every later pivot column
        for k in range(len(pivots) - 1, 0, -1):
            c, piv = pivots[k], pivot_rows[k]
            for i in range(k):
                if c in pivot_rows[i]:
                    pivot_rows[i] = _combine(pivot_rows[i], piv, c)
    return pivot_rows, tuple(pivots)


def _reduced(srows) -> tuple[list[dict[int, Fraction]], tuple[int, ...]]:
    """The nonzero rows of the reduced row echelon form as sparse Fraction
    rows, and the pivot columns."""
    rows, pivots = _eliminate(_integer_rows(srows), reduced=True)
    return [{j: Fraction(x, r[p]) for j, x in r.items()} for r, p in zip(rows, pivots)], pivots


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns (deterministic)."""
    red, pivots = _reduced(m.srows)
    return Matrix(m.rows, m.cols, srows=red + [{} for _ in range(m.rows - len(red))]), pivots


def rank(m: Matrix) -> int:
    srows = m.srows
    if m.rows > m.cols:  # rank m = rank m^T, which has fewer rows to combine
        srows = [{} for _ in range(m.cols)]
        for i, row in enumerate(m.srows):
            for j, x in row.items():
                srows[j][i] = x
    return len(_eliminate(_integer_rows(srows), reduced=False)[1])


def kernel_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space, one vector per free column,
    in reduced echelon form (free variable set to 1, pivots back-filled)."""
    red, pivots = _reduced(m.srows)
    pivset = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivset:
            continue
        v = [Fraction(0)] * m.cols
        v[free] = Fraction(1)
        for row, p in zip(red, pivots):
            if free in row:
                v[p] = -row[free]
        basis.append(tuple(v))
    return basis


def solve(m: Matrix, b) -> tuple[Fraction, ...] | None:
    """One particular solution of m x = b (free variables zeroed),
    or None if the system is inconsistent."""
    b = [Fraction(x) for x in b]
    if len(b) != m.rows:
        raise ValueError("right-hand side has wrong length")
    # b is column m.cols of the augmented rows, stored where it is nonzero
    red, pivots = _reduced([{**row, m.cols: bb} if bb else row for row, bb in zip(m.srows, b)])
    if pivots and pivots[-1] == m.cols:
        return None
    x = [Fraction(0)] * m.cols
    for row, p in zip(red, pivots):
        if m.cols in row:
            x[p] = row[m.cols]
    return tuple(x)
