"""Exact linear algebra over the rationals.

Scalars are `fractions.Fraction` (arbitrary precision, always reduced,
positive denominator), so every operation in the package is exact.

A `Matrix` stores dense rows of Fractions.  Elimination runs on a sparse
integer copy: each nonzero row, scaled by the lcm of its denominators,
becomes {column: int} with zeros left out.  In each column the pivot is the
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


def vscale(c, a):
    return tuple(c * x for x in a)


def vec_to_strs(v) -> list[str]:
    return [rat_to_str(x) for x in v]


class Matrix:
    """Dense rational matrix. Not mutated after construction."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list[list[Fraction]]):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("matrix data does not match shape")
        self.rows = rows
        self.cols = cols
        self.data = [[x if type(x) is Fraction else Fraction(x) for x in r] for r in data]

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [[Fraction(0)] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)])

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        if not rows:
            raise ValueError("need at least one row")
        return cls(len(rows), len(rows[0]), rows)

    @classmethod
    def from_columns(cls, cols, rows: int) -> "Matrix":
        cols = [list(c) for c in cols]
        data = [[cols[j][i] for j in range(len(cols))] for i in range(rows)]
        return cls(rows, len(cols), data)

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.data[i][j] for i in range(self.rows))

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        nonzeros = [[(j, x) for j, x in enumerate(brow) if x] for brow in other.data]
        out = [[Fraction(0)] * other.cols for _ in range(self.rows)]
        for row, orow in zip(self.data, out):
            for a, bnz in zip(row, nonzeros):
                if a:
                    for j, x in bnz:
                        orow[j] += a * x
        return Matrix(self.rows, other.cols, out)

    def mul_vec(self, v) -> tuple[Fraction, ...]:
        v = list(v)
        if len(v) != self.cols:
            raise ValueError("shape mismatch in matrix-vector product")
        return tuple(sum((r[j] * v[j] for j in range(self.cols) if v[j]), Fraction(0))
                     for r in self.data)

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        return Matrix(self.rows, self.cols,
                      [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)])

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix(self.rows, self.cols, [[c * x for x in r] for r in self.data])

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.data for x in r)

    def to_strs(self) -> list[list[str]]:
        return [[rat_to_str(x) for x in r] for r in self.data]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# elimination on sparse primitive integer rows

def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _integer_rows(data) -> list[dict[int, int]]:
    """The nonzero rows, in order, each scaled by the lcm of its denominators
    to a primitive sparse integer row."""
    out = []
    for row in data:
        nz = [(j, x) for j, x in enumerate(row) if x]
        if nz:
            den = lcm(*(x.denominator for _, x in nz))
            out.append(_primitive({j: x.numerator * (den // x.denominator) for j, x in nz}))
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


def _reduced(data) -> tuple[list[dict[int, Fraction]], tuple[int, ...]]:
    """The nonzero rows of the reduced row echelon form as sparse Fraction
    rows, and the pivot columns."""
    rows, pivots = _eliminate(_integer_rows(data), reduced=True)
    return [{j: Fraction(x, r[p]) for j, x in r.items()} for r, p in zip(rows, pivots)], pivots


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns (deterministic)."""
    red, pivots = _reduced(m.data)
    zero = Fraction(0)
    data = [[zero] * m.cols for _ in range(m.rows)]
    for dense, row in zip(data, red):
        for j, x in row.items():
            dense[j] = x
    return Matrix(m.rows, m.cols, data), pivots


def rank(m: Matrix) -> int:
    return len(_eliminate(_integer_rows(m.data), reduced=False)[1])


def kernel_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space, one vector per free column,
    in reduced echelon form (free variable set to 1, pivots back-filled)."""
    red, pivots = _reduced(m.data)
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
    red, pivots = _reduced([row + [bb] for row, bb in zip(m.data, b)])
    if pivots and pivots[-1] == m.cols:
        return None
    x = [Fraction(0)] * m.cols
    for row, p in zip(red, pivots):
        if m.cols in row:
            x[p] = row[m.cols]
    return tuple(x)
