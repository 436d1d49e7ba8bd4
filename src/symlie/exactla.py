"""Exact linear algebra over the rationals.

Scalars at the boundary are `fractions.Fraction` (arbitrary precision,
always reduced, positive denominator), so every result is exact.

A `Matrix` is stored as num / den: sparse integer rows {column: int} with no
stored zeros over one positive denominator, in lowest terms, so equality is
structural and products, sums and elimination walk only the nonzeros on ints.
Elimination takes the nonzero rows as stored, made primitive, in the order of
their leading columns.  In each column the pivot is the remaining row leading
there with the smallest |entry|, ties going to the earlier row: a small pivot
keeps the coefficients of the rows combined with it small (Bareiss 1968 on
growth, Markowitz 1957 on choosing pivots by cost).  A row with entry b in that
column, against pivot entry a, becomes (a/g) row - (b/g) pivot with
g = gcd(a, b), and is then divided by its content, so rows stay primitive.
`rank` stops after this forward pass; `kernel_basis` and `solve` also clear
each pivot column from the other pivot rows and read their answers off them.

Results are exact because every step is integer arithmetic, or a proof: when the
operator m holds at least _DENSE nonzeros per line of its short side, `rank`,
`kernel_basis` and `solve` first run an online echelon mod the prime _P on packed
rows, which stops at min(rows, cols) pivots or once too few rows are left.  Every
minor of the integer rows that is nonzero mod _P is a nonzero integer, so a rank
mod _P of min(rows, cols) proves full rank: `rank` returns it, `kernel_basis`
(rows >= cols) an empty basis, and `solve` None when [m | b] has full column rank.
Anything else is eliminated as above.  Results are deterministic because the
reduced row echelon form of a matrix is unique: pivot columns, kernel bases (one
vector per free column) and particular solutions (free variables zeroed) are read
off it, so downstream reports are byte-stable across runs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from heapq import heapify, heappop, heapreplace
from itertools import chain
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


def json_fields(d, what: str, names, missing: str = "") -> list:
    """[d[x] for x in names] from a JSON object d: ValueError "<what> must be an
    object" if d is not one, and "<missing>: 'x'" at the first absent field x,
    `missing` being "<what> missing field" unless given."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be an object")
    try:
        return [d[x] for x in names]
    except KeyError as exc:
        raise ValueError(f"{missing or what + ' missing field'}: {exc}") from None


def json_list(x, what: str) -> list:
    """x if it is a JSON list, else ValueError "<what> must be a list"."""
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a list")
    return x


class Record:
    """Base of the package's records, plain classes with `__slots__`.  `_fields`
    names the compared fields: records are equal when of one type with equal
    fields, their repr shows those fields, and they are unhashable."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ \
            else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


def rat_to_str(x: Fraction) -> str:
    x = x if type(x) is Fraction else Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# vectors: plain tuples of Fractions

def vec_to_strs(v) -> list[str]:
    return [rat_to_str(x) for x in v]


class Matrix:
    """Sparse rational matrix num / den, never mutated: rows {column: int} with no
    stored zeros over one den > 0, in lowest terms.  `data` (a dense copy per read),
    `column` and `to_strs` present Fractions."""

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, rows: int, cols: int, data: list[list[Fraction]]):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("matrix data does not match shape")
        data = [[x if type(x) is Fraction else Fraction(x) for x in r] for r in data]
        den = lcm(*(x.denominator for r in data for x in r))
        self._reduce(rows, cols, [{j: x.numerator * (den // x.denominator)
                                   for j, x in enumerate(r) if x} for r in data], den)

    def _reduce(self, rows: int, cols: int, num: list[dict[int, int]], den: int) -> None:
        """Store num / den (den > 0) in lowest terms, no stored zeros; rows already so are kept."""
        g = 1 if den == 1 else gcd(den, *chain.from_iterable(map(dict.values, num)))
        self.rows, self.cols, self.den = rows, cols, den // g
        self.num = num if g == 1 and all(map(all, map(dict.values, num))) else [
            {j: x // g for j, x in r.items() if x} for r in num]

    @classmethod
    def _from_ints(cls, rows: int, cols: int, num: list[dict[int, int]], den: int) -> "Matrix":
        """num / den from sparse int rows and den > 0; the shape is trusted."""
        out = cls.__new__(cls)
        out._reduce(rows, cols, num, den)
        return out

    @property
    def data(self) -> list[list[Fraction]]:
        return [[Fraction(r.get(j, 0), self.den) for j in range(self.cols)] for r in self.num]

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._from_ints(n, n, [{i: 1} for i in range(n)], 1)

    @classmethod
    def from_columns(cls, cols, rows: int) -> "Matrix":
        cols = [list(c) for c in cols]
        for j, col in enumerate(cols):
            if len(col) != rows:
                raise ValueError(f"column {j} has length {len(col)}, expected {rows}")
        return cls(rows, len(cols), [[col[i] for col in cols] for i in range(rows)])

    def column(self, j: int) -> tuple[Fraction, ...]:
        zero = Fraction(0)
        return tuple(Fraction(r[j], self.den) if j in r else zero for r in self.num)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for row in self.num:
            acc: dict[int, int] = {}
            for k, a in row.items():
                for j, x in other.num[k].items():
                    acc[j] = acc.get(j, 0) + a * x
            out.append({j: x for j, x in acc.items() if x})  # none stored where terms cancel
        return Matrix._from_ints(self.rows, other.cols, out, self.den * other.den)

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix._from_ints(self.rows, self.cols, [
            {j: c.numerator * x for j, x in r.items()} for r in self.num], self.den * c.denominator)

    def to_strs(self) -> list[list[str]]:
        return [[rat_to_str(x) for x in r] for r in self.data]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows and self.cols == other.cols
                and self.den == other.den and self.num == other.num)

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# elimination on sparse primitive integer rows

def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _combine(row: dict[int, int], piv: dict[int, int], c: int) -> dict[int, int]:
    """(a/g) row - (b/g) piv with a = piv[c], b = row[c], g = gcd(a, b): the
    combination that is zero in column c, with its content divided out."""
    a, b = piv[c], row[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = row.copy() if a == 1 else {j: a * x for j, x in row.items()}
    for j, y in piv.items():
        v = out.get(j, 0) - b * y
        if v:
            out[j] = v
        else:
            del out[j]
    return _primitive(out) if out else out


def _eliminate(rows: list[dict[int, int]], reduced: bool):
    """Fraction-free elimination of the nonzero rows, made primitive first.

    The rows wait in a heap keyed by (leading column, |leading entry|, row
    position).  A row holding the top row's leading column c leads at c, so the
    top row, the one leading at c with the smallest pivot entry, is the pivot for
    c and each later row leading at c becomes its combination with the pivot:
    the work follows the nonzeros, not rows x columns.

    Returns the pivot rows and their pivot columns, both in column order.
    When `reduced`, each pivot column is also cleared from the other pivot
    rows, so that pivot row i divided by its entry at pivots[i] is row i of the
    reduced row echelon form.  The pivot columns and that form do not depend
    on which row pivots."""
    heap = [(c := min(r), abs(r[c]), i, r) for i, r in enumerate(_primitive(r) for r in rows if r)]
    heapify(heap)
    pivot_rows: list[dict[int, int]] = []
    pivots: list[int] = []
    while heap:
        c, _, _, piv = heappop(heap)
        pivot_rows.append(piv)
        pivots.append(c)
        while heap and heap[0][0] == c:
            _, _, i, r = heap[0]
            if r := _combine(r, piv, c):
                # it leads right of c, on dense rows mostly at c + 1
                lead = c + 1 if c + 1 in r else min(r)
                heapreplace(heap, (lead, abs(r[lead]), i, r))
            else:
                heappop(heap)
    if reduced:
        # holders[c]: the other pivot rows holding pivot column c.  Pivot row k,
        # clear of later pivots, adds no pivot column to the rows it combines into
        holders: dict[int, list[int]] = {c: [] for c in pivots}
        for i, row in enumerate(pivot_rows):
            for j in (row.keys() & holders.keys()) - {pivots[i]}:
                holders[j].append(i)
        for k in range(len(pivots) - 1, 0, -1):
            c, piv = pivots[k], pivot_rows[k]
            for i in holders[c]:
                pivot_rows[i] = _combine(pivot_rows[i], piv, c)
    return pivot_rows, tuple(pivots)


def _transpose(num: list[dict[int, int]], cols: int) -> list[dict[int, int]]:
    out: list[dict[int, int]] = [{} for _ in range(cols)]
    for i, row in enumerate(num):
        for j, x in row.items():
            out[j][i] = x
    return out


# A 15-bit prime: with 2^31 - 1 the packed rows took 1.5-1.8x as long (dense d = 4-6).
_P = 32749
# Nonzeros per line of the short side, nnz / min(rows, cols), below which the packed
# kernel is not tried.  Measured on the online kernel: spin factors' operator matrices
# read at most 5.3 ((d, n) = (3, 1-3), (5, 1-3), (8, 1-4), (10, 1-3)), where it is 3-1400x
# slower than `_eliminate`; those of 60%-fill dense algebras read at least 7.7 (d = 3-5,
# n = 1-3, seeds 0-2), where it is 2-43x faster.
_DENSE = 6


def _dense(rows: list[dict[int, int]], ncols: int) -> bool:
    """The gate of the packed kernel: _DENSE stored nonzeros per line of the short side."""
    return sum(map(len, rows)) >= _DENSE * min(len(rows), ncols)


def _full_rank_mod_p(rows: list[dict[int, int]], ncols: int) -> bool:
    """True only when the integer rows are proven to have rank k = min(len(rows), ncols),
    by having it mod _P; each caller first asks `_dense` whether the try pays.  Oriented
    tall, each row is one int holding its entries mod _P in W-bit lanes.  Rows are
    reduced in order against the pivots so far, in the order found: a pivot is 1 at its
    lane and 0 at earlier pivots' lanes, all in [0, _P), and a row r with lane value a
    there becomes r + (_P - a) pivot; the lowest lane of the rest nonzero mod _P makes it a
    pivot.  A row takes at most k - 1 updates, so lanes stay below _P + k (_P - 1)^2 < 2^W
    and never carry.  True at k pivots, False as soon as too few rows remain to reach k."""
    k = min(len(rows), ncols)
    if len(rows) < ncols:
        rows = _transpose(rows, ncols)
    W = (_P + k * (_P - 1) ** 2).bit_length()
    mask, pivots, free = (1 << W) - 1, [], list(range(k))  # free: lanes without a pivot
    for i, row in enumerate(rows):
        if len(rows) - i < k - len(pivots):
            return False
        r = sum(x % _P << j * W for j, x in row.items())
        for s, piv in pivots:
            if a := (r >> s & mask) % _P:
                r += (_P - a) * piv
        for t, c in enumerate(free):
            if a := (r >> c * W & mask) % _P:
                break
        else:
            continue
        del free[t]
        inv = pow(a, -1, _P)
        pivots.append((c * W, sum((r >> j * W & mask) * inv % _P << j * W for j in free[t:])
                       | 1 << c * W))
        if len(pivots) == k:
            return True
    return not k


def rank(m: Matrix) -> int:
    if _dense(m.num, m.cols) and _full_rank_mod_p(m.num, m.cols):
        return min(m.rows, m.cols)
    # rank m = rank m^T, which has fewer rows to combine
    return len(_eliminate(_transpose(m.num, m.cols) if m.rows > m.cols else m.num, False)[1])


def kernel_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space, one vector per free column,
    in reduced echelon form (free variable set to 1, pivots back-filled)."""
    if m.rows >= m.cols and _dense(m.num, m.cols) and _full_rank_mod_p(m.num, m.cols):
        return []
    rows, pivots = _eliminate(m.num, True)
    at: dict[int, list] = {}  # free column -> (pivot, entry) of the vector it spans
    for row, p in zip(rows, pivots):
        for j in row.keys() - {p}:  # reduced: every column but p is free
            at.setdefault(j, []).append((p, Fraction(-row[j], row[p])))
    zero, basis = Fraction(0), []
    for free in sorted(set(range(m.cols)) - set(pivots)):
        v = [zero] * m.cols
        v[free] = Fraction(1)
        for p, x in at.get(free, ()):
            v[p] = x
        basis.append(tuple(v))
    return basis


def solve(m: Matrix, b) -> tuple[Fraction, ...] | None:
    """One particular solution of m x = b (free variables zeroed),
    or None if the system is inconsistent."""
    b = [Fraction(x) for x in b]
    if len(b) != m.rows:
        raise ValueError("right-hand side has wrong length")
    # where b_i = p_i / q_i is nonzero, row i of m x = b times den q_i is the
    # integer row q_i num[i] with den p_i in column C; elsewhere it is num[i]
    C = m.cols
    aug = [{**{j: y.denominator * x for j, x in row.items()}, C: m.den * y.numerator} if y else row
           for row, y in zip(m.num, b)]
    # b is outside m's column space; gated on m alone, so a dense b opens no sparse m
    if m.rows > C and _dense(m.num, C) and _full_rank_mod_p(aug, C + 1):
        return None
    rows, pivots = _eliminate(aug, True)
    if pivots and pivots[-1] == C:
        return None
    x = [Fraction(0)] * C
    for row, p in zip(rows, pivots):
        x[p] = Fraction(row.get(C, 0), row[p])
    return tuple(x)
