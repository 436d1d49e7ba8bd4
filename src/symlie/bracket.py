"""Unshuffle insertion in two normalizations, the graded commutator,
and executable checkers for the pre-Lie and graded Jacobi identities.

Two modes are provided and every bracket-dependent operation takes one:

* SUM   -- plain sum over unshuffles, no prefactor (the symmetric-brace
           normalization).  Default everywhere.
* PAPER -- the sum carries the prefactor 1/((m-1)! n!) printed with the
           averaged-insertion definition under audit.

Both are sign-free; see the audit module for what that does and does not
imply about the graded identities.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from .algebra import IdentityReport, Witness
from .cochain import SymCochain, multisets
from .exactla import vzero


class InsertionMode(enum.Enum):
    PAPER = "paper"
    SUM = "sum"


def parse_mode(s: str) -> InsertionMode:
    for mode in InsertionMode:
        if mode.value == s:
            return mode
    raise ValueError(f"unknown insertion mode {s!r} (expected 'paper' or 'sum')")


def unshuffles(p: int, q: int):
    """(p,q)-unshuffles of {0..p+q-1} as (first_block, second_block),
    each block increasing.  There are C(p+q, p) of them."""
    n = p + q
    for first in combinations(range(n), p):
        in_first = set(first)
        yield first, tuple(i for i in range(n) if i not in in_first)


def unshuffle_permutations(p: int, q: int):
    """The same set as one-line permutation tuples (sigma(0), sigma(1), ...)."""
    return [first + second for first, second in unshuffles(p, q)]


def koszul_sign(deg_f: int, deg_g: int) -> int:
    return -1 if (deg_f * deg_g) % 2 else 1


def _prefactor(mode: InsertionMode, m: int, n: int) -> Fraction:
    """The scalar before the sum inserting arity n into arity m: 1 in SUM mode,
    1/((m-1)! n!) in PAPER mode, and 1 for m = 0, where the sum is empty."""
    if not isinstance(mode, InsertionMode):
        raise TypeError(f"insertion mode must be an InsertionMode, got {mode!r}")
    if mode is InsertionMode.SUM or m == 0:
        return Fraction(1)
    return Fraction(1, factorial(m - 1) * factorial(n))


def _slots(F: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """(k, F - {k}) for each distinct k of the sorted multiset F."""
    return [(k, F[:p] + F[p + 1:]) for p, k in enumerate(F) if p == 0 or F[p - 1] != k]


def _unshuffle_count(rest: tuple[int, ...], G: tuple[int, ...]) -> int:
    """prod_a C(mult_N(a), mult_G(a)): the unshuffles placing G in N = rest + G."""
    c = 1
    for a in set(G):
        if a in rest:
            r = G.count(a)
            c *= comb(rest.count(a) + r, r)
    return c


def insert(f: SymCochain, g: SymCochain, mode: InsertionMode = InsertionMode.SUM) -> SymCochain:
    """Insertion of g into one slot of f, summed over unshuffles.

    Arity m + n - 1.  Inserting into an arity-0 cochain gives 0 (no slot);
    inserting an arity-0 cochain fills the slot as a constant via the single
    (m-1, 0)-unshuffle.

    Scattered over pairs of nonzeros: g[G]_k * f[F] with k in F lands at
    N = (F - {k}) + G, once per (m-1, n)-unshuffle that places G in N,
    i.e. prod_a C(mult_N(a), mult_G(a)) times.  The cost follows the
    inputs' nonzeros, not the size of the output space.
    """
    pref = _prefactor(mode, f.n, g.n)
    if f.dim != g.dim:
        raise ValueError("ambient dimension mismatch")
    m, n, d = f.n, g.n, f.dim
    if m == 0:
        return SymCochain.zero(max(n - 1, 0), d)
    # f's nonzeros by the slot k they free: k -> [(F - {k}, nonzero (t, f[F]_t))]
    slots = {}
    for F, fval in f.coeffs.items():
        nonzero = [(t, x) for t, x in enumerate(fval) if x]
        for k, rest in _slots(F):
            slots.setdefault(k, []).append((rest, nonzero))
    zero = Fraction(0)
    out = {}
    for G, gval in g.coeffs.items():
        for k, w in enumerate(gval):
            if not w:
                continue
            for rest, nonzero in slots.get(k, ()):
                c = _unshuffle_count(rest, G) * w
                acc = out.setdefault(tuple(sorted(rest + G)), [zero] * d)
                for t, x in nonzero:
                    acc[t] += c * x
    if pref != 1:
        out = {N: [pref * a if a else a for a in acc] for N, acc in out.items()}
    return SymCochain(m + n - 1, d, out)


def graded_bracket(f: SymCochain, g: SymCochain,
                   mode: InsertionMode = InsertionMode.SUM) -> SymCochain:
    """[f, g] = f o g - (-1)^{|f||g|} g o f with |f| = arity - 1."""
    sgn = koszul_sign(f.degree, g.degree)
    return insert(f, g, mode) - insert(g, f, mode).scale(sgn)


def first_coefficient_difference(a: SymCochain, b: SymCochain):
    """First (multiset, k) where two same-shape cochains differ, or None."""
    if a.n != b.n or a.dim != b.dim:
        raise ValueError("cochain shape mismatch")
    for mset in multisets(a.dim, a.n):
        va, vb = a.value_at(mset), b.value_at(mset)
        if va != vb:
            return mset, va, vb
    return None


def _coeff_witness(A_dim: int, diff, note: str) -> Witness:
    mset, left, right = diff
    basis = tuple(
        tuple(Fraction(1 if t == i else 0) for t in range(A_dim)) for i in mset)
    return Witness(inputs=basis, left=left, right=right, note=note)


def _at_arity(c: SymCochain, n: int) -> SymCochain:
    """A nested term of an identity of target arity n.  Inserting an arity-0
    cochain into another lands in the zero space of arity -1, which `insert`
    returns at arity 0; every term built on it is zero, so it is read as the
    zero cochain of arity n."""
    return c if c.n == n else SymCochain.zero(n, c.dim)


def check_prelie(f: SymCochain, g: SymCochain, h: SymCochain,
                 mode: InsertionMode = InsertionMode.SUM) -> IdentityReport:
    """Graded right pre-Lie identity:
    (f o g) o h - f o (g o h) == (-1)^{|g||h|} ((f o h) o g - f o (h o g))."""
    N = f.n + g.n + h.n - 2
    if N < 0:  # both sides lie in the zero space
        return IdentityReport(True)

    def assoc(x, y, z):  # (x o y) o z - x o (y o z)
        return (_at_arity(insert(insert(x, y, mode), z, mode), N)
                - _at_arity(insert(x, insert(y, z, mode), mode), N))

    lhs = assoc(f, g, h)
    rhs = assoc(f, h, g).scale(koszul_sign(g.degree, h.degree))
    diff = first_coefficient_difference(lhs, rhs)
    if diff is None:
        return IdentityReport(True)
    return IdentityReport(False, _coeff_witness(
        f.dim, diff,
        note=f"pre-Lie sides at a basis tuple, arities ({f.n},{g.n},{h.n})"))


def check_jacobi(f: SymCochain, g: SymCochain, h: SymCochain,
                 mode: InsertionMode = InsertionMode.SUM) -> IdentityReport:
    """Graded Jacobi identity for the commutator, in the cyclic form
    (-1)^{|f||h|}[f,[g,h]] + (-1)^{|g||f|}[g,[h,f]] + (-1)^{|h||g|}[h,[f,g]] == 0."""
    N = f.n + g.n + h.n - 2
    if N < 0:  # every term lies in the zero space
        return IdentityReport(True)
    t1, t2, t3 = (_at_arity(graded_bracket(x, graded_bracket(y, z, mode), mode), N).scale(
        koszul_sign(x.degree, z.degree)) for x, y, z in ((f, g, h), (g, h, f), (h, f, g)))
    total = t1 + t2 + t3
    if total.is_zero():
        return IdentityReport(True)
    zero = SymCochain.zero(total.n, total.dim)
    diff = first_coefficient_difference(total, zero)
    return IdentityReport(False, _coeff_witness(
        f.dim, diff,
        note=f"Jacobi cyclic sum at a basis tuple, arities ({f.n},{g.n},{h.n})"))


def insert_lowdeg_variant(f: SymCochain, g: SymCochain) -> SymCochain:
    """The printed two-term arity-2 composition
    (f o g)(x,y,z) = 1/2 (f(g(x,y),z) + f(g(x,z),y)),
    read off at sorted basis tuples (the coefficient convention).  Kept
    separate from insert() so the audit can diff the two forms.
    """
    if f.n != 2 or g.n != 2:
        raise ValueError("two-term variant is defined for arity-2 cochains only")
    if f.dim != g.dim:
        raise ValueError("ambient dimension mismatch")
    d = f.dim
    half = Fraction(1, 2)

    def f_at(w, j):
        # f(w, e_j) for a general vector w
        acc = list(vzero(d))
        for k in range(d):
            if w[k] == 0:
                continue
            vec = f.coeffs.get(tuple(sorted((k, j))))
            if vec is None:
                continue
            for t in range(d):
                acc[t] += w[k] * vec[t]
        return acc

    coeffs = {}
    for mset in multisets(d, 3):
        x, y, z = mset
        term1 = f_at(g.value_at((x, y)), z)
        term2 = f_at(g.value_at((x, z)), y)
        vec = tuple(half * (a + b) for a, b in zip(term1, term2))
        if any(vec):
            coeffs[mset] = vec
    return SymCochain(3, d, coeffs)
