"""Unshuffle insertion in two normalizations, the graded commutator,
and executable checkers for the pre-Lie and graded Jacobi identities.

Two modes are provided and every bracket-dependent operation takes one:

* SUM   -- plain sum over unshuffles, no prefactor (the symmetric-brace
           normalization).  Default everywhere.
* PAPER -- the sum carries the prefactor 1/((m-1)! n!) printed with the
           averaged-insertion definition under audit.

The mode is only a scalar.  `insert`, `graded_bracket` and the operator
matrices of `complexes` are each one call to one integer kernel, `_scatter`.

Both modes are sign-free; see the audit module for what that does and does
not imply about the graded identities.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, lcm

from .algebra import IdentityReport, Witness
from .cochain import SymCochain, multisets


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


def _unshuffle_count(rest: tuple[int, ...], G: tuple[int, ...]) -> int:
    """prod_a C(mult_N(a), mult_G(a)): the unshuffles placing G in N = rest + G."""
    c = 1
    for a in set(G):
        if a in rest:
            r = G.count(a)
            c *= comb(rest.count(a) + r, r)
    return c


def _terms(f: SymCochain):
    """(terms (multiset, None, nonzero (t, int)), D): f's nonzeros over its denominator D."""
    return [(F, None, [(t, x) for t, x in enumerate(v) if x]) for F, v in f.num.items()], f.den


def _scatter(pieces, d: int):
    """The sum of p (outer o inner) over the pieces (p, outer, inner), unnormalized.

    Terms are (multiset, tag, nonzero (index, int)).  inner[G]_k outer[F] with k
    in F lands at N = (F - {k}) + G once per (m-1, n)-unshuffle placing G in N,
    i.e. prod_a C(mult_N(a), mult_G(a)) times, so the cost follows the nonzeros.
    Returns {(N, outer tag, inner tag): d ints} and the denominator q of the p."""
    q = lcm(*(p.denominator for p, _, _ in pieces))
    out = {}
    for p, outer, inner in pieces:
        if not p:
            continue
        by_slot = {}  # k -> [(G, tag, q p inner[G]_k)]
        for G, tag, nonzero in inner:
            for k, w in nonzero:
                by_slot.setdefault(k, []).append((G, tag, p.numerator * (q // p.denominator) * w))
        for F, ftag, nonzero in outer:
            for pos, k in enumerate(F):
                if pos and F[pos - 1] == k:  # one slot per distinct k
                    continue
                rest = F[:pos] + F[pos + 1:]
                for G, gtag, w in by_slot.get(k, ()):
                    c = _unshuffle_count(rest, G) * w
                    acc = out.setdefault((tuple(sorted(rest + G)), ftag, gtag), [0] * d)
                    for t, x in nonzero:
                        acc[t] += c * x
    return out, q


def _compose(f: SymCochain, g: SymCochain, mode: InsertionMode, sign: int) -> SymCochain:
    """p_fg (f o g) + sign p_gf (g o f), p_xy the prefactor inserting y into x."""
    p_fg, p_gf = _prefactor(mode, f.n, g.n), sign * _prefactor(mode, g.n, f.n)
    if f.dim != g.dim:
        raise ValueError("ambient dimension mismatch")
    (f_terms, df), (g_terms, dg) = _terms(f), _terms(g)
    out, q = _scatter([(p_fg, f_terms, g_terms), (p_gf, g_terms, f_terms)], f.dim)
    return SymCochain._from_ints(max(f.n + g.n - 1, 0), f.dim,
                                 {N: acc for (N, _, _), acc in out.items()}, q * df * dg)


def insert(f: SymCochain, g: SymCochain, mode: InsertionMode = InsertionMode.SUM) -> SymCochain:
    """Insertion of g into one slot of f, summed over unshuffles.

    Arity m + n - 1.  Inserting into an arity-0 cochain gives 0 (no slot);
    inserting an arity-0 cochain fills the slot as a constant via the single
    (m-1, 0)-unshuffle.  One piece of `_scatter`.
    """
    return _compose(f, g, mode, 0)


def graded_bracket(f: SymCochain, g: SymCochain,
                   mode: InsertionMode = InsertionMode.SUM) -> SymCochain:
    """[f, g] = f o g - (-1)^{|f||g|} g o f with |f| = arity - 1, in one `_scatter`."""
    return _compose(f, g, mode, -koszul_sign(f.degree, g.degree))


def first_coefficient_difference(a: SymCochain, b: SymCochain):
    """First (multiset, k) where two same-shape cochains differ, or None."""
    if a.n != b.n or a.dim != b.dim:
        raise ValueError("cochain shape mismatch")
    zero = (0,) * a.dim
    for mset in sorted(a.num.keys() | b.num.keys()):  # the order of `multisets`
        va, vb = a.num.get(mset, zero), b.num.get(mset, zero)
        if any(x * b.den != y * a.den for x, y in zip(va, vb)):
            return mset, a.value_at(mset), b.value_at(mset)
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
    basis = [tuple(int(t == i) for t in range(d)) for i in range(d)]
    coeffs = {}
    for mset in multisets(d, 3):
        x, y, z = mset
        term1 = f.evaluate((g.value_at((x, y)), basis[z]))
        term2 = f.evaluate((g.value_at((x, z)), basis[y]))
        coeffs[mset] = tuple(half * (a + b) for a, b in zip(term1, term2))
    return SymCochain(3, d, coeffs)
