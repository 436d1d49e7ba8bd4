"""Unshuffle insertion in two normalizations, the graded commutator,
and executable checkers for the pre-Lie and graded Jacobi identities.

Two modes are provided and every bracket-dependent operation takes one:

* SUM   -- plain sum over unshuffles, no prefactor (the symmetric-brace
           normalization).  Default everywhere.
* PAPER -- the sum carries the prefactor 1/((m-1)! n!) printed with the
           averaged-insertion definition under audit.

The mode is only a scalar: one integer `_divisor` per insertion, which every
reader multiplies into its denominator.  `insert`, `graded_bracket` and the
operator matrices of `complexes` (all modes asked for at once from one call)
each call one integer kernel, `_scatter`, which joins two slot plans on the
slot filled; a cochain derives its plan on first use and keeps it, so a kept
operand such as mu or [mu, mu] is indexed once.  The checkers compose
through `_Memo`, which an audit builds once: each SUM-mode insertion of two
primitive forms is made once for both modes, and summed per form before one
combination.

Both modes are sign-free; see the audit module for what that does and does
not imply about the graded identities.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd, lcm

from .algebra import IdentityReport, Witness
from .cochain import SymCochain, _combine, multisets


class InsertionMode(enum.Enum):
    PAPER = "paper"
    SUM = "sum"


def unshuffles(p: int, q: int):
    """(p,q)-unshuffles of {0..p+q-1} as (first_block, second_block),
    each block increasing.  There are C(p+q, p) of them."""
    n = p + q
    for first in combinations(range(n), p):
        in_first = set(first)
        yield first, tuple(i for i in range(n) if i not in in_first)


def koszul_sign(deg_f: int, deg_g: int) -> int:
    return -1 if (deg_f * deg_g) % 2 else 1


def _divisor(mode: InsertionMode, m: int, n: int) -> int:
    """The sum inserting arity n into arity m is divided by (m-1)! n! in PAPER mode,
    by 1 in SUM mode, and by 1 for m = 0, where the sum is empty."""
    if not isinstance(mode, InsertionMode):
        raise TypeError(f"insertion mode must be an InsertionMode, got {mode!r}")
    return factorial(m - 1) * factorial(n) if mode is InsertionMode.PAPER and m else 1


def _unshuffle_count(rest: tuple[int, ...], G: tuple[int, ...]) -> int:
    """prod_a C(mult_N(a), mult_G(a)): the unshuffles placing G in N = rest + G."""
    c = 1
    for a in set(G):
        if a in rest:
            r = G.count(a)
            c *= comb(rest.count(a) + r, r)
    return c


def _scatter(pieces):
    """The sum of s/r (outer o inner) over the pieces (s, r, outer, inner), s and r ints.
    The sides are slot plans (`SymCochain._slot_plan`), or plans of their shape, joined
    on the slot k: inner (G, tag, w) and outer (F - {k}, F's items) land at N = (F - {k})
    + G once per (m-1, n)-unshuffle placing G in N, prod_a C(mult_N(a), mult_G(a)) times,
    so the cost follows the nonzeros at shared slots.  Returns {(N, tag): {index: int}}
    and the lcm q of the r.  A cochain's tags are None; `complexes` tags columns."""
    q = lcm(*(r for _, r, _, _ in pieces))
    out = {}
    for s, r, outer, inner in pieces:
        s *= q // r
        for k, outs in outer.items():
            for G, tag, w in inner.get(k, ()):
                w *= s
                for rest, vec in outs:
                    c = _unshuffle_count(rest, G) * w
                    acc = out.setdefault((tuple(sorted(rest + G)), tag), {})
                    for t, x in vec:
                        acc[t] = acc.get(t, 0) + c * x
    return out, q


def _compose(f: SymCochain, g: SymCochain, mode: InsertionMode, sign: int) -> SymCochain:
    """(f o g) / k_fg + sign (g o f) / k_gf, k_xy the divisor inserting y into x."""
    k_fg, k_gf = _divisor(mode, f.n, g.n), _divisor(mode, g.n, f.n)
    if f.dim != g.dim:
        raise ValueError("ambient dimension mismatch")
    out, q = _scatter([(s, k, x._slot_plan()[0], y._slot_plan()[1])
                       for s, k, x, y in ((1, k_fg, f, g), (sign, k_gf, g, f)) if s])
    return SymCochain._from_ints(max(f.n + g.n - 1, 0), f.dim,
                                 {N: acc for (N, _), acc in out.items()}, q * f.den * g.den)


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


def _coeff_report(n: int, dim: int, left, right, note: str) -> IdentityReport:
    """The sums of the terms (a, b, p), a/b p, of each side agree, or fail with the first
    differing multiset as basis inputs.  left - right is added up per primitive form p
    first, as ints over one denominator: if every form's coefficient cancels the sides
    agree, and otherwise one combination of the difference is made.  Its least multiset
    is the witness, where each side's value is summed from the forms holding it."""
    L, by_form = lcm(*(b for _, b, _ in left), *(b for _, b, _ in right)), {}
    for sign, terms in ((1, left), (-1, right)):
        for a, b, p in terms:
            by_form[id(p)] = by_form.get(id(p), (0,))[0] + sign * a * (L // b), p
    diff = [(Fraction(s, L), p) for s, p in by_form.values() if s]
    if not diff or not (num := _combine(n, dim, diff).num):
        return IdentityReport(True)
    mset, at = min(num), ([0] * dim, [0] * dim)  # the order of `multisets`; ints over L
    for side, terms in zip(at, (left, right)):
        for a, b, p in terms:  # p's numerators are over 1
            for k, x in p.num.get(mset, {}).items():
                side[k] += a * (L // b) * x
    basis = tuple(tuple(Fraction(int(t == i)) for t in range(dim)) for i in mset)
    return IdentityReport(False, Witness(basis, *(tuple(Fraction(x, L) for x in v) for v in at),
                                         note))


class _Memo:
    """The compositions of one run of identity checks, such as one audit's.
    A cochain is held as terms [(a, b, p)], ints a/b (b > 0) times p, its primitive
    form: its numerators over their gcd, the first nonzero positive, one object per
    (n, dim, numerators).  By bilinearity a composition of terms is a sum of SUM-mode
    insertions of primitive forms, each made once, its denominator times `_divisor`."""

    def __init__(self):
        # key -> p, kept alive; (id(p), id(q)) -> p o q terms; id(f) -> (f, f's terms)
        self.forms, self.inserts, self.held = {}, {}, {}

    def terms(self, f: SymCochain) -> list:
        if id(f) in self.held:
            return self.held[id(f)][1]
        out = []
        if f.num:
            g, first = gcd(*(x for vec in f.num.values() for x in vec.values())), f.num[min(f.num)]
            g = g if first[min(first)] > 0 else -g
            num = {key: {k: x // g for k, x in vec.items()} for key, vec in f.num.items()}
            key = (f.n, f.dim, frozenset((M, frozenset(v.items())) for M, v in num.items()))
            if key not in self.forms:
                self.forms[key] = SymCochain._from_ints(f.n, f.dim, num, 1)
            out = [(g, f.den, self.forms[key])]
        self.held[id(f)] = f, out
        return out

    def insert(self, xs, ys, mode: InsertionMode, c=1) -> list:
        """The terms of c (x o y), c an int."""
        out = []
        for a, b, p in xs:
            for x, y, q in ys:
                key = id(p), id(q)
                if key not in self.inserts:
                    self.inserts[key] = self.terms(insert(p, q))
                k, den = c * a * x, b * y * _divisor(mode, p.n, q.n)
                out += [(k * s, den * t, r) for s, t, r in self.inserts[key]]
        return out

    def bracket(self, xs, ys, mode: InsertionMode, c=1) -> list:
        """The terms of c [x, y] = c (x o y - (-1)^{|x||y|} y o x)."""
        sign = koszul_sign(xs[0][2].degree, ys[0][2].degree) if xs and ys else 0
        return self.insert(xs, ys, mode, c) + self.insert(ys, xs, mode, -sign * c)


def _operands(memo: _Memo | None, mode: InsertionMode, *cochains):
    """The memo (a fresh one for None) and each cochain's terms, checked as by `insert`."""
    _divisor(mode, 0, 0)  # refuses a mode that is not an InsertionMode
    if len({f.dim for f in cochains}) > 1:
        raise ValueError("ambient dimension mismatch")
    memo = _Memo() if memo is None else memo
    return memo, [memo.terms(f) for f in cochains]


def check_prelie(f: SymCochain, g: SymCochain, h: SymCochain,
                 mode: InsertionMode = InsertionMode.SUM, *, _memo=None) -> IdentityReport:
    """Graded right pre-Lie identity:
    (f o g) o h - f o (g o h) == (-1)^{|g||h|} ((f o h) o g - f o (h o g)).
    A term through an insertion of two arity-0 cochains is zero: it has no terms."""
    N = f.n + g.n + h.n - 2
    if N < 0:  # both sides lie in the zero space
        return IdentityReport(True)
    memo, (F, G, H) = _operands(_memo, mode, f, g, h)

    def assoc(x, y, z, c):  # c ((x o y) o z - x o (y o z))
        return (memo.insert(memo.insert(x, y, mode), z, mode, c)
                + memo.insert(x, memo.insert(y, z, mode), mode, -c))

    return _coeff_report(N, f.dim, assoc(F, G, H, 1),
                         assoc(F, H, G, koszul_sign(g.degree, h.degree)),
                         f"pre-Lie sides at a basis tuple, arities ({f.n},{g.n},{h.n})")


def check_jacobi(f: SymCochain, g: SymCochain, h: SymCochain,
                 mode: InsertionMode = InsertionMode.SUM, *, _memo=None) -> IdentityReport:
    """Graded Jacobi identity for the commutator, in the cyclic form
    (-1)^{|f||h|}[f,[g,h]] + (-1)^{|g||f|}[g,[h,f]] + (-1)^{|h||g|}[h,[f,g]] == 0."""
    N = f.n + g.n + h.n - 2
    if N < 0:  # every term lies in the zero space
        return IdentityReport(True)
    memo, (F, G, H) = _operands(_memo, mode, f, g, h)
    total = []
    for X, Y, Z, x, z in ((F, G, H, f, h), (G, H, F, g, f), (H, F, G, h, g)):
        total += memo.bracket(X, memo.bracket(Y, Z, mode), mode, koszul_sign(x.degree, z.degree))
    return _coeff_report(N, f.dim, total, [],
                         f"Jacobi cyclic sum at a basis tuple, arities ({f.n},{g.n},{h.n})")


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
    num = {}
    for x, y, z in multisets(f.dim, 3):  # g(e_x, e_p) = w / g.den, f(e_i, e_r) over f.den
        out = num[x, y, z] = {}
        for p, r in ((y, z), (z, y)):
            for i, w in g.num.get((x, p), {}).items():
                for k, t in f.num.get((min(i, r), max(i, r)), {}).items():
                    out[k] = out.get(k, 0) + w * t
    return SymCochain._from_ints(3, f.dim, num, 2 * f.den * g.den)
