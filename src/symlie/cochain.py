"""Totally symmetric multilinear cochains on a multiset basis.

A cochain of arity n on a d-dimensional space is a symmetric n-linear map
J x ... x J -> J.  Coefficients are stored per sorted index multiset: the
value at the basis tuple of M, repetitions included (NOT a divided-power
coefficient), is num[M] / den.  Symmetry of evaluation is therefore an
invariant of the representation itself.

The stored form is integer numerators over one positive denominator, in
lowest terms: num maps a sorted multiset to its sparse value vector
{k: nonzero int}, with no zero entry and no empty vector, so equality is
structural.  It is the shape of a `Matrix` row.  Every constructor ends in
one reducer.  The integer kernels read `num` and `den` directly and follow
the nonzeros; the constructor's input, `coeffs`, `value_at`, `items`,
`evaluate` and JSON are dense Fraction vectors.

The bracket grading assigns a cochain of arity n the degree n - 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations_with_replacement
from math import comb, gcd, lcm

from .exactla import json_fields, json_int, json_list, rat_from_str, rat_to_str


@lru_cache(maxsize=None)
def multisets(dim: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All size-n multisets over {0..dim-1} as sorted tuples, lexicographic."""
    return tuple(combinations_with_replacement(range(dim), n))


def sym_basis_dim(dim: int, n: int) -> int:
    """dim of the space of symmetric n-cochains: C(dim+n-1, n) * dim."""
    if dim < 1:
        raise ValueError("ambient dimension must be >= 1")
    return comb(dim + n - 1, n) * dim


class SymCochain:
    __slots__ = ("n", "dim", "num", "den", "_plan", "_slots")

    def __init__(self, n: int, dim: int, coeffs=None):
        vecs = {}
        for key, vec in (coeffs or {}).items():
            vec = [x if type(x) is Fraction else Fraction(x) for x in vec]
            if len(vec) != dim:
                raise ValueError("value vector has wrong length")
            vecs[tuple(key)] = {k: x for k, x in enumerate(vec) if x}
        self._reduce(n, dim, *_over_one_den(n, dim, vecs))

    def _reduce(self, n: int, dim: int, num, den: int) -> None:
        """Store num / den (den > 0) in lowest terms, dropping zero entries and empty
        vectors; vectors already so are kept.  No plans: `evaluate` and the kernel derive them."""
        g = 1 if den == 1 else gcd(den, *chain.from_iterable(map(dict.values, num.values())))
        self.n, self.dim, self.den, self._plan, self._slots = n, dim, den // g, None, None
        self.num = num if g == 1 and all(vec and all(vec.values()) for vec in num.values()) else {
            key: v for key, vec in num.items() if (v := {k: x // g for k, x in vec.items() if x})}

    @classmethod
    def _from_ints(cls, n: int, dim: int, num, den: int) -> "SymCochain":
        """num / den from {sorted multiset: {k: int}} and den > 0; keys are trusted."""
        out = cls.__new__(cls)
        out._reduce(n, dim, num, den)
        return out

    # -- degree bookkeeping ------------------------------------------------
    @property
    def degree(self) -> int:
        return self.n - 1

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, n: int, dim: int) -> "SymCochain":
        return cls(n, dim, {})

    @classmethod
    def from_entries(cls, n: int, dim: int, entries) -> "SymCochain":
        """entries: iterable of (multiset, k, value)."""
        vecs: dict[tuple[int, ...], dict[int, Fraction]] = {}
        for mset, k, val in entries:
            _check_k(k, dim)
            vec = vecs.setdefault(tuple(sorted(mset)), {})
            vec[k] = vec.get(k, 0) + Fraction(val)
        return cls._from_ints(n, dim, *_over_one_den(n, dim, vecs))

    # -- access ------------------------------------------------------------
    @property
    def coeffs(self) -> dict[tuple[int, ...], tuple[Fraction, ...]]:
        """{multiset: value vector} over the nonzero multisets, as Fractions."""
        return {key: self.value_at(key) for key in self.num}

    def value_at(self, mset) -> tuple[Fraction, ...]:
        """Value vector at the basis tuple of the given multiset, in any order;
        ValueError unless it has n indices in [0, dim)."""
        key = tuple(sorted(mset))
        _check_key(key, self.n, self.dim)
        vec = self.num.get(key, {})
        return tuple(Fraction(vec.get(k, 0), self.den) for k in range(self.dim))

    def coeff(self, mset, k: int) -> Fraction:
        """Output coordinate k of `value_at(mset)`; ValueError unless 0 <= k < dim."""
        _check_k(k, self.dim)
        return self.value_at(mset)[k]

    def is_zero(self) -> bool:
        return not self.num

    def items(self):
        """Deterministic iteration: sorted multisets, then output index."""
        for key in sorted(self.num):
            for k, x in sorted(self.num[key].items()):
                yield key, k, Fraction(x, self.den)

    # -- linear structure ----------------------------------------------------
    def _binop(self, other: "SymCochain", sign: int) -> "SymCochain":
        if not isinstance(other, SymCochain):
            return NotImplemented
        if self.dim != other.dim or self.n != other.n:
            raise ValueError("cochain arity/dimension mismatch")
        return _combine(self.n, self.dim, ((1, self), (sign, other)))

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "SymCochain":
        return _combine(self.n, self.dim, [(Fraction(c), self)])

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SymCochain) and self.n == other.n
                and self.dim == other.dim and self.den == other.den and self.num == other.num)

    def __repr__(self) -> str:
        return f"SymCochain(n={self.n}, dim={self.dim}, {len(self.num)} keys)"

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, args) -> tuple[Fraction, ...]:
        """Multilinear symmetric extension at general vectors.

        f(v_1..v_n) = sum over stored M of W[M] f[M], where W[M] is the
        coefficient of t^M in prod_p (sum_i v_p[i] t_i).  That is exact
        because f[M] is the value at the basis tuple of M, not a divided
        power.  The weights W' of the first n - 1 arguments are built by a
        running product, keyed by a multiset as base-(n+1) digits, sum over
        i in it of (n+1)^i: no index occurs more than n times, so the digits
        never carry, and multiplying in index i adds (n+1)^i to the key.
        The last argument is contracted at the stored multisets only,
        W[M] = sum over distinct i in M of v_n[i] W'[M - {i}], inside the dot
        product with f[M]; the pairs (key of M - {i}, i) depend on f alone and
        are kept on it from the first call.  It runs on integers: numerators
        over the cochain's denominator, each argument scaled by the lcm of its
        own denominators, one division per output coordinate.

        Cost: W' spans one level fewer than W, and the contraction follows f's
        stored multisets.  Against expanding all n arguments (Python 3.11, one
        core of a 2-core VM; d, n, stored multisets), a sparse f at larger d
        gains most (8, 4, 5: 227 -> 82 us; 10, 2, 3: 40 -> 22 us), a dense one
        less (8, 4, 311: 525 -> 343 us; 3, 5, 21: 45 -> 34 us), and d = 1
        holds (1, 5, 1: 8.7 -> 8.4 us).
        """
        n, dim = self.n, self.dim
        args = [[x if type(x) is Fraction else Fraction(x) for x in a] for a in args]
        if len(args) != n:
            raise ValueError(f"expected {n} arguments, got {len(args)}")
        if not n:
            return self.value_at(())
        base, weights, den = n + 1, {0: 1}, self.den
        for p, a in enumerate(args, 1):
            if len(a) != dim:
                raise ValueError("argument vector has wrong length")
            s = lcm(*[x.denominator for x in a])
            den *= s
            if p == n:  # the last argument is contracted at the stored multisets
                break
            nxt, step = {}, 1
            for x in a:
                if x:
                    c = x.numerator * (s // x.denominator)
                    for key, w in weights.items():
                        key += step
                        nxt[key] = nxt.get(key, 0) + w * c
                step *= base
            weights = nxt
        last = [x.numerator * (s // x.denominator) for x in a]
        get, out = weights.get, [0] * dim
        if self._plan is None:  # per stored M: (key of M - {i}, i) per distinct i, M's items
            self._plan = [([(c - base ** i, i) for i in {*M}], vec.items())
                          for M, vec in self.num.items() for c in [sum([base ** i for i in M])]]
        for pairs, vec in self._plan:
            w = 0
            for key, i in pairs:
                if c := last[i]:
                    w += c * get(key, 0)
            if w:
                for k, x in vec:
                    out[k] += w * x
        return tuple([Fraction(x, den) for x in out])

    def _slot_plan(self) -> tuple[dict, dict]:
        """The sides of the insertion kernel `bracket._scatter`, derived on first use and
        kept: outer `_outer_terms(num)`, inner {k: [(G, None, entry k of G's vector)]}."""
        if self._slots is None:
            inner = {}
            for G, vec in self.num.items():
                for k, w in vec.items():
                    inner.setdefault(k, []).append((G, None, w))
            self._slots = _outer_terms(self.num), inner
        return self._slots

    # -- serialization --------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "dim": self.dim,
            "coeffs": [
                {"multiset": list(key), "k": k, "c": rat_to_str(val)}
                for key, k, val in self.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SymCochain":
        n, dim, raw = json_fields(d, "cochain document", ("n", "dim", "coeffs"))
        n, dim = json_int(n, "n"), json_int(dim, "dim")
        entries = {}
        for item in json_list(raw, "coeffs"):
            mset, k, c = json_fields(item, "coefficient entry", ("multiset", "k", "c"),
                                     "bad coefficient entry")
            mset = tuple(json_int(i, "multiset entry") for i in json_list(mset, "multiset"))
            k, c = json_int(k, "k"), rat_from_str(c)
            if tuple(sorted(mset)) != mset:
                raise ValueError(f"multiset not sorted: {list(mset)}")
            if len(mset) != n or any(not 0 <= i < dim for i in mset) or not 0 <= k < dim:
                raise ValueError(f"coefficient entry out of range: {item}")
            if (mset, k) in entries:
                raise ValueError(f"duplicate coefficient key {(list(mset), k)}")
            entries[mset, k] = c
        return cls.from_entries(n, dim, ((mset, k, c) for (mset, k), c in entries.items()))


def _outer_terms(num) -> dict:
    """{k: [(F - {k}, items of F's vector)]} over each distinct k of each F in num."""
    out = {}
    for F, vec in num.items():
        for pos, k in enumerate(F):
            if not pos or F[pos - 1] != k:
                out.setdefault(k, []).append((F[:pos] + F[pos + 1:], vec.items()))
    return out


def _over_one_den(n: int, dim: int, vecs) -> tuple[dict, int]:
    """(num, den): {sorted multiset: {k: Fraction}} as ints over the lcm of its
    denominators, once the shape and the multiset keys are checked."""
    if n < 0 or dim < 1:
        raise ValueError("bad cochain shape")
    for key in vecs:
        _check_key(key, n, dim)
    den = lcm(*(x.denominator for vec in vecs.values() for x in vec.values()))
    return {key: {k: x.numerator * (den // x.denominator) for k, x in vec.items()}
            for key, vec in vecs.items()}, den


def _check_key(key: tuple, n: int, dim: int) -> None:
    """Refuse a multiset key unless it is sorted, of size n, with indices in [0, dim)."""
    if len(key) != n or tuple(sorted(key)) != key or any(not 0 <= i < dim for i in key):
        raise ValueError(f"bad multiset key {key} for arity {n}, dim {dim}")


def _check_k(k: int, dim: int) -> None:
    if not 0 <= k < dim:
        raise ValueError(f"output index k={k} out of range for dim {dim}")


def _combine(n: int, dim: int, terms) -> SymCochain:
    """sum s f over the list of (s, f), s an int or Fraction and f of arity n (0 if
    empty): one integer accumulator over the common denominator, reduced once."""
    den = lcm(*[s.denominator * f.den for s, f in terms])
    out = {}
    for s, f in terms:
        c = s.numerator * (den // (s.denominator * f.den))
        for key, vec in f.num.items():
            acc = out.setdefault(key, {})
            for k, x in vec.items():
                acc[k] = acc.get(k, 0) + c * x
    return SymCochain._from_ints(n, dim, out, den)


def basis_cochains(dim: int, n: int):
    """Yield ((multiset, k), cochain) in the canonical flat order."""
    for mset in multisets(dim, n):
        for k in range(dim):
            yield (mset, k), SymCochain._from_ints(n, dim, {mset: {k: 1}}, 1)


def coeff_vector(f: SymCochain) -> list[Fraction]:
    """Flatten to the canonical coordinate order (multiset-major, then k)."""
    return [x for mset in multisets(f.dim, f.n) for x in f.value_at(mset)]


def from_coeff_vector(dim: int, n: int, vec) -> SymCochain:
    vec = list(vec)
    msets = multisets(dim, n)
    if len(vec) != len(msets) * dim:
        raise ValueError("coefficient vector has wrong length")
    return SymCochain(n, dim, {mset: vec[idx * dim:(idx + 1) * dim]
                               for idx, mset in enumerate(msets)})
