"""Totally symmetric multilinear cochains on a multiset basis.

A cochain of arity n on a d-dimensional space is a symmetric n-linear map
J x ... x J -> J.  Coefficients are stored per sorted index multiset: the
value at the basis tuple of M, repetitions included (NOT a divided-power
coefficient), is num[M] / den.  Symmetry of evaluation is therefore an
invariant of the representation itself.

The stored form is integer numerators over one positive denominator, in
lowest terms, with no all-zero vector, so equality is structural.  Every
constructor ends in one reducer.  The integer kernels read `num` and `den`
directly; `coeffs`, `value_at`, `items` and JSON present Fractions.

The bracket grading assigns a cochain of arity n the degree n - 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from math import comb, factorial, gcd, lcm

from .exactla import json_int, rat_from_str, rat_to_str, vzero


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
    __slots__ = ("n", "dim", "num", "den")

    def __init__(self, n: int, dim: int, coeffs=None):
        if n < 0 or dim < 1:
            raise ValueError("bad cochain shape")
        clean: dict[tuple[int, ...], tuple[Fraction, ...]] = {}
        for key, vec in (coeffs or {}).items():
            key = tuple(key)
            if len(key) != n or tuple(sorted(key)) != key or any(not 0 <= i < dim for i in key):
                raise ValueError(f"bad multiset key {key} for arity {n}, dim {dim}")
            vec = tuple(x if type(x) is Fraction else Fraction(x) for x in vec)
            if len(vec) != dim:
                raise ValueError("value vector has wrong length")
            clean[key] = vec
        den = lcm(*(x.denominator for vec in clean.values() for x in vec))
        self._reduce(n, dim, {key: [x.numerator * (den // x.denominator) for x in vec]
                              for key, vec in clean.items()}, den)

    def _reduce(self, n: int, dim: int, num, den: int) -> None:
        """Store num / den (den > 0) in lowest terms, dropping all-zero vectors."""
        g = gcd(den, *(x for vec in num.values() for x in vec))
        self.n, self.dim, self.den = n, dim, den // g
        self.num = {key: tuple(x // g for x in vec) for key, vec in num.items() if any(vec)}

    @classmethod
    def _from_ints(cls, n: int, dim: int, num, den: int) -> "SymCochain":
        """num / den from {sorted multiset: d ints} and den > 0; keys are trusted."""
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
        coeffs: dict[tuple[int, ...], list[Fraction]] = {}
        for mset, k, val in entries:
            if not 0 <= k < dim:
                raise ValueError(f"output index k={k} out of range for dim {dim}")
            key = tuple(sorted(mset))
            vec = coeffs.setdefault(key, [Fraction(0)] * dim)
            vec[k] += Fraction(val)
        return cls(n, dim, coeffs)

    # -- access ------------------------------------------------------------
    @property
    def coeffs(self) -> dict[tuple[int, ...], tuple[Fraction, ...]]:
        """{multiset: value vector} over the nonzero multisets, as Fractions."""
        return {key: tuple(Fraction(x, self.den) for x in vec) for key, vec in self.num.items()}

    def value_at(self, mset) -> tuple[Fraction, ...]:
        """Value vector at the basis tuple of the given multiset."""
        vec = self.num.get(tuple(sorted(mset)))
        return vzero(self.dim) if vec is None else tuple(Fraction(x, self.den) for x in vec)

    def coeff(self, mset, k: int) -> Fraction:
        return self.value_at(mset)[k]

    def is_zero(self) -> bool:
        return not self.num

    def items(self):
        """Deterministic iteration: sorted multisets, then output index."""
        for key in sorted(self.num):
            for k, x in enumerate(self.num[key]):
                if x:
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

        Contracts one argument at a time; by the storage convention the
        result at a basis tuple is exactly the stored coefficient vector.
        The contraction runs on integers: numerators over the cochain's
        common denominator, each argument scaled by the lcm of its own
        denominators, one division per output coordinate at the end.
        """
        args = [tuple(x if type(x) is Fraction else Fraction(x) for x in a) for a in args]
        if len(args) != self.n:
            raise ValueError(f"expected {self.n} arguments, got {len(args)}")
        if any(len(a) != self.dim for a in args):
            raise ValueError("argument vector has wrong length")
        if not self.num:
            return vzero(self.dim)
        cur, den = self.num, self.den
        for v in args:
            s = lcm(*(x.denominator for x in v))
            den *= s
            v = [x.numerator * (s // x.denominator) for x in v]
            nxt: dict[tuple[int, ...], list[int]] = {}
            for mset, vec in cur.items():
                prev = None
                for pos, i in enumerate(mset):
                    if i == prev:
                        continue
                    prev = i
                    c = v[i]
                    if not c:
                        continue
                    red = mset[:pos] + mset[pos + 1:]
                    acc = nxt.get(red)
                    if acc is None:
                        nxt[red] = [c * x for x in vec]
                    else:
                        nxt[red] = [a + c * x for a, x in zip(acc, vec)]
            cur = nxt
        out = cur.get(())
        return vzero(self.dim) if out is None else tuple(Fraction(x, den) for x in out)

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
        if not isinstance(d, dict):
            raise ValueError("cochain document must be an object")
        try:
            n = json_int(d["n"], "n")
            dim = json_int(d["dim"], "dim")
            raw = d["coeffs"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"cochain document missing field: {exc}") from None
        if not isinstance(raw, list):
            raise ValueError("coeffs must be a list")
        entries = {}
        for item in raw:
            try:
                mset = tuple(json_int(i, "multiset entry") for i in item["multiset"])
                k = json_int(item["k"], "k")
                c = rat_from_str(item["c"])
            except (KeyError, TypeError) as exc:
                raise ValueError(f"bad coefficient entry: {exc}") from None
            if tuple(sorted(mset)) != mset:
                raise ValueError(f"multiset not sorted: {list(mset)}")
            if len(mset) != n or any(not 0 <= i < dim for i in mset) or not 0 <= k < dim:
                raise ValueError(f"coefficient entry out of range: {item}")
            if (mset, k) in entries:
                raise ValueError(f"duplicate coefficient key {(list(mset), k)}")
            entries[mset, k] = c
        return cls.from_entries(n, dim, ((mset, k, c) for (mset, k), c in entries.items()))


def symmetrize(table, n: int, dim: int) -> SymCochain:
    """Average a full multilinear table over all argument orders.

    `table` maps ordered basis index tuples to value vectors; missing
    tuples count as zero.  Idempotent on already-symmetric input.
    """
    fact = factorial(n)
    coeffs = {}
    for mset in multisets(dim, n):
        tot = list(vzero(dim))
        for perm in permutations(mset):
            vec = table.get(perm)
            if vec is None:
                continue
            for k in range(dim):
                tot[k] += Fraction(vec[k])
        vec = tuple(x / fact for x in tot)
        if any(vec):
            coeffs[mset] = vec
    return SymCochain(n, dim, coeffs)


def _combine(n: int, dim: int, terms) -> SymCochain:
    """sum s f over the list of (s, f), s an int or Fraction and f of arity n (0 if
    empty): one integer accumulator over the common denominator, reduced once."""
    den = lcm(*[s.denominator * f.den for s, f in terms])
    out = {}
    for s, f in terms:
        c = s.numerator * (den // (s.denominator * f.den))
        for key, vec in f.num.items():
            acc = out.get(key)
            out[key] = [c * x for x in vec] if acc is None else [
                a + c * x for a, x in zip(acc, vec)]
    return SymCochain._from_ints(n, dim, out, den)


def linear_combine(scalars, cochains) -> SymCochain:
    """sum_i s_i f_i over nonempty lists of cochains of one shape."""
    cochains = list(cochains)
    scalars = [Fraction(s) for s in scalars]
    if len(scalars) != len(cochains) or not cochains:
        raise ValueError("need matching nonempty scalar/cochain lists")
    if len({(f.n, f.dim) for f in cochains}) > 1:
        raise ValueError("cochain arity/dimension mismatch")
    return _combine(cochains[0].n, cochains[0].dim, list(zip(scalars, cochains)))


def basis_cochains(dim: int, n: int):
    """Yield ((multiset, k), cochain) in the canonical flat order."""
    for mset in multisets(dim, n):
        for k in range(dim):
            yield (mset, k), SymCochain(n, dim, {mset: tuple(
                Fraction(1 if t == k else 0) for t in range(dim))})


def coeff_vector(f: SymCochain) -> list[Fraction]:
    """Flatten to the canonical coordinate order (multiset-major, then k)."""
    out = []
    for mset in multisets(f.dim, f.n):
        vec = f.value_at(mset)
        out.extend(vec)
    return out


def from_coeff_vector(dim: int, n: int, vec) -> SymCochain:
    vec = list(vec)
    msets = multisets(dim, n)
    if len(vec) != len(msets) * dim:
        raise ValueError("coefficient vector has wrong length")
    return SymCochain(n, dim, {mset: vec[idx * dim:(idx + 1) * dim]
                               for idx, mset in enumerate(msets)})
