"""The differential d = [mu, .] as explicit matrices per degree, the
printed low-degree coboundary formulas, the d-squared comparison against
(1/2) ad_{[mu,mu]}, and kernel/image/cohomology data with validity flags.

The matrix of f -> [g, f], g = mu or [mu, mu], is scattered from g's
nonzeros into sparse rows: the operator is linear in f and fixed by g, so no
bracket is taken per column, and the mode enters only as two scalars.

d o d = 0 is never assumed: cohomology reports carry an explicit
`complex_valid` flag and the rank of the composite.  The matrices of d_n
and of d_{n+1} d_n are kept on the algebra per (n, mode): each is built
once and dies with it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .algebra import Algebra, Witness, product, product_cochain
from .bracket import (InsertionMode, _prefactor, _slots, _unshuffle_count, graded_bracket,
                      koszul_sign)
from .cochain import SymCochain, _int_form, multisets
from .exactla import Matrix, kernel_basis, rank, vadd, vsub


def differential(A: Algebra, f: SymCochain, mode: InsertionMode = InsertionMode.SUM) -> SymCochain:
    """d f = [mu, f] where mu is the product of A as a 2-cochain."""
    if f.dim != A.dim:
        raise ValueError("cochain dimension does not match algebra")
    return graded_bracket(product_cochain(A), f, mode)


def coboundary_c1_explicit(A: Algebra, f: SymCochain) -> SymCochain:
    """The printed arity-1 coboundary (d f)(x,y) = f(x*y) - f(x)*y - x*f(y).

    Computed as minus the SUM-mode bracket differential on arity-1 cochains.
    """
    if f.n != 1:
        raise ValueError("explicit arity-1 coboundary needs an arity-1 cochain")
    return -differential(A, f, InsertionMode.SUM)


def coboundary_c2_explicit(A: Algebra, phi: SymCochain) -> SymCochain:
    """The printed arity-2 coboundary
    (d phi)(x,y,z) = sum_cyc ( mu(phi(x,y), z) - phi(mu(x,y), z) )
    with the cyclic convention F(x,y,z)+F(y,z,x)+F(z,x,y)."""
    if phi.n != 2:
        raise ValueError("explicit arity-2 coboundary needs an arity-2 cochain")
    if phi.dim != A.dim:
        raise ValueError("cochain dimension does not match algebra")
    d = A.dim
    basis = [A.basis_vector(i) for i in range(d)]

    def term(x, y, z):
        return vsub(product(A, phi.evaluate((x, y)), z),
                    phi.evaluate((product(A, x, y), z)))

    coeffs = {}
    for mset in multisets(d, 3):
        x, y, z = (basis[i] for i in mset)
        val = vadd(vadd(term(x, y, z), term(y, z, x)), term(z, x, y))
        if any(val):
            coeffs[mset] = val
    return SymCochain(3, d, coeffs)


@dataclass
class DifferentialData:
    mode: InsertionMode
    degree: int
    matrix: Matrix


def _bracket_matrix(g: SymCochain, n: int, mode: InsertionMode, c) -> Matrix:
    """Matrix of f -> c [g, f] on arity-n cochains.

    Column (F, t) is c [g, e_{F,t}] = c p_L (g o e) - c (-1)^{(m-1)(n-1)} p_R (e o g),
    p_L, p_R and mult being `insert`'s prefactors and unshuffle count.  In g o e,
    g[G]_s and each distinct slot k of G add mult g[G]_s at (sorted(G - {k} + F), s)
    in column (F, k); in e o g, each distinct slot k of F and g[G]_k add mult g[G]_k at
    (sorted(F - {k} + G), t) in column (F, t).  Row index(M) d + t is coordinate t at M."""
    m, d = g.n, g.dim
    ints, den = _int_form(g)
    # both pieces over one denominator q, so the sums run on ints
    left = c * _prefactor(mode, m, n) / den
    right = -c * koszul_sign(m - 1, n - 1) * _prefactor(mode, n, m) / den
    q = lcm(left.denominator, right.denominator)
    p_left, p_right = int(left * q), int(right * q)
    columns = multisets(d, n)
    row_of = {M: i * d for i, M in enumerate(multisets(d, m + n - 1))}
    srows: list[dict[int, int]] = [defaultdict(int) for _ in range(len(row_of) * d)]
    by_slot: dict[int, list] = {}  # k -> [(G, p_right g[G]_k)]
    for G, gval in ints.items():
        nonzero = [(s, x) for s, x in enumerate(gval) if x]
        for k, rest in _slots(G):
            for j, F in enumerate(columns):
                row, col = row_of[tuple(sorted(rest + F))], j * d + k
                mult = _unshuffle_count(rest, F) * p_left
                for s, x in nonzero:
                    srows[row + s][col] += mult * x
        for k, x in nonzero:
            by_slot.setdefault(k, []).append((G, p_right * x))
    for j, F in enumerate(columns):
        for k, rest in _slots(F):
            for G, w in by_slot.get(k, ()):
                row, x = row_of[tuple(sorted(rest + G))], _unshuffle_count(rest, G) * w
                for t in range(d):
                    srows[row + t][j * d + t] += x
    return Matrix(len(srows), len(columns) * d,
                  srows=[{j: Fraction(x, q) for j, x in r.items() if x} for r in srows])


def differential_matrix(A: Algebra, n: int, mode: InsertionMode = InsertionMode.SUM) -> DifferentialData:
    """Matrix of d from arity-n to arity-(n+1) coefficients,
    column j = d(basis cochain j).  Kept on A."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    key = ("d", n, mode)
    if key not in A._ops:
        A._ops[key] = DifferentialData(mode, n, _bracket_matrix(product_cochain(A), n, mode, 1))
    return A._ops[key]


def ad_half_bracket_matrix(A: Algebra, n: int, mode: InsertionMode = InsertionMode.SUM) -> Matrix:
    """Matrix of f -> (1/2) [[mu, mu], f] on arity-n cochains."""
    mu = product_cochain(A)
    return _bracket_matrix(graded_bracket(mu, mu, mode), n, mode, Fraction(1, 2))


def _composite(A: Algebra, n: int, mode: InsertionMode) -> Matrix:
    """Matrix of d o d from arity n to arity n+2, d_{n+1} d_n.  Kept on A."""
    key = ("dd", n, mode)
    if key not in A._ops:
        d_n = differential_matrix(A, n, mode).matrix
        A._ops[key] = differential_matrix(A, n + 1, mode).matrix.mul(d_n)
    return A._ops[key]


@dataclass
class DSquaredReport:
    degree: int
    mode: InsertionMode
    equal: bool
    both_zero: bool
    witness: Witness | None = None


def check_d_squared(A: Algebra, n: int, mode: InsertionMode = InsertionMode.SUM) -> DSquaredReport:
    """Compare the matrix of d o d (arity n -> n+2) against the matrix of
    f -> (1/2)[[mu,mu],f]; reports equality and whether both vanish."""
    composite = _composite(A, n, mode)
    ad_half = ad_half_bracket_matrix(A, n, mode)
    both_zero = composite.is_zero() and ad_half.is_zero()
    if composite == ad_half:
        return DSquaredReport(n, mode, True, both_zero)
    # the first differing column, located back on its basis cochain
    j = min(col for ra, rb in zip(composite.srows, ad_half.srows) if ra != rb
            for col in ra.keys() | rb.keys() if ra.get(col) != rb.get(col))
    mset, k = multisets(A.dim, n)[j // A.dim], j % A.dim
    e_j = tuple(Fraction(int(i == j)) for i in range(composite.cols))
    wit = Witness((e_j,), composite.column(j), ad_half.column(j),
                  f"columns of d∘d vs (1/2)ad on basis cochain ({list(mset)}, k={k})")
    return DSquaredReport(n, mode, False, both_zero, wit)


@dataclass
class CohomologyReport:
    degree: int
    mode: InsertionMode
    dim_kernel: int
    dim_image_from_below: int
    complex_valid: bool
    defect_rank: int
    dim_H: int | None

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "mode": self.mode.value,
            "dim_kernel": self.dim_kernel,
            "dim_image_from_below": self.dim_image_from_below,
            "complex_valid": self.complex_valid,
            "defect_rank": self.defect_rank,
            "dim_H": self.dim_H,
        }


def cohomology(A: Algebra, n: int, mode: InsertionMode = InsertionMode.SUM) -> CohomologyReport:
    d_n = differential_matrix(A, n, mode).matrix
    dim_kernel = d_n.cols - rank(d_n)
    if n == 0:
        dim_image = 0
        defect = 0
    else:
        dim_image = rank(differential_matrix(A, n - 1, mode).matrix)
        defect = rank(_composite(A, n - 1, mode))
    valid = defect == 0
    dim_H = dim_kernel - dim_image if valid else None
    return CohomologyReport(n, mode, dim_kernel, dim_image, valid, defect, dim_H)


def coboundary_c1_matrix(A: Algebra) -> Matrix:
    """Matrix of the printed arity-1 coboundary on endomorphism coefficients:
    -d_1 in SUM mode."""
    return differential_matrix(A, 1, InsertionMode.SUM).matrix.scale(-1)


def derivations(A: Algebra) -> list[Matrix]:
    """Basis of {f in End(J): f(x*y) = f(x)*y + x*f(y)} as d x d matrices,
    computed as the kernel of d_1 in SUM mode (minus the printed coboundary)."""
    d = A.dim
    # coefficient order is multiset-major: index j*d + k holds (f(e_j))_k
    return [Matrix.from_columns([v[j * d:(j + 1) * d] for j in range(d)], d)
            for v in kernel_basis(differential_matrix(A, 1, InsertionMode.SUM).matrix)]


def endomorphism_cochain(mat: Matrix) -> SymCochain:
    """View a d x d matrix as an arity-1 cochain."""
    if mat.rows != mat.cols:
        raise ValueError("endomorphism matrix must be square")
    d = mat.rows
    return SymCochain(1, d, {(j,): mat.column(j) for j in range(d)
                             if any(mat.column(j))})


def identity_cochain(d: int) -> SymCochain:
    return endomorphism_cochain(Matrix.identity(d))
