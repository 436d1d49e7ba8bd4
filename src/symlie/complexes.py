"""The differential d = [mu, .] as explicit matrices per degree, the
printed low-degree coboundary formulas, the d-squared comparison against
(1/2) ad_{[mu,mu]}, and kernel/image/cohomology data with validity flags.

The matrix of f -> [g, f], g = mu or [mu, mu], is one call to the insertion
kernel `bracket._scatter` with g's nonzeros on one side and the basis
cochains on the other, so no bracket is taken per column, and the mode
enters only as the two prefactors.

d o d = 0 is never assumed: cohomology reports carry an explicit
`complex_valid` flag and the rank of the composite.  The matrices of d_n
and of d_{n+1} d_n, and the rank of d_n, are kept on the algebra per
(n, mode): each is computed once and dies with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import Algebra, Witness, product_cochain
from .bracket import (InsertionMode, _compose, _prefactor, _scatter, _terms, graded_bracket,
                      koszul_sign)
from .cochain import SymCochain, multisets
from .exactla import Matrix, kernel_basis, rank


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
    with the cyclic convention F(x,y,z)+F(y,z,x)+F(z,x,y).  The two cyclic
    sums are the SUM-mode insertions mu o phi and phi o mu: one composition."""
    if phi.n != 2:
        raise ValueError("explicit arity-2 coboundary needs an arity-2 cochain")
    if phi.dim != A.dim:
        raise ValueError("cochain dimension does not match algebra")
    return _compose(product_cochain(A), phi, InsertionMode.SUM, -1)


@dataclass
class DifferentialData:
    mode: InsertionMode
    degree: int
    matrix: Matrix

    @cached_property
    def rank(self) -> int:
        """The rank of d_n, computed on first read."""
        return rank(self.matrix)


def _bracket_matrix(g: SymCochain, n: int, mode: InsertionMode, c) -> Matrix:
    """Matrix of f -> c [g, f] on arity-n cochains, as one `_scatter`.

    Column (F, t) is c p_L (g o e) - c (-1)^{(m-1)(n-1)} p_R (e o g) for the basis
    cochain e = e_{F,t}, 1 at coordinate t of F and 0 elsewhere.  In g o e each e is
    an inner term tagged with its column j d + t.  In e o g one outer term per F,
    tagged j d, carries every t: its coordinate t lies in column j d + t."""
    m, d = g.n, g.dim
    terms, den = _terms(g)
    columns = multisets(d, n)
    inner = [(F, j * d + t, [(t, 1)]) for j, F in enumerate(columns) for t in range(d)]
    outer = [(F, j * d, [(t, 1) for t in range(d)]) for j, F in enumerate(columns)]
    out, q = _scatter([(c * _prefactor(mode, m, n), terms, inner),
                       (-c * koszul_sign(m - 1, n - 1) * _prefactor(mode, n, m), outer, terms)], d)
    row_of = {M: i * d for i, M in enumerate(multisets(d, m + n - 1))}
    srows: list[dict[int, int]] = [{} for _ in range(len(row_of) * d)]  # index(M) d + t
    for (M, block, col), acc in out.items():
        for t, x in enumerate(acc):
            if x:
                row, j = srows[row_of[M] + t], col if block is None else block + t
                row[j] = row.get(j, 0) + x
    return Matrix._from_ints(len(srows), len(columns) * d, srows, q * den)


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
    j = min(col for row in composite.add(ad_half.scale(-1)).num for col in row)
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
    d_n = differential_matrix(A, n, mode)
    dim_kernel = d_n.matrix.cols - d_n.rank
    if n == 0:
        dim_image = 0
        defect = 0
    else:
        dim_image = differential_matrix(A, n - 1, mode).rank
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
    """View a d x d matrix as an arity-1 cochain: column j is the value at (j,)."""
    if mat.rows != mat.cols:
        raise ValueError("endomorphism matrix must be square")
    return SymCochain._from_ints(1, mat.rows, {(j,): [r.get(j, 0) for r in mat.num]
                                               for j in range(mat.cols)}, mat.den)


def identity_cochain(d: int) -> SymCochain:
    return endomorphism_cochain(Matrix.identity(d))
