"""The differential d = [mu, .] as explicit matrices per degree, the
printed low-degree coboundary formulas, the d-squared comparison against
(1/2) ad_{[mu,mu]}, and kernel/image/cohomology data with validity flags.

d o d = 0 is never assumed: cohomology reports carry an explicit
`complex_valid` flag and the rank of the composite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import Algebra, Witness, product, product_cochain
from .bracket import InsertionMode, graded_bracket
from .cochain import (SymCochain, basis_cochains, coeff_vector, from_coeff_vector,
                      multisets, sym_basis_dim)
from .exactla import Matrix, kernel_basis, rank, vadd, vsub, vzero


def differential(A: Algebra, f: SymCochain, mode: InsertionMode = InsertionMode.SUM) -> SymCochain:
    """d f = [mu, f] where mu is the product of A as a 2-cochain."""
    if f.dim != A.dim:
        raise ValueError("cochain dimension does not match algebra")
    return graded_bracket(product_cochain(A), f, mode)


def coboundary_c1_explicit(A: Algebra, f: SymCochain) -> SymCochain:
    """The printed arity-1 coboundary (d f)(x,y) = f(x*y) - f(x)*y - x*f(y).

    Equals the negative of the SUM-mode bracket differential on arity-1
    cochains; kept in its printed form for the audit.
    """
    if f.n != 1:
        raise ValueError("explicit arity-1 coboundary needs an arity-1 cochain")
    if f.dim != A.dim:
        raise ValueError("cochain dimension does not match algebra")
    d = A.dim

    def fv(v):
        acc = list(vzero(d))
        for i in range(d):
            if v[i] == 0:
                continue
            vec = f.value_at((i,))
            for t in range(d):
                acc[t] += v[i] * vec[t]
        return tuple(acc)

    coeffs = {}
    for mset in multisets(d, 2):
        i, j = mset
        ei, ej = A.basis_vector(i), A.basis_vector(j)
        val = vsub(vsub(fv(A.sc[i][j]), product(A, f.value_at((i,)), ej)),
                   product(A, ei, f.value_at((j,))))
        if any(val):
            coeffs[mset] = val
    return SymCochain(2, d, coeffs)


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


@lru_cache(maxsize=None)
def differential_matrix(A: Algebra, n: int, mode: InsertionMode = InsertionMode.SUM) -> DifferentialData:
    """Matrix of d from arity-n to arity-(n+1) coefficients,
    column j = d(basis cochain j)."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    cols = [coeff_vector(differential(A, f, mode)) for _, f in basis_cochains(A.dim, n)]
    mat = Matrix.from_columns(cols, sym_basis_dim(A.dim, n + 1)) if cols else \
        Matrix.zeros(sym_basis_dim(A.dim, n + 1), 0)
    return DifferentialData(mode, n, mat)


@lru_cache(maxsize=None)
def ad_half_bracket_matrix(A: Algebra, n: int, mode: InsertionMode = InsertionMode.SUM) -> Matrix:
    """Matrix of f -> (1/2) [[mu, mu], f] on arity-n cochains."""
    mu = product_cochain(A)
    B = graded_bracket(mu, mu, mode)
    cols = [coeff_vector(graded_bracket(B, f, mode).scale(Fraction(1, 2)))
            for _, f in basis_cochains(A.dim, n)]
    return Matrix.from_columns(cols, sym_basis_dim(A.dim, n + 2))


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
    d_n = differential_matrix(A, n, mode).matrix
    d_n1 = differential_matrix(A, n + 1, mode).matrix
    composite = d_n1.mul(d_n)
    ad_half = ad_half_bracket_matrix(A, n, mode)
    both_zero = composite.is_zero() and ad_half.is_zero()
    if composite == ad_half:
        return DSquaredReport(n, mode, True, both_zero)
    # first differing entry, located back on the responsible basis cochain
    for j in range(composite.cols):
        ca, cb = composite.column(j), ad_half.column(j)
        if ca != cb:
            (mset, k), _ = list(basis_cochains(A.dim, n))[j]
            # the coefficient vector of that basis cochain: e_j
            e_j = tuple(Fraction(int(i == j)) for i in range(composite.cols))
            wit = Witness(
                inputs=(e_j,),
                left=ca, right=cb,
                note=f"columns of d∘d vs (1/2)ad on basis cochain ({list(mset)}, k={k})")
            return DSquaredReport(n, mode, False, both_zero, wit)
    raise AssertionError("unreachable")


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
        d_prev = differential_matrix(A, n - 1, mode).matrix
        dim_image = rank(d_prev)
        defect = rank(d_n.mul(d_prev))
    valid = defect == 0
    dim_H = dim_kernel - dim_image if valid else None
    return CohomologyReport(n, mode, dim_kernel, dim_image, valid, defect, dim_H)


def coboundary_c1_matrix(A: Algebra) -> Matrix:
    """Matrix of the printed arity-1 coboundary on endomorphism coefficients."""
    cols = [coeff_vector(coboundary_c1_explicit(A, f))
            for _, f in basis_cochains(A.dim, 1)]
    return Matrix.from_columns(cols, sym_basis_dim(A.dim, 2))


def derivations(A: Algebra) -> list[Matrix]:
    """Basis of {f in End(J): f(x*y) = f(x)*y + x*f(y)} as d x d matrices,
    computed as the kernel of the printed arity-1 coboundary."""
    d = A.dim
    mats = []
    for v in kernel_basis(coboundary_c1_matrix(A)):
        # coefficient order is multiset-major: index j*d + k holds (f(e_j))_k
        f = from_coeff_vector(d, 1, v)
        data = [[f.coeff((j,), i) for j in range(d)] for i in range(d)]
        mats.append(Matrix(d, d, data))
    return mats


def endomorphism_cochain(mat: Matrix) -> SymCochain:
    """View a d x d matrix as an arity-1 cochain."""
    if mat.rows != mat.cols:
        raise ValueError("endomorphism matrix must be square")
    d = mat.rows
    return SymCochain(1, d, {(j,): mat.column(j) for j in range(d)
                             if any(mat.column(j))})


def identity_cochain(d: int) -> SymCochain:
    return endomorphism_cochain(Matrix.identity(d))
