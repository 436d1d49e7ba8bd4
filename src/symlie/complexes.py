"""The differential d = [mu, .] as explicit matrices per degree, the
printed low-degree coboundary formulas, the d-squared comparison against
(1/2) ad_{[mu,mu]}, and kernel/image/cohomology data with validity flags.

d o d = 0 is never assumed: cohomology reports carry an explicit
`complex_valid` flag and the rank of the composite.  The matrices of d_n
and of d_{n+1} d_n are kept on the algebra per (n, mode): each is built
once and dies with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Algebra, Witness, product, product_cochain
from .bracket import InsertionMode, graded_bracket
from .cochain import SymCochain, basis_cochains, from_coeff_vector, multisets, sym_basis_dim
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
    """Matrix of f -> c [g, f] on arity-n cochains.  Column j is c [g, e_j]
    for the j-th basis cochain e_j, written from the bracket's nonzeros:
    coordinate t at multiset M is row index(M) * d + t."""
    d, out_n = g.dim, g.n + n - 1
    row_of = {mset: i * d for i, mset in enumerate(multisets(d, out_n))}
    cols = sym_basis_dim(d, n)
    data = [[Fraction(0)] * cols for _ in range(sym_basis_dim(d, out_n))]
    for j, (_, e_j) in enumerate(basis_cochains(d, n)):
        for mset, vec in graded_bracket(g, e_j, mode).coeffs.items():
            row = row_of[mset]
            for t, x in enumerate(vec):
                if x:
                    data[row + t][j] = c * x
    return Matrix(len(data), cols, data)


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
    # first differing entry, located back on the responsible basis cochain
    for j in range(composite.cols):
        ca, cb = composite.column(j), ad_half.column(j)
        if ca != cb:
            mset, k = multisets(A.dim, n)[j // A.dim], j % A.dim
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
    mats = []
    for v in kernel_basis(differential_matrix(A, 1, InsertionMode.SUM).matrix):
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
