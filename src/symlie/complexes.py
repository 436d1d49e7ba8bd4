"""The differential d = [mu, .] as explicit matrices per degree, the
printed low-degree coboundary formulas, the d-squared comparison against
(1/2) ad_{[mu,mu]}, and kernel/image/cohomology data with validity flags.
The linear maps read off mu are read off these matrices: d_0 v = mu o v = L_v, so
the unit is d_0^{-1}(id), as the derivations are ker d_1.

d_n comes from the insertion kernel `bracket._scatter`, mu's kept slot plan
joined with synthetic plans of the basis cochains: the SUM-mode pieces
f -> mu o f and f -> f o mu, not kept, of which every mode's d_n is a scalar
combination.  f -> f o mu is S (x) I_d, one term per multiset, and a mode with
the same integer combination as another (PAPER at n = 0, 2) shares its rows.
(1/2) ad_{[mu,mu]} has no matrix: the d o d check brackets the kept [mu,mu]
with one basis cochain per column it compares.

d o d = 0 is never assumed: cohomology reports carry an explicit
`complex_valid` flag and the defect rank(d_n d_{n-1}), read off the ranks
when d_n is injective.  Through `algebra._kept` the SUM-mode [mu, mu], every
mode's d_n (with its rank, shared by a mode whose d_n is a nonzero multiple
of SUM's; a miss builds all modes) and, where cohomology must rank it,
rank(d_n d_{n-1}) per mode are kept once for all their readers and die with A.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .algebra import Algebra, Witness, _kept, product_cochain
from .bracket import InsertionMode, _compose, _divisor, _scatter, graded_bracket, koszul_sign
from .cochain import SymCochain, _outer_terms, multisets
from .exactla import Matrix, Record, _apply, kernel_basis, rank, solve


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


class DifferentialData(Record):
    _fields = ("mode", "degree", "matrix")
    __slots__ = _fields + ("multiple_of", "_rank")

    def __init__(self, mode: InsertionMode, degree: int, matrix: Matrix,
                 multiple_of: DifferentialData | None = None):
        self.mode, self.degree, self.matrix = mode, degree, matrix
        # SUM's d_n when this one is a nonzero multiple of it, which has the same rank
        self.multiple_of, self._rank = multiple_of, None

    @property
    def rank(self) -> int:
        """The rank of d_n, computed on first read (once per proportional pair)."""
        if self._rank is None:
            self._rank = self.multiple_of.rank if self.multiple_of else rank(self.matrix)
        return self._rank


def _bracket_matrices(g: SymCochain, n: int,
                      modes=tuple(InsertionMode)) -> dict[InsertionMode, Matrix]:
    """{mode: matrix of f -> [g, f] on arity-n cochains} per mode in `modes`, from `_scatter`
    of the SUM-mode pieces L: e -> g o e and R: e -> e o g on the basis cochains e = e_{F,t},
    column j d + t for F the j-th multiset.  L joins g's outer plan with inner terms 1 at each
    slot k of each F, tagged with the column j d + k filled.  R is S (x) I_d: one outer term
    per F, 1 at j d, gives column j of S, whose entry at (M, F) lands at row index(M) d + t,
    column j d + t for each t.  A mode's matrix is (a L + b R) / q with 1 / k_L = a / q and
    -(-1)^{(m-1)(n-1)} / k_R = b / q, k_L = `_divisor(mode, m, n)` and k_R = `_divisor(mode,
    n, m)`; modes with one (a, b) share the rows assembled for it."""
    m, d = g.n, g.dim
    col_of = {F: j * d for j, F in enumerate(multisets(d, n))}
    units = {k: [(F, j + k, 1) for F, j in col_of.items()] for k in range(d)}
    blocks = _outer_terms({F: {j: 1} for F, j in col_of.items()})
    L, _ = _scatter([(1, 1, g._slot_plan()[0], units)])
    R, _ = _scatter([(1, 1, blocks, g._slot_plan()[1])])
    row_of = {M: i * d for i, M in enumerate(multisets(d, m + n - 1))}
    mats, shared = {}, {}
    for mode in modes:
        k_L, k_R = _divisor(mode, m, n), _divisor(mode, n, m)
        q = lcm(k_L, k_R)
        a, b = q // k_L, -koszul_sign(m - 1, n - 1) * q // k_R
        if (a, b) not in shared:
            rows = shared[a, b] = [{} for _ in range(len(row_of) * d)]  # index(M) d + t
            for (M, col), acc in L.items():  # one entry per row and column
                i = row_of[M]
                for t, x in acc.items():
                    if x:
                        rows[i + t][col] = a * x
            for (M, _), acc in R.items():
                block = rows[row_of[M]:row_of[M] + d]
                for j, x in acc.items():
                    x *= b
                    for t, row in enumerate(block, j):
                        if v := row.get(t, 0) + x:
                            row[t] = v
                        else:  # none stored where terms cancel
                            row.pop(t, None)
        mats[mode] = Matrix._from_ints(len(row_of) * d, len(col_of) * d, shared[a, b], q * g.den)
    return mats


def differential_matrix(A: Algebra, n: int, mode: InsertionMode = InsertionMode.SUM) -> DifferentialData:
    """Matrix of d from arity-n to arity-(n+1) coefficients,
    column j = d(basis cochain j).  Kept on A; a miss builds every mode.  A mode's
    d_n is L / k_L - s R / k_R, k_L = `_divisor(mode, 2, n)`, k_R = `_divisor(mode, n, 2)`:
    where k_L = k_R (PAPER at n = 0, 2) it is SUM's over k_L, and reads SUM's rank."""
    _divisor(mode, 0, 0)  # refuses a mode that is not an InsertionMode
    if n < 0:
        raise ValueError("degree must be >= 0")

    def build():
        mats = _bracket_matrices(product_cochain(A), n)
        s = DifferentialData(InsertionMode.SUM, n, mats[InsertionMode.SUM])
        return {m: s if m is InsertionMode.SUM else DifferentialData(
            m, n, mats[m], s if _divisor(m, 2, n) == _divisor(m, n, 2) else None)
            for m in InsertionMode}
    return _kept(A, ("d", n), build)[mode]


def _mu_bracket(A: Algebra) -> SymCochain:
    """[mu, mu] in SUM mode, kept on A; a mode's is it over `_divisor(mode, 2, 2)`."""
    return _kept(A, "mumu", lambda: graded_bracket(product_cochain(A), product_cochain(A)))


class DSquaredReport(Record):
    __slots__ = _fields = ("degree", "mode", "equal", "both_zero", "witness")

    def __init__(self, degree: int, mode: InsertionMode, equal: bool, both_zero: bool,
                 witness: Witness | None = None):
        self.degree, self.mode, self.equal, self.both_zero = degree, mode, equal, both_zero
        self.witness = witness


def check_d_squared(A: Algebra, n: int, mode: InsertionMode = InsertionMode.SUM) -> DSquaredReport:
    """Compare d o d (arity n -> n+2) with f -> (1/2)[[mu,mu],f] on the basis cochains e_j
    in order, up to the first column that differs; reports equality and whether both vanish.
    Column j is the kept d_{n+1} times column j of the kept d_n against the kept SUM-mode
    [[mu,mu], e_j] over h = 2 `_divisor(mode, 2, 2)`, both read by their kept columns."""
    d_n, d_up = differential_matrix(A, n, mode).matrix, differential_matrix(A, n + 1, mode).matrix
    B, d, h, D = _mu_bracket(A), A.dim, 2 * _divisor(mode, 2, 2), d_up.den * d_n.den
    row_of, up, zero = {M: i * d for i, M in enumerate(multisets(d, n + 2))}, d_up._columns(), True
    for j, col in enumerate(d_n._columns()):
        F = multisets(d, n)[j // d]
        br = graded_bracket(B, SymCochain._from_ints(n, d, {F: {j % d: 1}}, 1), mode)
        p = h * br.den  # both columns as ints over p D
        dd = {i: p * x for i, x in _apply([(up, col)]).items()}
        ad = {row_of[M] + t: D * x for M, v in br.num.items() for t, x in v.items()}
        if dd != ad:
            z, rows, den = Fraction(0), range(d_up.rows), p * D
            return DSquaredReport(n, mode, False, False, Witness(
                ((z,) * j + (Fraction(1),) + (z,) * (d_n.cols - j - 1),),
                *(tuple(Fraction(v[i], den) if i in v else z for i in rows) for v in (dd, ad)),
                f"columns of d∘d vs (1/2)ad on basis cochain ({list(F)}, k={j % d})"))
        zero = zero and not dd
    return DSquaredReport(n, mode, True, zero)


class CohomologyReport(Record):
    __slots__ = _fields = ("degree", "mode", "dim_kernel", "dim_image_from_below",
                           "complex_valid", "defect_rank", "dim_H")

    def __init__(self, degree: int, mode: InsertionMode, dim_kernel: int,
                 dim_image_from_below: int, complex_valid: bool, defect_rank: int,
                 dim_H: int | None):
        self.degree, self.mode, self.dim_kernel = degree, mode, dim_kernel
        self.dim_image_from_below, self.complex_valid = dim_image_from_below, complex_valid
        self.defect_rank, self.dim_H = defect_rank, dim_H

    def to_json_dict(self) -> dict:
        return {**dict(zip(self._fields, self._values())), "mode": self.mode.value}


def cohomology(A: Algebra, n: int, mode: InsertionMode = InsertionMode.SUM) -> CohomologyReport:
    """dim ker d_n, rank d_{n-1} and the defect rank(d_n d_{n-1}); H^n when it is 0.
    Sylvester: rank(d_n d_{n-1}) = rank(d_{n-1}) - dim(ker d_n & im d_{n-1}), so an
    injective d_n gives defect rank(d_{n-1}); otherwise the product's rank is kept.
    A mode whose d_n is a nonzero multiple of SUM's reads SUM's rank (a scalar keeps it)."""
    d_n = differential_matrix(A, n, mode)
    dim_kernel = d_n.matrix.cols - d_n.rank
    dim_image = differential_matrix(A, n - 1, mode).rank if n else 0
    defect = dim_image if dim_kernel == 0 or not n else _kept(A, ("defect", n, mode), lambda: rank(
        d_n.matrix.mul(differential_matrix(A, n - 1, mode).matrix)))
    return CohomologyReport(n, mode, dim_kernel, dim_image, defect == 0, defect,
                            None if defect else dim_kernel - dim_image)


def coboundary_c1_matrix(A: Algebra) -> Matrix:
    """Matrix of the printed arity-1 coboundary on endomorphism coefficients:
    -d_1 in SUM mode."""
    return differential_matrix(A, 1, InsertionMode.SUM).matrix.scale(-1)


def find_unit(A: Algebra):
    """Unique two-sided unit, or None: the e with d_0 e = id on the kept SUM-mode d_0,
    v -> mu o v = L_v, whose row j d + k holds coordinate k of e_j e_i at column i."""
    d = A.dim
    return solve(differential_matrix(A, 0).matrix, [int(j == k) for j in range(d) for k in range(d)])


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
    return SymCochain._from_ints(1, mat.rows, dict(zip(multisets(mat.rows, 1), mat._columns())), mat.den)


def identity_cochain(d: int) -> SymCochain:
    return endomorphism_cochain(Matrix.identity(d))
