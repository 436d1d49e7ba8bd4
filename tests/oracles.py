"""Independent oracles used by the test suite.

Everything here recomputes values from first principles with its own
combinatorics and (where linear algebra is needed) its own elimination,
so the production path is never checking itself.
"""

from fractions import Fraction
from itertools import (combinations, combinations_with_replacement, permutations,
                       product as iproduct)
from math import factorial


def naive_evaluate(f, args):
    """Multilinear expansion of a symmetric cochain over all ordered index
    tuples, with sorted-multiset lookup.  O(d^n); fine at test scale."""
    d = f.dim
    out = [Fraction(0)] * d
    for idx in iproduct(range(d), repeat=f.n):
        vec = f.coeffs.get(tuple(sorted(idx)))
        if vec is None:
            continue
        c = Fraction(1)
        for slot, i in enumerate(idx):
            c *= Fraction(args[slot][i])
            if c == 0:
                break
        if c == 0:
            continue
        for k in range(d):
            out[k] += c * vec[k]
    return tuple(out)


def insertion_eval(f, g, args, paper):
    """The insertion formula evaluated directly at general arguments:
    prefactor * sum over block splits of f(args_first, g(args_second))."""
    m, n, d = f.n, g.n, f.dim
    if m == 0:
        return (Fraction(0),) * d
    N = m + n - 1
    assert len(args) == N
    pref = Fraction(1, factorial(m - 1) * factorial(n)) if paper else Fraction(1)
    total = [Fraction(0)] * d
    for first in combinations(range(N), m - 1):
        second = [p for p in range(N) if p not in first]
        w = naive_evaluate(g, [args[p] for p in second])
        inner = naive_evaluate(f, [args[p] for p in first] + [w])
        for k in range(d):
            total[k] += inner[k]
    return tuple(pref * t for t in total)


def left_nested_eval(f, g, h, args):
    """((f o g) o h)(args), SUM mode: the outer unshuffle sum is enumerated
    here, the inner insertion is insertion_eval at general arguments."""
    d = f.dim
    p = f.n + g.n - 1  # arity of f o g
    if f.n == 0 or p == 0:
        return (Fraction(0),) * d
    N = p + h.n - 1
    assert len(args) == N
    total = [Fraction(0)] * d
    for first in combinations(range(N), p - 1):
        second = [q for q in range(N) if q not in first]
        w = naive_evaluate(h, [args[q] for q in second])
        val = insertion_eval(f, g, [args[q] for q in first] + [w], paper=False)
        for k in range(d):
            total[k] += val[k]
    return tuple(total)


def right_nested_eval(f, g, h, args):
    """(f o (g o h))(args), SUM mode: the inner insertion is insertion_eval
    at general arguments, fed into f along the outer unshuffle sum."""
    d = f.dim
    if f.n == 0 or g.n == 0:
        return (Fraction(0),) * d
    p = g.n + h.n - 1  # arity of g o h
    N = f.n + p - 1
    assert len(args) == N
    total = [Fraction(0)] * d
    for first in combinations(range(N), f.n - 1):
        second = [q for q in range(N) if q not in first]
        w = insertion_eval(g, h, [args[q] for q in second], paper=False)
        val = naive_evaluate(f, [args[q] for q in first] + [w])
        for k in range(d):
            total[k] += val[k]
    return tuple(total)


def symmetrize_eval(table, n, dim, mset):
    """Direct symmetric-group average of a multilinear table at one multiset."""
    tot = [Fraction(0)] * dim
    for perm in permutations(tuple(mset)):
        vec = table.get(perm)
        if vec is None:
            continue
        for k in range(dim):
            tot[k] += Fraction(vec[k])
    return tuple(x / factorial(n) for x in tot)


# ---------------------------------------------------------------------------
# dense Fraction Gauss-Jordan: the elimination exactla used before it moved
# to sparse integer rows, kept as the reference its results must equal

def reference_rref(m):
    """Reduced row echelon form and pivot columns (deterministic)."""
    from symlie import Matrix
    a = [row[:] for row in m.data]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pr = None
        for i in range(r, m.rows):
            if a[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m.rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Matrix(m.rows, m.cols, a), tuple(pivots)


def reference_kernel_basis(m):
    """Right null space, one vector per free column, from reference_rref."""
    red, pivots = reference_rref(m)
    red = red.data
    pivset = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivset:
            continue
        v = [Fraction(0)] * m.cols
        v[free] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][free]
        basis.append(tuple(v))
    return basis


def reference_solve(m, b):
    """Particular solution (free variables zeroed) or None, from reference_rref."""
    from symlie import Matrix
    b = [Fraction(x) for x in b]
    aug = Matrix(m.rows, m.cols + 1, [row + [bb] for row, bb in zip(m.data, b)])
    red, pivots = reference_rref(aug)
    if pivots and pivots[-1] == m.cols:
        return None
    red = red.data
    x = [Fraction(0)] * m.cols
    for i, p in enumerate(pivots):
        x[p] = red[i][m.cols]
    return tuple(x)


def dense_mul(a, b, cols):
    """Product of dense row lists, entry by entry; b has `cols` columns."""
    return [[sum((row[k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(cols)]
            for row in a]


def dense_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_scale(c, a):
    return [[Fraction(c) * x for x in row] for row in a]


def dense_mul_vec(a, v):
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a)


def dense_column(a, j):
    return tuple(row[j] for row in a)


# ---------------------------------------------------------------------------
# the gather loops the engine used before its insertion became a scatter over
# nonzeros and its cubic checker a walk over sorted triples, kept as the
# references their results must equal

def reference_insert(f, g, paper):
    """Insertion of g into f gathered per output multiset: every (m-1, n)
    unshuffle of its positions, every output index k of g."""
    from symlie import SymCochain
    m, n, d = f.n, g.n, f.dim
    if m == 0:
        return SymCochain.zero(max(n - 1, 0), d)
    N = m + n - 1
    if paper:
        pref = Fraction(1, factorial(m - 1) * factorial(n))
    else:
        pref = Fraction(1)
    splits = []
    for first in combinations(range(N), m - 1):
        splits.append((first, tuple(p for p in range(N) if p not in first)))
    fco = f.coeffs
    gco = g.coeffs
    out = {}
    for M in combinations_with_replacement(range(d), N):
        acc = [Fraction(0)] * d
        hit = False
        for first, second in splits:
            # positions are increasing and M is sorted, so both argument
            # tuples are already sorted multisets
            gval = gco.get(tuple(M[p] for p in second))
            if gval is None:
                continue
            fargs = [M[p] for p in first]
            for k in range(d):
                if gval[k] == 0:
                    continue
                fval = fco.get(tuple(sorted(fargs + [k])))
                if fval is None:
                    continue
                hit = True
                w = gval[k]
                for t in range(d):
                    if fval[t]:
                        acc[t] += w * fval[t]
        if hit and any(acc):
            out[M] = tuple(pref * a for a in acc)
    return SymCochain(N, d, out)


def reference_check_cubic_jordan(A):
    """The cubic-identity report from the full polarization over all d^4
    basis tuples, with the same basis-pair witness preference."""
    from symlie.algebra import IdentityReport, Witness
    d = A.dim
    zero = (Fraction(0),) * d
    basis = [tuple(Fraction(int(t == i)) for t in range(d)) for i in range(d)]

    def term(a, b, c, y):
        bc = _mul(A, b, c)
        return tuple(p - q for p, q in zip(_mul(A, _mul(A, a, y), bc),
                                           _mul(A, a, _mul(A, y, bc))))

    failing = None
    for idx in iproduct(range(d), repeat=4):
        i, j, k, l = idx
        tot = zero
        for p in permutations((i, j, k)):
            tot = tuple(s + t for s, t in zip(tot, term(basis[p[0]], basis[p[1]],
                                                        basis[p[2]], basis[l])))
        if any(tot):
            failing = (idx, tot)
            break
    if failing is None:
        return IdentityReport(True)
    for i in range(d):
        for j in range(d):
            left, right = cubic_jordan_sides(A, basis[i], basis[j])
            if left != right:
                return IdentityReport(False, Witness(
                    inputs=(basis[i], basis[j]), left=left, right=right,
                    note="cubic identity at a basis pair (x, y)"))
    idx, tot = failing
    return IdentityReport(False, Witness(
        inputs=tuple(basis[i] for i in idx), left=tot, right=zero,
        note="trilinear polarization of the cubic identity at a basis 4-tuple"))


# ---------------------------------------------------------------------------
# hand-coded linear-system oracle for derivations

def _row_echelon_rank(rows):
    """Rank of a small rational matrix by plain Gaussian elimination."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][c]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                fct = rows[i][c] / pv
                rows[i] = [x - fct * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def derivation_dimension(A):
    """dim { F : F(x*y) = F(x)*y + x*F(y) } from the structure constants.

    Unknowns F[p][q] flattened as p*d + q; one equation per (i, j, k):
    sum_m c[i][j][m] F[k][m] = sum_m F[m][i] c[m][j][k] + sum_m F[m][j] c[i][m][k].
    """
    d = A.dim
    rows = []
    for i in range(d):
        for j in range(d):
            for k in range(d):
                row = [Fraction(0)] * (d * d)
                for m in range(d):
                    row[k * d + m] += A.sc[i][j][m]
                    row[m * d + i] -= A.sc[m][j][k]
                    row[m * d + j] -= A.sc[i][m][k]
                rows.append(row)
    return d * d - _row_echelon_rank(rows)


# ---------------------------------------------------------------------------
# direct identity evaluation (own product expansion)

def _mul(A, x, y):
    d = A.dim
    out = [Fraction(0)] * d
    for i in range(d):
        for j in range(d):
            c = Fraction(x[i]) * Fraction(y[j])
            if c == 0:
                continue
            for k in range(d):
                out[k] += c * A.sc[i][j][k]
    return tuple(out)


def cubic_jordan_sides(A, x, y):
    """Sides of (x*y)*(x*x) = x*(y*(x*x))."""
    xx = _mul(A, x, x)
    return _mul(A, _mul(A, x, y), xx), _mul(A, x, _mul(A, y, xx))


def six_term_sum(A, x, y, z):
    def assoc(a, b, c):
        return tuple(p - q for p, q in zip(_mul(A, _mul(A, a, b), c),
                                           _mul(A, a, _mul(A, b, c))))
    parts = [assoc(x, y, z), assoc(y, z, x), assoc(z, x, y)]
    return tuple(sum(col) for col in zip(*parts))


def printed_coboundary_c1(A, f):
    """The printed arity-1 coboundary (d f)(x,y) = f(x*y) - f(x)*y - x*f(y),
    expanded at each basis pair, independently of the bracket."""
    from symlie import SymCochain, multisets, product
    from symlie.exactla import vsub, vzero
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


def random_commutative(rng, d, fill=1):
    """Structure constants in -2..2, each drawn with chance fill, else 0."""
    from symlie import Algebra
    table = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            vec = tuple(Fraction(rng.randint(-2, 2)) if fill == 1 or rng.random() < fill
                        else Fraction(0) for _ in range(d))
            table[i][j] = vec
            table[j][i] = vec
    return Algebra(d, tuple(f"b{i}" for i in range(d)), table)


def random_vector(rng, d, span=2):
    return tuple(Fraction(rng.randint(-span, span), rng.randint(1, 2))
                 for _ in range(d))


def random_cochain(rng, n, d, span=2, sparsity=0.0):
    """Seeded random cochain; import here to keep oracle imports local."""
    from symlie import SymCochain, multisets
    entries = []
    for mset in multisets(d, n):
        for k in range(d):
            if sparsity and rng.random() < sparsity:
                continue
            entries.append((mset, k, Fraction(rng.randint(-span, span), rng.randint(1, 2))))
    return SymCochain.from_entries(n, d, entries)


def d2_sanity_reference(A, mode):
    """The D2-SANITY verdict and witness, recomputed cochain by cochain:
    d(d f) against (1/2)[[mu,mu],f] for each basis endomorphism f in the
    canonical order, stopping at the first multiset where they differ.

    It calls the engine's bracket on single cochains rather than comparing
    the matrices of d o d and (1/2)ad that the audit reads."""
    from symlie import basis_cochains, differential, graded_bracket, product_cochain
    from symlie.bracket import first_coefficient_difference
    mu = product_cochain(A)
    B = graded_bracket(mu, mu, mode)
    for (mset, k), f in basis_cochains(A.dim, 1):
        lhs = differential(A, differential(A, f, mode), mode)
        rhs = graded_bracket(B, f, mode).scale(Fraction(1, 2))
        diff = first_coefficient_difference(lhs, rhs)
        if diff is not None:
            dmset, left, right = diff
            return "fails", {"basis_cochain": {"multiset": list(mset), "k": k},
                             "at_multiset": list(dmset),
                             "dd": [str(x) for x in left],
                             "half_ad": [str(x) for x in right]}
    return "holds", None


def reference_bracket(f, g, paper):
    """[f, g] = f o g - (-1)^{(m-1)(n-1)} g o f from reference_insert."""
    sign = (-1) ** ((f.n - 1) * (g.n - 1))
    return reference_insert(f, g, paper) - reference_insert(g, f, paper).scale(sign)


def reference_bracket_matrix(g, n, paper, c):
    """Matrix of f -> c [g, f] on arity-n cochains, one bracket per column:
    column j is c [g, e_j] for the j-th basis cochain, written densely, with
    coordinate t at multiset M in row index(M) * d + t.  This is the loop the
    engine used before it scattered its operator matrices from g's nonzeros."""
    from symlie import Matrix, basis_cochains, multisets, sym_basis_dim
    d, out_n = g.dim, g.n + n - 1
    row_of = {mset: i * d for i, mset in enumerate(multisets(d, out_n))}
    cols = sym_basis_dim(d, n)
    data = [[Fraction(0)] * cols for _ in range(sym_basis_dim(d, out_n))]
    for j, (_, e_j) in enumerate(basis_cochains(d, n)):
        for mset, vec in reference_bracket(g, e_j, paper).coeffs.items():
            row = row_of[mset]
            for t, x in enumerate(vec):
                if x:
                    data[row + t][j] = c * x
    return Matrix(len(data), cols, data)
