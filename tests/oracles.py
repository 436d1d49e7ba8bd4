"""Independent oracles used by the test suite.

Everything here recomputes values from first principles with its own
combinatorics and (where linear algebra is needed) its own elimination,
so the production path is never checking itself.
"""

from fractions import Fraction
from functools import reduce
from itertools import (combinations, combinations_with_replacement, permutations,
                       product as iproduct)
from math import factorial


def naive_evaluate(f, args):
    """Multilinear expansion of a symmetric cochain over all ordered index
    tuples, with sorted-multiset lookup.  O(d^n); fine at test scale."""
    d, coeffs = f.dim, f.coeffs
    out = [Fraction(0)] * d
    for idx in iproduct(range(d), repeat=f.n):
        vec = coeffs.get(tuple(sorted(idx)))
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
        a[r] = [x * inv if x else x for x in a[r]]
        for i in range(m.rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y if y else x for x, y in zip(a[i], a[r])]
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


def reference_rank_mod_p(rows, p):
    """Rank over the integers mod the prime p of dense integer rows, by plain
    Gaussian elimination on entries reduced mod p after every step."""
    a = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        pr = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[rank], a[pr] = a[pr], a[rank]
        inv = pow(a[rank][c], -1, p)
        for i in range(rank + 1, len(a)):
            f = a[i][c] * inv % p
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


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
# the column scan: the sparse elimination exactla used before it kept its
# rows in leading-column order, kept as the reference its pivot rows and
# pivots must equal

def reference_scan_eliminate(rows, reduced):
    """Fraction-free elimination as a scan of every remaining row per column and
    of every pair of pivot rows, pivoting on the first row in row order (exactla
    pivots on the smallest entry); the row operations are exactla's own."""
    from symlie.exactla import _combine, _primitive
    remaining = [_primitive(r) for r in rows if r]
    pivot_rows: list[dict[int, int]] = []
    pivots: list[int] = []
    # a combination is nonzero only where one of its rows is, so no other
    # column can ever hold a pivot
    for c in sorted(set().union(*remaining)):
        piv = next((r for r in remaining if c in r), None)
        if piv is None:
            continue
        pivot_rows.append(piv)
        pivots.append(c)
        remaining = [r if c not in r else _combine(r, piv, c) for r in remaining if r is not piv]
        remaining = [r for r in remaining if r]
        if not remaining:
            break
    if reduced:
        # bottom-up: pivot row k is already clear of every later pivot column
        for k in range(len(pivots) - 1, 0, -1):
            c, piv = pivots[k], pivot_rows[k]
            for i in range(k):
                if c in pivot_rows[i]:
                    pivot_rows[i] = _combine(pivot_rows[i], piv, c)
    return pivot_rows, tuple(pivots)


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


# SYM-CLOSURE's pairs (label, f, g) of product-derived pool cochains
SYM_CLOSURE_PAIRS = (("mu,mu", "mu", "mu"), ("mu,L0", "mu", "L0"), ("L0,mu", "L0", "mu"),
                     ("mu,v0", "mu", "v0"), ("P,mu", "P", "mu"))


def _dense_num(f):
    """f's numerators as {multiset: d-long list of ints}, zeros included."""
    return {M: [v.get(t, 0) for t in range(f.dim)] for M, v in f.num.items()}


def _raw_insert_value(fi, gi, splits, d, idx):
    """The insertion formula f o g evaluated directly at one ordered basis
    tuple, unnormalized, from the dense numerators fi of f and gi of g (see
    `_dense_num`), summed over `splits`, the (m-1, n)-unshuffles."""
    acc = [0] * d
    for first, second in splits:
        w = gi.get(tuple(sorted(idx[p] for p in second)))
        if w is None:
            continue
        fargs = [idx[p] for p in first]
        for k, wk in enumerate(w):
            if wk and (vec := fi.get(tuple(sorted(fargs + [k])))):
                for t, x in enumerate(vec):
                    acc[t] += wk * x
    return acc


def reference_sym_closure(A, pools, insert):
    """SYM-CLOSURE's records (as JSON dicts) by the walk the audit made before it
    followed the nonzeros: the raw formula at every one of the d^N ordered basis
    tuples of each pair, in `iproduct` order, against `insert` (which a test may
    tamper); at the first failing tuple each mode's witness from its own pool."""
    from symlie import InsertionMode
    from symlie.bracket import unshuffles
    from symlie.exactla import vec_to_strs
    SUM, d = InsertionMode.SUM, A.dim

    def record(mode, verdict, witness, detail):
        return {"id": "SYM-CLOSURE", "location": "Lemma 2.1", "mode": mode.value,
                "verdict": verdict, "witness": witness, "detail": detail}

    def failure(mode, f, g, label, idx):
        raw = _raw_insert_value(_dense_num(f), _dense_num(g), list(unshuffles(f.n - 1, g.n)),
                                d, idx)
        k = factorial(f.n - 1) * factorial(g.n) if mode is InsertionMode.PAPER else 1
        p = Fraction(1, k * f.den * g.den)
        return record(mode, "fails", {
            "pair": label, "tuple": list(idx), "raw": vec_to_strs(p * x for x in raw),
            "stored": vec_to_strs(insert(f, g, mode).value_at(tuple(sorted(idx))))},
            "insertion value depends on the argument order")

    checked, zero = 0, (0,) * d
    for label, a, b in SYM_CLOSURE_PAIRS:
        f, g = pools[SUM][a], pools[SUM][b]
        if f.n == 0:
            continue
        built, splits = insert(f, g, SUM), list(unshuffles(f.n - 1, g.n))
        fi, gi, stored = _dense_num(f), _dense_num(g), _dense_num(built)
        for idx in iproduct(range(d), repeat=built.n):
            raw = _raw_insert_value(fi, gi, splits, d, idx)
            if any(x * built.den != y * f.den * g.den
                   for x, y in zip(raw, stored.get(tuple(sorted(idx)), zero))):
                return [failure(mode, pools[mode][a], pools[mode][b], label, idx)
                        for mode in (SUM, InsertionMode.PAPER)]
            checked += 1
    detail = (f"insertion agrees with its symmetric coefficient form at all "
              f"{checked} ordered basis tuples over {len(SYM_CLOSURE_PAIRS)} "
              "product-derived pairs")
    return [record(mode, "holds", None, detail) for mode in (SUM, InsertionMode.PAPER)]


def reference_lowdeg_variant(f, g):
    """The printed two-term arity-2 composition
    (f o g)(x,y,z) = 1/2 (f(g(x,y),z) + f(g(x,z),y)), by SymCochain.evaluate
    on Fractions at each sorted basis tuple."""
    from symlie import SymCochain, multisets
    d = f.dim
    basis = [tuple(int(t == i) for t in range(d)) for i in range(d)]
    coeffs = {}
    for x, y, z in multisets(d, 3):
        term1 = f.evaluate((g.value_at((x, y)), basis[z]))
        term2 = f.evaluate((g.value_at((x, z)), basis[y]))
        coeffs[x, y, z] = tuple(Fraction(1, 2) * (a + b) for a, b in zip(term1, term2))
    return SymCochain(3, d, coeffs)


def reference_check_cubic_jordan(A):
    """The cubic-identity report from the full polarization over all d^4
    basis tuples, with the same basis-pair witness preference."""
    from symlie.algebra import IdentityReport, Witness
    d = A.dim
    zero = (Fraction(0),) * d
    basis = [tuple(Fraction(int(t == i)) for t in range(d)) for i in range(d)]

    def term(a, b, c, y):
        bc = naive_product(A, b, c)
        return tuple(p - q for p, q in zip(naive_product(A, naive_product(A, a, y), bc),
                                           naive_product(A, a, naive_product(A, y, bc))))

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


def reference_check_operator_identity(A):
    """The operator-identity report from its polarization
    (x*x)*y - x*(x*y) -> A(e_i, e_j, e_k) + A(e_j, e_i, e_k) over all d^3
    basis tuples, with the same basis-pair witness preference."""
    from symlie.algebra import IdentityReport, Witness
    d = A.dim
    zero = (Fraction(0),) * d
    basis = [tuple(Fraction(int(t == i)) for t in range(d)) for i in range(d)]

    def half(a, b, y):
        return tuple(p - q for p, q in zip(naive_product(A, naive_product(A, a, b), y),
                                           naive_product(A, a, naive_product(A, b, y))))

    failing = None
    for i, j, k in iproduct(range(d), repeat=3):
        tot = tuple(s + t for s, t in zip(half(basis[i], basis[j], basis[k]),
                                          half(basis[j], basis[i], basis[k])))
        if any(tot):
            failing = ((i, j, k), tot)
            break
    if failing is None:
        return IdentityReport(True)
    for i in range(d):
        for j in range(d):
            left = naive_product(A, naive_product(A, basis[i], basis[i]), basis[j])
            right = naive_product(A, basis[i], naive_product(A, basis[i], basis[j]))
            if left != right:
                return IdentityReport(False, Witness(
                    inputs=(basis[i], basis[j]), left=left, right=right,
                    note="operator identity (x*x)*y vs x*(x*y) at a basis pair"))
    idx, tot = failing
    return IdentityReport(False, Witness(
        inputs=tuple(basis[i] for i in idx), left=tot, right=zero,
        note="polarized operator identity at a basis triple"))


# ---------------------------------------------------------------------------
# hand-coded linear-system oracle for derivations

def _row_echelon_rank(rows):
    """Rank of a small rational matrix by plain Gaussian elimination, exact on
    int and Fraction entries alike."""
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
                fct = Fraction(rows[i][c]) / pv
                rows[i] = [x - fct * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def derivation_dimension(A):
    """dim { F : F(x*y) = F(x)*y + x*F(y) } from the structure constants.

    Unknowns F[p][q] flattened as p*d + q; one equation per (i, j, k):
    sum_m c[i][j][m] F[k][m] = sum_m F[m][i] c[m][j][k] + sum_m F[m][j] c[i][m][k].
    """
    from symlie import product_cochain
    d, mu = A.dim, product_cochain(A)
    sc = [[mu.value_at((i, j)) for j in range(d)] for i in range(d)]
    rows = []
    for i in range(d):
        for j in range(d):
            for k in range(d):
                row = [Fraction(0)] * (d * d)
                for m in range(d):
                    row[k * d + m] += sc[i][j][m]
                    row[m * d + i] -= sc[m][j][k]
                    row[m * d + j] -= sc[i][m][k]
                rows.append(row)
    return d * d - _row_echelon_rank(rows)


# ---------------------------------------------------------------------------
# direct identity evaluation (own product expansion)

def naive_product(A, x, y):
    """x * y expanded over the structure constants mu(e_i, e_j), without the
    package's product."""
    from symlie import product_cochain
    d, mu = A.dim, product_cochain(A)
    out = [Fraction(0)] * d
    for i in range(d):
        for j in range(d):
            c = Fraction(x[i]) * Fraction(y[j])
            if c == 0:
                continue
            vec = mu.value_at((i, j))
            for k in range(d):
                out[k] += c * vec[k]
    return tuple(out)


def cubic_jordan_sides(A, x, y):
    """Sides of (x*y)*(x*x) = x*(y*(x*x))."""
    xx = naive_product(A, x, x)
    return (naive_product(A, naive_product(A, x, y), xx),
            naive_product(A, x, naive_product(A, y, xx)))


def six_term_sum(A, x, y, z):
    def assoc(a, b, c):
        return tuple(p - q for p, q in zip(naive_product(A, naive_product(A, a, b), c),
                                           naive_product(A, a, naive_product(A, b, c))))
    parts = [assoc(x, y, z), assoc(y, z, x), assoc(z, x, y)]
    return tuple(sum(col) for col in zip(*parts))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def printed_coboundary_c1(A, f):
    """The printed arity-1 coboundary (d f)(x,y) = f(x*y) - f(x)*y - x*f(y),
    expanded at each basis pair, independently of the bracket."""
    from symlie import SymCochain, multisets, product_cochain
    d = A.dim

    def fv(v):
        acc = [Fraction(0)] * d
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
        val = vsub(vsub(fv(product_cochain(A).value_at((i, j))),
                        naive_product(A, f.value_at((i,)), ej)),
                   naive_product(A, ei, f.value_at((j,))))
        if any(val):
            coeffs[mset] = val
    return SymCochain(2, d, coeffs)


def printed_coboundary_c2(A, phi):
    """The printed arity-2 coboundary
    (d phi)(x,y,z) = sum_cyc ( mu(phi(x,y), z) - phi(mu(x,y), z) ),
    expanded cyclically at each basis triple through `naive_product` and
    `evaluate`, independently of the insertion kernel."""
    from symlie import SymCochain, multisets
    d = A.dim
    basis = [A.basis_vector(i) for i in range(d)]

    def term(x, y, z):
        return vsub(naive_product(A, phi.evaluate((x, y)), z),
                    phi.evaluate((naive_product(A, x, y), z)))

    coeffs = {}
    for mset in multisets(d, 3):
        x, y, z = (basis[i] for i in mset)
        coeffs[mset] = vadd(vadd(term(x, y, z), term(y, z, x)), term(z, x, y))
    return SymCochain(3, d, coeffs)


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


def random_rational_commutative(rng, d):
    """Dense commutative algebra with structure constants p/q, |p| <= 3, q <= 4."""
    from symlie import Algebra
    table = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            table[i][j] = table[j][i] = tuple(
                Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(d))
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

    It calls the engine's bracket and differential on single cochains rather
    than reading the kept d matrices that the audit's column scan reads."""
    from symlie import basis_cochains, differential, graded_bracket, multisets, product_cochain
    mu = product_cochain(A)
    B = graded_bracket(mu, mu, mode)
    for (mset, k), f in basis_cochains(A.dim, 1):
        lhs = differential(A, differential(A, f, mode), mode)
        rhs = graded_bracket(B, f, mode).scale(Fraction(1, 2))
        for dmset in multisets(A.dim, 3):
            left, right = lhs.value_at(dmset), rhs.value_at(dmset)
            if left == right:
                continue
            return "fails", {"basis_cochain": {"multiset": list(mset), "k": k},
                             "at_multiset": list(dmset),
                             "dd": [str(x) for x in left],
                             "half_ad": [str(x) for x in right]}
    return "holds", None


def reference_bracket(f, g, paper):
    """[f, g] = f o g - (-1)^{(m-1)(n-1)} g o f from reference_insert."""
    sign = (-1) ** ((f.n - 1) * (g.n - 1))
    return reference_insert(f, g, paper) - reference_insert(g, f, paper).scale(sign)


def _reference_identity_report(lhs, rhs, note):
    """The report of lhs == rhs: holds, or fails at the first multiset in
    `multisets` order where the values differ, its basis tuple as inputs."""
    from symlie import multisets
    from symlie.algebra import IdentityReport, Witness
    for mset in multisets(lhs.dim, lhs.n):
        left, right = lhs.value_at(mset), rhs.value_at(mset)
        if left != right:
            basis = tuple(tuple(Fraction(int(t == i)) for t in range(lhs.dim)) for i in mset)
            return IdentityReport(False, Witness(basis, left, right, note))
    return IdentityReport(True)


def _at_arity(c, N):
    """A nested term of target arity N.  An insertion of two arity-0 cochains
    lies in the zero space of arity -1, which reference_insert returns at
    arity 0, so every term built on it is the zero cochain of arity N."""
    from symlie import SymCochain
    return c if c.n == N else SymCochain.zero(N, c.dim)


def reference_prelie_report(f, g, h, paper):
    """check_prelie's report, each nested term one reference_insert."""
    from symlie.algebra import IdentityReport
    N = f.n + g.n + h.n - 2
    if N < 0:
        return IdentityReport(True)

    def assoc(x, y, z):  # (x o y) o z - x o (y o z)
        return (_at_arity(reference_insert(reference_insert(x, y, paper), z, paper), N)
                - _at_arity(reference_insert(x, reference_insert(y, z, paper), paper), N))

    sign = (-1) ** ((g.n - 1) * (h.n - 1))
    return _reference_identity_report(
        assoc(f, g, h), assoc(f, h, g).scale(sign),
        f"pre-Lie sides at a basis tuple, arities ({f.n},{g.n},{h.n})")


def reference_jacobi_report(f, g, h, paper):
    """check_jacobi's report, each bracket one reference_bracket."""
    from symlie import SymCochain
    from symlie.algebra import IdentityReport
    N = f.n + g.n + h.n - 2
    if N < 0:
        return IdentityReport(True)
    zero = SymCochain.zero(N, f.dim)
    total = zero
    for x, y, z in ((f, g, h), (g, h, f), (h, f, g)):
        term = reference_bracket(x, reference_bracket(y, z, paper), paper)
        total = total + _at_arity(term, N).scale((-1) ** ((x.n - 1) * (z.n - 1)))
    return _reference_identity_report(
        total, zero, f"Jacobi cyclic sum at a basis tuple, arities ({f.n},{g.n},{h.n})")


def reference_bracket_column(g, n, paper, c, j):
    """Column j of reference_bracket_matrix(g, n, paper, c): c [g, e_j] for the j-th
    basis cochain e_j of arity n, written densely, coordinate t at multiset M in
    row index(M) * d + t."""
    from symlie import SymCochain, multisets
    d = g.dim
    e_j = SymCochain(n, d, {multisets(d, n)[j // d]: tuple(int(t == j % d) for t in range(d))})
    br = reference_bracket(g, e_j, paper).coeffs
    zero = (Fraction(0),) * d
    return tuple(c * x for M in multisets(d, g.n + n - 1) for x in br.get(M, zero))


def reference_bracket_matrix(g, n, paper, c):
    """Matrix of f -> c [g, f] on arity-n cochains, one bracket per column:
    column j is reference_bracket_column(g, n, paper, c, j).  This is the loop the
    engine used before it scattered its operator matrices from g's nonzeros."""
    from symlie import Matrix, sym_basis_dim
    return Matrix.from_columns([reference_bracket_column(g, n, paper, c, j)
                                for j in range(sym_basis_dim(g.dim, n))],
                               sym_basis_dim(g.dim, g.n + n - 1))


def reference_class_modulo_image(A, residuals):
    """{paper: [(in_image, quotient_coords) of each arity-3 cochain in
    residuals[paper]]} modulo the image of d_2, in three steps: the pivot columns
    of d_2, the standard basis vectors that complete them greedily from the left,
    and a solve in that basis.  This is the algorithm the engine ran before it took
    one elimination of [d_2 | I | r], and then one forward pass over d_2^T with
    its coordinates reversed; d_2 here is reference_bracket_matrix's.  The paper
    d_2 is checked to be half the sum d_2, so both modes have one image, and the
    basis is built once for all residuals of both modes."""
    from symlie import Matrix, coeff_vector, product_cochain
    mu = product_cochain(A)
    D = reference_bracket_matrix(mu, 2, False, 1)
    assert reference_bracket_matrix(mu, 2, True, 1) == D.scale(Fraction(1, 2))
    R = D.rows
    eye = [[Fraction(int(i == j)) for j in range(R)] for i in range(R)]
    imvecs = [dense_column(D.data, j) for j in reference_rref(D)[1]]
    _, ppiv = reference_rref(Matrix.from_columns(imvecs + [dense_column(eye, i)
                                                           for i in range(R)], R))
    complement = [p - len(imvecs) for p in ppiv if p >= len(imvecs)]
    basis = Matrix.from_columns(imvecs + [dense_column(eye, i) for i in complement], R)
    out = {}
    for paper, rs in residuals.items():
        out[paper] = []
        for r in rs:
            quotient = tuple(reference_solve(basis, coeff_vector(r))[len(imvecs):])
            out[paper].append((all(x == 0 for x in quotient), quotient))
    return out


# ---------------------------------------------------------------------------
# gauge transport by direct conjugation

def _dense_exp(fs, N, d):
    """exp(t F_1 + t^2 F_2 + ...) truncated at t^N: the dense coefficient
    matrices of t^0..t^N, summed as X^k / k! with X's powers built term by term."""
    zero = [[Fraction(0)] * d for _ in range(d)]
    eye = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    X = [zero] + [fs[n - 1] if n <= len(fs) else zero for n in range(1, N + 1)]
    power, out = [eye] + [zero] * N, [eye] + [zero] * N
    for k in range(1, N + 1):
        power = [reduce(dense_add, (dense_mul(power[a], X[n - a], d) for a in range(n + 1)))
                 for n in range(N + 1)]
        out = [dense_add(out[n], dense_scale(Fraction(1, factorial(k)), power[n]))
               for n in range(N + 1)]
    return out


def reference_gauge_transport(A, gauge_terms, series_terms, N):
    """T mu_t(T^{-1} x, T^{-1} y) at t^0..t^N, T = exp(t f_1 + t^2 f_2 + ...),
    by direct conjugation: dense exponentials of X and -X, and at each basis
    pair (i, j) the sum over a + b + c + e = n of T_a mu_e(S_b e_i, S_c e_j),
    with mu_0 expanded by naive_product and mu_e (e >= 1) by naive_evaluate.
    Returns one {(i, j): nonzero value vector} per order."""
    d = A.dim

    def matrix(f, sign):
        cols = [f.coeffs.get((j,), (Fraction(0),) * d) for j in range(d)]
        return [[sign * cols[j][i] for j in range(d)] for i in range(d)]

    T = _dense_exp([matrix(f, 1) for f in gauge_terms], N, d)
    S = _dense_exp([matrix(f, -1) for f in gauge_terms], N, d)

    def mu(e, x, y):
        if e == 0:
            return naive_product(A, x, y)
        if e <= len(series_terms):
            return naive_evaluate(series_terms[e - 1], (x, y))
        return (Fraction(0),) * d

    out = []
    for n in range(N + 1):
        coeffs = {}
        for i, j in combinations_with_replacement(range(d), 2):
            acc = (Fraction(0),) * d
            for a in range(n + 1):
                for b in range(n - a + 1):
                    for c in range(n - a - b + 1):
                        w = mu(n - a - b - c, dense_column(S[b], i), dense_column(S[c], j))
                        acc = tuple(p + q for p, q in zip(acc, dense_mul_vec(T[a], w)))
            if any(acc):
                coeffs[(i, j)] = acc
        out.append(coeffs)
    return out
