"""Order-by-order deformation machinery: residuals of the quadratic deformation
equation, the linear solver for each order, obstruction classes modulo the image of
the differential, and exact truncated gauge transport: exp(ad_X) as sparse integer
products of one SUM-mode ad_{f_i} operator per gauge term, built by d_n's scatter.

Series are truncated t-power series; everything is exact rational.
The order-n equation is  d phi_n = -(1/2) sum_{i+j=n, i,j>=1} [phi_i, phi_j]
(the i=0 terms are the left-hand side), and the order-0 datum
(1/2)[mu, mu] is reported separately rather than treated as a failure.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .algebra import Algebra, product_cochain
from .bracket import InsertionMode, _divisor, graded_bracket
from .cochain import SymCochain, _combine, coeff_vector, from_coeff_vector, multisets
from .errors import InvariantViolation
from .exactla import Record, _combine as _combine_rows, _eliminate, _transpose, json_int, rat_to_str, solve
from .complexes import (_bracket_matrices, _mu_bracket, coboundary_c1_matrix, differential,
                        differential_matrix)


class DeformationSeries(Record):
    """mu_t = mu + t phi_1 + ... + t^N phi_N with arity-2 terms."""
    __slots__ = _fields = ("base", "order", "terms", "mode")

    def __init__(self, base: Algebra, order: int, terms: list[SymCochain],
                 mode: InsertionMode = InsertionMode.SUM):
        if len(terms) != order:
            raise ValueError("need exactly `order` series terms")
        for t in terms:
            if t.n != 2 or t.dim != base.dim:
                raise ValueError("series terms must be arity-2 cochains on the base algebra")
        self.base, self.order, self.terms, self.mode = base, order, terms, mode

    def term(self, i: int) -> SymCochain:
        """phi_i, with phi_i = 0 beyond the truncation order."""
        if i < 1:
            raise ValueError("series terms start at order 1")
        if i <= self.order:
            return self.terms[i - 1]
        return SymCochain.zero(2, self.base.dim)

    def to_json_list(self) -> list:
        return [dict(t.to_json_dict(), order=i + 1) for i, t in enumerate(self.terms)]


class GaugeSeries(Record):
    """T_t = exp(t f_1 + t^2 f_2 + ...) with arity-1 terms f_i."""
    __slots__ = _fields = ("order", "terms")

    def __init__(self, order: int, terms: list[SymCochain]):
        if len(terms) != order:
            raise ValueError("need exactly `order` series terms")
        for i, t in enumerate(terms, 1):
            if t.n != 1:
                raise ValueError("gauge terms must be arity-1 cochains")
            if t.dim != terms[0].dim:
                raise ValueError(f"gauge term at order {i} has dimension {t.dim}, "
                                 f"but the term at order 1 has dimension {terms[0].dim}")
        self.order, self.terms = order, terms

    @property
    def dim(self) -> int:
        return self.terms[0].dim if self.terms else 0

    def to_json_list(self) -> list:
        return [dict(t.to_json_dict(), order=i + 1) for i, t in enumerate(self.terms)]


def series_from_json_list(raw, arity: int, upto: int | None = None) -> list[SymCochain]:
    """Read a series file: a list of cochain objects carrying an "order" field.
    Missing orders are zero; duplicate orders are rejected.  With `upto`, the
    list stops at order `upto`: every entry is still read and checked, but no
    term past it is built."""
    if not isinstance(raw, list):
        raise ValueError("series document must be a list of cochain objects")
    by_order: dict[int, SymCochain] = {}
    for item in raw:
        if not isinstance(item, dict) or "order" not in item:
            raise ValueError("each series entry needs an integer 'order' field")
        i = json_int(item["order"], "order")
        if i < 1:
            raise ValueError("series orders start at 1")
        if i in by_order:
            raise ValueError(f"duplicate series order {i}")
        c = SymCochain.from_json_dict({k: v for k, v in item.items() if k != "order"})
        if c.n != arity:
            raise ValueError(f"series term at order {i} has arity {c.n}, expected {arity}")
        j, first = next(iter(by_order.items()), (i, c))  # the first term read
        if c.dim != first.dim:
            raise ValueError(f"series term at order {i} has dimension {c.dim}, "
                             f"but the term at order {j} has dimension {first.dim}")
        by_order[i] = c
    if not by_order:
        raise ValueError("series document is empty")
    top = max(by_order) if upto is None else min(max(by_order), upto)
    dim = next(iter(by_order.values())).dim
    return [by_order.get(i, SymCochain.zero(arity, dim)) for i in range(1, top + 1)]


# ---------------------------------------------------------------------------
# residuals and the order-by-order solver

def mc_order0(s: DeformationSeries) -> SymCochain:
    """The order-0 datum (1/2)[mu, mu], scaled from the SUM-mode [mu, mu] kept on A."""
    return _mu_bracket(s.base).scale(Fraction(1, 2 * _divisor(s.mode, 2, 2)))


def _quadratic(s: DeformationSeries, n: int) -> SymCochain:
    """(1/2) sum_{i+j=n, i,j>=1} [phi_i, phi_j], the quadratic part of the order-n equation."""
    return _combine(3, s.base.dim, [
        (Fraction(1, 2), graded_bracket(s.term(i), s.term(n - i), s.mode)) for i in range(1, n)])


def mc_residual(s: DeformationSeries, upto: int) -> list[SymCochain]:
    """Residuals R_n = d phi_n + (1/2) sum_{i+j=n, i,j>=1} [phi_i, phi_j]
    for n = 1..upto (phi_n = 0 past the truncation order)."""
    if upto < 0 or upto > 2 * s.order:
        raise ValueError("residual order out of range")
    return [differential(s.base, s.term(n), s.mode) + _quadratic(s, n)
            for n in range(1, upto + 1)]


class ObstructionClass(Record):
    __slots__ = _fields = ("representative", "in_image", "quotient_coords")

    def __init__(self, representative: SymCochain, in_image: bool,
                 quotient_coords: tuple[Fraction, ...]):
        self.representative, self.in_image, self.quotient_coords = \
            representative, in_image, quotient_coords

    def to_json_dict(self) -> dict:
        return {
            "representative": self.representative.to_json_dict(),
            "in_image": self.in_image,
            "quotient_coords": [rat_to_str(x) for x in self.quotient_coords],
        }


def class_modulo_image(A: Algebra, r: SymCochain, mode: InsertionMode) -> ObstructionClass:
    """Coordinates of an arity-3 cochain modulo the image of d at arity 2,
    in a fixed complement basis: the standard basis vectors e_S that complete
    im d_2 greedily from the first coordinate.

    One forward elimination of the rows of d_2^T, which span im d_2, with
    coordinate i at column R - 1 - i: e_i is left out of S exactly when im d_2
    holds a vector whose last nonzero is at i, that is when column R - 1 - i
    holds a pivot (the greedy basis of a matroid, Edmonds 1971).  r, flipped
    the same way, is then reduced against the pivot rows in pivot order, so it
    loses an element of im d_2 and vanishes at every pivot.  What is left lies
    in span(e_S) and, im d_2 + span(e_S) being direct, its entries at S in
    ascending order are the class."""
    if r.n != 3 or r.dim != A.dim:
        raise ValueError("an obstruction residual must be an arity-3 cochain on the algebra")
    D = differential_matrix(A, 2, mode).matrix
    top = D.rows - 1
    # the rows of d_2 bottom up, transposed: d_2^T with coordinate i at top - i
    pivot_rows, pivots = _eliminate(_transpose(D.num[::-1], D.cols), False)
    # r flipped, with its den at column top + 1, which no pivot row holds: each
    # combination scales that entry with r, so v / v[top + 1] is always r less
    # an element of im d_2
    v = {top - i * A.dim - k: y
         for i, M in enumerate(multisets(A.dim, 3)) for k, y in r.num.get(M, {}).items()}
    v[top + 1] = r.den
    for piv, c in zip(pivot_rows, pivots):
        if c in v:
            v = _combine_rows(v, piv, c)
    scale, held = v.pop(top + 1), set(pivots)
    if not v.keys().isdisjoint(held):
        raise InvariantViolation("the reduced residual is nonzero at a pivot of im d_2")
    quotient = tuple(Fraction(v.get(c, 0), scale) for c in range(top, -1, -1) if c not in held)
    return ObstructionClass(r, all(x == 0 for x in quotient), quotient)


def obstruction_class(A: Algebra, phi1: SymCochain,
                      mode: InsertionMode = InsertionMode.SUM) -> ObstructionClass:
    """Class data of r = -(1/2)[phi1, phi1] modulo the image of d."""
    r = graded_bracket(phi1, phi1, mode).scale(Fraction(-1, 2))
    return class_modulo_image(A, r, mode)


class MCStep(Record):
    __slots__ = _fields = ("order", "solvable", "solution", "obstruction")

    def __init__(self, order: int, solvable: bool, solution: SymCochain | None = None,
                 obstruction: ObstructionClass | None = None):
        self.order, self.solvable, self.solution, self.obstruction = \
            order, solvable, solution, obstruction


def mc_solve_step(s: DeformationSeries, n: int) -> MCStep:
    """Solve the order-n equation for phi_n given phi_1..phi_{n-1} from s.

    Returns the deterministic particular solution (free variables zeroed),
    or the obstruction residual (1/2) sum [phi_i, phi_j] with its class data
    when the linear system is inconsistent.
    """
    if n < 1:
        raise ValueError("solver orders start at 1")
    A, mode = s.base, s.mode
    rhs = _quadratic(s, n)
    D = differential_matrix(A, 2, mode).matrix
    x = solve(D, [-c for c in coeff_vector(rhs)])
    if x is None:
        return MCStep(n, False, obstruction=class_modulo_image(A, rhs, mode))
    return MCStep(n, True, solution=from_coeff_vector(A.dim, 2, x))


def mc_solve_chain(A: Algebra, phi1: SymCochain, order: int,
                   mode: InsertionMode = InsertionMode.SUM):
    """Extend phi1 order by order up to `order`; stops at the first
    obstruction.  Returns (series, failed_step_or_None)."""
    s = DeformationSeries(A, 1, [phi1], mode)
    for n in range(2, order + 1):
        step = mc_solve_step(s, n)
        if not step.solvable:
            return s, step
        s = DeformationSeries(A, n, s.terms + [step.solution], mode)
    return s, None


# ---------------------------------------------------------------------------
# gauge transport

def gauge_transport_series(T: GaugeSeries, s: DeformationSeries, N: int) -> DeformationSeries:
    """Transport a full series: mu_t'(x, y) = T_t mu_t(T_t^{-1} x, T_t^{-1} y)
    with T_t = exp(X), X = t f_1 + t^2 f_2 + ..., truncated at t^N.

    Conjugation by exp(X) is exp(ad_X), ad_X = [X, .] in SUM mode whatever the series'
    mode.  The k-th term of exp(ad_X) mu_t has order-n part (1/k) sum_{i>=1} ad_{f_i}
    ((k-1)-th term at order n - i).  Each f_i read (i <= N) gets one operator, the SUM-mode
    matrix of ad_{f_i} on arity-2 cochains from the scatter of d_n, applied as sparse integer
    products to vectors {j d + t: int} (F the j-th multiset) over D^k k! B, D and B the lcms
    of the operators' and mu_t's denominators."""
    if N < 1:
        raise ValueError("transport order must be >= 1")
    A, d = s.base, s.base.dim
    if T.order and T.dim != d:
        raise ValueError(f"gauge series has dimension {T.dim}, but the algebra has dimension {d}")
    mats = [_bracket_matrices(f, 2, (InsertionMode.SUM,))[InsertionMode.SUM] for f in T.terms[:N]]
    D, index = lcm(*(m.den for m in mats)), {M: j * d for j, M in enumerate(multisets(d, 2))}
    ops = [[{r: x * (D // m.den) for r, x in col.items()} for col in _transpose(m.num, m.cols)]
           for m in mats]  # the columns of each ad_{f_i}, over D
    series = [product_cochain(A)] + [s.term(n) for n in range(1, N + 1)]
    B, scale = lcm(*(c.den for c in series)), D ** N * factorial(N)
    term = [{index[M] + t: x * (B // c.den) for M, vec in c.num.items() for t, x in vec.items()}
            for c in series]  # the 0-th term, over B
    total = [{c: scale * x for c, x in v.items()} for v in term]  # over scale B
    for k in range(1, N + 1):
        w, prev, term = scale // (D ** k * factorial(k)), term, []
        for n, v_n in enumerate(total):
            acc = {}
            for op, v in zip(ops, reversed(prev[:n])):  # ad_{f_i}, the (k-1)-th term at n - i
                for c, x in v.items():
                    for r, y in op[c].items():
                        acc[r] = acc.get(r, 0) + x * y
            for r, x in acc.items():
                v_n[r] = v_n.get(r, 0) + w * x
            term.append(acc)
    out = [SymCochain._from_ints(2, d, {M: {t: v[j + t] for t in range(d) if j + t in v}
                                        for M, j in index.items()}, scale * B) for v in total]
    if out[0] != product_cochain(A):
        raise InvariantViolation("gauge transport must fix the product at order 0")
    return DeformationSeries(A, N, out[1:], s.mode)


def gauge_transport(T: GaugeSeries, A: Algebra, N: int) -> DeformationSeries:
    """Transport of the undeformed product, exp(ad_X) mu truncated at t^N, as a
    SUM-mode series.  The order-1 term is [f_1, mu], the printed arity-1
    coboundary of f_1: f_1(x*y) - f_1(x)*y - x*f_1(y)."""
    return gauge_transport_series(T, DeformationSeries(A, 0, []), N)


def gauge_equiv_first_order(A: Algebra, phi: SymCochain, phi2: SymCochain):
    """Solve (printed arity-1 coboundary)(f) = phi2 - phi for f; returns an
    arity-1 cochain or None when the two are not equivalent at first order."""
    if phi.n != 2 or phi2.n != 2 or phi.dim != A.dim or phi2.dim != A.dim:
        raise ValueError("first-order gauge equivalence needs arity-2 cochains on A")
    B = coboundary_c1_matrix(A)
    x = solve(B, coeff_vector(phi2 - phi))
    if x is None:
        return None
    return from_coeff_vector(A.dim, 1, x)
