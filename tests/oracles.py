"""Slow second routes that check the fast ones in ``src``.

Most oracles derive their object from per-multiset queries to
``steiner_distance_bruteforce`` (the smallest connected vertex set holding
the multiset, so trees of n <= 12 vertices), or, for linear systems, from
plain Gaussian elimination or mpmath's QR solver at the working precision.
These share none of the edge cuts behind ``Tree.steiner``,
``Tree.distances`` and the closed forms, or the float64 solves they check.  Polynomial and matrix
products are redone on plain ``{exponent tuple: Fraction}`` dicts and
Fraction sums, with none of the packed monomial keys or integer fast paths
of ``SparsePoly`` and ``RatMatrix``; ``index_tuple_form`` sums a Steiner form
over every index tuple, with no multinomial weights.  A ``CycNum`` product
is redone as a Fraction convolution reduced by long division by Phi_m, not
through the power table of ``scalar``.

Two oracles do share the side matrix S.  ``edge_cut_hessian`` is the side
matrix Hessian of ``forms.hessian_direct`` kept at the working precision on
mpmath numbers.  The multiset Hessian checks it to 128 bits, and it checks
the complex128 fast path, which feeds only float64 solves.
``side_distances`` is the order-k Steiner array as one ``np.einsum`` over
the stacked side rows, (n-1) - sum_e (S_e^k + N_e^k) with N = 1 - S
(Sᵀ(1-S) + (1-S)ᵀS at k = 2), not the parent recurrence of
``Tree.distances`` and ``build_steiner``; the brute force checks it on small
trees, and it checks the recurrence past brute-force reach (n = 200 at k = 2,
n = 60 at k = 3) and gives the suite oracle its g.

``partials_not_divisible_by_division`` divides every partial of a form by
s, with no restriction to s = 0, and ``gl_inverse_fractions`` builds the
Graham-Lovász inverse entry by entry in Fractions, with no integer
numerators.  ``order3_rows_by_polynomials`` is the order-3 identity suite
redone by ``SparsePoly`` ring arithmetic (products, formal partials and
``divide_by_linear``), with none of the integer tensors of ``forms``.

Three polynomial routes live here because only tests need them:
``two_vertex_form`` (the n = 2 form by symbolic expansion), ``substitute``
(replace one variable by a polynomial) and ``evaluate`` (a form's value,
term by term: exact at a cyclotomic or rational point, 128-bit at an
mpmath one).  They check the completion quadratic, the x1 = 0 branch of the
two-vertex scan, the exact gradient and the numeric gradient and Hessian
against the expanded form.

The last two sections hold routes that left ``steinerdh`` when no package
code called them any more; their code is unchanged, so they share what they
always shared.
- The order-2 oracle: ``determinant_exact`` runs Bareiss fraction-free
  elimination on a ``RatMatrix``'s integer numerators, and
  ``distance_matrix`` is ``Tree.distances`` as a ``RatMatrix``.  It shares
  D with ``smalldet.det_order2`` but not its cut-basis arrowhead, and a
  Leibniz expansion in the tests checks it in turn.  ``c_coefficients`` is
  the closed form c_r = (2 - deg_r)/(n-1) of c D = 1, which
  ``solve_row_system`` checks.
- The order-3 polynomials: ``s_form`` (s), ``distance_quadratic`` (g, read
  from ``Tree.distances``), ``order3_form`` (``steiner_form`` of the built
  hypermatrix), ``s3_cofactors`` (the cofactors of
  ``forms.verify_s3_decomposition``) and ``divide_by_linear`` (synthetic
  division).  They share ``SparsePoly``'s packed monomial keys and ring
  operations, which the Fraction-dict routes above check, and none of the
  int64 tensors of ``forms``.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from typing import Sequence

import mpmath
import numpy as np

from steinerdh import (CycNum, Hypermatrix, RatMatrix, SparsePoly, Tree,
                       build_steiner, cyclotomic_polynomial, steiner_distance_bruteforce,
                       steiner_form)
from steinerdh.forms import MAX_EXPONENT, _units
from steinerdh.scalar import _int_if_integral


def _weight(counts: Counter) -> int:
    """Multinomial coefficient: the number of tuples with these multiplicities."""
    out = math.factorial(sum(counts.values()))
    for c in counts.values():
        out //= math.factorial(c)
    return out


def _monomials(point: Sequence, size: int, one):
    """x^mu for every multiset mu of the support of x with |mu| = size."""
    support = [v for v in range(1, len(point) + 1) if point[v - 1] != 0]
    pows = {v: [one] for v in support}
    for v in support:
        for _ in range(size):
            pows[v].append(pows[v][-1] * point[v - 1])
    out = []
    for mu in combinations_with_replacement(support, size):
        counts = Counter(mu)
        term = one
        for v, c in counts.items():
            term = term * pows[v][c]
        out.append((set(mu), _weight(counts), term))
    return out


def multiset_gradient(t: Tree, k: int, point: Sequence) -> list:
    """D_z p / k = sum over (k-1)-multisets mu of the support of x of
    multinomial(mu) * d_T(set(mu) + z) * x^mu, for every vertex z.

    ``point`` is all CycNum of one modulus, all Fraction, or all mpmath.
    """
    one = point[0] ** 0
    terms = _monomials(point, k - 1, one)
    grad = []
    for z in range(1, t.n + 1):
        acc = one * 0
        for mu, weight, term in terms:
            dist = steiner_distance_bruteforce(t, mu | {z})
            if dist:
                acc = acc + weight * dist * term
        grad.append(k * acc)
    return grad


def multiset_hessian(t: Tree, k: int, point: Sequence) -> list[list]:
    """D_z D_r p = k(k-1) * sum over (k-2)-multisets mu of the support of x
    of multinomial(mu) * d_T(set(mu) + {z, r}) * x^mu, at an mpmath point."""
    n = t.n
    terms = _monomials(point, k - 2, mpmath.mpc(1))
    hess = [[None] * n for _ in range(n)]
    for z in range(1, n + 1):
        for r in range(1, n + 1):
            acc = mpmath.mpc(0)
            for mu, weight, term in terms:
                acc += weight * steiner_distance_bruteforce(t, mu | {z, r}) * term
            hess[z - 1][r - 1] = k * (k - 1) * acc
    return hess


def edge_cut_hessian(t: Tree, k: int, point: Sequence) -> list[list]:
    """The Hessian formula of ``forms.hessian_direct``,
    H = k(k-1) [(n-1) s^(k-2) - Sᵀdiag(a^(k-2))S - (1-S)ᵀdiag((s-a)^(k-2))(1-S)],
    on an object array of mpmath complex numbers at the working precision."""
    n = t.n
    x = np.array([mpmath.mpmathify(v) for v in point], dtype=object)
    far = t.sides()
    near = 1 - far
    s = x.sum()
    a = far @ x
    acc = (n - 1) * s ** (k - 2) - (far.T * a ** (k - 2)) @ far \
        - (near.T * (s - a) ** (k - 2)) @ near
    return (k * (k - 1) * acc).tolist()


def qr_gauss_newton_step(x: list, grads: list, hess: list[list]):
    """The Gauss-Newton step for (gradient = 0, |x|^2 = 1), solved entirely
    in mpmath at the working precision by ``mpmath.qr_solve`` (Householder,
    unpivoted).  Returns None where the factorization breaks down."""
    n = len(x)
    A = mpmath.matrix(2 * n + 1, 2 * n)
    b = mpmath.matrix(2 * n + 1, 1)
    for i in range(n):
        for j in range(n):
            h = hess[i][j]
            A[i, j] = h.real
            A[i, n + j] = -h.imag
            A[n + i, j] = h.imag
            A[n + i, n + j] = h.real
        b[i] = -grads[i].real
        b[n + i] = -grads[i].imag
    for j in range(n):
        A[2 * n, j] = 2 * x[j].real
        A[2 * n, n + j] = 2 * x[j].imag
    b[2 * n] = 1 - mpmath.fsum([abs(z) ** 2 for z in x])
    try:
        delta, _ = mpmath.qr_solve(A, b)
    except (ZeroDivisionError, ValueError):
        return None
    return [mpmath.mpc(delta[j], delta[n + j]) for j in range(n)]


def multiset_hypermatrix(t: Tree, k: int) -> Hypermatrix:
    """One Steiner query per index multiset, copied to all its permutations."""
    arr = np.zeros((t.n,) * k, dtype=np.int64)
    for combo in combinations_with_replacement(range(1, t.n + 1), k):
        value = steiner_distance_bruteforce(t, combo)
        for perm in set(permutations(v - 1 for v in combo)):
            arr[perm] = value
    return Hypermatrix(k, t.n, arr)


def solve_row_system(m: RatMatrix, rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve y * M = rhs exactly by Gaussian elimination (M assumed invertible)."""
    n = m.n
    if len(rhs) != n:
        raise ValueError("size mismatch")
    # y M = rhs  <=>  M^T y^T = rhs^T
    aug = [[m.rows[j][i] for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


# ---------------------------------------------------------------------------
# Fraction-only polynomial and matrix arithmetic
# ---------------------------------------------------------------------------

Terms = dict[tuple[int, ...], Fraction]


def _nonzero(terms: Terms) -> Terms:
    return {e: c for e, c in terms.items() if c != 0}


def fraction_terms(p) -> Terms:
    """A SparsePoly's terms as Fractions."""
    return {e: Fraction(c) for e, c in p.terms.items()}


def fraction_add(a: Terms, b: Terms) -> Terms:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return _nonzero(out)


def fraction_mul(a: Terms, b: Terms) -> Terms:
    """The dict product SparsePoly used before its integer coefficients."""
    out: Terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return _nonzero(out)


def fraction_pow(a: Terms, n: int, e: int) -> Terms:
    out: Terms = {(0,) * n: Fraction(1)}
    for _ in range(e):
        out = fraction_mul(out, a)
    return out


def fraction_partial(a: Terms, r: int) -> Terms:
    """d/dx_r, r 1-based."""
    out: Terms = {}
    for e, c in a.items():
        if e[r - 1]:
            key = e[:r - 1] + (e[r - 1] - 1,) + e[r:]
            out[key] = c * e[r - 1]
    return _nonzero(out)


def fraction_remainder(p: Terms, s: Terms, n: int) -> Terms:
    """p with x_r replaced by the root of s = 0, r the highest variable in s.

    This is p modulo s, free of x_r: the remainder ``divide_by_linear``
    must return, found by substitution rather than synthetic division.
    """
    r = max(e.index(1) for e in s)
    a = s[next(e for e in s if e.index(1) == r)]
    root = {e: -c / a for e, c in s.items() if e.index(1) != r}
    out: Terms = {}
    for e, c in p.items():
        rest = e[:r] + (0,) + e[r + 1:]
        out = fraction_add(out, fraction_mul({rest: c}, fraction_pow(root, n, e[r])))
    return out


def index_tuple_form(h: Hypermatrix) -> Terms:
    """The k-form of a hypermatrix summed entry by entry over all n^k index
    tuples, with no multinomial weights and no symmetry assumed."""
    out: Terms = {}
    for idx in product(range(h.n), repeat=h.k):
        value = int(h.entries[idx])
        if value:
            exp = [0] * h.n
            for i in idx:
                exp[i] += 1
            key = tuple(exp)
            out[key] = out.get(key, Fraction(0)) + value
    return _nonzero(out)


def cyclotomic_product(x: CycNum, y: CycNum) -> list[Fraction]:
    """Power-basis coefficients of x*y: the Fraction convolution of the two
    coefficient lists, reduced by long division by Phi_m."""
    conv = [Fraction(0)] * (len(x.coeffs) + len(y.coeffs) - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            conv[i + j] += Fraction(a) * Fraction(b)
    phim = cyclotomic_polynomial(x.m)
    d = len(phim) - 1
    for i in range(len(conv) - 1, d - 1, -1):
        c = conv[i]
        for j in range(d + 1):
            conv[i - d + j] -= c * phim[j]
    return conv[:d]


def two_vertex_form(k: int) -> SparsePoly:
    """The order-k Steiner form of the two-vertex tree, (x1+x2)^k - x1^k - x2^k,
    expanded by ``SparsePoly`` ring operations."""
    if k < 2:
        raise ValueError("order must be >= 2")
    x1 = SparsePoly.variable(2, 1)
    x2 = SparsePoly.variable(2, 2)
    return (x1 + x2) ** k - x1 ** k - x2 ** k


def substitute(p: SparsePoly, r: int, value: SparsePoly) -> SparsePoly:
    """p with x_r (1-based) replaced by another polynomial."""
    out = SparsePoly.zero(p.n)
    for exp, c in p.terms.items():
        rest = exp[:r - 1] + (0,) + exp[r:]
        out = out + SparsePoly(p.n, {rest: c}) * value ** exp[r - 1]
    return out


def evaluate(p: SparsePoly, point: Sequence, prec: int = 128):
    """p at a point, summed term by term in the point's own arithmetic: exact
    at CycNum (one modulus), Fraction and int coordinates, and otherwise as
    mpmath numbers at ``prec`` bits."""
    exact = all(isinstance(x, (CycNum, int, Fraction)) for x in point)
    with mpmath.workprec(prec):
        coords = list(point) if exact else [mpmath.mpmathify(x) for x in point]
        acc = 0
        for exp, c in p.terms.items():
            term = c if exact else mpmath.mpf(c.numerator) / c.denominator
            for x, e in zip(coords, exp):
                if e:
                    term = term * x ** e
            acc = acc + term
    return acc


def fraction_matmul(a: RatMatrix, b: RatMatrix) -> list[list[Fraction]]:
    """Entrywise sum of Fraction products."""
    n = a.n
    return [[sum((a.rows[i][k] * b.rows[k][j] for k in range(n)), Fraction(0))
             for j in range(n)] for i in range(n)]


def partials_not_divisible_by_division(p: SparsePoly) -> bool:
    """No D_r p is a multiple of s = x_1 + ... + x_n, by one exact division
    per partial, with no restriction to s = 0."""
    s = s_form(p.n)
    return all(isinstance(divide_by_linear(p.partial(r), s), NotDivisible)
               for r in range(1, p.n + 1))


def gl_inverse_fractions(t: Tree) -> list[list[Fraction]]:
    """The Graham-Lovasz inverse entry by entry in Fractions:
    (2-d_i)(2-d_j)/(2(n-1)) + (-d_i/2 if i = j else a_ij/2)."""
    n, deg = t.n, t.degrees
    adj = {frozenset(e) for e in t.edges}
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            val = Fraction((2 - deg[i]) * (2 - deg[j]), 2 * (n - 1))
            if i == j:
                val -= Fraction(deg[i], 2)
            elif frozenset((i, j)) in adj:
                val += Fraction(1, 2)
            row.append(val)
        rows.append(row)
    return rows


def order3_rows_by_polynomials(t: Tree, p: SparsePoly) -> list[bool]:
    """The five order-3 rows of ``cli.identity_rows`` for the cubic form p, by
    ``SparsePoly`` ring arithmetic: p = s*g, sum_r x_r D_r p = 3sg,
    s * sum_r 3(2 - deg_r) D_r p - 2 sum_r x_r D_r p = 9(n-1) s^3, no D_r p
    divisible by s, and p divisible by s."""
    n = t.n
    d = side_distances(t)
    s = s_form(n)
    g = SparsePoly(n, {tuple(int(v in (i, j)) for v in range(n)): 3 * int(d[i, j])
                       for i in range(n) for j in range(i + 1, n)})
    euler = by_degree = SparsePoly.zero(n)
    for r in range(1, n + 1):
        d_r = p.partial(r)
        euler = euler + SparsePoly.variable(n, r) * d_r
        by_degree = by_degree + 3 * (2 - t.degrees[r]) * d_r
    return [p == s * g,
            euler == 3 * s * g,
            s * by_degree - 2 * euler == 9 * (n - 1) * s ** 3,
            partials_not_divisible_by_division(p),
            not isinstance(divide_by_linear(p, s), NotDivisible)]


def side_distances(t: Tree, k: int = 2) -> np.ndarray:
    """The order-k Steiner array (n-1) - sum_e (S_e^k + N_e^k), S_e the far
    and N_e = 1 - S_e the near side of edge e: an index tuple misses edge e
    exactly when it lies on one side.  One ``np.einsum`` over the 2(n-1)
    stacked side rows, O(n^(k+1)); at k = 2 it is Sᵀ(1-S) + (1-S)ᵀS."""
    far = t.sides()
    sides = np.concatenate([far, 1 - far])
    operands = []
    for axis in range(1, k + 1):
        operands += [sides, [0, axis]]
    return t.n - 1 - np.einsum(*operands, list(range(1, k + 1)))


# ---------------------------------------------------------------------------
# Order-3 polynomial identities by SparsePoly ring arithmetic
# ---------------------------------------------------------------------------

class NotDivisible:
    """Witness that a polynomial is not a multiple of the divisor."""

    __slots__ = ("remainder",)

    def __init__(self, remainder: SparsePoly):
        object.__setattr__(self, "remainder", remainder)

    def __setattr__(self, *_):  # pragma: no cover
        raise AttributeError("NotDivisible is immutable")

    def __repr__(self):
        return f"NotDivisible(remainder={self.remainder!r})"


def divide_by_linear(p: SparsePoly, s: SparsePoly) -> SparsePoly | NotDivisible:
    """Exact division of p by a nonzero linear form s.

    Returns q with p = s*q, or a NotDivisible carrying the nonzero remainder.
    Pivot on the highest-index variable of s: write s = a*(x_r - rho) with rho
    free of x_r, synthetic-divide p by (x_r - rho), and divide the quotient by a.
    """
    if s.is_zero() or s.total_degree() != 1 or s.coefficient((0,) * s.n) != 0:
        raise ValueError("divisor must be a nonzero homogeneous linear form")
    p._check(s)
    # every key of s is one variable's unit; the smallest is x_r's
    unit = min(s._terms)
    a = s._terms[unit]
    shift = unit.bit_length() - 1
    # rho = -(s - a*x_r)/a
    rho = SparsePoly._ring(s.n, {key: c for key, c in s._terms.items() if key != unit},
                           1) * Fraction(-1, a)

    # coefficients of p as a polynomial in x_r
    layers: dict[int, dict[int, int | Fraction]] = {}
    clear = ~(MAX_EXPONENT << shift)
    for key, c in p._terms.items():
        layers.setdefault((key >> shift) & MAX_EXPONENT, {})[key & clear] = c
    if not layers:
        return SparsePoly.zero(p.n)
    top = max(layers)
    coeffs = [SparsePoly._ring(p.n, layers.get(j, {}), p._top) for j in range(top + 1)]

    # synthetic division by (x_r - rho): b_{j} = c_{j+1} + rho*b_{j+1}
    quot_layers: list[SparsePoly] = [SparsePoly.zero(p.n)] * max(top, 1)
    carry = SparsePoly.zero(p.n)
    for j in range(top, 0, -1):
        carry = coeffs[j] + rho * carry
        quot_layers[j - 1] = carry
    remainder = coeffs[0] + rho * carry
    if not remainder.is_zero():
        return NotDivisible(remainder)

    # the layers are free of x_r: layer j's keys take x_r^j by one addition
    inverse = _int_if_integral(Fraction(1, a))
    quotient = {key + j * unit: c * inverse
                for j, layer in enumerate(quot_layers) for key, c in layer._terms.items()}
    return SparsePoly._ring(p.n, quotient, p._top)


def s_form(n: int) -> SparsePoly:
    """The all-ones linear form x_1 + ... + x_n."""
    return SparsePoly._ring(n, dict.fromkeys(_units(n), 1), 1)


def distance_quadratic(t: Tree) -> SparsePoly:
    """g = 3 * sum_{i<j} d_T(i,j) x_i x_j, the cofactor of s in the order-3 form."""
    n = t.n
    d = t.distances().tolist()
    units = _units(n)
    return SparsePoly._ring(n, {units[i] + units[j]: 3 * d[i][j]
                                for i in range(n) for j in range(i + 1, n)}, 1)


def order3_form(t: Tree) -> SparsePoly:
    """The order-3 Steiner form, via the hypermatrix, as a polynomial."""
    return steiner_form(build_steiner(t, 3))


def s3_cofactors(t: Tree) -> list[SparsePoly]:
    """Cofactors f_r with s^3 = sum_r f_r * D_r p for the order-3 form.

    f_r = ((2 - deg_r) * s - (2/3) x_r) / (3(n-1)), the cofactors of
    ``forms.verify_s3_decomposition``, which checks the identity with
    denominators cleared.
    """
    n = t.n
    if n < 2:
        raise ValueError("needs at least two vertices")
    s = s_form(n)
    return [(s * Fraction(2 - t.degrees[r]) - SparsePoly.variable(n, r) * Fraction(2, 3))
            * Fraction(1, 3 * (n - 1)) for r in range(1, n + 1)]


# ---------------------------------------------------------------------------
# Order-2 oracle: the distance matrix as a RatMatrix, and Bareiss elimination
# ---------------------------------------------------------------------------

def distance_matrix(t: Tree) -> RatMatrix:
    return RatMatrix(t.distances().tolist())


def determinant_exact(m: RatMatrix) -> Fraction:
    """Exact determinant det(num) / den^n, by Bareiss fraction-free elimination."""
    return Fraction(_bareiss_int([list(r) for r in m.num]), m.den ** m.n)


def _bareiss_int(a: list[list[int]]) -> int:
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def c_coefficients(t: Tree) -> list[Fraction]:
    """The row vector c with c * D = all-ones: c_r = (2 - deg_r)/(n - 1)."""
    n = t.n
    if n < 2:
        raise ValueError("needs n >= 2")
    return [Fraction(2 - t.degrees[r], n - 1) for r in range(1, n + 1)]
