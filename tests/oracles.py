"""Slow second routes that check the fast ones in ``src``.

Most oracles derive their object from per-multiset queries to
``steiner_distance_bruteforce`` (the smallest connected vertex set holding
the multiset, so trees of n <= 12 vertices), or, for linear systems, from
plain Gaussian elimination or mpmath's QR solver at the working precision.
These share none of the edge cuts behind ``Tree.steiner``,
``Tree.distances`` and the closed forms, or the float64 solves they check.
Polynomial and matrix products are redone on plain ``{exponent tuple:
Fraction}`` dicts and Fraction sums, with none of the integer fast paths of
``SparsePoly`` and ``RatMatrix``; the polynomial routes add exponent tuples
as ``SparsePoly`` does, so the tests also check its products by ``evaluate``
at rational points.  ``index_tuple_form`` sums a Steiner form over every
index tuple, with no multinomial weights.  A ``CycNum`` product
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

``even_order_witness`` is a singular point of the order-k form at an even
k, built in the cut coordinates y = (s, far sums) from the closed form of
the form there and mapped back by x = B^-1 y, each vertex's far sum taken off
its parent's value; with the package it shares only the tree's parent array
and edge order.
The numeric search tests start next to it.

The last six sections hold routes that left ``steinerdh`` when no package
code called them any more, or when a faster route replaced them; their code
is unchanged, so they share what they always shared.
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
  division).  They share ``SparsePoly``'s exponent-tuple keys and ring
  operations, which the Fraction-dict routes above check, and none of the
  int64 tensors of ``forms``.
- The export oracle: ``json_export`` and ``text_export`` are the writers
  ``export_json`` and ``export_text`` used before the chunked int64 decimal
  writer, ``json.dumps`` and ``str`` over ``Hypermatrix.flat()``'s Python
  ints.  They share only the entries with that writer.
- The import oracles: ``json_import`` is the ``import_json`` used before the
  piece-wise numpy reader, ``json.loads``, a type scan over the entries and
  ``np.array`` over their Python ints; it also turns the ValueError of an
  integer past Python's digit limit into ``MalformedInput``.
  ``text_import`` is the ``import_text`` used before that reader read both
  formats, one Python int per line, under the text rule the reader now
  keeps: ``str.split`` at newlines, ``str.strip`` of ASCII space, tab and CR
  only, and a regular expression for each entry.  With the reader they share
  only the header checks of ``_shape``.
- The cyclotomic oracles: ``cyclotomic_by_division`` is the Phi_m used
  before the Moebius product, x^m - 1 divided by every smaller Phi_d in turn,
  and ``two_vertex_scan_all_roots`` is the two-vertex scan used before one
  test per Galois orbit, (1 + zeta)^(k-1) = 1 tested for every (k-1)-th root
  of unity in Q(zeta_(k-1)).  Two lines differ: the division counts the
  units mod m for its degree check instead of calling ``euler_phi``, and
  the scan leaves the axis check to the package.  They share ``CycNum``
  arithmetic with the package, but not the Moebius inversion or the Galois
  reduction.
- The int64 recurrence: ``int64_steiner_array`` is ``Tree._steiner_array``
  before it stepped in uint8 or uint16, int64 rows stepped by int8 steps
  (``_BLOCK_ENTRIES`` fixed at 2^16), so no sum wraps.  It shares S and the
  recurrence with the package, but none of the narrow dtypes or the modular
  adds of ``Tree.distances`` and ``build_steiner``.
- The 128-bit embedding: ``embed128`` is ``CycNum.embed`` before the
  package dropped mpmath, each coefficient times mpmath's exp(2 pi i j/m),
  summed at ``WORKING_PREC`` + 16 bits.  It shares only the power-basis
  coefficients with the complex128 residual of ``verify_nullvector``, and it
  gives the tests their 128-bit completion roots.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from typing import Sequence

import mpmath
import numpy as np

from steinerdh import (CycNum, Hypermatrix, MalformedInput, RatMatrix, SparsePoly, Tree,
                       build_steiner, cyclotomic_polynomial, root_of_unity,
                       steiner_distance_bruteforce, steiner_form)
from steinerdh.errors import ascii_int
from steinerdh.hypermatrix import _shape
from steinerdh.scalar import WORKING_PREC, _int_if_integral


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
    on an object array of mpmath complex numbers at the working precision, or
    of Fractions, exactly."""
    n = t.n
    x = np.array([v if isinstance(v, Fraction) else mpmath.mpmathify(v) for v in point],
                 dtype=object)
    far = t.sides().astype(np.int64)
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
    return _real_split_step(x, grads, hess, gauge=False)


def gauge_row_gauss_newton_step(x: list, grads: list, hess: list[list]):
    """``qr_gauss_newton_step`` with one more real row, [-2 Im x, 2 Re x]
    against right side 0: the imaginary part of the complex gauge row
    2 x^H d, which forbids a step along the phase direction i*x."""
    return _real_split_step(x, grads, hess, gauge=True)


def _real_split_step(x: list, grads: list, hess: list[list], gauge: bool):
    """The real (2n+1+gauge) x 2n split [[Re H, -Im H], [Im H, Re H]] plus
    the norm row (right side 1 - |x|^2) and, with ``gauge``, the gauge row,
    solved by ``mpmath.qr_solve``."""
    n = len(x)
    rows = 2 * n + 1 + gauge
    A = mpmath.matrix(rows, 2 * n)
    b = mpmath.matrix(rows, 1)
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
        if gauge:
            A[2 * n + 1, j] = -2 * x[j].imag
            A[2 * n + 1, n + j] = 2 * x[j].real
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
    """The product on Fraction dicts, keyed by exponent tuples added
    coordinate by coordinate as in ``SparsePoly``; only its coefficient
    arithmetic is independent."""
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
    g = SparsePoly(n, {_monomial(n, i, j): 3 * int(d[i, j])
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
    far = t.sides().astype(np.int64)
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
    terms = s.terms
    unit = min(terms)
    a = terms.pop(unit)
    r = unit.index(1)
    # rho = -(s - a*x_r)/a
    rho = SparsePoly._ring(s.n, terms) * Fraction(-1, a)

    # coefficients of p as a polynomial in x_r
    layers: dict[int, dict[tuple[int, ...], int | Fraction]] = {}
    for key, c in p._terms.items():
        layers.setdefault(key[r], {})[key[:r] + (0,) + key[r + 1:]] = c
    if not layers:
        return SparsePoly.zero(p.n)
    top = max(layers)
    coeffs = [SparsePoly._ring(p.n, layers.get(j, {})) for j in range(top + 1)]

    # synthetic division by (x_r - rho): b_{j} = c_{j+1} + rho*b_{j+1}
    quot_layers: list[SparsePoly] = [SparsePoly.zero(p.n)] * max(top, 1)
    carry = SparsePoly.zero(p.n)
    for j in range(top, 0, -1):
        carry = coeffs[j] + rho * carry
        quot_layers[j - 1] = carry
    remainder = coeffs[0] + rho * carry
    if not remainder.is_zero():
        return NotDivisible(remainder)

    # the layers are free of x_r: layer j's keys take x_r^j at position r
    inverse = _int_if_integral(Fraction(1, a))
    quotient = {key[:r] + (j,) + key[r + 1:]: c * inverse
                for j, layer in enumerate(quot_layers) for key, c in layer._terms.items()}
    return SparsePoly._ring(p.n, quotient)


def _monomial(n: int, *vs: int) -> tuple[int, ...]:
    """The exponent tuple of x_(v1+1) * x_(v2+1) * ..., vs 0-based."""
    return tuple(map(vs.count, range(n)))


def s_form(n: int) -> SparsePoly:
    """The all-ones linear form x_1 + ... + x_n."""
    return SparsePoly._ring(n, {_monomial(n, v): 1 for v in range(n)})


def distance_quadratic(t: Tree) -> SparsePoly:
    """g = 3 * sum_{i<j} d_T(i,j) x_i x_j, the cofactor of s in the order-3 form."""
    n = t.n
    d = t.distances().tolist()
    return SparsePoly._ring(n, {_monomial(n, i, j): 3 * d[i][j]
                                for i in range(n) for j in range(i + 1, n)})


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


# ---------------------------------------------------------------------------
# Export and import oracles: the hypermatrix documents through Python ints
# ---------------------------------------------------------------------------

def json_export(h: Hypermatrix) -> str:
    return json.dumps({"k": h.k, "n": h.n, "entries": h.flat()})


def text_export(h: Hypermatrix) -> str:
    lines = [f"{h.k} {h.n}"]
    lines.extend(map(str, h.flat()))
    return "\n".join(lines) + "\n"


def json_import(text: str) -> Hypermatrix:
    try:
        obj = json.loads(text)
        k, n, entries = obj["k"], obj["n"], obj["entries"]
    except (ValueError, KeyError, TypeError) as exc:
        raise MalformedInput(f"bad hypermatrix JSON: {exc}") from exc
    if type(entries) is not list or not set(map(type, entries)) <= {int}:
        raise MalformedInput("hypermatrix JSON entries must be a list of integers")
    return _flat_hypermatrix(k, n, entries)


_TEXT_ENTRY = re.compile(r"-?(0|[1-9][0-9]*)")


def text_import(text: str) -> Hypermatrix:
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()   # one newline may end the document
    if not lines:
        raise MalformedInput("empty hypermatrix document")
    try:
        k, n = map(ascii_int, lines[0].strip(" \t\r").split(" "))   # the header 'k n'
        values = [line.strip(" \t\r") for line in lines[1:]]
        if not all(map(_TEXT_ENTRY.fullmatch, values)):
            raise ValueError("an entry line is not one integer")
        entries = [int(x) for x in values]
    except ValueError as exc:
        raise MalformedInput(f"bad hypermatrix text: {exc}") from exc
    return _flat_hypermatrix(k, n, entries)


def _flat_hypermatrix(k, n, entries: list) -> Hypermatrix:
    """Flat C-order Python int entries as an order-k hypermatrix of dimension n."""
    shape = _shape(k, n, len(entries))
    try:
        arr = np.array(entries, dtype=np.int64)
    except OverflowError as exc:
        raise MalformedInput(f"entry outside int64: {exc}") from exc
    return Hypermatrix(k, n, arr.reshape(shape))


# ---------------------------------------------------------------------------
# Cyclotomic oracles: Phi_m by recursive division, the two-vertex scan over
# every root of unity
# ---------------------------------------------------------------------------

def _poly_divmod_monic(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Divide by a monic integer polynomial: the quotient and the deg(den)
    low coefficients of the remainder, both integral."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quot[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    return quot, num[:dd]


@lru_cache(maxsize=None)
def cyclotomic_by_division(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, ascending: x^m - 1 divided by Phi_d for every
    proper divisor d of m, down to Phi_1 = x - 1.  Each division must leave
    no remainder, and the quotient must have degree phi(m)."""
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0] = -1
    num[m] = 1
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod_monic(num, cyclotomic_by_division(d))
            if any(rem):
                raise AssertionError(f"x^{m}-1 not divisible by Phi_{d}")
    assert len(num) - 1 == sum(math.gcd(j, m) == 1 for j in range(1, m + 1))
    return tuple(num)


def two_vertex_scan_all_roots(k: int):
    """[1, zeta] for the first zeta = zeta_(k-1)^j, j = 0, 1, ..., k-2, with
    (1 + zeta)^(k-1) = 1, each tested in Q(zeta_(k-1)); None when no
    (k-1)-th root of unity passes."""
    m = k - 1
    one = root_of_unity(m, 0)
    for j in range(m):
        zeta = root_of_unity(m, j)
        if (one + zeta) ** m == one:
            return [one, zeta]
    return None


# ---------------------------------------------------------------------------
# The int64 recurrence
# ---------------------------------------------------------------------------

def int64_steiner_array(t: Tree, k: int) -> np.ndarray:
    """The order-k Steiner array by the parent recurrence in int64: row 1 is
    (n-1) - sum_e N_e^(k-1) and row c = row p + N_c^(k-1) - S_c^(k-1)."""
    n, far = t.n, t.sides().astype(np.int64)
    out = np.empty((n,) * k, dtype=np.int64)
    rows = out.reshape(n, -1)
    rows[0] = 0
    near_sum = np.zeros(rows.shape[1], dtype=np.int64)
    block = max(1, (1 << 16) // rows.shape[1])
    for lo in range(0, n - 1, block):
        f = far[lo:lo + block].astype(np.int8)
        g = 1 - f
        near_pow, far_pow = g, f
        for _ in range(k - 2):
            near_pow = (near_pow[:, :, None] * g[:, None, :]).reshape(len(f), -1)
            far_pow = (far_pow[:, :, None] * f[:, None, :]).reshape(len(f), -1)
        near_sum += near_pow.sum(axis=0, dtype=np.int16)   # a block has < 2^15 edges
        near_pow -= far_pow
        for c, step in zip(t.order[1 + lo:], near_pow):
            np.add(rows[t.parent[c] - 1], step, out=rows[c - 1])
    np.subtract(n - 1, near_sum, out=rows[0])
    rows[1:] += rows[0]
    return out


# ---------------------------------------------------------------------------
# The 128-bit embedding
# ---------------------------------------------------------------------------

def embed128(x: CycNum) -> mpmath.mpc:
    """Numeric value under zeta_m -> exp(2*pi*i/m), summed and kept at
    WORKING_PREC + 16 bits."""
    with mpmath.workprec(WORKING_PREC + 16):
        total = mpmath.mpc(0)
        for j, c in enumerate(x.coeffs):
            if c:
                w = mpmath.expjpi(mpmath.mpf(2 * j) / x.m)
                total += mpmath.mpf(c.numerator) / c.denominator * w
        return total


# ---------------------------------------------------------------------------
# An even-order singular point
# ---------------------------------------------------------------------------

def even_order_witness(t: Tree, k: int, counts: Sequence[int]) -> np.ndarray:
    """A unit complex128 point where every partial of the order-k Steiner form
    vanishes, at even k, built in cut coordinates y = Bx: y_0 = s, then the
    far sums.  There the form is q_n(y) = sum_e [y_0^k - y_e^k - (y_0 - y_e)^k],
    and y_0 = 1, y_e = 1/(1 + w_e) with w_e^(k-1) = 1 zero each f_e =
    (y_0 - y_e)^(k-1) - y_e^(k-1), leaving f_0 = (n-1) - sum_e v(w_e) with
    v(w) = (1 + w)^(1-k), constant on each pair {w, 1/w}.  ``counts[j]``
    edges, in ``far_sums`` order, take w = exp(2 pi i j/(k-1)); where the
    counts sum to n - 1 with sum_j counts[j] (v_j - 1) = 0, such as
    (288, 31, 31) at n = 351 and k = 6, f_0 vanishes too.  Then x = B^-1 y:
    x_v = y_v - sum over v's children d of y_d, with y_0 at vertex 1."""
    if sum(counts) != t.n - 1:
        raise ValueError(f"{sum(counts)} edge counts for {t.n - 1} edges")
    w = np.repeat(np.exp(2j * np.pi * np.arange(len(counts)) / (k - 1)), counts)
    y = np.ones(t.n + 1, dtype=np.complex128)   # y[v]: vertex v's far sum, y[1] = y_0
    y[list(t.order[1:])] = 1 / (1 + w)
    x = y.copy()
    for v in t.order[1:]:
        x[t.parent[v]] -= y[v]
    return x[1:] / np.linalg.norm(x[1:])
