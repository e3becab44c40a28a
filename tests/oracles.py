"""Slow second routes that check the fast ones in ``src``.

Each oracle derives its object from per-multiset ``Tree.steiner`` queries (or,
for linear systems, plain Gaussian elimination or mpmath's QR solver at the
working precision), sharing nothing with the edge-cut closed forms or the
float64 solves it checks.  Polynomial and matrix products are redone
on plain ``{exponent tuple: Fraction}`` dicts and Fraction sums, with none of
the integer fast paths of ``SparsePoly`` and ``RatMatrix``.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from typing import Sequence

import mpmath
import numpy as np

from steinerdh import Hypermatrix, RatMatrix, Tree


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
            dist = t.steiner(mu | {z})
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
                acc += weight * t.steiner(mu | {z, r}) * term
            hess[z - 1][r - 1] = k * (k - 1) * acc
    return hess


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
        value = t.steiner(combo)
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


def fraction_matmul(a: RatMatrix, b: RatMatrix) -> list[list[Fraction]]:
    """Entrywise sum of Fraction products."""
    n = a.n
    return [[sum((a.rows[i][k] * b.rows[k][j] for k in range(n)), Fraction(0))
             for j in range(n)] for i in range(n)]
