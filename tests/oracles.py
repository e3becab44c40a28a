"""Slow second routes that check the fast ones in ``src``.

Each oracle derives its object from per-multiset ``Tree.steiner`` queries (or,
for linear systems, plain Gaussian elimination), sharing nothing with the
edge-cut closed forms it checks.
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
