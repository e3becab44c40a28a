"""Order-2 exact matrix algebra for tree distance matrices.

Covers the two classical closed forms this package leans on:

* Graham-Pollak: det D = -(n-1)(-2)^(n-2) for any tree on n >= 2 vertices.
* Graham-Lovász: the inverse distance matrix entrywise from vertex degrees
  and adjacency, d*_ij = (2-d_i)(2-d_j)/(2(n-1)) + (-d_i/2 if i=j else a_ij/2).

Everything here is Fraction-exact; determinants use Bareiss fraction-free
elimination (integer fast path when the matrix is integral), and products
multiply integer numerators over each factor's common denominator.
"""

from __future__ import annotations

import json
import math
import operator
from fractions import Fraction
from typing import Sequence

from .trees import Tree


class RatMatrix:
    """Immutable square matrix of Fractions."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence[Fraction | int]]):
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and nonempty")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows",
                           tuple(tuple(Fraction(x) for x in r) for r in rows))

    def __setattr__(self, *_):  # pragma: no cover - immutability guard
        raise AttributeError("RatMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.rows[i][j]

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix) or other.n != self.n:
            raise ValueError("size mismatch")
        (a, da), (b, db) = self._integral(), other._integral()
        cols = list(zip(*b))
        return RatMatrix([[Fraction(sum(map(operator.mul, row, col)), da * db)
                           for col in cols] for row in a])

    def _integral(self) -> tuple[list[list[int]], int]:
        """Integer numerators over the common denominator of every entry."""
        den = math.lcm(*(x.denominator for row in self.rows for x in row))
        return [[x.numerator * (den // x.denominator) for x in row] for row in self.rows], den

    def row_times(self, vec: Sequence[Fraction]) -> list[Fraction]:
        """vec (row) times this matrix."""
        n = self.n
        if len(vec) != n:
            raise ValueError("size mismatch")
        return [sum(Fraction(vec[i]) * self.rows[i][j] for i in range(n))
                for j in range(n)]

    def is_identity(self) -> bool:
        return self == RatMatrix.identity(self.n)

    def __eq__(self, other):
        if isinstance(other, RatMatrix):
            return self.rows == other.rows
        return NotImplemented

    def __repr__(self):
        return f"RatMatrix({[list(map(str, r)) for r in self.rows]})"

    def to_json(self) -> str:
        return json.dumps([[[str(x.numerator), str(x.denominator)] for x in row]
                           for row in self.rows])

    @classmethod
    def from_json(cls, text: str) -> "RatMatrix":
        data = json.loads(text)
        return cls([[Fraction(int(n_), int(d_)) for n_, d_ in row] for row in data])


def distance_matrix(t: Tree) -> RatMatrix:
    return RatMatrix(t.distances().tolist())


def determinant_exact(m: RatMatrix) -> Fraction:
    """Exact determinant by Bareiss fraction-free elimination."""
    n = m.n
    if all(x.denominator == 1 for row in m.rows for x in row):
        return Fraction(_bareiss_int([[x.numerator for x in row] for row in m.rows]))
    # scale each row integral, run the integer kernel, divide the scale back out
    scale = Fraction(1)
    rows = []
    for row in m.rows:
        lcm = math.lcm(*(x.denominator for x in row))
        scale *= lcm
        rows.append([int(x * lcm) for x in row])
    return Fraction(_bareiss_int(rows)) / scale


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


def graham_pollak_value(n: int) -> Fraction:
    """-(n-1)(-2)^(n-2): the tree distance-matrix determinant for n >= 2."""
    if n < 2:
        raise ValueError("needs n >= 2")
    return Fraction(-(n - 1) * (-2) ** (n - 2))


def gl_inverse(t: Tree) -> RatMatrix:
    """Closed-form inverse of the distance matrix, from degrees and adjacency."""
    n = t.n
    if n < 2:
        raise ValueError("needs n >= 2")
    adj = {frozenset(e) for e in t.edges}
    deg = t.degrees
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
    return RatMatrix(rows)


def c_coefficients(t: Tree) -> list[Fraction]:
    """The row vector c with c * D = all-ones: c_r = (2 - deg_r)/(n - 1)."""
    n = t.n
    if n < 2:
        raise ValueError("needs n >= 2")
    return [Fraction(2 - t.degrees[r], n - 1) for r in range(1, n + 1)]

