"""Order-2 exact matrix algebra for tree distance matrices.

Covers the two classical closed forms this package leans on:

* Graham-Pollak: det D = -(n-1)(-2)^(n-2) for any tree on n >= 2 vertices.
* Graham-Lovász: the inverse distance matrix entrywise from vertex degrees
  and adjacency, d*_ij = (2-d_i)(2-d_j)/(2(n-1)) + (-d_i/2 if i=j else a_ij/2).

Everything here is exact and runs on integers.  A ``RatMatrix`` stores
integer numerators over one canonical denominator (the lcm of its reduced
entry denominators), so a product is one integer matrix product followed
by a gcd reduction, and the determinant is det(num) / den^n with det(num)
from Bareiss fraction-free elimination.  That is the general ``RatMatrix``
determinant; the order-2 certificate does not use it, but reads det D off
the cut-basis arrowhead (``smalldet.det_order2``).  Fractions appear only at
the edges (``rows``, indexing, JSON).  Entries are read by
``scalar._rational``, so an int64 matrix cannot wrap in Bareiss and a float
raises ``TypeError``.
"""

from __future__ import annotations

import json
import math
import operator
from fractions import Fraction
from typing import Sequence

from .errors import MalformedInput
from .scalar import _fraction_from_json, _rational
from .trees import Tree


class RatMatrix:
    """Immutable square matrix of rationals: integer numerators over one denominator.

    ``den`` is the lcm of the reduced entry denominators, so equal matrices
    store the same ``(num, den)`` pair however they were built.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, rows: Sequence[Sequence[Fraction | int]], den: int = 1):
        """The matrix rows / den, for a positive integer den."""
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows) or den < 1:
            raise ValueError("matrix must be square and nonempty, over a positive den")
        if not all(type(x) is int for r in rows for x in r):
            rows = [[_rational(x) for x in r] for r in rows]
            common = math.lcm(*(x.denominator for r in rows for x in r))
            rows = [[x.numerator * (common // x.denominator) for x in r] for r in rows]
            den *= common
        g = math.gcd(den, *(x for r in rows for x in r))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "num", tuple(tuple(x // g for x in r) for r in rows))
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, *_):  # pragma: no cover - immutability guard
        raise AttributeError("RatMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.den) for x in r) for r in self.num)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return Fraction(self.num[i][j], self.den)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix) or other.n != self.n:
            raise ValueError("size mismatch")
        cols = list(zip(*other.num))
        return RatMatrix(
            [[sum(map(operator.mul, row, col)) for col in cols] for row in self.num],
            self.den * other.den)

    def row_times(self, vec: Sequence[Fraction]) -> list[Fraction]:
        """vec (row) times this matrix."""
        if len(vec) != self.n:
            raise ValueError("size mismatch")
        vec = [_rational(x) for x in vec]
        vden = math.lcm(*(x.denominator for x in vec))
        ints = [x.numerator * (vden // x.denominator) for x in vec]
        den = vden * self.den
        return [Fraction(sum(map(operator.mul, ints, col)), den) for col in zip(*self.num)]

    def is_identity(self) -> bool:
        return self == RatMatrix.identity(self.n)

    def __eq__(self, other):
        if isinstance(other, RatMatrix):
            return self.den == other.den and self.num == other.num
        return NotImplemented

    def __repr__(self):
        return f"RatMatrix({[list(map(str, r)) for r in self.rows]})"

    def to_json(self) -> str:
        return json.dumps([[[str(x.numerator), str(x.denominator)] for x in row]
                           for row in self.rows])

    @classmethod
    def from_json(cls, text: str) -> "RatMatrix":
        try:
            return cls([[_fraction_from_json(x) for x in row] for row in json.loads(text)])
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise MalformedInput(f"bad matrix JSON: {exc!r}") from exc


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


def graham_pollak_value(n: int) -> Fraction:
    """-(n-1)(-2)^(n-2): the tree distance-matrix determinant for n >= 2."""
    if n < 2:
        raise ValueError("needs n >= 2")
    return Fraction(-(n - 1) * (-2) ** (n - 2))


def gl_inverse(t: Tree) -> RatMatrix:
    """Closed-form inverse of the distance matrix, from degrees and adjacency.

    2(n-1) * d*_ij = (2-d_i)(2-d_j) + (n-1) * (-d_i if i=j else a_ij).
    """
    n = t.n
    if n < 2:
        raise ValueError("needs n >= 2")
    deg = t.degrees[1:]
    num = [[(2 - di) * (2 - dj) for dj in deg] for di in deg]
    for i, di in enumerate(deg):
        num[i][i] -= (n - 1) * di
    for u, v in t.edges:
        num[u - 1][v - 1] += n - 1
        num[v - 1][u - 1] += n - 1
    return RatMatrix(num, 2 * (n - 1))


def c_coefficients(t: Tree) -> list[Fraction]:
    """The row vector c with c * D = all-ones: c_r = (2 - deg_r)/(n - 1)."""
    n = t.n
    if n < 2:
        raise ValueError("needs n >= 2")
    return [Fraction(2 - t.degrees[r], n - 1) for r in range(1, n + 1)]

