"""Order-2 exact matrix algebra for tree distance matrices.

Covers the two classical closed forms this package leans on:

* Graham-Pollak: det D = -(n-1)(-2)^(n-2) for any tree on n >= 2 vertices.
* Graham-Lovász: the inverse distance matrix entrywise from vertex degrees
  and adjacency, d*_ij = (2-d_i)(2-d_j)/(2(n-1)) + (-d_i/2 if i=j else a_ij/2).

Everything here is exact and runs on integers.  ``gl_inverse`` returns the
inverse's int64 numerator array (|num| < 2n^2) over 2(n-1).  A ``RatMatrix``
stores integer numerators over one canonical denominator (the lcm of its
reduced entry denominators), so a product is one integer matrix product
followed by a gcd reduction.  Fractions appear only at the edges (``rows``,
indexing, JSON), and entries are read by ``scalar._rational``, so int64
entries cannot wrap and a float raises ``TypeError``.  No command builds
one: ``RatMatrix`` stays for the test suite's Bareiss oracle and because the
benchmark's tracer binds its ``__matmul__``.  The order-2 certificate reads
det D off the cut-basis arrowhead (``smalldet.det_order2``); the Bareiss
determinant, the distance matrix as a ``RatMatrix`` and the row vector c
with c D = 1 are test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

import json
import math
import operator
from fractions import Fraction
from itertools import chain
from typing import Sequence

import numpy as np

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
        except (TypeError, ValueError, ZeroDivisionError, RecursionError) as exc:
            raise MalformedInput(f"bad matrix JSON: {exc!r}") from exc


def graham_pollak_value(n: int) -> Fraction:
    """-(n-1)(-2)^(n-2): the tree distance-matrix determinant for n >= 2."""
    if n < 2:
        raise ValueError("needs n >= 2")
    return Fraction(-(n - 1) * (-2) ** (n - 2))


def gl_inverse(t: Tree) -> tuple[np.ndarray, int]:
    """Closed-form inverse of the distance matrix, from degrees and adjacency,
    as its int64 numerator array and the denominator 2(n-1), unreduced:

    2(n-1) * d*_ij = (2-d_i)(2-d_j) + (n-1) * (-d_i if i=j else a_ij).
    """
    n = t.n
    if n < 2:
        raise ValueError("needs n >= 2")
    deg = np.array(t.degrees[1:], dtype=np.int64)
    num = np.multiply.outer(2 - deg, 2 - deg)
    num.flat[::n + 1] -= (n - 1) * deg   # the diagonal
    u, v = np.fromiter(chain.from_iterable(t.edges), np.intp, 2 * n - 2).reshape(-1, 2).T - 1
    num[u, v] += n - 1
    num[v, u] += n - 1
    return num, 2 * (n - 1)
