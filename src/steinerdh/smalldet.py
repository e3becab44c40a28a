"""Directly computable hyperdeterminants: order 2, and Cayley's 2x2x2 formula.

The order-2 hyperdeterminant det D is read through the cut basis, as in the
Graham-Pollak proof (Graham & Pollak, On the addressing problem for loop
switching, 1971), run as a check.  Let E be the unit lower-triangular
operation "row c -= row parent(c)" down the BFS order after vertex 1, so
det E = 1.  Because D[c] - D[parent c] = 1 - 2 S_c (S_c the far side of
edge c), every tree gives the same arrowhead M = E D E^T: M_11 = 0,
M_1c = M_c1 = 1, M_cc = -2, and 0 elsewhere.  Forming M is two
parent-differencing passes over the int64 D and checking it is O(n^2); a D
not congruent to the arrowhead raises SteinerError instead of a determinant.
The package has no general determinant; the tests check this route against
Bareiss elimination (``tests/oracles.py``).

The 2x2x2 hyperdeterminant is Cayley's degree-4 polynomial in the eight
entries.  Writing P1..P4 for the products over the four complementary index
pairs {000,111}, {001,110}, {010,101}, {011,100}, it reads

    sum_i Pi^2  -  2 * sum_{i<j} Pi*Pj  +  4*(a000*a011*a101*a110 + a001*a010*a100*a111).

The same value is the discriminant of det(A0 + t*A1) as a quadratic in t
(A0, A1 the two frontal slices); the test suite recomputes it that way.

Also here: the two-vertex nondegeneracy check for arbitrary order k.  For the
tree on two vertices the gradient system forces x2 = zeta*x1 with
zeta^(k-1) = 1 and then (1 + zeta)^(k-1) = 1.  That equation has rational
coefficients, so the Galois group, which permutes the roots of each order d,
keeps its truth value: one exact test of a primitive d-th root in Q(zeta_d)
per divisor d of k-1 decides it for all (k-1)-th roots of unity.  Refuting
every test (plus the x1 = 0 branch) certifies that the form has no nonzero
singular point, i.e. its discriminant -- the symmetric hyperdeterminant --
is nonzero.  For k >= 4 that says nothing about the full hyperdeterminant
of the order-k tensor (Oeding, Hyperdeterminants of polynomials, Adv. Math.
2012); only k = 2 (the determinant) and k = 3 (Cayley) settle it.  The scan fails exactly when
6 | k-1: then 1 + zeta_3 is a primitive sixth root of unity and (1, zeta_3)
is a singular point, which does make the full hyperdeterminant vanish.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import SteinerError, WrongShape
from .forms import gradient_direct
from .hypermatrix import Hypermatrix, check_entry_budget
from .scalar import root_of_unity
from .trees import Tree, path_tree


def cayley_222(h: Hypermatrix) -> int:
    """Cayley's 2x2x2 hyperdeterminant of an order-3, dimension-2 hypermatrix."""
    if h.k != 3 or h.n != 2:
        raise WrongShape(f"need a 2x2x2 hypermatrix, got order {h.k} dimension {h.n}")

    def a(i: int, j: int, l: int) -> int:
        return int(h.entries[i, j, l])

    pairs = [
        a(0, 0, 0) * a(1, 1, 1),
        a(0, 0, 1) * a(1, 1, 0),
        a(0, 1, 0) * a(1, 0, 1),
        a(0, 1, 1) * a(1, 0, 0),
    ]
    square_sum = sum(p * p for p in pairs)
    cross_sum = sum(pairs[i] * pairs[j] for i in range(4) for j in range(i + 1, 4))
    quads = (a(0, 0, 0) * a(0, 1, 1) * a(1, 0, 1) * a(1, 1, 0)
             + a(0, 0, 1) * a(0, 1, 0) * a(1, 0, 0) * a(1, 1, 1))
    return square_sum - 2 * cross_sum + 4 * quads


def verify_k2_no_nullvector(k: int) -> bool:
    """Certify that the two-vertex order-k form has no nonzero singular point.

    True exactly when ``two_vertex_nullvector_witness`` finds none, so it
    certifies a nonzero symmetric hyperdeterminant (the discriminant of the
    form); for k >= 4 it does not settle the full hyperdeterminant of the
    tensor.  False exactly when 6 | k-1.
    """
    return two_vertex_nullvector_witness(k) is None


def two_vertex_nullvector_witness(k: int):
    """A nullvector of the two-vertex order-k form, or None when it has none.

    A nullvector off the axes is a multiple of (1, zeta) with zeta^(k-1) = 1
    and (1 + zeta)^(k-1) = 1.  With m = k-1 the scan tests one primitive d-th
    root per divisor d of m, in Q(zeta_d), in increasing j = m/d, and returns
    [1, zeta_m^j]: every root of order d shares the test's answer, and m/d is
    the smallest exponent of order d.  It is not vacuous: when k = 1 (mod 6)
    the cube root of unity survives it, because 1 + zeta_3 is the primitive
    sixth root and (1 + zeta_3)^(k-1) = 1.  The returned pair then zeroes both
    partial derivatives exactly, so the order-k hyperdeterminant of the
    two-vertex tree vanishes for those k.  Before it returns None, the scan checks the
    axes on the tree gradient: D_1 p(0, x2) is homogeneous of degree k-1 in
    x2 alone, so it is D_1 p(0, 1) * x2^(k-1) = k x2^(k-1), zero only at
    x2 = 0 (and symmetrically for x2 = 0).  SteinerError if that check fails.
    """
    if k < 2:
        raise ValueError("order must be >= 2")
    m = k - 1
    for j in range(1, m + 1):
        if m % j == 0 and (1 + root_of_unity(m // j)) ** m == 1:
            return [root_of_unity(m, 0), root_of_unity(m, j)]
    t = path_tree(2)
    if gradient_direct(t, k, [0, 1]) != [k, 0] or gradient_direct(t, k, [1, 0]) != [0, k]:
        raise SteinerError(f"the two-vertex order-{k} gradient is wrong on the axes")
    return None


def _parent_differences(a: np.ndarray, up: np.ndarray) -> np.ndarray:
    """E a: row c minus row parent(c) for every vertex c != 1; row 0 (vertex 1) kept."""
    out = a[up]
    np.subtract(a, out, out=out)
    out[0] = a[0]
    return out


def det_order2(t: Tree) -> Fraction:
    """The order-2 hyperdeterminant: det D, read off the arrowhead M = E D E^T.

    The column pass runs on rows of the transpose, so the array checked is
    M^T, the same arrowhead.  det M = prod d_c * (M_11 - sum M_1c M_c1 / d_c)
    over c != 1, in Python ints.  BudgetExceeded before D is built when its
    n^2 entries exceed ``entry_budget()``; SteinerError when M is not the
    arrowhead, i.e. D is not the tree's distance matrix.
    """
    n = t.n
    if n < 2:
        raise ValueError("needs n >= 2")
    check_entry_budget(n, 2, "distance-matrix entries")
    up = np.array(t.parent[1:]) - 1
    up[0] = 0   # vertex 1 has no parent; _parent_differences keeps its row
    m = np.ascontiguousarray(_parent_differences(t.distances(), up).T)   # (E D)^T
    m = _parent_differences(m, up)                                     # E (E D)^T = M^T
    top, arms_out, arms_in = int(m[0, 0]), m[0, 1:].tolist(), m[1:, 0].tolist()
    diag = m.diagonal()[1:].tolist()
    m[0] = m[:, 0] = 0
    np.fill_diagonal(m, 0)   # what is left must be all zero
    ones = [1] * (n - 1)
    if top != 0 or arms_out != ones or arms_in != ones or diag != [-2] * (n - 1) or m.any():
        raise SteinerError("distance matrix is not congruent to the Graham-Pollak "
                           "arrowhead: it is not the distance matrix of this tree")
    scale = math.prod(diag)
    return Fraction(scale * top - sum(a * b * (scale // c)
                                      for a, b, c in zip(arms_out, arms_in, diag)))
