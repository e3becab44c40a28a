"""Directly computable hyperdeterminants: order 2, and Cayley's 2x2x2 formula.

The order-2 hyperdeterminant det D is read through the cut basis, as in the
Graham-Pollak proof (Graham & Pollak, On the addressing problem for loop
switching, 1971), run as a check.  Let E be the unit lower-triangular
operation "row c -= row parent(c)" down the BFS order after vertex 1, so
det E = 1.  Because D[c] - D[parent c] = 1 - 2 S_c (S_c the far side of
edge c), every tree gives the same arrowhead M = E D E^T: M_11 = 0,
M_1c = M_c1 = 1, M_cc = -2, and 0 elsewhere.  Forming M is two
parent-differencing passes in place, on D and then on its transpose, in D's
own width, modulo 2^8 or 2^16 for the tree's build (exact: see
``det_order2``), and checking it is O(n^2); a D not congruent to the
arrowhead raises SteinerError instead of a determinant.
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


def det_order2(t: Tree) -> Fraction:
    """The order-2 hyperdeterminant: det D, read off the arrowhead M = E D E^T.

    Each pass runs in place: rows 2..n lose a gather of their parents'
    original rows.  The row pass runs on D itself, which ``Tree.distances``
    builds afresh; D is dropped once its transpose is copied, and the column
    pass runs on rows of that copy, so the array checked is M^T, the same
    arrowhead.  S lives only while D is built, so at most two n^2 arrays of
    D's width are held at once: D and its row gather, D and its transpose,
    or the transpose and its row gather.  The passes run in D's dtype, w
    bits wide, and M is read in the signed view of that width: modulo 2^w,
    which is exact.  E is unit lower-triangular, so invertible modulo 2^w,
    and M = arrowhead (mod 2^w) gives D = the tree's distance matrix (mod
    2^w); when D's dtype holds n - 1, as ``Tree.distances``'s does, both lie
    in its range, so they are equal.  det M = prod d_c * (M_11 - sum M_1c M_c1 / d_c) over c != 1,
    in Python ints.  BudgetExceeded before D is built when its n^2 entries
    exceed ``entry_budget()``; SteinerError when D's dtype cannot hold n - 1
    or M is not the arrowhead, i.e. D is not the tree's distance matrix.
    """
    n = t.n
    if n < 2:
        raise ValueError("needs n >= 2")
    check_entry_budget(n, 2, "distance-matrix entries")
    d = t.distances()
    if np.iinfo(d.dtype).max < n - 1:
        raise SteinerError(f"a {d.dtype} distance matrix cannot hold n - 1 = {n - 1}")
    up = np.array(t.parent[2:]) - 1   # the parent rows of vertices 2..n
    d[1:] -= d[up]   # E D
    m = np.ascontiguousarray(d.T)   # (E D)^T
    del d
    m[1:] -= m[up]   # E (E D)^T = M^T
    m = m.view(f"i{m.itemsize}")   # signed
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
