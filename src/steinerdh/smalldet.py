"""Directly computable hyperdeterminants: order 2, and Cayley's 2x2x2 formula.

The 2x2x2 hyperdeterminant is Cayley's degree-4 polynomial in the eight
entries.  Writing P1..P4 for the products over the four complementary index
pairs {000,111}, {001,110}, {010,101}, {011,100}, it reads

    sum_i Pi^2  -  2 * sum_{i<j} Pi*Pj  +  4*(a000*a011*a101*a110 + a001*a010*a100*a111).

The same value is the discriminant of det(A0 + t*A1) as a quadratic in t
(A0, A1 the two frontal slices); the test suite recomputes it that way.

Also here: the two-vertex nondegeneracy check for arbitrary order k.  For the
tree on two vertices the gradient system forces x2 = zeta*x1 with
zeta^(k-1) = 1 and then (1 + zeta)^(k-1) = 1; scanning every (k-1)-th root of
unity in Q(zeta_{k-1}) and refuting each equation exactly (plus the x1 = 0
branch) certifies that the form has no nonzero singular point, i.e.
its discriminant -- the symmetric hyperdeterminant -- is nonzero.  For k >= 4
that says nothing about the full hyperdeterminant of the order-k tensor
(Oeding, Hyperdeterminants of polynomials, Adv. Math. 2012); only k = 2 (the
determinant) and k = 3 (Cayley) settle it.  The scan fails exactly when
6 | k-1: then 1 + zeta_3 is a primitive sixth root of unity and (1, zeta_3)
is a singular point, which does make the full hyperdeterminant vanish.
"""

from __future__ import annotations

from fractions import Fraction

from .distmatrix import determinant_exact, distance_matrix
from .errors import WrongShape
from .forms import gradient_direct
from .hypermatrix import Hypermatrix
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

    Checks (1 + zeta)^(k-1) != 1 exactly for every (k-1)-th root of unity.
    In the x1 = 0 branch, D_1 p(0, x2) is homogeneous of degree k-1 in x2
    alone, so it is D_1 p(0, 1) * x2^(k-1) = k x2^(k-1), zero only at x2 = 0
    (and symmetrically for x2 = 0).  True certifies a nonzero symmetric
    hyperdeterminant (the discriminant of the form); for k >= 4 it does not
    settle the full hyperdeterminant of the tensor.  False exactly when
    6 | k-1, where two_vertex_nullvector_witness returns the singular point.
    """
    if two_vertex_nullvector_witness(k) is not None:
        return False
    t = path_tree(2)
    return gradient_direct(t, k, [0, 1]) == [k, 0] == gradient_direct(t, k, [1, 0])[::-1]


def two_vertex_nullvector_witness(k: int):
    """A nullvector (1, zeta) of the two-vertex order-k form, or None.

    This is the root-of-unity scan behind verify_k2_no_nullvector, and it is
    not vacuous: when k = 1 (mod 6) the cube root of unity survives it,
    because 1 + zeta_3 is the primitive sixth root and (1 + zeta_3)^(k-1) = 1.
    The returned pair then zeroes both partial derivatives exactly, so the
    order-k hyperdeterminant of the two-vertex tree vanishes for those k.
    """
    if k < 2:
        raise ValueError("order must be >= 2")
    m = k - 1
    one = root_of_unity(m, 0)
    for j in range(m):
        zeta = root_of_unity(m, j)
        if (one + zeta) ** m == one:
            return [one, zeta]
    return None


def det_order2(t: Tree) -> Fraction:
    """The order-2 hyperdeterminant: the distance-matrix determinant."""
    if t.n < 2:
        raise ValueError("needs n >= 2")
    return determinant_exact(distance_matrix(t))
