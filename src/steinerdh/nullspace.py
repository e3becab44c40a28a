"""Nullvector construction and exact verification for Steiner forms.

A *nullvector* of the order-k form is a nonzero point where all n partial
derivatives vanish; exhibiting one certifies that the hyperdeterminant of the
underlying hypermatrix is zero.  This module builds the three certificate
families the package ships:

* the odd-order canonical vector supported on a leaf u, its neighbor w and a
  second neighbor v of w, with values (1, -1-zeta, zeta) for
  zeta = zeta_{2k-2}, a primitive (2k-2)-th root of unity;
* the unit vector e_n for hypermatrices whose degenerate entries are all zero
  (order >= 3);
* order-3 completions: any n-2 coordinates extend to a full nullvector by
  solving one quadratic.

For order 3 the nullvariety is cut out by s = sum x_r and the distance
quadratic g, so membership reduces to two exact evaluations; the package
checks that this always agrees with gradient vanishing.

The numeric side (`numeric_search`) runs Gauss-Newton on the gradient system
over the reals with a unit-norm row appended, from seeded Philox restarts.
Points and gradient residuals stay at the working precision (128 bits by
default); each correction is a float64 minimum-norm least-squares solve
against that residual.  It reports residuals only and never claims exactness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np

from .errors import (EvenOrder, NotDegenerateZeroed, OrderTooLow, TooSmall,
                     ZeroVector)
from .forms import (distance_quadratic, gradient_direct, hessian_direct,
                    s_form, steiner_form)
from .hypermatrix import Hypermatrix, has_nonzero_degenerate
from .scalar import CFloat, CycNum, root_of_unity, unify_conductor
from .trees import Tree, format_tree


@dataclass(frozen=True)
class NullvectorReport:
    """Outcome of one exact gradient verification."""

    k: int
    point: tuple[CycNum, ...]
    gradient: tuple[CycNum, ...]
    exact_zero: bool
    embedded_residual: float
    tree: Tree | None = None

    def to_json(self) -> dict:
        return {
            "point": [x.to_json() for x in self.point],
            "exact_zero": self.exact_zero,
            "residual": self.embedded_residual,
            "tree": format_tree(self.tree) if self.tree is not None else None,
            "k": self.k,
        }


def canonical_odd_nullvector(t: Tree, k: int) -> list[CycNum]:
    """The explicit odd-order nullvector supported on a leaf/neighbor triple.

    Ties broken by lowest label: u is the lowest-labeled leaf, w its neighbor,
    v the lowest-labeled neighbor of w other than u.

    Why every partial vanishes, from the edge-cut form (see ``forms``):
    D_r p = k * sum_e (s^(k-1) - side_e(r)^(k-1)).  Here
    s = 1 + (-1 - zeta) + zeta = 0.  Any edge other than uw and wv has u, w
    and v on one side, so both its side sums are 0.  Edge uw splits the sums
    into 1 (the leaf u) and -1; edge wv into zeta (v's side) and -zeta.  As
    k-1 is even, every vertex gets D_r p = -k * (1 + zeta^(k-1)), and
    zeta^(k-1) = -1 for a primitive (2k-2)-th root of unity.
    """
    if k % 2 == 0:
        raise EvenOrder("canonical construction exists for odd order only")
    if k < 3:
        raise ValueError("order must be >= 3")
    if t.n < 3:
        raise TooSmall("needs at least three vertices")
    u = next(v for v in range(1, t.n + 1) if t.degrees[v] == 1)
    w = t.adjacency[u][0]
    v = next(x for x in t.adjacency[w] if x != u)
    m = 2 * k - 2
    zeta = root_of_unity(m)
    point = [CycNum.zero(m)] * t.n
    point[u - 1] = CycNum.one(m)
    point[v - 1] = zeta
    point[w - 1] = CycNum.from_rational(-1, m) - zeta
    return point


def verify_nullvector(t: Tree, k: int, point: Sequence) -> NullvectorReport:
    """Exact gradient check of a candidate against the order-k Steiner form."""
    coords, _ = unify_conductor(list(point))
    if all(x.is_zero() for x in coords):
        raise ZeroVector("the zero vector certifies nothing")
    gradient = gradient_direct(t, k, coords)
    return _report(k, coords, gradient, tree=t)


def verify_form_nullvector(h: Hypermatrix, point: Sequence) -> NullvectorReport:
    """Exact gradient check against the form of an explicit hypermatrix."""
    coords, _ = unify_conductor(list(point))
    if all(x.is_zero() for x in coords):
        raise ZeroVector("the zero vector certifies nothing")
    form = steiner_form(h)
    gradient = [form.partial(r).evaluate(coords) for r in range(1, h.n + 1)]
    return _report(h.k, coords, gradient, tree=None)


def _report(k: int, coords: list[CycNum], gradient: list, tree) -> NullvectorReport:
    grad = []
    for g in gradient:
        grad.append(g if isinstance(g, CycNum) else CycNum.from_rational(g, coords[0].m))
    exact = all(g.is_zero() for g in grad)
    if exact:
        residual = 0.0
    else:
        residual = max(float(g.embed().abs_value()) for g in grad)
    return NullvectorReport(k=k, point=tuple(coords), gradient=tuple(grad),
                            exact_zero=exact, embedded_residual=residual, tree=tree)


def degenerate_nullvector(h: Hypermatrix) -> list[CycNum]:
    """The unit vector e_n, a nullvector of any degenerate-zeroed hypermatrix
    of order >= 3.

    Every monomial of such a form uses k distinct variables, so every gradient
    monomial still uses at least two; a point with a single nonzero coordinate
    kills them all.  Order 2 (with n >= 2) is refused: gradient monomials are
    then single variables.
    """
    if has_nonzero_degenerate(h):
        raise NotDegenerateZeroed("hypermatrix still carries nonzero degenerate entries")
    if h.k == 2 and h.n >= 2:
        raise OrderTooLow("order-2 degenerate-zeroed matrices admit no unit nullvector")
    return [CycNum.zero(1)] * (h.n - 1) + [CycNum.one(1)]


def membership_sg(t: Tree, point: Sequence) -> bool:
    """Order-3 nullvariety membership: s and g both vanish exactly."""
    if t.n < 2:
        raise ValueError("needs at least two vertices")
    coords, _ = unify_conductor(list(point))
    if not s_form(t.n).evaluate(coords).is_zero():
        return False
    return distance_quadratic(t).evaluate(coords).is_zero()


# ---------------------------------------------------------------------------
# order-3 completion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompletionCandidate:
    """One root of the completion quadratic, with its assembled point.

    ``exact`` is True when the root lies in the working cyclotomic field; the
    point is then a CycNum vector and ``residual`` is 0.0 on success.  When the
    root escapes the field the point is numeric (CFloat) and ``residual`` is
    max(|s|, |g|) at 128-bit precision.
    """

    point: tuple
    exact: bool
    trivial: bool
    quadratic: tuple[CycNum, CycNum, CycNum]
    residual: float
    verified: bool


NUMERIC_COMPLETION_TOL = 1e-20


def completion_quadratic(t: Tree, tail: Sequence) -> tuple[CycNum, CycNum, CycNum, list[CycNum], int]:
    """Exact coefficients (A, B, C) of the quadratic satisfied by the first
    coordinate when coordinates 3..n are fixed to ``tail`` and the second is
    -a1 - sum(tail).

    Derived by substituting into g = 0:
        A = d(1,2)
        B = sum_{j>=3} (d(1,2) - d(1,j) + d(2,j)) a_j
        C = sigma * sum_{j>=3} d(2,j) a_j  -  sum_{3<=j<k} d(j,k) a_j a_k
    with sigma = sum(tail).
    """
    n = t.n
    if n < 3:
        raise TooSmall("completion needs at least three vertices")
    if len(tail) != n - 2:
        raise ValueError(f"tail must fix vertices 3..{n}: expected {n - 2} values")
    lifted, m_tail = unify_conductor(list(tail))
    m = math.lcm(4, m_tail)
    a = [x.lift(m) for x in lifted]

    sigma = CycNum.zero(m)
    for x in a:
        sigma = sigma + x
    A = CycNum.from_rational(t.distance(1, 2), m)
    B = CycNum.zero(m)
    weighted2 = CycNum.zero(m)
    for j in range(3, n + 1):
        aj = a[j - 3]
        B = B + (t.distance(1, 2) - t.distance(1, j) + t.distance(2, j)) * aj
        weighted2 = weighted2 + t.distance(2, j) * aj
    C = sigma * weighted2
    for j in range(3, n + 1):
        for kk in range(j + 1, n + 1):
            C = C - t.distance(j, kk) * (a[j - 3] * a[kk - 3])
    return A, B, C, a, m


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _field_sqrt(x: CycNum) -> CycNum | None:
    """Square root inside Q(zeta_m) when x is +/- a rational square (m divisible by 4)."""
    if x.is_zero():
        return CycNum.zero(x.m)
    if not x.is_rational():
        return None
    q = x.as_rational()
    root = _rational_sqrt(abs(q))
    if root is None:
        return None
    if q > 0:
        return CycNum.from_rational(root, x.m)
    if x.m % 4 == 0:
        return root_of_unity(x.m, x.m // 4) * root
    return None


def complete_nullvector(t: Tree, tail: Sequence) -> list[CompletionCandidate]:
    """Extend n-2 fixed coordinates to order-3 nullvectors of the tree.

    Returns one candidate per root of the completion quadratic (two when
    distinct).  Roots outside the working field Q(zeta_lcm(4, tail modulus))
    come back numeric, flagged ``exact=False``, together with the exact
    quadratic coefficients.
    """
    A, B, C, a, m = completion_quadratic(t, tail)
    disc = B * B - 4 * (A * C)

    sqrt_disc = _field_sqrt(disc)
    candidates: list[CompletionCandidate] = []
    if sqrt_disc is not None:
        inv2a = (2 * A).inverse()
        roots = [(-B + sqrt_disc) * inv2a]
        if not disc.is_zero():
            roots.append((-B - sqrt_disc) * inv2a)
        sigma = CycNum.zero(m)
        for x in a:
            sigma = sigma + x
        for a1 in roots:
            a2 = -a1 - sigma
            point = tuple([a1, a2] + list(a))
            trivial = all(x.is_zero() for x in point)
            verified = (not trivial) and membership_sg(t, point)
            candidates.append(CompletionCandidate(
                point=point, exact=True, trivial=trivial,
                quadratic=(A, B, C), residual=0.0, verified=verified))
        return candidates

    # root escapes the field: fall back to 128-bit numerics
    prec = CFloat.DEFAULT_PREC
    with mpmath.workprec(prec):
        av, bv, cv = (x.embed(prec).to_mpc() for x in (A, B, C))
        tail_num = [x.embed(prec).to_mpc() for x in a]
        sigma_num = mpmath.fsum([z.real for z in tail_num]) + 1j * mpmath.fsum(
            [z.imag for z in tail_num])
        sq = mpmath.sqrt(bv * bv - 4 * av * cv)
        s_poly = s_form(t.n)
        g_poly = distance_quadratic(t)
        for sign in (1, -1):
            a1 = (-bv + sign * sq) / (2 * av)
            a2 = -a1 - sigma_num
            coords = [a1, a2] + tail_num
            res = max(abs(s_poly.evaluate_numeric(coords, prec)),
                      abs(g_poly.evaluate_numeric(coords, prec)))
            point = tuple(CFloat.from_mpc(z, prec) for z in coords)
            candidates.append(CompletionCandidate(
                point=point, exact=False, trivial=False,
                quadratic=(A, B, C), residual=float(res),
                verified=float(res) <= NUMERIC_COMPLETION_TOL))
    return candidates


# ---------------------------------------------------------------------------
# numeric search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchCandidate:
    """One restart's best point, its residual, and why the restart stopped.

    ``iterations`` counts the Gauss-Newton steps taken.  ``stop`` is ``tol``
    (residual below ``tol``), ``precision_floor`` (below the working
    precision's floor, when that lies above ``tol``), ``stalled`` (no 10%
    gain in 8 iterations, or a step below the floor), ``singular`` (the step
    could not be solved) or ``max_iter``.
    """

    point: tuple[CFloat, ...]
    residual: float
    iterations: int
    stop: str


def numeric_search(t: Tree, k: int, seed: int, restarts: int,
                   tol: float = 1e-12, prec: int = CFloat.DEFAULT_PREC,
                   max_iter: int = 60) -> list[SearchCandidate]:
    """Gauss-Newton on the gradient system with a unit-norm constraint row.

    Each restart draws its start from an independent Philox stream keyed by
    (seed, restart index).  The iterate, the gradient residual and the
    reported point are kept at ``prec`` bits; each correction is solved in
    float64 against that residual (iterative refinement), so the residual
    still falls to the ``prec``-bit floor.  Iteration stops once the residual
    drops below ``tol`` (or the precision floor, or stalls).  Candidates come
    back sorted by residual (max gradient magnitude at the unit-norm point);
    no exactness is ever claimed.
    """
    if k < 2:
        raise ValueError("order must be >= 2")
    n = t.n
    out: list[SearchCandidate] = []
    for ridx in range(restarts):
        key = np.array([seed % (1 << 64), ridx], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        start /= np.linalg.norm(start)
        with mpmath.workprec(prec):
            x = [mpmath.mpc(z.real, z.imag) for z in start]
            best_res, best_x = mpmath.inf, x
            floor = max(mpmath.mpf(2) ** (-prec + 24), mpmath.mpf(tol))
            stalled = steps = 0
            stop = "max_iter"
            for _ in range(max_iter):
                x = _normalized(x)
                grads = gradient_direct(t, k, x)
                res = max((abs(g) for g in grads), default=mpmath.mpf(0))
                if res < best_res * mpmath.mpf("0.9"):
                    stalled = 0
                else:
                    stalled += 1
                if res < best_res:
                    best_res, best_x = res, x
                if res < floor:
                    stop = "tol" if res < tol else "precision_floor"
                    break
                if stalled >= 8:
                    stop = "stalled"
                    break
                hess = hessian_direct(t, k, np.array(x, dtype=complex))
                step = _gauss_newton_step(x, grads, hess)
                if step is None:
                    stop = "singular"
                    break
                steps += 1
                x = [xi + di for xi, di in zip(x, step)]
                if np.abs(step).max() < floor:
                    stop = "stalled"
                    break
            final = _normalized(best_x)
            final_res = max((abs(g) for g in gradient_direct(t, k, final)),
                            default=mpmath.mpf(0))
            out.append(SearchCandidate(
                point=tuple(CFloat.from_mpc(z, prec) for z in final),
                residual=float(final_res), iterations=steps, stop=stop))
    out.sort(key=lambda c: c.residual)
    return out


def _normalized(x: list) -> list:
    norm = mpmath.norm(x)
    if norm == 0:
        return x
    return [z / norm for z in x]


def _gauss_newton_step(x: list, grads: list, hess):
    """Least-squares Newton step for (gradient = 0, |x|^2 = 1) over the reals.

    The complex Jacobian H splits into [[Re H, -Im H], [Im H, Re H]] blocks by
    the Cauchy-Riemann equations; the norm constraint adds one real row.  The
    system is solved in float64 for the minimum-norm step: at a nullvector
    the phase direction i*x leaves it rank-deficient by one.
    """
    h = np.asarray(hess, dtype=complex)
    hh = np.hstack([h, 1j * h])
    xf = np.array(x, dtype=complex)
    g = np.array(grads, dtype=complex)
    A = np.vstack([hh.real, hh.imag, 2 * np.concatenate([xf.real, xf.imag])])
    defect = 1 - mpmath.fsum(x, absolute=True, squared=True)
    b = np.concatenate([-g.real, -g.imag, [float(defect)]])
    try:
        delta = np.linalg.lstsq(A, b, rcond=None)[0]
    except np.linalg.LinAlgError:
        return None
    return delta[:len(x)] + 1j * delta[len(x):]
