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
  solving one quadratic, certified exactly whether or not its roots are
  written down.

Certificates are checked exactly with no polynomial arithmetic:
``verify_nullvector`` reads a tree's gradient off its edge cuts, and
``verify_form_nullvector`` contracts any hypermatrix with the point.

For order 3 the nullvariety is cut out by s = sum x_r and the distance
quadratic g = 3 sum_e a_e (s - a_e), a_e the far-side sums (``Tree.far_sums``).
On s = 0, g = -3 sum_e a_e^2, so membership and the completion quadratic
take O(n) field products; the tests check both against the expanded g.

The numeric side (`numeric_search`) runs Gauss-Newton on the gradient system,
one complex least-squares problem with a gauge row per step, solved by one LU
of its normal equations, from seeded Philox restarts: complex128 steps, each
from one Hessian H (a single product with the tree's stacked cut array
[S; 1 - S]) and the gradient H x / (k-1), in one (n+1) x n system per phase.
It reports Gaussian integers over 2^WORKING_PREC, refined in integers where
float64 runs out of digits (int pairs (Re, Im), the exact gradient one
``gradient_direct`` call on ints at i = 2^L), each with a proven upper bound
on its residual (CycNum JSON and a float), and never claims a nullvector.

An even-order floor shows only that its restarts did not converge.  Order 6
is singular at n = 351, where the edge-cut identity gives an exact point
(y_0 = 1 and y_e = 1/(1 + w_e) in cut coordinates, w_e = 1, zeta_5 and
zeta_5^2 on 288, 31 and 31 edges), and not at n = 350 or 352; yet the best
residual of ``numeric_search(t, 6, seed=1, restarts=6)`` reads the same:

    n     singular   random_tree(n, 1)   path_tree(n)   star_tree(n)
    350   no         3.4e-4              1.1e-3         4.9e-7
    351   yes        7.4e-4              7.5e-4         2.1e-7
    352   no         7.4e-4              9.8e-4         6.4e-8

Started a relative 1e-6 from the n = 351 point, the float64 phase reaches
``tol`` in 1-2 steps on all three trees, so the basin is narrow rather than
missing.  Exact answers at even k come from a witness or the resultant's
verdict, not from floors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import EvenOrder, NotDegenerateZeroed, OrderTooLow, TooSmall, ZeroVector
from .forms import gradient_direct, hessian_direct
from .hypermatrix import Hypermatrix, check_entry_budget, has_nonzero_degenerate
from .scalar import WORKING_PREC, CycNum, root_of_unity, unify_conductor
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
        """The report as JSON values.  Each coordinate object is converted once,
        so equal coordinates held as one object share one read-only dict."""
        dicts = {id(x): x.to_json() for x in _distinct(self.point)}
        return {
            "point": [dicts[id(x)] for x in self.point],
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

    The four values are built once per order and shared, which is safe as
    CycNum is immutable; each call returns a fresh list.
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
    zero, one, zeta, rest = _canonical_values(2 * k - 2)
    point = [zero] * t.n
    point[u - 1], point[v - 1], point[w - 1] = one, zeta, rest
    return point


@lru_cache(maxsize=None)
def _canonical_values(m: int) -> tuple[CycNum, CycNum, CycNum, CycNum]:
    """0, 1, zeta and -1 - zeta in Q(zeta_m)."""
    zeta = root_of_unity(m)
    return CycNum.zero(m), CycNum.one(m), zeta, CycNum.from_rational(-1, m) - zeta


def verify_nullvector(t: Tree, k: int, point: Sequence) -> NullvectorReport:
    """Exact gradient check of a candidate against the order-k Steiner form."""
    coords, _ = unify_conductor(list(point))
    if len(coords) != t.n:
        raise ValueError(f"point length {len(coords)} != {t.n} vertices")
    if not any(_distinct(coords)):
        raise ZeroVector("the zero vector certifies nothing")
    gradient = gradient_direct(t, k, coords)
    return _report(k, coords, gradient, tree=t)


def verify_form_nullvector(h: Hypermatrix, point: Sequence) -> NullvectorReport:
    """Exact gradient check against the form of an explicit hypermatrix, which
    sums h over every index tuple: D_r p is the sum over the axes a of h
    contracted with the point's nonzero coordinates on every axis but a, read
    at r, so no symmetry of h is assumed."""
    coords, _ = unify_conductor(list(point))
    if len(coords) != h.n:
        raise ValueError(f"point length {len(coords)} != {h.n} variables")
    support = [i for i, x in enumerate(coords) if not x.is_zero()]
    if not support:
        raise ZeroVector("the zero vector certifies nothing")
    xs = np.array([coords[i] for i in support], dtype=object)
    gradient = 0
    for a in range(h.k):
        axes = [support] * h.k
        axes[a] = range(h.n)
        part = np.moveaxis(h.entries[np.ix_(*axes)], a, 0).astype(object)
        for _ in range(h.k - 1):
            part = part @ xs
        gradient = gradient + part
    return _report(h.k, coords, gradient.tolist(), tree=None)


def _distinct(values: Sequence) -> list:
    """The distinct objects among ``values``, by identity, in first-seen order."""
    return list({id(x): x for x in values}.values())


def _report(k: int, coords: list[CycNum], gradient: list[CycNum], tree) -> NullvectorReport:
    distinct = _distinct(gradient)
    exact = not any(distinct)
    residual = 0.0 if exact else max(map(_embedded_abs, distinct))
    return NullvectorReport(k=k, point=tuple(coords), gradient=tuple(gradient),
                            exact_zero=exact, embedded_residual=residual, tree=tree)


def _embedded_abs(x: CycNum) -> float:
    """|x| under zeta_m -> exp(2 pi i / m), summed in complex128; inf when a
    coefficient or the sum overflows a float."""
    try:
        z = sum(cmath.rect(float(c), math.tau * j / x.m) for j, c in enumerate(x.coeffs) if c)
    except OverflowError:
        return math.inf
    return abs(z) if cmath.isfinite(z) else math.inf


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
    """Order-3 nullvariety membership: s = 0, then g = -3 sum_e a_e^2 = 0."""
    if t.n < 2:
        raise ValueError("needs at least two vertices")
    coords, m = unify_conductor(list(point))
    if len(coords) != t.n:
        raise ValueError(f"point length {len(coords)} != {t.n} vertices")
    zero = CycNum.zero(m)
    if not sum(coords, zero).is_zero():
        return False
    return sum((a * a for a in t.far_sums(coords)), zero).is_zero()


# ---------------------------------------------------------------------------
# order-3 completion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompletionCandidate:
    """One completion of a tail, with the exact quadratic (A, B, C) it solves.

    When the discriminant is +/- a rational square, ``point`` is the CycNum
    vector at one root and ``verified`` its exact membership check.  Any
    other discriminant, even one whose root lies in the field, gives
    ``point=None``, and ``verified`` is the exact check that both roots, in
    whatever field they lie, complete the tail to nullvectors.
    """

    point: tuple[CycNum, ...] | None
    trivial: bool
    quadratic: tuple[CycNum, CycNum, CycNum]
    verified: bool


def completion_quadratic(t: Tree, tail: Sequence) -> tuple[CycNum, CycNum, CycNum, list[CycNum], int]:
    """Exact coefficients (A, B, C) of the quadratic satisfied by the first
    coordinate when coordinates 3..n are fixed to ``tail`` and the second is
    -a1 - sum(tail).

    The point (a1, -a1 - sigma, tail), sigma = sum(tail), has s = 0, so
    g = -3 sum_e a_e^2 over its far-side sums a_e = alpha_e + a1 beta_e,
    alpha the far sums of (0, -sigma, tail) and beta those of
    (1, -1, 0, ..., 0).  Hence -g/3 = A a1^2 + B a1 + C with
        A = sum_e beta_e^2 = d(1,2),  B = 2 sum_e alpha_e beta_e,
        C = sum_e alpha_e^2,
    O(n) field products.  Also returns the tail lifted to Q(zeta_m), and m.
    """
    n = t.n
    if n < 3:
        raise TooSmall("completion needs at least three vertices")
    if len(tail) != n - 2:
        raise ValueError(f"tail must fix vertices 3..{n}: expected {n - 2} values")
    lifted, m_tail = unify_conductor(list(tail))
    m = math.lcm(4, m_tail)
    a = [x.lift(m) for x in lifted]
    zero = CycNum.zero(m)
    sigma = sum(a, zero)
    alpha = t.far_sums([zero, -sigma, *a])
    beta = t.far_sums([1, -1] + [0] * (n - 2))
    A = CycNum.from_rational(sum(b * b for b in beta), m)
    B = 2 * sum((b * x for b, x in zip(beta, alpha) if b), zero)
    C = sum((x * x for x in alpha), zero)
    return A, B, C, a, m


def _field_sqrt(x: CycNum) -> CycNum | None:
    """Square root inside Q(zeta_m) when x is +/- a rational square (m divisible by 4)."""
    if x.is_zero():
        return CycNum.zero(x.m)
    if not x.is_rational():
        return None
    q = x.as_rational()
    root = Fraction(math.isqrt(abs(q.numerator)), math.isqrt(q.denominator))
    if root * root != abs(q):
        return None
    return CycNum.from_rational(root, x.m) if q > 0 else root_of_unity(x.m, x.m // 4) * root


def complete_nullvector(t: Tree, tail: Sequence) -> list[CompletionCandidate]:
    """Extend n-2 fixed coordinates to order-3 nullvectors of the tree.

    When the discriminant is +/- a rational square, returns one candidate per
    root of the completion quadratic (two when distinct), a point in
    Q(zeta_lcm(4, tail modulus)).  Otherwise returns one candidate with no
    point: its certificate is the quadratic, exactly checked by
    ``_completes_every_root``; the tail is then nonzero, so both completed
    points are.
    """
    A, B, C, a, m = completion_quadratic(t, tail)
    sigma = sum(a, CycNum.zero(m))
    disc = B * B - 4 * (A * C)

    sqrt_disc = _field_sqrt(disc)
    if sqrt_disc is None:
        return [CompletionCandidate(point=None, trivial=False, quadratic=(A, B, C),
                                    verified=_completes_every_root(t, (A, B, C), sigma, a))]
    inv2a = (2 * A).inverse()
    roots = [(-B + sqrt_disc) * inv2a]
    if not disc.is_zero():
        roots.append((-B - sqrt_disc) * inv2a)
    candidates = []
    for a1 in roots:
        point = tuple([a1, -a1 - sigma] + list(a))
        trivial = all(x.is_zero() for x in point)
        candidates.append(CompletionCandidate(
            point=point, trivial=trivial, quadratic=(A, B, C),
            verified=(not trivial) and membership_sg(t, point)))
    return candidates


def _completes_every_root(t: Tree, quadratic: tuple[CycNum, CycNum, CycNum],
                          sigma: CycNum, tail: list[CycNum]) -> bool:
    """Exact check that every coordinate of grad p(z, -z - sigma, tail) is
    -3 (A z^2 + B z + C) as a polynomial in z, p the order-3 Steiner form.

    It holds because s = 0 along that line, where D_r p = g = -3 sum_e a_e^2
    for every r.  Both sides have degree <= 2 in z, so agreement at z = 0, 1
    and -1 (``gradient_direct``, as in ``verify_nullvector``) proves it, and
    then each root z of the quadratic makes the point a nullvector.
    """
    A, B, C = quadratic
    for z in (0, 1, -1):
        x1 = CycNum.from_rational(z, sigma.m)
        want = -3 * (A * (z * z) + B * z + C)
        if any(d != want for d in gradient_direct(t, 3, [x1, -x1 - sigma, *tail])):
            return False
    return True


# ---------------------------------------------------------------------------
# numeric search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchCandidate:
    """One restart's best point, its residual, and why the restart stopped.

    ``point`` is Gaussian integers over 2^WORKING_PREC in Q(zeta_4), of norm 1
    up to that rounding, and ``residual`` a proven upper bound on
    max_r |D_r p(x)| / |x|^(k-1) there.  ``iterations`` counts the steps of
    both phases.  ``stop`` is ``tol`` (residual below ``tol``), ``precision_floor``
    (below the working precision's floor, when that lies above ``tol``), ``stalled``
    (8 passes in a row, none with a residual below 0.9 x the best before it, or a
    step below the floor), ``singular`` (LU and ``lstsq`` both failed) or ``max_iter``.
    """

    point: tuple[CycNum, ...]
    residual: float
    iterations: int
    stop: str


MAX_STEPS = 60


def numeric_search(t: Tree, k: int, seed: int, restarts: int,
                   tol: float = 1e-12) -> list[SearchCandidate]:
    """Gauss-Newton on the gradient system with a gauge row 2 x^H d = 0.

    Each restart starts from an independent Philox stream keyed by (seed,
    restart index) and iterates on a complex128 point with floor
    max(2^-40, tol), for at most ``MAX_STEPS`` steps in all; each pass there
    takes one Hessian H and the gradient H x / (k-1).  Its best point x is
    rounded to Gaussian integers X = round(x 2^P), P = ``WORKING_PREC``, as
    int pairs, and reported as X / 2^P with an exact residual bound (from
    ``_gaussian_gradient``, in ints).  A restart whose float64 loop reached
    its floor goes on in integers (floor max(2^(24 - P), tol), the steps left
    of ``MAX_STEPS``, complex128 steps rounded into X), so a float64 ``tol``
    stop stands only if the exact bound is below ``tol`` too.
    Candidates come back sorted by residual; no exactness is ever claimed.
    Floors compare only within one order: even-order floors fall as k grows
    (about 1e-1 at k = 4, 8e-9 at k = 16 and 2e-12 at k = 24 and 32 on a
    5-vertex tree; at k = 40 they reach the default ``tol`` as odd ones do).
    And a floor shows only that these restarts did not converge: at k = 6,
    n = 351 is singular and 350 and 352 are not, yet with seed 1 and 6
    restarts every restart stalls, at best

        n = 350, 351, 352:  random_tree(n, 1)  3.4e-4, 7.4e-4, 7.4e-4
                            path_tree(n)       1.1e-3, 7.5e-4, 9.8e-4
                            star_tree(n)       4.9e-7, 2.1e-7, 6.4e-8

    (the module docstring has the witness at n = 351, from which ``tol`` is
    reached in 1-2 steps).
    BudgetExceeded, before S is built, when n^2 exceeds ``entry_budget()``.
    """
    if k < 2:
        raise ValueError("order must be >= 2")
    n = t.n
    check_entry_budget(n, 2, "side-matrix entries")
    out: list[SearchCandidate] = []
    for ridx in range(restarts):
        key = np.array([seed % (1 << 64), ridx], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        start /= np.linalg.norm(start)
        x, _, steps, stop = _descend(t, k, start, max(2.0 ** -40, tol), tol, MAX_STEPS)
        refine = stop in ("tol", "precision_floor", "step_floor")
        x, res, more, last = _descend(t, k, [_gaussian(z, WORKING_PREC) for z in x.tolist()],
                                      max(2.0 ** (24 - WORKING_PREC), tol), tol,
                                      MAX_STEPS - steps if refine else 0)
        stop, scale = (last if refine else stop), 1 << WORKING_PREC
        point = tuple(CycNum._ring(4, [Fraction(a, scale), Fraction(b, scale)]) for a, b in x)
        out.append(SearchCandidate(point=point, residual=res, iterations=steps + more,
                                   stop="stalled" if stop == "step_floor" else stop))
    out.sort(key=lambda c: c.residual)
    return out


def _descend(t: Tree, k: int, x, floor: float, tol: float, budget: int):
    """Gauss-Newton from ``x``: complex128, or int pairs (a, b) for X / 2^P,
    X = a + b i, P = ``WORKING_PREC``.  Each pass normalizes x and takes the
    gradient: g = H x / (k-1) off the one Hessian H in complex128, exact
    (``_gaussian_gradient``) at X rescaled to norm 2^P in integers, with
    residual max |g| / |X|^(k-1) rounded up.  It stops on a residual below
    ``floor``, a last step below ``floor`` (``step_floor``), 8 passes in a row
    none below 0.9 x the best residual before it (``stalled``) or ``budget``
    steps; else it takes a complex128 step (on X / 2^P and g / 2^(P(k-1)), H in
    A[:n] of one system A, b per call; ``singular`` if none), rounded into X.
    Returns the best point, its residual, the steps and the stop reason."""
    float64, prec, n = isinstance(x, np.ndarray), WORKING_PREC, t.n
    A, b = np.empty((n + 1, n), dtype=np.complex128), np.empty(n + 1, dtype=np.complex128)
    best_res, best_x = math.inf, x
    stalled = steps = 0
    tiny = False
    while True:
        if float64:
            x = xf = x / np.sqrt(np.vdot(x, x).real)
            hess = hessian_direct(t, k, x, out=A[:n])
            grads = hess @ x / (k - 1)
            res = np.abs(grads).max()
        else:
            root = math.isqrt(sum(map(_modulus2, x)))
            x = [((re << prec) // root, (im << prec) // root) for re, im in x]
            grads = _gaussian_gradient(t, k, x)
            res = _sqrt_up(max(map(_modulus2, grads)), sum(map(_modulus2, x)) ** (k - 1))
        stalled = 0 if res < best_res * 0.9 else stalled + 1
        if res < best_res:
            best_res, best_x = res, x
        if res < floor:
            return best_x, best_res, steps, "tol" if res < tol else "precision_floor"
        if tiny:
            return best_x, best_res, steps, "step_floor"
        if stalled >= 8:
            return best_x, best_res, steps, "stalled"
        if steps == budget:
            return best_x, best_res, steps, "max_iter"
        if not float64:
            xf, grads = _complex(x, prec), _complex(grads, prec * (k - 1))
            hessian_direct(t, k, xf, out=A[:n])
        step = _gauss_newton_step(xf, grads, A, b)
        if step is None:
            return best_x, best_res, steps, "singular"
        steps += 1
        x = x + step if float64 else [(re + c, im + d) for (re, im), (c, d)
                                      in zip(x, (_gaussian(z, prec) for z in step.tolist()))]
        tiny = np.abs(step).max() < floor


def _gaussian_gradient(t: Tree, k: int, x: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The exact gradient at the Gaussian integers X_r = a_r + b_r i, as pairs
    (Re, Im), from one ``gradient_direct`` call on the ints a + b 2^L.

    i -> 2^L is a ring homomorphism Z[i] -> Z/M, M = 4^L + 1, and the
    gradient has integer coefficients, so each v_r maps to D_r p(X).  With B
    the largest bit length of any a or b, |X_r| < 2^(B+1), every side sum is
    below n 2^(B+1), and D_r p = k sum_e (s^(k-1) - side_e(r)^(k-1)) over
    n - 1 edges has |D_r p| < 2k(n-1) (n 2^(B+1))^(k-1) <= 2^(L-1) for
    L = bitlen(2k(n-1)) + (k-1)(B + 1 + bitlen(n)) + 1 (``shift``).  So
    Re + Im 2^L, in (-M/2, M/2), is v_r's balanced residue r, and r + 2^(L-1)
    is Im 2^L + (Re + 2^(L-1)) with 0 < Re + 2^(L-1) < 2^L.  The ints carry
    about (k-1)(L + B) bits: this beats CycNum arithmetic up to about k = 9.
    """
    n = t.n
    bits = max(map(int.bit_length, chain.from_iterable(x)))
    shift = (2 * k * (n - 1)).bit_length() + (k - 1) * (bits + 1 + n.bit_length()) + 1
    modulus, centre, half = (1 << 2 * shift) + 1, 1 << (2 * shift - 1), 1 << (shift - 1)
    codes = [(v + centre) % modulus - centre + half
             for v in gradient_direct(t, k, [a + (b << shift) for a, b in x])]
    return [((c & ((1 << shift) - 1)) - half, c >> shift) for c in codes]


def _gaussian(z: complex, prec: int) -> tuple[int, int]:
    """round(z 2^prec), a Gaussian integer as the pair (Re, Im)."""
    return round(math.ldexp(z.real, prec)), round(math.ldexp(z.imag, prec))


def _complex(values: list[tuple[int, int]], prec: int) -> np.ndarray:
    """Gaussian integers (a, b) over 2^prec in complex128, by big-int true division."""
    scale = 1 << prec
    return np.array([complex(a / scale, b / scale) for a, b in values])


def _modulus2(z: tuple[int, int]) -> int:
    return z[0] * z[0] + z[1] * z[1]   # |a + b i|^2 for z = (a, b)


def _sqrt_up(top: int, base: int) -> float:
    """A float r >= sqrt(top / base) within 2^-51 relative (a normal root), for
    ints top >= 0, base > 0: R = isqrt(q) + 1 > sqrt(top 4^e / base) for the
    ~120-bit q = floor(top 4^e / base), and r the float after R / 2^e rounded."""
    if not top:
        return 0.0
    e = (120 - top.bit_length() + base.bit_length()) // 2
    q = (top << 2 * e) // base if e >= 0 else top // (base << -2 * e)
    return math.nextafter(math.ldexp(math.isqrt(q) + 1, -e), math.inf)


def _gauss_newton_step(x: np.ndarray, grads: np.ndarray, A: np.ndarray, b: np.ndarray):
    """Least-squares Newton step for gradient = 0 on the unit sphere: the
    complex128 d minimizing |H d + g|^2 + |2 x^H d|^2, for a unit x and H in
    A[:n]; writes -g into b[:n], the gauge row 2 x^H into A[n] and 0 into b[n].

    The gauge row 2 x^H d has real part 2 Re(x^H d), the linearized norm
    constraint, and imaginary part 2 Im(x^H d), which forbids a step along
    the phase direction i*x that cannot change |grad p|.  This is the step
    of the real (2n+1) x 2n split [[Re H, -Im H], [Im H, Re H]] plus the
    norm row against 1 - |x|^2 = 0: the gauge adds 4 (Im x^H d)^2 to that
    objective, and its minimizer already has Im x^H d = 0.  By Euler
    H x = (k-1) g, so its normal equations give d + x/(k-1) = mu (H^H H)^-1 x
    with mu real, and x^H (H^H H)^-1 x is real; at a nullvector its
    minimum-norm step is orthogonal to the kernel direction i*x.
    It solves A^H A d = A^H b by LU.  Squaring A's condition number is harmless
    here: float64 only has to reach 2^-40, and the integer phase corrects each
    step against exact gradients.  A singular A^H A falls back to ``lstsq``,
    whose failure gives None.
    """
    n = len(x)
    b[:n] = -grads
    A[n], b[n] = 2 * x.conj(), 0
    ah = A.conj().T
    try:
        return np.linalg.solve(ah @ A, ah @ b)
    except np.linalg.LinAlgError:
        try:
            return np.linalg.lstsq(A, b, rcond=None)[0]
        except np.linalg.LinAlgError:
            return None
