"""Steiner k-forms, their gradients, and exact sparse multivariate polynomials.

The Steiner k-form of a hypermatrix M is sum over all index tuples of
M[i1..ik] * x_{i1}...x_{ik}.  For the Steiner hypermatrix of a tree, a
multiset's entry counts the edges it straddles, which gives the edge-cut
closed form

    p(x) = sum_e ( s^k - a_e^k - b_e^k ),

with s = x_1 + ... + x_n and a_e, b_e the x-sums on the two sides of edge e
(``Tree.far_sums``).  Gradients take O(n) powers from it and Hessians one
n x n block update per edge, never touching the n^k expansion; that is what
makes exact high-order certificates cheap.

Polynomials are keyed by exponent vectors and store an integral coefficient
as an ``int`` and any other as a ``Fraction``, so integer forms multiply at
Python-int speed; ``coefficient`` still hands back a ``Fraction``.  The
canonical term order used for serialization and printing is graded
lexicographic.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterable, Sequence, Union

import mpmath
import numpy as np

from .errors import ConductorMismatch
from .hypermatrix import Hypermatrix, build_steiner
from .scalar import CFloat, CycNum
from .trees import Tree

Coefficient = Union[int, Fraction]


def _multinomial(total: int, counts: Iterable[int]) -> int:
    out = math.factorial(total)
    for c in counts:
        out //= math.factorial(c)
    return out


class SparsePoly:
    """Multivariate polynomial over Q with sparse exponent-vector storage."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[tuple[int, ...], Coefficient] | None = None):
        if n < 0:
            raise ValueError("variable count must be >= 0")
        clean: dict[tuple[int, ...], Coefficient] = {}
        if terms:
            for exp, coeff in terms.items():
                c = Fraction(coeff)
                if c == 0:
                    continue
                if len(exp) != n or any(e < 0 for e in exp):
                    raise ValueError(f"bad exponent vector {exp} for n={n}")
                clean[tuple(exp)] = _int_if_integral(c)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _ring(cls, n: int, terms: dict) -> "SparsePoly":
        """A ring result: well-formed keys and int/Fraction values, zeros dropped."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "n", n)
        object.__setattr__(poly, "terms", {e: c if type(c) is int else _int_if_integral(c)
                                           for e, c in terms.items() if c})
        return poly

    def __setattr__(self, *_):  # pragma: no cover - immutability guard
        raise AttributeError("SparsePoly is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "SparsePoly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, value: Coefficient) -> "SparsePoly":
        return cls(n, {(0,) * n: Fraction(value)})

    @classmethod
    def variable(cls, n: int, r: int) -> "SparsePoly":
        """x_r, with r 1-based."""
        if not (1 <= r <= n):
            raise ValueError(f"variable index {r} outside 1..{n}")
        exp = [0] * n
        exp[r - 1] = 1
        return cls(n, {tuple(exp): Fraction(1)})

    # -- ring operations -------------------------------------------------------

    def _check(self, other: "SparsePoly") -> None:
        if self.n != other.n:
            raise ValueError("polynomials live in different variable counts")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(self.n, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, 0) + c
        return SparsePoly._ring(self.n, terms)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly._ring(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(self.n, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _int_if_integral(other)
            return SparsePoly._ring(self.n, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check(other)
        terms: dict[tuple[int, ...], Coefficient] = {}
        get, add = terms.get, operator.add
        right = list(other.terms.items())
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                key = tuple(map(add, e1, e2))
                terms[key] = get(key, 0) + c1 * c2
        return SparsePoly._ring(self.n, terms)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "SparsePoly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = SparsePoly.constant(self.n, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, SparsePoly):
            return self.n == other.n and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == SparsePoly.constant(self.n, other)
        return NotImplemented

    # -- queries -----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def coefficient(self, exp: Sequence[int]) -> Fraction:
        return Fraction(self.terms.get(tuple(exp), 0))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Coefficient]]:
        """Graded lexicographic order, highest first."""
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]),
                      reverse=True)

    # -- calculus ------------------------------------------------------------------

    def partial(self, r: int) -> "SparsePoly":
        """Formal partial derivative with respect to x_r (1-based)."""
        if not (1 <= r <= self.n):
            raise ValueError(f"variable index {r} outside 1..{self.n}")
        i = r - 1
        terms: dict[tuple[int, ...], Coefficient] = {}
        for exp, c in self.terms.items():
            e = exp[i]
            if e:
                new = list(exp)
                new[i] = e - 1
                terms[tuple(new)] = c * e
        return SparsePoly._ring(self.n, terms)

    def substitute(self, r: int, value: "SparsePoly") -> "SparsePoly":
        """Replace x_r by another polynomial."""
        if not (1 <= r <= self.n):
            raise ValueError(f"variable index {r} outside 1..{self.n}")
        i = r - 1
        out = SparsePoly.zero(self.n)
        powers: dict[int, SparsePoly] = {0: SparsePoly.constant(self.n, 1)}
        for exp, c in self.terms.items():
            e = exp[i]
            if e not in powers:
                powers[e] = value ** e
            base = list(exp)
            base[i] = 0
            out = out + SparsePoly(self.n, {tuple(base): c}) * powers[e]
        return out

    # -- evaluation ------------------------------------------------------------------

    def evaluate(self, point: Sequence):
        """Exact value at a point of CycNum/Fraction/int entries.

        All CycNum entries must share one modulus (ConductorMismatch
        otherwise); rationals are coerced into that field.  A purely
        rational point gives a Fraction back.
        """
        if len(point) != self.n:
            raise ValueError(f"point length {len(point)} != {self.n} variables")
        for x in point:
            if not isinstance(x, (CycNum, int, Fraction)):
                raise TypeError(f"cannot evaluate exactly at {type(x).__name__}")
        coords, one = _coerce_point(point)
        acc = one * 0
        pows = _power_table(coords, max((max(e) for e in self.terms), default=0), one)
        for exp, c in self.terms.items():
            term = c
            for i, e in enumerate(exp):
                if e:
                    term = pows[i][e] * term
            acc = acc + term
        return acc

    def evaluate_numeric(self, point: Sequence, prec: int = CFloat.DEFAULT_PREC):
        """Value at an mpmath complex point, as mpmath.mpc."""
        if len(point) != self.n:
            raise ValueError(f"point length {len(point)} != {self.n} variables")
        with mpmath.workprec(prec):
            coords = [_to_mpc(x) for x in point]
            acc = mpmath.mpc(0)
            for exp, c in self.terms.items():
                term = mpmath.mpf(c.numerator) / c.denominator
                for i, e in enumerate(exp):
                    if e:
                        term *= coords[i] ** e
                acc += term
        return acc

    # -- serialization -------------------------------------------------------------------

    def to_json(self) -> str:
        terms = [{"exp": list(exp), "num": str(c.numerator), "den": str(c.denominator)}
                 for exp, c in self.sorted_terms()]
        return json.dumps({"n": self.n, "terms": terms})

    @classmethod
    def from_json(cls, text: str) -> "SparsePoly":
        obj = json.loads(text)
        terms = {tuple(t["exp"]): Fraction(int(t["num"]), int(t["den"]))
                 for t in obj["terms"]}
        return cls(int(obj["n"]), terms)

    def __repr__(self):
        if self.is_zero():
            return "SparsePoly(0)"
        bits = []
        for exp, c in self.sorted_terms():
            mono = "*".join(f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                            for i, e in enumerate(exp) if e)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "SparsePoly(" + " + ".join(bits) + ")"


def _int_if_integral(c: Coefficient) -> Coefficient:
    return c.numerator if c.denominator == 1 else c


def _to_mpc(x):
    return x.to_mpc() if isinstance(x, CFloat) else mpmath.mpmathify(x)


def _coerce_point(point: Sequence) -> tuple[list, object]:
    """A point's coordinates in one number type, and that type's 1.

    CycNum entries must share one modulus (ConductorMismatch otherwise) and
    pull ints and Fractions into their field; an all-rational point becomes
    Fractions; any other point becomes mpmath complex numbers.
    """
    cyc_m = None
    for x in point:
        if isinstance(x, CycNum):
            if cyc_m is None:
                cyc_m = x.m
            elif x.m != cyc_m:
                raise ConductorMismatch(f"point mixes Q(zeta_{cyc_m}) and Q(zeta_{x.m})")
    if cyc_m is not None:
        return ([x if isinstance(x, CycNum) else CycNum.from_rational(x, cyc_m)
                 for x in point], CycNum.one(cyc_m))
    if all(isinstance(x, (int, Fraction)) for x in point):
        return [Fraction(x) for x in point], Fraction(1)
    return [_to_mpc(x) for x in point], mpmath.mpc(1)


def _power_table(coords, top: int, one):
    pows = []
    for x in coords:
        row = [one, x]
        for _ in range(2, top + 1):
            row.append(row[-1] * x)
        pows.append(row)
    return pows


class NotDivisible:
    """Witness that a polynomial is not a multiple of the divisor."""

    __slots__ = ("remainder",)

    def __init__(self, remainder: SparsePoly):
        object.__setattr__(self, "remainder", remainder)

    def __setattr__(self, *_):  # pragma: no cover
        raise AttributeError("NotDivisible is immutable")

    def __repr__(self):
        return f"NotDivisible(remainder={self.remainder!r})"


def divide_by_linear(p: SparsePoly, s: SparsePoly) -> SparsePoly | NotDivisible:
    """Exact division of p by a nonzero linear form s.

    Returns q with p = s*q, or a NotDivisible carrying the nonzero remainder.
    Pivot on the highest-index variable of s: write s = a*(x_r - rho) with rho
    free of x_r, synthetic-divide p by (x_r - rho), and divide the quotient by a.
    """
    if s.is_zero() or s.total_degree() != 1 or s.coefficient((0,) * s.n) != 0:
        raise ValueError("divisor must be a nonzero homogeneous linear form")
    p._check(s)
    pivot = None
    for exp, c in s.terms.items():
        idx = exp.index(1)
        if pivot is None or idx > pivot[0]:
            pivot = (idx, c)
    r, a = pivot
    # rho = -(s - a*x_r)/a
    rest_terms = {exp: c for exp, c in s.terms.items() if exp.index(1) != r}
    rho = SparsePoly._ring(s.n, rest_terms) * Fraction(-1, a)

    # coefficients of p as a polynomial in x_r
    layers: dict[int, dict[tuple[int, ...], Coefficient]] = {}
    for exp, c in p.terms.items():
        e = exp[r]
        flat = list(exp)
        flat[r] = 0
        layers.setdefault(e, {})[tuple(flat)] = c
    if not layers:
        return SparsePoly.zero(p.n)
    top = max(layers)
    coeffs = [SparsePoly._ring(p.n, layers.get(j, {})) for j in range(top + 1)]

    # synthetic division by (x_r - rho): b_{j} = c_{j+1} + rho*b_{j+1}
    quot_layers: list[SparsePoly] = [SparsePoly.zero(p.n)] * max(top, 1)
    carry = SparsePoly.zero(p.n)
    for j in range(top, 0, -1):
        carry = coeffs[j] + rho * carry
        quot_layers[j - 1] = carry
    remainder = coeffs[0] + rho * carry
    if not remainder.is_zero():
        return NotDivisible(remainder)

    xr = SparsePoly.variable(p.n, r + 1)
    quotient = SparsePoly.zero(p.n)
    power = SparsePoly.constant(p.n, 1)
    for layer in quot_layers:
        quotient = quotient + layer * power
        power = power * xr
    return quotient * Fraction(1, a)


# ---------------------------------------------------------------------------
# Steiner forms
# ---------------------------------------------------------------------------

def steiner_form(h: Hypermatrix) -> SparsePoly:
    """The k-form whose coefficients collect the hypermatrix over all index tuples."""
    n, k = h.n, h.k
    terms: dict[tuple[int, ...], Fraction] = {}
    for combo in combinations_with_replacement(range(n), k):
        value = int(h.entries[combo])
        if value:
            counts = Counter(combo)
            exp = [0] * n
            for v, c in counts.items():
                exp[v] = c
            weight = _multinomial(k, counts.values())
            key = tuple(exp)
            terms[key] = terms.get(key, 0) + value * weight
    return SparsePoly(n, terms)


def s_form(n: int) -> SparsePoly:
    """The all-ones linear form x_1 + ... + x_n."""
    return SparsePoly(n, {tuple(1 if i == j else 0 for i in range(n)): 1
                          for j in range(n)})


def distance_quadratic(t: Tree) -> SparsePoly:
    """g = 3 * sum_{i<j} d_T(i,j) x_i x_j, the cofactor of s in the order-3 form."""
    n = t.n
    terms: dict[tuple[int, ...], Fraction] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            d = t.distance(i, j)
            if d:
                exp = [0] * n
                exp[i - 1] = 1
                exp[j - 1] = 1
                terms[tuple(exp)] = 3 * d
    return SparsePoly(n, terms)


# ---------------------------------------------------------------------------
# direct gradient / Hessian from the edge cuts
# ---------------------------------------------------------------------------

def gradient_direct(t: Tree, k: int, point: Sequence) -> list:
    """All n partial derivatives of the order-k Steiner form at a point.

    D_r p = k * sum_e (s^(k-1) - side_e(r)^(k-1)), where side_e(r) is the
    x-sum on r's side of edge e.  Vertex 1 sees the near side s - a_c of every
    edge (c, parent c), a_c being the far-side sum; stepping from a parent to
    its child c changes only edge c's term, so
    D_c = D_parent - k * (a_c^(k-1) - (s - a_c)^(k-1)).

    Accepts CycNum (one shared modulus), Fraction/int, or mpmath complex
    coordinates; the return list matches the coordinate type.
    """
    n = t.n
    if len(point) != n:
        raise ValueError(f"point length {len(point)} != {n} vertices")
    if k < 2:
        raise ValueError("order must be >= 2")
    coords, _ = _coerce_point(point)
    s = sum(coords)
    far = t.far_sums(coords)
    far_pow = [a ** (k - 1) for a in far]
    near_pow = [(s - a) ** (k - 1) for a in far]
    grad = [None] * (n + 1)
    grad[1] = k * ((n - 1) * s ** (k - 1) - sum(near_pow))
    for c, f, b in zip(t.order[1:], far_pow, near_pow):
        grad[c] = grad[t.parent[c]] - k * (f - b)
    return grad[1:]


def hessian_direct(t: Tree, k: int, point: Sequence):
    """Second partials of the order-k Steiner form at a numeric point.

    D_q D_r p = k(k-1) * sum_e (s^(k-2) - [q, r on one side of e] * side^(k-2)),
    side being the x-sum on the side of e that holds both q and r.

    The number type follows the point: a complex128 numpy array gives a
    complex128 n x n array, any other numeric point n lists of mpmath
    complex numbers at the working precision.
    """
    n = t.n
    if len(point) != n:
        raise ValueError(f"point length {len(point)} != {n} vertices")
    if k < 2:
        raise ValueError("order must be >= 2")
    native = isinstance(point, np.ndarray) and point.dtype == np.complex128
    coords = list(point) if native else [_to_mpc(x) for x in point]
    s = sum(coords)
    acc = np.full((n, n), (n - 1) * s ** (k - 2), dtype=complex if native else object)
    for a, far in zip(t.far_sums(coords), t.far_sums(np.eye(n, dtype=bool))):
        for side, total in ((far, a), (~far, s - a)):
            acc[np.ix_(side, side)] -= total ** (k - 2)
    acc *= k * (k - 1)
    return acc if native else acc.tolist()


# ---------------------------------------------------------------------------
# order-3 identity suite
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def order3_form(t: Tree) -> SparsePoly:
    """The order-3 Steiner form, via the hypermatrix; one identity suite reuses it."""
    return steiner_form(build_steiner(t, 3))


def verify_product_decomposition(t: Tree) -> bool:
    """Order-3 form equals s * g exactly."""
    if t.n < 2:
        raise ValueError("needs at least two vertices")
    return order3_form(t) == s_form(t.n) * distance_quadratic(t)


def verify_euler_identity(t: Tree) -> bool:
    """sum_r x_r * D_r p = 3 * s * g for the order-3 form."""
    if t.n < 2:
        raise ValueError("needs at least two vertices")
    n = t.n
    p = order3_form(t)
    total = SparsePoly.zero(n)
    for r in range(1, n + 1):
        total = total + SparsePoly.variable(n, r) * p.partial(r)
    return total == 3 * s_form(n) * distance_quadratic(t)


def s3_cofactors(t: Tree) -> list[SparsePoly]:
    """Cofactors f_r with s^3 = sum_r f_r * D_r p for the order-3 form.

    f_r = ((2 - deg_r) * s - (2/3) x_r) / (3(n-1)).  The leading 1/3 is
    forced: sum_r c_r * D_r g = 3s (not s) for c_r = (2 - deg_r)/(n-1),
    since D_r g carries the factor 3 of g.  See tests for the exact
    3-s^3 pin of the unscaled variant.  9(n-1) * f_r = 3(2 - deg_r) s - 2 x_r
    is integral; ``verify_s3_decomposition`` checks the identity in that form.
    """
    n = t.n
    if n < 2:
        raise ValueError("needs at least two vertices")
    s = s_form(n)
    out = []
    for r in range(1, n + 1):
        d_r = t.degrees[r]
        f = (s * Fraction(2 - d_r) - SparsePoly.variable(n, r) * Fraction(2, 3)) \
            * Fraction(1, 3 * (n - 1))
        out.append(f)
    return out


def verify_s3_decomposition(t: Tree) -> bool:
    """s^3 lies in the gradient ideal, with the explicit degree-based cofactors.

    Checks s^3 = sum_r f_r * D_r p (``s3_cofactors``) with the denominators
    cleared, all in integers: sum_r (3(2 - deg_r) s - 2 x_r) * D_r p = 9(n-1) s^3.
    """
    n = t.n
    if n < 2:
        raise ValueError("needs at least two vertices")
    p = order3_form(t)
    scale = 9 * (n - 1)
    total = SparsePoly.zero(n)
    for r, f in enumerate(s3_cofactors(t), start=1):
        total = total + (f * scale) * p.partial(r)
    return total == s_form(n) ** 3 * scale


def verify_not_divisible(t: Tree) -> bool:
    """No partial derivative of the order-3 form is a multiple of s."""
    if t.n < 2:
        raise ValueError("needs at least two vertices")
    p = order3_form(t)
    s = s_form(t.n)
    for r in range(1, t.n + 1):
        if not isinstance(divide_by_linear(p.partial(r), s), NotDivisible):
            return False
    return True
