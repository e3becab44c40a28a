"""Steiner k-forms, their gradients, and exact sparse multivariate polynomials.

The Steiner k-form of a hypermatrix M is sum over all index tuples of
M[i1..ik] * x_{i1}...x_{ik}; ``steiner_form`` sums exactly that, with no
symmetry assumed, so it is the form of any hypermatrix.  For the Steiner
hypermatrix of a tree, a multiset's entry counts the edges it straddles,
which gives the edge-cut closed form

    p(x) = sum_e ( s^k - a_e^k - b_e^k ),

with s = x_1 + ... + x_n and a_e, b_e the x-sums on the two sides of edge e
(``Tree.far_sums``).  Gradients take two powers per nonzero far sum from it,
in the point's own number type, and Hessians one product with the stacked
[S; 1 - S] (``Tree.cuts``); neither touches the n^k expansion, which is
what makes exact high-order certificates cheap.  At k = 3, s^3 - a^3 - b^3 =
3abs, so p = s*g with g = 3 sum_e a_e b_e.

The order-3 identity suite checks that factorisation and its consequences
as int64 tensor equations on P = ``order3_tensor(t)`` (6x the tree's own
hypermatrix H, not re-symmetrized, so the rows check H's symmetry too), on
D read off its diagonal (P[i, j, j] = 6 d(i, j)) and on the degrees, with
no polynomial arithmetic: divisibility by s is vanishing on s = 0.  At
n = 6..16 the suite's time is numpy's per-call overhead, so one restriction
to s = 0 serves both divisibility rows (``_divisibility``).  No check in
the package runs on polynomials.  ``SparsePoly`` and ``steiner_form`` stay
as the polynomial of any hypermatrix, and because the benchmark's tracer binds
``SparsePoly.__mul__``/``__rmul__``; division by a linear form, s, g and
the s^3 cofactors are test oracles (``tests/oracles.py``).

Polynomials key each monomial by its exponent tuple, with no cap on an
exponent.  A polynomial reads its coefficients with ``scalar._rational`` and
stores an integral one as an ``int`` and any other as a ``Fraction``, so
integer forms multiply at Python-int speed; ``coefficient`` still hands back
a ``Fraction``, and ``terms`` hands back a fresh dict.  The canonical term
order used for serialization and printing is graded lexicographic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from operator import index
from typing import Sequence, Union

import numpy as np

from .errors import MalformedInput
from .hypermatrix import Hypermatrix, build_steiner
from .scalar import _fraction_from_json, _int_if_integral, _json_int, _rational
from .trees import Tree

Coefficient = Union[int, Fraction]


class SparsePoly:
    """Multivariate polynomial over Q, stored sparsely by exponent tuple."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: dict[tuple[int, ...], Coefficient] | None = None):
        if n < 0:
            raise ValueError("variable count must be >= 0")
        clean: dict[tuple[int, ...], Coefficient] = {}
        for exp, coeff in (terms or {}).items():
            c = _rational(coeff)
            if c == 0:
                continue
            if len(exp) != n or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp} for n={n}")
            if bool in map(type, exp):   # index() would read True as 1
                raise TypeError(f"exponent vector {exp} holds a bool")
            clean[tuple(map(index, exp))] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _ring(cls, n: int, terms: dict[tuple[int, ...], Coefficient]) -> "SparsePoly":
        """A ring result from a dict the caller gives up, zeros dropped; one
        of nonzero ints, the common case, is checked at C speed and kept."""
        if not {*map(type, terms.values())} <= {int} or 0 in terms.values():
            terms = {e: c if type(c) is int else _int_if_integral(c)
                     for e, c in terms.items() if c}
        poly = object.__new__(cls)
        object.__setattr__(poly, "n", n)
        object.__setattr__(poly, "_terms", terms)
        return poly

    def __setattr__(self, *_):  # pragma: no cover - immutability guard
        raise AttributeError("SparsePoly is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "SparsePoly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, value: Coefficient) -> "SparsePoly":
        return cls(n, {(0,) * n: value})

    @classmethod
    def variable(cls, n: int, r: int) -> "SparsePoly":
        """x_r, with r 1-based."""
        if not (1 <= r <= n):
            raise ValueError(f"variable index {r} outside 1..{n}")
        return cls._ring(n, {tuple(int(i == r) for i in range(1, n + 1)): 1})

    @property
    def terms(self) -> dict[tuple[int, ...], Coefficient]:
        """The terms keyed by exponent tuples, as a fresh dict."""
        return dict(self._terms)

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
        terms = dict(self._terms)
        get = terms.get
        for key, c in other._terms.items():
            terms[key] = get(key, 0) + c
        return SparsePoly._ring(self.n, terms)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly._ring(self.n, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, SparsePoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _int_if_integral(other)
            return SparsePoly._ring(self.n, {e: c * other for e, c in self._terms.items()})
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check(other)
        terms: dict[tuple[int, ...], Coefficient] = {}
        get = terms.get
        right = list(other._terms.items())
        for e1, c1 in self._terms.items():
            # e1's few nonzero exponents, added into a copy of each e2
            bumps = [(i, e) for i, e in enumerate(e1) if e]
            for e2, c2 in right:
                key = list(e2)
                for i, e in bumps:
                    key[i] += e
                key = tuple(key)
                terms[key] = get(key, 0) + c1 * c2
        return SparsePoly._ring(self.n, terms)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "SparsePoly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result, base = SparsePoly.constant(self.n, 1), self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, SparsePoly):
            return self.n == other.n and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == SparsePoly.constant(self.n, other)
        return NotImplemented

    # -- queries -----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        return max(map(sum, self._terms), default=0)

    def coefficient(self, exp: Sequence[int]) -> Fraction:
        return Fraction(self._terms.get(tuple(exp), 0))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Coefficient]]:
        """Graded lexicographic order, highest first."""
        return sorted(self._terms.items(), key=lambda item: (sum(item[0]), item[0]),
                      reverse=True)

    # -- calculus ------------------------------------------------------------------

    def partial(self, r: int) -> "SparsePoly":
        """Formal partial derivative with respect to x_r (1-based)."""
        if not (1 <= r <= self.n):
            raise ValueError(f"variable index {r} outside 1..{self.n}")
        i = r - 1
        terms: dict[tuple[int, ...], Coefficient] = {}
        for exp, c in self._terms.items():
            if exp[i]:
                terms[exp[:i] + (exp[i] - 1,) + exp[r:]] = c * exp[i]
        return SparsePoly._ring(self.n, terms)

    # -- serialization -------------------------------------------------------------------

    def to_json(self) -> str:
        terms = [{"exp": list(exp), "num": str(c.numerator), "den": str(c.denominator)}
                 for exp, c in self.sorted_terms()]
        return json.dumps({"n": self.n, "terms": terms})

    @classmethod
    def from_json(cls, text: str) -> "SparsePoly":
        try:
            obj = json.loads(text)
            terms = {tuple(map(_json_int, t["exp"])): _fraction_from_json([t["num"], t["den"]])
                     for t in obj["terms"]}
            return cls(_json_int(obj["n"]), terms)
        except (KeyError, TypeError, ValueError, ZeroDivisionError, RecursionError) as exc:
            raise MalformedInput(f"bad polynomial JSON: {exc!r}") from exc

    def __repr__(self):
        if self.is_zero():
            return "SparsePoly(0)"
        bits = []
        for exp, c in self.sorted_terms():
            mono = "*".join(f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                            for i, e in enumerate(exp) if e)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "SparsePoly(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# Steiner forms
# ---------------------------------------------------------------------------

def steiner_form(h: Hypermatrix) -> SparsePoly:
    """sum over all index tuples of h[i1..ik] * x_{i1}...x_{ik}, assuming no
    symmetry: each nonzero entry's tuple is sorted into its multiset, equal
    multisets are summed in Python ints, so no int64 sum can wrap, and each
    multiset's exponent counts come from one ``np.add.at``."""
    n, k = h.n, h.k
    tuples = np.argwhere(h.entries)
    values = h.entries[tuple(tuples.T)].astype(object)
    tuples.sort(axis=1)
    _, first, group = np.unique(np.ravel_multi_index(tuples.T, (n,) * k),
                                return_index=True, return_inverse=True)
    sums = np.zeros(len(first), dtype=object)
    np.add.at(sums, group, values)
    exps = np.zeros((len(first), n), dtype=np.int64)
    np.add.at(exps, (np.arange(len(first))[:, None], tuples[first]), 1)
    return SparsePoly._ring(n, dict(zip(map(tuple, exps.tolist()), sums.tolist())))


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

    An edge whose far sum is zero adds nothing to D_1, and all such edges
    share the step -k * s^(k-1); a zero step copies the parent's entry.  A
    call makes 3n - 1 truth tests and one per nonzero far sum: one per
    coordinate (in s), two per edge (one in ``Tree.far_sums``, one here),
    one for the shared step and one for each other step.  A support-3
    certificate has s = 0 and two nonzero far sums whose powers are
    monomials (see ``scalar``), so it takes five powers by re-indexing and
    no subtraction in the parent pass, whatever n is.  s and
    ``Tree.far_sums`` add only nonzero values, so its additions do not grow
    with n either.

    Computes in the point's own number type, where CycNum, int and Fraction
    mix (two moduli raise ConductorMismatch).  A numpy array is read with
    ``.tolist()``: Python ints for an integer array, complex for complex128.
    A numpy integer inside a list is read by ``_rational``, so int64 entries
    cannot wrap.
    """
    if k < 2:
        raise ValueError("order must be >= 2")
    if isinstance(point, np.ndarray):
        coords = point.tolist()
    else:
        coords = [_rational(x) if isinstance(x, np.integer) else x for x in point]
    s = sum([x for x in coords if x] or coords)   # all zero: the coords' own zero
    top = s ** (k - 1)
    zero_step = -k * top or None   # None: the step copies the parent's entry
    near_pow, steps = [], []
    for a in t.far_sums(coords):
        if a:
            near_pow.append((s - a) ** (k - 1))
            steps.append(k * (a ** (k - 1) - near_pow[-1]) or None)
        else:
            steps.append(zero_step)
    grad = [None] * (t.n + 1)
    grad[1] = k * (len(near_pow) * top - sum(near_pow))
    parent = t.parent
    for c, d in zip(t.order[1:], steps):
        grad[c] = grad[parent[c]] if d is None else grad[parent[c]] - d
    return grad[1:]


def hessian_direct(t: Tree, k: int, point: Sequence, out: np.ndarray | None = None) -> np.ndarray:
    """Second partials of the order-k Steiner form, in complex128.

    D_q D_r (s^k - a^k - b^k) keeps a side's power only where q and r are
    both on that side, so with S = ``t.sides()`` and far sums a = S x,
    H = k(k-1) [(n-1) s^(k-2) - Sᵀdiag(a^(k-2))S - (1-S)ᵀdiag((s-a)^(k-2))(1-S)].
    The tree's cached complex128 C = [S; 1 - S], ``t.cuts()``, has
    C x = [a; s - a], so the two products are one, Cᵀdiag((C x)^(k-2))C.

    The point is read as a complex128 array and the n x n result is
    complex128: it only ever feeds float64 Gauss-Newton solves, which read
    the gradient off it by Euler, g = H x / (k-1).  Given a complex128 n x n
    ``out``, the same operations write H there, and return it.
    """
    n = t.n
    if len(point) != n:
        raise ValueError(f"point length {len(point)} != {n} vertices")
    if k < 2:
        raise ValueError("order must be >= 2")
    x = np.asarray(point, dtype=np.complex128)
    cuts = t.cuts()
    hess = np.matmul(cuts.T * (cuts @ x) ** (k - 2), cuts, out=out)
    np.subtract((n - 1) * x.sum() ** (k - 2), hess, out=hess)
    hess *= k * (k - 1)
    return hess


# ---------------------------------------------------------------------------
# order-3 identity suite, on integer tensors
# ---------------------------------------------------------------------------

def order3_tensor(t: Tree) -> np.ndarray:
    """P = 6H for the tree's order-3 hypermatrix H.  A Steiner distance
    depends only on the vertex set, so H is super-symmetric and P is 6x the
    symmetric tensor of p: D_r p is the quadratic P[r]/2.  P is not
    re-symmetrized, so the rows test the build itself; L(1, 3D) is
    symmetric, so the product row fails on any asymmetric H.

    With h = max|H| and sum_r |2 - deg_r| < 2n, the suite's int64 values stay
    within |P| <= 6h, |M| <= 36nh, |L(1, M) - 6P| <= 126nh and 48h on s = 0.
    A tree has h <= n - 1 (under 3 * 10^7 at the order-3 entry budget,
    n <= 464); an H that would push 126nh past 2^62 raises ``OverflowError``
    rather than wrap.  The checks below assume a P within this bound."""
    if t.n < 2:
        raise ValueError("needs at least two vertices")
    h = build_steiner(t, 3).entries   # a tree's uint8 or uint16 dtype bounds its entries
    high = np.iinfo(h.dtype).max if h.dtype.kind == "u" else max(int(h.max()), -int(h.min()))
    if 126 * t.n * high > 1 << 62:
        raise OverflowError("hypermatrix entries too large for the int64 identity suite")
    return np.multiply(h, 6, dtype=np.int64)   # 6 * h would wrap in uint16


def _linear_times(q: np.ndarray) -> np.ndarray:
    """L(1, Q)_ijk = Q_jk + Q_ik + Q_ij: the tensor of s times the quadratic Q/2."""
    return q + q[:, None, :] + q[:, :, None]


def _on_s_zero(x: np.ndarray) -> np.ndarray:
    """x contracted with A = [I_(n-1); -1ᵀ] on its last two axes, in two
    differences: each symmetric x[..., :, :] as a quadratic on s = 0.
    A form is a multiple of s iff its restriction is zero."""
    y = x[..., :-1, :] - x[..., -1:, :]
    return y[..., :-1] - y[..., -1:]


def verify_product_decomposition(p: np.ndarray, d: np.ndarray) -> bool:
    """The order-3 form with tensor P equals s * g, g = 3 sum_(i<j) d_ij x_i x_j
    for the distance matrix D: P == L(1, 3D), shapes included."""
    q = _linear_times(3 * d)
    return p.shape == q.shape and bool((p == q).all())


def verify_s3_decomposition(p: np.ndarray, degrees: Sequence[int]) -> bool:
    """s^3 = sum_r f_r * D_r p for the order-3 form with tensor P, with the
    degree-based cofactors f_r = ((2 - deg_r) s - (2/3) x_r) / (3(n-1)) and
    ``degrees`` = deg_1..deg_n.  The leading 1/3 is forced:
    sum_r c_r * D_r g = 3s (not s) for c_r = (2 - deg_r)/(n-1), since D_r g
    carries the factor 3 of g.  Denominators cleared,
    s * sum_r 3(2 - deg_r) D_r p - 2 * sum_r x_r D_r p = 9(n-1) s^3, which on
    tensors is L(1, M) - 6P == 54(n-1) J with M = sum_r 3(2 - deg_r) P[r], J
    all ones (sum_r x_r D_r p = 3p has tensor 3P)."""
    m = (3 * (2 - np.asarray(degrees)) @ p.reshape(len(p), -1)).reshape(p.shape[1:])
    return bool((_linear_times(m) - 6 * p == 54 * (len(p) - 1)).all())


def _divisibility(p: np.ndarray) -> tuple[bool, bool]:
    """(``verify_not_divisible(p)``, ``verify_form_divisible(p)``) from one
    restriction Q: no Q[r] is zero, and every Q[r] equals Q[n-1]."""
    q = _on_s_zero(p).reshape(len(p), -1)
    return bool(q.any(axis=1).all()), bool((q == q[-1]).all())


def verify_not_divisible(p: np.ndarray) -> bool:
    """No partial derivative of the order-3 form with tensor P is a multiple
    of s: each D_r p, the quadratic P[r]/2, is nonzero on s = 0."""
    return _divisibility(p)[0]


def verify_form_divisible(p: np.ndarray) -> bool:
    """The order-3 form with tensor P is a multiple of s: it vanishes on
    s = 0, so P restricted on its last two axes and then on its first is zero."""
    return _divisibility(p)[1]
