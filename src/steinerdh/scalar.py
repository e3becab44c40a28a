"""Exact scalar kernels: rationals, cyclotomic field elements, high-precision complex.

Rationals are ``fractions.Fraction`` (arbitrary precision, always in lowest
terms, positive denominator).  Cyclotomic numbers live in Q(zeta_m) and are
stored in the power basis 1, zeta, ..., zeta^(phi(m)-1) modulo the m-th
cyclotomic polynomial, so equality and ``is_zero`` are exact field-element
tests.  An integral coefficient is stored as an ``int`` and any other as a
``Fraction``, so the integer-valued certificates multiply at Python-int
speed; ``as_rational`` still hands back a ``Fraction``.  Every exact number
from outside the package is read by ``_rational``: numpy integers become
``int``s, and a float or a string raises ``TypeError``.  ``CFloat`` is an
``mpmath.mpc`` that is known to be finite; the numeric side of the package
works at one precision, ``WORKING_PREC`` bits.

Every coefficient list, however long, is read as the polynomial sum c_j x^j
and stored as its remainder on division by Phi_m, folded from the top
coefficient down through Phi_m's nonzero lower terms.  Lifting to Q(zeta_M),
m | M, and the Galois automorphisms zeta -> zeta^j (gcd(j, m) = 1) are
re-indexings of the coefficients (c_i to index i*M/m, or to i*j mod m)
followed by that fold.  The inverse of an irrational x is the product of its
other conjugates divided by its norm N(x) = x * that product, a nonzero
rational; a rational x is inverted as a Fraction.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

import mpmath

from .errors import ConductorMismatch, MalformedInput, ascii_int

WORKING_PREC = 128

RatLike = Union[int, Fraction]


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    """Euler totient of m >= 1."""
    if m < 1:
        raise ValueError("totient needs m >= 1")
    result = m
    p = 2
    mm = m
    while p * p <= mm:
        if mm % p == 0:
            while mm % p == 0:
                mm //= p
            result -= result // p
        p += 1
    if mm > 1:
        result -= result // mm
    return result


# ---------------------------------------------------------------------------
# integer polynomial helpers (ascending coefficient lists)
# ---------------------------------------------------------------------------

def _poly_divmod_monic(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Divide by a monic integer polynomial: the quotient and the deg(den)
    low coefficients of the remainder, both integral."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quot[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    return quot, num[:dd]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, ascending order, monic, degree phi(m).

    Computed by dividing x^m - 1 by Phi_d for every proper divisor d of m;
    the recursion bottoms out at Phi_1 = x - 1.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0] = -1
    num[m] = 1
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod_monic(num, cyclotomic_polynomial(d))
            if any(rem):
                raise AssertionError(f"x^{m}-1 not divisible by Phi_{d}")
    assert len(num) - 1 == euler_phi(m)
    return tuple(num)


@lru_cache(maxsize=None)
def _phi_tail(m: int) -> tuple[tuple[int, int], ...]:
    """The nonzero terms (i, a_i), i < phi(m), of Phi_m = x^phi(m) + sum a_i x^i."""
    return tuple((i, a) for i, a in enumerate(cyclotomic_polynomial(m)[:-1]) if a)


def _int_if_integral(c: Fraction) -> RatLike:
    return c.numerator if c.denominator == 1 else c


def _rational(value) -> RatLike:
    """An exact number from outside as an int when integral and a Fraction
    otherwise.  Anything ``numbers.Rational`` is read, numpy integers
    included; anything else (a float, a string) raises TypeError."""
    if type(value) is int:
        return value
    if not isinstance(value, numbers.Rational):
        raise TypeError(f"{value!r} is not a rational number")
    num, den = int(value.numerator), int(value.denominator)
    return num if den == 1 else Fraction(num, den)


def _fraction_from_json(pair) -> Fraction:
    """A [numerator, denominator] pair of decimal strings, as the to_json
    methods write it, as a Fraction.  ValueError on any other shape or string
    (``ascii_int``), ZeroDivisionError on a zero denominator."""
    if type(pair) is not list or len(pair) != 2:
        raise ValueError(f"expected a pair of decimal strings, got {pair!r}")
    return Fraction(ascii_int(pair[0], signed=True), ascii_int(pair[1], signed=True))


def _json_int(value) -> int:
    """A JSON integer field; ValueError on anything else, true and false included."""
    if type(value) is not int:
        raise ValueError(f"expected a JSON integer, got {value!r}")
    return value


def _reduce_coeffs(m: int, coeffs: Sequence[RatLike]) -> list[RatLike]:
    """The phi(m) coefficients of (sum c_j x^j) mod Phi_m."""
    phi = euler_phi(m)
    out = list(coeffs) + [0] * (phi - len(coeffs))
    tail = _phi_tail(m)
    for base in range(len(out) - phi - 1, -1, -1):
        c = out[base + phi]
        if c:
            # x^(base + phi) = x^base * (x^phi - Phi_m) = -x^base * sum a_i x^i
            for i, a in tail:
                out[base + i] -= c * a
    del out[phi:]
    return out


# ---------------------------------------------------------------------------
# CycNum
# ---------------------------------------------------------------------------

class CycNum:
    """An exact element of Q(zeta_m), in the power basis modulo Phi_m.

    Immutable.  Arithmetic between two CycNum values requires the same
    modulus m (raise ConductorMismatch otherwise); ints and Fractions coerce
    into any modulus.  Use :meth:`lift` to move into a larger field whose
    modulus is a multiple of m.
    """

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: Iterable[RatLike]):
        if m < 1:
            raise ValueError("modulus must be >= 1")
        self._store(m, [_rational(c) for c in coeffs])

    @classmethod
    def _ring(cls, m: int, coeffs: list) -> "CycNum":
        """A ring result: int/Fraction coefficients of a valid modulus."""
        out = object.__new__(cls)
        out._store(m, coeffs)
        return out

    def _store(self, m: int, coeffs: list) -> None:
        """Fold into the power basis; integral values are kept as ints."""
        if len(coeffs) != euler_phi(m):
            coeffs = _reduce_coeffs(m, coeffs)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", tuple(
            c if type(c) is int else _int_if_integral(c) for c in coeffs))

    def __setattr__(self, *_):  # pragma: no cover - immutability guard
        raise AttributeError("CycNum is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m: int = 1) -> "CycNum":
        return cls(m, [])

    @classmethod
    def one(cls, m: int = 1) -> "CycNum":
        return cls(m, [1])

    @classmethod
    def from_rational(cls, value: RatLike, m: int = 1) -> "CycNum":
        return cls(m, [value])

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.coeffs[0])

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other) -> "CycNum":
        if isinstance(other, CycNum):
            if other.m != self.m:
                raise ConductorMismatch(
                    f"cannot mix Q(zeta_{self.m}) with Q(zeta_{other.m}); lift first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycNum._ring(self.m, [other])
        return NotImplemented  # type: ignore[return-value]

    def lift(self, big_m: int) -> "CycNum":
        """Re-express this element inside Q(zeta_{big_m}) where m | big_m."""
        if big_m % self.m != 0:
            raise ConductorMismatch(f"{self.m} does not divide {big_m}")
        if big_m == self.m:
            return self
        return self._substitute(big_m, big_m // self.m)

    def _substitute(self, big_m: int, step: int) -> "CycNum":
        """The image under zeta_m -> zeta_{big_m}^step: c_i moves to index i*step mod big_m."""
        out = [0] * big_m
        for i, c in enumerate(self.coeffs):
            out[i * step % big_m] += c
        return CycNum._ring(big_m, out)

    def _conjugate(self, j: int) -> "CycNum":
        """The Galois automorphism zeta -> zeta^j of Q(zeta_m); j must be prime to m."""
        return self._substitute(self.m, j)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CycNum._ring(self.m, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycNum._ring(self.m, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CycNum._ring(self.m, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        phi = len(self.coeffs)
        conv = [0] * (2 * phi - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        conv[i + j] += a * b
        return CycNum._ring(self.m, conv)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "CycNum":
        if e < 0:
            return (self ** (-e)).inverse()
        result = CycNum.one(self.m)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.is_rational():
            return CycNum.from_rational(1 / self.as_rational(), self.m)
        # the other conjugates multiply x up to its norm, a nonzero rational
        cofactor = CycNum.one(self.m)
        for j in range(2, self.m):
            if math.gcd(j, self.m) == 1:
                cofactor = cofactor * self._conjugate(j)
        return cofactor * (1 / (self * cofactor).as_rational())

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, CycNum):
            if other.m == self.m:
                return self.coeffs == other.coeffs
            if self.is_rational() and other.is_rational():
                return self.coeffs[0] == other.coeffs[0]
            raise ConductorMismatch(
                f"cannot compare Q(zeta_{self.m}) with Q(zeta_{other.m}); lift first")
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.m, self.coeffs))

    # -- embedding ----------------------------------------------------------

    def embed(self) -> "CFloat":
        """Numeric value under zeta_m -> exp(2*pi*i/m), summed and kept at
        WORKING_PREC + 16 bits."""
        with mpmath.workprec(WORKING_PREC + 16):
            total = mpmath.mpc(0)
            for j, c in enumerate(self.coeffs):
                if c:
                    w = mpmath.expjpi(mpmath.mpf(2 * j) / self.m)
                    total += mpmath.mpf(c.numerator) / c.denominator * w
            return CFloat(total)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "coeffs": [[str(c.numerator), str(c.denominator)] for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CycNum":
        try:
            return cls(_json_int(obj["m"]), [_fraction_from_json(c) for c in obj["coeffs"]])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise MalformedInput(f"bad cyclotomic JSON: {exc!r}") from exc

    def __repr__(self):
        return f"CycNum(m={self.m}, {list(self.coeffs)!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            elif j == 1:
                parts.append(f"{c}*z{self.m}")
            else:
                parts.append(f"{c}*z{self.m}^{j}")
        return " + ".join(parts)


def root_of_unity(m: int, power: int = 1) -> CycNum:
    """zeta_m^power, reduced into the power basis of Q(zeta_m)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return CycNum(m, [0] * (power % m) + [1])


def unify_conductor(values: Sequence) -> tuple[list[CycNum], int]:
    """Lift a mixed list of CycNum and rational numbers into one common field.

    The common modulus is the lcm of the CycNum moduli present (1 if none);
    any other value is read by ``_rational``, so a float raises TypeError.
    """
    m = 1
    for v in values:
        if isinstance(v, CycNum):
            m = math.lcm(m, v.m)
    out = []
    for v in values:
        out.append(v.lift(m) if isinstance(v, CycNum) else CycNum.from_rational(v, m))
    return out, m


# ---------------------------------------------------------------------------
# CFloat
# ---------------------------------------------------------------------------

class CFloat(mpmath.mpc):
    """An ``mpmath.mpc`` that is finite: construction rejects NaN and infinity.

    Both parts are rounded at the precision in force when the value is
    built.  Arithmetic on a CFloat gives plain ``mpmath.mpc`` values.
    """

    def __new__(cls, real=0, imag=0):
        z = super().__new__(cls, real, imag)
        if not mpmath.isfinite(z):
            raise ValueError("CFloat must be finite")
        return z

    def to_json(self) -> list[str]:
        return [mpmath.nstr(self.real, 40), mpmath.nstr(self.imag, 40)]
