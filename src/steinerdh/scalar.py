"""Exact scalar kernels: rationals and cyclotomic field elements.

Rationals are ``fractions.Fraction`` (arbitrary precision, always in lowest
terms, positive denominator).  Cyclotomic numbers live in Q(zeta_m) and are
stored in the power basis 1, zeta, ..., zeta^(phi(m)-1) modulo the m-th
cyclotomic polynomial, so equality and ``is_zero`` are exact field-element
tests.  An integral coefficient is stored as an ``int`` and any other as a
``Fraction``, so the integer-valued certificates multiply at Python-int
speed; ``as_rational`` still hands back a ``Fraction``.  Every exact number
from outside the package is read by ``_rational``: numpy integers become
``int``s, and a float or a string raises ``TypeError``.  ``WORKING_PREC`` is
the one precision of the numeric layer, in bits.

Phi_m is built by Moebius inversion, one shifted pass over a power series
per squarefree divisor of m, with no division by the smaller Phi_d.  Every
coefficient list, however long, is read as the polynomial sum c_j x^j and
stored as its remainder on division by Phi_m, folded from the top
coefficient down through Phi_m's nonzero lower terms.  Lifting to Q(zeta_M),
m | M, and the Galois automorphisms zeta -> zeta^j (gcd(j, m) = 1) are
re-indexings of the coefficients (c_i to index i*M/m, or to i*j mod m)
followed by that fold.  The inverse of an irrational x is the product of its
other conjugates divided by its norm N(x) = x * that product, a nonzero
rational; a rational x is inverted as a Fraction.

A product convolves only the nonzero coefficient pairs, so a zero factor
gives zero at once, and a product with an int scales each coefficient.  A
power of zero or of a monomial c*zeta^j is c^e * zeta^(je mod m), one
re-index and one fold; any other base is raised by square-and-multiply
starting from the base.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

from .errors import ConductorMismatch, MalformedInput, ascii_int

WORKING_PREC = 128

RatLike = Union[int, Fraction]


def _primes(m: int) -> list[int]:
    """The distinct prime factors of m >= 1, by trial division."""
    primes = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    return primes


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    """Euler totient of m >= 1."""
    if m < 1:
        raise ValueError("totient needs m >= 1")
    result = m
    for p in _primes(m):
        result -= result // p
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, ascending order, monic, degree phi(m).

    For m >= 2, Phi_m = prod over squarefree q | m of (1 - x^(m/q))^mu(q):
    the Moebius inversion of x^m - 1 = prod_(d | m) Phi_d, with the signs of
    x^d - 1 = -(1 - x^d) cancelling because the mu(q) sum to 0.  Each factor
    acts in place on the power series cut at degree phi(m): a product with
    1 - x^d subtracts the series shifted by d (descending i), a division by
    it adds the running series shifted by d (ascending i).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return (-1, 1)
    phi = euler_phi(m)
    series = [1] + [0] * phi
    moebius = [(1, 1)]   # (q, mu(q)) for the squarefree divisors q of m
    for p in _primes(m):
        moebius += [(q * p, -mu) for q, mu in moebius]
    for q, mu in moebius:
        d = m // q
        if mu > 0:
            for i in range(phi, d - 1, -1):
                series[i] -= series[i - d]
        else:
            for i in range(d, phi + 1):
                series[i] += series[i - d]
    return tuple(series)


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
    """The phi(m) coefficients of (sum c_j x^j) mod Phi_m, for at least phi(m) c_j."""
    phi = euler_phi(m)
    out = list(coeffs)
    if len(out) > m:  # Phi_m divides x^m - 1: x^j = x^(j mod m), one fold at a prime m
        for j in range(m, len(out)):
            out[j % m] += out[j]
        del out[m:]
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
        """Fold a long list into the power basis and pad a short one; integral
        values are kept as ints."""
        phi = euler_phi(m)
        if len(coeffs) > phi:
            coeffs = _reduce_coeffs(m, coeffs)
        elif len(coeffs) < phi:
            coeffs = coeffs + [0] * (phi - len(coeffs))
        if set(map(type, coeffs)) != {int}:
            coeffs = [c if type(c) is int else _int_if_integral(c) for c in coeffs]
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", tuple(coeffs))

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

    def __bool__(self) -> bool:
        return any(self.coeffs)

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
        if type(other) is not CycNum or other.m != self.m:
            if type(other) is int:
                return CycNum._ring(self.m, [a * other for a in self.coeffs])
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        left = [(i, a) for i, a in enumerate(self.coeffs) if a]
        right = [(j, b) for j, b in enumerate(other.coeffs) if b]
        if not (left and right):
            return other if left else self
        conv = [0] * (left[-1][0] + right[-1][0] + 1)
        for i, a in left:
            for j, b in right:
                conv[i + j] += a * b
        return CycNum._ring(self.m, conv)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "CycNum":
        if e <= 0:
            return (self ** -e).inverse() if e else CycNum.one(self.m)
        support = [(j, c) for j, c in enumerate(self.coeffs) if c]
        if not support:
            return self
        if len(support) == 1:   # (c zeta^j)^e = c^e zeta^(je mod m)
            j, c = support[0]
            out = [0] * (j * e % self.m + 1)
            out[-1] = c ** e
            return CycNum._ring(self.m, out)
        result = self
        for bit in bin(e)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
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

