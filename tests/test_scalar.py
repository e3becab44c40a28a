"""Exact cyclotomic arithmetic and the numeric embedding."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerdh import (CFloat, ConductorMismatch, CycNum, MalformedInput,
                       cyclotomic_polynomial, euler_phi, root_of_unity, unify_conductor)
from steinerdh.scalar import WORKING_PREC

from oracles import cyclotomic_product

KNOWN_CYCLOTOMICS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_polynomials_match_known_values():
    for m, coeffs in KNOWN_CYCLOTOMICS.items():
        assert cyclotomic_polynomial(m) == coeffs


def test_cyclotomic_degree_is_totient():
    for m in range(1, 40):
        assert len(cyclotomic_polynomial(m)) - 1 == euler_phi(m)


def test_root_of_unity_examples():
    i = root_of_unity(4, 1)
    assert i.coeffs == (0, 1)
    assert root_of_unity(2, 1) == -1
    assert root_of_unity(8, 8) == 1


def test_all_roots_have_full_order_dividing_m():
    for m in range(1, 20):
        for p in range(m):
            assert root_of_unity(m, p) ** m == 1


def test_cyc_pow_examples():
    i = root_of_unity(4)
    assert i ** 2 == -1
    assert (1 + i) ** 2 == 2 * i
    x = CycNum(8, [Fraction(3, 7), -2, 0, 5])
    assert x ** 0 == 1


def test_embed_examples():
    i = root_of_unity(4)
    e = i.embed()
    assert abs(float(e.real)) < 1e-15 and abs(float(e.imag) - 1) < 1e-15
    e2 = (-1 - i).embed()
    assert abs(float(e2.real) + 1) < 1e-15 and abs(float(e2.imag) + 1) < 1e-15
    e3 = root_of_unity(8).embed()
    with mpmath.workprec(150):
        half_sqrt2 = mpmath.sqrt(2) / 2
        assert abs(e3.real - half_sqrt2) < mpmath.mpf(10) ** -30
        assert abs(e3.imag - half_sqrt2) < mpmath.mpf(10) ** -30


small_rat = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def cyc_elements(m: int):
    return st.lists(small_rat, min_size=euler_phi(m), max_size=euler_phi(m)).map(
        lambda cs: CycNum(m, cs))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 20]).flatmap(
    lambda m: st.tuples(cyc_elements(m), cyc_elements(m), cyc_elements(m))))
def test_field_axioms(abc):
    a, b, c = abc
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + (b + c) == (a + b) + c
    if not a.is_zero():
        assert a * a.inverse() == 1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([4, 8, 12]).flatmap(
    lambda m: st.tuples(cyc_elements(m), cyc_elements(m))))
def test_embed_is_ring_homomorphism(ab):
    a, b = ab
    with mpmath.workprec(200):
        tol = mpmath.mpf(2) ** -90
        scale = 1 + abs(a.embed()) + abs(b.embed())
        prod = (a * b).embed() - a.embed() * b.embed()
        add = (a + b).embed() - (a.embed() + b.embed())
        assert abs(prod) <= tol * scale * scale
        assert abs(add) <= tol * scale


def test_conductor_mismatch_raised():
    with pytest.raises(ConductorMismatch):
        root_of_unity(4) + root_of_unity(8)
    with pytest.raises(ConductorMismatch):
        root_of_unity(3).lift(8)


def test_equality_across_moduli():
    # an irrational element compared with another field's element must be
    # lifted first, as for arithmetic; a silent False would hide equal values
    i = root_of_unity(4)
    with pytest.raises(ConductorMismatch):
        i == i.lift(8)
    with pytest.raises(ConductorMismatch):
        i != root_of_unity(8)
    with pytest.raises(ConductorMismatch):
        CycNum.from_rational(2, 8) == i
    assert i.lift(8) == root_of_unity(8, 2)
    half4, half8 = CycNum.from_rational(Fraction(1, 2), 4), CycNum.from_rational(Fraction(1, 2), 8)
    assert half4 == half8 and hash(half4) == hash(half8) == hash(Fraction(1, 2))
    assert CycNum.from_rational(3, 4) != CycNum.from_rational(2, 6)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(1, 3, 6), (2, 4, 8), (3, 6, 12), (4, 12, 24), (5, 10, 20),
                        (5, 15, 30), (6, 12, 36), (8, 16, 32)]).flatmap(
    lambda ms: st.tuples(st.just(ms), cyc_elements(ms[0]), cyc_elements(ms[0]))))
def test_lift_preserves_value(case):
    i = root_of_unity(4)
    lifted = i.lift(8)
    assert lifted == root_of_unity(8, 2)
    assert (lifted ** 2) == root_of_unity(8, 4)
    (m, a, b), x, y = case
    assert x.lift(m) is x
    for big in (a, b):
        # zeta_m lands on zeta_big^(big/m); sums, products and values are kept
        assert root_of_unity(m, 1).lift(big) == root_of_unity(big, big // m)
        assert (x + y).lift(big) == x.lift(big) + y.lift(big)
        assert (x * y).lift(big) == x.lift(big) * y.lift(big)
        with mpmath.workprec(200):
            gap = x.embed() - x.lift(big).embed()
            assert abs(gap) < mpmath.mpf(2) ** -100 * (1 + abs(x.embed()))
    assert x.lift(a).lift(b) == x.lift(b)


def _units(m):
    return [j for j in range(1, m + 1) if math.gcd(j, m) == 1]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 4, 5, 7, 8, 9, 12, 15, 16, 20]).flatmap(
    lambda m: st.tuples(cyc_elements(m), cyc_elements(m), small_rat)))
def test_conjugation_is_the_galois_action(case):
    x, y, q = case
    m = x.m
    for j in _units(m):
        sx, sy = x._conjugate(j), y._conjugate(j)
        assert (x + y)._conjugate(j) == sx + sy
        assert (x * y)._conjugate(j) == sx * sy
        assert CycNum.from_rational(q, m)._conjugate(j) == q
        assert root_of_unity(m, 1)._conjugate(j) == root_of_unity(m, j)
        for i in _units(m):
            assert sx._conjugate(i) == x._conjugate(i * j % m)
    assert x._conjugate(1) == x and x._conjugate(m + 1) == x
    # the norm, the product of all conjugates, is rational
    norm = CycNum.one(m)
    for j in _units(m):
        norm = norm * x._conjugate(j)
    assert norm.is_rational() and norm.is_zero() == x.is_zero()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 20]).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(small_rat, max_size=3 * m))))
def test_long_coefficient_lists_reduce_by_powers_of_zeta(case):
    # the value sum c_j zeta_m^j survives the reduction mod Phi_m; the oracle
    # sums it directly at 200 bits, with no cyclotomic arithmetic
    m, coeffs = case
    with mpmath.workprec(200):
        direct = mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator
                             * mpmath.expjpi(mpmath.mpf(2 * j) / m)
                             for j, c in enumerate(coeffs))
        gap = CycNum(m, coeffs).embed() - direct
        assert abs(gap) < mpmath.mpf(2) ** -100 * (1 + sum(abs(c) for c in coeffs))


def test_unify_conductor():
    vals, m = unify_conductor([root_of_unity(4), Fraction(1, 2), root_of_unity(6)])
    assert m == 12
    assert vals[1] == Fraction(1, 2)
    assert vals[0] ** 4 == 1 and vals[2] ** 6 == 1
    vals, m = unify_conductor([np.int64(3), root_of_unity(4), np.int32(-1)])
    assert m == 4 and vals[0] == 3 and vals[2] == -1


def test_numpy_integers_are_read_exactly():
    big = np.int64(2 ** 62)
    for x in (CycNum(4, [big]), CycNum.from_rational(big, 4)):
        assert type(x.coeffs[0]) is int
        assert x * 4 == 2 ** 64


@pytest.mark.parametrize("bad", [0.5, 2.0, "1/2", np.float64(1.0)])
def test_floats_and_strings_are_refused(bad):
    with pytest.raises(TypeError):
        CycNum(4, [1, bad])
    with pytest.raises(TypeError):
        CycNum.from_rational(bad, 4)
    with pytest.raises(TypeError):
        unify_conductor([root_of_unity(4), bad])


def test_json_round_trip():
    x = CycNum(8, [Fraction(-3, 7), 0, Fraction(22, 5), 1])
    obj = x.to_json()
    assert obj["m"] == 8 and obj["coeffs"][0] == ["-3", "7"]
    assert CycNum.from_json(obj) == x


@pytest.mark.parametrize("obj", [
    {"m": 4, "coeffs": [["1", "0"]]},          # zero denominator
    {"m": 4},                                  # missing key
    {"coeffs": [["1", "2"]]},
    {"m": 4, "coeffs": [["1", "2"], ["3"]]},   # short pair
    {"m": 4, "coeffs": ["12"]},
    {"m": 4, "coeffs": [["1_0", "2"]]},        # Python literal, not decimal
    {"m": 4, "coeffs": [["+1", "2"]]},
    {"m": 4, "coeffs": [[1, 2]]},
    {"m": "4", "coeffs": []},
    {"m": 0, "coeffs": []},
    {"m": True, "coeffs": [["1", "1"]]},       # a JSON boolean, not an integer
    {"m": 4.0, "coeffs": []},
    None,
])
def test_from_json_rejects_malformed_documents(obj):
    with pytest.raises(MalformedInput):
        CycNum.from_json(obj)


def test_rational_interop_and_equality():
    x = CycNum.from_rational(Fraction(5, 3), 12)
    assert x == Fraction(5, 3)
    assert x.as_rational() == Fraction(5, 3)
    assert (x * 3) == 5
    z = root_of_unity(4)
    assert z != 1
    with pytest.raises(ValueError):
        z.as_rational()


def test_division():
    z = root_of_unity(8, 3)
    w = CycNum(8, [1, 2, Fraction(1, 2), 0])
    assert (w / z) * z == w
    with pytest.raises(ZeroDivisionError):
        w / CycNum.zero(8)


def _stored_exactly(x: CycNum) -> bool:
    """Every coefficient is an int if integral and a Fraction otherwise."""
    return all(type(c) is (int if Fraction(c).denominator == 1 else Fraction)
               for c in x.coeffs)


def test_coefficient_type_contract():
    x = CycNum(12, [Fraction(4, 2), Fraction(1, 3), -2, Fraction(5, 5)])
    y = CycNum(12, [Fraction(2, 3), 0, Fraction(3, 1), True])
    half = CycNum.from_rational(Fraction(1, 2), 12)
    assert [type(c) for c in x.coeffs] == [int, Fraction, int, int]
    assert [type(c) for c in y.coeffs] == [Fraction, int, int, int]
    results = [x + y, x - y, -x, x * y, x * 3, Fraction(3, 2) - x, x ** 3, x ** -2,
               x.inverse(), x / y, x.lift(24), x._conjugate(5), half + half,
               CycNum.from_json(x.to_json()), root_of_unity(12, 7)]
    assert all(_stored_exactly(r) for r in results)
    assert type((half + half).coeffs[0]) is int and type((y - y).coeffs[0]) is int
    # a rational value reads back, and inverts, as a Fraction, never a float
    two = CycNum.from_rational(2, 8)
    assert type(two.coeffs[0]) is int and type(two.as_rational()) is Fraction
    for inv in (two.inverse(), two ** -1, 1 / two):
        assert type(inv.coeffs[0]) is Fraction and inv.as_rational() == Fraction(1, 2)
    assert type(CycNum.one(8).inverse().as_rational()) is Fraction
    assert type(CycNum.from_rational(-1, 3).inverse().coeffs[0]) is int


def test_integral_fractions_equal_and_hash_like_ints():
    # the gradient memo keys its powers by value, so equal numbers must hash alike
    for m in (1, 4, 12):
        a, b = CycNum(m, [Fraction(4, 2)]), CycNum(m, [2])
        assert a == b and hash(a) == hash(b) == hash(2)
    a = CycNum(12, [Fraction(4, 2), 1, Fraction(-6, 3)])
    b = CycNum(12, [2, Fraction(1), -2])
    assert a == b and hash(a) == hash(b) and a.coeffs == b.coeffs
    assert {a: "power"}[b] == "power"


def test_text_and_json_forms_unchanged():
    x = CycNum(8, [Fraction(6, 2), Fraction(-1, 2), 0, 1])
    assert str(x) == "3 + -1/2*z8 + 1*z8^3"
    assert repr(x) == "CycNum(m=8, [3, Fraction(-1, 2), 0, 1])"
    assert x.to_json() == {"m": 8, "coeffs": [["3", "1"], ["-1", "2"], ["0", "1"], ["1", "1"]]}
    assert str(CycNum.zero(8)) == "0" and str(CycNum.from_rational(Fraction(-7, 2), 8)) == "-7/2"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 20, 24]).flatmap(
    lambda m: st.tuples(cyc_elements(m), cyc_elements(m))),
    st.integers(-10 ** 12, 10 ** 12))
def test_mul_matches_long_division_oracle(ab, big):
    a, b = ab
    for x, y in ((a, b), (a * big, b), (a, CycNum.from_rational(big, a.m))):
        product = x * y
        assert list(product.coeffs) == cyclotomic_product(x, y)
        assert _stored_exactly(product)


def test_cfloat_basics():
    a = CFloat(1.5, -2)
    assert isinstance(a, mpmath.mpc)
    assert float(a.real) == 1.5 and float(a.imag) == -2
    assert CFloat(mpmath.mpc(1.5, -2)) == a == CFloat(1.5 - 2j)
    assert abs(a) == mpmath.mpf("2.5")
    assert a.to_json() == ["1.5", "-2.0"]
    with pytest.raises(ValueError):
        CFloat(float("inf"), 0)
    with pytest.raises(ValueError):
        CFloat(mpmath.mpc(1, mpmath.nan))


def test_cfloat_rounds_at_the_precision_in_force():
    with mpmath.workprec(200):
        third = mpmath.mpf(1) / 3
        assert CFloat(third).real == third
        assert CFloat(mpmath.mpc(0, third)).imag == third
    with mpmath.workprec(128):
        assert CFloat(third).real == +third != third
        assert CFloat(mpmath.mpc(0, third)).imag == +third
    # embed builds its value inside its own WORKING_PREC + 16 bit block
    e = root_of_unity(3).embed()
    with mpmath.workprec(WORKING_PREC + 16):
        assert +e == e
    with mpmath.workprec(WORKING_PREC):
        assert +e != e
