"""Sparse polynomial engine, Steiner forms, gradients, and the order-3 identities."""

from fractions import Fraction

import json

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerdh import (ConductorMismatch, CycNum, NotDivisible, SparsePoly,
                       build_steiner, canonical_odd_nullvector,
                       distance_quadratic, divide_by_linear,
                       gradient_direct, hessian_direct, order3_form,
                       path_tree, random_tree, root_of_unity, s3_cofactors,
                       s_form, star_tree, steiner_form, verify_euler_identity,
                       verify_not_divisible, verify_product_decomposition,
                       verify_s3_decomposition)
from conftest import tree_corpus
from oracles import (fraction_add, fraction_mul, fraction_partial, fraction_pow,
                     fraction_remainder, fraction_terms, multiset_gradient,
                     multiset_hessian)

X = lambda n, r: SparsePoly.variable(n, r)


# ---------------------------------------------------------------------------
# polynomial engine
# ---------------------------------------------------------------------------

def test_ring_basics():
    x1, x2 = X(2, 1), X(2, 2)
    p = (x1 + x2) ** 3
    assert p.coefficient((2, 1)) == 3
    assert p.total_degree() == 3
    assert (p - p).is_zero()
    assert p * 0 == SparsePoly.zero(2)
    assert (x1 * x2) * Fraction(1, 2) == SparsePoly(2, {(1, 1): Fraction(1, 2)})


def test_partial_examples():
    x1, x2 = X(3, 1), X(3, 2)
    assert (2 * x1 * x2).partial(1) == 2 * x2
    p = SparsePoly(2, {(2, 1): 3, (1, 2): 3})
    assert p.partial(2) == SparsePoly(2, {(2, 0): 3, (1, 1): 6})
    assert (x1 * x2).partial(3).is_zero()


def test_evaluate_examples():
    x1, x2 = X(2, 1), X(2, 2)
    assert (2 * x1 * x2).evaluate([1, -1]) == -2
    sq = SparsePoly(1, {(2,): 1})
    assert sq.evaluate([root_of_unity(4)]) == -1
    with pytest.raises(ConductorMismatch):
        (x1 * x2).evaluate([root_of_unity(4), root_of_unity(8)])
    with pytest.raises(ValueError):
        (x1 * x2).evaluate([1])
    with pytest.raises(TypeError):
        (x1 * x2).evaluate([1, 0.5])


def test_evaluate_rational_and_numeric_agree():
    p = SparsePoly(3, {(2, 1, 0): Fraction(3, 2), (0, 1, 1): -2, (1, 0, 2): 5})
    point = [Fraction(1, 3), Fraction(-2), Fraction(7, 5)]
    exact = p.evaluate(point)
    with mpmath.workprec(150):
        numeric = p.evaluate_numeric(point)
        assert abs(numeric - mpmath.mpf(exact.numerator) / exact.denominator) < 1e-30


def test_json_round_trip_canonical():
    p = SparsePoly(2, {(1, 1): Fraction(2, 3), (2, 0): -1, (0, 0): 5})
    q = SparsePoly.from_json(p.to_json())
    assert q == p
    # graded-lex: degree-2 terms first, then the constant
    exps = [t["exp"] for t in json.loads(p.to_json())["terms"]]
    assert exps == [[2, 0], [1, 1], [0, 0]]


def test_coefficient_type_contract():
    e = (2, 1, 0)
    p = SparsePoly(3, {e: 3, (0, 0, 1): Fraction(-8, 2), (0, 0, 0): Fraction(1, 3)})
    # integral values are stored as int, the rest as Fraction ...
    assert [type(c) for c in p.terms.values()] == [int, int, Fraction]
    assert type((p * Fraction(3)).terms[(0, 0, 0)]) is int
    # ... but coefficient() always hands back a Fraction
    assert type(p.coefficient(e)) is Fraction and p.coefficient(e) == 3
    assert type(p.coefficient((1, 1, 1))) is Fraction
    assert p.coefficient((0, 0, 1)) / 3 == Fraction(-4, 3)
    assert SparsePoly(3, {e: 3}) == SparsePoly(3, {e: Fraction(3)})
    assert SparsePoly(3, {e: 3}) == SparsePoly(3, {e: Fraction(6, 2)}) * 1


def test_to_json_bytes_unchanged():
    integral = SparsePoly(3, {(2, 1, 0): 3, (0, 0, 1): -4, (0, 0, 0): 7})
    assert integral.to_json() == (
        '{"n": 3, "terms": [{"exp": [2, 1, 0], "num": "3", "den": "1"}, '
        '{"exp": [0, 0, 1], "num": "-4", "den": "1"}, '
        '{"exp": [0, 0, 0], "num": "7", "den": "1"}]}')
    mixed = SparsePoly(2, {(1, 1): Fraction(2, 3), (2, 0): -1, (0, 0): Fraction(10, 2)})
    assert mixed.to_json() == (
        '{"n": 2, "terms": [{"exp": [2, 0], "num": "-1", "den": "1"}, '
        '{"exp": [1, 1], "num": "2", "den": "3"}, '
        '{"exp": [0, 0], "num": "5", "den": "1"}]}')
    assert (s_form(2) ** 2 * Fraction(3, 2)).to_json() == (
        '{"n": 2, "terms": [{"exp": [2, 0], "num": "3", "den": "2"}, '
        '{"exp": [1, 1], "num": "3", "den": "1"}, '
        '{"exp": [0, 2], "num": "3", "den": "2"}]}')


def test_pow_matches_repeated_product_and_stops_at_the_power(monkeypatch):
    p = s_form(3) + X(3, 2) * Fraction(1, 2) - 2
    degrees = []
    mul = SparsePoly.__mul__

    def recording_mul(a, b):
        out = mul(a, b)
        degrees.append(out.total_degree())
        return out

    monkeypatch.setattr(SparsePoly, "__mul__", recording_mul)
    repeated = SparsePoly.constant(3, 1)
    for e in range(6):
        degrees.clear()
        assert p ** e == repeated
        # no square beyond p^e is built (it used to square once more)
        assert max(degrees, default=0) <= e
        repeated = mul(repeated, p)
    with pytest.raises(ValueError):
        p ** -1


_coeffs = st.one_of(st.integers(-6, 6),
                    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4)))


@st.composite
def _polys(draw, n, max_terms=5, max_exp=3):
    """(n, SparsePoly) with mixed int, integral-Fraction and Fraction coefficients."""
    exps = st.tuples(*[st.integers(0, max_exp)] * n)
    return SparsePoly(n, draw(st.dictionaries(exps, _coeffs, max_size=max_terms)))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 4))
def test_ring_ops_match_fraction_dict_oracle(data, n):
    p, q = data.draw(_polys(n)), data.draw(_polys(n))
    fp, fq = fraction_terms(p), fraction_terms(q)
    c = data.draw(_coeffs)
    e = data.draw(st.integers(0, 3))
    r = data.draw(st.integers(1, n))
    assert fraction_terms(p * q) == fraction_mul(fp, fq)
    assert fraction_terms(p + q) == fraction_add(fp, fq)
    assert fraction_terms(p - q) == fraction_add(fp, {k: -v for k, v in fq.items()})
    assert fraction_terms(p * c) == fraction_mul(fp, {(0,) * n: Fraction(c)})
    assert fraction_terms(p ** e) == fraction_pow(fp, n, e)
    assert fraction_terms(p.partial(r)) == fraction_partial(fp, r)
    for result in (p * q, p + q, p * c, p ** e, p.partial(r)):
        assert all(v != 0 and (type(v) is int or v.denominator != 1)
                   for v in result.terms.values())


@st.composite
def _linear_forms(draw, n):
    coeffs = draw(st.lists(_coeffs, min_size=n, max_size=n).filter(any))
    return SparsePoly(n, {tuple(int(i == j) for i in range(n)): c
                          for j, c in enumerate(coeffs)})


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 4))
def test_divide_by_linear_matches_substitution_oracle(data, n):
    s, q, p = data.draw(_linear_forms(n)), data.draw(_polys(n)), data.draw(_polys(n))
    assert divide_by_linear(s * q, s) == q
    res = divide_by_linear(p, s)
    remainder = fraction_remainder(fraction_terms(p), fraction_terms(s), n)
    if remainder:
        assert isinstance(res, NotDivisible)
        assert fraction_terms(res.remainder) == remainder
    else:
        assert fraction_terms(s * res) == fraction_terms(p)


# ---------------------------------------------------------------------------
# steiner_form
# ---------------------------------------------------------------------------

def test_steiner_form_examples(k2):
    f2 = steiner_form(build_steiner(k2, 2))
    assert f2 == 2 * X(2, 1) * X(2, 2)
    f3 = steiner_form(build_steiner(k2, 3))
    x1, x2 = X(2, 1), X(2, 2)
    assert f3 == SparsePoly(2, {(2, 1): 3, (1, 2): 3})
    assert f3 == (x1 + x2) ** 3 - x1 ** 3 - x2 ** 3


def test_two_vertex_closed_form_all_orders(k2):
    x1, x2 = X(2, 1), X(2, 2)
    for k in range(2, 8):
        assert steiner_form(build_steiner(k2, k)) == (x1 + x2) ** k - x1 ** k - x2 ** k


def test_steiner_form_zero_matrix(k2):
    from steinerdh import zero_degenerate
    hz = zero_degenerate(build_steiner(k2, 3))
    assert steiner_form(hz).is_zero()


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradient_examples(k2, path3):
    y = canonical_odd_nullvector(path3, 3)
    grads = gradient_direct(path3, 3, y)
    assert all(g.is_zero() for g in grads)
    assert gradient_direct(k2, 3, [Fraction(1), Fraction(1)]) == [9, 9]
    zeros = gradient_direct(random_tree(5, 1), 4, [Fraction(0)] * 5)
    assert all(g == 0 for g in zeros)


def test_gradient_direct_matches_polynomial_route():
    import numpy as np
    rng = np.random.default_rng(2024)
    for seed in range(4):
        n = 4 + seed % 3
        t = random_tree(n, seed + 9)
        for k in (2, 3, 4, 5):
            p = steiner_form(build_steiner(t, k))
            for _ in range(3):
                point = [Fraction(int(rng.integers(-4, 5))) for _ in range(n)]
                expected = [p.partial(r).evaluate(point) for r in range(1, n + 1)]
                assert gradient_direct(t, k, point) == expected, (seed, k, point)


def test_gradient_direct_matches_polynomial_route_cyclotomic():
    i = root_of_unity(4)
    point = [1 + i, CycNum.from_rational(-2, 4), i, CycNum.zero(4), 3 * i - 1]
    t = random_tree(5, 77)
    for k in (3, 4):
        p = steiner_form(build_steiner(t, k))
        expected = [p.partial(r).evaluate(point) for r in range(1, 6)]
        assert gradient_direct(t, k, point) == expected


def _oracle_trees(n: int) -> list:
    """Path, star and one random labeling: covers n = 1 and n = 2 too."""
    return [path_tree(n), star_tree(n), random_tree(n, 40 + n)]


def test_gradient_direct_matches_multiset_oracle_rational():
    rng = np.random.default_rng(7)
    for n in range(1, 9):
        for t in _oracle_trees(n):
            for k in range(2, 8):
                point = [Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
                         for _ in range(n)]
                assert gradient_direct(t, k, point) == multiset_gradient(t, k, point), \
                    (t, k, point)


def test_gradient_direct_matches_multiset_oracle_cyclotomic():
    rng = np.random.default_rng(8)
    for n in range(1, 9):
        t = random_tree(n, 60 + n)
        for k in range(2, 8):
            m = (3, 4, 2 * k - 2)[k % 3]
            zeta = root_of_unity(m)
            point = [int(rng.integers(-2, 3)) + int(rng.integers(-2, 3)) * zeta
                     for _ in range(n)]
            grad = gradient_direct(t, k, point)
            assert all(isinstance(g, CycNum) and g.m == m for g in grad)
            assert grad == multiset_gradient(t, k, point), (t, k, point)


def test_numeric_gradient_and_hessian_match_multiset_oracle():
    rng = np.random.default_rng(9)
    with mpmath.workprec(128):
        tol = mpmath.mpf(10) ** -30
        for n in range(1, 7):
            for t in _oracle_trees(n):
                for k in range(2, 6):
                    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                    z /= np.linalg.norm(z)
                    point = [mpmath.mpc(c.real, c.imag) for c in z]
                    grad = gradient_direct(t, k, point)
                    want = multiset_gradient(t, k, point)
                    assert max(abs(g - w) for g, w in zip(grad, want)) < tol, (t, k)
                    hess = hessian_direct(t, k, point)
                    want_h = multiset_hessian(t, k, point)
                    assert max(abs(hess[q][r] - want_h[q][r])
                               for q in range(n) for r in range(n)) < tol, (t, k)


def test_hessian_direct_complex128_matches_mpc():
    rng = np.random.default_rng(13)
    with mpmath.workprec(128):
        for n in range(1, 7):
            for t in _oracle_trees(n):
                for k in range(2, 7):
                    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                    z /= np.linalg.norm(z)
                    hess = hessian_direct(t, k, z)
                    assert isinstance(hess, np.ndarray) and hess.dtype == np.complex128
                    want = np.array(hessian_direct(t, k, [mpmath.mpc(c) for c in z]),
                                    dtype=complex)
                    scale = max(np.abs(want).max(), 1.0)
                    assert np.abs(hess - want).max() <= 1e-12 * scale, (t, k)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10 ** 6), st.integers(2, 4),
       st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(lambda q: q != 0))
def test_homogeneity(n, seed, k, lam):
    t = random_tree(n, seed)
    p = steiner_form(build_steiner(t, k))
    point = [Fraction(j % 3 - 1, 1 + (j % 2)) for j in range(n)]
    scaled = [lam * x for x in point]
    assert p.evaluate(scaled) == lam ** k * p.evaluate(point)


def test_finite_difference_gradient():
    t = random_tree(5, 4)
    k = 3
    p = steiner_form(build_steiner(t, k))
    point = [0.7, -1.3, 0.4, 1.9, -0.2]
    grads = gradient_direct(t, k, [mpmath.mpf(x) for x in point])
    h = 1e-6
    for r in range(5):
        up = list(point)
        dn = list(point)
        up[r] += h
        dn[r] -= h
        fd = (p.evaluate_numeric(up) - p.evaluate_numeric(dn)) / (2 * h)
        denom = max(1.0, abs(grads[r]))
        assert abs(fd - grads[r]) / denom < 1e-6


def test_hessian_direct_matches_polynomial_route():
    t = random_tree(4, 12)
    k = 3
    p = steiner_form(build_steiner(t, k))
    with mpmath.workprec(128):
        point = [mpmath.mpc(0.3, -0.2), mpmath.mpc(-1.1, 0.5),
                 mpmath.mpc(0.9, 0.1), mpmath.mpc(0.2, 1.4)]
        hess = hessian_direct(t, k, point)
        for z in range(1, 5):
            for r in range(1, 5):
                expected = p.partial(z).partial(r).evaluate_numeric(point)
                assert abs(hess[z - 1][r - 1] - expected) < 1e-25


# ---------------------------------------------------------------------------
# division by linear forms
# ---------------------------------------------------------------------------

def test_divide_examples(path3):
    q = divide_by_linear(order3_form(path3), s_form(3))
    g = distance_quadratic(path3)
    assert q == g
    assert g == SparsePoly(3, {(1, 1, 0): 3, (0, 1, 1): 3, (1, 0, 1): 6})
    res = divide_by_linear(SparsePoly(2, {(2, 0): 1}), s_form(2))
    assert isinstance(res, NotDivisible)
    assert not res.remainder.is_zero()
    assert divide_by_linear(SparsePoly.zero(3), s_form(3)) == SparsePoly.zero(3)


def test_divide_general_linear_forms():
    # (2x1 - x3) * (x1^2 + x2*x3 + 4) recovered by division
    n = 3
    s = SparsePoly(n, {(1, 0, 0): 2, (0, 0, 1): -1})
    q = SparsePoly(n, {(2, 0, 0): 1, (0, 1, 1): 1, (0, 0, 0): 4})
    assert divide_by_linear(s * q, s) == q
    with pytest.raises(ValueError):
        divide_by_linear(q, q)  # not linear
    with pytest.raises(ValueError):
        divide_by_linear(q, SparsePoly.zero(n))


def test_divide_when_pivot_variable_absent():
    # x2^2 has no x3 at all, yet the divisor pivots on x3: the remainder is
    # the substitution of the pivot, which must come back nonzero
    p = SparsePoly(3, {(0, 2, 0): Fraction(1)})
    res = divide_by_linear(p, s_form(3))
    assert isinstance(res, NotDivisible)
    assert not res.remainder.is_zero()


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10 ** 6))
def test_divide_round_trip_random(n, seed):
    t = random_tree(n, seed)
    p = order3_form(t)
    q = divide_by_linear(p, s_form(n))
    assert isinstance(q, SparsePoly)
    assert s_form(n) * q == p


# ---------------------------------------------------------------------------
# order-3 identity suite
# ---------------------------------------------------------------------------

def test_identities_on_named_trees(path3, star4):
    for t in (path3, star4, star_tree(5), random_tree(7, 3)):
        assert verify_product_decomposition(t)
        assert verify_euler_identity(t)
        assert verify_s3_decomposition(t)
        assert verify_not_divisible(t)


def test_identities_on_corpus():
    for t in tree_corpus(15, 2, 8, seed0=300):
        assert verify_product_decomposition(t)
        assert verify_euler_identity(t)
        assert verify_s3_decomposition(t)
        assert verify_not_divisible(t)


def test_unscaled_degree_cofactors_give_exactly_three_s_cubed():
    # The cofactors ((2-d_r)s - (2/3)x_r)/(n-1), without the extra 1/3,
    # satisfy sum_r f_r D_r p = 3*s^3 exactly -- hence the 1/(3(n-1))
    # normalization in s3_cofactors.
    for t in tree_corpus(8, 2, 7, seed0=80):
        n = t.n
        p = order3_form(t)
        s = s_form(n)
        total = SparsePoly.zero(n)
        for r in range(1, n + 1):
            f_unscaled = (s * Fraction(2 - t.degrees[r])
                          - SparsePoly.variable(n, r) * Fraction(2, 3)) * Fraction(1, n - 1)
            total = total + f_unscaled * p.partial(r)
        assert total == 3 * s ** 3
        assert total != s ** 3


def test_s3_cofactors_satisfy_the_identity_in_fractions():
    # verify_s3_decomposition checks the integer multiple 9(n-1) of this identity
    for t in tree_corpus(8, 2, 9, seed0=500):
        p = order3_form(t)
        total = SparsePoly.zero(t.n)
        for r, f in enumerate(s3_cofactors(t), start=1):
            total = total + f * p.partial(r)
        assert total == s_form(t.n) ** 3
        assert verify_s3_decomposition(t)


def test_order3_form_cache_follows_the_tree():
    a, b = random_tree(6, 1), random_tree(6, 2)
    assert order3_form(a) is order3_form(a)
    assert order3_form(b) == steiner_form(build_steiner(b, 3))
    assert order3_form(a) == steiner_form(build_steiner(a, 3)) != order3_form(b)


def test_s3_cofactors_structure():
    t = random_tree(6, 2)
    fs = s3_cofactors(t)
    assert len(fs) == 6
    assert all(f.total_degree() == 1 for f in fs)
