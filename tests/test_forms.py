"""Sparse polynomial engine, Steiner forms, gradients, and the order-3 identities."""

from fractions import Fraction
from itertools import permutations

import json

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerdh import forms
from steinerdh.cli import identity_rows
from steinerdh import (ConductorMismatch, CycNum, Hypermatrix, MalformedInput,
                       SparsePoly, build_steiner, canonical_odd_nullvector,
                       enumerate_trees, gradient_direct, hessian_direct,
                       order3_tensor, path_tree, random_tree, root_of_unity,
                       star_tree, steiner_form, verify_form_divisible,
                       verify_not_divisible, verify_product_decomposition,
                       verify_s3_decomposition)
from conftest import tree_corpus
from oracles import (NotDivisible, distance_quadratic, divide_by_linear,
                     edge_cut_hessian, evaluate, fraction_add,
                     fraction_mul, fraction_partial, fraction_pow,
                     fraction_remainder, fraction_terms, index_tuple_form,
                     multiset_gradient, multiset_hessian, order3_form,
                     order3_rows_by_polynomials, partials_not_divisible_by_division,
                     s3_cofactors, s_form, substitute)

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
    assert evaluate(2 * x1 * x2, [1, -1]) == -2
    sq = SparsePoly(1, {(2,): 1})
    assert evaluate(sq, [root_of_unity(4)]) == -1
    # the exact gradient refuses mixed fields, wrong lengths and orders below 2,
    # and the Hessian wrong lengths and orders below 2
    with pytest.raises(ConductorMismatch):
        gradient_direct(path_tree(2), 3, [root_of_unity(4), root_of_unity(8)])
    for call in (gradient_direct, hessian_direct):
        with pytest.raises(ValueError):
            call(path_tree(2), 3, [1])
        with pytest.raises(ValueError):
            call(path_tree(2), 1, [1, 1])


def test_evaluate_rational_and_numeric_agree():
    p = SparsePoly(3, {(2, 1, 0): Fraction(3, 2), (0, 1, 1): -2, (1, 0, 2): 5})
    point = [Fraction(1, 3), Fraction(-2), Fraction(7, 5)]
    exact = evaluate(p, point)
    with mpmath.workprec(150):
        numeric = evaluate(p, [mpmath.mpmathify(x) for x in point], 150)
        assert abs(numeric - mpmath.mpf(exact.numerator) / exact.denominator) < 1e-30


def test_json_round_trip_canonical():
    p = SparsePoly(2, {(1, 1): Fraction(2, 3), (2, 0): -1, (0, 0): 5})
    q = SparsePoly.from_json(p.to_json())
    assert q == p
    # graded-lex: degree-2 terms first, then the constant
    exps = [t["exp"] for t in json.loads(p.to_json())["terms"]]
    assert exps == [[2, 0], [1, 1], [0, 0]]


@pytest.mark.parametrize("text", [
    '{"n": 1, "terms": [{"exp": [1], "num": "1", "den": "0"}]}',   # zero denominator
    '{"n": 1, "terms": [{"exp": [1], "num": "1"}]}',               # missing key
    '{"terms": []}',
    '{"n": 1}',
    '{"n": 1, "terms": [{"exp": [1, 2], "num": "1", "den": "1"}]}',  # wrong shape
    '{"n": 1, "terms": [{"exp": ["1"], "num": "1", "den": "1"}]}',
    '{"n": "1", "terms": []}',
    '{"n": true, "terms": [{"exp": [true], "num": "1", "den": "1"}]}',  # booleans
    '{"n": 1, "terms": [{"exp": [true], "num": "1", "den": "1"}]}',
    '{"n": 2, "terms": [{"exp": [false, true], "num": "1", "den": "1"}]}',
    '{"n": 1, "terms": [{"exp": [1.0], "num": "1", "den": "1"}]}',
    '{"n": 1, "terms": [{"exp": [1], "num": "1_0", "den": "1"}]}',  # not decimal
    '{"n": 1, "terms": [{"exp": [1], "num": "+1", "den": "1"}]}',
    '[]',
    'not json',
])
def test_from_json_rejects_malformed_documents(text):
    with pytest.raises(MalformedInput):
        SparsePoly.from_json(text)


def test_from_json_takes_exponents_past_65535():
    # an exponent has no cap: 70000 round-trips byte for byte, while negative,
    # boolean, float and wrong-length exponents are still refused
    text = '{"n": 1, "terms": [{"exp": [70000], "num": "1", "den": "1"}]}'
    p = SparsePoly.from_json(text)
    assert p.terms == {(70000,): 1} and p.total_degree() == 70000
    assert p.to_json() == text and SparsePoly.from_json(p.to_json()) == p
    assert p == SparsePoly(1, {(70000,): 1})
    for exp in ("[-1]", "[true]", "[1.0]", "[1, 2]", "[]"):
        with pytest.raises(MalformedInput):
            SparsePoly.from_json(text.replace("[70000]", exp))


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


def test_coefficient_of_a_malformed_exponent_vector_is_zero():
    # a probe is looked up as a tuple, so negative, out-of-range and
    # wrong-length vectors miss every monomial of p
    p = SparsePoly(2, {(1, 0): 3, (0, 65535): 5, (0, 0): 7})
    for exp in ((1, -1), (0, 1 << 16), (-1, 0), (1,), (1, 0, 0), (), (0, 0, 0)):
        assert type(p.coefficient(exp)) is Fraction and p.coefficient(exp) == 0, exp
    assert p.coefficient((0, 65535)) == 5 and p.coefficient((1, 0)) == 3
    assert SparsePoly.constant(0, 4).coefficient(()) == 4


def test_terms_is_a_fresh_tuple_keyed_dict():
    p = SparsePoly(3, {(2, 1, 0): 3, (0, 0, 1): Fraction(-8, 2), (0, 0, 0): Fraction(1, 3)})
    q = SparsePoly.from_json(p.to_json())
    terms = p.terms
    assert all(type(e) is tuple and len(e) == 3 for e in terms)
    assert terms == {(2, 1, 0): 3, (0, 0, 1): -4, (0, 0, 0): Fraction(1, 3)}
    terms[(1, 1, 1)] = 9
    terms[(2, 1, 0)] = 0
    del terms[(0, 0, 1)]
    assert p == q and p.terms == q.terms and p.coefficient((1, 1, 1)) == 0
    for result in (p, p * p, p + X(3, 1), p.partial(1)):
        assert all(type(e) is tuple for e in result.terms)
        assert all(type(v) is int or (type(v) is Fraction and v.denominator != 1)
                   for v in result.terms.values())


def test_constructor_takes_rational_coefficients_only():
    for bad in (0.1, 0.0, "1/3", 1 + 0j, None):
        with pytest.raises(TypeError):
            SparsePoly(1, {(1,): bad})
    p = SparsePoly(2, {(1, 0): True, (0, 1): np.int64(-3), (0, 0): Fraction(4, 2)})
    assert [type(v) for v in p.terms.values()] == [int, int, int]
    assert p == X(2, 1) - 3 * X(2, 2) + 2


def test_constructor_refuses_bool_exponents():
    # True would read as exponent 1 through operator.index; from_json refuses
    # the same key as [true], so both entry points refuse a bool
    for exp in ((True,), (False,)):
        with pytest.raises(TypeError):
            SparsePoly(1, {exp: 1})
    with pytest.raises(TypeError):
        SparsePoly(2, {(1, np.True_): 1})
    with pytest.raises(MalformedInput):
        SparsePoly.from_json('{"n": 1, "terms": [{"exp": [true], "num": "1", "den": "1"}]}')
    assert SparsePoly(1, {(1,): 1}) == X(1, 1)


def test_exponents_pass_65535():
    # exponents have no cap: 65536 and beyond neither raise nor carry into
    # the neighbouring variable
    x1, x2 = X(2, 1), X(2, 2)
    f1, f2 = fraction_terms(x1), fraction_terms(x2)
    top = x1 ** 65535
    assert top.terms == {(65535, 0): 1} and top.total_degree() == 65535
    assert fraction_terms(top * x1) == fraction_mul(fraction_terms(top), f1) \
        == {(65536, 0): 1}
    assert fraction_terms(x1 ** 65536) == fraction_terms(top * x1)
    assert (x1 ** 65536).total_degree() == 65536
    big = SparsePoly(2, {(0, 65536): 3, (65536, 65536): Fraction(1, 2)})
    assert fraction_terms(big) == {(0, 65536): 3, (65536, 65536): Fraction(1, 2)}
    assert big.coefficient((0, 65536)) == 3 and big.coefficient((0, 0)) == 0
    assert fraction_terms(big * x2) == fraction_mul(fraction_terms(big), f2)
    assert fraction_terms(big.partial(1)) == {(65535, 65536): 32768}
    wide = (top + x2) * x2 ** 65536
    assert fraction_terms(wide) == fraction_mul(fraction_terms(top + x2),
                                                fraction_terms(x2 ** 65536)) \
        == {(65535, 65536): 1, (0, 65537): 1}
    # negative, float and wrong-length exponents are still refused
    for exp in ((-1, 0), (0,), (0, 0, 0)):
        with pytest.raises(ValueError):
            SparsePoly(2, {exp: 1})
    with pytest.raises(TypeError):
        SparsePoly(2, {(1.0, 0): 1})


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


_points = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 12))
def test_ring_ops_match_fraction_dict_oracle(data, n):
    p, q = data.draw(_polys(n)), data.draw(_polys(n))
    fp, fq = fraction_terms(p), fraction_terms(q)
    c = data.draw(_coeffs)
    e = data.draw(st.integers(0, 3))
    r = data.draw(st.integers(1, n))
    # fraction_mul adds exponent tuples as SparsePoly does; values at a
    # rational point share no key arithmetic with either
    x = data.draw(st.lists(_points, min_size=n, max_size=n))
    assert evaluate(p * q, x) == evaluate(p, x) * evaluate(q, x)
    assert evaluate(p + q, x) == evaluate(p, x) + evaluate(q, x)
    assert evaluate(p ** e, x) == evaluate(p, x) ** e
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
def _near_65535(draw, n):
    """A nonzero SparsePoly whose exponents of each variable all lie in
    [0, 535] or all in [65000, 65535]."""
    high = draw(st.tuples(*[st.booleans()] * n))
    exps = st.tuples(*[st.integers(65000, 65535) if h else st.integers(0, 535)
                       for h in high])
    return SparsePoly(n, draw(st.dictionaries(exps, _coeffs.filter(bool),
                                              min_size=1, max_size=4)))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 4))
def test_products_past_65535_match_the_oracle(data, n):
    # a variable drawn high in both factors reaches [130000, 131070] in the
    # product
    p, q = data.draw(_near_65535(n)), data.draw(_near_65535(n))
    fp, fq = fraction_terms(p), fraction_terms(q)
    assert fraction_terms(p * q) == fraction_mul(fp, fq)
    assert (p * q).total_degree() == max(map(sum, fraction_mul(fp, fq)), default=0)
    r = data.draw(st.integers(1, n))
    assert fraction_terms(p + q) == fraction_add(fp, fq)
    assert fraction_terms(-p) == {e: -c for e, c in fp.items()}
    assert fraction_terms(p.partial(r)) == fraction_partial(fp, r)


@st.composite
def _linear_forms(draw, n):
    coeffs = draw(st.lists(_coeffs, min_size=n, max_size=n).filter(any))
    return SparsePoly(n, {tuple(int(i == j) for i in range(n)): c
                          for j, c in enumerate(coeffs)})


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 12))
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


def test_steiner_form_matches_the_sum_over_all_index_tuples():
    cases = [(t, k) for n in range(1, 7) for t in enumerate_trees(n) for k in range(2, 6)]
    cases.append((random_tree(16, 11), 3))
    for t, k in cases:
        h = build_steiner(t, k)
        assert fraction_terms(steiner_form(h)) == index_tuple_form(h), (t, k)
    # any hypermatrix, symmetric or not: random integer tensors, the zero
    # tensor, n = 1, and entries of +-2^62 whose multiset sums leave int64
    rng = np.random.default_rng(14)
    tensors = [np.zeros((3,) * 3, dtype=np.int64), np.full((1,) * 4, 7)]
    for n in range(1, 5):
        for k in range(2, 5):
            tensors.append(rng.integers(-9, 10, size=(n,) * k))
            tensors.append(rng.choice([0, 2 ** 62, -2 ** 62, 3], size=(n,) * k))
    for arr in tensors:
        h = Hypermatrix(arr.ndim, arr.shape[0], arr)
        assert fraction_terms(steiner_form(h)) == index_tuple_form(h), arr
    assert steiner_form(Hypermatrix(3, 2, np.full((2,) * 3, 2 ** 62))) \
        == SparsePoly(2, {(3, 0): 2 ** 62, (2, 1): 3 * 2 ** 62, (1, 2): 3 * 2 ** 62,
                          (0, 3): 2 ** 62})


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


def test_gradient_of_an_integer_array_is_exact():
    # Python ints throughout: the values pass 2^53 and 2^63
    for t, k, point in ((path_tree(3), 5, [2 ** 40, 1, 0]),
                        (random_tree(7, 3), 7, [3 ** 20, -5, 0, 7, 2 ** 33, -1, 0])):
        grads = gradient_direct(t, k, np.array(point))
        assert grads == gradient_direct(t, k, point) == multiset_gradient(t, k, point)
        assert all(type(g) is int for g in grads)


def test_gradient_of_a_list_of_numpy_integers_is_exact():
    # a plain list of int64 entries is read exactly, not multiplied in int64
    t = path_tree(3)
    grads = gradient_direct(t, 5, [np.int64(2 ** 40), 1, 0])
    assert grads[0] == 26584559915734585232664602071080632325
    assert grads == gradient_direct(t, 5, [2 ** 40, 1, 0])
    assert all(type(g) is int for g in grads)


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
                expected = [evaluate(p.partial(r), point) for r in range(1, n + 1)]
                assert gradient_direct(t, k, point) == expected, (seed, k, point)


def test_gradient_direct_matches_polynomial_route_cyclotomic():
    i = root_of_unity(4)
    point = [1 + i, CycNum.from_rational(-2, 4), i, CycNum.zero(4), 3 * i - 1]
    t = random_tree(5, 77)
    for k in (3, 4):
        p = steiner_form(build_steiner(t, k))
        expected = [evaluate(p.partial(r), point) for r in range(1, 6)]
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


def _zero_rich_points(n: int, k: int, rng) -> list:
    """Points whose far sums are often exactly zero: Fraction unit vectors
    (s = 1), sparse Q(zeta_m) points with s = 0 and with s != 0, complex128
    arrays with exact-zero coordinates, and points whose last coordinate is
    minus the sum of the others (s = 0, the short path at odd k) in int,
    Fraction, Q(zeta_m) and complex128 with integral parts."""
    m = 2 * k - 2
    zeta = root_of_unity(m)
    points = [[Fraction(int(v == r)) for v in range(n)] for r in range(n)]
    for values in ([1, -1 - zeta, zeta], [zeta, -zeta], [2, zeta - 1]):
        support = rng.choice(n, size=min(n, len(values)), replace=False)
        point = [CycNum.zero(m)] * n
        for v, value in zip(support, values):
            point[v] = value
        points.append(point)
    for _ in range(2):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z[rng.random(n) < 0.5] = 0
        points.append(z)
    for lift in (lambda a, b: a, lambda a, b: Fraction(a, 3 + b),
                 lambda a, b: a + b * zeta, complex):
        pairs = rng.integers(-2, 3, size=(n, 2))
        pairs[rng.random(n) < 0.5] = 0
        point = [lift(int(a), int(b)) for a, b in pairs]
        point[-1] = -sum(point[:-1], lift(0, 0))
        points.append(np.array(point) if lift is complex else point)
    return points


def test_gradient_direct_matches_multiset_oracle_at_zero_rich_points():
    rng = np.random.default_rng(11)
    with mpmath.workprec(128):
        tol = mpmath.mpf(10) ** -30
        for n in range(1, 8):
            for t in enumerate_trees(n):
                for k in range(2, 8):
                    for point in _zero_rich_points(n, k, rng):
                        grad = gradient_direct(t, k, point)
                        if not isinstance(point, np.ndarray):
                            assert grad == multiset_gradient(t, k, point), (t, k, point)
                            continue
                        exact = [mpmath.mpc(c) for c in point]
                        want = multiset_gradient(t, k, exact)
                        assert all(type(g) is complex for g in grad)
                        scale = max(1, max(abs(w) for w in want))
                        assert max(abs(g - w) for g, w in zip(grad, want)) \
                            <= 1e-12 * scale, (t, k, point)
                        got = gradient_direct(t, k, exact)
                        assert max(abs(g - w) for g, w in zip(got, want)) < tol, (t, k)


@pytest.mark.parametrize("k", [3, 9])
def test_gradient_direct_work_on_the_canonical_point_does_not_grow_with_n(
        monkeypatch, k):
    # the canonical certificate has s = 0 at odd k, so the gradient takes one
    # power per nonzero far sum (two) and no step; the point is read with one
    # truth test per coordinate, after which its zeros are ints, so the other
    # CycNum truth tests stay a handful; s and the far sums add only nonzero
    # values, and u + v + w = 0 above the support, so the additions do too
    truths, powers, subtractions, additions = [], [], [], []
    real_bool, real_pow = CycNum.__bool__, CycNum.__pow__
    real_sub, real_add = CycNum.__sub__, CycNum.__add__

    def counting_bool(x):
        truths.append(x)
        return real_bool(x)

    def counting_pow(x, e):
        powers.append(x)
        return real_pow(x, e)

    def counting_sub(x, y):
        subtractions.append(x)
        return real_sub(x, y)

    def counting_add(x, y):
        additions.append(x)
        return real_add(x, y)

    monkeypatch.setattr(CycNum, "__bool__", counting_bool)
    monkeypatch.setattr(CycNum, "__pow__", counting_pow)
    monkeypatch.setattr(CycNum, "__sub__", counting_sub)
    monkeypatch.setattr(CycNum, "__add__", counting_add)
    monkeypatch.setattr(CycNum, "__radd__", counting_add)
    counts = set()
    for n in (40, 2000):
        for t in (path_tree(n), star_tree(n), random_tree(n, 5)):
            point = canonical_odd_nullvector(t, k)
            for work in (truths, powers, subtractions, additions):
                work.clear()
            grad = gradient_direct(t, k, point)
            assert len(truths) <= n + 16, (n, len(truths))
            assert len(grad) == n and all(g.is_zero() for g in grad)
            counts.add((len(powers), len(subtractions), len(additions)))
    assert len(counts) == 1, counts
    power_count, subtraction_count, addition_count = counts.pop()
    assert power_count <= 3 and subtraction_count <= 1 and addition_count <= 8


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
                    hess = edge_cut_hessian(t, k, point)
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
                    want = np.array(edge_cut_hessian(t, k, [mpmath.mpc(c) for c in z]),
                                    dtype=complex)
                    scale = max(np.abs(want).max(), 1.0)
                    assert np.abs(hess - want).max() <= 1e-12 * scale, (t, k)


def test_hessian_times_point_is_k_minus_1_gradient_exactly():
    # Euler for a form of degree k - 1: H x = (k-1) grad p, the identity the
    # float64 search reads its gradient by.  Checked in Fractions on every
    # class with n <= 6, against the brute-force multiset gradient.
    rng = np.random.default_rng(23)
    for n in range(1, 7):
        for t in enumerate_trees(n):
            for k in range(2, 8):
                point = [Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
                         for _ in range(n)]
                hess = edge_cut_hessian(t, k, point)
                want = multiset_gradient(t, k, point)
                assert [sum(h * x for h, x in zip(row, point)) for row in hess] \
                    == [(k - 1) * g for g in want], (t, k, point)


def test_hessian_direct_times_point_matches_gradient_direct():
    rng = np.random.default_rng(29)
    for n in (1, 2, 3, 7, 12, 25, 40):
        for t in _oracle_trees(n):
            for k in range(2, 8):
                z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                z /= np.linalg.norm(z)
                euler = hessian_direct(t, k, z) @ z / (k - 1)
                want = np.array(gradient_direct(t, k, z))
                scale = max(np.abs(want).max(), 1e-300)
                assert np.abs(euler - want).max() <= 1e-12 * scale, (t, k)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10 ** 6), st.integers(2, 4),
       st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(lambda q: q != 0))
def test_homogeneity(n, seed, k, lam):
    t = random_tree(n, seed)
    p = steiner_form(build_steiner(t, k))
    point = [Fraction(j % 3 - 1, 1 + (j % 2)) for j in range(n)]
    scaled = [lam * x for x in point]
    assert evaluate(p, scaled) == lam ** k * evaluate(p, point)


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
        fd = (evaluate(p, up) - evaluate(p, dn)) / (2 * h)
        denom = max(1.0, abs(grads[r]))
        assert abs(fd - grads[r]) / denom < 1e-6


def test_hessian_direct_matches_polynomial_route():
    t = random_tree(4, 12)
    k = 3
    p = steiner_form(build_steiner(t, k))
    with mpmath.workprec(128):
        point = [mpmath.mpc(0.3, -0.2), mpmath.mpc(-1.1, 0.5),
                 mpmath.mpc(0.9, 0.1), mpmath.mpc(0.2, 1.4)]
        hess = edge_cut_hessian(t, k, point)
        fast = hessian_direct(t, k, np.array(point, dtype=complex))
        for z in range(1, 5):
            for r in range(1, 5):
                expected = evaluate(p.partial(z).partial(r), point)
                assert abs(hess[z - 1][r - 1] - expected) < 1e-25
                assert abs(fast[z - 1, r - 1] - expected) <= 1e-12 * max(abs(expected), 1)


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

def suite_rows(t, p=None) -> list[bool]:
    """The five order-3 rows of ``cli.identity_rows`` on the tensor P, which is
    ``order3_tensor(t)`` unless a stand-in is given; as in the report, the
    Euler row is the product row."""
    p = order3_tensor(t) if p is None else p
    product = verify_product_decomposition(p, t.distances())
    return [product, product, verify_s3_decomposition(p, t.degrees[1:]), *divisibility_rows(p)]


def divisibility_rows(p: np.ndarray) -> tuple[bool, bool]:
    """The report's two divisibility rows from its shared helper, checked to
    be exactly ``verify_not_divisible`` and ``verify_form_divisible`` and the
    rows of the four-slice restriction of P to s = 0."""
    rows = forms._divisibility(p)
    assert rows[0] is verify_not_divisible(p) and rows[1] is verify_form_divisible(p)
    q = p[:, :-1, :-1] - p[:, :-1, -1:] - p[:, -1:, :-1] + p[:, -1:, -1:]
    assert rows == (bool(q.reshape(len(p), -1).any(axis=1).all()), not (q[:-1] - q[-1:]).any())
    return rows


def hypermatrix_of(p: SparsePoly) -> np.ndarray:
    """Entries of an order-3 hypermatrix whose form is the cubic p: each
    coefficient on its monomial's sorted index tuple, every other entry 0."""
    entries = np.zeros((p.n,) * 3, dtype=np.int64)
    for exp, c in p.terms.items():
        entries[tuple(i for i, e in enumerate(exp) for _ in range(e))] = c
    return entries


def stand_in(entries: np.ndarray) -> np.ndarray:
    """The tensor P of stand-in order-3 hypermatrix entries: the sum of their
    six axis permutations, in int64 whatever their dtype."""
    entries = entries.astype(np.int64)
    return sum(entries.transpose(axes) for axes in permutations(range(3)))


def test_identities_on_named_trees(path3, star4):
    for t in (path3, star4, star_tree(5), random_tree(7, 3)):
        assert suite_rows(t) == [True, True, True, True, True]


def test_identities_on_corpus():
    for t in tree_corpus(15, 2, 8, seed0=300):
        assert suite_rows(t) == [True, True, True, True, True]


def test_tensor_rows_match_the_polynomial_oracle():
    trees = [t for n in range(2, 9) for t in enumerate_trees(n)]
    trees += [random_tree(2 + i % 29, 700 + i) for i in range(50)]
    for t in trees:
        p = steiner_form(build_steiner(t, 3))
        assert suite_rows(t) == order3_rows_by_polynomials(t, p) == [True] * 5, t


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
        assert verify_s3_decomposition(order3_tensor(t), t.degrees[1:])


def test_suite_needs_two_vertices():
    with pytest.raises(ValueError):
        order3_tensor(path_tree(1))


def test_product_row_compares_shapes():
    # P of a smaller tree against D of a larger one: unequal, neither broadcast nor raised
    p, d = order3_tensor(path_tree(4)), path_tree(5).distances()
    assert verify_product_decomposition(p, d) is False


def test_product_row_reads_a_narrow_d_in_int64():
    # at n = 100, D is uint8 and 6(n - 1) > 255, so 3D and L(1, 3D) would wrap
    # in D's own dtype; the int64 copy of D gives the same answer
    t = path_tree(100)
    p, d = order3_tensor(t), build_steiner(t, 2).entries
    assert d.dtype == t.distances().dtype == np.uint8
    assert verify_product_decomposition(p, d) is True
    assert verify_product_decomposition(p, t.distances()) is True
    assert verify_product_decomposition(p, d.astype(np.int64)) is True
    bad = d.copy()
    bad[3, 97] = bad[97, 3] = int(d[3, 97]) - 1
    assert verify_product_decomposition(p, bad) is False


def test_every_row_has_a_mutant_that_fails_it():
    # one stray x1 x2 x3 breaks p = s*g and everything derived from it; a form
    # whose partials are all multiples of s breaks the non-divisibility row
    t = random_tree(6, 3)
    p = order3_form(t)
    stray = p + X(6, 1) * X(6, 2) * X(6, 3)
    all_divisible = s_form(6) ** 2 * (X(6, 1) + 2 * X(6, 4))
    for row, mutant in enumerate([stray, stray, stray, all_divisible, stray]):
        rows = suite_rows(t, stand_in(hypermatrix_of(mutant)))
        assert rows == order3_rows_by_polynomials(t, mutant)
        assert not rows[row], (row, rows)


def test_s3_decomposition_rejects_a_perturbed_form():
    # the distributed check is not vacuous: one stray cubic term breaks it
    t = random_tree(7, 4)
    entries = build_steiner(t, 3).entries.copy()
    assert verify_s3_decomposition(order3_tensor(t), t.degrees[1:])
    entries[0, 1, 2] += 1
    assert not verify_s3_decomposition(stand_in(entries), t.degrees[1:])


def test_not_divisible_point_test_matches_division_on_every_small_tree():
    # the restriction of every D_r p to s = 0 agrees with exact division by s
    for n in range(2, 8):
        for t in enumerate_trees(n):
            p = order3_tensor(t)
            assert divisibility_rows(p)[0] is partials_not_divisible_by_division(order3_form(t))
            assert verify_not_divisible(p)


def test_not_divisible_rejects_a_form_whose_partials_are_all_multiples_of_s():
    mutant = s_form(6) ** 2 * (X(6, 1) + 2 * X(6, 4))
    p = stand_in(hypermatrix_of(mutant))
    assert not partials_not_divisible_by_division(mutant)
    assert divisibility_rows(p) == (False, True)


def test_not_divisible_falls_back_to_division_when_a_partial_vanishes_at_the_point():
    # adding d(1,2) x1^3 cancels D_1 p at e1 - e2 without making D_1 p a
    # multiple of s, so a point test alone could not decide this form
    t = random_tree(6, 3)
    entries = build_steiner(t, 3).entries.copy()
    entries[0, 0, 0] += t.steiner((1, 2))
    mutant = order3_form(t) + t.steiner((1, 2)) * X(6, 1) ** 3
    assert evaluate(mutant.partial(1), [1, -1, 0, 0, 0, 0]) == 0
    assert partials_not_divisible_by_division(mutant)
    assert divisibility_rows(stand_in(entries))[0]


def test_not_divisible_finds_one_divisible_partial_among_the_others():
    # g_n (g with x_n replaced by x_n - s) is free of x_n and equals g mod s, so
    # p' = p - x_n g_n has D_n p' = g + s D_n g - g_n divisible by s, while every
    # other partial is still g = -3 d(1, 2) at e1 - e2
    t = random_tree(6, 3)
    n = t.n
    g_n = substitute(distance_quadratic(t), n, X(n, n) - s_form(n))
    mutant = order3_form(t) - X(n, n) * g_n
    partials = [mutant.partial(r) for r in range(1, n + 1)]
    assert [isinstance(divide_by_linear(d, s_form(n)), NotDivisible)
            for d in partials] == [True] * (n - 1) + [False]
    assert not divisibility_rows(stand_in(hypermatrix_of(mutant)))[0]


def test_euler_identity_rejects_a_perturbed_form():
    # the report's Euler row is the product row; on a perturbed form the
    # polynomial Euler identity fails with it, and so does the s^3 row
    t = random_tree(7, 4)
    entries = build_steiner(t, 3).entries
    mutant = entries.copy()
    mutant[0, 1, 2] += 1
    assert suite_rows(t)[1:3] == [True, True]
    assert suite_rows(t, stand_in(mutant))[1:3] == [False, False]
    mutant_form = steiner_form(Hypermatrix(3, t.n, mutant))
    assert order3_rows_by_polynomials(t, mutant_form)[1:3] == [False, False]


def test_order3_form_cache_follows_the_tree():
    a, b = random_tree(6, 1), random_tree(6, 2)
    assert order3_form(b) == steiner_form(build_steiner(b, 3))
    assert order3_form(a) == steiner_form(build_steiner(a, 3)) != order3_form(b)


def test_order3_tensor_is_the_permutation_sum_and_follows_the_tree():
    a, b = random_tree(6, 1), random_tree(6, 2)
    for t in (b, a):
        h = build_steiner(t, 3).entries
        assert np.array_equal(order3_tensor(t),
                              sum(h.transpose(axes) for axes in permutations(range(3))))
        assert np.array_equal(order3_tensor(t), 6 * h)


def test_order3_tensor_refuses_entries_that_could_wrap(monkeypatch):
    # no tree reaches the bound, so stand-in entries replace the hypermatrix
    t = random_tree(3, 1)

    def use(entries):
        monkeypatch.setattr(forms, "build_steiner", lambda t, k: Hypermatrix(k, t.n, entries))

    for huge in (1 << 58, -(1 << 58), np.iinfo(np.int64).min):
        use(np.full((3, 3, 3), huge, dtype=np.int64))
        with pytest.raises(OverflowError):
            order3_tensor(t)
    # within the bound the rows run: c * s^3 and all its partials are multiples of s
    use(np.full((3, 3, 3), 1 << 50, dtype=np.int64))
    assert suite_rows(t, order3_tensor(t)) == [False, False, False, False, True]
    # a uint16 stand-in is bounded by its dtype, and its sums must not wrap in it
    entries = np.full((3, 3, 3), 65_535, dtype=np.uint16)
    use(entries)
    p = order3_tensor(t)
    assert p.dtype == np.int64 and np.array_equal(p, stand_in(entries))
    assert suite_rows(t, p) == suite_rows(t, stand_in(entries))


def test_identity_rows_fail_an_asymmetric_build(monkeypatch):
    # +1 and -1 on one orbit leave the sum of the six axis permutations
    # unchanged, so only a P read off the build itself can see them
    t = random_tree(7, 2)
    h = build_steiner(t, 3).entries.astype(np.int64)
    h[0, 1, 2] += 1
    h[1, 0, 2] -= 1
    assert suite_rows(t, stand_in(h)) == [True] * 5
    monkeypatch.setattr(forms, "build_steiner", lambda t, k: Hypermatrix(k, t.n, h))
    rows = identity_rows(t)[:5]
    assert [row["name"] for row in rows[:2]] == ["product_decomposition", "euler_identity"]
    # every D_r p stays off the multiples of s; every other order-3 row fails
    assert [row["status"] for row in rows] == ["fail", "fail", "fail", "pass", "fail"]


def test_identity_rows_fail_a_symmetric_build_off_by_one_on_a_pair(monkeypatch):
    # +1 on the six entries {i, j, j} and {i, i, j} keeps the build
    # super-symmetric but moves d(i, j) and d(j, i) on P's diagonal, where
    # the matrix rows read D
    t = random_tree(7, 2)
    h = build_steiner(t, 3).entries.astype(np.int64)
    pair = set(permutations((0, 1, 1))) | set(permutations((0, 0, 1)))
    for idx in pair:
        h[idx] += 1
    assert len(pair) == 6
    assert all((h == h.transpose(axes)).all() for axes in permutations(range(3)))
    monkeypatch.setattr(forms, "build_steiner", lambda t, k: Hypermatrix(k, t.n, h))
    rows = {row["name"]: row["status"] for row in identity_rows(t)}
    assert rows["gl_inverse"] == rows["ones_row"] == "fail"


def test_s3_cofactors_structure():
    t = random_tree(6, 2)
    fs = s3_cofactors(t)
    assert len(fs) == 6
    assert all(f.total_degree() == 1 for f in fs)
