"""Distance-matrix algebra: exact determinants, closed-form inverse, c vector."""

import json
import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerdh import (MalformedInput, RatMatrix, Tree, canonical_key, gl_inverse,
                       graham_pollak_value, random_tree, star_tree)
from conftest import tree_corpus
from oracles import (c_coefficients, determinant_exact, distance_matrix,
                     fraction_matmul, gl_inverse_fractions, solve_row_system)


def inverse_matrix(t: Tree) -> RatMatrix:
    """``gl_inverse``'s numerator array over its denominator, as an exact matrix."""
    num, den = gl_inverse(t)
    return RatMatrix(num.tolist(), den)


def naive_determinant(m: RatMatrix) -> Fraction:
    """Leibniz expansion; the independent oracle for small sizes."""
    n = m.n
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        p = list(perm)
        for i in range(n):
            while p[i] != i:
                j = p[i]
                p[i], p[j] = p[j], p[i]
                sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= m.rows[i][perm[i]]
        total += sign * prod
    return total


def test_distance_matrix_examples(path3, k2, star4):
    assert distance_matrix(path3).rows == (
        (0, 1, 2), (1, 0, 1), (2, 1, 0))
    assert distance_matrix(k2).rows == ((0, 1), (1, 0))
    m = distance_matrix(star4)
    assert m[0, 1] == 1 and m[1, 2] == 2 and m[2, 3] == 2


def test_determinant_examples(path3, k2):
    assert determinant_exact(distance_matrix(path3)) == 4
    assert graham_pollak_value(3) == 4
    assert determinant_exact(distance_matrix(k2)) == -1
    assert graham_pollak_value(2) == -1
    assert determinant_exact(RatMatrix.identity(3)) == 1


def test_determinant_against_leibniz():
    for t in tree_corpus(8, 2, 6, seed0=500):
        m = distance_matrix(t)
        assert determinant_exact(m) == naive_determinant(m)
    # rational, singular, and permuted-pivot cases
    r = RatMatrix([[Fraction(1, 2), 2, 0],
                   [Fraction(1, 2), 2, 0],
                   [1, 0, 1]])
    assert determinant_exact(r) == 0 == naive_determinant(r)
    r2 = RatMatrix([[0, Fraction(2, 3)], [Fraction(-3, 5), Fraction(1, 7)]])
    assert determinant_exact(r2) == naive_determinant(r2) == Fraction(2, 5)


def test_graham_pollak_on_random_trees():
    for n in range(2, 13):
        for seed in range(4):
            t = random_tree(n, seed)
            assert determinant_exact(distance_matrix(t)) == graham_pollak_value(n)


def test_int64_entries_are_read_exactly():
    # at these sizes Bareiss on int64 entries would wrap
    for n in (40, 70):
        t = random_tree(n, 1)
        assert determinant_exact(RatMatrix(t.distances())) == graham_pollak_value(n)
    m = RatMatrix([[np.int64(2 ** 62), Fraction(1, 2)], [0, 1]])
    assert m[0, 0] == 2 ** 62 and m[0, 1] == Fraction(1, 2)
    assert RatMatrix([[2, 0], [0, 1]]).row_times([np.int64(2 ** 62), 0]) == [2 ** 63, 0]


@pytest.mark.parametrize("bad", [0.5, 2.0, "1/2", np.float64(1.0)])
def test_floats_and_strings_are_refused(bad):
    with pytest.raises(TypeError):
        RatMatrix([[1, bad], [0, 1]])
    with pytest.raises(TypeError):
        RatMatrix.identity(2).row_times([1, bad])


def test_gl_inverse_examples(path3, k2):
    num, den = gl_inverse(path3)
    assert isinstance(num, np.ndarray) and num.dtype == np.int64
    assert num.tolist() == [[-1, 2, 1], [2, -4, 2], [1, 2, -1]] and den == 4
    inv = inverse_matrix(path3)
    assert inv[0, 0] == Fraction(-1, 4)
    assert (inv @ distance_matrix(path3)).is_identity()
    inv2 = inverse_matrix(k2)
    # the closed form gives [[0, 1], [1, 0]], and indeed D*D = I for K2
    assert inv2.rows == ((0, 1), (1, 0))
    assert (inv2 @ distance_matrix(k2)).is_identity()


def test_gl_inverse_random():
    for t in tree_corpus(10, 2, 12, seed0=900):
        num, den = gl_inverse(t)
        assert num.dtype == np.int64 and den == 2 * (t.n - 1)
        assert np.array_equal(num @ t.distances(), den * np.eye(t.n, dtype=np.int64))
        assert (inverse_matrix(t) @ distance_matrix(t)).is_identity()


def test_c_coefficients_examples(path3, k2):
    assert c_coefficients(path3) == [Fraction(1, 2), 0, Fraction(1, 2)]
    assert sum(c_coefficients(path3)) == 1
    c = c_coefficients(star_tree(4))
    assert c == [Fraction(-1, 3), Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]
    assert sum(c) == Fraction(2, 3)
    assert distance_matrix(star_tree(4)).row_times(c) == [1, 1, 1, 1]
    assert c_coefficients(k2) == [1, 1]
    assert distance_matrix(k2).row_times([1, 1]) == [1, 1]


def test_c_coefficients_match_linear_solve():
    for t in tree_corpus(10, 2, 12, seed0=901):
        D = distance_matrix(t)
        c = c_coefficients(t)
        assert D.row_times(c) == [Fraction(1)] * t.n
        assert solve_row_system(D, [Fraction(1)] * t.n) == c
        assert sum(c) == Fraction(2, t.n - 1)


def test_matmul_matches_entrywise_fraction_sums():
    mixed = RatMatrix([[Fraction(1, 3), 2, Fraction(-5, 6)], [0, Fraction(-7, 5), 1],
                       [Fraction(9, 4), -3, Fraction(2, 9)]])
    integral = RatMatrix([[1, -2, 0], [4, 0, 3], [-1, 5, 7]])
    for a, b in [(mixed, integral), (integral, mixed), (mixed, mixed),
                 (integral, integral)]:
        assert (a @ b).rows == tuple(map(tuple, fraction_matmul(a, b)))
    for t in tree_corpus(10, 2, 9, seed0=700):
        D, inv = distance_matrix(t), inverse_matrix(t)
        assert (inv @ D).rows == tuple(map(tuple, fraction_matmul(inv, D)))
    with pytest.raises(ValueError):
        integral @ RatMatrix.identity(2)


def test_ratmatrix_json():
    m = RatMatrix([[Fraction(1, 3), 2], [0, Fraction(-7, 5)]])
    assert RatMatrix.from_json(m.to_json()) == m


def test_guards():
    with pytest.raises(ValueError):
        RatMatrix([])
    with pytest.raises(ValueError):
        RatMatrix([[1, 2]])
    with pytest.raises(ValueError):
        gl_inverse(random_tree(1, 0))
    with pytest.raises(ValueError):
        graham_pollak_value(1)
    with pytest.raises(ValueError):
        solve_row_system(RatMatrix([[0, 0], [0, 0]]), [1, 1])


_entries = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))


def _square(n):
    return st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)


def _canonical_den(rows) -> int:
    return math.lcm(*(x.denominator for row in rows for x in row))


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 5))
def test_ratmatrix_matches_fraction_oracles(data, n):
    a_rows, b_rows = data.draw(_square(n)), data.draw(_square(n))
    vec = data.draw(st.lists(_entries, min_size=n, max_size=n))
    a, b = RatMatrix(a_rows), RatMatrix(b_rows)
    assert a.rows == tuple(map(tuple, a_rows))
    assert a.den == _canonical_den(a_rows)
    assert [[a[i, j] for j in range(n)] for i in range(n)] == a_rows
    product = fraction_matmul(a, b)
    assert (a @ b).rows == tuple(map(tuple, product))
    assert a @ b == RatMatrix(product)
    assert (a @ b).den == _canonical_den(product)
    assert a.row_times(vec) == [sum((vec[i] * a_rows[i][j] for i in range(n)), Fraction(0))
                                for j in range(n)]
    assert a.is_identity() is (a_rows == [[int(i == j) for j in range(n)]
                                          for i in range(n)])
    assert determinant_exact(a) == naive_determinant(a)
    assert a.to_json() == json.dumps([[[str(x.numerator), str(x.denominator)] for x in row]
                                      for row in a_rows])
    assert repr(a) == f"RatMatrix({[list(map(str, row)) for row in a_rows]})"
    assert RatMatrix.from_json(a.to_json()) == a
    assert a @ RatMatrix.identity(n) == a == RatMatrix.identity(n) @ a


def test_equal_ratmatrices_compare_equal_however_built():
    assert RatMatrix([[Fraction(2, 4)]]) == RatMatrix([[Fraction(1, 2)]])
    assert RatMatrix([[Fraction(6, 3), 0], [1, Fraction(4, 4)]]) == RatMatrix([[2, 0], [1, 1]])
    halves = RatMatrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    integral = halves @ RatMatrix([[2, 0], [0, 3]])
    assert integral == RatMatrix.identity(2) and integral.den == 1
    assert integral.is_identity()
    assert RatMatrix([[Fraction(1, 2)]]) != RatMatrix([[Fraction(1, 3)]])
    assert RatMatrix([[1, 0], [0, 1]]) != RatMatrix([[1]])
    assert RatMatrix.from_json('[[["2", "4"]]]') == RatMatrix([[Fraction(1, 2)]])
    for t in tree_corpus(6, 2, 9, seed0=40):
        assert inverse_matrix(t) @ distance_matrix(t) == RatMatrix.identity(t.n)
        assert distance_matrix(t) @ inverse_matrix(t) == RatMatrix.identity(t.n)


def _tree_classes(n_max: int) -> list[Tree]:
    """One tree per isomorphism class on 2..n_max vertices.  Every tree on n
    vertices is a tree on n - 1 vertices plus a leaf, so extending each class
    by a leaf at every vertex reaches every class."""
    level = [Tree(2, [(1, 2)])]
    out = list(level)
    for n in range(3, n_max + 1):
        found: dict[str, Tree] = {}
        for t in level:
            for v in range(1, n):
                grown = Tree(n, t.edges + ((v, n),))
                found.setdefault(canonical_key(grown), grown)
        level = list(found.values())
        out += level
    return out


def test_gl_inverse_matches_the_fraction_closed_form_on_every_small_tree_class():
    classes = _tree_classes(8)
    # unlabeled trees on 2..8 vertices (OEIS A000055)
    assert len(classes) == 1 + 1 + 2 + 3 + 6 + 11 + 23
    for t in classes:
        assert inverse_matrix(t).rows == tuple(map(tuple, gl_inverse_fractions(t)))


@pytest.mark.parametrize("text", [
    '[[["1", "0"]]]',                        # zero denominator
    '[[["1", "2"], ["3"]]]',                 # short pair
    '[[["1", "2"], ["3", "4"]]]',            # not square
    '[[["1_0", "2"]]]',                      # Python literal, not decimal
    '[[[" 1", "2"]]]',
    '[[[1, 2]]]',
    '["12"]',
    '[]',
    '5',
    'not json',
])
def test_from_json_rejects_malformed_documents(text):
    with pytest.raises(MalformedInput):
        RatMatrix.from_json(text)
