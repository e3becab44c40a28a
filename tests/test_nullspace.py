"""Nullvector certificates: canonical, degenerate, completion, membership, search."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest

from steinerdh import (CycNum, EvenOrder, NotDegenerateZeroed, OrderTooLow,
                       SparsePoly, TooSmall, Tree, ZeroVector, build_steiner,
                       canonical_odd_nullvector, complete_nullvector,
                       completion_quadratic, degenerate_nullvector,
                       distance_quadratic, enumerate_trees, gradient_direct,
                       hessian_direct, membership_sg, numeric_search,
                       path_tree, random_tree, root_of_unity, star_tree,
                       verify_form_nullvector, verify_nullvector,
                       zero_degenerate)
from steinerdh.nullspace import _gauss_newton_step
from conftest import tree_corpus
from oracles import qr_gauss_newton_step


# ---------------------------------------------------------------------------
# canonical odd-order certificates
# ---------------------------------------------------------------------------

def test_canonical_examples(path3, star4):
    i = root_of_unity(4)
    y = canonical_odd_nullvector(path3, 3)
    assert y == [CycNum.one(4), -1 - i, i]
    y2 = canonical_odd_nullvector(star4, 3)
    assert y2 == [-1 - i, CycNum.one(4), i, CycNum.zero(4)]
    z8 = root_of_unity(8)
    y5 = canonical_odd_nullvector(path3, 5)
    assert y5 == [CycNum.one(8), -1 - z8, z8]


def test_canonical_guards(path3, k2):
    with pytest.raises(EvenOrder):
        canonical_odd_nullvector(path3, 4)
    with pytest.raises(ValueError):
        canonical_odd_nullvector(path3, 1)
    with pytest.raises(TooSmall):
        canonical_odd_nullvector(k2, 3)


def test_canonical_verifies_on_all_small_trees():
    for n in range(3, 7):
        for t in enumerate_trees(n):
            for k in (3, 5, 7):
                rep = verify_nullvector(t, k, canonical_odd_nullvector(t, k))
                assert rep.exact_zero, (n, k)
                assert rep.embedded_residual == 0.0


def test_verify_rejects_zero_vector(path3):
    with pytest.raises(ZeroVector):
        verify_nullvector(path3, 3, [0, 0, 0])


def test_verify_non_nullvectors(path3, k2):
    rep = verify_nullvector(path3, 3, [1, 1, 1])
    assert not rep.exact_zero
    assert rep.embedded_residual > 1.0
    for z in (1, -1):
        assert not verify_nullvector(k2, 3, [1, z]).exact_zero


def test_report_json(path3):
    rep = verify_nullvector(path3, 3, canonical_odd_nullvector(path3, 3))
    obj = rep.to_json()
    assert obj["exact_zero"] is True
    assert obj["k"] == 3
    assert obj["residual"] == 0.0
    assert obj["tree"] == "3\n1 2\n2 3\n"
    assert obj["point"][0]["m"] == 4


def test_scaling_invariance(path3):
    y = canonical_odd_nullvector(path3, 3)
    for lam in (Fraction(2), Fraction(-3, 7), Fraction(1, 5)):
        scaled = [lam * x for x in y]
        assert verify_nullvector(path3, 3, scaled).exact_zero
        assert membership_sg(path3, scaled)


# ---------------------------------------------------------------------------
# degenerate-zeroed hypermatrices
# ---------------------------------------------------------------------------

def test_degenerate_examples(path3, k2, star4):
    hz = zero_degenerate(build_steiner(path3, 3))
    pt = degenerate_nullvector(hz)
    assert [x.as_rational() for x in pt] == [0, 0, 1]
    assert verify_form_nullvector(hz, pt).exact_zero
    hz2 = zero_degenerate(build_steiner(k2, 3))
    assert verify_form_nullvector(hz2, degenerate_nullvector(hz2)).exact_zero
    hz3 = zero_degenerate(build_steiner(star4, 3))
    pt3 = degenerate_nullvector(hz3)
    assert [x.as_rational() for x in pt3] == [0, 0, 0, 1]
    assert verify_form_nullvector(hz3, pt3).exact_zero


def test_degenerate_guards(path3):
    with pytest.raises(NotDegenerateZeroed):
        degenerate_nullvector(build_steiner(path3, 3))
    with pytest.raises(OrderTooLow):
        degenerate_nullvector(zero_degenerate(build_steiner(path3, 2)))


def test_degenerate_random_orders():
    for seed in range(8):
        t = random_tree(3 + seed % 4, seed)
        for k in (3, 4):
            hz = zero_degenerate(build_steiner(t, k))
            rep = verify_form_nullvector(hz, degenerate_nullvector(hz))
            assert rep.exact_zero


# ---------------------------------------------------------------------------
# membership in <s, g>
# ---------------------------------------------------------------------------

def test_membership_examples(path3):
    y = canonical_odd_nullvector(path3, 3)
    assert membership_sg(path3, y)
    assert not membership_sg(path3, [1, 1, 1])
    # s = 0 but g = -3 != 0
    assert not membership_sg(path3, [1, -1, 0])
    g = distance_quadratic(path3)
    assert g.evaluate([1, -1, 0]) == -3


def test_membership_equivalence_random_points():
    # variety membership iff exact gradient vanishing, for mixed points
    checked = 0
    for t in tree_corpus(6, 3, 6, seed0=40):
        y = canonical_odd_nullvector(t, 3)
        candidates = [
            y,
            [2 * x for x in y],
            [x + (1 if idx == 0 else 0) for idx, x in enumerate(y)],
            [Fraction(1), Fraction(-1)] + [Fraction(0)] * (t.n - 2),
            [Fraction(j + 1) for j in range(t.n)],
        ]
        for c in complete_nullvector(t, [Fraction(1)] + [Fraction(0)] * (t.n - 3)):
            if c.exact and not c.trivial:
                candidates.append(list(c.point))
        for point in candidates:
            coords = point
            if all(not isinstance(x, CycNum) and x == 0 for x in coords):
                continue
            member = membership_sg(t, coords)
            grad_zero = verify_nullvector(t, 3, coords).exact_zero
            assert member == grad_zero, (t, point)
            checked += 1
    assert checked >= 30


def test_zero_sum_of_exact_nullvectors():
    for t in tree_corpus(6, 3, 6, seed0=41):
        y = canonical_odd_nullvector(t, 3)
        total = CycNum.zero(4)
        for x in y:
            total = total + x
        assert total.is_zero()


# ---------------------------------------------------------------------------
# completion
# ---------------------------------------------------------------------------

def test_completion_path3_tail_one(path3):
    i = root_of_unity(4)
    cands = complete_nullvector(path3, [1])
    assert len(cands) == 2
    assert {c.point[0] for c in cands} == {i, -1 * i}
    for c in cands:
        assert c.exact and c.verified and not c.trivial
        assert c.quadratic[0] == 1 and c.quadratic[1].is_zero() and c.quadratic[2] == 1
        assert c.point[1] == -c.point[0] - 1
        assert verify_nullvector(path3, 3, c.point).exact_zero


def test_completion_zero_tail_is_trivial():
    for t in (path_tree(3), star_tree(5), random_tree(6, 8)):
        cands = complete_nullvector(t, [0] * (t.n - 2))
        assert len(cands) == 1
        assert cands[0].trivial and not cands[0].verified
        assert all(x.is_zero() for x in cands[0].point)


def test_completion_star_tail_needs_numeric(star4):
    cands = complete_nullvector(star4, [1, -1])
    assert len(cands) == 2
    for c in cands:
        assert not c.exact and not c.trivial
        assert c.residual <= 1e-20
        assert c.verified
    # exact coefficients still reported: A = d(1,2) = 1, B = 0, C = 2
    A, B, C = cands[0].quadratic
    assert A == 1 and B.is_zero() and C == 2


def test_completion_quadratic_matches_direct_substitution():
    # independent oracle: substitute a2 = -a1 - sigma into g and read off the
    # quadratic's coefficients symbolically
    for t in tree_corpus(8, 3, 7, seed0=60):
        n = t.n
        tail = [Fraction(j - 2, 1 + (j % 3)) for j in range(n - 2)]
        A, B, C, lifted, m = completion_quadratic(t, tail)
        g = distance_quadratic(t)
        # build g(a1, -a1 - sigma, tail) as a univariate polynomial in a1
        sigma = sum(tail, Fraction(0))
        minus = SparsePoly(n, {tuple(1 if i == 0 else 0 for i in range(n)): -1,
                               tuple([0] * n): -sigma})
        sub = g.substitute(2, minus)
        collapsed = sub
        for j in range(3, n + 1):
            collapsed = collapsed.substitute(j, SparsePoly.constant(n, tail[j - 3]))
        # -g matches A a1^2 + B a1 + C
        e2 = tuple(2 if i == 0 else 0 for i in range(n))
        e1 = tuple(1 if i == 0 else 0 for i in range(n))
        e0 = tuple([0] * n)
        assert A == -collapsed.coefficient(e2) / 3
        assert B == -collapsed.coefficient(e1) / 3
        assert C == -collapsed.coefficient(e0) / 3


def test_completion_totality_random_rational_tails():
    for idx, t in enumerate(tree_corpus(12, 3, 8, seed0=61)):
        tail = [Fraction((idx + j) % 7 - 3, 1 + (j % 2)) for j in range(t.n - 2)]
        if all(x == 0 for x in tail):
            tail[0] = Fraction(1)
        cands = complete_nullvector(t, tail)
        assert any(c.verified for c in cands), (idx, t, tail)
        for c in cands:
            if c.exact and not c.trivial:
                assert membership_sg(t, c.point)


def test_completion_guards(k2, path3):
    with pytest.raises(TooSmall):
        complete_nullvector(k2, [])
    with pytest.raises(ValueError):
        complete_nullvector(path3, [1, 2])


def test_completion_cyclotomic_tail(path3):
    i = root_of_unity(4)
    cands = complete_nullvector(path3, [i])
    assert any(c.verified for c in cands)
    for c in cands:
        if c.exact:
            assert membership_sg(path3, c.point)


def test_completion_exact_negative_square_discriminant():
    # star with center 2: B = 0 and C = a3^2 + a4^2, so the discriminant is
    # -4(a3^2 + a4^2); (3, 4) makes it -100, a perfect square times -1,
    # and both roots stay inside Q(i)
    t = Tree(4, [(2, 1), (2, 3), (2, 4)])
    cands = complete_nullvector(t, [Fraction(3), Fraction(4)])
    assert len(cands) == 2
    for c in cands:
        assert c.exact and c.verified
        assert verify_nullvector(t, 3, c.point).exact_zero


def test_completion_double_root():
    # same star, tail (1, i): C = 1 + i^2 = 0 and B = 0, so the quadratic
    # degenerates to a double root at 0
    t = Tree(4, [(2, 1), (2, 3), (2, 4)])
    i = root_of_unity(4)
    cands = complete_nullvector(t, [Fraction(1), i])
    assert len(cands) == 1
    assert cands[0].exact and cands[0].verified and not cands[0].trivial


def test_degenerate_single_vertex_order2_corner():
    # k = 2 with n = 1 is the one order-2 case the unit vector still covers
    t = random_tree(1, 0)
    hz = zero_degenerate(build_steiner(t, 2))
    pt = degenerate_nullvector(hz)
    assert verify_form_nullvector(hz, pt).exact_zero


# ---------------------------------------------------------------------------
# numeric search
# ---------------------------------------------------------------------------

def test_search_path3_order3_converges(path3):
    cands = numeric_search(path3, 3, seed=5, restarts=6)
    assert len(cands) == 6
    assert cands[0].residual <= 1e-10
    assert cands == sorted(cands, key=lambda c: c.residual)


def test_search_order2_floor(path3):
    cands = numeric_search(path3, 2, seed=5, restarts=6)
    assert cands[0].residual > 1e-6


def test_search_k2_order4_floor(k2):
    cands = numeric_search(k2, 4, seed=5, restarts=6)
    assert cands[0].residual > 1e-6


@pytest.mark.parametrize("t", [path_tree(3), star_tree(5), random_tree(6, 21)],
                         ids=["path3", "star5", "random6"])
def test_search_order2_floor_brackets_least_eigenvalue(t):
    # At k = 2 the gradient is 2 D x, D the distance matrix, so on the unit
    # sphere max|2 D x| >= 2 |lambda_min| / sqrt(n); the least eigenvector
    # itself attains 2 |lambda_min| * max|v_min|.
    n = t.n
    d = np.array([[t.distance(i, j) for j in range(1, n + 1)]
                  for i in range(1, n + 1)], dtype=float)
    vals, vecs = np.linalg.eigh(d)
    least = np.argmin(np.abs(vals))
    lam, v = abs(vals[least]), vecs[:, least]
    best = numeric_search(t, 2, seed=5, restarts=6)[0].residual
    assert 2 * lam / np.sqrt(n) <= best <= 2 * lam * np.abs(v).max() + 1e-9


def test_gauss_newton_step_matches_qr_oracle():
    rng = np.random.default_rng(17)
    with mpmath.workprec(128):
        for n in range(2, 7):
            for t in (path_tree(n), star_tree(n), random_tree(n, 60 + n)):
                for k in range(3, 7):
                    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                    z /= np.linalg.norm(z)
                    x = [mpmath.mpc(c) for c in z]
                    grads = gradient_direct(t, k, x)
                    want = qr_gauss_newton_step(x, grads, hessian_direct(t, k, x))
                    got = _gauss_newton_step(x, grads, hessian_direct(t, k, z))
                    want = np.array(want, dtype=complex)
                    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), (t, k)


def test_search_tight_tol_reaches_precision_floor(path3):
    # Near a nullvector the phase direction i*x leaves the step's system
    # rank-deficient by one; the minimum-norm step still converges.
    best = numeric_search(path3, 3, seed=11, restarts=8, tol=1e-30)[0]
    assert best.residual < 1e-30
    assert best.stop == "tol"


def test_search_reports_stop_reason(path3, k2):
    odd = numeric_search(path3, 3, seed=5, restarts=6)
    assert odd[0].stop in ("tol", "precision_floor")
    assert all(c.stop in ("tol", "precision_floor", "stalled", "singular", "max_iter")
               and 0 < c.iterations <= 60 for c in odd)
    even = numeric_search(k2, 4, seed=5, restarts=6)
    assert all(c.stop in ("stalled", "max_iter") for c in even)


def test_search_deterministic(path3):
    a = numeric_search(path3, 3, seed=9, restarts=3)
    b = numeric_search(path3, 3, seed=9, restarts=3)
    assert [c.residual for c in a] == [c.residual for c in b]
    assert all(pa == pb for ca, cb in zip(a, b)
               for pa, pb in zip(ca.point, cb.point))


def test_search_zero_restarts(path3):
    assert numeric_search(path3, 3, seed=1, restarts=0) == []


def test_search_points_live_on_unit_sphere(path3):
    cands = numeric_search(path3, 3, seed=2, restarts=3)
    for c in cands:
        with mpmath.workprec(128):
            norm = mpmath.fsum([c_.abs_value() ** 2 for c_ in c.point])
            assert abs(norm - 1) < 1e-20
