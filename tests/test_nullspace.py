"""Nullvector certificates: canonical, degenerate, completion, membership, search."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from steinerdh import (CFloat, CycNum, EvenOrder, NotDegenerateZeroed, OrderTooLow,
                       SparsePoly, TooSmall, Tree, ZeroVector, build_steiner,
                       canonical_odd_nullvector, complete_nullvector,
                       completion_quadratic, degenerate_nullvector,
                       enumerate_trees, gradient_direct,
                       hessian_direct, import_json, membership_sg, numeric_search,
                       path_tree, random_tree, root_of_unity, star_tree,
                       verify_form_nullvector, verify_nullvector,
                       zero_degenerate)
from steinerdh import nullspace
from steinerdh.nullspace import _gauss_newton_step
from steinerdh.scalar import WORKING_PREC
from conftest import tree_corpus
from oracles import (distance_quadratic, edge_cut_hessian, evaluate,
                     qr_gauss_newton_step, s_form, substitute)


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


def test_form_nullvector_reads_every_index_tuple():
    # the one nonzero entry sits at (0, 1, 0), so the form is x1^2 x2 with
    # gradient (2, 1) at (1, 1); the entry at the sorted tuple (0, 0, 1) is 0
    h = import_json('{"k": 3, "n": 2, "entries": [0, 0, 1, 0, 0, 0, 0, 0]}')
    rep = verify_form_nullvector(h, [1, 1])
    assert not rep.exact_zero
    assert [g.as_rational() for g in rep.gradient] == [2, 1]
    # it refuses a point of the wrong length and the zero vector
    with pytest.raises(ValueError):
        verify_form_nullvector(h, [1])
    with pytest.raises(ZeroVector):
        verify_form_nullvector(h, [0, 0])


def test_form_nullvector_contraction_matches_the_edge_cut_gradient():
    # the tensor contraction and the edge-cut gradient share no derivation;
    # they agree exactly at certificates, unit vectors and random sparse points
    rng = np.random.default_rng(12)
    zeta = root_of_unity(12)

    def sparse_point(n):
        point = [CycNum.zero(12)] * n
        for v in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False):
            a, b, c = (int(x) for x in rng.integers(-3, 4, size=3))
            point[v] = (a or 1) + b * zeta + c * zeta ** 5
        return point

    checked = 0
    for n in range(1, 7):
        for t in enumerate_trees(n):
            for k in (3, 4, 5):
                h = build_steiner(t, k)
                points = [[0] * (n - 1) + [1], sparse_point(n), sparse_point(n)]
                if k % 2 and n >= 3:
                    points.append(canonical_odd_nullvector(t, k))
                for x in points:
                    want = verify_nullvector(t, k, x)
                    got = verify_form_nullvector(h, x)
                    assert got.gradient == want.gradient, (t, k, x)
                    assert got.exact_zero == want.exact_zero
                    checked += 1
    assert checked == 3 * 3 * 14 + 2 * 12


# ---------------------------------------------------------------------------
# membership in <s, g>
# ---------------------------------------------------------------------------

def test_membership_examples(path3):
    y = canonical_odd_nullvector(path3, 3)
    assert membership_sg(path3, y)
    assert not membership_sg(path3, [1, 1, 1])
    # s = 0 but g = -3 != 0
    assert not membership_sg(path3, [1, -1, 0])
    # s = 0 and g = 0 on the first three coordinates; a fourth has no vertex
    with pytest.raises(ValueError):
        membership_sg(path3, [5, 0, 0, -5])
    g = distance_quadratic(path3)
    assert evaluate(g, [1, -1, 0]) == -3


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


def test_membership_matches_exact_s_and_g():
    # membership_sg reads g = -3 sum_e a_e^2 off the far-side sums; the oracle
    # evaluates s and g = 3 sum_{i<j} d(i,j) x_i x_j exactly, on nullvectors,
    # s = 0 points off g = 0, and g = 0 points off s = 0 (the unit vector e_1)
    members = s_zero_outsiders = 0
    for idx, t in enumerate(tree_corpus(15, 3, 8, seed0=70)):
        n = t.n
        y = canonical_odd_nullvector(t, 3)
        shifted = [y[0] + Fraction(1, 2), y[1] - Fraction(1, 2)] + y[2:]
        raw = [Fraction((idx + 3 * j) % 9 - 4, 1 + j % 3) for j in range(n)]
        balanced = raw[:-1] + [-sum(raw[:-1], Fraction(0))]
        unit = [Fraction(1)] + [Fraction(0)] * (n - 1)
        points = [y, [Fraction(-5, 3) * x for x in y], [y[0] + 1] + y[1:],
                  shifted, raw, balanced, unit]
        tail = _mixed_tail(n - 2, (1, 3, 4, 5, 8)[idx % 5], idx)
        points += [list(c.point) for c in complete_nullvector(t, tail)
                   if c.exact and not c.trivial]
        s, g = s_form(n), distance_quadratic(t)
        for point in points:
            s_zero = evaluate(s, point) == 0
            want = s_zero and evaluate(g, point) == 0
            assert membership_sg(t, point) == want, (t, point)
            members += want
            s_zero_outsiders += s_zero and not want
    assert members >= 30 and s_zero_outsiders >= 15


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


def _mixed_tail(count: int, m: int, shift: int) -> list:
    """Rational entries, plus root-of-unity parts in Q(zeta_m) when m > 1."""
    tail = [Fraction((shift + j) % 7 - 3, 1 + (j % 3)) for j in range(count)]
    if m > 1:
        tail = [x + Fraction((shift + j) % 4 - 1) * root_of_unity(m, j + 1)
                for j, x in enumerate(tail)]
    return tail


def test_completion_quadratic_matches_direct_substitution():
    # independent oracle: substitute a2 = -a1 - (x3 + ... + xn) into
    # g = 3 sum_{i<j} d(i,j) x_i x_j, then evaluate each a1-coefficient, a
    # polynomial in the tail, exactly at the tail (rational or cyclotomic)
    for idx, t in enumerate(tree_corpus(40, 3, 10, seed0=60)):
        n, m = t.n, (1, 3, 4, 5, 8)[idx % 5]
        tail = _mixed_tail(n - 2, m, idx)
        A, B, C, lifted, field = completion_quadratic(t, tail)
        assert field == math.lcm(4, m)
        e1 = tuple(1 if i == 0 else 0 for i in range(n))
        minus = SparsePoly(n, {e1: -1})
        for j in range(3, n + 1):
            minus = minus - SparsePoly.variable(n, j)
        layers: dict[int, dict] = {}
        for exp, c in substitute(distance_quadratic(t), 2, minus).terms.items():
            layers.setdefault(exp[0], {})[(0,) + exp[1:]] = c
        point = [0, 0] + lifted
        # -g/3 = A a1^2 + B a1 + C
        for power, coeff in ((2, A), (1, B), (0, C)):
            assert -3 * coeff == evaluate(SparsePoly(n, layers.get(power, {})), point), \
                (idx, t, tail, power)


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
    d = np.array([[t.steiner((i, j)) for j in range(1, n + 1)]
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
                    want = qr_gauss_newton_step(x, grads, edge_cut_hessian(t, k, x))
                    defect = float(1 - mpmath.fsum(x, absolute=True, squared=True))
                    got = _gauss_newton_step(z, np.array(grads, dtype=complex),
                                             hessian_direct(t, k, z), defect)
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
            norm = mpmath.fsum([abs(c_) ** 2 for c_ in c.point])
            assert abs(norm - 1) < 1e-20


SEARCH_TREES = [t for n in range(2, 8)
                for t in (path_tree(n), star_tree(n), random_tree(n, 70 + n))]


def _residual_at(t, k, point, prec):
    """Max |gradient| at a reported CFloat point, evaluated at ``prec`` bits."""
    with mpmath.workprec(prec):
        grads = gradient_direct(t, k, point)
        return float(max(abs(g) for g in grads))


@pytest.mark.parametrize("prec", [64, WORKING_PREC, 200])
@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-30])
def test_search_candidates_keep_their_contract(tol, prec, monkeypatch):
    # The float64 iterate is never what is reported: every residual is the
    # working-precision value at the reported point, and the stop reason
    # agrees with it.  Nothing in the search is tied to 128 bits, so the
    # contract holds with the constants patched too: other working
    # precisions, and a budget of 9 steps, which often runs out in the
    # refinement phase.
    monkeypatch.setattr(nullspace, "WORKING_PREC", prec)
    floor = 2.0 ** (24 - prec)
    for i, t in enumerate(SEARCH_TREES):
        max_iter = 9 if i % 2 else 60
        monkeypatch.setattr(nullspace, "MAX_STEPS", max_iter)
        for k in range(2, 7):
            (c,) = numeric_search(t, k, seed=i, restarts=1, tol=tol)
            with mpmath.workprec(prec):
                assert all(isinstance(z, CFloat) and +z == z for z in c.point)
            assert c.residual == _residual_at(t, k, c.point, prec), (t, k, c)
            if c.stop == "tol":
                assert c.residual < tol, (t, k, c)
            if c.stop == "precision_floor":
                assert tol <= c.residual < floor, (t, k, c)
            assert 0 <= c.iterations <= max_iter, (t, k, c)


def test_search_single_vertex():
    (c,) = numeric_search(Tree(1, []), 4, seed=0, restarts=1)
    assert (c.residual, c.iterations, c.stop) == (0.0, 0, "tol")


def test_search_checks_a_float64_tol_stop_at_working_precision(monkeypatch, path3):
    # A float64 gradient that reads 0 once the true residual is below 1e-6
    # ends the float64 loop on "tol" far from the target.  The search must
    # re-evaluate that point at 128 bits, refine it there, and report the
    # 128-bit residual.
    exact = nullspace.gradient_direct

    def optimistic(t, k, x):
        grads = exact(t, k, x)
        if x.dtype == np.complex128 and max(abs(g) for g in grads) < 1e-6:
            return [0j] * len(grads)
        return grads

    monkeypatch.setattr(nullspace, "gradient_direct", optimistic)
    cands = numeric_search(path3, 3, seed=11, restarts=8, tol=1e-12)
    assert sum(c.stop == "tol" for c in cands) >= 3
    for c in cands:
        assert c.residual == _residual_at(path3, 3, c.point, 128)
        assert c.stop != "tol" or c.residual < 1e-12
