"""Nullvector certificates: canonical, degenerate, completion, membership, search."""

import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerdh import (CycNum, EvenOrder, NotDegenerateZeroed, OrderTooLow,
                       SparsePoly, TooSmall, Tree, ZeroVector, build_steiner,
                       canonical_odd_nullvector, complete_nullvector,
                       completion_quadratic, degenerate_nullvector,
                       enumerate_trees, gradient_direct,
                       hessian_direct, import_json, membership_sg, numeric_search,
                       path_tree, random_tree, root_of_unity, star_tree,
                       verify_form_nullvector, verify_nullvector,
                       zero_degenerate)
from steinerdh import nullspace
from steinerdh.nullspace import (_completes_every_root, _descend, _gauss_newton_step,
                                 _gaussian_gradient, _sqrt_up)
from steinerdh.scalar import WORKING_PREC
from conftest import tree_corpus
from oracles import (distance_quadratic, edge_cut_hessian, embed128, evaluate,
                     even_order_witness, gauge_row_gauss_newton_step, qr_gauss_newton_step,
                     s_form, substitute)


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
    # a wrong-length point is refused for its length first, as by
    # verify_form_nullvector
    with pytest.raises(ValueError, match="point length 2"):
        verify_nullvector(path3, 3, [0, 0])


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


def test_report_json_shares_one_dict_per_coordinate_object():
    # the n - 3 zero coordinates of a canonical point are one object, and
    # to_json converts each object once: at n = 20,000 and k = 21 the dense
    # report (20,000 dicts of 16 coefficient pairs) peaked at 61 MB
    t = random_tree(20000, 1)
    tracemalloc.start()
    try:
        obj = verify_nullvector(t, 21, canonical_odd_nullvector(t, 21)).to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert obj["exact_zero"] is True and len(obj["point"]) == t.n
    assert len({id(x) for x in obj["point"]}) == 4
    assert peak < 4 * 2 ** 20, peak


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
    # the length is checked before s != 0
    for point in ([1], [1, -1, 0, 5]):
        with pytest.raises(ValueError, match="point length"):
            membership_sg(path3, point)
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
            if c.point is not None and not c.trivial:
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
                   if c.point is not None and not c.trivial]
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
        assert c.point is not None and c.verified and not c.trivial
        assert c.quadratic[0] == 1 and c.quadratic[1].is_zero() and c.quadratic[2] == 1
        assert c.point[1] == -c.point[0] - 1
        assert verify_nullvector(path3, 3, c.point).exact_zero


def test_completion_zero_tail_is_trivial():
    for t in (path_tree(3), star_tree(5), random_tree(6, 8)):
        cands = complete_nullvector(t, [0] * (t.n - 2))
        assert len(cands) == 1
        assert cands[0].trivial and not cands[0].verified
        assert all(x.is_zero() for x in cands[0].point)


def test_completion_star_tail_is_certified_by_its_quadratic(star4):
    # a1^2 + 2 = 0 has no rational-square discriminant: one candidate with no
    # point, whose exact certificate covers both roots +/- sqrt(2) i
    cands = complete_nullvector(star4, [1, -1])
    assert len(cands) == 1
    c = cands[0]
    assert c.point is None and c.verified and not c.trivial
    A, B, C = c.quadratic   # A = d(1,2) = 1, B = 0, C = 2
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
            if c.point is not None and not c.trivial:
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
        if c.point is not None:
            assert membership_sg(path3, c.point)


def test_completion_exact_negative_square_discriminant():
    # star with center 2: B = 0 and C = a3^2 + a4^2, so the discriminant is
    # -4(a3^2 + a4^2); (3, 4) makes it -100, a perfect square times -1,
    # and both roots stay inside Q(i)
    t = Tree(4, [(2, 1), (2, 3), (2, 4)])
    cands = complete_nullvector(t, [Fraction(3), Fraction(4)])
    assert len(cands) == 2
    for c in cands:
        assert c.point is not None and c.verified
        assert verify_nullvector(t, 3, c.point).exact_zero


def test_completion_double_root():
    # same star, tail (1, i): C = 1 + i^2 = 0 and B = 0, so the quadratic
    # degenerates to a double root at 0
    t = Tree(4, [(2, 1), (2, 3), (2, 4)])
    i = root_of_unity(4)
    cands = complete_nullvector(t, [Fraction(1), i])
    assert len(cands) == 1
    assert cands[0].point is not None and cands[0].verified and not cands[0].trivial


def _signed_rational_square(x: CycNum) -> bool:
    if not x.is_rational():
        return False
    q = abs(x.as_rational())
    return all(math.isqrt(v) ** 2 == v for v in (q.numerator, q.denominator))


def test_completion_has_a_point_iff_the_discriminant_is_a_signed_rational_square(star4):
    # the rule is on the discriminant, not on where the root lies: the last
    # three tails have a root in the working field (squared back below) and
    # still come back as a certificate with no point; every tail is certified
    t = path_tree(3)
    z = root_of_unity
    cases = [(t, [1], True, None),                  # disc -4
             (t, [Fraction(2)], True, None),        # disc -16
             (star4, [1, -1], False, None),         # disc -8
             (t, [z(3)], False, 2 * z(12)),         # disc 4 zeta_12^2
             (t, [z(8)], False, 2 * z(8, 7)),       # disc -4 zeta_8^2
             (t, [1 + z(4)], False, 2 - 2 * z(4))]  # disc -8i
    for tree, tail, square, root in cases:
        A, B, C, lifted, m = completion_quadratic(tree, tail)
        disc = B * B - 4 * (A * C)
        assert _signed_rational_square(disc) == square, tail
        cands = complete_nullvector(tree, tail)
        assert len(cands) == (2 if square else 1), tail
        for c in cands:
            assert (c.point is not None) == square, tail
            assert c.verified and not c.trivial and c.quadratic == (A, B, C), tail
        if root is not None:
            # what the certificate claims: both field roots complete the tail
            root = root.lift(m)
            assert root ** 2 == disc, tail
            sigma = sum(lifted, CycNum.zero(m))
            for a1 in ((-B + root) / (2 * A), (-B - root) / (2 * A)):
                point = [a1, -a1 - sigma, *lifted]
                assert verify_nullvector(tree, 3, point).exact_zero, tail


def test_completion_certificate_fails_on_a_wrong_quadratic_or_line(star4):
    # mutants of the three-point check: B + 1, C + 1, and the line
    # (z, -z + sigma, tail); the last differs from the true line only when
    # sigma != 0
    z = root_of_unity
    for tree, tail in ((path_tree(3), [z(3)]), (path_tree(3), [1 + z(4)]),
                       (star4, [1, -1]), (random_tree(6, 7), [z(3), 1, -2, 0])):
        A, B, C, lifted, m = completion_quadratic(tree, tail)
        sigma = sum(lifted, CycNum.zero(m))
        assert _completes_every_root(tree, (A, B, C), sigma, lifted), tail
        assert not _completes_every_root(tree, (A, B + 1, C), sigma, lifted), tail
        assert not _completes_every_root(tree, (A, B, C + 1), sigma, lifted), tail
        assert _completes_every_root(tree, (A, B, C), -sigma, lifted) == sigma.is_zero(), tail


def test_residual_of_a_failed_check_is_the_embedded_gradient_norm(path3):
    # the complex128 residual equals the 128-bit embedding's max |D_r p| up to
    # float64 rounding; a gradient past the float range reports inf
    z = root_of_unity
    reports = [verify_nullvector(path3, 3, [1, 1, 1]),
               verify_nullvector(path3, 3, [z(3), 1, z(5)]),
               verify_nullvector(path3, 3, [10 ** 100, 0, 0]),
               verify_form_nullvector(build_steiner(path3, 3), [1, z(8), 0])]
    for rep in reports:
        assert not rep.exact_zero
        want = max(float(abs(embed128(g))) for g in rep.gradient)
        assert math.isclose(rep.embedded_residual, want, rel_tol=1e-14), (rep.point, want)
    assert reports[0].embedded_residual == 39.0
    for point in ([10 ** 200, 0, 0], [10 ** 200, -10 ** 200, 1]):
        rep = verify_nullvector(path3, 3, point)
        assert rep.embedded_residual == math.inf
        assert max(float(abs(embed128(g))) for g in rep.gradient) == math.inf


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


@pytest.mark.parametrize("t", [random_tree(351, 1), path_tree(351), star_tree(351)],
                         ids=["random351", "path351", "star351"])
def test_descend_reaches_tol_next_to_an_even_order_singular_point(t):
    # The positive control for the even floors: order 6 is singular at n = 351
    # (the edge counts (288, 31, 31) of ``even_order_witness``), yet six random
    # restarts stall there as at n = 350 and 352.  From the witness moved by a
    # relative 1e-6, the float64 phase reaches tol, so a floor shows only that
    # its restarts missed a narrow basin.
    x = even_order_witness(t, 6, (288, 31, 31))
    assert np.abs(hessian_direct(t, 6, x) @ x / 5).max() < 1e-12
    rng = np.random.default_rng(351)
    noise = rng.standard_normal(t.n) + 1j * rng.standard_normal(t.n)
    start = x + 1e-6 * noise / np.linalg.norm(noise)
    _, res, steps, stop = _descend(t, 6, start, 2.0 ** -40, 1e-12, nullspace.MAX_STEPS)
    assert stop == "tol" and res < 1e-12 and steps <= 4, (stop, res, steps)


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
                    a = np.empty((n + 1, n), dtype=complex)
                    hessian_direct(t, k, z, out=a[:n])
                    got = _gauss_newton_step(z, np.array(grads, dtype=complex), a,
                                             np.empty(n + 1, dtype=complex))
                    want = np.array(want, dtype=complex)
                    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), (t, k)


def test_gauge_row_leaves_the_real_split_step_unchanged():
    # The old minimizer already has Im x^H d = 0 (Euler: H x = (k-1) g), so
    # the row that forbids it changes nothing, at any norm defect.  Same
    # points as the test above.
    rng = np.random.default_rng(17)
    with mpmath.workprec(128):
        for n in range(2, 7):
            for t in (path_tree(n), star_tree(n), random_tree(n, 60 + n)):
                for k in range(3, 7):
                    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                    z /= np.linalg.norm(z)
                    x = [mpmath.mpc(c) for c in z]
                    grads = gradient_direct(t, k, x)
                    hess = edge_cut_hessian(t, k, x)
                    want = qr_gauss_newton_step(x, grads, hess)
                    got = gauge_row_gauss_newton_step(x, grads, hess)
                    err = max(abs(g - w) for g, w in zip(got, want))
                    assert err <= 1e-30 * max(abs(w) for w in want), (t, k)


def test_search_solves_one_complex_problem_per_step(monkeypatch):
    # Each step is one LU solve of the bordered system's n x n normal
    # equations; lstsq runs only when that matrix is singular, which it never
    # is here.
    operands, fallbacks = [], []
    solve, lstsq = np.linalg.solve, np.linalg.lstsq

    def recording(a, b):
        operands.append((a, b))
        return solve(a, b)

    def counted_lstsq(a, b, rcond=None):
        fallbacks.append((a, b))
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "solve", recording)
    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    found = numeric_search(random_tree(6, 1), 4, 1, 2)
    assert operands and not fallbacks
    assert len(operands) == sum(c.iterations for c in found)
    for a, b in operands:
        assert a.shape == (6, 6) and a.dtype == np.complex128
        assert b.shape == (6,) and b.dtype == np.complex128


def test_singular_normal_equations_fall_back_to_lstsq(monkeypatch):
    # When solve refuses A^H A, the step is lstsq's minimum-norm solution of
    # the bordered system A = [H; 2 x^H], b = [-g; 0] itself; when lstsq
    # fails too there is no step, and a restart stops "singular".
    def refused(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    t, k, n = random_tree(5, 3), 4, 5
    rng = np.random.default_rng(3)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z /= np.linalg.norm(z)
    a, b = np.empty((n + 1, n), dtype=complex), np.empty(n + 1, dtype=complex)
    grads = hessian_direct(t, k, z, out=a[:n]) @ z / (k - 1)
    monkeypatch.setattr(np.linalg, "solve", refused)
    got = _gauss_newton_step(z, grads, a, b)
    assert (a[:n] == hessian_direct(t, k, z)).all() and (a[n] == 2 * z.conj()).all()
    assert (b[:n] == -grads).all() and b[n] == 0
    assert np.array_equal(got, np.linalg.lstsq(a, b, rcond=None)[0])

    monkeypatch.setattr(np.linalg, "lstsq", refused)
    assert _gauss_newton_step(z, grads, a, b) is None
    found = numeric_search(t, k, 1, 2)
    assert [(c.stop, c.iterations) for c in found] == [("singular", 0)] * 2


def test_search_builds_the_complex_cut_pair_once(monkeypatch):
    # Every Gauss-Newton step takes a Hessian, but the complex stack
    # [S; 1 - S] is cast from sides() once per tree and then shared for the
    # whole search.
    sides_calls, stacks = [], []
    sides = Tree.sides

    def counted_sides(self):
        sides_calls.append(self)
        return sides(self)

    def spied_hessian(t, k, x, out=None):
        hess = hessian_direct(t, k, x, out=out)
        stacks.append(t.cuts())
        return hess

    monkeypatch.setattr(Tree, "sides", counted_sides)
    monkeypatch.setattr(nullspace, "hessian_direct", spied_hessian)
    t = random_tree(6, 1)
    numeric_search(t, 4, 1, restarts=3)
    assert len(stacks) > 3 and len(sides_calls) == 1
    cuts = stacks[0]
    assert all(c is cuts for c in stacks)
    assert cuts.dtype == np.complex128
    assert (cuts == np.concatenate([sides(t), 1 - sides(t)])).all()
    with pytest.raises(ValueError):
        cuts[0, 0] = 0


def test_search_tight_tol_reaches_precision_floor(path3):
    # Near a nullvector H x = (k-1) g vanishes, so H alone leaves a step
    # along x free; the gauge row 2 x^H d fixes it, and the step converges
    # into the working precision's floor.
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


def _modulus2(z):
    """|z|^2 as a Fraction, for z in Q(zeta_4)."""
    a, b = z.coeffs
    return Fraction(a) ** 2 + Fraction(b) ** 2


def test_search_points_live_on_unit_sphere(path3):
    cands = numeric_search(path3, 3, seed=2, restarts=3)
    for c in cands:
        assert abs(sum(map(_modulus2, c.point)) - 1) < 1e-20


SEARCH_TREES = [t for n in range(2, 8)
                for t in (path_tree(n), star_tree(n), random_tree(n, 70 + n))]


def _assert_residual_bounds(t, k, c):
    """The reported residual is at least the exact max_r |D_r p(x)| / |x|^(k-1)
    at the reported point, recomputed in Fractions, and within 2^-50
    relative of it."""
    grads = gradient_direct(t, k, list(c.point))
    exact = max(map(_modulus2, grads)) / sum(map(_modulus2, c.point)) ** (k - 1)
    reported = Fraction(c.residual) ** 2
    assert exact <= reported <= exact * (1 + Fraction(1, 2 ** 50)) ** 2, (t, k, c)


@pytest.mark.parametrize("prec", [64, WORKING_PREC, 200])
@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-30])
def test_search_candidates_keep_their_contract(tol, prec, monkeypatch):
    # The float64 iterate is never what is reported: every point is Gaussian
    # integers over 2^WORKING_PREC, every residual a bound proven at that
    # point, and the stop reason agrees with it.  Nothing in the search is
    # tied to 128 bits, so the contract holds with the constants patched
    # too: other working precisions, and a budget of 9 steps, which often
    # runs out in the refinement phase.
    monkeypatch.setattr(nullspace, "WORKING_PREC", prec)
    floor = 2.0 ** (24 - prec)
    for i, t in enumerate(SEARCH_TREES):
        max_iter = 9 if i % 2 else 60
        monkeypatch.setattr(nullspace, "MAX_STEPS", max_iter)
        for k in range(2, 7):
            (c,) = numeric_search(t, k, seed=i, restarts=1, tol=tol)
            assert all(type(z) is CycNum and z.m == 4 for z in c.point)
            assert all((1 << prec) % Fraction(a).denominator == 0
                       for z in c.point for a in z.coeffs)
            _assert_residual_bounds(t, k, c)
            if c.stop == "tol":
                assert c.residual < tol, (t, k, c)
            if c.stop == "precision_floor":
                assert tol <= c.residual < floor, (t, k, c)
            assert 0 <= c.iterations <= max_iter, (t, k, c)


def _cycnum_gradient(t, k, x):
    """The gradient at pairs (a, b) over CycNum(4), as pairs."""
    return [g.coeffs for g in gradient_direct(t, k, [CycNum(4, z) for z in x])]


def _random_gaussians(rnd, n):
    """n Gaussian integers with parts in [-2^128, 2^128), as the search's are."""
    return [(rnd.getrandbits(129) - (1 << 128), rnd.getrandbits(129) - (1 << 128))
            for _ in range(n)]


EXTREME = (1 << 129) - 1


def _extreme_cases():
    """Every part +/-(2^129 - 1), all coordinates equal, for each sign of
    each part: the largest side sums a point with 129-bit parts has."""
    for n in (1, 2, 3, 6, 40):
        for t in (path_tree(n), star_tree(n)):
            for k in range(2, 13):
                for a in (EXTREME, -EXTREME):
                    for b in (EXTREME, -EXTREME):
                        yield t, k, [(a, b)] * n


def _gaussian_gradient_cases():
    """Random points on path, star and random trees up to n = 8 and one of
    n = 40, random points on every tree class with n <= 6, then the extreme
    points."""
    rnd = random.Random(23)
    trees = [t for n in range(1, 9) for t in (path_tree(n), star_tree(n), random_tree(n, n))]
    for t in trees + [random_tree(40, 1)]:
        for k in range(2, 9):
            yield t, k, _random_gaussians(rnd, t.n)
    for n in range(1, 7):
        for t in enumerate_trees(n):
            for k in range(3, 7):
                yield t, k, _random_gaussians(rnd, n)
    yield from _extreme_cases()


def test_gaussian_gradient_matches_the_cycnum_gradient():
    for t, k, x in _gaussian_gradient_cases():
        assert _gaussian_gradient(t, k, x) == _cycnum_gradient(t, k, x), (t, k, x[0])


def _decode_at(t, k, x, shift):
    """``_gaussian_gradient``'s evaluation and read-back, at a given L."""
    modulus = (1 << 2 * shift) + 1
    out = []
    for v in gradient_direct(t, k, [a + (b << shift) for a, b in x]):
        r = v % modulus
        r = r - modulus if r > modulus >> 1 else r
        im = (r + (1 << (shift - 1))) >> shift
        out.append((r - (im << shift), im))
    return out


def test_gaussian_gradient_bound_needs_every_term():
    # The side sums reach n 2^(B+1), so L needs the (k-1) bitlen(n) term:
    # without it, 308 of these 440 points decode wrongly.
    wrong = 0
    for t, k, x in _extreme_cases():
        n, bits = t.n, 129
        full = (2 * k * (n - 1)).bit_length() + (k - 1) * (bits + 1 + n.bit_length()) + 1
        assert _decode_at(t, k, x, full) == _cycnum_gradient(t, k, x)
        wrong += _decode_at(t, k, x, full - (k - 1) * n.bit_length()) != _cycnum_gradient(t, k, x)
    assert wrong > 100


def test_hessian_direct_writes_into_out():
    rng = np.random.default_rng(31)
    for t in (path_tree(5), star_tree(6), random_tree(7, 2)):
        for k in range(2, 7):
            z = rng.standard_normal(t.n) + 1j * rng.standard_normal(t.n)
            system = np.empty((t.n + 1, t.n), dtype=np.complex128)
            buf = system[:t.n]
            assert hessian_direct(t, k, z, out=buf) is buf
            assert buf.tobytes() == hessian_direct(t, k, z).tobytes(), (t, k)


def _assert_sqrt_up(top, base):
    r = _sqrt_up(top, base)
    assert Fraction(top, base) <= Fraction(r) ** 2
    assert Fraction(r) ** 2 <= Fraction(top, base) * (1 + Fraction(1, 2 ** 50)) ** 2


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 2000), st.integers(1, 2 ** 2000))
def test_sqrt_up_bounds_the_root_from_above(top, base):
    _assert_sqrt_up(top, base)


def test_sqrt_up_edges():
    assert _sqrt_up(0, 7) == 0.0
    # the root is a normal float, its square underflows float64
    _assert_sqrt_up(1, 10 ** 400)
    _assert_sqrt_up(3, 7 * 10 ** 400)
    assert 0 < _sqrt_up(1, 10 ** 400) < 1.01e-200
    # exact squares: the bound sits just above the root
    _assert_sqrt_up(4, 1)
    _assert_sqrt_up(2 ** 256, 1)


def test_search_single_vertex():
    (c,) = numeric_search(Tree(1, []), 4, seed=0, restarts=1)
    assert (c.residual, c.iterations, c.stop) == (0.0, 0, "tol")


def test_search_checks_a_float64_tol_stop_at_working_precision(monkeypatch, path3):
    # A float64 loop that reads "tol" once its residual is below 1e-6 ends
    # far from the target.  The search must re-evaluate that point exactly,
    # refine it in Gaussian integers, and report the exact bound there.
    descend = nullspace._descend

    def optimistic(t, k, x, floor, tol, budget):
        if isinstance(x, np.ndarray):
            floor, tol = 1e-6, 1.0
        return descend(t, k, x, floor, tol, budget)

    monkeypatch.setattr(nullspace, "_descend", optimistic)
    cands = numeric_search(path3, 3, seed=11, restarts=8, tol=1e-12)
    assert sum(c.stop == "tol" for c in cands) >= 3
    for c in cands:
        _assert_residual_bounds(path3, 3, c)
        assert c.stop != "tol" or c.residual < 1e-12


@pytest.mark.parametrize("k, tol", [(4, 1e-12), (3, 1e-30)])
def test_float64_passes_read_the_gradient_off_the_hessian(monkeypatch, k, tol):
    # By Euler g = H x / (k-1), so a complex128 pass makes no gradient_direct
    # call: a restart makes one to bound the residual at its rounded point
    # and one more per refinement step (there are some at tol = 1e-30), each
    # on the ints that encode the Gaussian integers at i = 2^L.
    calls, refinement_steps = [], []
    gradient, descend = nullspace.gradient_direct, nullspace._descend

    def counted_gradient(t, k, x):
        calls.append(x)
        return gradient(t, k, x)

    def recorded_descend(t, k, x, floor, tol, budget):
        result = descend(t, k, x, floor, tol, budget)
        if not isinstance(x, np.ndarray):
            refinement_steps.append(result[2])
        return result

    monkeypatch.setattr(nullspace, "gradient_direct", counted_gradient)
    monkeypatch.setattr(nullspace, "_descend", recorded_descend)
    numeric_search(random_tree(6, 1), k, 1, restarts=3, tol=tol)
    assert len(refinement_steps) == 3 and (k == 4 or sum(refinement_steps) > 0)
    assert len(calls) == 3 + sum(refinement_steps)
    assert all(type(z) is int for x in calls for z in x)
