"""Acceptance suite: every shipped guarantee, one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All seeds and tolerances are frozen here.

Criterion 7 pins the two-vertex root-of-unity scan at every order in
[2, 12]: true (no nonzero singular point, so the symmetric hyperdeterminant
is nonzero) everywhere except k = 7, where 1 + zeta_3 is the primitive sixth
root of unity, (1 + zeta_3)^6 = 1, and (1, zeta_3) is an exact
machine-verified nullvector.  Only k = 2 (the determinant) and k = 3
(Cayley, -3) settle the full hyperdeterminant.

Criterion 10 compares its even-order floors with the shipped regression log
`tests/data/search_floors.json` and writes its fresh log under pytest's
`tmp_path`; no test rewrites a tracked file.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import mpmath
import numpy as np
import pytest

import steinerdh as sd
from oracles import (c_coefficients, determinant_exact, distance_matrix,
                     distance_quadratic, embed128, evaluate, order3_form, s_form)

DATA_DIR = Path(__file__).parent / "data"


@contextmanager
def criterion(num: int, label: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {num:2d} FAIL  {label}", flush=True)
        raise
    elapsed = time.monotonic() - started
    print(f"\n[acceptance] criterion {num:2d} PASS  {label}  ({elapsed:.1f}s)",
          flush=True)


def rational_stream(seed: int):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))

    def draw() -> Fraction:
        return Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))

    return draw


def test_criterion_01_graham_pollak_determinants():
    with criterion(1, "500 random trees n in [2,12]: det D = -(n-1)(-2)^(n-2) by the "
                      "shipped det_order2 and by Bareiss, < 10 s"):
        started = time.monotonic()
        for i in range(500):
            n = 2 + i % 11
            t = sd.random_tree(n, 10_000 + i)
            value = sd.graham_pollak_value(n)
            assert sd.det_order2(t) == value, i
            assert determinant_exact(distance_matrix(t)) == value, i
        assert time.monotonic() - started < 10.0


def test_criterion_02_odd_order_vanishing_certificates():
    with criterion(2, "odd-order certificates: all iso classes n in [3,6], "
                      "k in {3,5}; 20 random n in [3,5], k = 7; < 2 min"):
        started = time.monotonic()
        class_counts = {}
        for n in range(3, 7):
            reps = sd.enumerate_trees(n)
            class_counts[n] = len(reps)
            for t in reps:
                for k in (3, 5):
                    rep = sd.verify_nullvector(
                        t, k, sd.canonical_odd_nullvector(t, k))
                    assert rep.exact_zero, (n, k, t)
        assert class_counts == {3: 1, 4: 2, 5: 3, 6: 6}
        for i in range(20):
            t = sd.random_tree(3 + i % 3, 20_000 + i)
            rep = sd.verify_nullvector(t, 7, sd.canonical_odd_nullvector(t, 7))
            assert rep.exact_zero, (7, t)
        assert time.monotonic() - started < 120.0


def test_criterion_03_degenerate_theorem():
    with criterion(3, "50 random (tree, k), n <= 6, k in {3,4}: "
                      "degenerate-zeroed unit nullvector verifies exactly"):
        for i in range(50):
            n = 2 + i % 5
            k = 3 + i % 2
            t = sd.random_tree(n, 30_000 + i)
            hz = sd.zero_degenerate(sd.build_steiner(t, k))
            point = sd.degenerate_nullvector(hz)
            assert sd.verify_form_nullvector(hz, point).exact_zero, (n, k, i)


def test_criterion_04_order3_identity_suite():
    with criterion(4, "100 random trees n <= 8: p = s*g; Euler = 3sg; "
                      "s^3 = sum f_r D_r p (cofactors carry the forced 1/3; "
                      "unscaled degree cofactors pinned to 3*s^3); "
                      "no D_r p divisible by s"):
        for i in range(100):
            n = 2 + i % 7
            t = sd.random_tree(n, 40_000 + i)
            P = sd.order3_tensor(t)
            assert sd.verify_product_decomposition(P, t.distances()), (i, "p=sg")
            assert sd.verify_s3_decomposition(P, t.degrees[1:]), (i, "s3")
            assert sd.verify_not_divisible(P), (i, "notdiv")
            p = order3_form(t)
            s = s_form(n)
            total = euler = sd.SparsePoly.zero(n)
            for r in range(1, n + 1):
                x_r = sd.SparsePoly.variable(n, r)
                unscaled = (s * Fraction(2 - t.degrees[r]) - x_r * Fraction(2, 3)) \
                    * Fraction(1, n - 1)
                total = total + unscaled * p.partial(r)
                euler = euler + x_r * p.partial(r)
            # the report reads the Euler row off the product row; here it is
            # checked on the polynomial itself
            assert euler == 3 * s * distance_quadratic(t), (i, "euler")
            assert total == 3 * s ** 3, (i, "unscaled cofactors != 3*s^3")


def test_criterion_05_matrix_algebra():
    with criterion(5, "200 random trees n <= 12: inverse formula * D = I; "
                      "c*D = ones with c_r = (2-deg_r)/(n-1); sum c = 2/(n-1)"):
        for i in range(200):
            n = 2 + i % 11
            t = sd.random_tree(n, 50_000 + i)
            D = distance_matrix(t)
            num, den = sd.gl_inverse(t)
            assert (sd.RatMatrix(num.tolist(), den) @ D).is_identity(), i
            c = c_coefficients(t)
            assert c == [Fraction(2 - t.degrees[r], n - 1)
                         for r in range(1, n + 1)]
            assert D.row_times(c) == [Fraction(1)] * n, i
            assert sum(c) == Fraction(2, n - 1), i


def test_criterion_06_completion():
    with criterion(6, "100 random rational tails, trees n in [3,8]: completion "
                      "yields exact certificates (verified points, or a checked "
                      "quadratic whose 128-bit roots give |s|, |g| <= 1e-30)"):
        draw = rational_stream(60_000)
        point_seen = quadratic_seen = 0
        for i in range(100):
            n = 3 + i % 6
            t = sd.random_tree(n, 61_000 + i)
            tail = [draw() for _ in range(n - 2)]
            if all(x == 0 for x in tail):
                tail[0] = Fraction(1)
            cands = sd.complete_nullvector(t, tail)
            assert all(c.verified and not c.trivial for c in cands), (i, t, tail)
            if cands[0].point is not None:
                assert all(sd.membership_sg(t, c.point) for c in cands), (i, t, tail)
                point_seen += 1
            else:
                assert len(cands) == 1, (i, t, tail)
                res = _completion_residual_128(t, tail, cands[0].quadratic)
                assert res <= 1e-30, (i, t, tail, float(res))
                quadratic_seen += 1
        assert point_seen > 0 and quadratic_seen > 0


def _completion_residual_128(t, tail, quadratic):
    """max(|s|, |g|) over the points (a1, -a1 - sum(tail), tail), a1 either
    root of A a1^2 + B a1 + C, the roots taken by mpmath at 128 bits from the
    embedded coefficients and s, g evaluated term by term."""
    with mpmath.workprec(128):
        A, B, C = (embed128(x) for x in quadratic)
        coords = [mpmath.mpf(x.numerator) / x.denominator for x in tail]
        sigma = mpmath.fsum(coords)
        sq = mpmath.sqrt(B * B - 4 * A * C)
        res = 0
        for a1 in ((-B + sq) / (2 * A), (-B - sq) / (2 * A)):
            point = [a1, -a1 - sigma, *coords]
            res = max(res, abs(evaluate(s_form(t.n), point)),
                      abs(evaluate(distance_quadratic(t), point)))
        return res


def _two_vertex_singular_orders(orders, tol):
    """Oracle for the two-vertex scan, in plain 128-bit complex floats.

    A nonzero singular point of (x1+x2)^k - x1^k - x2^k needs x2 = zeta*x1
    with zeta^(k-1) = 1 and (1+zeta)^(k-1) = 1.  Each zeta = e^(2 pi i j/(k-1))
    is formed with mpmath, not with the exact cyclotomic field the scan uses;
    an order counts as singular when some |(1+zeta)^(k-1) - 1| <= tol.  Every
    other residual must sit far above tol, so the decision is unambiguous.
    """
    singular = set()
    with mpmath.workprec(128):
        for k in orders:
            m = k - 1
            for j in range(m):
                zeta = mpmath.expjpi(mpmath.mpf(2 * j) / m)
                res = abs((1 + zeta) ** m - 1)
                if res <= tol:
                    singular.add(k)
                else:
                    assert res >= 0.1, (k, j, float(res))
    return singular


def test_criterion_07_small_hyperdeterminants():
    with criterion(7, "Cayley 2x2x2 of the two-vertex order-3 matrix = -3 "
                      "(full hyperdeterminant); two-vertex scan k in [2,12]: "
                      "no nonzero singular point (symmetric hyperdeterminant "
                      "nonzero) except k = 7, where (1, zeta_3) is an exact "
                      "nullvector; agrees with a 128-bit complex-root oracle"):
        k2 = sd.prufer_decode(2, [])
        assert sd.cayley_222(sd.build_steiner(k2, 3)) == -3

        orders = range(2, 13)
        scan = {k: sd.verify_k2_no_nullvector(k) for k in orders}
        assert scan == {k: k != 7 for k in orders}, scan

        # 1 + zeta_3 is a primitive sixth root of unity, so (1 + zeta_3)^6 = 1
        witness = sd.two_vertex_nullvector_witness(7)
        assert witness is not None
        assert sd.verify_nullvector(k2, 7, witness).exact_zero

        singular = _two_vertex_singular_orders(orders, mpmath.mpf("1e-30"))
        assert singular == {7}, singular


def test_criterion_08_oracle_equivalence():
    with criterion(8, "50 random trees n <= 9: Tree.steiner on all <=4-vertex "
                      "sets, Tree.distances, distance_matrix and order-3 "
                      "build_steiner entries == connected-subset brute force; "
                      "triple identity"):
        for i in range(50):
            n = 2 + i % 8
            t = sd.random_tree(n, 80_000 + i)
            d, dm = t.distances(), distance_matrix(t)
            for a, b in product(range(n), repeat=2):
                want = sd.steiner_distance_bruteforce(t, (a + 1, b + 1))
                assert d[a, b] == dm[a, b] == want, (i, a, b)
            h = sd.build_steiner(t, 3)
            for idx in product(range(n), repeat=3):
                want = sd.steiner_distance_bruteforce(t, [v + 1 for v in idx])
                assert h.entries[idx] == want, (i, idx)
            for size in (1, 2, 3, 4):
                if size > n:
                    continue
                for S in combinations(range(1, n + 1), size):
                    assert t.steiner(S) == \
                        sd.steiner_distance_bruteforce(t, S), (i, S)
            for S in combinations(range(1, n + 1), 3):
                a, b, c = S
                assert 2 * t.steiner(S) == (
                    t.steiner((a, b)) + t.steiner((a, c)) + t.steiner((b, c))), (i, S)


def _mixed_points(t, draw):
    """Nullvectors, near-nullvectors, and haystack points for one tree."""
    n = t.n
    y = sd.canonical_odd_nullvector(t, 3)
    out = [y, [2 * x for x in y], [Fraction(-5, 3) * x for x in y]]
    bumped = list(y)
    bumped[0] = bumped[0] + 1
    out.append(bumped)  # breaks s
    shifted = list(y)
    shifted[0] = shifted[0] + Fraction(1, 2)
    shifted[1] = shifted[1] - Fraction(1, 2)
    out.append(shifted)  # keeps s = 0, generically breaks g
    tail = [draw() for _ in range(n - 2)]
    if all(x == 0 for x in tail):
        tail[0] = Fraction(2)
    for c in sd.complete_nullvector(t, tail):
        if c.point is not None and not c.trivial:
            out.append(list(c.point))
    for _ in range(3):
        pt = [draw() for _ in range(n)]
        if all(x == 0 for x in pt):
            pt[0] = Fraction(1)
        out.append(pt)
        balanced = list(pt)
        balanced[-1] = -sum(pt[:-1], Fraction(0))
        if not all(x == 0 for x in balanced):
            out.append(balanced)  # s = 0 slice
    return out


def test_criterion_09_nullvariety_membership_equivalence():
    with criterion(9, "1000 mixed points, trees n <= 6, k = 3: membership in "
                      "<s, g> iff exact gradient vanishing"):
        draw = rational_stream(90_000)
        checked = 0
        tree_idx = 0
        while checked < 1000:
            t = sd.random_tree(3 + tree_idx % 4, 91_000 + tree_idx)
            tree_idx += 1
            for point in _mixed_points(t, draw):
                member = sd.membership_sg(t, point)
                exact = sd.verify_nullvector(t, 3, point).exact_zero
                assert member == exact, (t, point)
                checked += 1
        assert checked >= 1000


def test_criterion_10_even_order_search_floors(tmp_path):
    with criterion(10, "search floors: k=3 floor <= 1e-10; k=4 floors on "
                       "n in [2,4] (200 restarts) exceed it by >= 4 orders "
                       "and match the shipped log to 1e-6 relative "
                       "(conjecture itself not asserted)"):
        odd = sd.numeric_search(sd.path_tree(3), 3, seed=7, restarts=200)
        odd_floor = odd[0].residual
        assert odd_floor <= 1e-10, odd_floor

        even_floors = {}
        for n, seed in ((2, 100), (3, 101), (4, 102)):
            t = sd.random_tree(n, seed)
            cands = sd.numeric_search(t, 4, seed=7, restarts=200)
            even_floors[n] = cands[0].residual

        even_min = min(even_floors.values())
        assert even_min >= 1e4 * odd_floor, (even_min, odd_floor)
        # the odd floor can be exactly 0: a float64 iterate may land on a
        # point whose 128-bit gradient vanishes exactly
        separation = (float(np.log10(even_min / odd_floor)) if odd_floor
                      else math.inf)

        log = {
            "seed": 7,
            "restarts": 200,
            "odd_order_floor": {"n": 3, "k": 3, "min_residual": odd_floor},
            "even_order_floors": [
                {"n": n, "k": 4, "min_residual": res}
                for n, res in sorted(even_floors.items())
            ],
            "separation_orders_of_magnitude": separation,
        }
        with open(tmp_path / "search_floors.json", "w", encoding="utf-8") as fh:
            json.dump(log, fh, indent=2, sort_keys=True)

        # The shipped log is the regression reference; after a deliberate
        # change to the search, refresh it from the copy above.  The even
        # floors are the best residuals of seeded runs (float64 iterates,
        # reported points and residuals evaluated at 128 bits), reproducible
        # to the last float64 bit on one machine; 1e-6 relative leaves room
        # for a start vector normalized by another BLAS.  The odd floor sits
        # at the precision floor and is held only to its bound above.
        with open(DATA_DIR / "search_floors.json", encoding="utf-8") as fh:
            shipped = json.load(fh)
        assert (shipped["seed"], shipped["restarts"]) == (7, 200), shipped
        assert shipped["odd_order_floor"]["min_residual"] <= 1e-10, shipped
        shipped_even = {row["n"]: row["min_residual"]
                        for row in shipped["even_order_floors"]
                        if row["k"] == 4}
        assert shipped_even.keys() == even_floors.keys(), shipped_even
        for n, res in even_floors.items():
            assert res == pytest.approx(shipped_even[n], rel=1e-6), \
                (n, res, shipped_even[n])
        print(f"\n[acceptance] search floors: odd {odd_floor:.3g}, "
              f"even min {even_min:.3g} "
              f"({log['separation_orders_of_magnitude']:.1f} orders apart)",
              flush=True)
