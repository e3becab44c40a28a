"""Cayley's 2x2x2 hyperdeterminant and the two-vertex analysis for general order."""

import json
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from steinerdh import (BudgetExceeded, CycNum, Hypermatrix, SteinerError, Tree, WrongShape,
                       build_steiner, cayley_222, det_order2,
                       enumerate_trees, graham_pollak_value,
                       path_tree, prufer_decode, random_tree, star_tree,
                       two_vertex_nullvector_witness, verify_k2_no_nullvector,
                       verify_nullvector, zero_degenerate)
from steinerdh import smalldet
from steinerdh.forms import SparsePoly
from oracles import (determinant_exact, distance_matrix, side_distances, substitute,
                     two_vertex_form, two_vertex_scan_all_roots)


def slice_discriminant(h: Hypermatrix) -> int:
    """Independent route: det(A0 + t*A1) is quadratic in t; the
    hyperdeterminant is its discriminant b^2 - 4ac."""
    a0 = [[int(h.entries[0, j, l]) for l in (0, 1)] for j in (0, 1)]
    a1 = [[int(h.entries[1, j, l]) for l in (0, 1)] for j in (0, 1)]

    def det2(m):
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]

    c = det2(a0)
    a = det2(a1)
    both = det2([[a0[j][l] + a1[j][l] for l in (0, 1)] for j in (0, 1)])
    b = both - a - c
    return b * b - 4 * a * c


def test_cayley_steiner_k2_is_minus_3(k2):
    h = build_steiner(k2, 3)
    assert cayley_222(h) == -3
    assert slice_discriminant(h) == -3


def test_cayley_trivial_cases(k2):
    zero = Hypermatrix(3, 2, np.zeros((2, 2, 2), dtype=np.int64))
    assert cayley_222(zero) == 0
    assert cayley_222(zero_degenerate(build_steiner(k2, 3))) == 0


def test_cayley_matches_slice_discriminant_on_random_entries():
    rng = np.random.default_rng(17)
    for _ in range(200):
        arr = rng.integers(-6, 7, size=(2, 2, 2))
        h = Hypermatrix(3, 2, arr)
        assert cayley_222(h) == slice_discriminant(h)


def test_cayley_wrong_shape(path3):
    with pytest.raises(WrongShape):
        cayley_222(build_steiner(path3, 3))
    with pytest.raises(WrongShape):
        cayley_222(build_steiner(prufer_decode(2, []), 4))


def test_cayley_vanishes_exactly_on_degenerate_unit_direction(k2):
    # entries with a verified nullvector must be in the vanishing locus
    hz = zero_degenerate(build_steiner(k2, 3))
    assert cayley_222(hz) == 0
    # and the true Steiner matrix is not: -3 != 0 matches the two-vertex scan
    assert verify_k2_no_nullvector(3)


def test_k2_scan_small_orders():
    assert verify_k2_no_nullvector(2)
    assert verify_k2_no_nullvector(3)
    assert verify_k2_no_nullvector(5)


def test_k2_scan_zero_branch_matches_substitution():
    # the scan reads D_1 p(0, x2) = k x2^(k-1) off the gradient at (0, 1) by
    # homogeneity; substituting x1 = 0 into the expanded partials checks it
    zero = SparsePoly.zero(2)
    for k in range(2, 14):
        p = two_vertex_form(k)
        assert substitute(p.partial(1), 1, zero) == SparsePoly(2, {(0, k - 1): k})
        assert substitute(p.partial(2), 2, zero) == SparsePoly(2, {(k - 1, 0): k})


def test_k2_scan_is_false_exactly_at_k_1_mod_6():
    # 1 + zeta_3 is the sixth root of unity, so (1 + zeta_3)^(k-1) = 1 whenever
    # 6 | k-1: the scan must fail there, and the surviving pair really is a
    # nullvector -- the two-vertex hyperdeterminant vanishes for those orders.
    results = {k: verify_k2_no_nullvector(k) for k in range(2, 20)}
    assert {k for k, ok in results.items() if not ok} == {7, 13, 19}
    k2 = prufer_decode(2, [])
    for k in (7, 13):
        witness = two_vertex_nullvector_witness(k)
        assert witness is not None
        report = verify_nullvector(k2, k, witness)
        assert report.exact_zero
    for k in (2, 3, 4, 5, 6, 8, 9, 10, 11, 12):
        assert two_vertex_nullvector_witness(k) is None


def _witness_json(witness) -> str:
    return json.dumps(witness and [x.to_json() for x in witness])


def test_orbit_scan_matches_the_all_roots_scan():
    # one root per order against every root of unity in Q(zeta_(k-1)); the
    # oracle's cost grows like k^3 log k, so the range stops at k = 73
    for k in range(2, 74):
        assert (_witness_json(two_vertex_nullvector_witness(k))
                == _witness_json(two_vertex_scan_all_roots(k))), k


def test_orbit_scan_makes_one_power_per_order(monkeypatch):
    # one power per divisor d of k-1, taken in Q(zeta_d), largest d (smallest
    # j = (k-1)/d) first, and none after the witness at d = 3
    conductors = []
    power = CycNum.__pow__

    def counted(self, e):
        conductors.append(self.m)
        return power(self, e)

    monkeypatch.setattr(CycNum, "__pow__", counted)
    for k in range(2, 62):
        m = k - 1
        conductors.clear()
        witness = two_vertex_nullvector_witness(k)
        orders = [d for d in range(m, 0, -1) if m % d == 0]
        if witness is not None:
            orders = orders[:orders.index(3) + 1]
        assert conductors == orders, k


def test_k2_scan_refuses_a_wrong_axis_gradient(monkeypatch):
    # the axes branch is read off the tree gradient; a wrong one is an error,
    # not a certificate either way
    monkeypatch.setattr(smalldet, "gradient_direct", lambda t, k, point: [k, k])
    for k in (3, 5):
        with pytest.raises(SteinerError):
            verify_k2_no_nullvector(k)
    assert two_vertex_nullvector_witness(7) is not None   # the scan finds it first


def test_det_order2_examples(k2, path3):
    assert det_order2(k2) == -1
    assert det_order2(path3) == 4
    t = random_tree(10, 3)
    assert det_order2(t) == Fraction(-2304) == graham_pollak_value(10)


def test_det_order2_equals_bareiss():
    trees = [t for n in range(2, 9) for t in enumerate_trees(n)]
    trees += [random_tree(n, n) for n in range(2, 61)]
    for t in trees:
        assert det_order2(t) == determinant_exact(distance_matrix(t)), t


def test_det_order2_at_n_2000():
    start = time.process_time()
    for t in (path_tree(2000), star_tree(2000), random_tree(2000, 1)):
        assert det_order2(t) == graham_pollak_value(2000)
    assert time.process_time() - start < 2


def distance_mutants(t: Tree) -> list[np.ndarray]:
    """Every symmetric off-by-one pair and every two-row swap of D, in D's
    own dtype: the off-diagonal entries are >= 1, so d - 1 cannot wrap."""
    d = t.distances()
    out = []
    for i in range(t.n):
        for j in range(i + 1, t.n):
            for delta in (1, -1):
                bad = d.copy()
                bad[i, j] = bad[j, i] = int(d[i, j]) + delta
                out.append(bad)
            bad = d.copy()
            bad[[i, j]] = bad[[j, i]]
            out.append(bad)
    return out


def test_det_order2_reads_d(monkeypatch):
    # the route computes det D: a D that is not the tree's is refused,
    # never answered with the closed form, in D's narrow dtype and in int64
    for t in (random_tree(7, 2), star_tree(5), path_tree(2)):
        mutants = distance_mutants(t)
        assert all(bad.dtype == t.distances().dtype == np.uint8 for bad in mutants)
        for bad in mutants + [bad.astype(np.int64) for bad in mutants]:
            monkeypatch.setattr(Tree, "distances", lambda self, bad=bad: bad)
            with pytest.raises(SteinerError):
                det_order2(t)
            monkeypatch.undo()


def test_det_order2_refuses_a_d_too_narrow_for_n(monkeypatch):
    # modulo 2^8 a path's distances at n = 300 read like a proof; a uint8 D
    # cannot hold n - 1 = 299, so it is refused before the check
    t = path_tree(300)
    d = t.distances()
    assert d.dtype == np.uint16 and det_order2(t) == graham_pollak_value(300)
    monkeypatch.setattr(Tree, "distances", lambda self: d.astype(np.uint8))
    with pytest.raises(SteinerError, match="cannot hold"):
        det_order2(t)


@pytest.mark.parametrize("n", [255, 256, 257])
def test_det_order2_at_the_uint8_uint16_boundary(n):
    # n = 256 is D's last uint8 build and 257 its first uint16 one; a path
    # reaches the largest distance n - 1
    for t in (path_tree(n), star_tree(n), random_tree(n, 5)):
        assert t.distances().dtype == (np.uint8 if n <= 256 else np.uint16)
        assert det_order2(t) == graham_pollak_value(n), t


@pytest.mark.parametrize("t", [random_tree(600, 17), path_tree(600), star_tree(600)],
                         ids=["random", "path", "star"])
def test_det_order2_holds_few_copies_of_the_narrow_d(t):
    # on a fresh tree, S lives only while D is built, and both passes run in
    # place in D's own uint16 width, so at most two copies are alive at once:
    # D, its transpose, or a row gather
    d_bytes = t.n * t.n * np.dtype(np.uint16).itemsize
    tracemalloc.start()
    try:
        assert det_order2(t) == graham_pollak_value(600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.distances().nbytes == d_bytes
    assert peak < 2.2 * d_bytes, peak / d_bytes


def test_det_order2_checks_the_budget_before_building_d(monkeypatch):
    t = random_tree(50, 1)
    orders, steiner_array = [], Tree._steiner_array

    def recording(self, k, **kwargs):
        orders.append(k)
        return steiner_array(self, k, **kwargs)

    monkeypatch.setattr(Tree, "_steiner_array", recording)
    monkeypatch.setenv("STEINER_MEM_BUDGET", "2499")
    with pytest.raises(BudgetExceeded):
        det_order2(t)
    assert orders == []
    monkeypatch.setenv("STEINER_MEM_BUDGET", "2500")
    assert det_order2(t) == graham_pollak_value(50)
    assert orders == [2]


@pytest.mark.parametrize("t", [random_tree(257, 3), path_tree(257), star_tree(257)],
                         ids=["random", "path", "star"])
def test_det_order2_leaves_the_distances_of_the_tree_alone(t):
    # the passes run in place on det_order2's own D: the tree's distances are
    # untouched after it, and a second call reads the same value
    first = det_order2(t)
    assert np.array_equal(t.distances(), side_distances(t))
    assert det_order2(t) == first == graham_pollak_value(257)


def test_cayley_nonzero_agrees_with_search_floor(k2):
    # dual route: Cayley says -3 != 0, so the gradient system must have no
    # nonzero solution; the numeric search floor stays far from zero
    from steinerdh import numeric_search
    assert cayley_222(build_steiner(k2, 3)) != 0
    floor = numeric_search(k2, 3, seed=3, restarts=12)[0].residual
    assert floor > 1e-6


def test_cayley_zero_detected_by_witness():
    # random 2x2x2 matrices with an engineered nullvector must be in the
    # vanishing locus of the Cayley polynomial: take a(i,j,l) so that the
    # form is (x1 + x2)^2 * x1, whose gradient vanishes at (0, 1)... simplest
    # honest instance: the degenerate-zeroed pattern, checked entrywise above,
    # plus a rank-one symmetric pattern a_ijl = v_i v_j v_l with v = (1, -1)
    import numpy as np
    v = (1, -1)
    arr = np.array([[[v[i] * v[j] * v[l] for l in (0, 1)] for j in (0, 1)]
                    for i in (0, 1)], dtype=np.int64)
    h = Hypermatrix(3, 2, arr)
    # gradient of (v.x)^3/... vanishes on the hyperplane v.x = 0, e.g. (1, 1)
    from steinerdh import verify_form_nullvector
    assert verify_form_nullvector(h, [1, 1]).exact_zero
    assert cayley_222(h) == 0
