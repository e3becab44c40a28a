"""Tree parsing, Prüfer machinery, and the two Steiner distance routes."""

import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerdh import (EmptySet, MalformedInput, NotATree, TooLarge, Tree,
                       build_steiner, canonical_key, enumerate_trees,
                       format_tree, parse_tree, path_tree, prufer_decode,
                       prufer_encode, random_tree, star_tree,
                       steiner_distance_bruteforce)
from steinerdh.trees import narrowest_dtype
from conftest import tree_corpus
from oracles import multiset_hypermatrix, side_distances


def test_parse_examples():
    t = parse_tree("3\n1 2\n2 3")
    assert t.edges == ((1, 2), (2, 3))
    s = parse_tree("4\n1 2\n1 3\n1 4")
    assert s.degrees[1] == 3
    with pytest.raises(NotATree):
        parse_tree("3\n1 2\n1 2")


def test_parse_malformed():
    with pytest.raises(MalformedInput):
        parse_tree("")
    with pytest.raises(MalformedInput):
        parse_tree("x\n1 2")
    with pytest.raises(MalformedInput):
        parse_tree("3\n1 2")
    with pytest.raises(MalformedInput):
        parse_tree("3\n1 2 3\n2 3")
    with pytest.raises(NotATree):
        parse_tree("4\n1 2\n2 3\n1 3")  # cycle, vertex 4 isolated
    with pytest.raises(NotATree):
        parse_tree("3\n1 2\n4 5")


@pytest.mark.parametrize("text", [
    "1_0\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 10)),   # Python literal count
    "+3\n1 2\n2 3\n",
    "-1\n",
    "3\n1 2\n2 +3\n",                 # signed label
    "3\n1 2\n2 0x3\n",
    "3\n1 2\n2 \u0663\n",             # Arabic-Indic three
    "\u00b3\n1 2\n2 3\n",             # superscript three
])
def test_parse_reads_only_ascii_digits(text):
    with pytest.raises(MalformedInput):
        parse_tree(text)


def test_format_round_trip():
    for seed in range(10):
        t = random_tree(9, seed)
        assert parse_tree(format_tree(t)).edges == t.edges


def test_random_tree_determinism_and_small_cases():
    assert random_tree(1, 7).n == 1
    assert random_tree(2, 7).edges == ((1, 2),)
    a = random_tree(8, 42)
    b = random_tree(8, 42)
    assert a.edges == b.edges
    assert random_tree(8, 43).edges != a.edges


def test_prufer_round_trips():
    for n in (3, 4, 5, 6):
        for seq in product(range(1, n + 1), repeat=n - 2):
            assert prufer_encode(prufer_decode(n, list(seq))) == list(seq)
    for seed in range(25):
        t = random_tree(10, seed)
        assert prufer_decode(10, prufer_encode(t)) == t
    # a sequence of the wrong length, or with an entry outside 1..n, is refused
    for n, seq in ((5, [1, 2]), (5, [1, 2, 3, 4]), (5, [1, 6, 2]), (5, [0, 1, 2])):
        with pytest.raises(MalformedInput):
            prufer_decode(n, seq)


def test_pairwise_distance_examples(path3, star4):
    assert path3.steiner((1, 3)) == 2
    assert path3.steiner((2, 2)) == 0
    assert star4.steiner((2, 3)) == 2
    with pytest.raises(ValueError):
        path3.steiner((0, 1))
    with pytest.raises(ValueError):
        path3.steiner((1, 4))
    assert Tree(1, []).distances().tolist() == [[0]]
    assert path_tree(2).distances().tolist() == [[0, 1], [1, 0]]
    assert star4.distances().tolist() == [[0, 1, 1, 1], [1, 0, 2, 2],
                                          [1, 2, 0, 2], [1, 2, 2, 0]]


def test_steiner_examples(path3, star4):
    assert path3.steiner([1, 3]) == 2
    assert star4.steiner([2, 3, 4]) == 3
    assert star4.steiner(range(1, 5)) == 3
    assert path3.steiner([2, 2, 2]) == 0
    with pytest.raises(EmptySet):
        path3.steiner([])


def test_steiner_whole_vertex_set_is_n_minus_1():
    for seed in range(10):
        t = random_tree(7, seed)
        assert t.steiner(range(1, 8)) == 6


def test_bruteforce_examples(path3, star4):
    assert steiner_distance_bruteforce(path3, [1, 3]) == 2
    assert steiner_distance_bruteforce(star4, [2, 3, 4]) == 3
    assert steiner_distance_bruteforce(path3, [2]) == 0
    with pytest.raises(EmptySet):
        steiner_distance_bruteforce(path3, [])
    with pytest.raises(TooLarge):
        steiner_distance_bruteforce(path_tree(13), [1, 2])


def test_steiner_matches_bruteforce_small_sets():
    for t in tree_corpus(12, 4, 9, seed0=50):
        for size in (1, 2, 3, 4):
            for S in combinations(range(1, t.n + 1), size):
                assert t.steiner(S) == steiner_distance_bruteforce(t, S)


def test_steiner_pairs_equal_pairwise():
    for t in tree_corpus(8, 3, 8):
        d = t.distances()
        assert d.shape == (t.n, t.n)
        for u in range(1, t.n + 1):
            for v in range(1, t.n + 1):
                assert t.steiner([u, v]) == d[u - 1, v - 1] == \
                    steiner_distance_bruteforce(t, [u, v])


def test_distances_recurrence_matches_side_products_and_bruteforce():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            d = t.distances()
            assert d.dtype == narrowest_dtype(n - 1)
            assert np.array_equal(d, side_distances(t))
            assert d.tolist() == [[steiner_distance_bruteforce(t, (u, v))
                                   for v in range(1, n + 1)] for u in range(1, n + 1)]
    for n in (8, 13, 31, 64, 120, 200):
        for seed in range(3):
            t = random_tree(n, 900 + seed)
            assert np.array_equal(t.distances(), side_distances(t)), (n, seed)
    assert np.array_equal(path_tree(200).distances(), side_distances(path_tree(200)))
    assert np.array_equal(star_tree(200, 7).distances(), side_distances(star_tree(200, 7)))


def test_order2_build_holds_only_distances_beyond_sides():
    # the order-2 build makes its own int8 S and steps through int8 blocks of
    # edges, so beyond D and S it holds one n-entry row sum and one block; the
    # allowance beyond them is in bytes, 0.2 of an int64 D (D itself is uint16)
    t = random_tree(600, 17)
    tracemalloc.start()
    try:
        d = t.distances()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.dtype == np.uint16
    s_bytes = (t.n - 1) * t.n
    assert peak - d.nbytes - s_bytes < 0.2 * 8 * t.n * t.n, (peak, d.nbytes)


def test_sides_holds_only_s_at_its_peak():
    # S is filled in place: no identity matrix, no list of row arrays
    t = random_tree(600, 17)
    tracemalloc.start()
    try:
        sides = t.sides()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # beyond S, the allowance an int64 S had: 0.2 of its 8 bytes an entry
    assert peak - sides.nbytes < 0.2 * 8 * (t.n - 1) * t.n, peak / sides.nbytes


def test_triple_identity():
    # 2*d(i,j,k) = d(i,j) + d(i,k) + d(j,k) for distinct triples
    for t in tree_corpus(10, 3, 9, seed0=7):
        for S in combinations(range(1, t.n + 1), 3):
            i, j, k = S
            lhs = 2 * t.steiner(S)
            assert lhs == t.steiner((i, j)) + t.steiner((i, k)) + t.steiner((j, k))


def test_far_sums_are_edge_cuts():
    for t in tree_corpus(12, 1, 9, seed0=500):
        n = t.n
        assert t.order[0] == 1 and sorted(t.order) == list(range(1, n + 1))
        sides = t.sides()
        assert sides.shape == (n - 1, n) and sides.dtype == np.int8
        for c, side in zip(t.order[1:], sides):
            p = t.parent[c]
            assert (min(c, p), max(c, p)) in t.edges
            assert t.order.index(p) < t.order.index(c)
            # the far side of edge (c, p) is every vertex closer to c than to p
            assert [bool(x) for x in side] == [
                steiner_distance_bruteforce(t, (w, c)) < steiner_distance_bruteforce(t, (w, p))
                for w in range(1, n + 1)]
        assert t.far_sums(list(range(1, n + 1))) == [
            sum(w for w in range(1, n + 1) if side[w - 1]) for side in sides]
        # the edge-cut identity: a set's Steiner distance counts the edges it straddles
        for size in (1, 2, 3):
            for S in combinations(range(1, n + 1), size):
                cut = sum(1 for side in sides if 0 < sum(side[v - 1] for v in S) < size)
                assert steiner_distance_bruteforce(t, S) == cut


def test_far_sums_skip_zero_sums_and_match_the_side_matrix():
    # sparse values whose subtree sums cancel to zero, so the pass skips them
    rng = np.random.default_rng(16)
    for t in tree_corpus(12, 1, 9, seed0=700):
        for _ in range(4):
            values = [0] * t.n
            for v in rng.choice(t.n, size=min(t.n, 3), replace=False):
                values[v] = int(rng.integers(-2, 3))
            values[int(rng.integers(t.n))] -= sum(values)   # s = 0
            assert t.far_sums(values) == (t.sides() @ values).tolist(), (t, values)


def test_far_sums_need_one_value_per_vertex():
    t = path_tree(3)
    for values in ([1, 2], [1, 2, 3, 4], []):
        with pytest.raises(ValueError):
            t.far_sums(values)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=3, max_value=9), st.integers(min_value=0, max_value=10 ** 9),
       st.data())
def test_steiner_monotone_under_superset(n, seed, data):
    t = random_tree(n, seed)
    small = data.draw(st.sets(st.integers(1, n), min_size=1, max_size=n))
    extra = data.draw(st.sets(st.integers(1, n), max_size=n))
    assert t.steiner(small) <= t.steiner(small | extra)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=10 ** 9))
def test_random_tree_is_valid(n, seed):
    t = random_tree(n, seed)
    assert sum(t.degrees) == 2 * (n - 1)
    assert len(t.edges) == n - 1


def test_enumerate_trees_counts_and_distinct_keys():
    # OEIS A000055: unlabeled trees on n vertices
    reps = {n: enumerate_trees(n) for n in range(1, 11)}
    assert {n: len(r) for n, r in reps.items()} == {
        1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}
    for n, r in reps.items():
        assert all(t.n == n for t in r)
        assert len({canonical_key(t) for t in r}) == len(r)


def test_canonical_key_is_isomorphism_invariant():
    # relabeling must not change the key; different shapes must differ
    assert canonical_key(path_tree(4)) != canonical_key(star_tree(4))
    t1 = parse_tree("4\n1 2\n2 3\n3 4")
    t2 = parse_tree("4\n3 1\n1 4\n4 2")  # path relabeled
    assert canonical_key(t1) == canonical_key(t2)
    assert canonical_key(star_tree(5, center=1)) == canonical_key(star_tree(5, center=3))


def test_tree_rejects_bad_shapes():
    with pytest.raises(NotATree):
        Tree(0, [])
    with pytest.raises(NotATree):
        Tree(2, [(1, 1)])
    with pytest.raises(NotATree):
        Tree(3, [(1, 2), (1, 2)])
    with pytest.raises(NotATree):
        Tree(4, [(1, 2), (3, 4), (1, 3), (2, 4)])


def test_sides_built_fresh_for_each_caller():
    # each call owns its S: writing into one leaves every later build exact
    for t in tree_corpus(8, 2, 7, seed0=640):
        sides = t.sides()
        again = t.sides()
        assert again is not sides and np.array_equal(again, sides)
        assert sides.flags.writeable and again.flags.writeable
        sides[:] = 1 - sides
        assert np.array_equal(t.sides(), again)
        assert t.distances().tolist() == [[steiner_distance_bruteforce(t, (u, v))
                                           for v in range(1, t.n + 1)]
                                          for u in range(1, t.n + 1)]
        for k in (2, 3):
            assert build_steiner(t, k) == multiset_hypermatrix(t, k)
