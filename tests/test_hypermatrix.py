"""Hypermatrix construction, degenerate zeroing, and I/O round trips."""

import tracemalloc
from itertools import product

import numpy as np
import pytest

from steinerdh import (BudgetExceeded, MalformedInput, WrongShape,
                       build_steiner, enumerate_trees, export_json, export_text,
                       import_json, import_text, path_tree, random_tree,
                       star_tree, steiner_distance_bruteforce, zero_degenerate)
from steinerdh.hypermatrix import (BUDGET_ENV_VAR, _MAX_AXES, _repeated_index_mask,
                                   entry_budget)
from oracles import multiset_hypermatrix, side_distances


def test_build_examples(k2, path3):
    h = build_steiner(k2, 3)
    for idx in product((1, 2), repeat=3):
        expected = 0 if len(set(idx)) == 1 else 1
        assert h.entry(idx) == expected
    h2 = build_steiner(path3, 2)
    assert h2.flat() == [0, 1, 2, 1, 0, 1, 2, 1, 0]
    assert build_steiner(path3, 3).entry((1, 2, 3)) == 2


def test_build_rejects_low_order(path3):
    with pytest.raises(WrongShape):
        build_steiner(path3, 1)


def test_supersymmetry():
    rng = np.random.default_rng(5)
    for seed in range(4):
        t = random_tree(5, seed)
        h = build_steiner(t, 4)
        for _ in range(50):
            idx = tuple(rng.integers(1, 6, size=4))
            perm = tuple(idx[j] for j in rng.permutation(4))
            assert h.entry(idx) == h.entry(perm)


def test_entries_match_bruteforce():
    for seed in range(6):
        t = random_tree(5, seed + 20)
        for k in (3, 4):
            h = build_steiner(t, k)
            for idx in product(range(1, 6), repeat=k):
                if len(set(idx)) == 1:
                    assert h.entry(idx) == 0
                else:
                    assert h.entry(idx) == steiner_distance_bruteforce(t, idx)


def test_build_matches_multiset_oracle_on_every_small_tree_class():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            for k in range(2, 6):
                h = build_steiner(t, k)
                assert h == multiset_hypermatrix(t, k), (t, k)
                assert np.array_equal(h.entries, side_distances(t, k)), (t, k)


def test_build_matches_the_side_einsum_past_brute_force_reach():
    for seed in range(30):
        t = random_tree(7 + seed % 10, 4100 + seed)
        k = 2 + seed % 4
        assert np.array_equal(build_steiner(t, k).entries, side_distances(t, k)), (t, k)
    for t in (random_tree(60, 4200), random_tree(60, 4201), path_tree(60), star_tree(60, 9)):
        assert np.array_equal(build_steiner(t, 3).entries, side_distances(t, 3)), t


def test_build_forms_no_second_full_size_array():
    # each recurrence step is one n^(k-1) row, so the peak stays near the result
    for n, k in ((30, 4), (12, 6)):
        t = random_tree(n, 77)
        t.sides()
        tracemalloc.start()
        try:
            h = build_steiner(t, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * h.entries.nbytes, (n, k, peak / h.entries.nbytes)


def test_entry_rejects_a_wrong_length_or_an_out_of_range_label(path3):
    h = build_steiner(path3, 3)
    assert h.entry((3, 1, 3)) == 2 and h.entry([1, 2, 2]) == 1
    for idx in ((0, 1, 3), (1, 4, 2), (-1, 1, 1), (1, 2), (1, 2, 3, 1), ()):
        with pytest.raises(ValueError, match=r"labels in 1\.\.3"):
            h.entry(idx)


def test_repeated_index_mask_matches_per_tuple_sets():
    for n, k in [(1, 2), (1, 4), (2, 2), (3, 2), (3, 3), (2, 5), (4, 4), (5, 3)]:
        mask = _repeated_index_mask(n, k)
        assert mask.shape == (n,) * k and mask.dtype == bool
        for idx in product(range(n), repeat=k):
            assert mask[idx] == (len(set(idx)) < k), (n, k, idx)


def test_zero_degenerate(k2, path3):
    hz = zero_degenerate(build_steiner(k2, 3))
    assert hz.flat() == [0] * 8
    h2 = build_steiner(path3, 2)
    assert zero_degenerate(h2) == h2  # diagonal already zero
    hz3 = zero_degenerate(build_steiner(path3, 3))
    assert hz3.entry((1, 1, 2)) == 0
    assert hz3.entry((1, 2, 3)) == 2
    assert zero_degenerate(hz3) == hz3


def test_export_json_examples(k2, path3):
    import json
    h = build_steiner(k2, 2)
    assert json.loads(export_json(h))["entries"] == [0, 1, 1, 0]
    single = build_steiner(random_tree(1, 0), 3)
    assert json.loads(export_json(single))["entries"] == [0]
    text = export_text(build_steiner(path3, 2))
    lines = text.strip().splitlines()
    assert lines[0] == "2 3"
    assert [int(x) for x in lines[1:]] == [0, 1, 2, 1, 0, 1, 2, 1, 0]


def test_round_trips_bit_exact():
    for seed in range(3):
        t = random_tree(4, seed)
        for k in (2, 3, 4):
            h = build_steiner(t, k)
            assert import_json(export_json(h)) == h
            assert import_text(export_text(h)) == h


def test_import_rejects_garbage():
    with pytest.raises(MalformedInput):
        import_json("{not json")
    with pytest.raises(MalformedInput):
        import_json('{"k": 2, "n": 2, "entries": [1, 2, 3]}')
    with pytest.raises(MalformedInput):
        import_text("2 2\n1\n2\n3")
    with pytest.raises(MalformedInput):
        import_text("")
    # headers no hypermatrix has: order below 2, dimension below 1
    with pytest.raises(MalformedInput):
        import_json('{"k": 1, "n": 3, "entries": [0, 0, 0]}')
    with pytest.raises(MalformedInput):
        import_json('{"k": 2, "n": 0, "entries": []}')
    with pytest.raises(MalformedInput):
        import_text("2 0\n")
    with pytest.raises(MalformedInput):
        import_text("1 3\n0\n0\n0\n")


@pytest.mark.parametrize("text", [
    "2 2\n0\n1_0\n+1\n0\n",          # Python literals as entries
    "2 2\n0\n+1\n1\n0\n",
    "2 2\n0\n1 1\n0\n",
    "2 2\n0\n\u0661\n1\n0\n",       # Arabic-Indic one
    "2 +2\n0\n1\n1\n0\n",            # signed header
    "2 0_2\n0\n1\n1\n0\n",
    "\u00b2 2\n0\n1\n1\n0\n",       # superscript two
])
def test_import_text_reads_only_ascii_integers(text):
    with pytest.raises(MalformedInput):
        import_text(text)


@pytest.mark.parametrize("entry", ["1.5", '"1"', "true"])
def test_import_json_rejects_non_integer_entries(entry):
    with pytest.raises(MalformedInput):
        import_json(f'{{"k": 2, "n": 2, "entries": [0, {entry}, 1, 0]}}')
    with pytest.raises(MalformedInput):
        import_json('{"k": 2, "n": 2, "entries": "0110"}')


@pytest.mark.parametrize("entry", [2 ** 63, -2 ** 63 - 1, 10 ** 30])
def test_import_rejects_entries_outside_int64(entry):
    with pytest.raises(MalformedInput):
        import_json(f'{{"k": 2, "n": 2, "entries": [0, {entry}, 1, 0]}}')
    with pytest.raises(MalformedInput):
        import_text(f"2 2\n0\n{entry}\n1\n0\n")
    # the int64 limits themselves still import
    for edge in (2 ** 63 - 1, -2 ** 63):
        assert import_json(f'{{"k": 2, "n": 2, "entries": [0, {edge}, 1, 0]}}').entry((1, 2)) \
            == edge
        assert import_text(f"2 2\n0\n{edge}\n1\n0\n").entry((1, 2)) == edge


@pytest.mark.parametrize("k, n", [("2", "-2"), ("2.7", "2"), ("2", "2.0"), ("true", "2"),
                                  ('"2"', "2")])
def test_import_rejects_negative_or_non_integer_k_or_n(k, n):
    with pytest.raises(MalformedInput):
        import_json(f'{{"k": {k}, "n": {n}, "entries": [0, 1, 1, 0]}}')
    if '"' not in k and k != "true":
        with pytest.raises(MalformedInput):
            import_text(f"{k} {n}\n0\n1\n1\n0\n")


def test_import_rejects_an_entry_count_too_long_to_print():
    # 3^100000 has more decimal digits than int-to-str conversion allows
    with pytest.raises(MalformedInput):
        import_json('{"k": 100000, "n": 3, "entries": [0]}')
    with pytest.raises(MalformedInput):
        import_text("100000 3\n0\n")


def test_budget(monkeypatch, path3):
    monkeypatch.setenv(BUDGET_ENV_VAR, "27")
    assert build_steiner(path3, 3).n == 3
    monkeypatch.setenv(BUDGET_ENV_VAR, "10")
    assert entry_budget() == 10
    with pytest.raises(BudgetExceeded):
        build_steiner(path3, 3)
    for bad in ("junk", "0"):
        monkeypatch.setenv(BUDGET_ENV_VAR, bad)
        with pytest.raises(MalformedInput):
            entry_budget()


class _Order(int):
    """An order whose power n ** k fails the test instead of being formed."""

    def __rpow__(self, base):
        raise AssertionError(f"formed {base} ** {int(self)}")


@pytest.mark.parametrize("k", [28, 10 ** 7, 10 ** 18])
def test_budget_refuses_a_huge_order_without_forming_its_power(monkeypatch, path3, k):
    # the default budget 10^8 has 27 bits, so n >= 2 and k >= 28 exceed it
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    with pytest.raises(BudgetExceeded):
        build_steiner(path3, _Order(k))


def test_orders_past_numpys_axis_limit_are_refused_before_any_array(monkeypatch):
    # numpy 2 allows 64 axes and numpy 1 allows 32; n = 1 keeps n^k at one entry
    assert _MAX_AXES in (32, 64)
    k = _MAX_AXES
    assert build_steiner(path_tree(1), k).entries.ndim == k
    assert import_json(f'{{"k": {k}, "n": 1, "entries": [0]}}').k == k
    assert import_text(f"{k} 1\n0\n").k == k
    with pytest.raises(BudgetExceeded):
        build_steiner(path_tree(1), k + 1)
    with pytest.raises(MalformedInput):
        import_json(f'{{"k": {k + 1}, "n": 1, "entries": [0]}}')
    with pytest.raises(MalformedInput):
        import_text(f"{k + 1} 1\n0\n")
    # a raised budget admits 2^(k+1) entries, but not the axes
    monkeypatch.setenv(BUDGET_ENV_VAR, str(1 << 80))
    with pytest.raises(BudgetExceeded):
        build_steiner(path_tree(2), k + 1)


def test_hypermatrix_is_immutable(path3):
    h = build_steiner(path3, 2)
    with pytest.raises(ValueError):
        h.entries[0, 0] = 5
    with pytest.raises(AttributeError):
        h.k = 4
