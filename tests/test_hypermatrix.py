"""Hypermatrix construction, degenerate zeroing, and I/O round trips."""

import json
import tracemalloc
from itertools import cycle, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from steinerdh import (BudgetExceeded, Hypermatrix, MalformedInput, RatMatrix, SparsePoly,
                       WrongShape, build_steiner, det_order2, enumerate_trees, export_json,
                       export_text, hypermatrix, import_json, import_text, numeric_search,
                       path_tree, random_tree, star_tree, steiner_distance_bruteforce,
                       trees, zero_degenerate)
from steinerdh.hypermatrix import (BUDGET_ENV_VAR, _MAX_AXES, _repeated_index_mask,
                                   entry_budget)
from oracles import (int64_steiner_array, json_export, json_import, multiset_hypermatrix,
                     side_distances, text_export, text_import)

INT64 = np.iinfo(np.int64)


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


def test_build_matches_the_int64_recurrence_at_the_uint8_uint16_boundary():
    # n = 256 is the last uint8 build and 257 the first uint16 one; a path's
    # largest entry is n - 1, so its build at 257 needs the wider type, and
    # its distances widen each narrow build in place
    for n, dtype in ((256, np.uint8), (257, np.uint16)):
        for t in (path_tree(n), star_tree(n, 5), random_tree(n, 8)):
            for k in (2, 3):
                entries = build_steiner(t, k).entries
                assert entries.dtype == dtype, (n, k)
                assert np.array_equal(entries, int64_steiner_array(t, k)), (t, k)
                del entries
            d = t.distances()
            assert d.dtype == np.int64 and np.array_equal(d, int64_steiner_array(t, 2)), t
    assert build_steiner(path_tree(257), 2).entries.max() == 256


def test_build_forms_no_second_full_size_array():
    # each recurrence step is one n^(k-1) row of the uint8 result, so the peak
    # stays near one byte an entry; (60, 4) is the 1.5 bytes an entry gate
    for n, k, bytes_per_entry in ((30, 4, 1.5), (12, 6, 1.6), (60, 4, 1.5)):
        t = random_tree(n, 77)
        t.sides()
        tracemalloc.start()
        try:
            h = build_steiner(t, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.entries.dtype == np.uint8
        assert peak < bytes_per_entry * n ** k, (n, k, peak / n ** k)


def test_build_steps_edges_in_blocks_of_any_size(monkeypatch):
    # one edge and three edges per block, against the brute force; n = 1 has no edges
    for t in [*enumerate_trees(6), random_tree(7, 5), path_tree(1)]:
        for k in (2, 3, 4, 5):
            expected = multiset_hypermatrix(t, k)
            for edges in (1, 3):
                monkeypatch.setattr(trees, "_BLOCK_ENTRIES", edges * t.n ** (k - 1))
                assert build_steiner(t, k) == expected, (t, k, edges)


def test_single_vertex_builds_at_every_order():
    for k in range(2, _MAX_AXES + 1):
        h = build_steiner(path_tree(1), k)
        assert h.entries.shape == (1,) * k and h.flat() == [0], k


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
    h = build_steiner(k2, 2)
    assert json.loads(export_json(h))["entries"] == [0, 1, 1, 0]
    single = build_steiner(random_tree(1, 0), 3)
    assert json.loads(export_json(single))["entries"] == [0]
    text = export_text(build_steiner(path3, 2))
    lines = text.strip().splitlines()
    assert lines[0] == "2 3"
    assert [int(x) for x in lines[1:]] == [0, 1, 2, 1, 0, 1, 2, 1, 0]
    # the same bytes as json.dumps and str over Python ints, on every tree class
    # with n <= 7 and on a single vertex at the most axes numpy allows
    built = [build_steiner(t, k) for n in range(1, 8) for t in enumerate_trees(n)
             for k in (2, 3, 4)]
    for h in [*built, build_steiner(path_tree(1), _MAX_AXES)]:
        assert export_json(h) == json_export(h), h
        assert export_text(h) == text_export(h), h


def test_round_trips_bit_exact(monkeypatch):
    for seed in range(3):
        t = random_tree(4, seed)
        for k in (2, 3, 4):
            h = build_steiner(t, k)
            assert import_json(export_json(h)) == h
            assert import_text(export_text(h)) == h
    # documents of several pieces: entry counts on, below and above a chunk multiple
    rng = np.random.default_rng(24)
    for chunk in (1, 2, 3, 8):
        monkeypatch.setattr(hypermatrix, "_CHUNK", chunk)
        for n, k in ((1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (5, 2)):
            h = Hypermatrix(k, n, rng.integers(-10 ** 4, 10 ** 4, size=(n,) * k))
            assert export_json(h) == json_export(h), (chunk, h.entries)
            assert export_text(h) == text_export(h), (chunk, h.entries)
            assert import_json(export_json(h)) == h and import_text(export_text(h)) == h


# the writer's base-10^4 limb edges (9,999 | 10^4, 10^8 - 1 | 10^8, 10^12, 10^16) and
# the uint16 limit
_LIMB_EDGES = [9999, 10 ** 4, 65535, 10 ** 8 - 1, 10 ** 8, 10 ** 12, 10 ** 16]
_EDGE_ENTRIES = [INT64.min, INT64.min + 1, INT64.max, -1, 0, 9, 10, -10, 99, -100,
                 10 ** 18, -10 ** 18, 10 ** 18 - 1, *_LIMB_EDGES, *(-e for e in _LIMB_EDGES)]
_ELEMENTS = {
    np.int64: st.one_of(st.sampled_from(_EDGE_ENTRIES),
                        st.integers(INT64.min, INT64.max), st.integers(-99, 99)),
    np.uint8: st.one_of(st.sampled_from([0, 9, 10, 99, 100, 254, 255]), st.integers(0, 255)),
    np.uint16: st.one_of(st.sampled_from([0, 255, 256, 9999, 10000, 65534, 65535]),
                         st.integers(0, 65535)),
}


@st.composite
def _entry_arrays(draw):
    """int64, uint8 or uint16 entries of shape (n,)*k, with their edge values."""
    dtype = draw(st.sampled_from(list(_ELEMENTS)))
    n, k = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    return draw(arrays(dtype, (n,) * k, elements=_ELEMENTS[dtype]))


@settings(max_examples=150, deadline=None)
@given(_entry_arrays(), st.sampled_from([1, 3, 1 << 16]))
@example(np.array([[INT64.min, INT64.max], [0, -1]]), 3)
@example(np.array([[0, 255], [256, 65535]], dtype=np.uint16), 3)
@example(np.array([[0, 255], [1, 254]], dtype=np.uint8), 1)
# at _CHUNK = 3, pieces of two, three, four, five, one and one limbs, some signed
@example(np.array([[7, -9999, 10 ** 4, 10 ** 8 - 1], [0, -10 ** 8, 10 ** 12, -1],
                   [10 ** 15, 10 ** 16, 3, INT64.min], [1, 2, 3, 4]]), 3)
# one word an entry below 100 in JSON and below 1000 in text, limbs from there
@example(np.array([[99, 5], [0, 42]], dtype=np.uint8), 1 << 16)
@example(np.array([[100, 5], [0, 42]], dtype=np.uint8), 1 << 16)
@example(np.array([[999, 7], [0, 10]], dtype=np.uint16), 1 << 16)
@example(np.array([[1000, 7], [0, 10]], dtype=np.uint16), 1 << 16)
@example(np.array([[[1, 2], [3, 0]], [[9, 8], [7, 6]]], dtype=np.uint8), 1 << 16)
@example(np.array([[5, 6], [7, 8]], dtype=np.uint8), 3)   # a last piece of one entry
# at _CHUNK = 3, pieces alternate one word an entry and limbs, then end in one entry
@example(np.array([[0, 1, 2, 1000], [4, 5, 6, 7], [8, 65535, 10, 11], [12, 13, 14, 15]],
                  dtype=np.uint16), 3)
def test_export_matches_the_oracle_on_any_int64_entries(entries, chunk):
    # uint8 and uint16 entries are stored as they are and written as int64 ones
    h = Hypermatrix(entries.ndim, entries.shape[0], entries)
    if entries.dtype != np.int64:
        assert h.entries.dtype == entries.dtype
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hypermatrix, "_CHUNK", chunk)
        assert export_json(h) == json_export(h)
        assert export_text(h) == text_export(h)
    assert import_json(export_json(h)) == h and import_text(export_text(h)) == h


def test_round_trips_keep_the_dtype_and_the_values(monkeypatch):
    # a build and its import store the same narrow type; a negative entry or
    # one above 65,535 is stored in int64, and every value comes back
    built = [(build_steiner(random_tree(30, 77), 4), np.uint8),
             (build_steiner(path_tree(256), 2), np.uint8),
             (build_steiner(path_tree(257), 2), np.uint16)]
    given = [(Hypermatrix(2, 2, entries), dtype) for entries, dtype in (
        ([[0, 255], [1, 0]], np.uint8), ([[0, 256], [65535, 0]], np.uint16),
        ([[0, -1], [1, 0]], np.int64), ([[0, 65536], [1, 0]], np.int64),
        ([[0, INT64.min], [INT64.max, 0]], np.int64))]
    for h, dtype in built + given:
        assert h.entries.dtype == dtype
        for back in (import_json(export_json(h)), import_text(export_text(h))):
            assert back.entries.dtype == dtype and np.array_equal(back.entries, h.entries)
    for doc, read, value in (('{"k": 2, "n": 2, "entries": [0, -1, 1, 0]}', import_json, -1),
                             ('{"k": 2, "n": 2, "entries": [0, 65536, 1, 0]}', import_json,
                              65536),
                             ("2 2\n0\n-1\n1\n0\n", import_text, -1),
                             ("2 2\n0\n65536\n1\n0\n", import_text, 65536)):
        h = read(doc)
        assert h.entries.dtype == np.int64 and h.flat() == [0, value, 1, 0], doc
    # documents read in pieces of about two entries: uint8 ones, then one above
    # 255, one with a negative and one above 65,535, so the pieces widen to
    # uint16 and then to int64, and each prefix ends in the narrowest
    monkeypatch.setattr(hypermatrix, "_CHUNK", 4)
    values = [3, 7, 0, 255, 300, 2, 65535, 1, -1, 4, 65536, INT64.min, INT64.max, 0, 5, 9]
    for end in range(1, len(values) + 1):
        head = values[:end]
        dtype = (np.uint8 if min(head) >= 0 and max(head) <= 255 else
                 np.uint16 if min(head) >= 0 and max(head) <= 65535 else np.int64)
        for sep, joiner in ((",", ", "), ("\n", "\n")):
            text = joiner.join(map(str, head))
            entries = hypermatrix._integer_array(text, 0, len(text), sep)
            assert entries.dtype == dtype and entries.tolist() == head, (text, entries.dtype)
    for end in (4, 5, 9, 16):   # uint8, uint16, int64 from a negative, int64
        h = Hypermatrix(2, 4, np.array(values[:end] + [0] * (16 - end)).reshape(4, 4))
        for back in (import_json(export_json(h)), import_text(export_text(h))):
            assert back.entries.dtype == h.entries.dtype and back.flat() == h.flat()


def test_export_peaks_stay_near_the_document():
    # the writer holds one chunk's buffers besides the pieces and their join
    h = build_steiner(random_tree(30, 77), 4)
    for export in (export_json, export_text):
        tracemalloc.start()
        try:
            doc = export(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(doc), (export.__name__, peak / len(doc))


def test_import_peaks_below_two_thirds_of_a_document():
    # the uint8 result is 0.27 document here, held as the pieces' values and
    # then joined; the reader adds one piece's arrays (0.58 document measured)
    doc = export_json(build_steiner(random_tree(30, 77), 4))
    tracemalloc.start()
    try:
        h = import_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.entries.shape == (30,) * 4
    assert peak < 2 / 3 * len(doc), peak / len(doc)


def test_import_text_peaks_below_one_document():
    # one byte an entry shorter than JSON, so the uint8 result is 0.38
    # document and a piece holds more integers (0.86 document measured)
    doc = export_text(build_steiner(random_tree(30, 77), 4))
    tracemalloc.start()
    try:
        h = import_text(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.entries.shape == (30,) * 4
    assert peak < len(doc), peak / len(doc)


@pytest.mark.parametrize("importer, doc", [
    (import_json, '{"k": 2, "n": 1000, "entries": [' + "," * 10 ** 6 + "]}"),
    (import_text, "2 1000\n" + "\n" * 10 ** 6),
], ids=["json", "text"])
def test_import_refuses_a_run_of_separators_before_sizing_the_result(importer, doc):
    # 8 bytes a separator would be 8 MB: a valid array needs a digit per entry
    tracemalloc.start()
    try:
        with pytest.raises(MalformedInput):
            importer(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6, peak


@pytest.mark.parametrize("entries", [
    [[0, 0.5], [1, 0]],                                        # would truncate to 0
    np.array([[0, 1.9], [1, 0]]),                              # would truncate to 1
    [[0, "1"], [1, 0]],
    np.array([[False, True], [True, False]]),
    np.array([[0, 2 ** 64 - 1], [1, 0]], dtype=np.uint64),     # would wrap to -1
    np.array([[0, 2.0 ** 63], [1, 0]]),                        # would wrap to -2^63
    [[0, 2 ** 70], [1, 0]],
], ids=["half", "float", "str", "bool", "uint64", "float-2^63", "wide"])
def test_constructor_refuses_entries_that_are_not_int64_integers(entries):
    with pytest.raises(MalformedInput):
        Hypermatrix(2, 2, entries)


def test_constructor_reads_integer_arrays_of_any_width():
    # uint8 and uint16 are kept; any other integers go to the narrowest of
    # uint8, uint16 and int64 that holds them
    for entries, dtype in (([[0, 1], [1, 0]], np.uint8),
                           (np.array([[0, 1], [1, 0]], dtype=np.uint8), np.uint8),
                           (np.array([[0, 1], [1, 0]], dtype=np.uint16), np.uint16),
                           (np.array([[0, 255], [1, 0]], dtype=np.int64), np.uint8),
                           (np.array([[0, 256], [1, 0]], dtype=np.int32), np.uint16),
                           (np.array([[0, 65536], [1, 0]], dtype=np.uint32), np.int64),
                           (np.array([[0, INT64.max], [1, 0]], dtype=np.uint64), np.int64),
                           (np.array([[0, -7], [1, 0]], dtype=np.int32), np.int64)):
        h = Hypermatrix(2, 2, entries)
        assert h.entries.dtype == dtype and h.entries.flags.c_contiguous
        assert h.flat() == np.asarray(entries).reshape(-1).tolist()
    transposed = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8]], dtype=np.uint8).T
    assert Hypermatrix(2, 3, transposed).flat() == [0, 3, 6, 1, 4, 7, 2, 5, 8]


def test_hypermatrix_owns_its_entries():
    # the caller's array stays writable, and writes to it or to the base of
    # a view it passed do not reach the hypermatrix
    for dtype, value in ((np.int64, -3), (np.int64, 1 << 40), (np.uint8, 3), (np.uint16, 300)):
        mine = np.full((2, 2), value, dtype=dtype)
        h = Hypermatrix(2, 2, mine)
        mine[0, 1] = 7
        assert h.flat() == [value] * 4, dtype
        base = np.full((3, 2), value, dtype=dtype)
        view = base[1:]   # C-contiguous, so no conversion copies it
        h = Hypermatrix(2, 2, view)
        base[1, 0] = 7
        view[1, 1] = 7
        assert h.flat() == [value] * 4, dtype
        assert mine.flags.writeable and base.flags.writeable and view.flags.writeable
        assert not h.entries.flags.writeable


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
    "2 2\n0\n1\u00a0\n\u20031\n0\n",  # no-break and em space around entries
    "2 2\n0\n1\n\n1\n0\n",          # a blank line
    "2 2\n0\n1\n1\n0\n\n",          # two final newlines
    "2\t2\n0\n1\n1\n0\n",           # a tab-separated header
    "2 2\n0\n01\n1\n0\n",            # a leading zero, as in JSON
    "2 2\r0\r1\r1\r0\r",             # CR alone ends no line
])
def test_import_text_reads_only_ascii_integers(text):
    with pytest.raises(MalformedInput):
        import_text(text)


@pytest.mark.parametrize("text", ["2 2\r\n0\r\n1\r\n1\r\n0\r\n", "2 2\n0\n 1\t\n\r1 \n0",
                                  " 2 2 \n0\n1\n1\n0\n"])
def test_import_text_reads_crlf_and_ascii_space_around_values(text):
    assert import_text(text) == Hypermatrix(2, 2, [[0, 1], [1, 0]])


@pytest.mark.parametrize("entry", ["1.5", '"1"', "true"])
def test_import_json_rejects_non_integer_entries(entry):
    with pytest.raises(MalformedInput):
        import_json(f'{{"k": 2, "n": 2, "entries": [0, {entry}, 1, 0]}}')
    with pytest.raises(MalformedInput):
        import_json('{"k": 2, "n": 2, "entries": "0110"}')


_PAST_DIGIT_LIMIT = "1" + "0" * 5000   # int() refuses more than 4300 digits


@pytest.mark.parametrize("entry", [2 ** 63, -2 ** 63 - 1, 10 ** 30,
                                   pytest.param(_PAST_DIGIT_LIMIT, id="5000-digits")])
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
                                  ('"2"', "2"),
                                  pytest.param(_PAST_DIGIT_LIMIT, "2", id="5000-digit-k"),
                                  pytest.param("2", _PAST_DIGIT_LIMIT, id="5000-digit-n")])
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


_JSON_SPACE = st.sampled_from(["", "", " ", "\t", "\n", "\r", "\r\n", " \t "])
_ENTRY_MUTANTS = ["1.5", "1e0", "true", "null", '"1"', "[0]", "01", "-0", "-", "--1", "- 1",
                  "1-1", "", "\u0661", "\uff11", "1\x0c", "\u00a01", str(2 ** 63),
                  str(-2 ** 63), str(2 ** 63 - 1), str(-2 ** 63 - 1), "1" + "0" * 19]
_HEADER_MUTANTS = ["2.0", "true", '"2"', "-2", "0", "1e0", str(10 ** 30)]
_EXTRA_VALUES = ['"x"', "null", "[1, {\"a\": [true]}]", "[1.5]", "[]", "[0, 1, 1, 0]", "3",
                 "[[0, 1], [1, 0]]", '{"a": [0, 1]}']


def _mutated(tokens: list, mutation: str, at: int, mutant: str = "") -> list:
    """``tokens`` with entry ``at`` replaced by ``mutant``, an empty entry
    inserted before it (a comma too many), or it and the next joined by a
    space (a comma too few)."""
    tokens = list(tokens)
    if mutation == "entry":
        tokens[at] = mutant
    elif mutation == "add comma":
        tokens.insert(at, "")
    elif mutation == "drop comma":
        tokens[at:at + 2] = [" ".join(tokens[at:at + 2])]
    return tokens


@st.composite
def _mutated_tokens(draw):
    """The header fields, entry tokens and trailing data of a document, with
    up to two mutations of the entries, the header or what follows them."""
    k, n = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    tokens = [str(x) for x in draw(st.lists(
        st.one_of(st.sampled_from(_EDGE_ENTRIES), st.integers(-99, 99)),
        min_size=n ** k, max_size=n ** k))]
    header = {"k": str(k), "n": str(n)}
    trailing = ""
    for mutation in draw(st.lists(st.sampled_from(
            ["entry", "add comma", "drop comma", "header", "trailing"]), max_size=2)):
        last = len(tokens) - (mutation != "add comma")
        at = draw(st.sampled_from([0, last]) | st.integers(0, last))
        tokens = _mutated(tokens, mutation, at, draw(st.sampled_from(_ENTRY_MUTANTS)))
        if mutation == "header":
            header[draw(st.sampled_from(["k", "n"]))] = draw(st.sampled_from(_HEADER_MUTANTS))
        elif mutation == "trailing":
            trailing = draw(st.sampled_from(["x", "{}", ","]))
    return header, tokens, trailing


@st.composite
def _hypermatrix_documents(draw):
    """A JSON document near ``export_json``'s: random JSON whitespace, key order,
    extra and repeated keys, and ``_mutated_tokens``."""
    space = cycle(draw(st.lists(_JSON_SPACE, min_size=1, max_size=7))).__next__
    header, tokens, trailing = draw(_mutated_tokens())
    array = "[" + ",".join(space() + tok + space() for tok in tokens) + "]"
    fields = [*header.items(), ("entries", array)]
    fields += draw(st.lists(st.tuples(st.sampled_from(["k", "n", "entries", "note"]),
                                      st.sampled_from(_EXTRA_VALUES)), max_size=2))
    members = [space() + json.dumps(key) + space() + ":" + space() + value + space()
               for key, value in draw(st.permutations(fields))]
    return space() + "{" + ",".join(members) + "}" + space() + trailing


_TEXT_SPACE = st.sampled_from(["", "", " ", "\t", "\r", " \t\r "])


@st.composite
def _text_documents(draw):
    """A text document near ``export_text``'s: random ASCII space, tab and CR
    around each value, up to two final newlines, and ``_mutated_tokens``
    joined by newlines (an added comma is a blank line, a dropped one puts
    two entries on a line)."""
    space = cycle(draw(st.lists(_TEXT_SPACE, min_size=1, max_size=7))).__next__
    header, tokens, trailing = draw(_mutated_tokens())
    lines = [header["k"] + " " + header["n"], *(space() + tok + space() for tok in tokens)]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n", "\n\n"])) + trailing


def _read(reader, text):
    try:
        return reader(text)
    except MalformedInput:
        return MalformedInput


def _assert_readers_agree(doc, reader=import_json, oracle=json_import):
    # both readers return equal hypermatrices or both raise, with pieces cut
    # next to every token
    expected = _read(oracle, doc)
    with pytest.MonkeyPatch.context() as mp:
        for chunk in (1, 2, 3, 7, hypermatrix._CHUNK):
            mp.setattr(hypermatrix, "_CHUNK", chunk)
            assert _read(reader, doc) == expected, (chunk, doc)


@settings(max_examples=50, deadline=None)
@given(_hypermatrix_documents())
@example('{"k": 2, "n": 2, "entries": [0, 1, 1, 0], "entries": [0, 1, 1, 1.5]}')
@example('{"k": 2, "n": 2, "entries": [0, 1.5, 1, 0], "entries": [0, 1, 1, 0]}')
@example('{"k": 2, "n": 1, "entries": [-9223372036854775808, 9223372036854775807]}')
def test_import_json_agrees_with_the_json_loads_oracle(doc):
    _assert_readers_agree(doc)


@settings(max_examples=50, deadline=None)
@given(_text_documents())
@example("2 2\n0\n1\u00a0\n\u20031\n0\n")
@example("2 1\n-9223372036854775808\r\n 9223372036854775807\n")
def test_import_text_agrees_with_the_line_split_oracle(doc):
    _assert_readers_agree(doc, import_text, text_import)


_RAW = "0123456789-,\n \t\rx\u00e9"   # digits, '-', both separators, JSON whitespace, x, é


@st.composite
def _raw_entries(draw):
    """n and n^2 entries, each an int64 or up to six characters of ``_RAW``."""
    n = draw(st.integers(1, 3))
    return n, draw(st.lists(st.one_of(st.text(_RAW, max_size=6),
                                      st.integers(INT64.min, INT64.max).map(str)),
                            min_size=n * n, max_size=n * n))


@settings(max_examples=100, deadline=None)
@given(_raw_entries())
@example((2, ["1 2", "", "3", "4"]))   # separators balance the integers, one misplaced
@example((2, ["1", "0", "0", "23"]))   # a short first integer and a last digit: the clip
@example((2, ["-5", "0", "1", "2"]))   # a sign at the piece's byte 0
@example((2, [str(INT64.max), "0", "-1", "10"]))   # 19 digits open the piece
@example((2, [str(INT64.min), "0", "1", "-10"]))
@example((2, [str(-INT64.min), "0", "1", "2"]))   # 19 digits out of range
@example((2, ["1\t", "0", "\t2", "3"]))   # the only whitespace a tab
@example((2, ["1", "\r0", "2\r", "3"]))   # the only whitespace a CR
@example((2, ["0", " 1", " x", "0 "]))   # a stray byte after spaces
def test_importers_agree_with_the_oracles_on_raw_entries(drawn):
    # n^2 entries over the reader's whole alphabet, each one separator apart
    n, entries = drawn
    _assert_readers_agree(f'{{"k": 2, "n": {n}, "entries": [' + ",".join(entries) + "]}")
    _assert_readers_agree(f"2 {n}\n" + "\n".join(entries) + "\n", import_text, text_import)


_DEEP = "[" * 300 + "]" * 300, '{"a": ' * 300 + "[0, 1]" + "}" * 300


@pytest.mark.parametrize("doc", [
    # top levels that are not objects
    "[0, 1, 1, 0]", " [0, 1, 1, 0] ", '"x"', "3", "null", "[]", "[[0, 1], [1, 0]]",
    # int arrays nested inside entries, or as the value of k or n
    '{"k": 2, "n": 2, "entries": [[0, 1], [1, 0]]}',
    '{"k": 2, "n": 2, "entries": [[0, 1, 1, 0]]}',
    '{"k": [2], "n": 2, "entries": [0, 1, 1, 0]}',
    '{"k": 2, "n": [2, 2], "entries": [0, 1, 1, 0]}',
    # int arrays and deep nesting in an extra key
    '{"k": 2, "n": 1, "entries": [0], "note": [0, 1]}',
    '{"k": 2, "n": 1, "entries": [0], "note": {"a": [0, 1], "b": [[2]]}}',
    *('{"k": 2, "n": 1, "entries": [0], "note": ' + deep + "}" for deep in _DEEP),
    # numbers outside the top-level arrays take json's ASCII digits only
    '{"k": 2\u0661, "n": 1, "entries": [0]}',
    '{"k": 2, "n": 1, "entries": [0], "note": 1\u0661}',
    '{"k": 2, "n": 1, "entries": [0], "note": {"a": 1\u0661}}',
], ids=lambda doc: doc[:40])
def test_import_json_agrees_with_the_oracle_on_arrays_anywhere(doc):
    _assert_readers_agree(doc)


@pytest.mark.parametrize("reader", [import_json, SparsePoly.from_json, RatMatrix.from_json],
                         ids=lambda reader: reader.__qualname__)
def test_json_readers_refuse_nesting_past_the_recursion_limit(reader):
    # json.loads raises RecursionError on these; every reader says MalformedInput
    for doc in ("[" * 10 ** 5, "[" * 10 ** 5 + "]" * 10 ** 5, '{"a": ' * 10 ** 5):
        with pytest.raises(MalformedInput):
            reader(doc)


def test_import_json_agrees_with_the_oracle_on_every_entry_and_comma_mutation():
    tokens = ["0", "-7", "10", str(INT64.max)]
    variants = [_mutated(tokens, "entry", at, mutant)
                for at in range(4) for mutant in _ENTRY_MUTANTS]
    # up to one comma too few and one too many, at the ends too; the text
    # reader reads the same variants one a line (a blank line, two on a line)
    drops = [_mutated(tokens, "drop comma", at) for at in range(3)]
    variants += [_mutated(v, "add comma", at)
                 for v in [tokens, *drops] for at in range(len(v) + 1)] + drops
    for variant in variants:
        for sep in (", ", "\n,"):
            _assert_readers_agree('{"k": 2, "n": 2, "entries": [' + sep.join(variant) + "]}")
        for sep in ("\n", " \r\n\t"):
            _assert_readers_agree("2 2\n" + sep.join(variant) + "\n", import_text, text_import)


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


def test_one_budget_check_words_every_refusal(monkeypatch, path3):
    # the order-3 build, the order-2 determinant and the search each refuse
    # one entry past n^k and name what they refuse
    for what, size, call in [("3^3 entries", 27, lambda: build_steiner(path3, 3)),
                             ("3^2 distance-matrix entries", 9, lambda: det_order2(path3)),
                             ("3^2 side-matrix entries", 9,
                              lambda: numeric_search(path3, 4, 0, 1))]:
        monkeypatch.setenv(BUDGET_ENV_VAR, str(size - 1))
        with pytest.raises(BudgetExceeded) as refused:
            call()
        assert str(refused.value) == f"{what} exceed the budget of {size - 1}"
        monkeypatch.setenv(BUDGET_ENV_VAR, str(size))
        call()


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
