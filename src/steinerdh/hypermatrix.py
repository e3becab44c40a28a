"""Order-k Steiner distance hypermatrices: construction, degenerate zeroing, I/O.

Entries are a dense numpy array of shape (n,)*k in C (row-major) order, in
the narrowest of uint8, uint16 and int64 that holds them.  A Steiner array is
built in the narrowest that holds n - 1, so uint8 for n <= 256 and uint16 for
n <= 65,536, by the tree's parent recurrence (``Tree.distances`` is its k = 2
case) in O(n^k) steps of n^(k-1) entries each.  Besides the result, the build holds
the side matrix S, one n^(k-1) row sum and the steps of one block of edges
(``Tree._steiner_array``).  The result is super-symmetric because a Steiner
distance depends only on the index set.  An order above numpy's axis limit
``MAXDIMS`` is refused before any array is formed: ``BudgetExceeded`` on
build, ``MalformedInput`` on import.

Both export formats come from one writer that works ``_CHUNK`` entries at a
time.  A uint8 or uint16 piece reads one word an entry from a table, built on
first use, of each value's ASCII digits and the separator, NUL-padded to four
bytes where the piece's largest entry and the separator fit them (below 100
in JSON, 1000 in text) and to eight otherwise; one pass then deletes the
NULs.  An int64 piece, of a caller's array or an import with a negative
entry or one above 65,535, is ``str``'s.  The writer holds one piece's words
besides the pieces it returns; ``export_json`` and ``export_text`` join the
pieces, and the ``hypermatrix`` command writes them as they come.  The bytes
are those of ``json.dumps`` and ``str`` over the entries as Python ints,
whatever the stored dtype.

Both formats come back through one reader, the writer's mirror: the entries
are read in pieces of about ``_PIECE`` = 32 KiB cut at separators (``,`` in
JSON, a newline in text).  Each piece's bytes are classified by numpy
compares into one buffer, and its digits, separators and spaces counted; tab,
CR and JSON's LF are counted only while the counts fall short of the piece.
The sign and leading-zero rules are checked on neighbouring bytes.  One
selection of the last digits gives the integers' end positions, and the
separators must alternate with them, one between neighbours and none
outside: one gather of the byte after each inner last digit proves it for the
exporters' layout, and only where that byte is whitespace are the
separators' own positions compared with the ends.  Each digit column is
gathered at its distance from the ends while some integer reaches that far,
and summed in the narrowest unsigned type the piece's longest integer
allows; signs are read only in a piece that has a '-'.  Each piece's values
are kept in the narrowest of uint8, uint16 and int64 that holds them, and
more than one piece is joined by one ``np.concatenate`` into the widest of
their dtypes, which is the dtype that the hypermatrix stores.  So besides
the document the reader holds the pieces' values and their join, 2x the
result, and one piece's arrays, at most 8.1 ``_PIECE`` measured, and no
Python int per entry.  Its transient does not grow with the document, so a
process that imports many small documents keeps reusing the same heap
instead of handing it back and faulting it in again on each import.
``import_json`` decodes with json's own ``JSONDecoder``, so it takes what
``json.loads`` takes, but hands the reader each array among the top-level
object's values, and json's C scanner each value that is not an array of
int64 integers; ``import_text`` reads the header line 'k n' and hands the
reader the rest of the document.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import BudgetExceeded, MalformedInput, WrongShape, ascii_int
from .trees import Tree, narrowest_dtype

try:
    from numpy._core.multiarray import MAXDIMS as _MAX_AXES
except ImportError:   # numpy 1.x
    from numpy.core.multiarray import MAXDIMS as _MAX_AXES

DEFAULT_ENTRY_BUDGET = 10 ** 8
BUDGET_ENV_VAR = "STEINER_MEM_BUDGET"
_CHUNK = 1 << 16   # entries per piece of an exported document
_PIECE = 1 << 15   # bytes per piece of an imported one, cut at the next separator
_INT64_MAX = np.iinfo(np.int64).max
_SPACES = " \t\r\n"   # JSON whitespace, space first; a text line's less its newline (CR for CRLF)
# the narrowest unsigned type that sums an integer of 1, 2, .., 19 digits: |int64| < 10^19
_SUMS = (np.uint8,) * 2 + (np.uint16,) * 2 + (np.uint32,) * 5 + (np.uint64,) * 10
_PAD = len(_SUMS) - 1   # the farthest digit column read, 18 bytes before a 19th digit
_DECODER = json.JSONDecoder()


def entry_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_ENTRY_BUDGET
    try:
        value = ascii_int(raw)
    except ValueError as exc:
        raise MalformedInput(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise MalformedInput(f"{BUDGET_ENV_VAR} must be positive")
    return value


class Hypermatrix:
    """Immutable dense cubical hypermatrix of integers.  Entries must be an
    integer array (or nested lists of ints) within int64; floats, bools,
    strings and wider values raise ``MalformedInput`` instead of being cast.

    The hypermatrix owns its entries: it copies any array it could share
    with the caller, so later writes to the caller's array or its base do
    not reach it, and only its own copy is read-only.  ``entries`` is a
    uint8 or uint16 array kept as given, or otherwise the entries in the
    narrowest of uint8, uint16 and int64 that holds them.  So a Steiner
    build and its import store one or two bytes an entry up to n = 65,536
    (the import may narrow a uint16 build whose entries all fit uint8), and
    two hypermatrices are equal when their values are, whatever their
    dtypes.  Cast the entries, for example to int64, before arithmetic on
    them: uint8 and uint16 arithmetic wraps, and a numpy scalar that
    overflows warns (an error under the tests' ``error::RuntimeWarning``)."""

    __slots__ = ("k", "n", "entries")

    def __init__(self, k: int, n: int, entries: np.ndarray):
        self._store(k, n, entries, fresh=False)

    @classmethod
    def _adopt(cls, k: int, n: int, entries: np.ndarray) -> Hypermatrix:
        """The hypermatrix of a fresh array that nothing else refers to, such
        as a build's or an import's result, stored without a copy."""
        h = object.__new__(cls)
        h._store(k, n, entries, fresh=True)
        return h

    def _store(self, k: int, n: int, entries, fresh: bool) -> None:
        if k < 2:
            raise WrongShape("order must be >= 2")
        if n < 1:
            raise WrongShape("dimension must be >= 1")
        given = np.asarray(entries)
        if given.dtype.kind not in "iu":
            raise MalformedInput(f"entries must be integers within int64, got dtype {given.dtype}")
        if given.shape != (n,) * k:
            raise WrongShape(f"entries must have shape {(n,) * k}, got {given.shape}")
        dtype = given.dtype
        if dtype not in (np.uint8, np.uint16):
            low, high = int(given.min()), int(given.max())
            if high > _INT64_MAX:
                raise MalformedInput(f"entry {high} outside int64")
            dtype = narrowest_dtype(high, low)
        arr = np.ascontiguousarray(given, dtype=dtype)
        if not fresh and np.may_share_memory(arr, given):
            arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", arr)

    def __setattr__(self, *_):  # pragma: no cover - immutability guard
        raise AttributeError("Hypermatrix is immutable")

    def entry(self, index: Iterable[int]) -> int:
        """Entry at a tuple of k labels in 1..n."""
        idx = tuple(index)
        if len(idx) != self.k or not all(1 <= i <= self.n for i in idx):
            raise ValueError(f"index {idx} is not {self.k} labels in 1..{self.n}")
        return int(self.entries[tuple(i - 1 for i in idx)])

    def flat(self) -> list[int]:
        return self.entries.reshape(-1).tolist()

    def __eq__(self, other):
        if isinstance(other, Hypermatrix):
            return (self.k == other.k and self.n == other.n
                    and bool(np.array_equal(self.entries, other.entries)))
        return NotImplemented

    def __repr__(self):
        return f"Hypermatrix(k={self.k}, n={self.n})"


def _exceeds(n: int, k: int, limit: int) -> bool:
    """n^k > limit; for n >= 2, k > bit_length(limit) decides it without n^k."""
    return (n > 1 and k > limit.bit_length()) or n ** k > limit


def check_entry_budget(n: int, k: int, what: str) -> None:
    """``BudgetExceeded`` when n^k ``what`` exceed ``entry_budget()``."""
    limit = entry_budget()
    if _exceeds(n, k, limit):
        raise BudgetExceeded(f"{n}^{k} {what} exceed the budget of {limit}")


def build_steiner(t: Tree, k: int) -> Hypermatrix:
    """The order-k Steiner distance hypermatrix of a tree."""
    if k < 2:
        raise WrongShape("order must be >= 2")
    n = t.n
    check_entry_budget(n, k, "entries")
    if k > _MAX_AXES:
        raise BudgetExceeded(f"order {k} exceeds numpy's {_MAX_AXES} array axes")
    return Hypermatrix._adopt(k, n, t._steiner_array(k))


def _repeated_index_mask(n: int, k: int) -> np.ndarray:
    """True where an index tuple of the (n,)*k array repeats a label."""
    label = [np.arange(n).reshape((n,) + (1,) * (k - 1 - a)) for a in range(k)]  # along axis a
    repeated = np.zeros((n,) * k, dtype=bool)
    for a in range(k):
        for b in range(a + 1, k):
            repeated |= label[a] == label[b]   # broadcast: an n x n comparison
    return repeated


def zero_degenerate(h: Hypermatrix) -> Hypermatrix:
    """Copy with every entry whose index tuple repeats a label set to 0."""
    return Hypermatrix._adopt(h.k, h.n, np.where(_repeated_index_mask(h.n, h.k), 0, h.entries))


def has_nonzero_degenerate(h: Hypermatrix) -> bool:
    return bool(np.any(h.entries[_repeated_index_mask(h.n, h.k)] != 0))


# ---------------------------------------------------------------------------
# export / import
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _words(sep: str, width: int, size: int) -> np.ndarray:
    """The ``width``-byte word of each value below ``size`` (at most 2^16,
    so five digits): its ASCII digits, then ``sep``, NUL-padded.  Built on
    first use, then shared."""
    text = np.char.add(np.arange(size).astype("S5"), sep.encode("ascii"))
    words = text.astype(f"S{width}").view(f"u{width}")
    words.flags.writeable = False
    return words


def _decimals(entries: np.ndarray, sep: str) -> Iterator[str]:
    """``sep.join`` of the entries' ASCII decimals, in pieces of ``_CHUNK``
    entries, each entry followed by ``sep`` but the document's last.  A
    uint8 or uint16 piece takes one ``_words`` word an entry, of four bytes
    where its largest entry and ``sep`` fit them and eight otherwise, and
    one pass deletes the NULs; an int64 piece is ``str``'s."""
    flat = entries.reshape(-1)
    for lo in range(0, flat.size, _CHUNK):
        chunk = flat[lo:lo + _CHUNK]
        if chunk.dtype == np.int64:   # only a caller's array or an import
            piece = sep.join(map(str, chunk.tolist())) + sep
        else:
            width = 4 if chunk.max() < 10 ** (4 - len(sep)) else 8
            size = min(10 ** (width - len(sep)), 1 << 8 * chunk.itemsize)
            words = _words(sep, width, size).take(chunk)
            # bytearray, not bytes: bytes.translate on these words fragments the heap
            # (`hypermatrix --k 4` at n = 100 peaks at 168 MB against 131 MB)
            piece = bytearray(words).translate(None, b"\0").decode("ascii")
        yield piece[:-len(sep)] if lo + _CHUNK >= flat.size else piece


def _json_pieces(h: Hypermatrix) -> Iterator[str]:
    yield f'{{"k": {h.k}, "n": {h.n}, "entries": ['
    yield from _decimals(h.entries, ", ")
    yield "]}"


def _text_pieces(h: Hypermatrix) -> Iterator[str]:
    yield f"{h.k} {h.n}\n"
    yield from _decimals(h.entries, "\n")
    yield "\n"


def export_json(h: Hypermatrix) -> str:
    """``json.dumps({"k": k, "n": n, "entries": flat entries})``, byte for byte."""
    return "".join(_json_pieces(h))


def _shape(k, n, count: int) -> tuple:
    """(n,)*k, once the header k, n is checked against ``count`` entries."""
    for name, value, low in (("k", k, 2), ("n", n, 1)):
        if type(value) is not int or value < low:
            raise MalformedInput(f"{name} must be an integer >= {low}, got {value!r}")
    if _exceeds(n, k, count) or count != n ** k:
        raise MalformedInput(f"expected {n}^{k} entries, got {count}")
    if k > _MAX_AXES:
        raise MalformedInput(f"order {k} exceeds numpy's {_MAX_AXES} array axes")
    return (n,) * k


def _magnitudes(text: str, lo: int, hi: int, sep: str) -> tuple | None:
    """The magnitudes of the integers in ``text[lo:hi]`` (one ``sep``
    between neighbours), in the narrowest unsigned type that holds the
    longest, and a mask of the negative ones, None where no byte is a '-';
    None unless every byte is a digit, '-', ``sep`` or its format's
    whitespace and every integer is ``-?(0|[1-9][0-9]*)`` within int64.
    The integers' end positions ``ends`` come from one selection of their
    last digits.  The separators must alternate with them: the byte after
    each inner last digit is ``sep`` in the exporters' layout, and only
    where it is whitespace are the separators' own positions checked.
    Digit column p is read at ``ends - p`` until every digit is read, and
    in a piece that has a '-' the sign one byte before each first digit."""
    try:
        raw = text[lo:hi].encode("ascii")
    except UnicodeEncodeError:
        return None
    u = np.frombuffer(raw, dtype=np.uint8)
    # each byte's digit value, 10 or more for any other byte, between _PAD bytes and one of
    # 255, so column p of an integer at byte 0 reads no digit, and neither does byte -1 or m
    values = np.empty(_PAD + u.size + 1, dtype=np.uint8)
    values[:_PAD] = values[-1] = 255
    np.subtract(u, np.uint8(ord("0")), out=values[_PAD:-1])
    digit = values < 10
    at, before, after = digit[_PAD:-1], digit[_PAD - 1:-2], digit[_PAD + 1:]
    flag = np.equal(u, ord(sep))   # one buffer: known bytes, leading zeros, last digits
    seps, digits = np.count_nonzero(flag), np.count_nonzero(at)
    known = seps + digits
    signed = b"-" in raw
    # '-', space, tab, CR, JSON's LF, while a byte is unknown: the classes are disjoint, so
    # their counts add up to the piece's size only when every byte is in one
    for other in "-" * signed + _SPACES.replace(sep, ""):
        if known == u.size:
            break
        known += np.count_nonzero(np.equal(u, ord(other), out=flag))
    if known != u.size or (signed and ((u == ord("-")) & (before | ~after)).any()):
        return None   # a byte of another kind, or a '-' after a digit or before none
    np.equal(u, ord("0"), out=flag)   # a leading 0: a digit after it, none before
    flag &= after
    np.greater(flag, before, out=flag)
    if flag.any():
        return None
    ends = np.greater(at, after, out=flag).nonzero()[0]
    if seps != ends.size - 1:
        return None   # not one separator fewer than integers
    if (u[1:].take(ends[:-1]) != ord(sep)).any():   # whitespace after an inner integer
        where = np.flatnonzero(u == ord(sep))
        if (where < ends[:-1]).any() or (where > ends[1:]).any():
            return None   # not one separator between each pair of neighbours
    mag = values[_PAD:].take(ends)
    more = np.ones(ends.size, dtype=bool)   # more[i]: integer i has a digit at ends - place
    length = np.ones(ends.size, dtype=np.uint8) if signed else None
    # each digit is in one integer: the digits before the last ones are read once each
    place, left = 0, digits - ends.size
    while left:
        place += 1
        if place == len(_SUMS):
            return None   # a 20th digit
        column = values[_PAD - place:].take(ends)
        more &= column < 10
        left -= np.count_nonzero(more)
        total = _SUMS[place]
        mag = mag.astype(total, copy=False)
        column *= more
        mag += np.multiply(column, 10 ** place, dtype=total)
        if signed:
            length += more
    # an unsigned integer at byte 0 reads the piece's last byte, never a '-'
    neg = u.take(ends - length) == ord("-") if signed else None
    if place == len(_SUMS) - 1 and (mag > np.uint64(_INT64_MAX) + (neg if signed else 0)).any():
        return None   # 2^63 is in range only negated
    return mag, neg


def _integer_array(text: str, lo: int, hi: int, sep: str) -> np.ndarray | None:
    """``_magnitudes`` over ``text[lo:hi]``, cut at ``sep`` into pieces of
    about ``_PIECE`` bytes.  Each piece's values are kept in the narrowest
    of uint8, uint16 and int64 that holds them, and more than one piece is
    joined by one ``np.concatenate`` into the widest of their dtypes, so
    the result is in the narrowest that holds every value.  None where a
    piece is, where the text is empty, or where it ends in ``sep``."""
    pieces = []
    while lo < hi:
        cut = text.find(sep, lo + _PIECE, hi)   # the first separator past _PIECE bytes
        if cut < 0:
            cut = hi
        read = _magnitudes(text, lo, cut, sep)
        if read is None:
            return None
        values, neg = read
        if neg is not None and neg.any():
            values = values.astype(np.int64)   # 2^63 wraps to -2^63, which negates to itself
            np.negative(values, out=values, where=neg)
        if values.dtype != np.uint8:
            values = values.astype(narrowest_dtype(int(values.max()), int(values.min())),
                                   copy=False)
        pieces.append(values)
        lo = cut + 1
    if not pieces or lo == hi:
        return None   # no entries, or a separator with nothing after it
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _member(text: str, i: int) -> tuple:
    """The JSON value at ``text[i]`` and the index past it: an array of int64
    integers by ``_integer_array``, any other value by json's C scanner."""
    end = text.find("]", i) if text.startswith("[", i) else -1
    value = _integer_array(text, i + 1, end, ",") if end >= 0 else None
    return _DECODER.scan_once(text, i) if value is None else (value, end + 1)


class _Decoder(json.JSONDecoder):
    """``json.loads``, but the top-level object's values are read by ``_member``."""

    def __init__(self):
        super().__init__()
        self.scan_once = self._value

    @staticmethod
    def _value(text: str, i: int) -> tuple:
        if text.startswith("{", i):
            return json.decoder.JSONObject((text, i + 1), True, _member, None, None)
        return _member(text, i)


_READER = _Decoder()


def import_json(text: str) -> Hypermatrix:
    """The hypermatrix of an ``export_json`` document: the object ``json.loads``
    would read, its entries a flat array of integers within int64 read by
    ``_integer_array``.  ``MalformedInput`` wherever ``json.loads`` would raise,
    values nested past the recursion limit included."""
    try:
        fields = _READER.decode(text)
        k, n, entries = fields["k"], fields["n"], fields["entries"]
    except (ValueError, LookupError, TypeError, RecursionError) as exc:
        # ValueError also for an int of > 4300 digits; Lookup- or TypeError for
        # another top level; RecursionError for values nested past the limit
        raise MalformedInput(f"bad hypermatrix JSON: {exc}") from exc
    if not isinstance(entries, np.ndarray):
        raise MalformedInput("hypermatrix JSON entries must be a list of integers within int64")
    return Hypermatrix._adopt(k, n, entries.reshape(_shape(k, n, entries.size)))


def export_text(h: Hypermatrix) -> str:
    """The header line 'k n', then one line per entry in C order."""
    return "".join(_text_pieces(h))


def import_text(text: str) -> Hypermatrix:
    """The hypermatrix of an ``export_text`` document: the header line 'k n'
    in ASCII digits, then one entry per line, ``-?(0|[1-9][0-9]*)`` within
    int64 with only ASCII space, tab or CR around it, and at most one newline
    after the last.  A blank line or other whitespace is ``MalformedInput``."""
    lo = text.find("\n") + 1 or len(text) + 1   # one past the header line's end
    try:
        k, n = map(ascii_int, text[:lo - 1].strip(" \t\r").split(" "))
    except ValueError as exc:
        raise MalformedInput(f"bad hypermatrix text header: {exc}") from exc
    entries = _integer_array(text, lo, len(text) - text.endswith("\n"), "\n")
    if entries is None:
        raise MalformedInput("hypermatrix text entries must be one integer within int64 a line")
    return Hypermatrix._adopt(k, n, entries.reshape(_shape(k, n, entries.size)))
