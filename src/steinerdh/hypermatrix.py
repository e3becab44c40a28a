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
time in the stored width, in uint32 words of NUL-padded ASCII.  A
chunk with no negative entry whose largest's digits and separator fit four
bytes (below 100 in JSON, 1000 in text) reads one word an entry, digits and
separator, from a table.  Any other chunk splits each magnitude into
base-10^4 limbs, reads each limb's word from a 10^4-entry table, and adds a
sign word where the chunk has a negative and a separator word.  One pass
then deletes the NULs.  It holds one chunk's words besides the pieces it
returns; ``export_json`` and ``export_text`` join the pieces, and
the ``hypermatrix`` command writes them as they come.  The bytes are those
of ``json.dumps`` and ``str`` over the entries as Python ints, whatever the
stored dtype.

Both formats come back through one reader, the writer's mirror: the entries
are read in pieces of about ``_CHUNK`` bytes cut at separators (``,`` in
JSON, a newline in text).  Each piece's bytes are classified by numpy
compares; tab, CR and JSON's LF are compared only while some byte is not a
digit, the separator, '-' or a space.  The sign and leading-zero rules are
checked on neighbouring bytes.  One selection finds each integer's last
digit and each separator, and they must alternate, which leaves one
separator between neighbours and none outside.  Each digit column is
gathered at its distance from the last digits, where a run of digits
reaches that far, and summed in the narrowest unsigned type the piece's
longest integer allows; signs are read only in a piece that has a '-'.  Each
piece's values are kept in the narrowest of uint8, uint16 and int64 that
holds them, and more than one piece is joined by one ``np.concatenate``
into the widest of their dtypes, which is the dtype that the hypermatrix
stores.  So the reader holds the document, the pieces' values and one
piece's arrays, then the joined result, and no Python int per entry.
``import_json`` decodes with json's own ``JSONDecoder``, so it takes what
``json.loads`` takes, but hands the reader each array among the top-level
object's values, and json's C scanner each value that is not an array of
int64 integers; ``import_text`` reads the header line 'k n' and hands the
reader the rest of the document.
"""

from __future__ import annotations

import json
import os
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
_CHUNK = 1 << 16   # entries per piece of an exported document, bytes of an imported one
_INT64_MAX = np.iinfo(np.int64).max
_LIMB = 10 ** 4   # the writer's base: four decimal digits, one uint32 word of ASCII
_SPACES = " \t\r\n"   # JSON whitespace, space first; a text line's less its newline (CR for CRLF)
# the narrowest unsigned type that sums an integer of 1, 2, .., 19 digits: |int64| < 10^19
_SUMS = (np.uint8,) * 2 + (np.uint16,) * 2 + (np.uint32,) * 5 + (np.uint64,) * 10
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

def _word(text: bytes) -> np.uint32:
    """``text``, at most four ASCII bytes, as one uint32 word, NUL-padded."""
    return np.frombuffer(text.ljust(4, b"\0"), dtype=np.uint32)[0]


def _limb_words() -> np.ndarray:
    """The uint32 ASCII word of each limb 0 .. 10^4 - 1: NUL-padded, for a
    leading limb, at i, and zero-padded, for an inner one, at 10^4 + i.  The
    leading 0 is '0', so a zero entry prints."""
    i = np.arange(_LIMB, dtype=np.uint16)[:, None]
    digits = (i // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10 + ord("0")).astype(np.uint8)
    lead = np.where(i < np.array([1000, 100, 10, 0], dtype=np.uint16), np.uint8(0), digits)
    return np.concatenate([lead, digits]).view(np.uint32).reshape(-1)


_WORDS = _limb_words()


def _packed_words(sep: bytes) -> np.ndarray:
    """The uint32 ASCII word of each value whose digits and ``sep`` fit four
    bytes, below 10^(4 - len(sep)): its digits, then ``sep``, NUL-padded."""
    text = b"".join((b"%d" % v + sep).ljust(4, b"\0") for v in range(10 ** (4 - len(sep))))
    return np.frombuffer(text, dtype=np.uint32)


_PACKED = {sep: _packed_words(sep) for sep in (b", ", b"\n")}   # JSON's and text's


def _limbs(chunk: np.ndarray, sep: bytes, end: bool) -> np.ndarray:
    """A row of uint32 words for each entry of ``chunk``: a '-' word where the
    chunk has a negative entry, one ``_WORDS`` word per base-10^4 limb of the
    magnitude (as many limbs as the chunk's largest needs), and the
    separator's word, but none after the last entry where ``end``.  The
    magnitudes are an unsigned copy in the entries' width, at least 16
    bits, so narrow entries are never widened to int64."""
    rest = chunk.astype(np.promote_types(chunk.dtype, np.uint16))   # a copy
    neg = rest < 0 if rest.dtype.kind == "i" else None   # uint8, uint16 read as uint16: no sign
    signed = int(neg is not None and neg.any())
    if signed:
        rest = np.abs(rest, out=rest).view(f"u{rest.itemsize}")   # exact at -2^63
    limbs = -(-len(str(rest.max())) // 4)   # the largest's limbs
    words = np.empty((rest.size, signed + limbs + 1), dtype=np.uint32)
    if signed:
        words[:, 0] = neg * _word(b"-")
    words[:, -1] = _word(sep)
    if end:
        words[-1, -1] = 0
    last = signed + limbs - 1   # the least significant limb's column
    for col in range(last, signed - 1, -1):
        if col > signed:   # zero-padded where a higher limb is nonzero
            high = rest // _LIMB
            limb = np.minimum(rest, rest - high * _LIMB + _LIMB)
        else:              # the leading limb, below 10^4
            high, limb = None, rest
        words[:, col] = _WORDS.take(limb, mode="clip")   # limb < 2 * 10^4: no clip happens
        if col < last:
            words[:, col] *= rest > 0   # no digit this high: no word
        rest = high
    return words


def _decimals(entries: np.ndarray, sep: bytes) -> Iterator[str]:
    """``sep.join`` of the entries' ASCII decimals, in pieces of ``_CHUNK``
    entries.  A piece with no negative entry whose largest's digits and
    ``sep`` fit four bytes takes one ``_PACKED`` word an entry (the last
    entry's ``_WORDS`` word, with no separator, at the document's end); any
    other piece takes ``_limbs``' rows.  Every word is NUL-padded, and one
    pass deletes the NULs."""
    flat = entries.reshape(-1)
    packed = _PACKED[sep]
    for lo in range(0, flat.size, _CHUNK):
        chunk = flat[lo:lo + _CHUNK]
        end = lo + _CHUNK >= flat.size   # the document's last piece
        if chunk.max() < packed.size and (chunk.dtype.kind == "u" or chunk.min() >= 0):
            words = packed.take(chunk)
            if end:
                words[-1] = _WORDS[chunk[-1]]
        else:
            words = _limbs(chunk, sep, end)
        # bytearray, not bytes: bytes.translate on these words fragments the heap
        # (`hypermatrix --k 4` at n = 100 peaks at 168 MB against 131 MB)
        yield bytearray(words).translate(None, b"\0").decode("ascii")


def _json_pieces(h: Hypermatrix) -> Iterator[str]:
    yield f'{{"k": {h.k}, "n": {h.n}, "entries": ['
    yield from _decimals(h.entries, b", ")
    yield "]}"


def _text_pieces(h: Hypermatrix) -> Iterator[str]:
    yield f"{h.k} {h.n}\n"
    yield from _decimals(h.entries, b"\n")
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


def _magnitudes(piece: str, sep: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The magnitudes of the integers in ``piece`` (one ``sep`` between
    neighbours), in the narrowest unsigned type that holds the longest, and
    a mask of the negative ones; None unless every byte is a digit, '-',
    ``sep`` or its format's whitespace and every integer is
    ``-?(0|[1-9][0-9]*)`` within int64.  One selection finds each integer's
    last digit and each separator, which must alternate from an integer to
    an integer, and the rest is read at a distance from the last digits
    ``ends``: digit column p at ``ends - p`` where p + 1 digits run to the
    end, and, in a piece that has a '-', the sign one byte before an
    integer's first digit."""
    try:
        u = np.frombuffer(piece.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    digits = u - np.uint8(ord("0"))   # a digit's value; any other byte reads 10 or more
    digit = np.zeros(u.size + 2, dtype=bool)   # False on both sides: every byte has neighbours
    np.less(digits, 10, out=digit[1:-1])
    is_sep = u == ord(sep)
    known = digit[1:-1] | is_sep | (u == ord(" "))
    signed = "-" in piece
    if signed:
        minus = u == ord("-")
        known |= minus
    for space in _SPACES[1:].replace(sep, ""):   # tab, CR, JSON's LF: while a byte is unclassified
        if known.all():
            break
        known |= u == ord(space)
    # refused: a byte of another kind, a '-' after a digit or before none, a leading 0
    if (not known.all()
            or (signed and (minus & (digit[:-2] | ~digit[2:])).any())
            or ((u == ord("0")) & (digit[2:] > digit[:-2])).any()):
        return None
    last = digit[1:-1] > digit[2:]   # each integer's last digit
    if np.count_nonzero(is_sep) != np.count_nonzero(last) - 1:
        return None   # not one separator fewer than integers
    ends = np.flatnonzero(last | is_sep)[::2].copy()   # marks 0, 2, .. of 2 * count - 1
    mag = digits.take(ends)
    if (mag > 9).any():   # a separator at an even mark: not one between each pair of
        return None       # neighbours, or one before the first or after the last
    run = digit[1:-1].copy()
    length = np.ones(ends.size, dtype=np.uint8) if signed else None
    for place in range(1, len(_SUMS) + 1):
        run = run[:-1]   # run[j]: bytes j .. j + place all digits, for every j short of the end
        run &= digit[1 + place:-1]
        if not run.any():
            break
        if place == len(_SUMS):
            return None   # a 20th digit
        total = _SUMS[place]
        mag = mag.astype(total, copy=False)
        # below 0 only for an integer of at most place digits that ends before byte place,
        # so no run of place + 1 digits starts at byte 0, where the clip reads
        at = ends - place
        mag += (digits[:-place] * run).take(at, mode="clip") * total(10 ** place)
        if signed:
            length += run.take(at, mode="clip")
    # an unsigned integer at byte 0 reads the piece's last byte, never a '-'
    neg = u.take(ends - length) == ord("-") if signed else np.zeros(ends.size, dtype=bool)
    if place == len(_SUMS) and (mag > np.uint64(_INT64_MAX) + neg).any():
        return None   # 2^63 is in range only negated
    return mag, neg


def _integer_array(text: str, lo: int, hi: int, sep: str) -> np.ndarray | None:
    """``_magnitudes`` over ``text[lo:hi]``, cut at ``sep`` into pieces of
    about ``_CHUNK`` bytes.  Each piece's values are kept in the narrowest
    of uint8, uint16 and int64 that holds them, and more than one piece is
    joined by one ``np.concatenate`` into the widest of their dtypes, so
    the result is in the narrowest that holds every value.  None where a
    piece is, where the text is empty, or where it ends in ``sep``."""
    pieces = []
    while lo < hi:
        cut = text.find(sep, lo + _CHUNK, hi)   # the first separator past _CHUNK bytes
        if cut < 0:
            cut = hi
        read = _magnitudes(text[lo:cut], sep)
        if read is None:
            return None
        values, neg = read
        if neg.any():
            values = values.astype(np.int64)   # 2^63 wraps to -2^63, which negates to itself
            np.negative(values, out=values, where=neg)
        dtype = narrowest_dtype(int(values.max()), int(values.min()))
        pieces.append(values.astype(dtype, copy=False))
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
