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

Both export formats come from one writer that casts ``_CHUNK`` entries at a
time to int64 and turns them into ASCII decimals in numpy, so it holds one
chunk's buffers besides the pieces it returns; ``export_json`` and
``export_text`` join the pieces, and the ``hypermatrix`` command writes them
as they come.  The bytes are those of ``json.dumps`` and ``str`` over the
entries as Python ints, whatever the stored dtype.

Both formats come back through one reader, the writer's mirror: the entries
are read in pieces of about ``_CHUNK`` bytes cut at separators (``,`` in
JSON, a newline in text), each piece checked byte by byte and its integers
summed one digit column at a time in uint64, all in numpy, into one int64
array sized from the separator count, which the hypermatrix then stores in
the narrowest dtype, as it would any entries.  It holds the document, that
array, the result and one piece's arrays, and no Python int per entry.
``import_json`` decodes with json's own ``JSONDecoder``, so it takes what
``json.loads`` takes, but hands the reader each array among the top-level
object's values, and json's C scanner each value that is not an int64 array;
``import_text`` reads the header line 'k n' and hands the reader the rest of
the document.
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
_PLACES = 10 ** np.arange(19, dtype=np.uint64)   # digit columns' weights: |int64| < 10^19
_POWERS = _PLACES[1:]   # 10 .. 10^18, the least numbers of 2 .. 19 digits
_DIGIT, _MINUS, _SEP, _SPACE = 1, 2, 3, 4   # kinds of byte in an entries array; 0 is any other
_BYTE_KINDS = {",": np.zeros(256, dtype=np.uint8), "\n": np.zeros(256, dtype=np.uint8)}
for _sep, _kind in _BYTE_KINDS.items():   # JSON whitespace, or a text line's (CR for CRLF)
    _kind[list(b"0123456789- \t\r\n")] = (_DIGIT,) * 10 + (_MINUS,) + (_SPACE,) * 4
    _kind[ord(_sep)] = _SEP
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


def build_steiner(t: Tree, k: int) -> Hypermatrix:
    """The order-k Steiner distance hypermatrix of a tree."""
    if k < 2:
        raise WrongShape("order must be >= 2")
    n = t.n
    limit = entry_budget()
    if _exceeds(n, k, limit):
        raise BudgetExceeded(f"{n}^{k} entries exceed the budget of {limit}")
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

def _decimals(entries: np.ndarray, sep: bytes) -> Iterator[str]:
    """``sep.join`` of the entries' ASCII decimals, in pieces of ``_CHUNK``
    entries, each cast to int64 first.  Each piece is one uint8 buffer: filled
    with the separator's last byte, then the separators' other bytes, the
    signs, and one digit column per pass, right to left, over the entries
    that still have digits."""
    flat = entries.reshape(-1)
    for lo in range(0, flat.size, _CHUNK):
        value = flat[lo:lo + _CHUNK].astype(np.int64)   # a copy, whatever the stored dtype
        neg = value < 0
        mag = value.view(np.uint64)
        np.negative(mag, out=mag, where=neg)   # |value| in uint64, exact at -2^63
        digits = np.searchsorted(_POWERS[_POWERS <= mag.max()], mag, side="right") + 1
        last = np.cumsum(digits + neg + len(sep)) - len(sep) - 1   # each entry's last digit
        buf = np.full(last[-1] + 1 + len(sep), sep[-1], dtype=np.uint8)
        for j, byte in enumerate(sep[:-1]):
            buf[last + 1 + j] = byte
        buf[(last - digits)[neg]] = ord("-")
        pos = last
        while mag.size:
            tens = mag // 10
            buf[pos] = mag - 10 * tens + ord("0")
            more = tens > 0
            mag, pos = tens[more], pos[more] - 1
        if lo + _CHUNK >= flat.size:
            buf = buf[:buf.size - len(sep)]   # no separator after the last entry
        yield buf.tobytes().decode("ascii")


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


def _int64_piece(piece: str, sep: str) -> np.ndarray | None:
    """The values of ``piece``, integers with one ``sep`` between neighbours,
    as int64; None unless every byte is a digit, '-', ``sep`` or its format's
    whitespace and every integer is ``-?(0|[1-9][0-9]*)`` within int64."""
    try:
        u = np.frombuffer(piece.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    kind = _BYTE_KINDS[sep].take(u)
    if not kind.all():
        return None
    token = np.zeros(u.size + 2, dtype=bool)   # digits and '-', padded on both sides
    np.less_equal(kind, _MINUS, out=token[1:-1])
    # each integer's first byte and one past its last, as contiguous rows
    starts, ends = (token[1:] != token[:-1]).nonzero()[0].reshape(-1, 2).T.copy()
    seps = (kind == _SEP).nonzero()[0]
    if (not starts.size or seps.size != starts.size - 1 or (seps < ends[:-1]).any()
            or (seps > starts[1:]).any()):
        return None   # not one separator between each pair of neighbours
    neg = u.take(starts) == ord("-")
    digits = ends - starts - neg
    if (np.count_nonzero(kind == _MINUS) != np.count_nonzero(neg)   # a '-' after the start
            or digits.min() < 1 or digits.max() > _PLACES.size
            or ((u.take(starts + neg) == ord("0")) & (digits > 1)).any()):   # a leading 0
        return None
    value = np.zeros(starts.size, dtype=np.uint64)
    ends -= 1   # from here on, each integer's digit in column j
    for j, place in enumerate(_PLACES[:digits.max()]):   # one digit column per pass
        column = u.take(ends, mode="clip") - ord("0")
        column *= digits > j   # 0 where the integer has no digit in this column
        value += column * place
        ends -= 1
    if (value > np.uint64(_INT64_MAX) + neg).any():   # 2^63 is in range only negated
        return None
    np.negative(value, out=value, where=neg)
    return value.view(np.int64)


def _int64_array(text: str, lo: int, hi: int, sep: str) -> np.ndarray | None:
    """``_int64_piece`` over ``text[lo:hi]``, cut at ``sep`` into pieces of
    about ``_CHUNK`` bytes, written into one int64 array sized by the
    separator count; None where a piece is, where the text ends in ``sep``,
    or, before sizing, where it is too short for a digit per entry."""
    count = text.count(sep, lo, hi) + 1
    if 2 * count - 1 > hi - lo:
        return None
    out = np.empty(count, dtype=np.int64)
    done = 0
    while lo < hi:
        cut = text.find(sep, lo + _CHUNK, hi)   # the first separator past _CHUNK bytes
        if cut < 0:
            cut = hi
        values = _int64_piece(text[lo:cut], sep)
        if values is None:
            return None
        out[done:done + values.size] = values
        done += values.size
        lo = cut + 1
    return out if done == out.size else None   # a separator with nothing after it


def _member(text: str, i: int) -> tuple:
    """The JSON value at ``text[i]`` and the index past it: an array of int64
    integers by ``_int64_array``, any other value by json's C scanner."""
    end = text.find("]", i) if text.startswith("[", i) else -1
    value = _int64_array(text, i + 1, end, ",") if end >= 0 else None
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
    ``_int64_array``.  ``MalformedInput`` wherever ``json.loads`` would raise,
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
    entries = _int64_array(text, lo, len(text) - text.endswith("\n"), "\n")
    if entries is None:
        raise MalformedInput("hypermatrix text entries must be one integer within int64 a line")
    return Hypermatrix._adopt(k, n, entries.reshape(_shape(k, n, entries.size)))
