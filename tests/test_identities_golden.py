"""Golden stdout of ``identities`` and ``hypermatrix``: the same JSON and text bytes.

``tests/data/identities_golden.json`` holds, for fixed random trees with
n in {2, 3, 6, 11, 16}, the exact stdout of ``steinerdh identities`` and of
``steinerdh hypermatrix --format json|text`` at the order a round trip of
at most 20,000 entries allows (the largest k in 3..5 with n^k <= 20,000),
plus the ``to_json`` and ``repr`` of the tree's closed-form inverse
distance matrix, read as the exact ``RatMatrix`` of ``gl_inverse``'s
numerator array over its denominator.  The test only reads the file.  To rewrite it deliberately
(after a change that is meant to alter the output), run
``PYTHONPATH=src python tests/test_identities_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from steinerdh import RatMatrix, gl_inverse
from steinerdh.cli import main
from steinerdh.trees import format_tree, random_tree

GOLDEN = Path(__file__).parent / "data" / "identities_golden.json"
SIZES = (2, 3, 6, 11, 16)
ENTRY_CAP = 20_000


def round_trip_order(n: int) -> int:
    """The largest order in 3..5 whose n^k entries stay within the cap."""
    k = 3
    while k < 5 and n ** (k + 1) <= ENTRY_CAP:
        k += 1
    return k


def _stdout(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def compute() -> dict:
    """Every golden value, recomputed by the library on the import path."""
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in SIZES:
            seed, k = 2000 + n, round_trip_order(n)
            t = random_tree(n, seed)
            path = os.path.join(tmp, f"tree{n}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(format_tree(t))
            case = {"n": n, "seed": seed, "k": k}
            case["identities_exit"], case["identities"] = _stdout(
                ["identities", "--tree", path])
            for fmt in ("json", "text"):
                case[f"hypermatrix_{fmt}_exit"], case[f"hypermatrix_{fmt}"] = _stdout(
                    ["hypermatrix", "--tree", path, "--k", str(k), "--format", fmt])
            num, den = gl_inverse(t)
            inv = RatMatrix(num.tolist(), den)
            case["gl_inverse_json"], case["gl_inverse_repr"] = inv.to_json(), repr(inv)
            cases.append(case)
    return {"cases": cases}


def test_identities_and_hypermatrix_stdout_match_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    fresh = compute()
    assert len(fresh["cases"]) == len(golden["cases"]) == len(SIZES)
    for got, want in zip(fresh["cases"], golden["cases"]):
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == want[key], (want["n"], key)


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(compute(), fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
