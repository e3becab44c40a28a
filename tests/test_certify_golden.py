"""Golden stdout of ``certify``: the same certificates and the same JSON bytes.

``tests/data/certify_golden.json`` holds, for fixed random trees with
n in {2, 3, 5, 12, 40} and every order k in [2, 13], the exact stdout text
and exit code of ``steinerdh certify``, plus the ``to_json`` of an irrational
``CycNum`` inverse and of a negative power.  The test only reads the file.
To rewrite it deliberately (after a change that is meant to alter the
output), run ``PYTHONPATH=src python tests/test_certify_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from steinerdh import CycNum
from steinerdh.cli import main
from steinerdh.trees import format_tree, random_tree

GOLDEN = Path(__file__).parent / "data" / "certify_golden.json"
SIZES = (2, 3, 5, 12, 40)
ORDERS = range(2, 14)


def _certify(tree_path: str, k: int) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["certify", "--tree", tree_path, "--k", str(k)])
    return code, buf.getvalue()


def compute() -> dict:
    """Every golden value, recomputed by the library on the import path."""
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in SIZES:
            path = os.path.join(tmp, f"tree{n}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(format_tree(random_tree(n, 1000 + n)))
            for k in ORDERS:
                code, out = _certify(path, k)
                cases.append({"n": n, "seed": 1000 + n, "k": k, "exit": code,
                              "stdout": out})
    x = CycNum(12, [Fraction(3, 7), -2, 0, 5])
    return {"certify": cases,
            "cycnum_inverse": x.inverse().to_json(),
            "cycnum_negative_power": (x ** -3).to_json()}


def test_certify_stdout_matches_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    fresh = compute()
    assert len(fresh["certify"]) == len(golden["certify"]) == len(SIZES) * len(ORDERS)
    for got, want in zip(fresh["certify"], golden["certify"]):
        assert got == want, (want["n"], want["k"])
    assert fresh["cycnum_inverse"] == golden["cycnum_inverse"]
    assert fresh["cycnum_negative_power"] == golden["cycnum_negative_power"]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(compute(), fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
