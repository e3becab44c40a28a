"""Golden output of the numeric layer: ``search`` bytes, embeddings, completions.

``tests/data/search_golden.json`` holds, for fixed random trees with
n in {1, 2, 3, 5, 8} and for ``star_tree(20)``, at orders k in {3, 4, 5, 7, 6},
the exact stdout and ``--verbose`` stderr of ``steinerdh search`` with 2 to 4
restarts, so the points, residuals, iteration counts and stop reasons are all
pinned.  Each case runs at the default ``--tol``, at ``--tol 1e-30`` and at
``--tol 0``, which runs into the precision floor.  The file also holds the
128-bit embeddings (``oracles.embed128``, 40 significant digits) of a few
roots of unity and a sum of them, and, for tails whose discriminant is not
+/- a rational square, the CycNum JSON of the exact completion quadratic
(A, B, C) with its ``verified`` flag.  The test only reads the file.  To
rewrite it deliberately (after a change that is meant to alter the output), run
``PYTHONPATH=src python tests/test_search_golden.py``; before it overwrites
the file it prints how many search rows change bytes and lists every row
whose multiset of (iterations, stop) pairs, or of stop reasons alone, changes.

The embeddings (mpmath) and the completions (exact) are platform-independent,
but a search step goes through BLAS zgemm and one LAPACK zgesv (an LU solve
of the normal equations; zgelsd only for a singular one), so the search rows
repeat for a given seed on one numpy/BLAS build only.  k = 6 comes last in
``ORDERS`` so that the older rows keep their restart counts.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import mpmath

from steinerdh import CycNum, complete_nullvector, root_of_unity
from steinerdh.cli import main
from steinerdh.trees import format_tree, path_tree, random_tree, star_tree

from oracles import embed128

GOLDEN = Path(__file__).parent / "data" / "search_golden.json"
SIZES = (1, 2, 3, 5, 8)
ORDERS = (3, 4, 5, 7, 6)
TOLS = (None, "1e-30", "0")


def _search(tree_path: str, k: int, restarts: int, tol) -> tuple[str, str]:
    argv = ["search", "--tree", tree_path, "--k", str(k), "--seed", str(k),
            "--restarts", str(restarts), "--verbose"]
    if tol is not None:
        argv += ["--tol", tol]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 0
    return out.getvalue(), err.getvalue()


def _trees() -> list[tuple[str, object]]:
    return ([(f"random_tree({n}, {2000 + n})", random_tree(n, 2000 + n)) for n in SIZES]
            + [("star_tree(20)", star_tree(20))])


def _digits(x: CycNum) -> list[str]:
    """The real and imaginary parts of x's 128-bit embedding, 40 digits each."""
    z = embed128(x)
    return [mpmath.nstr(z.real, 40), mpmath.nstr(z.imag, 40)]


def compute() -> dict:
    """Every golden value, recomputed by the library on the import path."""
    searches = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, t) in enumerate(_trees()):
            path = os.path.join(tmp, f"tree{i}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(format_tree(t))
            for j, k in enumerate(ORDERS):
                restarts = 2 + (i + j) % 3
                for tol in TOLS:
                    out, err = _search(path, k, restarts, tol)
                    searches.append({"tree": name, "k": k, "restarts": restarts,
                                     "tol": tol, "stdout": out, "stderr": err})
    embeds = {f"zeta_{m}^{j}": _digits(root_of_unity(m, j))
              for m, j in ((1, 0), (3, 1), (5, 2), (7, 3), (12, 5), (24, 7))}
    embeds["zeta_5 + 2/3 zeta_5^3"] = _digits(root_of_unity(5) + root_of_unity(5, 3) * 2 / 3)
    completions = []
    one = CycNum.one()
    for t, tail in ((path_tree(4), [one, one]), (star_tree(5), [one, 2 * one, 3 * one]),
                    (random_tree(6, 7), [root_of_unity(3), one, -2 * one, 0 * one])):
        [cand] = complete_nullvector(t, tail)
        assert cand.point is None
        completions.append({
            "tree": format_tree(t), "tail": [x.to_json() for x in tail],
            "quadratic": [x.to_json() for x in cand.quadratic], "verified": cand.verified})
    return {"search": searches, "embed": embeds, "completion": completions}


def test_numeric_layer_matches_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    fresh = compute()
    assert len(fresh["search"]) == len(golden["search"]) == 6 * len(ORDERS) * len(TOLS)
    for got, want in zip(fresh["search"], golden["search"]):
        assert got == want, (want["tree"], want["k"], want["tol"])
    assert fresh["embed"] == golden["embed"]
    assert fresh["completion"] == golden["completion"]


def _stops(row: dict) -> list[str]:
    """A search row's (iterations, stop) pairs, from its --verbose lines, sorted."""
    return sorted(re.sub(r"^candidate: residual \S+, ", "", line)
                  for line in row["stderr"].splitlines() if line.startswith("candidate:"))


def _reasons(row: dict) -> list[str]:
    """A search row's stop reasons, iteration counts aside, sorted."""
    return sorted(pair.rsplit(" ", 1)[1] for pair in _stops(row))


def _report_changes(old: dict, new: dict) -> None:
    """Print how many search rows change bytes, every row whose multiset of
    (iterations, stop) pairs changes, and every row whose multiset of stop
    reasons changes."""
    pairs = list(zip(old["search"], new["search"]))
    print(f"{sum(a != b for a, b in pairs)} of {len(pairs)} search rows change bytes",
          file=sys.stderr)
    for what, key in (("(iterations, stop) pairs", _stops), ("stop reasons", _reasons)):
        moved = [(a, b) for a, b in pairs if key(a) != key(b)]
        print(f"{len(moved)} rows change their {what}", file=sys.stderr)
        for a, b in moved:
            print(f"  {a['tree']} k={a['k']} tol={a['tol']}: {key(a)} -> {key(b)}",
                  file=sys.stderr)


if __name__ == "__main__":
    fresh = compute()
    if GOLDEN.exists():
        with open(GOLDEN, encoding="utf-8") as fh:
            _report_changes(json.load(fh), fresh)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(fresh, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
