"""Seeded op streams, the ops the benchmark times, and the checks on their outputs.

Each workload is an endless, deterministic stream of ops built from the
benchmark seed: the seed picks every tree (uniform Prüfer sequences through
``steinerdh.random_tree``) and every search restart seed.  The (n, k) classes
follow a fixed interleaved order, so any prefix of a stream samples the
classes evenly and a time-bounded run always measures the same mix.

The checks here do not reuse the library's own derivations: determinants are
compared with the closed form computed here, certificates are parsed from
their JSON, and hypermatrix entries are compared with a BFS Steiner distance.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Iterator

import numpy as np

from steinerdh import cli, hypermatrix, nullspace, trees

WORKLOADS = ("campaign", "search", "identities")

HIT_RESIDUAL = 1e-10        # an odd-control restart "hits" at or below this
SEPARATION = 1e4            # criterion 10: min even floor >= 1e4 * min odd floor
SPOT_CHECKS = 16            # hypermatrix entries compared with the BFS distance
ODD_PANEL_KEY = 230600243   # odd controls come from one fixed panel, for every seed
IDENTITY_ROWS = 8


@dataclass(frozen=True)
class Sizes:
    """Input ranges of the three workloads."""

    campaign_ks: tuple[int, ...]        # odd orders of the main certify cases
    campaign_n: tuple[int, int]         # vertex range of the main cases and of k = 2
    two_vertex_k: tuple[int, int]       # order range of the n = 2 cases
    search_even: tuple[tuple[int, int], ...]   # (n, k) even-order classes
    search_odd: tuple[tuple[int, int], ...]    # (n, k) odd-order controls
    identity_n: tuple[int, int]         # vertex range of the identity trees
    entry_cap: int                      # most hypermatrix entries in a round trip


FULL = Sizes(
    campaign_ks=(3, 5, 7, 9, 11),
    campaign_n=(3, 40),
    two_vertex_k=(3, 13),
    search_even=((3, 4), (4, 4), (5, 4), (6, 4), (4, 6)),
    search_odd=((3, 3), (4, 3), (5, 3), (3, 5), (4, 5)),
    identity_n=(6, 16),
    entry_cap=20_000,
)

SMOKE = Sizes(
    campaign_ks=(3, 5),
    campaign_n=(3, 6),
    two_vertex_k=(3, 7),
    search_even=((3, 4),),
    search_odd=((3, 3),),
    identity_n=(4, 6),
    entry_cap=300,
)


@dataclass(frozen=True)
class Op:
    workload: str
    index: int
    tree: trees.Tree
    k: int
    restart_seed: int = 0               # search only
    odd_control: bool = False           # search only
    spots: tuple[tuple[int, ...], ...] = ()   # identities only: 0-based entry indices

    @property
    def n(self) -> int:
        return self.tree.n


def _interleaved(items: list) -> list:
    """Items in golden-ratio order, so that every prefix samples them evenly."""
    g = (math.sqrt(5) - 1) / 2
    return [items[i] for i in sorted(range(len(items)), key=lambda i: (i * g) % 1.0)]


def _philox(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(key % (1 << 64))))


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 1 << 63))


def stream(workload: str, seed: int, sizes: Sizes = FULL) -> Iterator[Op]:
    """The workload's ops in order; the same seed gives the same ops."""
    rng = _philox(seed)
    if workload == "campaign":
        lo, hi = sizes.campaign_n
        grid = _interleaved([(n, k) for k in sizes.campaign_ks for n in range(lo, hi + 1)])
        det_ns = _interleaved(list(range(lo, hi + 1)))
        two_ks = list(range(sizes.two_vertex_k[0], sizes.two_vertex_k[1] + 1))
        main = 0
        for i in count():
            # a block of ten: eight odd-order certificates, one n = 2 case, one k = 2 case
            slot, block = i % 10, i // 10
            if slot == 8:
                n, k = 2, two_ks[block % len(two_ks)]
            elif slot == 9:
                n, k = det_ns[block % len(det_ns)], 2
            else:
                n, k = grid[main % len(grid)]
                main += 1
            yield Op("campaign", i, trees.random_tree(n, _draw_seed(rng)), k)
    elif workload == "search":
        panel = _philox(ODD_PANEL_KEY)
        even = odd = 0
        for i in count():
            # a block of eight: five even-order restarts, three odd-order controls
            if i % 8 in (1, 4, 7):
                n, k = sizes.search_odd[odd % len(sizes.search_odd)]
                odd += 1
                tree = trees.random_tree(n, _draw_seed(panel))
                yield Op("search", i, tree, k, _draw_seed(panel), odd_control=True)
            else:
                n, k = sizes.search_even[even % len(sizes.search_even)]
                even += 1
                tree = trees.random_tree(n, _draw_seed(rng))
                yield Op("search", i, tree, k, _draw_seed(rng))
    elif workload == "identities":
        lo, hi = sizes.identity_n
        ns = _interleaved(list(range(lo, hi + 1)))
        for i in count():
            n = ns[i % len(ns)]
            k = round_trip_order(n, sizes.entry_cap)
            tree = trees.random_tree(n, _draw_seed(rng))
            spots = tuple(tuple(int(x) for x in row)
                          for row in rng.integers(0, n, size=(SPOT_CHECKS, k)))
            yield Op("identities", i, tree, k, spots=spots)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def round_trip_order(n: int, entry_cap: int) -> int:
    """The largest order in 3..5 whose n^k entries stay within the cap."""
    k = 3
    while k < 5 and n ** (k + 1) <= entry_cap:
        k += 1
    return k


def warmup_ops(workload: str, sizes: Sizes = FULL) -> list[Op]:
    """Small ops that fill the library's lazy tables for every order the stream uses."""
    t2, t3 = trees.path_tree(2), trees.path_tree(3)
    if workload == "campaign":
        lo, hi = sizes.two_vertex_k
        return ([Op(workload, -1, t3, k) for k in sizes.campaign_ks]
                + [Op(workload, -1, t2, k) for k in range(lo, hi + 1)]
                + [Op(workload, -1, t3, 2)])
    if workload == "search":
        return [Op(workload, -1, t3, 3, restart_seed=0)]
    spots = ((0, 1, 2),)
    return [Op(workload, -1, t3, 3, spots=spots)]


# ---------------------------------------------------------------------------
# ops: the calls the CLI makes, plus the JSON it writes
# ---------------------------------------------------------------------------

def _cli_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def run_op(op: Op) -> dict:
    """Run one op through the same entry points as the CLI command."""
    if op.workload == "campaign":
        report, code = cli.certify_case(op.tree, op.k)
        return {"report": report, "code": code, "text": _cli_json(report)}
    if op.workload == "search":
        tol = 1e-12
        candidates = nullspace.numeric_search(op.tree, op.k, op.restart_seed, 1, tol=tol)
        report = {
            "schema": cli.SCHEMA, "n": op.n, "k": op.k, "seed": op.restart_seed,
            "restarts": 1, "tol": tol,
            "best_residual": candidates[0].residual if candidates else None,
            "candidates": [
                {"point": [c.to_json() for c in cand.point], "residual": cand.residual}
                for cand in candidates
            ],
        }
        return {"report": report, "text": _cli_json(report)}
    report = {"schema": cli.SCHEMA, "n": op.n, "checks": cli.identity_rows(op.tree)}
    h = hypermatrix.build_steiner(op.tree, op.k)
    doc = hypermatrix.export_json(h)
    return {"report": report, "text": _cli_json(report),
            "h": h, "doc": doc, "h2": hypermatrix.import_json(doc)}


def fingerprint(out: dict) -> tuple:
    """What must be identical between a traced and an untraced run of one op."""
    return out["text"], out.get("doc")


def cli_commands(op: Op, out: dict, tree_path: str) -> list[tuple[list[str], str]]:
    """CLI argument lists for one op, each with the stdout the CLI must print."""
    if op.workload == "campaign":
        return [(["certify", "--tree", tree_path, "--k", str(op.k)], out["text"])]
    if op.workload == "search":
        return [(["search", "--tree", tree_path, "--k", str(op.k),
                  "--seed", str(op.restart_seed), "--restarts", "1"], out["text"])]
    return [(["identities", "--tree", tree_path], out["text"]),
            (["hypermatrix", "--tree", tree_path, "--k", str(op.k)], out["doc"] + "\n")]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_op(op: Op, out: dict, entry_cap: int = FULL.entry_cap) -> list[str]:
    """Problems found in one op's output; an empty list means it passed."""
    problems = []
    if json.loads(out["text"]) != out["report"]:
        problems.append("JSON text does not round-trip to the report")
    if op.workload == "campaign":
        problems += _check_certificate(op, out)
    elif op.workload == "search":
        problems += _check_search(out["report"])
    else:
        problems += _check_identities(op, out, entry_cap)
    return problems


def _graham_pollak(n: int) -> int:
    return -(n - 1) * (-2) ** (n - 2)


def _check_certificate(op: Op, out: dict) -> list[str]:
    rep, n, k = out["report"], op.n, op.k
    problems = []
    if out["code"] != cli.EXIT_OK:
        problems.append(f"exit code {out['code']}")
    if rep.get("verified") is not True:
        problems.append("report is not verified")
    if (rep.get("n"), rep.get("k")) != (n, k):
        problems.append(f"report names (n, k) = {(rep.get('n'), rep.get('k'))}")
    if k == 2:
        expected_kind = "determinant"
        if rep.get("determinant") != str(_graham_pollak(n)):
            problems.append(f"determinant {rep.get('determinant')} != {_graham_pollak(n)}")
    elif n == 2:
        expected_kind = "two_vertex_nullvector" if k % 6 == 1 else "two_vertex_nonvanishing"
    else:
        expected_kind = "nullvector_certificate"
    if rep.get("kind") != expected_kind:
        problems.append(f"kind {rep.get('kind')!r}, expected {expected_kind!r}")
    if "certificate" in rep:
        cert = rep["certificate"]
        if cert.get("exact_zero") is not True or cert.get("residual") != 0.0:
            problems.append("certificate gradient is not exactly zero")
        if expected_kind == "nullvector_certificate":
            problems += _check_canonical_point(cert["point"], n, k)
    return problems


def _check_canonical_point(point: list[dict], n: int, k: int) -> list[str]:
    """Support 3 in Q(zeta_{2k-2}) and coordinates summing to zero."""
    problems = []
    if len(point) != n:
        return [f"certificate has {len(point)} coordinates for n = {n}"]
    if any(c["m"] != 2 * k - 2 for c in point):
        problems.append("certificate is not over Q(zeta_{2k-2})")
    coords = [[Fraction(int(a), int(b)) for a, b in c["coeffs"]] for c in point]
    support = sum(1 for c in coords if any(c))
    if support != 3:
        problems.append(f"certificate support {support}, expected 3")
    if len({len(c) for c in coords}) != 1 or any(map(sum, zip(*coords))):
        problems.append("certificate coordinates do not sum to zero")
    return problems


def _check_search(rep: dict) -> list[str]:
    res = rep.get("best_residual")
    if not isinstance(res, float) or not math.isfinite(res) or res < 0:
        return [f"residual {res!r} is not a finite nonnegative number"]
    if len(rep["candidates"]) != 1 or rep["candidates"][0]["residual"] != res:
        return ["a one-restart search must return exactly its one candidate"]
    return []


def check_separation(even_floors: list[float], odd_floors: list[float]) -> list[str]:
    """Criterion 10 over one run: even-order floors sit far above the odd ones."""
    if not even_floors or not odd_floors:
        return ["run has no even-order restarts or no odd-order controls"]
    if min(even_floors) < SEPARATION * min(odd_floors):
        return [f"min even floor {min(even_floors):.3g} is not >= {SEPARATION:g} x "
                f"min odd floor {min(odd_floors):.3g}"]
    return []


def _check_identities(op: Op, out: dict, entry_cap: int) -> list[str]:
    problems = []
    rows = out["report"]["checks"]
    if len(rows) != IDENTITY_ROWS or any(r["status"] != "pass" for r in rows):
        problems.append("identity rows: " + ", ".join(f"{r['name']}={r['status']}" for r in rows))
    n, k = op.n, op.k
    if n ** k > entry_cap:
        problems.append(f"{n}^{k} entries exceed the cap of {entry_cap}")
    if out["h2"] != out["h"]:
        problems.append("import_json(export_json(h)) != h")
    doc = json.loads(out["doc"])
    entries = doc["entries"]
    if (doc["k"], doc["n"]) != (k, n) or len(entries) != n ** k:
        return problems + ["exported document has the wrong shape"]
    for idx in op.spots:
        flat = int(np.ravel_multi_index(idx, (n,) * k))
        want = bfs_steiner(op.tree, [v + 1 for v in idx])
        if entries[flat] != want:
            problems.append(f"entry {idx} = {entries[flat]}, BFS Steiner distance {want}")
    return problems


def bfs_steiner(t: trees.Tree, vertices: list[int]) -> int:
    """Steiner distance as |union of BFS paths from the first vertex| - 1."""
    adjacency: dict[int, list[int]] = {v: [] for v in range(1, t.n + 1)}
    for u, v in t.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    root = vertices[0]
    parent = {root: None}
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y in adjacency[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    covered = {root}
    for v in vertices[1:]:
        while v not in covered:
            covered.add(v)
            v = parent[v]
    return len(covered) - 1
