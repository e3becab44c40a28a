"""Batch command-line front end.

Commands: gen, hypermatrix, certify, identities, search, campaign.
JSON goes to stdout (or --out); human-readable notes go to stderr under
--verbose.  All randomness flows from --seed: trees use Philox keyed by the
seed, search restarts use Philox keyed by (seed, restart index), campaign
cases draw per-case seeds in order from one Philox stream keyed by the seed.
The process pool and its workers load only for campaign --jobs > 1.

Exit codes: 0 success/verified, 1 I/O or parse error, 2 resource budget,
3 no certificate available (even order), 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import chain
from typing import Iterable

import numpy as np

from . import __version__
from .distmatrix import gl_inverse, graham_pollak_value
from .errors import (BudgetExceeded, MalformedInput, NotATree, SteinerError,
                     ascii_decimal, ascii_int)
from .forms import (_divisibility, order3_tensor, verify_product_decomposition,
                    verify_s3_decomposition)
from .hypermatrix import _json_pieces, _text_pieces, build_steiner
from .nullspace import canonical_odd_nullvector, numeric_search, verify_nullvector
from .smalldet import det_order2, two_vertex_nullvector_witness
from .trees import Tree, format_tree, parse_tree, random_tree

SCHEMA = "steinerdh/1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_NO_CERTIFICATE = 3
EXIT_VERIFICATION = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _note(args, text: str) -> None:
    if getattr(args, "verbose", False):
        print(text, file=sys.stderr)


def _write(args, pieces: Iterable[str]) -> None:
    """Write the pieces as they come to stdout, or to the ``--out`` file when
    one is named."""
    out = getattr(args, "out", None)
    if out in (None, "-"):
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _encode(obj) -> str:
    """The text of every JSON report and campaign file, with no final newline."""
    return json.dumps(obj, sort_keys=True, indent=2)


def _check_order(k) -> int:
    """The order as an int >= 2 in ASCII digits; any other value is a usage error."""
    try:
        order = ascii_int(str(k))
    except ValueError:
        order = 0
    if order < 2:
        raise _UsageError(f"--k must be an integer >= 2, got {k!r}")
    return order


def _signed_int(text: str) -> int:
    return ascii_int(text, signed=True)


def _load_tree(path: str) -> Tree:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tree(fh.read())


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    if args.n < 1:
        raise _UsageError("--n must be >= 1")
    t = random_tree(args.n, args.seed)
    _write(args, [format_tree(t)])
    _note(args, f"generated tree on {args.n} vertices, seed {args.seed}")
    return EXIT_OK


def cmd_hypermatrix(args) -> int:
    _check_order(args.k)
    t = _load_tree(args.tree)
    h = build_steiner(t, args.k)
    if args.format == "json":
        _write(args, chain(_json_pieces(h), ["\n"]))
    else:
        _write(args, _text_pieces(h))
    _note(args, f"order-{args.k} hypermatrix of a tree on {t.n} vertices")
    return EXIT_OK


def certify_case(t: Tree, k: int) -> tuple[dict, int]:
    """Certificate report and exit code for one (tree, order) pair."""
    k = _check_order(k)
    n = t.n
    if k == 2:
        if n == 1:
            det, predicted = Fraction(0), Fraction(0)
        else:
            det = det_order2(t)
            predicted = graham_pollak_value(n)
        ok = det == predicted
        report = {
            "schema": SCHEMA, "kind": "determinant", "n": n, "k": 2,
            "determinant": str(det), "predicted": str(predicted), "verified": ok,
        }
        return report, EXIT_OK if ok else EXIT_VERIFICATION
    if n == 1:
        kind, point = "single_vertex", [1]
    elif n == 2:
        point = two_vertex_nullvector_witness(k)
        if point is None:   # no nonzero singular point: the discriminant is nonzero
            report = {"schema": SCHEMA, "kind": "two_vertex_nonvanishing",
                      "n": 2, "k": k, "verified": True}
            return report, EXIT_OK
        # the scan found a surviving root of unity: certify vanishing instead
        kind = "two_vertex_nullvector"
    elif k % 2 == 1:
        kind, point = "nullvector_certificate", canonical_odd_nullvector(t, k)
    else:
        report = {"schema": SCHEMA, "kind": "no_certificate", "n": n, "k": k,
                  "message": "no certificate available; see search"}
        return report, EXIT_NO_CERTIFICATE
    rep = verify_nullvector(t, k, point)
    report = {"schema": SCHEMA, "kind": kind, "n": n, "k": k,
              "certificate": rep.to_json(), "verified": rep.exact_zero}
    return report, EXIT_OK if rep.exact_zero else EXIT_VERIFICATION


def cmd_certify(args) -> int:
    t = _load_tree(args.tree)
    report, code = certify_case(t, args.k)
    _write(args, [_encode(report), "\n"])
    _note(args, f"certify: kind={report['kind']} exit={code}")
    return code


IDENTITY_ROWS = ("product_decomposition", "euler_identity", "s3_decomposition",
                 "partials_not_divisible", "form_divisible_by_s",
                 "gl_inverse", "ones_row", "c_sum")


def identity_rows(t: Tree) -> list[dict]:
    if t.n == 1:
        return [{"name": nm, "status": "skipped",
                 "reason": "single-vertex tree: order-3 form and matrix algebra are void"}
                for nm in IDENTITY_ROWS]
    P, degrees = order3_tensor(t), np.array(t.degrees[1:])
    # D off P's diagonal, P[i, j, j] = 6 d(i, j), not a second build: the
    # inverse row pins D exactly, and the product row then pins all of P
    D = P.diagonal(axis1=1, axis2=2) // 6
    num, den = gl_inverse(t)   # |num| < 2n^2, so num @ D stays below 2n^4 in int64
    tau = 2 - degrees   # c_r = tau_r / (n - 1) solves c D = 1
    product = verify_product_decomposition(P, D)
    # euler_identity, sum_r x_r D_r p = 3sg, is the product row: its left side is 3p
    # by Euler's theorem; c_sum cannot fail, by the handshake lemma
    checks = (product, product, verify_s3_decomposition(P, degrees), *_divisibility(P),
              bool((num @ D == den * np.eye(t.n, dtype=np.int64)).all()),
              bool((tau @ D == t.n - 1).all()), int(tau.sum()) == 2)
    return [{"name": nm, "status": "pass" if ok else "fail"}
            for nm, ok in zip(IDENTITY_ROWS, checks)]


def cmd_identities(args) -> int:
    t = _load_tree(args.tree)
    rows = identity_rows(t)
    report = {"schema": SCHEMA, "n": t.n, "checks": rows}
    _write(args, [_encode(report), "\n"])
    if getattr(args, "verbose", False):
        width = max(len(r["name"]) for r in rows)
        for r in rows:
            line = f"{r['name']:<{width}}  {r['status']}"
            if r.get("reason"):
                line += f"  ({r['reason']})"
            print(line, file=sys.stderr)
    failed = any(r["status"] == "fail" for r in rows)
    return EXIT_VERIFICATION if failed else EXIT_OK


def cmd_search(args) -> int:
    _check_order(args.k)
    t = _load_tree(args.tree)
    candidates = numeric_search(t, args.k, args.seed, args.restarts, tol=args.tol)
    report = {
        "schema": SCHEMA, "n": t.n, "k": args.k, "seed": args.seed,
        "restarts": args.restarts, "tol": args.tol,
        "best_residual": candidates[0].residual if candidates else None,
        "candidates": [
            {"point": [c.to_json() for c in cand.point], "residual": cand.residual}
            for cand in candidates
        ],
    }
    _write(args, [_encode(report), "\n"])
    for cand in candidates:
        _note(args, f"candidate: residual {cand.residual:.3e}, "
                    f"{cand.iterations} iterations, stop {cand.stop}")
    _note(args, f"search: best residual "
                f"{report['best_residual'] if candidates else 'n/a'}")
    return EXIT_OK


def _run_campaign_case(desc: tuple) -> dict:
    n, k, case_seed, index = desc
    t = random_tree(n, case_seed)
    report, code = certify_case(t, k)
    return {"index": index, "n": n, "k": k, "case_seed": int(case_seed),
            "tree": format_tree(t), "report": report, "exit_code": code}


def cmd_campaign(args) -> int:
    ks = [_check_order(x.strip()) for x in args.k.split(",") if x.strip()]
    if not ks:
        raise _UsageError("--k needs at least one order")
    if args.n_min < 1 or args.n_max < args.n_min:
        raise _UsageError("need 1 <= n-min <= n-max")
    if args.trees_per_n < 1:
        raise _UsageError("--trees-per-n must be >= 1")
    if args.jobs < 1:
        raise _UsageError("--jobs must be >= 1")
    os.makedirs(args.out_dir, exist_ok=True)

    cases = []
    for n in range(args.n_min, args.n_max + 1):
        for k in ks:
            for _ in range(args.trees_per_n):
                cases.append((n, k))
    seed_stream = np.random.Generator(
        np.random.Philox(key=np.uint64(args.seed % (1 << 64))))
    case_seeds = [int(x) for x in
                  seed_stream.integers(0, 1 << 63, size=len(cases))]
    descs = [(n, k, case_seeds[i], i) for i, (n, k) in enumerate(cases)]

    # the pool forks all its workers at the first submit, so never more than
    # there are cases or usable CPUs; the outputs do not depend on the count
    workers = min(args.jobs, len(descs))
    if workers > 1:
        # imported here: the pool machinery loads only for --jobs > 1
        from concurrent.futures import ProcessPoolExecutor
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=min(workers, cpus)) as pool:
            results = list(pool.map(_run_campaign_case, descs))
    else:
        results = [_run_campaign_case(d) for d in descs]

    counts = {"verified": 0, "failed": 0, "no_certificate": 0}
    for res in results:
        if res["exit_code"] == EXIT_OK:
            counts["verified"] += 1
        elif res["exit_code"] == EXIT_NO_CERTIFICATE:
            counts["no_certificate"] += 1
        else:
            counts["failed"] += 1
        name = f"case_n{res['n']}_k{res['k']}_i{res['index']:04d}.json"
        with open(os.path.join(args.out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(_encode(res))
    summary = _encode({"schema": SCHEMA, "seed": args.seed, "cases": len(results),
                       "orders": ks, "n_range": [args.n_min, args.n_max], **counts})
    with open(os.path.join(args.out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        fh.write(summary)
    _write(args, [summary, "\n"])
    _note(args, f"campaign: {counts}")
    return EXIT_OK if counts["failed"] == 0 else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="steinerdh",
                     description="Steiner distance hypermatrices of trees: "
                                 "exact certificates and numeric probes")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--verbose", action="store_true",
                       help="human-readable notes on stderr")
        p.add_argument("--out", default="-", help="output path (default stdout)")

    p = sub.add_parser("gen", help="write a seeded random tree")
    common(p)
    p.add_argument("--n", type=ascii_int, required=True)
    p.add_argument("--seed", type=_signed_int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("hypermatrix", help="build and export a Steiner hypermatrix")
    common(p)
    p.add_argument("--tree", required=True)
    p.add_argument("--k", type=ascii_int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_hypermatrix)

    p = sub.add_parser("certify", help="emit a hyperdeterminant certificate")
    common(p)
    p.add_argument("--tree", required=True)
    p.add_argument("--k", type=ascii_int, required=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("identities", help="run the order-3 and matrix identity suite")
    common(p)
    p.add_argument("--tree", required=True)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("search", help="numeric nullvector search (evidence only; "
                                      "compare residual floors within one small order)")
    common(p)
    p.add_argument("--tree", required=True)
    p.add_argument("--k", type=ascii_int, required=True)
    p.add_argument("--seed", type=_signed_int, default=0)
    p.add_argument("--restarts", type=ascii_int, default=20)
    p.add_argument("--tol", type=ascii_decimal, default=1e-12)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("campaign", help="batch certificates over random trees")
    common(p)
    p.add_argument("--n-min", type=ascii_int, required=True)
    p.add_argument("--n-max", type=ascii_int, required=True)
    p.add_argument("--k", required=True, help="comma-separated orders, e.g. 3,5")
    p.add_argument("--trees-per-n", type=ascii_int, default=10)
    p.add_argument("--seed", type=_signed_int, default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--jobs", type=ascii_int, default=1)
    p.set_defaults(func=cmd_campaign)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (MalformedInput, NotATree) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SteinerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


def entry() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entry()
