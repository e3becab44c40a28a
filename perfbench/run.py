#!/usr/bin/env python3
"""steinerdh benchmark: three closed-loop workloads over the library's public entry points.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Without ``--workload`` it runs all three workloads, each in its own process.
Run from the root of a source checkout; the library is imported from ``src/``.
One process, one thread, one client: each op starts when the previous one
has finished.  A run times a fixed list of ops built from the seed; its
length is ``--seconds`` times the workload's nominal op rate, so the work in
a run never depends on how fast the machine was.  Op and set-up times are
scaled by a reference kernel timed next to them (see ``_reference_s``), so
that they track the program and not the drifting speed of a shared machine;
the raw wall-clock figures are in the report line.  With ``--trace 1`` the run
instead times TRACE_OPS ops untraced and then traced,
and reports per-layer metrics and the tracing overhead.  Every op's output is
checked.  The last line of stdout is the result JSON; the lines before it
name every metric with its unit and sample count, followed by a JSON line
with the run's provenance.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("campaign", "search", "identities")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BUDGET_VAR = "STEINER_MEM_BUDGET"

MIN_OPS = 100             # op_p90_ms then has ten samples beyond it
SETUP_PROBES = 5          # fresh-process set-ups per run; setup_s is their median
# Timings are scaled to a machine on which one reference-kernel run takes REF_NOMINAL_S.
REF_NOMINAL_S = 0.001
REF_WINDOW = 4            # ops on each side whose reference times set an op's scale
# ops per second of --seconds: about the rate at the first benchmarked commit; search
# gets about twice as many because its restart costs vary with their random starts
OPS_PER_SECOND = {"campaign": 12.0, "search": 10.0, "identities": 4.2}
TRACE_OPS = {"campaign": 60, "search": 40, "identities": 33}
SMOKE_OPS = 6
SUBPROCESS_TIMEOUT = 120


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",),
                   help="one workload, or all three, each in its own process")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one op list of a few ops, for self-tests")
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, then exit (used to time set-up in a fresh process)")
    return p.parse_args(argv)


def _pin_environment() -> str | None:
    """One BLAS thread, no inherited entry budget; returns the budget that was set."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return os.environ.pop(BUDGET_VAR, None)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _ops(workloads, args, sizes, count: int) -> list:
    """The first `count` ops of the seeded stream, with freshly built trees."""
    stream = workloads.stream(args.workload, args.seed, sizes)
    return [next(stream) for _ in range(count)]


def _setup(workloads, args, sizes) -> list:
    """Build the run's inputs and warm the library's lazy tables."""
    count = max(MIN_OPS, round(args.seconds * OPS_PER_SECOND[args.workload]))
    ops = _ops(workloads, args, sizes, SMOKE_OPS if args.smoke else count)
    for op in workloads.warmup_ops(args.workload, sizes):
        workloads.run_op(op)
    return ops


def _run_child(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    """Run a child to completion; a blocking wait keeps the wall time exact."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), text=True, **kwargs)
    killer = threading.Timer(SUBPROCESS_TIMEOUT, proc.kill)
    killer.start()
    try:
        stdout, _ = proc.communicate()
    finally:
        killer.cancel()
    return subprocess.CompletedProcess(argv, proc.returncode, stdout)


def _probe_setup(args) -> tuple[list[float], list[float]]:
    """Wall and reference times of fresh processes that import, build the inputs and warm up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)] + (["--smoke"] if args.smoke else [])
    samples, refs = [], []
    for _ in range(SETUP_PROBES):
        before = _reference_s()
        started = time.perf_counter()
        proc = _run_child(argv, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - started)
        refs.append((before + _reference_s()) / 2)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return samples, refs


def _cli_parity(workloads, op) -> list[str]:
    """Run one op through ``python -m steinerdh.cli`` and compare stdout with in-process JSON."""
    from steinerdh import format_tree

    out = workloads.run_op(op)
    problems = []
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        tree_path = os.path.join(tmp, "tree.txt")
        with open(tree_path, "w", encoding="utf-8") as fh:
            fh.write(format_tree(op.tree))
        for argv, expected in workloads.cli_commands(op, out, tree_path):
            proc = _run_child([sys.executable, "-m", "steinerdh.cli", *argv],
                              stdout=subprocess.PIPE)
            if proc.returncode != 0 or proc.stdout != expected:
                problems.append(f"CLI parity: `{argv[0]}` exited {proc.returncode} "
                                f"and its stdout differs from the in-process report")
    return problems


def _reference_s() -> float:
    """Wall time of one run of a fixed pure-Python kernel.

    It mixes the kinds of work the library does (Fraction arithmetic, dict
    updates keyed by tuples, 128-bit integer products), so it slows down with
    the machine, never with the library.
    """
    started = time.perf_counter()
    acc, terms, x = Fraction(1), {}, (1 << 127) // 3
    for i in range(1, 120):
        acc = acc * Fraction(i, i + 2) + Fraction(1, i)
        key = (i % 11, i % 5, i % 3)
        terms[key] = terms.get(key, 0) + acc.denominator % 1009
        x = (x * (x | 1)) >> 128 | (1 << 126)
    return time.perf_counter() - started


def _at_reference_speed(latencies: list[float], refs: list[float]) -> list[float]:
    """Each latency scaled by REF_NOMINAL_S over the median reference time around it."""
    return [lat * REF_NOMINAL_S / statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            for i, lat in enumerate(latencies)]


def _run_ops(workloads, ops, sizes, problems, tracer=None):
    """Time each op between two reference-kernel runs; check its output outside the timer.

    Returns (latencies, reference times, outputs, failed).  With a tracer,
    each op runs inside a root span ``cli.op`` tagged with its index.
    """
    latencies, refs, outputs, failed = [], [], [], 0
    for op in ops:
        span = tracer.span("cli.op", op.index) if tracer else contextlib.nullcontext()
        before = _reference_s()
        started = time.perf_counter()
        try:
            with span:
                out = workloads.run_op(op)
        except Exception:  # a raising op is a failed op; the run goes on
            out = None
            err = traceback.format_exc()
        latencies.append(time.perf_counter() - started)
        refs.append((before + _reference_s()) / 2)
        found = (workloads.check_op(op, out, sizes.entry_cap) if out is not None
                 else [f"op raised:\n{err}"])
        if found:
            failed += 1
            problems.extend(f"op {op.index} (n={op.n}, k={op.k}): {p}" for p in found)
        outputs.append(out)
    return latencies, refs, outputs, failed


def _same_outputs(workloads, ops, first, second, what: str) -> list[str]:
    return [f"op {op.index}: {what}" for op, a, b in zip(ops, first, second)
            if a is not None and b is not None
            and workloads.fingerprint(a) != workloads.fingerprint(b)]


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _search_summary(workloads, ops, outputs, problems) -> dict:
    """Criterion-10 separation over the run, and the odd-control hits."""
    even, odd = [], []
    for op, out in zip(ops, outputs):
        if out is not None:
            (odd if op.odd_control else even).append(out["report"]["best_residual"])
    problems += workloads.check_separation(even, odd)
    return {"min_even_floor": min(even, default=None), "min_odd_floor": min(odd, default=None),
            "odd_hits": sum(1 for r in odd if r <= workloads.HIT_RESIDUAL),
            "odd_controls": len(odd)}


def _odd_hit_rate(ops, outputs, summary):
    """Share of odd-order nullvector attempts that reach a nullvector (see README)."""
    if summary is not None:
        return summary["odd_hits"] / summary["odd_controls"], summary["odd_controls"]
    attempts = [out for op, out in zip(ops, outputs)
                if op.workload == "campaign" and op.n >= 3 and op.k % 2 == 1]
    if not attempts:  # identities makes no odd-order nullvector attempt
        return 1.0, 0
    hits = sum(1 for out in attempts
               if out is not None
               and out["report"].get("certificate", {}).get("exact_zero") is True)
    return hits / len(attempts), len(attempts)


def _provenance(inherited_budget) -> dict:
    import mpmath
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        BUDGET_VAR: {"inherited": inherited_budget, "during_run": os.environ.get(BUDGET_VAR)},
    }


def _end_to_end(workloads, args, sizes, ops, problems):
    setup_wall, setup_refs = _probe_setup(args)
    wall, refs, outputs, failed = _run_ops(workloads, ops, sizes, problems)
    lat = _at_reference_speed(wall, refs)
    setup = [t * REF_NOMINAL_S / r for t, r in zip(setup_wall, setup_refs)]
    summary = None
    if args.workload == "search":
        summary = _search_summary(workloads, ops, outputs, problems)
    hit_rate, hit_samples = _odd_hit_rate(ops, outputs, summary)
    count = len(lat)
    metrics = {
        "ops_per_s": (count / sum(lat), "1/s", count),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms", count),
        "op_p90_ms": (_quantile(lat, 90) * 1e3, "ms", count),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "ok_frac": (1 - failed / count, "frac", count),
        "odd_hit_rate": (hit_rate, "frac", hit_samples),
    }
    details = {
        "failed_frac": failed / count, "search": summary,
        "wall_clock": {"ops_per_s": count / sum(wall), "op_p50_ms": statistics.median(wall) * 1e3,
                       "op_p90_ms": _quantile(wall, 90) * 1e3,
                       "setup_s": statistics.median(setup_wall)},
        "reference_ms": {"median": statistics.median(refs) * 1e3,
                         "min": min(refs) * 1e3, "max": max(refs) * 1e3},
    }
    return metrics, count, failed, details


def _traced(workloads, tracing, args, sizes, problems):
    """Untraced then traced pass over the same ops; per-layer metrics and overhead."""
    n_ops = SMOKE_OPS if args.smoke else TRACE_OPS[args.workload]
    ops = _ops(workloads, args, sizes, n_ops)
    plain_lat, _, plain_out, failed = _run_ops(workloads, ops, sizes, problems)

    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        with tracer.span("bench.inputs"):
            traced_ops = _ops(workloads, args, sizes, n_ops)
        traced_lat, _, traced_out, traced_failed = _run_ops(workloads, traced_ops, sizes,
                                                            problems, tracer)
    finally:
        restore()

    problems += _same_outputs(workloads, ops, plain_out, traced_out,
                              "traced output differs from the untraced output")
    if args.workload == "search":
        _search_summary(workloads, ops, plain_out, problems)

    plain_rate = n_ops / sum(plain_lat)
    traced_rate = n_ops / sum(traced_lat)
    metrics = {name: (value, unit, n_ops)
               for name, (value, unit) in tracing.layer_metrics(tracer).items()}
    metrics["trace.overhead_frac"] = ((plain_rate - traced_rate) / plain_rate, "frac", n_ops)

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "ops": n_ops,
                   "totals": {k: {"calls": v[0], "self_s": v[1], "total_s": v[2]}
                              for k, v in sorted(tracer.totals.items())},
                   "counters": tracer.counters, "spans": tracer.spans}, fh)
    details = {"untraced_ops_per_s": plain_rate, "traced_ops_per_s": traced_rate,
               "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, 2 * n_ops, failed + traced_failed, details


def _run_all(args) -> int:
    """Each workload in its own process; relay their metric lines, then one combined JSON."""
    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = _run_child(argv, stdout=subprocess.PIPE)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(line for line in lines[:-1] if not line.startswith("{")))
        results[workload] = json.loads(lines[-1])
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "steinerdh" / "__init__.py").is_file():
        print(f"error: no steinerdh sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    inherited_budget = _pin_environment()
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (after the thread pins, which numpy reads on import)

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    ops = _setup(workloads, args, sizes)
    if args.setup_probe:
        return 0

    problems = _cli_parity(workloads, ops[0])
    if args.trace:
        import tracing
        metrics, attempted, failed, details = _traced(workloads, tracing, args, sizes, problems)
    else:
        metrics, attempted, failed, details = _end_to_end(workloads, args, sizes, ops, problems)

    print(f"steinerdh benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} smoke={args.smoke}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit:<6} (n={samples})")
    if "failed_frac" in details:
        print(f"  {'failed_frac':<30} {details['failed_frac']:>14.6g} {'frac':<6} (n={attempted})")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke,
              "provenance": _provenance(inherited_budget), "details": details,
              "problems": problems,
              "metrics": {k: {"value": v, "unit": u, "samples": s}
                          for k, (v, u, s) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(json.dumps(report, sort_keys=True))
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
