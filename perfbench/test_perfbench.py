"""Self-tests of the benchmark: smoke runs, and mutated outputs that the checks must catch.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads as w  # noqa: E402
from steinerdh import (Hypermatrix, export_json, forms, path_tree,  # noqa: E402
                       random_tree, steiner_distance_bruteforce, trees)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", w.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_one_command_runs_all_three_workloads():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seconds", "1", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    combined = json.loads(proc.stdout.strip().splitlines()[-1])
    assert combined["correct"] is True and set(combined["workloads"]) == set(w.WORKLOADS)
    for workload in w.WORKLOADS:
        assert f"workload={workload} seed=1" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("campaign", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_streams_repeat_for_a_seed_and_differ_across_seeds():
    def first(seed):
        s = w.stream("search", seed)
        return [(op.tree, op.k, op.restart_seed) for op in (next(s) for _ in range(16))]

    assert first(1) == first(1)
    assert first(1) != first(2)


# ---------------------------------------------------------------------------
# mutated outputs trip the checks
# ---------------------------------------------------------------------------

def _op_and_output(workload: str, n: int, k: int, **extra):
    op = w.Op(workload, 0, random_tree(n, 11), k, **extra)
    return op, w.run_op(op)


def _mutated(out: dict, edit) -> dict:
    bad = dict(out, report=copy.deepcopy(out["report"]))
    edit(bad["report"])
    bad["text"] = json.dumps(bad["report"], sort_keys=True, indent=2) + "\n"
    return bad


def test_campaign_check_catches_mutations():
    op, out = _op_and_output("campaign", 7, 5)
    assert w.check_op(op, out) == []

    def unverify(rep):
        rep["verified"] = False

    def widen_support(rep):
        point = rep["certificate"]["point"]
        zero = next(c for c in point if all(a == "0" for a, _ in c["coeffs"]))
        zero["coeffs"][0] = ["1", "1"]

    assert w.check_op(op, _mutated(out, unverify))
    assert w.check_op(op, _mutated(out, widen_support))
    stale = dict(out, text=out["text"].replace('"verified": true', '"verified": false'))
    assert w.check_op(op, stale)


def test_campaign_check_knows_the_two_vertex_and_determinant_rules():
    op, out = _op_and_output("campaign", 2, 7)
    assert out["report"]["kind"] == "two_vertex_nullvector"
    assert w.check_op(op, out) == []

    def rename(rep):
        rep["kind"] = "two_vertex_nonvanishing"

    assert w.check_op(op, _mutated(out, rename))

    op, out = _op_and_output("campaign", 9, 2)
    assert w.check_op(op, out) == []

    def off_by_one(rep):
        rep["determinant"] = rep["predicted"] = str(int(rep["determinant"]) + 1)

    assert w.check_op(op, _mutated(out, off_by_one))


def test_identities_check_catches_a_perturbed_entry():
    spots = ((0, 1, 2, 3), (4, 4, 1, 0))
    op, out = _op_and_output("identities", 6, 4, spots=spots)
    assert w.check_op(op, out) == []

    arr = np.array(out["h"].entries)
    arr[spots[1]] += 1
    h = Hypermatrix(4, 6, arr)
    consistent = dict(out, h=h, h2=h, doc=export_json(h))
    assert any("BFS" in p for p in w.check_op(op, consistent))

    doc_only = dict(out, doc=export_json(h))
    assert w.check_op(op, doc_only)


def test_identities_check_catches_a_failed_row():
    op, out = _op_and_output("identities", 6, 3, spots=((0, 1, 2),))

    def fail_row(rep):
        rep["checks"][0]["status"] = "fail"

    assert w.check_op(op, _mutated(out, fail_row))


def test_search_checks_catch_bad_floors():
    op, out = _op_and_output("search", 3, 4, restart_seed=3)
    assert w.check_op(op, out) == []

    def nan(rep):
        rep["best_residual"] = rep["candidates"][0]["residual"] = float("nan")

    assert w.check_op(op, _mutated(out, nan))
    assert w.check_separation([0.1, 0.3], [1e-20, 0.5]) == []
    assert w.check_separation([0.1, 0.3], [0.2, 0.5])  # odd floor raised above even
    assert w.check_separation([1e-17], [1e-20])        # separation under 1e4


def test_bfs_steiner_agrees_with_the_brute_force_oracle():
    rng = np.random.default_rng(0)
    for seed in range(20):
        t = random_tree(int(rng.integers(2, 10)), seed)
        for _ in range(10):
            vs = [int(v) for v in rng.integers(1, t.n + 1, size=int(rng.integers(1, 5)))]
            assert w.bfs_steiner(t, vs) == steiner_distance_bruteforce(t, vs)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_instrument_wraps_every_binding_and_restores_them():
    originals = (forms.gradient_direct, trees.Tree.steiner, w.cli.certify_case)
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        import steinerdh.nullspace as nullspace
        assert nullspace.gradient_direct is forms.gradient_direct is not originals[0]
        op = w.Op("campaign", 0, path_tree(4), 3)
        with tracer.span("cli.op"):
            w.run_op(op)
    finally:
        restore()
    assert (forms.gradient_direct, trees.Tree.steiner, w.cli.certify_case) == originals
    metrics = tracing.layer_metrics(tracer)
    assert metrics["forms.gradient_exact_calls"][0] == 1
    assert metrics["trees.steiner_calls"][0] > 0
    assert {s["name"] for s in tracer.spans} >= {"cli.op", "cli.certify_case",
                                                 "nullspace.verify_nullvector"}
    assert all(t[1] >= 0 for t in tracer.totals.values())
