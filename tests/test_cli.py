"""Command-line interface: exit codes, JSON shapes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from steinerdh import CycNum, cli, gradient_direct, smalldet
from steinerdh.cli import (EXIT_BUDGET, EXIT_INPUT, EXIT_NO_CERTIFICATE,
                           EXIT_OK, EXIT_VERIFICATION, IDENTITY_ROWS, SCHEMA,
                           identity_rows, main)
from steinerdh.distmatrix import RatMatrix
from steinerdh.hypermatrix import _MAX_AXES
from steinerdh.nullspace import canonical_odd_nullvector, verify_nullvector
from steinerdh.trees import (Tree, enumerate_trees, format_tree, path_tree,
                             prufer_decode, random_tree, star_tree)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def tree_file(tmp_path):
    def write(t, name="tree.txt"):
        p = tmp_path / name
        p.write_text(format_tree(t))
        return str(p)
    return write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_gen_deterministic(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["gen", "--n", "8", "--seed", "42", "--out", str(a)]) == EXIT_OK
    assert main(["gen", "--n", "8", "--seed", "42", "--out", str(b)]) == EXIT_OK
    assert a.read_text() == b.read_text()
    code, out = run(capsys, ["gen", "--n", "8", "--seed", "42"])
    assert code == EXIT_OK and out == a.read_text()
    code, out = run(capsys, ["gen", "--n", "1"])
    assert code == EXIT_OK and out == "1\n"


def test_gen_rejects_bad_n(capsys):
    assert main(["gen", "--n", "0"]) == EXIT_INPUT


def test_hypermatrix_json_and_text(tree_file, tmp_path, capsys):
    path = tree_file(prufer_decode(2, []))
    code, out = run(capsys, ["hypermatrix", "--tree", path, "--k", "3"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc == {"k": 3, "n": 2, "entries": [0, 1, 1, 1, 1, 1, 1, 0]}
    p3 = tree_file(path_tree(3), "p3.txt")
    code, out = run(capsys, ["hypermatrix", "--tree", p3, "--k", "2",
                             "--format", "text"])
    assert code == EXIT_OK
    assert out.splitlines()[0] == "2 3"
    for fmt in ("json", "text"):
        dest = tmp_path / f"h.{fmt}"
        argv = ["hypermatrix", "--tree", p3, "--k", "3", "--format", fmt]
        code, out = run(capsys, argv)
        assert code == EXIT_OK
        assert main(argv + ["--out", str(dest)]) == EXIT_OK
        assert dest.read_bytes() == out.encode()
        assert capsys.readouterr().out == ""


def test_hypermatrix_output_is_pinned(tmp_path, capsys):
    # 41^3 = 68,921 entries, so more than one piece of the writer; the digests
    # are those of the json.dumps and str route the writer replaced
    path = str(tmp_path / "tree.txt")
    assert main(["gen", "--n", "41", "--seed", "1", "--out", path]) == EXIT_OK
    for fmt, digest in (
            ("json", "8c6a613df7dbf83ed2d566521dcd34d3d60640115d442a8585550a1721e18a13"),
            ("text", "6d3a9181155049540281b1daa54b154b74deb3f1c0a43ed7ce69c2a9daac0e6d")):
        code, out = run(capsys, ["hypermatrix", "--tree", path, "--k", "3", "--format", fmt])
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_hypermatrix_budget_exit(tree_file, monkeypatch):
    path = tree_file(path_tree(3))
    monkeypatch.setenv("STEINER_MEM_BUDGET", "5")
    assert main(["hypermatrix", "--tree", path, "--k", "3"]) == EXIT_BUDGET


def test_hypermatrix_refuses_an_order_past_numpys_axis_limit(tree_file, capsys):
    path = tree_file(path_tree(1))
    code, out = run(capsys, ["hypermatrix", "--tree", path, "--k", str(_MAX_AXES)])
    assert code == EXIT_OK and json.loads(out)["k"] == _MAX_AXES
    assert main(["hypermatrix", "--tree", path, "--k", str(_MAX_AXES + 1)]) == EXIT_BUDGET
    assert capsys.readouterr().err.startswith("budget exceeded:")


def test_certify_odd_order(tree_file, capsys):
    path = tree_file(path_tree(3))
    code, out = run(capsys, ["certify", "--tree", path, "--k", "3"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == SCHEMA
    assert doc["kind"] == "nullvector_certificate"
    assert doc["verified"] is True
    assert doc["certificate"]["exact_zero"] is True


def test_certify_order2(tree_file, capsys):
    path = tree_file(path_tree(3))
    code, out = run(capsys, ["certify", "--tree", path, "--k", "2"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["kind"] == "determinant"
    assert doc["determinant"] == "4" and doc["predicted"] == "4"


def test_certify_order2_keeps_the_entry_budget(tree_file, monkeypatch, capsys):
    path = tree_file(random_tree(50, 1))
    monkeypatch.setenv("STEINER_MEM_BUDGET", "100")
    assert main(["hypermatrix", "--tree", path, "--k", "2"]) == EXIT_BUDGET
    capsys.readouterr()
    code, out = run(capsys, ["certify", "--tree", path, "--k", "2"])
    assert code == EXIT_BUDGET and out == ""


@pytest.mark.parametrize("mutate", ["pair", "swap"])
def test_certify_order2_refuses_a_wrong_distance_matrix(tree_file, monkeypatch, capsys,
                                                         mutate):
    t = random_tree(12, 4)
    bad = t.distances().copy()
    if mutate == "pair":
        bad[2, 9] += 1
        bad[9, 2] += 1
    else:
        bad[[3, 7]] = bad[[7, 3]]
    monkeypatch.setattr(Tree, "distances", lambda self: bad)
    code, out = run(capsys, ["certify", "--tree", tree_file(t), "--k", "2"])
    assert code == EXIT_VERIFICATION and out == ""


def test_certify_even_order_no_certificate(tree_file, capsys):
    path = tree_file(path_tree(3))
    code, out = run(capsys, ["certify", "--tree", path, "--k", "4"])
    assert code == EXIT_NO_CERTIFICATE
    assert json.loads(out)["kind"] == "no_certificate"


def test_certify_two_vertex(tree_file, capsys):
    path = tree_file(prufer_decode(2, []))
    code, out = run(capsys, ["certify", "--tree", path, "--k", "5"])
    assert code == EXIT_OK
    assert json.loads(out)["kind"] == "two_vertex_nonvanishing"
    # k = 7: the scan fails and the vanishing witness is certified instead
    code, out = run(capsys, ["certify", "--tree", path, "--k", "7"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["kind"] == "two_vertex_nullvector"
    assert doc["certificate"]["exact_zero"] is True


def test_certify_prints_the_dense_report_byte_for_byte(tree_file, capsys):
    # the zero coordinates share one JSON dict; the printed text must be the
    # one a dict per coordinate gives.  The expected text is built through
    # canonical_odd_nullvector and verify_nullvector, so fixed digests pin it
    # independently of them
    t = random_tree(2000, 1)
    digests = {21: "e9767f72e42a0a3880db96c935af71728b8c55884604c323cc1db7f801b6517d",
               3: "04aa12a987cb02e1628b054cfc5fe94ef9f89cb1afd43bb4994a55ab605de307"}
    for k, digest in digests.items():
        code, out = run(capsys, ["certify", "--tree", tree_file(t), "--k", str(k)])
        rep = verify_nullvector(t, k, canonical_odd_nullvector(t, k))
        certificate = {"point": [x.to_json() for x in rep.point], "exact_zero": True,
                       "residual": 0.0, "tree": format_tree(t), "k": k}
        report = {"schema": SCHEMA, "kind": "nullvector_certificate", "n": 2000, "k": k,
                  "certificate": certificate, "verified": True}
        assert code == EXIT_OK
        assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
        assert hashlib.sha256(out.encode()).hexdigest() == digest, k


def test_two_vertex_certificates_scan_once(monkeypatch):
    # one root-of-unity scan per case, the k = 1 (mod 6) witnesses included
    calls = []
    scan = smalldet.two_vertex_nullvector_witness

    def counted(k):
        calls.append(k)
        return scan(k)

    monkeypatch.setattr(smalldet, "two_vertex_nullvector_witness", counted)
    monkeypatch.setattr(cli, "two_vertex_nullvector_witness", counted)
    for k in range(3, 14):
        calls.clear()
        report, code = cli.certify_case(path_tree(2), k)
        assert code == EXIT_OK and report["verified"] is True
        assert report["kind"] == ("two_vertex_nullvector" if k % 6 == 1
                                  else "two_vertex_nonvanishing")
        assert calls == [k], (k, calls)


def test_certify_case_reports_the_order_as_an_int():
    # a numpy order is read as the int it names, so the report JSON-encodes
    for t, k in ((random_tree(5, 1), 3), (path_tree(2), 5)):
        report, code = cli.certify_case(t, np.int64(k))
        assert (report, code) == cli.certify_case(t, k)
        assert type(report["k"]) is int
        assert json.loads(json.dumps(report)) == report


def test_certify_single_vertex(tree_file, capsys):
    path = tree_file(prufer_decode(1, []))
    code, out = run(capsys, ["certify", "--tree", path, "--k", "3"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["kind"] == "single_vertex" and doc["verified"]
    # the tree gradient of the zero form: the report names the tree it certifies
    assert doc["certificate"]["tree"] == "1\n"
    assert doc["certificate"]["exact_zero"]
    # k = 2 on a single vertex: 1x1 zero matrix, determinant 0
    code, out = run(capsys, ["certify", "--tree", path, "--k", "2"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["determinant"] == "0" and doc["predicted"] == "0"


def test_verbose_notes_on_stderr(tree_file, capsys):
    path = tree_file(path_tree(3))
    code = main(["identities", "--tree", path, "--verbose"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "product_decomposition" in captured.err
    assert "pass" in captured.err


def test_identities_pass_and_skip(tree_file, capsys):
    path = tree_file(star_tree(5))
    code, out = run(capsys, ["identities", "--tree", path])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert all(row["status"] == "pass" for row in doc["checks"])
    single = tree_file(prufer_decode(1, []), "one.txt")
    code, out = run(capsys, ["identities", "--tree", single])
    assert code == EXIT_OK
    assert all(row["status"] == "skipped" for row in json.loads(out)["checks"])


def test_hypermatrix_command_prints_the_same_bytes(tree_file, capsys):
    # the command writes the writer's pieces as they come, a path export_json
    # does not take; these sha256 digests are those of the int64 entries.  The
    # path's entries reach 1,000, so its words are of eight bytes in both formats
    for t, k, fmt, digest in (
            (random_tree(30, 77), 4, "json",
             "92a0b87c0307cf8898a952a4d786e39323b145cc47cad91fca7296cf82edbcda"),
            (random_tree(30, 77), 4, "text",
             "3614cb5570ebd1582d23ed34b94fc7f840e3e6ece1a56bddcf668dfb8a5aece7"),
            (path_tree(1001), 2, "json",
             "35cd3f12ad454b9fb81a361b80cb08366aa2f1b80b84cc439478106f66fb1083"),
            (path_tree(1001), 2, "text",
             "01c9c67bc60bfa3c37a33ebcbfed92e945bf9085a1125032d95c853357be58fd")):
        path = tree_file(t)
        code, out = run(capsys, ["hypermatrix", "--tree", path, "--k", str(k), "--format", fmt])
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest, (t.n, fmt)


def test_identity_rows_pass_on_every_small_tree_class():
    # the int64 matrix rows against the classes the golden trees do not reach
    for n in range(2, 9):
        for t in enumerate_trees(n):
            assert {row["status"] for row in identity_rows(t)} == {"pass"}, t


def test_identity_rows_make_one_build_of_order_3(monkeypatch):
    # every row reads P or D off P's diagonal, so the one build is of order 3;
    # each t.distances() call builds a new, writeable order-2 array
    orders, steiner_array = [], Tree._steiner_array

    def recording(self, k, **kwargs):
        orders.append(k)
        return steiner_array(self, k, **kwargs)

    monkeypatch.setattr(Tree, "_steiner_array", recording)
    t = random_tree(16, 5)
    assert {row["status"] for row in identity_rows(t)} == {"pass"}
    assert orders == [3]
    d, again = t.distances(), t.distances()
    assert orders == [3, 2, 2]
    assert again is not d and d.flags.writeable and again.flags.writeable
    d[0, 1] = 0
    assert again[0, 1] > 0   # two distinct vertices


def test_identity_rows_build_p_and_the_inverse_once_and_no_ratmatrix(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    def refuse(*_):
        raise AssertionError("a command built a RatMatrix")

    for name in ("order3_tensor", "gl_inverse"):
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    monkeypatch.setattr(RatMatrix, "__init__", refuse)
    t = random_tree(9, 2)
    rows = identity_rows(t)
    assert [row["name"] for row in rows] == list(IDENTITY_ROWS)
    assert {row["status"] for row in rows} == {"pass"}
    assert sorted(calls) == ["gl_inverse", "order3_tensor"]
    for k in (2, 3, 4):
        cli.certify_case(t, k)
    assert [row["name"] for row in identity_rows(path_tree(1))] == list(IDENTITY_ROWS)
    assert len(calls) == 2


def test_search_report(tree_file, capsys):
    path = tree_file(path_tree(3))
    code, out = run(capsys, ["search", "--tree", path, "--k", "3",
                             "--seed", "3", "--restarts", "4"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["restarts"] == 4 and len(doc["candidates"]) == 4
    assert doc["best_residual"] <= 1e-10
    code, out = run(capsys, ["search", "--tree", path, "--k", "3",
                             "--restarts", "0"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["candidates"] == [] and doc["best_residual"] is None


def test_search_prints_residuals_no_lower_than_at_its_points(tree_file, capsys):
    # Each printed residual bounds max_r |D_r p(x)| / |x|^(k-1) at the
    # printed point, recomputed exactly from the JSON; a residual taken at
    # a point near the printed one fell below that value here.
    t = random_tree(6, 1)
    code, out = run(capsys, ["search", "--tree", tree_file(t), "--k", "3", "--seed", "1",
                             "--restarts", "6", "--tol", "1e-30"])
    assert code == EXIT_OK

    def modulus2(z):
        return sum(Fraction(c) ** 2 for c in z.coeffs)

    for cand in json.loads(out)["candidates"]:
        point = [CycNum.from_json(z) for z in cand["point"]]
        exact = (max(map(modulus2, gradient_direct(t, 3, point)))
                 / sum(map(modulus2, point)) ** 2)
        assert Fraction(cand["residual"]) ** 2 >= exact


def test_search_keeps_the_entry_budget(tree_file, monkeypatch, capsys):
    # the side matrix S and its complex stack hold about 3n^2 entries; the
    # search refuses n^2 above the budget before building either
    path = tree_file(random_tree(50, 1))
    monkeypatch.setenv("STEINER_MEM_BUDGET", "2499")
    monkeypatch.setattr(Tree, "sides", lambda self: pytest.fail("S built over budget"))
    assert main(["search", "--tree", path, "--k", "4", "--restarts", "1"]) == EXIT_BUDGET
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("budget exceeded:")
    monkeypatch.undo()
    monkeypatch.setenv("STEINER_MEM_BUDGET", "2500")
    code, out = run(capsys, ["search", "--tree", path, "--k", "4", "--restarts", "1"])
    assert code == EXIT_OK and len(json.loads(out)["candidates"]) == 1


def test_search_verbose_lists_each_restart(tree_file, capsys):
    path = tree_file(path_tree(4))
    argv = ["search", "--tree", path, "--k", "3", "--seed", "2", "--restarts", "5"]
    assert main(argv) == EXIT_OK
    quiet = capsys.readouterr()
    assert main(argv + ["--verbose"]) == EXIT_OK
    loud = capsys.readouterr()
    assert loud.out == quiet.out and quiet.err == ""
    lines = [ln for ln in loud.err.splitlines() if ln.startswith("candidate:")]
    stops = {"tol", "precision_floor", "stalled", "singular", "max_iter"}
    assert len(lines) == 5
    assert all(ln.rsplit(" ", 1)[1] in stops and "iterations" in ln for ln in lines)


def test_campaign(tmp_path, capsys):
    out_dir = tmp_path / "camp"
    code, out = run(capsys, [
        "campaign", "--n-min", "3", "--n-max", "4", "--k", "3,2",
        "--trees-per-n", "2", "--seed", "11", "--out-dir", str(out_dir)])
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary["cases"] == 8
    assert summary["verified"] == 8 and summary["failed"] == 0
    files = sorted(os.listdir(out_dir))
    assert "summary.json" in files and len(files) == 9
    case = json.loads((out_dir / files[0]).read_text())
    assert case["report"]["schema"] == SCHEMA


def test_campaign_counts_even_orders_as_no_certificate(tmp_path, capsys):
    code, out = run(capsys, [
        "campaign", "--n-min", "3", "--n-max", "4", "--k", "4",
        "--trees-per-n", "2", "--seed", "3", "--out-dir", str(tmp_path / "c")])
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary["cases"] == summary["no_certificate"] == 4
    assert summary["verified"] == summary["failed"] == 0


def test_campaign_counts_a_failed_case_and_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "certify_case", lambda t, k: ({"verified": False},
                                                           EXIT_VERIFICATION))
    code, out = run(capsys, [
        "campaign", "--n-min", "3", "--n-max", "3", "--k", "3",
        "--trees-per-n", "2", "--seed", "3", "--out-dir", str(tmp_path / "c")])
    assert code == EXIT_VERIFICATION
    summary = json.loads(out)
    assert summary["cases"] == summary["failed"] == 2
    assert summary["verified"] == summary["no_certificate"] == 0


def test_campaign_deterministic(tmp_path):
    args = ["campaign", "--n-min", "3", "--n-max", "3", "--k", "3",
            "--trees-per-n", "3", "--seed", "5"]
    d1, d2 = tmp_path / "c1", tmp_path / "c2"
    assert main(args + ["--out-dir", str(d1), "--out", str(tmp_path / "s1")]) == EXIT_OK
    assert main(args + ["--out-dir", str(d2), "--out", str(tmp_path / "s2")]) == EXIT_OK
    for name in os.listdir(d1):
        assert (d1 / name).read_text() == (d2 / name).read_text()


def test_campaign_jobs_2_matches_jobs_1(tmp_path, capsys):
    # the worker pool must not change a byte: same stdout summary, same case files
    args = ["campaign", "--n-min", "3", "--n-max", "6", "--k", "3,2",
            "--trees-per-n", "1", "--seed", "4"]
    outs, dirs = [], []
    for jobs in ("1", "2"):
        dirs.append(tmp_path / f"jobs{jobs}")
        code, out = run(capsys, args + ["--out-dir", str(dirs[-1]), "--jobs", jobs])
        assert code == EXIT_OK
        outs.append(out)
    assert outs[0] == outs[1] and json.loads(outs[0])["cases"] == 8
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1])) and len(names) == 9
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_campaign_pool_never_outnumbers_the_cases_or_the_cpus(tmp_path, capsys, monkeypatch):
    # a fork pool starts all max_workers at the first submit, so --jobs 100000
    # must not reach it; a stand-in records max_workers and maps in process
    made = []

    class SerialPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # cli imports the pool inside cmd_campaign, so patch where it is looked up
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    args = ["campaign", "--n-min", "3", "--n-max", "3", "--k", "3", "--seed", "1",
            "--jobs", "100000"]
    # the usable CPUs: the affinity mask where the platform has one (Linux),
    # else os.cpu_count() (macOS, Windows)
    for cpus in ("affinity", "cpu_count"):
        if cpus == "affinity":
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                                raising=False)
        else:
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        made.clear()
        for trees, workers in (("1", []), ("3", [3]), ("10", [3, 4])):
            code, out = run(capsys, args + ["--trees-per-n", trees,
                                            "--out-dir", str(tmp_path / cpus / trees)])
            assert code == EXIT_OK and json.loads(out)["cases"] == int(trees)
            assert made == workers, (cpus, trees)


def test_commands_run_without_loading_mpmath(tmp_path):
    # mpmath is a test dependency only: no command, and neither a failed
    # verification nor a completion without a point, may import it; nor may
    # any command but campaign --jobs > 1 load the process pool's modules
    script = """
import sys
from steinerdh import complete_nullvector, path_tree, star_tree, verify_nullvector
from steinerdh.cli import main
d = sys.argv[1]
tree = d + "/tree.txt"
assert main(["gen", "--n", "6", "--seed", "1", "--out", tree]) == 0
for argv in (["certify", "--tree", tree, "--k", "3"],
             ["search", "--tree", tree, "--k", "4", "--restarts", "2"],
             ["identities", "--tree", tree],
             ["hypermatrix", "--tree", tree, "--k", "3"],
             ["campaign", "--n-min", "3", "--n-max", "3", "--k", "3",
              "--trees-per-n", "1", "--out-dir", d + "/campaign"]):
    assert main(argv + ["--out", d + "/out"]) == 0, argv
assert verify_nullvector(path_tree(3), 3, [1, 1, 1]).embedded_residual == 39.0
assert complete_nullvector(star_tree(4), [1, -1])[0].verified
print(sorted(name for name in sys.modules if name.split(".")[0] == "mpmath"))
print(sorted(name for name in sys.modules
             if name.split(".")[0] in ("multiprocessing", "concurrent")))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "[]\n[]\n"


def test_campaign_usage_errors(tmp_path):
    assert main(["campaign", "--n-min", "3", "--n-max", "4", "--k", ",",
                 "--trees-per-n", "2", "--out-dir", str(tmp_path / "x")]) == EXIT_INPUT
    assert main(["campaign", "--n-min", "4", "--n-max", "3", "--k", "3",
                 "--out-dir", str(tmp_path / "y")]) == EXIT_INPUT


def test_order_and_jobs_usage_errors(tree_file, tmp_path, capsys):
    path = tree_file(path_tree(3))
    for argv in (["certify", "--tree", path, "--k", "1"],
                 ["hypermatrix", "--tree", path, "--k", "1"],
                 ["search", "--tree", path, "--k", "1"],
                 ["search", "--tree", path, "--k", "0", "--restarts", "0"],
                 ["campaign", "--n-min", "3", "--n-max", "3", "--k", "3",
                  "--out-dir", str(tmp_path / "c"), "--jobs", "-2"],
                 ["campaign", "--n-min", "3", "--n-max", "3", "--k", "3",
                  "--out-dir", str(tmp_path / "c"), "--jobs", "0"],
                 ["campaign", "--n-min", "3", "--n-max", "3", "--k", "3",
                  "--out-dir", str(tmp_path / "c"), "--trees-per-n", "0"]):
        assert main(argv) == EXIT_INPUT, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage error:"), argv
    assert not (tmp_path / "c").exists()


def _assert_usage_error(capsys, argv):
    assert main(argv) == EXIT_INPUT, argv
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage error:"), argv


def test_search_tol_usage_errors(tree_file, capsys):
    # a tolerance that is not finite, is negative or is not a plain ASCII
    # decimal is refused before any work; float() would read the Python
    # literal 1_0 as 10, an Arabic-Indic three as 3 and 1e999 as infinity
    path = tree_file(path_tree(3))
    search = ["search", "--tree", path, "--k", "3", "--restarts", "1", "--tol"]
    for tol in ("nan", "inf", "-inf", "-1", "-1e-300",
                "1_0", "\u0663", "+1e-3", " 1e-3", "1e999"):
        _assert_usage_error(capsys, search + [tol])
    for tol, value in (("0", 0.0), ("1e-30", 1e-30), ("2.5E-12", 2.5e-12)):
        code, out = run(capsys, search + [tol])
        assert code == EXIT_OK and json.loads(out)["tol"] == value


def test_campaign_order_list_usage_errors(tmp_path, capsys):
    campaign = ["campaign", "--n-min", "3", "--n-max", "3",
                "--out-dir", str(tmp_path / "c"), "--k"]
    # only ASCII digits: int() would fail on a superscript two (an uncaught
    # ValueError) and read an Arabic-Indic three as 3, running order 3 twice
    for orders in ("3,x", "3.5", "x", "3,1", "\u00b2", "3,\u0663"):
        _assert_usage_error(capsys, campaign + [orders])
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("argv", [
    ["certify", "--k", "1_1"],       # int() reads 11
    ["certify", "--k", "\u0663"],    # an Arabic-Indic three
    ["certify", "--k", "+3"],
    ["search", "--k", "3", "--seed", "1_0"],
    ["search", "--k", "3", "--restarts", "-1"],
    ["hypermatrix", "--k", " 3"],
])
def test_integer_options_take_only_ascii_digits(tree_file, capsys, argv):
    _assert_usage_error(capsys, argv[:1] + ["--tree", tree_file(path_tree(3))] + argv[1:])


def test_gen_n_takes_only_ascii_digits(capsys):
    _assert_usage_error(capsys, ["gen", "--n", "\u0665"])   # an Arabic-Indic five


def test_negative_seed_still_reads(capsys):
    code, out = run(capsys, ["gen", "--n", "5", "--seed", "-1"])
    assert code == EXIT_OK and out.startswith("5\n")


@pytest.mark.parametrize("budget", ["1_0", "\u0663\u0660", "+100", "100 "])
def test_hypermatrix_rejects_a_budget_not_in_ascii_digits(tree_file, monkeypatch, capsys,
                                                          budget):
    # int() reads 1_0 as 10 and the Arabic-Indic digits as 30
    monkeypatch.setenv("STEINER_MEM_BUDGET", budget)
    assert main(["hypermatrix", "--tree", tree_file(path_tree(3)), "--k", "3"]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error:")


def test_input_errors(tmp_path, capsys):
    assert main(["certify", "--tree", str(tmp_path / "missing.txt"),
                 "--k", "3"]) == EXIT_INPUT
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n1 2\n1 2\n")
    assert main(["certify", "--tree", str(bad), "--k", "3"]) == EXIT_INPUT
    garbled = tmp_path / "garbled.txt"
    garbled.write_text("not a tree at all")
    assert main(["identities", "--tree", str(garbled)]) == EXIT_INPUT
