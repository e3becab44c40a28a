"""Byte parity of the command line: the stdout and exit code of a fixed panel.

``tests/data/cli_panel.json`` holds one row per command: its arguments, its
exit code and the sha256 of its stdout.  The panel is ``gen --seed 1`` at
n = 1, 2, 6, 16, 41 and 300; on each of those trees ``certify`` at
k = 2..13, ``identities``, ``hypermatrix`` in JSON and in text at k = 2..4,
and ``search`` at k = 3 and 4 with 4 restarts and seed 2; then one
``campaign``, whose row also holds one sha256 over its files' sorted names
and bytes.  Exit codes 0, 2 (the budget, ``hypermatrix --k 4`` at n = 300)
and 3 (even orders at n >= 3) are all pinned.

The test runs every row in process through ``cli.main``, in ``tmp_path``:
a ``gen`` row's stdout becomes the tree file the later rows name, and the
campaign writes its files there.  It reports the first row that differs.
To rewrite the file after a change meant to alter the output, run
``PYTHONPATH=src python tests/test_cli_panel.py``; it lists every row that
changes before it overwrites the file.  As in ``test_search_golden.py``, the
``search`` rows repeat on one numpy/BLAS build only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from steinerdh.cli import main

PANEL = Path(__file__).parent / "data" / "cli_panel.json"
SIZES = (1, 2, 6, 16, 41, 300)
CAMPAIGN = ["campaign", "--n-min", "2", "--n-max", "7", "--k", "2,3,4,5,6,7",
            "--trees-per-n", "2", "--seed", "5", "--out-dir", "campaign"]


class _Digest(io.TextIOBase):
    """A text stream that keeps only the sha256 of what is written to it,
    and, with ``keep``, the text too."""

    def __init__(self, keep: bool):
        self.sha, self.text = hashlib.sha256(), [] if keep else None

    def write(self, s: str) -> int:
        self.sha.update(s.encode("utf-8"))
        if self.text is not None:
            self.text.append(s)
        return len(s)


def commands() -> list[list[str]]:
    """The panel's argument lists, in order; ``n{n}.tree`` is ``gen``'s tree."""
    out = []
    for n in SIZES:
        tree = f"n{n}.tree"
        out.append(["gen", "--n", str(n), "--seed", "1"])
        out += [["certify", "--tree", tree, "--k", str(k)] for k in range(2, 14)]
        out.append(["identities", "--tree", tree])
        out += [["hypermatrix", "--tree", tree, "--k", str(k), "--format", fmt]
                for k in (2, 3, 4) for fmt in ("json", "text")]
        out += [["search", "--tree", tree, "--k", str(k), "--restarts", "4", "--seed", "2"]
                for k in (3, 4)]
    return out + [CAMPAIGN]


def _files_sha256(directory: str) -> str:
    sha = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        data = Path(directory, name).read_bytes()
        sha.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        sha.update(data)
    return sha.hexdigest()


def run(args: list[str]) -> dict:
    """One row: the exit code and stdout sha256 of ``args`` in the working
    directory, writing a ``gen`` tree to its file."""
    out = _Digest(keep=args[0] == "gen")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    row = {"args": args, "exit": code, "stdout_sha256": out.sha.hexdigest()}
    if args[0] == "gen":
        Path(f"n{args[2]}.tree").write_text("".join(out.text), encoding="utf-8")
    if args[0] == "campaign":
        row["files_sha256"] = _files_sha256(args[args.index("--out-dir") + 1])
    return row


def compute() -> list[dict]:
    """Every row, run in a fresh temporary directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            return [run(args) for args in commands()]
        finally:
            os.chdir(cwd)


def test_cli_panel_matches_its_stdout_and_exit_codes(tmp_path, monkeypatch):
    with open(PANEL, encoding="utf-8") as fh:
        rows = json.load(fh)
    assert [row["args"] for row in rows] == commands()
    monkeypatch.chdir(tmp_path)
    for row in rows:
        assert run(row["args"]) == row, " ".join(row["args"])


if __name__ == "__main__":
    fresh = compute()
    if PANEL.exists():
        with open(PANEL, encoding="utf-8") as fh:
            old = json.load(fh)
        moved = [new for new in fresh if new not in old]
        print(f"{len(moved)} of {len(fresh)} rows change", file=sys.stderr)
        for row in moved:
            print("  " + " ".join(row["args"]), file=sys.stderr)
    with open(PANEL, "w", encoding="utf-8") as fh:
        json.dump(fresh, fh, indent=1)
        fh.write("\n")
    print(f"wrote {PANEL}", file=sys.stderr)
