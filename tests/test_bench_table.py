"""The `qshallow bench` table, pinned: every suite over a fixed grid.

`bench_table.txt` holds the output of each command of `GRID` in order, each
after a line `$ qshallow bench <args>`.  A change that moves a row rewrites
the file with `PYTHONPATH=src python tests/test_bench_table.py` and lists
each changed row in CHANGES.md.  The CSV ends its lines as `csv` writes
them, so the file is compared as bytes.
"""
from __future__ import annotations

import contextlib
import io
import pathlib

from qshallow.bench import ENTANGLEMENTS
from qshallow.cli import main

TABLE = pathlib.Path(__file__).with_name("bench_table.txt")

GRID = [
    ["--suite", "ghz", "--n-range", "4:1025:68"],
    ["--suite", "chains", "--n-range", "4:1025:68"],
    *(
        ["--suite", "vqe", "--family", "two_local", "--entanglement", entanglement,
         "--n-range", "16:65:48", "--reps", "1,4", "--min-chain-gates", "2", "--chains", mode]
        for mode in ("conservative", "always")
        for entanglement in ENTANGLEMENTS
    ),
]


def render() -> str:
    out = io.StringIO()
    for args in GRID:
        out.write(f"$ qshallow bench {' '.join(args)}\n")
        with contextlib.redirect_stdout(out):
            rc = main(["bench", *args])
        if rc != 0:
            raise RuntimeError(f"qshallow bench {' '.join(args)} exited {rc}")
    return out.getvalue()


def test_bench_table_is_pinned():
    want = TABLE.read_bytes().decode("utf-8")
    assert render().splitlines(keepends=True) == want.splitlines(keepends=True)


if __name__ == "__main__":
    TABLE.write_bytes(render().encode("utf-8"))
