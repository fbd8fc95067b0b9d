"""Reference rows for single large instances, best of three wall times.

    python3 cvcbench/reference.py

Prints a Markdown table of the rows the README cites next to the
workload figures: the cut DP of ``cvckit bench`` at cutwidth 16, 17 and
18, the feedback-edge solver at fes 14, and subset enumeration at n = 15.
Each row runs through ``cvckit.cli.main`` in this process; its answer is
checked against the 0/1 program in ``check.py``.
"""

from __future__ import annotations

import contextlib
import io
import re
import shutil
import sys
from pathlib import Path
from time import perf_counter

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from cvckit import cli, generators  # noqa: E402
from cvckit.core import format_instance  # noqa: E402

REPEATS = 3


def _cli(argv: list[str]) -> tuple[int, str, float]:
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue(), perf_counter() - start


def main() -> int:
    work = ROOT / ".cvcbench-work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    rows = []
    try:
        best: dict[int, float] = {}
        for _ in range(REPEATS):
            code, text, _ = _cli(["bench", "--ctw-min", "16", "--ctw-max", "18"])
            if code != 0:
                raise RuntimeError(f"bench exited {code}")
            for line in text.splitlines()[1:]:
                fields = line.split()
                ctw, seconds = int(fields[2]), float(fields[6])
                best[ctw] = min(best.get(ctw, seconds), seconds)
        for ctw, seconds in sorted(best.items()):
            rows.append((f"`cvckit bench` cut DP, ctw {ctw} (n = {2 * ctw}, extra 6, seed 0)", seconds, "work bound held (`bench` exit 0)"))

        for label, algo, g in (
            ("`solve --algo fes`, sparse_with_fes(60, 14, 1)", "fes", generators.sparse_with_fes(60, 14, 1)),
            ("`solve --algo oracle`, gnp(15, 0.3, 3)", "oracle", generators.gnp(15, 0.3, 3)),
        ):
            path = work / f"{algo}.cvc"
            path.write_text(format_instance(g), encoding="utf-8")
            times = []
            for _ in range(REPEATS):
                code, text, seconds = _cli(["solve", "--input", str(path), "--algo", algo])
                times.append(seconds)
            n, edges, caps, _ = check.read_instance(path.read_text())
            optimum = check.min_orientation_milp(n, edges, caps)
            got = re.search(r"MINSIZE (\d+)", text)
            if code != 0 or got is None or int(got.group(1)) != optimum:
                raise RuntimeError(f"{label}: printed {text!r}, optimum is {optimum}")
            rows.append((label, min(times), f"MINSIZE {optimum}, equal to the 0/1 program"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no benchmark run is using it

    print("| Row | Best of 3 (s) | Check |")
    print("| --- | --- | --- |")
    for label, seconds, note in rows:
        print(f"| {label} | {seconds:.2f} | {note} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
