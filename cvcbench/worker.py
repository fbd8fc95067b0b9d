"""Runs one workload's operations through ``cvckit.cli.main`` in this process.

Started by ``run.py`` in a process of its own, so that its peak resident
memory is that of cvckit alone.  It reads ``<dir>/inputs/manifest.json``,
runs whole rounds of the workload's operations until the next round would
not fit in ``--seconds``, but at least ``workloads.MIN_ROUNDS`` (in a
traced run every round runs each operation untraced and traced), and
writes what it saw to ``<dir>/result.json`` and, when tracing, the spans
to ``<dir>/spans.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import re
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from cvckit import cli  # noqa: E402

BUDGET = re.compile(r"\bk=(\d+)")


def run_operation(instance: dict, in_dir: str, out_dir: str, tracer) -> tuple[float, list]:
    """Run one instance's command lines; return (seconds, [[exit, stdout, error], ...])."""
    calls = []
    k = None
    solved = None
    start = perf_counter()
    for call in instance["calls"]:
        if call.get("if_yes") and solved != 0:
            calls.append(None)
            continue
        argv = [a.format_map({"in": in_dir, "out": out_dir, "k": k}) for a in call["argv"]]
        out, err = io.StringIO(), io.StringIO()
        error = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = tracer.call("cli.main", cli.main, (argv,), {}) if tracer else cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an operation that raises is counted as failed
            code, error = None, f"{type(exc).__name__}: {exc}"
        text = out.getvalue()
        calls.append([code, text, error or err.getvalue()])
        if call["role"] == "solve":
            solved = code
        elif call["role"] == "reduce":
            match = BUDGET.search(text)
            k = match.group(1) if match else None
    return perf_counter() - start, calls


def run_round(instances, in_dir: str, work: Path, first: int, tracer) -> list[dict]:
    """Every instance once; with a tracer, once untraced and once traced,
    the two in alternating order, so that warm-up and drift fall on both
    sides alike.  Returns one round record per side."""
    sides = [None, tracer] if tracer else [None]
    records = []
    for k, side in enumerate(sides):
        out_dir = work / "out" / f"r{first + k}"
        out_dir.mkdir(parents=True, exist_ok=True)
        records.append({"traced": side is not None, "out": out_dir, "ops": []})
    gc.collect()
    for i, instance in enumerate(instances):
        for k in (range(len(sides)) if i % 2 == 0 else reversed(range(len(sides)))):
            side = sides[k]
            if side:
                side.operation = instance["id"]
                side.install()
            try:
                seconds, calls = run_operation(instance, in_dir, str(records[k]["out"]), side)
            finally:
                if side:
                    side.uninstall()
            records[k]["ops"].append({"id": instance["id"], "seconds": seconds, "calls": calls})
    for record in records:
        record["out"] = record["out"].name
        record["wall_s"] = sum(op["seconds"] for op in record["ops"])
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    work = Path(args.dir)
    manifest = json.loads((work / "inputs" / "manifest.json").read_text(encoding="utf-8"))
    instances = manifest["instances"]
    in_dir = str(work / "inputs")

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.operation = "setup"
        workloads.build(manifest["workload"], manifest["seed"], work / "traced-inputs")
        tracer.uninstall()

    rounds = []
    start = perf_counter()
    while True:
        step = run_round(instances, in_dir, work, len(rounds), tracer)
        rounds += step
        done = sum(not r["traced"] for r in rounds) >= workloads.MIN_ROUNDS
        if done and perf_counter() - start + sum(r["wall_s"] for r in step) > args.seconds:
            break

    result = {"rounds": rounds, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    if tracer:
        (work / "spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
