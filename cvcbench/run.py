"""Benchmark one cvckit workload and print its metrics as JSON.

    python3 cvcbench/run.py --workload exact-gnp --seed 1 --seconds 20 --trace 0

Steps, all inside the checkout:

1. Set-up, eight times, each in a fresh interpreter: import cvckit,
   generate the workload's seeded input files and write them
   (``workloads.py --timed``); four times before step 2 and four times
   after it.  ``setup_s`` is the median.
2. The operations, in one more interpreter (``worker.py``), in whole
   rounds for ``--seconds``.  ``wall_s`` and ``verdict_s_p50`` use each
   operation's mean time over the rounds.  With ``--trace 1`` each round
   runs every operation untraced and traced.
3. Every answer is checked apart from cvckit (``check.py``): optima
   against a 0/1 program, decisions against brute force on the source
   problem, certificates for coverage, capacities and size.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
An operation fails when a ``cli.main`` call raises, exits with another
code than its expected answer implies, or the checker disagrees; a wrong
verdict or a disagreement also makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import check
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 8
WORKER_TIMEOUT_S = 150


def _python(script: str, *args: str, timeout: float) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


# ---------------------------------------------------------------------------
# expected answers


def expected_answer(instance: dict, in_dir: Path):
    """The optimum (None when infeasible) of a "min" instance, or the yes/no
    answer of a "decide" one, computed apart from cvckit."""
    if instance["kind"] == "min":
        n, edges, caps, _ = check.read_instance((in_dir / instance["instance"]).read_text())
        return check.min_orientation_milp(n, edges, caps)
    text = (in_dir / instance["source"]).read_text()
    rtype = instance["type"]
    if rtype in ("sat-natural", "sat-cw"):
        return check.one_in_three(*check.read_cnf(text))
    if rtype == "smc":
        return check.set_multicover(*check.read_smc(text))
    _, classes, edges = check.read_mcc(text)
    return check.multicolored_clique(classes, edges)


@contextlib.contextmanager
def _stdout_to_stderr():
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)


def _first_int(pattern: str, text: str):
    match = re.search(pattern, text)
    return int(match.group(1)) if match else None


def check_operation(instance: dict, expected, calls: list, in_dir: Path, out_dir: Path) -> tuple[str, str]:
    """('ok' | 'failed' | 'wrong', reason) for one operation of one round.

    'failed': a call raised or refused (exit code 2).  'wrong': a call gave
    another verdict than the expected answer implies, or an answer or
    certificate disagrees with the checker.
    """
    roles = [c["role"] for c in instance["calls"]]
    by_role = dict(zip(roles, calls))
    solve = by_role["solve"]
    if instance["kind"] == "min":
        yes = expected is not None
        line = f"MINSIZE {expected}" if yes else "INFEASIBLE"
    else:
        yes = bool(expected)
        line = f"FEASIBLE {'yes' if yes else 'no'}"
    for role, call in zip(roles, calls):
        if call is None:
            if role == "verify" and yes:
                return "failed", "verify was skipped although the answer is yes"
            continue
        code, _, error = call
        want = (0 if yes else 1) if role == "solve" else 0
        if code != want:
            verdict = "wrong" if code in (0, 1) else "failed"
            return verdict, f"{role} exited {code}, expected {want}: {error.strip()[-300:]}"
    if solve[1].strip() != line:
        return "wrong", f"solve printed {solve[1].strip()!r}, expected {line!r}"
    if not yes:
        return "ok", ""

    if instance["kind"] == "min":
        graph_text = (in_dir / instance["instance"]).read_text()
        cert = out_dir / f"{instance['id']}.cert"
    else:
        graph_text = (out_dir / f"{instance['id']}.cvc").read_text()
        cert = out_dir / f"{instance['id']}.cert"
    n, edges, caps, budget = check.read_instance(graph_text)
    size, reason = check.orientation_size(n, edges, caps, check.read_arcs(cert.read_text()))
    if size is None:
        return "wrong", f"certificate rejected: {reason}"
    if instance["kind"] == "min" and size != expected:
        return "wrong", f"certificate has {size} heads, optimum is {expected}"
    if instance["kind"] == "decide":
        k = _first_int(r"\bk=(\d+)", by_role["reduce"][1])
        if k is None or size > k:
            return "wrong", f"certificate has {size} heads, budget is {k}"
    if _first_int(r"VALID size=(\d+)", by_role["verify"][1]) != size:
        return "wrong", f"verify printed {by_role['verify'][1].strip()!r}, certificate has {size} heads"
    return "ok", ""


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cvckit" / "cli.py").is_file():
        print(f"error: no cvckit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".cvcbench-work" / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(args, work)
    except (RuntimeError, subprocess.TimeoutExpired, check.CheckError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it


def _run(args, work: Path) -> int:
    in_dir = work / "inputs"

    def setup(out: Path) -> float:
        text = _python("workloads.py", "--workload", args.workload, "--seed", str(args.seed),
                       "--out", str(out), "--timed", timeout=60)
        return json.loads(text.strip().splitlines()[-1])["setup_s"]

    # half the set-ups before the worker and half after it, so that their
    # median does not rest on the machine's speed at one moment
    setups = [setup(in_dir) for _ in range(SETUPS // 2)]
    _python("worker.py", "--dir", str(work), "--seconds", str(args.seconds),
            "--trace", str(args.trace), timeout=WORKER_TIMEOUT_S)
    setups += [setup(work / "setup-after") for _ in range(SETUPS - SETUPS // 2)]
    result = json.loads((work / "result.json").read_text())
    manifest = json.loads((in_dir / "manifest.json").read_text())
    instances = {inst["id"]: inst for inst in manifest["instances"]}

    with _stdout_to_stderr():  # the MILP solver's native code may print
        expected = {name: expected_answer(inst, in_dir) for name, inst in instances.items()}
    attempted = failed = 0
    correct = True
    for rnd in result["rounds"]:
        out_dir = work / "out" / rnd["out"]
        for op in rnd["ops"]:
            verdict, reason = check_operation(instances[op["id"]], expected[op["id"]],
                                              op["calls"], in_dir, out_dir)
            attempted += 1
            if verdict != "ok":
                failed += 1
                print(f"{verdict}: {op['id']} in round {rnd['out']}: {reason}", file=sys.stderr)
            correct = correct and verdict != "wrong"

    untraced = [r for r in result["rounds"] if not r["traced"]]
    if args.trace:
        traced = [r for r in result["rounds"] if r["traced"]]
        spans = json.loads((work / "spans.json").read_text())
        values = tracing.aggregate(spans, len(traced), [r["wall_s"] for r in untraced],
                                   [r["wall_s"] for r in traced])
    else:
        # each operation's mean time over every round of the run
        seconds: dict[str, list[float]] = {}
        for rnd in untraced:
            for op in rnd["ops"]:
                seconds.setdefault(op["id"], []).append(op["seconds"])
        mean = [statistics.fmean(times) for times in seconds.values()]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(mean),
            "verdict_s_p50": statistics.median(mean),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    rounds = len(result["rounds"])
    print(f"{args.workload} seed={args.seed} rounds={rounds} attempted={attempted} failed={failed}")
    for name, unit in units.items():
        print(f"  {name:32s} {values[name]:14.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
