"""Run every workload, or the same ones over several seeds, and report spread.

    python3 cvcbench/suite.py                     # all workloads, measuring seed
    python3 cvcbench/suite.py --seeds 10          # steadiness: seeds 1..10
    python3 cvcbench/suite.py --trace 1           # per-layer metrics, measuring seed

Each run is one ``run.py`` process with the run length from
``BENCHMARK.json``.  Every run prints its end-to-end metrics by name and
unit, with operations attempted and failed.  With two or more seeds the
suite also prints, per workload and metric, the median, the distance
between the first and third quartile as a share of the median (the
spread), and the metric's bound: a spread above its bound means two sets
of runs of one commit cannot be told apart at that bound, and the command
then exits with 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import MEASURE_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=1, help="runs per workload, one seed each")
    parser.add_argument("--first-seed", type=int, default=MEASURE_SEED)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: dict[str, list[dict]] = {}
    ok = True
    for workload in WORKLOADS:
        runs = results.setdefault(workload, [])
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append(res)
            ok = ok and res["correct"] and res["failed"] == 0
            values = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items())
            print(f"{workload:17s} seed={seed:<4d} attempted={res['attempted']:<4d} "
                  f"failed={res['failed']:<3d} correct={res['correct']}  {values}", flush=True)

    if args.seeds >= 2 and not args.trace:
        print(f"\n{'workload':17s} {'metric':14s} {'median':>12s} {'spread':>8s} {'bound':>6s}  verdict")
        for workload, runs in results.items():
            shares = sorted({r["failed"] / r["attempted"] for r in runs})
            print(f"{workload:17s} failed share {shares}")
            for name, bound in bounds.items():
                values = [r["metrics"][name]["value"] for r in runs]
                s = spread(values)
                if s <= bound / 3:
                    verdict = "steady (below a third of the bound)"
                elif s <= bound:
                    verdict = "within bound"
                else:
                    verdict = "TOO WIDE"
                    ok = False
                print(f"{workload:17s} {name:14s} {statistics.median(values):12.6g} {s:8.3f} {bound:6.2f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
