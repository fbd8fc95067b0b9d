"""Command-line frontend: solve, reduce, verify, gen, bench.

Exit codes on every path: 0 success/yes, 1 no or verification failure,
2 parse/config/structural error or refusal.  The handlers raise for the
last kind, and ``main`` alone prints the message and returns 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

from .core import (
    CapacitatedGraph,
    CapExceededError,
    StructuralError,
    format_instance,
    format_orientation,
    parse_instance,
    parse_orientation,
    verify_orientation,
)
from .cutwidth import (
    LinearArrangement,
    check_degree_floor,
    cutwidth_of,
    find_arrangement,
    format_arrangement,
    parse_arrangement,
    solve_cutdp,
    solve_cutdp_detailed,
)
from .detecting import build_family, format_family, is_detecting, parse_family
from .fes import DEFAULT_FES_CAP as AUTO_FES_CAP  # read by cvcbench/workloads.py
from .fes import solve_fes
from .generators import gnp, layered_with_ctw, sparse_with_fes
from .oracle import (
    format_choice_groups,
    parse_choice_groups,
    solve_canonical,
    solve_exact,
    solve_pruned,
)
from .reductions.cliquewidth import format_expression, parse_expression, verify_cw_expression
from .reductions.mcc import format_witness, parse_mcc, parse_witness, reduce_mcc_td, verify_td_witness
from .reductions.sat import check_natural_floor, group_formula, parse_dimacs, reduce_sat_cw, reduce_sat_natural
from .reductions.smc import parse_smc, reduce_smc
from .vertex_integrity import parse_modulator, solve_vi, solve_vi_opt

def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _emit_json(path: str | None, payload: dict) -> None:
    if path:
        _write(path, json.dumps(payload, sort_keys=True) + "\n")


def _load_arrangement(g: CapacitatedGraph, args) -> LinearArrangement:
    if args.arrangement:
        return parse_arrangement(_read(args.arrangement))
    check_degree_floor(g)  # refuses before any search when no arrangement can fit the cap
    mode = args.find_arrangement or "heuristic"
    return find_arrangement(g, mode)


def _certificate_holds(g: CapacitatedGraph, cert, minsize, k) -> bool:
    """True iff ``cert`` is a feasible orientation of ``g`` whose size is the
    reported optimum, or at most ``k`` for a decision."""
    try:
        report = verify_orientation(g, cert)
    except StructuralError:
        return False
    if not report.feasible:
        return False
    return report.size == minsize if minsize is not None else report.size <= k


# Minimum-size solvers; `auto` tries them in this order and answers with the
# first that does not refuse by its own cap (`CapExceededError`).
MINIMIZERS = {
    "fes": lambda g, args: solve_fes(g),
    "cutdp": lambda g, args: solve_cutdp(g, _load_arrangement(g, args)),
    "oracle": lambda g, args: solve_exact(g),
}


def _solve(args) -> int:
    g = parse_instance(_read(args.input))
    k = args.k if args.k is not None else g.budget
    algo = args.algo

    decision = None
    minsize = None
    cert = None
    stats = None
    if algo == "auto":
        for algo, minimize in MINIMIZERS.items():
            try:
                minsize, cert = minimize(g, args)
                break
            except CapExceededError:
                continue
        else:
            raise CapExceededError("instance exceeds every automatic solver cap")
    elif algo in MINIMIZERS:
        minsize, cert = MINIMIZERS[algo](g, args)
    elif algo == "vi":
        modulator = parse_modulator(_read(args.modulator)) if args.modulator else None
        stats = {}
        if k is None:
            minsize, cert = solve_vi_opt(g, modulator=modulator, stats=stats)
        else:
            decision, cert = solve_vi(g, k, modulator=modulator, stats=stats)
    elif algo == "pruned":
        if k is None:
            raise ValueError("--algo pruned needs --k")
        decision, cert = solve_pruned(g, k)
    else:  # "canonical": argparse admits no other --algo
        if k is None or not args.meta:
            raise ValueError("--algo canonical needs --k and --meta")
        meta = parse_choice_groups(_read(args.meta))
        decision, cert = solve_canonical(g, meta, k)

    if decision is None and k is not None:
        decision = minsize is not None and minsize <= k

    if args.cert_out and cert is not None:
        if not _certificate_holds(g, cert, minsize, k):
            raise StructuralError("certificate failed verification")
        _write(args.cert_out, format_orientation(cert))

    payload = {"command": "solve", "algo": algo, "input": args.input, "k": k}
    if stats is not None:
        payload["stats"] = stats
    if k is not None:
        answer = "yes" if decision else "no"
        print(f"FEASIBLE {answer}")
        payload["feasible"] = answer
        _emit_json(args.json, payload)
        return 0 if decision else 1
    if minsize == math.inf:
        print("INFEASIBLE")
        payload["minsize"] = None
        _emit_json(args.json, payload)
        return 1
    print(f"MINSIZE {minsize}")
    payload["minsize"] = minsize
    _emit_json(args.json, payload)
    return 0


def _reduce(args) -> int:
    text = _read(args.input)
    # each construction gives its reduction, its side files (suffix -> text)
    # and the counts its REDUCED line adds
    if args.type == "smc":
        red = reduce_smc(parse_smc(text))
        side, counts = {}, ""
    elif args.type == "sat-natural":
        psi = parse_dimacs(text)
        check_natural_floor(psi)
        grouping = group_formula(psi, "greedy")
        red = reduce_sat_natural(psi, grouping, [build_family(len(cg), 4) for cg in grouping.clause_groups])
        side = {f".fam{i}": format_family(fam) for i, fam in enumerate(red.families, start=1)}
        counts = f" variable-groups={len(grouping.variable_groups)} clause-groups={len(grouping.clause_groups)}"
    elif args.type == "sat-cw":
        red = reduce_sat_cw(parse_dimacs(text))
        side, counts = {".cwx": format_expression(red.expression)}, ""
    else:  # "mcc-td": argparse admits no other --type
        red = reduce_mcc_td(parse_mcc(text))
        side = {".tdw": format_witness(red.witness)}
        counts = f" choice-groups={len(red.choice_groups)} edge-groups={len(red.edge_groups)}"
    _write(args.output + ".cvc", format_instance(red.graph))
    _write(args.output + ".meta", format_choice_groups(red.meta))
    for suffix, side_text in side.items():
        _write(args.output + suffix, side_text)
    print(f"REDUCED {args.type} vertices={red.graph.n} edges={len(red.graph.edges)} k={red.budget}{counts}")
    payload = {"command": "reduce", "type": args.type, "input": args.input, "k": red.budget, "vertices": red.graph.n}
    if args.type == "mcc-td":
        payload["choice_groups"] = len(red.choice_groups)
    _emit_json(args.json, payload)
    return 0


_VERIFY_NEEDS = {
    "orientation": ("input", "cert"),
    "arrangement": ("input", "arrangement"),
    "expression": ("input", "expr"),
    "witness": ("input", "witness"),
    "family": ("family",),
}


def _verify(args) -> int:
    missing = [f"--{name}" for name in _VERIFY_NEEDS[args.type] if getattr(args, name) is None]
    if missing:
        raise ValueError(f"--type {args.type} needs {' and '.join(missing)}")
    if args.type == "family":
        family = parse_family(_read(args.family))
        if is_detecting(args.universe, family, args.d):
            print("VALID family")
            return 0
        print("INVALID family")
        return 1
    g = parse_instance(_read(args.input))
    if args.type == "orientation":
        orientation = parse_orientation(_read(args.cert), g)
        report = verify_orientation(g, orientation)
        if not report.feasible:
            print(f"INVALID violations={len(report.violations)}")
            return 1
        if args.k is not None and report.size > args.k:
            print(f"INVALID size={report.size} exceeds k={args.k}")
            return 1
        print(f"VALID size={report.size}")
        return 0
    if args.type == "arrangement":
        width = cutwidth_of(g, parse_arrangement(_read(args.arrangement)))
        print(f"CUTWIDTH {width}")
        if args.max_ctw is not None and width > args.max_ctw:
            return 1
        return 0
    if args.type == "expression":
        expr = parse_expression(_read(args.expr))
        if verify_cw_expression(expr, g):
            print("VALID expression")
            return 0
        print("INVALID expression")
        return 1
    # "witness": argparse admits no other --type
    valid, depth = verify_td_witness(g, parse_witness(_read(args.witness)))
    if valid:
        print(f"VALID depth={depth}")
        return 0
    print("INVALID witness")
    return 1


def _gen(args) -> int:
    if args.model == "gnp":
        g = gnp(args.n, args.p, args.seed)
    elif args.model == "sparse":
        g = sparse_with_fes(args.n, args.fes, args.seed)
    else:  # "layered": argparse admits no other --model
        g = layered_with_ctw(args.n, args.ctw, args.seed, extra=args.extra)
    _write(args.output, format_instance(g))
    if args.arrangement_out:
        _write(args.arrangement_out, format_arrangement(LinearArrangement(tuple(range(1, g.n + 1)))))
    print(f"GENERATED {args.model} n={g.n} m={len(g.edges)} seed={args.seed}")
    return 0


def _bench(args) -> int:
    rows = []
    violated = False
    for ctw in range(args.ctw_min, args.ctw_max + 1):
        n = args.n if args.n else max(2 * ctw, 8)
        g = layered_with_ctw(n, ctw, args.seed, extra=args.extra)
        arr = LinearArrangement(tuple(range(1, g.n + 1)))
        start = time.perf_counter()
        minsize, _, layers = solve_cutdp_detailed(g, arr)
        elapsed = time.perf_counter() - start
        max_table = max(layer.table_size for layer in layers)
        total_work = sum(layer.work for layer in layers[1:])
        fitted = 0.0
        for i in range(1, g.n + 1):
            bound = (2 ** len(layers[i - 1].edges) + 2 ** len(layers[i].edges)) * g.n**2
            ratio = layers[i].work / bound
            fitted = max(fitted, ratio)
            if layers[i].work > 2 * bound:
                violated = True
        if not rows:  # the header waits for a first row, so a refusal leaves stdout empty
            print("n m ctw max_table work fitted_c seconds")
        rows.append(
            {
                "n": g.n,
                "m": len(g.edges),
                "ctw": ctw,
                "max_table": max_table,
                "work": total_work,
                "fitted_c": round(fitted, 6),
                "seconds": round(elapsed, 4),
                "minsize": None if minsize == math.inf else minsize,
                "layer_tables": [layer.table_size for layer in layers],
            }
        )
        print(
            f"{g.n} {len(g.edges)} {ctw} {max_table} {total_work} "
            f"{fitted:.6f} {elapsed:.4f}"
        )
    _emit_json(args.json, {"command": "bench", "rows": rows})
    if violated:
        print("WORK BOUND VIOLATED")
        return 1
    return 0


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvckit",
        description="Exact solvers, reductions, and verifiers for capacitated "
        "vertex cover in its edge-orientation form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance")
    p_solve.add_argument("--input", required=True)
    p_solve.add_argument("--k", type=int, default=None)
    p_solve.add_argument(
        "--algo",
        default="auto",
        choices=["auto", "oracle", "pruned", "canonical", "cutdp", "vi", "fes"],
    )
    p_solve.add_argument("--arrangement")
    p_solve.add_argument("--find-arrangement", choices=["exact", "heuristic"])
    p_solve.add_argument("--modulator")
    p_solve.add_argument("--meta")
    p_solve.add_argument("--cert-out")
    p_solve.add_argument("--json")
    p_solve.set_defaults(func=_solve)

    p_reduce = sub.add_parser("reduce", help="run a hardness construction")
    p_reduce.add_argument("--type", required=True, choices=["smc", "sat-natural", "sat-cw", "mcc-td"])
    p_reduce.add_argument("--input", required=True)
    p_reduce.add_argument("--output", required=True, help="output path prefix")
    p_reduce.add_argument("--json")
    p_reduce.set_defaults(func=_reduce)

    p_verify = sub.add_parser("verify", help="check a certificate or side artifact")
    p_verify.add_argument(
        "--type",
        required=True,
        choices=["orientation", "arrangement", "expression", "witness", "family"],
    )
    p_verify.add_argument("--input")
    p_verify.add_argument("--cert")
    p_verify.add_argument("--arrangement")
    p_verify.add_argument("--expr")
    p_verify.add_argument("--witness")
    p_verify.add_argument("--family")
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--max-ctw", type=int, default=None)
    p_verify.add_argument("--universe", type=int, default=0)
    p_verify.add_argument("--d", type=int, default=4)
    p_verify.set_defaults(func=_verify)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--model", required=True, choices=["gnp", "sparse", "layered"])
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=float, default=0.5)
    p_gen.add_argument("--fes", type=int, default=0)
    p_gen.add_argument("--ctw", type=int, default=1)
    p_gen.add_argument("--extra", type=int, default=0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", required=True)
    p_gen.add_argument("--arrangement-out")
    p_gen.set_defaults(func=_gen)

    p_bench = sub.add_parser("bench", help="layer-table benchmark for the cut DP")
    p_bench.add_argument("--ctw-min", type=int, required=True)
    p_bench.add_argument("--ctw-max", type=int, required=True)
    p_bench.add_argument("--n", type=int, default=None)
    p_bench.add_argument("--extra", type=int, default=6)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--json")
    p_bench.set_defaults(func=_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CapExceededError, OSError) as exc:  # ValueError covers parse, structure and decode errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
