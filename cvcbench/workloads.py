"""Seeded input files and the operation plan of every benchmark workload.

``build(workload, seed, out_dir)`` writes the workload's input files and a
``manifest.json`` that lists its instances.  Each instance is one
operation: a short sequence of ``cvckit`` command lines that takes it from
input file to verified verdict.  In the command lines, ``{in}`` stands for
the input directory, ``{out}`` for the output directory of the current
round and ``{k}`` for the budget the preceding ``reduce`` reported.

Graph instances come from ``cvckit.generators`` and are written with
``cvckit.core.format_instance``, as ``cvckit gen`` writes them.  Source
problems for the reductions (formulas, set-multicover inputs, clique
inputs) are written by the small writers below; whether each one is a yes
or a no instance is decided by brute force in ``check.py``, so every
round holds both answers.

Regenerate every input file of a seed with

    python3 cvcbench/workloads.py --seed 1 --out /tmp/cvcbench-inputs
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from itertools import combinations, product
from pathlib import Path

import check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MEASURE_SEED = 1  # the seed to measure a change with
HELDOUT_SEED = 7  # kept aside to confirm a claimed gain afterwards

WORKLOADS = ("exact-gnp", "reduce-canonical", "fes-sparse", "cutdp-layered", "vi-gnp")

# The end-to-end times are each operation's mean over the rounds of a run:
# whole rounds, for --seconds, and never fewer than MIN_ROUNDS.  This
# machine's speed swings by up to half over a few seconds; a mean over the
# whole run is steadier than the best of a few rounds, and it does not
# drift with how many rounds fit.
MIN_ROUNDS = 2

# Instance make-up of one round, per workload.  A round takes 3-6 s here.
# Instances within a workload are of one kind and size where possible, so
# that rounds cost alike across seeds.
EXACT_SIZES = (11,) * 14  # gnp(n, 0.6)
FES_SIZES = (9,) * 24  # sparse_with_fes(60, f)
CUTDP_IDENTITY = (16,) * 6  # layered_with_ctw(40, ctw, extra=6), identity order
CUTDP_AUTO = (4,) * 4  # layered_with_ctw(30, ctw, extra=20), relabelled, --algo auto
VI_SHAPES = ((3, 3, 5),) * 12  # (shared vertices, blocks, block size)
# (yes, no) instances per reduction.  The six small ones take 5-50 ms, the
# mcc-td ones 0.5 s (no) and 1.5 s (yes); with mcc-td "no" inputs in the
# middle of the sorted times, the median operation is one of them, and
# those all reduce to one graph.
REDUCE_COUNTS = {"sat-natural": (1, 1), "sat-cw": (1, 1), "smc": (1, 1), "mcc-td": (1, 6)}


def _instance_seed(seed: int, workload: str, i: int) -> int:
    return seed * 100_000 + WORKLOADS.index(workload) * 1_000 + i


def _min_instance(name: str, algo: str, extra: list[str] | None = None) -> dict:
    """Solve for the optimum, then verify the certificate if there is one."""
    solve = ["solve", "--input", f"{{in}}/{name}.cvc", "--algo", algo]
    solve += extra or []
    solve += ["--cert-out", f"{{out}}/{name}.cert"]
    verify = ["verify", "--type", "orientation", "--input", f"{{in}}/{name}.cvc",
              "--cert", f"{{out}}/{name}.cert"]
    return {
        "id": name,
        "kind": "min",
        "instance": f"{name}.cvc",
        "calls": [{"argv": solve, "role": "solve"}, {"argv": verify, "role": "verify", "if_yes": True}],
    }


def _reduce_instance(name: str, rtype: str, source: str) -> dict:
    """Reduce a source problem, decide the output, verify side certificates."""
    prefix = f"{{out}}/{name}"
    algo = "pruned" if rtype == "smc" else "canonical"
    solve = ["solve", "--input", f"{prefix}.cvc", "--algo", algo, "--k", "{k}"]
    if algo == "canonical":
        solve += ["--meta", f"{prefix}.meta"]
    solve += ["--cert-out", f"{prefix}.cert"]
    calls = [
        {"argv": ["reduce", "--type", rtype, "--input", f"{{in}}/{source}", "--output", prefix],
         "role": "reduce"},
        {"argv": solve, "role": "solve"},
        {"argv": ["verify", "--type", "orientation", "--input", f"{prefix}.cvc",
                  "--cert", f"{prefix}.cert", "--k", "{k}"], "role": "verify", "if_yes": True},
    ]
    if rtype == "sat-cw":
        calls.append({"argv": ["verify", "--type", "expression", "--input", f"{prefix}.cvc",
                               "--expr", f"{prefix}.cwx"], "role": "side"})
    if rtype == "mcc-td":
        calls.append({"argv": ["verify", "--type", "witness", "--input", f"{prefix}.cvc",
                               "--witness", f"{prefix}.tdw"], "role": "side"})
    return {"id": name, "kind": "decide", "type": rtype, "source": source, "calls": calls}


def _relabel(g, rng: random.Random):
    """The same graph under a random permutation of its vertex ids."""
    from cvckit.core import CapacitatedGraph

    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    image = [0] + perm
    caps = {image[v]: g.capacity[v] for v in g.vertices()}
    return CapacitatedGraph.build(g.n, [(image[u], image[v]) for u, v in g.edges], caps)


def _planted_modulator(generators, hub: int, blocks: int, size: int, seed: int, rng: random.Random):
    """Connected gnp(size, 0.5) blocks joined through ``hub`` shared vertices.

    The shared vertices meet each block vertex with probability 0.3, and
    each block at least once, and each other with probability 0.5.  So the
    vertex integrity is at most hub + size and the modulator search,
    guesses and catalogs stay bounded; plain gnp(n, 0.3) draws now and then
    need a modulator of 7 vertices and run past 10 s.  With every block
    connected and met by every shared vertex, draws need modulators of one
    size, so that they cost alike.
    Capacities are uniform in [1, deg(v)], as in ``generators.gnp``.
    """
    from cvckit.core import CapacitatedGraph
    from cvckit.vertex_integrity import components_outside

    edges = [(u, v) for u in range(1, hub + 1) for v in range(u + 1, hub + 1) if rng.random() < 0.5]
    offset = hub
    for b in range(blocks):
        draws = (generators.gnp(size, 0.5, seed * 10_000 + b * 1000 + k) for k in range(1000))
        block = next(g for g in draws if len(components_outside(g, ())) == 1)
        edges += [(u + offset, v + offset) for u, v in block.edges]
        for u in range(1, hub + 1):
            met = [v for v in range(1, size + 1) if rng.random() < 0.3] or [rng.randint(1, size)]
            edges += [(u, v + offset) for v in met]
        offset += size
    deg = [0] * (offset + 1)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    caps = [0] + [rng.randint(1, d) if d else 0 for d in deg[1:]]
    return CapacitatedGraph.build(offset, edges, caps)


# --- source problems for the reductions -----------------------------------


def _random_formula(rng: random.Random) -> tuple[int, list[tuple[int, int, int]]]:
    """A draw from the largest corner of the criterion-5 space: 4
    variables, 3 distinct clauses over three distinct variables each."""
    n, m = 4, 3
    pool = [
        tuple(v if pos else -v for v, pos in zip(vs, pols))
        for vs in combinations(range(1, n + 1), 3)
        for pols in product((True, False), repeat=3)
    ]
    return n, rng.sample(pool, m)


def _format_cnf(n: int, clauses) -> str:
    return f"p cnf {n} {len(clauses)}\n" + "".join(f"{a} {b} {c} 0\n" for a, b, c in clauses)


def _random_smc(rng: random.Random) -> tuple[int, list[set[int]], int, int]:
    m = 3
    sets = [{x for x in range(1, m + 1) if rng.random() < 0.5} for _ in range(4)]
    return m, sets, rng.choice((1, 2)), rng.choice((1, 2, 3))


def _format_smc(m: int, sets, demand: int, budget: int) -> str:
    lines = [f"smc {m} {len(sets)} {demand} {budget}"]
    lines += [" ".join(["set", str(j)] + [str(x) for x in sorted(s)]) for j, s in enumerate(sets, 1)]
    return "\n".join(lines) + "\n"


def _format_mcc(k: int, n: int, edges) -> str:
    gid = {(i, a): (i - 1) * n + a for i in range(1, k + 1) for a in range(1, n + 1)}
    lines = [f"mcc {k} {n}"]
    lines += [f"class {i} " + " ".join(str(gid[(i, a)]) for a in range(1, n + 1)) for i in range(1, k + 1)]
    lines += sorted(f"e {min(gid[x] for x in e)} {max(gid[x] for x in e)}" for e in edges)
    return "\n".join(lines) + "\n"


def _draw_until(answer: bool, draw, decide):
    while True:
        item = draw()
        if decide(item) == answer:
            return item


# --- workloads -----------------------------------------------------------------


def build(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the workload's input files for ``seed`` and return its manifest."""
    from cvckit import generators
    from cvckit.cli import AUTO_FES_CAP  # `auto` sends at most this many feedback edges to FES
    from cvckit.core import format_instance
    from cvckit.cutwidth import LinearArrangement, format_arrangement

    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"cvcbench/{workload}/{seed}")
    instances = []

    def write(name: str, text: str) -> None:
        (out_dir / name).write_text(text, encoding="utf-8")

    if workload == "exact-gnp":
        for i, n in enumerate(EXACT_SIZES):
            name = f"gnp{n}-{i}"
            write(f"{name}.cvc", format_instance(generators.gnp(n, 0.6, _instance_seed(seed, workload, i))))
            instances.append(_min_instance(name, "oracle"))
    elif workload == "fes-sparse":
        for i, f in enumerate(FES_SIZES):
            name = f"fes{f}-{i}"
            g = generators.sparse_with_fes(60, f, _instance_seed(seed, workload, i))
            write(f"{name}.cvc", format_instance(g))
            instances.append(_min_instance(name, "fes"))
    elif workload == "cutdp-layered":
        for i, ctw in enumerate(CUTDP_IDENTITY):
            name = f"ctw{ctw}-{i}"
            g = generators.layered_with_ctw(40, ctw, _instance_seed(seed, workload, i), extra=6)
            write(f"{name}.cvc", format_instance(g))
            write(f"{name}.arr", format_arrangement(LinearArrangement(tuple(range(1, g.n + 1)))))
            instances.append(_min_instance(name, "cutdp", ["--arrangement", f"{{in}}/{name}.arr"]))
        for j, ctw in enumerate(CUTDP_AUTO, start=len(CUTDP_IDENTITY)):
            name = f"auto{ctw}-{j}"
            for attempt in range(100):
                g = generators.layered_with_ctw(30, ctw, _instance_seed(seed, workload, j) * 100 + attempt, extra=20)
                if len(g.edges) - g.n + 1 > AUTO_FES_CAP:  # connected: feedback edges = m - n + 1
                    break
            else:
                raise RuntimeError(f"no draw for {name} has more than {AUTO_FES_CAP} feedback edges")
            write(f"{name}.cvc", format_instance(_relabel(g, rng)))
            instances.append(_min_instance(name, "auto"))
    elif workload == "vi-gnp":
        for i, (hub, blocks, size) in enumerate(VI_SHAPES):
            name = f"vi{hub}-{blocks}x{size}-{i}"
            g = _planted_modulator(generators, hub, blocks, size, _instance_seed(seed, workload, i), rng)
            write(f"{name}.cvc", format_instance(g))
            instances.append(_min_instance(name, "vi"))
    elif workload == "reduce-canonical":
        for rtype in ("sat-natural", "sat-cw"):
            for answer, count in zip((True, False), REDUCE_COUNTS[rtype]):
                for i in range(count):
                    n, clauses = _draw_until(answer, lambda: _random_formula(rng),
                                             lambda f: check.one_in_three(*f))
                    name = f"{rtype}-{'yes' if answer else 'no'}{i}"
                    write(f"{name}.cnf", _format_cnf(n, clauses))
                    instances.append(_reduce_instance(name, rtype, f"{name}.cnf"))
        for answer, count in zip((True, False), REDUCE_COUNTS["smc"]):
            for i in range(count):
                inst = _draw_until(answer, lambda: _random_smc(rng), lambda s: check.set_multicover(*s))
                name = f"smc-{'yes' if answer else 'no'}{i}"
                write(f"{name}.smc", _format_smc(*inst))
                instances.append(_reduce_instance(name, "smc", f"{name}.smc"))
        for answer, count in zip((True, False), REDUCE_COUNTS["mcc-td"]):
            for i in range(count):
                def draw():  # no cross edge (a no) or two (a yes), so that yes draws cost alike
                    while True:
                        inst = generators.random_mcc(2, 2, rng.choice((0.4, 0.6, 0.8)), rng.randrange(10**9))
                        if len(inst[2]) in (0, 2):
                            return inst

                def decide(inst):
                    k, n, edges = inst
                    classes = [[(c, a) for a in range(1, n + 1)] for c in range(1, k + 1)]
                    return check.multicolored_clique(classes, edges)

                k, n, edges = _draw_until(answer, draw, decide)
                name = f"mcc-{'yes' if answer else 'no'}{i}"
                write(f"{name}.mcc", _format_mcc(k, n, edges))
                instances.append(_reduce_instance(name, "mcc-td", f"{name}.mcc"))
    else:
        raise ValueError(f"unknown workload '{workload}'")

    manifest = {"workload": workload, "seed": seed, "instances": instances}
    write("manifest.json", json.dumps(manifest, indent=1) + "\n")
    return manifest


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=MEASURE_SEED)
    parser.add_argument("--out", required=True, help="directory for the input files")
    parser.add_argument("--timed", action="store_true",
                        help="print the set-up time (import, generate, write) as JSON")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    out = Path(args.out)
    if args.workload:
        build(args.workload, args.seed, out)
    else:
        for workload in WORKLOADS:
            build(workload, args.seed, out / workload)
    if args.timed:
        print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
