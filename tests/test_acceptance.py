"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is exact
equality; the two timed criteria use wall-clock budgets of five and two
minutes.  Canonical-space checks (criteria 4-6) enumerate the solution
shapes that the constructions force; full subset enumeration on the
reduced instances is out of reach, and the brute-force side of each
comparison runs on the *source* problem instead.
"""

import math
import random
import time
from itertools import combinations, product

from cvckit.core import CapacitatedGraph, verify_orientation
from cvckit.cutwidth import LinearArrangement, find_arrangement, solve_cutdp, solve_cutdp_detailed
from cvckit.detecting import build_family, is_detecting
from cvckit.fes import ForestInstance, forest_dp, solve_fes
from cvckit.generators import gnp, layered_with_ctw, random_mcc
from cvckit.oracle import solve_canonical, solve_exact, solve_pruned
from cvckit.reductions.cliquewidth import verify_cw_expression
from cvckit.reductions.mcc import MccInstance, reduce_mcc_td, verify_td_witness
from cvckit.reductions.sat import Cnf1in3, group_formula, reduce_sat_cw, reduce_sat_natural
from cvckit.reductions.smc import SmcInstance, reduce_smc
import cvckit.vertex_integrity as vi_mod
from cvckit.vertex_integrity import compute_modulator, solve_vi, solve_vi_opt
from bruteforce import (
    brute_forest_min,
    brute_multicolored_clique,
    brute_one_in_three,
    brute_smc,
    forest_dp_exhaustive,
)

WORK_CONSTANT = 2.0  # pinned constant for the per-layer work bound


def report(num: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status}")
    assert not failures, f"criterion {num} ({name}): {failures[:5]}"


def _instance_schedule(count: int = 200):
    """Seeded (n, p) schedule: all three densities appear, with the densest
    draws paired to smaller sizes so every solver stays within budget."""
    ranges = {0.8: (4, 7), 0.5: (4, 8), 0.3: (4, 9)}
    for seed in range(count):
        p = (0.3, 0.5, 0.8)[seed % 3]
        lo, hi = ranges[p]
        n = lo + (seed // 3) % (hi - lo + 1)
        yield seed, n, p


def test_criterion_1_cross_solver_agreement():
    failures = []
    start = time.perf_counter()
    for seed, n, p in _instance_schedule(200):
        g = gnp(n, p, seed)
        reference, cert_exact = solve_exact(g)
        arr = find_arrangement(g, "exact")
        via_cut, cert_cut = solve_cutdp(g, arr)
        via_vi, cert_vi = solve_vi_opt(g)
        via_fes, cert_fes = solve_fes(g)
        if not reference == via_cut == via_vi == via_fes:
            failures.append((seed, n, p, reference, via_cut, via_vi, via_fes))
            continue
        if reference != math.inf:
            for cert in (cert_exact, cert_cut, cert_vi, cert_fes):
                rep = verify_orientation(g, cert)
                if not rep.feasible or rep.size != reference:
                    failures.append((seed, "certificate", rep.feasible, rep.size))
    elapsed = time.perf_counter() - start
    if elapsed >= 300:
        failures.append(("runtime", elapsed))
    print(f"\n  criterion 1: 200 instances in {elapsed:.1f}s")
    report(1, "cross-solver agreement", failures)


def test_criterion_2_cutwidth_tables_and_work():
    failures = []
    fitted = 0.0
    for ctw in range(4, 15):
        n = 2 * ctw + 4
        g = layered_with_ctw(n, ctw, seed=ctw, extra=6)
        arr = LinearArrangement(tuple(range(1, n + 1)))
        _, _, layers = solve_cutdp_detailed(g, arr)
        for i in range(0, n + 1):
            expected = 2 ** len(layers[i].edges)
            if layers[i].table_size != expected:
                failures.append((ctw, i, layers[i].table_size, expected))
        for i in range(1, n + 1):
            bound = (2 ** len(layers[i - 1].edges) + 2 ** len(layers[i].edges)) * n**2
            ratio = layers[i].work / bound
            fitted = max(fitted, ratio)
            if layers[i].work > WORK_CONSTANT * bound:
                failures.append(("work", ctw, i, layers[i].work, bound))
    start = time.perf_counter()
    g18 = layered_with_ctw(40, 18, seed=18, extra=6)
    arr18 = LinearArrangement(tuple(range(1, 41)))
    minsize, cert = solve_cutdp(g18, arr18)
    elapsed = time.perf_counter() - start
    if elapsed >= 120:
        failures.append(("ctw-18 runtime", elapsed))
    if minsize != math.inf and not verify_orientation(g18, cert).feasible:
        failures.append("ctw-18 certificate")
    print(f"\n  criterion 2: fitted work constant {fitted:.4f}, ctw-18 solve {elapsed:.1f}s")
    report(2, "cutwidth table exactness and work bound", failures)


def test_criterion_3_block_selection_and_guess_counts():
    failures = []
    rng = random.Random(303)
    for case in range(30):
        width = rng.randint(1, 3)
        catalogs = []
        option_product = 1
        for _ in range(rng.randint(1, 5)):
            count = rng.randint(1, 6)
            option_product *= count
            catalogs.append([
                (tuple(rng.randint(0, 3) for _ in range(width)), rng.randint(0, 4))
                for _ in range(count)
            ])
        if option_product > 10**6:
            continue
        residual = [rng.randint(0, 7) for _ in range(width)]
        # block selection as the VI engine runs it: reduced blocks, the
        # residual clamped by their reach
        blocks = [vi_mod._reduce_options((load, gain, None) for load, gain in c) for c in catalogs]
        got, _ = vi_mod._block_select(blocks, list(map(min, residual, vi_mod._reach(blocks, width))))
        best = math.inf
        for picks in product(*catalogs):
            if all(
                sum(load[i] for load, _ in picks) <= residual[i]
                for i in range(width)
            ):
                best = min(best, sum(gain for _, gain in picks))
        if got != best:
            failures.append((case, got, best))
    for seed in range(25):
        g = gnp(4 + seed % 4, 0.5, 900 + seed)
        mod = compute_modulator(g).vertices
        internal = sum(1 for u, v in g.edges if u in set(mod) and v in set(mod))
        bound = 2 ** (len(mod) + internal)
        enumerated = sum(
            1 for sel in vi_mod._selected_sets(g, mod) for _ in vi_mod._orientations_for_selected(g, mod, sel)
        )
        stats = {}
        solve_vi(g, g.n, modulator=mod, stats=stats)
        if enumerated > bound or stats["guesses"] > bound:
            failures.append((seed, enumerated, stats["guesses"], bound))
    report(3, "block selection exactness and guess counts", failures)


def test_criterion_4_smc_equivalence_full_enumeration():
    failures = []
    cache: dict = {}
    checked = 0
    for m in (1, 2, 3):
        element_subsets = [
            frozenset(s)
            for r in range(m + 1)
            for s in combinations(range(1, m + 1), r)
        ]
        for n in (1, 2, 3, 4):
            for sets in product(element_subsets, repeat=n):
                for b in (1, 2):
                    for k in (0, 1, 2, 3):
                        key = (m, tuple(sorted(sets)), b, k)
                        if key in cache:
                            expected, got = cache[key]
                        else:
                            expected = brute_smc(m, sets, b, k)
                            red = reduce_smc(SmcInstance(m, sets, b, k))
                            got = solve_pruned(red.graph, red.budget)[0]
                            cache[key] = (expected, got)
                        checked += 1
                        if expected != got:
                            failures.append((m, n, sets, b, k, expected, got))
    print(f"\n  criterion 4: {checked} instances ({len(cache)} up to set order)")
    report(4, "set-multicover equivalence, fully enumerated", failures)


def _all_formulas():
    for n in (3, 4):
        all_clauses = [
            tuple((v, pol) for v, pol in zip(vs, pols))
            for vs in combinations(range(1, n + 1), 3)
            for pols in product((True, False), repeat=3)
        ]
        for m in (1, 2, 3):
            for chosen in combinations(range(len(all_clauses)), m):
                yield Cnf1in3(n, tuple(all_clauses[i] for i in chosen))


def test_criterion_5_reduction_equivalence_canonical():
    failures = []
    checked = 0
    expr_failures = 0
    for psi in _all_formulas():
        expected = brute_one_in_three(psi.num_vars, psi.clauses)
        grouping = group_formula(psi, "trivial")
        families = [build_family(len(cg), 4, "greedy") for cg in grouping.clause_groups]
        nat = reduce_sat_natural(psi, grouping, families)
        if solve_canonical(nat.graph, nat.meta, nat.budget)[0] != expected:
            failures.append(("natural", psi.clauses, expected))
        cw = reduce_sat_cw(psi)
        if solve_canonical(cw.graph, cw.meta, cw.budget)[0] != expected:
            failures.append(("cw", psi.clauses, expected))
        if not verify_cw_expression(cw.expression, cw.graph):
            expr_failures += 1
        checked += 1
    if expr_failures:
        failures.append(("expressions", expr_failures))
    mcc_checked = 0
    for seed in range(50):
        k, n, edges = random_mcc(2, 2, 0.4 + 0.2 * (seed % 3), seed)
        expected = brute_multicolored_clique(k, n, edges)
        red = reduce_mcc_td(MccInstance(k, n, frozenset(edges)))
        got = solve_canonical(red.graph, red.meta, red.budget)[0]
        if got != expected:
            failures.append(("mcc", seed, expected, got))
        mcc_checked += 1
    print(f"\n  criterion 5: {checked} formulas x 2 reductions, {mcc_checked} clique instances")
    report(5, "reduction equivalence over canonical spaces", failures)


def test_criterion_6_side_certificates():
    failures = []
    # expressions for a sample of formulas are re-checked here on top of the
    # full sweep inside criterion 5
    for psi in [
        Cnf1in3(3, (((1, True), (2, True), (3, True)),)),
        Cnf1in3(4, (((1, True), (2, False), (3, True)), ((2, True), (3, False), (4, True)))),
    ]:
        cw = reduce_sat_cw(psi)
        if not verify_cw_expression(cw.expression, cw.graph):
            failures.append(("expression", psi.clauses))

    # gamma count and witness depth at k=2, constant measured there
    depths_k2 = []
    for seed in range(8):
        k, n, edges = random_mcc(2, 2, 0.5, 600 + seed)
        red = reduce_mcc_td(MccInstance(k, n, frozenset(edges)))
        if len(red.choice_groups) != 2 * 2 * (2 * 2 - 1):
            failures.append(("gamma", seed, len(red.choice_groups)))
        valid, depth = verify_td_witness(red.graph, red.witness)
        if not valid:
            failures.append(("witness-k2", seed))
        depths_k2.append(depth)
    c0 = max(depths_k2) - 16 * 2

    k4_edges = {
        frozenset(((i, 1), (j, 1))) for i in range(1, 5) for j in range(i + 1, 5)
    }
    red4 = reduce_mcc_td(MccInstance(4, 1, frozenset(k4_edges)))
    valid4, depth4 = verify_td_witness(red4.graph, red4.witness)
    if not valid4:
        failures.append("witness-k4")
    for k, depth in ((2, max(depths_k2)), (4, depth4)):
        if depth > 16 * k + c0:
            failures.append(("depth", k, depth, 16 * k + c0))
    print(f"\n  criterion 6: measured c0={c0}, depth(k=4)={depth4} <= {16 * 4 + c0}")
    report(6, "clique-width and tree-depth certificates", failures)


def test_criterion_7_detecting_families():
    failures = []
    for u in (1, 2, 3, 4):
        for d in (2, 3, 4):
            for mode in ("singleton", "greedy"):
                fam = build_family(u, d, mode)
                if not is_detecting(u, fam.sets, d):
                    failures.append((u, d, mode))
    if is_detecting(2, [{1, 2}], 2):
        failures.append("counterexample accepted")
    report(7, "detecting families verified", failures)


def test_criterion_8_forest_dp():
    failures = []
    rng = random.Random(808)
    checked = 0
    while checked < 100:
        n = rng.randint(2, 12)
        edges = []
        for v in range(2, n + 1):
            if rng.random() < 0.85:
                edges.append((rng.randint(1, v - 1), v))
        g0 = CapacitatedGraph.build(n, edges, {v: 0 for v in range(1, n + 1)})
        caps = {v: rng.randint(0, max(g0.deg(v), 1)) for v in range(1, n + 1)}
        g = CapacitatedGraph.build(n, edges, caps)
        preload = [0] * (n + 1)
        for v in range(1, n + 1):
            if rng.random() < 0.3:
                preload[v] = rng.randint(1, 2)
        expected = brute_forest_min(g, preload)
        fi = _phantom(g, preload)
        got = forest_dp(fi)[0]
        if got != expected:
            failures.append((checked, expected, got))
        checked += 1
    for seed in range(40):
        rng2 = random.Random(9000 + seed)
        n = rng2.randint(2, 10)
        edges = []
        for v in range(2, n + 1):
            if rng2.random() < 0.9:
                edges.append((rng2.randint(1, v - 1), v))
        g0 = CapacitatedGraph.build(n, edges, {v: 0 for v in range(1, n + 1)})
        if max((g0.deg(v) for v in range(1, n + 1)), default=0) > 6:
            continue
        caps = {v: rng2.randint(0, max(g0.deg(v), 1)) for v in range(1, n + 1)}
        g = CapacitatedGraph.build(n, edges, caps)
        if forest_dp(ForestInstance(g, g.edges, ()))[0] != forest_dp_exhaustive(g):
            failures.append(("prefix", seed))
    report(8, "forest DP against enumeration", failures)


def _phantom(g, preload):
    edges = list(g.edges)
    caps = list(g.capacity)
    forced = []
    nxt = g.n + 1
    for v in range(1, g.n + 1):
        for _ in range(preload[v]):
            edges.append((v, nxt))
            caps.append(0)
            forced.append(((v, nxt), v))
            nxt += 1
    big = CapacitatedGraph(nxt - 1, tuple(sorted(edges)), tuple(caps))
    return ForestInstance(big, g.edges, tuple(forced))
