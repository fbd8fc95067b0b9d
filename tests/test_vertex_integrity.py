import math
import random
from itertools import combinations
from itertools import product

import pytest

import cvckit.vertex_integrity as vi_mod
from cvckit.core import CapacitatedGraph, CapExceededError, verify_orientation
from cvckit.core import GraphFormatError, Orientation, StructuralError, normalize_capacities
from cvckit.generators import gnp
from cvckit.oracle import solve_exact, solve_pruned
from cvckit.vertex_integrity import (
    components_outside,
    compute_modulator,
    format_modulator,
    parse_modulator,
    solve_vi,
    solve_vi_opt,
)


def graph(n, edges, caps):
    return CapacitatedGraph.build(n, edges, caps)


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
    g = CapacitatedGraph.build(n, edges, {v: 0 for v in range(1, n + 1)})
    caps = {v: rng.randint(1, g.deg(v)) if g.deg(v) else 0 for v in range(1, n + 1)}
    return CapacitatedGraph.build(n, edges, caps)


# --- modulator -------------------------------------------------------------

def test_modulator_star():
    g = graph(5, [(1, v) for v in range(2, 6)], {1: 4, 2: 1, 3: 1, 4: 1, 5: 1})
    mod = compute_modulator(g)
    assert mod.vi == 2 and mod.vertices == (1,)
    # exhaustive check that no smaller integrity value is witnessed
    assert all(
        len(s) + max(map(len, components_outside(g, s)), default=0) >= 2
        for r in range(g.n + 1)
        for s in combinations(g.vertices(), r)
    )


def test_modulator_k4():
    edges = [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]
    g = graph(4, edges, {v: 2 for v in range(1, 5)})
    assert compute_modulator(g).vi == 4


def test_modulator_edgeless():
    g = graph(5, [], {v: 0 for v in range(1, 6)})
    mod = compute_modulator(g)
    assert mod.vi == 1 and mod.vertices == ()


def test_modulator_matches_definition_exhaustively():
    from itertools import combinations

    rng = random.Random(9)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 7), 0.4)
        mod = compute_modulator(g)
        comps = components_outside(g, mod.vertices)
        assert len(mod.vertices) + max((len(c) for c in comps), default=0) == mod.vi
        best = min(
            len(u) + max((len(c) for c in components_outside(g, u)), default=0)
            for s in range(g.n + 1)
            for u in combinations(range(1, g.n + 1), s)
        )
        assert mod.vi == best


def test_modulator_refuses_above_cap():
    g = graph(19, [], {v: 0 for v in range(1, 20)})
    with pytest.raises(CapExceededError):
        compute_modulator(g, exact_cap=18)


def test_modulator_file_roundtrip():
    assert parse_modulator(format_modulator([3, 1])) == (1, 3)


def test_modulator_file_holds_one_record():
    for text in ["modulator 1 2\nbogus line here\n", "modulator 1\nmodulator 2\n"]:
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_modulator(text)


# --- guesses ----------------------------------------------------------------

def _guesses(g, mod):
    """The engine's guesses: (selected set, internal heads, residuals)."""
    return [(sel, heads, residual) for sel in vi_mod._selected_sets(g, mod)
            for heads, residual in vi_mod._orientations_for_selected(g, mod, sel)]


def test_guesses_single_vertex_no_edges():
    g = graph(3, [(1, 2), (1, 3)], {1: 2, 2: 1, 3: 1})
    guesses = _guesses(g, (1,))
    assert len(guesses) == 2
    assert {sel for sel, _, _ in guesses} == {frozenset(), frozenset({1})}
    residual = next(res for sel, _, res in guesses if sel)
    assert residual == {1: 2}


def test_guesses_internal_edge_unit_capacity():
    # frozen from enumerating 2^2 selected sets x 2 orientations and filtering
    # against the validity rules (head selected, capacity respected): 4 survive
    g = graph(2, [(1, 2)], {1: 1, 2: 1})
    guesses = _guesses(g, (1, 2))
    assert len(guesses) == 4
    combos = {(tuple(sorted(sel)), heads[(1, 2)]) for sel, heads, _ in guesses}
    assert combos == {((1,), 1), ((2,), 2), ((1, 2), 1), ((1, 2), 2)}


def test_guesses_exclude_arcs_into_capacity_zero():
    g = graph(2, [(1, 2)], {1: 0, 2: 1})
    guesses = _guesses(g, (1, 2))
    assert all(heads[(1, 2)] != 1 for _, heads, _ in guesses)


def test_guess_count_bound():
    rng = random.Random(19)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 6), 0.5)
        mod = compute_modulator(g).vertices
        internal = sum(1 for u, v in g.edges if u in set(mod) and v in set(mod))
        count = len(_guesses(g, mod))
        assert count <= 2 ** (len(mod) + internal)


# --- catalogs ----------------------------------------------------------------

def _options(g, mod, selected, comp):
    """The engine's catalog walk for one component: (load, gain, mask) per option."""
    return list(vi_mod._component_orientations(g, mod, comp, *vi_mod._component_edges(g, selected, comp)))


def test_catalog_single_vertex_selected_neighbor():
    g = graph(2, [(1, 2)], {1: 1, 2: 1})
    pairs = {(load, gain) for load, gain, _ in _options(g, (1,), frozenset({1}), (2,))}
    assert pairs == {((1,), 0), ((0,), 1)}


def test_catalog_unselected_neighbor_forces_inward():
    g = graph(2, [(1, 2)], {1: 1, 2: 1})
    pairs = {(load, gain) for load, gain, _ in _options(g, (1,), frozenset(), (2,))}
    assert pairs == {((0,), 1)}


def test_catalog_empty_when_component_cannot_absorb():
    g = graph(2, [(1, 2)], {1: 1, 2: 0})
    assert _options(g, (1,), frozenset(), (2,)) == []


def test_catalog_options_replay_validly():
    rng = random.Random(29)
    for _ in range(15):
        g = random_graph(rng, rng.randint(3, 6), 0.5)
        mod = compute_modulator(g).vertices
        comps = components_outside(g, mod)
        for selected, _, _ in _guesses(g, mod):
            for comp in comps:
                forced, free = vi_mod._component_edges(g, selected, comp)
                options = list(vi_mod._component_orientations(g, mod, comp, forced, free))
                fset = [
                    (u, v)
                    for u, v in g.edges
                    if u in set(comp) or v in set(comp)
                ]
                assert len(options) <= 2 ** len(fset)
                for opt_load, size_gain, mask in options:
                    heads = vi_mod._component_heads(forced, free, mask)
                    assert set(heads) == set(fset)
                    indeg = {w: 0 for w in comp}
                    load = [0] * len(mod)
                    for e, h in heads.items():
                        if h in indeg:
                            indeg[h] += 1
                        else:
                            assert h in selected  # rule (i)
                            load[mod.index(h)] += 1
                    assert all(indeg[w] <= g.capacity[w] for w in comp)  # rule (ii)
                    assert tuple(load) == opt_load
                    assert size_gain == sum(1 for w in comp if indeg[w] > 0)
                    assert all(x <= len(comp) for x in opt_load)
                    assert size_gain <= len(comp)
            break  # one guess per instance keeps this quick


# --- block selection ---------------------------------------------------------

def _select(blocks, residual):
    """The engine's block selection: the residual clamped by the reach."""
    return vi_mod._block_select(blocks, list(map(min, residual, vi_mod._reach(blocks, len(residual)))))[0]


def _block(pairs):
    return vi_mod._reduce_options((load, gain, None) for load, gain in pairs)


def test_block_selection_worked_example():
    blocks = [
        _block([((1,), 1), ((0,), 2)]),
        _block([((1,), 1), ((0,), 2)]),
    ]
    assert _select(blocks, [1]) == 3


def test_block_selection_slack_residual():
    blocks = [
        _block([((1, 0), 2), ((0, 1), 1)]),
        _block([((1, 1), 3), ((0, 0), 5)]),
    ]
    assert _select(blocks, [10, 10]) == 1 + 3


def test_block_selection_infeasible():
    blocks = [_block([((5,), 1)])]
    assert _select(blocks, [3]) == math.inf


def test_block_selection_matches_exhaustive():
    rng = random.Random(37)
    for _ in range(25):
        width = rng.randint(1, 3)
        catalogs = []
        for _ in range(rng.randint(1, 4)):
            options = []
            for _ in range(rng.randint(1, 5)):
                load = tuple(rng.randint(0, 3) for _ in range(width))
                options.append((load, rng.randint(0, 4)))
            catalogs.append(options)
        residual = [rng.randint(0, 6) for _ in range(width)]
        got = _select([_block(options) for options in catalogs], residual)
        best = math.inf
        for picks in product(*catalogs):
            if all(
                sum(load[i] for load, _ in picks) <= residual[i]
                for i in range(width)
            ):
                best = min(best, sum(gain for _, gain in picks))
        assert got == best


# --- full pipeline -----------------------------------------------------------

def test_solve_vi_triangle():
    g = graph(3, [(1, 2), (1, 3), (2, 3)], {v: 1 for v in range(1, 4)})
    yes, cert = solve_vi(g, 3)
    assert yes and verify_orientation(g, cert).feasible
    assert solve_vi(g, 2) == (False, None)


def test_solve_vi_edgeless():
    g = graph(3, [], {v: 0 for v in (1, 2, 3)})
    assert solve_vi(g, 0)[0] is True


def test_solve_vi_agrees_with_pruned():
    rng = random.Random(47)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 7), rng.choice([0.3, 0.6]))
        for k in range(0, g.n + 1):
            yes, cert = solve_vi(g, k)
            assert yes == solve_pruned(g, k)[0]
            if yes:
                rep = verify_orientation(g, cert)
                assert rep.feasible and rep.size <= k


def test_solve_vi_opt_matches_exact():
    rng = random.Random(53)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 7), 0.5)
        expected, _ = solve_exact(g)
        got, cert = solve_vi_opt(g)
        assert got == expected
        if cert is not None:
            rep = verify_orientation(g, cert)
            assert rep.feasible and rep.size == got


def test_solve_vi_low_budget_fallback():
    # budgets at or below the integrity value run through the same pipeline
    g = graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], {1: 2, 2: 1, 3: 2, 4: 1})
    vi = compute_modulator(g).vi
    for k in range(0, vi + 1):
        assert solve_vi(g, k)[0] == solve_pruned(g, k)[0]


def test_solve_vi_external_modulator():
    g = graph(3, [(1, 2), (1, 3), (2, 3)], {v: 1 for v in range(1, 4)})
    stats = {}
    yes, _ = solve_vi(g, 3, modulator=(1, 2, 3), stats=stats)
    assert yes and stats["modulator"] == (1, 2, 3)
    internal = len(g.edges)
    assert stats["guesses"] <= 2 ** (3 + internal)


# --- bitmask search and incremental catalogs against the direct loops ---------
#
# The references below are the direct versions of the search loops: score
# every deletion set by a fresh component search, and rebuild the in-degrees
# and the edge heads of every catalog mask from scratch.


def _reference_modulator(g):
    def score(mod):
        comps = components_outside(g, mod)
        return len(mod) + max((len(c) for c in comps), default=0)

    best_u = ()
    best = score(())
    for s in range(1, g.n + 1):
        if s + 1 >= best:
            break
        for cand in combinations(g.vertices(), s):
            val = score(cand)
            if val < best:
                best, best_u = val, cand
    return vi_mod.Modulator(tuple(best_u), best)


def _reference_orientations(g, mod_order, selected, comp):
    comp_set = set(comp)
    mod_index = {u: i for i, u in enumerate(mod_order)}
    cap = g.capacity
    forced, free = [], []
    preload = {w: 0 for w in comp}
    for u, v in g.edges:
        inu, inv = u in comp_set, v in comp_set
        if not (inu or inv):
            continue
        if inu and inv:
            free.append((u, v))
            continue
        other, inside = (u, v) if inv else (v, u)
        if other in selected:
            free.append((u, v))
        else:
            forced.append(((u, v), inside))
            preload[inside] += 1
    if any(preload[w] > cap[w] for w in comp):
        return
    for mask in range(1 << len(free)):
        heads = dict(forced)
        indeg = dict(preload)
        load = [0] * len(mod_order)
        ok = True
        for b, (u, v) in enumerate(free):
            head = v if (mask >> b) & 1 else u
            heads[(u, v)] = head
            if head in comp_set:
                indeg[head] += 1
                if indeg[head] > cap[head]:
                    ok = False
                    break
            else:
                load[mod_index[head]] += 1
        if not ok:
            continue
        yield tuple(load), sum(1 for w in comp if indeg[w] > 0), heads


def _reference_block_select(reduced, residual):
    width = len(residual)
    caps = list(residual)
    for i in range(width):
        reachable = sum(max((load[i] for load, _, _ in block), default=0) for block in reduced)
        caps[i] = min(caps[i], reachable)
    if any(c < 0 for c in caps):
        return math.inf, None
    states = {tuple(caps): (0, ())}
    for block in reduced:
        nxt = {}
        for state, (total, path) in sorted(states.items()):
            for load, gain, payload in block:
                rem = tuple(r - x for r, x in zip(state, load))
                if min(rem, default=0) < 0:
                    continue
                cur = nxt.get(rem)
                if cur is None or total + gain < cur[0]:
                    nxt[rem] = (total + gain, path + (payload,))
        if not nxt:
            return math.inf, None
        states = nxt
    best_total, best_path = min(states.values(), key=lambda item: item[0])
    return best_total, list(best_path)


def _reference_engine(g, k, stats):
    g = normalize_capacities(g)
    mod = _reference_modulator(g).vertices
    comps = components_outside(g, mod)
    stats["guesses"] = 0
    best, best_assembly = math.inf, None
    for selected in vi_mod._selected_sets(g, mod):
        if k is not None and len(selected) > k:
            break
        if k is None and len(selected) >= best:
            break
        blocks = [
            vi_mod._reduce_options(_reference_orientations(g, mod, selected, comp))
            for comp in comps
        ]
        if not all(blocks):
            continue
        memo = {}
        for heads_u, residual in vi_mod._orientations_for_selected(g, mod, selected):
            stats["guesses"] += 1
            res_key = tuple(residual[u] for u in mod)
            if res_key not in memo:
                memo[res_key] = _reference_block_select(blocks, res_key)
            total_gain, picks = memo[res_key]
            value = len(selected) + total_gain
            if value >= best or (k is not None and value > k):
                continue
            best, best_assembly = value, dict(heads_u)
            for pick in picks:
                best_assembly.update(pick)
            if k is not None:
                break
        if k is not None and best_assembly is not None:
            break
    return best, None if best_assembly is None else Orientation(best_assembly)


def _seeded_graph(rng, n, p, above_degree=0):
    """A random graph with capacities drawn from 0..deg(v) + above_degree,
    zero included."""
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
    g = CapacitatedGraph.build(n, edges, [0] * (n + 1))
    return g.with_capacity([0] + [rng.randint(0, g.deg(v) + above_degree) for v in range(1, n + 1)])


def _disjoint_union(a, b):
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    return CapacitatedGraph.build(a.n + b.n, edges, a.capacity + b.capacity[1:])


def test_modulator_matches_reference_loop():
    rng = random.Random(61)
    graphs = [graph(0, [], {}), graph(9, [], {v: 0 for v in range(1, 10)})]
    graphs.append(_disjoint_union(_seeded_graph(rng, 6, 0.6), _seeded_graph(rng, 7, 0.5)))
    while len(graphs) < 220:
        n = rng.randint(1, 13)
        g = _seeded_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.8]))
        if rng.random() < 0.2 and n <= 10:
            g = _disjoint_union(g, _seeded_graph(rng, rng.randint(1, 13 - n), 0.5))
        graphs.append(g)
    assert any(len(components_outside(g, ())) > 1 and g.edges for g in graphs)
    for g in graphs:
        assert compute_modulator(g) == _reference_modulator(g)


def _three_hub_graph(rng, blocks):
    """Connected gnp(5, 0.5) blocks around 3 shared vertices that meet every
    block, relabelled at random; its vertex integrity is at most 8."""
    hub, size = 3, 5
    edges = [(u, v) for u, v in combinations(range(1, hub + 1), 2) if rng.random() < 0.5]
    offset = hub
    for _ in range(blocks):
        draws = (gnp(size, 0.5, rng.randrange(10**9)) for _ in range(1000))
        block = next(b for b in draws if len(components_outside(b, ())) == 1)
        edges += [(u + offset, v + offset) for u, v in block.edges]
        for u in range(1, hub + 1):
            met = [v for v in range(1, size + 1) if rng.random() < 0.3] or [rng.randint(1, size)]
            edges += [(u, v + offset) for v in met]
        offset += size
    image = [0] + rng.sample(range(1, offset + 1), offset)
    return graph(offset, [(image[u], image[v]) for u, v in edges], {})


def test_modulator_matches_reference_on_dense_and_planted_graphs():
    rng = random.Random(67)
    graphs = [graph(n, list(combinations(range(1, n + 1), 2)), {}) for n in range(1, 13)]
    for a, b in [(1, 1), (1, 9), (2, 7), (3, 9), (4, 4), (5, 8), (6, 6), (7, 7)]:
        graphs.append(graph(a + b, [(u, a + v) for u in range(1, a + 1) for v in range(1, b + 1)], {}))
    graphs += [gnp(n, p, seed) for n in (14, 15) for p, seed in [(0.8, 1), (0.8, 2), (1.0, 1)]]
    graphs += [_three_hub_graph(rng, 3) for _ in range(3)]
    for g in graphs:
        assert compute_modulator(g) == _reference_modulator(g)


def test_modulator_search_scores_few_sets_on_a_planted_graph():
    g = _three_hub_graph(random.Random(71), 3)
    assert g.n == 18
    stats = {}
    assert compute_modulator(g, stats=stats).vi <= 8
    # scoring every set up to size 6 would be 31,179 sets
    assert stats["modulator_sets"] <= 174
    engine_stats = {}
    solve_vi_opt(g, stats=engine_stats)
    assert engine_stats["modulator_sets"] == stats["modulator_sets"]


def test_modulator_search_past_the_cap_on_a_63_vertex_planted_graph():
    g = _three_hub_graph(random.Random(73), 12)
    assert g.n == 63
    stats = {}
    mod = compute_modulator(g, exact_cap=g.n, stats=stats)
    assert mod.vi <= 8 and len(mod.vertices) <= 3
    # scoring every set up to size 6 would be about 75.6 million sets
    assert stats["modulator_sets"] <= 22_464


def test_component_orientations_match_reference():
    rng = random.Random(67)
    compared = 0
    for _ in range(60):
        g = normalize_capacities(_seeded_graph(rng, rng.randint(2, 8), rng.choice([0.3, 0.5])))
        mods = [compute_modulator(g).vertices]
        mods.append(tuple(sorted(rng.sample(range(1, g.n + 1), rng.randint(0, g.n)))))
        for mod in mods:
            comps = components_outside(g, mod)
            for selected in vi_mod._selected_sets(g, mod):
                for comp in comps:
                    forced, free = vi_mod._component_edges(g, selected, comp)
                    if len(free) > 12:
                        continue
                    got = [
                        (load, gain, vi_mod._component_heads(forced, free, mask))
                        for load, gain, mask
                        in vi_mod._component_orientations(g, mod, comp, forced, free)
                    ]
                    want = list(_reference_orientations(g, mod, selected, comp))
                    assert got == want
                    compared += len(want)
    assert compared > 1000


def test_engine_matches_reference_guesses_and_certificates():
    rng = random.Random(71)
    for _ in range(80):
        g = _seeded_graph(rng, rng.randint(1, 9), rng.choice([0.3, 0.5, 0.7]))
        for k in [None] + list(range(0, g.n + 1)):
            stats, ref_stats = {}, {}
            if k is None:
                value, cert = solve_vi_opt(g, stats=stats)
            else:
                yes, cert = solve_vi(g, k, stats=stats)
            ref_value, ref_cert = _reference_engine(g, k, ref_stats)
            assert stats["guesses"] == ref_stats["guesses"]
            if k is None:
                assert value == ref_value
            else:
                assert yes == (ref_cert is not None)
            assert (cert is None) == (ref_cert is None)
            if cert is not None:
                assert cert.heads == ref_cert.heads


def test_external_modulator_out_of_range_is_refused():
    g = graph(3, [(1, 2), (2, 3)], {1: 1, 2: 1, 3: 1})
    for bad in [(99,), (-3,), (0,), (2, 4)]:
        with pytest.raises(StructuralError):
            solve_vi_opt(g, modulator=bad)
        with pytest.raises(StructuralError):
            solve_vi(g, 2, modulator=bad)
    assert solve_vi_opt(g, modulator=(2,))[0] == 2


def test_weak_modulator_is_refused():
    k8 = [(u, v) for u in range(1, 9) for v in range(u + 1, 9)]
    g = graph(8, k8, {v: 7 for v in range(1, 9)})
    # one vertex leaves a K7 component: 21 free edges for its catalog
    with pytest.raises(CapExceededError, match="21 free edges"):
        solve_vi_opt(g, modulator=(1,))
    with pytest.raises(CapExceededError):
        solve_vi(g, 8, modulator=(1,))
    # the whole graph as modulator: a 7-vertex selected set leaves 21
    # free internal edges for the guesses
    with pytest.raises(CapExceededError, match="21 free edges"):
        solve_vi_opt(g, modulator=range(1, 9))
    assert vi_mod.MAX_FREE_EDGES == 20


def test_block_select_matches_reference_with_and_without_budget():
    rng = random.Random(79)
    budgeted = pruned = 0
    for _ in range(400):
        width = rng.randint(0, 3)
        blocks = []
        for b in range(rng.randint(0, 4)):
            options = [
                (tuple(rng.randint(0, 2) for _ in range(width)), rng.randint(0, 2), (b, i))
                for i in range(rng.randint(1, 5))
            ]
            blocks.append(vi_mod._reduce_options(options))
        residual = [rng.randint(-1, 4) for _ in range(width)]
        want = _reference_block_select(blocks, residual)
        assert vi_mod._block_select(blocks, residual) == want
        loads = {payload: (load, gain) for block in blocks for load, gain, payload in block}
        for budget in range(-1, 6):
            value, picks = vi_mod._block_select(blocks, residual, budget)
            if want[0] > budget:
                assert (value, picks) == (math.inf, None)
                pruned += want[0] != math.inf
                continue
            assert value == want[0]
            assert [b for b, _ in picks] == list(range(len(blocks)))
            assert sum(loads[p][1] for p in picks) == value
            for i in range(width):
                assert sum(loads[p][0][i] for p in picks) <= residual[i]
            budgeted += 1
    assert budgeted > 500 and pruned > 100


@pytest.mark.parametrize("n, p, seed, max_calls", [(14, 0.3, 104009, 300), (16, 0.2, 47, 340)])
def test_engine_budgets_and_clamps_block_selection(monkeypatch, n, p, seed, max_calls):
    # Without a budget and a clamped memo key these inputs ran for tens of seconds.
    block_select = vi_mod._block_select
    calls = 0

    def counting(reduced, residual, budget=None):
        nonlocal calls
        assert budget is not None
        calls += 1
        assert calls <= max_calls
        return block_select(reduced, residual, budget)

    monkeypatch.setattr(vi_mod, "_block_select", counting)
    g = gnp(n, p, seed)
    value, cert = solve_vi_opt(g)
    assert value == solve_exact(g)[0]
    rep = verify_orientation(g, cert)
    assert rep.feasible and rep.size == value


def test_engine_computes_the_reach_once_per_selected_set(monkeypatch):
    # The engine enumerates guesses only for a selected set whose blocks are
    # all non-empty, right after it clamps by the reach; block selection
    # takes that clamped key and computes no reach of its own.
    counts = {"reach": 0, "selected": 0, "block_select": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(vi_mod, "_reach", counting("reach", vi_mod._reach))
    monkeypatch.setattr(vi_mod, "_orientations_for_selected",
                        counting("selected", vi_mod._orientations_for_selected))
    monkeypatch.setattr(vi_mod, "_block_select", counting("block_select", vi_mod._block_select))
    g = gnp(14, 0.3, 104009)
    value, _ = solve_vi_opt(g)
    assert value == solve_exact(g)[0]
    assert counts["reach"] == counts["selected"] > 0
    assert counts["block_select"] > counts["selected"]


# --- depth-first catalog walk against the Gray-code walk -----------------------


def _reference_gray_walk(g, mod_order, comp, forced, free):
    """The Gray-code catalog walk: visits every mask over ``free`` in
    increasing order, flipping only the bits that change, and yields the
    masks that keep the component within capacity."""
    c = len(comp)
    slot = {w: i for i, w in enumerate(comp)}
    for i, u in enumerate(mod_order):
        slot[u] = c + i
    cap = [g.capacity[w] for w in comp]
    indeg = [0] * (c + len(mod_order))
    for _, head in forced:
        indeg[slot[head]] += 1
    if any(indeg[i] > cap[i] for i in range(c)):
        return
    ends = [(slot[u], slot[v]) for u, v in free]
    for lo, _ in ends:  # mask 0 points every free edge at its smaller endpoint
        indeg[lo] += 1
    over = sum(1 for i in range(c) if indeg[i] > cap[i])
    positive = sum(1 for i in range(c) if indeg[i] > 0)
    if not over:
        yield tuple(indeg[c:]), positive, 0
    # moves[t]: the (from, to) slot moves of a step whose lowest set bit is
    # t; bits below t go from 1 to 0 and bit t from 0 to 1
    moves = [[(hi, lo) for lo, hi in ends[:t]] + [ends[t]] for t in range(len(ends))]
    for mask in range(1, 1 << len(free)):
        for src, dst in moves[(mask & -mask).bit_length() - 1]:
            if src < c:
                d = indeg[src]
                if d == cap[src] + 1:
                    over -= 1
                if d == 1:
                    positive -= 1
            indeg[src] -= 1
            d = indeg[dst] = indeg[dst] + 1
            if dst < c:
                if d == cap[dst] + 1:
                    over += 1
                if d == 1:
                    positive += 1
        if not over:
            yield tuple(indeg[c:]), positive, mask


def test_component_orientations_match_the_gray_walk_masks_included():
    rng = random.Random(83)
    walks = guess_walks = no_free = forced_over = widest = 0

    def compare(g, mod_order, comp, forced, free):
        nonlocal walks, no_free, forced_over, widest
        got = list(vi_mod._component_orientations(g, mod_order, comp, forced, free))
        assert got == list(_reference_gray_walk(g, mod_order, comp, forced, free))
        walks += 1
        no_free += not free
        widest = max(widest, len(free))
        forced_over += any(
            sum(1 for _, h in forced if h == w) > g.capacity[w] for w in comp
        )

    while walks < 5_000:
        g = _seeded_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.35, 0.5]), above_degree=1)
        if rng.random() < 0.5:
            g = normalize_capacities(g)
        mods = [compute_modulator(g).vertices]
        mods.append(tuple(sorted(rng.sample(range(1, g.n + 1), rng.randint(0, g.n)))))
        for mod in mods:
            comps = components_outside(g, mod)
            internal = [(u, v) for u, v in g.edges if u in mod and v in mod]
            for selected in vi_mod._selected_sets(g, mod):
                forced, free = vi_mod._split_edges(internal, selected)
                if len(free) <= 16:  # the guesses' walk: the modulator as the component
                    compare(g, (), mod, forced, free)
                    guess_walks += 1
                for comp in comps:
                    forced, free = vi_mod._component_edges(g, selected, comp)
                    if len(free) <= 16:
                        compare(g, mod, comp, forced, free)
    assert guess_walks > 500 and no_free > 500 and forced_over > 100 and widest == 16


def test_component_orientations_are_lazy():
    import itertools
    import time
    import tracemalloc

    # K7 minus one edge with capacity = degree: 20 free edges, none binding,
    # so all 2^20 masks are valid
    edges = [e for e in combinations(range(1, 8), 2) if e != (6, 7)]
    bare = graph(7, edges, {})
    g = bare.with_capacity([0] + [bare.deg(v) for v in range(1, 8)])
    comp = tuple(range(1, 8))
    forced, free = vi_mod._component_edges(g, frozenset(), comp)
    assert (forced, len(free)) == ([], 20)

    def first_thousand():
        walk = vi_mod._component_orientations(g, (), comp, forced, free)
        return list(itertools.islice(walk, 1000))

    start = time.perf_counter()
    head = first_thousand()
    assert time.perf_counter() - start < 0.1
    assert [mask for _, _, mask in head] == list(range(1000))
    tracemalloc.start()
    try:
        first_thousand()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    k7 = graph(7, list(combinations(range(1, 8), 2)), {v: 6 for v in range(1, 8)})
    forced, free = vi_mod._component_edges(k7, frozenset(), comp)
    with pytest.raises(CapExceededError, match="21 free edges"):
        next(vi_mod._component_orientations(k7, (), comp, forced, free))


def test_greedy_incumbent_cuts_the_modulator_search_on_a_63_vertex_planted_graph():
    g = _three_hub_graph(random.Random(71), 12)
    assert g.n == 63
    stats = {}
    mod = compute_modulator(g, exact_cap=g.n, stats=stats)
    assert mod == vi_mod.Modulator((35, 41, 55), 8)
    # starting from the empty set's value, the search scored 37,660 sets
    assert stats["modulator_sets"] <= 12_000
