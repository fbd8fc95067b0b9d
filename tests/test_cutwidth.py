import math
import random
from array import array

import pytest

from cvckit.core import CapacitatedGraph, CapExceededError, StructuralError, verify_orientation
from cvckit.cutwidth import (
    DpLayer,
    LinearArrangement,
    _scatter_table,
    base_layer,
    cut_edges,
    cutwidth_of,
    find_arrangement,
    format_arrangement,
    parse_arrangement,
    process_layer,
    solve_cutdp,
    solve_cutdp_detailed,
)
from cvckit.generators import gnp, layered_with_ctw, sparse_with_fes
from cvckit.oracle import solve_exact
from bruteforce import brute_min_orientation


def graph(n, edges, caps):
    return CapacitatedGraph.build(n, edges, caps)


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
    g = CapacitatedGraph.build(n, edges, {v: 0 for v in range(1, n + 1)})
    caps = {v: rng.randint(1, g.deg(v)) if g.deg(v) else 0 for v in range(1, n + 1)}
    return CapacitatedGraph.build(n, edges, caps)


def random_arrangement(rng, n):
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return LinearArrangement(tuple(order))


# --- cuts ------------------------------------------------------------------

def test_cut_edges_path():
    g = graph(3, [(1, 2), (2, 3)], {1: 1, 2: 2, 3: 1})
    arr = LinearArrangement((1, 2, 3))
    assert cut_edges(g, arr, 1) == [(1, 2)]
    assert cut_edges(g, arr, 2) == [(2, 3)]
    assert cut_edges(g, arr, 0) == [] and cut_edges(g, arr, 3) == []


def test_cut_edges_k4_middle():
    edges = [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]
    g = graph(4, edges, {v: 2 for v in range(1, 5)})
    arr = LinearArrangement((1, 2, 3, 4))
    assert len(cut_edges(g, arr, 2)) == 4


def test_cutwidth_path_and_k4():
    gp = graph(4, [(1, 2), (2, 3), (3, 4)], {v: 1 for v in range(1, 5)})
    assert cutwidth_of(gp, LinearArrangement((1, 2, 3, 4))) == 1
    edges = [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]
    gk = graph(4, edges, {v: 2 for v in range(1, 5)})
    assert cutwidth_of(gk, LinearArrangement((1, 2, 3, 4))) == 4
    ge = graph(3, [], {v: 0 for v in (1, 2, 3)})
    assert cutwidth_of(ge, LinearArrangement((1, 2, 3))) == 0


@pytest.mark.parametrize("order", [(1, 2, 3), (1, 2, 3, 4, 5)])
def test_cutwidth_of_refuses_an_arrangement_of_another_size(order):
    gp = graph(4, [(1, 2), (2, 3), (3, 4)], {v: 1 for v in range(1, 5)})
    with pytest.raises(StructuralError, match="arrangement size does not match"):
        cutwidth_of(gp, LinearArrangement(order))
    with pytest.raises(StructuralError, match="arrangement size does not match"):
        solve_cutdp(gp, LinearArrangement(order))


# --- layer transitions -----------------------------------------------------

def test_layer_k2_values():
    g = graph(2, [(1, 2)], {1: 1, 2: 1})
    arr = LinearArrangement((1, 2))
    layer1 = process_layer(base_layer(), g, arr, 1)
    # signature int 0 = bits (0,) = right-to-left (into vertex 1)
    assert layer1.values[0] == 1
    assert layer1.values[1] == 0


def test_layer_capacity_zero_blocks_incoming():
    g = graph(2, [(1, 2)], {1: 0, 2: 1})
    arr = LinearArrangement((1, 2))
    layer1 = process_layer(base_layer(), g, arr, 1)
    assert layer1.values[0] == -1  # no feasible orientation
    assert layer1.values[1] == 0


def test_layer_table_sizes_are_exact():
    rng = random.Random(2)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 7), 0.5)
        arr = random_arrangement(rng, g.n)
        _, _, layers = solve_cutdp_detailed(g, arr)
        for i, layer in enumerate(layers):
            assert layer.table_size == 2 ** len(cut_edges(g, arr, i))
            finite = [val for val in layer.values if val >= 0]
            assert all(val <= i for val in finite)


def test_p3_final_value():
    g = graph(3, [(1, 2), (2, 3)], {1: 1, 2: 2, 3: 1})
    assert brute_min_orientation(g)[0] == 1
    minsize, cert = solve_cutdp(g, LinearArrangement((1, 2, 3)))
    assert minsize == 1 and verify_orientation(g, cert).size == 1


# --- full solver -----------------------------------------------------------

def test_cutdp_triangle_any_arrangement():
    g = graph(3, [(1, 2), (1, 3), (2, 3)], {v: 1 for v in range(1, 4)})
    for order in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]:
        minsize, cert = solve_cutdp(g, LinearArrangement(order))
        assert minsize == 3 and verify_orientation(g, cert).feasible


def test_cutdp_c4():
    g = graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], {1: 2, 2: 1, 3: 2, 4: 1})
    minsize, cert = solve_cutdp(g, LinearArrangement((1, 2, 3, 4)))
    assert minsize == 2 and verify_orientation(g, cert).size == 2


def test_cutdp_edgeless():
    g = graph(3, [], {v: 0 for v in (1, 2, 3)})
    minsize, cert = solve_cutdp(g, LinearArrangement((1, 2, 3)))
    assert minsize == 0 and len(cert) == 0


def test_cutdp_infeasible():
    g = graph(2, [(1, 2)], {1: 0, 2: 0})
    minsize, cert = solve_cutdp(g, LinearArrangement((1, 2)))
    assert minsize == math.inf and cert is None


def test_cutdp_matches_exact_any_arrangement():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 7), rng.choice([0.3, 0.6]))
        arr = random_arrangement(rng, g.n)
        expected, _ = solve_exact(g)
        got, cert = solve_cutdp(g, arr)
        assert got == expected
        if cert is not None:
            rep = verify_orientation(g, cert)
            assert rep.feasible and rep.size == got


def test_certificate_signatures_consistent():
    rng = random.Random(23)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 6), 0.6)
        arr = random_arrangement(rng, g.n)
        minsize, cert, layers = solve_cutdp_detailed(g, arr)
        if cert is None:
            continue
        pos = arr.position
        # walk the stored predecessor chain and compare with the certificate
        sig = 0
        for i in range(g.n, 0, -1):
            layer = layers[i]
            k = len(layer.edges)
            for idx, (left, right) in enumerate(layer.edges):
                bit = (sig >> (k - 1 - idx)) & 1
                e = (left, right) if left < right else (right, left)
                head = right if bit else left
                assert cert.heads[e] == head
            sig = layer.preds[sig]


def test_layer_work_bound():
    rng = random.Random(31)
    for _ in range(10):
        g = random_graph(rng, rng.randint(3, 7), 0.5)
        arr = random_arrangement(rng, g.n)
        _, _, layers = solve_cutdp_detailed(g, arr)
        for i in range(1, g.n + 1):
            bound = (2 ** len(layers[i - 1].edges) + 2 ** len(layers[i].edges)) * g.n**2
            assert layers[i].work <= 2 * bound


# --- arrangements ----------------------------------------------------------

def test_exact_arrangement_path():
    g = graph(4, [(1, 2), (2, 3), (3, 4)], {v: 1 for v in range(1, 5)})
    arr = find_arrangement(g, "exact")
    assert cutwidth_of(g, arr) == 1


def test_exact_arrangement_k4():
    edges = [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]
    g = graph(4, edges, {v: 2 for v in range(1, 5)})
    arr = find_arrangement(g, "exact")
    assert cutwidth_of(g, arr) == 4  # every ordering of K4 has a 4-cut


def test_exact_arrangement_matches_permutation_search():
    from itertools import permutations

    rng = random.Random(41)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 6), 0.5)
        best = min(
            cutwidth_of(g, LinearArrangement(p)) for p in permutations(range(1, g.n + 1))
        )
        arr = find_arrangement(g, "exact")
        assert cutwidth_of(g, arr) == best


def test_heuristic_never_beats_exact():
    rng = random.Random(43)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 7), 0.5)
        h = cutwidth_of(g, find_arrangement(g, "heuristic"))
        e = cutwidth_of(g, find_arrangement(g, "exact"))
        assert h >= e


def test_exact_arrangement_refuses_above_cap():
    g = graph(18, [], {v: 0 for v in range(1, 19)})
    with pytest.raises(CapExceededError):
        find_arrangement(g, "exact", exact_cap=16)


def test_arrangement_file_roundtrip():
    arr = LinearArrangement((3, 1, 2))
    assert parse_arrangement(format_arrangement(arr)) == arr


def _directions(edges, sig):
    k = len(edges)
    return {e: (sig >> (k - 1 - idx)) & 1 for idx, e in enumerate(edges)}


def test_layer_entries_match_brute_force_transition():
    """Each entry is the lexicographic min of (value + [v occupied], predecessor
    signature) over the predecessors that agree on the common edges and keep
    v within capacity, or (-1, -1) when there is none."""
    rng = random.Random(53)
    for _ in range(80):
        n = rng.randint(2, 7)
        edges = [(u, w) for u in range(1, n + 1) for w in range(u + 1, n + 1) if rng.random() < 0.45]
        deg = {x: sum(x in e for e in edges) for x in range(1, n + 1)}
        g = graph(n, edges, {x: rng.randint(0, deg[x] + 1) for x in range(1, n + 1)})
        arr = random_arrangement(rng, n)
        _, _, layers = solve_cutdp_detailed(g, arr)
        for i in range(1, n + 1):
            prev, cur, v = layers[i - 1], layers[i], arr.order[i - 1]
            prev_dirs = [_directions(prev.edges, sp) for sp in range(prev.table_size)]
            for sq in range(cur.table_size):
                here = _directions(cur.edges, sq)
                # bit 1 points an edge at its right endpoint
                into_v = sum(1 for (left, _), bit in here.items() if left == v and bit == 0)
                best = (-1, -1)
                for sp, there in enumerate(prev_dirs):
                    val = prev.values[sp]
                    if val < 0 or any(here.get(e, bit) != bit for e, bit in there.items()):
                        continue
                    indeg = into_v + sum(bit for (_, right), bit in there.items() if right == v)
                    if indeg > g.capacity[v]:
                        continue
                    cand = (val + (indeg > 0), sp)
                    if best[0] < 0 or cand < best:
                        best = cand
                assert (cur.values[sq], cur.preds[sq]) == best


# Reference transition: derives each cut with ``cut_edges`` and places the
# bits through four scatter tables.  ``process_layer`` must build the same
# layers, at no more work, from the previous cut.
def reference_process_layer(prev: DpLayer, g: CapacitatedGraph, arr: LinearArrangement, i: int) -> DpLayer:
    """Advance the DP across the vertex at position i.

    Splits the previous cut into edges that persist (their direction is
    fixed first), edges ending at the new vertex (bucketed by how many
    point at it), and new edges leaving it (scanned once per target).
    """
    if prev.cut_index != i - 1:
        raise StructuralError("layers must be processed in position order")
    v = arr.order[i - 1]
    cap_v = g.capacity[v]
    cur_edges = cut_edges(g, arr, i)

    np_ = len(prev.edges)
    nq = len(cur_edges)
    prev_bit = {e: np_ - 1 - idx for idx, e in enumerate(prev.edges)}
    cur_bit = {e: nq - 1 - idx for idx, e in enumerate(cur_edges)}

    common = [e for e in prev.edges if e in cur_bit]
    left_in = [e for e in prev.edges if e not in cur_bit]  # all end at v
    right_out = [e for e in cur_edges if e not in prev_bit]  # all start at v
    nc, nl, nr = len(common), len(left_in), len(right_out)

    tau_prev = _scatter_table(nc, [prev_bit[e] for e in common])
    tau_cur = _scatter_table(nc, [cur_bit[e] for e in common])
    l_scatter = _scatter_table(nl, [prev_bit[e] for e in left_in])
    r_scatter = _scatter_table(nr, [cur_bit[e] for e in right_out])

    pv = prev.values
    values = array("q", [-1]) * (1 << nq)
    preds = array("q", [-1]) * (1 << nq)

    NL, NR = 1 << nl, 1 << nr
    work = 0
    for ti in range(1 << nc):
        tsp = tau_prev[ti]
        tsq = tau_cur[ti]
        bucket_v = [-1] * (nl + 1)
        bucket_s = [-1] * (nl + 1)
        for lm in range(NL):
            sp = tsp | l_scatter[lm]
            val = pv[sp]
            if val < 0:
                continue
            t = lm.bit_count()  # edges entering v from the left
            bv = bucket_v[t]
            if bv < 0 or val < bv or (val == bv and sp < bucket_s[t]):
                bucket_v[t] = val
                bucket_s[t] = sp
        # prefix minima over buckets 1..t, with the lexicographically
        # smallest predecessor signature breaking ties
        pp_v = [-1] * (nl + 1)
        pp_s = [-1] * (nl + 1)
        run_v, run_s = -1, -1
        for t in range(1, nl + 1):
            bv, bs = bucket_v[t], bucket_s[t]
            if bv >= 0 and (run_v < 0 or bv < run_v or (bv == run_v and bs < run_s)):
                run_v, run_s = bv, bs
            pp_v[t] = run_v
            pp_s[t] = run_s
        for rm in range(NR):
            b = nr - rm.bit_count()  # edges entering v from the right
            rem = cap_v - b
            if rem < 0:
                continue
            tmax = rem if rem < nl else nl
            # bucket 0 occupies v only through right edges; buckets 1..tmax always do
            val, sp = bucket_v[0], bucket_s[0]
            if val >= 0 and b > 0:
                val += 1
            alt = pp_v[tmax]
            if alt >= 0:
                alt += 1
                if val < 0 or alt < val or (alt == val and pp_s[tmax] < sp):
                    val, sp = alt, pp_s[tmax]
            if val < 0:
                continue
            sq = tsq | r_scatter[rm]
            values[sq] = val
            preds[sq] = sp
        work += NL + NR + nl + 1
    work += (1 << nc) + NL + NR  # scatter-table construction
    return DpLayer(i, cur_edges, values, preds, work)


def test_layer_transition_matches_reference():
    rng = random.Random(59)
    for _ in range(150):
        n = rng.randint(1, 8)
        edges = [(u, w) for u in range(1, n + 1) for w in range(u + 1, n + 1) if rng.random() < 0.4]
        deg = {x: sum(x in e for e in edges) for x in range(1, n + 1)}
        g = graph(n, edges, {x: rng.randint(0, deg[x] + 1) for x in range(1, n + 1)})
        arr = random_arrangement(rng, n)
        prev = base_layer()
        for i in range(1, n + 1):
            layer = process_layer(prev, g, arr, i)
            ref = reference_process_layer(prev, g, arr, i)
            assert layer.edges == ref.edges == tuple(cut_edges(g, arr, i))
            assert layer.values == ref.values and layer.preds == ref.preds
            assert layer.work <= ref.work
            prev = layer


def test_wide_cut_layers_match_reference():
    """Cuts up to 16 edges wide: kept patterns past one block of the
    transition, keys shifted by up to 16 bits, and capacities drawn from
    0..deg(v) so that infeasible entries sit among feasible ones.  The
    seeds are ones whose widest layers keep feasible entries."""
    for s in (0, 10):
        base = layered_with_ctw(40, 16, s, extra=6)
        rng = random.Random(s)
        g = graph(base.n, base.edges, {v: rng.randint(0, base.deg(v)) for v in range(1, base.n + 1)})
        arr = LinearArrangement(tuple(range(1, g.n + 1)))
        prev = base_layer()
        widest = []
        for i in range(1, g.n + 1):
            layer = process_layer(prev, g, arr, i)
            ref = reference_process_layer(prev, g, arr, i)
            assert layer.edges == ref.edges
            assert layer.values == ref.values and layer.preds == ref.preds
            nr = sum(1 for left, _ in layer.edges if left == arr.order[i - 1])
            assert layer.work == ref.work - (1 << nr)  # the reference also builds a 2^nr scatter table
            if len(layer.edges) == 16:
                widest.append(layer)
            prev = layer
        assert widest and all(0 < sum(x >= 0 for x in layer.values) < layer.table_size for layer in widest)


def test_heuristic_arrangement_is_a_local_optimum():
    """No single reinsertion of one vertex narrows the heuristic's widest cut."""
    rng = random.Random(61)
    graphs = [gnp(11, 0.3, 0)] + [random_graph(rng, rng.randint(4, 10), 0.4) for _ in range(8)]
    for g in graphs:
        arr = find_arrangement(g, "heuristic")
        width = cutwidth_of(g, arr)
        for v in arr.order:
            rest = [w for w in arr.order if w != v]
            for slot in range(g.n):
                moved = LinearArrangement(tuple(rest[:slot] + [v] + rest[slot:]))
                assert cutwidth_of(g, moved) >= width


def reference_heuristic_arrangement(g):
    """Breadth-first start, then first-improvement reinsertion that builds and
    measures every candidate arrangement: vertices in order, then slots."""
    seen = [False] * (g.n + 1)
    order = []
    for s in sorted(range(1, g.n + 1), key=lambda v: (g.deg(v), v)):
        if seen[s]:
            continue
        queue = [s]
        seen[s] = True
        for v in queue:
            order.append(v)
            for w in g.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    current = LinearArrangement(tuple(order))
    while True:
        width = cutwidth_of(g, current)
        candidates = (
            LinearArrangement(tuple(rest[:slot] + [v] + rest[slot:]))
            for v in current.order
            for rest in [[w for w in current.order if w != v]]
            for slot in range(g.n)
        )
        better = next((c for c in candidates if cutwidth_of(g, c) < width), None)
        if better is None:
            return current
        current = better


def relabelled(g, rng):
    perm = [0] + rng.sample(range(1, g.n + 1), g.n)
    caps = {perm[v]: g.capacity[v] for v in g.vertices()}
    return CapacitatedGraph.build(g.n, [(perm[u], perm[v]) for u, v in g.edges], caps)


def test_heuristic_arrangement_matches_reference():
    rng = random.Random(3)
    graphs = [relabelled(layered_with_ctw(30, 4, s, extra=12), rng) for s in range(4)]
    graphs += [gnp(14, 0.3, s) for s in range(4)] + [sparse_with_fes(30, 6, s) for s in range(4)]
    graphs += [random_graph(rng, rng.randint(1, 12), 0.3) for _ in range(12)]
    for g in graphs:
        assert find_arrangement(g, "heuristic") == reference_heuristic_arrangement(g)
