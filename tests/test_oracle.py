import math
import random
import tracemalloc
from itertools import combinations

import pytest

from cvckit import oracle
from cvckit.core import (
    CapacitatedGraph,
    CapExceededError,
    StructuralError,
    assign_edges,
    normalize_capacities,
    verify_orientation,
)
from cvckit.generators import gnp
from cvckit.oracle import (
    ChoiceGroups,
    format_choice_groups,
    parse_choice_groups,
    solve_canonical,
    solve_exact,
    solve_pruned,
)
from cvckit.reductions.smc import SmcInstance, reduce_smc
from bruteforce import brute_min_orientation


def graph(n, edges, caps):
    return CapacitatedGraph.build(n, edges, caps)


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
    g = CapacitatedGraph.build(n, edges, {v: 0 for v in range(1, n + 1)})
    caps = {v: rng.randint(1, g.deg(v)) if g.deg(v) else 0 for v in range(1, n + 1)}
    return CapacitatedGraph.build(n, edges, caps)


# --- solve_exact -----------------------------------------------------------

def test_exact_path_into_middle():
    g = graph(3, [(1, 2), (2, 3)], {1: 1, 2: 2, 3: 1})
    size, cert = solve_exact(g)
    assert size == 1
    assert cert.heads == {(1, 2): 2, (2, 3): 2}


def test_exact_triangle():
    g = graph(3, [(1, 2), (1, 3), (2, 3)], {1: 1, 2: 1, 3: 1})
    assert brute_min_orientation(g)[0] == 3
    size, cert = solve_exact(g)
    assert size == 3 and verify_orientation(g, cert).feasible


def test_exact_edgeless():
    g = graph(4, [], {v: 0 for v in range(1, 5)})
    size, cert = solve_exact(g)
    assert size == 0 and len(cert) == 0


def test_exact_infeasible_instance():
    g = graph(2, [(1, 2)], {1: 0, 2: 0})
    size, cert = solve_exact(g)
    assert size == math.inf and cert is None


def test_exact_refuses_above_cap():
    g = graph(25, [], {v: 0 for v in range(1, 26)})
    with pytest.raises(CapExceededError):
        solve_exact(g)


def test_exact_matches_bruteforce():
    rng = random.Random(42)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 6), rng.choice([0.3, 0.6]))
        if len(g.edges) > 12:
            continue
        expected, _ = brute_min_orientation(g)
        got, cert = solve_exact(g)
        assert got == expected
        if cert is not None:
            rep = verify_orientation(g, cert)
            assert rep.feasible and rep.size == got


def test_exact_monotone_under_capacity_increase():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 6), 0.5)
        bigger = g.with_capacity([c + 1 for c in g.capacity])
        assert solve_exact(bigger)[0] <= solve_exact(g)[0]


def test_exact_filters_sets_before_flow(monkeypatch):
    calls = []

    def counting(g, sel):
        calls.append(sel)
        return assign_edges(g, sel)

    monkeypatch.setattr(oracle, "assign_edges", counting)
    assert solve_exact(gnp(16, 0.3, 3))[0] == 12
    assert len(calls) <= 10


def reference_exact(g):
    g = normalize_capacities(g)
    candidates = [v for v in g.vertices() if g.deg(v) >= 1 and g.capacity[v] >= 1]
    for size in range(len(candidates) + 1):
        for sel in combinations(candidates, size):
            o = assign_edges(g, sel)
            if o is not None:
                return size, o
    return math.inf, None


def test_exact_certificate_matches_plain_enumeration():
    rng = random.Random(7)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 10), rng.choice([0.2, 0.4, 0.7]))
        assert solve_exact(g) == reference_exact(g)


# --- solve_pruned ----------------------------------------------------------

def test_pruned_k2():
    g = graph(2, [(1, 2)], {1: 1, 2: 1})
    assert solve_pruned(g, 0)[0] is False
    yes, cert = solve_pruned(g, 1)
    assert yes and verify_orientation(g, cert).feasible


def test_pruned_forces_star_center():
    # k+1 = 4 pendant leaves on vertex 1 with k = 3
    g = graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)], {1: 4, 2: 1, 3: 1, 4: 1, 5: 1})
    yes, cert = solve_pruned(g, 3)
    assert yes
    assert verify_orientation(g, cert).size <= 3
    assert (solve_exact(g)[0] <= 3) == yes


def test_pruned_agrees_with_exact():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 7), 0.5)
        minsize, _ = solve_exact(g)
        for k in range(0, g.n + 1):
            yes, cert = solve_pruned(g, k)
            assert yes == (minsize <= k)
            if yes:
                rep = verify_orientation(g, cert)
                assert rep.feasible and rep.size <= k


def test_pruned_with_leaf_bundles():
    # star vertex over capacity: some pendant edges must land on leaves
    edges = [(1, v) for v in range(2, 8)]
    g = graph(7, edges, {1: 3, **{v: 1 for v in range(2, 8)}})
    minsize, _ = solve_exact(g)
    assert minsize == 4  # vertex 1 plus three leaves
    assert solve_pruned(g, 3)[0] is False
    yes, cert = solve_pruned(g, 4)
    assert yes and verify_orientation(g, cert).size <= 4


# --- solve_canonical -------------------------------------------------------

def test_canonical_single_group():
    g = graph(2, [(1, 2)], {1: 1, 2: 1})
    meta = ChoiceGroups(frozenset(), (frozenset({1, 2}),), frozenset())
    yes, cert = solve_canonical(g, meta, 1)
    assert yes and verify_orientation(g, cert).feasible


def test_canonical_forced_over_budget():
    g = graph(3, [(1, 2), (2, 3)], {1: 1, 2: 2, 3: 1})
    meta = ChoiceGroups(frozenset({1, 2, 3}), (), frozenset())
    assert solve_canonical(g, meta, 2) == (False, None)


def test_canonical_rejects_overlapping_groups():
    g = graph(3, [(1, 2), (2, 3)], {1: 1, 2: 2, 3: 1})
    meta = ChoiceGroups(frozenset({1}), (frozenset({1, 2}),), frozenset())
    with pytest.raises(StructuralError):
        solve_canonical(g, meta, 2)


def test_canonical_free_pool_budget():
    # two forced stars, one optional helper; helper needed only at k >= 3
    g = graph(4, [(1, 2), (1, 3), (1, 4)], {1: 2, 2: 1, 3: 1, 4: 1})
    meta = ChoiceGroups(frozenset({1}), (), frozenset({2, 3, 4}))
    assert solve_canonical(g, meta, 1) == (False, None)
    yes, cert = solve_canonical(g, meta, 2)
    assert yes and verify_orientation(g, cert).size <= 2


def test_canonical_respects_space_restriction():
    # feasible overall, but not with the canonical vertices only
    g = graph(3, [(1, 2), (2, 3)], {1: 1, 2: 0, 3: 1})
    meta = ChoiceGroups(frozenset({2}), (), frozenset())
    assert solve_canonical(g, meta, 3) == (False, None)
    assert solve_exact(g)[0] == 2


def test_canonical_folds_outside_vertices():
    # vertex 3 outside the space: its edge preloads vertex 2
    g = graph(3, [(1, 2), (2, 3)], {1: 1, 2: 2, 3: 1})
    meta = ChoiceGroups(frozenset(), (frozenset({1, 2}),), frozenset())
    yes, cert = solve_canonical(g, meta, 1)
    assert yes
    rep = verify_orientation(g, cert)
    assert rep.feasible and rep.size == 1
    assert cert.heads[(2, 3)] == 2


def test_canonical_one_group_per_edge_of_a_long_matching():
    # 1,200 groups: the group-choice search is deeper than the recursion limit
    n = 2400
    edges = [(2 * i - 1, 2 * i) for i in range(1, n // 2 + 1)]
    g = graph(n, edges, [1] * n)
    meta = ChoiceGroups(frozenset(), tuple(frozenset(e) for e in edges), frozenset())
    yes, cert = solve_canonical(g, meta, n // 2)
    assert yes
    rep = verify_orientation(g, cert)
    assert rep.feasible and rep.size == n // 2


# --- metadata files --------------------------------------------------------

def test_choice_groups_roundtrip():
    meta = ChoiceGroups(frozenset({1, 2}), (frozenset({3, 4}), frozenset({5})), frozenset({6}))
    parsed = parse_choice_groups(format_choice_groups(meta))
    assert parsed == meta


# --- solve_pruned: cover branching over twin classes ----------------------

def with_pendant_bundles(rng, g):
    """``g`` with 0-4 extra leaves on up to two of its vertices, every
    capacity redrawn from 0..deg."""
    edges, n = list(g.edges), g.n
    for centre in rng.sample(range(1, g.n + 1), min(2, g.n)):
        for _ in range(rng.randint(0, 4)):
            n += 1
            edges.append((centre, n))
    bare = CapacitatedGraph.build(n, edges, [0] * (n + 1))
    return bare.with_capacity([0] + [rng.randint(0, bare.deg(v)) for v in bare.vertices()])


def planted_hubs(n, hubs, seed):
    """Every edge touches one of ``hubs`` vertices 1..hubs, each of
    capacity equal to its degree, so those hubs are a solution."""
    rng = random.Random(seed)
    edges = {(h, v) for v in range(hubs + 1, n + 1) for h in rng.sample(range(1, hubs + 1), rng.randint(1, 3))}
    edges |= {(a, b) for a in range(1, hubs + 1) for b in range(a + 1, hubs + 1) if rng.random() < 0.3}
    bare = CapacitatedGraph.build(n, edges, [0] * (n + 1))
    caps = [bare.deg(v) if v <= hubs else rng.randint(0, bare.deg(v)) for v in bare.vertices()]
    return bare.with_capacity([0] + caps)


def test_pruned_agrees_with_exact_on_pendant_bundles():
    rng = random.Random(2026)
    for _ in range(300):
        g = with_pendant_bundles(rng, random_graph(rng, rng.randint(1, 10), rng.choice([0.2, 0.4, 0.7])))
        minsize, _ = solve_exact(g)
        for k in range(0, g.n + 2):
            yes, cert = solve_pruned(g, k)
            assert yes == (minsize <= k)
            if yes:
                rep = verify_orientation(g, cert)
                assert rep.feasible and rep.size <= k


def test_pruned_decides_planted_hubs_on_100_vertices():
    g = planted_hubs(100, 10, 1)
    assert min(g.deg(h) for h in range(1, 11)) > 10
    yes, cert = solve_pruned(g, 10)
    rep = verify_orientation(g, cert)
    assert yes and rep.feasible and rep.size <= 10
    assert solve_pruned(g, 9) == (False, None)


def test_pruned_refuses_before_any_assignment(monkeypatch):
    calls = []

    def counting(g, sel):
        calls.append(sel)
        return assign_edges(g, sel)

    monkeypatch.setattr(oracle, "assign_edges", counting)
    with pytest.raises(CapExceededError):
        solve_pruned(gnp(30, 0.3, 1), 25)  # too many branch nodes
    with pytest.raises(CapExceededError):
        solve_pruned(planted_hubs(100, 10, 1), 14)  # one cover, too many count vectors
    assert calls == []


def test_count_vectors_has_no_recursion_depth_limit():
    assert list(oracle._count_vectors([1] * 1500, 1500)) == [dict.fromkeys(range(1500), 1)]


def test_pruned_answers_a_forced_centre_at_any_k():
    # centre 1 takes 10 of its 30 edges, so 20 leaves must take the rest
    star = graph(31, [(1, v) for v in range(2, 32)], {1: 10, **{v: 1 for v in range(2, 32)}})
    for k in range(18, 32):
        yes, cert = solve_pruned(star, k)
        assert yes == (k >= 21)
        if yes:
            rep = verify_orientation(star, cert)
            assert rep.feasible and rep.size <= k


def test_pruned_answers_smc_with_identical_sets():
    red = reduce_smc(SmcInstance(2, (frozenset({1, 2}),) * 20, 1, 16))
    yes, cert = solve_pruned(red.graph, red.budget)
    rep = verify_orientation(red.graph, cert)
    assert yes and rep.feasible and rep.size <= red.budget


def test_canonical_memory_is_linear_in_the_groups():
    # 600 groups of two: a stack of chosen sets held about 8.5 MB here
    n = 1200
    edges = [(2 * i - 1, 2 * i) for i in range(1, n // 2 + 1)]
    g = graph(n, edges, [1] * n)
    meta = ChoiceGroups(frozenset(), tuple(frozenset(e) for e in edges), frozenset())
    tracemalloc.start()
    try:
        yes, cert = solve_canonical(g, meta, n // 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert yes and verify_orientation(g, cert).size == n // 2
    assert peak < 2_000_000
