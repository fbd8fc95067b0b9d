import itertools
import math
import random

import pytest

import cvckit.fes as fes_module
from cvckit.core import CapacitatedGraph, CapExceededError, normalize_capacities, verify_orientation
from cvckit.fes import ForestInstance, feedback_edge_set, forest_dp, solve_fes
from cvckit.generators import sparse_with_fes
from cvckit.oracle import solve_exact
from bruteforce import brute_forest_min, brute_min_orientation


def graph(n, edges, caps):
    return CapacitatedGraph.build(n, edges, caps)


def random_forest(rng, n):
    edges = []
    for v in range(2, n + 1):
        if rng.random() < 0.9:
            edges.append((rng.randint(1, v - 1), v))
    g = CapacitatedGraph.build(n, edges, {v: 0 for v in range(1, n + 1)})
    caps = {v: rng.randint(0, max(g.deg(v), 1)) for v in range(1, n + 1)}
    return CapacitatedGraph.build(n, edges, caps)


# --- feedback_edge_set -----------------------------------------------------

def test_fes_of_tree_is_empty():
    g = graph(4, [(1, 2), (2, 3), (2, 4)], {v: 1 for v in range(1, 5)})
    assert feedback_edge_set(g) == ()


def test_fes_of_triangle():
    g = graph(3, [(1, 2), (1, 3), (2, 3)], {v: 1 for v in range(1, 4)})
    assert len(feedback_edge_set(g)) == 1


def test_fes_of_two_triangles():
    edges = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]
    g = graph(6, edges, {v: 1 for v in range(1, 7)})
    assert len(feedback_edge_set(g)) == 2


def test_fes_size_formula():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 8)
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.4]
        g = CapacitatedGraph.build(n, edges, {v: 1 for v in range(1, n + 1)})
        comps = _component_count(g)
        assert len(feedback_edge_set(g)) == len(g.edges) - g.n + comps


def _component_count(g):
    seen = set()
    comps = 0
    for s in range(1, g.n + 1):
        if s in seen:
            continue
        comps += 1
        stack = [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return comps


# --- forest_dp -------------------------------------------------------------

def test_forest_dp_single_edge():
    g = graph(2, [(1, 2)], {1: 1, 2: 1})
    fi = ForestInstance(g, g.edges, ())
    assert forest_dp(fi)[0] == 1


def test_forest_dp_star():
    g = graph(5, [(1, v) for v in range(2, 6)], {1: 4, 2: 1, 3: 1, 4: 1, 5: 1})
    value, cert = forest_dp(ForestInstance(g, g.edges, ()))
    assert value == 1 and verify_orientation(g, cert).size == 1


def test_forest_dp_p4_unit_capacities():
    # P4 with unit capacities: every edge needs its own receiving vertex.
    g = graph(4, [(1, 2), (2, 3), (3, 4)], {v: 1 for v in range(1, 5)})
    assert brute_forest_min(g, [0] * 5) == 3
    assert forest_dp(ForestInstance(g, g.edges, ()))[0] == 3


def test_forest_dp_infeasible_preload():
    g = graph(3, [(1, 2), (1, 3), (2, 3)], {1: 1, 2: 1, 3: 1})
    forest = ((1, 2), (1, 3))
    fi = ForestInstance(g, forest, (((2, 3), 2),))
    value, cert = forest_dp(fi)
    assert value in (2, 3) and cert is not None  # preload on 2 is fine here
    heavy = graph(3, [(1, 2), (1, 3), (2, 3)], {1: 1, 2: 0, 3: 1})
    fi2 = ForestInstance(heavy, forest, (((2, 3), 2),))
    assert forest_dp(fi2) == (math.inf, None)


def test_forest_dp_matches_bruteforce_with_preloads():
    rng = random.Random(21)
    for _ in range(60):
        g = random_forest(rng, rng.randint(2, 9))
        preload = [0] * (g.n + 1)
        for v in range(1, g.n + 1):
            if rng.random() < 0.3:
                preload[v] = rng.randint(0, 2)
        fi = _with_phantom_preload(g, preload)
        expected = brute_forest_min(g, preload)
        got, cert = forest_dp(fi)
        assert got == expected
        if cert is not None:
            assert verify_orientation(fi.graph, cert).feasible


def _with_phantom_preload(g, preload):
    """Encode preloads as forced arcs from phantom cap-0 pendant vertices."""
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


# --- solve_fes -------------------------------------------------------------

def test_solve_fes_triangle():
    g = graph(3, [(1, 2), (1, 3), (2, 3)], {v: 1 for v in range(1, 4)})
    value, cert = solve_fes(g)
    assert value == 3 and verify_orientation(g, cert).feasible


def test_solve_fes_tree_equals_forest_dp():
    g = graph(5, [(1, 2), (2, 3), (3, 4), (3, 5)], {1: 1, 2: 2, 3: 3, 4: 1, 5: 1})
    direct = forest_dp(ForestInstance(g, g.edges, ()))[0]
    assert solve_fes(g)[0] == direct


def test_solve_fes_c4():
    g = graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], {1: 2, 2: 1, 3: 2, 4: 1})
    assert brute_min_orientation(g)[0] == 2
    value, cert = solve_fes(g)
    assert value == 2 and verify_orientation(g, cert).size == 2


def test_solve_fes_matches_exact():
    rng = random.Random(33)
    for _ in range(50):
        n = rng.randint(2, 7)
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.5]
        g = CapacitatedGraph.build(n, edges, {v: 0 for v in range(1, n + 1)})
        caps = {v: rng.randint(0, max(g.deg(v), 1)) for v in range(1, n + 1)}
        g = CapacitatedGraph.build(n, edges, caps)
        exact, _ = solve_exact(g)
        got, cert = solve_fes(g)
        assert got == exact
        if cert is not None:
            assert verify_orientation(g, cert).feasible


def test_solve_fes_matches_cutdp_on_sparse_instances():
    # two independent algorithms on larger sparse graphs
    from cvckit.cutwidth import find_arrangement, solve_cutdp
    from cvckit.generators import sparse_with_fes

    for seed in range(12):
        n = 12 + (seed * 3) % 19  # up to 30 vertices
        g = sparse_with_fes(n, seed % 7, seed)
        arr = find_arrangement(g, "heuristic")
        a, cert_a = solve_fes(g)
        b, cert_b = solve_cutdp(g, arr)
        assert a == b
        if cert_a is not None:
            assert verify_orientation(g, cert_a).size == a
            assert verify_orientation(g, cert_b).size == a


def test_solve_fes_refuses_above_cap():
    n = 9
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    g = CapacitatedGraph.build(n, edges, {v: 4 for v in range(1, n + 1)})
    with pytest.raises(CapExceededError):
        solve_fes(g, fes_cap=10)


def test_greedy_prefix_equals_exhaustive_per_node():
    # exhaustive subset choice at every vertex must match the prefix rule
    from bruteforce import forest_dp_exhaustive

    rng = random.Random(55)
    for _ in range(40):
        g = random_forest(rng, rng.randint(2, 10))
        if max((g.deg(v) for v in range(1, g.n + 1)), default=0) > 6:
            continue
        fi = ForestInstance(g, g.edges, ())
        assert forest_dp(fi)[0] == forest_dp_exhaustive(g)


# --- incremental guessing ----------------------------------------------------

def test_solve_fes_builds_few_forest_dps(monkeypatch):
    # the DP bound prunes almost every leaf; forest_dp runs only for improving ones
    calls = []
    real = fes_module.forest_dp

    def counted(fi):
        calls.append(fi)
        return real(fi)

    monkeypatch.setattr(fes_module, "forest_dp", counted)
    g = sparse_with_fes(60, 14, 1)
    value, cert = solve_fes(g)
    assert value == 33 and verify_orientation(g, cert).size == 33
    assert 1 <= len(calls) <= 64


def test_solve_fes_builds_one_certificate_per_solve(monkeypatch):
    calls = []
    real = fes_module.forest_dp

    def counted(fi):
        calls.append(fi)
        return real(fi)

    monkeypatch.setattr(fes_module, "forest_dp", counted)
    for seed in range(24):
        calls.clear()
        g = sparse_with_fes(60, 9, seed)
        value, cert = solve_fes(g)
        assert len(calls) == (cert is not None)
        if cert is not None:
            assert verify_orientation(g, cert).size == value


def _every_leaf_fes(g):
    """Plain reference: forest_dp on every leaf in guess order, first strict
    improvement kept."""
    g = normalize_capacities(g)
    extra = feedback_edge_set(g)
    forest = tuple(e for e in g.edges if e not in extra)
    best, best_cert = math.inf, None
    for chosen in itertools.product(*extra):  # depth-first, u before v
        preload = [0] * (g.n + 1)
        for head in chosen:
            preload[head] += 1
        if any(preload[v] > g.capacity[v] for v in range(1, g.n + 1)):
            continue
        value, cert = forest_dp(ForestInstance(g, forest, tuple(zip(extra, chosen))))
        if value < best:
            best, best_cert = value, cert
    return best, best_cert


def test_solve_fes_identical_to_every_leaf_reference():
    rng = random.Random(77)
    checked = 0
    for seed in range(48):
        if seed % 2:
            g = sparse_with_fes(10 + seed % 11, seed % 9, seed)
        else:
            n = rng.randint(3, 9)
            edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.4]
            g = CapacitatedGraph.build(n, edges, {v: 0 for v in range(1, n + 1)})
            g = CapacitatedGraph.build(n, edges, {v: rng.randint(0, max(g.deg(v), 1)) for v in range(1, n + 1)})
        if len(feedback_edge_set(g)) > 8:
            continue
        checked += 1
        want, want_cert = _every_leaf_fes(g)
        got, got_cert = solve_fes(g)
        assert got == want
        assert (got_cert is None) == (want_cert is None)
        if got_cert is not None:
            assert got_cert.heads == want_cert.heads
    assert checked >= 40


def test_forest_optimum_is_monotone_in_preload():
    # the premise of the DP-value prune, checked by raw enumeration
    rng = random.Random(91)
    for _ in range(120):
        g = random_forest(rng, rng.randint(2, 8))
        preload = [0] + [rng.choice((0, 0, 1)) for _ in range(g.n)]
        grown = list(preload)
        grown[rng.randint(1, g.n)] += 1
        assert brute_forest_min(g, preload) <= brute_forest_min(g, grown)
