import tracemalloc
from itertools import product

import pytest

from cvckit.core import GraphFormatError, normalize_capacities
from cvckit.oracle import solve_canonical, solve_pruned
from cvckit.reductions.smc import SmcInstance, format_smc, parse_smc, reduce_smc
from bruteforce import brute_smc


def test_worked_example_structure():
    inst = SmcInstance(1, (frozenset({1}),), 1, 1)
    red = reduce_smc(inst)
    assert red.budget == 2
    g = red.graph
    element = red.element_vertices[0]
    setv = red.set_vertices[0]
    assert g.deg(element) == 4  # 3 leaves plus one set edge
    assert g.capacity[element] == 3
    assert g.capacity[setv] == 1
    assert solve_pruned(g, red.budget)[0] is True


def test_demand_beyond_available_sets_is_no():
    inst = SmcInstance(1, (frozenset({1}),), 2, 2)
    red = reduce_smc(inst)
    assert brute_smc(1, inst.sets, 2, 2) is False
    assert solve_pruned(red.graph, red.budget)[0] is False


def test_two_elements_one_good_set():
    inst = SmcInstance(2, (frozenset({1, 2}), frozenset({1})), 1, 1)
    red = reduce_smc(inst)
    assert solve_pruned(red.graph, red.budget)[0] is True


def test_under_covered_element_is_no():
    # element with no covering set cannot be padded by leaves
    inst = SmcInstance(1, (frozenset(),), 1, 1)
    red = reduce_smc(inst)
    assert brute_smc(1, inst.sets, 1, 1) is False
    assert solve_pruned(red.graph, red.budget)[0] is False


def test_capacity_consistency():
    inst = SmcInstance(3, (frozenset({1, 2}), frozenset({2, 3}), frozenset({1})), 2, 2)
    red = reduce_smc(inst)
    g = red.graph
    for x in red.element_vertices:
        assert g.capacity[x] == max(g.deg(x) - inst.demand, 0)
    for u in red.set_vertices:
        assert g.capacity[u] == g.deg(u)
    assert normalize_capacities(g) == g


def test_equivalence_small_exhaustive():
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        subsets = [frozenset(s) for r in range(m + 1) for s in __import__("itertools").combinations(range(1, m + 1), r)]
        for sets in product(subsets, repeat=n):
            for b in (1, 2):
                for k in range(0, 3):
                    inst = SmcInstance(m, tuple(sets), b, k)
                    expected = brute_smc(m, sets, b, k)
                    red = reduce_smc(inst)
                    assert solve_pruned(red.graph, red.budget)[0] == expected


def test_canonical_agrees_with_pruned_on_worked_example():
    inst = SmcInstance(1, (frozenset({1}),), 1, 1)
    red = reduce_smc(inst)
    pruned = solve_pruned(red.graph, red.budget)[0]
    canonical = solve_canonical(red.graph, red.meta, red.budget)[0]
    assert pruned == canonical


def test_smc_file_roundtrip():
    inst = SmcInstance(3, (frozenset({1, 3}), frozenset({2})), 1, 2)
    assert parse_smc(format_smc(inst)) == inst


def test_smc_parse_rejects_bad_element():
    with pytest.raises(GraphFormatError):
        parse_smc("smc 2 1 1 1\nset 1 5\n")


def test_header_set_count_allocates_nothing_before_the_refusal():
    tracemalloc.start()
    try:
        with pytest.raises(GraphFormatError, match=r"^expected sets 1\.\.1000000$"):
            parse_smc("smc 1 1000000 1 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
