import random

import pytest

from cvckit.core import CapacitatedGraph, StructuralError
from cvckit.detecting import build_family
from cvckit.reductions._builder import Builder
from cvckit.reductions.mcc import MccInstance, reduce_mcc_td
from cvckit.reductions.sat import Cnf1in3, group_formula, reduce_sat_cw, reduce_sat_natural
from cvckit.reductions.smc import SmcInstance, reduce_smc
from cvckit.generators import random_mcc


def _reference_graph(b: Builder, budget: int) -> CapacitatedGraph:
    """The graph through ``CapacitatedGraph.build``: edges canonicalised,
    deduplicated, sorted and checked by ``__post_init__``."""
    deg = [0] * len(b.demand)
    for u, v in b.edges:
        deg[u] += 1
        deg[v] += 1
    caps = [d - dem if d > dem else 0 for d, dem in zip(deg, b.demand)]
    return CapacitatedGraph.build(len(caps) - 1, b.edges, caps, budget=budget)


def _formula(rng, n, m):
    return Cnf1in3(n, tuple(
        tuple((v, rng.random() < 0.5) for v in rng.sample(range(1, n + 1), 3)) for _ in range(m)
    ))


def _natural(psi):
    grouping = group_formula(psi, "greedy")
    return reduce_sat_natural(psi, grouping, [build_family(len(cg), 4) for cg in grouping.clause_groups])


def _inputs(rng):
    for _ in range(8):
        sets = tuple(frozenset(x for x in range(1, 5) if rng.random() < 0.5) for _ in range(rng.randint(0, 4)))
        inst = SmcInstance(4, sets, rng.randint(0, 2), rng.randint(0, 3))
        yield "smc", lambda inst=inst: reduce_smc(inst)
        psi = _formula(rng, rng.randint(3, 9), rng.randint(0, 5))
        yield "sat-natural", lambda psi=psi: _natural(psi)
        yield "sat-cw", lambda psi=psi: reduce_sat_cw(psi)
    for seed in range(3):
        k, n, edges = random_mcc(2, rng.randint(1, 2), 0.5, seed)
        yield "mcc-td", lambda inst=MccInstance(k, n, frozenset(edges)): reduce_mcc_td(inst)


def test_builder_graph_equals_the_build_reference(monkeypatch):
    built = []
    graph = Builder.graph

    def capturing(self, budget):
        g = graph(self, budget)
        built.append((g, _reference_graph(self, budget), len(set(self.edges)) == len(self.edges)))
        return g

    monkeypatch.setattr(Builder, "graph", capturing)
    seen = set()
    for kind, reduce in _inputs(random.Random(5)):
        reduce()
        g, want, distinct = built.pop()
        assert distinct  # no construction repeats an edge
        assert (g.n, g.edges, g.capacity, g.budget) == (want.n, want.edges, want.capacity, want.budget)
        assert g == want
        seen.add(kind)
    assert seen == {"smc", "sat-natural", "sat-cw", "mcc-td"}


def test_builder_edges_are_canonical():
    b = Builder()
    u, v = b.vertex(), b.vertex()
    b.edge(v, u)
    b.pin(u, 2)
    assert b.edges == [(1, 2), (1, 3), (1, 4)]
    g = b.graph(1)
    assert g.edges == ((1, 2), (1, 3), (1, 4)) and g.capacity == (0, 3, 1, 1, 1)


@pytest.mark.parametrize("edges, message", [
    ([(1, 1)], "loop"),
    ([(1, 2), (2, 1)], "repeated edge"),
    ([(1, 2), (1, 3), (1, 2)], "repeated edge"),
    ([(1, 4)], "outside"),
    ([(0, 2)], "outside"),
], ids=["loop", "reversed-repeat", "repeat", "above-n", "zero"])
def test_builder_graph_refuses_a_bad_edge(edges, message):
    b = Builder()
    for _ in range(3):
        b.vertex()
    for u, v in edges:
        b.edge(u, v)
    with pytest.raises(StructuralError, match=message):
        b.graph(0)


def test_builder_graph_of_no_vertices():
    g = Builder().graph(0)
    assert (g.n, g.edges, g.capacity, g.budget) == (0, (), (0,), 0)
