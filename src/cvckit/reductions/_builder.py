"""The vertex ids, pendant pins and capacities every construction shares.

Each vertex carries a demand: how many of its edges it must push onto a
neighbour.  Its capacity is deg(v) - demand, floored at 0, with degrees
counted once the edge list is complete.  A marked vertex is pinned by more
pendant leaves than the budget, so every solution within budget selects
it; a leaf of demand 0 has capacity 1, a leaf of demand 1 capacity 0.
"""

from __future__ import annotations

from itertools import repeat

from ..core import CapacitatedGraph


class Builder:
    def __init__(self):
        self.edges: list[tuple[int, int]] = []  # canonical (min, max) pairs
        self.demand: list[int] = [0]  # index 0 unused, demand[v] for v = 1, 2, ...

    def vertex(self, demand: int = 0) -> int:
        """A new vertex; ids are 1, 2, ... in call order."""
        self.demand.append(demand)
        return len(self.demand) - 1

    def edge(self, u: int, v: int) -> None:
        self.edges.append((u, v) if u < v else (v, u))

    def pin(self, v: int, count: int, demand: int = 0) -> range:
        """Hang ``count`` new pendant leaves on v; returns their ids."""
        leaves = range(len(self.demand), len(self.demand) + count)
        self.demand.extend([demand] * count)
        self.edges.extend(zip(repeat(v), leaves))  # leaves get later ids, so the pairs are canonical
        return leaves

    def graph(self, budget: int) -> CapacitatedGraph:
        """The graph built so far, its edges sorted once.  The constructor
        checks them: a loop, a repeated edge or an id outside 1..n is a
        ``StructuralError``.  Capacities are deg - demand, floored at 0, over
        the graph's own degrees."""
        n = len(self.demand) - 1
        g = CapacitatedGraph(n, tuple(sorted(self.edges)), (0,) * (n + 1), budget)
        return g.with_capacity([d - dem if d > dem else 0 for d, dem in zip(g.degree, self.demand)])
